//! Abstract syntax for LOC formulas.

use std::fmt;

/// The annotation carried by every trace event that a formula may read.
///
/// The first five are the standard NePSim annotations (paper Fig. 3);
/// [`AnnotKey::Custom`] reads from a record's extra annotations by name.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AnnotKey {
    /// Core clock cycles elapsed from the beginning of simulation.
    Cycle,
    /// Simulated time in microseconds.
    Time,
    /// Cumulative energy consumed, in microjoules.
    Energy,
    /// Total packets received or transmitted so far.
    TotalPkt,
    /// Total bits received or transmitted so far.
    TotalBit,
    /// A custom named annotation.
    Custom(String),
}

impl AnnotKey {
    /// Parses a standard annotation name, falling back to
    /// [`AnnotKey::Custom`] for anything unknown.
    #[must_use]
    pub fn from_name(name: &str) -> Self {
        match name {
            "cycle" => AnnotKey::Cycle,
            "time" => AnnotKey::Time,
            "energy" => AnnotKey::Energy,
            "total_pkt" => AnnotKey::TotalPkt,
            "total_bit" => AnnotKey::TotalBit,
            other => AnnotKey::Custom(other.to_owned()),
        }
    }

    /// The textual name of this annotation as used in formulas.
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            AnnotKey::Cycle => "cycle",
            AnnotKey::Time => "time",
            AnnotKey::Energy => "energy",
            AnnotKey::TotalPkt => "total_pkt",
            AnnotKey::TotalBit => "total_bit",
            AnnotKey::Custom(s) => s,
        }
    }
}

impl fmt::Display for AnnotKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (yields IEEE `inf`/`NaN` on zero denominators; see
    /// [`crate::Analyzer`] for how those are binned).
    Div,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        })
    }
}

/// Comparison operators usable in checker formulas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `<=`
    Le,
    /// `<`
    Lt,
    /// `>=`
    Ge,
    /// `>`
    Gt,
    /// `==` (exact floating-point equality)
    Eq,
    /// `!=`
    Ne,
}

impl CmpOp {
    /// Applies the comparison. Any comparison involving `NaN` is `false`.
    #[must_use]
    pub fn apply(self, lhs: f64, rhs: f64) -> bool {
        match self {
            CmpOp::Le => lhs <= rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Ge => lhs >= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Le => "<=",
            CmpOp::Lt => "<",
            CmpOp::Ge => ">=",
            CmpOp::Gt => ">",
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
        })
    }
}

/// An arithmetic expression over event annotations and constants.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A numeric literal.
    Const(f64),
    /// `annot(event[i + offset])` — the value of annotation `key` on the
    /// `(i + offset)`-th instance of `event`.
    Annot {
        /// Which annotation to read.
        key: AnnotKey,
        /// The event name whose instance stream is indexed.
        event: String,
        /// Offset added to the index variable `i` (may be negative).
        offset: i64,
    },
    /// Arithmetic negation.
    Neg(Box<Expr>),
    /// A binary arithmetic operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
}

impl Expr {
    /// Convenience constructor for an annotation access.
    #[must_use]
    pub fn annot(key: AnnotKey, event: impl Into<String>, offset: i64) -> Self {
        Expr::Annot {
            key,
            event: event.into(),
            offset,
        }
    }

    /// Calls `f` on every annotation access in the expression.
    pub fn visit_annots<F: FnMut(&AnnotKey, &str, i64)>(&self, f: &mut F) {
        match self {
            Expr::Const(_) => {}
            Expr::Annot { key, event, offset } => f(key, event, *offset),
            Expr::Neg(e) => e.visit_annots(f),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.visit_annots(f);
                rhs.visit_annots(f);
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(c) => write!(f, "{c}"),
            Expr::Annot { key, event, offset } => {
                if *offset == 0 {
                    write!(f, "{key}({event}[i])")
                } else if *offset > 0 {
                    write!(f, "{key}({event}[i+{offset}])")
                } else {
                    write!(f, "{key}({event}[i-{}])", -offset)
                }
            }
            Expr::Neg(e) => write!(f, "-({e})"),
            Expr::Binary { op, lhs, rhs } => write!(f, "({lhs} {op} {rhs})"),
        }
    }
}

/// A boolean constraint over expressions — the body of a checker formula.
#[derive(Debug, Clone, PartialEq)]
pub enum BoolExpr {
    /// A comparison between two arithmetic expressions.
    Cmp {
        /// The comparison operator.
        op: CmpOp,
        /// Left-hand side.
        lhs: Expr,
        /// Right-hand side.
        rhs: Expr,
    },
    /// Logical conjunction.
    And(Box<BoolExpr>, Box<BoolExpr>),
    /// Logical disjunction.
    Or(Box<BoolExpr>, Box<BoolExpr>),
    /// Logical negation.
    Not(Box<BoolExpr>),
}

impl BoolExpr {
    /// Calls `f` on every annotation access in the constraint.
    pub fn visit_annots<F: FnMut(&AnnotKey, &str, i64)>(&self, f: &mut F) {
        match self {
            BoolExpr::Cmp { lhs, rhs, .. } => {
                lhs.visit_annots(f);
                rhs.visit_annots(f);
            }
            BoolExpr::And(a, b) | BoolExpr::Or(a, b) => {
                a.visit_annots(f);
                b.visit_annots(f);
            }
            BoolExpr::Not(a) => a.visit_annots(f),
        }
    }
}

impl fmt::Display for BoolExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoolExpr::Cmp { op, lhs, rhs } => write!(f, "{lhs} {op} {rhs}"),
            BoolExpr::And(a, b) => write!(f, "({a}) && ({b})"),
            BoolExpr::Or(a, b) => write!(f, "({a}) || ({b})"),
            BoolExpr::Not(a) => write!(f, "!({a})"),
        }
    }
}

/// The distribution relation of an analysis formula (the paper's three new
/// operators).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DistRel {
    /// `dist==`: bin into `(-inf,min], (min,min+step], …, (max,+inf)`.
    Eq,
    /// `dist<=`: cumulative-from-below, `(-inf,min], (-inf,min+step], …`.
    Le,
    /// `dist>=`: cumulative-from-above, `[min,+inf), [min+step,+inf), …`.
    Ge,
}

impl fmt::Display for DistRel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DistRel::Eq => "dist==",
            DistRel::Le => "dist<=",
            DistRel::Ge => "dist>=",
        })
    }
}

/// A complete LOC formula: either an assertion to check on every instance,
/// or a distribution analysis of a quantity over a period `(min, max, step)`.
#[derive(Debug, Clone, PartialEq)]
pub enum Formula {
    /// An assertion that must hold for all values of `i`.
    Assert(BoolExpr),
    /// A distribution analysis (paper §2.3 extension).
    Dist {
        /// The quantity whose distribution is analyzed.
        expr: Expr,
        /// Which distribution operator.
        rel: DistRel,
        /// Lower bound of the analysis period.
        min: f64,
        /// Upper bound of the analysis period.
        max: f64,
        /// Bin width.
        step: f64,
    },
}

impl Formula {
    /// Calls `f` on every annotation access in the formula.
    pub fn visit_annots<F: FnMut(&AnnotKey, &str, i64)>(&self, f: &mut F) {
        match self {
            Formula::Assert(b) => b.visit_annots(f),
            Formula::Dist { expr, .. } => expr.visit_annots(f),
        }
    }

    /// All event names referenced by the formula, deduplicated, in first-use
    /// order.
    #[must_use]
    pub fn events(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        self.visit_annots(&mut |_, ev, _| {
            if !out.iter().any(|e| e == ev) {
                out.push(ev.to_owned());
            }
        });
        out
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::Assert(b) => write!(f, "{b}"),
            Formula::Dist {
                expr,
                rel,
                min,
                max,
                step,
            } => write!(f, "{expr} {rel} ({min}, {max}, {step})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_expr() -> Expr {
        Expr::Binary {
            op: BinOp::Sub,
            lhs: Box::new(Expr::annot(AnnotKey::Time, "forward", 100)),
            rhs: Box::new(Expr::annot(AnnotKey::Time, "forward", 0)),
        }
    }

    #[test]
    fn annot_key_round_trip() {
        for name in ["cycle", "time", "energy", "total_pkt", "total_bit", "xyz"] {
            assert_eq!(AnnotKey::from_name(name).name(), name);
        }
        assert_eq!(AnnotKey::from_name("xyz"), AnnotKey::Custom("xyz".into()));
    }

    #[test]
    fn cmp_op_semantics() {
        assert!(CmpOp::Le.apply(1.0, 1.0));
        assert!(!CmpOp::Lt.apply(1.0, 1.0));
        assert!(CmpOp::Ge.apply(2.0, 1.0));
        assert!(CmpOp::Ne.apply(2.0, 1.0));
        // NaN comparisons: only Ne is true.
        assert!(!CmpOp::Le.apply(f64::NAN, 1.0));
        assert!(!CmpOp::Eq.apply(f64::NAN, f64::NAN));
        assert!(CmpOp::Ne.apply(f64::NAN, f64::NAN));
    }

    #[test]
    fn expr_display_matches_grammar() {
        assert_eq!(
            sample_expr().to_string(),
            "(time(forward[i+100]) - time(forward[i]))"
        );
        let neg = Expr::Neg(Box::new(Expr::Const(3.0)));
        assert_eq!(neg.to_string(), "-(3)");
        let back = Expr::annot(AnnotKey::Cycle, "enq", -1);
        assert_eq!(back.to_string(), "cycle(enq[i-1])");
    }

    #[test]
    fn formula_events_deduplicates() {
        let f = Formula::Dist {
            expr: sample_expr(),
            rel: DistRel::Eq,
            min: 0.0,
            max: 1.0,
            step: 0.1,
        };
        assert_eq!(f.events(), vec!["forward".to_owned()]);
    }

    #[test]
    fn formula_display() {
        let f = Formula::Dist {
            expr: sample_expr(),
            rel: DistRel::Le,
            min: 40.0,
            max: 80.0,
            step: 5.0,
        };
        assert_eq!(
            f.to_string(),
            "(time(forward[i+100]) - time(forward[i])) dist<= (40, 80, 5)"
        );
    }

    #[test]
    fn bool_expr_visit_covers_all_nodes() {
        let cmp = |ev: &str| BoolExpr::Cmp {
            op: CmpOp::Le,
            lhs: Expr::annot(AnnotKey::Cycle, ev, 0),
            rhs: Expr::Const(50.0),
        };
        let b = BoolExpr::And(
            Box::new(BoolExpr::Not(Box::new(cmp("a")))),
            Box::new(BoolExpr::Or(Box::new(cmp("b")), Box::new(cmp("c")))),
        );
        let mut seen = Vec::new();
        b.visit_annots(&mut |_, ev, _| seen.push(ev.to_owned()));
        assert_eq!(seen, vec!["a", "b", "c"]);
    }
}
