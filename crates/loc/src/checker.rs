//! Automatically generated trace checkers for assertion formulas.

use crate::ast::Formula;
use crate::error::EvalError;
use crate::eval::{eval_bool, EventWindow};
use crate::trace::{Trace, TraceRecord};

/// A single assertion violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The value of the index variable `i` at which the assertion failed.
    pub index: i64,
}

/// Result of running a [`Checker`] over a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckReport {
    /// Number of formula instances evaluated.
    pub instances: u64,
    /// Number of instances that violated the assertion.
    pub violation_count: u64,
    /// The first violations, up to the checker's `max_stored` limit.
    pub violations: Vec<Violation>,
}

impl CheckReport {
    /// `true` when the assertion held on every evaluated instance.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.violation_count == 0
    }
}

/// A streaming checker generated from an assertion [`Formula`].
///
/// Feed it trace records in order with [`Checker::push`] (or a whole
/// [`Trace`] with [`Checker::check`]) and collect the [`CheckReport`] with
/// [`Checker::finish`].
///
/// # Example
///
/// ```
/// use loc::{parse, Annotations, Checker, TraceRecord};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let formula = parse("cycle(deq[i]) - cycle(enq[i]) <= 50")?;
/// let mut checker = Checker::from_formula(&formula)?;
/// for k in 0..10u64 {
///     let enq = Annotations { cycle: k * 100, ..Annotations::default() };
///     let deq = Annotations { cycle: k * 100 + 20, ..Annotations::default() };
///     checker.push(&TraceRecord::new("enq", enq));
///     checker.push(&TraceRecord::new("deq", deq));
/// }
/// let report = checker.finish();
/// assert!(report.passed());
/// assert_eq!(report.instances, 10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Checker {
    formula: Formula,
    window: EventWindow,
    instances: u64,
    violation_count: u64,
    violations: Vec<Violation>,
    max_stored: usize,
}

impl Checker {
    /// Default cap on the number of violations stored in the report.
    pub const DEFAULT_MAX_STORED: usize = 1024;

    /// Generates a checker from an assertion formula.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::WrongFormulaKind`] for distribution formulas and
    /// [`EvalError::NoEvents`] for formulas that reference no events.
    pub fn from_formula(formula: &Formula) -> Result<Self, EvalError> {
        if !matches!(formula, Formula::Assert(_)) {
            return Err(EvalError::WrongFormulaKind {
                expected: "assertion",
            });
        }
        let window = EventWindow::from_formula(formula)?;
        Ok(Checker {
            formula: formula.clone(),
            window,
            instances: 0,
            violation_count: 0,
            violations: Vec::new(),
            max_stored: Self::DEFAULT_MAX_STORED,
        })
    }

    /// Changes the cap on stored violations (the count is always exact).
    #[must_use]
    pub fn with_max_stored(mut self, max_stored: usize) -> Self {
        self.max_stored = max_stored;
        self
    }

    /// Feeds one trace record; evaluates any instances that became ready.
    pub fn push(&mut self, record: &TraceRecord) {
        if !self.window.push(record) {
            return;
        }
        let Formula::Assert(body) = &self.formula else {
            unreachable!("constructor enforces assertion formulas");
        };
        while self.window.ready() {
            self.instances += 1;
            if !eval_bool(body, &self.window) {
                self.violation_count += 1;
                if self.violations.len() < self.max_stored {
                    self.violations.push(Violation {
                        index: self.window.next_index(),
                    });
                }
            }
            self.window.advance();
        }
    }

    /// Runs the checker over an entire trace and returns the report.
    pub fn check(mut self, trace: &Trace) -> CheckReport {
        for record in trace {
            self.push(record);
        }
        self.finish()
    }

    /// Finalises and returns the report.
    #[must_use]
    pub fn finish(self) -> CheckReport {
        CheckReport {
            instances: self.instances,
            violation_count: self.violation_count,
            violations: self.violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use crate::trace::Annotations;

    fn cyc(event: &str, cycle: u64) -> TraceRecord {
        TraceRecord::new(
            event,
            Annotations {
                cycle,
                ..Annotations::default()
            },
        )
    }

    #[test]
    fn paper_latency_example_passes_and_fails() {
        let f = parse("cycle(deq[i]) - cycle(enq[i]) <= 50").unwrap();

        // All latencies 20 -> pass.
        let mut trace = Trace::new();
        for k in 0..100u64 {
            trace.push(cyc("enq", k * 100));
            trace.push(cyc("deq", k * 100 + 20));
        }
        let report = Checker::from_formula(&f).unwrap().check(&trace);
        assert!(report.passed());
        assert_eq!(report.instances, 100);

        // One latency of 80 -> exactly one violation at the right index.
        let mut trace = Trace::new();
        for k in 0..100u64 {
            trace.push(cyc("enq", k * 100));
            let lat = if k == 37 { 80 } else { 20 };
            trace.push(cyc("deq", k * 100 + lat));
        }
        let report = Checker::from_formula(&f).unwrap().check(&trace);
        assert!(!report.passed());
        assert_eq!(report.violation_count, 1);
        assert_eq!(report.violations[0].index, 37);
    }

    #[test]
    fn violation_storage_is_capped_but_count_exact() {
        let f = parse("cycle(ev[i]) < 0").unwrap(); // always false
        let mut checker = Checker::from_formula(&f).unwrap().with_max_stored(10);
        for k in 0..100u64 {
            checker.push(&cyc("ev", k));
        }
        let report = checker.finish();
        assert_eq!(report.violation_count, 100);
        assert_eq!(report.violations.len(), 10);
    }

    #[test]
    fn rejects_distribution_formula() {
        let f = parse("cycle(ev[i]) dist== (0, 1, 0.1)").unwrap();
        assert!(matches!(
            Checker::from_formula(&f),
            Err(EvalError::WrongFormulaKind { .. })
        ));
    }

    #[test]
    fn incomplete_final_instances_are_not_evaluated() {
        // deq[i] requires a matching deq; last enq has none.
        let f = parse("cycle(deq[i]) - cycle(enq[i]) <= 50").unwrap();
        let mut trace = Trace::new();
        trace.push(cyc("enq", 0));
        trace.push(cyc("deq", 10));
        trace.push(cyc("enq", 100)); // unmatched
        let report = Checker::from_formula(&f).unwrap().check(&trace);
        assert_eq!(report.instances, 1);
    }

    #[test]
    fn empty_trace_passes_vacuously() {
        let f = parse("cycle(ev[i]) >= 0").unwrap();
        let report = Checker::from_formula(&f).unwrap().check(&Trace::new());
        assert!(report.passed());
        assert_eq!(report.instances, 0);
    }
}
