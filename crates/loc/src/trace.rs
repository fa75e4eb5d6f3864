//! Trace data model: events with NePSim-style annotations.

use std::fmt::Write as _;

use crate::ast::AnnotKey;

/// The annotations attached to a single trace event (paper Fig. 3).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Annotations {
    /// Core clock cycles elapsed from the beginning of simulation.
    pub cycle: u64,
    /// Simulated time in microseconds.
    pub time: f64,
    /// Cumulative energy consumed in microjoules.
    pub energy: f64,
    /// Total packets received or transmitted so far.
    pub total_pkt: u64,
    /// Total bits received or transmitted so far.
    pub total_bit: u64,
    /// Additional named annotations (e.g. per-ME idle fraction).
    pub extra: Vec<(String, f64)>,
}

impl Annotations {
    /// Reads the annotation selected by `key` as a `f64`.
    ///
    /// Unknown custom keys read as `NaN`, which propagates into formula
    /// values and is reported via the analyzer's underflow bin rather than
    /// silently producing a plausible number.
    #[must_use]
    pub fn get(&self, key: &AnnotKey) -> f64 {
        match key {
            AnnotKey::Cycle => self.cycle as f64,
            AnnotKey::Time => self.time,
            AnnotKey::Energy => self.energy,
            AnnotKey::TotalPkt => self.total_pkt as f64,
            AnnotKey::TotalBit => self.total_bit as f64,
            AnnotKey::Custom(name) => self
                .extra
                .iter()
                .find(|(n, _)| n == name)
                .map_or(f64::NAN, |(_, v)| *v),
        }
    }

    /// Sets (or replaces) a custom annotation.
    pub fn set_extra(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        if let Some(slot) = self.extra.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = value;
        } else {
            self.extra.push((name, value));
        }
    }
}

/// One line of a simulation trace: an event name plus its annotations.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Event name, e.g. `forward`, `fifo`, `m2_pipeline`.
    pub event: String,
    /// The annotations sampled when the event fired.
    pub annots: Annotations,
}

impl TraceRecord {
    /// Creates a record.
    #[must_use]
    pub fn new(event: impl Into<String>, annots: Annotations) -> Self {
        TraceRecord {
            event: event.into(),
            annots,
        }
    }
}

/// An in-memory simulation trace.
///
/// # Example
///
/// ```
/// use loc::{Annotations, Trace, TraceRecord};
/// let mut trace = Trace::new();
/// trace.push(TraceRecord::new("forward", Annotations::default()));
/// assert_eq!(trace.len(), 1);
/// assert_eq!(trace.count_of("forward"), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    records: Vec<TraceRecord>,
}

impl Trace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Trace {
            records: Vec::new(),
        }
    }

    /// Appends a record.
    pub fn push(&mut self, record: TraceRecord) {
        self.records.push(record);
    }

    /// Number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` if the trace holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates over records in order.
    pub fn iter(&self) -> std::slice::Iter<'_, TraceRecord> {
        self.records.iter()
    }

    /// Number of instances of the named event.
    #[must_use]
    pub fn count_of(&self, event: &str) -> usize {
        self.records.iter().filter(|r| r.event == event).count()
    }

    /// Renders the trace in the NePSim text format of paper Fig. 4:
    /// whitespace-separated `cycle time energy total_pkt total_bit event`
    /// columns under a header line.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("cycle time(us) energy(uJ) total_pkt total_bit event\n");
        for r in &self.records {
            let _ = writeln!(
                out,
                "{} {:.3} {:.6} {} {} {}",
                r.annots.cycle,
                r.annots.time,
                r.annots.energy,
                r.annots.total_pkt,
                r.annots.total_bit,
                r.event
            );
        }
        out
    }

    /// Parses the text format produced by [`Trace::to_text`].
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending line when a
    /// line has too few columns or an unparsable number.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut trace = Trace::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with("cycle ") {
                continue;
            }
            let cols: Vec<&str> = line.split_whitespace().collect();
            if cols.len() < 6 {
                return Err(format!("line {}: expected 6 columns", lineno + 1));
            }
            let parse_err = |what: &str| format!("line {}: bad {what}", lineno + 1);
            let annots = Annotations {
                cycle: cols[0].parse().map_err(|_| parse_err("cycle"))?,
                time: cols[1].parse().map_err(|_| parse_err("time"))?,
                energy: cols[2].parse().map_err(|_| parse_err("energy"))?,
                total_pkt: cols[3].parse().map_err(|_| parse_err("total_pkt"))?,
                total_bit: cols[4].parse().map_err(|_| parse_err("total_bit"))?,
                extra: Vec::new(),
            };
            trace.push(TraceRecord::new(cols[5..].join(" "), annots));
        }
        Ok(trace)
    }
}

impl FromIterator<TraceRecord> for Trace {
    fn from_iter<T: IntoIterator<Item = TraceRecord>>(iter: T) -> Self {
        Trace {
            records: iter.into_iter().collect(),
        }
    }
}

impl Extend<TraceRecord> for Trace {
    fn extend<T: IntoIterator<Item = TraceRecord>>(&mut self, iter: T) {
        self.records.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceRecord;
    type IntoIter = std::slice::Iter<'a, TraceRecord>;
    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

impl IntoIterator for Trace {
    type Item = TraceRecord;
    type IntoIter = std::vec::IntoIter<TraceRecord>;
    fn into_iter(self) -> Self::IntoIter {
        self.records.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(event: &str, cycle: u64, time: f64) -> TraceRecord {
        TraceRecord::new(
            event,
            Annotations {
                cycle,
                time,
                energy: 0.5 * cycle as f64,
                total_pkt: cycle / 10,
                total_bit: cycle * 8,
                extra: Vec::new(),
            },
        )
    }

    #[test]
    fn annotation_get_covers_standard_keys() {
        let a = Annotations {
            cycle: 3,
            time: 1.5,
            energy: 2.5,
            total_pkt: 7,
            total_bit: 99,
            extra: vec![("idle".into(), 0.25)],
        };
        assert_eq!(a.get(&AnnotKey::Cycle), 3.0);
        assert_eq!(a.get(&AnnotKey::Time), 1.5);
        assert_eq!(a.get(&AnnotKey::Energy), 2.5);
        assert_eq!(a.get(&AnnotKey::TotalPkt), 7.0);
        assert_eq!(a.get(&AnnotKey::TotalBit), 99.0);
        assert_eq!(a.get(&AnnotKey::Custom("idle".into())), 0.25);
        assert!(a.get(&AnnotKey::Custom("missing".into())).is_nan());
    }

    #[test]
    fn set_extra_replaces_existing() {
        let mut a = Annotations::default();
        a.set_extra("x", 1.0);
        a.set_extra("x", 2.0);
        assert_eq!(a.extra.len(), 1);
        assert_eq!(a.get(&AnnotKey::Custom("x".into())), 2.0);
    }

    #[test]
    fn text_round_trip() {
        let trace: Trace = (0..5).map(|k| rec("forward", 100 * k, k as f64)).collect();
        let text = trace.to_text();
        let parsed = Trace::from_text(&text).unwrap();
        assert_eq!(parsed.len(), 5);
        for (a, b) in trace.iter().zip(parsed.iter()) {
            assert_eq!(a.event, b.event);
            assert_eq!(a.annots.cycle, b.annots.cycle);
            assert_eq!(a.annots.total_bit, b.annots.total_bit);
        }
    }

    #[test]
    fn text_format_resembles_paper_fig4() {
        let mut trace = Trace::new();
        trace.push(rec("m2_pipeline", 365, 1.573));
        let text = trace.to_text();
        let mut lines = text.lines();
        assert!(lines.next().unwrap().starts_with("cycle time"));
        assert!(lines.next().unwrap().ends_with("m2_pipeline"));
    }

    #[test]
    fn from_text_rejects_malformed_lines() {
        assert!(Trace::from_text("1 2 3").is_err());
        assert!(Trace::from_text("x 1.0 1.0 1 1 ev").is_err());
        // Header and blank lines are skipped.
        let ok = Trace::from_text("cycle time(us) energy(uJ) total_pkt total_bit event\n\n");
        assert_eq!(ok.unwrap().len(), 0);
    }

    #[test]
    fn count_of_filters_by_name() {
        let mut t = Trace::new();
        t.push(rec("a", 0, 0.0));
        t.push(rec("b", 1, 0.0));
        t.push(rec("a", 2, 0.0));
        assert_eq!(t.count_of("a"), 2);
        assert_eq!(t.count_of("b"), 1);
        assert_eq!(t.count_of("c"), 0);
    }
}
