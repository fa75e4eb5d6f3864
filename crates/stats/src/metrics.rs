//! The measured quantities of one simulation cell ([`RunMetrics`]) and
//! their replicated fold ([`ReplicatedMetrics`]: one [`Summary`] per
//! field).

use crate::{ConfidenceInterval, ConfidenceLevel, Summary};

/// The scalar metrics one simulated cell reports — the same ten
/// quantities every `--json` document's `"metrics"` object carries, as
/// plain numbers so the statistics layer needs no knowledge of the
/// simulator or the trace analyzers that produced them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunMetrics {
    /// Offered load, Mbps.
    pub offered_mbps: f64,
    /// Forwarding throughput, Mbps.
    pub throughput_mbps: f64,
    /// Mean chip power, W.
    pub mean_power_w: f64,
    /// Paper formula (2): power below which 80 % of windows fall, W.
    pub p80_power_w: f64,
    /// Paper formula (3): throughput above which 80 % of windows fall,
    /// Mbps.
    pub p80_throughput_mbps: f64,
    /// Packet-loss ratio.
    pub loss_ratio: f64,
    /// Mean idle fraction of the receive MEs.
    pub rx_idle_fraction: f64,
    /// Total chip energy, µJ.
    pub total_energy_uj: f64,
    /// Total VF switches.
    pub total_switches: u64,
    /// Packets fully forwarded.
    pub forwarded_packets: u64,
}

/// The replicated fold of a cell: one [`Summary`] per [`RunMetrics`]
/// field, filled by pushing the per-seed metrics **in replicate order**
/// (which is what keeps the fold bit-identical for any worker count).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ReplicatedMetrics {
    /// Offered load, Mbps.
    pub offered_mbps: Summary,
    /// Forwarding throughput, Mbps.
    pub throughput_mbps: Summary,
    /// Mean chip power, W.
    pub mean_power_w: Summary,
    /// Paper formula (2) 80th percentile power, W.
    pub p80_power_w: Summary,
    /// Paper formula (3) 80th percentile throughput, Mbps.
    pub p80_throughput_mbps: Summary,
    /// Packet-loss ratio.
    pub loss_ratio: Summary,
    /// Receive-ME idle fraction.
    pub rx_idle_fraction: Summary,
    /// Total chip energy, µJ.
    pub total_energy_uj: Summary,
    /// Total VF switches.
    pub total_switches: Summary,
    /// Forwarded packets.
    pub forwarded_packets: Summary,
}

impl ReplicatedMetrics {
    /// An empty fold.
    #[must_use]
    pub fn new() -> Self {
        ReplicatedMetrics::default()
    }

    /// Folds one replicate's metrics into every per-field summary.
    pub fn push(&mut self, m: &RunMetrics) {
        self.offered_mbps.push(m.offered_mbps);
        self.throughput_mbps.push(m.throughput_mbps);
        self.mean_power_w.push(m.mean_power_w);
        self.p80_power_w.push(m.p80_power_w);
        self.p80_throughput_mbps.push(m.p80_throughput_mbps);
        self.loss_ratio.push(m.loss_ratio);
        self.rx_idle_fraction.push(m.rx_idle_fraction);
        self.total_energy_uj.push(m.total_energy_uj);
        self.total_switches.push(m.total_switches as f64);
        self.forwarded_packets.push(m.forwarded_packets as f64);
    }

    /// Folds an iterator of per-replicate metrics, in iteration order.
    #[must_use]
    pub fn of<'a>(metrics: impl IntoIterator<Item = &'a RunMetrics>) -> Self {
        let mut folded = ReplicatedMetrics::new();
        for m in metrics {
            folded.push(m);
        }
        folded
    }

    /// Number of replicates folded so far.
    #[must_use]
    pub fn replicates(&self) -> u64 {
        self.mean_power_w.n()
    }

    /// Every per-field summary with its stable field name, in
    /// [`RunMetrics`] declaration order — the iteration tables and JSON
    /// documents render from.
    #[must_use]
    pub fn fields(&self) -> [(&'static str, &Summary); 10] {
        [
            ("offered_mbps", &self.offered_mbps),
            ("throughput_mbps", &self.throughput_mbps),
            ("mean_power_w", &self.mean_power_w),
            ("p80_power_w", &self.p80_power_w),
            ("p80_throughput_mbps", &self.p80_throughput_mbps),
            ("loss_ratio", &self.loss_ratio),
            ("rx_idle_fraction", &self.rx_idle_fraction),
            ("total_energy_uj", &self.total_energy_uj),
            ("total_switches", &self.total_switches),
            ("forwarded_packets", &self.forwarded_packets),
        ]
    }

    /// The widest relative confidence half-width across every field at
    /// `level`, with the owning field's name — the single "how noisy is
    /// this cell" number the bench trajectory tracks. `None` for an
    /// empty fold.
    #[must_use]
    pub fn widest_relative_ci(
        &self,
        level: ConfidenceLevel,
    ) -> Option<(&'static str, ConfidenceInterval)> {
        if self.replicates() == 0 {
            return None;
        }
        self.fields()
            .into_iter()
            .map(|(name, summary)| (name, summary.ci(level)))
            .max_by(|(_, a), (_, b)| {
                a.relative_half_width()
                    .partial_cmp(&b.relative_half_width())
                    .expect("relative half-widths are finite")
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(scale: f64) -> RunMetrics {
        RunMetrics {
            offered_mbps: 1000.0 * scale,
            throughput_mbps: 900.0 * scale,
            mean_power_w: 1.2 * scale,
            p80_power_w: 1.4 * scale,
            p80_throughput_mbps: 850.0 * scale,
            loss_ratio: 0.01 * scale,
            rx_idle_fraction: 0.3,
            total_energy_uj: 5000.0 * scale,
            total_switches: (40.0 * scale) as u64,
            forwarded_packets: (9000.0 * scale) as u64,
        }
    }

    #[test]
    fn fold_tracks_every_field() {
        let folded = ReplicatedMetrics::of(&[metrics(1.0), metrics(1.1), metrics(0.9)]);
        assert_eq!(folded.replicates(), 3);
        assert!((folded.mean_power_w.mean() - 1.2).abs() < 1e-12);
        assert!((folded.throughput_mbps.min() - 810.0).abs() < 1e-9);
        assert!((folded.throughput_mbps.max() - 990.0).abs() < 1e-9);
        for (name, summary) in folded.fields() {
            assert_eq!(summary.n(), 3, "{name} missed a replicate");
        }
    }

    #[test]
    fn field_names_are_unique_and_stable() {
        let folded = ReplicatedMetrics::new();
        let names: Vec<&str> = folded.fields().iter().map(|(n, _)| *n).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        assert_eq!(names[0], "offered_mbps");
        assert_eq!(names[9], "forwarded_packets");
    }

    #[test]
    fn widest_relative_ci_picks_the_noisiest_field() {
        let mut a = metrics(1.0);
        let mut b = metrics(1.0);
        // Make loss_ratio relatively much noisier than everything else.
        a.loss_ratio = 0.001;
        b.loss_ratio = 0.10;
        let folded = ReplicatedMetrics::of(&[a, b]);
        let (name, ci) = folded.widest_relative_ci(ConfidenceLevel::P95).unwrap();
        assert_eq!(name, "loss_ratio");
        assert!(
            ci.relative_half_width() > 1.0,
            "{}",
            ci.relative_half_width()
        );
        assert!(ReplicatedMetrics::new()
            .widest_relative_ci(ConfidenceLevel::P95)
            .is_none());
    }
}
