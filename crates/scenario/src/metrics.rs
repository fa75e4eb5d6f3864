//! Per-window-slice metrics: what one segment of a scenario run
//! measured ([`SegmentMetrics`], the delta between two cumulative
//! simulator snapshots) and the replicated fold of those measurements
//! ([`SegmentDist`], one [`Summary`] per field).

use nepsim::{MeMode, MeRole, SimReport};
use stats::Summary;

/// The scalar metrics of one window slice of a simulation — energy,
/// idle, drops and throughput attributed to `[prev, cur)` by differing
/// two cumulative [`SimReport`] snapshots of the *same* run, so chip
/// state (FIFO contents, VF levels, policy state) carries across the
/// boundary exactly as it did in the simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentMetrics {
    /// Slice length, microseconds.
    pub duration_us: f64,
    /// Offered load over the slice, Mbps.
    pub offered_mbps: f64,
    /// Forwarding throughput over the slice, Mbps.
    pub throughput_mbps: f64,
    /// Mean chip power over the slice, W.
    pub mean_power_w: f64,
    /// Chip energy spent in the slice, µJ.
    pub total_energy_uj: f64,
    /// Packet-loss ratio of the slice (drops / arrivals in the slice).
    pub loss_ratio: f64,
    /// Mean idle fraction of the receive MEs over the slice.
    pub rx_idle_fraction: f64,
    /// Packets that arrived during the slice.
    pub arrived_packets: u64,
    /// Packets dropped during the slice (receive FIFO + tx queue).
    pub dropped_packets: u64,
    /// Packets fully forwarded during the slice.
    pub forwarded_packets: u64,
    /// VF switches applied during the slice.
    pub total_switches: u64,
}

impl SegmentMetrics {
    /// The metrics of the slice between cumulative snapshots `prev`
    /// and `cur` (`prev = None` means the slice starts at time zero, so
    /// the result describes `cur` as a whole run).
    #[must_use]
    pub fn slice(prev: Option<&SimReport>, cur: &SimReport) -> Self {
        let duration_us = match prev {
            None => cur.duration.as_us(),
            Some(p) => cur.duration.saturating_sub(p.duration).as_us(),
        };
        let delta = |f: fn(&SimReport) -> u64| f(cur) - prev.map_or(0, f);
        let arrived_packets = delta(|r| r.arrived_packets);
        let arrived_bits = delta(|r| r.arrived_bits);
        let dropped_packets = delta(|r| r.dropped_packets + r.dropped_tx_packets);
        let forwarded_packets = delta(|r| r.forwarded_packets);
        let forwarded_bits = delta(|r| r.forwarded_bits);
        let total_switches = delta(|r| r.total_switches);
        let total_energy_uj = cur.total_energy_uj() - prev.map_or(0.0, SimReport::total_energy_uj);
        let per_us = |v: f64| {
            if duration_us > 0.0 {
                v / duration_us
            } else {
                0.0
            }
        };
        SegmentMetrics {
            duration_us,
            offered_mbps: per_us(arrived_bits as f64),
            throughput_mbps: per_us(forwarded_bits as f64),
            mean_power_w: per_us(total_energy_uj),
            total_energy_uj,
            loss_ratio: if arrived_packets == 0 {
                0.0
            } else {
                dropped_packets as f64 / arrived_packets as f64
            },
            rx_idle_fraction: rx_idle_delta(prev, cur),
            arrived_packets,
            dropped_packets,
            forwarded_packets,
            total_switches,
        }
    }
}

/// Mean over the receive MEs of (idle time in the slice / accounted
/// time in the slice).
fn rx_idle_delta(prev: Option<&SimReport>, cur: &SimReport) -> f64 {
    let mut fractions = Vec::new();
    for (i, me) in cur.mes.iter().enumerate() {
        if me.role != MeRole::Rx {
            continue;
        }
        let prev_acc = prev.map(|p| p.mes[i].acc);
        let idle = me
            .acc
            .get(MeMode::Idle)
            .saturating_sub(prev_acc.map_or(desim::SimTime::ZERO, |a| a.get(MeMode::Idle)));
        let total = me
            .acc
            .total()
            .saturating_sub(prev_acc.map_or(desim::SimTime::ZERO, |a| a.total()));
        if total > desim::SimTime::ZERO {
            fractions.push(idle.as_secs() / total.as_secs());
        }
    }
    if fractions.is_empty() {
        0.0
    } else {
        fractions.iter().sum::<f64>() / fractions.len() as f64
    }
}

/// The replicated fold of one slice (or of the whole run): one
/// [`Summary`] per [`SegmentMetrics`] field, filled by pushing the
/// per-seed measurements **in replicate order** — the same discipline
/// that keeps every other fold in the workspace bit-identical across
/// worker counts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SegmentDist {
    /// Offered load, Mbps.
    pub offered_mbps: Summary,
    /// Forwarding throughput, Mbps.
    pub throughput_mbps: Summary,
    /// Mean chip power, W.
    pub mean_power_w: Summary,
    /// Chip energy in the slice, µJ.
    pub total_energy_uj: Summary,
    /// Packet-loss ratio.
    pub loss_ratio: Summary,
    /// Receive-ME idle fraction.
    pub rx_idle_fraction: Summary,
    /// Packets dropped in the slice.
    pub dropped_packets: Summary,
    /// Packets forwarded in the slice.
    pub forwarded_packets: Summary,
    /// VF switches in the slice.
    pub total_switches: Summary,
}

impl SegmentDist {
    /// Folds one replicate's slice metrics into every per-field summary.
    pub fn push(&mut self, m: &SegmentMetrics) {
        self.offered_mbps.push(m.offered_mbps);
        self.throughput_mbps.push(m.throughput_mbps);
        self.mean_power_w.push(m.mean_power_w);
        self.total_energy_uj.push(m.total_energy_uj);
        self.loss_ratio.push(m.loss_ratio);
        self.rx_idle_fraction.push(m.rx_idle_fraction);
        self.dropped_packets.push(m.dropped_packets as f64);
        self.forwarded_packets.push(m.forwarded_packets as f64);
        self.total_switches.push(m.total_switches as f64);
    }

    /// Number of replicates folded so far.
    #[must_use]
    pub fn replicates(&self) -> u64 {
        self.mean_power_w.n()
    }

    /// Every per-field summary with its stable field name, in
    /// declaration order — what tables and JSON documents render from.
    #[must_use]
    pub fn fields(&self) -> [(&'static str, &Summary); 9] {
        [
            ("offered_mbps", &self.offered_mbps),
            ("throughput_mbps", &self.throughput_mbps),
            ("mean_power_w", &self.mean_power_w),
            ("total_energy_uj", &self.total_energy_uj),
            ("loss_ratio", &self.loss_ratio),
            ("rx_idle_fraction", &self.rx_idle_fraction),
            ("dropped_packets", &self.dropped_packets),
            ("forwarded_packets", &self.forwarded_packets),
            ("total_switches", &self.total_switches),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nepsim::{Benchmark, NpuConfig, Simulator};
    use traffic::TrafficLevel;

    fn snapshots() -> Vec<SimReport> {
        let config = NpuConfig::builder()
            .benchmark(Benchmark::Ipfwdr)
            .traffic(TrafficLevel::Medium)
            .seed(5)
            .build();
        Simulator::new(config).run_cycle_segments(&[200_000, 400_000, 600_000])
    }

    #[test]
    fn slices_partition_the_whole_run() {
        let snaps = snapshots();
        let whole = SegmentMetrics::slice(None, &snaps[2]);
        let mut prev = None;
        let mut forwarded = 0;
        let mut dropped = 0;
        let mut energy = 0.0;
        let mut time_us = 0.0;
        for snap in &snaps {
            let s = SegmentMetrics::slice(prev, snap);
            forwarded += s.forwarded_packets;
            dropped += s.dropped_packets;
            energy += s.total_energy_uj;
            time_us += s.duration_us;
            prev = Some(snap);
        }
        assert_eq!(forwarded, whole.forwarded_packets);
        assert_eq!(dropped, whole.dropped_packets);
        assert!((energy - whole.total_energy_uj).abs() < 1e-9);
        assert!((time_us - whole.duration_us).abs() < 1e-9);
    }

    #[test]
    fn slice_rates_are_plausible() {
        let snaps = snapshots();
        let first = SegmentMetrics::slice(None, &snaps[0]);
        assert!(first.offered_mbps > 100.0, "{}", first.offered_mbps);
        assert!(first.mean_power_w > 0.2, "{}", first.mean_power_w);
        assert!((0.0..=1.0).contains(&first.rx_idle_fraction));
        assert!((0.0..=1.0).contains(&first.loss_ratio));
        let second = SegmentMetrics::slice(Some(&snaps[0]), &snaps[1]);
        assert!(second.duration_us > 0.0);
        assert!(second.total_energy_uj > 0.0);
    }

    #[test]
    fn fold_tracks_every_field_in_order() {
        let snaps = snapshots();
        let m = SegmentMetrics::slice(None, &snaps[0]);
        let mut dist = SegmentDist::default();
        dist.push(&m);
        dist.push(&m);
        assert_eq!(dist.replicates(), 2);
        for (name, summary) in dist.fields() {
            assert_eq!(summary.n(), 2, "{name} missed a replicate");
        }
        assert_eq!(dist.fields()[0].0, "offered_mbps");
        assert_eq!(dist.fields()[8].0, "total_switches");
        // Identical replicates: zero spread.
        assert_eq!(dist.mean_power_w.std_dev(), 0.0);
        assert_eq!(dist.mean_power_w.mean(), m.mean_power_w);
    }
}
