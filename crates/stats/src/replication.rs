//! [`Replication`] — fanning one experiment cell out into k
//! independent, seed-derived replicates.

use xrun::{derive_seed, JobSpec};

use crate::{ReplicatedMetrics, RunMetrics};

/// The replication of one cell: a base [`JobSpec`] and a replicate
/// count k.
///
/// The k replicate specs differ from the base **only in their seed**:
/// replicate `i` runs with `derive_seed(base.seed, i)` — a pure
/// function of the base seed and the replicate's position, so a
/// replicated batch is exactly as reproducible as a single run. The
/// base seed itself is *not* one of the replicate seeds; it is the name
/// of the whole family.
///
/// A `Replication` is deliberately execution-agnostic: [`specs`]
/// produces the jobs, the caller runs them on whatever
/// [`Runner`](xrun::Runner) it already has (cells × k jobs stay
/// panic-isolated and order-stable like any other batch), and
/// [`fold`] turns the per-replicate metrics — **in replicate order** —
/// back into one [`ReplicatedMetrics`].
///
/// [`specs`]: Replication::specs
/// [`fold`]: Replication::fold
///
/// # Example
///
/// ```
/// use stats::Replication;
/// use xrun::{Benchmark, JobSpec, PolicySpec, TrafficLevel};
///
/// let base = JobSpec {
///     benchmark: Benchmark::Ipfwdr,
///     traffic: TrafficLevel::High.into(),
///     policy: PolicySpec::NoDvs,
///     cycles: 100_000,
///     seed: 42,
/// };
/// let rep = Replication::new(base, 4);
/// let specs = rep.specs();
/// assert_eq!(specs.len(), 4);
/// // Only the seed varies, and every replicate gets a distinct one.
/// assert!(specs.iter().all(|s| s.cycles == 100_000));
/// assert_ne!(specs[0].seed, specs[1].seed);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Replication {
    base: JobSpec,
    replicates: u64,
}

impl Replication {
    /// A replication of `base` with `replicates` seed-derived runs.
    ///
    /// # Panics
    ///
    /// Panics when `replicates` is 0 — an empty replication has no
    /// mean, so accepting it would only move the error downstream.
    #[must_use]
    pub fn new(base: JobSpec, replicates: u64) -> Self {
        assert!(replicates >= 1, "a replication needs at least one run");
        Replication { base, replicates }
    }

    /// The base spec the replicates were derived from.
    #[must_use]
    pub fn base(&self) -> &JobSpec {
        &self.base
    }

    /// Number of replicates.
    #[must_use]
    pub fn replicates(&self) -> u64 {
        self.replicates
    }

    /// The replicate seeds, in replicate order.
    #[must_use]
    pub fn seeds(&self) -> Vec<u64> {
        (0..self.replicates)
            .map(|i| derive_seed(self.base.seed, i))
            .collect()
    }

    /// The k replicate job specs: the base with each derived seed, in
    /// replicate order.
    #[must_use]
    pub fn specs(&self) -> Vec<JobSpec> {
        self.seeds()
            .into_iter()
            .map(|seed| self.base.clone().with_seed(seed))
            .collect()
    }

    /// Folds the per-replicate metrics — which must be in the same
    /// order as [`Replication::specs`] — into one summary per field.
    ///
    /// # Panics
    ///
    /// Panics when the number of metrics differs from the replicate
    /// count: a partial fold would silently report a narrower interval
    /// than the batch actually earned.
    #[must_use]
    pub fn fold<'a>(&self, metrics: impl IntoIterator<Item = &'a RunMetrics>) -> ReplicatedMetrics {
        let folded = ReplicatedMetrics::of(metrics);
        assert_eq!(
            folded.replicates(),
            self.replicates,
            "fold expects exactly one RunMetrics per replicate"
        );
        folded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrun::{Benchmark, PolicySpec, TrafficLevel};

    fn base() -> JobSpec {
        JobSpec {
            benchmark: Benchmark::Ipfwdr,
            traffic: TrafficLevel::Medium.into(),
            policy: PolicySpec::NoDvs,
            cycles: 50_000,
            seed: 7,
        }
    }

    #[test]
    fn specs_vary_only_the_seed() {
        let rep = Replication::new(base(), 5);
        let specs = rep.specs();
        assert_eq!(specs.len(), 5);
        let mut seeds: Vec<u64> = specs.iter().map(|s| s.seed).collect();
        assert_eq!(seeds, rep.seeds());
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 5, "replicate seeds collided");
        for spec in &specs {
            assert_eq!(spec.benchmark, base().benchmark);
            assert_eq!(spec.traffic, base().traffic);
            assert_eq!(spec.policy, base().policy);
            assert_eq!(spec.cycles, base().cycles);
        }
    }

    #[test]
    fn same_base_seed_derives_the_same_family() {
        assert_eq!(
            Replication::new(base(), 8).seeds(),
            Replication::new(base(), 8).seeds()
        );
        // A longer family extends the shorter one: growing k refines the
        // interval without invalidating already-computed replicates.
        let short = Replication::new(base(), 4).seeds();
        let long = Replication::new(base(), 8).seeds();
        assert_eq!(&long[..4], &short[..]);
        assert_ne!(
            Replication::new(base().with_seed(8), 4).seeds(),
            short,
            "base seed must matter"
        );
    }

    #[test]
    fn fold_counts_replicates() {
        let rep = Replication::new(base(), 3);
        let m = crate::RunMetrics {
            offered_mbps: 1.0,
            throughput_mbps: 1.0,
            mean_power_w: 1.0,
            p80_power_w: 1.0,
            p80_throughput_mbps: 1.0,
            loss_ratio: 0.0,
            rx_idle_fraction: 0.0,
            total_energy_uj: 1.0,
            total_switches: 1,
            forwarded_packets: 1,
        };
        let folded = rep.fold(&[m, m, m]);
        assert_eq!(folded.replicates(), 3);
    }

    #[test]
    #[should_panic(expected = "one RunMetrics per replicate")]
    fn fold_rejects_partial_batches() {
        let rep = Replication::new(base(), 3);
        let _ = rep.fold(&[]);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn zero_replicates_is_rejected() {
        let _ = Replication::new(base(), 0);
    }
}
