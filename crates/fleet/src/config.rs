//! [`FleetConfig`] — the full description of one fleet experiment.

use dvs::PolicySpec;
use nepsim::Benchmark;
use traffic::{TrafficLevel, TrafficSpec};

use crate::{DispatchSpec, FleetPolicySpec};

/// Everything needed to reproduce a fleet run bit-for-bit: N chips, the
/// shared per-chip platform knobs, the aggregate traffic stream, the
/// dispatcher that shards it, the per-chip DVS policy and the global
/// fleet policy.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Number of chips behind the load balancer.
    pub chips: usize,
    /// Benchmark application every chip runs.
    pub benchmark: Benchmark,
    /// The *aggregate* traffic stream offered to the fleet. Each chip
    /// receives a [`traffic::Thinned`] sub-stream of it.
    pub traffic: TrafficSpec,
    /// The per-chip DVS policy.
    pub policy: PolicySpec,
    /// How the aggregate stream is sharded across chips.
    pub dispatch: DispatchSpec,
    /// The global power tier.
    pub fleet_policy: FleetPolicySpec,
    /// Base-clock cycles each chip simulates.
    pub cycles: u64,
    /// Fleet seed: chip and replicate seeds are derived from it.
    pub seed: u64,
}

impl FleetConfig {
    /// A fleet of `chips` chips with the workspace defaults: `ipfwdr`
    /// chips under aggregate `high` traffic, round-robin dispatch, no
    /// DVS and no fleet policy.
    #[must_use]
    pub fn new(chips: usize) -> Self {
        FleetConfig {
            chips,
            benchmark: Benchmark::Ipfwdr,
            traffic: TrafficLevel::High.into(),
            policy: PolicySpec::NoDvs,
            dispatch: DispatchSpec::RoundRobin,
            fleet_policy: FleetPolicySpec::PassThrough,
            cycles: 1_000_000,
            seed: 42,
        }
    }

    /// A one-line label naming every axis of the run.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "fleet chips={} dispatch={} {}/{} {} fleet-policy={} cycles={} seed={}",
            self.chips,
            self.dispatch.spec_string(),
            self.benchmark,
            self.traffic.spec_string(),
            self.policy.spec_string(),
            self.fleet_policy.spec_string(),
            self.cycles,
            self.seed
        )
    }

    /// Validates cross-field invariants.
    ///
    /// # Panics
    ///
    /// Panics when the fleet is empty or the run has no cycles.
    pub fn validate(&self) {
        assert!(self.chips > 0, "need at least one chip");
        assert!(self.cycles > 0, "need a non-empty run");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_names_every_axis() {
        let mut config = FleetConfig::new(8);
        config.dispatch = DispatchSpec::Hash { flows: 64 };
        let label = config.label();
        assert!(label.contains("chips=8"), "{label}");
        assert!(label.contains("hash:flows=64"), "{label}");
        assert!(label.contains("ipfwdr"), "{label}");
        assert!(label.contains("high"), "{label}");
        assert!(label.contains("nodvs"), "{label}");
        assert!(label.contains("fleet-policy=none"), "{label}");
    }

    #[test]
    #[should_panic(expected = "at least one chip")]
    fn zero_chips_is_rejected() {
        FleetConfig::new(0).validate();
    }
}
