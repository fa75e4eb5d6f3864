//! Bursty packet-arrival process (Markov-modulated Poisson) — the
//! workhorse generator behind the paper's traffic levels, and the
//! [`TrafficModel`] adapter for it.

use desim::rng::{derive_stream, exp_sample, SimRng};
use desim::SimTime;
use rand::Rng;

use crate::{Packet, PacketSource, SizeMix, TrafficLevel, TrafficModel};

/// Configuration of a [`PacketStream`] — and, through its
/// [`TrafficModel`] implementation, the `mmpp` entry of the traffic
/// registry.
///
/// The seed is **not** part of the configuration: it is supplied when a
/// stream is instantiated ([`PacketStream::new`],
/// [`TrafficModel::stream`]), so one description can fan out into many
/// independent replications.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalConfig {
    /// Long-run mean aggregate rate across all ports, in Mbps.
    pub mean_rate_mbps: f64,
    /// Ratio of the burst-state rate to the mean (the lull-state rate is
    /// chosen so the long-run mean is preserved). `1.0` disables burstiness
    /// and yields a plain Poisson process.
    pub burstiness: f64,
    /// Mean dwell time in each modulation state, in microseconds. The
    /// paper's monitor windows are 33–133 µs, so the default of 200 µs
    /// makes bursts span several windows.
    pub dwell_mean_us: f64,
    /// Number of device ports packets are spread over (16 on the IXP1200).
    pub ports: u8,
    /// Packet-size distribution.
    pub size_mix: SizeMix,
}

impl ArrivalConfig {
    /// The configuration used by the paper-reproduction experiments for a
    /// given traffic level.
    #[must_use]
    pub fn for_level(level: TrafficLevel) -> Self {
        ArrivalConfig {
            mean_rate_mbps: level.mean_rate_mbps(),
            burstiness: 1.6,
            dwell_mean_us: 200.0,
            ports: 16,
            size_mix: SizeMix::imix(),
        }
    }

    /// Builds an arrival process whose mean rate is read directly off a
    /// point of the diurnal profile (the paper's "sample a few seconds of
    /// real traffic" flow, §3.2): the median link rate at that time of
    /// day, scaled from the single measured link to the 16-port aggregate.
    ///
    /// `aggregate_scale` is the ratio of NPU aggregate traffic to the
    /// profiled link's median (the experiments use ~4–6; the measured link
    /// of Fig. 2 is one of several feeding the box).
    ///
    /// # Panics
    ///
    /// Panics if `aggregate_scale` is not positive and finite.
    #[must_use]
    pub fn from_diurnal(sample: &crate::DiurnalSample, aggregate_scale: f64) -> Self {
        assert!(
            aggregate_scale.is_finite() && aggregate_scale > 0.0,
            "aggregate scale must be positive"
        );
        ArrivalConfig {
            mean_rate_mbps: sample.med_bps * aggregate_scale / 1e6,
            burstiness: 1.6,
            dwell_mean_us: 200.0,
            ports: 16,
            size_mix: SizeMix::imix(),
        }
    }
}

impl Default for ArrivalConfig {
    fn default() -> Self {
        ArrivalConfig::for_level(TrafficLevel::Medium)
    }
}

impl ArrivalConfig {
    /// The `(burst, lull)` arrival rates in packets per microsecond:
    /// `burstiness ×` the mean and its complement, with the lull clamped
    /// at a small positive floor so the process never fully stops.
    fn phase_rates(&self) -> (f64, f64) {
        let mean_pkt_rate = self.mean_rate_mbps / self.size_mix.mean_bits();
        let burst = self.burstiness * mean_pkt_rate;
        let lull = ((2.0 - self.burstiness) * mean_pkt_rate).max(0.05 * mean_pkt_rate);
        (burst, lull)
    }
}

impl TrafficModel for ArrivalConfig {
    fn mean_rate_mbps(&self) -> f64 {
        // The effective rate accounts for the lull-rate floor at extreme
        // burstiness — self-description must match what is realised.
        let (burst, lull) = self.phase_rates();
        (burst + lull) / 2.0 * self.size_mix.mean_bits()
    }

    fn stream(&self, seed: u64) -> PacketSource {
        PacketSource::new(PacketStream::new(self.clone(), seed))
    }
}

/// The modulation state of the arrival process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Burst,
    Lull,
}

/// An infinite, reproducible stream of packet arrivals.
///
/// Arrivals follow a two-state Markov-modulated Poisson process: in the
/// *burst* state the instantaneous rate is `burstiness ×` the mean; in the
/// *lull* state it is lowered so the long-run average equals
/// [`ArrivalConfig::mean_rate_mbps`]. Packet sizes are drawn from the
/// configured [`SizeMix`] and ports uniformly.
///
/// # Example
///
/// ```
/// use traffic::{ArrivalConfig, PacketStream};
/// let mut s = PacketStream::new(ArrivalConfig::default(), 0);
/// let first = s.next().expect("stream is infinite");
/// assert!(first.port < 16);
/// ```
#[derive(Debug)]
pub struct PacketStream {
    config: ArrivalConfig,
    rng: SimRng,
    now_us: f64,
    phase: Phase,
    phase_ends_us: f64,
    /// Arrival rate in packets per microsecond for each phase.
    burst_rate: f64,
    lull_rate: f64,
}

impl PacketStream {
    /// Creates the stream at time zero, seeded for reproducibility.
    ///
    /// # Panics
    ///
    /// Panics if the mean rate or dwell time is not positive, if
    /// `burstiness < 1`, or if `ports == 0`.
    #[must_use]
    pub fn new(config: ArrivalConfig, seed: u64) -> Self {
        assert!(
            config.mean_rate_mbps.is_finite() && config.mean_rate_mbps > 0.0,
            "mean rate must be positive"
        );
        assert!(config.burstiness >= 1.0, "burstiness must be >= 1");
        assert!(config.dwell_mean_us > 0.0, "dwell time must be positive");
        assert!(config.ports > 0, "need at least one port");

        // Equal expected dwell in each phase: rates b*m and (2-b)*m
        // average to m (modulo the lull floor).
        let (burst_rate, lull_rate) = config.phase_rates();

        let mut rng = derive_stream(seed, "traffic-arrivals");
        let phase_ends_us = exp_sample(&mut rng, 1.0 / config.dwell_mean_us);
        PacketStream {
            config,
            rng,
            now_us: 0.0,
            phase: Phase::Burst,
            phase_ends_us,
            burst_rate,
            lull_rate,
        }
    }

    /// The stream's configuration.
    #[must_use]
    pub fn config(&self) -> &ArrivalConfig {
        &self.config
    }

    /// The long-run mean rate this stream realises, in Mbps. Equal to the
    /// configured mean except when `burstiness` is large enough that the
    /// lull-rate floor engages.
    #[must_use]
    pub fn effective_mean_rate_mbps(&self) -> f64 {
        let mean_pkts = (self.burst_rate + self.lull_rate) / 2.0;
        mean_pkts * self.config.size_mix.mean_bits()
    }

    fn current_rate(&self) -> f64 {
        match self.phase {
            Phase::Burst => self.burst_rate,
            Phase::Lull => self.lull_rate,
        }
    }
}

impl Iterator for PacketStream {
    type Item = Packet;

    fn next(&mut self) -> Option<Packet> {
        // Advance through phase changes until the next arrival lands
        // inside the current phase.
        loop {
            let rate = self.current_rate();
            let gap = exp_sample(&mut self.rng, rate);
            let candidate = self.now_us + gap;
            if candidate <= self.phase_ends_us {
                self.now_us = candidate;
                break;
            }
            // Jump to the phase boundary and flip state; the memoryless
            // property of the exponential justifies re-drawing the gap.
            self.now_us = self.phase_ends_us;
            self.phase = match self.phase {
                Phase::Burst => Phase::Lull,
                Phase::Lull => Phase::Burst,
            };
            let dwell = exp_sample(&mut self.rng, 1.0 / self.config.dwell_mean_us);
            self.phase_ends_us += dwell;
        }
        let size_bytes = self.config.size_mix.sample(&mut self.rng);
        let port = self.rng.gen_range(0..self.config.ports);
        Some(Packet {
            arrival: SimTime::from_us_f64(self.now_us),
            size_bytes,
            port,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total_bits_over(config: ArrivalConfig, seed: u64, horizon_us: f64) -> f64 {
        let stream = PacketStream::new(config, seed);
        let horizon = SimTime::from_us_f64(horizon_us);
        stream
            .take_while(|p| p.arrival < horizon)
            .map(|p| p.size_bits() as f64)
            .sum()
    }

    #[test]
    fn long_run_rate_matches_target() {
        for level in TrafficLevel::ALL {
            let config = ArrivalConfig::for_level(level);
            let horizon_us = 200_000.0; // 0.2s
            let bits = total_bits_over(config, 42, horizon_us);
            let rate_mbps = bits / horizon_us; // bits/us == Mbps
            let target = level.mean_rate_mbps();
            assert!(
                (rate_mbps - target).abs() / target < 0.08,
                "{level}: measured {rate_mbps:.0} Mbps vs target {target}"
            );
        }
    }

    #[test]
    fn stream_is_reproducible() {
        let a: Vec<Packet> = PacketStream::new(ArrivalConfig::for_level(TrafficLevel::High), 5)
            .take(500)
            .collect();
        let b: Vec<Packet> = PacketStream::new(ArrivalConfig::for_level(TrafficLevel::High), 5)
            .take(500)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<Packet> = PacketStream::new(ArrivalConfig::for_level(TrafficLevel::High), 1)
            .take(100)
            .collect();
        let b: Vec<Packet> = PacketStream::new(ArrivalConfig::for_level(TrafficLevel::High), 2)
            .take(100)
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn arrivals_are_monotone() {
        let stream = PacketStream::new(ArrivalConfig::default(), 0);
        let times: Vec<SimTime> = stream.take(2_000).map(|p| p.arrival).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn burstiness_creates_rate_variance_across_windows() {
        // Split arrivals into 50us windows and check the per-window rate
        // really varies (the property DVS exploits).
        let config = ArrivalConfig {
            burstiness: 1.8,
            ..ArrivalConfig::for_level(TrafficLevel::Medium)
        };
        let stream = PacketStream::new(config, 9);
        let window_us = 50.0;
        let nwindows = 400;
        let horizon = SimTime::from_us_f64(window_us * nwindows as f64);
        let mut bits = vec![0.0f64; nwindows];
        for p in stream.take_while(|p| p.arrival < horizon) {
            let w = (p.arrival.as_us() / window_us) as usize;
            bits[w.min(nwindows - 1)] += p.size_bits() as f64;
        }
        let rates: Vec<f64> = bits.iter().map(|b| b / window_us).collect();
        let mean = rates.iter().sum::<f64>() / rates.len() as f64;
        let var = rates.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / rates.len() as f64;
        let cv = var.sqrt() / mean;
        assert!(cv > 0.2, "coefficient of variation too small: {cv}");
    }

    #[test]
    fn poisson_mode_when_burstiness_one() {
        let config = ArrivalConfig {
            burstiness: 1.0,
            ..ArrivalConfig::default()
        };
        let s = PacketStream::new(config, 0);
        assert!((s.effective_mean_rate_mbps() - s.config().mean_rate_mbps).abs() < 1e-9);
    }

    #[test]
    fn ports_are_covered() {
        let stream = PacketStream::new(ArrivalConfig::for_level(TrafficLevel::High), 13);
        let mut seen = [false; 16];
        for p in stream.take(2_000) {
            seen[p.port as usize] = true;
        }
        assert!(seen.iter().all(|s| *s), "not all 16 ports saw packets");
    }

    #[test]
    fn from_diurnal_scales_the_median() {
        let model = crate::DiurnalModel::nlanr_like(3);
        let noon = model.sample(12.0 * 3600.0);
        let config = ArrivalConfig::from_diurnal(&noon, 5.0);
        assert!((config.mean_rate_mbps - noon.med_bps * 5.0 / 1e6).abs() < 1e-9);
        // A usable stream comes out of it.
        let stream = PacketStream::new(config, 9);
        assert!(stream.take(10).count() == 10);
    }

    #[test]
    #[should_panic(expected = "aggregate scale must be positive")]
    fn from_diurnal_rejects_bad_scale() {
        let model = crate::DiurnalModel::nlanr_like(3);
        let s = model.sample(0.0);
        let _ = ArrivalConfig::from_diurnal(&s, 0.0);
    }

    #[test]
    #[should_panic(expected = "burstiness must be >= 1")]
    fn rejects_sub_one_burstiness() {
        let _ = PacketStream::new(
            ArrivalConfig {
                burstiness: 0.5,
                ..ArrivalConfig::default()
            },
            0,
        );
    }

    #[test]
    fn trait_adapter_matches_the_direct_stream() {
        let config = ArrivalConfig::for_level(TrafficLevel::High);
        let via_trait: Vec<Packet> = config.stream(11).take(200).collect();
        let direct: Vec<Packet> = PacketStream::new(config.clone(), 11).take(200).collect();
        assert_eq!(via_trait, direct);
        assert!((TrafficModel::mean_rate_mbps(&config) - 1150.0).abs() < 1e-9);
    }
}
