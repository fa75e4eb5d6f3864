//! Bursty on/off traffic: deterministic rate alternation with Poisson
//! arrivals inside each phase.
//!
//! The MMPP generator ([`crate::ArrivalConfig`]) randomises its phase
//! dwell times; this model instead alternates *deterministically*
//! between an "on" rate and an "off" rate with a fixed period and duty
//! cycle. That makes the burst structure exactly repeatable across
//! seeds (only the arrival jitter changes) — the shape DVS policies are
//! most sensitive to, and the easiest to reason about in sweeps.

use desim::rng::{derive_stream, exp_sample};
use rand::Rng;

use crate::{PacketSource, SizeMix, TrafficModel};

/// Configuration of the `burst` traffic model.
#[derive(Debug, Clone, PartialEq)]
pub struct OnOffConfig {
    /// Aggregate arrival rate during the on phase, Mbps.
    pub on_mbps: f64,
    /// Aggregate arrival rate during the off phase, Mbps (`0` silences
    /// the lulls entirely).
    pub off_mbps: f64,
    /// Length of one full on+off cycle, in seconds.
    pub period_s: f64,
    /// Fraction of each period spent in the on phase, in `(0, 1)`.
    pub duty: f64,
    /// Number of device ports packets are spread over.
    pub ports: u8,
    /// Packet-size distribution.
    pub size_mix: SizeMix,
}

impl Default for OnOffConfig {
    /// A burst profile sized for the paper's 13 ms (8M-cycle) runs:
    /// 2 ms periods put several on/off transitions inside one run.
    fn default() -> Self {
        OnOffConfig {
            on_mbps: 1600.0,
            off_mbps: 200.0,
            period_s: 0.002,
            duty: 0.5,
            ports: 16,
            size_mix: SizeMix::imix(),
        }
    }
}

impl OnOffConfig {
    fn period_us(&self) -> f64 {
        self.period_s * 1e6
    }

    fn on_us(&self) -> f64 {
        self.duty * self.period_us()
    }

    fn validate(&self) {
        assert!(
            self.on_mbps.is_finite() && self.on_mbps > 0.0,
            "on rate must be positive"
        );
        assert!(
            self.off_mbps.is_finite() && self.off_mbps >= 0.0,
            "off rate must be non-negative"
        );
        assert!(
            self.period_s.is_finite() && self.period_s > 0.0,
            "period must be positive"
        );
        assert!(self.duty > 0.0 && self.duty < 1.0, "duty must be in (0, 1)");
        assert!(self.ports > 0, "need at least one port");
    }
}

impl TrafficModel for OnOffConfig {
    fn mean_rate_mbps(&self) -> f64 {
        self.duty * self.on_mbps + (1.0 - self.duty) * self.off_mbps
    }

    fn expected_rate_mbps(&self, horizon_us: f64) -> f64 {
        if !horizon_us.is_finite() || horizon_us <= 0.0 {
            return self.mean_rate_mbps();
        }
        // Exact envelope integral: whole periods plus the clipped tail.
        let period = self.period_us();
        let full = (horizon_us / period).floor();
        let rem = horizon_us - full * period;
        let on_time = full * self.on_us() + rem.min(self.on_us());
        let off_time = horizon_us - on_time;
        (on_time * self.on_mbps + off_time * self.off_mbps) / horizon_us
    }

    fn stream(&self, seed: u64) -> PacketSource {
        self.validate();
        PacketSource::new(OnOffStream {
            config: self.clone(),
            rng: derive_stream(seed, "traffic-onoff"),
            now_us: 0.0,
        })
    }
}

/// Iterator state of an on/off stream.
#[derive(Debug)]
struct OnOffStream {
    config: OnOffConfig,
    rng: desim::rng::SimRng,
    now_us: f64,
}

impl Iterator for OnOffStream {
    type Item = crate::Packet;

    fn next(&mut self) -> Option<crate::Packet> {
        let period = self.config.period_us();
        let on_us = self.config.on_us();
        let mean_bits = self.config.size_mix.mean_bits();
        loop {
            // Locate the current phase segment.
            let pos = self.now_us.rem_euclid(period);
            let (rate_mbps, seg_end) = if pos < on_us {
                (self.config.on_mbps, self.now_us - pos + on_us)
            } else {
                (self.config.off_mbps, self.now_us - pos + period)
            };
            let rate = rate_mbps / mean_bits; // packets per microsecond
            if rate <= 0.0 {
                self.now_us = seg_end;
                continue;
            }
            let gap = exp_sample(&mut self.rng, rate);
            if self.now_us + gap <= seg_end {
                self.now_us += gap;
                break;
            }
            // Arrival would land past the phase boundary: jump there and
            // re-draw (memoryless within a phase; the boundary is fixed).
            self.now_us = seg_end;
        }
        let size_bytes = self.config.size_mix.sample(&mut self.rng);
        let port = self.rng.gen_range(0..self.config.ports);
        Some(crate::Packet {
            arrival: desim::SimTime::from_us_f64(self.now_us),
            size_bytes,
            port,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::SimTime;

    #[test]
    fn mean_rate_is_the_duty_weighted_average() {
        let c = OnOffConfig::default();
        assert!((c.mean_rate_mbps() - 900.0).abs() < 1e-9);
    }

    #[test]
    fn expected_rate_tracks_the_envelope() {
        let c = OnOffConfig::default();
        // Exactly one on phase: the horizon sees only the on rate.
        assert!((c.expected_rate_mbps(1_000.0) - 1600.0).abs() < 1e-9);
        // One full period averages to the mean.
        assert!((c.expected_rate_mbps(2_000.0) - 900.0).abs() < 1e-9);
        // Long horizons converge on the long-run mean.
        assert!((c.expected_rate_mbps(2_000_000.0) - 900.0).abs() < 1.0);
    }

    #[test]
    fn measured_rate_matches_the_description() {
        let c = OnOffConfig::default();
        let horizon_us = 100_000.0;
        let bits: f64 = c
            .packets_until(3, SimTime::from_us_f64(horizon_us))
            .iter()
            .map(|p| p.size_bits() as f64)
            .sum();
        let measured = bits / horizon_us;
        let expected = c.expected_rate_mbps(horizon_us);
        assert!(
            (measured - expected).abs() / expected < 0.1,
            "measured {measured:.0} vs expected {expected:.0}"
        );
    }

    #[test]
    fn off_phase_is_quieter_than_on_phase() {
        let c = OnOffConfig::default();
        let period = c.period_us();
        let mut on_bits = 0.0;
        let mut off_bits = 0.0;
        for p in c.packets_until(5, SimTime::from_us_f64(20.0 * period)) {
            let pos = p.arrival.as_us().rem_euclid(period);
            if pos < c.on_us() {
                on_bits += p.size_bits() as f64;
            } else {
                off_bits += p.size_bits() as f64;
            }
        }
        assert!(on_bits > 4.0 * off_bits, "on {on_bits} vs off {off_bits}");
    }

    #[test]
    fn silent_off_phase_emits_nothing() {
        let c = OnOffConfig {
            off_mbps: 0.0,
            ..OnOffConfig::default()
        };
        let period = c.period_us();
        for p in c.packets_until(1, SimTime::from_us_f64(10.0 * period)) {
            assert!(p.arrival.as_us().rem_euclid(period) <= c.on_us());
        }
    }

    #[test]
    fn stream_is_reproducible_and_seed_sensitive() {
        let c = OnOffConfig::default();
        let a: Vec<_> = c.stream(9).take(300).collect();
        let b: Vec<_> = c.stream(9).take(300).collect();
        assert_eq!(a, b);
        let other: Vec<_> = c.stream(10).take(300).collect();
        assert_ne!(a, other);
    }

    #[test]
    #[should_panic(expected = "duty must be in (0, 1)")]
    fn rejects_bad_duty() {
        let c = OnOffConfig {
            duty: 1.5,
            ..OnOffConfig::default()
        };
        let _ = c.stream(0);
    }
}
