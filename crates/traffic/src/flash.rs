//! Flash-crowd traffic: a baseline rate with one transient spike.
//!
//! The arrival process is an inhomogeneous Poisson process whose rate
//! follows a trapezoidal envelope — baseline, linear ramp up, hold at
//! the peak, linear ramp down, baseline again — generated by thinning
//! against the envelope maximum. This is the workload that stresses a
//! DVS policy's reaction time: a chip scaled down for the baseline has
//! one ramp's worth of warning before the crowd arrives.

use desim::rng::{derive_stream, exp_sample};
use rand::Rng;

use crate::{PacketSource, SizeMix, TrafficModel};

/// Configuration of the `flash` traffic model.
#[derive(Debug, Clone, PartialEq)]
pub struct FlashConfig {
    /// Baseline aggregate rate before and after the spike, Mbps.
    pub base_mbps: f64,
    /// Peak aggregate rate at the top of the spike, Mbps.
    pub peak_mbps: f64,
    /// When the spike starts, in milliseconds from stream start.
    pub at_ms: f64,
    /// Length of each linear ramp (up and down), milliseconds.
    pub ramp_ms: f64,
    /// How long the peak holds, milliseconds.
    pub hold_ms: f64,
    /// Number of device ports packets are spread over.
    pub ports: u8,
    /// Packet-size distribution.
    pub size_mix: SizeMix,
}

impl Default for FlashConfig {
    /// A spike sized for the paper's 13 ms (8M-cycle) runs: quiet for
    /// 4 ms, a 1 ms ramp to 4.5× the baseline, 3 ms at the peak.
    fn default() -> Self {
        FlashConfig {
            base_mbps: 400.0,
            peak_mbps: 1800.0,
            at_ms: 4.0,
            ramp_ms: 1.0,
            hold_ms: 3.0,
            ports: 16,
            size_mix: SizeMix::imix(),
        }
    }
}

impl FlashConfig {
    /// The instantaneous envelope rate at `t_us` microseconds, Mbps.
    #[must_use]
    pub fn rate_at_us(&self, t_us: f64) -> f64 {
        let at = self.at_ms * 1e3;
        let ramp = self.ramp_ms * 1e3;
        let hold = self.hold_ms * 1e3;
        let delta = self.peak_mbps - self.base_mbps;
        let t = t_us - at;
        if t < 0.0 {
            self.base_mbps
        } else if t < ramp {
            self.base_mbps + delta * (t / ramp)
        } else if t < ramp + hold {
            self.peak_mbps
        } else if t < 2.0 * ramp + hold {
            self.peak_mbps - delta * ((t - ramp - hold) / ramp)
        } else {
            self.base_mbps
        }
    }

    /// Integral of `rate_at_us - base` over `[0, h]` — the extra bits
    /// (per microsecond-Mbps) the spike injects before `h`.
    fn pulse_area_us(&self, h: f64) -> f64 {
        let at = self.at_ms * 1e3;
        let ramp = self.ramp_ms * 1e3;
        let hold = self.hold_ms * 1e3;
        let delta = self.peak_mbps - self.base_mbps;
        // Clipped lengths of each envelope segment within [0, h].
        let up = (h - at).clamp(0.0, ramp);
        let top = (h - at - ramp).clamp(0.0, hold);
        let down = (h - at - ramp - hold).clamp(0.0, ramp);
        // Ramp segments integrate to the trapezoid rule exactly.
        let up_area = delta * up * (up / ramp) / 2.0;
        let down_frac = down / ramp;
        let down_area = delta * down * (1.0 - down_frac / 2.0);
        delta * top + if ramp > 0.0 { up_area + down_area } else { 0.0 }
    }

    fn validate(&self) {
        assert!(
            self.base_mbps.is_finite() && self.base_mbps > 0.0,
            "base rate must be positive"
        );
        assert!(
            self.peak_mbps.is_finite() && self.peak_mbps > 0.0,
            "peak rate must be positive"
        );
        assert!(
            self.at_ms.is_finite() && self.at_ms >= 0.0,
            "spike start must be non-negative"
        );
        assert!(
            self.ramp_ms.is_finite() && self.ramp_ms >= 0.0,
            "ramp must be non-negative"
        );
        assert!(
            self.hold_ms.is_finite() && self.hold_ms >= 0.0,
            "hold must be non-negative"
        );
        assert!(self.ports > 0, "need at least one port");
    }
}

impl TrafficModel for FlashConfig {
    fn mean_rate_mbps(&self) -> f64 {
        // The spike is transient: the long-run mean is the baseline.
        self.base_mbps
    }

    fn expected_rate_mbps(&self, horizon_us: f64) -> f64 {
        if !horizon_us.is_finite() || horizon_us <= 0.0 {
            return self.base_mbps;
        }
        self.base_mbps + self.pulse_area_us(horizon_us) / horizon_us
    }

    fn stream(&self, seed: u64) -> PacketSource {
        self.validate();
        let max_mbps = self.base_mbps.max(self.peak_mbps);
        PacketSource::new(FlashStream {
            config: self.clone(),
            rng: derive_stream(seed, "traffic-flash"),
            now_us: 0.0,
            max_rate: max_mbps / self.size_mix.mean_bits(),
        })
    }
}

/// Iterator state of a flash-crowd stream (thinning construction).
#[derive(Debug)]
struct FlashStream {
    config: FlashConfig,
    rng: desim::rng::SimRng,
    now_us: f64,
    /// Envelope maximum in packets per microsecond.
    max_rate: f64,
}

impl Iterator for FlashStream {
    type Item = crate::Packet;

    fn next(&mut self) -> Option<crate::Packet> {
        // Thinning: candidates arrive at the envelope maximum; each is
        // accepted with probability rate(t)/max, which realises the
        // inhomogeneous process exactly.
        loop {
            self.now_us += exp_sample(&mut self.rng, self.max_rate);
            let accept = self.config.rate_at_us(self.now_us)
                / (self.max_rate * self.config.size_mix.mean_bits());
            if self.rng.gen_range(0.0..1.0) < accept {
                break;
            }
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
    fn envelope_has_the_trapezoid_shape() {
        let c = FlashConfig::default();
        assert_eq!(c.rate_at_us(0.0), 400.0);
        assert_eq!(c.rate_at_us(4_500.0), 1100.0); // mid-ramp
        assert_eq!(c.rate_at_us(6_000.0), 1800.0); // holding
        assert_eq!(c.rate_at_us(8_500.0), 1100.0); // mid-descent
        assert_eq!(c.rate_at_us(20_000.0), 400.0); // back to baseline
    }

    #[test]
    fn expected_rate_integrates_the_envelope() {
        let c = FlashConfig::default();
        // Before the spike: baseline exactly.
        assert!((c.expected_rate_mbps(4_000.0) - 400.0).abs() < 1e-9);
        // Spike fully inside the horizon: baseline + full pulse area.
        let full_pulse = (1800.0 - 400.0) * (3_000.0 + 1_000.0); // hold + 2 half-ramps
        let h = 20_000.0;
        assert!((c.expected_rate_mbps(h) - (400.0 + full_pulse / h)).abs() < 1e-6);
        // Numerically cross-check a mid-spike clip against the envelope.
        let h = 5_500.0;
        let steps = 200_000;
        let dt = h / steps as f64;
        let numeric: f64 = (0..steps)
            .map(|k| c.rate_at_us((k as f64 + 0.5) * dt) * dt)
            .sum::<f64>()
            / h;
        assert!(
            (c.expected_rate_mbps(h) - numeric).abs() < 0.5,
            "closed form {} vs numeric {numeric}",
            c.expected_rate_mbps(h)
        );
    }

    #[test]
    fn the_crowd_actually_arrives() {
        let c = FlashConfig::default();
        let packets = c.packets_until(7, SimTime::from_us_f64(12_000.0));
        let quiet = packets
            .iter()
            .filter(|p| p.arrival.as_us() < 4_000.0)
            .count() as f64;
        let spike = packets
            .iter()
            .filter(|p| {
                let t = p.arrival.as_us();
                (5_000.0..8_000.0).contains(&t)
            })
            .count() as f64;
        // Per-microsecond density during the hold must approach the
        // peak/base ratio (4.5x).
        let quiet_rate = quiet / 4_000.0;
        let spike_rate = spike / 3_000.0;
        assert!(
            spike_rate > 3.0 * quiet_rate,
            "spike {spike_rate:.4} vs quiet {quiet_rate:.4} pkts/us"
        );
    }

    #[test]
    fn measured_rate_matches_the_description() {
        let c = FlashConfig::default();
        let horizon_us = 50_000.0;
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
    fn stream_is_reproducible() {
        let c = FlashConfig::default();
        let a: Vec<_> = c.stream(2).take(400).collect();
        let b: Vec<_> = c.stream(2).take(400).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn zero_length_ramp_is_a_step() {
        let c = FlashConfig {
            ramp_ms: 0.0,
            ..FlashConfig::default()
        };
        assert_eq!(c.rate_at_us(3_999.0), 400.0);
        assert_eq!(c.rate_at_us(4_001.0), 1800.0);
        // The closed-form integral stays finite and consistent.
        let h = 20_000.0;
        let pulse = (1800.0 - 400.0) * 3_000.0;
        assert!((c.expected_rate_mbps(h) - (400.0 + pulse / h)).abs() < 1e-6);
    }
}
