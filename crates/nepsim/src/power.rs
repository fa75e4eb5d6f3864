//! Chip-level energy metering.

use desim::SimTime;

/// Aggregates energy by component, in microjoules.
///
/// ME active/idle energy is accounted by the microengines themselves (see
/// `engine`); this meter collects the remaining components and produces
/// chip totals on demand, so the trace's cumulative `energy` annotation is
/// consistent at any instant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnergyMeter {
    /// Energy of the DVS monitor hardware (TDVS's 32-bit adder), µJ.
    pub monitor_uj: f64,
}

impl EnergyMeter {
    /// Creates an empty meter.
    #[must_use]
    pub fn new() -> Self {
        EnergyMeter::default()
    }

    /// Adds one monitor-adder activation (on packet arrival under TDVS).
    pub fn add_monitor(&mut self, energy_uj: f64) {
        self.monitor_uj += energy_uj;
    }

    /// Static/background energy consumed over the first `elapsed` of the
    /// run, µJ.
    #[must_use]
    pub fn static_uj(static_w: f64, elapsed: SimTime) -> f64 {
        static_w * elapsed.as_secs() * 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monitor_energy_accumulates() {
        let mut m = EnergyMeter::new();
        for _ in 0..1000 {
            m.add_monitor(8.0e-6);
        }
        assert!((m.monitor_uj - 8.0e-3).abs() < 1e-12);
    }

    #[test]
    fn static_energy_scales_with_time() {
        // 0.3 W for 1 ms = 300 uJ.
        let uj = EnergyMeter::static_uj(0.3, SimTime::from_ms(1));
        assert!((uj - 300.0).abs() < 1e-9);
    }
}
