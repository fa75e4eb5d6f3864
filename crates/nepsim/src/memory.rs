//! SRAM/SDRAM controllers and the shared IX transmit bus.
//!
//! Both memories run at fixed clocks independent of the ME VF levels
//! (DVS scales only the microengines; the paper scales the memory and bus
//! clocks once, to 1.3× the IXP1200, and leaves them fixed). Each
//! controller is modelled as a single-server queue: an access occupies the
//! controller for a fixed service time and completes after the queueing
//! delay plus a fixed access latency. This reproduces the behaviour §4.2
//! relies on — "an SDRAM access can take as much as 100 clock cycles"
//! under contention.

use desim::SimTime;

/// Timing and energy of the two memories.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryParams {
    /// SRAM pipeline latency.
    pub sram_latency: SimTime,
    /// SRAM controller occupancy per access.
    pub sram_service: SimTime,
    /// SRAM energy per access, µJ.
    pub sram_energy_uj: f64,
    /// SDRAM access latency (precharge + activate + burst).
    pub sdram_latency: SimTime,
    /// SDRAM controller occupancy per access.
    pub sdram_service: SimTime,
    /// SDRAM energy per access, µJ.
    pub sdram_energy_uj: f64,
}

impl MemoryParams {
    /// IXP1200 memory system scaled 1.3× (paper §4.1): SRAM ≈ 30 ns
    /// latency; SDRAM ≈ 180 ns per access — 108 cycles of the 600 MHz core
    /// clock, the paper's "an SDRAM access can take as much as 100 clock
    /// cycles". Workload `Sdram` segments issue *dependent chains* of
    /// these accesses (see [`crate::Segment::Sdram`]).
    #[must_use]
    pub fn ixp1200_scaled() -> Self {
        MemoryParams {
            sram_latency: SimTime::from_ns(30),
            sram_service: SimTime::from_ns(8),
            sram_energy_uj: 2.0e-3 * 1e-3, // 2 nJ
            sdram_latency: SimTime::from_ns(180),
            sdram_service: SimTime::from_ns(15),
            sdram_energy_uj: 8.0e-3 * 1e-3, // 8 nJ
        }
    }
}

impl Default for MemoryParams {
    fn default() -> Self {
        MemoryParams::ixp1200_scaled()
    }
}

/// A single-server memory controller (used for both SRAM and SDRAM).
///
/// # Example
///
/// ```
/// use desim::SimTime;
/// use nepsim::MemoryController;
///
/// let mut sram = MemoryController::new(SimTime::from_ns(30), SimTime::from_ns(8), 2.0e-6);
/// let t0 = SimTime::from_us(1);
/// let done_a = sram.issue(t0);
/// let done_b = sram.issue(t0); // queues behind the first access
/// assert_eq!(done_a, t0 + SimTime::from_ns(30));
/// assert_eq!(done_b, t0 + SimTime::from_ns(8) + SimTime::from_ns(30));
/// ```
#[derive(Debug, Clone)]
pub struct MemoryController {
    latency: SimTime,
    service: SimTime,
    energy_per_access_uj: f64,
    busy_until: SimTime,
    accesses: u64,
    energy_uj: f64,
    total_wait: SimTime,
}

impl MemoryController {
    /// Creates a controller with the given access latency, per-access
    /// occupancy and per-access energy (µJ).
    #[must_use]
    pub fn new(latency: SimTime, service: SimTime, energy_per_access_uj: f64) -> Self {
        MemoryController {
            latency,
            service,
            energy_per_access_uj,
            busy_until: SimTime::ZERO,
            accesses: 0,
            energy_uj: 0.0,
            total_wait: SimTime::ZERO,
        }
    }

    /// Issues an access at time `now`; returns its completion time.
    ///
    /// Calls must be made in non-decreasing time order — the single
    /// `busy_until` register cannot represent idle gaps between future
    /// reservations, so out-of-order issue would inflate queueing delay.
    /// The event-driven simulator satisfies this by construction.
    pub fn issue(&mut self, now: SimTime) -> SimTime {
        let start = now.max(self.busy_until);
        self.busy_until = start + self.service;
        let done = start + self.latency;
        self.accesses += 1;
        self.energy_uj += self.energy_per_access_uj;
        self.total_wait += done - now;
        done
    }

    /// Total accesses issued.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total energy consumed, µJ.
    #[must_use]
    pub fn energy_uj(&self) -> f64 {
        self.energy_uj
    }

    /// Mean end-to-end access time (queueing + latency).
    #[must_use]
    pub fn mean_access_time(&self) -> SimTime {
        if self.accesses == 0 {
            SimTime::ZERO
        } else {
            self.total_wait / self.accesses
        }
    }
}

/// The shared transmit bus: a fixed-rate serial resource.
///
/// Transmitting MEs busy-poll the transmit-ready status while waiting for
/// the bus, so bus waits count as *active* (not idle) time — the reason
/// the paper's tx MEs show <5 % idle even when transmit-constrained.
#[derive(Debug, Clone)]
pub struct TxBus {
    /// Bus rate in bits per microsecond (== Mbps).
    rate_mbps: f64,
    busy_until: SimTime,
    bits_sent: u64,
}

impl TxBus {
    /// Creates a bus with the given rate in Mbps.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not positive and finite.
    #[must_use]
    pub fn new(rate_mbps: f64) -> Self {
        assert!(
            rate_mbps.is_finite() && rate_mbps > 0.0,
            "bus rate must be positive"
        );
        TxBus {
            rate_mbps,
            busy_until: SimTime::ZERO,
            bits_sent: 0,
        }
    }

    /// Requests transmission of `bits` at time `now`; returns the time the
    /// transfer completes (after any wait for the bus).
    pub fn issue(&mut self, now: SimTime, bits: u32) -> SimTime {
        let start = now.max(self.busy_until);
        let dur = SimTime::from_us_f64(f64::from(bits) / self.rate_mbps);
        self.busy_until = start + dur;
        self.bits_sent += u64::from(bits);
        self.busy_until
    }

    /// Total bits pushed through the bus.
    #[must_use]
    pub fn bits_sent(&self) -> u64 {
        self.bits_sent
    }

    /// The configured rate in Mbps.
    #[must_use]
    pub fn rate_mbps(&self) -> f64 {
        self.rate_mbps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sram() -> MemoryController {
        let p = MemoryParams::ixp1200_scaled();
        MemoryController::new(p.sram_latency, p.sram_service, p.sram_energy_uj)
    }

    #[test]
    fn uncontended_access_takes_base_latency() {
        let mut m = sram();
        let done = m.issue(SimTime::from_us(5));
        assert_eq!(done, SimTime::from_us(5) + SimTime::from_ns(30));
        assert_eq!(m.accesses(), 1);
    }

    #[test]
    fn contention_queues_accesses() {
        let mut m = sram();
        let t = SimTime::from_us(1);
        let mut last = SimTime::ZERO;
        for k in 0..10 {
            let done = m.issue(t);
            assert!(done > last, "access {k} finished out of order");
            last = done;
        }
        // 10 accesses: last one waits 9 service slots + latency.
        assert_eq!(last, t + SimTime::from_ns(9 * 8) + SimTime::from_ns(30));
        assert!(m.mean_access_time() > SimTime::from_ns(30));
    }

    #[test]
    fn controller_drains_when_idle() {
        let mut m = sram();
        m.issue(SimTime::from_us(1));
        // Much later: no queueing.
        let done = m.issue(SimTime::from_us(100));
        assert_eq!(done, SimTime::from_us(100) + SimTime::from_ns(30));
    }

    #[test]
    fn sdram_is_slower_than_sram() {
        let p = MemoryParams::ixp1200_scaled();
        assert!(p.sdram_latency > p.sram_latency);
        assert!(p.sdram_service > p.sram_service);
        assert!(p.sdram_energy_uj > p.sram_energy_uj);
        // ~108 cycles at 600MHz base latency — the paper's "as much as
        // 100 clock cycles" per access.
        let f = desim::Frequency::from_mhz(600);
        assert_eq!(f.time_to_cycles(p.sdram_latency), 108);
    }

    #[test]
    fn energy_accumulates_per_access() {
        let mut m = sram();
        for _ in 0..1000 {
            m.issue(SimTime::from_us(1));
        }
        assert!((m.energy_uj() - 1000.0 * 2.0e-6).abs() < 1e-12);
    }

    #[test]
    fn bus_serialises_transfers() {
        let mut bus = TxBus::new(1300.0);
        let t = SimTime::from_us(10);
        let a = bus.issue(t, 13_000); // 10us at 1.3Gbps
        let b = bus.issue(t, 13_000);
        assert_eq!(a, SimTime::from_us(20));
        assert_eq!(b, SimTime::from_us(30));
        assert_eq!(bus.bits_sent(), 26_000);
    }

    #[test]
    fn bus_rate_caps_throughput() {
        let mut bus = TxBus::new(1300.0);
        let mut now = SimTime::ZERO;
        // Saturate for 1ms.
        while now < SimTime::from_ms(1) {
            now = bus.issue(now, 12_000);
        }
        let mbps = bus.bits_sent() as f64 / now.as_us();
        assert!((mbps - 1300.0).abs() < 20.0, "bus rate {mbps}");
    }

    #[test]
    #[should_panic(expected = "bus rate must be positive")]
    fn bus_rejects_zero_rate() {
        let _ = TxBus::new(0.0);
    }
}
