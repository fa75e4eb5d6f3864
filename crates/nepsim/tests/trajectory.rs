//! Trajectory pins: exact end-of-run values for four configurations that
//! between them exercise every event kind, both global and per-ME scaling
//! (including VF-switch stalls while threads wait on memory) and the
//! optional `fifo`/`pipeline` trace records.
//!
//! The packet tallies, switches, windows, trace length and the energy's
//! bit pattern are pure functions of the simulated event sequence, so any
//! change to the event order or to the power arithmetic shows up here as
//! a mismatch. A deliberate model change updates the pins in the same
//! commit and bumps the result-cache epoch.
//!
//! The kernel counters count the event queue's own traffic, not simulated
//! events, so a kernel change that keeps every other field (for example
//! one that queues fewer events) updates only them. Such a change does not
//! bump `CACHE_EPOCH`: no document or stderr line reads a cached entry's
//! counters, because `--obs-stats` and `--record` always simulate.

use dvs::{EdvsConfig, PolicySpec, TdvsConfig};
use nepsim::{Benchmark, NpuConfig, Simulator, TraceConfig};
use obs::KernelCounters;
use traffic::TrafficLevel;

const CYCLES: u64 = 2_000_000;

/// Everything the pin compares, in one comparable value.
#[derive(Debug, PartialEq)]
struct Trajectory {
    kernel: KernelCounters,
    arrived: u64,
    forwarded: u64,
    dropped: u64,
    dropped_tx: u64,
    switches: u64,
    windows: u64,
    energy_bits: u64,
    trace_len: usize,
}

fn observe(config: NpuConfig) -> Trajectory {
    let mut sim = Simulator::new(config);
    let r = sim.run_cycles(CYCLES);
    Trajectory {
        kernel: r.kernel,
        arrived: r.arrived_packets,
        forwarded: r.forwarded_packets,
        dropped: r.dropped_packets,
        dropped_tx: r.dropped_tx_packets,
        switches: r.total_switches,
        windows: r.windows,
        energy_bits: r.total_energy_uj().to_bits(),
        trace_len: sim.trace().len(),
    }
}

#[test]
fn ipfwdr_high_tdvs_trajectory_is_pinned() {
    let config = NpuConfig::builder()
        .benchmark(Benchmark::Ipfwdr)
        .traffic(TrafficLevel::High)
        .policy(PolicySpec::Tdvs(TdvsConfig::default()))
        .seed(42)
        .build();
    assert_eq!(
        observe(config),
        Trajectory {
            kernel: KernelCounters {
                events_scheduled: 95098,
                events_processed: 95089,
                peak_heap_len: 24,
            },
            arrived: 1291,
            forwarded: 1238,
            dropped: 0,
            dropped_tx: 0,
            switches: 234,
            windows: 50,
            energy_bits: 4659162542998365281,
            trace_len: 1238,
        }
    );
}

#[test]
fn nat_low_edvs_trajectory_is_pinned() {
    let config = NpuConfig::builder()
        .benchmark(Benchmark::Nat)
        .traffic(TrafficLevel::Low)
        .policy(PolicySpec::Edvs(EdvsConfig::default()))
        .seed(7)
        .build();
    assert_eq!(
        observe(config),
        Trajectory {
            kernel: KernelCounters {
                events_scheduled: 6239,
                events_processed: 6234,
                peak_heap_len: 9,
            },
            arrived: 505,
            forwarded: 500,
            dropped: 0,
            dropped_tx: 0,
            switches: 0,
            windows: 50,
            energy_bits: 4661779788082920104,
            trace_len: 500,
        }
    );
}

#[test]
fn url_medium_nodvs_full_trace_trajectory_is_pinned() {
    let config = NpuConfig::builder()
        .benchmark(Benchmark::Url)
        .traffic(TrafficLevel::Medium)
        .policy(PolicySpec::NoDvs)
        .trace(TraceConfig {
            emit_fifo: true,
            emit_pipeline: true,
        })
        .seed(3)
        .build();
    assert_eq!(
        observe(config),
        Trajectory {
            kernel: KernelCounters {
                events_scheduled: 100481,
                events_processed: 100476,
                peak_heap_len: 12,
            },
            arrived: 1094,
            forwarded: 1081,
            dropped: 0,
            dropped_tx: 0,
            switches: 0,
            windows: 50,
            energy_bits: 4661646189434318631,
            trace_len: 43832,
        }
    );
}

#[test]
fn md4_high_edvs_trajectory_is_pinned() {
    let config = NpuConfig::builder()
        .benchmark(Benchmark::Md4)
        .traffic(TrafficLevel::High)
        .policy(PolicySpec::Edvs(EdvsConfig::default()))
        .seed(42)
        .build();
    assert_eq!(
        observe(config),
        Trajectory {
            kernel: KernelCounters {
                events_scheduled: 62031,
                events_processed: 62024,
                peak_heap_len: 16,
            },
            arrived: 1291,
            forwarded: 1190,
            dropped: 0,
            dropped_tx: 0,
            switches: 117,
            windows: 50,
            energy_bits: 4660359989274549016,
            trace_len: 1190,
        }
    );
}
