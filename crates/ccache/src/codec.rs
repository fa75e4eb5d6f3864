//! JSON codecs for the simulator's observable outputs.
//!
//! These encode exactly the state the renderers consume — a
//! [`SimReport`] and (for axes that export timelines) a [`Recording`]
//! — such that `decode(encode(x)) == x` **bit-for-bit**: every `u64`
//! round-trips through its decimal token and every `f64` through
//! Rust's shortest round-trip `Display`. That equality is what lets a
//! warm run produce byte-identical tables, `--json` documents and
//! `--record` exports to a cold run (pinned in
//! `crates/core/tests/determinism.rs`).
//!
//! Decoders return `Option`: any structural surprise (unknown policy
//! name, short array, wrong version) is `None`, which the integration
//! layers treat as a cache miss.

use desim::SimTime;
use dvs::PolicyKind;
use kvspec::json::{array, escape, num_f64, Obj, Value};
use nepsim::{MeMode, MeReport, MeRole, ModeAcc, SimReport, WindowIdleSample};
use obs::{Channel, KernelCounters, Recording, Sample};

/// The payload-format version embedded in every composed payload.
pub const PAYLOAD_VERSION: u64 = 1;

/// Reverses [`PolicyKind`]'s `Display` strings.
#[must_use]
pub fn policy_kind_from_str(name: &str) -> Option<PolicyKind> {
    [
        PolicyKind::NoDvs,
        PolicyKind::Tdvs,
        PolicyKind::Edvs,
        PolicyKind::Combined,
        PolicyKind::QueueAware,
        PolicyKind::Proportional,
        PolicyKind::Custom,
    ]
    .into_iter()
    .find(|k| k.to_string() == name)
}

fn role_name(role: MeRole) -> &'static str {
    match role {
        MeRole::Rx => "rx",
        MeRole::Tx => "tx",
    }
}

fn role_from_str(name: &str) -> Option<MeRole> {
    match name {
        "rx" => Some(MeRole::Rx),
        "tx" => Some(MeRole::Tx),
        _ => None,
    }
}

fn mode_acc_json(acc: &ModeAcc) -> String {
    array(
        MeMode::ALL
            .iter()
            .map(|&mode| acc.get(mode).as_ps().to_string()),
    )
}

fn mode_acc_from_value(v: &Value) -> Option<ModeAcc> {
    let items = v.as_arr()?;
    if items.len() != MeMode::ALL.len() {
        return None;
    }
    let mut acc = ModeAcc::default();
    for (&mode, item) in MeMode::ALL.iter().zip(items) {
        acc.add(mode, SimTime::from_ps(item.as_u64()?));
    }
    Some(acc)
}

fn me_report_json(me: &MeReport) -> String {
    Obj::new()
        .str("role", role_name(me.role))
        .raw("acc_ps", &mode_acc_json(&me.acc))
        .num("energy_uj", me.energy_uj)
        .int("switches", me.switches)
        .int("final_level", me.final_level as u64)
        .int("packets_done", me.packets_done)
        .raw(
            "level_time_ps",
            &array(me.level_time.iter().map(|t| t.as_ps().to_string())),
        )
        .finish()
}

fn me_report_from_value(v: &Value) -> Option<MeReport> {
    Some(MeReport {
        role: role_from_str(v.str_of("role")?)?,
        acc: mode_acc_from_value(v.get("acc_ps")?)?,
        energy_uj: v.f64_of("energy_uj")?,
        switches: v.u64_of("switches")?,
        final_level: v.usize_of("final_level")?,
        packets_done: v.u64_of("packets_done")?,
        level_time: v
            .arr_of("level_time_ps")?
            .iter()
            .map(|t| t.as_u64().map(SimTime::from_ps))
            .collect::<Option<Vec<_>>>()?,
    })
}

fn window_idle_json(w: &WindowIdleSample) -> String {
    format!(
        "[{},{},\"{}\",{}]",
        w.window,
        w.me,
        role_name(w.role),
        num_f64(w.idle)
    )
}

fn window_idle_from_value(v: &Value) -> Option<WindowIdleSample> {
    let items = v.as_arr()?;
    if items.len() != 4 {
        return None;
    }
    Some(WindowIdleSample {
        window: items[0].as_u64()?,
        me: items[1].as_usize()?,
        role: role_from_str(items[2].as_str()?)?,
        idle: items[3].as_f64()?,
    })
}

/// A [`SimReport`] as a JSON object.
#[must_use]
pub fn sim_report_json(r: &SimReport) -> String {
    Obj::new()
        .str("policy", &r.policy.to_string())
        .int("duration_ps", r.duration.as_ps())
        .int("arrived_packets", r.arrived_packets)
        .int("arrived_bits", r.arrived_bits)
        .int("dropped_packets", r.dropped_packets)
        .int("dropped_tx_packets", r.dropped_tx_packets)
        .int("forwarded_packets", r.forwarded_packets)
        .int("forwarded_bits", r.forwarded_bits)
        .raw("mes", &array(r.mes.iter().map(me_report_json)))
        .num("me_energy_uj", r.me_energy_uj)
        .num("sram_energy_uj", r.sram_energy_uj)
        .num("sdram_energy_uj", r.sdram_energy_uj)
        .num("static_energy_uj", r.static_energy_uj)
        .num("monitor_energy_uj", r.monitor_energy_uj)
        .int("sram_accesses", r.sram_accesses)
        .int("sdram_accesses", r.sdram_accesses)
        .int("total_switches", r.total_switches)
        .int("windows", r.windows)
        .int("bus_bits", r.bus_bits)
        .num("bus_rate_mbps", r.bus_rate_mbps)
        .raw(
            "kernel",
            &format!(
                "[{},{},{}]",
                r.kernel.events_scheduled, r.kernel.events_processed, r.kernel.peak_heap_len
            ),
        )
        .raw(
            "window_idle",
            &array(r.window_idle.iter().map(window_idle_json)),
        )
        .finish()
}

/// Decodes [`sim_report_json`]'s object.
#[must_use]
pub fn sim_report_from_value(v: &Value) -> Option<SimReport> {
    let kernel = v.arr_of("kernel")?;
    if kernel.len() != 3 {
        return None;
    }
    Some(SimReport {
        policy: policy_kind_from_str(v.str_of("policy")?)?,
        duration: SimTime::from_ps(v.u64_of("duration_ps")?),
        arrived_packets: v.u64_of("arrived_packets")?,
        arrived_bits: v.u64_of("arrived_bits")?,
        dropped_packets: v.u64_of("dropped_packets")?,
        dropped_tx_packets: v.u64_of("dropped_tx_packets")?,
        forwarded_packets: v.u64_of("forwarded_packets")?,
        forwarded_bits: v.u64_of("forwarded_bits")?,
        mes: v
            .arr_of("mes")?
            .iter()
            .map(me_report_from_value)
            .collect::<Option<Vec<_>>>()?,
        me_energy_uj: v.f64_of("me_energy_uj")?,
        sram_energy_uj: v.f64_of("sram_energy_uj")?,
        sdram_energy_uj: v.f64_of("sdram_energy_uj")?,
        static_energy_uj: v.f64_of("static_energy_uj")?,
        monitor_energy_uj: v.f64_of("monitor_energy_uj")?,
        sram_accesses: v.u64_of("sram_accesses")?,
        sdram_accesses: v.u64_of("sdram_accesses")?,
        total_switches: v.u64_of("total_switches")?,
        windows: v.u64_of("windows")?,
        bus_bits: v.u64_of("bus_bits")?,
        bus_rate_mbps: v.f64_of("bus_rate_mbps")?,
        kernel: KernelCounters {
            events_scheduled: kernel[0].as_u64()?,
            events_processed: kernel[1].as_u64()?,
            peak_heap_len: kernel[2].as_u64()?,
        },
        window_idle: v
            .arr_of("window_idle")?
            .iter()
            .map(window_idle_from_value)
            .collect::<Option<Vec<_>>>()?,
    })
}

/// A [`Recording`] as a JSON object: emission-ordered
/// `[channel, cycle, value]` triples.
#[must_use]
pub fn recording_json(rec: &Recording) -> String {
    let samples = rec.samples().iter().map(|s| {
        format!(
            "[\"{}\",{},{}]",
            escape(s.channel.name()),
            s.cycle,
            num_f64(s.value)
        )
    });
    Obj::new().raw("samples", &array(samples)).finish()
}

/// Decodes [`recording_json`]'s object.
#[must_use]
pub fn recording_from_value(v: &Value) -> Option<Recording> {
    let samples = v
        .arr_of("samples")?
        .iter()
        .map(|s| {
            let triple = s.as_arr()?;
            if triple.len() != 3 {
                return None;
            }
            Some(Sample {
                channel: triple[0].as_str()?.parse::<Channel>().ok()?,
                cycle: triple[1].as_u64()?,
                value: triple[2].as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    Some(Recording::from_samples(samples))
}

fn versioned<'v, 'a>(v: &'v Value<'a>) -> Option<&'v Value<'a>> {
    (v.u64_of("v")? == PAYLOAD_VERSION).then_some(v)
}

/// Payload for a segment-snapshot cell (scenario axis): the cumulative
/// [`SimReport`] at each planned boundary.
#[must_use]
pub fn snapshots_payload(snapshots: &[SimReport]) -> String {
    Obj::new()
        .int("v", PAYLOAD_VERSION)
        .raw("snapshots", &array(snapshots.iter().map(sim_report_json)))
        .finish()
}

/// Decodes [`snapshots_payload`].
#[must_use]
pub fn parse_snapshots(payload: &str) -> Option<Vec<SimReport>> {
    let v = Value::parse(payload)?;
    versioned(&v)?
        .arr_of("snapshots")?
        .iter()
        .map(sim_report_from_value)
        .collect()
}

/// Payload for a recorded cell (fleet axis): the report plus the
/// recording its folds absorb.
#[must_use]
pub fn recorded_payload(report: &SimReport, recording: &Recording) -> String {
    Obj::new()
        .int("v", PAYLOAD_VERSION)
        .raw("sim", &sim_report_json(report))
        .raw("rec", &recording_json(recording))
        .finish()
}

/// Decodes [`recorded_payload`].
#[must_use]
pub fn parse_recorded(payload: &str) -> Option<(SimReport, Recording)> {
    let v = Value::parse(payload)?;
    let v = versioned(&v)?;
    Some((
        sim_report_from_value(v.get("sim")?)?,
        recording_from_value(v.get("rec")?)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nepsim::{MemRecorder, NpuConfig, Simulator};

    fn simulate() -> (SimReport, Recording) {
        let config = NpuConfig::builder()
            .seed(7)
            .policy("tdvs:threshold=1400".parse().unwrap())
            .build();
        let mut sim = Simulator::new(config).with_recorder(Box::new(MemRecorder::new()));
        let report = sim.run_cycles(200_000);
        (report, sim.take_recording())
    }

    #[test]
    fn sim_report_round_trips_bit_exactly() {
        let (report, _) = simulate();
        let encoded = sim_report_json(&report);
        let decoded = sim_report_from_value(&Value::parse(&encoded).unwrap()).unwrap();
        assert_eq!(decoded, report);
        // PartialEq on f64 fields is exact equality, but double-check a
        // couple of derived quantities down to the bit.
        assert_eq!(
            decoded.mean_power_w().to_bits(),
            report.mean_power_w().to_bits()
        );
        assert_eq!(
            decoded.total_energy_uj().to_bits(),
            report.total_energy_uj().to_bits()
        );
    }

    #[test]
    fn recording_round_trips_exactly() {
        let (report, recording) = simulate();
        assert!(!recording.is_empty());
        let payload = recorded_payload(&report, &recording);
        let (r2, rec2) = parse_recorded(&payload).unwrap();
        assert_eq!(r2, report);
        assert_eq!(rec2, recording);
    }

    #[test]
    fn snapshots_round_trip() {
        let (report, _) = simulate();
        let payload = snapshots_payload(&[report.clone(), report.clone()]);
        let decoded = parse_snapshots(&payload).unwrap();
        assert_eq!(decoded, vec![report.clone(), report]);
    }

    #[test]
    fn policy_kind_names_round_trip() {
        for kind in [
            PolicyKind::NoDvs,
            PolicyKind::Tdvs,
            PolicyKind::Edvs,
            PolicyKind::Combined,
            PolicyKind::QueueAware,
            PolicyKind::Proportional,
            PolicyKind::Custom,
        ] {
            assert_eq!(policy_kind_from_str(&kind.to_string()), Some(kind));
        }
        assert_eq!(policy_kind_from_str("nonesuch"), None);
    }

    #[test]
    fn decoders_reject_mangled_payloads() {
        let (report, recording) = simulate();
        let payload = recorded_payload(&report, &recording);
        assert!(parse_recorded(&payload[..payload.len() / 2]).is_none());
        assert!(parse_recorded(&payload.replace("\"v\":1", "\"v\":2")).is_none());
        assert!(parse_recorded(&payload.replace("TDVS", "XDVS")).is_none());
        assert!(parse_snapshots(&payload).is_none());
    }
}
