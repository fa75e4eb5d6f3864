//! Result-cache payloads and cached execution for the experiment axis.
//!
//! An [`ExperimentResult`] is `(experiment, SimReport, two
//! DistributionReports)`. The experiment is the key, so the payload
//! carries only the three computed pieces: the report through
//! [`ccache::codec`] and the distributions through
//! [`loc::DistributionReport::to_parts`]. Decoding rebuilds the result
//! **bit-identically** — every `f64` goes through shortest round-trip
//! formatting — which is what lets every renderer downstream (tables,
//! `--json`, summaries) produce byte-identical output for warm and
//! cold runs (pinned in `tests/determinism.rs`).
//!
//! [`run_cached`] is the one cached execution path: every batch
//! funnelled through [`run_experiments`](crate::run_experiments) and
//! the CLI's single-run path go through it, so hit/miss accounting and
//! fallback semantics live in exactly one place.

use ccache::codec;
use ccache::Cache;
use kvspec::json::{array, num_f64, Obj, Value};
use loc::{DistParts, DistRel, DistributionReport};

use crate::experiment::{Experiment, ExperimentResult};

/// The spec string keying an experiment cell: a domain tag plus the
/// canonical `kvspec` rendering ([`Experiment::label`]) that already
/// names the cell everywhere else (progress lines, errors, JSON).
#[must_use]
pub fn experiment_key(e: &Experiment) -> String {
    format!("cell|{}", e.label())
}

fn rel_name(rel: DistRel) -> &'static str {
    match rel {
        DistRel::Eq => "eq",
        DistRel::Le => "le",
        DistRel::Ge => "ge",
    }
}

fn rel_from_str(name: &str) -> Option<DistRel> {
    match name {
        "eq" => Some(DistRel::Eq),
        "le" => Some(DistRel::Le),
        "ge" => Some(DistRel::Ge),
        _ => None,
    }
}

fn dist_json(report: &DistributionReport) -> String {
    let parts = report.to_parts();
    Obj::new()
        .str("rel", rel_name(parts.rel))
        .num("min", parts.min)
        .num("max", parts.max)
        .num("step", parts.step)
        .raw("counts", &array(parts.counts.iter().map(u64::to_string)))
        .raw(
            "values",
            &array(parts.sorted_values.iter().copied().map(num_f64)),
        )
        .int("nan", parts.nan_count)
        .int("total", parts.total)
        .finish()
}

fn dist_from_value(v: &Value) -> Option<DistributionReport> {
    Some(DistributionReport::from_parts(DistParts {
        rel: rel_from_str(v.str_of("rel")?)?,
        min: v.f64_of("min")?,
        max: v.f64_of("max")?,
        step: v.f64_of("step")?,
        counts: v
            .arr_of("counts")?
            .iter()
            .map(Value::as_u64)
            .collect::<Option<Vec<_>>>()?,
        sorted_values: v
            .arr_of("values")?
            .iter()
            .map(Value::as_f64)
            .collect::<Option<Vec<_>>>()?,
        nan_count: v.u64_of("nan")?,
        total: v.u64_of("total")?,
    }))
}

/// Encodes a result's computed pieces as a cache payload.
#[must_use]
pub fn encode_result(r: &ExperimentResult) -> String {
    Obj::new()
        .int("v", codec::PAYLOAD_VERSION)
        .raw("sim", &codec::sim_report_json(&r.sim))
        .raw("power", &dist_json(&r.power))
        .raw("throughput", &dist_json(&r.throughput))
        .finish()
}

/// Decodes a payload back into the result of `experiment`; `None` on
/// any structural damage (the caller re-simulates).
#[must_use]
pub fn decode_result(experiment: &Experiment, payload: &str) -> Option<ExperimentResult> {
    let v = Value::parse(payload)?;
    if v.u64_of("v")? != codec::PAYLOAD_VERSION {
        return None;
    }
    Some(ExperimentResult {
        experiment: experiment.clone(),
        sim: codec::sim_report_from_value(v.get("sim")?)?,
        power: dist_from_value(v.get("power")?)?,
        throughput: dist_from_value(v.get("throughput")?)?,
    })
}

/// Runs one experiment through the cache: lookup, fall back to
/// [`Experiment::run`] on a miss (or a decode failure, demoted to a
/// miss), publish the fresh result. With no cache this **is**
/// `experiment.run()`.
#[must_use]
pub fn run_cached(cache: Option<&Cache>, experiment: &Experiment) -> ExperimentResult {
    let Some(cache) = cache else {
        return experiment.run();
    };
    let key = experiment_key(experiment);
    // The probe is one profiler span that renames itself once resolved:
    // `cache.lookup` becomes `cache.lookup.hit` on an intact entry and
    // `cache.lookup.miss` otherwise (including decode demotions), with running
    // hit/miss counter events alongside.
    let cached = {
        let mut prof = obs::prof::span("cache.lookup");
        match cache.lookup(&key).and_then(|p| {
            let decoded = decode_result(experiment, &p);
            if decoded.is_none() {
                cache.demote_hit();
            }
            decoded
        }) {
            Some(result) => {
                prof.set_name("cache.lookup.hit");
                obs::prof::count("cache.hits", 1.0);
                Some(result)
            }
            None => {
                prof.set_name("cache.lookup.miss");
                obs::prof::count("cache.misses", 1.0);
                None
            }
        }
    };
    if let Some(result) = cached {
        return result;
    }
    let result = experiment.run();
    cache.publish(&key, &encode_result(&result));
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs::PolicySpec;
    use nepsim::Benchmark;

    fn experiment() -> Experiment {
        Experiment {
            benchmark: Benchmark::Ipfwdr,
            traffic: traffic::TrafficLevel::High.into(),
            policy: PolicySpec::parse("tdvs:threshold=1400").unwrap(),
            cycles: 400_000,
            seed: 11,
        }
    }

    fn temp_cache(tag: &str) -> Cache {
        let dir = std::env::temp_dir().join(format!("abdex-cachefmt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Cache::open(dir).unwrap()
    }

    #[test]
    fn results_round_trip_bit_exactly() {
        let e = experiment();
        let cold = e.run();
        let decoded = decode_result(&e, &encode_result(&cold)).expect("payload decodes");
        assert_eq!(decoded.sim, cold.sim);
        assert_eq!(decoded.power, cold.power);
        assert_eq!(decoded.throughput, cold.throughput);
        assert_eq!(decoded.experiment, cold.experiment);
        assert_eq!(
            decoded.p80_power_w().to_bits(),
            cold.p80_power_w().to_bits()
        );
        assert_eq!(
            decoded.p80_throughput_mbps().to_bits(),
            cold.p80_throughput_mbps().to_bits()
        );
        let (dm, cm) = (decoded.metrics(), cold.metrics());
        assert_eq!(dm.mean_power_w.to_bits(), cm.mean_power_w.to_bits());
        assert_eq!(dm.rx_idle_fraction.to_bits(), cm.rx_idle_fraction.to_bits());
        assert_eq!(dm.total_switches, cm.total_switches);
        assert_eq!(dm.forwarded_packets, cm.forwarded_packets);
    }

    #[test]
    fn payloads_round_trip_byte_for_byte() {
        for benchmark in nepsim::Benchmark::ALL {
            // noDVS, so the short run forwards enough packets to fill
            // both distributions' value lists.
            let e = Experiment {
                benchmark,
                policy: PolicySpec::parse("nodvs").unwrap(),
                cycles: 300_000,
                ..experiment()
            };
            let payload = encode_result(&e.run());
            let decoded = decode_result(&e, &payload).expect("payload decodes");
            assert_eq!(encode_result(&decoded), payload, "{benchmark}");

            // One mangled number token is a miss, not a panic.
            let values = payload
                .match_indices("\"values\":[")
                .map(|(i, m)| i + m.len())
                .find(|&i| !payload[i..].starts_with(']'))
                .expect("a non-empty values list");
            let end = values + payload[values..].find([',', ']']).unwrap();
            for bad in ["1e", "1.2.3", "-", "1e+"] {
                let mangled = format!("{}{bad}{}", &payload[..values], &payload[end..]);
                assert!(decode_result(&e, &mangled).is_none(), "{benchmark}: {bad}");
            }
        }
    }

    #[test]
    fn warm_run_equals_cold_run() {
        let cache = temp_cache("warm");
        let e = experiment();
        let cold = run_cached(Some(&cache), &e);
        let warm = run_cached(Some(&cache), &e);
        assert_eq!(cold.sim, warm.sim);
        assert_eq!(cold.power, warm.power);
        let counters = cache.counters();
        assert_eq!((counters.hits, counters.misses, counters.stores), (1, 1, 1));
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn corrupt_payload_demotes_to_miss_and_heals() {
        let cache = temp_cache("demote");
        let e = experiment();
        // A structurally valid entry whose payload is not a result.
        cache.publish(&experiment_key(&e), "{\"v\":1,\"sim\":{}}");
        let result = run_cached(Some(&cache), &e);
        assert!(result.sim.forwarded_packets > 0);
        let counters = cache.counters();
        assert_eq!(counters.hits, 0, "decode failure demotes the hit");
        assert_eq!(counters.misses, 1);
        // The healed entry now hits.
        let again = run_cached(Some(&cache), &e);
        assert_eq!(again.sim, result.sim);
        assert_eq!(cache.counters().hits, 1);
        let _ = std::fs::remove_dir_all(cache.root());
    }
}
