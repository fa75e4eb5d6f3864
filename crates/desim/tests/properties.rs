//! Property-based tests for the simulation kernel.

use desim::stats::{Histogram, OnlineStats, P2Quantile, TimeWeighted};
use desim::{EventQueue, Frequency, Key, SimTime};
use proptest::prelude::*;

/// A reference-model entry: due time, reservation rank, event id, and
/// the reserved key for events queued through `schedule_key`.
type ModelEvent = (SimTime, u64, usize, Option<Key>);

/// The reference event list: the earliest pending event, earliest
/// reserved first among equal times.
fn model_pop(model: &mut Vec<ModelEvent>) -> Option<ModelEvent> {
    let earliest = (0..model.len()).min_by_key(|&i| (model[i].0, model[i].1))?;
    Some(model.remove(earliest))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Popping the queue yields events in the same order as a stable sort
    /// by time of the insertion sequence.
    #[test]
    fn queue_matches_stable_sort(times in prop::collection::vec(0u64..1000, 0..200)) {
        let mut q = EventQueue::new();
        for (idx, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_ns(t), idx);
        }
        let popped: Vec<(SimTime, usize)> =
            std::iter::from_fn(|| q.pop()).collect();

        let mut expected: Vec<(SimTime, usize)> = times
            .iter()
            .enumerate()
            .map(|(idx, &t)| (SimTime::from_ns(t), idx))
            .collect();
        expected.sort_by_key(|&(t, _)| t); // stable
        prop_assert_eq!(popped, expected);
    }

    /// Interleaved `schedule` and `pop` calls, with equal-time bursts and
    /// up to about 500 events pending, match a reference model that pops
    /// the earliest pending event, earliest reserved first among equal
    /// times. New events land at or after the current time, never in the
    /// past. Some bursts only `reserve` their keys; a later pop step
    /// queues them with `schedule_key` first, dropping any whose slot has
    /// passed, and each pops exactly where a plain schedule made at
    /// reservation time would have. The kernel counters match the
    /// model's tallies of queued events only.
    #[test]
    fn interleaved_queue_matches_reference_model(
        schedule_weight in 1u8..8,
        ops in prop::collection::vec((0u8..8, 0u64..40, 1usize..4, 0u8..2), 0..400),
    ) {
        let mut q = EventQueue::new();
        let mut model: Vec<ModelEvent> = Vec::new();
        let mut reserved: Vec<ModelEvent> = Vec::new();
        let (mut next_id, mut rank, mut peak) = (0usize, 0u64, 0usize);
        let (mut queued, mut popped) = (0u64, 0u64);
        // The last popped (time, rank): a reservation at or before it
        // has passed and can no longer be queued.
        let mut last: Option<(SimTime, u64)> = None;
        for (kind, delay, burst, defer) in ops {
            let defer = defer == 1;
            if kind < schedule_weight {
                let at = q.now() + SimTime::from_ns(delay);
                for _ in 0..burst {
                    if defer {
                        reserved.push((at, rank, next_id, Some(q.reserve(at))));
                    } else {
                        q.schedule(at, next_id);
                        model.push((at, rank, next_id, None));
                        queued += 1;
                    }
                    next_id += 1;
                    rank += 1;
                }
            } else {
                if defer {
                    for ev in reserved.drain(..) {
                        if last.is_some_and(|l| (ev.0, ev.1) <= l) {
                            continue;
                        }
                        q.schedule_key(ev.3.expect("reserved events carry a key"), ev.2);
                        model.push(ev);
                        queued += 1;
                        peak = peak.max(model.len());
                    }
                }
                let expected = model_pop(&mut model);
                prop_assert_eq!(q.pop(), expected.map(|(t, _, id, _)| (t, id)));
                if let Some((t, r, _, key)) = expected {
                    popped += 1;
                    last = Some((t, r));
                    prop_assert_eq!(q.now(), t);
                    if let Some(key) = key {
                        prop_assert_eq!(q.current(), key);
                    }
                }
            }
            peak = peak.max(model.len());
            prop_assert_eq!(q.len(), model.len());
        }
        while let Some((t, _, id, _)) = model_pop(&mut model) {
            popped += 1;
            prop_assert_eq!(q.pop(), Some((t, id)));
        }
        prop_assert_eq!(q.pop(), None);
        let c = q.counters();
        prop_assert_eq!(c.events_scheduled, queued);
        prop_assert_eq!(c.events_processed, popped);
        prop_assert_eq!(c.peak_heap_len, peak as u64);
    }

    /// Cycle/time conversion round-trips exactly for cycle counts whose
    /// duration is an integral number of picoseconds.
    #[test]
    fn frequency_round_trip(mhz in 1u64..5000, kcycles in 0u64..1_000_000) {
        let f = Frequency::from_mhz(mhz);
        let cycles = kcycles * mhz; // guarantees integral picoseconds
        let t = f.cycles_to_time(cycles);
        prop_assert_eq!(f.time_to_cycles(t), cycles);
    }

    /// time_to_cycles is monotone in time.
    #[test]
    fn time_to_cycles_monotone(mhz in 1u64..3000, a in 0u64..10_000_000, b in 0u64..10_000_000) {
        let f = Frequency::from_mhz(mhz);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(
            f.time_to_cycles(SimTime::from_ps(lo)) <= f.time_to_cycles(SimTime::from_ps(hi))
        );
    }

    /// OnlineStats matches a straightforward two-pass computation.
    #[test]
    fn online_stats_matches_two_pass(values in prop::collection::vec(-1e3f64..1e3, 2..200)) {
        let mut s = OnlineStats::new();
        for &v in &values {
            s.push(v);
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
        prop_assert!((s.mean() - mean).abs() < 1e-6);
        prop_assert!((s.variance() - var).abs() < 1e-4);
        prop_assert_eq!(s.min().unwrap(), values.iter().copied().fold(f64::INFINITY, f64::min));
        prop_assert_eq!(s.max().unwrap(), values.iter().copied().fold(f64::NEG_INFINITY, f64::max));
    }

    /// Merging partitions of a sample equals accumulating the whole sample.
    #[test]
    fn online_stats_merge_is_partition_invariant(
        values in prop::collection::vec(-1e3f64..1e3, 2..100),
        split in 0usize..100,
    ) {
        let split = split % values.len();
        let mut whole = OnlineStats::new();
        for &v in &values {
            whole.push(v);
        }
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &v in &values[..split] {
            left.push(v);
        }
        for &v in &values[split..] {
            right.push(v);
        }
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean() - whole.mean()).abs() < 1e-9);
        prop_assert!((left.variance() - whole.variance()).abs() < 1e-6);
    }

    /// Histogram total always equals the number of recorded samples, and
    /// the CDF is monotone.
    #[test]
    fn histogram_conservation(values in prop::collection::vec(-10.0f64..10.0, 0..300)) {
        let mut h = Histogram::new(-5.0, 5.0, 20);
        for &v in &values {
            h.record(v);
        }
        let binned: u64 = (0..h.bins()).map(|k| h.bin_count(k)).sum();
        prop_assert_eq!(binned + h.underflow() + h.overflow(), values.len() as u64);
        let mut last = 0.0;
        for x in [-6.0, -5.0, -2.5, 0.0, 2.5, 5.0, 6.0] {
            let c = h.cdf(x);
            prop_assert!(c + 1e-12 >= last, "cdf not monotone at {x}");
            last = c;
        }
    }

    /// The P² estimate stays within the sample range and, for large
    /// samples, lands near the exact quantile.
    #[test]
    fn p2_estimate_close_to_exact(
        values in prop::collection::vec(-1e3f64..1e3, 50..2000),
        p in 0.1f64..0.9,
    ) {
        let mut est = P2Quantile::new(p);
        for &v in &values {
            est.push(v);
        }
        let estimate = est.estimate().unwrap();
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let lo = sorted[0];
        let hi = sorted[sorted.len() - 1];
        prop_assert!(estimate >= lo && estimate <= hi, "estimate escaped range");
        // For well-populated samples the estimate should sit within a
        // generous rank band of the exact quantile.
        if values.len() >= 500 {
            let exact_rank = (p * sorted.len() as f64) as usize;
            let band = sorted.len() / 5;
            let lo_b = sorted[exact_rank.saturating_sub(band)];
            let hi_b = sorted[(exact_rank + band).min(sorted.len() - 1)];
            prop_assert!(
                estimate >= lo_b && estimate <= hi_b,
                "estimate {estimate} outside rank band [{lo_b}, {hi_b}] for p={p}"
            );
        }
    }

    /// A time-weighted average always lies within the min/max of the
    /// recorded values.
    #[test]
    fn time_weighted_average_is_bounded(
        updates in prop::collection::vec((1u64..1000, -100.0f64..100.0), 1..50),
    ) {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
        let mut now = SimTime::ZERO;
        let mut lo = 0.0f64;
        let mut hi = 0.0f64;
        for (dt, v) in updates {
            now += SimTime::from_ns(dt);
            tw.update(now, v);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let end = now + SimTime::from_ns(10);
        let avg = tw.average(end);
        prop_assert!(avg >= lo - 1e-9 && avg <= hi + 1e-9, "avg {avg} outside [{lo}, {hi}]");
    }
}
