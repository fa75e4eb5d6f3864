//! Deterministic future-event list.
//!
//! The pending events live in one `Vec` sorted latest-first, so the next
//! event is always at the back: a pop is `Vec::pop`, and a schedule scans
//! from the back past the events due at or before it and inserts there —
//! O(pending) per insert. That beats a binary heap while the pending set
//! stays small and new events land near the front of time, which is the
//! shape of the `nepsim` model: it holds at most one event per thread per
//! microengine, one continuation per microengine, the next arrival and the
//! next window (threads × MEs + MEs + 2, 32 in the paper configuration),
//! and most new events complete within a few hundred cycles.

use obs::KernelCounters;

use crate::SimTime;

/// A future-event list: events pop in non-decreasing time order, with ties
/// broken by insertion order (FIFO), which makes simulations deterministic.
///
/// # Example
///
/// ```
/// use desim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_ns(5), "b");
/// q.schedule(SimTime::from_ns(5), "c"); // same time: FIFO order
/// q.schedule(SimTime::from_ns(1), "a");
///
/// let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ["a", "b", "c"]);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Pending events sorted by `(time, insertion order)`, latest first.
    pending: Vec<(SimTime, E)>,
    now: SimTime,
    counters: KernelCounters,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            pending: Vec::new(),
            now: SimTime::ZERO,
            counters: KernelCounters::default(),
        }
    }

    /// The time of the most recently popped event (the current simulated
    /// time).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` at absolute time `at`, after every pending
    /// event due at or before `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than [`EventQueue::now`] — scheduling into
    /// the past is always a model bug and would silently corrupt causality.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        assert!(
            at >= self.now,
            "cannot schedule event at {at} before current time {now}",
            now = self.now
        );
        let slot = self
            .pending
            .iter()
            .rposition(|&(t, _)| t > at)
            .map_or(0, |later| later + 1);
        self.pending.insert(slot, (at, payload));
        self.counters.events_scheduled += 1;
        self.counters.peak_heap_len = self.counters.peak_heap_len.max(self.pending.len() as u64);
    }

    /// Schedules `payload` at `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimTime, payload: E) {
        let at = self.now + delay;
        self.schedule(at, payload);
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (time, payload) = self.pending.pop()?;
        debug_assert!(time >= self.now, "event list yielded out-of-order time");
        self.now = time;
        self.counters.events_processed += 1;
        Some((time, payload))
    }

    /// Like [`EventQueue::pop`], but leaves the queue untouched and returns
    /// `None` when the earliest event is due after `cap`.
    pub fn pop_until(&mut self, cap: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? > cap {
            return None;
        }
        self.pop()
    }

    /// Time of the next event without popping it.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.pending.last().map(|&(t, _)| t)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// `true` if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Discards all pending events without advancing the clock.
    ///
    /// Kernel counters are lifetime tallies and survive a `clear` —
    /// discarded events stay counted as scheduled, never as processed.
    pub fn clear(&mut self) {
        self.pending.clear();
    }

    /// Lifetime kernel tallies: events scheduled/processed and the peak
    /// number pending at once. Pure functions of the schedule/pop call
    /// sequence, so they are bit-identical across repeated runs.
    #[must_use]
    pub fn counters(&self) -> KernelCounters {
        self.counters
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(30), 3);
        q.schedule(SimTime::from_ns(10), 1);
        q.schedule(SimTime::from_ns(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_ns(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(5), ());
        q.schedule_in(SimTime::from_ns(9), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_ns(5));
        q.pop();
        assert_eq!(q.now(), SimTime::from_ns(9));
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), "first");
        q.pop();
        q.schedule_in(SimTime::from_ns(5), "second");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_ns(15));
    }

    #[test]
    #[should_panic(expected = "cannot schedule event")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), ());
        q.pop();
        q.schedule(SimTime::from_ns(1), ());
    }

    #[test]
    fn counters_track_heap_traffic() {
        let mut q = EventQueue::new();
        assert_eq!(q.counters(), KernelCounters::default());
        q.schedule(SimTime::from_ns(1), ());
        q.schedule(SimTime::from_ns(2), ());
        q.schedule(SimTime::from_ns(3), ());
        q.pop();
        q.pop();
        q.schedule(SimTime::from_ns(4), ());
        let c = q.counters();
        assert_eq!(c.events_scheduled, 4);
        assert_eq!(c.events_processed, 2);
        assert_eq!(c.peak_heap_len, 3);
        assert_eq!(c.heap_ops(), 6);
        // clear() keeps the tallies: discarded events stay scheduled-only.
        q.clear();
        assert_eq!(q.counters().events_scheduled, 4);
        assert_eq!(q.counters().events_processed, 2);
    }

    #[test]
    fn len_empty_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::from_ns(1), ());
        q.schedule(SimTime::from_ns(2), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(1)));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_until_stops_at_the_cap() {
        let mut q = EventQueue::new();
        for t in [3, 1, 2, 5] {
            q.schedule(SimTime::from_ns(t), t);
        }
        let cap = SimTime::from_ns(3);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop_until(cap).map(|(_, e)| e)).collect();
        assert_eq!(order, [1, 2, 3]);
        // The later event stays queued and the clock stops at the last pop.
        assert_eq!(q.now(), cap);
        assert_eq!(q.len(), 1);
        assert_eq!(q.counters().events_processed, 3);
        assert_eq!(
            q.pop_until(SimTime::from_ns(5)),
            Some((SimTime::from_ns(5), 5))
        );
        assert_eq!(q.pop_until(SimTime::MAX), None);
    }
}
