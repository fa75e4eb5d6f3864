//! Deterministic future-event list.
//!
//! Events pop in order of their [`Key`]: time first, then the sequence
//! number the key took when it was reserved. A plain
//! [`EventQueue::schedule`] reserves and queues in one call, so ties
//! among plain schedules pop FIFO. A model can also reserve a key now and
//! queue an event under it later, or never: the event then pops exactly
//! where it would have popped had it been scheduled at reservation time.
//! `nepsim` uses this to keep memory completions off the list unless
//! they can wake a parked microengine.
//!
//! The pending events live in one `Vec` sorted latest-first, so the next
//! event is always at the back: a pop is `Vec::pop`, and a schedule scans
//! from the back past the events due before it and inserts there —
//! O(pending) per insert. That beats a binary heap while the pending set
//! stays small and new events land near the front of time, which is the
//! shape of the `nepsim` model. It holds the next arrival, the next
//! window, each microengine's continuation, the stale continuations a
//! wake-up during a VF-switch stall leaves behind, and at most one
//! wake-up per thread. That has no tight bound, but the measured peak is
//! 32 over the paper's TDVS sweep and 9–24 in the trajectory pins, and
//! most new events complete within a few hundred cycles.

use obs::KernelCounters;

use crate::SimTime;

/// A pop-order key: a time and a reservation sequence number, packed into
/// one `u128` (time in the high half) so a compare is a single integer
/// compare. Keys are unique per queue and ordered by `(time, sequence)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key(u128);

impl Key {
    /// Orders before every reserved key.
    pub const MIN: Key = Key(0);
    /// Orders after every reserved key.
    pub const MAX: Key = Key(u128::MAX);

    fn new(at: SimTime, seq: u64) -> Self {
        Key(u128::from(at.as_ps()) << 64 | u128::from(seq))
    }

    /// The time the key falls due.
    #[must_use]
    pub fn time(self) -> SimTime {
        SimTime::from_ps((self.0 >> 64) as u64)
    }
}

/// A future-event list: events pop in non-decreasing time order, with ties
/// broken by reservation order (FIFO for plain schedules), which makes
/// simulations deterministic.
///
/// # Example
///
/// ```
/// use desim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_ns(5), "b");
/// let late = q.reserve(SimTime::from_ns(5)); // slot after "b"
/// q.schedule(SimTime::from_ns(5), "d");
/// q.schedule(SimTime::from_ns(1), "a");
/// q.schedule_key(late, "c"); // pops where it was reserved
///
/// let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ["a", "b", "c", "d"]);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Pending events sorted by key, latest first.
    pending: Vec<(Key, E)>,
    /// Key of the most recently popped event.
    current: Key,
    /// Sequence number of the next reservation. Starts at 1, so every
    /// reserved key orders after the initial [`Key::MIN`] current key.
    next_seq: u64,
    counters: KernelCounters,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            pending: Vec::new(),
            current: Key::MIN,
            next_seq: 1,
            counters: KernelCounters::default(),
        }
    }

    /// The time of the most recently popped event (the current simulated
    /// time).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.current.time()
    }

    /// The key of the most recently popped event ([`Key::MIN`] before the
    /// first pop). A reserved key at or before it has fallen due.
    #[must_use]
    pub fn current(&self) -> Key {
        self.current
    }

    /// Reserves the pop-order slot an event scheduled at `at` right now
    /// would take, without queueing anything. Not counted as scheduled.
    pub fn reserve(&mut self, at: SimTime) -> Key {
        let key = Key::new(at, self.next_seq);
        self.next_seq += 1;
        key
    }

    /// Queues `payload` in the slot `key` reserved.
    ///
    /// # Panics
    ///
    /// Panics if `key` is at or before [`EventQueue::current`] — the slot
    /// has already passed, and queueing into the past would silently
    /// corrupt causality.
    pub fn schedule_key(&mut self, key: Key, payload: E) {
        assert!(
            key > self.current,
            "cannot schedule event at {at}: its slot is at or before \
             the current event's, at {now}",
            at = key.time(),
            now = self.now()
        );
        let slot = self
            .pending
            .iter()
            .rposition(|&(k, _)| k > key)
            .map_or(0, |later| later + 1);
        self.pending.insert(slot, (key, payload));
        self.counters.events_scheduled += 1;
        self.counters.peak_heap_len = self.counters.peak_heap_len.max(self.pending.len() as u64);
    }

    /// Schedules `payload` at absolute time `at`, after every pending
    /// event due at or before `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than [`EventQueue::now`] — scheduling into
    /// the past is always a model bug and would silently corrupt causality.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let key = self.reserve(at);
        self.schedule_key(key, payload);
    }

    /// Schedules `payload` at `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimTime, payload: E) {
        let at = self.now() + delay;
        self.schedule(at, payload);
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (key, payload) = self.pending.pop()?;
        debug_assert!(key > self.current, "event list yielded out-of-order key");
        self.current = key;
        self.counters.events_processed += 1;
        Some((key.time(), payload))
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
        self.pending.last().map(|&(k, _)| k.time())
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

    /// Lifetime kernel tallies of the queue's own traffic: events queued
    /// and popped, and the peak number pending at once. Reservations that
    /// are never queued do not count. Pure functions of the call
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
    #[should_panic(expected = "cannot schedule event")]
    fn scheduling_a_passed_key_panics() {
        let mut q = EventQueue::new();
        let early = q.reserve(SimTime::from_ns(10));
        q.schedule(SimTime::from_ns(10), ());
        q.pop();
        // Same time as now, but the slot precedes the popped event.
        q.schedule_key(early, ());
    }

    #[test]
    #[should_panic(expected = "cannot schedule event")]
    fn scheduling_the_current_key_panics() {
        let mut q = EventQueue::new();
        let key = q.reserve(SimTime::from_ns(10));
        q.schedule_key(key, ());
        q.pop();
        assert_eq!(q.current(), key);
        q.schedule_key(key, ());
    }

    #[test]
    fn reserved_keys_order_by_time_then_reservation() {
        let mut q = EventQueue::new();
        assert_eq!(q.current(), Key::MIN);
        let a = q.reserve(SimTime::from_ns(5));
        let b = q.reserve(SimTime::from_ns(5));
        let c = q.reserve(SimTime::from_ns(4));
        assert!(c < a && a < b && b < Key::MAX);
        assert_eq!(a.time(), SimTime::from_ns(5));
        // Reserving queues nothing and counts nothing.
        assert!(q.is_empty());
        assert_eq!(q.counters(), KernelCounters::default());
        q.schedule_key(b, "b");
        q.schedule_key(a, "a");
        q.pop();
        assert_eq!(q.current(), a);
        assert!(b > q.current());
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
