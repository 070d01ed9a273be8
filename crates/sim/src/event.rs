//! The pending-event set.
//!
//! A discrete-event simulator is, at its heart, a loop around a priority
//! queue of `(time, event)` pairs.  Two properties matter:
//!
//! * **Determinism.**  A packet simulator generates *many* simultaneous
//!   events (a transmission that completes at exactly the moment another
//!   source wakes up), so equal timestamps must break ties reproducibly.
//!   Every entry carries a sequence number and the queue orders by
//!   `(time, seq)`: events scheduled earlier pop earlier when times tie,
//!   making every run a pure function of the initial seed.
//!
//! * **Hot-path cost.**  The simulator pushes and pops one event per packet
//!   per hop.  A binary heap pays `O(log n)` comparisons on both
//!   operations, and every sift moves whole entries.  This queue is
//!   instead a *calendar queue* (Brown, CACM 1988): time is divided into
//!   fixed-width "days", each day hashes to a bucket of a power-of-two
//!   wheel, and a push into the current window is an `O(1)` append.
//!   Events beyond the wheel's horizon go to a spillover heap, which is
//!   only consulted when the wheel runs dry.
//!
//! Two layout choices keep the per-event work small:
//!
//! * **Keys, not events, move.**  An event's payload is written once into
//!   a slab (a `Vec<Option<E>>` with a free list) on push and taken out
//!   once on pop.  The wheel buckets, the day being drained and both heaps
//!   hold only 24-byte `(time, seq, slot)` keys, so bucket appends, sorts
//!   and heap sifts never copy a payload.  Freed slots are reused first,
//!   so the slab is never longer than the pending-event high water.
//!
//! * **Sorted day runs.**  When a day starts, its bucket's `Vec` is
//!   swapped out whole (the empty run's allocation takes its place in the
//!   wheel) and sorted once in *descending* `(time, seq)` order, so each
//!   pop takes the run's tail.  Days are short (≈1 ms, about one packet
//!   time), so a run holds a handful of keys.  A push into a day that has
//!   already started goes to a small late-key heap instead, and a pop
//!   takes the smaller of the run's tail and that heap's head.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Number of buckets in the wheel (one "day" each); must be a power of two.
const NUM_BUCKETS: u64 = 1024;
/// log2 of the day width in nanoseconds: 2^20 ns ≈ 1.05 ms, about one
/// 1000-bit packet time on the paper's 1 Mbit/s links, so a day holds the
/// events of roughly one packet slot per link.
const DAY_SHIFT: u32 = 20;

/// The day (bucket key) a timestamp falls into.
fn day(t: SimTime) -> u64 {
    t.as_nanos() >> DAY_SHIFT
}

/// A pending event's ordering key: `(time, seq)` orders, `slot` names the
/// slab cell holding the payload.  `seq` is unique, so `slot` never
/// decides a comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    time: SimTime,
    seq: u64,
    slot: usize,
}

/// A deterministic min-priority queue of timestamped events.
///
/// Events with equal timestamps are returned in the order they were pushed.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// The day being drained, sorted in descending `(time, seq)` order so
    /// the earliest key is the tail.  Every key here (and in `late`) sorts
    /// before every key still in the wheel or the spillover: their days
    /// are `>= base_day`, ours are earlier.
    run: Vec<Key>,
    /// Keys pushed into a day that has already started (`day < base_day`).
    /// Days are promoted only on the pop side — a push never advances the
    /// wheel — so this heap holds about one day's late arrivals at most.
    late: BinaryHeap<Reverse<Key>>,
    /// The wheel: `buckets[d & (NUM_BUCKETS-1)]` holds exactly the keys of
    /// day `d`, for `d` in `[base_day, base_day + NUM_BUCKETS)`.  Buckets
    /// are unsorted; a bucket is sorted once, when its day starts.
    buckets: Vec<Vec<Key>>,
    /// One bit per bucket, set iff the bucket is non-empty, so advancing
    /// to the next occupied day is a word scan rather than a walk over
    /// (possibly hundreds of) empty `Vec`s when the wheel is sparse.
    occupied: [u64; (NUM_BUCKETS / 64) as usize],
    /// Number of keys across all wheel buckets.
    wheel_len: usize,
    /// First day still in the wheel; days before it have been promoted
    /// into `run` (or were never occupied).
    base_day: u64,
    /// Keys scheduled beyond the wheel's horizon
    /// (`day >= base_day + NUM_BUCKETS`), migrated into the wheel as
    /// `base_day` advances.
    overflow: BinaryHeap<Reverse<Key>>,
    /// Event payloads, indexed by `Key::slot`; `None` cells are listed in
    /// `free`.
    slab: Vec<Option<E>>,
    free: Vec<usize>,
    next_seq: u64,
    popped: u64,
    depth_high_water: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            run: Vec::new(),
            late: BinaryHeap::new(),
            buckets: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            occupied: [0; (NUM_BUCKETS / 64) as usize],
            wheel_len: 0,
            base_day: 0,
            overflow: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            popped: 0,
            depth_high_water: 0,
        }
    }

    /// Create an empty queue with room for `cap` pending events.
    pub fn with_capacity(cap: usize) -> Self {
        let mut q = Self::new();
        q.slab.reserve(cap);
        q
    }

    /// Schedule `event` to fire at absolute simulated time `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = Some(event);
                slot
            }
            None => {
                self.slab.push(Some(event));
                self.slab.len() - 1
            }
        };
        let key = Key { time, seq, slot };
        let d = day(time);
        if d < self.base_day {
            // The key belongs to a day already being drained (or one the
            // wheel has moved past).  `seq` is fresh and part of the
            // order, so it lands after existing ties in `run`.
            self.late.push(Reverse(key));
        } else if d < self.base_day + NUM_BUCKETS {
            self.wheel_insert(d, key);
        } else {
            self.overflow.push(Reverse(key));
        }
        let depth = self.len() as u64;
        if depth > self.depth_high_water {
            self.depth_high_water = depth;
        }
    }

    /// Remove and return the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.run.is_empty() && self.late.is_empty() {
            self.refill();
        }
        let key = match (self.run.last(), self.late.peek()) {
            (Some(r), Some(Reverse(l))) if l < r => self.late.pop().map(|Reverse(k)| k),
            (Some(_), _) => self.run.pop(),
            (None, _) => self.late.pop().map(|Reverse(k)| k),
        }?;
        self.popped += 1;
        if self.run.is_empty() && self.late.is_empty() {
            // Promote the next day eagerly so the engine's peek-then-pop
            // loop sees an `O(1)` `peek_time` on its hot path.
            self.refill();
        }
        let event = self.slab[key.slot]
            .take()
            .expect("a pending key owns its slab slot");
        self.free.push(key.slot);
        Some((key.time, event))
    }

    /// Promote the next occupied day into `run`: advance `base_day` to it,
    /// migrate spillover keys that the advance brought inside the wheel's
    /// horizon, and sort that day's bucket.  Called only when `run` and
    /// `late` are both empty; a no-op when the queue is.
    fn refill(&mut self) {
        debug_assert!(self.run.is_empty() && self.late.is_empty());
        if self.wheel_len == 0 {
            // The wheel is dry: jump straight to the spillover's first day
            // (no point stepping the wheel across an empty span).
            let Some(Reverse(first)) = self.overflow.peek() else {
                return;
            };
            self.base_day = day(first.time);
            self.drain_overflow();
            debug_assert!(self.wheel_len > 0);
        }
        // Jump to the next occupied day.  Advancing `base_day` in one leap
        // (rather than day by day with a spillover drain at each step) is
        // equivalent: spillover keys all have days at or beyond the *old*
        // window's end, so none could have entered any intermediate window
        // earlier than they enter the final one.
        let base_idx = (self.base_day & (NUM_BUCKETS - 1)) as usize;
        let idx = self
            .next_occupied(base_idx)
            .expect("wheel_len > 0 implies an occupied bucket");
        let delta = (idx + NUM_BUCKETS as usize - base_idx) & (NUM_BUCKETS as usize - 1);
        self.base_day += delta as u64;
        // Swap the bucket out whole; the empty run's allocation takes its
        // place, so buffers circulate instead of churning the allocator.
        std::mem::swap(&mut self.run, &mut self.buckets[idx]);
        self.run.sort_unstable_by(|a, b| b.cmp(a));
        self.occupied[idx >> 6] &= !(1 << (idx & 63));
        self.wheel_len -= self.run.len();
        self.base_day += 1;
        self.drain_overflow();
    }

    /// Append `key` (of day `d`, inside the window) to its wheel bucket.
    fn wheel_insert(&mut self, d: u64, key: Key) {
        let idx = (d & (NUM_BUCKETS - 1)) as usize;
        self.buckets[idx].push(key);
        self.occupied[idx >> 6] |= 1 << (idx & 63);
        self.wheel_len += 1;
    }

    /// The index of the first occupied bucket at or (circularly) after
    /// `start`, from the occupancy bitmap.
    fn next_occupied(&self, start: usize) -> Option<usize> {
        let (w0, b0) = (start >> 6, start & 63);
        let first = self.occupied[w0] & (!0u64 << b0);
        if first != 0 {
            return Some((w0 << 6) + first.trailing_zeros() as usize);
        }
        for off in 1..self.occupied.len() {
            let w = (w0 + off) & (self.occupied.len() - 1);
            let word = self.occupied[w];
            if word != 0 {
                return Some((w << 6) + word.trailing_zeros() as usize);
            }
        }
        let wrapped = self.occupied[w0] & !(!0u64 << b0);
        if wrapped != 0 {
            return Some((w0 << 6) + wrapped.trailing_zeros() as usize);
        }
        None
    }

    /// Move spillover keys whose day now falls inside
    /// `[base_day, base_day + NUM_BUCKETS)` into the wheel.  Called after
    /// every `base_day` advance so the wheel window and the spillover
    /// stay disjoint.
    fn drain_overflow(&mut self) {
        while let Some(Reverse(first)) = self.overflow.peek() {
            let d = day(first.time);
            if d >= self.base_day + NUM_BUCKETS {
                return;
            }
            let Reverse(key) = self.overflow.pop().expect("peeked key exists");
            self.wheel_insert(d, key);
        }
    }

    /// The timestamp of the earliest pending event.
    ///
    /// `O(1)` whenever a day is being drained (always, right after a pop);
    /// after a push into an empty queue it scans the next occupied day's
    /// bucket without promoting it.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        match (self.run.last(), self.late.peek()) {
            (Some(r), Some(Reverse(l))) => return Some(r.time.min(l.time)),
            (Some(r), None) => return Some(r.time),
            (None, Some(Reverse(l))) => return Some(l.time),
            (None, None) => {}
        }
        if self.wheel_len > 0 {
            let base_idx = (self.base_day & (NUM_BUCKETS - 1)) as usize;
            let idx = self
                .next_occupied(base_idx)
                .expect("wheel_len > 0 implies an occupied bucket");
            // The wheel's earliest day beats every spillover key (their
            // days are beyond the window), so the bucket minimum decides.
            return self.buckets[idx].iter().map(|k| k.time).min();
        }
        self.overflow.peek().map(|Reverse(k)| k.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled on this queue.
    pub fn scheduled_count(&self) -> u64 {
        self.next_seq
    }

    /// Total number of events ever dispatched (popped) from this queue.
    pub fn dispatched_count(&self) -> u64 {
        self.popped
    }

    /// The largest number of events that were ever pending at once (a
    /// deterministic function of the event sequence; survives `clear`).
    pub fn depth_high_water(&self) -> u64 {
        self.depth_high_water
    }

    /// Drop every pending event.
    pub fn clear(&mut self) {
        self.run.clear();
        self.late.clear();
        for b in &mut self.buckets {
            b.clear();
        }
        self.occupied = [0; (NUM_BUCKETS / 64) as usize];
        self.wheel_len = 0;
        self.base_day = 0;
        self.overflow.clear();
        self.slab.clear();
        self.free.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(5), "c");
        q.push(SimTime::from_millis(1), "a");
        q.push(SimTime::from_millis(3), "b");
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_millis(3), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_millis(5), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(7);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn peek_and_counters() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs(1), ());
        q.push(SimTime::from_secs(2), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_count(), 2);
        q.pop();
        assert_eq!(q.dispatched_count(), 1);
        q.clear();
        assert!(q.is_empty());
        // counters survive a clear
        assert_eq!(q.scheduled_count(), 2);
        assert_eq!(q.depth_high_water(), 2);
    }

    #[test]
    fn depth_high_water_tracks_the_peak_pending_count() {
        let mut q = EventQueue::new();
        assert_eq!(q.depth_high_water(), 0);
        q.push(SimTime::from_secs(1), ());
        q.push(SimTime::from_secs(2), ());
        q.push(SimTime::from_secs(3), ());
        q.pop();
        q.pop();
        // Draining does not lower the mark…
        assert_eq!(q.depth_high_water(), 3);
        q.push(SimTime::from_secs(4), ());
        // …and re-filling below the peak does not raise it.
        assert_eq!(q.depth_high_water(), 3);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(10), 10u32);
        q.push(SimTime::from_millis(30), 30);
        assert_eq!(q.pop().unwrap().1, 10);
        q.push(SimTime::from_millis(20), 20);
        q.push(SimTime::from_millis(5), 5);
        assert_eq!(q.pop().unwrap().1, 5);
        assert_eq!(q.pop().unwrap().1, 20);
        assert_eq!(q.pop().unwrap().1, 30);
    }

    #[test]
    fn far_future_events_spill_over_and_come_back() {
        // Beyond the wheel horizon (1024 days of ~1 ms ≈ 1.07 s): these
        // take the overflow path and must still pop in order.
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3600), "far");
        q.push(SimTime::MAX, "sentinel");
        q.push(SimTime::from_millis(1), "near");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.pop().unwrap().1, "far");
        assert_eq!(q.pop().unwrap().1, "sentinel");
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pushes_into_the_day_being_drained_merge_in_order() {
        // Two events in one day; pop one, then push an event between the
        // popped one and the remaining one.  The push lands in the late-key
        // heap (its day is already being drained) and must merge in order
        // with the sorted run.
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(10), "a");
        q.push(SimTime::from_micros(900), "c");
        assert_eq!(q.pop().unwrap().1, "a");
        q.push(SimTime::from_micros(500), "b");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
    }

    #[test]
    fn ties_pushed_into_the_drained_day_keep_fifo_order() {
        let t = SimTime::from_micros(700);
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(10), 0u32);
        q.push(t, 1);
        assert_eq!(q.pop().unwrap().1, 0);
        // Same timestamp as the key already sorted into the day's run: the
        // earlier push must still pop first.
        q.push(t, 2);
        assert_eq!(q.pop(), Some((t, 1)));
        assert_eq!(q.pop(), Some((t, 2)));
    }

    #[test]
    fn slab_never_outgrows_the_pending_high_water() {
        // A long run whose depth swings between 0 and ~300: freed slots
        // must be reused, so the slab tracks the peak, not the total.
        let mut q = EventQueue::new();
        let mut rng = crate::rng::SplitMix64::new(7);
        let mut now = SimTime::ZERO;
        for step in 0..200_000u64 {
            // Push with probability 2/3 in a growing phase, 1/3 in a
            // shrinking one; phases alternate every 1000 steps.
            let push_bias = if (step / 1_000) % 2 == 0 { 2 } else { 1 };
            if q.is_empty() || rng.next_u64() % 3 < push_bias {
                let dt = SimTime::from_nanos(rng.next_u64() % 4_000_000);
                q.push(now + dt, step);
            } else {
                now = q.pop().expect("non-empty").0;
            }
            assert!(q.slab.len() as u64 <= q.depth_high_water());
        }
        assert_eq!(q.slab.len() - q.free.len(), q.len());
        assert!(q.depth_high_water() > 100, "the run must reach some depth");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Popping everything from the queue yields a non-decreasing time
        /// sequence regardless of insertion order.
        #[test]
        fn pop_order_is_monotone(times in proptest::collection::vec(0u64..1_000_000, 0..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.push(SimTime::from_nanos(*t), i);
            }
            let mut last = SimTime::ZERO;
            while let Some((t, _)) = q.pop() {
                prop_assert!(t >= last);
                last = t;
            }
        }

        /// Events that share a timestamp preserve their insertion order.
        #[test]
        fn ties_preserve_fifo(groups in proptest::collection::vec((0u64..1000, 1usize..5), 1..50)) {
            let mut q = EventQueue::new();
            let mut counter = 0usize;
            for (t, n) in &groups {
                for _ in 0..*n {
                    q.push(SimTime::from_millis(*t), counter);
                    counter += 1;
                }
            }
            // Collect pops grouped by timestamp and check each group's ids
            // are increasing (insertion order).
            let mut prev: Option<(SimTime, usize)> = None;
            while let Some((t, id)) = q.pop() {
                if let Some((pt, pid)) = prev {
                    if pt == t {
                        prop_assert!(id > pid);
                    }
                }
                prev = Some((t, id));
            }
        }

        /// The calendar queue and a plain `(time, seq)` binary heap agree
        /// on every pop and on `len`, under interleaved pushes, pops and the
        /// occasional `clear`.  Times are drawn from a few scales so runs
        /// hit every path in one sequence: heavy ties, in-window and
        /// sub-day spreads, far-future (spillover) pushes, and pushes into
        /// the day being drained — some tied exactly with the last popped
        /// time, so equal keys meet across the sorted run and the late-key
        /// heap.
        #[test]
        fn matches_a_reference_heap(
            ops in proptest::collection::vec(
                // (op, time_class, time_raw): op < 15 pushes, op < 30
                // pops, otherwise clears.
                (0u8..31, 0u8..6, 0u64..1_000),
                1..400,
            )
        ) {
            let mut q = EventQueue::new();
            let mut reference: std::collections::BinaryHeap<
                std::cmp::Reverse<(SimTime, u64, usize)>,
            > = std::collections::BinaryHeap::new();
            let mut seq = 0u64;
            let mut id = 0usize;
            // Time of the last pop: the day being drained.
            let mut now = SimTime::ZERO;
            for (op, class, raw) in ops {
                if op < 15 {
                    let t = match class {
                        0 => SimTime::from_millis(raw / 100),      // heavy ties
                        1 => SimTime::from_millis(raw),            // in-window
                        2 => SimTime::from_micros(raw * 37),       // sub-day spread
                        3 => SimTime::from_secs(2 + raw),          // spillover
                        // Into the current day, four distinct offsets.
                        4 => now + SimTime::from_micros(raw % 4 * 50),
                        _ => now,                                  // exact tie
                    };
                    q.push(t, id);
                    reference.push(std::cmp::Reverse((t, seq, id)));
                    seq += 1;
                    id += 1;
                } else if op < 30 {
                    let got = q.pop();
                    let want = reference
                        .pop()
                        .map(|std::cmp::Reverse((t, _, i))| (t, i));
                    prop_assert_eq!(got, want);
                    if let Some((t, _)) = got {
                        now = t;
                    }
                } else {
                    q.clear();
                    reference.clear();
                }
                prop_assert_eq!(q.len(), reference.len());
            }
            // Drain both to the end.
            while let Some(std::cmp::Reverse((t, _, i))) = reference.pop() {
                prop_assert_eq!(q.pop(), Some((t, i)));
                prop_assert_eq!(q.len(), reference.len());
            }
            prop_assert_eq!(q.pop(), None);
        }
    }
}
