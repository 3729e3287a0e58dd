//! Calendar (bucket) event queue: the packet engine's hot-path scheduler.
//!
//! [`event::EventQueue`](crate::event::EventQueue) is one global binary
//! heap — every push and pop pays `O(log n)` comparisons against the
//! whole pending set. A discrete-event *packet* simulation schedules
//! almost everything a few serialisation times ahead of the clock, so
//! the classic calendar-queue layout fits: a power-of-two ring of
//! buckets, each `width` nanoseconds wide, holding only the events of
//! its own epoch. Pushes land in `O(log bucket)` (buckets hold a
//! handful of events), pops scan an occupancy bitmap for the next
//! non-empty bucket.
//!
//! Events too far in the future to fit the ring (more than
//! `buckets × width` ahead of the cursor — maintenance ticks, receiver
//! timeouts) wait in a small overflow heap and migrate into the ring as
//! the cursor approaches them, so the ring can stay sized by the dense
//! near-term traffic (channel serialisation times) without bounding the
//! schedulable horizon.
//!
//! The pop order is **identical** to `EventQueue`: strictly ascending
//! `(time, insertion sequence)`. Buckets partition events by epoch
//! (disjoint time ranges), ties within a bucket resolve by sequence
//! number, and the overflow heap only ever holds events of strictly
//! later epochs than anything in the ring — so swapping one queue for
//! the other can never reorder a simulation.
//! `interleaved_push_pop_matches_heap_queue` below locks this in.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::event::SchedulePastError;
use crate::time::{SimDuration, SimTime};

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed (earliest on top), exactly like `event::EventQueue`.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic calendar queue: same contract as
/// [`EventQueue`](crate::event::EventQueue), different complexity
/// profile.
pub struct CalendarQueue<E> {
    /// Ring of per-epoch buckets (power-of-two length).
    ring: Vec<BinaryHeap<Entry<E>>>,
    /// One bit per bucket: non-empty?
    occ: Vec<u64>,
    /// `log2` of the bucket width in nanoseconds.
    shift: u32,
    /// `ring.len() - 1` (power-of-two mask).
    mask: u64,
    /// Epoch the cursor currently points at; every ring event has an
    /// epoch in `[cur, cur + ring.len())`, every overflow event an
    /// epoch `>= cur + ring.len()`.
    cur: u64,
    /// Events beyond the ring span.
    overflow: BinaryHeap<Entry<E>>,
    /// Events currently in the ring.
    ring_len: usize,
    /// Total pending events.
    len: usize,
    /// Global insertion sequence (FIFO among simultaneous events).
    seq: u64,
}

impl<E> CalendarQueue<E> {
    /// A queue whose buckets are (at least) `width` wide, with (at
    /// least) `buckets` of them. The width is rounded **down** to a
    /// power of two nanoseconds (minimum 1 ns) so epoch extraction is a
    /// shift; the bucket count is rounded **up** to a power of two.
    ///
    /// Size the width near the dominant inter-event gap — for a packet
    /// simulation, the serialisation time of one packet on the fastest
    /// channel.
    pub fn new(width: SimDuration, buckets: usize) -> Self {
        let w = width.as_nanos().max(1);
        let shift = 63 - w.leading_zeros(); // floor(log2(w))
        let n = buckets.max(2).next_power_of_two();
        CalendarQueue {
            ring: (0..n).map(|_| BinaryHeap::new()).collect(),
            occ: vec![0u64; n / 64 + 1],
            shift,
            mask: (n - 1) as u64,
            cur: 0,
            overflow: BinaryHeap::new(),
            ring_len: 0,
            len: 0,
            seq: 0,
        }
    }

    #[inline]
    fn epoch(&self, t: SimTime) -> u64 {
        t.as_nanos() >> self.shift
    }

    #[inline]
    fn set_occ(&mut self, b: usize) {
        self.occ[b / 64] |= 1u64 << (b % 64);
    }

    #[inline]
    fn clear_occ(&mut self, b: usize) {
        self.occ[b / 64] &= !(1u64 << (b % 64));
    }

    /// Insert `event` to fire at `time`.
    ///
    /// `time` must not precede the last popped event (the simulation
    /// engines already enforce this — scheduling into the past is an
    /// error one layer up).
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.insert_entry(Entry { time, seq, event });
    }

    /// Place an entry into the ring or overflow according to its epoch.
    /// Shared by [`CalendarQueue::push`] and checkpoint restore (which
    /// re-inserts entries with their *original* sequence numbers).
    fn insert_entry(&mut self, entry: Entry<E>) {
        // Events earlier than the cursor's epoch cannot exist while the
        // engine enforces now <= time; clamping keeps a (hypothetical)
        // same-epoch straggler correctly ordered anyway, because the
        // current bucket is always the next one drained.
        let epoch = self.epoch(entry.time).max(self.cur);
        if epoch >= self.cur + self.ring.len() as u64 {
            self.overflow.push(entry);
        } else {
            let b = (epoch & self.mask) as usize;
            self.ring[b].push(entry);
            self.set_occ(b);
            self.ring_len += 1;
        }
        self.len += 1;
    }

    /// Move every overflow event that now fits the ring span into its
    /// bucket. Called whenever the cursor advances.
    fn drain_overflow(&mut self) {
        let span_end = self.cur + self.ring.len() as u64;
        while let Some(top) = self.overflow.peek() {
            if self.epoch(top.time) >= span_end {
                break;
            }
            let entry = self.overflow.pop().expect("peeked entry vanished");
            let b = (self.epoch(entry.time) & self.mask) as usize;
            self.ring[b].push(entry);
            self.set_occ(b);
            self.ring_len += 1;
        }
    }

    /// Index of the next occupied bucket strictly after the cursor's,
    /// as a distance in `1..ring.len()`. Caller guarantees the ring is
    /// non-empty beyond the current bucket.
    fn next_occupied_distance(&self) -> u64 {
        let n = self.ring.len() as u64;
        let start = self.cur & self.mask;
        for dist in 1..n {
            let b = ((start + dist) & self.mask) as usize;
            if self.occ[b / 64] & (1u64 << (b % 64)) != 0 {
                return dist;
            }
        }
        unreachable!("ring_len > 0 but no occupied bucket found");
    }

    /// Remove and return the earliest `(time, event)` — globally, by
    /// `(time, insertion sequence)`.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        if self.ring_len == 0 {
            // Everything pending lives in the overflow: jump the cursor
            // straight to its earliest epoch (no bucket-by-bucket walk
            // across a long idle gap).
            let t = self.overflow.peek().expect("len > 0").time;
            self.cur = self.epoch(t);
            self.drain_overflow();
        }
        loop {
            let b = (self.cur & self.mask) as usize;
            if self.occ[b / 64] & (1u64 << (b % 64)) != 0 {
                let entry = self.ring[b].pop().expect("occupancy bit set");
                if self.ring[b].is_empty() {
                    self.clear_occ(b);
                }
                self.ring_len -= 1;
                self.len -= 1;
                return Some((entry.time, entry.event));
            }
            // Advance to the next occupied bucket. Overflow events are
            // all in strictly later epochs than any ring event, so the
            // jump can never skip one — but it frees ring slots, so
            // eligible overflow events migrate in afterwards.
            let dist = self.next_occupied_distance();
            self.cur += dist;
            self.drain_overflow();
        }
    }

    /// Timestamp of the earliest pending event without removing it —
    /// exactly the time the next [`CalendarQueue::pop`] would return.
    ///
    /// Pure scan: the cursor does not move, so interleaving peeks with
    /// pushes and pops cannot perturb pop order.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        if self.ring_len == 0 {
            return self.overflow.peek().map(|e| e.time);
        }
        // The earliest occupied bucket in cursor order holds the earliest
        // epoch, and every overflow event is in a strictly later epoch,
        // so its heap top is the global minimum.
        for dist in 0..self.ring.len() as u64 {
            let b = ((self.cur + dist) & self.mask) as usize;
            if self.occ[b / 64] & (1u64 << (b % 64)) != 0 {
                return self.ring[b].peek().map(|e| e.time);
            }
        }
        unreachable!("ring_len > 0 but no occupied bucket found");
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Drop-in replacement for [`event::Engine`](crate::event::Engine)
/// backed by a [`CalendarQueue`]: same clock, horizon, and scheduling
/// semantics, same deterministic pop order.
///
/// One observable difference is deliberately tolerated: when the next
/// event lies beyond the horizon, `Engine` leaves it queued while
/// `CalendarEngine` discards it. Both park the clock at the horizon and
/// return `None`, and a simulation that stops at its horizon never
/// observes the abandoned queue, so the two drive byte-identical runs.
pub struct CalendarEngine<E> {
    queue: CalendarQueue<E>,
    now: SimTime,
    horizon: Option<SimTime>,
}

impl<E> CalendarEngine<E> {
    /// A fresh engine with the clock at [`SimTime::ZERO`]; see
    /// [`CalendarQueue::new`] for the sizing parameters.
    pub fn new(width: SimDuration, buckets: usize) -> Self {
        CalendarEngine {
            queue: CalendarQueue::new(width, buckets),
            now: SimTime::ZERO,
            horizon: None,
        }
    }

    /// Stop processing once the clock would pass `t`.
    pub fn with_horizon(mut self, t: SimTime) -> Self {
        self.horizon = Some(t);
        self
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedule `event` after `delay` from now.
    pub fn schedule(&mut self, delay: SimDuration, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// Schedule `event` at the absolute instant `t` (not in the past).
    pub fn schedule_at(&mut self, t: SimTime, event: E) -> Result<(), SchedulePastError> {
        if t < self.now {
            return Err(SchedulePastError {
                now: self.now,
                requested: t,
            });
        }
        self.queue.push(t, event);
        Ok(())
    }

    /// Pop the next event and advance the clock to it. `None` when the
    /// queue is drained or the next event lies beyond the horizon (the
    /// clock is then parked exactly at the horizon).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(SimTime, E)> {
        let (t, e) = self.queue.pop()?;
        if let Some(h) = self.horizon {
            if t > h {
                self.now = h;
                return None;
            }
        }
        debug_assert!(t >= self.now, "calendar queue went backwards in time");
        self.now = t;
        Some((t, e))
    }

    /// Timestamp of the next pending event without popping it (ignores
    /// the horizon — callers compare against their own limit).
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Pop the next event only if it is due at or before `limit` (and
    /// within the horizon); otherwise leave the queue untouched and
    /// return `None`. The calendar handoff primitive for windowed
    /// (sharded) execution: a region drains its window with repeated
    /// `next_at_or_before(barrier)` calls and never disturbs events
    /// beyond the conservative lookahead.
    pub fn next_at_or_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        let t = self.queue.peek_time()?;
        if t > limit {
            return None;
        }
        if let Some(h) = self.horizon {
            if t > h {
                return None;
            }
        }
        self.next()
    }

    /// Advance the clock to `t` without popping anything (checkpoint
    /// boundaries fall between events). `t` must not precede the clock.
    pub fn advance_clock_to(&mut self, t: SimTime) {
        assert!(t >= self.now, "advance_clock_to would move time backwards");
        self.now = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventQueue;
    use crate::rng::SimRng;

    #[test]
    fn pops_in_time_order() {
        let mut q = CalendarQueue::new(SimDuration::from_millis(1), 8);
        q.push(SimTime::from_secs(3), "c");
        q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(2), "b");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(3), "c")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn simultaneous_events_fire_in_insertion_order() {
        let mut q = CalendarQueue::new(SimDuration::from_micros(10), 16);
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn overflow_events_migrate_into_the_ring() {
        // 8 buckets x 1 ms = 8 ms span; everything beyond starts in the
        // overflow heap and must still pop in global order.
        let mut q = CalendarQueue::new(SimDuration::from_millis(1), 8);
        q.push(SimTime::from_secs(5), "far");
        q.push(SimTime::from_millis(2), "near");
        q.push(SimTime::from_millis(400), "mid");
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.pop().unwrap().1, "mid");
        assert_eq!(q.pop().unwrap().1, "far");
    }

    #[test]
    fn interleaved_push_pop_matches_heap_queue() {
        // The contract: any interleaving of pushes and pops produces the
        // exact sequence the binary-heap EventQueue produces.
        let mut rng = SimRng::from_seed_u64(0xCA1E);
        let mut cal = CalendarQueue::new(SimDuration::from_micros(50), 64);
        let mut heap = EventQueue::new();
        let mut clock = SimTime::ZERO;
        let mut popped = Vec::new();
        let mut expected = Vec::new();
        for step in 0..5_000u64 {
            if rng.chance(0.6) {
                // push somewhere between "now" and ~3 ring spans ahead
                let ahead = rng.index(10_000_000) as u64; // up to 10 ms
                let t = clock + SimDuration::from_nanos(ahead);
                cal.push(t, step);
                heap.push(t, step);
            } else {
                let a = cal.pop();
                let b = heap.pop();
                assert_eq!(a, b, "divergence at step {step}");
                if let Some((t, e)) = a {
                    clock = t;
                    popped.push((t, e));
                }
                if let Some(p) = b {
                    expected.push(p);
                }
            }
        }
        while let Some(b) = heap.pop() {
            assert_eq!(cal.pop(), Some(b));
        }
        assert_eq!(cal.pop(), None);
        assert_eq!(popped, expected);
    }

    #[test]
    fn long_idle_gaps_jump_not_walk() {
        // Events days apart: the cursor must jump via the overflow heap
        // (a linear bucket walk would make this test take forever only
        // if it were O(gap); correctness-wise we just check the order).
        let mut q = CalendarQueue::new(SimDuration::from_micros(1), 16);
        for day in (0..5u64).rev() {
            q.push(SimTime::from_secs(day * 86_400), day);
        }
        for day in 0..5u64 {
            let (t, e) = q.pop().unwrap();
            assert_eq!(e, day);
            assert_eq!(t, SimTime::from_secs(day * 86_400));
        }
    }

    #[test]
    fn engine_semantics_match_event_engine() {
        use crate::event::Engine;
        let build = |cal: bool| -> Vec<(SimTime, u32)> {
            let mut log = Vec::new();
            if cal {
                let mut eng: CalendarEngine<u32> =
                    CalendarEngine::new(SimDuration::from_micros(100), 32)
                        .with_horizon(SimTime::from_secs(10));
                for i in 0..50 {
                    eng.schedule(SimDuration::from_millis((i * 211 % 12_000) as u64), i);
                }
                while let Some((t, e)) = eng.next() {
                    log.push((t, e));
                }
                assert_eq!(eng.now(), SimTime::from_secs(10), "parked at horizon");
            } else {
                let mut eng: Engine<u32> = Engine::new().with_horizon(SimTime::from_secs(10));
                for i in 0..50 {
                    eng.schedule(SimDuration::from_millis((i * 211 % 12_000) as u64), i);
                }
                while let Some((t, e)) = eng.next() {
                    log.push((t, e));
                }
            }
            log
        };
        assert_eq!(build(true), build(false));
    }

    #[test]
    fn peek_time_matches_pop_and_never_perturbs_order() {
        let mut rng = SimRng::from_seed_u64(0x9EEC);
        let mut q = CalendarQueue::new(SimDuration::from_micros(50), 16);
        assert_eq!(q.peek_time(), None);
        let mut clock = SimTime::ZERO;
        let mut popped = Vec::new();
        for i in 0..500u32 {
            let jitter = SimDuration::from_nanos(rng.index(5_000_000) as u64);
            q.push(clock + jitter, i);
            if rng.chance(0.5) {
                let peeked = q.peek_time();
                let got = q.pop();
                assert_eq!(peeked, got.map(|(t, _)| t));
                if let Some((t, e)) = got {
                    clock = clock.max(t);
                    popped.push((t, e));
                }
            }
        }
        while let Some((t, e)) = q.pop() {
            popped.push((t, e));
        }
        for w in popped.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }

    #[test]
    fn next_at_or_before_respects_the_limit() {
        let mut eng: CalendarEngine<&str> =
            CalendarEngine::new(SimDuration::from_millis(1), 8).with_horizon(SimTime::from_secs(4));
        eng.schedule(SimDuration::from_secs(1), "a");
        eng.schedule(SimDuration::from_secs(2), "b");
        eng.schedule(SimDuration::from_secs(5), "beyond-horizon");
        // nothing due in the first window
        assert_eq!(eng.next_at_or_before(SimTime::from_millis(500)), None);
        assert_eq!(eng.peek_time(), Some(SimTime::from_secs(1)));
        // inclusive limit
        assert_eq!(
            eng.next_at_or_before(SimTime::from_secs(1)),
            Some((SimTime::from_secs(1), "a"))
        );
        assert_eq!(eng.next_at_or_before(SimTime::from_secs(1)), None);
        assert_eq!(
            eng.next_at_or_before(SimTime::from_secs(3)),
            Some((SimTime::from_secs(2), "b"))
        );
        // beyond the horizon: filtered even when the limit allows it
        assert_eq!(eng.next_at_or_before(SimTime::from_secs(10)), None);
        assert_eq!(eng.pending(), 1, "the filtered event stays queued");
    }

    #[test]
    fn schedule_at_rejects_past() {
        let mut eng: CalendarEngine<()> = CalendarEngine::new(SimDuration::from_millis(1), 8);
        eng.schedule(SimDuration::from_secs(5), ());
        let _ = eng.next();
        let err = eng.schedule_at(SimTime::from_secs(1), ()).unwrap_err();
        assert_eq!(err.now, SimTime::from_secs(5));
        assert_eq!(err.requested, SimTime::from_secs(1));
    }

    #[test]
    fn cascading_schedules_keep_order() {
        // Handler-style cascade: each pop schedules the next a fixed
        // delay ahead, crossing bucket and ring-span boundaries.
        let mut eng: CalendarEngine<u64> = CalendarEngine::new(SimDuration::from_micros(10), 8);
        eng.schedule(SimDuration::ZERO, 0);
        let mut fired = Vec::new();
        while let Some((t, n)) = eng.next() {
            fired.push((t, n));
            if n < 200 {
                eng.schedule(SimDuration::from_micros(37), n + 1);
            }
        }
        assert_eq!(fired.len(), 201);
        for w in fired.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    }
}
