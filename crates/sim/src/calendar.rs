//! Calendar (bucket) event queue: the packet engine's hot-path scheduler.
//!
//! [`event::EventQueue`](crate::event::EventQueue) is one global binary
//! heap — every push and pop pays `O(log n)` comparisons against the
//! whole pending set. A discrete-event *packet* simulation schedules
//! almost everything a few serialisation times ahead of the clock, so
//! the classic calendar-queue layout fits: a power-of-two ring of
//! buckets, each `width` nanoseconds wide, holding only the events of
//! its own epoch.
//!
//! * **Sorted buckets.** Each bucket is a `VecDeque` kept in
//!   `(time, insertion sequence)` order, and each entry packs that pair
//!   into one `u128` key (`time << 64 | seq`), so an order check is one
//!   integer compare. Sequence numbers only grow, so a push is almost
//!   always an append; an earlier one is inserted at its
//!   `partition_point`. A pop takes the bucket's front.
//! * **Word-scanned occupancy.** One bit per bucket marks it non-empty.
//!   Finding the next occupied bucket reads the bitmap 64 buckets at a
//!   time with `trailing_zeros`, wrapping at the ring's end (a ring of
//!   fewer than 64 buckets is one partial word, scanned twice at most).
//! * **One lookup per pop.** Moving the cursor to the earliest bucket is
//!   done once per pop; a windowed pop
//!   ([`CalendarEngine::next_at_or_before`]) inspects that bucket's front
//!   and either takes it or leaves every pending event where it is.
//!   [`CalendarQueue::peek_time`] stays a pure scan that never moves the
//!   cursor.
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
//! (disjoint time ranges), entries within a bucket are sorted by key, and
//! the overflow heap only ever holds events of strictly later epochs than
//! anything in the ring — so swapping one queue for the other can never
//! reorder a simulation. Where the cursor sits never changes that order:
//! it only decides which bucket an event lands in.
//! `interleaved_push_pop_matches_heap_queue` below and the
//! `calendar_engine_matches_event_engine` property test lock this in.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::event::SchedulePastError;
use crate::time::{SimDuration, SimTime};

/// One pending event, ordered by `key = time << 64 | insertion seq`.
struct Entry<E> {
    key: u128,
    event: E,
}

impl<E> Entry<E> {
    #[inline]
    fn time(&self) -> SimTime {
        SimTime::from_nanos((self.key >> 64) as u64)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
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
        // Reversed, so the overflow's max-heap pops the earliest entry.
        other.key.cmp(&self.key)
    }
}

/// A deterministic calendar queue: same contract as
/// [`EventQueue`](crate::event::EventQueue), different complexity
/// profile.
pub struct CalendarQueue<E> {
    /// Ring of per-epoch buckets (power-of-two length), each sorted by
    /// key.
    ring: Vec<VecDeque<Entry<E>>>,
    /// One bit per bucket: non-empty? `max(buckets / 64, 1)` words.
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
            ring: (0..n).map(|_| VecDeque::new()).collect(),
            occ: vec![0u64; (n / 64).max(1)],
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

    /// Insert `event` to fire at `time`.
    ///
    /// `time` must not precede the last popped event (the simulation
    /// engines already enforce this — scheduling into the past is an
    /// error one layer up).
    pub fn push(&mut self, time: SimTime, event: E) {
        let entry = Entry {
            key: (u128::from(time.as_nanos()) << 64) | u128::from(self.seq),
            event,
        };
        self.seq += 1;
        self.len += 1;
        // The cursor can sit past the clock: a windowed pop, or a pop
        // past the horizon, moves it to an event it does not hand out.
        // An event due before the cursor's epoch then lands in the
        // cursor's bucket, which is always the next one drained and is
        // sorted by key, so it still pops first.
        let epoch = self.epoch(time).max(self.cur);
        if epoch - self.cur >= self.ring.len() as u64 {
            self.overflow.push(entry);
        } else {
            self.ring_insert((epoch & self.mask) as usize, entry);
        }
    }

    /// Put `entry` into bucket `b`, keeping the bucket sorted by key.
    #[inline]
    fn ring_insert(&mut self, b: usize, entry: Entry<E>) {
        let bucket = &mut self.ring[b];
        match bucket.back() {
            Some(last) if last.key > entry.key => {
                let at = bucket.partition_point(|e| e.key < entry.key);
                bucket.insert(at, entry);
            }
            _ => bucket.push_back(entry),
        }
        self.occ[b / 64] |= 1u64 << (b % 64);
        self.ring_len += 1;
    }

    /// Move every overflow event that now fits the ring span into its
    /// bucket. Called whenever the cursor advances.
    fn drain_overflow(&mut self) {
        let span_end = self.cur + self.ring.len() as u64;
        while let Some(top) = self.overflow.peek() {
            let epoch = self.epoch(top.time());
            if epoch >= span_end {
                break;
            }
            let entry = self.overflow.pop().expect("peeked entry vanished");
            self.ring_insert((epoch & self.mask) as usize, entry);
        }
    }

    /// Ring distance, in `0..ring.len()`, from bucket `from` to the first
    /// occupied bucket at or after it in cursor order; `None` when the
    /// ring is empty. Scans the bitmap a word (64 buckets) per step.
    fn occupied_distance(&self, from: usize) -> Option<u64> {
        let words = self.occ.len();
        let mut w = from / 64;
        let mut bits = self.occ[w] & (u64::MAX << (from % 64));
        // `words + 1` steps: the start word is read once from `from` up
        // and, after the wrap, once more in full for the buckets below
        // `from`. A ring under 64 buckets is that one word.
        for _ in 0..=words {
            if bits != 0 {
                let b = w * 64 + bits.trailing_zeros() as usize;
                return Some(b.wrapping_sub(from) as u64 & self.mask);
            }
            w = if w + 1 == words { 0 } else { w + 1 };
            bits = self.occ[w];
        }
        None
    }

    /// Move the cursor to the bucket holding the earliest pending entry,
    /// migrating overflow events the move brings into the ring span, and
    /// return that bucket; its front is the earliest entry. `None` when
    /// nothing is pending.
    fn locate(&mut self) -> Option<usize> {
        if self.ring_len == 0 {
            // Everything pending lives in the overflow: jump the cursor
            // straight to its earliest epoch (no bucket-by-bucket walk
            // across a long idle gap).
            let t = self.overflow.peek()?.time();
            self.cur = self.epoch(t);
            self.drain_overflow();
        }
        let b = (self.cur & self.mask) as usize;
        if !self.ring[b].is_empty() {
            return Some(b);
        }
        // Overflow events are all in strictly later epochs than any ring
        // event, so the jump can never skip one — but it frees ring
        // slots, so eligible overflow events migrate in afterwards, all
        // into buckets past the new cursor.
        let dist = self
            .occupied_distance(b)
            .expect("ring_len > 0 but no occupied bucket found");
        self.cur += dist;
        self.drain_overflow();
        Some((self.cur & self.mask) as usize)
    }

    /// Remove the front of bucket `b`, the earliest pending entry.
    #[inline]
    fn take_front(&mut self, b: usize) -> (SimTime, E) {
        let entry = self.ring[b]
            .pop_front()
            .expect("a located bucket is non-empty");
        if self.ring[b].is_empty() {
            self.occ[b / 64] &= !(1u64 << (b % 64));
        }
        self.ring_len -= 1;
        self.len -= 1;
        (entry.time(), entry.event)
    }

    /// Remove and return the earliest `(time, event)` — globally, by
    /// `(time, insertion sequence)`.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let b = self.locate()?;
        Some(self.take_front(b))
    }

    /// [`CalendarQueue::pop`] if the earliest event is due at or before
    /// `limit`; otherwise every pending event stays queued.
    fn pop_at_or_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        let b = self.locate()?;
        if self.ring[b].front()?.time() > limit {
            return None;
        }
        Some(self.take_front(b))
    }

    /// Timestamp of the earliest pending event without removing it —
    /// exactly the time the next [`CalendarQueue::pop`] would return.
    ///
    /// Pure scan: the cursor does not move, so interleaving peeks with
    /// pushes and pops cannot perturb pop order.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.ring_len == 0 {
            return self.overflow.peek().map(Entry::time);
        }
        // The earliest occupied bucket in cursor order holds the earliest
        // epoch, and every overflow event is in a strictly later epoch,
        // so its front is the global minimum.
        let from = self.cur & self.mask;
        let dist = self
            .occupied_distance(from as usize)
            .expect("ring_len > 0 but no occupied bucket found");
        self.ring[((from + dist) & self.mask) as usize]
            .front()
            .map(Entry::time)
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
    /// within the horizon); otherwise leave every pending event queued
    /// and return `None`. The calendar handoff primitive for windowed
    /// (sharded) execution: a region drains its window with repeated
    /// `next_at_or_before(barrier)` calls and never disturbs events
    /// beyond the conservative lookahead. The earliest event is located
    /// once, then taken or left.
    pub fn next_at_or_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        let limit = self.horizon.map_or(limit, |h| limit.min(h));
        let (t, e) = self.queue.pop_at_or_before(limit)?;
        debug_assert!(t >= self.now, "calendar queue went backwards in time");
        self.now = t;
        Some((t, e))
    }

    /// Advance the clock to `t` without popping anything (advance
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
