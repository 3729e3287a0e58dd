//! Discrete-event core: a deterministic pending-event queue and a run loop.
//!
//! The queue is a binary heap keyed by `(time, sequence number)`. The
//! sequence number is the global insertion order, which makes simultaneous
//! events fire in a defined order (FIFO among equals) — the classic source of
//! non-reproducibility in naive DES implementations.
//!
//! Control flow is poll-style, as in smoltcp: the [`Engine`] never calls into
//! user code behind your back. The caller drains events with
//! [`Engine::next`] (or [`Engine::next_at_or_before`] to stop at a
//! boundary) and schedules follow-ups between polls.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

use crate::time::{SimDuration, SimTime};

/// Error returned when scheduling into the past.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulePastError {
    /// The current clock value.
    pub now: SimTime,
    /// The (earlier) instant that was requested.
    pub requested: SimTime,
}

impl fmt::Display for SchedulePastError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cannot schedule at {} which is before the current clock {}",
            self.requested, self.now
        )
    }
}

impl std::error::Error for SchedulePastError {}

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
        // Reversed: BinaryHeap is a max-heap and we want the earliest
        // (time, seq) on top.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic time-ordered event queue.
///
/// Usually used through [`Engine`]; exposed separately for components that
/// keep private sub-queues (e.g. link delivery pipelines).
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Insert `event` to fire at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// The firing time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// The simulation engine: a clock plus the pending-event queue.
///
/// ```
/// use inrpp_sim::event::Engine;
/// use inrpp_sim::time::{SimDuration, SimTime};
///
/// #[derive(Debug, PartialEq)]
/// enum Ev { Ping(u32) }
///
/// let mut eng: Engine<Ev> = Engine::new();
/// eng.schedule(SimDuration::from_secs(1), Ev::Ping(0));
/// let mut fired = Vec::new();
/// while let Some((now, Ev::Ping(n))) = eng.next() {
///     fired.push((now, n));
///     if n < 2 {
///         eng.schedule(SimDuration::from_secs(1), Ev::Ping(n + 1));
///     }
/// }
/// assert_eq!(fired.len(), 3);
/// assert_eq!(fired[2].0, SimTime::from_secs(3));
/// ```
pub struct Engine<E> {
    queue: EventQueue<E>,
    now: SimTime,
    horizon: Option<SimTime>,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// A fresh engine with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Engine {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            horizon: None,
        }
    }

    /// Stop processing once the clock would pass `t` (the clock is left at
    /// exactly `t`; later events stay queued).
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
    #[inline]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedule `event` after `delay` from now.
    pub fn schedule(&mut self, delay: SimDuration, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// Schedule `event` at the absolute instant `t` (must not be in the past).
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

    /// Pop the next event and advance the clock to it.
    ///
    /// Returns `None` when the queue is empty or the next event lies beyond
    /// the horizon (in which case the clock is parked at the horizon).
    ///
    /// Named like `Iterator::next` on purpose — the engine is driven as a
    /// poll loop — but it is not an `Iterator` because callers need `&mut
    /// self` access between polls.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(SimTime, E)> {
        let t = self.queue.peek_time()?;
        if let Some(h) = self.horizon {
            if t > h {
                self.now = h;
                return None;
            }
        }
        let (t, e) = self.queue.pop().expect("peeked entry vanished");
        debug_assert!(t >= self.now, "event queue went backwards in time");
        self.now = t;
        Some((t, e))
    }

    /// Pop the next event only if it is due at or before `limit` (and
    /// within the horizon); otherwise leave the queue untouched and
    /// return `None`. Mirrors
    /// [`CalendarEngine::next_at_or_before`](crate::calendar::CalendarEngine::next_at_or_before):
    /// the stepping primitive service-mode runs use to drain exactly the
    /// window up to an advance boundary — a loop of
    /// `next_at_or_before(t)` calls followed by `next()` calls pops the
    /// identical `(time, seq)` sequence an uninterrupted `next()` loop
    /// would, so splitting a run at `t` cannot change its results.
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

    /// Advance the clock to `t` without popping anything. Used when a
    /// stepping run reaches an advance boundary that falls between
    /// events; `t` must not precede the current clock.
    pub fn advance_clock_to(&mut self, t: SimTime) {
        assert!(t >= self.now, "advance_clock_to would move time backwards");
        self.now = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), "c");
        q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(2), "b");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(3), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_fire_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_millis(5), ());
        q.push(SimTime::from_millis(2), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(2)));
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(5)));
    }

    #[test]
    fn engine_advances_clock() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule(SimDuration::from_secs(2), 7);
        assert_eq!(eng.now(), SimTime::ZERO);
        let (t, e) = eng.next().unwrap();
        assert_eq!(t, SimTime::from_secs(2));
        assert_eq!(e, 7);
        assert_eq!(eng.now(), SimTime::from_secs(2));
        assert_eq!(eng.next(), None);
    }

    #[test]
    fn schedule_at_rejects_past() {
        let mut eng: Engine<()> = Engine::new();
        eng.schedule(SimDuration::from_secs(5), ());
        let _ = eng.next();
        let err = eng.schedule_at(SimTime::from_secs(1), ()).unwrap_err();
        assert_eq!(err.now, SimTime::from_secs(5));
        assert_eq!(err.requested, SimTime::from_secs(1));
        assert!(err.to_string().contains("before the current clock"));
    }

    #[test]
    fn horizon_parks_clock_and_keeps_events() {
        let mut eng: Engine<u8> = Engine::new().with_horizon(SimTime::from_secs(10));
        eng.schedule(SimDuration::from_secs(5), 1);
        eng.schedule(SimDuration::from_secs(15), 2);
        let mut seen = Vec::new();
        while let Some((_, e)) = eng.next() {
            seen.push(e);
        }
        assert_eq!(seen, vec![1]);
        // stopped by the horizon: the clock sits on it, one event pending
        assert_eq!(eng.now(), SimTime::from_secs(10));
        assert_eq!(eng.pending(), 1);
    }

    #[test]
    fn handler_scheduled_events_interleave_correctly() {
        // A cascade that alternates two "processes" must observe global
        // time ordering, not per-process ordering.
        let mut eng: Engine<(&'static str, u64)> = Engine::new();
        eng.schedule(SimDuration::from_secs(1), ("a", 1));
        eng.schedule(SimDuration::from_secs(2), ("b", 2));
        let mut order = Vec::new();
        while let Some((now, (name, step))) = eng.next() {
            order.push((name, now));
            if step < 3 {
                // "a" reschedules every 2s, "b" every 2s => interleaved.
                eng.schedule(SimDuration::from_secs(2), (name, step + 2));
            }
        }
        let times: Vec<u64> = order.iter().map(|(_, t)| t.as_nanos()).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted, "events fired out of time order: {order:?}");
    }

    #[test]
    fn next_at_or_before_respects_limit_and_horizon() {
        let mut eng: Engine<&str> = Engine::new().with_horizon(SimTime::from_secs(4));
        eng.schedule(SimDuration::from_secs(1), "a");
        eng.schedule(SimDuration::from_secs(2), "b");
        eng.schedule(SimDuration::from_secs(5), "beyond-horizon");
        assert_eq!(eng.next_at_or_before(SimTime::from_millis(500)), None);
        assert_eq!(eng.pending(), 3, "nothing popped below the limit");
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
    fn snapshot_mid_run_resumes_bit_identically() {
        // Drive one engine straight through; drive a second to the
        // midpoint, park its clock there, and continue. The pop streams —
        // and everything scheduled after the boundary — must be
        // identical.
        let build = || {
            let mut eng: Engine<u32> = Engine::new().with_horizon(SimTime::from_secs(60));
            for i in 0..40u32 {
                eng.schedule(SimDuration::from_millis((i as u64 * 97) % 50_000), i);
            }
            eng
        };
        let follow = |eng: &mut Engine<u32>, log: &mut Vec<(SimTime, u32)>| {
            while let Some((t, e)) = eng.next() {
                log.push((t, e));
                if e % 3 == 0 {
                    eng.schedule(SimDuration::from_millis(1_500), e + 1000);
                }
            }
        };
        let mut straight = build();
        let mut expect = Vec::new();
        follow(&mut straight, &mut expect);

        let mut split = build();
        let mut log = Vec::new();
        let mid = SimTime::from_secs(20);
        while let Some((t, e)) = split.next_at_or_before(mid) {
            log.push((t, e));
            if e % 3 == 0 {
                split.schedule(SimDuration::from_millis(1_500), e + 1000);
            }
        }
        split.advance_clock_to(mid);
        assert_eq!(split.now(), mid);
        follow(&mut split, &mut log);
        assert_eq!(log, expect);
    }

    #[test]
    fn determinism_two_identical_runs() {
        fn run() -> Vec<(SimTime, u32)> {
            let mut eng: Engine<u32> = Engine::new();
            for i in 0..50 {
                eng.schedule(SimDuration::from_millis((i * 7 % 13) as u64), i);
            }
            let mut log = Vec::new();
            while let Some((t, e)) = eng.next() {
                log.push((t, e));
            }
            log
        }
        assert_eq!(run(), run());
    }
}
