//! A fair FIFO worker-slot pool.
//!
//! [`run_sweep`](crate::run_sweep) pools cores over a *finite* list of
//! cells, so its scheduler is a cursor. Long-lived services (the
//! `inrpp-server` session daemon) pool cores over an *unbounded* stream
//! of compute slices instead: many logical sessions, a fixed complement
//! of simulation workers, each session advanced one bounded slice at a
//! time. [`SlotPool`] is that scheduler, extracted here so both layers
//! share one primitive.
//!
//! Admission is strict FIFO (ticket order): a caller that started
//! waiting first is granted a slot first, so no session can starve
//! another however the OS schedules the underlying threads. Fairness is
//! a *wall-clock* property only — simulation output never depends on
//! grant order, which is what lets the daemon keep the determinism
//! contract at any pool size.
//!
//! ```
//! use inrpp_runner::SlotPool;
//!
//! let pool = SlotPool::new(2);
//! let a = pool.acquire();
//! let b = pool.acquire();
//! assert_eq!(pool.free(), 0);
//! drop(a);
//! let _c = pool.acquire(); // reuses the released slot
//! drop(b);
//! assert_eq!(pool.grants(), 3);
//! ```

use std::sync::{Condvar, Mutex};

/// Interior scheduling state, guarded by the pool mutex.
#[derive(Debug)]
struct SlotState {
    /// Slots currently unheld.
    free: usize,
    /// Next ticket to hand to an arriving waiter.
    next_ticket: u64,
    /// Ticket currently admitted (all lower tickets hold or held slots).
    serving: u64,
    /// Total slots ever granted.
    grants: u64,
}

/// A fixed complement of worker slots with FIFO-fair blocking admission.
///
/// Cheap to share behind an `Arc`; a [`SlotGuard`] returns its slot on
/// drop. See the module docs above for the scheduling model.
#[derive(Debug)]
pub struct SlotPool {
    slots: usize,
    state: Mutex<SlotState>,
    cv: Condvar,
}

impl SlotPool {
    /// A pool of `slots` worker slots (clamped to at least 1).
    pub fn new(slots: usize) -> Self {
        let slots = slots.max(1);
        SlotPool {
            slots,
            state: Mutex::new(SlotState {
                free: slots,
                next_ticket: 0,
                serving: 0,
                grants: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// The pool size.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Slots not currently held.
    pub fn free(&self) -> usize {
        self.state.lock().expect("slot pool poisoned").free
    }

    /// Total slots granted over the pool's lifetime.
    pub fn grants(&self) -> u64 {
        self.state.lock().expect("slot pool poisoned").grants
    }

    /// Block until a slot is free *and* every earlier caller has been
    /// admitted, then take the slot. The guard releases it on drop.
    pub fn acquire(&self) -> SlotGuard<'_> {
        let mut s = self.state.lock().expect("slot pool poisoned");
        let ticket = s.next_ticket;
        s.next_ticket += 1;
        while !(s.serving == ticket && s.free > 0) {
            s = self.cv.wait(s).expect("slot pool poisoned");
        }
        s.serving += 1;
        s.free -= 1;
        s.grants += 1;
        // the next ticket may already be admissible (free > 0)
        self.cv.notify_all();
        SlotGuard { pool: self }
    }

    fn release(&self) {
        let mut s = self.state.lock().expect("slot pool poisoned");
        s.free += 1;
        debug_assert!(s.free <= self.slots, "slot over-release");
        self.cv.notify_all();
    }
}

/// Holds one granted worker slot; dropping it releases the slot back to
/// the pool and wakes the next waiter in ticket order.
#[derive(Debug)]
pub struct SlotGuard<'a> {
    pool: &'a SlotPool,
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        self.pool.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn zero_clamps_to_one_and_counts_grants() {
        let pool = SlotPool::new(0);
        assert_eq!(pool.slots(), 1);
        assert_eq!(pool.free(), 1);
        {
            let _g = pool.acquire();
            assert_eq!(pool.free(), 0);
        }
        assert_eq!(pool.free(), 1);
        assert_eq!(pool.grants(), 1);
    }

    #[test]
    fn concurrency_never_exceeds_pool_size() {
        for slots in [1usize, 2, 4] {
            let pool = Arc::new(SlotPool::new(slots));
            let live = Arc::new(AtomicUsize::new(0));
            let peak = Arc::new(AtomicUsize::new(0));
            let mut handles = Vec::new();
            for _ in 0..16 {
                let (pool, live, peak) = (pool.clone(), live.clone(), peak.clone());
                handles.push(std::thread::spawn(move || {
                    for _ in 0..8 {
                        let _g = pool.acquire();
                        let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_micros(200));
                        live.fetch_sub(1, Ordering::SeqCst);
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert!(
                peak.load(Ordering::SeqCst) <= slots,
                "peak concurrency {} exceeded pool of {slots}",
                peak.load(Ordering::SeqCst)
            );
            assert_eq!(pool.grants(), 16 * 8);
            assert_eq!(pool.free(), slots);
        }
    }

    #[test]
    fn admission_is_ticket_ordered() {
        // one slot, a holder, then 8 queued waiters started in a known
        // order: grants must land in that order
        let pool = Arc::new(SlotPool::new(1));
        let order = Arc::new(Mutex::new(Vec::new()));
        let gate = pool.acquire();
        // callers blocked in acquire(): tickets taken but not yet served
        let waiting = || {
            let s = pool.state.lock().unwrap();
            s.next_ticket - s.serving
        };
        let mut handles = Vec::new();
        for i in 0..8u32 {
            let (p, order) = (pool.clone(), order.clone());
            handles.push(std::thread::spawn(move || {
                let _g = p.acquire();
                order.lock().unwrap().push(i);
            }));
            // ensure thread i has taken its ticket before thread i+1
            // starts (tickets are taken inside acquire(), under the lock)
            while waiting() < u64::from(i) + 1 {
                std::thread::yield_now();
            }
        }
        drop(gate);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), (0..8).collect::<Vec<_>>());
    }
}
