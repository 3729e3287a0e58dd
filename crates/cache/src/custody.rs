//! The custody store: byte-budgeted, per-flow, in-order chunk storage.
//!
//! Semantics follow §3.3 of the paper:
//!
//! * A congested router *caches incoming data* instead of dropping it.
//!   Stored chunks belong to named flows and are drained **in chunk order**
//!   (content is use-ful to the receiver in order; custody is
//!   store-and-forward, not random-access caching).
//! * Under back-pressure the store should never overflow — upstream is
//!   told to slow down first. The store models that contract: a `store`
//!   past the byte budget fails with [`StoreError::Full`] and the caller
//!   must push back. Nothing is ever evicted to make room.
//!
//! The store tracks per-flow byte accounting so fairness over cache space
//! (the paper's "global fairness" includes cache resources) can be measured.

use std::collections::{BTreeSet, HashMap};
use std::fmt;

use inrpp_sim::time::SimTime;
use inrpp_sim::units::ByteSize;

/// Flow identity: opaque to the store.
pub type FlowId = u64;
/// Chunk sequence number within a flow.
pub type ChunkNo = u64;

/// Why a `store` call failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreError {
    /// The chunk alone exceeds the whole cache budget.
    ChunkLargerThanCache {
        /// Offending chunk size.
        chunk: ByteSize,
        /// Total store budget.
        capacity: ByteSize,
    },
    /// There is no headroom: back-pressure is required.
    Full {
        /// Bytes that would be needed beyond the budget.
        overflow: ByteSize,
    },
    /// The (flow, chunk) pair is already in custody.
    Duplicate,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::ChunkLargerThanCache { chunk, capacity } => {
                write!(f, "chunk of {chunk} exceeds cache capacity {capacity}")
            }
            StoreError::Full { overflow } => {
                write!(
                    f,
                    "cache full: {overflow} over budget (back-pressure required)"
                )
            }
            StoreError::Duplicate => write!(f, "chunk already in custody"),
        }
    }
}

impl std::error::Error for StoreError {}

#[derive(Debug, Clone)]
struct Entry {
    bytes: ByteSize,
    stored_at: SimTime,
}

/// Byte-budgeted custody store. See module docs for semantics.
///
/// ```
/// use inrpp_cache::custody::CustodyStore;
/// use inrpp_sim::{time::SimTime, units::ByteSize};
///
/// let mut store = CustodyStore::new(ByteSize::kb(10));
/// // take custody of two chunks arriving out of order
/// store.store(SimTime::ZERO, 7, 1, ByteSize::kb(2)).unwrap();
/// store.store(SimTime::ZERO, 7, 0, ByteSize::kb(2)).unwrap();
/// // the drain is in chunk order — custody is store-and-forward
/// assert_eq!(store.pop_next(7), Some((0, ByteSize::kb(2))));
/// assert_eq!(store.pop_next(7), Some((1, ByteSize::kb(2))));
/// // an over-budget store demands back-pressure
/// assert!(store.store(SimTime::ZERO, 7, 2, ByteSize::kb(11)).is_err());
/// ```
#[derive(Debug, Clone)]
pub struct CustodyStore {
    capacity: ByteSize,
    used: ByteSize,
    entries: HashMap<(FlowId, ChunkNo), Entry>,
    /// per-flow ordered chunk index for in-order draining
    flows: HashMap<FlowId, BTreeSet<ChunkNo>>,
    // statistics
    stored_total: u64,
    rejected_total: u64,
    peak_used: ByteSize,
}

impl CustodyStore {
    /// A store with the given byte budget.
    pub fn new(capacity: ByteSize) -> Self {
        CustodyStore {
            capacity,
            used: ByteSize::ZERO,
            entries: HashMap::new(),
            flows: HashMap::new(),
            stored_total: 0,
            rejected_total: 0,
            peak_used: ByteSize::ZERO,
        }
    }

    /// The byte budget.
    pub fn capacity(&self) -> ByteSize {
        self.capacity
    }

    /// Bytes currently in custody.
    pub fn used(&self) -> ByteSize {
        self.used
    }

    /// Remaining headroom.
    pub fn headroom(&self) -> ByteSize {
        self.capacity.saturating_sub(self.used)
    }

    /// Occupancy in `[0, 1]`.
    pub fn fill_fraction(&self) -> f64 {
        if self.capacity == ByteSize::ZERO {
            1.0
        } else {
            self.used.as_bytes() as f64 / self.capacity.as_bytes() as f64
        }
    }

    /// Number of chunks in custody.
    pub fn chunk_count(&self) -> usize {
        self.entries.len()
    }

    /// `(stored, rejected)` lifetime totals.
    pub fn stats(&self) -> (u64, u64) {
        (self.stored_total, self.rejected_total)
    }

    /// Highest occupancy ever reached.
    pub fn peak_used(&self) -> ByteSize {
        self.peak_used
    }

    /// Take custody of `(flow, chunk)` occupying `bytes`, or refuse it
    /// with [`StoreError::Full`] when the budget has no room: the caller
    /// must then push back.
    pub fn store(
        &mut self,
        now: SimTime,
        flow: FlowId,
        chunk: ChunkNo,
        bytes: ByteSize,
    ) -> Result<(), StoreError> {
        if bytes > self.capacity {
            self.rejected_total += 1;
            return Err(StoreError::ChunkLargerThanCache {
                chunk: bytes,
                capacity: self.capacity,
            });
        }
        if self.entries.contains_key(&(flow, chunk)) {
            self.rejected_total += 1;
            return Err(StoreError::Duplicate);
        }
        let used = self.used.checked_add(bytes).expect("byte math");
        if used > self.capacity {
            self.rejected_total += 1;
            return Err(StoreError::Full {
                overflow: used.saturating_sub(self.capacity),
            });
        }
        self.entries.insert(
            (flow, chunk),
            Entry {
                bytes,
                stored_at: now,
            },
        );
        self.flows.entry(flow).or_default().insert(chunk);
        self.used = used;
        self.peak_used = self.peak_used.max(self.used);
        self.stored_total += 1;
        Ok(())
    }

    /// Whether `(flow, chunk)` is in custody.
    pub fn contains(&self, flow: FlowId, chunk: ChunkNo) -> bool {
        self.entries.contains_key(&(flow, chunk))
    }

    /// When `(flow, chunk)` was stored.
    pub fn stored_at(&self, flow: FlowId, chunk: ChunkNo) -> Option<SimTime> {
        self.entries.get(&(flow, chunk)).map(|e| e.stored_at)
    }

    /// Release `(flow, chunk)` from custody (delivered or acknowledged).
    /// Returns its size if it was present.
    pub fn release(&mut self, flow: FlowId, chunk: ChunkNo) -> Option<ByteSize> {
        let e = self.entries.remove(&(flow, chunk))?;
        self.used = self.used.saturating_sub(e.bytes);
        if let Some(set) = self.flows.get_mut(&flow) {
            set.remove(&chunk);
            if set.is_empty() {
                self.flows.remove(&flow);
            }
        }
        Some(e.bytes)
    }

    /// The lowest-numbered chunk of `flow` in custody, without removing it.
    pub fn peek_next(&self, flow: FlowId) -> Option<(ChunkNo, ByteSize)> {
        let chunk = *self.flows.get(&flow)?.iter().next()?;
        let e = &self.entries[&(flow, chunk)];
        Some((chunk, e.bytes))
    }

    /// Remove and return the lowest-numbered chunk of `flow` — the in-order
    /// drain operation used when the bottleneck frees up.
    pub fn pop_next(&mut self, flow: FlowId) -> Option<(ChunkNo, ByteSize)> {
        let (chunk, bytes) = self.peek_next(flow)?;
        self.release(flow, chunk);
        Some((chunk, bytes))
    }

    /// Flows currently in custody, ascending by id (deterministic).
    pub fn flows(&self) -> Vec<FlowId> {
        let mut v: Vec<FlowId> = self.flows.keys().copied().collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t0() -> SimTime {
        SimTime::ZERO
    }

    fn kb(n: u64) -> ByteSize {
        ByteSize::kb(n)
    }

    #[test]
    fn store_and_release_accounting() {
        let mut s = CustodyStore::new(kb(10));
        s.store(t0(), 1, 0, kb(4)).unwrap();
        s.store(t0(), 1, 1, kb(4)).unwrap();
        assert_eq!(s.used(), kb(8));
        assert_eq!(s.headroom(), kb(2));
        assert_eq!(s.chunk_count(), 2);
        assert!((s.fill_fraction() - 0.8).abs() < 1e-12);
        assert_eq!(s.release(1, 0), Some(kb(4)));
        assert_eq!(s.release(1, 0), None);
        assert_eq!(s.used(), kb(4));
        assert_eq!(s.peak_used(), kb(8));
    }

    #[test]
    fn reject_policy_enforces_backpressure_contract() {
        let mut s = CustodyStore::new(kb(10));
        s.store(t0(), 1, 0, kb(8)).unwrap();
        let err = s.store(t0(), 1, 1, kb(4)).unwrap_err();
        assert_eq!(err, StoreError::Full { overflow: kb(2) });
        assert!(err.to_string().contains("back-pressure"));
        // the failed chunk is NOT stored
        assert!(!s.contains(1, 1));
        assert_eq!(s.stats().1, 1);
    }

    #[test]
    fn oversized_chunk_rejected_by_all_policies() {
        let mut s = CustodyStore::new(kb(1));
        let err = s.store(t0(), 1, 0, kb(2)).unwrap_err();
        assert!(matches!(err, StoreError::ChunkLargerThanCache { .. }));
    }

    #[test]
    fn duplicate_chunk_rejected() {
        let mut s = CustodyStore::new(kb(10));
        s.store(t0(), 1, 0, kb(1)).unwrap();
        assert_eq!(s.store(t0(), 1, 0, kb(1)), Err(StoreError::Duplicate));
    }

    #[test]
    fn in_order_drain_per_flow() {
        let mut s = CustodyStore::new(kb(100));
        // store out of order
        for c in [5u64, 1, 3, 2, 4] {
            s.store(t0(), 7, c, kb(1)).unwrap();
        }
        assert_eq!(s.peek_next(7), Some((1, kb(1))));
        let drained: Vec<ChunkNo> = std::iter::from_fn(|| s.pop_next(7).map(|(c, _)| c)).collect();
        assert_eq!(drained, vec![1, 2, 3, 4, 5]);
        assert_eq!(s.pop_next(7), None);
    }

    #[test]
    fn per_flow_accounting() {
        let mut s = CustodyStore::new(kb(100));
        s.store(t0(), 1, 0, kb(2)).unwrap();
        s.store(t0(), 1, 1, kb(3)).unwrap();
        s.store(t0(), 2, 0, kb(4)).unwrap();
        assert_eq!(s.flows(), vec![1, 2]);
    }

    #[test]
    fn stored_at_records_time() {
        let mut s = CustodyStore::new(kb(10));
        let t = SimTime::from_secs(3);
        s.store(t, 1, 0, kb(1)).unwrap();
        assert_eq!(s.stored_at(1, 0), Some(t));
        assert_eq!(s.stored_at(1, 1), None);
    }

    #[test]
    fn zero_capacity_store_is_always_full() {
        let mut s = CustodyStore::new(ByteSize::ZERO);
        assert!(s.store(t0(), 1, 0, kb(1)).is_err());
        assert_eq!(s.fill_fraction(), 1.0);
    }

    #[test]
    fn eviction_respects_capacity_invariant() {
        let mut s = CustodyStore::new(kb(10));
        for i in 0..100 {
            let _ = s.store(t0(), i % 7, i, kb(1 + (i % 3)));
            assert!(
                s.used() <= s.capacity(),
                "over budget after store {i}: {} > {}",
                s.used(),
                s.capacity()
            );
        }
    }
}
