//! The incremental, arena-backed max-min allocation engine.
//!
//! [`crate::allocator::max_min_allocate`] is the *reference* allocator:
//! given the full flow set it re-resolves every subpath's hops to directed
//! channels (one `HashMap` probe per hop) and allocates fresh vectors for
//! every piece of working state — on **every** call. The flow-level event
//! loop calls the allocator on every arrival and departure, so the
//! reference formulation costs `O(events × flows × hops)` repeated path
//! resolution plus thousands of heap allocations per event.
//!
//! [`AllocEngine`] is the production engine the simulator uses instead:
//!
//! * `FlowPaths` — an arena that resolves each flow's preference-ordered
//!   subpaths to flat directed-channel index slices (`Vec<u32>` + offsets)
//!   **once at flow arrival**, via the O(1) dense adjacency table
//!   ([`inrpp_topology::dense::DenseChannels`]). It also keeps the
//!   standing channel incidence: per directed channel, the `(slot,
//!   subpath)` pair of every subpath of every active flow crossing it.
//!   Departed flows return their slot (and its buffers) to a free list,
//!   so steady-state churn allocates nothing.
//! * `AllocatorScratch` — the progressive-filling state, indexed by arena
//!   slot and by channel, plus the *round-0 state*: each flow's first
//!   subpath clear of zero-capacity channels and the channel counts that
//!   choice implies. Insert and remove keep the round-0 state current, so
//!   an allocation starts from a copy of it.
//! * An active set sorted by caller key (the simulator uses flow ids), so
//!   outputs come out in the order the reference allocator is fed.
//!
//! **Exactness contract:** for any active set, [`AllocEngine::allocate`]
//! produces bit-identical `flow_rates`, `subpath_rates`, and `dir_used`
//! to the reference allocator fed the same flows in key order. The
//! filling loop does less work per round than the reference, and each
//! shortcut keeps every floating-point result:
//!
//! 1. **Cursors and counts.** Saturation is monotone within one
//!    allocation: residuals only fall, and a saturated channel is clamped
//!    to zero and never counted again. So a flow's preference changes
//!    only when a channel of its preferred subpath saturates, the new
//!    choice lies after the old cursor, and per-flow re-selection does
//!    not depend on the order flows are visited in. The engine
//!    re-selects exactly the flows whose preferred subpath crosses a
//!    channel that just saturated, found through the standing incidence.
//!    Channel counts are integer bookkeeping kept in step with the
//!    cursors.
//! 2. **δ.** The reference takes `min(residual / count)` over channels
//!    with `count > 0`. The engine keeps an exact list of those channels,
//!    makes the same division for each, and splits the minimum across
//!    four accumulators. Every quotient is positive, so the minimum does
//!    not depend on the order it is taken in.
//! 3. **Residual steps.** Within a round every subtraction on channel `d`
//!    uses the same δ and no other channel's update touches it, so
//!    `residual[d]` sees `count[d]` subtractions of δ in a row, as in the
//!    reference's per-flow loop. [`subtract_repeated`] replaces that loop
//!    by one step where the result is provably the same (see its docs).
//! 4. **Subpath rates.** A flow's cursor only moves forward, so each
//!    subpath is preferred for one unbroken run of rounds `a..=b`, and
//!    the reference's rate for it is `((0 + δ_a) + …) + δ_b`. That sum
//!    depends only on `a` and `b`, so the engine keeps one running sum
//!    per round in which some flow took up a new subpath, and stores it
//!    into the subpath's rate when the flow moves on or freezes.
//! 5. **Round-0 state.** Before the first round `residual = capacity`, so
//!    the reference's first selection is each flow's first subpath with
//!    no zero-capacity channel. That depends only on the flow and the
//!    capacities, so insert and remove maintain it, and a capacity change
//!    recomputes it.
//!
//! The contract is gated by unit tests here and by the
//! reference-equivalence and residual-step property tests in
//! `tests/properties.rs`.

use inrpp_topology::dense::DenseChannels;
use inrpp_topology::graph::Topology;
use inrpp_topology::spath::Path;

use crate::allocator::{UnresolvedHop, MAX_ROUNDS, REL_EPS};

/// Cursor value of a flow with no subpath left (and of a free slot).
const FROZEN: u32 = u32::MAX;

/// `r` after `count` successive subtractions `r -= delta`, bit for bit,
/// in O(1) wherever that is provably exact.
///
/// Let `u` be the spacing of the floats in `r`'s binade
/// `[2^e, 2^(e+1))` and `k·u` the multiple of `u` nearest to `delta`.
/// While an exact difference `x − delta` stays at or above `2^e`, its
/// nearest float is the multiple of `u` nearest to it, which is
/// `x − k·u` when `delta` is not a tie (`delta mod u ≠ u/2`). If the
/// final value `r − count·k·u` is at least `2^e + u`, every intermediate
/// difference exceeds `2^e + u/2`, so every subtraction rounds exactly
/// like that and the loop's result is `r − count·k·u`, computed exactly.
/// When either condition fails (a tie, a crossing into the binade below,
/// a residual that is not a positive normal number), the loop runs.
///
/// The multiple is found without `round` (a libm call on the default
/// target): `t = delta / u` is an exact scaling, and for `0 ≤ t < 2⁵²`
/// `(t + 2⁵²) − 2⁵²` is `t` rounded to the nearest integer.
///
/// ```
/// use inrpp_flowsim::engine::subtract_repeated;
/// let (r, delta) = (1e9, 0.1);
/// let mut looped = r;
/// for _ in 0..1000 {
///     looped -= delta;
/// }
/// assert_eq!(subtract_repeated(r, delta, 1000).to_bits(), looped.to_bits());
/// ```
#[inline]
pub fn subtract_repeated(r: f64, delta: f64, count: u32) -> f64 {
    const TWO_52: f64 = (1u64 << 52) as f64;
    // biased exponent; out of range for zero, subnormals, negatives and
    // values whose `u` or `1/u` would not be a normal power of two
    let e = r.to_bits() >> 52;
    if (53..=2046).contains(&e) {
        let floor = f64::from_bits(e << 52);
        let u = f64::from_bits((e - 52) << 52);
        let t = delta * f64::from_bits((2098 - e) << 52);
        let k = (t + TWO_52) - TWO_52;
        if t < TWO_52 && (k - t).abs() != 0.5 {
            let out = r - count as f64 * k * u;
            if out >= floor + u {
                return out;
            }
        }
    }
    let mut out = r;
    for _ in 0..count {
        out -= delta;
    }
    out
}

/// One flow's resolved subpaths inside the [`FlowPaths`] arena.
#[derive(Debug, Clone, Default)]
struct SlotData {
    /// Directed-channel indices of every subpath, concatenated.
    dirs: Vec<u32>,
    /// Exclusive end offset of each subpath within `dirs`.
    ends: Vec<u32>,
    /// Rate per subpath from the last allocation (bits/s).
    rates: Vec<f64>,
}

impl SlotData {
    /// Channel slice of subpath `i`.
    #[inline]
    fn subpath(&self, i: usize) -> &[u32] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.dirs[start..self.ends[i] as usize]
    }

    /// Number of subpaths.
    #[inline]
    fn len(&self) -> usize {
        self.ends.len()
    }

    /// First subpath at or after `from` with no saturated channel (the
    /// reference allocator's predicate), or `None`.
    #[inline]
    fn first_clear(&self, from: usize, residual: &[f64], caps: &[f64]) -> Option<u32> {
        (from..self.len())
            .find(|&p| {
                !self
                    .subpath(p)
                    .iter()
                    .any(|&d| residual[d as usize] <= caps[d as usize] * REL_EPS)
            })
            .map(|p| p as u32)
    }
}

/// Arena of per-flow resolved subpaths: flat `Vec<u32>` channel slices
/// plus offsets, filled once at flow arrival through an O(1) dense
/// adjacency lookup and recycled through a slot free list, with the
/// standing per-channel incidence of every active subpath.
#[derive(Debug)]
struct FlowPaths {
    dense: DenseChannels,
    slots: Vec<SlotData>,
    free: Vec<u32>,
    /// Per directed channel: `(slot, subpath)` once for every crossing of
    /// it by a subpath of an active flow, unordered.
    incidence: Vec<Vec<(u32, u32)>>,
}

impl FlowPaths {
    /// An empty arena resolving against `topo`.
    fn new(topo: &Topology) -> Self {
        FlowPaths {
            dense: DenseChannels::build(topo),
            slots: Vec::new(),
            free: Vec::new(),
            incidence: vec![Vec::new(); topo.link_count() * 2],
        }
    }

    /// Resolve `paths` into a fresh (or recycled) slot, list its
    /// subpaths on the channels they cross, and return the slot id. On an
    /// unresolvable hop nothing is retained and the typed error names the
    /// offending node pair.
    fn insert(&mut self, paths: &[Path]) -> Result<u32, UnresolvedHop> {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(SlotData::default());
                (self.slots.len() - 1) as u32
            }
        };
        let data = &mut self.slots[slot as usize];
        data.dirs.clear();
        data.ends.clear();
        for p in paths {
            for w in p.nodes().windows(2) {
                match self.dense.dir_index(w[0], w[1]) {
                    Some(d) => data.dirs.push(d),
                    None => {
                        data.dirs.clear();
                        data.ends.clear();
                        self.free.push(slot);
                        return Err(UnresolvedHop {
                            from: w[0],
                            to: w[1],
                        });
                    }
                }
            }
            data.ends.push(data.dirs.len() as u32);
        }
        data.rates.clear();
        data.rates.resize(data.len(), 0.0);
        for p in 0..data.len() {
            for &d in data.subpath(p) {
                self.incidence[d as usize].push((slot, p as u32));
            }
        }
        Ok(slot)
    }

    /// Unlist `slot` from the channel incidence and release it to the
    /// free list (its buffers keep their capacity for the next flow).
    fn remove(&mut self, slot: u32) {
        let data = &mut self.slots[slot as usize];
        for p in 0..data.len() {
            for &d in data.subpath(p) {
                let list = &mut self.incidence[d as usize];
                let at = list
                    .iter()
                    .position(|&e| e == (slot, p as u32))
                    .expect("every subpath crossing is listed at insert");
                list.swap_remove(at);
            }
        }
        data.dirs.clear();
        data.ends.clear();
        data.rates.clear();
        self.free.push(slot);
    }
}

/// Directed channels crossed by preferred subpaths: how many cross each
/// channel, and an unordered list of the channels with a positive count.
#[derive(Debug)]
struct ChannelUse {
    count: Vec<u32>,
    list: Vec<u32>,
    /// Index of each listed channel in `list`.
    pos: Vec<u32>,
}

impl ChannelUse {
    fn new(ndir: usize) -> Self {
        ChannelUse {
            count: vec![0; ndir],
            list: Vec::new(),
            pos: vec![0; ndir],
        }
    }

    /// Count one more preferred subpath crossing `d`.
    #[inline]
    fn add(&mut self, d: u32) {
        let c = &mut self.count[d as usize];
        if *c == 0 {
            self.pos[d as usize] = self.list.len() as u32;
            self.list.push(d);
        }
        *c += 1;
    }

    /// Count one preferred subpath fewer crossing `d`.
    #[inline]
    fn remove(&mut self, d: u32) {
        let c = &mut self.count[d as usize];
        *c -= 1;
        if *c == 0 {
            let at = self.pos[d as usize] as usize;
            self.list.swap_remove(at);
            if let Some(&moved) = self.list.get(at) {
                self.pos[moved as usize] = at as u32;
            }
        }
    }

    /// Become a copy of `other` without reallocating.
    fn copy_from(&mut self, other: &ChannelUse) {
        self.count.copy_from_slice(&other.count);
        self.list.clear();
        self.list.extend_from_slice(&other.list);
        self.pos.copy_from_slice(&other.pos);
    }

    fn clear(&mut self) {
        for &d in &self.list {
            self.count[d as usize] = 0;
        }
        self.list.clear();
    }
}

/// Progressive-filling state, held by the engine across events so
/// re-allocations are allocation-free in steady state. Per-flow state is
/// indexed by arena slot.
#[derive(Debug)]
struct AllocatorScratch {
    /// Effective capacity per directed channel: base scaled by the current
    /// fault factor (0 while the link is down).
    caps: Vec<f64>,
    /// Undegraded capacity per directed channel (fixed per topology).
    base_caps: Vec<f64>,
    /// Remaining capacity per directed channel.
    residual: Vec<f64>,
    /// Round-0 channel use: every active flow on its round-0 subpath.
    use0: ChannelUse,
    /// Per slot: the round-0 subpath, or [`FROZEN`] (also for free slots).
    preferred0: Vec<u32>,
    /// Active flows with a round-0 subpath.
    unfrozen0: usize,
    /// Channel use of the unfrozen flows' preferred subpaths.
    used: ChannelUse,
    /// Per slot: cursor into the subpath preference order, or [`FROZEN`].
    preferred: Vec<u32>,
    /// Per slot: the running sum its preferred subpath's rate accrues in.
    sum_of: Vec<u32>,
    /// Running rate sums, one per round in which flows took up a subpath.
    sums: Vec<f64>,
    /// Per sum: flows still accruing in it.
    holders: Vec<u32>,
    /// Sums with holders left; each round adds its δ to all of them.
    open: Vec<u32>,
    /// Channels saturated by the current round.
    newly_sat: Vec<u32>,
}

impl AllocatorScratch {
    fn new(topo: &Topology) -> Self {
        let mut caps = Vec::with_capacity(topo.link_count() * 2);
        for l in topo.link_ids() {
            let c = topo.link(l).capacity.as_bps();
            caps.push(c);
            caps.push(c);
        }
        let ndir = caps.len();
        AllocatorScratch {
            residual: vec![0.0; ndir],
            base_caps: caps.clone(),
            caps,
            use0: ChannelUse::new(ndir),
            preferred0: Vec::new(),
            unfrozen0: 0,
            used: ChannelUse::new(ndir),
            preferred: Vec::new(),
            sum_of: Vec::new(),
            sums: Vec::new(),
            holders: Vec::new(),
            open: Vec::new(),
            newly_sat: Vec::new(),
        }
    }

    /// Set both directions of `link` to `factor` of base capacity; `0`
    /// means the link is down (flows through it freeze at rate 0, since a
    /// zero-capacity channel is saturated from the start of every fill).
    /// Which channels have zero capacity may change, so the round-0 state
    /// of the active flows in `slots` is derived again.
    fn set_link_capacity_factor(
        &mut self,
        link: usize,
        factor: f64,
        arena: &[SlotData],
        slots: &[u32],
    ) {
        debug_assert!((0.0..=1.0).contains(&factor), "factor {factor}");
        for d in [2 * link, 2 * link + 1] {
            self.caps[d] = self.base_caps[d] * factor;
        }
        self.use0.clear();
        self.preferred0.fill(FROZEN);
        self.unfrozen0 = 0;
        for &slot in slots {
            self.admit(&arena[slot as usize], slot);
        }
    }

    /// Add the flow in `slot` to the round-0 state: its first subpath
    /// with headroom at full residual, and that subpath's channel counts.
    fn admit(&mut self, data: &SlotData, slot: u32) {
        let slot = slot as usize;
        if self.preferred0.len() <= slot {
            self.preferred0.resize(slot + 1, FROZEN);
        }
        self.preferred0[slot] = match data.first_clear(0, &self.caps, &self.caps) {
            Some(p) => {
                for &d in data.subpath(p as usize) {
                    self.use0.add(d);
                }
                self.unfrozen0 += 1;
                p
            }
            None => FROZEN,
        };
    }

    /// Undo [`Self::admit`] for the flow in `slot`.
    fn retire(&mut self, data: &SlotData, slot: u32) {
        let p = std::mem::replace(&mut self.preferred0[slot as usize], FROZEN);
        if p != FROZEN {
            for &d in data.subpath(p as usize) {
                self.use0.remove(d);
            }
            self.unfrozen0 -= 1;
        }
    }

    /// Largest uniform increment no used channel can refuse: the minimum
    /// of `residual / count` over channels in use, over four independent
    /// accumulators (every quotient is positive, so the order of the
    /// minimum cannot change the result).
    #[inline]
    fn delta(&self) -> f64 {
        let (residual, count) = (&self.residual, &self.used.count);
        let q = |d: u32| residual[d as usize] / count[d as usize] as f64;
        let mut m = [f64::INFINITY; 4];
        let mut quads = self.used.list.chunks_exact(4);
        for ds in &mut quads {
            for k in 0..4 {
                m[k] = m[k].min(q(ds[k]));
            }
        }
        for (k, &d) in quads.remainder().iter().enumerate() {
            m[k] = m[k].min(q(d));
        }
        m[0].min(m[1]).min(m[2].min(m[3]))
    }

    /// Subtract `count[d]` times `delta` from every used channel's
    /// residual, clamp the channels that saturate to exactly zero (so the
    /// saturation predicate is stable), and collect them.
    #[inline]
    fn step_residuals(&mut self, delta: f64) {
        self.newly_sat.clear();
        for &d in &self.used.list {
            let d = d as usize;
            let r = subtract_repeated(self.residual[d], delta, self.used.count[d]);
            if r <= self.caps[d] * REL_EPS {
                self.residual[d] = 0.0;
                self.newly_sat.push(d as u32);
            } else {
                self.residual[d] = r;
            }
        }
    }
}

/// The persistent allocation engine: flows enter at arrival
/// ([`AllocEngine::insert`]), leave at departure
/// ([`AllocEngine::remove`]), and [`AllocEngine::allocate`] recomputes
/// only the rate vectors — numerically identical to the reference
/// allocator run from scratch over the same active set.
///
/// ```
/// use inrpp_flowsim::engine::AllocEngine;
/// use inrpp_flowsim::allocator::max_min_allocate;
/// use inrpp_topology::{spath::Path, Topology};
///
/// let topo = Topology::fig3();
/// let n = |s: &str| topo.node_by_name(s).unwrap();
/// let mut eng = AllocEngine::new(&topo);
/// eng.insert(7, &[
///     Path::new(vec![n("1"), n("2"), n("4")]),
///     Path::new(vec![n("1"), n("2"), n("3"), n("4")]),
/// ]).unwrap();
/// eng.insert(9, &[Path::new(vec![n("1"), n("2"), n("3")])]).unwrap();
/// eng.allocate();
/// // identical to the paper's Fig. 3 INRPP outcome — and bit-identical
/// // to the reference allocator fed the same flows
/// assert!((eng.flow_rates()[0] - 5e6).abs() < 1.0);
/// assert!((eng.flow_rates()[1] - 5e6).abs() < 1.0);
/// ```
#[derive(Debug)]
pub struct AllocEngine {
    paths: FlowPaths,
    scratch: AllocatorScratch,
    /// Active flow keys, ascending — the canonical output order.
    keys: Vec<u64>,
    /// Arena slot per active position (parallel to `keys`).
    slots: Vec<u32>,
    // ---- outputs of the last `allocate()` ----------------------------
    flow_rates: Vec<f64>,
    dir_used: Vec<f64>,
    rounds: usize,
}

impl AllocEngine {
    /// A fresh engine for `topo` with an empty active set.
    pub fn new(topo: &Topology) -> Self {
        AllocEngine {
            paths: FlowPaths::new(topo),
            scratch: AllocatorScratch::new(topo),
            keys: Vec::new(),
            slots: Vec::new(),
            flow_rates: Vec::new(),
            dir_used: Vec::new(),
            rounds: 0,
        }
    }

    /// Number of active flows.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no flow is active.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Active flow keys, ascending; positions index the rate vectors.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// Arena slot of the flow at `pos`.
    #[inline]
    pub fn slot_at(&self, pos: usize) -> usize {
        self.slots[pos] as usize
    }

    /// Admit a flow: resolve its preference-ordered subpaths into the
    /// arena once, keyed by `key` (must be unique among active flows).
    /// Returns the arena slot, which is stable until [`Self::remove`].
    ///
    /// # Panics
    /// Panics if `key` is already active.
    pub fn insert(&mut self, key: u64, paths: &[Path]) -> Result<usize, UnresolvedHop> {
        let idx = match self.keys.binary_search(&key) {
            Ok(_) => panic!("flow key {key} inserted twice"),
            Err(i) => i,
        };
        let slot = self.paths.insert(paths)?;
        self.scratch.admit(&self.paths.slots[slot as usize], slot);
        self.keys.insert(idx, key);
        self.slots.insert(idx, slot);
        Ok(slot as usize)
    }

    /// Retire the flow keyed `key`, freeing its arena slot. Returns the
    /// slot it occupied, or `None` if the key was not active.
    pub fn remove(&mut self, key: u64) -> Option<usize> {
        let idx = self.keys.binary_search(&key).ok()?;
        self.keys.remove(idx);
        let slot = self.slots.remove(idx);
        self.scratch.retire(&self.paths.slots[slot as usize], slot);
        self.paths.remove(slot);
        Some(slot as usize)
    }

    /// Recompute max-min rates for the current active set. Outputs are
    /// readable until the next `insert`/`remove`/`allocate`.
    ///
    /// Each round takes δ over the channels in use, adds it to the open
    /// rate sums, steps every used channel's residual, and moves on only
    /// the flows whose preferred subpath crosses a channel that just
    /// saturated. The module docs give the argument that every result is
    /// bit-identical to the reference allocator's.
    pub fn allocate(&mut self) {
        let s = &mut self.scratch;
        let FlowPaths {
            slots: arena,
            incidence,
            ..
        } = &mut self.paths;
        s.residual.copy_from_slice(&s.caps);
        s.used.copy_from(&s.use0);
        s.preferred.clear();
        s.preferred.extend_from_slice(&s.preferred0);
        // every flow with a round-0 subpath accrues in sum 0
        s.sum_of.clear();
        s.sum_of.resize(s.preferred.len(), 0);
        s.sums.clear();
        s.sums.push(0.0);
        s.holders.clear();
        s.holders.push(s.unfrozen0 as u32);
        s.open.clear();
        s.open.push(0);
        for &slot in &self.slots {
            arena[slot as usize].rates.fill(0.0);
        }
        let mut unfrozen = s.unfrozen0;

        let mut rounds = 0;
        while rounds < MAX_ROUNDS {
            rounds += 1;
            if unfrozen == 0 {
                break;
            }
            let delta = s.delta();
            debug_assert!(delta.is_finite(), "unfrozen flows must use channels");
            // `count[d] > 0` implies `residual[d] > caps[d]·ε` (else the
            // subpath would not have been selectable), so δ is strictly
            // positive and the reference's `if δ > 0` guard is vacuous.
            for &g in &s.open {
                s.sums[g as usize] += delta;
            }
            s.step_residuals(delta);
            // Move on every flow whose preferred subpath crosses a channel
            // that just saturated; flows that move this round share one
            // new sum, created on first use.
            let mut fresh = None;
            for k in 0..s.newly_sat.len() {
                for &(slot, p) in &incidence[s.newly_sat[k] as usize] {
                    if s.preferred[slot as usize] != p {
                        continue;
                    }
                    let data = &mut arena[slot as usize];
                    let held = s.sum_of[slot as usize] as usize;
                    data.rates[p as usize] = s.sums[held];
                    s.holders[held] -= 1;
                    for &d in data.subpath(p as usize) {
                        s.used.remove(d);
                    }
                    match data.first_clear(p as usize + 1, &s.residual, &s.caps) {
                        Some(q) => {
                            for &d in data.subpath(q as usize) {
                                s.used.add(d);
                            }
                            let g = *fresh.get_or_insert_with(|| {
                                let g = s.sums.len() as u32;
                                s.sums.push(0.0);
                                s.holders.push(0);
                                s.open.push(g);
                                g
                            });
                            s.holders[g as usize] += 1;
                            s.sum_of[slot as usize] = g;
                            s.preferred[slot as usize] = q;
                        }
                        None => {
                            s.preferred[slot as usize] = FROZEN;
                            unfrozen -= 1;
                        }
                    }
                }
            }
            let holders = &s.holders;
            s.open.retain(|&g| holders[g as usize] > 0);
        }
        debug_assert!(rounds < MAX_ROUNDS, "allocator failed to converge");
        if unfrozen > 0 {
            // stopped at the round bound: store the sums still open
            for &slot in &self.slots {
                let p = s.preferred[slot as usize];
                if p != FROZEN {
                    arena[slot as usize].rates[p as usize] =
                        s.sums[s.sum_of[slot as usize] as usize];
                }
            }
        }
        self.rounds = rounds;

        self.flow_rates.clear();
        for &slot in &self.slots {
            self.flow_rates
                .push(arena[slot as usize].rates.iter().sum());
        }
        self.dir_used.clear();
        for (cap, residual) in s.caps.iter().zip(&s.residual) {
            self.dir_used.push(cap - residual);
        }
    }

    /// Total rate per active flow (bits/s), in key order.
    pub fn flow_rates(&self) -> &[f64] {
        &self.flow_rates
    }

    /// Rate per subpath of the flow at `pos` (bits/s, preference order).
    #[inline]
    pub fn subpath_rates(&self, pos: usize) -> &[f64] {
        &self.paths.slots[self.slots[pos] as usize].rates
    }

    /// Bits/s consumed on every directed channel.
    pub fn dir_used(&self) -> &[f64] {
        &self.dir_used
    }

    /// Filling rounds of the last allocation (diagnostics).
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Degrade (or restore) both directions of `link` to `factor` of base
    /// capacity for all subsequent allocations; `0` takes the link down.
    pub fn set_link_capacity_factor(&mut self, link: usize, factor: f64) {
        self.scratch
            .set_link_capacity_factor(link, factor, &self.paths.slots, &self.slots);
    }

    /// Mean utilisation over directed channels that carry any capacity —
    /// same semantics as [`crate::allocator::Allocation::mean_utilisation`].
    pub fn mean_utilisation(&self) -> f64 {
        let mut sum = 0.0;
        let mut carrying = 0usize;
        for (d, &used) in self.dir_used.iter().enumerate() {
            let cap = self.scratch.caps[d];
            if cap > 0.0 {
                sum += (used / cap).min(1.0);
                carrying += 1;
            }
        }
        if carrying == 0 {
            0.0
        } else {
            sum / carrying as f64
        }
    }

    /// Add `utilisation × dt` per directed channel into `acc` — the
    /// time-weighted accumulation the simulator keeps, without the
    /// per-event vector the reference `dir_utilisation` would allocate.
    pub fn accumulate_channel_utilisation(&self, dt: f64, acc: &mut [f64]) {
        for (d, w) in acc.iter_mut().enumerate() {
            let cap = self.scratch.caps[d];
            let u = if cap <= 0.0 {
                0.0
            } else {
                (self.dir_used[d] / cap).min(1.0)
            };
            *w += u * dt;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::max_min_allocate;
    use inrpp_sim::time::SimDuration;
    use inrpp_sim::units::Rate;
    use inrpp_topology::graph::NodeId;

    /// Engine output must be bit-identical to the reference allocator.
    fn assert_matches_reference(topo: &Topology, keyed: &[(u64, Vec<Path>)]) {
        let mut eng = AllocEngine::new(topo);
        let mut sorted = keyed.to_vec();
        sorted.sort_by_key(|(k, _)| *k);
        for (k, paths) in keyed {
            eng.insert(*k, paths).unwrap();
        }
        eng.allocate();
        let flows: Vec<Vec<Path>> = sorted.iter().map(|(_, p)| p.clone()).collect();
        let reference = max_min_allocate(topo, &flows);
        assert_eq!(eng.flow_rates(), reference.flow_rates.as_slice());
        assert_eq!(eng.dir_used(), reference.dir_used.as_slice());
        assert_eq!(eng.rounds(), reference.rounds);
        for (pos, want) in reference.subpath_rates.iter().enumerate() {
            assert_eq!(eng.subpath_rates(pos), want.as_slice());
        }
        assert_eq!(eng.mean_utilisation(), reference.mean_utilisation(topo));
    }

    fn fig3_keyed() -> (Topology, Vec<(u64, Vec<Path>)>) {
        let topo = Topology::fig3();
        let n = |s: &str| topo.node_by_name(s).unwrap();
        let keyed = vec![
            (
                10u64,
                vec![
                    Path::new(vec![n("1"), n("2"), n("4")]),
                    Path::new(vec![n("1"), n("2"), n("3"), n("4")]),
                ],
            ),
            (4u64, vec![Path::new(vec![n("1"), n("2"), n("3")])]),
        ];
        (topo, keyed)
    }

    #[test]
    fn matches_reference_on_fig3() {
        let (topo, keyed) = fig3_keyed();
        assert_matches_reference(&topo, &keyed);
    }

    #[test]
    fn matches_reference_after_churn() {
        // insert three, remove the middle key, re-insert with new paths:
        // the surviving set must still match a from-scratch reference run
        let topo = Topology::fig3();
        let n = |s: &str| topo.node_by_name(s).unwrap();
        let a = vec![
            Path::new(vec![n("1"), n("2"), n("4")]),
            Path::new(vec![n("1"), n("2"), n("3"), n("4")]),
        ];
        let b = vec![Path::new(vec![n("1"), n("2"), n("3")])];
        let c = vec![Path::new(vec![n("4"), n("3"), n("2")])];
        let mut eng = AllocEngine::new(&topo);
        eng.insert(1, &a).unwrap();
        eng.insert(2, &b).unwrap();
        eng.insert(3, &c).unwrap();
        eng.allocate();
        assert_eq!(eng.remove(2), Some(1));
        assert_eq!(eng.remove(2), None, "double remove is a no-op");
        // the freed slot is recycled for the next insert
        let slot = eng.insert(9, &b).unwrap();
        assert_eq!(slot, 1);
        eng.allocate();
        let reference = max_min_allocate(&topo, &[a, c, b]); // key order 1, 3, 9
        assert_eq!(eng.flow_rates(), reference.flow_rates.as_slice());
        assert_eq!(eng.dir_used(), reference.dir_used.as_slice());
        assert_eq!(eng.keys(), &[1, 3, 9]);
    }

    #[test]
    fn matches_reference_with_unroutable_flow() {
        let (topo, mut keyed) = fig3_keyed();
        keyed.push((7, Vec::new())); // unroutable: empty subpath list
        assert_matches_reference(&topo, &keyed);
    }

    #[test]
    fn matches_reference_on_shared_bottleneck() {
        let topo = Topology::dumbbell(
            4,
            Rate::mbps(100.0),
            Rate::mbps(10.0),
            SimDuration::from_millis(1),
        );
        let keyed: Vec<(u64, Vec<Path>)> = (0..4)
            .map(|i| {
                (
                    i as u64 * 3 + 1,
                    vec![Path::new(vec![
                        NodeId(i),
                        NodeId(4),
                        NodeId(5),
                        NodeId(6 + i),
                    ])],
                )
            })
            .collect();
        assert_matches_reference(&topo, &keyed);
    }

    #[test]
    fn unresolved_hop_is_a_typed_error_and_leaks_nothing() {
        let topo = Topology::fig3();
        let n = |s: &str| topo.node_by_name(s).unwrap();
        let mut eng = AllocEngine::new(&topo);
        let bad = vec![Path::new(vec![n("1"), n("4")])];
        let err = eng.insert(1, &bad).unwrap_err();
        assert_eq!(err.from, n("1"));
        assert_eq!(err.to, n("4"));
        assert!(eng.is_empty());
        // the slot probed by the failed insert is reusable
        eng.insert(1, &[Path::new(vec![n("1"), n("2")])]).unwrap();
        eng.allocate();
        assert_eq!(eng.len(), 1);
        assert!((eng.flow_rates()[0] - 10e6).abs() < 1.0);
        assert_eq!(
            eng.paths.slots.len(),
            1,
            "failed insert left no slot behind"
        );
    }

    #[test]
    fn empty_active_set_allocates_to_nothing() {
        let topo = Topology::fig3();
        let mut eng = AllocEngine::new(&topo);
        eng.allocate();
        assert!(eng.flow_rates().is_empty());
        assert!(eng.dir_used().iter().all(|&u| u == 0.0));
        assert_eq!(eng.mean_utilisation(), 0.0);
    }

    #[test]
    fn accumulate_channel_utilisation_matches_reference_weighting() {
        let (topo, keyed) = fig3_keyed();
        let mut eng = AllocEngine::new(&topo);
        for (k, p) in &keyed {
            eng.insert(*k, p).unwrap();
        }
        eng.allocate();
        let flows: Vec<Vec<Path>> = {
            let mut s = keyed.clone();
            s.sort_by_key(|(k, _)| *k);
            s.into_iter().map(|(_, p)| p).collect()
        };
        let reference = max_min_allocate(&topo, &flows);
        let dt = 0.25;
        let mut acc = vec![0.0; topo.link_count() * 2];
        eng.accumulate_channel_utilisation(dt, &mut acc);
        let want: Vec<f64> = reference
            .dir_utilisation(&topo)
            .into_iter()
            .map(|u| u * dt)
            .collect();
        assert_eq!(acc, want);
    }
}
