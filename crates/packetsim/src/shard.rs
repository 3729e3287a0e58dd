//! Sharded (multi-threaded) execution of the packet engine with a
//! byte-identity guarantee.
//!
//! A sharded run partitions the topology into regions (see
//! `inrpp_topology::partition`), gives every region its own `Core` and
//! calendar, and drives the regions in lockstep windows on scoped worker
//! threads via [`inrpp_sim::shard::run_sharded`]. The determinism
//! contract is absolute: for **any** worker count and **any** partition,
//! the produced [`PacketSimReport`] and the probe stream are
//! byte-identical (`f64` bits included) to the sequential
//! [`PacketSim::try_run_probed`](crate::PacketSim::try_run_probed) run —
//! enforced by `tests/shard_equivalence.rs`.
//!
//! ## How identity is preserved
//!
//! * **Conservative lookahead.** The window width never exceeds Δ, the
//!   minimum propagation delay over *cut* channels, so a packet emitted
//!   inside a window always arrives strictly after the window's closing
//!   barrier — regions can drain whole windows without peeking at each
//!   other.
//! * **Barrier ladder.** Barriers are `{0}` ∪ every receiver rx-check
//!   rung ≤ horizon ∪ a Δ-walk fill, ending exactly at the horizon. The
//!   rungs matter because an expired rx-check pushes retransmit state
//!   into the *sender's* region at that very instant — the one
//!   zero-delay cross-region coupling in the engine. Those pushes travel
//!   as `RxCmd`s and are applied at the barrier, merged across regions
//!   in the exact sequential order (see `cmp_rx_cmds`).
//! * **Control schedule.** A flow's `Start` runs where the receiver
//!   lives, but it also kicks the *sender* at the same instant. Each
//!   region pre-computes the kick schedule for its own senders and
//!   inserts each kick exactly when its clock reaches the start instant
//!   (before popping any event at it), which reproduces the sequential
//!   (time, seq) position; kicks landing exactly on a barrier are
//!   deferred to the barrier's second phase.
//! * **Second phases on demand.** Deferred kicks and retransmit commands
//!   are the only work a region can have at a barrier instant itself, so
//!   a region raises its barrier-work bit exactly when it holds either
//!   after phase 1. Every other window closes with one exchange: the
//!   boundary packets it carries all arrive strictly after the barrier.
//! * **Deterministic merges.** Each region keeps one outbox per
//!   destination region, packets and commands together, and every outbox
//!   crosses as one batch. A region joins the batches it receives in
//!   sender order and sorts the packets stably by arrival, so they are
//!   injected in `(arrival, sender region, per-sender order)`. After the
//!   last window every region's owned state folds into one `Core`
//!   (channels by the owner of their source node, receivers by the owner
//!   of their destination, phase controllers by node owner, counters
//!   summed), and that core assembles the report exactly as a sequential
//!   run does. Probe streams merge by time, class and region.
//!
//! ## Preconditions (validated, typed errors)
//!
//! Sharded runs reject configurations the protocol cannot replay
//! byte-identically: load-aware detouring (reads *remote* queue state
//! mid-window) and zero-delay cut channels (no lookahead). The ladder
//! steps by half a receiver timeout, which is 1 ns or more in every run:
//! the timeouts are the constants `RECEIVER_TIMEOUT` and `AIMD_RTO`, and a
//! `const` assertion in `packet.rs` holds both at 2 ns or more. A ladder
//! of more than a million barriers (rx-check rungs plus lookahead steps
//! over the horizon) is refused before any of it is built. One
//! precondition is on the *scenario*, documented rather than checked:
//! channel-derived instants (packet arrivals, drain and back-pressure
//! expiries) must not collide with ladder instants or each other across
//! regions — guaranteed in practice by non-commensurate link parameters
//! (odd-nanosecond delays vs. millisecond-round timers), which every
//! fixture and generator in the test-suite uses.

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::sync::Arc;

use inrpp::session::{FlowEnd, FlowStart, Probe, ProbeSet, Sample, SessionError};
use inrpp_sim::calendar::CalendarEngine;
use inrpp_sim::fault::FaultPlan;
use inrpp_sim::shard::{run_sharded, ShardWorker};
use inrpp_sim::time::{SimDuration, SimTime};
use inrpp_topology::graph::{NodeId, Topology};
use inrpp_topology::partition::Partition;

use crate::engine::{Batch, Core, Ev, RegionCtx, RxCmd};
use crate::packet::{
    FlowTransport, PacketSimConfig, TransferSpec, TransportKind, AIMD_RTO, RECEIVER_TIMEOUT,
};
use crate::report::PacketSimReport;

/// Per-slot timer schedule shared by every worker: flow starts plus the
/// precomputed rx-check rungs ≤ horizon (the instants `queue_retransmit`
/// can fire at). Doubles as the oracle for ordering same-instant
/// [`RxCmd`]s from different regions.
struct Ladder {
    starts: Vec<SimTime>,
    rungs: Vec<Vec<SimTime>>,
}

/// One recorded probe event with its class for the merge (flow starts
/// order before deliveries at the same instant — sequentially, `Start`
/// events hold the smallest sequence numbers of the run).
enum RecEv {
    Start(FlowStart),
    End(FlowEnd),
    Sample(Sample),
}

/// Region-local [`Probe`] that records the stream for the post-run merge.
#[derive(Default)]
struct Recorder {
    events: Vec<RecEv>,
}

impl Probe for Recorder {
    fn on_flow_start(&mut self, ev: &FlowStart) {
        self.events.push(RecEv::Start(*ev));
    }

    fn on_flow_end(&mut self, ev: &FlowEnd) {
        self.events.push(RecEv::End(*ev));
    }

    fn on_sample(&mut self, ev: &Sample) {
        self.events.push(RecEv::Sample(*ev));
    }
}

/// One region: a full [`Core`] (only locally-owned state is ever
/// touched), its calendar, the sender-kick control schedule, and a probe
/// recorder.
struct RegionWorker<'a> {
    core: Core<'a>,
    eng: CalendarEngine<Ev>,
    /// `(start, slot, src)` for senders owned here, sorted `(start, slot)`
    controls: Vec<(SimTime, u32, NodeId)>,
    ctrl_cursor: usize,
    /// start-kicks landing exactly on the current barrier, slot order
    deferred: Vec<NodeId>,
    ladder: Arc<Ladder>,
    recorder: Recorder,
    recording: bool,
    err: Option<SessionError>,
}

impl RegionWorker<'_> {
    fn step(&mut self, now: SimTime, ev: Ev) {
        let res = if self.recording {
            let mut arr: [&mut dyn Probe; 1] = [&mut self.recorder];
            let mut ps = ProbeSet::new(&mut arr);
            self.core.step(&mut self.eng, now, ev, &mut ps)
        } else {
            self.core
                .step(&mut self.eng, now, ev, &mut ProbeSet::new(&mut []))
        };
        if let Err(e) = res {
            self.err = Some(e);
        }
    }

    fn outboxes(&mut self) -> &mut [Batch] {
        &mut self.core.region.as_mut().expect("region mode").outboxes
    }

    /// Inject the received boundary packets by `(arrival, sender region,
    /// sender order)` — the batches are joined in sender order and the
    /// sort is stable — and return the retransmit commands, joined the
    /// same way.
    fn inject(&mut self, inbox: Vec<Batch>) -> Vec<RxCmd> {
        let mut wires = Vec::with_capacity(inbox.iter().map(|b| b.wires.len()).sum());
        let mut cmds = Vec::new();
        for b in inbox {
            wires.extend(b.wires);
            cmds.extend(b.cmds);
        }
        wires.sort_by_key(|w| w.arrival);
        for w in wires {
            self.core.inject_wire(&mut self.eng, w);
        }
        cmds
    }

    /// Hand over the outboxes, one batch per destination region, leaving
    /// them empty.
    fn drain_boundary(&mut self) -> Vec<Batch> {
        self.outboxes().iter_mut().map(std::mem::take).collect()
    }
}

impl ShardWorker for RegionWorker<'_> {
    type Batch = Batch;

    fn advance(&mut self, barrier: SimTime) -> (Vec<Batch>, bool) {
        while self.err.is_none() {
            // Insert sender-kick controls the moment the clock reaches
            // their instant — before popping any event at it, which
            // reproduces the sequential `(time, seq)` position (the
            // sequential `Start` pops first at its instant, so its kick
            // precedes every same-instant descendant). Kicks at the
            // barrier itself are deferred to `finish_window`.
            while let Some(&(k, _, src)) = self.controls.get(self.ctrl_cursor) {
                if k > barrier {
                    break;
                }
                if let Some(t) = self.eng.peek_time() {
                    if t < k {
                        break;
                    }
                }
                self.ctrl_cursor += 1;
                if k == barrier {
                    self.deferred.push(src);
                } else {
                    self.core.schedule_kick_at(&mut self.eng, src, k);
                }
            }
            match self.eng.next_at_or_before(barrier) {
                Some((now, ev)) => self.step(now, ev),
                None => break,
            }
        }
        // work at the barrier instant: deferred kicks, and retransmit
        // commands from rx-checks on this rung
        let work = !self.deferred.is_empty() || self.outboxes().iter().any(|b| !b.cmds.is_empty());
        (self.drain_boundary(), work)
    }

    fn finish_window(&mut self, barrier: SimTime, inbox: Vec<Batch>) -> Vec<Batch> {
        if self.err.is_some() {
            return self.drain_boundary();
        }
        // (a) boundary packets
        let mut cmds = self.inject(inbox);
        // (b) start-kicks deferred at this barrier (slot order) — their
        // sequential counterparts were scheduled by `Start` pops, which
        // precede every rx-check at the same instant
        for src in std::mem::take(&mut self.deferred) {
            self.core.schedule_kick_at(&mut self.eng, src, barrier);
        }
        // (c) retransmit commands, globally ordered by the rung oracle
        let ladder = Arc::clone(&self.ladder);
        cmds.sort_by(|a, b| cmp_rx_cmds(&ladder, a.slot, b.slot, barrier));
        for cmd in &cmds {
            self.core.apply_rx_cmd(&mut self.eng, barrier, cmd);
        }
        // (d) drain everything the barrier instant spawned (kicks and
        // their same-instant descendants)
        while self.err.is_none() {
            match self.eng.next_at_or_before(barrier) {
                Some((now, ev)) => self.step(now, ev),
                None => break,
            }
        }
        let out = self.drain_boundary();
        debug_assert!(
            self.err.is_some() || out.iter().all(|b| b.cmds.is_empty()),
            "rx-checks never fire during a barrier's second phase"
        );
        out
    }

    fn absorb(&mut self, inbox: Vec<Batch>) {
        if self.err.is_some() {
            return;
        }
        let cmds = self.inject(inbox);
        debug_assert!(
            cmds.is_empty(),
            "an inbox carrying commands always gets a second phase"
        );
    }
}

/// Sequential order of two same-instant retransmit commands: by the
/// instant their rx-check events were *scheduled* at (earlier schedule =
/// smaller sequence number = pops first). A first rung was scheduled by
/// its flow's `Start` (which pops before any run-scheduled event at the
/// same instant); ties between first rungs follow slot order (bootstrap
/// sequence numbers ascend by slot); ties between later rungs recurse on
/// the previous rungs.
fn cmp_rx_cmds(ladder: &Ladder, a: u32, b: u32, t: SimTime) -> Ordering {
    if a == b {
        return Ordering::Equal;
    }
    let sched = |slot: u32| -> (SimTime, bool) {
        let rungs = &ladder.rungs[slot as usize];
        let idx = rungs
            .binary_search(&t)
            .expect("rx commands fire on ladder rungs");
        if idx == 0 {
            (ladder.starts[slot as usize], true)
        } else {
            (rungs[idx - 1], false)
        }
    };
    let (sa, first_a) = sched(a);
    let (sb, first_b) = sched(b);
    sa.cmp(&sb).then_with(|| match (first_a, first_b) {
        (true, true) => a.cmp(&b),
        (true, false) => Ordering::Less,
        (false, true) => Ordering::Greater,
        (false, false) => cmp_rx_cmds(ladder, a, b, sa),
    })
}

fn invalid(msg: impl Into<String>) -> SessionError {
    SessionError::InvalidConfig(msg.into())
}

/// The most barriers a sharded run may cross. The ladder is built whole
/// before the first window, and every barrier costs a handshake, so a
/// timer or a lookahead far below the horizon is refused up front.
const MAX_BARRIERS: u64 = 1_000_000;

/// Validate the configuration/partition pair, size the barrier ladder,
/// and compute the lookahead: `None` means "no cut channels" (single
/// effective region — unbounded windows).
fn validate(
    topo: &Topology,
    cfg: &PacketSimConfig,
    transfers: &[(TransferSpec, FlowTransport)],
    partition: &Partition,
) -> Result<Option<SimDuration>, SessionError> {
    if partition.assignment().len() != topo.node_count() {
        return Err(invalid(format!(
            "partition covers {} nodes but the topology has {}",
            partition.assignment().len(),
            topo.node_count()
        )));
    }
    if let TransportKind::Inrpp(ic) | TransportKind::Mixed { inrpp: ic, .. } = &cfg.transport {
        if ic.load_aware_detour {
            return Err(invalid(
                "load-aware detouring reads remote queue state mid-window; \
                 sharded runs require load_aware_detour = false",
            ));
        }
    }
    let mut lookahead: Option<SimDuration> = None;
    for cut in partition.cut_channels(topo) {
        let delay = topo.link(cut.link).delay;
        if delay.is_zero() {
            return Err(invalid(format!(
                "cut channel {} -> {} has zero propagation delay: sharded runs \
                 need positive delay on every inter-region link (it bounds the \
                 conservative lookahead)",
                cut.from, cut.to
            )));
        }
        lookahead = Some(lookahead.map_or(delay, |l| l.min(delay)));
    }
    // count the ladder before building it: every rx-check rung (over the
    // transfers as given, so a repeated flow counts twice), plus at most
    // one Δ-walk fill per lookahead step of the horizon
    let horizon = SimTime::ZERO + cfg.horizon;
    let rungs = transfers
        .iter()
        .filter_map(|(spec, kind)| rung_chain(spec, *kind, horizon))
        .map(|(first, step)| 1 + horizon.duration_since(first).as_nanos() / step.as_nanos())
        .fold(0, u64::saturating_add);
    let fills = lookahead.map_or(0, |d| cfg.horizon.as_nanos() / d.as_nanos());
    if rungs.saturating_add(fills) > MAX_BARRIERS {
        return Err(invalid(format!(
            "the barrier ladder would hold {rungs} rx-check rungs and {fills} lookahead \
             steps; a sharded run crosses at most {MAX_BARRIERS} barriers"
        )));
    }
    Ok(lookahead)
}

/// The barrier ladder: `{0}` ∪ every rung ≤ horizon ∪ a Δ-walk fill so no
/// window exceeds the lookahead, closing exactly at the horizon.
fn build_barriers(
    ladder: &Ladder,
    horizon: SimTime,
    lookahead: Option<SimDuration>,
) -> Vec<SimTime> {
    let mut set: BTreeSet<SimTime> = BTreeSet::new();
    set.insert(SimTime::ZERO);
    set.insert(horizon);
    for rungs in &ladder.rungs {
        for &r in rungs {
            set.insert(r);
        }
    }
    if let Some(delta) = lookahead {
        let mut fill = Vec::new();
        let mut prev = SimTime::ZERO;
        for &b in &set {
            while b.duration_since(prev) > delta {
                prev += delta;
                fill.push(prev);
            }
            prev = b;
        }
        set.extend(fill);
    }
    set.into_iter().collect()
}

/// A slot's rx-check rungs ≤ horizon as `(first, step)`, matching the
/// engine's timer chain exactly: the first check at `start +`
/// [`RECEIVER_TIMEOUT`], then one every `timeout/2`, where the timeout is
/// [`AIMD_RTO`] for AIMD flows. `None` when no rung lies within the
/// horizon.
fn rung_chain(
    spec: &TransferSpec,
    kind: FlowTransport,
    horizon: SimTime,
) -> Option<(SimTime, SimDuration)> {
    let timeout = match kind {
        FlowTransport::Aimd => AIMD_RTO,
        FlowTransport::Inrpp => RECEIVER_TIMEOUT,
    };
    let first = spec
        .start
        .checked_add(RECEIVER_TIMEOUT)
        .filter(|&t| t <= horizon)?;
    Some((first, timeout / 2))
}

/// Per-slot rx-check rung instants ≤ horizon (see [`rung_chain`]).
fn build_ladder(specs: &[TransferSpec], kinds: &[FlowTransport], horizon: SimTime) -> Ladder {
    let rungs = specs
        .iter()
        .zip(kinds)
        .map(|(spec, &kind)| {
            let mut row = Vec::new();
            if let Some((mut t, step)) = rung_chain(spec, kind, horizon) {
                while t <= horizon {
                    row.push(t);
                    t += step;
                }
            }
            row
        })
        .collect();
    Ladder {
        starts: specs.iter().map(|s| s.start).collect(),
        rungs,
    }
}

/// Replay the merged probe stream: flow starts order before same-instant
/// deliveries and ascend by flow (their sequential `Start` events hold
/// bootstrap sequence numbers); delivery-class events keep their
/// per-region order, tie-broken by region. Cumulative sample volumes are
/// recomputed in merged order: each region's recorded samples carry its
/// *local* delivery count, so the per-region delta (a step may deliver
/// several chunks but emits one sample) rebuilds the global count.
fn replay_probes(workers: &mut [RegionWorker<'_>], chunk_bits: f64, probes: &mut ProbeSet<'_, '_>) {
    let mut merged: Vec<(SimTime, u8, u64, usize, usize, RecEv)> = Vec::new();
    for (region, w) in workers.iter_mut().enumerate() {
        for (idx, ev) in w.recorder.events.drain(..).enumerate() {
            let (time, class, flow) = match &ev {
                RecEv::Start(s) => (s.time, 0u8, s.flow),
                RecEv::End(e) => (e.time, 1, 0),
                RecEv::Sample(s) => (s.time, 1, 0),
            };
            merged.push((time, class, flow, region, idx, ev));
        }
    }
    merged.sort_by_key(|&(time, class, flow, region, idx, _)| (time, class, flow, region, idx));
    let mut local_cum = vec![0u64; workers.len()];
    let mut delivered = 0u64;
    for (_, _, _, region, _, ev) in merged {
        match ev {
            RecEv::Start(s) => probes.flow_start(&s),
            RecEv::End(e) => probes.flow_end(&e),
            RecEv::Sample(mut s) => {
                // exact: delivered_bits = local_count * chunk_bits with
                // both factors integral and well under 2^53
                let cum = (s.delivered_bits / chunk_bits).round() as u64;
                delivered += cum - local_cum[region];
                local_cum[region] = cum;
                s.delivered_bits = delivered as f64 * chunk_bits;
                probes.sample(&s);
            }
        }
    }
}

/// Execute one sharded run: build a worker per partition region, drive
/// them through the barrier ladder under `std::thread::scope`, and fold
/// them into the sequential report.
pub(crate) fn run_partitioned(
    topo: &Topology,
    cfg: PacketSimConfig,
    transfers: Vec<(TransferSpec, FlowTransport)>,
    faults: FaultPlan,
    partition: &Partition,
    probes: &mut [&mut dyn Probe],
) -> Result<PacketSimReport, SessionError> {
    let recording = !probes.is_empty();
    let (workers, barriers) = build_regions(topo, cfg, transfers, faults, partition, recording)?;
    let workers = run_sharded(workers, &barriers);
    fold_regions(workers, cfg.chunk_bytes.as_bits() as f64, probes)
}

/// One worker per partition region, each a bootstrapped [`Core`] with
/// the kick schedule of its own senders, and the barriers they cross.
fn build_regions<'a>(
    topo: &'a Topology,
    cfg: PacketSimConfig,
    transfers: Vec<(TransferSpec, FlowTransport)>,
    faults: FaultPlan,
    partition: &Partition,
    recording: bool,
) -> Result<(Vec<RegionWorker<'a>>, Vec<SimTime>), SessionError> {
    let lookahead = validate(topo, &cfg, &transfers, partition)?;
    let horizon = SimTime::ZERO + cfg.horizon;
    let regions = partition.regions();
    let region_of: Arc<Vec<u32>> = Arc::new(partition.assignment().to_vec());

    // every region carries the full plan: fault state (down channels,
    // crashed nodes, rates) is replicated; node-local side effects
    // materialise only in the owner region
    let mut cores = Vec::with_capacity(regions);
    for me in 0..regions {
        let mut core = Core::build(topo, cfg, transfers.clone(), faults.clone())?;
        core.region = Some(RegionCtx {
            region_of: Arc::clone(&region_of),
            me: me as u32,
            outboxes: (0..regions).map(|_| Batch::default()).collect(),
        });
        cores.push(core);
    }
    let first = cores.first().expect("at least one region");
    let ladder = Arc::new(build_ladder(&first.specs, &first.kinds, horizon));
    let workers = cores
        .into_iter()
        .enumerate()
        .map(|(me, core)| {
            let mut controls: Vec<(SimTime, u32, NodeId)> = core
                .specs
                .iter()
                .enumerate()
                .filter(|(_, s)| region_of[s.src.idx()] as usize == me && s.start <= horizon)
                .map(|(slot, s)| (s.start, slot as u32, s.src))
                .collect();
            controls.sort_by_key(|&(t, slot, _)| (t, slot));
            let eng = core.bootstrap();
            RegionWorker {
                core,
                eng,
                controls,
                ctrl_cursor: 0,
                deferred: Vec::new(),
                ladder: Arc::clone(&ladder),
                recorder: Recorder::default(),
                recording,
                err: None,
            }
        })
        .collect();
    Ok((workers, build_barriers(&ladder, horizon, lookahead)))
}

/// Fold the regions, every window run, into one core whose report is the
/// sequential one, after replaying their merged probe stream.
fn fold_regions(
    mut workers: Vec<RegionWorker<'_>>,
    chunk_bits: f64,
    probes: &mut [&mut dyn Probe],
) -> Result<PacketSimReport, SessionError> {
    for w in &mut workers {
        if let Some(e) = w.err.take() {
            return Err(e);
        }
    }
    if !probes.is_empty() {
        replay_probes(&mut workers, chunk_bits, &mut ProbeSet::new(probes));
    }
    let mut cores = workers.into_iter().map(|w| w.core);
    let mut core = cores.next().expect("at least one region");
    for region in cores {
        core.absorb_region(region);
    }
    Ok(core.assemble_report())
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use inrpp::config::InrppConfig;
    use inrpp_sim::fault::FaultPlan;
    use inrpp_sim::shard::{run_sharded, ShardWorker};
    use inrpp_sim::time::{SimDuration, SimTime};
    use inrpp_sim::units::Rate;
    use inrpp_topology::graph::Topology;
    use inrpp_topology::partition::{ContiguousPartitioner, Partitioner};

    use super::{build_regions, fold_regions, RegionWorker};
    use crate::engine::{Batch, PacketSim};
    use crate::packet::{FlowTransport, PacketSimConfig, TransferSpec, TransportKind};
    use crate::report::PacketSimReport;

    use inrpp::session::{FlowEnd, FlowStart, Probe, Sample, SessionError};

    /// Bit-exact probe fingerprint (`f64` via `to_bits`).
    #[derive(Default, PartialEq, Debug)]
    struct Tape(Vec<(u8, SimTime, u64, u64, u64)>);

    impl Probe for Tape {
        fn on_flow_start(&mut self, ev: &FlowStart) {
            self.0.push((
                0,
                ev.time,
                ev.flow,
                ev.size_bits.to_bits(),
                ev.subpaths as u64,
            ));
        }
        fn on_flow_end(&mut self, ev: &FlowEnd) {
            self.0.push((
                1,
                ev.time,
                ev.flow,
                ev.delivered_bits.to_bits(),
                ev.fct_secs.to_bits(),
            ));
        }
        fn on_sample(&mut self, ev: &Sample) {
            self.0.push((2, ev.time, 0, ev.delivered_bits.to_bits(), 0));
        }
    }

    /// Bit-exact report fingerprint.
    fn fingerprint(r: &PacketSimReport) -> String {
        use std::fmt::Write;
        let mut s = format!(
            "{}|{}|{:?}|{}|{}|{}|{}|{}|{}|{:?}|{}|{:?}|{}",
            r.transport,
            r.topology,
            r.horizon,
            r.chunks_delivered,
            r.chunks_dropped,
            r.chunks_detoured,
            r.chunks_custodied,
            r.chunks_rescued,
            r.backpressure_msgs,
            r.custody_peak,
            r.mean_utilisation.to_bits(),
            r.chunk_bytes,
            r.phase_transitions,
        );
        for u in &r.channel_utilisation {
            write!(s, "|{}", u.to_bits()).unwrap();
        }
        for b in &r.channel_bits_sent {
            write!(s, "|{}", b.to_bits()).unwrap();
        }
        for f in &r.flows {
            write!(
                s,
                "|{}:{}:{}:{:?}:{:?}:{}:{}:{}:{}:{:?}",
                f.flow,
                f.chunks_total,
                f.chunks_delivered,
                f.started_at,
                f.completed_at,
                f.retransmits,
                f.max_reorder_distance,
                f.detours,
                f.custody_rescues,
                f.outage_delay
            )
            .unwrap();
        }
        s
    }

    fn scenario() -> (Topology, PacketSimConfig, Vec<TransferSpec>) {
        // non-commensurate parameters: odd-ns delays and fractional Mbps
        // against millisecond-round timers (the collision precondition)
        let topo = Topology::line(6, Rate::mbps(9.7), SimDuration::from_nanos(1_300_017));
        let cfg = PacketSimConfig {
            horizon: SimDuration::from_secs(12),
            seed: 5,
            transport: TransportKind::Inrpp(InrppConfig {
                load_aware_detour: false,
                ..InrppConfig::default()
            }),
            // 0.02 drop and 0.01 corrupt, folded: d + (1 - d)c
            drop_chance: 0.0298,
            ..PacketSimConfig::default()
        };
        let ids: Vec<_> = topo.node_ids().collect();
        let transfers = vec![
            TransferSpec {
                flow: 1,
                src: ids[0],
                dst: ids[5],
                chunks: 220,
                start: SimTime::ZERO,
            },
            TransferSpec {
                flow: 2,
                src: ids[5],
                dst: ids[1],
                chunks: 150,
                start: SimTime::from_millis(137),
            },
            TransferSpec {
                flow: 3,
                src: ids[2],
                dst: ids[4],
                chunks: 80,
                start: SimTime::from_millis(449),
            },
        ];
        (topo, cfg, transfers)
    }

    fn run_seq(topo: &Topology, cfg: PacketSimConfig, tr: &[TransferSpec]) -> (String, Tape) {
        let mut sim = PacketSim::new(topo, cfg);
        for t in tr {
            sim.add_transfer(*t);
        }
        let mut tape = Tape::default();
        let r = sim
            .try_run_probed(&mut [&mut tape])
            .expect("sequential run");
        (fingerprint(&r), tape)
    }

    #[test]
    fn sharded_run_matches_sequential_bit_for_bit() {
        let (topo, cfg, tr) = scenario();
        let baseline = run_seq(&topo, cfg, &tr);
        for workers in [1usize, 2, 3, 4] {
            for seed in [0u64, 7] {
                let mut sim = PacketSim::new(&topo, cfg);
                for t in &tr {
                    sim.add_transfer(*t);
                }
                let mut tape = Tape::default();
                let r = sim
                    .try_run_sharded_probed(workers, seed, &mut [&mut tape])
                    .expect("sharded run");
                assert_eq!(
                    baseline.0,
                    fingerprint(&r),
                    "report diverged at workers={workers} seed={seed}"
                );
                assert_eq!(
                    baseline.1, tape,
                    "probe stream diverged at workers={workers} seed={seed}"
                );
            }
        }
    }

    #[test]
    fn explicit_partition_matches_sequential() {
        let (topo, cfg, tr) = scenario();
        let baseline = run_seq(&topo, cfg, &tr);
        for regions in [2usize, 3, 6] {
            let p = ContiguousPartitioner.partition(&topo, regions);
            let mut sim = PacketSim::new(&topo, cfg);
            for t in &tr {
                sim.add_transfer(*t);
            }
            let mut tape = Tape::default();
            let r = sim
                .try_run_partitioned_probed(&p, &mut [&mut tape])
                .expect("partitioned run");
            assert_eq!(
                baseline.0,
                fingerprint(&r),
                "report diverged at {regions} contiguous regions"
            );
            assert_eq!(
                baseline.1, tape,
                "probe stream diverged at {regions} contiguous regions"
            );
        }
    }

    #[test]
    fn sharding_preconditions_are_typed_errors() {
        let (topo, cfg, tr) = scenario();
        let sharded = |cfg: PacketSimConfig, workers: usize| {
            let mut sim = PacketSim::try_new(&topo, cfg)?;
            for t in &tr {
                sim.add_transfer(*t);
            }
            sim.try_run_sharded(workers, 1)
        };
        let invalid = |r: Result<PacketSimReport, SessionError>| {
            assert!(matches!(r, Err(SessionError::InvalidConfig(_))));
        };
        invalid(sharded(cfg, 0));
        invalid(sharded(
            PacketSimConfig {
                transport: TransportKind::Inrpp(InrppConfig::default()),
                ..cfg
            },
            2,
        ));
        // zero-delay cut channel
        let flat = Topology::line(4, Rate::mbps(9.7), SimDuration::ZERO);
        let ids: Vec<_> = flat.node_ids().collect();
        let mut sim = PacketSim::new(&flat, cfg);
        sim.add_transfer(TransferSpec {
            flow: 1,
            src: ids[0],
            dst: ids[3],
            chunks: 10,
            start: SimTime::ZERO,
        });
        invalid(sim.try_run_sharded(2, 1));
        // ...but a single region needs no lookahead at all
        let mut sim = PacketSim::new(&flat, cfg);
        sim.add_transfer(TransferSpec {
            flow: 1,
            src: ids[0],
            dst: ids[3],
            chunks: 10,
            start: SimTime::ZERO,
        });
        assert!(sim.try_run_sharded(1, 1).is_ok());
    }

    /// A region that records the barriers whose second phase it ran.
    struct Counting<'a> {
        region: RegionWorker<'a>,
        second_phases: Vec<SimTime>,
    }

    impl ShardWorker for Counting<'_> {
        type Batch = Batch;

        fn advance(&mut self, barrier: SimTime) -> (Vec<Batch>, bool) {
            self.region.advance(barrier)
        }

        fn finish_window(&mut self, barrier: SimTime, inbox: Vec<Batch>) -> Vec<Batch> {
            self.second_phases.push(barrier);
            self.region.finish_window(barrier, inbox)
        }

        fn absorb(&mut self, inbox: Vec<Batch>) {
            self.region.absorb(inbox);
        }
    }

    #[test]
    fn second_phases_run_only_where_barrier_work_lands() {
        // senders 0 and 1, routers 2 and 3, receivers 4 and 5: two
        // contiguous regions cut the bottleneck, link 2
        let topo = Topology::dumbbell(
            2,
            Rate::mbps(97.3),
            Rate::mbps(39.1),
            SimDuration::from_nanos(1_300_017),
        );
        let ids: Vec<_> = topo.node_ids().collect();
        let cfg = PacketSimConfig {
            horizon: SimDuration::from_secs(4),
            seed: 3,
            transport: TransportKind::Inrpp(InrppConfig {
                load_aware_detour: false,
                ..InrppConfig::default()
            }),
            ..PacketSimConfig::default()
        };
        let transfers: Vec<(TransferSpec, FlowTransport)> = (0..2)
            .map(|i| {
                let spec = TransferSpec {
                    flow: i as u64 + 1,
                    src: ids[i],
                    dst: ids[4 + i],
                    chunks: 120,
                    start: SimTime::ZERO,
                };
                (spec, FlowTransport::Inrpp)
            })
            .collect();
        let partition = ContiguousPartitioner.partition(&topo, 2);
        let lossy = FaultPlan::parse("burst@0.01:2:0.3:0.5").expect("plan");
        for (faults, lossless) in [(FaultPlan::empty(), true), (lossy, false)] {
            let (regions, barriers) = build_regions(
                &topo,
                cfg,
                transfers.clone(),
                faults.clone(),
                &partition,
                false,
            )
            .expect("valid sharded run");
            let counted = regions
                .into_iter()
                .map(|region| Counting {
                    region,
                    second_phases: Vec::new(),
                })
                .collect();
            let done = run_sharded(counted, &barriers);
            let phases = done[0].second_phases.clone();
            assert!(done.iter().all(|w| w.second_phases == phases));
            // the start kicks land on barrier 0; only lost chunks'
            // retransmit commands need any other second phase
            assert_eq!(phases[0], SimTime::ZERO);
            if lossless {
                assert_eq!(phases.len(), 1, "second phases {phases:?}");
            } else {
                assert!(phases.len() >= 2, "second phases {phases:?}");
            }
            let sharded = fold_regions(
                done.into_iter().map(|w| w.region).collect(),
                cfg.chunk_bytes.as_bits() as f64,
                &mut [],
            )
            .expect("sharded run");
            let mut sim = PacketSim::new(&topo, cfg);
            sim.set_faults(faults);
            for &(spec, kind) in &transfers {
                sim.add_transfer_as(spec, kind);
            }
            let sequential = sim.run();
            let retransmits: u64 = sequential.flows.iter().map(|f| f.retransmits).sum();
            assert_eq!(lossless, retransmits == 0, "{retransmits} retransmits");
            assert_eq!(fingerprint(&sequential), fingerprint(&sharded));
        }
    }

    #[test]
    fn oversized_barrier_ladders_are_refused_before_building() {
        let refusal = |delay: SimDuration, horizon: SimDuration| {
            let topo = Topology::dumbbell(2, Rate::mbps(9.7), Rate::mbps(3.9), delay);
            let ids: Vec<_> = topo.node_ids().collect();
            let cfg = PacketSimConfig {
                horizon,
                transport: TransportKind::Inrpp(InrppConfig {
                    load_aware_detour: false,
                    ..InrppConfig::default()
                }),
                ..PacketSimConfig::default()
            };
            let mut sim = PacketSim::try_new(&topo, cfg).expect("a valid run");
            sim.add_transfer(TransferSpec {
                flow: 1,
                src: ids[0],
                dst: ids[4],
                chunks: 10,
                start: SimTime::ZERO,
            });
            let started = Instant::now();
            let r = sim.try_run_sharded(2, 7);
            assert!(started.elapsed() < Duration::from_secs(1));
            match r {
                Err(SessionError::InvalidConfig(msg)) => msg,
                other => panic!("expected a refusal, got {other:?}"),
            }
        };
        // a 1 ns lookahead: one fill per nanosecond of the horizon
        let msg = refusal(SimDuration::from_nanos(1), SimDuration::from_secs(60));
        assert!(
            msg.contains("239 rx-check rungs and 60000000000 lookahead steps"),
            "{msg}"
        );
        // a long horizon: one flow's receiver checks four times a second
        let msg = refusal(SimDuration::from_secs(1), SimDuration::from_secs(260_000));
        assert!(
            msg.contains("1039999 rx-check rungs and 260000 lookahead steps"),
            "{msg}"
        );
        assert!(msg.contains("at most 1000000 barriers"), "{msg}");
    }
}
