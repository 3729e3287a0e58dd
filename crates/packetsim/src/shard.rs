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
//! * **Deterministic merges.** Boundary packets are injected in
//!   `(arrival, sender region, per-sender order)`. After the last window
//!   every region's owned state folds into one `Core` (channels by the
//!   owner of their source node, receivers by the owner of their
//!   destination, phase controllers by node owner, counters summed), and
//!   that core assembles the report exactly as a sequential run does.
//!   Probe streams merge by time, class and region.
//!
//! ## Preconditions (validated, typed errors)
//!
//! Sharded runs reject configurations the protocol cannot replay
//! byte-identically: load-aware detouring (reads *remote* queue state
//! mid-window) and zero-delay cut channels (no lookahead). The ladder
//! steps by half a receiver timeout, which `PacketSim::try_new` keeps at
//! 1 ns or more for every run by refusing timers under 2 ns. One
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

use crate::engine::{Core, Ev, RegionCtx, RxCmd, Wire};
use crate::packet::{FlowTransport, PacketSimConfig, TransferSpec, TransportKind};
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

/// Boundary message between regions: a packet crossing a cut channel, or
/// a receiver-side retransmit command bound for the sender's region.
enum ShardMsg {
    Pkt(Wire),
    Rx(RxCmd),
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
    /// per slot: region owning the sender (routing for [`RxCmd`]s)
    cmd_region: Arc<Vec<usize>>,
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

    /// Inject boundary packets by `(arrival, sender region, sender
    /// order)`: the sort is stable and inboxes arrive in sender order.
    fn inject(&mut self, mut wires: Vec<Wire>) {
        wires.sort_by_key(|w| w.arrival);
        for w in wires {
            self.core.inject_wire(&mut self.eng, w);
        }
    }

    /// Drain the boundary buffers into addressed messages.
    fn drain_boundary(&mut self) -> Vec<(usize, ShardMsg)> {
        let cmd_region = Arc::clone(&self.cmd_region);
        let rc = self.core.region.as_mut().expect("region mode");
        let mut out = Vec::with_capacity(rc.outbox.len() + rc.rx_cmds.len());
        for w in rc.outbox.drain(..) {
            out.push((w.to_region as usize, ShardMsg::Pkt(w)));
        }
        for cmd in rc.rx_cmds.drain(..) {
            out.push((cmd_region[cmd.slot as usize], ShardMsg::Rx(cmd)));
        }
        out
    }
}

impl ShardWorker for RegionWorker<'_> {
    type Msg = ShardMsg;

    fn advance(&mut self, barrier: SimTime) -> Vec<(usize, ShardMsg)> {
        if self.err.is_some() {
            return Vec::new();
        }
        loop {
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
                Some((now, ev)) => {
                    self.step(now, ev);
                    if self.err.is_some() {
                        break;
                    }
                }
                None => break,
            }
        }
        self.drain_boundary()
    }

    fn finish_window(
        &mut self,
        barrier: SimTime,
        inbox: Vec<(usize, ShardMsg)>,
    ) -> Vec<(usize, ShardMsg)> {
        if self.err.is_some() {
            return Vec::new();
        }
        let mut wires: Vec<Wire> = Vec::new();
        let mut cmds: Vec<RxCmd> = Vec::new();
        for (_, msg) in inbox {
            match msg {
                ShardMsg::Pkt(w) => wires.push(w),
                ShardMsg::Rx(cmd) => cmds.push(cmd),
            }
        }
        // (a) boundary packets
        self.inject(wires);
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
        while let Some((now, ev)) = self.eng.next_at_or_before(barrier) {
            self.step(now, ev);
            if self.err.is_some() {
                return Vec::new();
            }
        }
        let out = self.drain_boundary();
        debug_assert!(
            out.iter().all(|(_, m)| matches!(m, ShardMsg::Pkt { .. })),
            "rx-checks never fire during a barrier's second phase"
        );
        out
    }

    fn absorb(&mut self, inbox: Vec<(usize, ShardMsg)>) {
        if self.err.is_some() {
            return;
        }
        let wires = inbox
            .into_iter()
            .map(|(_, msg)| match msg {
                ShardMsg::Pkt(w) => w,
                ShardMsg::Rx(_) => unreachable!("phase-2 output is packets only"),
            })
            .collect();
        self.inject(wires);
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

/// Validate the configuration/partition pair and compute the lookahead:
/// `None` means "no cut channels" (single effective region — unbounded
/// windows).
fn validate(
    topo: &Topology,
    cfg: &PacketSimConfig,
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

/// Per-slot rx-check rung instants ≤ horizon, matching the engine's
/// timer chain exactly: first check at `start + receiver_timeout`, then
/// every `timeout/2` where the timeout is the AIMD `rto` for AIMD flows.
fn build_ladder(
    cfg: &PacketSimConfig,
    specs: &[TransferSpec],
    kinds: &[FlowTransport],
    aimd_rto: Option<SimDuration>,
    horizon: SimTime,
) -> Ladder {
    let mut starts = Vec::with_capacity(specs.len());
    let mut rungs = Vec::with_capacity(specs.len());
    for (slot, spec) in specs.iter().enumerate() {
        starts.push(spec.start);
        let mut row = Vec::new();
        if spec.start <= horizon {
            let timeout = match kinds[slot] {
                FlowTransport::Aimd => aimd_rto.unwrap_or(cfg.receiver_timeout),
                _ => cfg.receiver_timeout,
            };
            let mut t = spec.start + cfg.receiver_timeout;
            while t <= horizon {
                row.push(t);
                t += timeout / 2;
            }
        }
        rungs.push(row);
    }
    Ladder { starts, rungs }
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

/// Execute one sharded run. Builds a region worker per partition region,
/// drives them through the barrier ladder under `std::thread::scope`,
/// replays the merged probe stream, and folds the regions into one core
/// whose report is the sequential one.
pub(crate) fn run_partitioned(
    topo: &Topology,
    cfg: PacketSimConfig,
    transfers: Vec<(TransferSpec, FlowTransport)>,
    faults: FaultPlan,
    partition: &Partition,
    probes: &mut [&mut dyn Probe],
) -> Result<PacketSimReport, SessionError> {
    let lookahead = validate(topo, &cfg, partition)?;
    let horizon = SimTime::ZERO + cfg.horizon;
    let regions = partition.regions();
    let region_of: Arc<Vec<u32>> = Arc::new(partition.assignment().to_vec());
    let recording = !probes.is_empty();

    // every region carries the full plan: fault state (down channels,
    // crashed nodes, rates) is replicated; node-local side effects
    // materialise only in the owner region
    let mut cores = Vec::with_capacity(regions);
    for me in 0..regions {
        let mut core = Core::build(topo, cfg, transfers.clone(), faults.clone())?;
        core.region = Some(RegionCtx {
            region_of: Arc::clone(&region_of),
            me: me as u32,
            outbox: Vec::new(),
            rx_cmds: Vec::new(),
        });
        cores.push(core);
    }
    let first = cores.first().expect("at least one region");
    let ladder = Arc::new(build_ladder(
        &cfg,
        &first.specs,
        &first.kinds,
        first.aimd_cfg.map(|a| a.rto),
        horizon,
    ));
    let cmd_region: Arc<Vec<usize>> = Arc::new(
        first
            .specs
            .iter()
            .map(|s| region_of[s.src.idx()] as usize)
            .collect(),
    );
    let workers: Vec<RegionWorker<'_>> = cores
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
                cmd_region: Arc::clone(&cmd_region),
                ladder: Arc::clone(&ladder),
                recorder: Recorder::default(),
                recording,
                err: None,
            }
        })
        .collect();

    let barriers = build_barriers(&ladder, horizon, lookahead);
    let mut workers = run_sharded(workers, &barriers);
    for w in &mut workers {
        if let Some(e) = w.err.take() {
            return Err(e);
        }
    }
    if recording {
        replay_probes(
            &mut workers,
            cfg.chunk_bytes.as_bits() as f64,
            &mut ProbeSet::new(probes),
        );
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
    use inrpp::config::InrppConfig;
    use inrpp_sim::fault::FaultConfig;
    use inrpp_sim::time::{SimDuration, SimTime};
    use inrpp_sim::units::Rate;
    use inrpp_topology::graph::Topology;
    use inrpp_topology::partition::{ContiguousPartitioner, Partitioner};

    use crate::engine::PacketSim;
    use crate::packet::{PacketSimConfig, TransferSpec, TransportKind};
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
            fault: FaultConfig {
                drop_chance: 0.02,
                corrupt_chance: 0.01,
            },
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
        // refused where every run is built, sharded or not
        invalid(sharded(
            PacketSimConfig {
                receiver_timeout: SimDuration::ZERO,
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
}
