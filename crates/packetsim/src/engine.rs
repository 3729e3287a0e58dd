//! The packet-level network engine (arena + calendar-queue hot path).
//!
//! Wires a [`Topology`] into a structure-of-arrays
//! [`crate::channel::ChannelBank`], instantiates the INRPP
//! machinery from the `inrpp` crate at every node (or plain drop-tail
//! behaviour for the AIMD baseline), and drives everything from one
//! deterministic event loop.
//!
//! This module holds the **optimised** engine; the original seed
//! implementation lives on verbatim in the `inrpp-packet-oracle` test
//! crate as the behavioural oracle, and every run here must be
//! **bit-identical** to it (reports and probe streams — enforced by that
//! crate's equivalence tests and the
//! `packet_engine_matches_reference_runner` property test). The hot-path
//! layout, in brief (full rationale in
//! ARCHITECTURE.md §"Packet engine internals"):
//!
//! * **Flow arenas.** Flows live in slot-indexed parallel arrays
//!   (slot = rank of the flow id), primary routes are flattened into one
//!   `Vec<NodeId>` + precomputed directed-channel `Vec<u32>` with
//!   per-flow spans — requests and primary-path data never resolve a
//!   hop through a map again, and the per-emission `route.clone()` of
//!   the seed engine is gone. Only packets that *left* their primary
//!   path (detours, custody resumes) carry an owned route, pooled in a
//!   free-list slab.
//! * **Calendar event queue.** Events sit in a bucket ring sized by the
//!   smallest chunk serialisation time
//!   ([`inrpp_sim::calendar::CalendarEngine`]) instead of one global
//!   binary heap. Each bucket is kept sorted, so a push is usually an
//!   append and a pop takes the front; the next occupied bucket is
//!   found 64 at a time in an occupancy bitmap; a windowed pop locates
//!   its event once. Pop order is identical by construction.
//! * **Serialisation times once per channel.** A run sends two packet
//!   sizes, chunk and request; the [`ChannelBank`] computes both on
//!   every channel at build and on each capacity change, so a send does
//!   no division or rounding.
//! * **Flat custody/backpressure bookkeeping.** Drain registries,
//!   kick/drain dedup flags and retransmit queues are per-index vectors
//!   rather than `BTreeMap`/`HashMap`, so the per-timestep custody and
//!   AIMD window work is a dense sweep.
//! * **No per-chunk maps or per-decision path building.** A loss draw is
//!   numbered by one counter per directed channel, both receiver kinds
//!   track delivered chunks in a [`ChunkSet`] bitset, and every channel's
//!   bypass paths are resolved once at build.
//!
//! Simplifications relative to a real deployment:
//!
//! * data and request packets carry explicit source routes; detours are
//!   spliced by rewriting the route tail (the paper's tunnelling);
//! * load-aware detouring (§3.3 option i) reads the queues of a detour's
//!   channels directly instead of neighbours advertising their loads (the
//!   paper leaves the gossip transport unspecified);
//! * back-pressure notifications propagate hop-by-hop upstream along the
//!   flow's route until the sender, which enters the closed loop for a
//!   TTL.

use std::collections::{BTreeMap, HashMap, VecDeque};

use inrpp::backpressure::{BackpressureState, SlowdownMsg, BACKPRESSURE_TTL};
use inrpp::config::InrppConfig;
use inrpp::detour::DetourSelector;
use inrpp::endpoint::{ChunkSet, Receiver, Request, Sender, SenderMode};
use inrpp::flowlet::FlowletSplitter;
use inrpp::phase::{Phase, PhaseController, PhaseInputs};
use inrpp::rate::RateEstimator;
use inrpp::session::{FlowEnd, FlowStart, Probe, ProbeSet, Sample, SessionError};
use inrpp_cache::custody::CustodyStore;
use inrpp_sim::calendar::CalendarEngine;
use inrpp_sim::fault::{check_chance, FaultEvent, FaultInjector, FaultKind, FaultPlan};
use inrpp_sim::time::{SimDuration, SimTime};
use inrpp_sim::units::{ByteSize, Rate};
use inrpp_topology::dense::DenseChannels;
use inrpp_topology::graph::{Link, LinkId, NodeId, Topology};
use inrpp_topology::spath::{cost, shortest_path, Path};

use crate::channel::ChannelBank;
use crate::packet::{
    AimdConfig, ChunkNo, DirIndex, FlowId, FlowTransport, PacketSimConfig, TransferSpec,
    TransportKind, AIMD_RTO, DETOUR_QUEUE_THRESHOLD, INITIAL_SSTHRESH, INITIAL_WINDOW, MAX_QUEUE,
    RECEIVER_TIMEOUT, REQUEST_BYTES,
};
use crate::report::{FlowStats, PacketSimReport};

/// Builder + runner for one packet-level simulation.
///
/// ```
/// use inrpp_packetsim::{PacketSim, PacketSimConfig, TransferSpec};
/// use inrpp_sim::time::{SimDuration, SimTime};
/// use inrpp_topology::Topology;
///
/// let topo = Topology::fig3();
/// let mut sim = PacketSim::new(
///     &topo,
///     PacketSimConfig {
///         horizon: SimDuration::from_secs(30),
///         ..PacketSimConfig::default()
///     },
/// );
/// sim.add_transfer(TransferSpec {
///     flow: 1,
///     src: topo.node_by_name("1").unwrap(),
///     dst: topo.node_by_name("4").unwrap(),
///     chunks: 100,
///     start: SimTime::ZERO,
/// });
/// let report = sim.run();
/// assert_eq!(report.completed(), 1);
/// assert_eq!(report.chunks_dropped, 0);
/// ```
pub struct PacketSim<'a> {
    topo: &'a Topology,
    config: PacketSimConfig,
    transfers: Vec<(TransferSpec, FlowTransport)>,
    faults: FaultPlan,
}

impl<'a> PacketSim<'a> {
    /// A simulation over `topo` with `config` and no transfers yet.
    ///
    /// # Panics
    /// Panics on any configuration [`PacketSim::try_new`] rejects (an
    /// invalid INRPP configuration, a zero-capacity link, a chunk too
    /// large for the clock); use `try_new` for a typed error instead.
    pub fn new(topo: &'a Topology, config: PacketSimConfig) -> Self {
        PacketSim::try_new(topo, config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// A simulation over `topo` with `config`, rejecting invalid
    /// configurations with a typed [`SessionError`] instead of a panic —
    /// the constructor the `inrpp::session` facade uses.
    ///
    /// A `drop_chance` that is NaN or outside `[0, 1]` is rejected: NaN
    /// would silently mean no loss, and above 1 every chunk would be lost.
    ///
    /// Zero-capacity links are rejected here, at construction: the seed
    /// engine let them through and only blew up inside `run()` when the
    /// channel model asserted, which turned a configuration mistake into
    /// a runtime panic even on the typed path. So is a chunk or request
    /// so large that one sent at the horizon, after the longest queue
    /// wait, would arrive past the end of the u64-nanosecond clock. Every
    /// run, sequential or sharded, is built here.
    pub fn try_new(topo: &'a Topology, config: PacketSimConfig) -> Result<Self, SessionError> {
        check_chance("drop_chance", config.drop_chance)
            .map_err(|e| SessionError::InvalidConfig(e.to_string()))?;
        if let TransportKind::Inrpp(ic) | TransportKind::Mixed { inrpp: ic, .. } = &config.transport
        {
            ic.validate()
                .map_err(|e| SessionError::InvalidConfig(e.to_string()))?;
        }
        for l in topo.link_ids() {
            let link = topo.link(l);
            if link.capacity.is_zero() {
                return Err(SessionError::InvalidConfig(format!(
                    "link {}-{} has zero capacity: every channel needs a positive rate",
                    link.a, link.b
                )));
            }
            check_clock_bound(&config, link, link.capacity)?;
        }
        Ok(PacketSim {
            topo,
            config,
            transfers: Vec::new(),
            faults: FaultPlan::empty(),
        })
    }

    /// Attach a timed [`FaultPlan`] applied mid-run: link outages,
    /// capacity degradation, node crashes with custody re-homing, and
    /// loss bursts. Index bounds are validated when the run is built
    /// (typed [`SessionError::InvalidConfig`]). The plan participates in
    /// the determinism contract: sharded and checkpoint-resumed runs
    /// remain byte-identical to the sequential run under any plan.
    pub fn set_faults(&mut self, faults: FaultPlan) -> &mut Self {
        self.faults = faults;
        self
    }

    /// Add one transfer using the configuration's default transport
    /// (INRPP under [`TransportKind::Inrpp`] and [`TransportKind::Mixed`],
    /// AIMD under [`TransportKind::Aimd`]).
    ///
    /// # Panics
    /// Panics if the endpoints coincide, the object is empty, or no route
    /// exists between them.
    pub fn add_transfer(&mut self, spec: TransferSpec) -> &mut Self {
        let kind = match self.config.transport {
            TransportKind::Aimd(_) => FlowTransport::Aimd,
            _ => FlowTransport::Inrpp,
        };
        self.add_transfer_as(spec, kind)
    }

    /// Add one transfer with an explicit per-flow transport — the
    /// coexistence API (paper §4).
    ///
    /// # Panics
    /// Panics on invalid specs (see [`PacketSim::add_transfer`]) or when
    /// the requested transport has no configuration (e.g. an AIMD flow
    /// under [`TransportKind::Inrpp`]); use
    /// [`PacketSim::try_add_transfer_as`] for typed errors instead.
    pub fn add_transfer_as(&mut self, spec: TransferSpec, kind: FlowTransport) -> &mut Self {
        self.try_add_transfer_as(spec, kind)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Add one transfer with an explicit per-flow transport, rejecting
    /// malformed specs with a typed [`SessionError`] instead of a panic —
    /// the path the `inrpp::session` facade uses.
    pub fn try_add_transfer_as(
        &mut self,
        spec: TransferSpec,
        kind: FlowTransport,
    ) -> Result<&mut Self, SessionError> {
        check_transfer(self.topo, &self.config.transport, &spec, kind)?;
        self.transfers.push((spec, kind));
        Ok(self)
    }

    /// Execute the simulation.
    pub fn run(self) -> PacketSimReport {
        self.run_probed(&mut [])
    }

    /// Execute the simulation with streaming `inrpp::session` probes.
    ///
    /// Probes see every transfer start, chunk delivery (as cumulative
    /// [`Sample`]s) and completion *as it happens*; the produced report
    /// is bit-identical to an unprobed [`PacketSim::run`].
    ///
    /// # Panics
    /// Panics if a hop resolves to no channel at runtime (corrupted
    /// route state); [`PacketSim::try_run_probed`] returns
    /// [`SessionError::Unroutable`] instead.
    pub fn run_probed(self, probes: &mut [&mut dyn Probe]) -> PacketSimReport {
        self.try_run_probed(probes)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`PacketSim::run_probed`] with typed errors: an unroutable hop
    /// surfaces as [`SessionError::Unroutable`] instead of the seed
    /// engine's `no channel a->b` panic.
    pub fn try_run_probed(
        self,
        probes: &mut [&mut dyn Probe],
    ) -> Result<PacketSimReport, SessionError> {
        self.start()?.finish(probes)
    }

    /// Execute the simulation sharded over `workers` region threads,
    /// partitioning the topology with a seeded
    /// [`BfsPartitioner`](inrpp_topology::partition::BfsPartitioner).
    ///
    /// The result — the full report, probe stream included — is
    /// byte-identical to [`PacketSim::try_run_probed`] for **any** worker
    /// count and partition seed (enforced by `tests/shard_equivalence.rs`).
    /// Returns [`SessionError::InvalidConfig`] when `workers == 0` or the
    /// configuration violates a sharding precondition (load-aware
    /// detouring or a zero-delay cut channel); see [`crate::shard`] for
    /// the protocol.
    pub fn try_run_sharded(
        self,
        workers: usize,
        partition_seed: u64,
    ) -> Result<PacketSimReport, SessionError> {
        self.try_run_sharded_probed(workers, partition_seed, &mut [])
    }

    /// [`PacketSim::try_run_sharded`] with streaming probes. The merged
    /// probe stream replays after the run completes, in the sequential
    /// engine's order.
    pub fn try_run_sharded_probed(
        self,
        workers: usize,
        partition_seed: u64,
        probes: &mut [&mut dyn Probe],
    ) -> Result<PacketSimReport, SessionError> {
        use inrpp_topology::partition::{BfsPartitioner, Partitioner};
        if workers == 0 {
            return Err(SessionError::InvalidConfig(
                "sharded run needs at least one worker".into(),
            ));
        }
        let partition = BfsPartitioner {
            seed: partition_seed,
        }
        .partition(self.topo, workers);
        self.try_run_partitioned_probed(&partition, probes)
    }

    /// Execute the simulation sharded over an explicit
    /// [`Partition`](inrpp_topology::partition::Partition) — one worker
    /// thread per region — with streaming probes. Same contract as
    /// [`PacketSim::try_run_sharded_probed`].
    pub fn try_run_partitioned_probed(
        self,
        partition: &inrpp_topology::partition::Partition,
        probes: &mut [&mut dyn Probe],
    ) -> Result<PacketSimReport, SessionError> {
        crate::shard::run_partitioned(
            self.topo,
            self.config,
            self.transfers,
            self.faults,
            partition,
            probes,
        )
    }

    /// Begin a *stepping* run: nothing executes until the caller drives
    /// the returned [`PacketRun`] with [`run_until`](PacketRun::run_until)
    /// / [`finish`](PacketRun::finish). The service-mode entry point —
    /// adds streaming transfer ingestion ([`feed`](PacketRun::feed)) on
    /// top of the sequential engine, bit-identically.
    pub fn start(self) -> Result<PacketRun<'a>, SessionError> {
        let core = Core::build(self.topo, self.config, self.transfers, self.faults)?;
        let eng = core.bootstrap();
        let horizon = SimTime::ZERO + core.cfg.horizon;
        Ok(PacketRun { core, eng, horizon })
    }
}

/// The checks every transfer passes before it joins a run, up front or
/// fed into a live one: distinct endpoints inside the topology, a
/// non-empty object, a route between them, and a configured transport
/// for its flow kind. Returns the hop-count shortest path, the flow's
/// primary route.
fn check_transfer(
    topo: &Topology,
    transport: &TransportKind,
    spec: &TransferSpec,
    kind: FlowTransport,
) -> Result<Path, SessionError> {
    if spec.src == spec.dst {
        return Err(SessionError::InvalidTransfer(format!(
            "flow {} endpoints coincide ({})",
            spec.flow, spec.src
        )));
    }
    if spec.chunks == 0 {
        return Err(SessionError::InvalidTransfer(format!(
            "flow {} has zero chunks",
            spec.flow
        )));
    }
    if spec.src.idx().max(spec.dst.idx()) >= topo.node_count() {
        return Err(SessionError::InvalidTransfer(format!(
            "flow {} names a node outside the {}-node topology",
            spec.flow,
            topo.node_count()
        )));
    }
    let path = shortest_path(topo, spec.src, spec.dst, &cost::hops)
        .ok_or(SessionError::Unroutable { flow: spec.flow })?;
    let supported = matches!(
        (kind, transport),
        (FlowTransport::Inrpp, TransportKind::Inrpp(_))
            | (FlowTransport::Aimd, TransportKind::Aimd(_))
            | (_, TransportKind::Mixed { .. })
    );
    if !supported {
        return Err(SessionError::InvalidConfig(format!(
            "flow transport {kind:?} has no configuration under {transport:?}"
        )));
    }
    Ok(path)
}

/// Refuse `link` at `rate` when a chunk or request sent at the horizon,
/// after the longest queue wait, would arrive past the end of the
/// u64-nanosecond clock.
fn check_clock_bound(cfg: &PacketSimConfig, link: &Link, rate: Rate) -> Result<(), SessionError> {
    let horizon = SimTime::ZERO + cfg.horizon;
    for (what, size) in [("chunk", cfg.chunk_bytes), ("request", REQUEST_BYTES)] {
        // `as_bits` would overflow past u64::MAX / 8 bytes
        let secs = size.as_bytes() as f64 * 8.0 / rate.as_bps();
        let arrival = SimDuration::try_from_secs_f64(secs).ok().and_then(|tx| {
            horizon
                .checked_add(MAX_QUEUE)?
                .checked_add(tx)?
                .checked_add(link.delay)
        });
        if arrival.is_none() {
            return Err(SessionError::InvalidConfig(format!(
                "a {what} of {size} takes {secs:e} s to cross link {}-{}: \
                 sent at the horizon it would arrive past the end of the clock",
                link.a, link.b
            )));
        }
    }
    Ok(())
}

/// An in-flight packet-level simulation that can be driven in steps and
/// fed additional transfers while running.
///
/// # Determinism contract
/// [`run_until`](PacketRun::run_until) pops exactly the `(time, seq)`
/// prefix the uninterrupted engine would pop, via
/// [`CalendarEngine::next_at_or_before`]; [`finish`](PacketRun::finish)
/// drains the rest with the plain `next()` loop. Splitting a run at any
/// boundary therefore cannot change the report or the probe stream, and
/// a run driven through the same `run_until`/`feed` calls is the same
/// run — what the session layer's replay-log checkpoints rely on.
pub struct PacketRun<'a> {
    core: Core<'a>,
    eng: CalendarEngine<Ev>,
    horizon: SimTime,
}

impl<'a> PacketRun<'a> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.eng.now()
    }

    /// The run's hard stop.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Chunks delivered so far: the report's `chunks_delivered`, read
    /// without assembling one.
    pub fn chunks_delivered(&self) -> u64 {
        self.core.counters.chunks_delivered
    }

    /// Process every event due at or before `t` (clamped to the
    /// horizon), then park the clock at the boundary. Returns the
    /// clock's new value.
    pub fn run_until(
        &mut self,
        t: SimTime,
        probes: &mut [&mut dyn Probe],
    ) -> Result<SimTime, SessionError> {
        let limit = t.min(self.horizon);
        let mut set = ProbeSet::new(probes);
        while let Some((now, ev)) = self.eng.next_at_or_before(limit) {
            self.core.step(&mut self.eng, now, ev, &mut set)?;
        }
        if limit > self.eng.now() {
            self.eng.advance_clock_to(limit);
        }
        Ok(self.eng.now())
    }

    /// Inject a transfer into the live run. The fed flow id must exceed
    /// every id already in the run (flow slots are ranks of ascending
    /// ids) and its start must not precede the clock.
    pub fn feed(&mut self, spec: TransferSpec, kind: FlowTransport) -> Result<(), SessionError> {
        self.core.feed(&mut self.eng, spec, kind)
    }

    /// Drain the remaining events and assemble the final report.
    pub fn finish(
        mut self,
        probes: &mut [&mut dyn Probe],
    ) -> Result<PacketSimReport, SessionError> {
        let mut set = ProbeSet::new(probes);
        while let Some((now, ev)) = self.eng.next() {
            self.core.step(&mut self.eng, now, ev, &mut set)?;
        }
        Ok(self.core.assemble_report())
    }

    /// A report of the run *so far*: counters and per-flow progress as of
    /// the last processed event. Does not perturb the run.
    pub fn report_now(&self) -> PacketSimReport {
        self.core.assemble_report()
    }

    /// Every transfer known to the run (upfront and fed), in slot order
    /// (ascending flow id) — the endpoint lookup the session layer
    /// needs for per-flow records.
    pub fn transfers(&self) -> &[TransferSpec] {
        &self.core.specs
    }
}

/// Event vocabulary. Flows are addressed by slot (rank of the flow id),
/// packets by slab index — everything fits in a couple of words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ev {
    Start(u32),
    SenderKick(NodeId),
    Tick(NodeId),
    RxCheck(u32),
    CustodyDrain {
        node: NodeId,
        dir: u32,
    },
    BpExpire {
        node: NodeId,
        slot: u32,
    },
    Deliver(u32), // index into the in-flight packet slab
    /// Apply fault-plan event `i` (index into the plan). Scheduled first
    /// during bootstrap so a fault wins every same-instant tie — in the
    /// sequential engine and in every region of a sharded run alike.
    Fault(u32),
}

/// Which route an in-flight data packet follows.
///
/// `Primary` points at the flow's span in the shared route arena — the
/// overwhelmingly common case, zero per-packet allocation. `Owned` is a
/// slab handle for packets that left the primary path (detour splices,
/// custody resumes); the slab recycles the `Vec`s through a free list.
#[derive(Debug, Clone, Copy)]
enum RouteRef {
    Primary,
    Owned(u32),
}

/// One boundary delivery: `pkt` must be injected into its destination
/// region's calendar at `arrival` (always strictly beyond the current
/// barrier — the conservative-lookahead guarantee). A data packet on an
/// owned route travels with that route, taken out of the sender's slab,
/// so no slab handle crosses a thread; primary routes need nothing,
/// because every region holds the full route arena.
pub(crate) struct Wire {
    pub(crate) arrival: SimTime,
    pkt: Pkt,
    route: Option<Vec<NodeId>>,
}

/// A receiver-side retransmit decision that must take effect at the
/// sender *at the barrier instant* (the one zero-delay cross-region
/// coupling in the engine): push `chunks` onto the sender's retransmit
/// queue and kick it. It travels to the region owning the slot's sender.
pub(crate) struct RxCmd {
    pub(crate) slot: u32,
    pub(crate) chunks: Vec<ChunkNo>,
}

/// Everything one region sends one region in one exchange: boundary
/// packets in emission order, and retransmit commands for the senders
/// the destination owns.
#[derive(Default)]
pub(crate) struct Batch {
    pub(crate) wires: Vec<Wire>,
    pub(crate) cmds: Vec<RxCmd>,
}

/// Region-mode state hung off [`Core`] when it runs as one shard of a
/// partitioned topology: the sequential engine with an ownership filter.
/// [`Core::bootstrap`] seeds only owned receivers and nodes,
/// [`Core::schedule_deliver`] sends packets for foreign nodes out as
/// [`Wire`]s, and after the last window [`Core::absorb_region`] folds
/// the owned state into one core for the report. `None` (the default)
/// leaves every code path byte-identical to the single-threaded engine.
pub(crate) struct RegionCtx {
    /// node index -> owning region
    pub(crate) region_of: std::sync::Arc<Vec<u32>>,
    /// this core's region id
    pub(crate) me: u32,
    /// per destination region: the boundary deliveries and retransmit
    /// commands generated since the last drain
    pub(crate) outboxes: Vec<Batch>,
}

/// An in-flight packet (slab entry referenced by [`Ev::Deliver`], or a
/// [`Wire`] crossing a region boundary).
///
/// Requests and slow-downs never carry a route: requests always travel
/// the reversed primary path, and slow-downs are located against the
/// primary route at delivery (exactly like the seed engine, which
/// cloned the primary route to do the same).
enum Pkt {
    Request {
        slot: u32,
        req: Request,
        hop: u32,
    },
    Data {
        slot: u32,
        chunk: ChunkNo,
        route: RouteRef,
        hop: u32,
        hops_travelled: u32,
        detoured: bool,
        sent_at: SimTime,
    },
    Slowdown {
        msg: SlowdownMsg,
        slot: u32,
    },
    /// A custody chunk re-homed away from a crashed node (the paper's
    /// recovery story): delivered to the nearest surviving custody point
    /// after the failure-detection latency. Control-plane traffic —
    /// consumes no channel bandwidth, like slow-downs.
    Rescue {
        slot: u32,
        chunk: ChunkNo,
        target: NodeId,
        sent_at: SimTime,
    },
}

/// Sorted `(chunk, deadline)` pairs — the receiver's outstanding-request
/// ledger. Replaces the seed's `BTreeMap<ChunkNo, SimTime>` with a flat
/// vector: windows are small (anticipation or cwnd sized), so binary
/// search + memmove beats tree nodes, and iteration for expiry scans is
/// a linear sweep. Insert-on-existing replaces the deadline, exactly
/// like `BTreeMap::insert`.
#[derive(Default)]
struct Outstanding(Vec<(ChunkNo, SimTime)>);

impl Outstanding {
    fn insert(&mut self, chunk: ChunkNo, deadline: SimTime) {
        match self.0.binary_search_by_key(&chunk, |e| e.0) {
            Ok(i) => self.0[i].1 = deadline,
            Err(i) => self.0.insert(i, (chunk, deadline)),
        }
    }

    fn remove(&mut self, chunk: ChunkNo) {
        if let Ok(i) = self.0.binary_search_by_key(&chunk, |e| e.0) {
            self.0.remove(i);
        }
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    /// Append every expired chunk to `out`, ascending (the order the
    /// seed's `BTreeMap` iteration produced).
    fn expired_into(&self, now: SimTime, out: &mut Vec<ChunkNo>) {
        for &(c, dl) in &self.0 {
            if dl <= now {
                out.push(c);
            }
        }
    }
}

/// AIMD (receiver-driven window) per-flow state.
struct AimdRx {
    cwnd: f64,
    ssthresh: f64,
    total: u64,
    next_unrequested: u64,
    received: ChunkSet,
}

enum RxKind {
    Inrpp(Receiver),
    Aimd(AimdRx),
}

struct RxRt {
    kind: RxKind,
    outstanding: Outstanding,
    stats: FlowStats,
}

#[derive(Default)]
struct Counters {
    chunks_delivered: u64,
    chunks_dropped: u64,
    chunks_detoured: u64,
    chunks_custodied: u64,
    chunks_rescued: u64,
    backpressure_msgs: u64,
}

/// The arena-backed engine state. See the module docs for the layout
/// story; every field that was a map in the seed engine is either a
/// slot/dir/node-indexed vector here or (for genuinely sparse state
/// like custody resume routes) still a map off the hot path.
pub(crate) struct Core<'a> {
    topo: &'a Topology,
    cfg: PacketSimConfig,
    dense: DenseChannels,
    channels: ChannelBank,
    /// directed channel -> local interface index at its source node
    if_of_dir: Vec<u32>,
    /// per node: `(neighbor, directed channel)` in `topo.neighbors` order
    nbrs: Vec<Vec<(NodeId, u32)>>,
    estimators: Vec<RateEstimator>,
    phases: Vec<Vec<PhaseController>>,
    custody: Vec<CustodyStore>,
    bp: Vec<BackpressureState>,
    splitters: Vec<FlowletSplitter>,
    /// per directed channel: the §3.3 bypass paths around it under the
    /// depth policy, shortest first, resolved once at build (all empty
    /// without an INRPP configuration)
    bypass: Vec<Vec<Path>>,

    // ---- flow arenas (slot = rank of flow id, ascending) ----
    flow_ids: Vec<FlowId>,
    pub(crate) specs: Vec<TransferSpec>,
    pub(crate) kinds: Vec<FlowTransport>,
    /// prefix offsets into `route_nodes`, `flow_ids.len() + 1` entries
    route_start: Vec<u32>,
    route_nodes: Vec<NodeId>,
    /// prefix offsets into `route_dirs`, `flow_ids.len() + 1` entries
    dir_start: Vec<u32>,
    /// directed channel of every primary hop, per flow span
    route_dirs: Vec<u32>,
    /// per node: slots whose transfer originates there, ascending
    node_flows: Vec<Vec<u32>>,

    senders: Vec<Option<Sender>>,
    receivers: Vec<Option<RxRt>>,
    retransmit: Vec<VecDeque<(u32, ChunkNo)>>,
    /// per directed channel: slots with custody waiting at its source
    /// node, ascending (lowest flow id drains first)
    drain_reg: Vec<Vec<u32>>,
    drain_scheduled: Vec<bool>,
    /// (node idx, slot) -> remaining route to resume after custody
    resume_routes: HashMap<(u32, u32), Vec<NodeId>>,
    kick_scheduled: Vec<bool>,
    fault: FaultInjector,
    /// per directed channel: data chunks it has accepted, which numbers
    /// its loss draws. Only the owner of the channel's source node sends
    /// on it, so a shard region's count is the sequential one.
    data_sent: Vec<u64>,

    // ---- fault-plan state (all zero/empty without a plan) ----
    /// the timed events, validated and sorted; indexed by [`Ev::Fault`]
    fault_plan: Vec<FaultEvent>,
    /// per directed channel: active down causes (link outage counts plus
    /// one per crashed endpoint) — the channel refuses traffic while > 0
    down_dirs: Vec<u32>,
    /// per node: crashed right now
    node_down: Vec<bool>,
    /// `(node, slot, chunk)` custodied while its onward channel was
    /// down, with the park instant — drained or rescued chunks charge
    /// the wait to the flow's outage-attributed delay. Keyed by the
    /// custody node: a chunk can sit parked at two custody points at
    /// once (primary plus detour copy), and each wait charges
    /// independently — which is also what keeps the accounting
    /// identical when those nodes land in different shard regions
    parked: BTreeMap<(u32, u32, ChunkNo), SimTime>,
    /// per directed channel: loss-burst window end (exclusive) and the
    /// burst's drop chance, which *replaces* the static chance inside
    /// the window
    burst_until: Vec<SimTime>,
    burst_drop: Vec<f64>,
    /// per directed channel: the topology capacity, so `CapacityScale`
    /// fractions compose against the base rather than each other
    base_rate: Vec<Rate>,
    /// per slot: recovery metrics (summed across regions in sharded
    /// runs, then copied into [`FlowStats`] at report assembly)
    detours: Vec<u64>,
    rescues: Vec<u64>,
    outage: Vec<SimDuration>,
    counters: Counters,
    custody_peak: ByteSize,

    // ---- slabs ----
    pkts: Vec<Option<Pkt>>,
    pkt_free: Vec<u32>,
    routes: Vec<Vec<NodeId>>,
    routes_free: Vec<u32>,
    scratch_chunks: Vec<ChunkNo>,

    inrpp_cfg: Option<InrppConfig>,
    pub(crate) aimd_cfg: Option<AimdConfig>,

    /// `Some` when this core runs as one region of a sharded simulation;
    /// `None` keeps every path byte-identical to the sequential engine.
    pub(crate) region: Option<RegionCtx>,
}

impl<'a> Core<'a> {
    pub(crate) fn build(
        topo: &'a Topology,
        cfg: PacketSimConfig,
        transfers: Vec<(TransferSpec, FlowTransport)>,
        faults: FaultPlan,
    ) -> Result<Self, SessionError> {
        let nnodes = topo.node_count();
        let ndir = topo.link_count() * 2;
        faults
            .check_indices(nnodes, topo.link_count())
            .map_err(|e| SessionError::InvalidConfig(format!("invalid fault plan: {e}")))?;
        for e in faults.events() {
            if let FaultKind::CapacityScale { link, fraction } = e.kind {
                let link = topo.link(LinkId(link));
                check_clock_bound(&cfg, link, link.capacity * fraction)?;
            }
        }
        let dense = DenseChannels::build(topo);
        let channels = ChannelBank::from_topology(topo, MAX_QUEUE).with_send_sizes([
            cfg.chunk_bytes.as_bits() as f64,
            REQUEST_BYTES.as_bits() as f64,
        ]);
        let (inrpp_cfg, aimd_cfg) = match cfg.transport {
            TransportKind::Inrpp(ic) => (Some(ic), None),
            TransportKind::Aimd(ac) => (None, Some(ac)),
            TransportKind::Mixed { inrpp, aimd } => (Some(inrpp), Some(aimd)),
        };
        let selector = inrpp_cfg.map(|_| DetourSelector::new(topo));
        let mut if_of_dir = vec![0u32; ndir];
        let mut bypass = vec![Vec::new(); ndir];
        let mut nbrs: Vec<Vec<(NodeId, u32)>> = Vec::with_capacity(nnodes);
        for n in topo.node_ids() {
            let mut row = Vec::with_capacity(topo.degree(n));
            for (i, &(nb, l)) in topo.neighbors(n).iter().enumerate() {
                let d = DirIndex::new(l, topo.link(l).a == n).0;
                if_of_dir[d] = i as u32;
                if let Some(s) = &selector {
                    bypass[d] = s.candidates(topo, l, n, nb);
                }
                row.push((nb, d as u32));
            }
            nbrs.push(row);
        }
        let interval = inrpp_cfg
            .map(|c| c.interval)
            .unwrap_or(SimDuration::from_millis(100));
        let estimators = topo
            .node_ids()
            .map(|n| RateEstimator::new(topo.degree(n).max(1), interval, SimTime::ZERO))
            .collect();
        let phases = topo
            .node_ids()
            .map(|n| {
                (0..topo.degree(n))
                    .map(|_| PhaseController::new(inrpp_cfg.unwrap_or_default()))
                    .collect()
            })
            .collect();
        let custody = topo
            .node_ids()
            .map(|_| CustodyStore::new(inrpp_cfg.map(|c| c.cache_budget).unwrap_or(ByteSize::ZERO)))
            .collect();
        // Flow slots: ascending flow id; when the same id was added more
        // than once, the last spec wins — exactly the reference's
        // `BTreeMap::insert` semantics.
        let mut by_flow: BTreeMap<FlowId, usize> = BTreeMap::new();
        for (i, (spec, _)) in transfers.iter().enumerate() {
            by_flow.insert(spec.flow, i);
        }
        let nflows = by_flow.len();
        let mut flow_ids = Vec::with_capacity(nflows);
        let mut specs = Vec::with_capacity(nflows);
        let mut kinds = Vec::with_capacity(nflows);
        let mut route_start = Vec::with_capacity(nflows + 1);
        let mut dir_start = Vec::with_capacity(nflows + 1);
        let mut route_nodes = Vec::new();
        let mut route_dirs = Vec::new();
        for (&f, &i) in &by_flow {
            let (spec, kind) = transfers[i];
            // The typed bugfix: a missing route here (or a hop with no
            // channel below) surfaces as `Unroutable`, not the seed's
            // `expect`/`no channel a->b` panic.
            let path = shortest_path(topo, spec.src, spec.dst, &cost::hops)
                .ok_or(SessionError::Unroutable { flow: f })?;
            let nodes = path.nodes();
            route_start.push(route_nodes.len() as u32);
            dir_start.push(route_dirs.len() as u32);
            for w in nodes.windows(2) {
                let d = dense
                    .dir_index(w[0], w[1])
                    .ok_or(SessionError::Unroutable { flow: f })?;
                route_dirs.push(d);
            }
            route_nodes.extend_from_slice(nodes);
            flow_ids.push(f);
            specs.push(spec);
            kinds.push(kind);
        }
        route_start.push(route_nodes.len() as u32);
        dir_start.push(route_dirs.len() as u32);

        // Sender registration replays the ORIGINAL transfer order: the
        // sender's round-robin ring is insertion-ordered, and byte
        // identity with the reference depends on it.
        let push_ahead = inrpp_cfg.map(|c| c.anticipation).unwrap_or(0);
        let mut senders: Vec<Option<Sender>> = (0..nnodes).map(|_| None).collect();
        for (spec, kind) in &transfers {
            let s = senders[spec.src.idx()].get_or_insert_with(|| Sender::new(push_ahead));
            s.register(spec.flow, spec.chunks);
            if *kind == FlowTransport::Aimd {
                // AIMD sender: strict request/response, no push-ahead
                s.set_mode(spec.flow, SenderMode::ClosedLoop);
            }
        }
        let mut node_flows: Vec<Vec<u32>> = vec![Vec::new(); nnodes];
        for (slot, spec) in specs.iter().enumerate() {
            node_flows[spec.src.idx()].push(slot as u32);
        }
        let base_rate: Vec<Rate> = (0..ndir).map(|d| channels.rate(d)).collect();

        Ok(Core {
            topo,
            cfg,
            dense,
            channels,
            if_of_dir,
            nbrs,
            estimators,
            phases,
            custody,
            bp: topo.node_ids().map(|_| BackpressureState::new()).collect(),
            splitters: topo
                .node_ids()
                .map(|_| FlowletSplitter::new(SimDuration::from_millis(5)))
                .collect(),
            bypass,
            flow_ids,
            specs,
            kinds,
            route_start,
            route_nodes,
            dir_start,
            route_dirs,
            node_flows,
            senders,
            receivers: (0..nflows).map(|_| None).collect(),
            retransmit: vec![VecDeque::new(); nnodes],
            drain_reg: vec![Vec::new(); ndir],
            drain_scheduled: vec![false; ndir],
            resume_routes: HashMap::new(),
            kick_scheduled: vec![false; nnodes],
            fault: FaultInjector::new(cfg.seed),
            data_sent: vec![0; ndir],
            fault_plan: faults.events().to_vec(),
            down_dirs: vec![0; ndir],
            node_down: vec![false; nnodes],
            parked: BTreeMap::new(),
            burst_until: vec![SimTime::ZERO; ndir],
            burst_drop: vec![0.0; ndir],
            base_rate,
            detours: vec![0; nflows],
            rescues: vec![0; nflows],
            outage: vec![SimDuration::ZERO; nflows],
            counters: Counters::default(),
            custody_peak: ByteSize::ZERO,
            pkts: Vec::new(),
            pkt_free: Vec::new(),
            routes: Vec::new(),
            routes_free: Vec::new(),
            scratch_chunks: Vec::new(),
            inrpp_cfg,
            aimd_cfg,
            region: None,
        })
    }

    // ---- arena accessors -------------------------------------------------

    #[inline]
    fn route(&self, slot: u32) -> &[NodeId] {
        let s = self.route_start[slot as usize] as usize;
        let e = self.route_start[slot as usize + 1] as usize;
        &self.route_nodes[s..e]
    }

    #[inline]
    fn dirs(&self, slot: u32) -> &[u32] {
        let s = self.dir_start[slot as usize] as usize;
        let e = self.dir_start[slot as usize + 1] as usize;
        &self.route_dirs[s..e]
    }

    #[inline]
    fn rroute(&self, slot: u32, r: RouteRef) -> &[NodeId] {
        match r {
            RouteRef::Primary => self.route(slot),
            RouteRef::Owned(i) => &self.routes[i as usize],
        }
    }

    #[inline]
    fn first_dir(&self, slot: u32) -> usize {
        self.route_dirs[self.dir_start[slot as usize] as usize] as usize
    }

    #[inline]
    fn slot_of(&self, flow: FlowId) -> u32 {
        self.flow_ids
            .binary_search(&flow)
            .expect("every scheduled flow has a slot") as u32
    }

    fn is_inrpp(&self, slot: u32) -> bool {
        self.kinds[slot as usize] == FlowTransport::Inrpp
    }

    /// Directed channel `from -> to`, or the typed error the seed engine
    /// panicked with (`no channel a->b`). Only reachable for owned
    /// (detour/resume) routes — primary hops are resolved at build time.
    fn dir_between(&self, from: NodeId, to: NodeId, flow: FlowId) -> Result<usize, SessionError> {
        self.dense
            .dir_index(from, to)
            .map(|d| d as usize)
            .ok_or(SessionError::Unroutable { flow })
    }

    fn chunk_bits(&self) -> f64 {
        self.cfg.chunk_bytes.as_bits() as f64
    }

    fn stash(&mut self, pkt: Pkt) -> u32 {
        match self.pkt_free.pop() {
            Some(i) => {
                self.pkts[i as usize] = Some(pkt);
                i
            }
            None => {
                self.pkts.push(Some(pkt));
                (self.pkts.len() - 1) as u32
            }
        }
    }

    fn free_route(&mut self, r: RouteRef) {
        if let RouteRef::Owned(i) = r {
            self.routes_free.push(i);
        }
    }

    /// Move `nodes` into an owned-route slab slot, recycling a freed
    /// `Vec`'s capacity when one is available.
    fn alloc_route(&mut self, nodes: Vec<NodeId>) -> u32 {
        match self.routes_free.pop() {
            Some(i) => {
                self.routes[i as usize] = nodes;
                i
            }
            None => {
                self.routes.push(nodes);
                (self.routes.len() - 1) as u32
            }
        }
    }

    fn schedule_kick(&mut self, eng: &mut CalendarEngine<Ev>, node: NodeId, delay: SimDuration) {
        if !self.kick_scheduled[node.idx()] {
            self.kick_scheduled[node.idx()] = true;
            eng.schedule(delay, Ev::SenderKick(node));
        }
    }

    /// [`Core::schedule_kick`] at an absolute instant — the shard driver's
    /// entry point for control kicks inserted at barriers and at the
    /// moment the region clock reaches a flow start. Same per-node dedup.
    pub(crate) fn schedule_kick_at(
        &mut self,
        eng: &mut CalendarEngine<Ev>,
        node: NodeId,
        t: SimTime,
    ) {
        if !self.kick_scheduled[node.idx()] {
            self.kick_scheduled[node.idx()] = true;
            eng.schedule_at(t, Ev::SenderKick(node))
                .expect("control kick is never in the past");
        }
    }

    // ---- region-boundary plumbing ---------------------------------------

    /// The one choke point every packet delivery goes through. Sequential
    /// mode (and region mode when `target` is local) stashes the packet
    /// and schedules [`Ev::Deliver`]; region mode puts packets for
    /// foreign nodes in the owner's outbox as [`Wire`]s, an owned route
    /// moving out of the slab with its packet.
    fn schedule_deliver(
        &mut self,
        eng: &mut CalendarEngine<Ev>,
        arrival: SimTime,
        target: NodeId,
        pkt: Pkt,
    ) {
        if let Some(rc) = self.region.as_mut() {
            let to_region = rc.region_of[target.idx()];
            if to_region != rc.me {
                let route = match pkt {
                    Pkt::Data {
                        route: RouteRef::Owned(i),
                        ..
                    } => {
                        self.routes_free.push(i);
                        Some(std::mem::take(&mut self.routes[i as usize]))
                    }
                    _ => None,
                };
                rc.outboxes[to_region as usize].wires.push(Wire {
                    arrival,
                    pkt,
                    route,
                });
                return;
            }
        }
        let idx = self.stash(pkt);
        eng.schedule_at(arrival, Ev::Deliver(idx))
            .expect("arrival is in the future");
    }

    /// Inject one boundary packet received from a peer region into the
    /// local calendar, its owned route (if any) back into the slab.
    pub(crate) fn inject_wire(&mut self, eng: &mut CalendarEngine<Ev>, wire: Wire) {
        let Wire {
            arrival,
            mut pkt,
            route,
        } = wire;
        if let (Pkt::Data { route: r, .. }, Some(v)) = (&mut pkt, route) {
            *r = RouteRef::Owned(self.alloc_route(v));
        }
        let idx = self.stash(pkt);
        eng.schedule_at(arrival, Ev::Deliver(idx))
            .expect("wire arrivals are beyond the closed barrier");
    }

    /// Apply one receiver-side retransmit command at the sender, at the
    /// barrier instant `at`: enqueue the chunks and (dedup-)kick the
    /// sender, exactly what `queue_retransmit` does inline in sequential
    /// mode.
    pub(crate) fn apply_rx_cmd(&mut self, eng: &mut CalendarEngine<Ev>, at: SimTime, cmd: &RxCmd) {
        let src = self.specs[cmd.slot as usize].src;
        for &c in &cmd.chunks {
            self.retransmit[src.idx()].push_back((cmd.slot, c));
        }
        self.schedule_kick_at(eng, src, at);
    }

    // ---- fault plan ------------------------------------------------------

    /// Whether directed channel `d` currently refuses traffic (link
    /// outage or a crashed endpoint).
    #[inline]
    fn is_down(&self, d: usize) -> bool {
        self.down_dirs[d] > 0
    }

    /// Source node of directed channel `d`.
    fn dir_src(&self, d: usize) -> NodeId {
        let link = self.topo.link(DirIndex(d).link());
        if DirIndex(d).is_forward() {
            link.a
        } else {
            link.b
        }
    }

    /// Whether this core owns `n`'s node-local state (always true in
    /// sequential mode). Fault side effects that touch sender or custody
    /// state must be gated on ownership in region mode — every region
    /// applies every plan event, but only the owner materialises kicks
    /// and drains, exactly mirroring where those events run sequentially.
    fn owns_node(&self, n: NodeId) -> bool {
        self.region
            .as_ref()
            .map_or(true, |rc| rc.region_of[n.idx()] == rc.me)
    }

    fn dir_down(&mut self, d: usize) {
        self.down_dirs[d] += 1;
    }

    /// Remove one down cause from `d`; on the transition back to *up*,
    /// revive any custody drain that parked while the channel was down.
    /// The registry is only non-empty in the region that owns the source
    /// node, so the revival needs no explicit ownership gate.
    fn dir_up(&mut self, eng: &mut CalendarEngine<Ev>, now: SimTime, d: usize) {
        if self.down_dirs[d] == 0 {
            return; // plan brought a link up that was never down
        }
        self.down_dirs[d] -= 1;
        if self.down_dirs[d] > 0 {
            return;
        }
        let node = self.dir_src(d);
        if !self.drain_reg[d].is_empty() && !self.drain_scheduled[d] && !self.node_down[node.idx()]
        {
            self.drain_scheduled[d] = true;
            let t = self.channels.drain_time(d, DETOUR_QUEUE_THRESHOLD).max(now);
            eng.schedule_at(
                t,
                Ev::CustodyDrain {
                    node,
                    dir: d as u32,
                },
            )
            .expect("drain revival is not in the past");
        }
    }

    /// Apply plan event `idx` at its scheduled instant.
    fn apply_fault(&mut self, eng: &mut CalendarEngine<Ev>, now: SimTime, idx: u32) {
        let ev = self.fault_plan[idx as usize];
        match ev.kind {
            FaultKind::LinkDown { link } => {
                let l = link as usize;
                self.dir_down(2 * l);
                self.dir_down(2 * l + 1);
            }
            FaultKind::LinkUp { link } => {
                let l = link as usize;
                self.dir_up(eng, now, 2 * l);
                self.dir_up(eng, now, 2 * l + 1);
            }
            FaultKind::CapacityScale { link, fraction } => {
                let l = link as usize;
                for d in [2 * l, 2 * l + 1] {
                    self.channels.set_rate(d, self.base_rate[d] * fraction);
                }
            }
            FaultKind::NodeCrash { node } => {
                let n = NodeId(node);
                self.node_down[n.idx()] = true;
                for li in 0..self.nbrs[n.idx()].len() {
                    let d = self.nbrs[n.idx()][li].1 as usize;
                    self.dir_down(d);
                    self.dir_down(d ^ 1);
                }
                self.rescue_custody(eng, now, n);
            }
            FaultKind::NodeRecover { node } => {
                let n = NodeId(node);
                if !self.node_down[n.idx()] {
                    return; // recover without a crash: nothing to undo
                }
                self.node_down[n.idx()] = false;
                for li in 0..self.nbrs[n.idx()].len() {
                    let d = self.nbrs[n.idx()][li].1 as usize;
                    self.dir_up(eng, now, d);
                    self.dir_up(eng, now, d ^ 1);
                }
                // the node's sender may have accumulated retransmits and
                // eligible chunks while dark — kick it (owner region only:
                // the kick runs sequentially in the region that owns the
                // sender's state)
                if self.owns_node(n) && self.senders[n.idx()].is_some() {
                    self.schedule_kick(eng, n, SimDuration::ZERO);
                }
            }
            FaultKind::LossBurst {
                link,
                drop_chance,
                until,
            } => {
                let l = link as usize;
                for d in [2 * l, 2 * l + 1] {
                    self.burst_until[d] = until;
                    self.burst_drop[d] = drop_chance;
                }
            }
        }
    }

    /// Nearest surviving custody point for `slot`'s chunks stranded at
    /// `crashed`, with the failure-detection latency before the rescue
    /// lands there: the closest alive node walking *upstream* along the
    /// primary route (latency = sum of the link delays crossed, which in
    /// a sharded run is ≥ the conservative lookahead whenever the rescue
    /// crosses a region cut). A crashed node that sits off the primary
    /// route (detour custody) falls back to the flow's source with the
    /// receiver timeout as detection latency.
    fn rescue_target(&self, slot: u32, crashed: NodeId) -> Option<(NodeId, SimDuration)> {
        let route = self.route(slot);
        let dirs = self.dirs(slot);
        match route.iter().position(|&n| n == crashed) {
            Some(p) => {
                let mut delay = SimDuration::ZERO;
                for q in (0..p).rev() {
                    delay += self.channels.delay(dirs[q] as usize);
                    if !self.node_down[route[q].idx()] {
                        return Some((route[q], delay));
                    }
                }
                None
            }
            None => {
                let src = route[0];
                (!self.node_down[src.idx()]).then_some((src, RECEIVER_TIMEOUT))
            }
        }
    }

    /// Re-home every custody chunk stranded at `crashed`, flow by flow in
    /// slot order. Only the region owning `crashed` holds custody content
    /// there, so sharded runs converge on the sequential behaviour with
    /// no extra coordination; rescues for remote targets travel as
    /// boundary wires like any other packet.
    fn rescue_custody(&mut self, eng: &mut CalendarEngine<Ev>, now: SimTime, crashed: NodeId) {
        let mut slots: Vec<u32> = self
            .resume_routes
            .keys()
            .filter(|&&(n, _)| n == crashed.idx() as u32)
            .map(|&(_, slot)| slot)
            .collect();
        slots.sort_unstable();
        for slot in slots {
            let flow = self.flow_ids[slot as usize];
            let target = self.rescue_target(slot, crashed);
            let mut chunks = Vec::new();
            while let Some((chunk, _)) = self.custody[crashed.idx()].pop_next(flow) {
                // a chunk already waiting on a dark channel charges that
                // wait now; the rescue transit is charged on arrival
                if let Some(t) = self.parked.remove(&(crashed.idx() as u32, slot, chunk)) {
                    self.outage[slot as usize] += now.duration_since(t);
                }
                chunks.push(chunk);
            }
            match target {
                Some((target, delay)) => {
                    for chunk in chunks {
                        self.schedule_deliver(
                            eng,
                            now + delay,
                            target,
                            Pkt::Rescue {
                                slot,
                                chunk,
                                target,
                                sent_at: now,
                            },
                        );
                    }
                }
                None => {
                    // no surviving upstream custody point: the chunks die
                    // with the node (the receiver's timeout machinery
                    // re-requests them end-to-end)
                    self.counters.chunks_dropped += chunks.len() as u64;
                }
            }
        }
    }

    /// A rescue landed: store the chunk at the surviving custody point,
    /// account the outage delay, and arm the drain toward the receiver
    /// along the primary-route suffix.
    fn rescue_arrive(
        &mut self,
        eng: &mut CalendarEngine<Ev>,
        now: SimTime,
        slot: u32,
        chunk: ChunkNo,
        target: NodeId,
        sent_at: SimTime,
    ) {
        let flow = self.flow_ids[slot as usize];
        if self.node_down[target.idx()]
            || self.custody[target.idx()]
                .store(now, flow, chunk, self.cfg.chunk_bytes)
                .is_err()
        {
            // the rescue point crashed in the meantime or is full
            self.counters.chunks_dropped += 1;
            return;
        }
        self.counters.chunks_rescued += 1;
        self.rescues[slot as usize] += 1;
        self.outage[slot as usize] += now.duration_since(sent_at);
        self.custody_peak = self.custody_peak.max(self.custody[target.idx()].used());
        let pos = self
            .route(slot)
            .iter()
            .position(|&n| n == target)
            .expect("rescue targets are primary-route nodes");
        let d = self.dirs(slot)[pos] as usize;
        let key = (target.idx() as u32, slot);
        if !self.resume_routes.contains_key(&key) {
            let tail = self.route(slot)[pos..].to_vec();
            self.resume_routes.insert(key, tail);
        }
        let reg = &mut self.drain_reg[d];
        if let Err(p) = reg.binary_search(&slot) {
            reg.insert(p, slot);
        }
        if !self.drain_scheduled[d] && !self.is_down(d) {
            self.drain_scheduled[d] = true;
            let t = self.channels.drain_time(d, DETOUR_QUEUE_THRESHOLD).max(now);
            eng.schedule_at(
                t,
                Ev::CustodyDrain {
                    node: target,
                    dir: d as u32,
                },
            )
            .expect("drain time is not in the past");
        }
    }

    // ---- request path ----------------------------------------------------

    fn send_request(
        &mut self,
        eng: &mut CalendarEngine<Ev>,
        now: SimTime,
        slot: u32,
        req: Request,
        covers: u64,
    ) {
        // requests travel the reversed primary route; no route is
        // materialised (the seed engine built a reversed Vec per request)
        self.forward_request(eng, now, slot, req, 0, covers);
    }

    fn forward_request(
        &mut self,
        eng: &mut CalendarEngine<Ev>,
        now: SimTime,
        slot: u32,
        req: Request,
        hop: u32,
        covers: u64,
    ) {
        // reversed-route index arithmetic: rev[h] = primary[len-1-h]
        let (here, up, d, down_dir) = {
            let r = self.route(slot);
            let dirs = self.dirs(slot);
            let i = r.len() - 1 - hop as usize;
            let here = r[i];
            let up = r[i - 1];
            // channel here -> rev[h+1] = primary[i-1]: the primary hop
            // (i-1) reversed
            let d = (dirs[i - 1] ^ 1) as usize;
            // channel here -> rev[h-1] = primary[i+1]: the forward hop i
            let down = if hop > 0 { dirs[i] as usize } else { 0 };
            (here, up, d, down)
        };
        if self.is_down(d) {
            // the upstream channel is dark: the request is lost, and the
            // receiver's timeout machinery re-issues it
            return;
        }
        // Eq. 1 accounting at intermediate routers (INRPP flows only): the
        // data pulled by this request will arrive from upstream (`d`) and
        // leave toward the receiver (`down_dir`).
        if self.is_inrpp(slot) && hop > 0 {
            let up = self.if_of_dir[d] as usize;
            let down = self.if_of_dir[down_dir] as usize;
            let bits = self.chunk_bits() * covers as f64;
            self.estimators[here.idx()].record_request(now, up, down, bits);
        }
        let bits = REQUEST_BYTES.as_bits() as f64;
        match self.channels.try_send(d, now, bits) {
            Ok(arrival) => {
                self.schedule_deliver(
                    eng,
                    arrival,
                    up,
                    Pkt::Request {
                        slot,
                        req,
                        hop: hop + 1,
                    },
                );
            }
            Err(_) => {
                // Requests are tiny; loss here is recovered by the
                // receiver's timeout machinery.
            }
        }
    }

    // ---- data path -------------------------------------------------------

    /// Emit a chunk from its sender onto the first hop of the primary
    /// route (no clone — the route arena is referenced in place).
    fn emit_chunk(
        &mut self,
        eng: &mut CalendarEngine<Ev>,
        now: SimTime,
        slot: u32,
        chunk: ChunkNo,
    ) -> Result<bool, SessionError> {
        self.forward_data(eng, now, slot, chunk, RouteRef::Primary, 0, 0, false, now)
    }

    /// Forward a data packet from `route[hop]` toward `route[hop+1]`,
    /// possibly splicing a detour. Returns false if the chunk was dropped
    /// or went into custody (i.e. it is no longer in flight).
    #[allow(clippy::too_many_arguments)]
    fn forward_data(
        &mut self,
        eng: &mut CalendarEngine<Ev>,
        now: SimTime,
        slot: u32,
        chunk: ChunkNo,
        mut rref: RouteRef,
        hop: u32,
        hops_travelled: u32,
        mut detoured: bool,
        sent_at: SimTime,
    ) -> Result<bool, SessionError> {
        let flow = self.flow_ids[slot as usize];
        let (here, next, len) = {
            let r = self.rroute(slot, rref);
            (r[hop as usize], r[hop as usize + 1], r.len())
        };
        let mut d = match rref {
            RouteRef::Primary => self.dirs(slot)[hop as usize] as usize,
            RouteRef::Owned(_) => self.dir_between(here, next, flow)?,
        };

        if self.is_inrpp(slot) {
            // Detour decision: phase machine says the interface is
            // congested, or the instantaneous queue crossed the threshold,
            // or an upstream slow-down caps this link, or a fault plan
            // took the channel down entirely.
            let li = self.if_of_dir[d] as usize;
            let phase = self.phases[here.idx()][li].phase();
            let queue_long = self.channels.queue_delay(d, now) > DETOUR_QUEUE_THRESHOLD;
            let bp_capped = {
                let link = DirIndex(d).link();
                self.bp[here.idx()].allowed_rate(now, link).is_some()
            };
            let dark = self.is_down(d);
            if (phase != Phase::PushData || queue_long || bp_capped || dark)
                && hop as usize + 2 <= len
            {
                // Slow path: split-borrow the route slice out of its arena
                // so the splitter can be borrowed mutably alongside it.
                let picked = {
                    let route: &[NodeId] = match rref {
                        RouteRef::Primary => {
                            let s = self.route_start[slot as usize] as usize;
                            let e = self.route_start[slot as usize + 1] as usize;
                            &self.route_nodes[s..e]
                        }
                        RouteRef::Owned(i) => &self.routes[i as usize],
                    };
                    pick_detour(
                        &self.bypass[d],
                        self.inrpp_cfg.is_some_and(|c| c.load_aware_detour),
                        &self.dense,
                        &self.channels,
                        &self.down_dirs,
                        &mut self.splitters,
                        now,
                        here,
                        flow,
                        route,
                        hop as usize,
                    )
                };
                if let Some((alt_route, alt_dir)) = picked {
                    self.free_route(rref);
                    rref = RouteRef::Owned(self.alloc_route(alt_route));
                    d = alt_dir;
                    // the recovery metric counts only fault-driven detours
                    // (planned channel down), not congestion detours — a
                    // fault-free run reports 0 regardless of load
                    if dark {
                        self.detours[slot as usize] += 1;
                    }
                    if !detoured {
                        detoured = true;
                        self.counters.chunks_detoured += 1;
                    }
                }
            }
        }

        if self.is_down(d) {
            // No live channel toward the next hop (and no viable detour):
            // INRPP takes custody here and resumes when the plan restores
            // the path; AIMD loses the chunk outright.
            if self.is_inrpp(slot) {
                return self.custody_store(eng, now, here, slot, chunk, rref, hop, d);
            }
            self.free_route(rref);
            self.counters.chunks_dropped += 1;
            return Ok(false);
        }

        let bits = self.chunk_bits();
        match self.channels.try_send(d, now, bits) {
            Ok(arrival) => {
                let n = self.data_sent[d];
                self.data_sent[d] += 1;
                // inside a loss-burst window the burst's chance replaces
                // the static one
                let chance = if now < self.burst_until[d] {
                    self.burst_drop[d]
                } else {
                    self.cfg.drop_chance
                };
                if self.fault.drops(d, n, chance) {
                    self.free_route(rref);
                    self.counters.chunks_dropped += 1;
                    return Ok(false);
                }
                // the detour splice may have rewritten the next hop
                let target = self.rroute(slot, rref)[hop as usize + 1];
                self.schedule_deliver(
                    eng,
                    arrival,
                    target,
                    Pkt::Data {
                        slot,
                        chunk,
                        route: rref,
                        hop: hop + 1,
                        hops_travelled: hops_travelled + 1,
                        detoured,
                        sent_at,
                    },
                );
                Ok(true)
            }
            Err(_) if self.is_inrpp(slot) => {
                // custody (store-and-forward) instead of dropping
                self.custody_store(eng, now, here, slot, chunk, rref, hop, d)
            }
            Err(_) => {
                // AIMD flow: drop-tail
                self.free_route(rref);
                self.counters.chunks_dropped += 1;
                Ok(false)
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn custody_store(
        &mut self,
        eng: &mut CalendarEngine<Ev>,
        now: SimTime,
        here: NodeId,
        slot: u32,
        chunk: ChunkNo,
        rref: RouteRef,
        hop: u32,
        d: usize,
    ) -> Result<bool, SessionError> {
        let flow = self.flow_ids[slot as usize];
        let stored = self.custody[here.idx()]
            .store(now, flow, chunk, self.cfg.chunk_bytes)
            .is_ok();
        if stored {
            self.counters.chunks_custodied += 1;
            self.custody_peak = self.custody_peak.max(self.custody[here.idx()].used());
            // parked because the onward channel is down: remember when, so
            // the eventual drain can attribute the wait to the outage
            if self.is_down(d) {
                self.parked.insert((here.idx() as u32, slot, chunk), now);
            }
            let key = (here.idx() as u32, slot);
            if !self.resume_routes.contains_key(&key) {
                let tail = self.rroute(slot, rref)[hop as usize..].to_vec();
                self.resume_routes.insert(key, tail);
            }
            let reg = &mut self.drain_reg[d];
            if let Err(pos) = reg.binary_search(&slot) {
                reg.insert(pos, slot);
            }
            // a drain onto a down channel parks instead: `dir_up` revives
            // it when the fault plan restores the path
            if !self.drain_scheduled[d] && !self.is_down(d) {
                self.drain_scheduled[d] = true;
                let t = self.channels.drain_time(d, DETOUR_QUEUE_THRESHOLD).max(now);
                eng.schedule_at(
                    t,
                    Ev::CustodyDrain {
                        node: here,
                        dir: d as u32,
                    },
                )
                .expect("drain time is not in the past");
            }
        } else {
            self.counters.chunks_dropped += 1;
        }
        // Either way the congested region pushes back if pressure is high.
        let fill = self.custody[here.idx()].fill_fraction();
        let threshold = self
            .inrpp_cfg
            .map(|c| c.cache_pressure_threshold)
            .unwrap_or(1.0);
        if (!stored || fill >= threshold) && hop > 0 {
            let upstream = self.rroute(slot, rref)[hop as usize - 1];
            self.emit_slowdown(eng, now, here, slot, upstream, d)?;
        }
        self.free_route(rref);
        Ok(false)
    }

    fn emit_slowdown(
        &mut self,
        eng: &mut CalendarEngine<Ev>,
        now: SimTime,
        here: NodeId,
        slot: u32,
        upstream: NodeId,
        congested_dir: usize,
    ) -> Result<(), SessionError> {
        let flow = self.flow_ids[slot as usize];
        let link = DirIndex(congested_dir).link();
        // control packet: link delay only (priority queueing); a dark
        // upstream channel swallows the message — the sender's timeout
        // machinery compensates
        let d = self.dir_between(here, upstream, flow)?;
        if self.is_down(d) {
            return Ok(());
        }
        let msg = SlowdownMsg {
            origin: here,
            congested_link: link,
            allowed: self.channels.rate(congested_dir),
            hops_travelled: 0,
        };
        self.counters.backpressure_msgs += 1;
        let arrival = now + self.channels.delay(d);
        self.schedule_deliver(eng, arrival, upstream, Pkt::Slowdown { msg, slot });
        Ok(())
    }

    // ---- receivers -------------------------------------------------------

    fn start_flow(&mut self, eng: &mut CalendarEngine<Ev>, now: SimTime, slot: u32) {
        let spec = self.specs[slot as usize];
        let kind = self.kinds[slot as usize];
        let flow = self.flow_ids[slot as usize];
        let stats = FlowStats {
            flow,
            chunks_total: spec.chunks,
            chunks_delivered: 0,
            started_at: now,
            completed_at: None,
            retransmits: 0,
            max_reorder_distance: 0,
            detours: 0,
            custody_rescues: 0,
            outage_delay: SimDuration::ZERO,
        };
        // a crashed receiver installs its state but stays silent: the
        // outstanding deadlines expire once it recovers and the check
        // ladder re-requests everything end-to-end
        let dst_up = !self.node_down[spec.dst.idx()];
        match (kind, self.inrpp_cfg, self.aimd_cfg) {
            (FlowTransport::Inrpp, Some(ic), _) => {
                let mut rec = Receiver::new(spec.chunks, ic.anticipation);
                let req = rec.initial_request();
                let covers = req.anticipated + 1;
                let deadline = now + RECEIVER_TIMEOUT;
                let mut rt = RxRt {
                    kind: RxKind::Inrpp(rec),
                    outstanding: Outstanding::default(),
                    stats,
                };
                for c in 0..=req.anticipated {
                    rt.outstanding.insert(c, deadline);
                }
                self.receivers[slot as usize] = Some(rt);
                if dst_up {
                    self.send_request(eng, now, slot, req, covers);
                }
            }
            (FlowTransport::Aimd, _, Some(_)) => {
                let mut rt = RxRt {
                    kind: RxKind::Aimd(AimdRx {
                        cwnd: INITIAL_WINDOW,
                        ssthresh: INITIAL_SSTHRESH,
                        total: spec.chunks,
                        next_unrequested: 0,
                        received: ChunkSet::default(),
                    }),
                    outstanding: Outstanding::default(),
                    stats,
                };
                let win = (INITIAL_WINDOW as u64).clamp(1, spec.chunks);
                let deadline = now + AIMD_RTO;
                let mut to_req = Vec::new();
                if let RxKind::Aimd(r) = &mut rt.kind {
                    for _ in 0..win {
                        to_req.push(r.next_unrequested);
                        rt.outstanding.insert(r.next_unrequested, deadline);
                        r.next_unrequested += 1;
                    }
                }
                self.receivers[slot as usize] = Some(rt);
                if dst_up {
                    for c in to_req {
                        let req = Request {
                            next: c,
                            ack: None,
                            anticipated: c,
                        };
                        self.send_request(eng, now, slot, req, 1);
                    }
                }
            }
            _ => unreachable!("add_transfer_as validated the flow transport"),
        }
        eng.schedule(RECEIVER_TIMEOUT, Ev::RxCheck(slot));
    }

    fn deliver_to_receiver(
        &mut self,
        eng: &mut CalendarEngine<Ev>,
        now: SimTime,
        slot: u32,
        chunk: ChunkNo,
        probes: &mut ProbeSet<'_, '_>,
    ) {
        let delivered_before = self.counters.chunks_delivered;
        let was_complete = self.receivers[slot as usize]
            .as_ref()
            .is_some_and(|rt| rt.stats.completed_at.is_some());
        // requests to issue once the receiver borrow ends
        let mut inrpp_req: Option<Request> = None;
        let mut aimd_reqs = std::mem::take(&mut self.scratch_chunks);
        {
            let Some(rt) = self.receivers[slot as usize].as_mut() else {
                self.scratch_chunks = aimd_reqs;
                return;
            };
            rt.outstanding.remove(chunk);
            match &mut rt.kind {
                RxKind::Inrpp(rec) => {
                    // reorder distance: how far past the in-order watermark
                    // this chunk landed (paper §4 open issue, quantified)
                    let expected = rec.highest_contiguous().map_or(0, |h| h + 1);
                    if chunk > expected {
                        rt.stats.max_reorder_distance =
                            rt.stats.max_reorder_distance.max(chunk - expected);
                    }
                    let out = rec.on_chunk(chunk);
                    if !out.duplicate {
                        rt.stats.chunks_delivered += 1;
                        self.counters.chunks_delivered += 1;
                    }
                    if out.completed && rt.stats.completed_at.is_none() {
                        rt.stats.completed_at = Some(now);
                    }
                    if let Some(req) = out.request {
                        rt.outstanding
                            .insert(req.anticipated, now + RECEIVER_TIMEOUT);
                        inrpp_req = Some(req);
                    }
                }
                RxKind::Aimd(r) => {
                    let expected = r.received.watermark();
                    if chunk > expected {
                        rt.stats.max_reorder_distance =
                            rt.stats.max_reorder_distance.max(chunk - expected);
                    }
                    if r.received.insert(chunk) {
                        rt.stats.chunks_delivered += 1;
                        self.counters.chunks_delivered += 1;
                        // AIMD growth: slow start then congestion avoidance
                        if r.cwnd < r.ssthresh {
                            r.cwnd += 1.0;
                        } else {
                            r.cwnd += 1.0 / r.cwnd;
                        }
                    }
                    if r.received.count() == r.total && rt.stats.completed_at.is_none() {
                        rt.stats.completed_at = Some(now);
                    }
                    // clock out new requests within the window
                    while (rt.outstanding.len() as f64) < r.cwnd.floor()
                        && r.next_unrequested < r.total
                    {
                        let c = r.next_unrequested;
                        r.next_unrequested += 1;
                        rt.outstanding.insert(c, now + AIMD_RTO);
                        aimd_reqs.push(c);
                    }
                }
            }
        }
        if let Some(req) = inrpp_req {
            self.send_request(eng, now, slot, req, 1);
        }
        for &c in &aimd_reqs {
            let req = Request {
                next: c,
                ack: Some(chunk),
                anticipated: c,
            };
            self.send_request(eng, now, slot, req, 1);
        }
        aimd_reqs.clear();
        self.scratch_chunks = aimd_reqs;
        // probe emission: after the receiver state settled, before the
        // next event — purely observational
        if !probes.is_empty() {
            let chunk_bits = self.cfg.chunk_bytes.as_bits() as f64;
            if self.counters.chunks_delivered > delivered_before {
                probes.sample(&Sample {
                    time: now,
                    delivered_bits: self.counters.chunks_delivered as f64 * chunk_bits,
                });
            }
            if let Some(rt) = self.receivers[slot as usize].as_ref() {
                if !was_complete {
                    if let Some(done) = rt.stats.completed_at {
                        probes.flow_end(&FlowEnd {
                            time: now,
                            flow: self.flow_ids[slot as usize],
                            delivered_bits: rt.stats.chunks_delivered as f64 * chunk_bits,
                            fct_secs: done.duration_since(rt.stats.started_at).as_secs_f64(),
                        });
                    }
                }
            }
        }
    }

    fn rx_check(&mut self, eng: &mut CalendarEngine<Ev>, now: SimTime, slot: u32) {
        // AIMD flows time out on their own RTO; INRPP on the receiver timer
        let timeout = match self.kinds[slot as usize] {
            FlowTransport::Aimd => AIMD_RTO,
            FlowTransport::Inrpp => RECEIVER_TIMEOUT,
        };
        // a crashed receiver cannot observe timeouts; keep the check
        // ladder beating (it is a barrier rung in sharded runs) and
        // resume expiry once the node recovers
        if self.node_down[self.specs[slot as usize].dst.idx()] {
            eng.schedule(timeout / 2, Ev::RxCheck(slot));
            return;
        }
        let mut expired = std::mem::take(&mut self.scratch_chunks);
        {
            let Some(rt) = self.receivers[slot as usize].as_mut() else {
                self.scratch_chunks = expired;
                return;
            };
            if rt.stats.completed_at.is_some() {
                self.scratch_chunks = expired;
                return; // done: stop checking
            }
            rt.outstanding.expired_into(now, &mut expired);
            if !expired.is_empty() {
                if let RxKind::Aimd(r) = &mut rt.kind {
                    // one loss event per check: multiplicative decrease
                    r.ssthresh = (r.cwnd / 2.0).max(2.0);
                    r.cwnd = 1.0;
                }
                for &c in &expired {
                    rt.stats.retransmits += 1;
                    rt.outstanding.insert(c, now + timeout);
                }
            }
        }
        if let Some(region) = self.region.as_mut() {
            // Sharded mode: the sender may live in another region, and the
            // retransmit push must take effect at this exact instant (a
            // barrier by construction — the ladder contains every rx-check
            // rung). Emit a command instead of mutating directly; the
            // driver merges commands from all regions in the sequential
            // order and applies them in the barrier's second phase. Always
            // routed through the command path — even for a local sender —
            // so local and remote commands keep their global order.
            if !expired.is_empty() {
                let to_region = region.region_of[self.specs[slot as usize].src.idx()];
                region.outboxes[to_region as usize].cmds.push(RxCmd {
                    slot,
                    chunks: expired.clone(),
                });
            }
        } else {
            for &c in &expired {
                // retransmission: sender must resend even though its window
                // already advanced past this chunk
                self.queue_retransmit(eng, c, slot);
            }
        }
        expired.clear();
        self.scratch_chunks = expired;
        eng.schedule(timeout / 2, Ev::RxCheck(slot));
    }

    fn queue_retransmit(&mut self, eng: &mut CalendarEngine<Ev>, chunk: ChunkNo, slot: u32) {
        let src = self.specs[slot as usize].src;
        self.retransmit[src.idx()].push_back((slot, chunk));
        self.schedule_kick(eng, src, SimDuration::ZERO);
    }

    // ---- sender ----------------------------------------------------------

    fn sender_kick(
        &mut self,
        eng: &mut CalendarEngine<Ev>,
        now: SimTime,
        node: NodeId,
    ) -> Result<(), SessionError> {
        self.kick_scheduled[node.idx()] = false;
        // a crashed sender emits nothing; NodeRecover re-kicks it
        if self.node_down[node.idx()] {
            return Ok(());
        }
        // pacing: keep each access channel's backlog under a few chunks
        let pace = self.cfg.chunk_bytes.as_bits() as f64 * 4.0;
        let mut blocked_drain: Option<SimTime> = None;
        // retransmissions first
        while let Some(&(slot, chunk)) = self.retransmit[node.idx()].front() {
            let d = self.first_dir(slot);
            if self.channels.backlog_bits(d, now) > pace {
                blocked_drain = Some(self.channels.drain_time(d, SimDuration::ZERO));
                break;
            }
            self.retransmit[node.idx()].pop_front();
            self.emit_chunk(eng, now, slot, chunk)?;
        }
        // fresh chunks, processor sharing across flows
        let mut guard = 0usize;
        loop {
            guard += 1;
            if guard > 10_000 {
                break; // paranoid bound; pacing normally stops the loop
            }
            let flow_ids = &self.flow_ids;
            let dir_start = &self.dir_start;
            let route_dirs = &self.route_dirs;
            let channels = &self.channels;
            let Some(sender) = self.senders[node.idx()].as_mut() else {
                break;
            };
            let next = sender.next_chunk_where(|f| {
                let slot = flow_ids
                    .binary_search(&f)
                    .expect("sender flows are registered");
                let d = route_dirs[dir_start[slot] as usize] as usize;
                channels.backlog_bits(d, now) <= pace
            });
            match next {
                Some((flow, chunk)) => {
                    let slot = self.slot_of(flow);
                    self.emit_chunk(eng, now, slot, chunk)?;
                }
                None => {
                    // nothing admissible; if flows still have data, retry
                    // when the busiest access channel drains
                    if self.senders[node.idx()]
                        .as_ref()
                        .is_some_and(|s| s.has_eligible())
                    {
                        let t = self.node_flows[node.idx()]
                            .iter()
                            .map(|&slot| {
                                self.channels
                                    .drain_time(self.first_dir(slot), SimDuration::ZERO)
                            })
                            .min()
                            .unwrap_or(now);
                        blocked_drain = Some(blocked_drain.map_or(t, |b| b.min(t)));
                    }
                    break;
                }
            }
        }
        if let Some(t) = blocked_drain {
            let t = t.max(now + SimDuration::from_micros(10));
            if !self.kick_scheduled[node.idx()] {
                self.kick_scheduled[node.idx()] = true;
                eng.schedule_at(t, Ev::SenderKick(node)).expect("future");
            }
        }
        Ok(())
    }

    // ---- custody drain ---------------------------------------------------

    fn custody_drain(
        &mut self,
        eng: &mut CalendarEngine<Ev>,
        now: SimTime,
        node: NodeId,
        d: usize,
    ) -> Result<(), SessionError> {
        self.drain_scheduled[d] = false;
        // parked while the path or the custody point is dark; `dir_up` /
        // `NodeRecover` re-arm the drain when the fault clears
        if self.is_down(d) || self.node_down[node.idx()] {
            return Ok(());
        }
        loop {
            if self.channels.queue_delay(d, now) > DETOUR_QUEUE_THRESHOLD {
                break;
            }
            // lowest slot (= lowest flow id) first: deterministic round
            // across flows as each pop re-checks the registry
            let Some(&slot) = self.drain_reg[d].first() else {
                return Ok(());
            };
            let flow = self.flow_ids[slot as usize];
            let key = (node.idx() as u32, slot);
            match self.custody[node.idx()].pop_next(flow) {
                Some((chunk, _)) => {
                    // outage attribution: time this chunk sat in custody
                    // because the onward path was down
                    if let Some(t) = self.parked.remove(&(node.idx() as u32, slot, chunk)) {
                        self.outage[slot as usize] += now.duration_since(t);
                    }
                    // copy the resume tail into a pooled owned route (the
                    // seed cloned a fresh Vec per resumed packet)
                    let tail = self
                        .resume_routes
                        .get(&key)
                        .expect("custodied flows have resume routes");
                    let ri = match self.routes_free.pop() {
                        Some(i) => {
                            let v = &mut self.routes[i as usize];
                            v.clear();
                            v.extend_from_slice(tail);
                            i
                        }
                        None => {
                            self.routes.push(tail.clone());
                            (self.routes.len() - 1) as u32
                        }
                    };
                    // custody resets the local hop count
                    self.forward_data(eng, now, slot, chunk, RouteRef::Owned(ri), 0, 0, true, now)?;
                }
                None => {
                    let reg = &mut self.drain_reg[d];
                    if let Ok(pos) = reg.binary_search(&slot) {
                        reg.remove(pos);
                    }
                    self.resume_routes.remove(&key);
                    continue;
                }
            }
        }
        // still work left: reschedule at the drain instant
        let has_work = !self.drain_reg[d].is_empty();
        if has_work && !self.drain_scheduled[d] {
            self.drain_scheduled[d] = true;
            let t = self
                .channels
                .drain_time(d, DETOUR_QUEUE_THRESHOLD)
                .max(now + SimDuration::from_micros(100));
            eng.schedule_at(
                t,
                Ev::CustodyDrain {
                    node,
                    dir: d as u32,
                },
            )
            .expect("future");
        }
        Ok(())
    }

    // ---- maintenance tick ------------------------------------------------

    fn tick(&mut self, eng: &mut CalendarEngine<Ev>, now: SimTime, node: NodeId) {
        let Some(ic) = self.inrpp_cfg else { return };
        // a crashed node neither rolls estimators nor moves its phases,
        // but its maintenance clock keeps beating so recovery resumes
        // seamlessly
        if self.node_down[node.idx()] {
            eng.schedule(ic.interval, Ev::Tick(node));
            return;
        }
        self.estimators[node.idx()].maybe_roll(now);
        self.bp[node.idx()].cleanup(now);
        for li in 0..self.nbrs[node.idx()].len() {
            let d = self.nbrs[node.idx()][li].1 as usize;
            let inputs = PhaseInputs {
                anticipated: self.estimators[node.idx()].anticipated_rate(li),
                capacity: self.channels.rate(d),
                detour_available: !self.bypass[d].is_empty(),
                cache_fill: self.custody[node.idx()].fill_fraction(),
            };
            self.phases[node.idx()][li].update(inputs);
        }
        eng.schedule(ic.interval, Ev::Tick(node));
    }

    // ---- slowdown handling -----------------------------------------------

    fn on_slowdown(
        &mut self,
        eng: &mut CalendarEngine<Ev>,
        now: SimTime,
        msg: SlowdownMsg,
        slot: u32,
        at: NodeId,
    ) {
        self.bp[at.idx()].apply(now, &msg, BACKPRESSURE_TTL);
        let spec = self.specs[slot as usize];
        if at == spec.src {
            // the sender: enter the closed loop for this flow (§3.2)
            let flow = self.flow_ids[slot as usize];
            if let Some(s) = self.senders[at.idx()].as_mut() {
                s.set_mode(flow, SenderMode::ClosedLoop);
            }
            eng.schedule(BACKPRESSURE_TTL, Ev::BpExpire { node: at, slot });
            return;
        }
        // otherwise: propagate one hop further upstream along the flow
        // route — the hop direction is precomputed, reversed
        let found = {
            let route = self.route(slot);
            let dirs = self.dirs(slot);
            match route.iter().position(|&n| n == at) {
                Some(pos) if pos > 0 => Some(((dirs[pos - 1] ^ 1) as usize, route[pos - 1])),
                _ => None,
            }
        };
        if let Some((d, up)) = found {
            if self.is_down(d) {
                return; // propagation path is dark: message lost
            }
            let arrival = now + self.channels.delay(d);
            self.counters.backpressure_msgs += 1;
            self.schedule_deliver(
                eng,
                arrival,
                up,
                Pkt::Slowdown {
                    msg: msg.propagated(),
                    slot,
                },
            );
        }
    }

    fn bp_expire(&mut self, eng: &mut CalendarEngine<Ev>, node: NodeId, slot: u32) {
        let is_inrpp = self.is_inrpp(slot);
        let flow = self.flow_ids[slot as usize];
        if let Some(s) = self.senders[node.idx()].as_mut() {
            // only INRPP flows leave the closed loop again; AIMD flows are
            // permanently request-clocked
            if is_inrpp {
                s.set_mode(flow, SenderMode::PushData);
            }
        }
        self.schedule_kick(eng, node, SimDuration::ZERO);
    }

    // ---- main loop -------------------------------------------------------

    /// Calendar bucket width: the serialisation time of one chunk on the
    /// fastest channel — the densest event cadence the run can generate.
    /// Clamped so degenerate rates can't make the ring uselessly fine or
    /// coarse; the overflow heap keeps any width correct regardless.
    fn calendar_width(&self) -> SimDuration {
        let bits = self.chunk_bits();
        (0..self.channels.len())
            .map(|d| self.channels.rate(d).time_to_send(bits))
            .min()
            .unwrap_or(SimDuration::from_millis(1))
            .clamp(SimDuration::from_micros(1), SimDuration::from_millis(16))
    }

    /// Build the run's calendar and seed it: every plan event ≤ horizon,
    /// then every flow's `Start` in slot order, then (under INRPP) one
    /// maintenance `Tick` per node. The order is load-bearing: bootstrap
    /// sequence numbers are the smallest in the run, so these events win
    /// every same-instant tie, and a fault wins over everything.
    ///
    /// A region core seeds only what it owns, a `Start` where it owns the
    /// flow's receiver and a `Tick` where it owns the node, but every
    /// fault: fault state is replicated, its side effects are gated on
    /// ownership. Sequentially every node is owned, and in each region
    /// the events it will pop keep their sequential relative order.
    pub(crate) fn bootstrap(&self) -> CalendarEngine<Ev> {
        let horizon = SimTime::ZERO + self.cfg.horizon;
        let mut eng = CalendarEngine::new(self.calendar_width(), 4096).with_horizon(horizon);
        for (i, ev) in self.fault_plan.iter().enumerate() {
            if ev.at <= horizon {
                eng.schedule_at(ev.at, Ev::Fault(i as u32))
                    .expect("plan events are never in the past at bootstrap");
            }
        }
        for (slot, spec) in self.specs.iter().enumerate() {
            if self.owns_node(spec.dst) {
                eng.schedule_at(spec.start, Ev::Start(slot as u32))
                    .expect("start in window");
            }
        }
        if self.inrpp_cfg.is_some() {
            for n in self.topo.node_ids().filter(|&n| self.owns_node(n)) {
                eng.schedule(SimDuration::ZERO, Ev::Tick(n));
            }
        }
        eng
    }

    /// Append one transfer to a *live* run (service-mode streaming
    /// ingestion). Validation is [`check_transfer`], as for
    /// [`PacketSim::try_add_transfer_as`], plus two liveness constraints:
    /// the flow id must exceed every id already in the run (slots are
    /// ranks of ascending flow ids, and queued events address flows by
    /// slot — an insertion anywhere but the end would re-rank live
    /// slots), and the start instant must not precede the clock. State is
    /// only mutated once every check passed.
    fn feed(
        &mut self,
        eng: &mut CalendarEngine<Ev>,
        spec: TransferSpec,
        kind: FlowTransport,
    ) -> Result<(), SessionError> {
        assert!(
            self.region.is_none(),
            "feeding a region core is unsupported; feed the sequential engine"
        );
        let path = check_transfer(self.topo, &self.cfg.transport, &spec, kind)?;
        if let Some(&max) = self.flow_ids.last() {
            if spec.flow <= max {
                return Err(SessionError::InvalidTransfer(format!(
                    "fed flow id {} must exceed every id already in the run (max {max})",
                    spec.flow
                )));
            }
        }
        let nodes = path.nodes().to_vec();
        let mut dirs = Vec::with_capacity(nodes.len().saturating_sub(1));
        for w in nodes.windows(2) {
            dirs.push(
                self.dense
                    .dir_index(w[0], w[1])
                    .ok_or(SessionError::Unroutable { flow: spec.flow })?,
            );
        }
        let slot = self.flow_ids.len() as u32;
        eng.schedule_at(spec.start, Ev::Start(slot)).map_err(|e| {
            SessionError::InvalidTransfer(format!(
                "fed flow {} cannot start in the past: {e}",
                spec.flow
            ))
        })?;
        self.flow_ids.push(spec.flow);
        self.specs.push(spec);
        self.kinds.push(kind);
        self.route_nodes.extend_from_slice(&nodes);
        self.route_start.push(self.route_nodes.len() as u32);
        self.route_dirs.extend_from_slice(&dirs);
        self.dir_start.push(self.route_dirs.len() as u32);
        self.node_flows[spec.src.idx()].push(slot);
        self.receivers.push(None);
        self.detours.push(0);
        self.rescues.push(0);
        self.outage.push(SimDuration::ZERO);
        let push_ahead = self.inrpp_cfg.map(|c| c.anticipation).unwrap_or(0);
        let s = self.senders[spec.src.idx()].get_or_insert_with(|| Sender::new(push_ahead));
        s.register(spec.flow, spec.chunks);
        if kind == FlowTransport::Aimd {
            s.set_mode(spec.flow, SenderMode::ClosedLoop);
        }
        Ok(())
    }

    /// Fold the state region core `other` owns into this one, after the
    /// last window of a sharded run, so that folding every other region
    /// into one region's core leaves the sequential run's state behind
    /// [`Core::assemble_report`]: each directed channel from the owner of
    /// its source node, each receiver from the owner of its destination,
    /// each node's phase controllers from the node's owner. The per-slot
    /// recovery metrics and the counters accumulate wherever their
    /// events fire, so they add up (integer and nanosecond sums), and the
    /// custody peak, a per-store maximum, is the largest of them.
    pub(crate) fn absorb_region(&mut self, mut other: Core<'a>) {
        for d in 0..self.channels.len() {
            if other.owns_node(self.dir_src(d)) {
                self.channels.copy_channel(d, &other.channels);
            }
        }
        for slot in 0..self.specs.len() {
            if other.owns_node(self.specs[slot].dst) {
                self.receivers[slot] = other.receivers[slot].take();
            }
            self.detours[slot] += other.detours[slot];
            self.rescues[slot] += other.rescues[slot];
            self.outage[slot] += other.outage[slot];
        }
        for n in self.topo.node_ids() {
            if other.owns_node(n) {
                self.phases[n.idx()] = std::mem::take(&mut other.phases[n.idx()]);
            }
        }
        let (c, o) = (&mut self.counters, &other.counters);
        c.chunks_delivered += o.chunks_delivered;
        c.chunks_dropped += o.chunks_dropped;
        c.chunks_detoured += o.chunks_detoured;
        c.chunks_custodied += o.chunks_custodied;
        c.chunks_rescued += o.chunks_rescued;
        c.backpressure_msgs += o.backpressure_msgs;
        self.custody_peak = self.custody_peak.max(other.custody_peak);
    }

    /// Assemble the report from the accumulators as they stand — the end
    /// of a full run, or an incremental snapshot of a stepped one.
    pub(crate) fn assemble_report(&self) -> PacketSimReport {
        let horizon_d = self.cfg.horizon;
        let channel_utilisation: Vec<f64> = (0..self.channels.len())
            .map(|d| self.channels.utilisation(d, horizon_d))
            .collect();
        let mean_utilisation = self.channels.mean_utilisation(horizon_d);
        let mut flows: Vec<FlowStats> = Vec::new();
        for rt in self.receivers.iter().flatten() {
            flows.push(rt.stats.clone());
        }
        // flows that never started still appear with zero progress
        for (slot, rt) in self.receivers.iter().enumerate() {
            if rt.is_none() {
                let spec = self.specs[slot];
                flows.push(FlowStats {
                    flow: self.flow_ids[slot],
                    chunks_total: spec.chunks,
                    chunks_delivered: 0,
                    started_at: spec.start,
                    completed_at: None,
                    retransmits: 0,
                    max_reorder_distance: 0,
                    detours: 0,
                    custody_rescues: 0,
                    outage_delay: SimDuration::ZERO,
                });
            }
        }
        flows.sort_by_key(|f| f.flow);
        // recovery metrics live in per-slot vectors during the run (they
        // accumulate in whatever region the event fires in, not only the
        // receiver's); copy them into the flow records here
        for f in &mut flows {
            let slot = self.slot_of(f.flow) as usize;
            f.detours = self.detours[slot];
            f.custody_rescues = self.rescues[slot];
            f.outage_delay = self.outage[slot];
        }
        PacketSimReport {
            transport: match (self.inrpp_cfg.is_some(), self.aimd_cfg.is_some()) {
                (true, true) => "MIXED".into(),
                (true, false) => "INRPP".into(),
                _ => "AIMD".into(),
            },
            topology: self.topo.name().to_string(),
            horizon: horizon_d,
            flows,
            chunks_delivered: self.counters.chunks_delivered,
            chunks_dropped: self.counters.chunks_dropped,
            chunks_detoured: self.counters.chunks_detoured,
            chunks_custodied: self.counters.chunks_custodied,
            chunks_rescued: self.counters.chunks_rescued,
            backpressure_msgs: self.counters.backpressure_msgs,
            custody_peak: self.custody_peak,
            mean_utilisation,
            channel_utilisation,
            channel_bits_sent: (0..self.channels.len())
                .map(|d| self.channels.bits_sent(d))
                .collect(),
            chunk_bytes: self.cfg.chunk_bytes,
            phase_transitions: self.phases.iter().flatten().map(|c| c.transitions()).sum(),
        }
    }

    /// Process one event — the body of the sequential main loop, shared
    /// verbatim with the shard driver so region workers execute exactly
    /// the sequential engine's transition function.
    pub(crate) fn step(
        &mut self,
        eng: &mut CalendarEngine<Ev>,
        now: SimTime,
        ev: Ev,
        probes: &mut ProbeSet<'_, '_>,
    ) -> Result<(), SessionError> {
        match ev {
            Ev::Start(slot) => {
                self.start_flow(eng, now, slot);
                // the sender may already have push-ahead work; in region
                // mode the shard driver inserts this kick from its static
                // control schedule instead (the sender may be remote)
                let spec = self.specs[slot as usize];
                if self.region.is_none() {
                    self.schedule_kick(eng, spec.src, SimDuration::ZERO);
                }
                if !probes.is_empty() {
                    probes.flow_start(&FlowStart {
                        time: now,
                        flow: self.flow_ids[slot as usize],
                        src: spec.src,
                        dst: spec.dst,
                        size_bits: spec.chunks as f64 * self.cfg.chunk_bytes.as_bits() as f64,
                        subpaths: 1,
                    });
                }
            }
            Ev::SenderKick(n) => self.sender_kick(eng, now, n)?,
            Ev::Fault(i) => self.apply_fault(eng, now, i),
            Ev::Tick(n) => self.tick(eng, now, n),
            Ev::RxCheck(slot) => self.rx_check(eng, now, slot),
            Ev::CustodyDrain { node, dir } => self.custody_drain(eng, now, node, dir as usize)?,
            Ev::BpExpire { node, slot } => self.bp_expire(eng, node, slot),
            Ev::Deliver(idx) => {
                let pkt = self.pkts[idx as usize]
                    .take()
                    .expect("packet delivered twice");
                self.pkt_free.push(idx);
                match pkt {
                    Pkt::Request { slot, req, hop } => {
                        let (here, len) = {
                            let r = self.route(slot);
                            (r[r.len() - 1 - hop as usize], r.len() as u32)
                        };
                        if self.node_down[here.idx()] {
                            // landed on a crashed node: lost; the
                            // receiver's timeout re-issues it
                        } else if hop + 1 == len {
                            // reached the sender
                            let flow = self.flow_ids[slot as usize];
                            if let Some(s) = self.senders[here.idx()].as_mut() {
                                s.on_request(flow, req);
                            }
                            self.schedule_kick(eng, here, SimDuration::ZERO);
                        } else {
                            self.forward_request(eng, now, slot, req, hop, 1);
                        }
                    }
                    Pkt::Data {
                        slot,
                        chunk,
                        route,
                        hop,
                        hops_travelled,
                        detoured,
                        sent_at,
                    } => {
                        let landing = self.rroute(slot, route)[hop as usize];
                        if self.node_down[landing.idx()] {
                            // the chunk arrives at a crashed node and is
                            // lost with it; end-to-end recovery re-requests
                            self.free_route(route);
                            self.counters.chunks_dropped += 1;
                        } else if hop as usize + 1 == self.rroute(slot, route).len() {
                            self.free_route(route);
                            self.deliver_to_receiver(eng, now, slot, chunk, probes);
                        } else {
                            self.forward_data(
                                eng,
                                now,
                                slot,
                                chunk,
                                route,
                                hop,
                                hops_travelled,
                                detoured,
                                sent_at,
                            )?;
                        }
                    }
                    Pkt::Slowdown { msg, slot } => {
                        // delivered to the upstream node: figure out who
                        // we are from the flow route relative to origin
                        let at = {
                            let route = self.route(slot);
                            route
                                .iter()
                                .position(|&n| n == msg.origin)
                                .and_then(|p| p.checked_sub(1 + msg.hops_travelled as usize))
                                .map(|p| route[p])
                        };
                        if let Some(at) = at {
                            if !self.node_down[at.idx()] {
                                self.on_slowdown(eng, now, msg, slot, at);
                            }
                        }
                    }
                    Pkt::Rescue {
                        slot,
                        chunk,
                        target,
                        sent_at,
                    } => self.rescue_arrive(eng, now, slot, chunk, target, sent_at),
                }
            }
        }
        Ok(())
    }
}

/// Pick a detour around the congested hop `route[hop] -> route[hop + 1]`
/// from `cands`, that channel's bypass paths, preferring alternatives
/// whose first channel has headroom. Returns the spliced route and the
/// new first-hop channel.
///
/// A free function (not a `Core` method) so the caller can split-borrow:
/// the current route slice stays borrowed from its arena while the
/// flowlet splitter is borrowed mutably. A candidate hop with no channel
/// is treated as non-viable instead of panicking (the seed's behaviour
/// on that impossible input).
#[allow(clippy::too_many_arguments)]
fn pick_detour(
    cands: &[Path],
    load_aware: bool,
    dense: &DenseChannels,
    channels: &ChannelBank,
    down: &[u32],
    splitters: &mut [FlowletSplitter],
    now: SimTime,
    here: NodeId,
    flow: FlowId,
    route: &[NodeId],
    hop: usize,
) -> Option<(Vec<NodeId>, usize)> {
    // A candidate is viable when it does not revisit nodes on the
    // remaining route and its channels have headroom. Load-aware mode
    // (§3.3 option i: neighbours advertise interface loads) checks
    // every hop of the detour; blind mode (option ii) sees only the
    // local first hop.
    let viable: Vec<&Path> = cands
        .iter()
        .filter(|p| {
            // a down channel is never viable — in blind mode only the
            // locally observable first hop is checked, mirroring how far
            // the node can actually see
            let hops_ok = if load_aware {
                p.nodes().windows(2).all(|w| {
                    dense.dir_index(w[0], w[1]).is_some_and(|d| {
                        down[d as usize] == 0
                            && channels.queue_delay(d as usize, now) <= DETOUR_QUEUE_THRESHOLD
                    })
                })
            } else {
                dense.dir_index(here, p.nodes()[1]).is_some_and(|d| {
                    down[d as usize] == 0
                        && channels.queue_delay(d as usize, now) <= DETOUR_QUEUE_THRESHOLD
                })
            };
            hops_ok
                && p.nodes()[1..p.nodes().len() - 1]
                    .iter()
                    .all(|n| !route.contains(n))
        })
        .collect();
    if viable.is_empty() {
        return None;
    }
    let pick = splitters[here.idx()].assign(now, flow, viable.len());
    let detour = viable[pick];
    let mut new_route = route[..=hop].to_vec();
    new_route.extend_from_slice(&detour.nodes()[1..]);
    new_route.extend_from_slice(&route[hop + 2..]);
    let first = dense.dir_index(here, detour.nodes()[1])? as usize;
    Some((new_route, first))
}
#[cfg(test)]
mod tests {
    use super::*;
    use inrpp_sim::units::Rate;

    fn fig3() -> Topology {
        Topology::fig3()
    }

    fn n(t: &Topology, s: &str) -> NodeId {
        t.node_by_name(s).unwrap()
    }

    fn inrpp_cfg() -> PacketSimConfig {
        PacketSimConfig {
            horizon: SimDuration::from_secs(30),
            ..PacketSimConfig::default()
        }
    }

    fn aimd_cfg() -> PacketSimConfig {
        PacketSimConfig {
            transport: TransportKind::Aimd(AimdConfig),
            horizon: SimDuration::from_secs(30),
            ..PacketSimConfig::default()
        }
    }

    fn transfer(t: &Topology, flow: FlowId, src: &str, dst: &str, chunks: u64) -> TransferSpec {
        TransferSpec {
            flow,
            src: n(t, src),
            dst: n(t, dst),
            chunks,
            start: SimTime::ZERO,
        }
    }

    #[test]
    fn single_transfer_completes_inrpp() {
        let t = fig3();
        let mut sim = PacketSim::new(&t, inrpp_cfg());
        sim.add_transfer(transfer(&t, 1, "1", "3", 200));
        let r = sim.run();
        assert_eq!(r.completed(), 1);
        assert_eq!(r.flows[0].chunks_delivered, 200);
        assert_eq!(r.chunks_dropped, 0, "no drops expected on a quiet net");
        assert!(r.mean_fct_secs() > 0.0);
    }

    #[test]
    fn single_transfer_completes_aimd() {
        let t = fig3();
        let mut sim = PacketSim::new(&t, aimd_cfg());
        sim.add_transfer(transfer(&t, 1, "1", "3", 200));
        let r = sim.run();
        assert_eq!(r.transport, "AIMD");
        assert_eq!(r.completed(), 1);
        assert_eq!(r.flows[0].chunks_delivered, 200);
    }

    #[test]
    fn bottleneck_flow_detours_via_node3() {
        // One fat flow from 1 to 4: the 2 Mbps link saturates and INRPP
        // must move the excess over node 3.
        let t = fig3();
        let mut sim = PacketSim::new(&t, inrpp_cfg());
        sim.add_transfer(transfer(&t, 1, "1", "4", 800));
        let r = sim.run();
        assert_eq!(r.completed(), 1, "flow should finish: {}", r.summary());
        assert!(
            r.chunks_detoured > 0,
            "expected detours over node 3: {}",
            r.summary()
        );
        // goodput should exceed the 2 Mbps bottleneck thanks to pooling
        let fct = r.flows[0].fct().unwrap().as_secs_f64();
        let bits = 800.0 * r.chunk_bytes.as_bits() as f64;
        let goodput = bits / fct;
        assert!(
            goodput > 2.2e6,
            "goodput {goodput} should beat the 2 Mbps bottleneck"
        );
    }

    #[test]
    fn aimd_sticks_to_primary_path() {
        let t = fig3();
        let mut sim = PacketSim::new(&t, aimd_cfg());
        sim.add_transfer(transfer(&t, 1, "1", "4", 400));
        let r = sim.run();
        assert_eq!(r.chunks_detoured, 0);
        assert_eq!(r.chunks_custodied, 0);
        assert_eq!(r.backpressure_msgs, 0);
        // AIMD is capped by the 2 Mbps bottleneck
        if let Some(fct) = r.flows[0].fct() {
            let goodput = 400.0 * r.chunk_bytes.as_bits() as f64 / fct.as_secs_f64();
            assert!(
                goodput < 2.2e6,
                "AIMD goodput {goodput} can't exceed bottleneck"
            );
        }
    }

    #[test]
    fn inrpp_beats_aimd_on_fig3() {
        let t = fig3();
        let chunks = 600;
        let mut s1 = PacketSim::new(&t, inrpp_cfg());
        s1.add_transfer(transfer(&t, 1, "1", "4", chunks));
        let ri = s1.run();
        let mut s2 = PacketSim::new(&t, aimd_cfg());
        s2.add_transfer(transfer(&t, 1, "1", "4", chunks));
        let ra = s2.run();
        let fi = ri.flows[0].fct().expect("INRPP finishes").as_secs_f64();
        let fa = ra.flows[0].fct().expect("AIMD finishes").as_secs_f64();
        assert!(
            fi < fa,
            "INRPP FCT {fi:.2}s should beat AIMD {fa:.2}s (pooling beats single path)"
        );
    }

    #[test]
    fn two_flows_share_fairly_inrpp() {
        let t = fig3();
        let mut sim = PacketSim::new(&t, inrpp_cfg());
        sim.add_transfer(transfer(&t, 1, "1", "4", 400));
        sim.add_transfer(transfer(&t, 2, "1", "3", 400));
        let r = sim.run();
        assert_eq!(r.completed(), 2, "{}", r.summary());
        let j = r.jain_goodput().unwrap();
        assert!(j > 0.85, "INRPP fairness {j} too low");
    }

    #[test]
    fn overload_triggers_custody_and_backpressure() {
        // tiny custody budget + heavy overload on the bottleneck
        let t = fig3();
        let mut cfg = inrpp_cfg();
        if let TransportKind::Inrpp(ref mut ic) = cfg.transport {
            ic.cache_budget = ByteSize::kb(20); // 16 chunks
            ic.anticipation = 16;
        }
        cfg.horizon = SimDuration::from_secs(20);
        let mut sim = PacketSim::new(&t, cfg);
        sim.add_transfer(transfer(&t, 1, "1", "4", 2000));
        sim.add_transfer(transfer(&t, 2, "1", "4", 2000));
        let r = sim.run();
        assert!(
            r.chunks_custodied > 0,
            "expected custody under overload: {}",
            r.summary()
        );
        assert!(r.custody_peak > ByteSize::ZERO);
    }

    #[test]
    fn custody_pressure_emits_backpressure() {
        // a custody store barely bigger than one chunk fills immediately
        // under overload, so slow-downs must reach upstream
        let t = fig3();
        let mut cfg = inrpp_cfg();
        if let TransportKind::Inrpp(ref mut ic) = cfg.transport {
            ic.cache_budget = ByteSize::bytes(4_000); // 3 chunks
            ic.anticipation = 32;
            ic.cache_pressure_threshold = 0.5;
        }
        cfg.horizon = SimDuration::from_secs(30);
        let mut sim = PacketSim::new(&t, cfg);
        sim.add_transfer(transfer(&t, 1, "1", "4", 1000));
        sim.add_transfer(transfer(&t, 2, "1", "4", 1000));
        let r = sim.run();
        assert!(
            r.backpressure_msgs > 0,
            "pressure on a tiny custody store must push back: {}",
            r.summary()
        );
        assert!(r.chunks_custodied > 0, "{}", r.summary());
    }

    #[test]
    fn fault_injection_forces_retransmits() {
        let t = fig3();
        let mut cfg = inrpp_cfg();
        cfg.drop_chance = 0.05;
        cfg.horizon = SimDuration::from_secs(60);
        let mut sim = PacketSim::new(&t, cfg);
        sim.add_transfer(transfer(&t, 1, "1", "3", 300));
        let r = sim.run();
        assert!(r.chunks_dropped > 0, "fault injector must drop something");
        assert_eq!(
            r.completed(),
            1,
            "timeouts must recover losses: {}",
            r.summary()
        );
        assert!(r.flows[0].retransmits > 0);
    }

    #[test]
    fn fault_plan_link_outage_reroutes_and_completes() {
        // fig3 link 1 is the 2 Mbps bottleneck 2-4; taking it down forces
        // every chunk over the 2-3-4 detour until it comes back
        let t = fig3();
        let mut sim = PacketSim::new(&t, inrpp_cfg());
        sim.set_faults(
            FaultPlan::link_outage(1, SimTime::from_millis(200), SimTime::from_secs(10)).unwrap(),
        );
        sim.add_transfer(transfer(&t, 1, "1", "4", 400));
        let r = sim.run();
        assert_eq!(
            r.completed(),
            1,
            "flow must survive the outage: {}",
            r.summary()
        );
        assert_eq!(r.flows[0].chunks_delivered, 400);
        assert!(
            r.flows[0].detours > 0,
            "expected fault-driven detours over node 3: {}",
            r.summary()
        );
    }

    #[test]
    fn fault_plan_node_crash_rescues_custody() {
        // cut both links into node 4 so chunks park in custody at node 2,
        // then crash node 2: its custody must be rescued to node 1 and the
        // flow must still finish once everything recovers
        let t = fig3();
        let plan = FaultPlan::try_new(vec![
            FaultEvent {
                at: SimTime::from_millis(300),
                kind: FaultKind::LinkDown { link: 1 },
            },
            FaultEvent {
                at: SimTime::from_millis(300),
                kind: FaultKind::LinkDown { link: 3 },
            },
            FaultEvent {
                at: SimTime::from_millis(600),
                kind: FaultKind::NodeCrash { node: 1 }, // node "2"
            },
            FaultEvent {
                at: SimTime::from_secs(2),
                kind: FaultKind::NodeRecover { node: 1 },
            },
            FaultEvent {
                at: SimTime::from_secs(2),
                kind: FaultKind::LinkUp { link: 1 },
            },
            FaultEvent {
                at: SimTime::from_secs(2),
                kind: FaultKind::LinkUp { link: 3 },
            },
        ])
        .unwrap();
        let mut sim = PacketSim::new(&t, inrpp_cfg());
        sim.set_faults(plan);
        sim.add_transfer(transfer(&t, 1, "1", "4", 300));
        let r = sim.run();
        assert!(
            r.chunks_rescued > 0,
            "crashing the custody point must trigger rescues: {}",
            r.summary()
        );
        assert_eq!(r.flows[0].custody_rescues, r.chunks_rescued);
        assert!(
            r.flows[0].outage_delay > SimDuration::ZERO,
            "parked chunks must charge outage delay"
        );
        assert_eq!(
            r.completed(),
            1,
            "flow must finish after recovery: {}",
            r.summary()
        );
    }

    #[test]
    fn fault_plan_loss_burst_forces_retransmits() {
        // 30% loss on link 0 (1-2) for the first five seconds: deliveries
        // must still complete via receiver-timeout recovery
        let t = fig3();
        let plan = FaultPlan::try_new(vec![FaultEvent {
            at: SimTime::ZERO,
            kind: FaultKind::LossBurst {
                link: 0,
                drop_chance: 0.3,
                until: SimTime::from_secs(5),
            },
        }])
        .unwrap();
        let mut sim = PacketSim::new(&t, inrpp_cfg());
        sim.set_faults(plan);
        sim.add_transfer(transfer(&t, 1, "1", "3", 300));
        let r = sim.run();
        assert!(
            r.chunks_dropped > 0,
            "burst must drop chunks: {}",
            r.summary()
        );
        assert_eq!(r.completed(), 1, "{}", r.summary());
        assert!(r.flows[0].retransmits > 0);
    }

    #[test]
    fn fault_plan_capacity_scale_slows_aimd() {
        let t = fig3();
        let baseline = {
            let mut sim = PacketSim::new(&t, aimd_cfg());
            sim.add_transfer(transfer(&t, 1, "1", "4", 200));
            sim.run().flows[0].fct().expect("baseline finishes")
        };
        let degraded = {
            let mut sim = PacketSim::new(&t, aimd_cfg());
            sim.set_faults(
                FaultPlan::try_new(vec![FaultEvent {
                    at: SimTime::ZERO,
                    kind: FaultKind::CapacityScale {
                        link: 1,
                        fraction: 0.25,
                    },
                }])
                .unwrap(),
            );
            sim.add_transfer(transfer(&t, 1, "1", "4", 200));
            sim.run().flows[0].fct().expect("degraded run finishes")
        };
        assert!(
            degraded > baseline,
            "quartering the bottleneck must slow AIMD: {baseline:?} vs {degraded:?}"
        );
    }

    #[test]
    fn fault_plan_runs_are_deterministic_and_shard_equivalent() {
        let t = fig3();
        // blind detouring: the sharded path rejects load-aware detours
        // (remote queue state mid-window)
        let mut cfg = inrpp_cfg();
        if let TransportKind::Inrpp(ref mut ic) = cfg.transport {
            ic.load_aware_detour = false;
        }
        let plan =
            FaultPlan::link_outage(1, SimTime::from_millis(250), SimTime::from_secs(8)).unwrap();
        let run_seq = || {
            let mut sim = PacketSim::new(&t, cfg);
            sim.set_faults(plan.clone());
            sim.add_transfer(transfer(&t, 1, "1", "4", 300));
            sim.add_transfer(transfer(&t, 2, "1", "3", 300));
            sim.run()
        };
        let seq = run_seq();
        assert_eq!(seq, run_seq(), "same plan, same bytes");
        for workers in [2usize, 4] {
            let mut sim = PacketSim::new(&t, cfg);
            sim.set_faults(plan.clone());
            sim.add_transfer(transfer(&t, 1, "1", "4", 300));
            sim.add_transfer(transfer(&t, 2, "1", "3", 300));
            let sharded = sim
                .try_run_sharded(workers, 7)
                .expect("sharded run under faults");
            assert_eq!(
                seq, sharded,
                "sharded({workers}) diverged under the fault plan"
            );
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let t = fig3();
        let run = || {
            let mut sim = PacketSim::new(&t, inrpp_cfg());
            sim.add_transfer(transfer(&t, 1, "1", "4", 300));
            sim.add_transfer(transfer(&t, 2, "1", "3", 300));
            let r = sim.run();
            (
                r.chunks_delivered,
                r.chunks_detoured,
                r.chunks_custodied,
                r.flows[0].fct(),
                r.flows[1].fct(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn staggered_starts_respected() {
        let t = fig3();
        let mut sim = PacketSim::new(&t, inrpp_cfg());
        sim.add_transfer(TransferSpec {
            flow: 1,
            src: n(&t, "1"),
            dst: n(&t, "3"),
            chunks: 50,
            start: SimTime::from_secs(2),
        });
        let r = sim.run();
        assert_eq!(r.flows[0].started_at, SimTime::from_secs(2));
        assert!(r.flows[0].completed_at.unwrap() > SimTime::from_secs(2));
    }

    #[test]
    fn detoured_traffic_reorders_single_path_does_not() {
        // INRPP splitting over 2-4 and 2-3-4 reorders; AIMD over one
        // lossless-enough path arrives in order (losses excepted).
        let t = fig3();
        let mut si = PacketSim::new(&t, inrpp_cfg());
        si.add_transfer(transfer(&t, 1, "1", "4", 400));
        let ri = si.run();
        assert!(
            ri.flows[0].max_reorder_distance > 0,
            "multipath INRPP should reorder: {}",
            ri.summary()
        );
        // a loss-free single-path transfer stays perfectly in order (the
        // metric also counts loss gaps, so keep the burst below the queue)
        let mut sa = PacketSim::new(&t, aimd_cfg());
        sa.add_transfer(transfer(&t, 1, "1", "3", 30));
        let ra = sa.run();
        assert_eq!(ra.chunks_dropped, 0, "{}", ra.summary());
        assert_eq!(
            ra.flows[0].max_reorder_distance, 0,
            "loss-free single path must stay in order"
        );
    }

    #[test]
    fn utilisation_is_positive_when_busy() {
        let t = fig3();
        let mut sim = PacketSim::new(&t, inrpp_cfg());
        sim.add_transfer(transfer(&t, 1, "1", "4", 500));
        let r = sim.run();
        assert!(r.mean_utilisation > 0.0);
        assert!(r.mean_utilisation <= 1.0);
    }

    #[test]
    #[should_panic(expected = "endpoints coincide")]
    fn same_endpoints_rejected() {
        let t = fig3();
        let mut sim = PacketSim::new(&t, inrpp_cfg());
        sim.add_transfer(transfer(&t, 1, "1", "1", 10));
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn unroutable_transfer_rejected() {
        let mut t = Topology::new("gap");
        let a = t.add_node();
        let b = t.add_node();
        let mut sim = PacketSim::new(&t, inrpp_cfg());
        sim.add_transfer(TransferSpec {
            flow: 1,
            src: a,
            dst: b,
            chunks: 10,
            start: SimTime::ZERO,
        });
        let _ = Rate::ZERO;
    }

    fn mixed_cfg() -> PacketSimConfig {
        PacketSimConfig {
            transport: TransportKind::Mixed {
                inrpp: inrpp::config::InrppConfig::default(),
                aimd: AimdConfig,
            },
            horizon: SimDuration::from_secs(60),
            ..PacketSimConfig::default()
        }
    }

    #[test]
    fn mixed_flows_coexist_and_complete() {
        use crate::packet::FlowTransport;
        let t = fig3();
        let mut sim = PacketSim::new(&t, mixed_cfg());
        sim.add_transfer_as(transfer(&t, 1, "1", "4", 300), FlowTransport::Inrpp);
        sim.add_transfer_as(transfer(&t, 2, "1", "4", 300), FlowTransport::Aimd);
        let r = sim.run();
        assert_eq!(r.transport, "MIXED");
        assert_eq!(r.completed(), 2, "{}", r.summary());
        // only the INRPP flow may detour; the AIMD flow sticks to the
        // primary path and probes by loss
        assert!(r.chunks_detoured > 0, "{}", r.summary());
        let inrpp_fct = r.flows[0].fct().unwrap();
        let aimd_fct = r.flows[1].fct().unwrap();
        assert!(
            inrpp_fct < aimd_fct,
            "INRPP {inrpp_fct} should finish before AIMD {aimd_fct} by pooling"
        );
    }

    #[test]
    fn mixed_default_transfer_is_inrpp() {
        let t = fig3();
        let mut sim = PacketSim::new(&t, mixed_cfg());
        sim.add_transfer(transfer(&t, 1, "1", "4", 200));
        let r = sim.run();
        assert_eq!(r.completed(), 1);
        assert!(r.chunks_detoured > 0, "default flow should be INRPP");
    }

    #[test]
    fn aimd_flow_does_not_consume_custody() {
        use crate::packet::FlowTransport;
        let t = fig3();
        let mut sim = PacketSim::new(&t, mixed_cfg());
        sim.add_transfer_as(transfer(&t, 1, "1", "4", 400), FlowTransport::Aimd);
        let r = sim.run();
        assert_eq!(r.chunks_custodied, 0);
        assert_eq!(r.chunks_detoured, 0);
        assert_eq!(r.custody_peak, ByteSize::ZERO);
    }

    #[test]
    #[should_panic(expected = "no configuration")]
    fn wrong_transport_for_config_rejected() {
        use crate::packet::FlowTransport;
        let t = fig3();
        let mut sim = PacketSim::new(&t, inrpp_cfg());
        sim.add_transfer_as(transfer(&t, 1, "1", "4", 10), FlowTransport::Aimd);
    }

    #[test]
    fn dumbbell_many_flows_all_finish() {
        let t = Topology::dumbbell(
            4,
            Rate::mbps(10.0),
            Rate::mbps(5.0),
            SimDuration::from_millis(2),
        );
        let mut sim = PacketSim::new(&t, inrpp_cfg());
        for i in 0..4u32 {
            sim.add_transfer(TransferSpec {
                flow: i as u64 + 1,
                src: NodeId(i),
                dst: NodeId(6 + i),
                chunks: 200,
                start: SimTime::ZERO,
            });
        }
        let r = sim.run();
        assert_eq!(r.completed(), 4, "{}", r.summary());
        // chunk-grain interleaving across four independent senders is not
        // exact processor sharing, but should stay clearly fair
        let j = r.jain_goodput().unwrap();
        assert!(j > 0.8, "dumbbell fairness {j}");
    }
}

/// Typed-error regressions and the stepping gates: a stepped or fed run
/// must be bit-identical to the straight run.
/// The comparisons against the seed engine live in the
/// `inrpp-packet-oracle` test crate.
#[cfg(test)]
mod equivalence {
    use super::*;
    use inrpp_sim::units::Rate;

    fn n(t: &Topology, s: &str) -> NodeId {
        t.node_by_name(s).unwrap()
    }

    fn transfer(t: &Topology, flow: FlowId, src: &str, dst: &str, chunks: u64) -> TransferSpec {
        TransferSpec {
            flow,
            src: n(t, src),
            dst: n(t, dst),
            chunks,
            start: SimTime::ZERO,
        }
    }

    fn inrpp_cfg() -> PacketSimConfig {
        PacketSimConfig {
            horizon: SimDuration::from_secs(30),
            ..PacketSimConfig::default()
        }
    }

    #[test]
    fn unreachable_hop_is_a_typed_error_not_a_panic() {
        // Core::build on a disconnected transfer must surface
        // `SessionError::Unroutable` — the seed engine panicked with
        // "validated at add_transfer" / "no channel a->b" here.
        let mut t = Topology::new("split");
        let a = t.add_node();
        let b = t.add_node();
        let c = t.add_node();
        let d = t.add_node();
        t.add_link(a, b, Rate::mbps(10.0), SimDuration::from_millis(1))
            .unwrap();
        t.add_link(c, d, Rate::mbps(10.0), SimDuration::from_millis(1))
            .unwrap();
        let spec = TransferSpec {
            flow: 7,
            src: a,
            dst: d,
            chunks: 10,
            start: SimTime::ZERO,
        };
        let err = Core::build(
            &t,
            inrpp_cfg(),
            vec![(spec, FlowTransport::Inrpp)],
            FaultPlan::empty(),
        )
        .err()
        .expect("disconnected route must not build");
        assert!(
            matches!(err, SessionError::Unroutable { flow: 7 }),
            "wrong error: {err}"
        );
        // the public builder rejects it up front with the same type
        let mut sim = PacketSim::new(&t, inrpp_cfg());
        let err = sim
            .try_add_transfer_as(spec, FlowTransport::Inrpp)
            .err()
            .expect("unroutable spec must be rejected");
        assert!(matches!(err, SessionError::Unroutable { flow: 7 }));
    }

    #[test]
    fn zero_capacity_link_is_a_typed_error() {
        // the seed engine accepted this and panicked deep inside run();
        // now it is an InvalidConfig at construction
        let mut t = Topology::new("dead-link");
        let a = t.add_node();
        let b = t.add_node();
        t.add_link(a, b, Rate::bps(0.0), SimDuration::from_millis(1))
            .unwrap();
        let err = PacketSim::try_new(&t, inrpp_cfg())
            .err()
            .expect("zero-capacity link must be rejected");
        assert!(
            matches!(&err, SessionError::InvalidConfig(m) if m.contains("zero capacity")),
            "wrong error: {err}"
        );
    }

    #[test]
    fn loss_chance_outside_zero_one_is_a_typed_error() {
        // NaN used to mean no loss and 1.5 to drop every chunk
        let t = Topology::fig3();
        for bad in [f64::NAN, -0.1, 1.5] {
            let mut cfg = inrpp_cfg();
            cfg.drop_chance = bad;
            let err = PacketSim::try_new(&t, cfg)
                .err()
                .expect("an out-of-range drop chance must be rejected");
            assert!(
                matches!(&err, SessionError::InvalidConfig(m)
                    if m.contains("drop_chance") && m.contains(&bad.to_string())),
                "wrong error for {bad}: {err}"
            );
        }
        for good in [0.0, 1.0] {
            let mut cfg = inrpp_cfg();
            cfg.drop_chance = good;
            assert!(PacketSim::try_new(&t, cfg).is_ok(), "{good}");
        }
    }

    #[test]
    #[should_panic(expected = "zero capacity")]
    fn zero_capacity_link_panics_on_the_untyped_path() {
        let mut t = Topology::new("dead-link");
        let a = t.add_node();
        let b = t.add_node();
        t.add_link(a, b, Rate::bps(0.0), SimDuration::from_millis(1))
            .unwrap();
        let _ = PacketSim::new(&t, inrpp_cfg());
    }

    #[test]
    fn horizon_truncation_yields_none_fct_not_a_panic() {
        // cut a run mid-flow: accessors must degrade to None/0.0
        let t = Topology::fig3();
        let mut cfg = inrpp_cfg();
        cfg.horizon = SimDuration::from_millis(40);
        let mut sim = PacketSim::new(&t, cfg);
        sim.add_transfer(transfer(&t, 1, "1", "4", 5_000));
        let r = sim.run();
        assert_eq!(r.completed(), 0, "{}", r.summary());
        assert_eq!(r.flow(1).unwrap().fct(), None);
        assert_eq!(r.mean_fct_secs(), 0.0);
        assert!(r.summary().contains("done=0/1"));
    }

    // ---- stepping / feed ------------------------------------------------

    fn fig3() -> Topology {
        Topology::fig3()
    }

    fn aimd_cfg() -> PacketSimConfig {
        PacketSimConfig {
            transport: TransportKind::Aimd(AimdConfig),
            horizon: SimDuration::from_secs(30),
            ..PacketSimConfig::default()
        }
    }

    /// Probe folding every hook's payload into a hash, bit-exactly.
    #[derive(Default)]
    struct ProbeFp(u64);

    impl ProbeFp {
        fn mix(&mut self, x: u64) {
            let mut h = self.0 ^ x;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
            self.0 = h ^ (h >> 29);
        }
        fn mix_f(&mut self, x: f64) {
            self.mix(x.to_bits());
        }
    }

    impl Probe for ProbeFp {
        fn on_flow_start(&mut self, ev: &FlowStart) {
            self.mix(1);
            self.mix(ev.time.as_nanos());
            self.mix(ev.flow);
            self.mix_f(ev.size_bits);
        }
        fn on_flow_end(&mut self, ev: &FlowEnd) {
            self.mix(2);
            self.mix(ev.time.as_nanos());
            self.mix(ev.flow);
            self.mix_f(ev.delivered_bits);
            self.mix_f(ev.fct_secs);
        }
        fn on_sample(&mut self, ev: &Sample) {
            self.mix(3);
            self.mix(ev.time.as_nanos());
            self.mix_f(ev.delivered_bits);
        }
    }

    #[test]
    fn stepping_run_matches_straight_run() {
        // detour-heavy workload so custody, back-pressure, and the packet
        // slabs are all live across the step boundaries
        let t = fig3();
        let mut sim = PacketSim::new(&t, inrpp_cfg());
        sim.add_transfer(transfer(&t, 1, "1", "4", 800));
        sim.add_transfer(transfer(&t, 2, "1", "3", 400));
        let mut fp_a = ProbeFp::default();
        let straight = {
            let mut s = PacketSim::new(&t, inrpp_cfg());
            s.add_transfer(transfer(&t, 1, "1", "4", 800));
            s.add_transfer(transfer(&t, 2, "1", "3", 400));
            s.try_run_probed(&mut [&mut fp_a]).unwrap()
        };
        let mut fp_b = ProbeFp::default();
        let mut run = sim.start().unwrap();
        for ms in [50, 300, 301, 2_000, 60_000] {
            run.run_until(SimTime::from_millis(ms), &mut [&mut fp_b])
                .unwrap();
        }
        let stepped = run.finish(&mut [&mut fp_b]).unwrap();
        assert_eq!(straight, stepped);
        assert_eq!(fp_a.0, fp_b.0, "probe streams diverged");
    }

    #[test]
    fn feed_streams_transfers_into_a_live_run() {
        let t = fig3();
        let fed = TransferSpec {
            start: SimTime::from_secs(2),
            ..transfer(&t, 7, "1", "3", 200)
        };

        // reference: both transfers fed the same way, no later boundary
        let drive = |probes: &mut [&mut dyn Probe]| {
            let mut sim = PacketSim::new(&t, inrpp_cfg());
            sim.add_transfer(transfer(&t, 1, "1", "4", 400));
            let mut run = sim.start().unwrap();
            run.run_until(SimTime::from_secs(1), probes).unwrap();
            run.feed(fed, FlowTransport::Inrpp).unwrap();
            run
        };
        let mut fp_a = ProbeFp::default();
        let a = drive(&mut [&mut fp_a]).finish(&mut [&mut fp_a]).unwrap();
        assert_eq!(a.completed(), 2, "{}", a.summary());

        // same feed schedule, split at a boundary between the feed call
        // and the fed flow's start
        let mut fp_b = ProbeFp::default();
        let mut split = drive(&mut [&mut fp_b]);
        split
            .run_until(SimTime::from_millis(1_500), &mut [&mut fp_b])
            .unwrap();
        let b = split.finish(&mut [&mut fp_b]).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            fp_a.0, fp_b.0,
            "a boundary after the feed changed the stream"
        );
    }

    #[test]
    fn feed_rejects_stale_ids_and_past_starts() {
        let t = fig3();
        let mut sim = PacketSim::new(&t, inrpp_cfg());
        sim.add_transfer(transfer(&t, 5, "1", "4", 100));
        let mut run = sim.start().unwrap();
        run.run_until(SimTime::from_secs(1), &mut []).unwrap();
        // id not above the current maximum: slots would re-rank
        let stale_id = TransferSpec {
            start: SimTime::from_secs(2),
            ..transfer(&t, 5, "1", "3", 10)
        };
        assert!(matches!(
            run.feed(stale_id, FlowTransport::Inrpp),
            Err(SessionError::InvalidTransfer(_))
        ));
        // start before the clock: the event would be unschedulable
        let past = TransferSpec {
            start: SimTime::from_millis(500),
            ..transfer(&t, 9, "1", "3", 10)
        };
        assert!(matches!(
            run.feed(past, FlowTransport::Inrpp),
            Err(SessionError::InvalidTransfer(_))
        ));
        // a valid feed still lands after the rejections
        let ok = TransferSpec {
            start: SimTime::from_secs(2),
            ..transfer(&t, 9, "1", "3", 10)
        };
        run.feed(ok, FlowTransport::Inrpp).unwrap();
        let r = run.finish(&mut []).unwrap();
        assert_eq!(r.completed(), 2, "{}", r.summary());
    }

    #[test]
    fn stepping_works_for_aimd_transport() {
        let t = fig3();
        let build = || {
            let mut s = PacketSim::new(&t, aimd_cfg());
            s.add_transfer(transfer(&t, 1, "1", "3", 2_000));
            s
        };
        let straight = build().run();
        let mut run = build().start().unwrap();
        run.run_until(SimTime::from_millis(700), &mut []).unwrap();
        let snap = run.report_now();
        assert!(snap.chunks_delivered > 0);
        assert!(snap.chunks_delivered < straight.chunks_delivered);
        let stepped = run.finish(&mut []).unwrap();
        assert_eq!(straight, stepped);
    }
}
