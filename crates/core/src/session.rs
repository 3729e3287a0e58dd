//! The unified experiment facade: one typed `Session` API over both
//! simulation engines.
//!
//! The paper's core claim is comparative — the same traffic over the same
//! topology under different sharing regimes, at flow *and* packet
//! granularity. This module is the one front door for that comparison:
//!
//! * [`Session`] — a validated experiment description (topology, traffic,
//!   strategy, window, seed), built through [`Session::builder`] with
//!   typed [`SessionError`]s instead of construction panics;
//! * [`Engine`] — the backend abstraction. [`FluidEngine`] (this module)
//!   runs the flow-level fluid simulator; `PacketEngine` (in
//!   `inrpp-packetsim`, which layers *above* this crate) runs the
//!   chunk-level discrete-event simulator. The same `Session` runs on
//!   both — the differential harness in `tests/model_consistency.rs` is
//!   exactly that;
//! * [`Probe`] — streaming observers ([`TimeSeriesProbe`],
//!   [`QuantileProbe`], or your own) that collect metrics *during* the
//!   run, enabling time-resolved views the post-hoc reports cannot
//!   express;
//! * [`RunReport`] — the unified typed result: per-flow [`FlowRecord`]s,
//!   [`Aggregates`], per-channel utilisation, plus the engine-specific
//!   detail ([`EngineDetail`]).
//!
//! The facade is behaviour-preserving by construction: engines rebuild
//! exactly the inputs the underlying simulators always took, so a
//! facade-driven run is bit-identical to a hand-driven one.
//!
//! ```
//! use inrpp::session::{Session, SessionStrategy};
//! use inrpp_flowsim::workload::WorkloadConfig;
//! use inrpp_sim::time::SimDuration;
//! use inrpp_topology::Topology;
//!
//! let topo = Topology::fig3();
//! let report = Session::builder()
//!     .topology(&topo)
//!     .workload_config(WorkloadConfig::default())
//!     .strategy(SessionStrategy::urp())
//!     .horizon(SimDuration::from_secs(2))
//!     .seed(7)
//!     .build()?
//!     .run()?;
//! assert!(report.throughput() > 0.0 && report.throughput() <= 1.0);
//! assert_eq!(report.strategy, "URP");
//! # Ok::<(), inrpp::session::SessionError>(())
//! ```

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;

use inrpp_flowsim::sim::FlowObserver;
use inrpp_flowsim::strategy::{
    EcmpStrategy, InrpConfig, InrpStrategy, MptcpStrategy, RoutingStrategy, SinglePathStrategy,
};
use inrpp_flowsim::FlowSimReport;
use inrpp_sim::fault::{FaultKind, FaultPlan};
use inrpp_sim::snap::{self, Snap, SnapError, SnapReader, SnapWriter};
use inrpp_sim::time::{SimDuration, SimTime, TimeError};
use inrpp_sim::units::ByteSize;
use inrpp_topology::graph::{NodeId, Topology};

use crate::service::{FluidBacking, FluidService};

// Re-exported so facade consumers (including the packet backend, which
// sees flowsim only transitively) can name the traffic types without a
// direct flowsim dependency.
pub use inrpp_flowsim::workload::{FlowSpec, Workload, WorkloadConfig, WorkloadError};

// ===================================================================
// Errors
// ===================================================================

/// Why a session could not be built or run.
///
/// Construction problems that used to panic deep inside `FlowSim::new` /
/// `PacketSim::new` paths surface here as typed variants instead.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// No topology was supplied to the builder.
    MissingTopology,
    /// No workload, workload config, or transfer list was supplied.
    MissingTraffic,
    /// The simulation window has zero (or unset-able) duration.
    EmptyWindow,
    /// The selected strategy cannot run on the selected engine (e.g.
    /// ECMP on the packet engine, whose routing is built in).
    IncompatibleStrategy {
        /// Engine that rejected the strategy.
        engine: EngineKind,
        /// Display name of the offending strategy.
        strategy: String,
    },
    /// The traffic description cannot be used by the selected engine
    /// (e.g. transfers quantised with a chunk size the packet engine was
    /// not configured for).
    IncompatibleTraffic {
        /// Engine that rejected the traffic.
        engine: EngineKind,
        /// What exactly was wrong.
        reason: String,
    },
    /// Workload generation from a [`WorkloadConfig`] failed.
    Workload(WorkloadError),
    /// A transfer or flow was malformed: zero chunks, identical
    /// endpoints, an endpoint outside the topology, or a zero-sized
    /// chunk.
    InvalidTransfer(String),
    /// Two flows/transfers in the session share an id. Flow ids key
    /// per-flow state in both engines (the packet engine would silently
    /// overwrite one of them), so duplicates are rejected at build time.
    DuplicateFlow(u64),
    /// No route exists between a transfer's endpoints.
    Unroutable {
        /// The flow without a route.
        flow: u64,
    },
    /// An engine configuration value was rejected (e.g. an invalid
    /// `InrppConfig` behind the packet engine).
    InvalidConfig(String),
    /// A checkpoint could not be resumed against this session: wrong
    /// engine, a different session spec (fingerprint mismatch), or a
    /// corrupt byte stream.
    CheckpointMismatch(String),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::MissingTopology => {
                write!(f, "session has no topology (call .topology(..))")
            }
            SessionError::MissingTraffic => write!(
                f,
                "session has no traffic (call .workload(..), .workload_config(..) \
                 or .transfers(..))"
            ),
            SessionError::EmptyWindow => {
                write!(f, "session window has zero duration")
            }
            SessionError::IncompatibleStrategy { engine, strategy } => {
                write!(f, "strategy {strategy} cannot run on the {engine} engine")
            }
            SessionError::IncompatibleTraffic { engine, reason } => {
                write!(f, "traffic unusable on the {engine} engine: {reason}")
            }
            SessionError::Workload(e) => write!(f, "workload generation failed: {e}"),
            SessionError::InvalidTransfer(msg) => write!(f, "invalid transfer: {msg}"),
            SessionError::DuplicateFlow(id) => {
                write!(f, "duplicate flow id {id} in the session traffic")
            }
            SessionError::Unroutable { flow } => {
                write!(f, "no route exists for transfer flow {flow}")
            }
            SessionError::InvalidConfig(msg) => write!(f, "invalid engine config: {msg}"),
            SessionError::CheckpointMismatch(msg) => {
                write!(f, "checkpoint cannot be resumed: {msg}")
            }
        }
    }
}

impl std::error::Error for SessionError {}

impl From<WorkloadError> for SessionError {
    fn from(e: WorkloadError) -> Self {
        SessionError::Workload(e)
    }
}

/// Out-of-range time values (negative, non-finite, or beyond the
/// representable nanosecond range) surface as typed configuration
/// errors instead of panicking deep inside the conversion.
impl From<TimeError> for SessionError {
    fn from(e: TimeError) -> Self {
        SessionError::InvalidConfig(format!("invalid time value: {e}"))
    }
}

// ===================================================================
// Strategy and traffic
// ===================================================================

/// Which engine a [`RunReport`] came from / an [`Engine`] implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Flow-level fluid simulation (`inrpp-flowsim`).
    Fluid,
    /// Chunk-level discrete-event simulation (`inrpp-packetsim`).
    Packet,
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineKind::Fluid => write!(f, "fluid"),
            EngineKind::Packet => write!(f, "packet"),
        }
    }
}

/// The routing / resource-sharing regime a session runs under.
///
/// On the fluid engine every variant maps to a
/// [`RoutingStrategy`]; on the packet engine only the regimes with a
/// chunk-level transport are accepted — [`SessionStrategy::Urp`] (the
/// INRPP transport; the fluid detour knobs inside are ignored there, the
/// engine's own `InrppConfig` governs) and [`SessionStrategy::Sp`] (the
/// drop-tail AIMD baseline).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SessionStrategy {
    /// Single shortest path (the e2e baseline).
    #[default]
    Sp,
    /// Equal-cost multipath (per-flow hash over the shortest-path set).
    Ecmp,
    /// MPTCP-style end-to-end multipath (edge-disjoint subflows).
    Mptcp,
    /// In-network resource pooling (URP in the figures) with the given
    /// fluid detour configuration.
    Urp(InrpConfig),
}

impl SessionStrategy {
    /// URP with the default detour configuration.
    pub fn urp() -> Self {
        SessionStrategy::Urp(InrpConfig::default())
    }

    /// Display name, matching the engine report `strategy` fields.
    pub fn name(&self) -> &'static str {
        match self {
            SessionStrategy::Sp => "SP",
            SessionStrategy::Ecmp => "ECMP",
            SessionStrategy::Mptcp => "MPTCP",
            SessionStrategy::Urp(_) => "URP",
        }
    }

    /// Instantiate the fluid-engine routing strategy.
    pub fn build_fluid(&self, topo: &Topology) -> Box<dyn RoutingStrategy> {
        match *self {
            SessionStrategy::Sp => Box::new(SinglePathStrategy),
            SessionStrategy::Ecmp => Box::new(EcmpStrategy),
            SessionStrategy::Mptcp => Box::new(MptcpStrategy),
            SessionStrategy::Urp(cfg) => Box::new(InrpStrategy::new(topo, cfg)),
        }
    }
}

/// One chunked content transfer, the engine-neutral counterpart of the
/// packet simulator's `TransferSpec`. Sizes are whole chunks so the same
/// transfer list replays with *identical offered bits* on both engines:
/// the fluid engine sees `chunks x chunk_bytes` bits, the packet engine
/// sees the chunks themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// Flow identity (unique within the session).
    pub flow: u64,
    /// Content source.
    pub src: NodeId,
    /// Content consumer.
    pub dst: NodeId,
    /// Object length in chunks.
    pub chunks: u64,
    /// Payload size of one chunk.
    pub chunk_bytes: ByteSize,
    /// When the transfer starts.
    pub start: SimTime,
}

impl Transfer {
    /// A transfer carrying at least `bits`: `ceil(bits / chunk_bits)`
    /// chunks, minimum one — the quantisation rule shared by both engine
    /// backends (and by `TransferSpec::for_object_bits`).
    pub fn for_object_bits(
        flow: u64,
        src: NodeId,
        dst: NodeId,
        bits: f64,
        chunk_bytes: ByteSize,
        start: SimTime,
    ) -> Transfer {
        let chunks = (bits / chunk_bytes.as_bits() as f64).ceil().max(1.0) as u64;
        Transfer {
            flow,
            src,
            dst,
            chunks,
            chunk_bytes,
            start,
        }
    }

    /// Exact payload volume in bits.
    pub fn size_bits(&self) -> f64 {
        self.chunks as f64 * self.chunk_bytes.as_bits() as f64
    }
}

impl Snap for Transfer {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_u64(self.flow);
        w.put_u32(self.src.0);
        w.put_u32(self.dst.0);
        w.put_u64(self.chunks);
        w.put_u64(self.chunk_bytes.as_bytes());
        self.start.encode(w);
    }

    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Transfer {
            flow: r.get_u64()?,
            src: NodeId(r.get_u32()?),
            dst: NodeId(r.get_u32()?),
            chunks: r.get_u64()?,
            chunk_bytes: ByteSize::bytes(r.get_u64()?),
            start: SimTime::decode(r)?,
        })
    }
}

/// The session's traffic description.
#[derive(Debug, Clone, PartialEq)]
pub enum Traffic {
    /// Fluid flow specs (native to the fluid engine; the packet engine
    /// quantises them into whole-chunk transfers).
    Flows(Workload),
    /// Whole-chunk transfers (native to the packet engine; the fluid
    /// engine replays them as flows of `chunks x chunk_bytes` bits).
    Transfers(Vec<Transfer>),
}

// ===================================================================
// Probes
// ===================================================================

/// A flow/transfer entered the network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowStart {
    /// Event instant.
    pub time: SimTime,
    /// Flow identity.
    pub flow: u64,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Offered volume in bits.
    pub size_bits: f64,
    /// Subpaths resolved for the flow (1 on the packet engine).
    pub subpaths: usize,
}

/// A flow/transfer completed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowEnd {
    /// Event instant.
    pub time: SimTime,
    /// Flow identity.
    pub flow: u64,
    /// Bits delivered over the flow's lifetime.
    pub delivered_bits: f64,
    /// Flow completion time in seconds.
    pub fct_secs: f64,
}

/// A fluid re-allocation just ran (fluid engine only).
#[derive(Debug, Clone, Copy)]
pub struct AllocationEvent<'a> {
    /// Event instant.
    pub time: SimTime,
    /// Active flow ids, ascending.
    pub flows: &'a [u64],
    /// `rates[i]` is the allocated rate of `flows[i]` in bits/s.
    pub rates: &'a [f64],
}

impl AllocationEvent<'_> {
    /// Sum of all allocated rates, bits/s.
    pub fn total_rate_bps(&self) -> f64 {
        self.rates.iter().sum()
    }
}

/// A progress sample: cumulative delivery up to `time`. The fluid engine
/// emits one per integration step, the packet engine one per delivered
/// chunk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Sample instant.
    pub time: SimTime,
    /// Cumulative bits delivered across all flows.
    pub delivered_bits: f64,
}

/// A streaming observer attached to a session run.
///
/// Hooks fire *during* the simulation, in event order, on both engines
/// (except [`Probe::on_allocation`], which only the fluid engine emits).
/// All hooks default to no-ops. Probes are passive: an instrumented run
/// produces a bit-identical [`RunReport`] to an uninstrumented one.
#[allow(unused_variables)]
pub trait Probe {
    /// A flow was admitted.
    fn on_flow_start(&mut self, ev: &FlowStart) {}
    /// A flow completed.
    fn on_flow_end(&mut self, ev: &FlowEnd) {}
    /// The fluid allocator recomputed the rate vector.
    fn on_allocation(&mut self, ev: &AllocationEvent<'_>) {}
    /// Cumulative delivery progressed.
    fn on_sample(&mut self, ev: &Sample) {}
    /// An incremental [`RunReport`] snapshot of the run so far. Emitted
    /// only in service mode (`inrpp::service`), once per
    /// [`advance`](crate::service::ServiceSession::advance) boundary —
    /// one-shot [`Session::run`]-style runs never fire it.
    fn on_report(&mut self, report: &RunReport) {}
}

/// Fan-out dispatcher over a probe list — what [`Engine`] backends call
/// into. Constructing one from an empty slice gives the zero-cost
/// uninstrumented path.
pub struct ProbeSet<'a, 'b> {
    probes: &'a mut [&'b mut dyn Probe],
}

impl<'a, 'b> ProbeSet<'a, 'b> {
    /// Wrap a probe list.
    pub fn new(probes: &'a mut [&'b mut dyn Probe]) -> Self {
        ProbeSet { probes }
    }

    /// True when no probe is attached.
    pub fn is_empty(&self) -> bool {
        self.probes.is_empty()
    }

    /// Dispatch [`Probe::on_flow_start`].
    pub fn flow_start(&mut self, ev: &FlowStart) {
        for p in self.probes.iter_mut() {
            p.on_flow_start(ev);
        }
    }

    /// Dispatch [`Probe::on_flow_end`].
    pub fn flow_end(&mut self, ev: &FlowEnd) {
        for p in self.probes.iter_mut() {
            p.on_flow_end(ev);
        }
    }

    /// Dispatch [`Probe::on_allocation`].
    pub fn allocation(&mut self, ev: &AllocationEvent<'_>) {
        for p in self.probes.iter_mut() {
            p.on_allocation(ev);
        }
    }

    /// Dispatch [`Probe::on_sample`].
    pub fn sample(&mut self, ev: &Sample) {
        for p in self.probes.iter_mut() {
            p.on_sample(ev);
        }
    }

    /// Dispatch [`Probe::on_report`].
    pub fn report(&mut self, report: &RunReport) {
        for p in self.probes.iter_mut() {
            p.on_report(report);
        }
    }
}

/// One bucket of a [`TimeSeriesProbe`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TimeBin {
    /// Flows admitted in this bucket.
    pub arrivals: u32,
    /// Flows completed in this bucket.
    pub completions: u32,
    /// Bits completed flows delivered in this bucket.
    pub completed_bits: f64,
    /// Last cumulative-delivery sample seen in this bucket.
    pub delivered_bits: f64,
    /// Largest concurrently-active flow count observed (fluid engine).
    pub peak_active: u32,
    /// Last total allocated rate seen in this bucket, bits/s (fluid
    /// engine).
    pub rate_bps: f64,
}

/// Built-in probe: a bucketed time series of arrivals, completions,
/// delivery progress and (on the fluid engine) allocated rate — the
/// time-resolved view the post-hoc reports cannot express.
///
/// ```
/// use inrpp::session::{Session, SessionStrategy, TimeSeriesProbe};
/// use inrpp_flowsim::workload::WorkloadConfig;
/// use inrpp_sim::time::SimDuration;
/// use inrpp_topology::Topology;
///
/// let topo = Topology::fig3();
/// let session = Session::builder()
///     .topology(&topo)
///     .workload_config(WorkloadConfig::default())
///     .strategy(SessionStrategy::urp())
///     .horizon(SimDuration::from_secs(2))
///     .seed(7)
///     .build()?;
/// let mut series = TimeSeriesProbe::new(SimDuration::from_millis(250));
/// let report = session.run_probed(&mut [&mut series])?;
/// // every admitted flow shows up in the stream
/// let arrivals: u32 = series.bins().iter().map(|b| b.arrivals).sum();
/// assert_eq!(arrivals as usize, report.aggregates.arrived_flows);
/// assert!(series.to_csv().starts_with("bin_start_secs,arrivals,"));
/// # Ok::<(), inrpp::session::SessionError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TimeSeriesProbe {
    bucket: SimDuration,
    bins: Vec<TimeBin>,
    active: u32,
}

impl TimeSeriesProbe {
    /// A time series with the given bucket width.
    ///
    /// # Panics
    /// Panics on a zero bucket width.
    pub fn new(bucket: SimDuration) -> Self {
        assert!(
            bucket > SimDuration::ZERO,
            "time series bucket must be positive"
        );
        TimeSeriesProbe {
            bucket,
            bins: Vec::new(),
            active: 0,
        }
    }

    /// Bucket width.
    pub fn bucket(&self) -> SimDuration {
        self.bucket
    }

    /// The recorded buckets (index `i` covers
    /// `[i * bucket, (i + 1) * bucket)`).
    pub fn bins(&self) -> &[TimeBin] {
        &self.bins
    }

    fn bin_at(&mut self, t: SimTime) -> &mut TimeBin {
        let idx = (t.duration_since(SimTime::ZERO).as_secs_f64() / self.bucket.as_secs_f64())
            .floor() as usize;
        if self.bins.len() <= idx {
            self.bins.resize(idx + 1, TimeBin::default());
        }
        &mut self.bins[idx]
    }

    /// Canonical CSV rendering of the series — the byte-determinism
    /// surface the facade tests gate on.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "bin_start_secs,arrivals,completions,completed_bits,delivered_bits,\
             peak_active,rate_bps\n",
        );
        let w = self.bucket.as_secs_f64();
        for (i, b) in self.bins.iter().enumerate() {
            out.push_str(&format!(
                "{},{},{},{},{},{},{}\n",
                i as f64 * w,
                b.arrivals,
                b.completions,
                b.completed_bits,
                b.delivered_bits,
                b.peak_active,
                b.rate_bps
            ));
        }
        out
    }
}

impl Probe for TimeSeriesProbe {
    fn on_flow_start(&mut self, ev: &FlowStart) {
        self.active += 1;
        let active = self.active;
        let bin = self.bin_at(ev.time);
        bin.arrivals += 1;
        bin.peak_active = bin.peak_active.max(active);
    }

    fn on_flow_end(&mut self, ev: &FlowEnd) {
        self.active = self.active.saturating_sub(1);
        let bin = self.bin_at(ev.time);
        bin.completions += 1;
        bin.completed_bits += ev.delivered_bits;
    }

    fn on_allocation(&mut self, ev: &AllocationEvent<'_>) {
        let total = ev.total_rate_bps();
        let active = ev.flows.len() as u32;
        let bin = self.bin_at(ev.time);
        bin.rate_bps = total;
        bin.peak_active = bin.peak_active.max(active);
    }

    fn on_sample(&mut self, ev: &Sample) {
        let bin = self.bin_at(ev.time);
        bin.delivered_bits = ev.delivered_bits;
    }
}

/// Built-in probe: streaming flow-completion-time quantiles.
///
/// Collects every [`FlowEnd`] as it happens; quantiles are exact (sorted
/// on demand, ties broken deterministically).
#[derive(Debug, Clone, Default)]
pub struct QuantileProbe {
    fct_secs: Vec<f64>,
    sorted: bool,
}

impl QuantileProbe {
    /// An empty probe.
    pub fn new() -> Self {
        QuantileProbe::default()
    }

    /// Completed flows observed.
    pub fn count(&self) -> usize {
        self.fct_secs.len()
    }

    /// Mean completion time in seconds (0 when nothing completed).
    pub fn mean(&self) -> f64 {
        if self.fct_secs.is_empty() {
            0.0
        } else {
            self.fct_secs.iter().sum::<f64>() / self.fct_secs.len() as f64
        }
    }

    /// The `q`-quantile of completion times, `None` when empty.
    ///
    /// # Panics
    /// Panics when `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.fct_secs.is_empty() {
            return None;
        }
        if !self.sorted {
            // the shared NaN-total ordering every quantile surface uses
            inrpp_sim::metrics::sort_samples(&mut self.fct_secs);
            self.sorted = true;
        }
        let idx = ((self.fct_secs.len() as f64 - 1.0) * q).round() as usize;
        Some(self.fct_secs[idx])
    }
}

impl Probe for QuantileProbe {
    fn on_flow_end(&mut self, ev: &FlowEnd) {
        self.fct_secs.push(ev.fct_secs);
        self.sorted = false;
    }
}

// ===================================================================
// Run report
// ===================================================================

/// Per-flow outcome, engine-neutral.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowRecord {
    /// Flow identity.
    pub flow: u64,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Offered volume in bits.
    pub offered_bits: f64,
    /// Delivered volume in bits (partial flows included).
    pub delivered_bits: f64,
    /// Arrival instant.
    pub arrival: SimTime,
    /// Completion time in seconds, `None` when unfinished at the horizon.
    pub fct_secs: Option<f64>,
    /// Subpaths the flow was admitted with (1 on the packet engine).
    pub subpaths: usize,
    /// False when no route existed (the flow never entered the network).
    pub routed: bool,
    /// Requests re-issued after timeout (packet engine; 0 on fluid).
    pub retransmits: u64,
    /// Chunks that left the primary path to route around a faulted
    /// link/node (packet engine; 0 on fluid).
    pub detours: u64,
    /// Custody chunks re-homed off a crashed node (packet engine; 0 on
    /// fluid).
    pub custody_rescues: u64,
    /// Delay attributable to fault outages: time chunks sat parked in
    /// custody behind a down channel plus rescue transit (packet engine;
    /// 0 on fluid).
    pub outage_delay_secs: f64,
}

impl FlowRecord {
    /// True when the flow finished before the horizon.
    pub fn completed(&self) -> bool {
        self.fct_secs.is_some()
    }
}

/// Whole-run aggregate metrics, engine-neutral. [`RunReport`] derefs to
/// this, so `report.delivered_bits` etc. read naturally.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregates {
    /// Flows that arrived within the window.
    pub arrived_flows: usize,
    /// Flows that completed before the horizon.
    pub completed_flows: usize,
    /// Flows with no route.
    pub unroutable_flows: usize,
    /// Total bits offered by routed flows.
    pub offered_bits: f64,
    /// Total bits delivered (partial flows included).
    pub delivered_bits: f64,
    /// Simulated window length.
    pub duration: SimDuration,
    /// Mean completion time over completed flows, seconds.
    pub mean_fct_secs: f64,
    /// Time-weighted mean of Jain's fairness index (fluid), or the Jain
    /// index over per-flow goodputs (packet); 0 when undefined.
    pub mean_jain: f64,
    /// Mean utilisation across directed channels.
    pub mean_utilisation: f64,
}

impl Aggregates {
    /// Normalised throughput: delivered / offered (the Fig. 4a metric).
    pub fn throughput(&self) -> f64 {
        if self.offered_bits <= 0.0 {
            0.0
        } else {
            self.delivered_bits / self.offered_bits
        }
    }

    /// Delivered bits per second of simulated time.
    pub fn goodput_bps(&self) -> f64 {
        let secs = self.duration.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.delivered_bits / secs
        }
    }
}

/// Packet-engine counters surfaced through the unified report.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PacketSummary {
    /// Distinct data chunks delivered end-to-end.
    pub chunks_delivered: u64,
    /// Data chunks dropped.
    pub chunks_dropped: u64,
    /// Data chunks that left their primary path at least once.
    pub chunks_detoured: u64,
    /// Chunks that spent time in custody stores.
    pub chunks_custodied: u64,
    /// Custody chunks re-homed off crashed nodes by the rescue machinery.
    pub chunks_rescued: u64,
    /// Back-pressure notifications emitted.
    pub backpressure_msgs: u64,
    /// Payload bits per chunk (goodput arithmetic).
    pub chunk_bits: f64,
}

/// Engine-specific detail retained alongside the unified view.
#[derive(Debug, Clone)]
pub enum EngineDetail {
    /// The full fluid-engine report (stretch CDF, FCT CDF, ...).
    Fluid(Box<FlowSimReport>),
    /// Packet-engine counters.
    Packet(PacketSummary),
}

/// The unified typed result of one session run.
///
/// Derefs to [`Aggregates`]: `report.throughput()`,
/// `report.delivered_bits`, `report.mean_jain` all work directly.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Which engine produced this report.
    pub engine: EngineKind,
    /// Strategy/transport display name ("SP", "ECMP", "URP", "INRPP",
    /// "AIMD", ...).
    pub strategy: String,
    /// Topology display name.
    pub topology: String,
    /// Per-flow records, in admission order (fluid) or ascending flow id
    /// (packet).
    pub flows: Vec<FlowRecord>,
    /// Whole-run aggregates.
    pub aggregates: Aggregates,
    /// Mean utilisation per directed channel
    /// (index = `link.idx() * 2 + direction`).
    pub channel_utilisation: Vec<f64>,
    /// Engine-specific detail.
    pub detail: EngineDetail,
}

impl std::ops::Deref for RunReport {
    type Target = Aggregates;

    fn deref(&self) -> &Aggregates {
        &self.aggregates
    }
}

impl RunReport {
    /// The fluid-engine report, when this run came from the fluid engine.
    pub fn fluid(&self) -> Option<&FlowSimReport> {
        match &self.detail {
            EngineDetail::Fluid(r) => Some(r),
            EngineDetail::Packet(_) => None,
        }
    }

    /// Consume the report, yielding the fluid-engine detail.
    pub fn into_fluid(self) -> Option<FlowSimReport> {
        match self.detail {
            EngineDetail::Fluid(r) => Some(*r),
            EngineDetail::Packet(_) => None,
        }
    }

    /// The packet-engine counters, when this run came from the packet
    /// engine.
    pub fn packet(&self) -> Option<&PacketSummary> {
        match &self.detail {
            EngineDetail::Packet(s) => Some(s),
            EngineDetail::Fluid(_) => None,
        }
    }

    /// Look up one flow's record by id.
    pub fn flow(&self, flow: u64) -> Option<&FlowRecord> {
        self.flows.iter().find(|f| f.flow == flow)
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{:<5} [{}] on {:<14} thr={:.3} jain={:.3} fct={:.3}s done={}/{}",
            self.strategy,
            self.engine,
            self.topology,
            self.throughput(),
            self.mean_jain,
            self.mean_fct_secs,
            self.completed_flows,
            self.arrived_flows,
        )
    }
}

// ===================================================================
// Session + builder
// ===================================================================

/// A validated experiment description: topology + traffic + strategy +
/// window + seed. Build one with [`Session::builder`], run it with
/// [`Session::run`] (fluid engine), [`Session::run_probed`] (fluid engine
/// with probes) or [`Session::run_on`] (any [`Engine`] backend).
#[derive(Debug, Clone)]
pub struct Session<'a> {
    topology: &'a Topology,
    traffic: Traffic,
    strategy: SessionStrategy,
    horizon: SimDuration,
    seed: u64,
    faults: FaultPlan,
}

/// Builder for [`Session`]; see the module docs for the grammar.
#[derive(Debug, Clone, Default)]
pub struct SessionBuilder<'a> {
    topology: Option<&'a Topology>,
    workload: Option<Workload>,
    workload_config: Option<WorkloadConfig>,
    transfers: Option<Vec<Transfer>>,
    strategy: SessionStrategy,
    horizon: Option<SimDuration>,
    horizon_secs: Option<f64>,
    seed: u64,
    faults: FaultPlan,
}

impl<'a> SessionBuilder<'a> {
    /// The network the session runs over.
    pub fn topology(mut self, topo: &'a Topology) -> Self {
        self.topology = Some(topo);
        self
    }

    /// Use a pre-generated flow workload (replaces any earlier traffic
    /// source).
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workload = Some(workload);
        self.workload_config = None;
        self.transfers = None;
        self
    }

    /// Generate the flow workload at build time from `config`, over the
    /// session window with the session seed (replaces any earlier traffic
    /// source). Generation failures surface as
    /// [`SessionError::Workload`].
    pub fn workload_config(mut self, config: WorkloadConfig) -> Self {
        self.workload_config = Some(config);
        self.workload = None;
        self.transfers = None;
        self
    }

    /// Use an explicit whole-chunk transfer list (replaces any earlier
    /// traffic source) — the traffic form both engines replay with
    /// identical offered bits.
    pub fn transfers(mut self, transfers: Vec<Transfer>) -> Self {
        self.transfers = Some(transfers);
        self.workload = None;
        self.workload_config = None;
        self
    }

    /// The sharing regime (default: [`SessionStrategy::Sp`]).
    pub fn strategy(mut self, strategy: SessionStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Simulation window and hard stop (default: 60 s). A zero duration
    /// is rejected at build time.
    pub fn horizon(mut self, horizon: SimDuration) -> Self {
        self.horizon = Some(horizon);
        self.horizon_secs = None;
        self
    }

    /// Simulation window from raw (possibly untrusted) seconds, e.g.
    /// parsed CLI or service input. Negative, non-finite, or
    /// out-of-range values are rejected at build time with
    /// [`SessionError::InvalidConfig`] instead of panicking in the
    /// nanosecond conversion.
    pub fn horizon_secs(mut self, secs: f64) -> Self {
        self.horizon_secs = Some(secs);
        self.horizon = None;
        self
    }

    /// Seed for workload generation (default: 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// A deterministic fault plan applied mid-run by both engines
    /// (default: no faults). Plans are validated against the topology at
    /// build time: an event naming a node or link the topology does not
    /// have is rejected with [`SessionError::InvalidConfig`]. The
    /// determinism contract is unchanged under any plan —
    /// checkpoint/resume and repeated runs stay byte-identical.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Validate and assemble the session.
    pub fn build(self) -> Result<Session<'a>, SessionError> {
        let topology = self.topology.ok_or(SessionError::MissingTopology)?;
        let horizon = match (self.horizon, self.horizon_secs) {
            (_, Some(secs)) => SimDuration::try_from_secs_f64(secs)?,
            (Some(d), None) => d,
            (None, None) => SimDuration::from_secs(60),
        };
        if horizon <= SimDuration::ZERO {
            return Err(SessionError::EmptyWindow);
        }
        // flow ids key per-flow state in both engines: reject duplicates
        // for every traffic form, not just transfers
        fn check_unique_ids<I: Iterator<Item = u64>>(ids: I) -> Result<(), SessionError> {
            let mut seen = std::collections::BTreeSet::new();
            for id in ids {
                if !seen.insert(id) {
                    return Err(SessionError::DuplicateFlow(id));
                }
            }
            Ok(())
        }
        let traffic = if let Some(w) = self.workload {
            for f in &w.flows {
                check_endpoints(topology, f.id, f.src, f.dst)?;
            }
            check_unique_ids(w.flows.iter().map(|f| f.id))?;
            Traffic::Flows(w)
        } else if let Some(cfg) = self.workload_config {
            Traffic::Flows(Workload::try_generate(topology, &cfg, horizon, self.seed)?)
        } else if let Some(transfers) = self.transfers {
            for t in &transfers {
                check_transfer(topology, t)?;
            }
            check_unique_ids(transfers.iter().map(|t| t.flow))?;
            Traffic::Transfers(transfers)
        } else {
            return Err(SessionError::MissingTraffic);
        };
        self.faults
            .check_indices(topology.node_count(), topology.link_count())
            .map_err(|e| SessionError::InvalidConfig(format!("invalid fault plan: {e}")))?;
        Ok(Session {
            topology,
            traffic,
            strategy: self.strategy,
            horizon,
            seed: self.seed,
            faults: self.faults,
        })
    }
}

/// The check both engines need of every transfer, up front or fed
/// into a live session: distinct endpoints inside the topology, at
/// least one chunk, and a chunk size whose bit count is nonzero and fits
/// a `u64`.
pub(crate) fn check_transfer(topo: &Topology, t: &Transfer) -> Result<(), SessionError> {
    if t.chunks == 0 {
        return Err(SessionError::InvalidTransfer(format!(
            "flow {} has zero chunks",
            t.flow
        )));
    }
    check_endpoints(topo, t.flow, t.src, t.dst)?;
    match t.chunk_bytes.as_bytes().checked_mul(8) {
        Some(0) => Err(SessionError::InvalidTransfer(format!(
            "flow {} has zero-sized chunks",
            t.flow
        ))),
        Some(_) => Ok(()),
        None => Err(SessionError::InvalidTransfer(format!(
            "flow {}: a chunk of {} B overflows a u64 bit count",
            t.flow,
            t.chunk_bytes.as_bytes()
        ))),
    }
}

/// Distinct endpoints inside the topology: the part of
/// [`check_transfer`] a fluid flow spec needs too.
fn check_endpoints(
    topo: &Topology,
    flow: u64,
    src: NodeId,
    dst: NodeId,
) -> Result<(), SessionError> {
    if src == dst {
        return Err(SessionError::InvalidTransfer(format!(
            "flow {flow} endpoints coincide ({src})"
        )));
    }
    if src.idx().max(dst.idx()) >= topo.node_count() {
        return Err(SessionError::InvalidTransfer(format!(
            "flow {flow} names a node outside the {}-node topology",
            topo.node_count()
        )));
    }
    Ok(())
}

/// One fault kind in the fingerprint's layout: a tag byte, then the
/// kind's fields.
fn put_fault_kind(w: &mut SnapWriter, kind: FaultKind) {
    match kind {
        FaultKind::LinkDown { link } => {
            w.put_u8(0);
            w.put_u32(link);
        }
        FaultKind::LinkUp { link } => {
            w.put_u8(1);
            w.put_u32(link);
        }
        FaultKind::CapacityScale { link, fraction } => {
            w.put_u8(2);
            w.put_u32(link);
            w.put_f64(fraction);
        }
        FaultKind::NodeCrash { node } => {
            w.put_u8(3);
            w.put_u32(node);
        }
        FaultKind::NodeRecover { node } => {
            w.put_u8(4);
            w.put_u32(node);
        }
        FaultKind::LossBurst {
            link,
            drop_chance,
            until,
        } => {
            w.put_u8(5);
            w.put_u32(link);
            w.put_f64(drop_chance);
            until.encode(w);
        }
    }
}

impl<'a> Session<'a> {
    /// Start describing a session.
    pub fn builder() -> SessionBuilder<'a> {
        SessionBuilder::default()
    }

    /// The session's network.
    pub fn topology(&self) -> &'a Topology {
        self.topology
    }

    /// A deterministic fingerprint of the session spec (topology shape,
    /// traffic, strategy, horizon, seed). Checkpoints embed it so a
    /// resume against a *different* spec is rejected instead of
    /// silently diverging.
    ///
    /// The hashed layout lives here and nowhere else; checkpoints and
    /// every `open` reply carry the value, so its bytes must not move.
    pub fn fingerprint(&self) -> u64 {
        let mut w = SnapWriter::new();
        w.put_str(self.topology.name());
        w.put_usize(self.topology.node_count());
        w.put_usize(self.topology.link_count());
        // Debug covers every strategy knob (e.g. the URP detour config)
        // without each config type needing its own canonical encoding.
        w.put_str(&format!("{:?}", self.strategy));
        w.put_u64(self.horizon.as_nanos());
        w.put_u64(self.seed);
        match &self.traffic {
            Traffic::Flows(wl) => {
                w.put_u8(0);
                w.put_usize(wl.flows.len());
                for f in &wl.flows {
                    w.put_u64(f.id);
                    w.put_u32(f.src.0);
                    w.put_u32(f.dst.0);
                    w.put_f64(f.size_bits);
                    f.arrival.encode(&mut w);
                }
            }
            Traffic::Transfers(ts) => {
                w.put_u8(1);
                ts.encode(&mut w);
            }
        }
        // fault plans are part of the spec a checkpoint must match;
        // encoded only when present so plan-free fingerprints are
        // unchanged from earlier versions
        if !self.faults.is_empty() {
            w.put_u8(2);
            w.put_usize(self.faults.events().len());
            for ev in self.faults.events() {
                ev.at.encode(&mut w);
                put_fault_kind(&mut w, ev.kind);
            }
        }
        snap::fingerprint(&w.into_bytes())
    }

    /// The session's traffic description.
    pub fn traffic(&self) -> &Traffic {
        &self.traffic
    }

    /// The session's sharing regime.
    pub fn strategy(&self) -> SessionStrategy {
        self.strategy
    }

    /// The session's simulation window.
    pub fn horizon(&self) -> SimDuration {
        self.horizon
    }

    /// The session's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The session's fault plan (empty when no faults were configured).
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// The traffic as a fluid workload: borrowed when flow-native,
    /// converted (whole-chunk sizes) when transfer-native.
    pub fn fluid_workload(&self) -> Cow<'_, Workload> {
        match &self.traffic {
            Traffic::Flows(w) => Cow::Borrowed(w),
            Traffic::Transfers(ts) => {
                let flows: Vec<FlowSpec> = ts
                    .iter()
                    .map(|t| FlowSpec {
                        id: t.flow,
                        src: t.src,
                        dst: t.dst,
                        size_bits: t.size_bits(),
                        arrival: t.start,
                    })
                    .collect();
                Cow::Owned(Workload {
                    offered_bits: flows.iter().map(|f| f.size_bits).sum(),
                    flows,
                })
            }
        }
    }

    /// Run on the built-in [`FluidEngine`] with no probes.
    pub fn run(&self) -> Result<RunReport, SessionError> {
        self.run_probed(&mut [])
    }

    /// Run on the built-in [`FluidEngine`] with streaming probes.
    pub fn run_probed(&self, probes: &mut [&mut dyn Probe]) -> Result<RunReport, SessionError> {
        self.run_on(&FluidEngine, probes)
    }

    /// Run on any [`Engine`] backend with streaming probes.
    pub fn run_on(
        &self,
        engine: &dyn Engine,
        probes: &mut [&mut dyn Probe],
    ) -> Result<RunReport, SessionError> {
        engine.run(self, probes)
    }
}

// ===================================================================
// Engines
// ===================================================================

/// A simulation backend the facade can drive.
///
/// Both backends run a session as their service-mode session
/// (`inrpp::service`) opened and finished at once, so a one-shot run and
/// a stepped one are built the same way and are bit-identical.
pub trait Engine {
    /// Which backend this is.
    fn kind(&self) -> EngineKind;

    /// Execute `session`, streaming events into `probes`.
    fn run(
        &self,
        session: &Session<'_>,
        probes: &mut [&mut dyn Probe],
    ) -> Result<RunReport, SessionError>;
}

/// The flow-level fluid backend (`inrpp-flowsim`). Accepts every
/// [`SessionStrategy`]; transfer-native traffic is replayed as flows of
/// `chunks x chunk_bytes` bits.
#[derive(Debug, Clone, Copy, Default)]
pub struct FluidEngine;

/// Adapter: flowsim's raw observer stream -> session probes + per-flow
/// record collection. The record storage is borrowed so a service
/// session (`inrpp::service`) can keep it alive across stepping calls.
pub(crate) struct FluidAdapter<'r, 'a, 'b> {
    pub(crate) probes: ProbeSet<'a, 'b>,
    pub(crate) records: &'r mut Vec<FlowRecord>,
    pub(crate) index: &'r mut HashMap<u64, usize>,
}

impl FluidAdapter<'_, '_, '_> {
    fn record(&mut self, t: SimTime, spec: &FlowSpec, subpaths: usize, routed: bool) {
        self.index.insert(spec.id, self.records.len());
        self.records.push(FlowRecord {
            flow: spec.id,
            src: spec.src,
            dst: spec.dst,
            offered_bits: spec.size_bits,
            delivered_bits: 0.0,
            arrival: t,
            fct_secs: None,
            subpaths,
            routed,
            retransmits: 0,
            detours: 0,
            custody_rescues: 0,
            outage_delay_secs: 0.0,
        });
    }
}

impl FlowObserver for FluidAdapter<'_, '_, '_> {
    fn on_flow_start(&mut self, t: SimTime, spec: &FlowSpec, subpaths: usize) {
        self.record(t, spec, subpaths, true);
        self.probes.flow_start(&FlowStart {
            time: t,
            flow: spec.id,
            src: spec.src,
            dst: spec.dst,
            size_bits: spec.size_bits,
            subpaths,
        });
    }

    fn on_flow_unroutable(&mut self, t: SimTime, spec: &FlowSpec) {
        self.record(t, spec, 0, false);
    }

    fn on_flow_end(&mut self, t: SimTime, flow: u64, delivered_bits: f64, fct_secs: f64) {
        if let Some(&i) = self.index.get(&flow) {
            self.records[i].delivered_bits = delivered_bits;
            self.records[i].fct_secs = Some(fct_secs);
        }
        self.probes.flow_end(&FlowEnd {
            time: t,
            flow,
            delivered_bits,
            fct_secs,
        });
    }

    fn on_flow_partial(&mut self, _t: SimTime, flow: u64, delivered_bits: f64) {
        if let Some(&i) = self.index.get(&flow) {
            self.records[i].delivered_bits = delivered_bits;
        }
    }

    fn on_allocation(&mut self, t: SimTime, flows: &[u64], rates: &[f64]) {
        self.probes.allocation(&AllocationEvent {
            time: t,
            flows,
            rates,
        });
    }

    fn on_sample(&mut self, t: SimTime, delivered_bits: f64) {
        self.probes.sample(&Sample {
            time: t,
            delivered_bits,
        });
    }
}

/// A one-shot run is a service session opened and finished at once, so
/// the fluid engine is built from a session in one place:
/// [`FluidService::open`].
impl Engine for FluidEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Fluid
    }

    fn run(
        &self,
        session: &Session<'_>,
        probes: &mut [&mut dyn Probe],
    ) -> Result<RunReport, SessionError> {
        let backing = FluidBacking::for_session(session);
        FluidService::open(session, &backing)?.finish_run(probes)
    }
}

/// Assemble the unified report from a fluid-engine report plus the
/// per-flow records an adapter collected (final reports and service-mode
/// snapshots alike).
pub(crate) fn assemble_fluid_report(report: FlowSimReport, flows: Vec<FlowRecord>) -> RunReport {
    RunReport {
        engine: EngineKind::Fluid,
        strategy: report.strategy.clone(),
        topology: report.topology.clone(),
        flows,
        aggregates: Aggregates {
            arrived_flows: report.arrived_flows,
            completed_flows: report.completed_flows,
            unroutable_flows: report.unroutable_flows,
            offered_bits: report.offered_bits,
            delivered_bits: report.delivered_bits,
            duration: report.duration,
            mean_fct_secs: report.mean_fct_secs,
            mean_jain: report.mean_jain,
            mean_utilisation: report.mean_utilisation,
        },
        channel_utilisation: report.channel_utilisation.clone(),
        detail: EngineDetail::Fluid(Box::new(report)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inrpp_flowsim::workload::PairSelector;
    use inrpp_sim::units::Rate;

    fn quick_session(topo: &Topology) -> Session<'_> {
        Session::builder()
            .topology(topo)
            .workload_config(WorkloadConfig {
                arrival_rate: 40.0,
                mean_size_bits: 2e6,
                pairs: PairSelector::Uniform,
                ..WorkloadConfig::default()
            })
            .strategy(SessionStrategy::urp())
            .horizon(SimDuration::from_secs(2))
            .seed(11)
            .build()
            .expect("valid session")
    }

    #[test]
    fn fingerprint_bytes_are_pinned() {
        // the value the codec-based layout computed, with one fault event
        // of each kind: checkpoints and `open` replies carry it
        let topo = Topology::fig3();
        let plan = FaultPlan::parse(
            "linkdown@0.5:0; scale@0.6:1:0.5; linkup@0.7:0; crash@0.8:2; recover@0.9:2; burst@1.0:1:0.3:1.2",
        )
        .expect("valid plan");
        assert_eq!(plan.events().len(), 6);
        let s = Session::builder()
            .topology(&topo)
            .workload_config(WorkloadConfig {
                arrival_rate: 40.0,
                mean_size_bits: 2e6,
                ..WorkloadConfig::default()
            })
            .strategy(SessionStrategy::urp())
            .horizon(SimDuration::from_secs(2))
            .seed(11)
            .faults(plan)
            .build()
            .expect("valid session");
        assert!(matches!(s.traffic(), Traffic::Flows(wl) if wl.flows.len() == 87));
        assert_eq!(s.fingerprint(), 0x4d59_6452_fc43_4441);
    }

    #[test]
    fn builder_rejects_missing_topology() {
        let err = Session::builder()
            .workload_config(WorkloadConfig::default())
            .build()
            .unwrap_err();
        assert_eq!(err, SessionError::MissingTopology);
        assert!(err.to_string().contains("topology"));
    }

    #[test]
    fn builder_rejects_missing_traffic() {
        let topo = Topology::fig3();
        let err = Session::builder().topology(&topo).build().unwrap_err();
        assert_eq!(err, SessionError::MissingTraffic);
        assert!(err.to_string().contains("traffic"));
    }

    #[test]
    fn builder_rejects_empty_window() {
        let topo = Topology::fig3();
        let err = Session::builder()
            .topology(&topo)
            .workload_config(WorkloadConfig::default())
            .horizon(SimDuration::ZERO)
            .build()
            .unwrap_err();
        assert_eq!(err, SessionError::EmptyWindow);
    }

    #[test]
    fn builder_surfaces_workload_errors_typed() {
        let topo = Topology::fig3();
        let err = Session::builder()
            .topology(&topo)
            .workload_config(WorkloadConfig {
                arrival_rate: -1.0,
                ..WorkloadConfig::default()
            })
            .horizon(SimDuration::from_secs(1))
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            SessionError::Workload(WorkloadError::NonPositiveArrivalRate(-1.0))
        );
    }

    #[test]
    fn builder_rejects_malformed_transfers() {
        let topo = Topology::fig3();
        let n = |s: &str| topo.node_by_name(s).unwrap();
        let t = |flow, src, dst, chunks| Transfer {
            flow,
            src: n(src),
            dst: n(dst),
            chunks,
            chunk_bytes: ByteSize::bytes(1250),
            start: SimTime::ZERO,
        };
        let build = |ts: Vec<Transfer>| {
            Session::builder()
                .topology(&topo)
                .transfers(ts)
                .build()
                .unwrap_err()
        };
        assert!(matches!(
            build(vec![t(1, "1", "4", 0)]),
            SessionError::InvalidTransfer(m) if m.contains("zero chunks")
        ));
        assert!(matches!(
            build(vec![t(1, "1", "1", 5)]),
            SessionError::InvalidTransfer(m) if m.contains("coincide")
        ));
        assert_eq!(
            build(vec![t(1, "1", "4", 5), t(1, "1", "3", 5)]),
            SessionError::DuplicateFlow(1)
        );
        let mut zero = t(1, "1", "4", 5);
        zero.chunk_bytes = ByteSize::bytes(0);
        assert!(matches!(
            build(vec![zero]),
            SessionError::InvalidTransfer(m) if m.contains("zero-sized")
        ));
        // an endpoint past the topology's last node, and a chunk whose
        // size in bits overflows a u64
        let outside = Transfer {
            dst: NodeId(99),
            ..t(1, "1", "4", 5)
        };
        assert!(matches!(
            build(vec![outside]),
            SessionError::InvalidTransfer(m) if m.contains("outside")
        ));
        let huge = Transfer {
            chunk_bytes: ByteSize::bytes(u64::MAX),
            ..t(1, "1", "4", 5)
        };
        assert!(matches!(
            build(vec![huge]),
            SessionError::InvalidTransfer(m) if m.contains("overflows")
        ));
    }

    #[test]
    fn builder_rejects_duplicate_flow_ids_in_workloads() {
        // flow-native traffic too: a duplicate id would silently drop a
        // flow on the packet engine (BTreeMap-keyed per-flow state)
        let topo = Topology::fig3();
        let n = |s: &str| topo.node_by_name(s).unwrap();
        let dup = FlowSpec {
            id: 4,
            src: n("1"),
            dst: n("4"),
            size_bits: 1e6,
            arrival: SimTime::ZERO,
        };
        // a flow naming a node the topology does not have is refused
        // here, not by a panic inside the fluid run
        let outside = FlowSpec {
            id: 5,
            src: NodeId(4_194_306),
            ..dup.clone()
        };
        let err = Session::builder()
            .topology(&topo)
            .workload(Workload {
                offered_bits: 2e6,
                flows: vec![dup.clone(), outside],
            })
            .build()
            .unwrap_err();
        assert!(
            matches!(&err, SessionError::InvalidTransfer(m) if m.contains("outside")),
            "{err}"
        );
        let err = Session::builder()
            .topology(&topo)
            .workload(Workload {
                offered_bits: 2e6,
                flows: vec![dup.clone(), dup],
            })
            .build()
            .unwrap_err();
        assert_eq!(err, SessionError::DuplicateFlow(4));
    }

    #[test]
    fn facade_run_matches_direct_flowsim() {
        // the behaviour-preservation contract: a facade run must be
        // bit-identical to hand-constructing the simulator
        use inrpp_flowsim::sim::{FlowSim, FlowSimConfig};
        use inrpp_flowsim::strategy::InrpStrategy;
        let topo = Topology::fig3();
        let session = quick_session(&topo);
        let facade = session.run().expect("fluid run");
        let workload = session.fluid_workload().into_owned();
        let inrp = InrpStrategy::with_defaults(&topo);
        let direct = FlowSim::new(
            &topo,
            &inrp,
            &workload,
            FlowSimConfig {
                horizon: SimDuration::from_secs(2),
            },
        )
        .run();
        assert_eq!(facade.aggregates.delivered_bits, direct.delivered_bits);
        assert_eq!(facade.aggregates.mean_jain, direct.mean_jain);
        assert_eq!(facade.aggregates.completed_flows, direct.completed_flows);
        assert_eq!(facade.channel_utilisation, direct.channel_utilisation);
        assert_eq!(facade.fluid().unwrap().mean_fct_secs, direct.mean_fct_secs);
    }

    #[test]
    fn probed_run_equals_unprobed_run() {
        let topo = Topology::fig3();
        let session = quick_session(&topo);
        let plain = session.run().expect("plain run");
        let mut series = TimeSeriesProbe::new(SimDuration::from_millis(100));
        let mut quant = QuantileProbe::new();
        let probed = session
            .run_probed(&mut [&mut series, &mut quant])
            .expect("probed run");
        assert_eq!(plain.aggregates, probed.aggregates);
        assert_eq!(plain.flows, probed.flows);
        assert_eq!(plain.channel_utilisation, probed.channel_utilisation);
        // and the probes saw the run
        assert_eq!(quant.count(), probed.aggregates.completed_flows);
        let arrivals: u32 = series.bins().iter().map(|b| b.arrivals).sum();
        assert_eq!(arrivals as usize, probed.aggregates.arrived_flows);
    }

    #[test]
    fn per_flow_records_are_complete_and_conserving() {
        let topo = Topology::fig3();
        let session = quick_session(&topo);
        let report = session.run().expect("run");
        // one record per arrival (unroutable arrivals included, flagged)
        assert_eq!(report.flows.len(), report.aggregates.arrived_flows);
        assert_eq!(
            report.flows.iter().filter(|f| !f.routed).count(),
            report.aggregates.unroutable_flows
        );
        let delivered: f64 = report.flows.iter().map(|f| f.delivered_bits).sum();
        assert!((delivered - report.aggregates.delivered_bits).abs() < 1.0);
        for fl in &report.flows {
            assert!(fl.delivered_bits <= fl.offered_bits * (1.0 + 1e-9));
            if let Some(fct) = fl.fct_secs {
                assert!(fct >= 0.0);
            }
        }
        assert_eq!(
            report.flows.iter().filter(|f| f.completed()).count(),
            report.aggregates.completed_flows
        );
    }

    #[test]
    fn transfers_replay_as_fluid_flows() {
        let topo = Topology::fig3();
        let n = |s: &str| topo.node_by_name(s).unwrap();
        let chunk = ByteSize::bytes(1250);
        let session = Session::builder()
            .topology(&topo)
            .transfers(vec![
                Transfer::for_object_bits(1, n("1"), n("4"), 5e6, chunk, SimTime::ZERO),
                Transfer::for_object_bits(2, n("1"), n("3"), 5e6, chunk, SimTime::ZERO),
            ])
            .strategy(SessionStrategy::urp())
            .horizon(SimDuration::from_secs(30))
            .build()
            .expect("valid transfer session");
        let report = session.run().expect("fluid replay");
        assert_eq!(report.aggregates.arrived_flows, 2);
        assert_eq!(report.aggregates.completed_flows, 2);
        // whole-chunk quantisation: offered bits are exact chunk multiples
        let chunk_bits = chunk.as_bits() as f64;
        for fl in &report.flows {
            assert_eq!(fl.offered_bits % chunk_bits, 0.0);
        }
    }

    #[test]
    fn quantile_probe_quantiles_are_exact() {
        let mut q = QuantileProbe::new();
        assert_eq!(q.quantile(0.5), None);
        for v in [3.0, 1.0, 2.0] {
            q.on_flow_end(&FlowEnd {
                time: SimTime::ZERO,
                flow: 0,
                delivered_bits: 0.0,
                fct_secs: v,
            });
        }
        assert_eq!(q.count(), 3);
        assert_eq!(q.quantile(0.0), Some(1.0));
        assert_eq!(q.quantile(0.5), Some(2.0));
        assert_eq!(q.quantile(1.0), Some(3.0));
        assert!((q.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn time_series_probe_buckets_by_time() {
        let mut p = TimeSeriesProbe::new(SimDuration::from_secs(1));
        p.on_flow_start(&FlowStart {
            time: SimTime::from_millis(100),
            flow: 1,
            src: NodeId(0),
            dst: NodeId(1),
            size_bits: 8.0,
            subpaths: 1,
        });
        p.on_flow_end(&FlowEnd {
            time: SimTime::from_millis(2500),
            flow: 1,
            delivered_bits: 8.0,
            fct_secs: 2.4,
        });
        assert_eq!(p.bins().len(), 3);
        assert_eq!(p.bins()[0].arrivals, 1);
        assert_eq!(p.bins()[0].peak_active, 1);
        assert_eq!(p.bins()[2].completions, 1);
        let csv = p.to_csv();
        assert_eq!(csv.lines().count(), 4, "header + 3 bins:\n{csv}");
    }

    #[test]
    fn strategy_names_and_builders() {
        let topo = Topology::fig3();
        for (s, name) in [
            (SessionStrategy::Sp, "SP"),
            (SessionStrategy::Ecmp, "ECMP"),
            (SessionStrategy::Mptcp, "MPTCP"),
            (SessionStrategy::urp(), "URP"),
        ] {
            assert_eq!(s.name(), name);
            assert_eq!(s.build_fluid(&topo).name(), name);
        }
    }

    #[test]
    fn error_display_is_informative() {
        let e = SessionError::IncompatibleStrategy {
            engine: EngineKind::Packet,
            strategy: "ECMP".to_string(),
        };
        assert!(e.to_string().contains("ECMP"));
        assert!(e.to_string().contains("packet"));
        let e = SessionError::Unroutable { flow: 9 };
        assert!(e.to_string().contains('9'));
        let _ = Rate::ZERO;
    }
}
