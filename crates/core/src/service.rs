//! Service mode: long-lived, steppable simulation sessions.
//!
//! One-shot [`Session::run`](crate::session::Session::run) answers
//! "what happened over this window"; service mode answers "what is
//! happening *now*" for a run that is still in flight. A
//! [`ServiceSession`] is an open simulation that can be
//!
//! * **advanced** to an absolute instant ([`ServiceSession::advance`]),
//!   with probe hooks firing in event order and, only when a probe is
//!   attached, an incremental [`RunReport`] snapshot emitted through
//!   [`Probe::on_report`] at every boundary ([`ServiceSession::events`]
//!   reads progress without one);
//! * **fed** additional traffic while running
//!   ([`ServiceSession::feed`]) — the streaming-ingestion half of
//!   trace-driven operation (see [`crate::source`] for where the
//!   transfers come from);
//! * **checkpointed** ([`ServiceSession::checkpoint`]) into a
//!   self-describing [`Checkpoint`] envelope, and later resumed
//!   **bit-identically**: a resumed run produces the same reports and
//!   probe streams, byte for byte (`f64::to_bits` equality), as the
//!   uninterrupted run — the contract `tests/checkpoint_resume.rs`
//!   gates in CI.
//!
//! Both engines checkpoint the same way, and only this module knows the
//! format: a session appends every call it accepts to a [`ReplayLog`] —
//! the clock each `advance` parked at and each transfer `feed` took —
//! and a checkpoint is that log. Resume opens the session afresh and
//! replays the log through the same `advance`/`feed` calls with probes
//! muted. The engines are deterministic and split-invariant (a run
//! advanced in any number of steps is byte-identical), so the replayed
//! state is the interrupted one; consecutive advances merge into one op
//! for the same reason, so a log grows with feeds, not with advances.
//!
//! The envelope embeds the session's
//! [`fingerprint`](crate::session::Session::fingerprint) so a resume
//! against a different spec (other topology, traffic, strategy,
//! horizon, or seed) fails with
//! [`SessionError::CheckpointMismatch`] instead of silently diverging.
//!
//! [`FluidService`] is the fluid-engine implementation; the packet
//! engine's is `inrpp_packetsim::session::PacketService`. Each is the
//! one place its engine is built from a [`Session`]: a one-shot
//! [`Engine::run`](crate::session::Engine::run) opens a service session
//! and finishes it at once. `inrpp serve` exposes both over
//! line-delimited JSON.

use std::collections::{HashMap, HashSet};

use inrpp_flowsim::sim::{FlowRun, FlowSim, FlowSimConfig};
use inrpp_flowsim::strategy::RoutingStrategy;
use inrpp_sim::snap::{Snap, SnapError, SnapReader, SnapWriter};
use inrpp_sim::time::SimTime;
use inrpp_topology::graph::Topology;

use crate::session::{
    assemble_fluid_report, check_transfer, EngineKind, FlowRecord, FlowSpec, FluidAdapter, Probe,
    ProbeSet, RunReport, Session, SessionError, Transfer, Workload,
};

/// Envelope magic. Since v2 the body of either engine's checkpoint is a
/// [`ReplayLog`]; a v1 file (a fluid state snapshot, or a packet log
/// without chunk sizes) is refused instead of being misread.
const CHECKPOINT_MAGIC: &str = "inrpp-ckpt v2";

// ===================================================================
// Checkpoint envelope and replay log
// ===================================================================

/// A session's [`ReplayLog`], wrapped with enough identity to refuse a
/// wrong resume: which engine wrote it and the
/// [`Session::fingerprint`] of the spec it was taken against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Engine that produced the body.
    pub engine: EngineKind,
    /// [`Session::fingerprint`] of the originating session spec.
    pub fingerprint: u64,
    body: Vec<u8>,
}

impl Checkpoint {
    /// Wrap an encoded body.
    pub fn new(engine: EngineKind, fingerprint: u64, body: Vec<u8>) -> Self {
        Checkpoint {
            engine,
            fingerprint,
            body,
        }
    }

    /// The encoded replay log.
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// Serialise the envelope (magic + identity + body).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_str(CHECKPOINT_MAGIC);
        w.put_u8(match self.engine {
            EngineKind::Fluid => 0,
            EngineKind::Packet => 1,
        });
        w.put_u64(self.fingerprint);
        w.put_bytes(&self.body);
        w.into_bytes()
    }

    /// Parse an envelope produced by [`Checkpoint::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SessionError> {
        let corrupt = |e: SnapError| {
            SessionError::CheckpointMismatch(format!("corrupt checkpoint envelope: {e}"))
        };
        let mut r = SnapReader::new(bytes);
        let magic = r.get_str().map_err(corrupt)?;
        if magic != CHECKPOINT_MAGIC {
            return Err(SessionError::CheckpointMismatch(format!(
                "not an {CHECKPOINT_MAGIC:?} checkpoint (header {magic:?})"
            )));
        }
        let engine = match r.get_u8().map_err(corrupt)? {
            0 => EngineKind::Fluid,
            1 => EngineKind::Packet,
            other => {
                return Err(SessionError::CheckpointMismatch(format!(
                    "unknown engine tag {other}"
                )))
            }
        };
        let fingerprint = r.get_u64().map_err(corrupt)?;
        let body = r.get_bytes().map_err(corrupt)?.to_vec();
        r.finish().map_err(corrupt)?;
        Ok(Checkpoint {
            engine,
            fingerprint,
            body,
        })
    }

    /// Check this checkpoint belongs to `engine` + `session` before a
    /// session is opened to replay it.
    pub fn validate(&self, engine: EngineKind, session: &Session<'_>) -> Result<(), SessionError> {
        if self.engine != engine {
            return Err(SessionError::CheckpointMismatch(format!(
                "checkpoint was written by the {} engine, resume requested on {}",
                self.engine, engine
            )));
        }
        let expect = session.fingerprint();
        if self.fingerprint != expect {
            return Err(SessionError::CheckpointMismatch(format!(
                "session spec fingerprint {:016x} does not match the checkpoint's {:016x} \
                 (different topology, traffic, strategy, horizon, or seed)",
                expect, self.fingerprint
            )));
        }
        Ok(())
    }

    /// Drive `svc` — freshly opened on the session this checkpoint was
    /// [validated](Checkpoint::validate) against — through the logged
    /// calls with probes muted, leaving it where the checkpointed
    /// session stood. The log holds only calls the original session
    /// accepted, so a body that does not decode, trailing bytes, or a
    /// refused op all mean the file was altered:
    /// [`SessionError::CheckpointMismatch`].
    pub fn replay(&self, svc: &mut dyn ServiceSession) -> Result<(), SessionError> {
        let mut r = SnapReader::new(&self.body);
        let ops = Vec::<ReplayOp>::decode(&mut r)
            .and_then(|ops| r.finish().map(|()| ops))
            .map_err(|e| {
                SessionError::CheckpointMismatch(format!("corrupt {} checkpoint: {e}", self.engine))
            })?;
        for op in ops {
            match op {
                ReplayOp::AdvanceTo(t) => svc.advance(t, &mut []).map(drop),
                ReplayOp::Feed(t) => svc.feed(&t),
            }
            .map_err(|e| {
                SessionError::CheckpointMismatch(format!(
                    "{} checkpoint replay failed: {e}",
                    self.engine
                ))
            })?;
        }
        Ok(())
    }
}

/// One accepted call of a [`ServiceSession`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum ReplayOp {
    /// An `advance` to this instant, clamped to the horizon: where the
    /// clock parked, unless the target was already behind it.
    AdvanceTo(SimTime),
    /// Exactly the transfer `feed` took.
    Feed(Transfer),
}

impl Snap for ReplayOp {
    fn encode(&self, w: &mut SnapWriter) {
        match self {
            ReplayOp::AdvanceTo(t) => {
                w.put_u8(0);
                t.encode(w);
            }
            ReplayOp::Feed(t) => {
                w.put_u8(1);
                t.encode(w);
            }
        }
    }

    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(ReplayOp::AdvanceTo(SimTime::decode(r)?)),
            1 => Ok(ReplayOp::Feed(Transfer::decode(r)?)),
            _ => Err(SnapError::Corrupt("replay op tag out of range")),
        }
    }
}

/// The calls a service session has accepted, in order: the body of its
/// [`Checkpoint`]s, which [`Checkpoint::replay`] drives back through a
/// freshly opened session. Each [`ServiceSession`] keeps one and
/// appends to it from `advance` and `feed`.
#[derive(Debug, Clone)]
pub struct ReplayLog {
    engine: EngineKind,
    fingerprint: u64,
    horizon: SimTime,
    ops: Vec<ReplayOp>,
}

impl ReplayLog {
    /// An empty log for an `engine` session on `session`.
    pub fn new(engine: EngineKind, session: &Session<'_>) -> Self {
        ReplayLog {
            engine,
            fingerprint: session.fingerprint(),
            horizon: SimTime::ZERO + session.horizon(),
            ops: Vec::new(),
        }
    }

    /// Record an accepted `advance` to `to`, clamped to the horizon as
    /// the engines clamp it. Consecutive advances merge into one op at
    /// the latest target: advancing to `a` and then to `b ≥ a` processes
    /// the same events as advancing to `b` (boundary invariance), and a
    /// target behind the clock processes none.
    pub fn advance(&mut self, to: SimTime) {
        let to = to.min(self.horizon);
        match self.ops.last_mut() {
            Some(ReplayOp::AdvanceTo(last)) => *last = (*last).max(to),
            _ => self.ops.push(ReplayOp::AdvanceTo(to)),
        }
    }

    /// Record a transfer `feed` accepted.
    pub fn feed(&mut self, transfer: &Transfer) {
        self.ops.push(ReplayOp::Feed(*transfer));
    }

    /// The log so far, as a resumable checkpoint.
    pub fn checkpoint(&self) -> Checkpoint {
        let mut w = SnapWriter::new();
        self.ops.encode(&mut w);
        Checkpoint::new(self.engine, self.fingerprint, w.into_bytes())
    }
}

// ===================================================================
// The stepping-session abstraction
// ===================================================================

/// An open, steppable simulation session — the service-mode counterpart
/// of [`crate::session::Engine`].
///
/// # Determinism contract
/// For a fixed session spec and a fixed *drive schedule* (the sequence
/// of `advance` boundaries and `feed` calls), the run is deterministic
/// and bit-identical to the equivalent one-shot run; and a checkpoint
/// taken at any boundary resumes bit-identically — same final
/// [`RunReport`], same probe stream from the boundary on.
pub trait ServiceSession {
    /// Which engine backs this session.
    fn kind(&self) -> EngineKind;

    /// The simulation clock.
    fn now(&self) -> SimTime;

    /// The hard stop.
    fn horizon(&self) -> SimTime;

    /// Process every event at or before `to` (clamped to the horizon)
    /// and park the clock at the boundary. When a probe is attached, emit
    /// one incremental [`RunReport`] through [`Probe::on_report`]; with
    /// an empty `probes` no report is built. Returns the new clock value.
    fn advance(
        &mut self,
        to: SimTime,
        probes: &mut [&mut dyn Probe],
    ) -> Result<SimTime, SessionError>;

    /// Inject a transfer into the live run. Its `start` must not
    /// precede [`ServiceSession::now`].
    fn feed(&mut self, transfer: &Transfer) -> Result<(), SessionError>;

    /// A [`RunReport`] of the run *so far*, without perturbing it.
    fn snapshot(&self) -> RunReport;

    /// Events simulated so far, replayed history included, read in O(1)
    /// from a counter the engine keeps: chunks delivered (packet engine),
    /// flows arrived plus flows completed (fluid engine).
    fn events(&self) -> u64;

    /// The session's [`ReplayLog`] as a resumable [`Checkpoint`].
    fn checkpoint(&self) -> Checkpoint;

    /// Drain the remaining events and produce the final report.
    fn finish(self: Box<Self>, probes: &mut [&mut dyn Probe]) -> Result<RunReport, SessionError>;
}

// ===================================================================
// Fluid-engine service
// ===================================================================

/// Owned inputs a [`FluidService`] borrows for its lifetime: the built
/// routing strategy and the materialised workload. Kept separate
/// because the underlying `FlowRun` borrows them (no self-referential
/// service struct); create one per open session and keep it alive
/// alongside the service.
pub struct FluidBacking {
    strategy: Box<dyn RoutingStrategy>,
    workload: Workload,
}

impl FluidBacking {
    /// Build the backing for `session` (strategy instantiated against
    /// the session topology, traffic materialised as a fluid workload).
    pub fn for_session(session: &Session<'_>) -> Self {
        FluidBacking {
            strategy: session.strategy().build_fluid(session.topology()),
            workload: session.fluid_workload().into_owned(),
        }
    }

    /// A backing with no upfront traffic — service runs fed entirely
    /// through [`ServiceSession::feed`] / a
    /// [`crate::source::TraceSource`].
    pub fn empty_for(session: &Session<'_>) -> Self {
        FluidBacking {
            strategy: session.strategy().build_fluid(session.topology()),
            workload: Workload {
                flows: Vec::new(),
                offered_bits: 0.0,
            },
        }
    }
}

/// The fluid engine as a [`ServiceSession`]. It checkpoints like every
/// service session: the [`ReplayLog`] of its accepted calls, replayed
/// on resume.
pub struct FluidService<'a> {
    topology: &'a Topology,
    workload: &'a Workload,
    run: FlowRun<'a>,
    records: Vec<FlowRecord>,
    index: HashMap<u64, usize>,
    /// Every flow id the run knows, workload and fed, built by the first
    /// `feed`: a one-shot run is never fed and never builds it.
    known: Option<HashSet<u64>>,
    log: ReplayLog,
}

impl<'a> FluidService<'a> {
    /// Open a stepping session on the fluid engine. `backing` must
    /// outlive the service (it owns what the run borrows).
    pub fn open(session: &Session<'a>, backing: &'a FluidBacking) -> Result<Self, SessionError> {
        let flows = backing.workload.flows.len();
        let run = FlowSim::new(
            session.topology(),
            backing.strategy.as_ref(),
            &backing.workload,
            FlowSimConfig {
                horizon: session.horizon(),
            },
        )
        .with_faults(session.faults().clone())
        .start();
        Ok(FluidService {
            topology: session.topology(),
            workload: &backing.workload,
            run,
            records: Vec::with_capacity(flows),
            index: HashMap::with_capacity(flows),
            known: None,
            log: ReplayLog::new(EngineKind::Fluid, session),
        })
    }

    /// Rebuild a session from a [`Checkpoint`] taken by
    /// [`ServiceSession::checkpoint`] on an identical session spec:
    /// [`open`](FluidService::open), then
    /// [`replay`](Checkpoint::replay). Continues bit-identically from
    /// the checkpoint instant.
    pub fn resume(
        session: &Session<'a>,
        backing: &'a FluidBacking,
        checkpoint: &Checkpoint,
    ) -> Result<Self, SessionError> {
        checkpoint.validate(EngineKind::Fluid, session)?;
        let mut svc = FluidService::open(session, backing)?;
        checkpoint.replay(&mut svc)?;
        Ok(svc)
    }

    /// Drain the remaining events and produce the final report:
    /// [`ServiceSession::finish`] without the box.
    pub fn finish_run(mut self, probes: &mut [&mut dyn Probe]) -> Result<RunReport, SessionError> {
        let mut adapter = FluidAdapter {
            probes: ProbeSet::new(probes),
            records: &mut self.records,
            index: &mut self.index,
        };
        let report = self.run.finish(&mut adapter);
        Ok(assemble_fluid_report(report, self.records))
    }
}

impl ServiceSession for FluidService<'_> {
    fn kind(&self) -> EngineKind {
        EngineKind::Fluid
    }

    fn now(&self) -> SimTime {
        self.run.now()
    }

    fn horizon(&self) -> SimTime {
        self.run.horizon()
    }

    fn advance(
        &mut self,
        to: SimTime,
        probes: &mut [&mut dyn Probe],
    ) -> Result<SimTime, SessionError> {
        let now = {
            let mut adapter = FluidAdapter {
                probes: ProbeSet::new(probes),
                records: &mut self.records,
                index: &mut self.index,
            };
            self.run.run_until(to, &mut adapter)
        };
        self.log.advance(to);
        if !probes.is_empty() {
            let snap = self.snapshot();
            ProbeSet::new(probes).report(&snap);
        }
        Ok(now)
    }

    fn feed(&mut self, transfer: &Transfer) -> Result<(), SessionError> {
        check_transfer(self.topology, transfer)?;
        let workload = self.workload;
        let known = self
            .known
            .get_or_insert_with(|| workload.flows.iter().map(|f| f.id).collect());
        if known.contains(&transfer.flow) {
            return Err(SessionError::DuplicateFlow(transfer.flow));
        }
        self.run
            .feed(FlowSpec {
                id: transfer.flow,
                src: transfer.src,
                dst: transfer.dst,
                size_bits: transfer.size_bits(),
                arrival: transfer.start,
            })
            .map_err(|_| {
                SessionError::InvalidTransfer(format!(
                    "flow {} starts at {:?}, before the clock ({:?})",
                    transfer.flow,
                    transfer.start,
                    self.run.now()
                ))
            })?;
        known.insert(transfer.flow);
        self.log.feed(transfer);
        Ok(())
    }

    fn snapshot(&self) -> RunReport {
        assemble_fluid_report(self.run.report_now(), self.records.clone())
    }

    fn events(&self) -> u64 {
        self.run.arrived_plus_completed()
    }

    fn checkpoint(&self) -> Checkpoint {
        self.log.checkpoint()
    }

    fn finish(self: Box<Self>, probes: &mut [&mut dyn Probe]) -> Result<RunReport, SessionError> {
        (*self).finish_run(probes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{SessionBuilder, SessionStrategy};
    use inrpp_sim::time::SimDuration;
    use inrpp_sim::units::ByteSize;
    use inrpp_topology::graph::{NodeId, Topology};

    fn spec(topo: &Topology) -> SessionBuilder<'_> {
        let n = |s: &str| topo.node_by_name(s).unwrap();
        let chunk = ByteSize::bytes(1250);
        Session::builder()
            .topology(topo)
            .transfers(vec![
                Transfer::for_object_bits(1, n("1"), n("4"), 5e6, chunk, SimTime::ZERO),
                Transfer::for_object_bits(2, n("1"), n("3"), 5e6, chunk, SimTime::from_millis(500)),
            ])
            .strategy(SessionStrategy::urp())
            .horizon(SimDuration::from_secs(30))
    }

    fn session(topo: &Topology) -> Session<'_> {
        spec(topo).build().expect("valid session")
    }

    fn bits_eq(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits()
    }

    #[test]
    fn service_run_matches_one_shot_run() {
        let topo = Topology::fig3();
        let s = session(&topo);
        let one_shot = s.run().unwrap();
        let backing = FluidBacking::for_session(&s);
        let mut svc = FluidService::open(&s, &backing).unwrap();
        svc.advance(SimTime::from_secs(1), &mut []).unwrap();
        svc.advance(SimTime::from_secs(4), &mut []).unwrap();
        let stepped = svc.finish_run(&mut []).unwrap();
        assert_eq!(one_shot.aggregates, stepped.aggregates);
        assert_eq!(one_shot.flows, stepped.flows);
        assert_eq!(one_shot.channel_utilisation, stepped.channel_utilisation);
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let topo = Topology::fig3();
        let s = session(&topo);
        let one_shot = s.run().unwrap();

        let backing = FluidBacking::for_session(&s);
        let mut head = FluidService::open(&s, &backing).unwrap();
        head.advance(SimTime::from_millis(800), &mut []).unwrap();
        let ckpt = head.checkpoint();
        drop(head);

        // envelope round-trips through bytes
        let ckpt = Checkpoint::from_bytes(&ckpt.to_bytes()).unwrap();
        let tail = FluidService::resume(&s, &backing, &ckpt).unwrap();
        assert_eq!(tail.now(), SimTime::from_millis(800));
        let resumed = tail.finish_run(&mut []).unwrap();
        assert_eq!(one_shot.aggregates, resumed.aggregates);
        assert_eq!(one_shot.flows, resumed.flows);
        assert!(bits_eq(
            one_shot.aggregates.delivered_bits,
            resumed.aggregates.delivered_bits
        ));

        // a restored service re-checkpoints byte-identically
        let again = FluidService::resume(&s, &backing, &ckpt).unwrap();
        assert_eq!(again.checkpoint().to_bytes(), ckpt.to_bytes());
    }

    #[test]
    fn resume_rejects_wrong_spec_and_engine() {
        let topo = Topology::fig3();
        let s = session(&topo);
        let backing = FluidBacking::for_session(&s);
        let svc = FluidService::open(&s, &backing).unwrap();
        let ckpt = svc.checkpoint();

        // different horizon -> different fingerprint
        let n = |x: &str| topo.node_by_name(x).unwrap();
        let other = Session::builder()
            .topology(&topo)
            .transfers(vec![Transfer::for_object_bits(
                1,
                n("1"),
                n("4"),
                5e6,
                ByteSize::bytes(1250),
                SimTime::ZERO,
            )])
            .strategy(SessionStrategy::urp())
            .horizon(SimDuration::from_secs(10))
            .build()
            .unwrap();
        let other_backing = FluidBacking::for_session(&other);
        let err = FluidService::resume(&other, &other_backing, &ckpt)
            .err()
            .expect("fingerprint mismatch must be rejected");
        assert!(matches!(err, SessionError::CheckpointMismatch(_)), "{err}");

        // wrong engine tag
        let packet = Checkpoint::new(EngineKind::Packet, s.fingerprint(), ckpt.body().to_vec());
        let err = FluidService::resume(&s, &backing, &packet)
            .err()
            .expect("engine mismatch must be rejected");
        assert!(matches!(err, SessionError::CheckpointMismatch(_)), "{err}");

        // corrupt envelope bytes
        let bytes = ckpt.to_bytes();
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(Checkpoint::from_bytes(&bytes[..cut]).is_err());
        }

        // a v1 envelope (its magic follows the 8-byte length) is refused,
        // not misread
        let mut v1 = bytes.clone();
        v1[8..21].copy_from_slice(b"inrpp-ckpt v1");
        let err = Checkpoint::from_bytes(&v1).expect_err("v1 must be refused");
        assert!(matches!(err, SessionError::CheckpointMismatch(_)), "{err}");
    }

    #[test]
    fn feed_and_on_report_stream_through_the_service() {
        struct Reports(Vec<(u64, usize)>);
        impl Probe for Reports {
            fn on_report(&mut self, report: &RunReport) {
                self.0
                    .push((report.aggregates.duration.as_nanos(), report.flows.len()));
            }
        }

        let topo = Topology::fig3();
        let s = session(&topo);
        let backing = FluidBacking::for_session(&s);
        let mut svc = FluidService::open(&s, &backing).unwrap();
        let n = |x: &str| topo.node_by_name(x).unwrap();
        let fed = Transfer::for_object_bits(
            9,
            n("1"),
            n("3"),
            1e6,
            ByteSize::bytes(1250),
            SimTime::from_secs(2),
        );
        // an id of the workload is taken before its flow starts (flow 2
        // starts at 0.5 s)...
        let dup = |flow| Transfer { flow, ..fed };
        assert_eq!(
            svc.feed(&dup(2)).unwrap_err(),
            SessionError::DuplicateFlow(2)
        );
        let mut reports = Reports(Vec::new());
        svc.advance(SimTime::from_secs(1), &mut [&mut reports])
            .unwrap();
        svc.feed(&fed).unwrap();
        // ...and so is a fed id not yet started, and a started one
        assert_eq!(svc.feed(&fed).unwrap_err(), SessionError::DuplicateFlow(9));
        assert_eq!(
            svc.feed(&dup(1)).unwrap_err(),
            SessionError::DuplicateFlow(1)
        );
        // a past start is a typed error, and a refused feed takes no id
        let past = Transfer {
            flow: 10,
            start: SimTime::from_millis(500),
            ..fed
        };
        assert!(matches!(
            svc.feed(&past).unwrap_err(),
            SessionError::InvalidTransfer(_)
        ));
        // an endpoint outside the topology is refused here, not by a
        // panic at the next advance
        let outside = Transfer {
            flow: 11,
            dst: NodeId(4_194_306),
            ..fed
        };
        assert!(matches!(
            svc.feed(&outside).unwrap_err(),
            SessionError::InvalidTransfer(m) if m.contains("outside")
        ));
        svc.advance(SimTime::from_secs(3), &mut [&mut reports])
            .unwrap();
        // flow 9 has started now
        let started = Transfer {
            start: SimTime::from_secs(3),
            ..fed
        };
        assert_eq!(
            svc.feed(&started).unwrap_err(),
            SessionError::DuplicateFlow(9)
        );
        svc.feed(&Transfer {
            flow: 10,
            ..started
        })
        .unwrap();
        let report = svc.finish_run(&mut []).unwrap();
        assert_eq!(report.aggregates.arrived_flows, 4);
        assert_eq!(reports.0.len(), 2, "one on_report per advance boundary");
        assert!(reports.0[1].1 >= 3, "fed flow visible in the snapshot");
    }

    #[test]
    fn an_advance_behind_the_clock_replays_as_a_no_op() {
        let topo = Topology::fig3();
        let s = session(&topo);
        let backing = FluidBacking::for_session(&s);
        let mut head = FluidService::open(&s, &backing).unwrap();
        head.advance(SimTime::from_secs(1), &mut []).unwrap();
        head.advance(SimTime::from_millis(500), &mut []).unwrap();
        // due at the clock itself: the next advance that reaches 1 s
        // starts it, and one to 0.5 s does not
        let n = |x: &str| topo.node_by_name(x).unwrap();
        let at_clock = Transfer::for_object_bits(
            9,
            n("2"),
            n("4"),
            1e6,
            ByteSize::bytes(1250),
            SimTime::from_secs(1),
        );
        head.feed(&at_clock).unwrap();
        head.advance(SimTime::from_millis(500), &mut []).unwrap();
        let ckpt = head.checkpoint();

        let tail = FluidService::resume(&s, &backing, &ckpt).unwrap();
        assert_eq!(tail.now(), SimTime::from_secs(1));
        assert_eq!(tail.snapshot().flows, head.snapshot().flows);
        assert_eq!(tail.checkpoint(), ckpt);
        let (a, b) = (
            head.finish_run(&mut []).unwrap(),
            tail.finish_run(&mut []).unwrap(),
        );
        assert_eq!(a.flows, b.flows);
        assert_eq!(a.aggregates, b.aggregates);
    }
}
