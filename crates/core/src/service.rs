//! Service mode: long-lived, steppable simulation sessions.
//!
//! One-shot [`Session::run`](crate::session::Session::run) answers
//! "what happened over this window"; service mode answers "what is
//! happening *now*" for a run that is still in flight. A
//! [`ServiceSession`] is an open simulation that can be
//!
//! * **advanced** to an absolute instant ([`ServiceSession::advance`]),
//!   with probe hooks firing in event order and an incremental
//!   [`RunReport`] snapshot emitted through
//!   [`Probe::on_report`] at every
//!   boundary;
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
//! The envelope embeds the session's
//! [`fingerprint`](crate::session::Session::fingerprint) so a resume
//! against a different spec (other topology, traffic, strategy,
//! horizon, or seed) fails with
//! [`SessionError::CheckpointMismatch`] instead of silently diverging.
//!
//! [`FluidService`] is the fluid-engine implementation (full-state
//! snapshot); the packet engine's lives in
//! `inrpp_packetsim::session::PacketService` (deterministic replay log
//! — see its docs for the trade-off). `inrpp serve` in the bench crate
//! exposes both over line-delimited JSON on stdio.

use std::collections::HashMap;

use inrpp_flowsim::sim::{FlowRun, FlowSim, FlowSimConfig};
use inrpp_flowsim::strategy::RoutingStrategy;
use inrpp_sim::snap::Snap;
use inrpp_sim::snap::{SnapError, SnapReader, SnapWriter};
use inrpp_sim::time::SimTime;

use crate::session::{
    assemble_fluid_report, check_fluid_workers, EngineKind, FlowRecord, FlowSpec, FluidAdapter,
    Probe, ProbeSet, RunReport, Session, SessionError, Transfer, Workload,
};

/// Envelope magic: identifies the container, not the body layout (the
/// per-engine body carries its own structure).
const CHECKPOINT_MAGIC: &str = "inrpp-ckpt v1";

// ===================================================================
// Checkpoint envelope
// ===================================================================

/// A serialised engine state, wrapped with enough identity to refuse a
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
    /// Wrap an engine-serialised body.
    pub fn new(engine: EngineKind, fingerprint: u64, body: Vec<u8>) -> Self {
        Checkpoint {
            engine,
            fingerprint,
            body,
        }
    }

    /// The engine-specific state bytes.
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
                "not an inrpp checkpoint (header {magic:?})"
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

    /// Check this checkpoint belongs to `engine` + `session` before an
    /// engine attempts the (expensive) state rebuild.
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

    /// Process every event at or before `to` (clamped to the horizon),
    /// park the clock at the boundary, and emit one incremental
    /// [`RunReport`] through [`Probe::on_report`]. Returns the new
    /// clock value.
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

    /// Serialise the current state into a resumable [`Checkpoint`].
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
    /// [`crate::source::WorkloadSource`].
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

/// The fluid engine as a [`ServiceSession`]. Checkpoints carry the
/// complete run state (engine queue, active flows, accumulators, fed
/// extras, per-flow records), so resume cost is independent of how much
/// simulated time has elapsed.
pub struct FluidService<'a> {
    run: FlowRun<'a>,
    records: Vec<FlowRecord>,
    index: HashMap<u64, usize>,
    fingerprint: u64,
}

impl<'a> FluidService<'a> {
    /// Open a stepping session on the fluid engine. `backing` must
    /// outlive the service (it owns what the run borrows).
    pub fn open(session: &Session<'a>, backing: &'a FluidBacking) -> Result<Self, SessionError> {
        check_fluid_workers(session)?;
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
            run,
            records: Vec::new(),
            index: HashMap::new(),
            fingerprint: session.fingerprint(),
        })
    }

    /// Rebuild a session from a [`Checkpoint`] taken by
    /// [`ServiceSession::checkpoint`] on an identical session spec.
    /// Continues bit-identically from the checkpoint instant.
    pub fn resume(
        session: &Session<'a>,
        backing: &'a FluidBacking,
        checkpoint: &Checkpoint,
    ) -> Result<Self, SessionError> {
        checkpoint.validate(EngineKind::Fluid, session)?;
        check_fluid_workers(session)?;
        let corrupt = |e: SnapError| {
            SessionError::CheckpointMismatch(format!("corrupt fluid checkpoint: {e}"))
        };
        let mut r = SnapReader::new(checkpoint.body());
        let records = Vec::<FlowRecord>::decode(&mut r).map_err(corrupt)?;
        let run = FlowRun::restore(
            session.topology(),
            backing.strategy.as_ref(),
            &backing.workload,
            session.faults().clone(),
            &mut r,
        )
        .map_err(corrupt)?;
        r.finish().map_err(corrupt)?;
        let index = records
            .iter()
            .enumerate()
            .map(|(i, rec)| (rec.flow, i))
            .collect();
        Ok(FluidService {
            run,
            records,
            index,
            fingerprint: checkpoint.fingerprint,
        })
    }

    fn consume(mut self, probes: &mut [&mut dyn Probe]) -> Result<RunReport, SessionError> {
        let mut adapter = FluidAdapter {
            probes: ProbeSet::new(probes),
            records: &mut self.records,
            index: &mut self.index,
        };
        let report = self.run.finish(&mut adapter);
        Ok(assemble_fluid_report(report, self.records))
    }

    /// Finish without boxing (convenience over the trait's
    /// `Box<Self>`-consuming [`ServiceSession::finish`]).
    pub fn finish_run(self, probes: &mut [&mut dyn Probe]) -> Result<RunReport, SessionError> {
        self.consume(probes)
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
        let snap = self.snapshot();
        ProbeSet::new(probes).report(&snap);
        Ok(now)
    }

    fn feed(&mut self, transfer: &Transfer) -> Result<(), SessionError> {
        if transfer.chunks == 0 {
            return Err(SessionError::InvalidTransfer(format!(
                "flow {} has zero chunks",
                transfer.flow
            )));
        }
        if transfer.src == transfer.dst {
            return Err(SessionError::InvalidTransfer(format!(
                "flow {} endpoints coincide ({})",
                transfer.flow, transfer.src
            )));
        }
        if self.index.contains_key(&transfer.flow) || self.run.knows_flow(transfer.flow) {
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
            })
    }

    fn snapshot(&self) -> RunReport {
        assemble_fluid_report(self.run.report_now(), self.records.clone())
    }

    fn checkpoint(&self) -> Checkpoint {
        let mut w = SnapWriter::new();
        self.records.encode(&mut w);
        self.run.encode_checkpoint(&mut w);
        Checkpoint::new(EngineKind::Fluid, self.fingerprint, w.into_bytes())
    }

    fn finish(self: Box<Self>, probes: &mut [&mut dyn Probe]) -> Result<RunReport, SessionError> {
        (*self).consume(probes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{SessionBuilder, SessionStrategy};
    use inrpp_sim::time::SimDuration;
    use inrpp_sim::units::ByteSize;
    use inrpp_topology::graph::Topology;

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

        // the same spec with two workers: the fluid engine refuses them on
        // resume exactly as on open
        let two_workers = spec(&topo).workers(2).build().unwrap();
        let err = FluidService::resume(&two_workers, &backing, &ckpt)
            .err()
            .expect("workers(2) must be refused on resume");
        assert!(matches!(err, SessionError::InvalidConfig(_)), "{err}");

        // corrupt envelope bytes
        let bytes = ckpt.to_bytes();
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(Checkpoint::from_bytes(&bytes[..cut]).is_err());
        }
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
        let mut reports = Reports(Vec::new());
        svc.advance(SimTime::from_secs(1), &mut [&mut reports])
            .unwrap();
        let n = |x: &str| topo.node_by_name(x).unwrap();
        let fed = Transfer::for_object_bits(
            9,
            n("1"),
            n("3"),
            1e6,
            ByteSize::bytes(1250),
            SimTime::from_secs(2),
        );
        svc.feed(&fed).unwrap();
        // duplicate id and past start are typed errors
        assert_eq!(svc.feed(&fed).unwrap_err(), SessionError::DuplicateFlow(9));
        let past = Transfer {
            flow: 10,
            start: SimTime::from_millis(500),
            ..fed
        };
        assert!(matches!(
            svc.feed(&past).unwrap_err(),
            SessionError::InvalidTransfer(_)
        ));
        svc.advance(SimTime::from_secs(3), &mut [&mut reports])
            .unwrap();
        let report = svc.finish_run(&mut []).unwrap();
        assert_eq!(report.aggregates.arrived_flows, 3);
        assert_eq!(reports.0.len(), 2, "one on_report per advance boundary");
        assert!(reports.0[1].1 >= 3, "fed flow visible in the snapshot");
    }
}
