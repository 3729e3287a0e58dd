//! The chunk-level backend of the `inrpp::session` facade.
//!
//! [`PacketEngine`] implements [`Engine`] so the same typed [`Session`]
//! that drives the fluid simulator also drives this crate's
//! discrete-event engine — the flowsim/packetsim differential harness is
//! the two backends run off one session description.
//!
//! Strategy mapping: the packet engine's routing is built in (shortest
//! path, plus in-network detours under the INRPP transport), so only the
//! regimes with a chunk-level transport are accepted:
//!
//! | session strategy | packet transport |
//! |---|---|
//! | `SessionStrategy::Urp(_)` | [`TransportKind::Inrpp`] (the fluid detour knobs are ignored; the engine's own `InrppConfig` governs) |
//! | `SessionStrategy::Sp` | [`TransportKind::Aimd`] (the drop-tail e2e baseline) |
//! | `Ecmp` / `Mptcp` | rejected with [`SessionError::IncompatibleStrategy`] |
//!
//! Traffic mapping: transfer-native sessions replay chunk-for-chunk
//! (their `chunk_bytes` must match the engine configuration); flow-native
//! sessions are quantised with the shared `ceil(bits / chunk_bits)` rule,
//! so offered bits line up with a fluid replay of the same session.

use inrpp::config::InrppConfig;
use inrpp::service::{Checkpoint, ReplayLog, ServiceSession};
use inrpp::session::{
    Aggregates, Engine, EngineDetail, EngineKind, FlowRecord, PacketSummary, Probe, ProbeSet,
    RunReport, Session, SessionError, SessionStrategy, Traffic, Transfer,
};
use inrpp_sim::time::SimTime;
use inrpp_sim::units::ByteSize;

use crate::engine::{PacketRun, PacketSim};
use crate::packet::{AimdConfig, FlowTransport, PacketSimConfig, TransferSpec, TransportKind};
use crate::report::PacketSimReport;

/// The chunk-level [`Engine`] backend, wrapping a [`PacketSimConfig`].
///
/// ```
/// use inrpp::session::{Session, SessionStrategy, Transfer};
/// use inrpp_packetsim::session::PacketEngine;
/// use inrpp_sim::time::{SimDuration, SimTime};
/// use inrpp_sim::units::ByteSize;
/// use inrpp_topology::Topology;
///
/// let topo = Topology::fig3();
/// let n = |s: &str| topo.node_by_name(s).unwrap();
/// let session = Session::builder()
///     .topology(&topo)
///     .transfers(vec![Transfer::for_object_bits(
///         1, n("1"), n("4"), 1e6, ByteSize::bytes(1250), SimTime::ZERO,
///     )])
///     .strategy(SessionStrategy::urp())
///     .horizon(SimDuration::from_secs(30))
///     .build()?;
/// let report = session.run_on(&PacketEngine::default(), &mut [])?;
/// assert_eq!(report.strategy, "INRPP");
/// assert_eq!(report.aggregates.completed_flows, 1);
/// # Ok::<(), inrpp::session::SessionError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PacketEngine {
    config: PacketSimConfig,
}

impl Default for PacketEngine {
    /// INRPP transport with the default packet configuration.
    fn default() -> Self {
        PacketEngine::new(PacketSimConfig::default())
    }
}

impl PacketEngine {
    /// A backend with an explicit packet configuration. The configured
    /// transport must agree with the session strategy at run time (URP
    /// needs INRPP, SP needs AIMD).
    pub fn new(config: PacketSimConfig) -> Self {
        PacketEngine { config }
    }

    /// Convenience: INRPP transport with the given protocol
    /// configuration, other knobs at their defaults.
    pub fn inrpp(config: InrppConfig) -> Self {
        PacketEngine::new(PacketSimConfig {
            transport: TransportKind::Inrpp(config),
            ..PacketSimConfig::default()
        })
    }

    /// Convenience: the AIMD baseline transport, other knobs at their
    /// defaults.
    pub fn aimd() -> Self {
        PacketEngine::new(PacketSimConfig {
            transport: TransportKind::Aimd(AimdConfig),
            ..PacketSimConfig::default()
        })
    }

    /// The wrapped configuration.
    pub fn config(&self) -> &PacketSimConfig {
        &self.config
    }

    /// The per-flow transport the configured engine transport maps to.
    fn flow_transport(&self) -> FlowTransport {
        match self.config.transport {
            TransportKind::Aimd(_) => FlowTransport::Aimd,
            _ => FlowTransport::Inrpp,
        }
    }

    /// The effective packet configuration for `session`: the engine's
    /// knobs with the session's horizon and seed spliced in.
    fn effective_config(&self, session: &Session<'_>) -> PacketSimConfig {
        let mut config = self.config;
        config.horizon = session.horizon();
        config.seed = session.seed();
        config
    }

    /// Check the session strategy against the configured transport.
    fn check_strategy(&self, strategy: SessionStrategy) -> Result<(), SessionError> {
        let ok = matches!(
            (strategy, &self.config.transport),
            (SessionStrategy::Urp(_), TransportKind::Inrpp(_))
                | (SessionStrategy::Sp, TransportKind::Aimd(_))
        );
        if ok {
            Ok(())
        } else {
            Err(SessionError::IncompatibleStrategy {
                engine: EngineKind::Packet,
                strategy: strategy.name().to_string(),
            })
        }
    }

    /// The session's traffic as packet transfers (chunk-exact for
    /// transfer-native sessions, quantised for flow-native ones).
    fn transfers(&self, session: &Session<'_>) -> Result<Vec<TransferSpec>, SessionError> {
        match session.traffic() {
            Traffic::Transfers(ts) => {
                for t in ts {
                    if t.chunk_bytes != self.config.chunk_bytes {
                        return Err(SessionError::IncompatibleTraffic {
                            engine: EngineKind::Packet,
                            reason: format!(
                                "flow {} quantised with {} chunks but the engine is \
                                 configured for {} chunks",
                                t.flow, t.chunk_bytes, self.config.chunk_bytes
                            ),
                        });
                    }
                }
                Ok(ts
                    .iter()
                    .map(|t| TransferSpec {
                        flow: t.flow,
                        src: t.src,
                        dst: t.dst,
                        chunks: t.chunks,
                        start: t.start,
                    })
                    .collect())
            }
            Traffic::Flows(w) => Ok(w
                .flows
                .iter()
                .map(|f| {
                    TransferSpec::for_object_bits(
                        f.id,
                        f.src,
                        f.dst,
                        f.size_bits,
                        self.config.chunk_bytes,
                        f.arrival,
                    )
                })
                .collect()),
        }
    }
}

/// A one-shot run is a service session opened and finished at once, so
/// the packet engine is built from a session in one place:
/// [`PacketService::open`]. Sharded runs stay with
/// [`PacketSim::try_run_sharded`].
impl Engine for PacketEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Packet
    }

    fn run(
        &self,
        session: &Session<'_>,
        probes: &mut [&mut dyn Probe],
    ) -> Result<RunReport, SessionError> {
        PacketService::open(self, session)?.finish_run(probes)
    }
}

/// Lift a [`PacketSimReport`] into the engine-agnostic [`RunReport`] —
/// shared by final reports and snapshots so the two can never drift.
/// `transfers` is the run's [`PacketRun::transfers`]: like the report's
/// flows, one entry per slot in ascending flow id, which gives each
/// [`FlowRecord`] its endpoints.
fn assemble_packet_report(report: &PacketSimReport, transfers: &[TransferSpec]) -> RunReport {
    let chunk_bits = report.chunk_bytes.as_bits() as f64;
    let flows: Vec<FlowRecord> = report
        .flows
        .iter()
        .zip(transfers)
        .map(|(f, t)| {
            debug_assert_eq!(
                f.flow, t.flow,
                "report flows and transfers share slot order"
            );
            FlowRecord {
                flow: f.flow,
                src: t.src,
                dst: t.dst,
                offered_bits: f.chunks_total as f64 * chunk_bits,
                delivered_bits: f.chunks_delivered as f64 * chunk_bits,
                arrival: f.started_at,
                fct_secs: f.fct().map(|d| d.as_secs_f64()),
                subpaths: 1,
                routed: true,
                retransmits: f.retransmits,
                detours: f.detours,
                custody_rescues: f.custody_rescues,
                outage_delay_secs: f.outage_delay.as_secs_f64(),
            }
        })
        .collect();
    let offered_bits: f64 = flows.iter().map(|f| f.offered_bits).sum();
    let delivered_bits: f64 = flows.iter().map(|f| f.delivered_bits).sum();
    let aggregates = Aggregates {
        arrived_flows: flows.len(),
        completed_flows: report.completed(),
        unroutable_flows: 0,
        offered_bits,
        delivered_bits,
        duration: report.horizon,
        mean_fct_secs: report.mean_fct_secs(),
        mean_jain: report.jain_goodput().unwrap_or(0.0),
        mean_utilisation: report.mean_utilisation,
    };
    RunReport {
        engine: EngineKind::Packet,
        strategy: report.transport.clone(),
        topology: report.topology.clone(),
        flows,
        aggregates,
        channel_utilisation: report.channel_utilisation.clone(),
        detail: EngineDetail::Packet(PacketSummary {
            chunks_delivered: report.chunks_delivered,
            chunks_dropped: report.chunks_dropped,
            chunks_detoured: report.chunks_detoured,
            chunks_custodied: report.chunks_custodied,
            chunks_rescued: report.chunks_rescued,
            backpressure_msgs: report.backpressure_msgs,
            chunk_bits,
        }),
    }
}

/// The packet engine as a [`ServiceSession`] — a steppable, feedable,
/// checkpointable chunk-level run behind the same trait that fronts
/// [`inrpp::service::FluidService`], with the same checkpoints: the
/// [`ReplayLog`] of its accepted calls, replayed on resume. It runs the
/// sequential engine.
pub struct PacketService<'a> {
    run: PacketRun<'a>,
    kind: FlowTransport,
    chunk_bytes: ByteSize,
    log: ReplayLog,
}

impl<'a> PacketService<'a> {
    /// Open a stepping session: build the simulation `session`
    /// describes, with every check on the way — the strategy against the
    /// transport, the traffic's quantisation, the configuration with the
    /// session's horizon and seed, the fault plan and each transfer —
    /// then park a [`PacketRun`] at time zero. The one build path of the
    /// packet engine: [`Engine::run`] and [`PacketService::resume`] go
    /// through it.
    pub fn open(engine: &PacketEngine, session: &Session<'a>) -> Result<Self, SessionError> {
        engine.check_strategy(session.strategy())?;
        let mut sim = PacketSim::try_new(session.topology(), engine.effective_config(session))?;
        sim.set_faults(session.faults().clone());
        for t in engine.transfers(session)? {
            sim.try_add_transfer_as(t, engine.flow_transport())?;
        }
        Ok(PacketService {
            run: sim.start()?,
            kind: engine.flow_transport(),
            chunk_bytes: engine.config.chunk_bytes,
            log: ReplayLog::new(EngineKind::Packet, session),
        })
    }

    /// Rebuild a session from a [`Checkpoint`] taken by
    /// [`ServiceSession::checkpoint`] on an identical session spec and
    /// engine configuration: [`open`](PacketService::open), then
    /// [`replay`](Checkpoint::replay). Continues bit-identically from
    /// the checkpoint instant.
    pub fn resume(
        engine: &PacketEngine,
        session: &Session<'a>,
        checkpoint: &Checkpoint,
    ) -> Result<Self, SessionError> {
        checkpoint.validate(EngineKind::Packet, session)?;
        let mut svc = PacketService::open(engine, session)?;
        checkpoint.replay(&mut svc)?;
        Ok(svc)
    }

    /// Drain the remaining events and produce the final report:
    /// [`ServiceSession::finish`] without the box.
    pub fn finish_run(self, probes: &mut [&mut dyn Probe]) -> Result<RunReport, SessionError> {
        let transfers = self.run.transfers().to_vec();
        let report = self.run.finish(probes)?;
        Ok(assemble_packet_report(&report, &transfers))
    }
}

impl ServiceSession for PacketService<'_> {
    fn kind(&self) -> EngineKind {
        EngineKind::Packet
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
        let now = self.run.run_until(to, probes)?;
        self.log.advance(to);
        if !probes.is_empty() {
            let snap = self.snapshot();
            ProbeSet::new(probes).report(&snap);
        }
        Ok(now)
    }

    fn feed(&mut self, transfer: &Transfer) -> Result<(), SessionError> {
        if transfer.chunk_bytes != self.chunk_bytes {
            return Err(SessionError::IncompatibleTraffic {
                engine: EngineKind::Packet,
                reason: format!(
                    "flow {} quantised with {} chunks but the engine is \
                     configured for {} chunks",
                    transfer.flow, transfer.chunk_bytes, self.chunk_bytes
                ),
            });
        }
        self.run.feed(
            TransferSpec {
                flow: transfer.flow,
                src: transfer.src,
                dst: transfer.dst,
                chunks: transfer.chunks,
                start: transfer.start,
            },
            self.kind,
        )?;
        self.log.feed(transfer);
        Ok(())
    }

    fn snapshot(&self) -> RunReport {
        assemble_packet_report(&self.run.report_now(), self.run.transfers())
    }

    fn events(&self) -> u64 {
        self.run.chunks_delivered()
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
    use inrpp::session::{QuantileProbe, Session, TimeSeriesProbe, Transfer};
    use inrpp_sim::time::{SimDuration, SimTime};
    use inrpp_sim::units::ByteSize;
    use inrpp_topology::Topology;

    fn fig3_session(topo: &Topology, chunks: u64) -> Session<'_> {
        let n = |s: &str| topo.node_by_name(s).unwrap();
        Session::builder()
            .topology(topo)
            .transfers(vec![Transfer {
                flow: 1,
                src: n("1"),
                dst: n("4"),
                chunks,
                chunk_bytes: PacketSimConfig::default().chunk_bytes,
                start: SimTime::ZERO,
            }])
            .strategy(SessionStrategy::urp())
            .horizon(SimDuration::from_secs(60))
            .build()
            .expect("valid session")
    }

    #[test]
    fn facade_run_matches_direct_packetsim() {
        // behaviour preservation: the facade must reproduce a
        // hand-constructed PacketSim run bit-for-bit
        let topo = Topology::fig3();
        let session = fig3_session(&topo, 200);
        let facade = session
            .run_on(&PacketEngine::default(), &mut [])
            .expect("packet run");

        let mut sim = PacketSim::new(
            &topo,
            PacketSimConfig {
                horizon: SimDuration::from_secs(60),
                ..PacketSimConfig::default()
            },
        );
        sim.add_transfer(TransferSpec {
            flow: 1,
            src: topo.node_by_name("1").unwrap(),
            dst: topo.node_by_name("4").unwrap(),
            chunks: 200,
            start: SimTime::ZERO,
        });
        let direct = sim.run();

        let summary = facade.packet().expect("packet detail");
        assert_eq!(summary.chunks_delivered, direct.chunks_delivered);
        assert_eq!(summary.chunks_detoured, direct.chunks_detoured);
        assert_eq!(summary.backpressure_msgs, direct.backpressure_msgs);
        assert_eq!(
            facade.flows[0].fct_secs,
            direct.flows[0].fct().map(|d| d.as_secs_f64())
        );
        assert_eq!(facade.channel_utilisation, direct.channel_utilisation);
        assert_eq!(facade.strategy, "INRPP");
    }

    #[test]
    fn rejects_incompatible_strategies() {
        let topo = Topology::fig3();
        let n = |s: &str| topo.node_by_name(s).unwrap();
        let base = Session::builder()
            .topology(&topo)
            .transfers(vec![Transfer {
                flow: 1,
                src: n("1"),
                dst: n("4"),
                chunks: 10,
                chunk_bytes: PacketSimConfig::default().chunk_bytes,
                start: SimTime::ZERO,
            }])
            .horizon(SimDuration::from_secs(5));
        for strategy in [SessionStrategy::Ecmp, SessionStrategy::Mptcp] {
            let session = base.clone().strategy(strategy).build().expect("builds");
            let err = session
                .run_on(&PacketEngine::default(), &mut [])
                .unwrap_err();
            assert_eq!(
                err,
                SessionError::IncompatibleStrategy {
                    engine: EngineKind::Packet,
                    strategy: strategy.name().to_string(),
                }
            );
        }
        // SP needs the AIMD transport, not INRPP...
        let sp = base.clone().strategy(SessionStrategy::Sp).build().unwrap();
        assert!(sp.run_on(&PacketEngine::default(), &mut []).is_err());
        // ...and runs once the engine is configured for it
        let report = sp.run_on(&PacketEngine::aimd(), &mut []).expect("AIMD run");
        assert_eq!(report.strategy, "AIMD");
    }

    #[test]
    fn rejects_mismatched_chunk_quantisation() {
        let topo = Topology::fig3();
        let n = |s: &str| topo.node_by_name(s).unwrap();
        let session = Session::builder()
            .topology(&topo)
            .transfers(vec![Transfer {
                flow: 1,
                src: n("1"),
                dst: n("4"),
                chunks: 10,
                chunk_bytes: ByteSize::bytes(999),
                start: SimTime::ZERO,
            }])
            .strategy(SessionStrategy::urp())
            .horizon(SimDuration::from_secs(5))
            .build()
            .expect("builds");
        let err = session
            .run_on(&PacketEngine::default(), &mut [])
            .unwrap_err();
        assert!(matches!(
            err,
            SessionError::IncompatibleTraffic {
                engine: EngineKind::Packet,
                ..
            }
        ));
    }

    #[test]
    fn typed_unroutable_error_replaces_panic() {
        let mut topo = Topology::new("split");
        let a = topo.add_node();
        let b = topo.add_node();
        let session = Session::builder()
            .topology(&topo)
            .transfers(vec![Transfer {
                flow: 7,
                src: a,
                dst: b,
                chunks: 1,
                chunk_bytes: PacketSimConfig::default().chunk_bytes,
                start: SimTime::ZERO,
            }])
            .strategy(SessionStrategy::urp())
            .horizon(SimDuration::from_secs(1))
            .build()
            .expect("builds");
        let err = session
            .run_on(&PacketEngine::default(), &mut [])
            .unwrap_err();
        assert_eq!(err, SessionError::Unroutable { flow: 7 });
    }

    #[test]
    fn invalid_inrpp_config_is_typed() {
        let ic = InrppConfig {
            interval: SimDuration::ZERO,
            ..InrppConfig::default()
        };
        let topo = Topology::fig3();
        let session = fig3_session(&topo, 5);
        let err = session
            .run_on(&PacketEngine::inrpp(ic), &mut [])
            .unwrap_err();
        assert!(matches!(err, SessionError::InvalidConfig(_)));
    }

    #[test]
    fn probes_stream_during_packet_run() {
        let topo = Topology::fig3();
        let session = fig3_session(&topo, 120);
        let mut series = TimeSeriesProbe::new(SimDuration::from_millis(50));
        let mut quant = QuantileProbe::new();
        let probed = session
            .run_on(&PacketEngine::default(), &mut [&mut series, &mut quant])
            .expect("probed packet run");
        let plain = session
            .run_on(&PacketEngine::default(), &mut [])
            .expect("plain packet run");
        // probes are passive
        assert_eq!(probed.aggregates, plain.aggregates);
        assert_eq!(probed.flows, plain.flows);
        // and genuinely streaming: the series covers the transfer's
        // lifetime, not just its end
        let arrivals: u32 = series.bins().iter().map(|b| b.arrivals).sum();
        assert_eq!(arrivals, 1);
        assert!(
            series
                .bins()
                .iter()
                .filter(|b| b.delivered_bits > 0.0)
                .count()
                > 1,
            "delivery progress should span multiple buckets: {:?}",
            series.bins()
        );
        assert_eq!(quant.count(), 1);
        assert_eq!(
            quant.quantile(1.0),
            probed.flows[0].fct_secs,
            "probe FCT must equal the report FCT"
        );
    }

    #[test]
    fn flow_native_sessions_are_quantised() {
        use inrpp::session::{FlowSpec, Workload};
        let topo = Topology::fig3();
        let n = |s: &str| topo.node_by_name(s).unwrap();
        let flows = vec![FlowSpec {
            id: 1,
            src: n("1"),
            dst: n("4"),
            size_bits: 25_000.0, // 2.5 chunks at 10 kbit -> 3 chunks
            arrival: SimTime::ZERO,
        }];
        let session = Session::builder()
            .topology(&topo)
            .workload(Workload {
                offered_bits: flows.iter().map(|f| f.size_bits).sum(),
                flows,
            })
            .strategy(SessionStrategy::urp())
            .horizon(SimDuration::from_secs(10))
            .build()
            .expect("builds");
        let report = session
            .run_on(&PacketEngine::default(), &mut [])
            .expect("quantised run");
        let chunk_bits = PacketSimConfig::default().chunk_bytes.as_bits() as f64;
        assert_eq!(report.flows[0].offered_bits, 3.0 * chunk_bits);
        assert_eq!(report.aggregates.completed_flows, 1);
    }

    #[test]
    fn service_run_matches_one_shot_run() {
        let topo = Topology::fig3();
        let session = fig3_session(&topo, 400);
        let engine = PacketEngine::default();
        let one_shot = session.run_on(&engine, &mut []).expect("one-shot run");

        let mut svc = PacketService::open(&engine, &session).expect("open");
        assert_eq!(svc.kind(), EngineKind::Packet);
        for ms in [70, 400, 2_000] {
            svc.advance(SimTime::from_millis(ms), &mut []).unwrap();
        }
        let stepped = svc.finish_run(&mut []).expect("stepped run");
        assert_eq!(one_shot.aggregates, stepped.aggregates);
        assert_eq!(one_shot.flows, stepped.flows);
        assert_eq!(one_shot.channel_utilisation, stepped.channel_utilisation);
        let (a, b) = (one_shot.packet().unwrap(), stepped.packet().unwrap());
        assert_eq!(a.chunks_delivered, b.chunks_delivered);
        assert_eq!(a.chunks_detoured, b.chunks_detoured);
        assert_eq!(a.backpressure_msgs, b.backpressure_msgs);
    }

    #[test]
    fn service_checkpoint_resume_is_bit_identical() {
        let topo = Topology::fig3();
        let session = fig3_session(&topo, 400);
        let engine = PacketEngine::default();
        let one_shot = session.run_on(&engine, &mut []).expect("one-shot run");

        let mut head = PacketService::open(&engine, &session).expect("open");
        head.advance(SimTime::from_millis(300), &mut []).unwrap();
        head.advance(SimTime::from_millis(800), &mut []).unwrap();
        let snap_at_ckpt = head.snapshot();
        assert!(
            snap_at_ckpt.aggregates.delivered_bits < one_shot.aggregates.delivered_bits,
            "checkpoint must land mid-run"
        );
        let ckpt = head.checkpoint();
        drop(head);

        // envelope round-trips through bytes
        let ckpt = Checkpoint::from_bytes(&ckpt.to_bytes()).unwrap();
        let tail = PacketService::resume(&engine, &session, &ckpt).expect("resume");
        assert_eq!(tail.now(), SimTime::from_millis(800));
        // a restored service re-checkpoints byte-identically...
        assert_eq!(tail.checkpoint().to_bytes(), ckpt.to_bytes());
        // ...and sees the same mid-run snapshot
        assert_eq!(tail.snapshot().aggregates, snap_at_ckpt.aggregates);
        let resumed = tail.finish_run(&mut []).expect("resumed run");
        assert_eq!(one_shot.aggregates, resumed.aggregates);
        assert_eq!(one_shot.flows, resumed.flows);
        assert_eq!(one_shot.channel_utilisation, resumed.channel_utilisation);
        assert_eq!(
            one_shot.aggregates.delivered_bits.to_bits(),
            resumed.aggregates.delivered_bits.to_bits()
        );
    }

    #[test]
    fn service_feed_validates_and_streams() {
        let topo = Topology::fig3();
        let session = fig3_session(&topo, 200);
        let engine = PacketEngine::default();
        let mut svc = PacketService::open(&engine, &session).expect("open");
        svc.advance(SimTime::from_millis(100), &mut []).unwrap();

        let n = |s: &str| topo.node_by_name(s).unwrap();
        // wrong quantisation is a typed error
        let wrong = Transfer {
            flow: 9,
            src: n("2"),
            dst: n("4"),
            chunks: 20,
            chunk_bytes: ByteSize::bytes(999),
            start: SimTime::from_secs(2),
        };
        assert!(matches!(
            svc.feed(&wrong).unwrap_err(),
            SessionError::IncompatibleTraffic { .. }
        ));
        // a matching transfer lands and shows up in the final report
        let ok = Transfer {
            chunk_bytes: PacketSimConfig::default().chunk_bytes,
            ..wrong
        };
        svc.feed(&ok).unwrap();
        // stale id (slots are ranks of ascending ids) is rejected
        assert!(matches!(
            svc.feed(&Transfer { flow: 3, ..ok }).unwrap_err(),
            SessionError::InvalidTransfer(_)
        ));
        let report = svc.finish_run(&mut []).expect("fed run");
        assert_eq!(report.aggregates.arrived_flows, 2);
        assert_eq!(report.aggregates.completed_flows, 2);
        let fed = report.flows.iter().find(|f| f.flow == 9).expect("fed flow");
        assert_eq!((fed.src, fed.dst), (n("2"), n("4")));
    }

    #[test]
    fn service_resume_rejects_wrong_spec_and_engine() {
        let topo = Topology::fig3();
        let session = fig3_session(&topo, 200);
        let engine = PacketEngine::default();
        let svc = PacketService::open(&engine, &session).expect("open");
        let ckpt = svc.checkpoint();

        // different spec (horizon) -> fingerprint mismatch
        let other = fig3_session(&topo, 100);
        let err = PacketService::resume(&engine, &other, &ckpt)
            .err()
            .expect("fingerprint mismatch must be rejected");
        assert!(matches!(err, SessionError::CheckpointMismatch(_)), "{err}");

        // fluid-tagged envelope
        let fluid = Checkpoint::new(
            EngineKind::Fluid,
            session.fingerprint(),
            ckpt.body().to_vec(),
        );
        let err = PacketService::resume(&engine, &session, &fluid)
            .err()
            .expect("engine mismatch must be rejected");
        assert!(matches!(err, SessionError::CheckpointMismatch(_)), "{err}");

        // truncated body
        let cut = Checkpoint::new(
            EngineKind::Packet,
            session.fingerprint(),
            ckpt.body()[..ckpt.body().len().saturating_sub(1)].to_vec(),
        );
        assert!(PacketService::resume(&engine, &session, &cut).is_err());
    }

    #[test]
    fn sharded_one_shot_matches_sequential_service() {
        // a sharded straight run of a session's transfers equals the
        // (sequential) service-mode run of that session, report for report
        let topo = Topology::fig3();
        let n = |s: &str| topo.node_by_name(s).unwrap();
        let chunk_bytes = PacketSimConfig::default().chunk_bytes;
        let transfers = vec![
            Transfer {
                flow: 1,
                src: n("1"),
                dst: n("4"),
                chunks: 300,
                chunk_bytes,
                start: SimTime::ZERO,
            },
            Transfer {
                flow: 2,
                src: n("2"),
                dst: n("3"),
                chunks: 150,
                chunk_bytes,
                start: SimTime::from_millis(40),
            },
        ];
        let session = Session::builder()
            .topology(&topo)
            .transfers(transfers.clone())
            .strategy(SessionStrategy::urp())
            .horizon(SimDuration::from_secs(60))
            .build()
            .expect("valid session");
        // blind detouring: the one knob sharded runs require
        let engine = PacketEngine::inrpp(InrppConfig {
            load_aware_detour: false,
            ..InrppConfig::default()
        });
        let mut sim = PacketSim::try_new(&topo, engine.effective_config(&session)).unwrap();
        for t in &transfers {
            sim.add_transfer(TransferSpec {
                flow: t.flow,
                src: t.src,
                dst: t.dst,
                chunks: t.chunks,
                start: t.start,
            });
        }
        let sharded = sim.try_run_sharded(3, session.seed()).expect("sharded run");

        let mut svc = PacketService::open(&engine, &session).expect("open");
        svc.advance(SimTime::from_millis(250), &mut []).unwrap();
        let stepped = svc.run.finish(&mut []).expect("service run");
        assert_eq!(sharded, stepped);
    }
}
