//! The service-mode determinism gate: a checkpoint taken at **any**
//! advance boundary resumes **bit-identically** — the resumed run's
//! final report and probe stream match the uninterrupted run byte for
//! byte (`f64::to_bits` equality), on both engines, and (for the packet
//! engine) against a sharded `PacketSim` run of the same transfers.
//!
//! This is the acceptance gate for the trace-driven service layer; CI
//! runs it on every push.

use inrpp::service::{Checkpoint, FluidBacking, FluidService, ServiceSession};
use inrpp::session::{
    FlowEnd, FlowStart, Probe, RunReport, Sample, Session, SessionStrategy, Transfer,
};
use inrpp::InrppConfig;
use inrpp_packetsim::{
    FlowTransport, PacketEngine, PacketService, PacketSim, PacketSimConfig, TransferSpec,
};
use inrpp_sim::time::{SimDuration, SimTime};
use inrpp_sim::units::ByteSize;
use inrpp_topology::Topology;

/// Order-sensitive FNV-style fingerprint over every probe event,
/// f64 payloads hashed via `to_bits` — any reordering, dropped event,
/// or last-ulp numeric drift changes the value.
#[derive(Default)]
struct ProbeFp(u64);

impl ProbeFp {
    fn mix(&mut self, x: u64) {
        let h = (self.0 ^ x).wrapping_mul(0x0000_0100_0000_01B3);
        self.0 = h ^ (h >> 29);
    }

    fn mix_f(&mut self, v: f64) {
        self.mix(v.to_bits());
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

const CHUNK: ByteSize = ByteSize::bytes(1250);

/// A detour-heavy long transfer plus a staggered cross flow.
fn fig3_transfers(topo: &Topology) -> Vec<Transfer> {
    let n = |s: &str| topo.node_by_name(s).unwrap();
    vec![
        Transfer {
            flow: 1,
            src: n("1"),
            dst: n("4"),
            chunks: 600,
            chunk_bytes: CHUNK,
            start: SimTime::ZERO,
        },
        Transfer {
            flow: 2,
            src: n("2"),
            dst: n("3"),
            chunks: 250,
            chunk_bytes: CHUNK,
            start: SimTime::from_millis(120),
        },
    ]
}

fn fig3_session(topo: &Topology) -> Session<'_> {
    Session::builder()
        .topology(topo)
        .transfers(fig3_transfers(topo))
        .strategy(SessionStrategy::urp())
        .horizon(SimDuration::from_secs(60))
        .build()
        .expect("valid session")
}

fn assert_reports_bit_identical(a: &RunReport, b: &RunReport, what: &str) {
    assert_eq!(a.aggregates, b.aggregates, "{what}: aggregates differ");
    assert_eq!(a.flows, b.flows, "{what}: per-flow records differ");
    assert_eq!(
        a.channel_utilisation, b.channel_utilisation,
        "{what}: channel utilisation differs"
    );
    // PartialEq on f64 conflates 0.0/-0.0; the gate is to_bits equality
    for (x, y) in [
        (a.aggregates.offered_bits, b.aggregates.offered_bits),
        (a.aggregates.delivered_bits, b.aggregates.delivered_bits),
        (a.aggregates.mean_fct_secs, b.aggregates.mean_fct_secs),
        (a.aggregates.mean_utilisation, b.aggregates.mean_utilisation),
    ] {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: f64 bits differ");
    }
}

/// Fluid engine: checkpoint at every boundary of the schedule, resume
/// each, and demand the final report + probe stream match the straight
/// run bit for bit.
#[test]
fn fluid_checkpoint_at_every_boundary_resumes_bit_identically() {
    let topo = Topology::fig3();
    let session = fig3_session(&topo);
    let mut straight_fp = ProbeFp::default();
    let straight = session.run_probed(&mut [&mut straight_fp]).expect("run");

    let boundaries = [
        SimTime::from_millis(200),
        SimTime::from_millis(750),
        SimTime::from_secs(3),
        SimTime::from_secs(20),
    ];
    for cut in 0..boundaries.len() {
        // head: drive to the cut, checkpoint, throw the service away
        let backing = FluidBacking::for_session(&session);
        let mut fp = ProbeFp::default();
        let mut head = FluidService::open(&session, &backing).expect("open");
        for b in &boundaries[..=cut] {
            head.advance(*b, &mut [&mut fp]).expect("advance");
        }
        let ckpt = Checkpoint::from_bytes(&head.checkpoint().to_bytes()).expect("envelope");
        drop(head);

        // tail: resume from bytes, finish the schedule
        let mut tail = FluidService::resume(&session, &backing, &ckpt).expect("resume");
        assert_eq!(tail.now(), boundaries[cut]);
        // a restored run re-checkpoints to the same bytes
        assert_eq!(tail.checkpoint().to_bytes(), ckpt.to_bytes());
        for b in &boundaries[cut + 1..] {
            tail.advance(*b, &mut [&mut fp]).expect("advance");
        }
        let resumed = tail.finish_run(&mut [&mut fp]).expect("finish");

        assert_reports_bit_identical(&straight, &resumed, &format!("fluid cut {cut}"));
        assert_eq!(
            straight_fp.0, fp.0,
            "fluid cut {cut}: probe stream fingerprint diverged"
        );
    }
}

/// Packet engine, sequential: the same gate.
#[test]
fn packet_checkpoint_at_every_boundary_resumes_bit_identically() {
    let topo = Topology::fig3();
    let session = fig3_session(&topo);
    let engine = PacketEngine::default();
    let mut straight_fp = ProbeFp::default();
    let straight = session
        .run_on(&engine, &mut [&mut straight_fp])
        .expect("run");

    let boundaries = [
        SimTime::from_millis(300),
        SimTime::from_millis(301), // empty window: still a valid cut
        SimTime::from_secs(2),
    ];
    for cut in 0..boundaries.len() {
        let mut fp = ProbeFp::default();
        let mut head = PacketService::open(&engine, &session).expect("open");
        for b in &boundaries[..=cut] {
            head.advance(*b, &mut [&mut fp]).expect("advance");
        }
        let ckpt = Checkpoint::from_bytes(&head.checkpoint().to_bytes()).expect("envelope");
        drop(head);

        let mut tail = PacketService::resume(&engine, &session, &ckpt).expect("resume");
        assert_eq!(tail.now(), boundaries[cut]);
        // a restored run re-checkpoints to the same bytes
        assert_eq!(tail.checkpoint().to_bytes(), ckpt.to_bytes());
        for b in &boundaries[cut + 1..] {
            tail.advance(*b, &mut [&mut fp]).expect("advance");
        }
        let resumed = tail.finish_run(&mut [&mut fp]).expect("finish");

        assert_reports_bit_identical(&straight, &resumed, &format!("packet cut {cut}"));
        assert_eq!(
            straight_fp.0, fp.0,
            "packet cut {cut}: probe stream fingerprint diverged"
        );
    }
}

/// Packet engine: a sharded `PacketSim` run of the session's transfers
/// and a sequential service run that was checkpointed and resumed midway
/// must agree — the shard contract composed with the service-mode
/// contract. The probe fingerprint covers every start, delivery and
/// completion instant; the reports agree on each flow's delivered chunks
/// and completion instant.
#[test]
fn sharded_run_matches_checkpointed_sequential_service() {
    let topo = Topology::fig3();
    let session = fig3_session(&topo);
    // blind detouring: the sharded path's one configuration requirement
    let inrpp = InrppConfig {
        load_aware_detour: false,
        ..InrppConfig::default()
    };
    let engine = PacketEngine::inrpp(inrpp);

    let mut fp = ProbeFp::default();
    let mut head = PacketService::open(&engine, &session).expect("open");
    head.advance(SimTime::from_millis(400), &mut [&mut fp])
        .expect("advance");
    let ckpt = head.checkpoint();
    drop(head);
    let tail = PacketService::resume(&engine, &session, &ckpt).expect("resume");
    let resumed = tail.finish_run(&mut [&mut fp]).expect("finish");
    let chunk_bits = CHUNK.as_bits() as f64;

    for workers in [2, 4] {
        let mut sim = PacketSim::new(
            &topo,
            PacketSimConfig {
                horizon: session.horizon(),
                seed: session.seed(),
                ..*engine.config()
            },
        );
        for t in fig3_transfers(&topo) {
            let spec = TransferSpec {
                flow: t.flow,
                src: t.src,
                dst: t.dst,
                chunks: t.chunks,
                start: t.start,
            };
            sim.add_transfer_as(spec, FlowTransport::Inrpp);
        }
        let mut sharded_fp = ProbeFp::default();
        let sharded = sim
            .try_run_sharded_probed(workers, session.seed(), &mut [&mut sharded_fp])
            .expect("sharded run");

        assert_eq!(
            sharded_fp.0, fp.0,
            "workers={workers}: probe stream fingerprint diverged"
        );
        assert_eq!(sharded.flows.len(), resumed.flows.len());
        for (s, r) in sharded.flows.iter().zip(&resumed.flows) {
            assert_eq!(s.flow, r.flow);
            assert_eq!(
                (s.chunks_delivered as f64 * chunk_bits).to_bits(),
                r.delivered_bits.to_bits(),
                "workers={workers}: flow {} delivered chunks differ",
                s.flow
            );
            assert_eq!(
                s.fct().map(|d| d.as_secs_f64().to_bits()),
                r.fct_secs.map(f64::to_bits),
                "workers={workers}: flow {} completion instant differs",
                s.flow
            );
            assert_eq!(s.started_at, r.arrival);
        }
    }
}

/// Feeding mid-run survives a checkpoint that lands between the feed
/// and the fed transfer's start, on both engines.
#[test]
fn fed_transfers_survive_checkpoints_on_both_engines() {
    let topo = Topology::fig3();
    let session = fig3_session(&topo);
    let n = |s: &str| topo.node_by_name(s).unwrap();
    let fed = Transfer {
        flow: 9,
        src: n("2"),
        dst: n("4"),
        chunks: 120,
        chunk_bytes: CHUNK,
        start: SimTime::from_secs(2),
    };
    let engine = PacketEngine::default();

    // reference: fed early, never interrupted
    let fluid_backing = FluidBacking::for_session(&session);
    let mut fluid_ref = FluidService::open(&session, &fluid_backing).expect("open");
    fluid_ref.advance(SimTime::from_secs(1), &mut []).unwrap();
    fluid_ref.feed(&fed).unwrap();
    let fluid_straight = fluid_ref.finish_run(&mut []).expect("finish");

    let mut packet_ref = PacketService::open(&engine, &session).expect("open");
    packet_ref.advance(SimTime::from_secs(1), &mut []).unwrap();
    packet_ref.feed(&fed).unwrap();
    let packet_straight = packet_ref.finish_run(&mut []).expect("finish");

    // interrupted: checkpoint at 1.5 s, strictly between feed and start
    let mut fluid_head = FluidService::open(&session, &fluid_backing).expect("open");
    fluid_head.advance(SimTime::from_secs(1), &mut []).unwrap();
    fluid_head.feed(&fed).unwrap();
    fluid_head
        .advance(SimTime::from_millis(1500), &mut [])
        .unwrap();
    let ckpt = fluid_head.checkpoint();
    drop(fluid_head);
    let fluid_resumed = FluidService::resume(&session, &fluid_backing, &ckpt)
        .expect("resume")
        .finish_run(&mut [])
        .expect("finish");

    let mut packet_head = PacketService::open(&engine, &session).expect("open");
    packet_head.advance(SimTime::from_secs(1), &mut []).unwrap();
    packet_head.feed(&fed).unwrap();
    packet_head
        .advance(SimTime::from_millis(1500), &mut [])
        .unwrap();
    let ckpt = packet_head.checkpoint();
    drop(packet_head);
    let packet_resumed = PacketService::resume(&engine, &session, &ckpt)
        .expect("resume")
        .finish_run(&mut [])
        .expect("finish");

    // the interruption point changed; the physics must not have. The
    // straight fluid run used a different boundary schedule, so compare
    // modulo that: same flows, same delivered bits, same FCTs.
    assert_eq!(fluid_straight.flows, fluid_resumed.flows, "fluid");
    assert_eq!(
        fluid_straight.aggregates, fluid_resumed.aggregates,
        "fluid aggregates"
    );
    assert_reports_bit_identical(&packet_straight, &packet_resumed, "packet");
    assert_eq!(packet_resumed.aggregates.arrived_flows, 3);
    assert!(packet_resumed.flow(9).expect("fed flow").completed());
}

/// The packet config's chunk quantum is part of the engine, not the
/// session; a checkpoint from one quantum cannot silently resume under
/// another (the rebuilt transfers would disagree with the replay log).
#[test]
fn resume_on_a_different_chunk_quantum_is_rejected_or_identical() {
    let topo = Topology::fig3();
    let session = fig3_session(&topo);
    let engine = PacketEngine::default();
    let mut head = PacketService::open(&engine, &session).expect("open");
    head.advance(SimTime::from_millis(500), &mut []).unwrap();
    let ckpt = head.checkpoint();
    drop(head);

    // a mismatched engine quantum trips the session-spec transfer check
    let other = PacketEngine::new(PacketSimConfig {
        chunk_bytes: ByteSize::bytes(625),
        ..PacketSimConfig::default()
    });
    assert!(PacketService::resume(&other, &session, &ckpt).is_err());
}

/// Consecutive advances merge into one logged op, so a checkpoint does
/// not depend on how an advance was sliced: 64 slices (the daemon's
/// preemption quantum) and one advance to the same instant write the
/// same bytes, on both engines.
#[test]
fn sliced_and_single_advances_checkpoint_identically() {
    let topo = Topology::fig3();
    let session = fig3_session(&topo);
    let backing = FluidBacking::for_session(&session);
    let engine = PacketEngine::default();
    let n = |s: &str| topo.node_by_name(s).unwrap();
    let fed = Transfer {
        flow: 9,
        src: n("2"),
        dst: n("4"),
        chunks: 120,
        chunk_bytes: CHUNK,
        start: SimTime::from_secs(2),
    };
    let to = SimTime::from_millis(1_600);
    let drive = |svc: &mut dyn ServiceSession, slices: u64| {
        svc.advance(SimTime::from_millis(500), &mut []).unwrap();
        svc.feed(&fed).unwrap();
        let from = svc.now();
        let step = to.duration_since(from).as_nanos() / slices;
        for i in 1..slices {
            svc.advance(from + SimDuration::from_nanos(step * i), &mut [])
                .unwrap();
        }
        svc.advance(to, &mut []).unwrap();
        svc.checkpoint().to_bytes()
    };
    for slices in [64, 7] {
        let one = drive(&mut FluidService::open(&session, &backing).unwrap(), 1);
        let sliced = drive(&mut FluidService::open(&session, &backing).unwrap(), slices);
        assert_eq!(one, sliced, "fluid, {slices} slices");
        let one = drive(&mut PacketService::open(&engine, &session).unwrap(), 1);
        let sliced = drive(&mut PacketService::open(&engine, &session).unwrap(), slices);
        assert_eq!(one, sliced, "packet, {slices} slices");
    }
}
