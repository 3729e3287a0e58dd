//! The fault-recovery determinism gate: **any fault plan leaves the
//! determinism contract intact**. For fixed and property-generated
//! plans, on both engines:
//!
//! * a sharded packet run (`PacketSim::try_run_sharded_probed` at 1/2/4/8
//!   workers) is byte-identical to the sequential run — whole reports
//!   compared through their `Debug` text, which spells every `f64`
//!   exactly, probe streams via an order-sensitive fingerprint;
//! * a checkpoint taken at **any** advance boundary (including
//!   boundaries inside outage windows and straddling crash/recover
//!   instants) resumes bit-identically;
//! * an invalid plan (out-of-range link/node) is rejected at session
//!   build time with a typed `SessionError::InvalidConfig`.
//!
//! CI runs this in release at `SHARD_WORKERS=1`, `2` and `8` alongside
//! the shard-equivalence matrix; the `inrpp serve` crash-recovery side
//! of the contract is gated by `crates/bench/tests/chaos_serve.rs`.

use proptest::prelude::*;

use inrpp::config::InrppConfig;
use inrpp::service::{Checkpoint, FluidBacking, FluidService, ServiceSession};
use inrpp::session::{
    FlowEnd, FlowStart, Probe, RunReport, Sample, Session, SessionError, SessionStrategy, Transfer,
};
use inrpp_packetsim::{
    FlowTransport, PacketEngine, PacketService, PacketSim, PacketSimConfig, TransferSpec,
    TransportKind,
};
use inrpp_sim::fault::{FaultEvent, FaultKind, FaultPlan};
use inrpp_sim::rng::SimRng;
use inrpp_sim::time::{SimDuration, SimTime};
use inrpp_sim::units::ByteSize;
use inrpp_topology::Topology;

// ===================================================================
// Bit-exact fingerprints
// ===================================================================

/// Order-sensitive FNV-style fingerprint over every probe event, `f64`
/// payloads hashed via `to_bits`.
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

fn assert_reports_bit_identical(a: &RunReport, b: &RunReport, what: &str) {
    assert_eq!(a.aggregates, b.aggregates, "{what}: aggregates differ");
    assert_eq!(a.flows, b.flows, "{what}: per-flow records differ");
    assert_eq!(
        a.channel_utilisation, b.channel_utilisation,
        "{what}: channel utilisation differs"
    );
    for (x, y) in [
        (a.aggregates.offered_bits, b.aggregates.offered_bits),
        (a.aggregates.delivered_bits, b.aggregates.delivered_bits),
        (a.aggregates.mean_fct_secs, b.aggregates.mean_fct_secs),
        (a.aggregates.mean_utilisation, b.aggregates.mean_utilisation),
    ] {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: f64 bits differ");
    }
    for (fa, fb) in a.flows.iter().zip(&b.flows) {
        assert_eq!(
            fa.outage_delay_secs.to_bits(),
            fb.outage_delay_secs.to_bits(),
            "{what}: outage delay bits differ for flow {}",
            fa.flow
        );
    }
}

// ===================================================================
// Scenario
// ===================================================================

const CHUNK: ByteSize = ByteSize::bytes(1250);

/// Blind detouring: the sharded path's one configuration requirement.
fn no_remote_reads() -> InrppConfig {
    InrppConfig {
        load_aware_detour: false,
        ..InrppConfig::default()
    }
}

const HORIZON: SimDuration = SimDuration::from_secs(40);

/// The traffic under test on fig3: a detour-heavy long transfer plus a
/// staggered cross flow.
fn faulted_transfers(topo: &Topology) -> Vec<Transfer> {
    let n = |s: &str| topo.node_by_name(s).unwrap();
    vec![
        Transfer {
            flow: 1,
            src: n("1"),
            dst: n("4"),
            chunks: 500,
            chunk_bytes: CHUNK,
            start: SimTime::ZERO,
        },
        Transfer {
            flow: 2,
            src: n("2"),
            dst: n("3"),
            chunks: 200,
            chunk_bytes: CHUNK,
            start: SimTime::from_millis(120),
        },
    ]
}

/// The session under test: [`faulted_transfers`] with `plan` attached.
fn faulted_session<'t>(topo: &'t Topology, plan: &FaultPlan) -> Session<'t> {
    Session::builder()
        .topology(topo)
        .transfers(faulted_transfers(topo))
        .strategy(SessionStrategy::urp())
        .horizon(HORIZON)
        .faults(plan.clone())
        .build()
        .expect("valid session")
}

/// The simulation `PacketEngine::inrpp(no_remote_reads())` builds for
/// [`faulted_session`], built by hand: sharded runs go through
/// `PacketSim`.
fn faulted_sim<'t>(topo: &'t Topology, plan: &FaultPlan) -> PacketSim<'t> {
    let mut sim = PacketSim::new(
        topo,
        PacketSimConfig {
            transport: TransportKind::Inrpp(no_remote_reads()),
            horizon: HORIZON,
            seed: 0,
            ..PacketSimConfig::default()
        },
    );
    sim.set_faults(plan.clone());
    for t in faulted_transfers(topo) {
        let spec = TransferSpec {
            flow: t.flow,
            src: t.src,
            dst: t.dst,
            chunks: t.chunks,
            start: t.start,
        };
        sim.add_transfer_as(spec, FlowTransport::Inrpp);
    }
    sim
}

/// [`faulted_sim`] run sequentially (`workers` = `None`) or sharded:
/// the report's `Debug` text and the probe fingerprint.
fn packet_run(topo: &Topology, plan: &FaultPlan, workers: Option<usize>) -> (String, u64) {
    let sim = faulted_sim(topo, plan);
    let mut fp = ProbeFp::default();
    let report = match workers {
        None => sim.try_run_probed(&mut [&mut fp]),
        Some(n) => sim.try_run_sharded_probed(n, 0, &mut [&mut fp]),
    }
    .expect("packet run");
    (format!("{report:?}"), fp.0)
}

/// Fixed plans covering every `FaultKind`, with instants that straddle
/// the checkpoint boundaries below. fig3: link 1 is the 2 Mbps
/// bottleneck 2-4, link 3 the 3 Mbps detour leg 3-4; node index 1 is
/// the custody point "2".
fn fixed_plans() -> Vec<(&'static str, FaultPlan)> {
    let ev = |at, kind| FaultEvent { at, kind };
    vec![
        (
            "bottleneck-outage",
            FaultPlan::link_outage(1, SimTime::from_millis(250), SimTime::from_secs(8)).unwrap(),
        ),
        (
            "crash-and-rescue",
            FaultPlan::try_new(vec![
                ev(SimTime::from_millis(300), FaultKind::LinkDown { link: 1 }),
                ev(SimTime::from_millis(300), FaultKind::LinkDown { link: 3 }),
                ev(SimTime::from_millis(600), FaultKind::NodeCrash { node: 1 }),
                ev(SimTime::from_secs(2), FaultKind::NodeRecover { node: 1 }),
                ev(SimTime::from_secs(2), FaultKind::LinkUp { link: 1 }),
                ev(SimTime::from_secs(2), FaultKind::LinkUp { link: 3 }),
            ])
            .unwrap(),
        ),
        (
            "degrade-and-burst",
            FaultPlan::try_new(vec![
                ev(
                    SimTime::from_millis(400),
                    FaultKind::CapacityScale {
                        link: 1,
                        fraction: 0.25,
                    },
                ),
                ev(
                    SimTime::from_millis(700),
                    FaultKind::LossBurst {
                        link: 0,
                        drop_chance: 0.2,
                        until: SimTime::from_millis(3_300),
                    },
                ),
            ])
            .unwrap(),
        ),
        (
            "burst-train",
            FaultPlan::try_new(
                [
                    (500, 600),
                    (1_900, 2_600),
                    (3_500, 4_100),
                    (6_700, 6_800),
                    (7_900, 8_100),
                    (8_300, 8_400),
                    (9_000, 9_100),
                    (9_300, 9_400),
                    (9_800, 9_900),
                ]
                .map(|(from, until)| {
                    ev(
                        SimTime::from_millis(from),
                        FaultKind::LossBurst {
                            link: 0,
                            drop_chance: 0.25,
                            until: SimTime::from_millis(until),
                        },
                    )
                })
                .to_vec(),
            )
            .unwrap(),
        ),
    ]
}

/// Worker counts under test: `SHARD_WORKERS=n` pins the matrix to one
/// count (the CI worker-matrix step), default sweeps 1/2/4/8.
fn worker_counts() -> Vec<usize> {
    match std::env::var("SHARD_WORKERS") {
        Ok(v) => vec![v.parse().expect("SHARD_WORKERS must be an integer")],
        Err(_) => vec![1, 2, 4, 8],
    }
}

// ===================================================================
// Packet engine: sharded == sequential under every plan
// ===================================================================

#[test]
fn packet_fixed_plans_are_byte_identical_at_every_worker_count() {
    let topo = Topology::fig3();
    let engine = PacketEngine::inrpp(no_remote_reads());
    for (name, plan) in fixed_plans() {
        let baseline = packet_run(&topo, &plan, None);
        // the hand-built simulation is the session's
        let mut session_fp = ProbeFp::default();
        faulted_session(&topo, &plan)
            .run_on(&engine, &mut [&mut session_fp])
            .expect("session run");
        assert_eq!(baseline.1, session_fp.0, "{name}: not the session's run");
        for workers in worker_counts() {
            let sharded = packet_run(&topo, &plan, Some(workers));
            assert_eq!(
                baseline.0, sharded.0,
                "{name}: report diverged at workers={workers}"
            );
            assert_eq!(
                baseline.1, sharded.1,
                "{name}: probe stream diverged at workers={workers}"
            );
        }
    }
}

// ===================================================================
// Checkpoint/resume at every boundary, under faults, both engines
// ===================================================================

/// Boundaries chosen to land before, inside, and after the fault
/// windows of every fixed plan (including the instant a node is down).
const BOUNDARIES: [SimTime; 4] = [
    SimTime::from_millis(280),
    SimTime::from_millis(900),
    SimTime::from_secs(3),
    SimTime::from_secs(12),
];

#[test]
fn packet_checkpoints_inside_fault_windows_resume_bit_identically() {
    let topo = Topology::fig3();
    let engine = PacketEngine::inrpp(no_remote_reads());
    for (name, plan) in fixed_plans() {
        let session = faulted_session(&topo, &plan);
        let mut straight_fp = ProbeFp::default();
        let straight = session
            .run_on(&engine, &mut [&mut straight_fp])
            .expect("run");
        for cut in 0..BOUNDARIES.len() {
            let mut fp = ProbeFp::default();
            let mut head = PacketService::open(&engine, &session).expect("open");
            for b in &BOUNDARIES[..=cut] {
                head.advance(*b, &mut [&mut fp]).expect("advance");
            }
            let ckpt = Checkpoint::from_bytes(&head.checkpoint().to_bytes()).expect("envelope");
            drop(head);

            let mut tail = PacketService::resume(&engine, &session, &ckpt).expect("resume");
            assert_eq!(tail.now(), BOUNDARIES[cut]);
            for b in &BOUNDARIES[cut + 1..] {
                tail.advance(*b, &mut [&mut fp]).expect("advance");
            }
            let resumed = tail.finish_run(&mut [&mut fp]).expect("finish");

            assert_reports_bit_identical(&straight, &resumed, &format!("{name} cut {cut}"));
            assert_eq!(
                straight_fp.0, fp.0,
                "{name} cut {cut}: probe stream fingerprint diverged"
            );
        }
    }
}

#[test]
fn fluid_checkpoints_inside_fault_windows_resume_bit_identically() {
    let topo = Topology::fig3();
    for (name, plan) in fixed_plans() {
        let session = faulted_session(&topo, &plan);
        let mut straight_fp = ProbeFp::default();
        let straight = session.run_probed(&mut [&mut straight_fp]).expect("run");
        for cut in 0..BOUNDARIES.len() {
            let backing = FluidBacking::for_session(&session);
            let mut fp = ProbeFp::default();
            let mut head = FluidService::open(&session, &backing).expect("open");
            for b in &BOUNDARIES[..=cut] {
                head.advance(*b, &mut [&mut fp]).expect("advance");
            }
            let ckpt = Checkpoint::from_bytes(&head.checkpoint().to_bytes()).expect("envelope");
            drop(head);

            let mut tail = FluidService::resume(&session, &backing, &ckpt).expect("resume");
            assert_eq!(tail.now(), BOUNDARIES[cut]);
            for b in &BOUNDARIES[cut + 1..] {
                tail.advance(*b, &mut [&mut fp]).expect("advance");
            }
            let resumed = tail.finish_run(&mut [&mut fp]).expect("finish");

            assert_reports_bit_identical(&straight, &resumed, &format!("fluid {name} cut {cut}"));
            assert_eq!(
                straight_fp.0, fp.0,
                "fluid {name} cut {cut}: probe stream fingerprint diverged"
            );
        }
    }
}

// ===================================================================
// Typed validation at the facade
// ===================================================================

#[test]
fn out_of_range_plans_are_typed_build_errors() {
    let topo = Topology::fig3(); // 4 nodes, 4 links
    let n = |s: &str| topo.node_by_name(s).unwrap();
    let base = |plan: FaultPlan| {
        Session::builder()
            .topology(&topo)
            .transfers(vec![Transfer {
                flow: 1,
                src: n("1"),
                dst: n("4"),
                chunks: 10,
                chunk_bytes: CHUNK,
                start: SimTime::ZERO,
            }])
            .strategy(SessionStrategy::urp())
            .horizon(SimDuration::from_secs(5))
            .faults(plan)
            .build()
    };
    let bad_link = FaultPlan::link_outage(9, SimTime::ZERO, SimTime::from_secs(1)).unwrap();
    match base(bad_link) {
        Err(SessionError::InvalidConfig(msg)) => {
            assert!(msg.contains("link 9"), "names the bad link: {msg}")
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
    let bad_node = FaultPlan::try_new(vec![FaultEvent {
        at: SimTime::ZERO,
        kind: FaultKind::NodeCrash { node: 7 },
    }])
    .unwrap();
    match base(bad_node) {
        Err(SessionError::InvalidConfig(msg)) => {
            assert!(msg.contains("node 7"), "names the bad node: {msg}")
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
    // a valid plan builds
    let good = FaultPlan::link_outage(1, SimTime::ZERO, SimTime::from_secs(1)).unwrap();
    assert!(base(good).is_ok());
}

// ===================================================================
// Property layer: random plans
// ===================================================================

/// A random valid plan on fig3 with odd, non-commensurate instants
/// (never on a round control-ladder millisecond).
fn random_plan(seed: u64) -> FaultPlan {
    let mut rng = SimRng::from_seed_u64(seed ^ 0xFA17_D1CE);
    let odd = |rng: &mut SimRng| {
        // 0.1–4.0 s, never a round microsecond
        SimTime::ZERO + SimDuration::from_nanos(100_000_003 + 7919 * rng.index(500_000) as u64)
    };
    let mut events = Vec::new();
    for _ in 0..(1 + rng.index(3)) {
        let link = rng.index(4) as u32;
        let down = odd(&mut rng);
        let up = down + SimDuration::from_nanos(500_000_007 + 104_729 * rng.index(20_000) as u64);
        events.push(FaultEvent {
            at: down,
            kind: FaultKind::LinkDown { link },
        });
        events.push(FaultEvent {
            at: up,
            kind: FaultKind::LinkUp { link },
        });
    }
    if rng.chance(0.5) {
        let node = rng.index(4) as u32;
        let crash = odd(&mut rng);
        let recover = crash + SimDuration::from_nanos(700_000_001);
        events.push(FaultEvent {
            at: crash,
            kind: FaultKind::NodeCrash { node },
        });
        events.push(FaultEvent {
            at: recover,
            kind: FaultKind::NodeRecover { node },
        });
    }
    if rng.chance(0.5) {
        let at = odd(&mut rng);
        events.push(FaultEvent {
            at,
            kind: FaultKind::LossBurst {
                link: rng.index(4) as u32,
                drop_chance: 0.05 + 0.4 * rng.index(100) as f64 / 100.0,
                until: at + SimDuration::from_nanos(900_000_011),
            },
        });
    }
    if rng.chance(0.4) {
        events.push(FaultEvent {
            at: odd(&mut rng),
            kind: FaultKind::CapacityScale {
                link: rng.index(4) as u32,
                fraction: 0.2 + 0.8 * rng.index(100) as f64 / 100.0,
            },
        });
    }
    events.sort_by_key(|e| e.at);
    FaultPlan::try_new(events).expect("generated plan is valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property-generated plans: the packet engine stays byte-identical
    /// sharded-vs-sequential, and both engines resume bit-identically
    /// from a checkpoint cut inside the plan's active window.
    #[test]
    fn random_plans_preserve_the_determinism_contract(seed in 0u64..400) {
        let topo = Topology::fig3();
        let plan = random_plan(seed);
        let engine = PacketEngine::inrpp(no_remote_reads());

        // sharded == sequential
        let sequential = packet_run(&topo, &plan, None);
        for workers in worker_counts() {
            let sharded = packet_run(&topo, &plan, Some(workers));
            prop_assert_eq!(
                &sequential.0, &sharded.0,
                "seed {}: report diverged at workers={}", seed, workers
            );
            prop_assert_eq!(sequential.1, sharded.1, "seed {}: probes diverged", seed);
        }

        // checkpoint cut mid-plan, both engines
        let cut = SimTime::from_millis(800 + (seed % 7) * 331);
        let session = faulted_session(&topo, &plan);
        let baseline = session.run_on(&engine, &mut []).expect("sequential run");

        let mut head = PacketService::open(&engine, &session).expect("open");
        head.advance(cut, &mut []).expect("advance");
        let ckpt = head.checkpoint();
        drop(head);
        let tail = PacketService::resume(&engine, &session, &ckpt).expect("resume");
        let resumed = tail.finish_run(&mut []).expect("finish");
        assert_reports_bit_identical(&baseline, &resumed, &format!("seed {seed} packet resume"));

        let fluid_straight = session.run().expect("fluid run");
        let backing = FluidBacking::for_session(&session);
        let mut head = FluidService::open(&session, &backing).expect("open");
        head.advance(cut, &mut []).expect("advance");
        let ckpt = head.checkpoint();
        drop(head);
        let tail = FluidService::resume(&session, &backing, &ckpt).expect("resume");
        let resumed = tail.finish_run(&mut []).expect("finish");
        assert_reports_bit_identical(
            &fluid_straight,
            &resumed,
            &format!("seed {seed} fluid resume"),
        );
    }
}
