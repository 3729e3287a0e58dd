//! The shard-equivalence gate: a sharded packet-engine run must be
//! **byte-identical** — the full `PacketSimReport` (every `f64` compared
//! via `to_bits`) *and* the streamed probe sequence — to the sequential
//! run, at any worker count and under any partition.
//!
//! Three layers:
//!
//! * fixed scenarios (INRPP with faults, AIMD, mixed transport; line /
//!   dumbbell / star shapes) × worker counts 1/2/4/8 × partition seeds,
//!   plus explicit contiguous partitions — the deterministic matrix CI
//!   runs in release at `SHARD_WORKERS=1`, `2` and `8`;
//! * a proptest drawing random connected topologies, transfer sets,
//!   fault schedules, and partitions (BFS-grown and arbitrary dense
//!   assignments);
//! * the session facade, which runs the sequential engine: its packet
//!   run must equal the same simulation sharded through
//!   `PacketSim::try_run_sharded_probed` at every worker count, and a
//!   zero worker count must be a typed error.
//!
//! Scenario parameters follow the sharding collision precondition
//! (ARCHITECTURE.md §"Sharded execution"): odd-nanosecond link delays and
//! fractional-Mbps rates keep channel-derived instants off the
//! millisecond-round control ladder.

use proptest::prelude::*;

use inrpp::config::InrppConfig;
use inrpp::session::{FlowEnd, FlowStart, Probe, Sample};
use inrpp_packetsim::{
    AimdConfig, FlowTransport, PacketSim, PacketSimConfig, PacketSimReport, TransferSpec,
    TransportKind,
};
use inrpp_sim::rng::SimRng;
use inrpp_sim::time::{SimDuration, SimTime};
use inrpp_sim::units::Rate;
use inrpp_topology::graph::{NodeId, Topology};
use inrpp_topology::partition::{BfsPartitioner, ContiguousPartitioner, Partition, Partitioner};

// ===================================================================
// Bit-exact fingerprints
// ===================================================================

/// Probe recording every event with `f64`s mapped through `to_bits`.
#[derive(Default, PartialEq, Debug, Clone)]
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

/// Serialize a report to a byte-exact string (floats via `to_bits`).
fn fingerprint(r: &PacketSimReport) -> String {
    use std::fmt::Write;
    let mut s = format!(
        "{}|{}|{:?}|{}|{}|{}|{}|{}|{:?}|{}|{:?}|{}",
        r.transport,
        r.topology,
        r.horizon,
        r.chunks_delivered,
        r.chunks_dropped,
        r.chunks_detoured,
        r.chunks_custodied,
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
            "|{}:{}:{}:{:?}:{:?}:{}:{}",
            f.flow,
            f.chunks_total,
            f.chunks_delivered,
            f.started_at,
            f.completed_at,
            f.retransmits,
            f.max_reorder_distance
        )
        .unwrap();
    }
    s
}

// ===================================================================
// Fixed scenario matrix
// ===================================================================

struct Scenario {
    name: &'static str,
    topo: Topology,
    cfg: PacketSimConfig,
    transfers: Vec<(TransferSpec, FlowTransport)>,
}

fn inrpp_no_detour_probe() -> InrppConfig {
    InrppConfig {
        load_aware_detour: false,
        ..InrppConfig::default()
    }
}

fn scenarios() -> Vec<Scenario> {
    let mut out = Vec::new();

    // 1. INRPP relay chain with faults: custody, back-pressure and
    //    retransmissions crossing every region boundary
    {
        let topo = Topology::line(6, Rate::mbps(9.7), SimDuration::from_nanos(1_300_017));
        let ids: Vec<_> = topo.node_ids().collect();
        let cfg = PacketSimConfig {
            horizon: SimDuration::from_secs(12),
            seed: 5,
            transport: TransportKind::Inrpp(inrpp_no_detour_probe()),
            // 0.02 drop and 0.01 corrupt, folded: d + (1 - d)c
            drop_chance: 0.0298,
            ..PacketSimConfig::default()
        };
        let t = |flow, src: usize, dst: usize, chunks, ms| {
            (
                TransferSpec {
                    flow,
                    src: ids[src],
                    dst: ids[dst],
                    chunks,
                    start: SimTime::from_millis(ms),
                },
                FlowTransport::Inrpp,
            )
        };
        out.push(Scenario {
            name: "line6-inrpp-faults",
            topo,
            cfg,
            transfers: vec![
                t(1, 0, 5, 220, 0),
                t(2, 5, 1, 150, 137),
                t(3, 2, 4, 80, 449),
            ],
        });
    }

    // 2. AIMD dumbbell: the baseline transport, drop-tail contention on
    //    the shared bottleneck
    {
        let topo = Topology::dumbbell(
            3,
            Rate::mbps(9.7),
            Rate::mbps(3.9),
            SimDuration::from_nanos(2_700_031),
        );
        let ids: Vec<_> = topo.node_ids().collect();
        let n = topo.node_count();
        let cfg = PacketSimConfig {
            horizon: SimDuration::from_secs(10),
            seed: 11,
            transport: TransportKind::Aimd(AimdConfig),
            ..PacketSimConfig::default()
        };
        // dumbbell layout: senders first, then receivers, then the two hubs
        let transfers = (0..3)
            .map(|i| {
                (
                    TransferSpec {
                        flow: i as u64 + 1,
                        src: ids[i],
                        dst: ids[3 + i],
                        chunks: 120,
                        start: SimTime::from_millis(97 * i as u64),
                    },
                    FlowTransport::Aimd,
                )
            })
            .collect();
        assert!(n >= 8);
        out.push(Scenario {
            name: "dumbbell3-aimd",
            topo,
            cfg,
            transfers,
        });
    }

    // 3. Mixed transports sharing a star hub: INRPP and AIMD flows in
    //    one run, all regions meeting at one cut node
    {
        let topo = Topology::star(7, Rate::mbps(19.3), SimDuration::from_nanos(900_007));
        let ids: Vec<_> = topo.node_ids().collect();
        let cfg = PacketSimConfig {
            horizon: SimDuration::from_secs(8),
            seed: 23,
            transport: TransportKind::Mixed {
                inrpp: inrpp_no_detour_probe(),
                aimd: AimdConfig,
            },
            drop_chance: 0.01,
            ..PacketSimConfig::default()
        };
        let transfers = vec![
            (
                TransferSpec {
                    flow: 1,
                    src: ids[1],
                    dst: ids[4],
                    chunks: 160,
                    start: SimTime::ZERO,
                },
                FlowTransport::Inrpp,
            ),
            (
                TransferSpec {
                    flow: 2,
                    src: ids[2],
                    dst: ids[5],
                    chunks: 140,
                    start: SimTime::from_millis(53),
                },
                FlowTransport::Aimd,
            ),
            (
                TransferSpec {
                    flow: 3,
                    src: ids[6],
                    dst: ids[3],
                    chunks: 90,
                    start: SimTime::from_millis(211),
                },
                FlowTransport::Inrpp,
            ),
        ];
        out.push(Scenario {
            name: "star7-mixed",
            topo,
            cfg,
            transfers,
        });
    }

    out
}

fn run_sequential(sc: &Scenario) -> (String, Tape) {
    let mut sim = PacketSim::new(&sc.topo, sc.cfg);
    for &(spec, kind) in &sc.transfers {
        sim.add_transfer_as(spec, kind);
    }
    let mut tape = Tape::default();
    let r = sim.try_run_probed(&mut [&mut tape]).expect("sequential");
    (fingerprint(&r), tape)
}

fn run_sharded(sc: &Scenario, workers: usize, seed: u64) -> (String, Tape) {
    let mut sim = PacketSim::new(&sc.topo, sc.cfg);
    for &(spec, kind) in &sc.transfers {
        sim.add_transfer_as(spec, kind);
    }
    let mut tape = Tape::default();
    let r = sim
        .try_run_sharded_probed(workers, seed, &mut [&mut tape])
        .expect("sharded");
    (fingerprint(&r), tape)
}

/// Worker counts under test: `SHARD_WORKERS=n` pins the matrix to one
/// count (the CI worker-matrix step), default sweeps 1/2/4/8.
fn worker_counts() -> Vec<usize> {
    match std::env::var("SHARD_WORKERS") {
        Ok(v) => vec![v.parse().expect("SHARD_WORKERS must be an integer")],
        Err(_) => vec![1, 2, 4, 8],
    }
}

#[test]
fn fixed_scenarios_are_byte_identical_at_every_worker_count() {
    for sc in scenarios() {
        let baseline = run_sequential(&sc);
        for workers in worker_counts() {
            for seed in [0u64, 7, 13] {
                let sharded = run_sharded(&sc, workers, seed);
                assert_eq!(
                    baseline.0, sharded.0,
                    "{}: report diverged at workers={workers} partition seed={seed}",
                    sc.name
                );
                assert_eq!(
                    baseline.1, sharded.1,
                    "{}: probe stream diverged at workers={workers} partition seed={seed}",
                    sc.name
                );
            }
        }
    }
}

/// Two sharding-safe workloads at 100k delivered chunks, far past the
/// fixed matrix above: two opposing 50,000-chunk INRPP transfers across
/// a six-hop line, every chunk crossing several region boundaries, and
/// 32 mixed INRPP/AIMD flows on a 16-pair dumbbell with custody and
/// back-pressure on the shared bottleneck.
fn large_scenarios() -> Vec<Scenario> {
    let line = Topology::line(6, Rate::mbps(97.3), SimDuration::from_nanos(1_300_017));
    let ids: Vec<_> = line.node_ids().collect();
    let deep = |flow, src: usize, dst: usize| {
        (
            TransferSpec {
                flow,
                src: ids[src],
                dst: ids[dst],
                chunks: 50_000,
                start: SimTime::ZERO,
            },
            FlowTransport::Inrpp,
        )
    };
    let line_deep = Scenario {
        name: "line-inrpp-deep",
        cfg: PacketSimConfig {
            transport: TransportKind::Inrpp(inrpp_no_detour_probe()),
            horizon: SimDuration::from_secs(8),
            ..PacketSimConfig::default()
        },
        transfers: vec![deep(1, 0, 5), deep(2, 5, 0)],
        topo: line,
    };

    let pairs = 16u32;
    let mut transfers = Vec::new();
    for i in 0..pairs {
        for (j, kind) in [FlowTransport::Inrpp, FlowTransport::Aimd]
            .into_iter()
            .enumerate()
        {
            let spec = TransferSpec {
                flow: u64::from(i) * 2 + j as u64 + 1,
                src: NodeId(i),
                dst: NodeId(pairs + 2 + i),
                chunks: 3_200,
                start: SimTime::ZERO,
            };
            transfers.push((spec, kind));
        }
    }
    let dumbbell = Scenario {
        name: "dumbbell-mixed-many",
        topo: Topology::dumbbell(
            pairs as usize,
            Rate::mbps(97.3),
            Rate::mbps(393.9),
            SimDuration::from_nanos(2_700_031),
        ),
        cfg: PacketSimConfig {
            transport: TransportKind::Mixed {
                inrpp: inrpp_no_detour_probe(),
                aimd: AimdConfig,
            },
            horizon: SimDuration::from_secs(5),
            ..PacketSimConfig::default()
        },
        transfers,
    };
    vec![line_deep, dumbbell]
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "100k chunks through both drivers take tens of seconds in debug; \
              CI runs it in release with --include-ignored"
)]
fn large_workloads_match_the_sequential_engine() {
    for sc in large_scenarios() {
        let sim = || {
            let mut sim = PacketSim::new(&sc.topo, sc.cfg);
            for &(spec, kind) in &sc.transfers {
                sim.add_transfer_as(spec, kind);
            }
            sim
        };
        let sequential = sim().run();
        let sharded = sim()
            .try_run_sharded(4, 7)
            .expect("the workload meets the sharding preconditions");
        assert_eq!(
            fingerprint(&sequential),
            fingerprint(&sharded),
            "{}: report bits diverged at 4 workers",
            sc.name
        );
        assert_eq!(sequential, sharded, "{}", sc.name);
    }
}

#[test]
fn empty_topology_shards_to_the_sequential_report() {
    let sc = Scenario {
        name: "empty",
        topo: Topology::new("empty"),
        cfg: PacketSimConfig {
            transport: TransportKind::Inrpp(inrpp_no_detour_probe()),
            ..PacketSimConfig::default()
        },
        transfers: Vec::new(),
    };
    let baseline = run_sequential(&sc);
    for workers in [1, 2, 8] {
        assert_eq!(
            baseline,
            run_sharded(&sc, workers, 0),
            "empty topology diverged at workers={workers}"
        );
    }
}

#[test]
fn explicit_contiguous_partitions_are_byte_identical() {
    for sc in scenarios() {
        let baseline = run_sequential(&sc);
        for regions in [2usize, 3, 5] {
            let p = ContiguousPartitioner.partition(&sc.topo, regions);
            let mut sim = PacketSim::new(&sc.topo, sc.cfg);
            for &(spec, kind) in &sc.transfers {
                sim.add_transfer_as(spec, kind);
            }
            let mut tape = Tape::default();
            let r = sim
                .try_run_partitioned_probed(&p, &mut [&mut tape])
                .expect("partitioned");
            assert_eq!(
                baseline.0,
                fingerprint(&r),
                "{}: report diverged under {regions} contiguous regions",
                sc.name
            );
            assert_eq!(
                baseline.1, tape,
                "{}: probes diverged under {regions} contiguous regions",
                sc.name
            );
        }
    }
}

#[test]
fn facade_workers_knob_is_byte_stable_and_typed() {
    use inrpp::session::{Session, SessionError, SessionStrategy, Transfer};
    use inrpp_packetsim::PacketEngine;

    let topo = Topology::line(5, Rate::mbps(9.7), SimDuration::from_nanos(1_100_003));
    let ids: Vec<_> = topo.node_ids().collect();
    let spec = TransferSpec {
        flow: 1,
        src: ids[0],
        dst: ids[4],
        chunks: 90,
        start: SimTime::ZERO,
    };
    let horizon = SimDuration::from_secs(10);
    let seed = 3;
    let session = Session::builder()
        .topology(&topo)
        .transfers(vec![Transfer {
            flow: spec.flow,
            src: spec.src,
            dst: spec.dst,
            chunks: spec.chunks,
            chunk_bytes: PacketSimConfig::default().chunk_bytes,
            start: spec.start,
        }])
        .strategy(SessionStrategy::urp())
        .horizon(horizon)
        .seed(seed)
        .build()
        .expect("builds");
    let mut facade_tape = Tape::default();
    let facade = session
        .run_on(
            &PacketEngine::inrpp(inrpp_no_detour_probe()),
            &mut [&mut facade_tape],
        )
        .expect("facade run");

    // the simulation the facade builds for the session, by hand: the
    // sharded side goes through `PacketSim`
    let sim = || {
        let mut sim = PacketSim::new(
            &topo,
            PacketSimConfig {
                horizon,
                seed,
                transport: TransportKind::Inrpp(inrpp_no_detour_probe()),
                ..PacketSimConfig::default()
            },
        );
        sim.add_transfer_as(spec, FlowTransport::Inrpp);
        sim
    };
    for workers in worker_counts() {
        let mut tape = Tape::default();
        let sharded = sim()
            .try_run_sharded_probed(workers, seed, &mut [&mut tape])
            .expect("sharded run");
        assert_eq!(
            facade_tape, tape,
            "facade probe stream diverged at {workers} workers"
        );
        let bits = |v: &[f64]| v.iter().map(|u| u.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&facade.channel_utilisation),
            bits(&sharded.channel_utilisation),
            "facade channel utilisation diverged at {workers} workers"
        );
        assert_eq!(facade.flows.len(), sharded.flows.len());
        for (rec, st) in facade.flows.iter().zip(&sharded.flows) {
            assert_eq!(
                (rec.flow, rec.retransmits, rec.detours, rec.custody_rescues),
                (st.flow, st.retransmits, st.detours, st.custody_rescues),
                "facade flow record diverged at {workers} workers"
            );
        }
    }

    // a zero worker count is a typed error, not a panic
    assert!(matches!(
        sim().try_run_sharded(0, seed),
        Err(SessionError::InvalidConfig(_))
    ));
}

// ===================================================================
// Property layer
// ===================================================================

/// Random connected topology with sharding-safe (odd-nanosecond) delays
/// and fractional-Mbps rates: a spanning tree plus chords.
fn random_topology(n: usize, extra: usize, seed: u64) -> Topology {
    let mut rng = SimRng::from_seed_u64(seed);
    let mut t = Topology::new("random-shard");
    let ids = t.add_nodes(n);
    let caps = [9.7, 97.3, 993.1];
    let delay = |rng: &mut SimRng| {
        // 0.9–3.9 ms, never a round microsecond
        SimDuration::from_nanos(900_007 + 7919 * rng.index(380) as u64)
    };
    for i in 1..n {
        let parent = ids[rng.index(i)];
        let cap = Rate::mbps(*rng.pick(&caps));
        let d = delay(&mut rng);
        t.add_link(ids[i], parent, cap, d).expect("fresh tree edge");
    }
    for _ in 0..extra {
        let a = ids[rng.index(n)];
        let b = ids[rng.index(n)];
        if a != b && t.link_between(a, b).is_none() {
            let cap = Rate::mbps(*rng.pick(&caps));
            let d = delay(&mut rng);
            let _ = t.add_link(a, b, cap, d);
        }
    }
    t
}

/// Arbitrary dense partition: every node gets a random region, region
/// ids remapped to a dense `0..k`.
fn random_partition(n: usize, regions: usize, rng: &mut SimRng) -> Partition {
    let raw: Vec<usize> = (0..n).map(|_| rng.index(regions)).collect();
    let mut dense = vec![u32::MAX; regions];
    let mut next = 0u32;
    let assignment = raw
        .into_iter()
        .map(|r| {
            if dense[r] == u32::MAX {
                dense[r] = next;
                next += 1;
            }
            dense[r]
        })
        .collect();
    Partition::from_assignment(assignment)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sharded equals sequential bit-for-bit over random topologies,
    /// transfer sets, fault schedules, and partitions — both BFS-grown
    /// and fully arbitrary assignments (regions need not even be
    /// connected; only the lookahead argument relies on topology, not
    /// region shape).
    #[test]
    fn sharded_runs_match_sequential_on_random_inputs(
        n in 4usize..10,
        extra in 0usize..8,
        nflows in 1usize..5,
        knobs in 0u8..8, // bit0: faults, bit1: mixed transport, bit2: tiny custody
        seed in 0u64..500,
    ) {
        let topo = random_topology(n, extra, seed);
        let mut rng = SimRng::from_seed_u64(seed ^ 0x5AAD);
        let mixed = knobs & 2 != 0;
        let mut cfg = PacketSimConfig {
            horizon: SimDuration::from_secs(4),
            seed,
            transport: if mixed {
                TransportKind::Mixed {
                    inrpp: inrpp_no_detour_probe(),
                    aimd: AimdConfig,
                }
            } else {
                TransportKind::Inrpp(inrpp_no_detour_probe())
            },
            ..PacketSimConfig::default()
        };
        if knobs & 1 != 0 {
            // 0.03 drop and 0.01 corrupt, folded: d + (1 - d)c
            cfg.drop_chance = 0.0397;
        }
        if knobs & 4 != 0 {
            if let TransportKind::Inrpp(ref mut ic)
                | TransportKind::Mixed { inrpp: ref mut ic, .. } = cfg.transport
            {
                ic.cache_budget = inrpp_sim::units::ByteSize::bytes(6_000);
                ic.anticipation = 24;
                ic.cache_pressure_threshold = 0.5;
            }
        }
        let mut transfers: Vec<(TransferSpec, FlowTransport)> = Vec::new();
        for f in 0..nflows {
            let src = NodeId(rng.index(n) as u32);
            let dst = NodeId(rng.index(n) as u32);
            if src == dst {
                continue;
            }
            let kind = if mixed && rng.chance(0.5) {
                FlowTransport::Aimd
            } else {
                FlowTransport::Inrpp
            };
            transfers.push((
                TransferSpec {
                    flow: f as u64 + 1,
                    src,
                    dst,
                    chunks: 20 + rng.index(100) as u64,
                    start: SimTime::from_millis(rng.index(300) as u64),
                },
                kind,
            ));
        }
        prop_assume!(!transfers.is_empty());

        let build = || {
            let mut sim = PacketSim::new(&topo, cfg);
            for &(spec, kind) in &transfers {
                sim.add_transfer_as(spec, kind);
            }
            sim
        };
        let mut base_tape = Tape::default();
        let base = build()
            .try_run_probed(&mut [&mut base_tape])
            .expect("sequential");
        let base_fp = fingerprint(&base);

        // a BFS partition at a random worker count...
        let workers = 2 + rng.index(3);
        let p1 = BfsPartitioner { seed: seed ^ 0xB1 }.partition(&topo, workers);
        // ...and a fully arbitrary dense assignment
        let p2 = random_partition(n, 1 + rng.index(n), &mut rng);
        for p in [p1, p2] {
            let mut tape = Tape::default();
            let r = build()
                .try_run_partitioned_probed(&p, &mut [&mut tape])
                .expect("sharded");
            prop_assert_eq!(
                &base_fp,
                &fingerprint(&r),
                "report diverged under partition {:?}",
                p.assignment()
            );
            prop_assert_eq!(
                &base_tape,
                &tape,
                "probe stream diverged under partition {:?}",
                p.assignment()
            );
        }
    }
}

// ===================================================================
// Golden fixture
// ===================================================================

/// Render one sharded run as a reviewable multi-line snapshot: the
/// report fingerprint fields plus the full probe tape.
fn render_sharded_snapshot(sc: &Scenario, workers: usize, seed: u64) -> String {
    use std::fmt::Write;
    let (fp, tape) = run_sharded(sc, workers, seed);
    let mut s = format!(
        "scenario: {}\nworkers: {workers}\npartition_seed: {seed}\n",
        sc.name
    );
    for field in fp.split('|') {
        writeln!(s, "report: {field}").unwrap();
    }
    for (class, time, flow, a, b) in &tape.0 {
        writeln!(s, "probe: {class} {time:?} {flow} {a:#018x} {b:#018x}").unwrap();
    }
    s
}

#[test]
fn sharded_scenario_golden_snapshot_is_stable() {
    // one sharded run pinned byte-for-byte: catches silent drift in the
    // shard protocol (barrier ladder, merge order, fault keying) even if
    // sequential and sharded runs drift *together*. Regenerate with
    // UPDATE_GOLDEN=1 cargo test --test shard_equivalence and review.
    let sc = scenarios().remove(0);
    let got = render_sharded_snapshot(&sc, 3, 7);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/shard_line6_inrpp_faults.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir");
        std::fs::write(&path, &got).expect("write fixture");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); regenerate with \
             UPDATE_GOLDEN=1 cargo test --test shard_equivalence",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "sharded golden snapshot drifted. If intentional, regenerate with \
         UPDATE_GOLDEN=1 cargo test --test shard_equivalence and review."
    );
}
