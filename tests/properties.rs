//! Property-based tests (proptest) on the core invariants.
//!
//! Random topologies, random flow sets, random custody traffic — the
//! invariants that must hold regardless: capacity conservation, max-min
//! bottleneck saturation, custody byte accounting, detour classification
//! consistency, and distribution support bounds.

use proptest::prelude::*;

use inrpp_cache::custody::{CustodyStore, EvictionPolicy};
use inrpp_flowsim::allocator::{max_min_allocate, path_dir_indices};
use inrpp_sim::dist::{Distribution, Exponential, Pareto, Zipf};
use inrpp_sim::metrics::JainIndex;
use inrpp_sim::rng::SimRng;
use inrpp_sim::time::{SimDuration, SimTime};
use inrpp_sim::units::{ByteSize, Rate};
use inrpp_topology::detour::{classify_link, DetourClass};
use inrpp_topology::graph::{NodeId, Topology};
use inrpp_topology::kshort::k_shortest_paths;
use inrpp_topology::spath::{cost, shortest_path};

/// Build a random connected topology: a spanning tree plus extra chords.
fn random_topology(n: usize, extra: usize, seed: u64) -> Topology {
    let mut rng = SimRng::from_seed_u64(seed);
    let mut t = Topology::new("random");
    let ids = t.add_nodes(n);
    let caps = [10.0, 100.0, 1000.0];
    for i in 1..n {
        let parent = ids[rng.index(i)];
        let cap = Rate::mbps(*rng.pick(&caps));
        t.add_link(ids[i], parent, cap, SimDuration::from_millis(1))
            .expect("tree edges are fresh");
    }
    for _ in 0..extra {
        let a = ids[rng.index(n)];
        let b = ids[rng.index(n)];
        if a != b && t.link_between(a, b).is_none() {
            let cap = Rate::mbps(*rng.pick(&caps));
            let _ = t.add_link(a, b, cap, SimDuration::from_millis(1));
        }
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// No directed channel is ever oversubscribed, and every flow with a
    /// route gets a strictly positive max-min rate.
    #[test]
    fn allocator_conserves_capacity(
        n in 4usize..20,
        extra in 0usize..20,
        nflows in 1usize..12,
        seed in 0u64..1_000,
    ) {
        let topo = random_topology(n, extra, seed);
        let mut rng = SimRng::from_seed_u64(seed ^ 0xF10);
        let mut flows = Vec::new();
        for _ in 0..nflows {
            let src = NodeId(rng.index(n) as u32);
            let dst = NodeId(rng.index(n) as u32);
            if src == dst {
                continue;
            }
            if let Some(p) = shortest_path(&topo, src, dst, &cost::hops) {
                flows.push(vec![p]);
            }
        }
        let alloc = max_min_allocate(&topo, &flows);
        // conservation
        for (d, &used) in alloc.dir_used.iter().enumerate() {
            let cap = topo
                .link(inrpp_topology::graph::LinkId((d / 2) as u32))
                .capacity
                .as_bps();
            prop_assert!(used <= cap * (1.0 + 1e-6), "channel {d} oversubscribed");
        }
        // positivity + bottleneck saturation (max-min certificate)
        for (f, rate) in alloc.flow_rates.iter().enumerate() {
            prop_assert!(*rate > 0.0, "flow {f} starved");
            let dirs = path_dir_indices(&topo, &flows[f][0]);
            let saturated = dirs.iter().any(|&d| {
                let cap = topo
                    .link(inrpp_topology::graph::LinkId((d / 2) as u32))
                    .capacity
                    .as_bps();
                alloc.dir_used[d] >= cap * (1.0 - 1e-6)
            });
            prop_assert!(saturated, "flow {f} has no saturated bottleneck");
        }
    }

    /// The incremental arena-backed engine and the retained from-scratch
    /// reference allocator produce **bit-identical** `flow_rates`,
    /// `subpath_rates`, and `dir_used` across random synthetic
    /// topologies, multipath (INRP) path sets, and random
    /// arrival/departure interleavings — the exactness contract of
    /// `inrpp_flowsim::engine`.
    #[test]
    fn incremental_engine_matches_reference_allocator(
        n in 5usize..16,
        extra in 0usize..16,
        steps in proptest::collection::vec((0u8..4, 0u64..1024), 1..40),
        seed in 0u64..300,
    ) {
        use inrpp_flowsim::engine::AllocEngine;
        use inrpp_flowsim::strategy::{InrpStrategy, RoutingStrategy};
        use inrpp_topology::spath::Path;
        let topo = random_topology(n, extra, seed);
        let strat = InrpStrategy::with_defaults(&topo);
        let mut engine = AllocEngine::new(&topo);
        // shadow active set in key order, as the reference sees it
        let mut shadow: std::collections::BTreeMap<u64, Vec<Path>> =
            std::collections::BTreeMap::new();
        let mut rng = SimRng::from_seed_u64(seed ^ 0x0A11_0C8A);
        let mut next_key = 0u64;
        for (op, pick) in steps {
            let departure = op == 0 && !shadow.is_empty();
            if departure {
                // retire a pseudo-random active flow
                let keys: Vec<u64> = shadow.keys().copied().collect();
                let k = keys[pick as usize % keys.len()];
                shadow.remove(&k);
                prop_assert!(engine.remove(k).is_some());
            } else {
                let src = NodeId(rng.index(n) as u32);
                let dst = NodeId(rng.index(n) as u32);
                if src == dst {
                    continue;
                }
                // mostly multipath INRP sets; sometimes an unroutable
                // (empty) list, which must freeze to rate 0 in both
                let paths = if op == 3 && pick % 5 == 0 {
                    Vec::new()
                } else {
                    strat.paths_for(&topo, src, dst, pick)
                };
                let key = next_key;
                next_key += 1;
                prop_assert!(engine.insert(key, &paths).is_ok());
                shadow.insert(key, paths);
            }
            engine.allocate();
            let flows: Vec<Vec<Path>> = shadow.values().cloned().collect();
            let reference = max_min_allocate(&topo, &flows);
            prop_assert_eq!(engine.flow_rates(), reference.flow_rates.as_slice());
            prop_assert_eq!(engine.dir_used(), reference.dir_used.as_slice());
            for (pos, want) in reference.subpath_rates.iter().enumerate() {
                prop_assert_eq!(engine.subpath_rates(pos), want.as_slice());
            }
        }
    }

    /// Jain's index of a max-min allocation over identical single-link
    /// flows is exactly 1.
    #[test]
    fn allocator_fair_on_symmetric_flows(nflows in 1usize..16) {
        let topo = Topology::line(2, Rate::mbps(100.0), SimDuration::from_millis(1));
        let flows: Vec<_> = (0..nflows)
            .map(|_| vec![inrpp_topology::spath::Path::new(vec![NodeId(0), NodeId(1)])])
            .collect();
        let alloc = max_min_allocate(&topo, &flows);
        let j = JainIndex::compute(&alloc.flow_rates).expect("rates exist");
        prop_assert!((j - 1.0).abs() < 1e-9);
    }

    /// Custody stores never exceed their byte budget and account releases
    /// exactly, under arbitrary interleavings of store/pop/release.
    #[test]
    fn custody_accounting_invariants(
        ops in proptest::collection::vec((0u8..3, 0u64..8, 0u64..64, 1u64..2000), 1..200),
        cap_kb in 1u64..64,
        policy_pick in 0u8..3,
    ) {
        let policy = match policy_pick {
            0 => EvictionPolicy::Reject,
            1 => EvictionPolicy::Fifo,
            _ => EvictionPolicy::Lru,
        };
        let mut store = CustodyStore::new(ByteSize::kb(cap_kb), policy);
        let mut shadow: std::collections::HashMap<(u64, u64), u64> =
            std::collections::HashMap::new();
        for (op, flow, chunk, bytes) in ops {
            match op {
                0 => {
                    if let Ok(evicted) =
                        store.store(SimTime::ZERO, flow, chunk, ByteSize::bytes(bytes))
                    {
                        for e in evicted {
                            shadow.remove(&(e.flow, e.chunk));
                        }
                        shadow.insert((flow, chunk), bytes);
                    }
                }
                1 => {
                    if let Some((c, _)) = store.pop_next(flow) {
                        prop_assert!(shadow.remove(&(flow, c)).is_some());
                        // in-order drain: no smaller chunk of this flow left
                        prop_assert!(shadow
                            .keys()
                            .filter(|(f, _)| *f == flow)
                            .all(|(_, k)| *k > c));
                    }
                }
                _ => {
                    let had = shadow.remove(&(flow, chunk));
                    let got = store.release(flow, chunk);
                    prop_assert_eq!(had.is_some(), got.is_some());
                }
            }
            let expect: u64 = shadow.values().sum();
            prop_assert_eq!(store.used().as_bytes(), expect, "byte accounting diverged");
            prop_assert!(store.used() <= store.capacity());
            prop_assert_eq!(store.chunk_count(), shadow.len());
        }
    }

    /// The BFS detour classifier agrees with the k-shortest-paths oracle on
    /// random graphs.
    #[test]
    fn detour_classifier_matches_kshortest_oracle(
        n in 4usize..14,
        extra in 0usize..14,
        seed in 0u64..500,
    ) {
        let topo = random_topology(n, extra, seed);
        for lid in topo.link_ids() {
            let l = topo.link(lid);
            let class = classify_link(&topo, lid);
            let ps = k_shortest_paths(&topo, l.a, l.b, 2, &cost::hops);
            // the first path is the direct link; an alternative exists iff
            // a second loopless path exists
            let alt = ps.iter().find(|p| !p.uses_link(&topo, lid));
            match class {
                DetourClass::None => prop_assert!(alt.is_none()),
                DetourClass::OneHop => prop_assert_eq!(alt.unwrap().hops(), 2),
                DetourClass::TwoHop => prop_assert_eq!(alt.unwrap().hops(), 3),
                DetourClass::ThreePlus(k) => {
                    prop_assert_eq!(alt.unwrap().hops() as u32, k + 1)
                }
            }
        }
    }

    /// Distribution samples stay in their mathematical support.
    #[test]
    fn distribution_supports(seed in 0u64..10_000) {
        let mut rng = SimRng::from_seed_u64(seed);
        let e = Exponential::new(2.0).unwrap();
        let p = Pareto::new(3.0, 1.5).unwrap();
        let z = Zipf::new(50, 0.9).unwrap();
        for _ in 0..64 {
            prop_assert!(e.sample(&mut rng) >= 0.0);
            prop_assert!(p.sample(&mut rng) >= 3.0);
            let r = z.sample_rank(&mut rng);
            prop_assert!((1..=50).contains(&r));
        }
    }

    /// Derived RNG streams never collide for distinct stream ids.
    #[test]
    fn rng_streams_are_independent(seed in 0u64..10_000, s1 in 0u64..64, s2 in 0u64..64) {
        prop_assume!(s1 != s2);
        let root = SimRng::from_seed_u64(seed);
        let mut a = root.derive(s1);
        let mut b = root.derive(s2);
        use rand::RngCore;
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        prop_assert_ne!(va, vb);
    }

    /// Channel model invariants: arrivals never precede tx+propagation,
    /// backlog equals accepted-minus-served bits, utilisation stays in
    /// [0, 1].
    #[test]
    fn channel_model_invariants(
        sends in proptest::collection::vec((1u64..20_000, 0u64..50), 1..60),
    ) {
        use inrpp_packetsim::channel::Channel;
        let rate = Rate::mbps(10.0);
        let delay = SimDuration::from_millis(5);
        let mut ch = Channel::new(rate, delay, SimDuration::from_millis(200));
        let mut now = SimTime::ZERO;
        let mut last_arrival = SimTime::ZERO;
        for (bits, gap_ms) in sends {
            now += SimDuration::from_millis(gap_ms);
            let backlog_before = ch.backlog_bits(now);
            prop_assert!(backlog_before >= -1e-6);
            match ch.try_send(now, bits as f64) {
                Ok(arrival) => {
                    // serialisation + propagation is a hard lower bound
                    let min = now + rate.time_to_send(bits as f64) + delay;
                    prop_assert!(arrival >= min);
                    // FIFO: arrivals are monotone
                    prop_assert!(arrival >= last_arrival);
                    last_arrival = arrival;
                }
                Err(e) => {
                    prop_assert!(e.would_wait > SimDuration::from_millis(200));
                }
            }
        }
        prop_assert!(ch.utilisation(SimDuration::from_secs(3600)) <= 1.0);
    }

    /// Weighted CDF sanity: `fraction_le` is monotone and quantiles live
    /// inside the sample range.
    #[test]
    fn weighted_cdf_monotone(
        samples in proptest::collection::vec((0.0f64..100.0, 0.01f64..10.0), 1..100),
        probes in proptest::collection::vec(0.0f64..100.0, 1..20),
    ) {
        use inrpp_flowsim::metrics::WeightedCdf;
        let mut cdf = WeightedCdf::new();
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &(v, w) in &samples {
            cdf.record(v, w);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let mut sorted = probes.clone();
        sorted.sort_by(f64::total_cmp);
        let mut prev = 0.0;
        for &x in &sorted {
            let f = cdf.fraction_le(x);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&f));
            prop_assert!(f >= prev - 1e-12, "fraction_le not monotone");
            prev = f;
        }
        for q in [0.0, 0.25, 0.5, 0.9, 1.0] {
            let v = cdf.quantile(q).expect("non-empty");
            prop_assert!((lo..=hi).contains(&v));
        }
    }

    /// The phase machine's output is always justified by its inputs.
    #[test]
    fn phase_machine_consistency(
        steps in proptest::collection::vec(
            (0.0f64..30.0, 0.1f64..20.0, proptest::bool::ANY, 0.0f64..1.0),
            1..50,
        ),
    ) {
        use inrpp::config::InrppConfig;
        use inrpp::phase::{Phase, PhaseController, PhaseInputs};
        let cfg = InrppConfig::default();
        let mut ctl = PhaseController::new(cfg);
        for (ant, cap, detour, fill) in steps {
            let inputs = PhaseInputs {
                anticipated: Rate::mbps(ant),
                capacity: Rate::mbps(cap),
                detour_available: detour,
                cache_fill: fill,
            };
            let phase = ctl.update(inputs);
            let pressure = ant / cap;
            let cache_hot = fill >= cfg.cache_pressure_threshold;
            match phase {
                Phase::PushData => {
                    // only reachable when pressure is below the enter
                    // threshold and the cache is cool
                    prop_assert!(pressure < cfg.detour_enter + 1e-9);
                    prop_assert!(!cache_hot);
                }
                Phase::Detour => {
                    prop_assert!(detour, "detour phase without detours");
                    prop_assert!(!cache_hot);
                    prop_assert!(pressure > cfg.detour_exit - 1e-9);
                }
                Phase::BackPressure => {
                    prop_assert!(
                        cache_hot || (!detour && pressure > cfg.detour_exit - 1e-9)
                    );
                }
            }
        }
    }

    /// Receiver/sender harmony: for any anticipation window and object
    /// size, the self-clocked pipeline delivers the whole object with
    /// exactly one request per chunk.
    #[test]
    fn endpoint_pipeline_completes(total in 1u64..300, ac in 0u64..40) {
        use inrpp::endpoint::{Receiver, Request, Sender};
        let mut rx = Receiver::new(total, ac);
        let mut tx = Sender::new(0);
        tx.register(1, total);
        let mut requests = 1u64;
        tx.on_request(1, rx.initial_request());
        let mut delivered = 0u64;
        let mut guard = 0u64;
        while !rx.is_complete() {
            guard += 1;
            prop_assert!(guard < 10 * total + 10, "pipeline wedged");
            let Some((flow, chunk)) = tx.next_chunk() else {
                prop_assert!(false, "sender stalled before completion");
                break;
            };
            prop_assert_eq!(flow, 1);
            let out = rx.on_chunk(chunk);
            prop_assert!(!out.duplicate);
            delivered += 1;
            if let Some(req) = out.request {
                requests += 1;
                tx.on_request(1, Request { ..req });
            }
        }
        prop_assert_eq!(delivered, total);
        // one initial request + one per chunk until the window covers all
        prop_assert!(requests <= total + 1);
    }

    /// Fuzz the packet engine: random tiny topologies and transfers must
    /// complete without panics, drops beyond fault injection, or custody
    /// leaks.
    #[test]
    fn packet_engine_fuzz(
        seed in 0u64..64,
        n in 4usize..10,
        extra in 2usize..10,
        nflows in 1usize..4,
    ) {
        use inrpp_packetsim::{PacketSim, PacketSimConfig, TransferSpec};
        let topo = random_topology(n, extra, seed);
        let mut rng = SimRng::from_seed_u64(seed ^ 0xBEEF);
        let mut sim = PacketSim::new(
            &topo,
            PacketSimConfig {
                horizon: SimDuration::from_secs(120),
                ..PacketSimConfig::default()
            },
        );
        let mut added = 0u64;
        for f in 0..nflows {
            let src = NodeId(rng.index(n) as u32);
            let dst = NodeId(rng.index(n) as u32);
            if src == dst {
                continue;
            }
            sim.add_transfer(TransferSpec {
                flow: f as u64 + 1,
                src,
                dst,
                chunks: 20 + rng.index(60) as u64,
                start: SimTime::from_millis(rng.index(100) as u64),
            });
            added += 1;
        }
        prop_assume!(added > 0);
        let r = sim.run();
        prop_assert_eq!(r.completed() as u64, added, "{}", r.summary());
        prop_assert_eq!(r.chunks_dropped, 0, "no faults configured: {}", r.summary());
        for f in &r.flows {
            prop_assert_eq!(f.chunks_delivered, f.chunks_total);
        }
    }

    /// Scenario-catalog topology generators: connected, bit-identical for
    /// equal seeds, capacities on the declared menu, degrees within the
    /// structural bound, and ≥ 1 detour (second loopless path) between
    /// demand-pool pairs.
    #[test]
    fn synth_generator_invariants(
        pairs in 2usize..9,
        segments in 1usize..6,
        n in 12usize..36,
        seed in 0u64..200,
    ) {
        use inrpp_topology::synth::{
            barabasi_albert, demand_pool, fat_tree, het_dumbbell, parking_lot,
            share_attachment, ACCESS_MBPS, DUMBBELL_BOTTLENECK_MBPS, DUMBBELL_DETOUR_MBPS,
            FAT_TREE_MBPS, PARKING_LOT_CHAIN_MBPS, PARKING_LOT_DETOUR_MBPS, SCALE_FREE_MBPS,
        };
        let menu = |extra: &[f64]| -> Vec<f64> {
            ACCESS_MBPS.iter().chain(extra).copied().collect()
        };
        // (topology, rebuild, capacity menu in Mbps, max-degree bound)
        let cases: Vec<(Topology, Topology, Vec<f64>, usize)> = vec![
            (
                het_dumbbell(pairs, seed),
                het_dumbbell(pairs, seed),
                menu(&[DUMBBELL_BOTTLENECK_MBPS, DUMBBELL_DETOUR_MBPS]),
                pairs + 2,
            ),
            (
                parking_lot(segments, seed),
                parking_lot(segments, seed),
                menu(&[PARKING_LOT_CHAIN_MBPS, PARKING_LOT_DETOUR_MBPS]),
                5,
            ),
            (fat_tree(4, seed), fat_tree(4, seed), vec![FAT_TREE_MBPS], 4),
            (
                barabasi_albert(n, 2, seed),
                barabasi_albert(n, 2, seed),
                SCALE_FREE_MBPS.to_vec(),
                usize::MAX,
            ),
        ];
        for (t, again, caps, max_degree) in cases {
            prop_assert!(t.is_connected(), "{} disconnected", t.name());
            // bit-identical rebuild from the same seed
            prop_assert_eq!(t.node_count(), again.node_count());
            prop_assert_eq!(t.link_count(), again.link_count());
            for l in t.link_ids() {
                prop_assert_eq!(t.link(l).a, again.link(l).a, "{}", t.name());
                prop_assert_eq!(t.link(l).b, again.link(l).b);
                prop_assert_eq!(t.link(l).capacity, again.link(l).capacity);
                prop_assert_eq!(t.link(l).delay, again.link(l).delay);
                // declared capacity menu
                let mbps = t.link(l).capacity.as_bps() / 1e6;
                prop_assert!(
                    caps.iter().any(|c| (c - mbps).abs() < 1e-9),
                    "{}: capacity {mbps} Mbps off-menu {caps:?}",
                    t.name()
                );
            }
            // structural degree bound
            for node in t.node_ids() {
                prop_assert!(
                    t.degree(node) <= max_degree,
                    "{}: degree {} exceeds bound {max_degree}",
                    t.name(),
                    t.degree(node)
                );
            }
            // every sampled demand pair has a detour: a second distinct
            // loopless path beyond the shortest one. Pairs single-homed
            // behind the same router are the one principled exception —
            // no topology can detour around a shared access hop.
            let pool = demand_pool(&t);
            prop_assert!(pool.len() >= 2, "{}: demand pool too small", t.name());
            for &a in pool.iter().take(3) {
                for &b in pool.iter().rev().take(3) {
                    if a == b || share_attachment(&t, a, b) {
                        continue;
                    }
                    let ps = k_shortest_paths(&t, a, b, 2, &cost::hops);
                    prop_assert!(
                        ps.len() >= 2,
                        "{}: no detour path between {a} and {b}",
                        t.name()
                    );
                }
            }
        }
    }

    /// Scenario workloads over the synthetic families keep the workload
    /// invariants: distinct endpoints, positive sizes, arrivals inside
    /// the window, and seed determinism.
    #[test]
    fn scenario_workloads_wellformed(seed in 0u64..64, cell in 0usize..16) {
        use inrpp::scenario::scenario_catalog;
        use inrpp_sim::time::SimTime;
        let spec = {
            let mut s = scenario_catalog()[cell];
            s.seed = seed;
            s.duration = SimDuration::from_millis(400);
            s
        };
        let topo = spec.build_topology();
        let w = spec.build_workload(&topo);
        // a 400 ms window at catalog load always produces traffic
        prop_assert!(w.is_ok(), "{}: {:?}", spec.id(), w.err());
        let w = w.expect("checked above");
        let mut prev = SimTime::ZERO;
        for f in &w.flows {
            prop_assert!(f.src != f.dst);
            prop_assert!(f.size_bits >= 1.0);
            prop_assert!(f.arrival >= prev);
            prop_assert!(f.arrival < SimTime::ZERO + spec.duration);
            prev = f.arrival;
        }
        let again = spec.build_workload(&spec.build_topology()).expect("deterministic");
        prop_assert_eq!(w, again);
    }

    /// Generated paths from the INRP strategy are always simple, start and
    /// end correctly, and respect the subpath cap.
    #[test]
    fn inrp_paths_wellformed(n in 5usize..16, extra in 2usize..16, seed in 0u64..200) {
        use inrpp_flowsim::strategy::{InrpStrategy, RoutingStrategy};
        let topo = random_topology(n, extra, seed);
        let strat = InrpStrategy::with_defaults(&topo);
        let mut rng = SimRng::from_seed_u64(seed);
        for key in 0..8u64 {
            let src = NodeId(rng.index(n) as u32);
            let dst = NodeId(rng.index(n) as u32);
            if src == dst {
                continue;
            }
            let paths = strat.paths_for(&topo, src, dst, key);
            for p in &paths {
                prop_assert!(p.is_simple());
                prop_assert_eq!(p.source(), src);
                prop_assert_eq!(p.target(), dst);
                let _ = p.links(&topo); // must be walkable
            }
            if !paths.is_empty() {
                for w in paths.windows(2).skip(1) {
                    prop_assert!(w[0].hops() <= w[1].hops());
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The arena/calendar packet engine and the retained seed
    /// implementation (`run_reference`) produce **bit-identical** reports
    /// and probe streams — delivery order, retransmit counts, per-channel
    /// byte totals, traces and float metrics — across random topologies,
    /// transfer sets, and custody/backpressure/fault interleavings. The
    /// packet-engine analogue of
    /// `incremental_engine_matches_reference_allocator`.
    #[test]
    fn packet_engine_matches_reference_runner(
        n in 4usize..10,
        extra in 0usize..10,
        nflows in 1usize..5,
        knobs in 0u8..8, // bit0: tiny custody, bit1: faults, bit2: mixed
        seed in 0u64..200,
    ) {
        use inrpp::session::{FlowEnd, FlowStart, Probe, Sample};
        use inrpp_packetsim::{
            AimdConfig, FlowTransport, PacketSim, PacketSimConfig, TransferSpec, TransportKind,
        };

        #[derive(Default)]
        struct Rec(Vec<(u8, SimTime, u64, u64, u64)>);
        impl Probe for Rec {
            fn on_flow_start(&mut self, ev: &FlowStart) {
                self.0.push((0, ev.time, ev.flow, ev.size_bits.to_bits(), 0));
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

        let topo = random_topology(n, extra, seed);
        let mut rng = SimRng::from_seed_u64(seed ^ 0x9AC7);
        let mixed = knobs & 4 != 0;
        let mut cfg = PacketSimConfig {
            horizon: SimDuration::from_secs(8),
            trace_capacity: 4096,
            ..PacketSimConfig::default()
        };
        if mixed {
            cfg.transport = TransportKind::Mixed {
                inrpp: inrpp::config::InrppConfig::default(),
                aimd: AimdConfig::default(),
            };
        }
        if knobs & 1 != 0 {
            // tiny custody budget under anticipation pressure: forces
            // custody stores, drains, slow-downs and custody-full drops
            if let TransportKind::Inrpp(ref mut ic) | TransportKind::Mixed { inrpp: ref mut ic, .. } =
                cfg.transport
            {
                ic.cache_budget = ByteSize::bytes(6_000);
                ic.anticipation = 24;
                ic.cache_pressure_threshold = 0.5;
            }
        }
        if knobs & 2 != 0 {
            cfg.fault = inrpp_sim::fault::FaultConfig {
                drop_chance: 0.03,
                corrupt_chance: 0.0,
            };
        }
        let mut transfers: Vec<(TransferSpec, FlowTransport)> = Vec::new();
        for f in 0..nflows {
            let src = NodeId(rng.index(n) as u32);
            let dst = NodeId(rng.index(n) as u32);
            let chunks = 30 + rng.index(170) as u64;
            let start = SimTime::from_millis(rng.index(400) as u64);
            let aimd = mixed && rng.chance(0.5);
            if src == dst {
                continue;
            }
            let kind = if aimd {
                FlowTransport::Aimd
            } else {
                FlowTransport::Inrpp
            };
            transfers.push((
                TransferSpec { flow: f as u64 + 1, src, dst, chunks, start },
                kind,
            ));
        }
        prop_assume!(!transfers.is_empty());
        let mut a = PacketSim::new(&topo, cfg);
        let mut b = PacketSim::new(&topo, cfg);
        for &(spec, kind) in &transfers {
            a.add_transfer_as(spec, kind);
            b.add_transfer_as(spec, kind);
        }
        let mut pa = Rec::default();
        let mut pb = Rec::default();
        let ra = a.run_probed(&mut [&mut pa]);
        let rb = b.run_reference_probed(&mut [&mut pb]);
        prop_assert_eq!(ra, rb, "reports diverged");
        prop_assert_eq!(pa.0, pb.0, "probe streams diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Partitioner invariants (the shard layer's soundness conditions):
    /// every node lands in exactly one region, region ids are dense,
    /// cut channels come in symmetric directed pairs, the single-region
    /// partition has no cuts, and a fixed seed fixes the partition.
    #[test]
    fn partitions_cover_nodes_exactly_once(
        n in 2usize..24,
        extra in 0usize..16,
        regions in 1usize..10,
        seed in 0u64..500,
    ) {
        use inrpp_topology::partition::{BfsPartitioner, ContiguousPartitioner, Partitioner};
        let topo = random_topology(n, extra, seed);
        let strategies: [&dyn Partitioner; 2] = [
            &ContiguousPartitioner,
            &BfsPartitioner { seed },
        ];
        for strat in strategies {
            let p = strat.partition(&topo, regions);
            prop_assert!(p.regions() >= 1);
            prop_assert!(p.regions() <= n.min(regions.max(1)));
            // exactly-once coverage: region sets are disjoint and total
            let mut owner = vec![None; n];
            for r in 0..p.regions() {
                for node in p.nodes_in(r) {
                    prop_assert!(
                        owner[node.idx()].is_none(),
                        "node {node} claimed by regions {:?} and {r}",
                        owner[node.idx()]
                    );
                    owner[node.idx()] = Some(r);
                    prop_assert_eq!(p.region_of(node), r);
                }
            }
            prop_assert!(owner.iter().all(|o| o.is_some()), "uncovered node");
            // density: every region id in 0..regions() owns >= 1 node
            for r in 0..p.regions() {
                prop_assert!(!p.nodes_in(r).is_empty(), "region {r} empty");
            }
            // cut channels: symmetric pairs, endpoints in different regions
            let cuts = p.cut_channels(&topo);
            for c in &cuts {
                prop_assert!(c.from_region != c.to_region);
                prop_assert_eq!(p.region_of(c.from), c.from_region);
                prop_assert_eq!(p.region_of(c.to), c.to_region);
                prop_assert_eq!(
                    cuts.iter()
                        .filter(|o| o.link == c.link
                            && o.from == c.to
                            && o.to == c.from
                            && o.from_region == c.to_region
                            && o.to_region == c.from_region)
                        .count(),
                    1,
                    "missing or duplicated mirror of {:?}",
                    c
                );
            }
            // determinism: same inputs, same partition
            prop_assert_eq!(&p, &strat.partition(&topo, regions));
        }
        // the single-region partition is the identity layout: no cuts
        let one = ContiguousPartitioner.partition(&topo, 1);
        prop_assert_eq!(one.regions(), 1);
        prop_assert!(one.cut_channels(&topo).is_empty());
        prop_assert!(one.assignment().iter().all(|&r| r == 0));
    }

    /// `CalendarQueue` pops same-timestamp events in insertion (FIFO)
    /// order — the `(time, seq)` total order the packet engine's
    /// determinism (and the shard layer's replay argument) rests on.
    /// Oracle: a `BinaryHeap` keyed `(time, seq)` driven through the same
    /// random push/pop interleaving, with timestamps drawn from a small
    /// set to force heavy tie collisions.
    #[test]
    fn calendar_queue_breaks_ties_in_insertion_order(
        ops in 1usize..200,
        width_us in 1u64..5_000,
        buckets in 1usize..64,
        seed in 0u64..1_000,
    ) {
        use inrpp_sim::calendar::CalendarQueue;
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let mut rng = SimRng::from_seed_u64(seed ^ 0xCA1E);
        let mut q: CalendarQueue<u64> = CalendarQueue::new(
            SimDuration::from_micros(width_us),
            buckets,
        );
        let mut oracle: BinaryHeap<Reverse<(SimTime, u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = SimTime::ZERO; // queue contract: never push into the past
        for _ in 0..ops {
            if rng.chance(0.6) || q.is_empty() {
                // offsets cluster on few values so same-time runs are long
                let t = now + SimDuration::from_micros(rng.index(4) as u64 * 250);
                q.push(t, seq);
                oracle.push(Reverse((t, seq, seq)));
                seq += 1;
            } else {
                let got = q.pop();
                let want = oracle.pop().map(|Reverse((t, _, id))| (t, id));
                prop_assert_eq!(got, want, "pop order diverged from the FIFO oracle");
                if let Some((t, _)) = got {
                    now = t;
                }
            }
        }
        // drain: the full residual order must agree
        while let Some(got) = q.pop() {
            let want = oracle.pop().map(|Reverse((t, _, id))| (t, id));
            prop_assert_eq!(Some(got), want, "drain order diverged");
        }
        prop_assert!(oracle.is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `f64`-seconds round trip: exact below 2^51 ns, within 1 ns up to
    /// the documented 2^53 granularity boundary. (Each direction of the
    /// conversion rounds once, contributing up to n·2⁻⁵³ each — so the
    /// combined drift stays under the .5 ns rounding threshold only with
    /// two spare mantissa bits.)
    #[test]
    fn time_secs_f64_round_trips(nanos in 0u64..(1u64 << 53)) {
        let d = SimDuration::from_nanos(nanos);
        let back = SimDuration::try_from_secs_f64(d.as_secs_f64()).unwrap();
        if nanos < (1u64 << 51) {
            prop_assert_eq!(back, d);
        } else {
            prop_assert!(back.as_nanos().abs_diff(nanos) <= 1, "drifted past 1 ns");
        }
        let t = SimTime::from_nanos(nanos);
        let back = SimTime::try_from_secs_f64(t.as_secs_f64()).unwrap();
        prop_assert!(back.as_nanos().abs_diff(nanos) <= 1);
    }

    /// `try_from_secs_f64` accepts exactly the representable inputs:
    /// finite, non-negative, and within the u64 nanosecond range —
    /// everything else is a typed error, never a saturated 0.
    #[test]
    fn bad_seconds_are_typed_errors(bits in 0u64..u64::MAX) {
        let secs = f64::from_bits(bits);
        let r = SimDuration::try_from_secs_f64(secs);
        let representable = secs.is_finite()
            && secs >= 0.0
            && secs * 1e9 <= u64::MAX as f64;
        prop_assert_eq!(r.is_ok(), representable, "secs = {}", secs);
        // the two types share the conversion core
        prop_assert_eq!(SimTime::try_from_secs_f64(secs).is_ok(), representable);
    }

    /// Float scaling: `try_mul_f64` is the identity at factor 1 below
    /// the precision boundary, rejects NaN/negative factors, and the
    /// integral operators stay exact at any magnitude.
    #[test]
    fn duration_scaling_is_sane(nanos in 0u64..(1u64 << 52), k in 1u64..1_000) {
        let d = SimDuration::from_nanos(nanos);
        prop_assert_eq!(d.try_mul_f64(1.0).unwrap(), d);
        prop_assert!(d.try_mul_f64(-1.0).is_err());
        prop_assert!(d.try_mul_f64(f64::NAN).is_err());
        prop_assert!(d.try_mul_f64(f64::INFINITY).is_err());
        // integer multiply/divide never round-trips through f64
        prop_assert_eq!(d * k / k, d);
    }

    /// The `# inrpp-trace v1` text format round-trips any valid
    /// transfer schedule exactly: format, re-parse, same transfers.
    #[test]
    fn trace_format_round_trips(
        start_ms in proptest::collection::vec(0u64..100_000, 1..16),
        seed in 0u64..1_000,
    ) {
        use inrpp::session::Transfer;
        use inrpp::source::{format_trace, TraceSource, WorkloadSource};

        let topo = random_topology(6, 4, seed);
        let nodes: Vec<NodeId> = topo.node_ids().collect();
        let mut rng = SimRng::from_seed_u64(seed ^ 0x7ACE);
        let mut starts = start_ms;
        starts.sort_unstable();
        let transfers: Vec<Transfer> = starts
            .iter()
            .enumerate()
            .map(|(i, ms)| {
                let src = nodes[rng.index(nodes.len())];
                let dst = loop {
                    let d = nodes[rng.index(nodes.len())];
                    if d != src {
                        break d;
                    }
                };
                Transfer {
                    flow: i as u64 + 1,
                    src,
                    dst,
                    chunks: 1 + rng.index(5_000) as u64,
                    chunk_bytes: ByteSize::bytes(1250),
                    start: SimTime::from_millis(*ms),
                }
            })
            .collect();

        let text = format_trace(&topo, &transfers);
        let mut source = TraceSource::new(&topo, std::io::Cursor::new(text));
        let mut parsed = Vec::new();
        while let Some(t) = source.peek().expect("valid trace") {
            parsed.push(t);
            source.pop();
        }
        prop_assert_eq!(parsed, transfers);
    }
}

/// A code point for the wire-string round trip, drawn by class so every
/// class an escaper can get wrong shows up often: ASCII (control
/// characters, quotes and backslashes included), the rest of the BMP,
/// and the astral planes, which take a surrogate pair when escaped.
/// Surrogate code points are not `char`s and map to U+FFFD.
fn wire_char(class: u8, v: u32) -> char {
    let c = match class {
        0 => v % 0x80,
        1 => v % 0x1_0000,
        _ => v % 0x11_0000,
    };
    char::from_u32(c).unwrap_or('\u{fffd}')
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The serve protocol's reader takes back any string the workspace's
    /// one JSON writer emits, and the same string with every character
    /// written as a `\uXXXX` escape (a client's `ensure_ascii` form),
    /// whether it is a key or a value.
    #[test]
    fn wire_strings_round_trip_through_the_shared_escaper(
        points in proptest::collection::vec((0u8..3, 0u32..0x11_0000), 0..48),
    ) {
        use inrpp_runner::json_string;
        use inrpp_server::protocol::{parse_object, Json};

        let s: String = points.iter().map(|&(class, v)| wire_char(class, v)).collect();
        let mut written = String::new();
        json_string(&mut written, &s);
        let mut ascii = String::from("\"");
        for unit in s.encode_utf16() {
            ascii.push_str(&format!("\\u{unit:04x}"));
        }
        ascii.push('"');
        for lit in [&written, &ascii] {
            let line = format!("{{{lit}:{lit},\"n\":1}}");
            prop_assert_eq!(
                parse_object(&line),
                Ok(vec![(s.clone(), Json::Str(s.clone())), ("n".to_string(), Json::Num(1.0))])
            );
        }
    }
}
