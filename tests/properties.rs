//! Property-based tests (proptest) on the core invariants.
//!
//! Random topologies, random flow sets, random custody traffic — the
//! invariants that must hold regardless: capacity conservation, max-min
//! bottleneck saturation, custody byte accounting, detour classification
//! consistency, and distribution support bounds.

use proptest::prelude::*;

use inrpp_cache::custody::CustodyStore;
use inrpp_flowsim::allocator::{max_min_allocate, path_dir_indices};
use inrpp_sim::dist::{Distribution, Exponential, Pareto};
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
    /// topologies (on the catalog's round capacities or on irregular
    /// ones), multipath (INRP) path sets, random arrival/departure
    /// interleavings, and link degradations and outages through
    /// `set_link_capacity_factor`, checked against the reference run on
    /// a topology carrying the scaled capacities — the exactness contract
    /// of `inrpp_flowsim::engine`.
    #[test]
    fn incremental_engine_matches_reference_allocator(
        n in 5usize..16,
        extra in 0usize..16,
        steps in proptest::collection::vec((0u8..6, 0u64..1024), 1..40),
        seed in 0u64..300,
        irregular in proptest::bool::ANY,
    ) {
        use inrpp_flowsim::engine::AllocEngine;
        use inrpp_flowsim::strategy::{InrpStrategy, RoutingStrategy};
        use inrpp_topology::graph::LinkId;
        use inrpp_topology::spath::Path;
        let mut topo = random_topology(n, extra, seed);
        let mut rng = SimRng::from_seed_u64(seed ^ 0x0A11_0C8A);
        if irregular {
            // anywhere from 0.1 to 10,000 Mbit/s, log-uniform, full mantissa
            for l in 0..topo.link_count() {
                let bps = 1e5 * 10f64.powf(5.0 * rng.f64());
                topo.set_capacity(LinkId(l as u32), Rate::bps(bps));
            }
        }
        let strat = InrpStrategy::with_defaults(&topo);
        let mut engine = AllocEngine::new(&topo);
        // shadow active set in key order, as the reference sees it, and
        // the topology the reference sees: capacities scaled per link
        let mut shadow: std::collections::BTreeMap<u64, Vec<Path>> =
            std::collections::BTreeMap::new();
        let mut scaled = topo.clone();
        let mut next_key = 0u64;
        for (op, pick) in steps {
            if op >= 4 {
                // degrade a link to a random fraction, or take it down
                // (and, on a link already down, bring it back)
                let l = pick as usize % topo.link_count();
                let base = topo.link(LinkId(l as u32)).capacity.as_bps();
                let down = scaled.link(LinkId(l as u32)).capacity.as_bps() == 0.0;
                let factor = match (op, down) {
                    (4, _) => rng.f64(),
                    (_, true) => 1.0,
                    (_, false) => 0.0,
                };
                engine.set_link_capacity_factor(l, factor);
                scaled.set_capacity(LinkId(l as u32), Rate::bps(base * factor));
            } else if op == 0 && !shadow.is_empty() {
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
            let reference = max_min_allocate(&scaled, &flows);
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
    ) {
        let mut store = CustodyStore::new(ByteSize::kb(cap_kb));
        let mut shadow: std::collections::HashMap<(u64, u64), u64> =
            std::collections::HashMap::new();
        for (op, flow, chunk, bytes) in ops {
            match op {
                0 => {
                    if store
                        .store(SimTime::ZERO, flow, chunk, ByteSize::bytes(bytes))
                        .is_ok()
                    {
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
        for _ in 0..64 {
            prop_assert!(e.sample(&mut rng) >= 0.0);
            prop_assert!(p.sample(&mut rng) >= 3.0);
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
        use inrpp_packetsim::channel::ChannelBank;
        let rate = Rate::mbps(10.0);
        let delay = SimDuration::from_millis(5);
        let mut topo = Topology::new("one-link");
        let (a, b) = (topo.add_node(), topo.add_node());
        topo.add_link(a, b, rate, delay).unwrap();
        // directed channel 0 is the link's a -> b direction
        let mut ch = ChannelBank::from_topology(&topo, SimDuration::from_millis(200));
        let mut now = SimTime::ZERO;
        let mut last_arrival = SimTime::ZERO;
        for (bits, gap_ms) in sends {
            now += SimDuration::from_millis(gap_ms);
            let backlog_before = ch.backlog_bits(0, now);
            prop_assert!(backlog_before >= -1e-6);
            match ch.try_send(0, now, bits as f64) {
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
        prop_assert!(ch.utilisation(0, SimDuration::from_secs(3600)) <= 1.0);
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
        use inrpp::phase::{Phase, PhaseController, PhaseInputs, DETOUR_ENTER, DETOUR_EXIT};
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
                    prop_assert!(pressure < DETOUR_ENTER + 1e-9);
                    prop_assert!(!cache_hot);
                }
                Phase::Detour => {
                    prop_assert!(detour, "detour phase without detours");
                    prop_assert!(!cache_hot);
                    prop_assert!(pressure > DETOUR_EXIT - 1e-9);
                }
                Phase::BackPressure => {
                    prop_assert!(
                        cache_hot || (!detour && pressure > DETOUR_EXIT - 1e-9)
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

    /// The receiver against a `BTreeSet` model: deliveries out of order,
    /// duplicated, and numbered at or past the object's end get the
    /// model's reaction, and leave the model's state, at every step. The
    /// reference packet engine shares `Receiver`, so the engine
    /// equivalence gates cannot catch a fault here.
    #[test]
    fn receiver_matches_a_set_model(
        total in 1u64..200,
        ac in 0u64..20,
        steps in 1usize..400,
        seed in 0u64..u64::MAX,
    ) {
        use inrpp::endpoint::{Receiver, Request};
        use std::collections::BTreeSet;
        let mut rx = Receiver::new(total, ac);
        let mut next_unrequested = rx.initial_request().anticipated + 1;
        let mut got = BTreeSet::new();
        let mut r = SimRng::from_seed_u64(seed);
        for _ in 0..steps {
            let chunk = match r.index(10) {
                0 => total + r.index(3) as u64,
                1 => *r.pick(&[1 << 40, u64::MAX]),
                _ => r.index(total as usize) as u64,
            };
            let out = rx.on_chunk(chunk);
            let fresh = chunk < total && got.insert(chunk);
            let missing = (0..).find(|c| !got.contains(c)).expect("a chunk is missing");
            let complete = got.len() as u64 == total;
            let request = (fresh && !complete && next_unrequested < total).then(|| {
                next_unrequested += 1;
                Request { next: missing, ack: Some(chunk), anticipated: next_unrequested - 1 }
            });
            prop_assert_eq!(out.duplicate, !fresh, "chunk {}", chunk);
            prop_assert_eq!(out.completed, fresh && complete, "chunk {}", chunk);
            prop_assert_eq!(out.request, request, "chunk {}", chunk);
            prop_assert_eq!(rx.highest_contiguous(), missing.checked_sub(1));
            prop_assert_eq!(rx.progress(), got.len() as f64 / total as f64);
            prop_assert_eq!(rx.is_complete(), complete);
        }
    }

    /// The sender against a full-scan model of its round robin: a ring of
    /// every flow ever registered, in registration order, rotated one
    /// place per flow examined, and an eligibility check that scans every
    /// flow. Random `register`, `on_request`, `set_mode` and
    /// `next_chunk_where` calls, the last with a random admit predicate,
    /// must give the model's pick and its `has_eligible` at every step.
    /// The reference packet engine shares `Sender`, so the engine
    /// equivalence gates cannot catch a fault in its ring.
    #[test]
    fn sender_matches_a_full_scan_model(
        push_ahead in 0u64..8,
        steps in 1usize..400,
        seed in 0u64..u64::MAX,
    ) {
        use inrpp::endpoint::{Request, Sender, SenderMode};
        use std::collections::VecDeque;
        struct Flow {
            id: u64,
            total: u64,
            highest_requested: Option<u64>,
            next_to_send: u64,
            closed_loop: bool,
        }
        let eligible = |f: &Flow| {
            f.highest_requested.is_some_and(|hr| {
                let limit = if f.closed_loop { hr } else { hr.saturating_add(push_ahead) };
                f.next_to_send <= limit.min(f.total - 1)
            })
        };
        let mut tx = Sender::new(push_ahead);
        let mut flows: Vec<Flow> = Vec::new();
        let mut ring: VecDeque<usize> = VecDeque::new();
        let mut r = SimRng::from_seed_u64(seed);
        // ids are spread out and one past the last is never registered
        let pick_id = |r: &mut SimRng, flows: &[Flow]| match r.index(flows.len() + 1) {
            i if i < flows.len() => flows[i].id,
            _ => 1_000,
        };
        for _ in 0..steps {
            match r.index(10) {
                0 if flows.len() < 12 => {
                    let id = 3 * flows.len() as u64 + r.index(3) as u64;
                    let total = 1 + r.index(40) as u64;
                    tx.register(id, total);
                    ring.push_back(flows.len());
                    flows.push(Flow {
                        id,
                        total,
                        highest_requested: None,
                        next_to_send: 0,
                        closed_loop: false,
                    });
                }
                0..=3 => {
                    let id = pick_id(&mut r, &flows);
                    let anticipated = r.index(48) as u64;
                    tx.on_request(id, Request { next: 0, ack: None, anticipated });
                    if let Some(f) = flows.iter_mut().find(|f| f.id == id) {
                        let hr = f.highest_requested.map_or(anticipated, |h| h.max(anticipated));
                        f.highest_requested = Some(hr.min(f.total - 1));
                    }
                }
                4 => {
                    let id = pick_id(&mut r, &flows);
                    let closed_loop = r.chance(0.5);
                    let mode = if closed_loop { SenderMode::ClosedLoop } else { SenderMode::PushData };
                    tx.set_mode(id, mode);
                    if let Some(f) = flows.iter_mut().find(|f| f.id == id) {
                        f.closed_loop = closed_loop;
                    }
                }
                _ => {
                    let mut admitted = 0u64;
                    for bit in 0..64 {
                        admitted |= u64::from(r.chance(0.75)) << bit;
                    }
                    let admit = |id: u64| admitted >> (id % 64) & 1 == 1;
                    let mut want = None;
                    for _ in 0..ring.len() {
                        let i = ring.pop_front().expect("ring is non-empty in the loop");
                        ring.push_back(i);
                        let f = &mut flows[i];
                        if eligible(f) && admit(f.id) {
                            want = Some((f.id, f.next_to_send));
                            f.next_to_send += 1;
                            break;
                        }
                    }
                    prop_assert_eq!(tx.next_chunk_where(admit), want);
                }
            }
            prop_assert_eq!(tx.has_eligible(), flows.iter().any(eligible));
        }
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

/// A receiver's received set grows with the chunks it holds, not with
/// the object size it declares: one delivery on a 1e15-chunk object
/// stays a few words.
#[test]
fn a_huge_object_receiver_stays_small() {
    use inrpp::endpoint::Receiver;
    let mut rx = Receiver::new(1_000_000_000_000_000, 4);
    let _ = rx.initial_request();
    assert!(!rx.on_chunk(3).duplicate);
    assert!(rx.on_chunk(u64::MAX).duplicate);
    let shown = format!("{rx:?}");
    assert!(shown.len() < 256, "{shown}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// `subtract_repeated`, the allocation engine's O(1) residual step,
    /// equals `count` successive `r -= delta` bit for bit. The inputs aim
    /// at where a closed form could go wrong: residuals from 1 to 1.1e12
    /// at the bottom, the top, or anywhere in their binade; steps that tie
    /// exactly (δ = (k + ½)·ulp); results that land on the binade's lower
    /// edge or a few ulps either side of it; and counts up to 10⁴.
    #[test]
    fn residual_step_matches_repeated_subtraction(
        exp in 0u64..40,
        mantissa in 0u64..(1u64 << 52),
        edge in 0u8..3,
        shape in 0u8..5,
        k in 0u64..(1u64 << 20),
        count in 1u32..10_001,
        frac in 0.0f64..1.0,
    ) {
        use inrpp_flowsim::engine::subtract_repeated;
        let m = match edge {
            0 => mantissa % 4,
            1 => (1u64 << 52) - 1 - mantissa % 4,
            _ => mantissa,
        };
        let floor = f64::from_bits((1023 + exp) << 52);
        let ulp = f64::from_bits((1023 + exp - 52) << 52);
        let r = f64::from_bits(((1023 + exp) << 52) | m);
        let (r, delta) = match shape {
            0 => (r, (k as f64 + 0.5) * ulp),
            // k·ulp steps from exactly `mantissa % 3` ulps above the
            // edge, each off by up to half an ulp either way
            1 => (
                floor + (count as u64 * k + mantissa % 3) as f64 * ulp,
                (k as f64 + frac - 0.5) * ulp,
            ),
            2 => (r, ((r - floor) + (k % 5) as f64 * ulp - 2.0 * ulp) / count as f64),
            3 => (r, k as f64 * ulp * frac),
            _ => (r, r * frac / count as f64),
        };
        prop_assume!(delta > 0.0);
        let mut looped = r;
        for _ in 0..count {
            looped -= delta;
        }
        prop_assert_eq!(
            subtract_repeated(r, delta, count).to_bits(),
            looped.to_bits(),
            "r {} delta {} count {}",
            r,
            delta,
            count
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The arena/calendar packet engine and the retained seed
    /// implementation (`inrpp_packet_oracle::run`) produce **bit-identical** reports
    /// and probe streams — delivery order, retransmit counts, per-channel
    /// byte totals and float metrics — across random topologies,
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
            ..PacketSimConfig::default()
        };
        if mixed {
            cfg.transport = TransportKind::Mixed {
                inrpp: inrpp::config::InrppConfig::default(),
                aimd: AimdConfig,
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
            cfg.drop_chance = 0.03;
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
        for &(spec, kind) in &transfers {
            a.add_transfer_as(spec, kind);
        }
        let mut pa = Rec::default();
        let mut pb = Rec::default();
        let ra = a.run_probed(&mut [&mut pa]);
        let rb = inrpp_packet_oracle::run(&topo, cfg, transfers, &mut [&mut pb]);
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

    /// `CalendarEngine` (the packet engine's queue) against
    /// `event::Engine` (the oracle crate's): the same random interleaving
    /// of `schedule`, `schedule_at`, `next`, `next_at_or_before` and
    /// `peek_time` yields the same `(time, event)` sequence, clocks and
    /// pending counts. `Engine` has no peek, so a sorted copy of its
    /// pending set stands in for one. Delays mix same-instant pushes into the bucket
    /// being drained, pushes past the ring span (the overflow fills and
    /// migrates back) and multi-day idle gaps, over rings of 1–64
    /// buckets and widths from 1 ns to 5 ms. The one documented
    /// difference is allowed: past the horizon the calendar discards the
    /// next event where `Engine` leaves it queued.
    #[test]
    fn calendar_engine_matches_event_engine(
        ops in 1usize..400,
        width_ns in 1u64..5_000_001,
        buckets in 1usize..65,
        horizon_kind in 0u8..3,
        seed in 0u64..u64::MAX,
    ) {
        use inrpp_sim::calendar::CalendarEngine;
        use inrpp_sim::event::Engine;
        use std::collections::BTreeSet;

        const DAY: u64 = 86_400_000_000_000;
        let span = width_ns.saturating_mul(buckets as u64);
        let horizon = match horizon_kind {
            0 => None,
            1 => Some(SimTime::from_nanos(span.saturating_mul(8))),
            _ => Some(SimTime::from_nanos(3 * DAY)),
        };
        let mut cal: CalendarEngine<u64> =
            CalendarEngine::new(SimDuration::from_nanos(width_ns), buckets);
        let mut oracle: Engine<u64> = Engine::new();
        if let Some(h) = horizon {
            cal = cal.with_horizon(h);
            oracle = oracle.with_horizon(h);
        }
        let mut rng = SimRng::from_seed_u64(seed);
        let delay = |rng: &mut SimRng| {
            SimDuration::from_nanos(match rng.index(10) {
                0..=2 => 0,
                3..=4 => rng.index(width_ns as usize + 1) as u64,
                5..=6 => rng.index(span as usize + 1) as u64,
                7..=8 => span + rng.index(3 * span as usize + 1) as u64,
                _ => DAY * (1 + rng.index(2) as u64) + rng.index(1_000) as u64,
            })
        };
        // events the calendar dropped past the horizon that `Engine`
        // still holds
        let mut discarded = 0usize;
        // `Engine`'s pending set; ids grow with insertion, so
        // `(time, id)` order is its pop order
        let mut queued: BTreeSet<(SimTime, u64)> = BTreeSet::new();
        let mut fired = Vec::new();
        for id in 0..ops as u64 {
            match rng.index(20) {
                0..=6 => {
                    let d = delay(&mut rng);
                    cal.schedule(d, id);
                    oracle.schedule(d, id);
                    queued.insert((oracle.now() + d, id));
                }
                7..=9 => {
                    let now = cal.now().as_nanos();
                    let t = if rng.chance(0.1) && now > 0 {
                        SimTime::from_nanos(rng.index(now as usize) as u64)
                    } else {
                        cal.now() + delay(&mut rng)
                    };
                    let accepted = oracle.schedule_at(t, id);
                    prop_assert_eq!(cal.schedule_at(t, id), accepted);
                    if accepted.is_ok() {
                        queued.insert((t, id));
                    }
                }
                10..=14 => {
                    let before = cal.pending();
                    let got = cal.next();
                    let want = oracle.next();
                    prop_assert_eq!(got, want, "next diverged at op {}", id);
                    if got.is_none() && cal.pending() < before {
                        discarded += 1;
                    }
                    if let Some((t, e)) = got {
                        queued.remove(&(t, e));
                        fired.push((t, e));
                    }
                }
                15..=17 => {
                    let limit = cal.now() + delay(&mut rng);
                    let got = cal.next_at_or_before(limit);
                    prop_assert_eq!(got, oracle.next_at_or_before(limit), "windowed pop diverged at op {}", id);
                    if let Some((t, e)) = got {
                        queued.remove(&(t, e));
                        fired.push((t, e));
                    }
                }
                _ => {
                    let (got, want) = (cal.peek_time(), queued.first().map(|&(t, _)| t));
                    match (horizon, want) {
                        (Some(h), Some(t)) if discarded > 0 && t > h => {
                            prop_assert!(got.map_or(true, |g| g > h), "peek {:?} inside the horizon", got);
                        }
                        _ => prop_assert_eq!(got, want, "peek diverged at op {}", id),
                    }
                }
            }
            prop_assert_eq!(cal.now(), oracle.now(), "clocks diverged at op {}", id);
            prop_assert_eq!(cal.pending() + discarded, oracle.pending(), "pending diverged at op {}", id);
            prop_assert_eq!(queued.len(), oracle.pending());
        }
        loop {
            let before = cal.pending();
            let got = cal.next();
            prop_assert_eq!(got, oracle.next(), "drain diverged");
            if got.is_none() {
                discarded += before - cal.pending();
                break;
            }
        }
        prop_assert_eq!(cal.now(), oracle.now());
        prop_assert_eq!(cal.pending() + discarded, oracle.pending());
        for w in fired.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "events fired out of time order");
        }
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
        use inrpp::source::{format_trace, TraceSource};

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

// ===================================================================
// Wire-protocol fuzz gate
// ===================================================================

/// The seq of the `hello` sent after generated line `i` is this plus
/// `i`, a value the grammar never draws: its reply marks where the
/// replies to line `i` end.
const SENTINEL_SEQ: u64 = 1_000_000_000_000;

/// Values that break a field: the wrong type, or a number that is
/// negative, fractional or huge.
const BAD_VALUES: [&str; 12] = [
    "\"x\"",
    "\"warp\"",
    "true",
    "null",
    "[1]",
    "{}",
    "\"\\u00e9\\n\"",
    "-1",
    "0.5",
    "2.5",
    "1e30",
    "-0.25",
];

/// A script of `len` request lines from a small grammar: every
/// command, unknown ones included, with the fields it takes, one of
/// them sometimes broken or missing; truncated requests; blank lines;
/// and byte noise that is not always UTF-8. Requests address two sids
/// drawn per script, so sessions open and then get driven. Every file
/// a line names lies in `dir`, given JSON-escaped.
fn wire_script(seed: u64, len: usize, dir: &str) -> Vec<Vec<u8>> {
    let mut r = SimRng::from_seed_u64(seed);
    let sid_pool = [
        "",
        "\"a\"",
        "\"b\"",
        "\"\"",
        "\"caf\\u00e9\"",
        "\"q\\\"\\\\\"",
    ];
    let first = *r.pick(&sid_pool);
    let sids = [
        first,
        if r.chance(0.7) {
            first
        } else {
            *r.pick(&sid_pool)
        },
    ];
    (0..len)
        .map(|i| match r.index(20) {
            // most scripts start with a session that opens, so later
            // lines reach a live one
            _ if i == 0 && r.chance(0.7) => {
                let engine = r.pick(&["fluid", "packet"]);
                let sid = match sids[0] {
                    "" => String::new(),
                    sid => format!(",\"sid\":{sid}"),
                };
                format!(
                    "{{\"cmd\":\"open\",\"engine\":\"{engine}\",\"topology\":\"fig3\",\
                     \"strategy\":\"urp\",\"horizon_secs\":2{sid}}}"
                )
                .into_bytes()
            }
            0 => {
                let mut line = any_request(&mut r, &sids, dir).into_bytes();
                line.truncate(r.index(line.len()));
                line
            }
            1 => r.pick(&["", " ", "\t \r"]).as_bytes().to_vec(),
            2 => {
                let bytes = b"{}[]\":,\\ aeu019.-\t\r\x00\x7f\x80\xc3\xff";
                (0..1 + r.index(40)).map(|_| *r.pick(bytes)).collect()
            }
            _ => any_request(&mut r, &sids, dir).into_bytes(),
        })
        .collect()
}

/// A request for any command, the unknown `teleport` and the empty
/// one included.
fn any_request(r: &mut SimRng, sids: &[&str; 2], dir: &str) -> String {
    let cmds = [
        "open",
        "open",
        "open",
        "resume",
        "feed",
        "feed",
        "feed",
        "feed",
        "advance",
        "advance",
        "advance",
        "advance",
        "snapshot",
        "checkpoint",
        "stats",
        "close",
        "close",
        "hello",
        "exit",
        "shutdown",
        "teleport",
        "",
    ];
    let cmd = *r.pick(&cmds);
    request(r, cmd, sids, dir)
}

/// One `cmd` request object: the fields it takes, maybe `sid` and
/// `seq`, and sometimes one field broken.
fn request(r: &mut SimRng, cmd: &str, sids: &[&str; 2], dir: &str) -> String {
    let file = |r: &mut SimRng| {
        let name = r.pick(&[
            "a.ckpt",
            "b.ckpt",
            "caf\\u00e9.ckpt",
            "t.trace",
            "no/such.ckpt",
        ]);
        format!("\"{dir}/{name}\"")
    };
    let mut fields: Vec<(&str, String)> = vec![("cmd", format!("\"{cmd}\""))];
    let mut push =
        |key, valid: &[&str], r: &mut SimRng| fields.push((key, r.pick(valid).to_string()));
    match cmd {
        "open" | "resume" => {
            let family = r.pick(&["line", "ring", "star", "mesh", "dumbbell"]);
            let topology = match r.index(20) {
                0..=9 => "fig3".to_string(),
                10..=16 => format!("{family}:{}", r.index(5)),
                17 | 18 => format!(
                    "{family}:{}",
                    r.pick(&[
                        "1025",
                        "100000000",
                        "18446744073709551615",
                        "18446744073709551616"
                    ])
                ),
                _ => r.pick(&["mars", "line:", ":3", "line:-1"]).to_string(),
            };
            push("engine", &["\"fluid\"", "\"packet\""], r);
            push("topology", &[&format!("\"{topology}\"")], r);
            push("strategy", &["\"urp\"", "\"sp\"", "\"inrpp\""], r);
            push("horizon_secs", &["0.5", "1", "2"], r);
            let optional: [(&str, &[&str]); 7] = [
                ("seed", &["0", "7", "13"]),
                ("workers", &["1", "2"]),
                ("chunk_bytes", &["1250", "500", "1e15", "2e16", "1e18"]),
                ("ckpt_every", &["1", "2"]),
                ("ckpt_retain", &["1", "3"]),
                ("probe_fp", &["true", "false"]),
                (
                    "faults",
                    &[
                        "\"linkdown@0.5:0; linkup@1:0\"",
                        "\"crash@0.2:1; recover@0.7:1\"",
                        "\"scale@0.1:1:1e-300\"",
                        "\"linkdown@x:3\"",
                        "\"linkdown@1:99\"",
                    ],
                ),
            ];
            for (key, valid) in optional {
                if r.chance(0.15) {
                    push(key, valid, r);
                }
            }
            if r.chance(0.2) {
                let trace = file(r);
                push("trace", &[&trace], r);
            }
            if r.chance(0.3) {
                push("ckpt_dir", &[&format!("\"{dir}/ck\"")], r);
            }
            if cmd == "resume" && r.chance(0.7) {
                let path = file(r);
                push("path", &[&path], r);
            }
        }
        "feed" => {
            let nodes = [
                "\"1\"",
                "\"2\"",
                "\"3\"",
                "\"4\"",
                "\"n0\"",
                "\"nowhere\"",
                "\"\\u0033\"",
            ];
            push("flow", &["1", "2", "3"], r);
            push("src", &nodes, r);
            push("dst", &nodes, r);
            push("chunks", &["1", "40", "400", "0", "1000000000000000"], r);
            push("start_secs", &["0", "0.1", "1"], r);
        }
        "advance" => {
            push("to_secs", &["0.25", "0.5", "1", "2", "0", "1e-9"], r);
            if r.chance(0.2) {
                push("timeout_ms", &["1", "0.001", "60000"], r);
            }
        }
        "checkpoint" => {
            let path = file(r);
            push("path", &[&path], r);
        }
        _ => {}
    }
    let sid = *r.pick(sids);
    if !sid.is_empty() {
        fields.push(("sid", sid.to_string()));
    }
    if r.chance(0.3) {
        fields.push(("seq", r.pick(&["0", "1", "2"]).to_string()));
    }
    // break one field: a bad value, a lone surrogate, or no value at
    // all; a file field never gets a string, which could name a file
    // outside `dir`
    if r.chance(0.2) {
        let i = r.index(fields.len());
        let bad = match r.index(8) {
            0 => String::new(),
            1 => "\"\\ud800\"".to_string(),
            _ => r.pick(&BAD_VALUES).to_string(),
        };
        if !(matches!(fields[i].0, "path" | "trace" | "ckpt_dir") && bad.starts_with('"')) {
            fields[i].1 = bad;
        }
    }
    let body: Vec<String> = fields
        .iter()
        .filter(|(_, v)| !v.is_empty())
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// A reply, read with the protocol's flat reader. That reader refuses
/// arrays (`hello`'s lists, `stats`' sessions, reports' flows), so each
/// array element, an object or a scalar, is read on its own, and the
/// array itself is read as `null`.
fn read_reply(reply: &str) -> Result<Vec<(String, inrpp_server::protocol::Json)>, String> {
    use inrpp_server::protocol::parse_object;

    let element = |e: &str| match e.trim() {
        "" => Ok(()),
        e if e.starts_with('{') => parse_object(e).map(drop),
        e => parse_object(&format!("{{\"v\":{e}}}")).map(drop),
    };
    let mut flat = String::new();
    let (mut depth, mut start, mut in_str, mut escaped) = (0usize, 0usize, false, false);
    for (i, c) in reply.char_indices() {
        let structural = !in_str;
        if in_str {
            match (escaped, c) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => in_str = false,
                _ => {}
            }
        } else if c == '"' {
            in_str = true;
        }
        match (structural, depth, c) {
            (true, 0, '[') => {
                depth = 1;
                start = i + 1;
            }
            (true, 1, ',') => {
                element(&reply[start..i])?;
                start = i + 1;
            }
            (true, d, '[' | '{') if d > 0 => depth += 1,
            (true, 1, ']') => {
                element(&reply[start..i])?;
                depth = 0;
                flat.push_str("null");
            }
            (true, d, ']' | '}') if d > 0 => depth -= 1,
            (_, 0, c) => flat.push(c),
            _ => {}
        }
    }
    parse_object(&flat)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// Whatever lines a client sends, each non-blank one gets exactly
    /// one reply, until an `exit` with no session open or a `shutdown`
    /// ends the connection; every reply is a JSON object with a boolean
    /// `ok`; and no request takes its session host down.
    #[test]
    fn every_wire_line_gets_one_well_formed_reply(
        seed in 0u64..u64::MAX,
        len in 0usize..13,
        workers in 1usize..3,
    ) {
        use inrpp_server::protocol::{parse_object, str_field, Json};

        let dir = std::env::temp_dir().join(format!("inrpp-wire-fuzz-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("t.trace"), "# inrpp-trace v1\n0 1 1 4 40 1250\n0.2 2 2 3 20 1250\n")
            .unwrap();
        let mut escaped = String::new();
        inrpp_runner::json_string(&mut escaped, &dir.display().to_string());
        let dir_json = &escaped[1..escaped.len() - 1];

        let lines = wire_script(seed, len, dir_json);
        let mut script = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            script.extend_from_slice(line);
            script.extend_from_slice(
                format!("\n{{\"cmd\":\"hello\",\"seq\":{}}}\n", SENTINEL_SEQ + i as u64).as_bytes(),
            );
        }
        let shown = String::from_utf8_lossy(&script).into_owned();
        let mut out = Vec::new();
        let served = inrpp_server::serve_lines_with(&mut std::io::Cursor::new(&script), &mut out, workers);
        prop_assert!(served.is_ok(), "serve loop failed: {:?}\nscript:\n{}", served, shown);
        let out = String::from_utf8(out).expect("replies are UTF-8");
        let replies: Vec<&str> = out.lines().collect();

        let mut rest = &replies[..];
        for (i, line) in lines.iter().enumerate() {
            let text = std::str::from_utf8(line).ok();
            let want = usize::from(text.map_or(true, |t| !t.trim().is_empty()));
            let sentinel = format!(",\"seq\":{}}}", SENTINEL_SEQ + i as u64);
            match rest.iter().position(|r| r.ends_with(&sentinel)) {
                Some(n) => {
                    prop_assert_eq!(n, want, "replies to line {}\nscript:\n{}\nreplies:\n{}", i, shown, out);
                    rest = &rest[n + 1..];
                }
                None => {
                    // the connection ended at this line
                    let cmd = text
                        .and_then(|t| parse_object(t.trim()).ok())
                        .and_then(|o| str_field(&o, "cmd").ok());
                    let ended = match (cmd.as_deref(), rest) {
                        (Some("exit"), []) => true,
                        (Some("shutdown"), [ack]) => ack.contains("\"event\":\"shutdown\""),
                        _ => false,
                    };
                    prop_assert!(ended, "line {} ended the connection\nscript:\n{}\nreplies:\n{}", i, shown, out);
                    rest = &[];
                    break;
                }
            }
        }
        prop_assert!(rest.is_empty(), "replies past the script\nscript:\n{}\nreplies:\n{}", shown, out);

        for reply in &replies {
            let obj = read_reply(reply);
            prop_assert!(obj.is_ok(), "reply does not parse: {:?}\n{}", obj, reply);
            let ok = obj.unwrap().into_iter().find(|(k, _)| k == "ok").map(|(_, v)| v);
            prop_assert!(matches!(ok, Some(Json::Bool(_))), "reply without a boolean ok: {}", reply);
            prop_assert!(!reply.contains("session host"), "a session host died: {}\nscript:\n{}", reply, shown);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ===================================================================
// Trace and fault-plan fuzz gates
// ===================================================================

/// Read a whole trace over `topo`: its transfers, or its first error.
fn read_trace<R: std::io::BufRead>(
    topo: &Topology,
    reader: R,
) -> Result<Vec<inrpp::session::Transfer>, inrpp::session::SessionError> {
    let mut source = inrpp::source::TraceSource::new(topo, reader);
    let mut out = Vec::new();
    while let Some(t) = source.peek()? {
        out.push(t);
        source.pop();
    }
    Ok(out)
}

/// Up to a dozen transfers over `topo` with nondecreasing starts drawn
/// at nanosecond resolution anywhere on the clock, and ids and sizes
/// anywhere in `u64`.
fn trace_transfers(topo: &Topology, r: &mut SimRng) -> Vec<inrpp::session::Transfer> {
    use rand::RngCore;
    let nodes: Vec<NodeId> = topo.node_ids().collect();
    let mut starts: Vec<u64> = (0..r.index(13))
        .map(|_| match r.index(3) {
            0 => r.next_u64(),
            1 => r.next_u64() >> 24,
            _ => r.index(3_000_000_000) as u64,
        })
        .collect();
    starts.sort_unstable();
    starts
        .into_iter()
        .map(|ns| inrpp::session::Transfer {
            flow: if r.chance(0.5) {
                r.next_u64()
            } else {
                r.index(100) as u64
            },
            src: *r.pick(&nodes),
            dst: *r.pick(&nodes),
            chunks: r.next_u64() >> r.index(64),
            chunk_bytes: ByteSize::bytes(r.next_u64() >> r.index(64)),
            start: SimTime::from_nanos(ns),
        })
        .collect()
}

/// Replace field `field` of data line `line` (counted from the first
/// line after the two header lines) of `text` with `with`.
fn edit_trace_field(text: &str, line: usize, field: usize, with: &str) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let target = &mut lines[2 + line];
    let mut fields: Vec<&str> = target.split_whitespace().collect();
    fields[field] = with;
    *target = fields.join(" ");
    lines.join("\n") + "\n"
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `# inrpp-trace v1` texts: valid `format_trace` output round-trips
    /// exactly, starts at nanosecond resolution included. Truncations,
    /// byte noise, bad numbers, unknown nodes, decreasing starts and an
    /// endless line never panic, and each gives transfers or a typed
    /// `InvalidConfig`; decreasing starts and the endless line always
    /// give the error. The endless line is refused after 1 MiB, so no
    /// case holds more than that.
    #[test]
    fn hostile_traces_parse_or_fail_typed(seed in 0u64..u64::MAX) {
        use inrpp::session::SessionError;
        use inrpp::source::format_trace;
        use std::io::Read;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let mut r = SimRng::from_seed_u64(seed);
        let topo = random_topology(2 + r.index(6), r.index(4), seed);
        let transfers = trace_transfers(&topo, &mut r);
        let text = format_trace(&topo, &transfers);
        prop_assert_eq!(read_trace(&topo, text.as_bytes()), Ok(transfers.clone()));

        let data = transfers.len();
        let (what, outcome) = match r.index(6) {
            0 => {
                let cut = r.index(text.len() + 1);
                let bytes = &text.as_bytes()[..cut];
                (format!("truncated at byte {cut}"), catch_unwind(|| read_trace(&topo, bytes)))
            }
            1 => {
                let mut bytes = text.clone().into_bytes();
                let noise = b"\n \t#.-+e0123456789naifmx\x00\x7f\x80\xc3\xff";
                for _ in 0..1 + r.index(4) {
                    let at = r.index(bytes.len());
                    bytes[at] = *r.pick(noise);
                }
                let shown = String::from_utf8_lossy(&bytes).into_owned();
                (shown, catch_unwind(|| read_trace(&topo, &bytes[..])))
            }
            2 | 3 if data > 0 => {
                let line = r.index(data);
                let (field, with) = if r.index(2) == 0 {
                    let bad = ["nan", "inf", "-1", "-0.5", "1e400", "1e-12", "0x10", "1.5", "",
                        "18446744073709551616", "18446744073.709551616", "99999999999.5", "1e19"];
                    (*r.pick(&[0, 1, 4, 5]), *r.pick(&bad))
                } else {
                    (2 + r.index(2), *r.pick(&["mars", "n99", "N0", "#"]))
                };
                let edited = edit_trace_field(&text, line, field, with);
                let shown = edited.clone();
                (shown, catch_unwind(|| read_trace(&topo, edited.as_bytes())))
            }
            4 if transfers.first().map(|t| t.start) != transfers.last().map(|t| t.start) => {
                // the last start moved before the first
                let earlier = inrpp::session::Transfer {
                    start: SimTime::from_nanos(transfers[0].start.as_nanos() - 1),
                    ..transfers[data - 1]
                };
                let mut decreasing = transfers.clone();
                decreasing[data - 1] = earlier;
                let edited = format_trace(&topo, &decreasing);
                let outcome = catch_unwind(|| read_trace(&topo, edited.as_bytes()));
                prop_assert!(
                    matches!(&outcome, Ok(Err(SessionError::InvalidConfig(m))) if m.contains("nondecreasing")),
                    "decreasing starts: {:?}\n{}", outcome, edited
                );
                (edited, outcome)
            }
            _ => {
                let byte = *r.pick(b" 0#\x00\xff");
                let keep = r.index(text.len() + 1);
                let prefix = text.as_bytes()[..keep].to_vec();
                let endless = std::io::BufReader::new(prefix.chain(std::io::repeat(byte)));
                let outcome = catch_unwind(AssertUnwindSafe(|| read_trace(&topo, endless)));
                prop_assert!(
                    matches!(&outcome, Ok(Err(SessionError::InvalidConfig(m))) if m.contains("longer than")),
                    "an endless line of {:?} after {} bytes: {:?}", byte, keep, outcome
                );
                (format!("endless line of {byte:?} after {keep} bytes"), outcome)
            }
        };
        prop_assert!(outcome.is_ok(), "a trace panicked: {}", what);
        let outcome = outcome.unwrap();
        prop_assert!(
            matches!(outcome, Ok(_) | Err(SessionError::InvalidConfig(_))),
            "{}: {:?}", what, outcome
        );
    }
}

/// One fault-plan event in `FaultPlan::parse` syntax, and whether it is
/// valid. Breaks it sometimes: a bad instant, index or value, the
/// wrong argument count, an unknown kind, or a missing separator.
fn fault_event_text(r: &mut SimRng) -> (String, bool) {
    let secs = |r: &mut SimRng| format!("{}.{:03}", r.index(100), r.index(1000));
    let at = secs(r);
    let index = r.index(16).to_string();
    let (kind, args) = match r.index(6) {
        0 => ("linkdown", vec![index]),
        1 => ("linkup", vec![index]),
        2 => ("crash", vec![index]),
        3 => ("recover", vec![index]),
        4 => ("scale", vec![index, format!("0.{:03}", 1 + r.index(999))]),
        _ => {
            let until = format!("{}{}", at, 1 + r.index(9));
            (
                "burst",
                vec![index, format!("0.{:02}", r.index(100)), until],
            )
        }
    };
    if r.chance(0.7) {
        return (format!("{kind}@{at}:{}", args.join(":")), true);
    }
    let bad_number = *r.pick(&[
        "-1",
        "nan",
        "inf",
        "1e400",
        "1e30",
        "",
        "x",
        "0",
        "1.5",
        "-0",
        "4294967296",
        "1e-9",
    ]);
    let text = match r.index(6) {
        0 => format!("{kind}@{bad_number}:{}", args.join(":")),
        1 => {
            let mut args = args;
            let i = r.index(args.len());
            args[i] = bad_number.to_string();
            format!("{kind}@{at}:{}", args.join(":"))
        }
        2 => format!("{kind}@{at}:{}:{}", args.join(":"), r.index(9)),
        3 => format!(
            "{}@{at}:{}",
            r.pick(&["down", "LINKDOWN", "", "burst2"]),
            args.join(":")
        ),
        4 => format!("{kind}{at}:{}", args.join(":")),
        _ => format!("{kind}@{at}"),
    };
    (text, false)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `FaultPlan::parse` strings from the DSL grammar, some events
    /// broken, some bytes replaced by noise: nothing panics, every plan
    /// that parses is sorted by time, and a string of valid events
    /// parses to all of them.
    #[test]
    fn fault_plan_strings_parse_sorted_or_fail_typed(seed in 0u64..u64::MAX) {
        use inrpp_sim::fault::FaultPlan;
        use std::panic::catch_unwind;

        let mut r = SimRng::from_seed_u64(seed);
        let events: Vec<(String, bool)> = (0..r.index(8)).map(|_| fault_event_text(&mut r)).collect();
        let seps = [";", "; ", " ;", ";;", " ; "];
        let mut text = String::new();
        for (i, (event, _)) in events.iter().enumerate() {
            if i > 0 {
                let sep = *r.pick(&seps);
                text.push_str(sep);
            }
            text.push_str(event);
        }
        let mut valid = events.iter().all(|(_, ok)| *ok);
        if r.chance(0.2) && !text.is_empty() {
            let mut chars: Vec<char> = text.chars().collect();
            let at = r.index(chars.len());
            chars[at] = *r.pick(&[';', ':', '@', ' ', '.', '-', 'e', '9', 'é', '\u{1F600}']);
            text = chars.into_iter().collect();
            valid = false;
        }
        let parsed = catch_unwind(|| FaultPlan::parse(&text));
        prop_assert!(parsed.is_ok(), "a plan string panicked: {:?}", text);
        match parsed.unwrap() {
            Ok(plan) => {
                prop_assert!(
                    plan.events().windows(2).all(|w| w[0].at <= w[1].at),
                    "unsorted plan from {:?}", text
                );
                if valid {
                    prop_assert_eq!(plan.len(), events.len(), "{:?}", text);
                }
            }
            Err(e) => prop_assert!(!valid, "a valid plan string was refused: {:?}: {}", text, e),
        }
    }
}

/// The session both checkpoint-gate checkpoints are taken against: Fig. 3
/// with one upfront transfer and a short horizon, so a replay is cheap.
fn checkpoint_gate_session(topo: &Topology) -> inrpp::session::Session<'_> {
    use inrpp::session::{Session, SessionStrategy, Transfer};
    let n = |s: &str| topo.node_by_name(s).unwrap();
    Session::builder()
        .topology(topo)
        .transfers(vec![Transfer {
            flow: 1,
            src: n("1"),
            dst: n("4"),
            chunks: 120,
            chunk_bytes: ByteSize::bytes(1250),
            start: SimTime::ZERO,
        }])
        .strategy(SessionStrategy::urp())
        .horizon(SimDuration::from_secs(2))
        .build()
        .expect("valid session")
}

/// Drive `svc` through a feed and two advances, then checkpoint it.
fn gate_checkpoint(topo: &Topology, svc: &mut dyn inrpp::service::ServiceSession) -> Vec<u8> {
    let n = |s: &str| topo.node_by_name(s).unwrap();
    svc.advance(SimTime::from_millis(150), &mut []).unwrap();
    svc.feed(&inrpp::session::Transfer {
        flow: 2,
        src: n("2"),
        dst: n("3"),
        chunks: 60,
        chunk_bytes: ByteSize::bytes(1250),
        start: SimTime::from_millis(200),
    })
    .unwrap();
    svc.advance(SimTime::from_millis(400), &mut []).unwrap();
    svc.checkpoint().to_bytes()
}

/// One hostile edit of a checkpoint file: a truncation, one to three
/// bit flips, or an 8-byte length prefix overwritten with a hostile
/// count — at the envelope's magic or body prefix, at the body's first
/// sequence, or anywhere. Returns what it did, for the failure message.
fn corrupt_checkpoint(bytes: &mut Vec<u8>, body_len: usize, rng: &mut SimRng) -> String {
    use rand::RngCore;
    match rng.index(3) {
        0 => {
            let cut = rng.index(bytes.len());
            bytes.truncate(cut);
            format!("truncated to {cut} bytes")
        }
        1 => {
            let mut flips = Vec::new();
            for _ in 0..1 + rng.index(3) {
                let (at, bit) = (rng.index(bytes.len()), rng.index(8));
                bytes[at] ^= 1 << bit;
                flips.push((at, bit));
            }
            format!("bits flipped at (byte, bit) {flips:?}")
        }
        _ => {
            let body_at = bytes.len() - body_len;
            let at = match rng.index(4) {
                0 => 0,
                1 => body_at - 8,
                2 => body_at,
                _ => rng.index(bytes.len() - 7),
            };
            let left = (bytes.len() - at - 8) as u64;
            let count = *rng.pick(&[0, 1, left / 2, left, left + 1, u32::MAX as u64, u64::MAX]);
            let count = if rng.chance(0.2) {
                rng.next_u64()
            } else {
                count
            };
            bytes[at..at + 8].copy_from_slice(&count.to_le_bytes());
            format!("length prefix at byte {at} set to {count}")
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Corrupt checkpoint files: truncations, bit flips and edited
    /// length prefixes of a real fluid and a real packet checkpoint go
    /// through `Checkpoint::from_bytes` and, when the envelope parses,
    /// both `FluidService::resume` and `PacketService::resume` (the two
    /// checkpoints share a session fingerprint, so a flipped engine tag
    /// feeds one engine's body to the other's decoder). The envelope has
    /// no checksum, so flips reach the body decoders. Nothing may panic,
    /// and every failure is `CheckpointMismatch` — the wire's
    /// `checkpoint` kind.
    #[test]
    fn corrupt_checkpoints_fail_typed(seed in 0u64..u64::MAX) {
        use inrpp::service::{Checkpoint, FluidBacking, FluidService};
        use inrpp::session::SessionError;
        use inrpp_packetsim::{PacketEngine, PacketService};
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let topo = Topology::fig3();
        let session = checkpoint_gate_session(&topo);
        let backing = FluidBacking::for_session(&session);
        let engine = PacketEngine::default();
        let real = [
            gate_checkpoint(&topo, &mut FluidService::open(&session, &backing).unwrap()),
            gate_checkpoint(&topo, &mut PacketService::open(&engine, &session).unwrap()),
        ];
        let mut rng = SimRng::from_seed_u64(seed);
        for bytes in real {
            let body_len = Checkpoint::from_bytes(&bytes).unwrap().body().len();
            let mut bad = bytes.clone();
            let edit = corrupt_checkpoint(&mut bad, body_len, &mut rng);
            let outcomes = catch_unwind(AssertUnwindSafe(|| match Checkpoint::from_bytes(&bad) {
                Err(e) => vec![Err(e)],
                Ok(c) => vec![
                    FluidService::resume(&session, &backing, &c).map(drop),
                    PacketService::resume(&engine, &session, &c).map(drop),
                ],
            }));
            prop_assert!(outcomes.is_ok(), "a corrupt checkpoint panicked: {}", edit);
            for outcome in outcomes.unwrap() {
                prop_assert!(
                    matches!(outcome, Ok(()) | Err(SessionError::CheckpointMismatch(_))),
                    "{}: {:?}",
                    edit,
                    outcome.err()
                );
            }
        }
    }
}
