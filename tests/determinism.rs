//! Whole-stack determinism: identical seeds must give bit-identical
//! results, across every layer — the invariant everything else rests on.

use inrpp::scenario::{compare_strategies, Fig4Config};
use inrpp_packetsim::{PacketSim, PacketSimConfig, TransferSpec};
use inrpp_sim::time::{SimDuration, SimTime};
use inrpp_topology::io::write_topology;
use inrpp_topology::rocketfuel::{generate_isp, Isp};
use inrpp_topology::Topology;

#[test]
fn topology_generation_is_bit_stable() {
    for isp in Isp::all() {
        let a = write_topology(&generate_isp(isp, 99));
        let b = write_topology(&generate_isp(isp, 99));
        assert_eq!(a, b, "{} generation diverged", isp.name());
        let c = write_topology(&generate_isp(isp, 100));
        assert_ne!(a, c, "{} ignores its seed", isp.name());
    }
}

#[test]
fn flow_level_comparison_is_reproducible() {
    let cfg = Fig4Config {
        duration: SimDuration::from_secs(1),
        mean_flow_bits: 40e6,
        load: 1.4,
        seed: 7,
        ..Fig4Config::default()
    };
    let topo = generate_isp(Isp::Vsnl, 7);
    let a = compare_strategies(&topo, &cfg);
    let b = compare_strategies(&topo, &cfg);
    assert_eq!(a.sp.delivered_bits, b.sp.delivered_bits);
    assert_eq!(a.ecmp.delivered_bits, b.ecmp.delivered_bits);
    assert_eq!(a.urp.delivered_bits, b.urp.delivered_bits);
    assert_eq!(a.urp.completed_flows, b.urp.completed_flows);
    assert_eq!(a.urp.mean_fct_secs, b.urp.mean_fct_secs);
}

#[test]
fn packet_level_run_is_reproducible() {
    let topo = Topology::fig3();
    let run = |seed: u64| {
        let mut sim = PacketSim::new(
            &topo,
            PacketSimConfig {
                horizon: SimDuration::from_secs(30),
                seed,
                // 0.02 drop and 0.01 corrupt, folded: d + (1 - d)c
                drop_chance: 0.0298,
                ..PacketSimConfig::default()
            },
        );
        for f in 0..3u64 {
            sim.add_transfer(TransferSpec {
                flow: f + 1,
                src: topo.node_by_name("1").unwrap(),
                dst: topo.node_by_name(if f == 0 { "4" } else { "3" }).unwrap(),
                chunks: 150,
                start: SimTime::from_millis(f * 100),
            });
        }
        let r = sim.run();
        (
            r.chunks_delivered,
            r.chunks_dropped,
            r.chunks_detoured,
            r.chunks_custodied,
            r.backpressure_msgs,
            r.flows.iter().map(|f| f.completed_at).collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(5), run(5), "same seed must give identical outcomes");
    assert_ne!(
        run(5).1,
        run(6).1,
        "different fault seeds should drop different chunks"
    );
}

#[test]
fn workload_generation_is_reproducible_across_strategies() {
    // the same workload object must be reusable: strategies must not
    // mutate it or depend on hidden global state
    use inrpp_flowsim::sim::{FlowSim, FlowSimConfig};
    use inrpp_flowsim::strategy::SinglePathStrategy;
    use inrpp_flowsim::workload::{Workload, WorkloadConfig};
    let topo = generate_isp(Isp::Vsnl, 3);
    let w = Workload::generate(
        &topo,
        &WorkloadConfig::default(),
        SimDuration::from_secs(1),
        3,
    );
    let cfg = FlowSimConfig {
        horizon: SimDuration::from_secs(5),
    };
    let r1 = FlowSim::new(&topo, &SinglePathStrategy, &w, cfg).run();
    let r2 = FlowSim::new(&topo, &SinglePathStrategy, &w, cfg).run();
    assert_eq!(r1.delivered_bits, r2.delivered_bits);
    assert_eq!(r1.arrived_flows, r2.arrived_flows);
}
