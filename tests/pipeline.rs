//! Cross-crate pipeline tests: generated ISP topology → workload →
//! simulators → metrics, exercising every crate in one flow.

use inrpp::config::InrppConfig;
use inrpp_flowsim::sim::{FlowSim, FlowSimConfig};
use inrpp_flowsim::strategy::{EcmpStrategy, InrpStrategy, SinglePathStrategy};
use inrpp_flowsim::workload::{PairSelector, Workload, WorkloadConfig};
use inrpp_packetsim::{PacketSim, PacketSimConfig, TransferSpec, TransportKind};
use inrpp_sim::time::{SimDuration, SimTime};
use inrpp_sim::units::ByteSize;
use inrpp_topology::io::{read_topology, write_topology};
use inrpp_topology::rocketfuel::{generate_isp, Isp};
use inrpp_topology::stats::graph_stats;

/// Topology → serialise → parse → simulate: the round-tripped topology
/// must behave identically.
#[test]
fn serialisation_roundtrip_preserves_behaviour() {
    let topo = generate_isp(Isp::Vsnl, 11);
    let text = write_topology(&topo);
    let back = read_topology(&text).expect("own output must parse");
    assert_eq!(graph_stats(&topo), graph_stats(&back));

    let w = Workload::generate(
        &topo,
        &WorkloadConfig {
            arrival_rate: 50.0,
            mean_size_bits: 1e6,
            pairs: PairSelector::Uniform,
            ..WorkloadConfig::default()
        },
        SimDuration::from_secs(1),
        11,
    );
    let cfg = FlowSimConfig {
        horizon: SimDuration::from_secs(5),
    };
    let sp = SinglePathStrategy;
    let r1 = FlowSim::new(&topo, &sp, &w, cfg).run();
    let r2 = FlowSim::new(&back, &sp, &w, cfg).run();
    assert_eq!(r1.delivered_bits, r2.delivered_bits);
}

/// All three strategies run on every generated ISP without panicking and
/// conserve offered traffic.
#[test]
fn all_strategies_on_all_isps_smoke() {
    for isp in [Isp::Vsnl, Isp::Telstra, Isp::Tiscali] {
        let topo = generate_isp(isp, 2);
        let w = Workload::generate(
            &topo,
            &WorkloadConfig {
                arrival_rate: 30.0,
                mean_size_bits: 2e6,
                pairs: PairSelector::Uniform,
                ..WorkloadConfig::default()
            },
            SimDuration::from_secs(1),
            2,
        );
        let cfg = FlowSimConfig {
            horizon: SimDuration::from_secs(3),
        };
        let inrp = InrpStrategy::with_defaults(&topo);
        let ecmp = EcmpStrategy;
        let sp = SinglePathStrategy;
        for report in [
            FlowSim::new(&topo, &sp, &w, cfg).run(),
            FlowSim::new(&topo, &ecmp, &w, cfg).run(),
            FlowSim::new(&topo, &inrp, &w, cfg).run(),
        ] {
            assert!(report.delivered_bits <= report.offered_bits * (1.0 + 1e-9));
            assert!(report.throughput() > 0.0, "{}", report.summary());
            assert_eq!(report.arrived_flows, w.len());
        }
    }
}

/// Packet-level INRPP on a generated ISP topology: multi-hop transfers
/// across the core complete, custody stays within budget.
#[test]
fn packetsim_on_generated_isp() {
    let topo = generate_isp(Isp::Vsnl, 4);
    // pick two far-apart nodes deterministically
    let m = inrpp_topology::spath::hop_matrix(&topo);
    let mut best = (0usize, 0usize, 0u32);
    for (i, row) in m.iter().enumerate() {
        for (j, d) in row.iter().enumerate() {
            if let Some(d) = d {
                if *d > best.2 {
                    best = (i, j, *d);
                }
            }
        }
    }
    assert!(best.2 >= 2, "topology should have multi-hop pairs");
    let src = inrpp_topology::graph::NodeId(best.0 as u32);
    let dst = inrpp_topology::graph::NodeId(best.1 as u32);
    let cfg = PacketSimConfig {
        transport: TransportKind::Inrpp(InrppConfig {
            cache_budget: ByteSize::mb(1),
            ..InrppConfig::default()
        }),
        horizon: SimDuration::from_secs(30),
        ..PacketSimConfig::default()
    };
    let mut sim = PacketSim::new(&topo, cfg);
    sim.add_transfer(TransferSpec {
        flow: 1,
        src,
        dst,
        chunks: 300,
        start: SimTime::ZERO,
    });
    let r = sim.run();
    assert_eq!(r.completed(), 1, "{}", r.summary());
    assert!(r.custody_peak <= ByteSize::mb(1));
    assert_eq!(r.flows[0].chunks_delivered, 300);
}

/// Fault-injected end-to-end run over a multi-hop path still completes,
/// with retransmissions doing the recovery.
#[test]
fn lossy_isp_transfer_recovers() {
    let topo = generate_isp(Isp::Vsnl, 4);
    let cfg = PacketSimConfig {
        horizon: SimDuration::from_secs(60),
        // 0.03 drop and 0.01 corrupt, folded: d + (1 - d)c
        drop_chance: 0.0397,
        ..PacketSimConfig::default()
    };
    let n0 = inrpp_topology::graph::NodeId(0);
    let far = topo
        .node_ids()
        .max_by_key(|n| {
            inrpp_topology::spath::shortest_path(&topo, n0, *n, &inrpp_topology::spath::cost::hops)
                .map(|p| p.hops())
                .unwrap_or(0)
        })
        .unwrap();
    let mut sim = PacketSim::new(&topo, cfg);
    sim.add_transfer(TransferSpec {
        flow: 1,
        src: n0,
        dst: far,
        chunks: 200,
        start: SimTime::ZERO,
    });
    let r = sim.run();
    assert_eq!(r.completed(), 1, "{}", r.summary());
    assert!(r.chunks_dropped > 0, "fault injection must bite");
    assert!(r.flows[0].retransmits > 0);
}

/// The custody store integrates with sizing maths: a store provisioned via
/// `required_cache` absorbs exactly the computed burst.
#[test]
fn sizing_and_store_agree() {
    use inrpp_cache::custody::CustodyStore;
    use inrpp_cache::sizing::required_cache;
    use inrpp_sim::units::Rate;
    let burst = required_cache(Rate::mbps(8.0), SimDuration::from_millis(500));
    assert_eq!(burst, ByteSize::bytes(500_000));
    let mut store = CustodyStore::new(burst);
    let chunk = ByteSize::bytes(1_250);
    let n = burst.as_bytes() / chunk.as_bytes();
    for i in 0..n {
        store
            .store(SimTime::ZERO, 1, i, chunk)
            .expect("provisioned burst must fit");
    }
    assert!(store.store(SimTime::ZERO, 1, n, chunk).is_err());
}
