//! Custody caching and back-pressure at chunk granularity.
//!
//! Drives the packet-level simulator on the Fig. 3 network: a transfer
//! crossing the 2 Mbps bottleneck under INRPP (push-data → detour →
//! custody → back-pressure) and under the AIMD baseline, side by side —
//! with a chunk-loss knob.
//!
//! ```text
//! cargo run --release --example custody_backpressure [--drop-chance P] [--cache KB]
//! # e.g. 5% chunk loss and a 30 KB custody store:
//! cargo run --release --example custody_backpressure --drop-chance 0.05 --cache 30
//! ```

use inrpp::config::InrppConfig;
use inrpp_packetsim::{AimdConfig, PacketSim, PacketSimConfig, TransferSpec, TransportKind};
use inrpp_sim::time::{SimDuration, SimTime};
use inrpp_sim::units::ByteSize;
use inrpp_topology::Topology;

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let drop_chance: f64 = arg_value("--drop-chance")
        .map(|v| v.parse().expect("--drop-chance takes a probability"))
        .unwrap_or(0.0);
    let cache_kb: u64 = arg_value("--cache")
        .map(|v| v.parse().expect("--cache takes kilobytes"))
        .unwrap_or(64_000);

    let topo = Topology::fig3();
    let src = topo.node_by_name("1").expect("fig3");
    let dst = topo.node_by_name("4").expect("fig3");
    let chunks = 800;

    println!(
        "transfer: {chunks} x 1250 B chunks from node 1 to node 4 across the 2 Mbps bottleneck"
    );
    println!("fault injection: drop-chance {drop_chance}, custody budget {cache_kb} KB\n");

    let inrpp_cfg = PacketSimConfig {
        transport: TransportKind::Inrpp(InrppConfig {
            cache_budget: ByteSize::kb(cache_kb),
            ..InrppConfig::default()
        }),
        horizon: SimDuration::from_secs(120),
        drop_chance,
        ..PacketSimConfig::default()
    };
    let aimd_cfg = PacketSimConfig {
        transport: TransportKind::Aimd(AimdConfig),
        horizon: SimDuration::from_secs(120),
        drop_chance,
        ..PacketSimConfig::default()
    };

    for cfg in [inrpp_cfg, aimd_cfg] {
        let mut sim = PacketSim::new(&topo, cfg);
        sim.add_transfer(TransferSpec {
            flow: 1,
            src,
            dst,
            chunks,
            start: SimTime::ZERO,
        });
        let r = sim.run();
        println!("{}", r.summary());
        if let Some(fct) = r.flows[0].fct() {
            let goodput = chunks as f64 * r.chunk_bytes.as_bits() as f64 / fct.as_secs_f64() / 1e6;
            println!(
                "  -> completed in {fct}, goodput {goodput:.2} Mbps \
                 (bottleneck alone: 2.00, pooled with the node-3 path: up to 5.00)"
            );
        } else {
            println!("  -> did not complete within the horizon");
        }
        println!(
            "  -> custody peak {}, {} chunks took the node-3 detour\n",
            r.custody_peak, r.chunks_detoured
        );
    }
}
