//! TCP/IP coexistence (paper §4 future work, implemented).
//!
//! Runs INRPP and AIMD (TCP-like) flows *together* on the Fig. 3 network
//! using the mixed-transport engine: routers give INRPP flows custody +
//! detours and AIMD flows plain drop-tail. Shows whether in-network
//! pooling starves a legacy transport sharing the same links.
//!
//! ```text
//! cargo run --release --example tcp_coexistence [--aimd N] [--inrpp N]
//! ```

use inrpp::config::InrppConfig;
use inrpp_packetsim::{
    AimdConfig, FlowTransport, PacketSim, PacketSimConfig, TransferSpec, TransportKind,
};
use inrpp_sim::time::{SimDuration, SimTime};
use inrpp_topology::Topology;

fn arg_count(name: &str, default: u64) -> u64 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("flow counts are integers"))
        .unwrap_or(default)
}

fn main() {
    let n_aimd = arg_count("--aimd", 1);
    let n_inrpp = arg_count("--inrpp", 1);
    let chunks = 500;

    let topo = Topology::fig3();
    let src = topo.node_by_name("1").expect("fig3");
    let dst = topo.node_by_name("4").expect("fig3");

    println!(
        "{n_aimd} AIMD + {n_inrpp} INRPP flows, each {chunks} chunks, all crossing \
         the 2 Mbps bottleneck (detour via node 3 exists)\n"
    );

    let mut sim = PacketSim::new(
        &topo,
        PacketSimConfig {
            transport: TransportKind::Mixed {
                inrpp: InrppConfig::default(),
                aimd: AimdConfig,
            },
            horizon: SimDuration::from_secs(300),
            ..PacketSimConfig::default()
        },
    );
    let mut flow = 0u64;
    for _ in 0..n_aimd {
        flow += 1;
        sim.add_transfer_as(
            TransferSpec {
                flow,
                src,
                dst,
                chunks,
                start: SimTime::ZERO,
            },
            FlowTransport::Aimd,
        );
    }
    for _ in 0..n_inrpp {
        flow += 1;
        sim.add_transfer_as(
            TransferSpec {
                flow,
                src,
                dst,
                chunks,
                start: SimTime::ZERO,
            },
            FlowTransport::Inrpp,
        );
    }

    let r = sim.run();
    println!("{}\n", r.summary());
    for (i, f) in r.flows.iter().enumerate() {
        let kind = if (i as u64) < n_aimd {
            "AIMD "
        } else {
            "INRPP"
        };
        match f.fct() {
            Some(fct) => {
                let goodput =
                    f.chunks_delivered as f64 * r.chunk_bytes.as_bits() as f64 / fct.as_secs_f64();
                println!(
                    "  flow {:>2} [{kind}]  fct {:>8}  goodput {:>5.2} Mbps  \
                     retx {:>3}  reorder {:>3}",
                    f.flow,
                    format!("{fct}"),
                    goodput / 1e6,
                    f.retransmits,
                    f.max_reorder_distance,
                );
            }
            None => println!(
                "  flow {:>2} [{kind}]  unfinished ({:.0}%)",
                f.flow,
                f.progress() * 100.0
            ),
        }
    }
    println!(
        "\nreading: the INRPP flows detour their excess over node 3 instead of \
         duelling at the bottleneck, so the AIMD flows keep roughly the share \
         they would get against other AIMD flows — often more"
    );
}
