//! A lossy run's memory does not grow with the chunks it sends: each
//! loss draw is numbered by its directed channel's send count, so the
//! packet engine keeps one counter per channel and no per-chunk history.
//!
//! The test has a file of its own so that its process runs only this
//! run, and the process's peak resident set (`VmHWM` in
//! `/proc/self/status`) is this run's peak. It is a 600 s simulation, so
//! debug builds skip it; CI runs it with
//! `cargo test --release --test lossy_run_memory`.

#![cfg(target_os = "linux")]

use inrpp_packetsim::{PacketSim, PacketSimConfig, TransferSpec};
use inrpp_sim::time::{SimDuration, SimTime};
use inrpp_topology::Topology;

/// The process's peak resident set, in KiB.
fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status")
}

#[test]
#[cfg_attr(debug_assertions, ignore = "a 600 s simulation: run in release")]
fn a_lossy_fig3_run_peaks_under_16_mb() {
    let topo = Topology::fig3();
    let node = |name| topo.node_by_name(name).expect("fig3 node");
    let mut sim = PacketSim::new(
        &topo,
        PacketSimConfig {
            horizon: SimDuration::from_secs(600),
            drop_chance: 0.01,
            ..PacketSimConfig::default()
        },
    );
    for (flow, dst, chunks) in [(1, "4", 200_000), (2, "3", 100_000)] {
        sim.add_transfer(TransferSpec {
            flow,
            src: node("1"),
            dst: node(dst),
            chunks,
            start: SimTime::ZERO,
        });
    }
    let r = sim.run();
    assert!(
        r.chunks_dropped > 0,
        "the run must be lossy: {}",
        r.summary()
    );
    let peak = peak_rss_kib();
    // a per-(flow, chunk, channel) draw history peaked at 54 MiB here
    assert!(peak < 16 * 1024, "peak RSS {peak} KiB, bound 16 MiB");
}
