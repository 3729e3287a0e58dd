//! End-to-end assertions of every reproduced paper artifact.
//!
//! These are the "does the repo actually reproduce the paper" tests: one
//! per table/figure/claim, using the same code paths as the bench
//! binaries but with assertions instead of printouts.

use inrpp::fairness::fig3_outcome;
use inrpp::scenario::{run_fig4_row, Fig4Config};
use inrpp_cache::sizing::holding_time;
use inrpp_sim::time::{SimDuration, SimTime};
use inrpp_sim::units::{ByteSize, Rate};
use inrpp_topology::detour::analyze;
use inrpp_topology::rocketfuel::{generate_isp, Isp};

/// Table 1: every generated ISP topology's detour distribution must sit
/// within a few percentage points of the published row, and the averages
/// must match the paper's "Average" line.
#[test]
fn table1_detour_distributions() {
    let mut avg_measured = [0.0f64; 4];
    let paper_avg = [52.80, 30.86, 3.24, 13.10];
    for isp in Isp::all() {
        let topo = generate_isp(isp, 1221);
        assert!(topo.is_connected(), "{} must be connected", isp.name());
        let (_, s) = analyze(&topo);
        let measured = [
            s.one_hop_pct(),
            s.two_hop_pct(),
            s.three_plus_pct(),
            s.none_pct(),
        ];
        let paper = isp.paper_row();
        for i in 0..4 {
            assert!(
                (measured[i] - paper[i]).abs() < 4.0,
                "{} column {i}: measured {:.2} vs paper {:.2}",
                isp.name(),
                measured[i],
                paper[i]
            );
            avg_measured[i] += measured[i] / 9.0;
        }
    }
    for i in 0..4 {
        assert!(
            (avg_measured[i] - paper_avg[i]).abs() < 2.5,
            "average column {i}: {avg_measured:?} vs {paper_avg:?}"
        );
    }
}

/// Fig. 3: e2e control yields (2, 8) Mbps with Jain 0.73; INRPP yields
/// (5, 5) Mbps with Jain 1.0.
#[test]
fn fig3_fairness_numbers() {
    let out = fig3_outcome();
    assert!((out.e2e_rates[0] - 2e6).abs() < 1e3);
    assert!((out.e2e_rates[1] - 8e6).abs() < 1e3);
    assert!((out.e2e_jain - 0.7353).abs() < 1e-3);
    assert!((out.inrpp_rates[0] - 5e6).abs() < 1e3);
    assert!((out.inrpp_rates[1] - 5e6).abs() < 1e3);
    assert!((out.inrpp_jain - 1.0).abs() < 1e-6);
}

/// Fig. 4a shape on one topology (quick configuration): URP beats SP,
/// ECMP is never worse than SP.
#[test]
fn fig4a_ordering_holds() {
    let cfg = Fig4Config {
        duration: SimDuration::from_secs(2),
        mean_flow_bits: 60e6,
        load: 1.5,
        seed: 1221,
        ..Fig4Config::default()
    };
    let row = run_fig4_row(Isp::Exodus, &cfg);
    let (sp, ecmp, urp) = (
        row.sp.throughput(),
        row.ecmp.throughput(),
        row.urp.throughput(),
    );
    assert!(sp < 1.0, "the run must be overloaded, got SP {sp}");
    assert!(urp > sp, "URP {urp} must beat SP {sp}");
    assert!(
        ecmp >= sp * 0.98,
        "ECMP {ecmp} must not trail SP {sp} meaningfully"
    );
    let gain = 100.0 * (urp - sp) / sp;
    assert!(
        (3.0..40.0).contains(&gain),
        "URP gain {gain:.1}% out of plausible band (paper: 9-15%)"
    );
}

/// Fig. 4b shape: under URP at overload, at least half the traffic stays
/// on shortest paths and the stretch tail is modest.
#[test]
fn fig4b_stretch_shape() {
    let cfg = Fig4Config {
        duration: SimDuration::from_secs(2),
        mean_flow_bits: 60e6,
        load: 1.5,
        seed: 1221,
        ..Fig4Config::default()
    };
    let row = run_fig4_row(Isp::Tiscali, &cfg);
    let mut urp = row.urp.into_fluid().expect("fluid engine run");
    let f1 = urp.stretch.fraction_le(1.0);
    assert!(f1 >= 0.5, "mass at stretch 1.0 is {f1}");
    let q95 = urp.stretch.quantile(0.95).expect("stretch samples");
    assert!(q95 <= 1.6, "p95 stretch {q95} too large");
}

/// §3.3 custody claim: a 10 GB cache behind a 40 Gbps link holds exactly
/// 2 seconds of line-rate traffic.
#[test]
fn custody_headline_claim() {
    assert_eq!(
        holding_time(ByteSize::gb(10), Rate::gbps(40.0)),
        SimDuration::from_secs(2)
    );
}

/// The packet-level system claim: INRPP completes a bottlenecked transfer
/// faster than AIMD and without packet drops (paper §1: "move traffic
/// faster without causing packet drops").
#[test]
fn inrpp_beats_aimd_without_drops() {
    use inrpp_packetsim::{AimdConfig, PacketSim, PacketSimConfig, TransferSpec, TransportKind};
    use inrpp_topology::Topology;
    let topo = Topology::fig3();
    let spec = TransferSpec {
        flow: 1,
        src: topo.node_by_name("1").unwrap(),
        dst: topo.node_by_name("4").unwrap(),
        chunks: 500,
        start: SimTime::ZERO,
    };
    let mut inrpp_sim = PacketSim::new(
        &topo,
        PacketSimConfig {
            horizon: SimDuration::from_secs(60),
            ..PacketSimConfig::default()
        },
    );
    inrpp_sim.add_transfer(spec);
    let ri = inrpp_sim.run();

    let mut aimd_sim = PacketSim::new(
        &topo,
        PacketSimConfig {
            transport: TransportKind::Aimd(AimdConfig),
            horizon: SimDuration::from_secs(60),
            ..PacketSimConfig::default()
        },
    );
    aimd_sim.add_transfer(spec);
    let ra = aimd_sim.run();

    assert_eq!(
        ri.chunks_dropped,
        0,
        "INRPP must not drop: {}",
        ri.summary()
    );
    assert!(
        ra.chunks_dropped > 0,
        "AIMD probes by dropping: {}",
        ra.summary()
    );
    let fi = ri.flows[0].fct().expect("INRPP finishes");
    let fa = ra.flows[0].fct().expect("AIMD finishes");
    assert!(fi < fa, "INRPP FCT {} must beat AIMD {}", fi, fa);
    assert!(
        ri.chunks_detoured > 0,
        "pooling must actually use the detour"
    );
}
