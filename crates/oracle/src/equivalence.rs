//! Reference-equivalence suite: the shipped arena/calendar engine
//! (`inrpp_packetsim::PacketSim`) must be **bit-identical** to the seed
//! implementation in [`crate::run`] — whole-report `assert_eq!` (floats
//! and per-channel byte totals included) plus probe-stream identity.

use inrpp::config::InrppConfig;
use inrpp::session::{FlowEnd, FlowStart, Probe, Sample};
use inrpp_packetsim::packet::{
    AimdConfig, FlowId, FlowTransport, PacketSimConfig, TransferSpec, TransportKind,
};
use inrpp_packetsim::PacketSim;
use inrpp_sim::time::{SimDuration, SimTime};
use inrpp_sim::units::{ByteSize, Rate};
use inrpp_topology::graph::{NodeId, Topology};

fn n(t: &Topology, s: &str) -> NodeId {
    t.node_by_name(s).unwrap()
}

fn transfer(t: &Topology, flow: FlowId, src: &str, dst: &str, chunks: u64) -> TransferSpec {
    TransferSpec {
        flow,
        src: n(t, src),
        dst: n(t, dst),
        chunks,
        start: SimTime::ZERO,
    }
}

fn inrpp_cfg() -> PacketSimConfig {
    PacketSimConfig {
        horizon: SimDuration::from_secs(30),
        ..PacketSimConfig::default()
    }
}

/// Run the same scenario through both engines and demand identical
/// reports and probe streams.
fn assert_equivalent(
    topo: &Topology,
    cfg: &PacketSimConfig,
    transfers: &[(TransferSpec, FlowTransport)],
) {
    let mut a = PacketSim::new(topo, *cfg);
    for &(spec, kind) in transfers {
        a.add_transfer_as(spec, kind);
    }
    let mut pa = Rec::default();
    let mut pb = Rec::default();
    let new = a.run_probed(&mut [&mut pa]);
    let reference = crate::run(topo, *cfg, transfers.to_vec(), &mut [&mut pb]);
    assert_eq!(new, reference);
    assert!(!pa.0.is_empty(), "probes must observe the run");
    assert_eq!(pa.0, pb.0, "probe streams diverged");
}

#[test]
fn quiet_inrpp_flow_matches_reference() {
    let t = Topology::fig3();
    let spec = transfer(&t, 1, "1", "3", 200);
    assert_equivalent(&t, &inrpp_cfg(), &[(spec, FlowTransport::Inrpp)]);
}

#[test]
fn detour_heavy_run_matches_reference_with_trace() {
    let t = Topology::fig3();
    let spec = transfer(&t, 1, "1", "4", 800);
    assert_equivalent(&t, &inrpp_cfg(), &[(spec, FlowTransport::Inrpp)]);
}

#[test]
fn aimd_run_matches_reference() {
    let t = Topology::fig3();
    let cfg = PacketSimConfig {
        transport: TransportKind::Aimd(AimdConfig),
        horizon: SimDuration::from_secs(30),
        ..PacketSimConfig::default()
    };
    let spec = transfer(&t, 1, "1", "4", 400);
    assert_equivalent(&t, &cfg, &[(spec, FlowTransport::Aimd)]);
}

#[test]
fn mixed_transports_match_reference() {
    let t = Topology::fig3();
    let cfg = PacketSimConfig {
        transport: TransportKind::Mixed {
            inrpp: InrppConfig::default(),
            aimd: AimdConfig,
        },
        horizon: SimDuration::from_secs(30),
        ..PacketSimConfig::default()
    };
    assert_equivalent(
        &t,
        &cfg,
        &[
            (transfer(&t, 1, "1", "4", 300), FlowTransport::Inrpp),
            (transfer(&t, 2, "1", "4", 300), FlowTransport::Aimd),
        ],
    );
}

#[test]
fn custody_overload_matches_reference() {
    // tiny custody budget + overload: custody, drains, back-pressure,
    // slow-down propagation and custody-full drops all exercised
    let t = Topology::fig3();
    let mut cfg = inrpp_cfg();
    cfg.horizon = SimDuration::from_secs(20);
    if let TransportKind::Inrpp(ref mut ic) = cfg.transport {
        ic.cache_budget = ByteSize::bytes(4_000);
        ic.anticipation = 32;
        ic.cache_pressure_threshold = 0.5;
    }
    assert_equivalent(
        &t,
        &cfg,
        &[
            (transfer(&t, 1, "1", "4", 1000), FlowTransport::Inrpp),
            (transfer(&t, 2, "1", "4", 1000), FlowTransport::Inrpp),
        ],
    );
}

#[test]
fn fault_injection_matches_reference() {
    // both engines must key the same fault draw to every send attempt
    let t = Topology::fig3();
    let mut cfg = inrpp_cfg();
    cfg.drop_chance = 0.05;
    cfg.horizon = SimDuration::from_secs(60);
    let spec = transfer(&t, 1, "1", "3", 300);
    assert_equivalent(&t, &cfg, &[(spec, FlowTransport::Inrpp)]);
}

#[test]
fn staggered_and_duplicate_flow_ids_match_reference() {
    // the second spec for flow 1 must win (reference `insert`
    // semantics) while sender registration keeps insertion order;
    // duplicates are only legal from distinct sources (the same
    // sender rejects a re-registered flow id in both engines)
    let t = Topology::fig3();
    let mut dup = transfer(&t, 1, "2", "4", 50);
    dup.start = SimTime::from_millis(200);
    let mut late = transfer(&t, 2, "2", "4", 120);
    late.start = SimTime::from_millis(700);
    assert_equivalent(
        &t,
        &inrpp_cfg(),
        &[
            (transfer(&t, 1, "1", "3", 80), FlowTransport::Inrpp),
            (late, FlowTransport::Inrpp),
            (dup, FlowTransport::Inrpp),
        ],
    );
}

#[test]
fn dumbbell_many_flows_match_reference() {
    let t = Topology::dumbbell(
        4,
        Rate::mbps(10.0),
        Rate::mbps(5.0),
        SimDuration::from_millis(2),
    );
    let transfers: Vec<(TransferSpec, FlowTransport)> = (0..4u32)
        .map(|i| {
            (
                TransferSpec {
                    flow: i as u64 + 1,
                    src: NodeId(i),
                    dst: NodeId(6 + i),
                    chunks: 200,
                    start: SimTime::ZERO,
                },
                FlowTransport::Inrpp,
            )
        })
        .collect();
    assert_equivalent(&t, &inrpp_cfg(), &transfers);
}

/// Probe recorder that captures every callback bit-exactly.
#[derive(Default)]
struct Rec(Vec<(u8, SimTime, u64, u64, u64)>);

impl Probe for Rec {
    fn on_flow_start(&mut self, ev: &FlowStart) {
        self.0
            .push((0, ev.time, ev.flow, ev.size_bits.to_bits(), 0));
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

#[test]
fn probe_streams_match_reference() {
    let t = Topology::fig3();
    assert_equivalent(
        &t,
        &inrpp_cfg(),
        &[
            (transfer(&t, 1, "1", "4", 500), FlowTransport::Inrpp),
            (transfer(&t, 2, "2", "4", 300), FlowTransport::Inrpp),
        ],
    );
}

// ---- typed-error regressions (the bugfix sweep) ---------------------

#[test]
fn linkless_topology_reports_zero_mean_utilisation() {
    // no channels at all: the mean must be 0.0, not NaN (and both
    // engines agree)
    let mut t = Topology::new("islands");
    let _ = t.add_node();
    let _ = t.add_node();
    let ra = PacketSim::new(&t, inrpp_cfg()).run();
    let rb = crate::run(&t, inrpp_cfg(), Vec::new(), &mut []);
    assert_eq!(ra, rb);
    assert_eq!(ra.mean_utilisation, 0.0);
    assert!(ra.mean_utilisation.is_finite());
}
