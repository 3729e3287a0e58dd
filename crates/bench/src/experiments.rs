//! Experiment implementations — one function per paper artifact/ablation.
//!
//! The CLI prints; these functions compute. Keeping them here makes every
//! experiment unit-testable and lets the sweeps compose them. Every
//! simulation runs through the `inrpp::session` facade — flow-level
//! experiments on the fluid engine, chunk-level ones on the packet
//! engine — and every public function returns a named row type (no
//! anonymous tuples).

use inrpp::config::InrppConfig;
use inrpp::fairness::{fig3_outcome, Fig3Outcome};
use inrpp::scenario::{fig4_topologies, run_fig4_row, Fig4Config, StrategyComparison};
use inrpp::session::{RunReport, Session, SessionStrategy, Transfer};
use inrpp_cache::sizing::{feasibility_table, FeasibilityRow};
use inrpp_packetsim::session::PacketEngine;
use inrpp_packetsim::{AimdConfig, PacketSimConfig, TransportKind};
use inrpp_sim::time::{SimDuration, SimTime};
use inrpp_sim::units::{ByteSize, Rate};
use inrpp_topology::detour::analyze;
use inrpp_topology::graph::Topology;
use inrpp_topology::rocketfuel::{generate_isp, Isp};
use inrpp_topology::stats::graph_stats;

/// Default seed used across all experiments (Telstra's AS number, in the
/// spirit of reproducibility folklore).
pub const SEED: u64 = 1221;

// ---------------------------------------------------------------- Table 1

/// One Table 1 row: measured (generated topology) vs published values.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Which ISP.
    pub isp: Isp,
    /// Measured `[1-hop, 2-hop, 3+, N/A]` percentages.
    pub measured: [f64; 4],
    /// The paper's row.
    pub paper: [f64; 4],
    /// Generated topology size.
    pub nodes: usize,
    /// Generated link count.
    pub links: usize,
}

impl Table1Row {
    /// Largest absolute cell deviation from the paper.
    pub fn max_deviation(&self) -> f64 {
        self.measured
            .iter()
            .zip(self.paper.iter())
            .map(|(m, p)| (m - p).abs())
            .fold(0.0, f64::max)
    }
}

/// One Table 1 cell: regenerate and measure a single ISP's topology.
/// Split out so the sweep runner can schedule the nine ISPs in parallel.
pub fn table1_row(isp: Isp, seed: u64) -> Table1Row {
    let topo = generate_isp(isp, seed);
    let (_, stats) = analyze(&topo);
    let gs = graph_stats(&topo);
    Table1Row {
        isp,
        measured: [
            stats.one_hop_pct(),
            stats.two_hop_pct(),
            stats.three_plus_pct(),
            stats.none_pct(),
        ],
        paper: isp.paper_row(),
        nodes: gs.nodes,
        links: gs.links,
    }
}

/// Regenerate Table 1 on the calibrated topologies.
pub fn table1(seed: u64) -> Vec<Table1Row> {
    Isp::all()
        .into_iter()
        .map(|isp| table1_row(isp, seed))
        .collect()
}

/// The paper's "Average" row: per-column means of the measured and
/// published percentages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1Average {
    /// Measured column means.
    pub measured: [f64; 4],
    /// Published column means.
    pub paper: [f64; 4],
}

/// Column averages — the paper's "Average" row.
pub fn table1_average(rows: &[Table1Row]) -> Table1Average {
    let n = rows.len().max(1) as f64;
    let mut measured = [0.0; 4];
    let mut paper = [0.0; 4];
    for r in rows {
        for i in 0..4 {
            measured[i] += r.measured[i] / n;
            paper[i] += r.paper[i] / n;
        }
    }
    Table1Average { measured, paper }
}

// ------------------------------------------------------------------ Fig. 3

/// The Fig. 3 worked example (re-exported for binaries).
pub fn fig3() -> Fig3Outcome {
    fig3_outcome()
}

// ------------------------------------------------------------------ Fig. 4

/// Fig. 4a: SP vs ECMP vs URP on the paper's three topologies.
pub fn fig4a(cfg: &Fig4Config) -> Vec<StrategyComparison> {
    fig4_topologies()
        .into_iter()
        .map(|isp| run_fig4_row(isp, cfg))
        .collect()
}

/// One point of a stretch CDF: fraction of traffic at stretch `<= x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CdfPoint {
    /// Path stretch (subpath hops / primary hops).
    pub stretch: f64,
    /// Cumulative traffic fraction at or below this stretch.
    pub fraction: f64,
}

/// One topology's URP path-stretch CDF (Fig. 4b).
#[derive(Debug, Clone, PartialEq)]
pub struct StretchCdfRow {
    /// Topology display name.
    pub topology: String,
    /// The traffic-weighted CDF's step points.
    pub points: Vec<CdfPoint>,
}

/// Fig. 4b: the URP stretch CDF per topology.
pub fn fig4b(cfg: &Fig4Config) -> Vec<StretchCdfRow> {
    fig4a(cfg)
        .into_iter()
        .map(|row| {
            let topology = row.topology.clone();
            let mut fluid = row.urp.into_fluid().expect("fluid engine run");
            let points = fluid
                .stretch
                .points()
                .into_iter()
                .map(|(stretch, fraction)| CdfPoint { stretch, fraction })
                .collect();
            StretchCdfRow { topology, points }
        })
        .collect()
}

// ------------------------------------------------------------------ Fig. 2

/// One Fig. 2 row: normalised throughput of the three resource-sharing
/// regimes on a single topology.
#[derive(Debug, Clone, PartialEq)]
pub struct RegimeRow {
    /// Topology display name.
    pub topology: String,
    /// Regime (i): single-path routing.
    pub sp: f64,
    /// Regime (ii): e2e multipath pooling (idealised MPTCP).
    pub mptcp: f64,
    /// Regime (iii): in-network pooling (URP).
    pub urp: f64,
}

/// One Fig. 2 cell: the three regimes on a single topology. Split out so
/// the sweep runner can schedule the topologies in parallel.
pub fn fig2_regime_row(isp: Isp, cfg: &Fig4Config) -> RegimeRow {
    use inrpp::scenario::build_workload;
    use inrpp_topology::rocketfuel::generate_with_capacities;
    let topo = generate_with_capacities(&isp.profile(), cfg.seed, cfg.capacities);
    let workload = build_workload(&topo, cfg);
    let run = |strategy: SessionStrategy| {
        Session::builder()
            .topology(&topo)
            .workload(workload.clone())
            .strategy(strategy)
            .horizon(cfg.duration)
            .seed(cfg.seed)
            .build()
            .expect("regime sessions are well-formed")
            .run()
            .expect("fluid engine accepts every regime")
            .throughput()
    };
    RegimeRow {
        topology: isp.name().to_string(),
        sp: run(SessionStrategy::Sp),
        mptcp: run(SessionStrategy::Mptcp),
        urp: run(SessionStrategy::Urp(cfg.inrp)),
    }
}

// ---------------------------------------------------------- §3.3 custody C1

/// The custody-cache feasibility result (paper §3.3).
#[derive(Debug, Clone, PartialEq)]
pub struct CustodyFeasibility {
    /// The headline: how long a 10 GB cache holds a 40 Gbps line rate.
    pub headline: SimDuration,
    /// The rate × size sweep around it.
    pub rows: Vec<FeasibilityRow>,
}

/// The paper's headline custody claim plus a rate × size sweep.
pub fn custody_feasibility() -> CustodyFeasibility {
    let headline = inrpp_cache::sizing::holding_time(ByteSize::gb(10), Rate::gbps(40.0));
    let rows = feasibility_table(
        &[
            Rate::gbps(1.0),
            Rate::gbps(10.0),
            Rate::gbps(40.0),
            Rate::gbps(100.0),
        ],
        &[
            ByteSize::mb(100),
            ByteSize::gb(1),
            ByteSize::gb(10),
            ByteSize::gb(100),
        ],
        SimDuration::from_millis(500),
    );
    CustodyFeasibility { headline, rows }
}

// -------------------------------------------------------------- Ablation A1

/// One point of the A1 detour-depth sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DepthPoint {
    /// Maximum detour depth (0 = plain SP).
    pub depth: u8,
    /// Normalised throughput at that depth.
    pub throughput: f64,
}

/// A1: detour depth sweep on the Fig. 4a setup (one topology).
pub fn ablation_detour_depth(isp: Isp, cfg: &Fig4Config, depths: &[u8]) -> Vec<DepthPoint> {
    use inrpp::scenario::build_workload;
    use inrpp_flowsim::strategy::InrpConfig;
    use inrpp_topology::rocketfuel::generate_with_capacities;
    let topo = generate_with_capacities(&isp.profile(), cfg.seed, cfg.capacities);
    let workload = build_workload(&topo, cfg);
    depths
        .iter()
        .map(|&depth| {
            let strategy = if depth == 0 {
                SessionStrategy::Sp
            } else {
                SessionStrategy::Urp(InrpConfig {
                    one_hop_detours: true,
                    two_hop_detours: depth >= 2,
                    ..InrpConfig::default()
                })
            };
            let throughput = Session::builder()
                .topology(&topo)
                .workload(workload.clone())
                .strategy(strategy)
                .horizon(cfg.duration)
                .seed(cfg.seed)
                .build()
                .expect("depth sessions are well-formed")
                .run()
                .expect("fluid engine accepts every depth")
                .throughput();
            DepthPoint { depth, throughput }
        })
        .collect()
}

// -------------------------------------------------------------- Ablation A2

fn fig3_packet_cfg(mut inrpp: InrppConfig, horizon: SimDuration) -> PacketSimConfig {
    inrpp.interval = SimDuration::from_millis(50);
    PacketSimConfig {
        transport: TransportKind::Inrpp(inrpp),
        horizon,
        ..PacketSimConfig::default()
    }
}

/// One `chunks`-chunk transfer over the Fig. 3 bottleneck (`1 -> 4`),
/// described for the session facade.
fn fig3_transfer(topo: &Topology, flow: u64, chunks: u64) -> Transfer {
    Transfer {
        flow,
        src: topo.node_by_name("1").expect("fig3"),
        dst: topo.node_by_name("4").expect("fig3"),
        chunks,
        chunk_bytes: PacketSimConfig::default().chunk_bytes,
        start: SimTime::ZERO,
    }
}

/// Run `transfers` over the Fig. 3 network on the packet engine wrapped
/// around `config` — the shared shell of the chunk-level ablations.
fn run_fig3_packet(config: PacketSimConfig, transfers: Vec<Transfer>) -> RunReport {
    let topo = Topology::fig3();
    let strategy = match config.transport {
        TransportKind::Aimd(_) => SessionStrategy::Sp,
        _ => SessionStrategy::urp(),
    };
    Session::builder()
        .topology(&topo)
        .transfers(transfers)
        .strategy(strategy)
        .horizon(config.horizon)
        .seed(config.seed)
        .build()
        .expect("fig3 packet sessions are well-formed")
        .run_on(&PacketEngine::new(config), &mut [])
        .expect("fig3 packet sessions run")
}

/// One point of the A2 anticipation-window sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnticipationPoint {
    /// Anticipation window `A_c` in chunks.
    pub window_chunks: u64,
    /// Completion time of the bottleneck flow, seconds (`inf` when the
    /// flow missed the horizon).
    pub fct_secs: f64,
}

/// A2: anticipation window `A_c` sweep on the Fig. 3 network (packet
/// level).
pub fn ablation_anticipation(values: &[u64]) -> Vec<AnticipationPoint> {
    values
        .iter()
        .map(|&ac| {
            let topo = Topology::fig3();
            let cfg = fig3_packet_cfg(
                InrppConfig {
                    anticipation: ac,
                    ..InrppConfig::default()
                },
                SimDuration::from_secs(60),
            );
            let transfers = vec![fig3_transfer(&topo, 1, 600)];
            let report = run_fig3_packet(cfg, transfers);
            AnticipationPoint {
                window_chunks: ac,
                fct_secs: report.flows[0].fct_secs.unwrap_or(f64::INFINITY),
            }
        })
        .collect()
}

// -------------------------------------------------------------- Ablation A3

/// One point of the A3 custody-budget sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheBudgetPoint {
    /// Custody budget as a multiple of the bottleneck BDP.
    pub budget_x_bdp: f64,
    /// Chunks dropped in the run.
    pub chunks_dropped: u64,
    /// Chunks that took custody at least once.
    pub chunks_custodied: u64,
}

/// A3: custody budget sweep (×BDP of the bottleneck) under overload.
pub fn ablation_cache_size(multipliers: &[f64]) -> Vec<CacheBudgetPoint> {
    let topo = Topology::fig3();
    // BDP of the 2 Mbps bottleneck at ~20 ms RTT ≈ 5 KB; sweep around it
    let bdp =
        inrpp_cache::sizing::bandwidth_delay_product(Rate::mbps(2.0), SimDuration::from_millis(20));
    multipliers
        .iter()
        .map(|&m| {
            let budget = ByteSize::bytes(((bdp.as_bytes() as f64) * m).max(1.0) as u64);
            let cfg = fig3_packet_cfg(
                InrppConfig {
                    cache_budget: budget,
                    anticipation: 16,
                    ..InrppConfig::default()
                },
                SimDuration::from_secs(40),
            );
            let transfers = (0..2u64)
                .map(|f| fig3_transfer(&topo, f + 1, 1200))
                .collect();
            let report = run_fig3_packet(cfg, transfers);
            let summary = report.packet().expect("packet engine run");
            CacheBudgetPoint {
                budget_x_bdp: m,
                chunks_dropped: summary.chunks_dropped,
                chunks_custodied: summary.chunks_custodied,
            }
        })
        .collect()
}

// -------------------------------------------------------------- Ablation A4

/// One side of A4: the 800-chunk Fig. 3 transfer over `transport` alone,
/// as a unified facade report. Split out so the sweep runner can schedule
/// the two contenders as independent cells.
pub fn ablation_transport_single(transport: TransportKind) -> RunReport {
    let topo = Topology::fig3();
    let cfg = match transport {
        TransportKind::Inrpp(ic) => fig3_packet_cfg(ic, SimDuration::from_secs(60)),
        other => PacketSimConfig {
            transport: other,
            horizon: SimDuration::from_secs(60),
            ..PacketSimConfig::default()
        },
    };
    let transfers = vec![fig3_transfer(&topo, 1, 800)];
    run_fig3_packet(cfg, transfers)
}

/// The two A4 contenders, side by side.
#[derive(Debug, Clone)]
pub struct TransportComparison {
    /// The paper's INRPP transport.
    pub inrpp: RunReport,
    /// The AIMD (TCP-like) baseline.
    pub aimd: RunReport,
}

/// A4: INRPP vs the AIMD baseline on the Fig. 3 bottleneck.
pub fn ablation_transport() -> TransportComparison {
    TransportComparison {
        inrpp: ablation_transport_single(TransportKind::Inrpp(InrppConfig::default())),
        aimd: ablation_transport_single(TransportKind::Aimd(AimdConfig::default())),
    }
}

// -------------------------------------------------------------- Ablation A5

/// One point of the A5 estimator-interval sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalPoint {
    /// Estimator interval `T_i` in milliseconds.
    pub interval_ms: u64,
    /// Completion time of the bottleneck flow, seconds.
    pub fct_secs: f64,
    /// Chunks that left the primary path at least once.
    pub chunks_detoured: u64,
}

/// A5: estimator interval `T_i` sweep.
pub fn ablation_interval(intervals_ms: &[u64]) -> Vec<IntervalPoint> {
    intervals_ms
        .iter()
        .map(|&ms| {
            let topo = Topology::fig3();
            let ic = InrppConfig {
                interval: SimDuration::from_millis(ms),
                ..InrppConfig::default()
            };
            let cfg = PacketSimConfig {
                transport: TransportKind::Inrpp(ic),
                horizon: SimDuration::from_secs(60),
                ..PacketSimConfig::default()
            };
            let transfers = vec![fig3_transfer(&topo, 1, 600)];
            let report = run_fig3_packet(cfg, transfers);
            IntervalPoint {
                interval_ms: ms,
                fct_secs: report.flows[0].fct_secs.unwrap_or(f64::INFINITY),
                chunks_detoured: report.packet().expect("packet run").chunks_detoured,
            }
        })
        .collect()
}

// -------------------------------------------------------------- Ablation A6

/// One coexistence scenario outcome.
#[derive(Debug, Clone)]
pub struct CoexistenceRow {
    /// Scenario label.
    pub scenario: &'static str,
    /// Goodput of the probe AIMD flow (bits/s).
    pub aimd_goodput: f64,
    /// Goodput of the companion flow, if any (bits/s).
    pub companion_goodput: Option<f64>,
    /// Drops seen in the run.
    pub drops: u64,
}

/// The three A6 scenarios, in canonical presentation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoexistenceScenario {
    /// The AIMD probe crosses the bottleneck by itself.
    Alone,
    /// The probe shares the bottleneck with a second AIMD flow.
    VsAimd,
    /// The probe shares the network with an INRPP flow.
    VsInrpp,
}

impl CoexistenceScenario {
    /// All scenarios in presentation order.
    pub fn all() -> [CoexistenceScenario; 3] {
        [
            CoexistenceScenario::Alone,
            CoexistenceScenario::VsAimd,
            CoexistenceScenario::VsInrpp,
        ]
    }

    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            CoexistenceScenario::Alone => "AIMD alone",
            CoexistenceScenario::VsAimd => "AIMD + AIMD",
            CoexistenceScenario::VsInrpp => "AIMD + INRPP",
        }
    }
}

/// One A6 scenario: the probe AIMD flow (plus `scenario`'s companion, if
/// any) on the Fig. 3 network. Per-flow transport mixing is a
/// coexistence-specific capability, so this rides the raw
/// `PacketSim::add_transfer_as` API rather than the facade.
pub fn coexistence_scenario(scenario: CoexistenceScenario) -> CoexistenceRow {
    use inrpp_packetsim::{FlowTransport, PacketSim, TransferSpec};
    let topo = Topology::fig3();
    let src = topo.node_by_name("1").expect("fig3");
    let dst = topo.node_by_name("4").expect("fig3");
    let chunks = 500u64;
    let horizon = SimDuration::from_secs(120);
    let mixed = TransportKind::Mixed {
        inrpp: InrppConfig::default(),
        aimd: AimdConfig::default(),
    };
    let spec = |flow: u64| TransferSpec {
        flow,
        src,
        dst,
        chunks,
        start: SimTime::ZERO,
    };
    let goodput = |r: &inrpp_packetsim::PacketSimReport, idx: usize| -> f64 {
        let f = &r.flows[idx];
        match f.fct() {
            Some(d) => f.chunks_delivered as f64 * r.chunk_bytes.as_bits() as f64 / d.as_secs_f64(),
            None => 0.0,
        }
    };
    let mut sim = PacketSim::new(
        &topo,
        PacketSimConfig {
            transport: mixed,
            horizon,
            ..PacketSimConfig::default()
        },
    );
    sim.add_transfer_as(spec(1), FlowTransport::Aimd);
    let companion = match scenario {
        CoexistenceScenario::Alone => None,
        CoexistenceScenario::VsAimd => Some(FlowTransport::Aimd),
        CoexistenceScenario::VsInrpp => Some(FlowTransport::Inrpp),
    };
    if let Some(t) = companion {
        sim.add_transfer_as(spec(2), t);
    }
    let r = sim.run();
    CoexistenceRow {
        scenario: scenario.label(),
        aimd_goodput: goodput(&r, 0),
        companion_goodput: companion.map(|_| goodput(&r, 1)),
        drops: r.chunks_dropped,
    }
}

/// A6: TCP/IP coexistence (paper §4 future work). A probe AIMD flow
/// crosses the Fig. 3 bottleneck alone, next to a second AIMD flow, and
/// next to an INRPP flow. If INRPP detours rather than competes, the
/// probe's goodput with an INRPP companion should sit *between* the alone
/// and the AIMD-companion cases.
pub fn coexistence() -> Vec<CoexistenceRow> {
    CoexistenceScenario::all()
        .into_iter()
        .map(coexistence_scenario)
        .collect()
}

// -------------------------------------------------------------- Ablation A7

/// One point of the A7 load sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadPoint {
    /// Offered load as a multiple of the capacity proxy.
    pub load: f64,
    /// SP throughput.
    pub sp: f64,
    /// URP throughput.
    pub urp: f64,
    /// URP's relative gain over SP, percent.
    pub gain_pct: f64,
}

/// A7: load sweep — URP's gain over SP as a function of offered load,
/// locating the crossover where pooling starts to matter.
pub fn load_sweep(isp: Isp, base: &Fig4Config, loads: &[f64]) -> Vec<LoadPoint> {
    use inrpp::scenario::compare_strategies;
    use inrpp_topology::rocketfuel::generate_with_capacities;
    let topo = generate_with_capacities(&isp.profile(), base.seed, base.capacities);
    loads
        .iter()
        .map(|&load| {
            let cfg = base.with_load(load);
            let row = compare_strategies(&topo, &cfg);
            let sp = row.sp.throughput();
            let urp = row.urp.throughput();
            let gain_pct = if sp > 0.0 {
                100.0 * (urp - sp) / sp
            } else {
                0.0
            };
            LoadPoint {
                load,
                sp,
                urp,
                gain_pct,
            }
        })
        .collect()
}

// -------------------------------------------------------------- Ablation A8

/// The deterministic victim set for A8: up to `max_kill` randomly chosen
/// *non-bridge* links whose joint removal keeps `base` connected.
///
/// Candidates are shuffled with a stream derived from `seed`, then
/// admitted greedily — several individually safe removals can jointly
/// partition the graph, so each admission re-checks connectivity. The
/// result depends only on `(base, seed, max_kill)`, which lets parallel
/// sweep cells recompute an *identical* set instead of sharing state.
pub fn link_failure_victims(
    base: &Topology,
    seed: u64,
    max_kill: usize,
) -> Vec<inrpp_topology::LinkId> {
    use inrpp_sim::rng::SimRng;
    use inrpp_topology::detour::{classify_link, DetourClass};
    let mut candidates: Vec<inrpp_topology::LinkId> = base
        .link_ids()
        .filter(|&l| classify_link(base, l) != DetourClass::None)
        .collect();
    let mut rng = SimRng::from_seed_u64(seed ^ 0xFA11);
    rng.shuffle(&mut candidates);
    let mut safe_victims: Vec<inrpp_topology::LinkId> = Vec::new();
    for &cand in &candidates {
        if safe_victims.len() >= max_kill {
            break;
        }
        let mut trial = safe_victims.clone();
        trial.push(cand);
        if base.without_links(&trial).is_connected() {
            safe_victims = trial;
        }
    }
    safe_victims
}

/// One A8 measurement point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailurePoint {
    /// Fraction of links failed.
    pub fraction: f64,
    /// SP throughput on the degraded network.
    pub sp: f64,
    /// URP throughput on the degraded network.
    pub urp: f64,
}

/// One A8 measurement point: fail the first `frac`-worth of `victims` on
/// `base` and run SP vs URP under the *intact* network's workload, so the
/// throughput change isolates the capacity lost to failures.
pub fn link_failure_point(
    base: &Topology,
    victims: &[inrpp_topology::LinkId],
    cfg: &Fig4Config,
    frac: f64,
) -> FailurePoint {
    let workload = inrpp::scenario::build_workload(base, cfg);
    let kill = (((base.link_count() as f64) * frac).round() as usize).min(victims.len());
    let topo = base.without_links(&victims[..kill]);
    let run = |strategy: SessionStrategy| {
        Session::builder()
            .topology(&topo)
            .workload(workload.clone())
            .strategy(strategy)
            .horizon(cfg.duration)
            .seed(cfg.seed)
            .build()
            .expect("failure sessions are well-formed")
            .run()
            .expect("fluid engine accepts both contenders")
            .throughput()
    };
    FailurePoint {
        fraction: frac,
        sp: run(SessionStrategy::Sp),
        urp: run(SessionStrategy::Urp(cfg.inrp)),
    }
}

/// Largest victim count any of `fractions` will request from `base`.
pub fn link_failure_max_kill(base: &Topology, fractions: &[f64]) -> usize {
    fractions
        .iter()
        .map(|f| ((base.link_count() as f64) * f).round() as usize)
        .max()
        .unwrap_or(0)
}

/// A8: link-failure robustness. Fail a fraction of randomly chosen
/// *non-bridge* links (bridges would partition the graph) and measure the
/// throughput of SP vs URP on the degraded topology.
pub fn ablation_link_failure(isp: Isp, cfg: &Fig4Config, fractions: &[f64]) -> Vec<FailurePoint> {
    use inrpp_topology::rocketfuel::generate_with_capacities;
    let base = generate_with_capacities(&isp.profile(), cfg.seed, cfg.capacities);
    let victims = link_failure_victims(&base, cfg.seed, link_failure_max_kill(&base, fractions));
    fractions
        .iter()
        .map(|&frac| link_failure_point(&base, &victims, cfg, frac))
        .collect()
}

/// A fast Fig. 4 configuration for tests and smoke runs (small horizon).
pub fn quick_fig4_config() -> Fig4Config {
    Fig4Config {
        duration: SimDuration::from_secs(2),
        mean_flow_bits: 50e6,
        load: 1.5,
        seed: SEED,
        ..Fig4Config::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_tracks_paper() {
        let rows = table1(SEED);
        assert_eq!(rows.len(), 9);
        for r in &rows {
            assert!(
                r.max_deviation() < 4.0,
                "{}: measured {:?} vs paper {:?}",
                r.isp.name(),
                r.measured,
                r.paper
            );
        }
        let avg = table1_average(&rows);
        for i in 0..4 {
            assert!(
                (avg.measured[i] - avg.paper[i]).abs() < 3.0,
                "avg col {i}: {avg:?}"
            );
        }
    }

    #[test]
    fn fig3_matches_paper() {
        let out = fig3();
        assert!((out.e2e_jain - 0.7353).abs() < 1e-3);
        assert!((out.inrpp_jain - 1.0).abs() < 1e-6);
    }

    #[test]
    fn custody_headline_is_two_seconds() {
        let feas = custody_feasibility();
        assert_eq!(feas.headline, SimDuration::from_secs(2));
        assert_eq!(feas.rows.len(), 16);
    }

    #[test]
    fn ablation_detour_depth_monotone_gain() {
        let res = ablation_detour_depth(Isp::Vsnl, &quick_fig4_config(), &[0, 1, 2]);
        assert_eq!(res.len(), 3);
        // depth 0 is plain SP; any detour depth must not hurt
        assert!(res[1].throughput >= res[0].throughput - 1e-9, "{res:?}");
        assert!(res[2].throughput >= res[1].throughput - 1e-9, "{res:?}");
    }

    #[test]
    fn ablation_anticipation_runs() {
        let res = ablation_anticipation(&[0, 4]);
        assert_eq!(res.len(), 2);
        for p in &res {
            assert!(p.fct_secs.is_finite(), "flow must complete");
        }
    }

    #[test]
    fn link_failure_degrades_gracefully() {
        let cfg = quick_fig4_config();
        let rows = ablation_link_failure(Isp::Vsnl, &cfg, &[0.0, 0.1]);
        assert_eq!(rows.len(), 2);
        for p in &rows {
            assert!(p.sp.is_finite() && p.urp.is_finite());
            assert!(p.urp >= p.sp * 0.98, "URP should not trail SP: {rows:?}");
        }
        // failures must not increase throughput under a fixed workload
        assert!(rows[1].sp <= rows[0].sp + 0.02, "{rows:?}");
    }

    #[test]
    fn load_sweep_is_unimodalish() {
        let cfg = quick_fig4_config();
        let rows = load_sweep(Isp::Vsnl, &cfg, &[0.1, 1.5]);
        assert_eq!(rows.len(), 2);
        // throughput ratio falls with load
        assert!(rows[0].sp > rows[1].sp, "{rows:?}");
        // light load delivers nearly everything
        assert!(rows[0].sp > 0.8, "{rows:?}");
    }

    #[test]
    fn coexistence_inrpp_is_not_predatory() {
        let rows = coexistence();
        assert_eq!(rows.len(), 3);
        let alone = rows[0].aimd_goodput;
        let vs_aimd = rows[1].aimd_goodput;
        let vs_inrpp = rows[2].aimd_goodput;
        assert!(alone > 0.0 && vs_aimd > 0.0 && vs_inrpp > 0.0);
        // sharing with anything costs goodput...
        assert!(vs_aimd < alone);
        // ...but an INRPP companion, which can detour around the shared
        // bottleneck, must hurt the AIMD probe no more than another AIMD
        // flow does (small tolerance for chunk-grain noise)
        assert!(
            vs_inrpp >= vs_aimd * 0.9,
            "INRPP starves AIMD: alone {alone:.0}, vs AIMD {vs_aimd:.0}, vs INRPP {vs_inrpp:.0}"
        );
    }

    #[test]
    fn ablation_transport_inrpp_wins() {
        let cmp = ablation_transport();
        let fi = cmp.inrpp.flows[0].fct_secs.expect("INRPP finishes");
        let fa = cmp.aimd.flows[0].fct_secs.expect("AIMD finishes");
        assert!(fi < fa, "INRPP {fi} should beat AIMD {fa}");
        assert_eq!(cmp.aimd.packet().expect("packet run").chunks_detoured, 0);
        assert_eq!(cmp.inrpp.strategy, "INRPP");
        assert_eq!(cmp.aimd.strategy, "AIMD");
    }

    #[test]
    fn fig4b_rows_are_typed_cdfs() {
        let rows = fig4b(&quick_fig4_config());
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(!row.points.is_empty(), "{}: empty CDF", row.topology);
            // fractions are monotone and end at 1
            for w in row.points.windows(2) {
                assert!(w[0].fraction <= w[1].fraction + 1e-12);
                assert!(w[0].stretch < w[1].stretch);
            }
            let last = row.points.last().unwrap();
            assert!((last.fraction - 1.0).abs() < 1e-9);
        }
    }
}
