//! Every paper artifact and ablation as a declarative [`SweepSpec`] for
//! the parallel runner.
//!
//! This module is the single registry the `inrpp` CLI and the determinism
//! gate share: [`build`] turns an experiment id (`"table1"`, `"fig4a"`,
//! `"ablation-interval"`, …) into a spec whose cells are the experiment's
//! independent simulation units — one ISP, one parameter point, one
//! transport, one (topology × seed) pair. The runner executes cells on
//! a worker pool and merges in canonical order, so every experiment
//! gains `--threads` and machine-readable output without touching its
//! science.
//!
//! Cells must stay pure: they recompute shared inputs (topologies, victim
//! sets) deterministically from seeds instead of sharing state, which is
//! what keeps reports byte-identical at any thread count.

use inrpp::fairness::fig3_outcome;
use inrpp::scenario::{build_workload, fig4_topologies, run_fig4_row, Fig4Config};
use inrpp::session::{RunReport, Session, SessionStrategy, Transfer};
use inrpp::InrppConfig;
use inrpp_cache::sizing::{bandwidth_delay_product, feasibility_table, holding_time};
use inrpp_flowsim::strategy::InrpConfig;
use inrpp_flowsim::Workload;
use inrpp_packetsim::{
    AimdConfig, FlowTransport, PacketEngine, PacketSim, PacketSimConfig, TransferSpec,
    TransportKind,
};
use inrpp_runner::{CellOutput, SweepReport, SweepSpec};
use inrpp_sim::rng::SimRng;
use inrpp_sim::time::{SimDuration, SimTime};
use inrpp_sim::units::{ByteSize, Rate};
use inrpp_topology::detour::{analyze, classify_link, DetourClass};
use inrpp_topology::rocketfuel::{generate_isp, generate_with_capacities, Isp};
use inrpp_topology::{LinkId, Topology};

use crate::table::{ascii_plot, f, pct, Table};

/// Knobs shared by every sweep builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepOptions {
    /// Use the fast (short-horizon) configuration where the experiment
    /// has one — the CLI's `--quick` flag.
    pub quick: bool,
    /// Number of seeds for the Fig. 4a aggregation (1 = the calibrated
    /// single-seed run).
    pub seeds: usize,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            quick: false,
            seeds: 1,
        }
    }
}

/// Registry grouping for `inrpp list` (the ids stay flat for `run`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// Reproductions of the paper's own tables and figures.
    Paper,
    /// Ablations and follow-on studies (A1–A8).
    Ablation,
    /// The scenario catalog (topology family × traffic family).
    Scenario,
    /// Data-export utilities.
    Utility,
}

impl Category {
    /// Every category, in `inrpp list` presentation order.
    pub fn all() -> [Category; 4] {
        [
            Category::Paper,
            Category::Ablation,
            Category::Scenario,
            Category::Utility,
        ]
    }

    /// Section heading in the grouped listing.
    pub fn title(&self) -> &'static str {
        match self {
            Category::Paper => "paper figures & tables",
            Category::Ablation => "ablations & studies",
            Category::Scenario => "scenario catalog (topology family x traffic family)",
            Category::Utility => "utilities",
        }
    }
}

/// One registered sweep: id, one-line description, listing category.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentInfo {
    /// The id `build` / `inrpp run` accept.
    pub id: &'static str,
    /// One-line description for the listing.
    pub desc: &'static str,
    /// Which `inrpp list` section the sweep belongs to.
    pub category: Category,
}

const fn exp(id: &'static str, desc: &'static str, category: Category) -> ExperimentInfo {
    ExperimentInfo { id, desc, category }
}

/// Every registered sweep, in `run all` execution order.
pub const EXPERIMENTS: &[ExperimentInfo] = &[
    exp(
        "table1",
        "Table 1: available detour paths on the nine ISP topologies",
        Category::Paper,
    ),
    exp(
        "fig2",
        "Fig. 2: single-path vs e2e multipath vs in-network pooling",
        Category::Paper,
    ),
    exp(
        "fig3",
        "Fig. 3: global fairness worked example (Jain index)",
        Category::Paper,
    ),
    exp(
        "fig4a",
        "Fig. 4a: SP/ECMP/URP throughput under Poisson overload",
        Category::Paper,
    ),
    exp("fig4b", "Fig. 4b: URP path-stretch CDF", Category::Paper),
    exp(
        "custody",
        "Sec. 3.3: custody-cache feasibility arithmetic",
        Category::Paper,
    ),
    exp(
        "ablation-detour-depth",
        "A1: throughput vs detour depth",
        Category::Ablation,
    ),
    exp(
        "ablation-anticipation",
        "A2: anticipation window A_c sweep",
        Category::Ablation,
    ),
    exp(
        "ablation-cache-size",
        "A3: custody budget sweep (x BDP)",
        Category::Ablation,
    ),
    exp(
        "ablation-backpressure",
        "A4: INRPP vs AIMD transport head-to-head",
        Category::Ablation,
    ),
    exp(
        "ablation-interval",
        "A5: estimator interval T_i sweep",
        Category::Ablation,
    ),
    exp(
        "coexistence",
        "A6: does INRPP starve a TCP-like AIMD flow?",
        Category::Ablation,
    ),
    exp(
        "ablation-load-sweep",
        "A7: URP gain vs offered load",
        Category::Ablation,
    ),
    exp(
        "ablation-link-failure",
        "A8: SP vs URP under growing link failures",
        Category::Ablation,
    ),
    exp(
        "export-topologies",
        "Export the nine calibrated ISP topologies as edge lists",
        Category::Utility,
    ),
    exp(
        "scenario:het-dumbbell:flash-crowd",
        "Catalog: heterogeneous-access dumbbell x flash-crowd step load",
        Category::Scenario,
    ),
    exp(
        "scenario:het-dumbbell:diurnal",
        "Catalog: heterogeneous-access dumbbell x diurnal arrival modulation",
        Category::Scenario,
    ),
    exp(
        "scenario:het-dumbbell:heavy-tail",
        "Catalog: heterogeneous-access dumbbell x heavy-tailed flow sizes",
        Category::Scenario,
    ),
    exp(
        "scenario:het-dumbbell:mixed",
        "Catalog: heterogeneous-access dumbbell x mixed elastic + constant-rate",
        Category::Scenario,
    ),
    exp(
        "scenario:parking-lot:flash-crowd",
        "Catalog: parking-lot multi-bottleneck chain x flash-crowd step load",
        Category::Scenario,
    ),
    exp(
        "scenario:parking-lot:diurnal",
        "Catalog: parking-lot multi-bottleneck chain x diurnal modulation",
        Category::Scenario,
    ),
    exp(
        "scenario:parking-lot:heavy-tail",
        "Catalog: parking-lot multi-bottleneck chain x heavy-tailed sizes",
        Category::Scenario,
    ),
    exp(
        "scenario:parking-lot:mixed",
        "Catalog: parking-lot multi-bottleneck chain x mixed elastic + CBR",
        Category::Scenario,
    ),
    exp(
        "scenario:fat-tree:flash-crowd",
        "Catalog: 4-ary fat-tree fabric x flash-crowd step load",
        Category::Scenario,
    ),
    exp(
        "scenario:fat-tree:diurnal",
        "Catalog: 4-ary fat-tree fabric x diurnal arrival modulation",
        Category::Scenario,
    ),
    exp(
        "scenario:fat-tree:heavy-tail",
        "Catalog: 4-ary fat-tree fabric x heavy-tailed flow sizes",
        Category::Scenario,
    ),
    exp(
        "scenario:fat-tree:mixed",
        "Catalog: 4-ary fat-tree fabric x mixed elastic + constant-rate",
        Category::Scenario,
    ),
    exp(
        "scenario:scale-free:flash-crowd",
        "Catalog: Barabasi-Albert scale-free graph x flash-crowd step load",
        Category::Scenario,
    ),
    exp(
        "scenario:scale-free:diurnal",
        "Catalog: Barabasi-Albert scale-free graph x diurnal modulation",
        Category::Scenario,
    ),
    exp(
        "scenario:scale-free:heavy-tail",
        "Catalog: Barabasi-Albert scale-free graph x heavy-tailed sizes",
        Category::Scenario,
    ),
    exp(
        "scenario:scale-free:mixed",
        "Catalog: Barabasi-Albert scale-free graph x mixed elastic + CBR",
        Category::Scenario,
    ),
];

/// The grouped `inrpp list` rendering: one section per [`Category`], ids
/// in registry (execution) order within each. Snapshot-gated by
/// `tests/golden_snapshots.rs`.
pub fn render_experiment_list() -> String {
    let mut out = format!("{:<36} description\n{}\n", "experiment", "-".repeat(80));
    for cat in Category::all() {
        out.push_str(&format!("\n{}\n", cat.title()));
        for e in EXPERIMENTS.iter().filter(|e| e.category == cat) {
            out.push_str(&format!("  {:<34} {}\n", e.id, e.desc));
        }
    }
    out.push_str(&format!(
        "\n{:<36} every experiment above, in order\n",
        "all"
    ));
    out
}

/// Build the sweep for `id`, or `None` for an unknown id. `"all"` is a
/// CLI-level alias handled by the callers, not a sweep.
pub fn build(id: &str, opts: &SweepOptions) -> Option<SweepSpec> {
    match id {
        "table1" => Some(table1_spec()),
        "fig2" => Some(fig2_spec(opts)),
        "fig3" => Some(fig3_spec()),
        "fig4a" => Some(fig4a_spec(opts)),
        "fig4b" => Some(fig4b_spec(opts)),
        "custody" => Some(custody_spec()),
        "ablation-detour-depth" => Some(detour_depth_spec(opts)),
        "ablation-anticipation" => Some(anticipation_spec()),
        "ablation-cache-size" => Some(cache_size_spec()),
        "ablation-backpressure" => Some(backpressure_spec()),
        "ablation-interval" => Some(interval_spec()),
        "coexistence" => Some(coexistence_spec()),
        "ablation-load-sweep" => Some(load_sweep_spec(opts)),
        "ablation-link-failure" => Some(link_failure_spec(opts)),
        "export-topologies" => Some(export_spec()),
        id if id.starts_with("scenario:") => scenario_spec(id, opts),
        _ => None,
    }
}

// ------------------------------------------------------- scenario catalog

/// Build the sweep for one scenario-catalog cell
/// (`scenario:<topology>:<traffic>`): one cell per strategy of the
/// SP/ECMP/URP trio, every cell regenerating the identical topology and
/// workload from the scenario seed so the sweep stays embarrassingly
/// parallel and byte-stable at any thread count.
fn scenario_spec(id: &str, opts: &SweepOptions) -> Option<SweepSpec> {
    use inrpp::scenario::{scenario_by_id, ScenarioStrategy};
    let mut sc = scenario_by_id(id)?;
    if opts.quick {
        sc = sc.quick();
    }
    let title = format!(
        "Scenario {} x {} — SP/ECMP/URP trio (load {}x, {}s window{})",
        sc.topology.slug(),
        sc.traffic.slug(),
        sc.load,
        sc.duration.as_secs_f64(),
        if opts.quick { ", quick mode" } else { "" },
    );
    let mut spec = SweepSpec::new(
        id,
        title.as_str(),
        [
            "strategy",
            "throughput",
            "delivered Mbit",
            "completed/arrived",
            "mean FCT",
            "jain",
        ],
    );
    for strat in ScenarioStrategy::all() {
        spec.push_cell(strat.name(), move |_ctx| {
            let r = sc.run_one(strat);
            CellOutput::new()
                .with_row([
                    r.strategy.clone(),
                    f(r.throughput(), 3),
                    f(r.delivered_bits / 1e6, 1),
                    format!("{}/{}", r.completed_flows, r.arrived_flows),
                    format!("{}s", f(r.mean_fct_secs, 3)),
                    f(r.mean_jain, 3),
                ])
                .with_data([r.throughput()])
        });
    }
    spec.set_finish(|outputs, report| {
        let sp = outputs[0].data[0];
        let urp = outputs[2].data[0];
        if sp > 0.0 {
            report.notes.push(format!(
                "URP vs SP throughput: {:+.1}%",
                100.0 * (urp - sp) / sp
            ));
        }
    });
    spec.push_note(
        "catalog cell: in-network pooling (URP) against the e2e baselines on a \
         synthetic topology x traffic family composition; see ARCHITECTURE.md \
         'Scenario catalog'",
    );
    Some(spec)
}

// ---------------------------------------------------------------- shared

/// Seed of every paper table and ablation (Telstra's AS number, in the
/// spirit of reproducibility folklore).
const SEED: u64 = 1221;

/// The fast Fig. 4 configuration behind `--quick` (2 s horizon).
fn quick_fig4_config() -> Fig4Config {
    Fig4Config {
        duration: SimDuration::from_secs(2),
        mean_flow_bits: 50e6,
        load: 1.5,
        seed: SEED,
        ..Fig4Config::default()
    }
}

/// Normalised throughput of `workload` over `topo` under `strategy`,
/// on the fluid engine behind the session facade.
fn fluid_throughput(
    topo: &Topology,
    workload: &Workload,
    strategy: SessionStrategy,
    cfg: &Fig4Config,
) -> f64 {
    Session::builder()
        .topology(topo)
        .workload(workload.clone())
        .strategy(strategy)
        .horizon(cfg.duration)
        .seed(cfg.seed)
        .build()
        .expect("fluid sessions are well-formed")
        .run()
        .expect("the fluid engine accepts every strategy")
        .throughput()
}

// ---------------------------------------------------------------- Table 1

fn table1_spec() -> SweepSpec {
    let mut spec = SweepSpec::new(
        "table1",
        "Table 1 — Available Detour Paths (measured vs paper)",
        [
            "ISP", "nodes", "links", "1 hop", "(paper)", "2 hops", "(paper)", "3+ hops", "(paper)",
            "N/A", "(paper)",
        ],
    );
    for isp in Isp::all() {
        spec.push_cell(isp.name(), move |_ctx| {
            let topo = generate_isp(isp, SEED);
            let (_, stats) = analyze(&topo);
            let measured = [
                stats.one_hop_pct(),
                stats.two_hop_pct(),
                stats.three_plus_pct(),
                stats.none_pct(),
            ];
            let paper = isp.paper_row();
            CellOutput::new()
                .with_row([
                    isp.name().to_string(),
                    topo.node_count().to_string(),
                    topo.link_count().to_string(),
                    pct(measured[0]),
                    pct(paper[0]),
                    pct(measured[1]),
                    pct(paper[1]),
                    pct(measured[2]),
                    pct(paper[2]),
                    pct(measured[3]),
                    pct(paper[3]),
                ])
                .with_data(measured.into_iter().chain(paper))
        });
    }
    spec.set_finish(|outputs, report| {
        // the paper's "Average" row: each value is divided by the ISP
        // count before it is added, one cell at a time; summing first
        // can move the last printed digit
        let n = outputs.len() as f64;
        let mut avg = [0.0; 8];
        for o in outputs {
            for (a, v) in avg.iter_mut().zip(&o.data) {
                *a += v / n;
            }
        }
        let worst = outputs
            .iter()
            .flat_map(|o| (0..4).map(|i| (o.data[i] - o.data[i + 4]).abs()))
            .fold(0.0f64, f64::max);
        report.rows.push(vec![
            "Average".to_string(),
            String::new(),
            String::new(),
            pct(avg[0]),
            pct(avg[4]),
            pct(avg[1]),
            pct(avg[5]),
            pct(avg[2]),
            pct(avg[6]),
            pct(avg[3]),
            pct(avg[7]),
        ]);
        report.notes.push(format!(
            "worst per-cell deviation from the paper: {worst:.2} percentage points"
        ));
    });
    spec
}

// ------------------------------------------------------------------ Fig. 2

fn fig2_cfg(opts: &SweepOptions) -> Fig4Config {
    if opts.quick {
        quick_fig4_config()
    } else {
        Fig4Config {
            duration: SimDuration::from_secs(4),
            load: 1.25,
            mean_flow_bits: 80e6,
            seed: SEED,
            ..Fig4Config::default()
        }
    }
}

fn fig2_spec(opts: &SweepOptions) -> SweepSpec {
    let cfg = fig2_cfg(opts);
    let mut spec = SweepSpec::new(
        "fig2",
        format!(
            "Fig. 2 regimes — single path vs e2e multipath vs in-network pooling (load {}x)",
            cfg.load
        )
        .as_str(),
        [
            "topology",
            "(i) SP",
            "(ii) MPTCP",
            "(iii) URP",
            "MPTCP vs SP",
            "URP vs SP",
        ],
    );
    for isp in fig4_topologies() {
        spec.push_cell(isp.name(), move |_ctx| {
            // regime (i) single path, (ii) idealised e2e multipath
            // pooling, (iii) in-network pooling
            let topo = generate_with_capacities(&isp.profile(), cfg.seed, cfg.capacities);
            let workload = build_workload(&topo, &cfg);
            let run = |strategy| fluid_throughput(&topo, &workload, strategy, &cfg);
            let sp = run(SessionStrategy::Sp);
            let mptcp = run(SessionStrategy::Mptcp);
            let urp = run(SessionStrategy::Urp(cfg.inrp));
            CellOutput::new().with_row([
                isp.name().to_string(),
                f(sp, 3),
                f(mptcp, 3),
                f(urp, 3),
                format!("{:+.1}%", 100.0 * (mptcp - sp) / sp),
                format!("{:+.1}%", 100.0 * (urp - sp) / sp),
            ])
        });
    }
    spec.push_note(
        "reading: both pooling regimes clearly beat single-path routing. The MPTCP \
         column is an idealised upper bound (perfect disjoint end-to-end path \
         control, which IP does not give end-hosts); URP reaches the same regime \
         with purely local, in-network decisions and no multihoming requirement — \
         the paper's deployability argument, quantified",
    );
    spec
}

// ------------------------------------------------------------------ Fig. 3

fn fig3_spec() -> SweepSpec {
    let mut spec = SweepSpec::new(
        "fig3",
        "Fig. 3 — Global Fairness vs e2e Flow Control",
        ["scheme", "flow 1->4", "flow 1->3", "Jain", "(paper)"],
    );
    spec.push_cell("fig3 worked example", |_ctx| {
        let out = fig3_outcome();
        CellOutput::new()
            .with_row([
                "e2e (TCP-like)".to_string(),
                format!("{} Mbps", f(out.e2e_rates[0] / 1e6, 2)),
                format!("{} Mbps", f(out.e2e_rates[1] / 1e6, 2)),
                f(out.e2e_jain, 3),
                "0.73".to_string(),
            ])
            .with_row([
                "INRPP".to_string(),
                format!("{} Mbps", f(out.inrpp_rates[0] / 1e6, 2)),
                format!("{} Mbps", f(out.inrpp_rates[1] / 1e6, 2)),
                f(out.inrpp_jain, 3),
                "1.00".to_string(),
            ])
    });
    spec.push_note(
        "paper expectation: e2e rates (2, 8) Mbps; INRPP rates (5, 5) Mbps with \
         3 Mbps detoured via node 3",
    );
    spec
}

// ------------------------------------------------------------------ Fig. 4

/// The Fig. 4 configuration the `fig4a` and `fig4b` sweeps run under.
fn fig4_cfg(opts: &SweepOptions) -> Fig4Config {
    if opts.quick {
        quick_fig4_config()
    } else {
        Fig4Config {
            duration: SimDuration::from_secs(5),
            load: 1.25,
            mean_flow_bits: 80e6,
            seed: SEED,
            ..Fig4Config::default()
        }
    }
}

fn fig4a_spec(opts: &SweepOptions) -> SweepSpec {
    let cfg = fig4_cfg(opts);
    let title = format!(
        "Fig. 4a — Network throughput under Poisson arrivals (load {}x, {}s window{})",
        cfg.load,
        cfg.duration.as_secs_f64(),
        if opts.quick { ", quick mode" } else { "" }
    );
    if opts.seeds <= 1 {
        let mut spec = SweepSpec::new(
            "fig4a",
            title.as_str(),
            [
                "topology",
                "SP",
                "ECMP",
                "URP",
                "URP vs SP",
                "paper",
                "flows",
                "jain(URP)",
            ],
        );
        for isp in fig4_topologies() {
            spec.push_cell(isp.name(), move |_ctx| {
                let row = run_fig4_row(isp, &cfg);
                CellOutput::new().with_row([
                    row.topology.clone(),
                    f(row.sp.throughput(), 3),
                    f(row.ecmp.throughput(), 3),
                    f(row.urp.throughput(), 3),
                    format!("{:+.1}%", row.urp_gain_over_sp_pct()),
                    "+9..15%".to_string(),
                    row.urp.arrived_flows.to_string(),
                    f(row.urp.mean_jain, 3),
                ])
            });
        }
        spec.push_note("shape checks: URP >= ECMP >= SP per topology; gain in the paper's band");
        return spec;
    }
    // seed-aggregated variant: one cell per (topology, seed), topology
    // major; cells draw their workload/topology seed from the per-cell
    // stream so the sweep is embarrassingly parallel yet byte-stable at
    // any thread count
    let topologies = fig4_topologies();
    let nseeds = opts.seeds;
    let mut spec = SweepSpec::new(
        "fig4a",
        title.as_str(),
        [
            "topology",
            "SP mean",
            "ECMP mean",
            "URP mean",
            "gain mean",
            "gain sd",
            "paper",
        ],
    );
    for isp in topologies {
        for seed in 0..nseeds {
            spec.push_cell(format!("{} seed {seed}", isp.name()), move |ctx| {
                let row = run_fig4_row(isp, &cfg.with_seed(ctx.seed));
                CellOutput::new().with_data([
                    row.sp.throughput(),
                    row.ecmp.throughput(),
                    row.urp.throughput(),
                    row.urp_gain_over_sp_pct(),
                ])
            });
        }
    }
    spec.set_finish(move |outputs, report| {
        use inrpp_sim::metrics::SummaryStats;
        for (t, isp) in topologies.iter().enumerate() {
            let mut stats = [
                SummaryStats::new(),
                SummaryStats::new(),
                SummaryStats::new(),
                SummaryStats::new(),
            ];
            for o in &outputs[t * nseeds..(t + 1) * nseeds] {
                for (s, &v) in stats.iter_mut().zip(&o.data) {
                    s.record(v);
                }
            }
            report.rows.push(vec![
                isp.name().to_string(),
                f(stats[0].mean(), 3),
                f(stats[1].mean(), 3),
                f(stats[2].mean(), 3),
                format!("{:+.1}%", stats[3].mean()),
                f(stats[3].std_dev(), 2),
                "+9..15%".to_string(),
            ]);
        }
    });
    spec.push_note(format!(
        "aggregated over {nseeds} hash-derived seed streams per topology \
         (cell_seed(\"fig4a\", index))"
    ));
    spec
}

/// Lower-case alphanumeric prefix of an ISP display name (`"Telstra
/// (AUS)"` → `"telstra"`), shared by artifact and export file naming.
fn slug(name: &str) -> String {
    name.chars()
        .take_while(|c| c.is_ascii_alphanumeric())
        .collect::<String>()
        .to_ascii_lowercase()
}

fn fig4b_spec(opts: &SweepOptions) -> SweepSpec {
    let cfg = fig4_cfg(opts);
    let topologies = fig4_topologies();
    let mut spec = SweepSpec::new(
        "fig4b",
        "Fig. 4b — URP path-stretch CDF (traffic-weighted)",
        [
            "topology", "F(1.0)", "F(1.1)", "F(1.2)", "F(1.35)", "F(1.5)", "F(2.0)",
        ],
    );
    for isp in topologies {
        spec.push_cell(isp.name(), move |_ctx| {
            let row = run_fig4_row(isp, &cfg);
            let mut fluid = row.urp.into_fluid().expect("fluid engine run");
            let pts = fluid.stretch.points();
            let frac = |x: f64| -> f64 {
                pts.iter()
                    .take_while(|&&(v, _)| v <= x)
                    .last()
                    .map(|&(_, f)| f)
                    .unwrap_or(0.0)
            };
            let mut csv = String::from("stretch,cdf\n");
            for &(x, y) in &pts {
                csv.push_str(&format!("{x},{y:.6}\n"));
            }
            CellOutput::new()
                .with_row([
                    row.topology.clone(),
                    f(frac(1.0), 3),
                    f(frac(1.1), 3),
                    f(frac(1.2), 3),
                    f(frac(1.35), 3),
                    f(frac(1.5), 3),
                    f(frac(2.0), 3),
                ])
                .with_data(pts.iter().flat_map(|&(x, y)| [x, y]))
                .with_artifact(format!("fig4b_{}.csv", slug(isp.name())), csv)
        });
    }
    spec.set_finish(move |outputs, report| {
        // figure-like ASCII rendering of the CDFs, clipped to the paper's
        // x-range, reconstructed from the cells' raw points
        let series: Vec<(String, Vec<(f64, f64)>)> = topologies
            .iter()
            .zip(outputs)
            .map(|(isp, o)| {
                let pts: Vec<(f64, f64)> = o.data.chunks_exact(2).map(|c| (c[0], c[1])).collect();
                let mut v: Vec<(f64, f64)> =
                    pts.iter().copied().filter(|&(x, _)| x <= 1.4).collect();
                v.insert(0, (1.0, pts.first().map(|&(_, f)| f).unwrap_or(0.0)));
                (isp.name().to_string(), v)
            })
            .collect();
        let plot_series: Vec<(&str, &[(f64, f64)])> = series
            .iter()
            .map(|(n, v)| (n.as_str(), v.as_slice()))
            .collect();
        report.notes.push(ascii_plot(&plot_series, 60, 12));
    });
    spec.push_note("paper shape: F(1.0) >= 0.5 and mass concentrated below ~1.35");
    spec
}

// ---------------------------------------------------------------- custody

fn custody_spec() -> SweepSpec {
    let mut spec = SweepSpec::new(
        "custody",
        "C1 — Custody-cache feasibility (paper Sec. 3.3)",
        ["link", "cache", "holding time", ">= 500ms RTT budget"],
    );
    spec.push_cell("rate x size sweep", |_ctx| {
        // the paper's headline claim, then the rate x size sweep around it
        let headline = holding_time(ByteSize::gb(10), Rate::gbps(40.0));
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
        let mut out = CellOutput::new().with_note(format!(
            "headline: 10 GB cache behind a 40 Gbps link holds line-rate traffic \
             for {headline} (paper: 2 seconds)"
        ));
        for r in &rows {
            out = out.with_row([
                r.link.to_string(),
                r.cache.to_string(),
                r.holding.to_string(),
                if r.feasible { "yes" } else { "no" }.to_string(),
            ]);
        }
        out
    });
    spec
}

// ------------------------------------------------------------ Ablation A1

/// A1 on `isp`: normalised throughput with detours of at most `depth`
/// hops (0 is plain SP).
fn detour_depth_throughput(isp: Isp, cfg: &Fig4Config, depth: u8) -> f64 {
    let topo = generate_with_capacities(&isp.profile(), cfg.seed, cfg.capacities);
    let workload = build_workload(&topo, cfg);
    let strategy = if depth == 0 {
        SessionStrategy::Sp
    } else {
        SessionStrategy::Urp(InrpConfig {
            one_hop_detours: true,
            two_hop_detours: depth >= 2,
            ..InrpConfig::default()
        })
    };
    fluid_throughput(&topo, &workload, strategy, cfg)
}

fn detour_depth_spec(opts: &SweepOptions) -> SweepSpec {
    let cfg = if opts.quick {
        quick_fig4_config()
    } else {
        Fig4Config {
            duration: SimDuration::from_secs(4),
            load: 1.5,
            mean_flow_bits: 80e6,
            seed: SEED,
            ..Fig4Config::default()
        }
    };
    let mut spec = SweepSpec::new(
        "ablation-detour-depth",
        format!("A1 — Detour depth sweep (Exodus, load {}x)", cfg.load).as_str(),
        ["detour depth", "throughput", "gain over SP"],
    );
    for depth in [0u8, 1, 2] {
        spec.push_cell(format!("depth {depth}"), move |_ctx| {
            let thr = detour_depth_throughput(Isp::Exodus, &cfg, depth);
            CellOutput::new().with_data([depth as f64, thr])
        });
    }
    spec.set_finish(|outputs, report| {
        let base = outputs[0].data[1];
        for o in outputs {
            let (depth, thr) = (o.data[0] as u8, o.data[1]);
            let label = match depth {
                0 => "0 (= SP baseline)".to_string(),
                1 => "1 hop".to_string(),
                d => format!("{d} hops (paper's Fig. 4 setup)"),
            };
            report.rows.push(vec![
                label,
                f(thr, 3),
                format!("{:+.1}%", 100.0 * (thr - base) / base),
            ]);
        }
    });
    spec
}

// ------------------------------------------------------ Ablations A2–A5

/// The Fig. 3 packet configuration of A2–A4: INRPP with a 50 ms
/// estimator interval.
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
fn fig3_transfer(flow: u64, chunks: u64) -> Transfer {
    let topo = Topology::fig3();
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

fn anticipation_spec() -> SweepSpec {
    let mut spec = SweepSpec::new(
        "ablation-anticipation",
        "A2 — Anticipation window sweep (Fig. 3 network, 600-chunk flow 1->4)",
        ["A_c (chunks)", "flow completion time"],
    );
    for ac in [0u64, 1, 2, 4, 8, 16, 32] {
        spec.push_cell(format!("A_c {ac}"), move |_ctx| {
            let cfg = fig3_packet_cfg(
                InrppConfig {
                    anticipation: ac,
                    ..InrppConfig::default()
                },
                SimDuration::from_secs(60),
            );
            let report = run_fig3_packet(cfg, vec![fig3_transfer(1, 600)]);
            // `inf` when the flow missed the horizon
            let fct = report.flows[0].fct_secs.unwrap_or(f64::INFINITY);
            CellOutput::new()
                .with_row([ac.to_string(), format!("{}s", f(fct, 3))])
                .with_data([fct])
        });
    }
    spec.push_note(
        "expectation: tiny windows starve the pipe (request-rate limited); larger \
         windows approach the pooled-capacity completion time",
    );
    spec
}

fn cache_size_spec() -> SweepSpec {
    let mut spec = SweepSpec::new(
        "ablation-cache-size",
        "A3 — Custody budget sweep (Fig. 3 network, 2 overloading flows)",
        ["budget (x BDP)", "chunks dropped", "chunks custodied"],
    );
    for m in [0.1, 0.5, 1.0, 2.0, 10.0, 100.0] {
        spec.push_cell(format!("budget {m}x BDP"), move |_ctx| {
            // BDP of the 2 Mbps bottleneck at ~20 ms RTT ≈ 5 KB; sweep
            // around it
            let bdp = bandwidth_delay_product(Rate::mbps(2.0), SimDuration::from_millis(20));
            let budget = ByteSize::bytes(((bdp.as_bytes() as f64) * m).max(1.0) as u64);
            let cfg = fig3_packet_cfg(
                InrppConfig {
                    cache_budget: budget,
                    anticipation: 16,
                    ..InrppConfig::default()
                },
                SimDuration::from_secs(40),
            );
            let transfers = (1..=2u64).map(|flow| fig3_transfer(flow, 1200)).collect();
            let report = run_fig3_packet(cfg, transfers);
            let s = report.packet().expect("packet engine run");
            CellOutput::new().with_row([
                m.to_string(),
                s.chunks_dropped.to_string(),
                s.chunks_custodied.to_string(),
            ])
        });
    }
    spec.push_note(
        "expectation: more custody headroom absorbs bursts that would otherwise \
         drop; beyond a few BDP the benefit flattens",
    );
    spec
}

fn backpressure_spec() -> SweepSpec {
    let mut spec = SweepSpec::new(
        "ablation-backpressure",
        "A4 — INRPP vs AIMD on the Fig. 3 bottleneck (800-chunk flow 1->4)",
        [
            "transport",
            "FCT",
            "goodput",
            "drops",
            "detoured",
            "custodied",
            "bp msgs",
            "retransmits",
        ],
    );
    let horizon = SimDuration::from_secs(60);
    let transports = [
        ("INRPP", fig3_packet_cfg(InrppConfig::default(), horizon)),
        (
            "AIMD",
            PacketSimConfig {
                transport: TransportKind::Aimd(AimdConfig),
                horizon,
                ..PacketSimConfig::default()
            },
        ),
    ];
    for (label, cfg) in transports {
        spec.push_cell(label, move |_ctx| {
            let r = run_fig3_packet(cfg, vec![fig3_transfer(1, 800)]);
            let fct = r.flows[0].fct_secs.unwrap_or(f64::NAN);
            let bits = r.flows[0].delivered_bits;
            let s = *r.packet().expect("packet engine run");
            CellOutput::new().with_row([
                r.strategy.clone(),
                format!("{}s", f(fct, 2)),
                format!("{} Mbps", f(bits / fct / 1e6, 2)),
                s.chunks_dropped.to_string(),
                s.chunks_detoured.to_string(),
                s.chunks_custodied.to_string(),
                s.backpressure_msgs.to_string(),
                r.flows[0].retransmits.to_string(),
            ])
        });
    }
    spec.push_note(
        "expectation: INRPP finishes faster (pooling the node-3 path) and without \
         loss; AIMD is capped by the 2 Mbps bottleneck",
    );
    spec
}

fn interval_spec() -> SweepSpec {
    let mut spec = SweepSpec::new(
        "ablation-interval",
        "A5 — Estimator interval sweep (Fig. 3 network, 600-chunk flow)",
        ["T_i (ms)", "FCT", "chunks detoured"],
    );
    for ms in [10u64, 25, 50, 100, 200, 400] {
        spec.push_cell(format!("T_i {ms}ms"), move |_ctx| {
            let cfg = PacketSimConfig {
                transport: TransportKind::Inrpp(InrppConfig {
                    interval: SimDuration::from_millis(ms),
                    ..InrppConfig::default()
                }),
                horizon: SimDuration::from_secs(60),
                ..PacketSimConfig::default()
            };
            let report = run_fig3_packet(cfg, vec![fig3_transfer(1, 600)]);
            let fct = report.flows[0].fct_secs.unwrap_or(f64::INFINITY);
            CellOutput::new().with_row([
                ms.to_string(),
                format!("{}s", f(fct, 3)),
                report
                    .packet()
                    .expect("packet run")
                    .chunks_detoured
                    .to_string(),
            ])
        });
    }
    spec.push_note(
        "expectation: FCT is broadly insensitive (detouring is also queue-triggered); \
         very long windows react sluggishly at flow start",
    );
    spec
}

// ------------------------------------------------------------ Ablation A6

/// The A6 scenarios in presentation order: each label with the transport
/// of the flow that shares the network with the AIMD probe, if any.
const COEXISTENCE: [(&str, Option<FlowTransport>); 3] = [
    ("AIMD alone", None),
    ("AIMD + AIMD", Some(FlowTransport::Aimd)),
    ("AIMD + INRPP", Some(FlowTransport::Inrpp)),
];

fn coexistence_spec() -> SweepSpec {
    let mut spec = SweepSpec::new(
        "coexistence",
        "A6 — Coexistence: does INRPP starve an AIMD (TCP-like) flow?",
        [
            "scenario",
            "AIMD probe goodput",
            "companion goodput",
            "drops",
        ],
    );
    for (label, companion) in COEXISTENCE {
        spec.push_cell(label, move |_ctx| {
            // per-flow transport mixing rides the raw `PacketSim` API,
            // which the session facade does not expose
            let topo = Topology::fig3();
            let transfer = |flow: u64| TransferSpec {
                flow,
                src: topo.node_by_name("1").expect("fig3"),
                dst: topo.node_by_name("4").expect("fig3"),
                chunks: 500,
                start: SimTime::ZERO,
            };
            let mut sim = PacketSim::new(
                &topo,
                PacketSimConfig {
                    transport: TransportKind::Mixed {
                        inrpp: InrppConfig::default(),
                        aimd: AimdConfig,
                    },
                    horizon: SimDuration::from_secs(120),
                    ..PacketSimConfig::default()
                },
            );
            sim.add_transfer_as(transfer(1), FlowTransport::Aimd);
            if let Some(t) = companion {
                sim.add_transfer_as(transfer(2), t);
            }
            let r = sim.run();
            let goodput = |idx: usize| -> f64 {
                let flow = &r.flows[idx];
                match flow.fct() {
                    Some(d) => {
                        flow.chunks_delivered as f64 * r.chunk_bytes.as_bits() as f64
                            / d.as_secs_f64()
                    }
                    None => 0.0,
                }
            };
            let probe = goodput(0);
            CellOutput::new()
                .with_row([
                    label.to_string(),
                    format!("{} Mbps", f(probe / 1e6, 2)),
                    companion
                        .map(|_| format!("{} Mbps", f(goodput(1) / 1e6, 2)))
                        .unwrap_or_else(|| "-".to_string()),
                    r.chunks_dropped.to_string(),
                ])
                .with_data([probe])
        });
    }
    spec.push_note(
        "reading: an INRPP companion pools the node-3 side path instead of fighting \
         for the 2 Mbps bottleneck, so the AIMD probe keeps (at least) its fair \
         share — in-network pooling is TCP-friendly by construction",
    );
    spec
}

// ------------------------------------------------------------ Ablation A7

/// A7 on `isp`: SP and URP throughput at `load` times the capacity proxy.
fn load_point(isp: Isp, base: &Fig4Config, load: f64) -> (f64, f64) {
    let cfg = base.with_load(load);
    let topo = generate_with_capacities(&isp.profile(), cfg.seed, cfg.capacities);
    let workload = build_workload(&topo, &cfg);
    let run = |strategy| fluid_throughput(&topo, &workload, strategy, &cfg);
    (
        run(SessionStrategy::Sp),
        run(SessionStrategy::Urp(cfg.inrp)),
    )
}

fn load_sweep_spec(opts: &SweepOptions) -> SweepSpec {
    let base = if opts.quick {
        quick_fig4_config()
    } else {
        Fig4Config {
            duration: SimDuration::from_secs(3),
            mean_flow_bits: 60e6,
            seed: SEED,
            ..Fig4Config::default()
        }
    };
    let mut spec = SweepSpec::new(
        "ablation-load-sweep",
        "A7 — Load sweep on Exodus (URP gain vs offered load)",
        ["load (x capacity proxy)", "SP", "URP", "URP gain"],
    );
    for load in [0.1, 0.25, 0.5, 1.0, 1.5, 2.0] {
        spec.push_cell(format!("load {load}x"), move |_ctx| {
            let (sp, urp) = load_point(Isp::Exodus, &base, load);
            let gain_pct = if sp > 0.0 {
                100.0 * (urp - sp) / sp
            } else {
                0.0
            };
            CellOutput::new().with_row([
                load.to_string(),
                f(sp, 3),
                f(urp, 3),
                format!("{gain_pct:+.1}%"),
            ])
        });
    }
    spec.push_note(
        "reading: near-zero gain while the network carries everything, a pooling \
         peak at moderate congestion, and a declining dividend under deep \
         overload — once the detour paths saturate too, no routing scheme can \
         manufacture capacity",
    );
    spec
}

// ------------------------------------------------------------ Ablation A8

/// The A8 failure grid: fractions of links failed.
const FAILED_FRACTIONS: [f64; 4] = [0.0, 0.05, 0.1, 0.2];

/// The deterministic victim set for A8: up to `max_kill` randomly chosen
/// *non-bridge* links whose joint removal keeps `base` connected.
///
/// Candidates are shuffled with a stream derived from `seed`, then
/// admitted greedily — several individually safe removals can jointly
/// partition the graph, so each admission re-checks connectivity. The
/// result depends only on `(base, seed, max_kill)`, which lets parallel
/// sweep cells recompute an *identical* set instead of sharing state;
/// a smaller `max_kill` yields a prefix of the same set.
fn link_failure_victims(base: &Topology, seed: u64, max_kill: usize) -> Vec<LinkId> {
    let mut candidates: Vec<LinkId> = base
        .link_ids()
        .filter(|&l| classify_link(base, l) != DetourClass::None)
        .collect();
    let mut rng = SimRng::from_seed_u64(seed ^ 0xFA11);
    rng.shuffle(&mut candidates);
    let mut safe_victims: Vec<LinkId> = Vec::new();
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

/// A8 on `isp`: SP and URP throughput with `frac` of the links failed,
/// under the *intact* network's workload, so the throughput change
/// isolates the capacity lost to failures.
fn link_failure_point(isp: Isp, cfg: &Fig4Config, frac: f64) -> (f64, f64) {
    let base = generate_with_capacities(&isp.profile(), cfg.seed, cfg.capacities);
    let kill_at = |share: f64| ((base.link_count() as f64) * share).round() as usize;
    let max_kill = FAILED_FRACTIONS.map(kill_at).into_iter().max().unwrap_or(0);
    let victims = link_failure_victims(&base, cfg.seed, max_kill);
    let workload = build_workload(&base, cfg);
    let topo = base.without_links(&victims[..kill_at(frac).min(victims.len())]);
    let run = |strategy| fluid_throughput(&topo, &workload, strategy, cfg);
    (
        run(SessionStrategy::Sp),
        run(SessionStrategy::Urp(cfg.inrp)),
    )
}

fn link_failure_spec(opts: &SweepOptions) -> SweepSpec {
    let cfg = if opts.quick {
        quick_fig4_config()
    } else {
        Fig4Config {
            duration: SimDuration::from_secs(3),
            mean_flow_bits: 60e6,
            load: 1.0,
            seed: SEED,
            ..Fig4Config::default()
        }
    };
    let mut spec = SweepSpec::new(
        "ablation-link-failure",
        format!("A8 — Link-failure robustness (Exodus, load {}x)", cfg.load).as_str(),
        ["links failed", "SP", "URP", "URP edge"],
    );
    for frac in FAILED_FRACTIONS {
        spec.push_cell(format!("{:.0}% failed", frac * 100.0), move |_ctx| {
            let failed = format!("{:.0}%", frac * 100.0);
            let (sp, urp) = link_failure_point(Isp::Exodus, &cfg, frac);
            if sp.is_nan() {
                return CellOutput::new().with_row([
                    failed,
                    "(partitioned)".to_string(),
                    String::new(),
                    String::new(),
                ]);
            }
            CellOutput::new().with_row([
                failed,
                f(sp, 3),
                f(urp, 3),
                format!("{:+.1}%", 100.0 * (urp - sp) / sp),
            ])
        });
    }
    spec.push_note(
        "reading: URP's detour machinery keeps soaking up capacity lost to \
         failures; SP throughput falls with every shortest-path tree the \
         failures break",
    );
    spec
}

// ----------------------------------------------------------------- export

fn export_spec() -> SweepSpec {
    let mut spec = SweepSpec::new(
        "export-topologies",
        "Exported ISP topologies (plain-text edge lists)",
        ["ISP", "file", "nodes", "links", "diameter"],
    );
    for isp in Isp::all() {
        spec.push_cell(isp.name(), move |_ctx| {
            let topo = generate_isp(isp, SEED);
            let stats = inrpp_topology::stats::graph_stats(&topo);
            let file = format!("{}.topo", slug(isp.name()));
            CellOutput::new()
                .with_row([
                    isp.name().to_string(),
                    file.clone(),
                    stats.nodes.to_string(),
                    stats.links.to_string(),
                    format!("{:?}", stats.diameter),
                ])
                .with_artifact(file, inrpp_topology::io::write_topology(&topo))
        });
    }
    spec.push_note("reload with inrpp_topology::io::read_topology(&fs::read_to_string(path)?)");
    spec
}

// ---------------------------------------------------------------- formats

/// How a report is printed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// Human-readable aligned table plus notes (the default).
    #[default]
    Table,
    /// RFC 4180 CSV of the tabular part.
    Csv,
    /// One canonical JSON object.
    Json,
}

impl std::str::FromStr for OutputFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "table" => Ok(OutputFormat::Table),
            "csv" => Ok(OutputFormat::Csv),
            "json" => Ok(OutputFormat::Json),
            other => Err(format!(
                "unknown format '{other}' (expected table|csv|json)"
            )),
        }
    }
}

/// Render a merged report in the requested format.
pub fn render(report: &SweepReport, format: OutputFormat) -> String {
    match format {
        OutputFormat::Csv => report.to_csv(),
        OutputFormat::Json => {
            let mut s = report.to_json();
            s.push('\n');
            s
        }
        OutputFormat::Table => {
            let mut t = Table::new(report.columns.to_vec());
            for row in &report.rows {
                t.row(row.clone());
            }
            let mut out = format!("{}\n\n{}", report.title, t.render());
            for note in &report.notes {
                out.push_str(note);
                out.push('\n');
            }
            out
        }
    }
}

/// Write every artifact of `report` under `dir` (created if needed),
/// echoing one line per file to **stderr** — stdout stays clean for the
/// `--format csv|json` machine-readable streams.
///
/// # Panics
/// Panics if the directory or a file cannot be written — artifact export
/// is the whole point of the callers that use it.
pub fn write_artifacts(report: &SweepReport, dir: &std::path::Path) {
    std::fs::create_dir_all(dir).expect("create artifact output directory");
    for a in &report.artifacts {
        let path = dir.join(&a.name);
        std::fs::write(&path, &a.contents).expect("write artifact");
        eprintln!("wrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inrpp_runner::{run_sweep, CellCtx, RunnerConfig};

    #[test]
    fn registry_covers_every_id_and_rejects_unknown() {
        let opts = SweepOptions::default();
        for e in EXPERIMENTS {
            let id = e.id;
            let spec = build(id, &opts).unwrap_or_else(|| panic!("{id} missing"));
            assert_eq!(spec.id(), id);
            assert!(!spec.is_empty(), "{id} has no cells");
            assert!(!spec.columns().is_empty(), "{id} has no columns");
        }
        assert!(build("no-such-experiment", &opts).is_none());
        assert!(
            build("all", &opts).is_none(),
            "'all' is a CLI alias, not a sweep"
        );
    }

    #[test]
    fn quick_table1_sweep_matches_direct_computation() {
        // `tests/golden/table1.json` pins every value
        let spec = build("table1", &SweepOptions::default()).unwrap();
        let report = run_sweep(&spec, &RunnerConfig { threads: 2 });
        // 9 ISPs + the Average row
        assert_eq!(report.rows.len(), 10);
        assert_eq!(report.rows[9][0], "Average");
        assert!(report.notes[0].contains("worst per-cell deviation"));
    }

    /// The data payload of cell `index` of the quick `id` sweep, run on
    /// its own.
    fn quick_cell_data(id: &str, index: usize) -> Vec<f64> {
        let opts = SweepOptions {
            quick: true,
            ..SweepOptions::default()
        };
        let spec = build(id, &opts).unwrap();
        (spec.cells()[index].run)(&CellCtx::new(id, index as u64)).data
    }

    #[test]
    fn ablation_detour_depth_monotone_gain() {
        let cfg = quick_fig4_config();
        let res = [0, 1, 2].map(|depth| detour_depth_throughput(Isp::Vsnl, &cfg, depth));
        // depth 0 is plain SP; any detour depth must not hurt
        assert!(res[1] >= res[0] - 1e-9, "{res:?}");
        assert!(res[2] >= res[1] - 1e-9, "{res:?}");
    }

    #[test]
    fn ablation_anticipation_runs() {
        // cells 0 and 3: A_c = 0 and A_c = 4
        for index in [0, 3] {
            let fct = quick_cell_data("ablation-anticipation", index)[0];
            assert!(fct.is_finite(), "flow must complete");
        }
    }

    #[test]
    fn link_failure_degrades_gracefully() {
        let cfg = quick_fig4_config();
        let rows = [0.0, 0.1].map(|frac| link_failure_point(Isp::Vsnl, &cfg, frac));
        for (sp, urp) in rows {
            assert!(sp.is_finite() && urp.is_finite());
            assert!(urp >= sp * 0.98, "URP should not trail SP: {rows:?}");
        }
        // failures must not increase throughput under a fixed workload
        assert!(rows[1].0 <= rows[0].0 + 0.02, "{rows:?}");
    }

    #[test]
    fn load_sweep_is_unimodalish() {
        let cfg = quick_fig4_config();
        let rows = [0.1, 1.5].map(|load| load_point(Isp::Vsnl, &cfg, load));
        // throughput ratio falls with load
        assert!(rows[0].0 > rows[1].0, "{rows:?}");
        // light load delivers nearly everything
        assert!(rows[0].0 > 0.8, "{rows:?}");
    }

    #[test]
    fn coexistence_inrpp_is_not_predatory() {
        let [alone, vs_aimd, vs_inrpp] = [0, 1, 2].map(|i| quick_cell_data("coexistence", i)[0]);
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
    fn scenario_catalog_is_fully_registered() {
        // every catalog cell has a registry row, and every registered
        // scenario id resolves to a catalog cell
        let registered: Vec<&str> = EXPERIMENTS
            .iter()
            .map(|e| e.id)
            .filter(|id| id.starts_with("scenario:"))
            .collect();
        let catalog = inrpp::scenario::scenario_catalog();
        assert_eq!(registered.len(), catalog.len());
        assert!(
            registered.len() >= 8,
            "catalog must expose at least 8 sweeps"
        );
        for spec in &catalog {
            assert!(
                registered.contains(&spec.id().as_str()),
                "{} unregistered",
                spec.id()
            );
        }
        assert!(build("scenario:not-a:family", &SweepOptions::default()).is_none());
    }

    #[test]
    fn scenario_sweep_runs_the_trio() {
        let opts = SweepOptions {
            quick: true,
            ..SweepOptions::default()
        };
        let spec = build("scenario:het-dumbbell:heavy-tail", &opts).unwrap();
        assert_eq!(spec.len(), 3, "one cell per strategy");
        let report = run_sweep(&spec, &RunnerConfig { threads: 2 });
        assert_eq!(report.rows.len(), 3);
        assert_eq!(report.rows[0][0], "SP");
        assert_eq!(report.rows[1][0], "ECMP");
        assert_eq!(report.rows[2][0], "URP");
        assert!(
            report
                .notes
                .iter()
                .any(|n| n.contains("URP vs SP throughput")),
            "missing gain note: {:?}",
            report.notes
        );
    }

    #[test]
    fn fig4a_multiseed_grid_is_topology_major() {
        let opts = SweepOptions {
            quick: true,
            seeds: 2,
        };
        let spec = build("fig4a", &opts).unwrap();
        assert_eq!(spec.len(), 6, "3 topologies x 2 seeds");
        assert!(spec.cells()[0].label.starts_with("Telstra"));
        assert!(spec.cells()[1].label.ends_with("seed 1"));
        assert!(spec.cells()[2].label.starts_with("Exodus"));
    }

    #[test]
    fn formats_parse_and_render() {
        use std::str::FromStr;
        assert_eq!(OutputFormat::from_str("json").unwrap(), OutputFormat::Json);
        assert!(OutputFormat::from_str("xml").is_err());
        let report = SweepReport {
            experiment: "x".to_string(),
            title: "T".to_string(),
            columns: vec!["a".to_string()],
            rows: vec![vec!["1".to_string()]],
            notes: vec!["n".to_string()],
            artifacts: vec![],
        };
        let table = render(&report, OutputFormat::Table);
        assert!(table.starts_with("T\n\n"));
        assert!(table.contains('a') && table.ends_with("n\n"));
        assert_eq!(render(&report, OutputFormat::Csv), "a\n1\n");
        assert!(render(&report, OutputFormat::Json).starts_with("{\"experiment\":\"x\""));
    }

    #[test]
    fn export_sweep_produces_loadable_artifacts() {
        let spec = build("export-topologies", &SweepOptions::default()).unwrap();
        let report = run_sweep(&spec, &RunnerConfig::default());
        assert_eq!(report.artifacts.len(), 9);
        assert_eq!(
            report.artifacts[0].name,
            format!("{}.topo", slug(Isp::all()[0].name()))
        );
        let reloaded =
            inrpp_topology::io::read_topology(&report.artifacts[0].contents).expect("round-trip");
        assert!(reloaded.node_count() > 0);
    }
}
