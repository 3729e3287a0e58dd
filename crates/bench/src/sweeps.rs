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

use inrpp::scenario::{run_fig4_row, Fig4Config};
use inrpp::sweep::Grid;
use inrpp_runner::{CellOutput, SweepReport, SweepSpec};
use inrpp_sim::time::SimDuration;
use inrpp_topology::rocketfuel::{generate_isp, generate_with_capacities, Isp};

use crate::experiments::{self, quick_fig4_config, CoexistenceScenario, SEED};
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
            let r = experiments::table1_row(isp, SEED);
            CellOutput::new()
                .with_row([
                    r.isp.name().to_string(),
                    r.nodes.to_string(),
                    r.links.to_string(),
                    pct(r.measured[0]),
                    pct(r.paper[0]),
                    pct(r.measured[1]),
                    pct(r.paper[1]),
                    pct(r.measured[2]),
                    pct(r.paper[2]),
                    pct(r.measured[3]),
                    pct(r.paper[3]),
                ])
                .with_data(r.measured.iter().chain(r.paper.iter()).copied())
        });
    }
    spec.set_finish(|outputs, report| {
        // rebuild just enough of each Table1Row from the cell payloads to
        // reuse the library's averaging/deviation arithmetic — one copy of
        // the "Average" row convention, shared with the unit tests
        let rows: Vec<experiments::Table1Row> = Isp::all()
            .into_iter()
            .zip(outputs)
            .map(|(isp, o)| experiments::Table1Row {
                isp,
                measured: [o.data[0], o.data[1], o.data[2], o.data[3]],
                paper: [o.data[4], o.data[5], o.data[6], o.data[7]],
                nodes: 0,
                links: 0,
            })
            .collect();
        let avg = experiments::table1_average(&rows);
        let (m, p) = (avg.measured, avg.paper);
        let worst = rows
            .iter()
            .map(experiments::Table1Row::max_deviation)
            .fold(0.0f64, f64::max);
        report.rows.push(vec![
            "Average".to_string(),
            String::new(),
            String::new(),
            pct(m[0]),
            pct(p[0]),
            pct(m[1]),
            pct(p[1]),
            pct(m[2]),
            pct(p[2]),
            pct(m[3]),
            pct(p[3]),
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
    for isp in inrpp::scenario::fig4_topologies() {
        spec.push_cell(isp.name(), move |_ctx| {
            let row = experiments::fig2_regime_row(isp, &cfg);
            CellOutput::new().with_row([
                row.topology,
                f(row.sp, 3),
                f(row.mptcp, 3),
                f(row.urp, 3),
                format!("{:+.1}%", 100.0 * (row.mptcp - row.sp) / row.sp),
                format!("{:+.1}%", 100.0 * (row.urp - row.sp) / row.sp),
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
        let out = experiments::fig3();
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
        for isp in inrpp::scenario::fig4_topologies() {
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
    // seed-aggregated variant: one cell per (topology, seed); cells draw
    // their workload/topology seed from the per-cell stream so the grid is
    // embarrassingly parallel yet byte-stable at any thread count
    let topologies = inrpp::scenario::fig4_topologies();
    let nseeds = opts.seeds;
    let grid = Grid::new()
        .axis("topology", topologies.len())
        .axis("seed", nseeds);
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
    for i in 0..grid.len() {
        let coord = grid.coord(i);
        let isp = topologies[coord[0]];
        spec.push_cell(format!("{} seed {}", isp.name(), coord[1]), move |ctx| {
            let row = run_fig4_row(isp, &cfg.with_seed(ctx.seed));
            CellOutput::new().with_data([
                row.sp.throughput(),
                row.ecmp.throughput(),
                row.urp.throughput(),
                row.urp_gain_over_sp_pct(),
            ])
        });
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
    let topologies = inrpp::scenario::fig4_topologies();
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
        let feas = experiments::custody_feasibility();
        let headline = feas.headline;
        let mut out = CellOutput::new().with_note(format!(
            "headline: 10 GB cache behind a 40 Gbps link holds line-rate traffic \
             for {headline} (paper: 2 seconds)"
        ));
        for r in &feas.rows {
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
            let res = experiments::ablation_detour_depth(Isp::Exodus, &cfg, &[depth]);
            CellOutput::new().with_data([res[0].depth as f64, res[0].throughput])
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

// ------------------------------------------------------------ Ablation A2

fn anticipation_spec() -> SweepSpec {
    let mut spec = SweepSpec::new(
        "ablation-anticipation",
        "A2 — Anticipation window sweep (Fig. 3 network, 600-chunk flow 1->4)",
        ["A_c (chunks)", "flow completion time"],
    );
    for ac in [0u64, 1, 2, 4, 8, 16, 32] {
        spec.push_cell(format!("A_c {ac}"), move |_ctx| {
            let res = experiments::ablation_anticipation(&[ac]);
            CellOutput::new().with_row([ac.to_string(), format!("{}s", f(res[0].fct_secs, 3))])
        });
    }
    spec.push_note(
        "expectation: tiny windows starve the pipe (request-rate limited); larger \
         windows approach the pooled-capacity completion time",
    );
    spec
}

// ------------------------------------------------------------ Ablation A3

fn cache_size_spec() -> SweepSpec {
    let mut spec = SweepSpec::new(
        "ablation-cache-size",
        "A3 — Custody budget sweep (Fig. 3 network, 2 overloading flows)",
        ["budget (x BDP)", "chunks dropped", "chunks custodied"],
    );
    for m in [0.1, 0.5, 1.0, 2.0, 10.0, 100.0] {
        spec.push_cell(format!("budget {m}x BDP"), move |_ctx| {
            let res = experiments::ablation_cache_size(&[m]);
            CellOutput::new().with_row([
                res[0].budget_x_bdp.to_string(),
                res[0].chunks_dropped.to_string(),
                res[0].chunks_custodied.to_string(),
            ])
        });
    }
    spec.push_note(
        "expectation: more custody headroom absorbs bursts that would otherwise \
         drop; beyond a few BDP the benefit flattens",
    );
    spec
}

// ------------------------------------------------------------ Ablation A4

fn backpressure_spec() -> SweepSpec {
    use inrpp::InrppConfig;
    use inrpp_packetsim::{AimdConfig, TransportKind};
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
    let transports = [
        ("INRPP", TransportKind::Inrpp(InrppConfig::default())),
        ("AIMD", TransportKind::Aimd(AimdConfig::default())),
    ];
    for (label, kind) in transports {
        spec.push_cell(label, move |_ctx| {
            let r = experiments::ablation_transport_single(kind);
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

// ------------------------------------------------------------ Ablation A5

fn interval_spec() -> SweepSpec {
    let mut spec = SweepSpec::new(
        "ablation-interval",
        "A5 — Estimator interval sweep (Fig. 3 network, 600-chunk flow)",
        ["T_i (ms)", "FCT", "chunks detoured"],
    );
    for ms in [10u64, 25, 50, 100, 200, 400] {
        spec.push_cell(format!("T_i {ms}ms"), move |_ctx| {
            let res = experiments::ablation_interval(&[ms]);
            CellOutput::new().with_row([
                res[0].interval_ms.to_string(),
                format!("{}s", f(res[0].fct_secs, 3)),
                res[0].chunks_detoured.to_string(),
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
    for scenario in CoexistenceScenario::all() {
        spec.push_cell(scenario.label(), move |_ctx| {
            let r = experiments::coexistence_scenario(scenario);
            CellOutput::new().with_row([
                r.scenario.to_string(),
                format!("{} Mbps", f(r.aimd_goodput / 1e6, 2)),
                r.companion_goodput
                    .map(|g| format!("{} Mbps", f(g / 1e6, 2)))
                    .unwrap_or_else(|| "-".to_string()),
                r.drops.to_string(),
            ])
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
            let rows = experiments::load_sweep(Isp::Exodus, &base, &[load]);
            CellOutput::new().with_row([
                rows[0].load.to_string(),
                f(rows[0].sp, 3),
                f(rows[0].urp, 3),
                format!("{:+.1}%", rows[0].gain_pct),
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
    const FRACTIONS: [f64; 4] = [0.0, 0.05, 0.1, 0.2];
    let mut spec = SweepSpec::new(
        "ablation-link-failure",
        format!("A8 — Link-failure robustness (Exodus, load {}x)", cfg.load).as_str(),
        ["links failed", "SP", "URP", "URP edge"],
    );
    for frac in FRACTIONS {
        spec.push_cell(format!("{:.0}% failed", frac * 100.0), move |_ctx| {
            // every cell recomputes the *identical* victim set (pure
            // function of topology, seed, and the full fraction grid)
            // instead of sharing it — the price of embarrassing parallelism
            let base = generate_with_capacities(&Isp::Exodus.profile(), cfg.seed, cfg.capacities);
            let victims = experiments::link_failure_victims(
                &base,
                cfg.seed,
                experiments::link_failure_max_kill(&base, &FRACTIONS),
            );
            let p = experiments::link_failure_point(&base, &victims, &cfg, frac);
            if p.sp.is_nan() {
                return CellOutput::new().with_row([
                    format!("{:.0}%", p.fraction * 100.0),
                    "(partitioned)".to_string(),
                    String::new(),
                    String::new(),
                ]);
            }
            CellOutput::new().with_row([
                format!("{:.0}%", p.fraction * 100.0),
                f(p.sp, 3),
                f(p.urp, 3),
                format!("{:+.1}%", 100.0 * (p.urp - p.sp) / p.sp),
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
    use inrpp_runner::{run_sweep, RunnerConfig};

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
        let spec = build("table1", &SweepOptions::default()).unwrap();
        let report = run_sweep(&spec, &RunnerConfig { threads: 2 });
        // 9 ISPs + the Average row
        assert_eq!(report.rows.len(), 10);
        let direct = experiments::table1(SEED);
        for (row, d) in report.rows.iter().zip(&direct) {
            assert_eq!(row[0], d.isp.name());
            assert_eq!(row[3], pct(d.measured[0]));
        }
        assert_eq!(report.rows[9][0], "Average");
        assert!(report.notes[0].contains("worst per-cell deviation"));
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
