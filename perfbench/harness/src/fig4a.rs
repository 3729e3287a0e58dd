//! `fig4a`: the paper's headline sweep — Telstra, Exodus and Tiscali
//! under SP, ECMP and URP — through `Session::run` on one thread.
//!
//! The topologies and flow arrivals are the suite's canonical ones
//! (seed 1221). The benchmark's seed scales every flow's size by a
//! factor within ±1%, so each seed is a different run of the same
//! offered load; seed 1221 leaves the sizes as generated. An event is a
//! flow arrival or completion.
//!
//! The traced pass replays each cell's allocation stream through a
//! fresh `AllocEngine` inside a probe: every admitted flow's paths come
//! from `RoutingStrategy::paths_for` (timed), every `on_allocation` is
//! re-solved with `AllocEngine::allocate` (timed) and must match the
//! engine's rates bit for bit, and a sample is re-solved by the
//! `max_min_allocate` oracle.

use std::collections::BTreeMap;
use std::time::Instant;

use inrpp::scenario::{build_workload, fig4_topologies, Fig4Config};
use inrpp::session::{
    AllocationEvent, FlowEnd, FlowStart, Probe, RunReport, Session, SessionStrategy,
};
use inrpp_flowsim::{max_min_allocate, AllocEngine, RoutingStrategy, Workload};
use inrpp_sim::time::SimDuration;
use inrpp_topology::rocketfuel::generate_with_capacities;
use inrpp_topology::{Path, Topology};

use crate::host::{self, Cpu};
use crate::stats::{median, Latency, Output, SplitMix, Tally};
use crate::Args;

/// Seed of the canonical maps and workloads (the suite's own).
const CANONICAL_SEED: u64 = 1221;

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;

/// Every this many allocations, the replay also runs the oracle.
const ORACLE_EVERY: u64 = 500;

/// The full-mode Fig. 4 configuration (load 1.25, 5 s, 80 Mbit mean).
fn config() -> Fig4Config {
    Fig4Config {
        duration: SimDuration::from_secs(5),
        load: 1.25,
        mean_flow_bits: 80e6,
        seed: CANONICAL_SEED,
        ..Fig4Config::default()
    }
}

fn strategies(cfg: &Fig4Config) -> [SessionStrategy; 3] {
    [
        SessionStrategy::Sp,
        SessionStrategy::Ecmp,
        SessionStrategy::Urp(cfg.inrp),
    ]
}

/// The built inputs plus how long each part took to build.
struct Setup {
    topos: Vec<Topology>,
    workloads: Vec<Workload>,
    generate_s: f64,
    workload_s: f64,
    strategy_s: f64,
}

fn setup(cfg: &Fig4Config, seed: u64) -> Setup {
    let t0 = Cpu::now();
    let topos: Vec<Topology> = fig4_topologies()
        .iter()
        .map(|isp| generate_with_capacities(&isp.profile(), cfg.seed, cfg.capacities))
        .collect();
    let generate_s = t0.elapsed_s();
    let t1 = Cpu::now();
    let mut sizes = SplitMix(seed);
    let workloads: Vec<Workload> = topos
        .iter()
        .map(|t| {
            let mut w = build_workload(t, cfg);
            if seed != CANONICAL_SEED {
                for f in &mut w.flows {
                    f.size_bits *= 0.99 + 0.02 * sizes.unit();
                }
                w.offered_bits = w.flows.iter().map(|f| f.size_bits).sum();
            }
            w
        })
        .collect();
    let workload_s = t1.elapsed_s();
    let t2 = Cpu::now();
    for topo in &topos {
        for s in strategies(cfg) {
            std::hint::black_box(s.build_fluid(topo));
        }
    }
    Setup {
        topos,
        workloads,
        generate_s,
        workload_s,
        strategy_s: t2.elapsed_s(),
    }
}

fn session<'a>(s: &'a Setup, cfg: &Fig4Config, cell: usize) -> Session<'a> {
    Session::builder()
        .topology(&s.topos[cell / 3])
        .workload(s.workloads[cell / 3].clone())
        .strategy(strategies(cfg)[cell % 3])
        .horizon(cfg.duration)
        .seed(cfg.seed)
        .build()
        .expect("fig4a sessions are well-formed")
}

fn events(r: &RunReport) -> u64 {
    (r.arrived_flows + r.completed_flows) as u64
}

/// FNV-1a over the report's aggregates and every flow's outcome.
fn digest(r: &RunReport) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    let mut put = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
        }
    };
    put(events(r));
    put(r.delivered_bits.to_bits());
    for f in &r.flows {
        put(f.flow);
        put(f.delivered_bits.to_bits());
        put(f.fct_secs.map_or(u64::MAX, f64::to_bits));
    }
    h
}

/// One untraced sweep of the nine cells.
struct Sweep {
    wall_s: f64,
    cpu_s: f64,
    events: u64,
    digests: Vec<u64>,
}

fn sweep(s: &Setup, cfg: &Fig4Config) -> Result<Sweep, String> {
    let t0 = Instant::now();
    let cpu0 = Cpu::now();
    let mut events_total = 0;
    let mut digests = Vec::with_capacity(9);
    for cell in 0..9 {
        let report = session(s, cfg, cell).run().map_err(|e| e.to_string())?;
        events_total += events(&report);
        digests.push(digest(&report));
    }
    Ok(Sweep {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: cpu0.elapsed_s(),
        events: events_total,
        digests,
    })
}

/// Replays a run's allocation stream through an independent engine.
struct Replay<'t> {
    topo: &'t Topology,
    strategy: Box<dyn RoutingStrategy>,
    engine: AllocEngine,
    active: BTreeMap<u64, Vec<Path>>,
    paths_s: f64,
    paths_calls: u64,
    subpaths: u64,
    allocate_us: Vec<f64>,
    flows_seen: u64,
    mismatches: u64,
    oracle_checks: u64,
    oracle_mismatches: u64,
}

impl<'t> Replay<'t> {
    fn new(topo: &'t Topology, strategy: SessionStrategy) -> Self {
        Replay {
            topo,
            strategy: strategy.build_fluid(topo),
            engine: AllocEngine::new(topo),
            active: BTreeMap::new(),
            paths_s: 0.0,
            paths_calls: 0,
            subpaths: 0,
            allocate_us: Vec::new(),
            flows_seen: 0,
            mismatches: 0,
            oracle_checks: 0,
            oracle_mismatches: 0,
        }
    }
}

fn bit_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

impl Probe for Replay<'_> {
    fn on_flow_start(&mut self, ev: &FlowStart) {
        let t0 = Cpu::now();
        let paths = self.strategy.paths_for(self.topo, ev.src, ev.dst, ev.flow);
        self.paths_s += t0.elapsed_s();
        self.paths_calls += 1;
        self.subpaths += paths.len() as u64;
        if paths.len() != ev.subpaths || self.engine.insert(ev.flow, &paths).is_err() {
            self.mismatches += 1;
        }
        self.active.insert(ev.flow, paths);
    }

    fn on_flow_end(&mut self, ev: &FlowEnd) {
        self.engine.remove(ev.flow);
        self.active.remove(&ev.flow);
    }

    fn on_allocation(&mut self, ev: &AllocationEvent<'_>) {
        let t0 = Cpu::now();
        self.engine.allocate();
        self.allocate_us.push(t0.elapsed_s() * 1e6);
        self.flows_seen += ev.flows.len() as u64;
        if self.engine.keys() != ev.flows || !bit_equal(self.engine.flow_rates(), ev.rates) {
            self.mismatches += 1;
        }
        if (self.allocate_us.len() as u64 - 1).is_multiple_of(ORACLE_EVERY) {
            let flows: Vec<Vec<Path>> = ev
                .flows
                .iter()
                .map(|f| self.active.get(f).cloned().unwrap_or_default())
                .collect();
            self.oracle_checks += 1;
            if !bit_equal(&max_min_allocate(self.topo, &flows).flow_rates, ev.rates) {
                self.oracle_mismatches += 1;
            }
        }
    }
}

/// Replay `cell`, checking it against its untraced digest.
fn replay_cell<'t>(
    s: &'t Setup,
    cfg: &Fig4Config,
    cell: usize,
    want: u64,
    tally: &mut Tally,
) -> Result<Replay<'t>, String> {
    let mut replay = Replay::new(&s.topos[cell / 3], strategies(cfg)[cell % 3]);
    let report = session(s, cfg, cell)
        .run_probed(&mut [&mut replay])
        .map_err(|e| e.to_string())?;
    tally.check(digest(&report) == want, || {
        format!("fig4a cell {cell}: a probed run differs from the unprobed one")
    });
    tally.check(replay.mismatches == 0, || {
        format!(
            "fig4a cell {cell}: {} of {} replayed allocations differ from the run",
            replay.mismatches,
            replay.allocate_us.len()
        )
    });
    tally.check(replay.oracle_mismatches == 0, || {
        format!(
            "fig4a cell {cell}: {} of {} sampled allocations differ from max_min_allocate",
            replay.oracle_mismatches, replay.oracle_checks
        )
    });
    Ok(replay)
}

pub fn run(args: &Args, out: &mut Output) -> Result<(), String> {
    let cfg = config();
    // time the set-up repeatedly, keeping only the last one built
    let mut s = setup(&cfg, args.seed);
    let mut timings = vec![(s.generate_s, s.workload_s, s.strategy_s)];
    for _ in 1..SETUP_REPEATS {
        s = setup(&cfg, args.seed);
        timings.push((s.generate_s, s.workload_s, s.strategy_s));
    }
    let setup_s = median(&timings.iter().map(|t| t.0 + t.1 + t.2).collect::<Vec<_>>());
    let generate_s = median(&timings.iter().map(|t| t.0).collect::<Vec<_>>());
    let workload_s = median(&timings.iter().map(|t| t.1).collect::<Vec<_>>());

    // a traced run takes one untraced sweep for reference, then spends
    // its budget on the traced pass
    let budget = if args.trace {
        std::time::Duration::ZERO
    } else {
        args.budget
    };
    let start = Instant::now();
    let mut sweeps: Vec<Sweep> = Vec::new();
    // whole sweeps only, stopping before one would overrun the budget
    while sweeps
        .last()
        .is_none_or(|w| start.elapsed().as_secs_f64() + w.wall_s < budget.as_secs_f64())
    {
        let sw = sweep(&s, &cfg)?;
        out.tally.op();
        if let Some(first) = sweeps.first() {
            out.tally.check(sw.digests == first.digests, || {
                "fig4a: a repeated sweep produced different reports".into()
            });
        }
        sweeps.push(sw);
    }
    let rss = host::peak_rss_mb("self").ok_or("cannot read VmHWM")?;
    let walls: Vec<String> = sweeps.iter().map(|w| format!("{:.3}", w.wall_s)).collect();
    out.note(format!("sweep walls (s): {}", walls.join(" ")));
    let digests = sweeps[0].digests.clone();
    let sweep_events = sweeps[0].events;
    out.count("fig4a.events", sweep_events);

    if !args.trace {
        // a reply is one whole sweep: its nine cells differ in size, so
        // a median over cells would jump between cells
        let sweep_ms: Vec<f64> = sweeps.iter().map(|w| w.cpu_s * 1e3).collect();
        let lat = Latency::of(&sweep_ms);
        out.note(format!(
            "reply = one sweep of nine cells; {}",
            lat.describe()
        ));
        out.metric("setup_s", setup_s, "s");
        out.metric(
            "events_per_s",
            median(
                &sweeps
                    .iter()
                    .map(|w| w.events as f64 / w.cpu_s)
                    .collect::<Vec<_>>(),
            ),
            "1/s",
        );
        out.metric("reply_p50_ms", lat.p50, "ms");
        out.metric("reply_p99_ms", lat.tail, "ms");
        out.metric(
            "replies_per_s",
            median(&sweeps.iter().map(|w| 1.0 / w.cpu_s).collect::<Vec<_>>()),
            "1/s",
        );
        out.metric("peak_rss_mb", rss, "MB");
        // one cell per run, rotating with the seed, gets the full replay
        let cell = (args.seed % 9) as usize;
        let replay = replay_cell(&s, &cfg, cell, digests[cell], &mut out.tally)?;
        out.count(
            format!("fig4a.cell{cell}.allocations"),
            replay.allocate_us.len() as u64,
        );
        return Ok(());
    }

    // traced pass: every cell runs unprobed and then replayed, back to
    // back, so both see the same machine; whole sweeps until the budget
    let start = Instant::now();
    let (mut plain_s, mut traced_s, mut paths_s) = (0.0, 0.0, 0.0);
    let (mut paths_calls, mut subpaths, mut flows_seen) = (0, 0, 0);
    let mut allocate_us = Vec::new();
    let mut rounds = 0u32;
    let mut last_s = 0.0;
    while rounds == 0 || start.elapsed().as_secs_f64() + last_s < args.budget.as_secs_f64() {
        let t = Instant::now();
        for (cell, &want) in digests.iter().enumerate() {
            let t0 = Cpu::now();
            let plain = session(&s, &cfg, cell).run().map_err(|e| e.to_string())?;
            plain_s += t0.elapsed_s();
            out.tally.check(digest(&plain) == want, || {
                format!("fig4a cell {cell}: a repeated run produced a different report")
            });
            let t1 = Cpu::now();
            let r = replay_cell(&s, &cfg, cell, want, &mut out.tally)?;
            traced_s += t1.elapsed_s();
            paths_s += r.paths_s;
            paths_calls += r.paths_calls;
            subpaths += r.subpaths;
            flows_seen += r.flows_seen;
            allocate_us.extend(r.allocate_us);
        }
        rounds += 1;
        last_s = t.elapsed().as_secs_f64();
    }
    let per_sweep = |x: f64| x / f64::from(rounds);
    let allocate_s = allocate_us.iter().sum::<f64>() / 1e6;
    let alloc = Latency::of(&allocate_us);
    let allocations = allocate_us.len() as u64 / u64::from(rounds);
    out.count("fig4a.allocations", allocations);
    out.count("fig4a.paths_calls", paths_calls / u64::from(rounds));
    out.count("fig4a.flows_allocated", flows_seen / u64::from(rounds));
    out.note(format!(
        "{rounds} traced sweeps; flowsim.allocate_us_p99: {}",
        alloc.describe()
    ));
    out.metric("topology.generate_s", generate_s, "s");
    out.metric("flowsim.workload_s", workload_s, "s");
    out.metric("flowsim.paths_s", per_sweep(paths_s), "s");
    out.metric(
        "flowsim.paths_calls",
        per_sweep(paths_calls as f64),
        "count",
    );
    out.metric(
        "flowsim.subpaths_per_flow",
        subpaths as f64 / paths_calls as f64,
        "count",
    );
    out.metric("flowsim.allocate_s", per_sweep(allocate_s), "s");
    out.metric("flowsim.allocations", allocations as f64, "count");
    out.metric("flowsim.allocate_us_p50", alloc.p50, "us");
    out.metric("flowsim.allocate_us_p99", alloc.tail, "us");
    out.metric(
        "flowsim.flows_per_allocation",
        flows_seen as f64 / allocate_us.len() as f64,
        "count",
    );
    out.metric(
        "flowsim.rest_s",
        per_sweep(plain_s - paths_s - allocate_s),
        "s",
    );
    out.metric("flowsim.allocate_share", allocate_s / plain_s, "ratio");
    out.metric(
        "trace.overhead_pct",
        100.0 * (traced_s / plain_s - 1.0),
        "%",
    );
    Ok(())
}
