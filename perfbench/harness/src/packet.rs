//! `packet` and `packet-sharded`: the chunk-level engine.
//!
//! `packet` runs three inputs in turn through the sequential engine
//! (`PacketSim::run`): two deep INRPP transfers with detours on Fig. 3,
//! a 64-pair dumbbell of 128 mixed INRPP/AIMD flows with custody and
//! back-pressure on the shared bottleneck, and six cross-pod fat-tree
//! transfers through a mid-run core-uplink outage.
//!
//! `packet-sharded` runs a sharding-safe 16-pair dumbbell through
//! `PacketSim::try_run_sharded` at two workers over a fixed BFS
//! partition, and checks every report against the sequential engine's.
//!
//! The seed sets each transfer's length within ±3% of its base, so every
//! seed does the same amount of work on different inputs. An event is a
//! delivered chunk.

use std::time::Instant;

use inrpp::InrppConfig;
use inrpp_packetsim::{
    AimdConfig, FlowTransport, PacketSim, PacketSimConfig, PacketSimReport, TransferSpec,
    TransportKind,
};
use inrpp_sim::fault::{FaultEvent, FaultKind, FaultPlan};
use inrpp_sim::time::{SimDuration, SimTime};
use inrpp_sim::units::Rate;
use inrpp_topology::graph::NodeId;
use inrpp_topology::{BfsPartitioner, Partitioner, Topology};

use crate::host::{self, Cpu};
use crate::stats::{fastest, median, Output, SplitMix};
use crate::Args;

/// Worker threads of the sharded run.
const SHARD_WORKERS: usize = 2;

/// BFS partition seed of the sharded run: fixed, so the partition never
/// moves between runs.
const PARTITION_SEED: u64 = 7;

/// One packet-engine input, kept as data so it can be built many times.
pub struct Input {
    pub name: &'static str,
    topo: Topology,
    cfg: PacketSimConfig,
    transfers: Vec<TransferSpec>,
    /// Per-flow transports for `Mixed` configurations (cycled).
    kinds: Vec<FlowTransport>,
    faults: Option<FaultPlan>,
}

impl Input {
    fn sim(&self) -> PacketSim<'_> {
        let mut sim = PacketSim::new(&self.topo, self.cfg);
        if let Some(plan) = &self.faults {
            sim.set_faults(plan.clone());
        }
        for (i, t) in self.transfers.iter().enumerate() {
            if self.kinds.is_empty() {
                sim.add_transfer(*t);
            } else {
                sim.add_transfer_as(*t, self.kinds[i % self.kinds.len()]);
            }
        }
        sim
    }

    fn chunks(&self) -> u64 {
        self.transfers.iter().map(|t| t.chunks).sum()
    }
}

fn dumbbell_transfers(pairs: usize, per_flow: u64, len: &mut SplitMix) -> Vec<TransferSpec> {
    let mut transfers = Vec::new();
    for i in 0..pairs {
        for j in 0..2u64 {
            transfers.push(TransferSpec {
                flow: (i as u64) * 2 + j + 1,
                src: NodeId(i as u32),
                dst: NodeId((pairs + 2 + i) as u32),
                chunks: len.jitter(per_flow),
                start: SimTime::ZERO,
            });
        }
    }
    transfers
}

/// The three sequential inputs.
pub fn sequential_inputs(seed: u64) -> Vec<Input> {
    let mut len = SplitMix(seed);

    let fig3 = Topology::fig3();
    let n = |s: &str| fig3.node_by_name(s).expect("fig3 node");
    let deep = vec![
        TransferSpec {
            flow: 1,
            src: n("1"),
            dst: n("4"),
            chunks: len.jitter(180_000),
            start: SimTime::ZERO,
        },
        TransferSpec {
            flow: 2,
            src: n("1"),
            dst: n("3"),
            chunks: len.jitter(180_000),
            start: SimTime::ZERO,
        },
    ];

    let mixed = dumbbell_transfers(64, 1_000, &mut len);

    let tree = inrpp_topology::synth::fat_tree(4, 7);
    let t = |s: &str| tree.node_by_name(s).expect("fat-tree node");
    let mut outage = Vec::new();
    for core in ["core0", "core1"] {
        let link = tree
            .link_between(t("agg0-0"), t(core))
            .expect("agg0-0 core uplink")
            .idx() as u32;
        outage.push(FaultEvent {
            at: SimTime::from_secs(1),
            kind: FaultKind::LinkDown { link },
        });
        outage.push(FaultEvent {
            at: SimTime::from_secs(6),
            kind: FaultKind::LinkUp { link },
        });
    }
    outage.sort_by_key(|e| e.at);
    let pairs = [
        ("host0-0-0", "host1-0-0"),
        ("host0-0-1", "host1-1-1"),
        ("host0-1-0", "host2-0-0"),
        ("host0-1-1", "host2-1-1"),
        ("host0-0-0", "host3-0-0"),
        ("host0-1-0", "host3-1-1"),
    ];
    let cross_pod = pairs
        .iter()
        .enumerate()
        .map(|(i, (src, dst))| TransferSpec {
            flow: (i + 1) as u64,
            src: t(src),
            dst: t(dst),
            chunks: len.jitter(6_000),
            start: SimTime::from_millis(50 * i as u64),
        })
        .collect();

    vec![
        Input {
            name: "fig3-deep",
            topo: fig3,
            cfg: PacketSimConfig {
                horizon: SimDuration::from_secs(1_500),
                ..PacketSimConfig::default()
            },
            transfers: deep,
            kinds: Vec::new(),
            faults: None,
        },
        Input {
            name: "dumbbell-mixed",
            topo: Topology::dumbbell(
                64,
                Rate::mbps(10.0),
                Rate::mbps(100.0),
                SimDuration::from_millis(2),
            ),
            cfg: PacketSimConfig {
                transport: TransportKind::Mixed {
                    inrpp: InrppConfig::default(),
                    aimd: AimdConfig::default(),
                },
                horizon: SimDuration::from_secs(150),
                ..PacketSimConfig::default()
            },
            transfers: mixed,
            kinds: vec![FlowTransport::Inrpp, FlowTransport::Aimd],
            faults: None,
        },
        Input {
            name: "fattree-linkfail",
            topo: tree,
            cfg: PacketSimConfig {
                horizon: SimDuration::from_secs(400),
                ..PacketSimConfig::default()
            },
            transfers: cross_pod,
            kinds: Vec::new(),
            faults: Some(FaultPlan::try_new(outage).expect("uplink outage plan")),
        },
    ]
}

/// The sharding-safe dumbbell: fractional-Mbps rates and an odd
/// 2.700031 ms delay keep channel instants off the barrier ladder, and
/// load-aware detouring (which reads remote queues) is off.
pub fn sharded_input(seed: u64) -> Input {
    let pairs = 16;
    Input {
        name: "dumbbell-sharded",
        topo: Topology::dumbbell(
            pairs,
            Rate::mbps(97.3),
            Rate::mbps(393.9),
            SimDuration::from_nanos(2_700_031),
        ),
        cfg: PacketSimConfig {
            transport: TransportKind::Mixed {
                inrpp: InrppConfig {
                    load_aware_detour: false,
                    ..InrppConfig::default()
                },
                aimd: AimdConfig::default(),
            },
            horizon: SimDuration::from_secs(5),
            ..PacketSimConfig::default()
        },
        transfers: dumbbell_transfers(pairs, 3_200, &mut SplitMix(seed)),
        kinds: vec![FlowTransport::Inrpp, FlowTransport::Aimd],
        faults: None,
    }
}

/// Engine and custody counters of a set of reports, as per-layer metrics.
fn report_counters(reports: &[&PacketSimReport], out: &mut Output) {
    let sum = |f: fn(&PacketSimReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>();
    let delivered = sum(|r| r.chunks_delivered);
    let retransmits = sum(|r| r.flows.iter().map(|f| f.retransmits).sum());
    let dropped = sum(|r| r.chunks_dropped);
    out.metric("packetsim.chunks_delivered", delivered as f64, "count");
    out.metric("packetsim.retransmits", retransmits as f64, "count");
    out.metric("packetsim.chunks_dropped", dropped as f64, "count");
    out.metric(
        "packetsim.chunks_detoured",
        sum(|r| r.chunks_detoured) as f64,
        "count",
    );
    out.metric(
        "packetsim.backpressure_msgs",
        sum(|r| r.backpressure_msgs) as f64,
        "count",
    );
    out.metric(
        "packetsim.useful_ratio",
        delivered as f64 / (delivered + retransmits + dropped) as f64,
        "ratio",
    );
    out.metric(
        "cache.chunks_custodied",
        sum(|r| r.chunks_custodied) as f64,
        "count",
    );
    out.metric(
        "cache.chunks_rescued",
        sum(|r| r.chunks_rescued) as f64,
        "count",
    );
    let peak = reports
        .iter()
        .map(|r| r.custody_peak.as_bytes())
        .max()
        .unwrap_or(0);
    out.metric("cache.custody_peak_bytes", peak as f64, "B");
}

/// One timed pass over the inputs: CPU time unless named wall.
struct Pass {
    /// The whole pass, which paces the budget.
    wall_s: f64,
    build_s: f64,
    run_s: Vec<f64>,
    /// Each run's wall span: the sharded run's parallel time.
    run_wall_s: Vec<f64>,
    reports: Vec<PacketSimReport>,
}

impl Pass {
    fn cpu_s(&self) -> f64 {
        self.build_s + self.run_s.iter().sum::<f64>()
    }

    fn chunks(&self) -> u64 {
        self.reports.iter().map(|r| r.chunks_delivered).sum()
    }
}

/// Build every input, then run each, sharded or sequentially.
fn pass(inputs: &[Input], sharded: bool) -> Result<Pass, String> {
    let start = Instant::now();
    let t0 = Cpu::now();
    let sims: Vec<PacketSim<'_>> = inputs.iter().map(Input::sim).collect();
    let build_s = t0.elapsed_s();
    let mut run_s = Vec::new();
    let mut run_wall_s = Vec::new();
    let mut reports = Vec::new();
    for sim in sims {
        let wall = Instant::now();
        let t = Cpu::now();
        let report = if sharded {
            sim.try_run_sharded(SHARD_WORKERS, PARTITION_SEED)
                .map_err(|e| e.to_string())?
        } else {
            sim.run()
        };
        run_s.push(t.elapsed_s());
        run_wall_s.push(wall.elapsed().as_secs_f64());
        reports.push(report);
    }
    Ok(Pass {
        wall_s: start.elapsed().as_secs_f64(),
        build_s,
        run_s,
        run_wall_s,
        reports,
    })
}

/// Run passes until `budget` is spent (at least one), checking each
/// pass's reports against `want`.
fn measure(
    inputs: &[Input],
    sharded: bool,
    budget: std::time::Duration,
    want: &[PacketSimReport],
    out: &mut Output,
) -> Result<Vec<Pass>, String> {
    let start = Instant::now();
    let mut passes = Vec::new();
    // whole passes only, stopping before one would overrun the budget
    while passes
        .last()
        .is_none_or(|p: &Pass| start.elapsed().as_secs_f64() + p.wall_s < budget.as_secs_f64())
    {
        let p = pass(inputs, sharded)?;
        for (i, r) in p.reports.iter().enumerate() {
            out.tally.check(*r == want[i], || {
                format!(
                    "{}: {} report differs from the sequential engine's",
                    inputs[i].name,
                    if sharded { "sharded" } else { "repeated" }
                )
            });
        }
        passes.push(p);
    }
    Ok(passes)
}

fn end_to_end(passes: &[Pass], out: &mut Output) -> Result<(), String> {
    let all_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.run_s.iter().map(|s| s * 1e3))
        .collect();
    let q: Vec<String> = [0, 10, 25, 50, 75, 90, 100]
        .iter()
        .map(|&p| format!("p{p}={:.1}", crate::stats::percentile(&all_ms, p.max(1))))
        .collect();
    out.note(format!(
        "every engine run of {} passes, ms: {}",
        passes.len(),
        q.join(" ")
    ));
    // a reply is one pass, with each input at its fastest run: a sum over
    // the inputs, like a `fig4a` sweep, because a single input's fastest
    // run spread twice as far between runs as the sum did
    let best_s = fastest(passes.iter().map(|p| &p.run_s));
    let best_ms: Vec<String> = best_s.iter().map(|s| format!("{:.1}", s * 1e3)).collect();
    out.note(format!(
        "reply = one pass at each input's fastest run, ms: {}",
        best_ms.join(" + ")
    ));
    let pass_s: f64 = best_s.iter().sum();
    out.metric(
        "setup_s",
        median(&passes.iter().map(|p| p.build_s).collect::<Vec<_>>()),
        "s",
    );
    out.metric("events_per_s", passes[0].chunks() as f64 / pass_s, "1/s");
    out.metric("reply_p50_ms", pass_s * 1e3, "ms");
    out.metric("reply_p99_ms", pass_s * 1e3, "ms");
    out.metric("replies_per_s", 1.0 / pass_s, "1/s");
    out.metric(
        "peak_rss_mb",
        host::peak_rss_mb("self").ok_or("cannot read VmHWM")?,
        "MB",
    );
    Ok(())
}

pub fn run_sequential(args: &Args, out: &mut Output) -> Result<(), String> {
    let inputs = sequential_inputs(args.seed);
    let budget = if args.trace {
        args.budget / 2
    } else {
        args.budget
    };
    // the first pass is the reference the later ones must repeat
    let first = pass(&inputs, false)?;
    for (input, r) in inputs.iter().zip(&first.reports) {
        out.tally.check(r.chunks_delivered == input.chunks(), || {
            format!(
                "{}: delivered {} of {} chunks",
                input.name,
                r.chunks_delivered,
                input.chunks()
            )
        });
        out.count(
            format!("packet.{}.chunks_delivered", input.name),
            r.chunks_delivered,
        );
    }
    let want = first.reports.clone();
    let mut passes = vec![first];
    passes.extend(measure(&inputs, false, budget, &want, out)?);
    if !args.trace {
        return end_to_end(&passes, out);
    }

    let untraced_s = median(&passes.iter().map(Pass::cpu_s).collect::<Vec<_>>());
    let traced = measure(&inputs, false, budget, &want, out)?;
    let per = |f: &dyn Fn(&Pass) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    out.metric("packetsim.build_s", per(&|p| p.build_s), "s");
    for (i, input) in inputs.iter().enumerate() {
        out.metric(
            format!("packetsim.run_s.{}", input.name),
            per(&|p| p.run_s[i]),
            "s",
        );
    }
    out.metric(
        "packetsim.ns_per_chunk",
        per(&|p| 1e9 * p.run_s.iter().sum::<f64>() / p.chunks() as f64),
        "ns",
    );
    report_counters(&want.iter().collect::<Vec<_>>(), out);
    out.metric(
        "trace.overhead_pct",
        100.0 * (per(&Pass::cpu_s) / untraced_s - 1.0),
        "%",
    );
    Ok(())
}

pub fn run_sharded(args: &Args, out: &mut Output) -> Result<(), String> {
    let inputs = [sharded_input(args.seed)];
    let budget = if args.trace {
        args.budget / 2
    } else {
        args.budget
    };
    let t0 = Instant::now();
    let sequential = inputs[0].sim().run();
    let seq_first_s = t0.elapsed().as_secs_f64();
    out.count(
        "packet-sharded.chunks_delivered",
        sequential.chunks_delivered,
    );
    let want = [sequential];
    let passes = measure(&inputs, true, budget, &want, out)?;
    if !args.trace {
        return end_to_end(&passes, out);
    }

    let untraced_s = median(&passes.iter().map(Pass::cpu_s).collect::<Vec<_>>());
    // traced half: alternate sequential and sharded runs of the input
    let start = Instant::now();
    let mut seq_s = vec![seq_first_s];
    let mut traced = Vec::new();
    while traced.is_empty() || start.elapsed() < budget {
        let p = pass(&inputs, false)?;
        out.tally.check(p.reports[0] == want[0], || {
            "dumbbell-sharded: repeated sequential report differs".into()
        });
        seq_s.push(p.run_wall_s[0]);
        traced.extend(measure(
            &inputs,
            true,
            std::time::Duration::ZERO,
            &want,
            out,
        )?);
    }
    // wall spans: the parallel time, which CPU time would not show
    let shard_s = median(&traced.iter().map(|p| p.run_wall_s[0]).collect::<Vec<_>>());
    let seq_s = median(&seq_s);
    let mut partition_s = Vec::new();
    let mut cuts = 0;
    for _ in 0..5 {
        let t = Cpu::now();
        let partition = BfsPartitioner {
            seed: PARTITION_SEED,
        }
        .partition(&inputs[0].topo, SHARD_WORKERS);
        partition_s.push(t.elapsed_s());
        cuts = partition.cut_channels(&inputs[0].topo).len();
    }
    out.metric("shard.run_s", shard_s, "s");
    out.metric("shard.seq_run_s", seq_s, "s");
    out.metric("shard.speedup", seq_s / shard_s, "ratio");
    out.metric("topology.partition_s", median(&partition_s), "s");
    out.metric("topology.cut_channels", cuts as f64, "count");
    out.metric(
        "packetsim.build_s",
        median(&traced.iter().map(|p| p.build_s).collect::<Vec<_>>()),
        "s",
    );
    out.metric(
        "packetsim.ns_per_chunk",
        1e9 * median(&traced.iter().map(|p| p.run_s[0]).collect::<Vec<_>>())
            / want[0].chunks_delivered as f64,
        "ns",
    );
    report_counters(&[&want[0]], out);
    out.metric(
        "trace.overhead_pct",
        100.0 * (median(&traced.iter().map(Pass::cpu_s).collect::<Vec<_>>()) / untraced_s - 1.0),
        "%",
    );
    Ok(())
}
