//! The sweep-runner determinism gate: the parallel executor must produce
//! **byte-identical** serialized reports at any thread count — the
//! property that makes `--threads` safe to expose on every paper
//! artifact. Exercised end-to-end through the real experiment registry,
//! not a toy spec.
//!
//! Every gate runs in every build: the Table 1, export and
//! scenario-catalog gates take a few seconds at most in a debug build,
//! less than the two quick Fig. 4a gates. CI also runs this file in
//! release.

use inrpp_bench::sweeps::{self, SweepOptions};
use inrpp_runner::{run_sweep, RunnerConfig};

/// Serialize a sweep at a given thread count (JSON + CSV bytes).
fn run_serialized(id: &str, opts: &SweepOptions, threads: usize) -> (String, String) {
    let spec = sweeps::build(id, opts).expect("registered experiment");
    let report = run_sweep(&spec, &RunnerConfig { threads });
    (report.to_json(), report.to_csv())
}

#[test]
fn table1_sweep_is_byte_identical_at_threads_1_2_8() {
    let opts = SweepOptions::default();
    let baseline = run_serialized("table1", &opts, 1);
    assert!(baseline.0.contains("\"experiment\":\"table1\""));
    assert!(!baseline.1.is_empty());
    for threads in [2, 8] {
        let other = run_serialized("table1", &opts, threads);
        assert_eq!(
            baseline, other,
            "table1 sweep diverged between --threads 1 and --threads {threads}"
        );
    }
}

#[test]
fn quick_fig4a_sweep_is_byte_identical_at_threads_1_2_8() {
    // the flow-level simulator is the heaviest determinism surface
    // (workload generation, strategy state, weighted CDFs) — gate it too
    let opts = SweepOptions {
        quick: true,
        ..SweepOptions::default()
    };
    let baseline = run_serialized("fig4a", &opts, 1);
    for threads in [2, 8] {
        assert_eq!(
            baseline,
            run_serialized("fig4a", &opts, threads),
            "fig4a sweep diverged at --threads {threads}"
        );
    }
}

#[test]
fn multiseed_cells_use_derived_streams_and_stay_deterministic() {
    // the seed-aggregated Fig. 4a variant draws every cell's seed from
    // hash(experiment_id, cell_index) — rerunning at a different thread
    // count must reproduce the aggregate bytes exactly
    let opts = SweepOptions {
        quick: true,
        seeds: 2,
    };
    let a = run_serialized("fig4a", &opts, 1);
    let b = run_serialized("fig4a", &opts, 8);
    assert_eq!(a, b);
    // and the aggregate genuinely differs from the single-seed table
    let single = run_serialized(
        "fig4a",
        &SweepOptions {
            quick: true,
            ..SweepOptions::default()
        },
        1,
    );
    assert_ne!(a.1, single.1);
}

#[test]
fn every_scenario_sweep_is_byte_identical_at_threads_1_and_8() {
    // the catalog acceptance gate: every scenario:<topology>:<traffic>
    // cell must serialize to the same bytes at any worker count
    let opts = SweepOptions {
        quick: true,
        ..SweepOptions::default()
    };
    let ids: Vec<&str> = sweeps::EXPERIMENTS
        .iter()
        .map(|e| e.id)
        .filter(|id| id.starts_with("scenario:"))
        .collect();
    assert!(ids.len() >= 8, "catalog shrank below the acceptance floor");
    for id in ids {
        let serial = run_serialized(id, &opts, 1);
        let pooled = run_serialized(id, &opts, 8);
        assert_eq!(
            serial, pooled,
            "{id} diverged between --threads 1 and --threads 8"
        );
    }
}

#[test]
fn export_artifacts_are_stable_across_thread_counts() {
    let opts = SweepOptions::default();
    let spec = sweeps::build("export-topologies", &opts).expect("export sweep");
    let serial = run_sweep(&spec, &RunnerConfig { threads: 1 });
    let pooled = run_sweep(&spec, &RunnerConfig { threads: 8 });
    assert_eq!(serial.artifacts.len(), 9);
    for (a, b) in serial.artifacts.iter().zip(&pooled.artifacts) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.contents, b.contents, "{} diverged", a.name);
    }
}
