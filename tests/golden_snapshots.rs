//! Golden-snapshot gate for the machine-readable report formats.
//!
//! Two scenario-catalog sweeps at fixed seeds are rendered to CSV and
//! JSON, and every paper table and ablation the CLI computes from a
//! simulation is rendered to JSON (rows, notes and artifacts); each is
//! compared byte-for-byte against a checked-in fixture under
//! `tests/golden/`. Two distinct regression classes fail this test:
//!
//! * **report-schema drift** — column renames, row reordering, format
//!   changes in `SweepReport::to_csv` / `to_json`;
//! * **determinism drift** — any change to seed derivation, workload
//!   generation, or simulator arithmetic that silently alters published
//!   numbers.
//!
//! If a change is *intentional*, regenerate the fixtures with
//! `UPDATE_GOLDEN=1 cargo test --test golden_snapshots -- --include-ignored`
//! and review the diff like any other code change. Four sweeps take
//! seconds each in a debug build, so their fixtures are checked in
//! release only (CI runs this file with `--release -- --include-ignored`).

use inrpp_bench::sweeps::{self, OutputFormat, SweepOptions};
use inrpp_runner::{run_sweep, RunnerConfig};

/// The two catalog cells pinned by fixtures: one congestion-control
/// classic, one data-centre fabric — together they cover both simulator
/// calibration paths (proxy-based and flash-crowd server-based).
const GOLDEN_SCENARIOS: [&str; 2] = [
    "scenario:het-dumbbell:heavy-tail",
    "scenario:fat-tree:flash-crowd",
];

/// Paper tables, figures and ablations pinned as JSON (quick options,
/// 2 threads), each cheap in a debug build.
const GOLDEN_SWEEPS: [&str; 8] = [
    "table1",
    "fig3",
    "custody",
    "ablation-anticipation",
    "ablation-cache-size",
    "ablation-backpressure",
    "ablation-interval",
    "coexistence",
];

/// The pinned sweeps that take seconds each in a debug build.
const SLOW_GOLDEN_SWEEPS: [&str; 4] = [
    "fig2",
    "ablation-detour-depth",
    "ablation-load-sweep",
    "ablation-link-failure",
];

fn fixture_stem(id: &str) -> String {
    id.replace([':', '-'], "_")
}

fn render(id: &str, format: OutputFormat) -> String {
    let opts = SweepOptions {
        quick: true,
        ..SweepOptions::default()
    };
    let spec = sweeps::build(id, &opts).expect("golden scenario registered");
    // threads = 2 on purpose: goldens must not depend on worker count
    let report = run_sweep(&spec, &RunnerConfig { threads: 2 });
    sweeps::render(&report, format)
}

fn check(id: &str, format: OutputFormat, ext: &str) {
    let got = render(id, format);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{}.{ext}", fixture_stem(id)));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir");
        std::fs::write(&path, &got).expect("write fixture");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); regenerate with \
             UPDATE_GOLDEN=1 cargo test --test golden_snapshots",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "golden snapshot drifted for {id} ({ext}). If intentional, regenerate \
         with UPDATE_GOLDEN=1 cargo test --test golden_snapshots and review."
    );
}

#[test]
fn scenario_csv_snapshots_are_stable() {
    for id in GOLDEN_SCENARIOS {
        check(id, OutputFormat::Csv, "csv");
    }
}

#[test]
fn scenario_json_snapshots_are_stable() {
    for id in GOLDEN_SCENARIOS {
        check(id, OutputFormat::Json, "json");
    }
}

#[test]
fn paper_and_ablation_json_snapshots_are_stable() {
    for id in GOLDEN_SWEEPS {
        check(id, OutputFormat::Json, "json");
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "four fluid sweeps on the ISP maps take 2-6 s each in debug; \
              CI's `--release -- --include-ignored` step runs them"
)]
fn slow_paper_and_ablation_json_snapshots_are_stable() {
    for id in SLOW_GOLDEN_SWEEPS {
        check(id, OutputFormat::Json, "json");
    }
}

#[test]
fn experiment_listing_snapshot_is_stable() {
    // `inrpp list` is part of the CLI contract: the grouped rendering
    // (categories, ids, descriptions, ordering) is pinned like any other
    // machine-visible output. Regenerate with UPDATE_GOLDEN=1 on an
    // intentional registry change.
    let got = sweeps::render_experiment_list();
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/experiment_list.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir");
        std::fs::write(&path, &got).expect("write fixture");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); regenerate with \
             UPDATE_GOLDEN=1 cargo test --test golden_snapshots",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "experiment listing drifted. If intentional, regenerate with \
         UPDATE_GOLDEN=1 cargo test --test golden_snapshots and review."
    );
    // every registered id appears in the listing exactly once
    for e in sweeps::EXPERIMENTS {
        assert_eq!(
            got.matches(&format!("  {}", e.id)).count(),
            1,
            "{} not listed exactly once",
            e.id
        );
    }
}
