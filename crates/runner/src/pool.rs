//! The work-distributing executor.
//!
//! Scheduling model: one atomic cursor over the cell list is the shared
//! work queue (cells are coarse enough — whole simulations — that queue
//! contention is irrelevant). Each worker pops the next index, runs the
//! cell against a [`CellCtx`] derived purely from `(experiment, index)`,
//! and stores the output in that cell's dedicated slot. After the scoped
//! pool joins, the slots are merged in index order. Nothing observable
//! depends on which worker ran what, so any `--threads` value produces
//! byte-identical reports.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::report::SweepReport;
use crate::spec::{CellCtx, CellOutput, SweepSpec};

/// Executor knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunnerConfig {
    /// Worker threads to spawn (clamped to at least 1 and at most the
    /// cell count). `RunnerConfig::default()` uses the host's available
    /// parallelism.
    pub threads: usize,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

/// Run every cell of `spec` on a worker pool and merge the outputs in
/// canonical cell order.
///
/// The report is **bit-identical for every `cfg.threads` value**: cells
/// derive all randomness from their index, workers never share mutable
/// state, and the merge happens after the pool has joined.
///
/// ```
/// use inrpp_runner::{run_sweep, CellOutput, RunnerConfig, SweepSpec};
///
/// let mut spec = SweepSpec::new("ctx-demo", "Cell seeds", ["index", "seed"]);
/// for i in 0..6u64 {
///     spec.push_cell(format!("cell {i}"), |ctx| {
///         // a cell's context — and therefore its RNG stream — depends
///         // only on (experiment, index), never on the executing thread
///         CellOutput::new().with_row([ctx.index.to_string(), ctx.seed.to_string()])
///     });
/// }
/// let serial = run_sweep(&spec, &RunnerConfig { threads: 1 });
/// let pooled = run_sweep(&spec, &RunnerConfig { threads: 4 });
/// assert_eq!(serial.to_json(), pooled.to_json());
/// ```
///
/// # Panics
/// Propagates a panic from any cell (a panicking cell is a bug, exactly as
/// it would be in a serial run).
pub fn run_sweep(spec: &SweepSpec, cfg: &RunnerConfig) -> SweepReport {
    let n = spec.len();
    let threads = cfg.threads.max(1).min(n.max(1));
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<CellOutput>>> = (0..n).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let ctx = CellCtx::new(spec.id(), i as u64);
                let out = (spec.cells()[i].run)(&ctx);
                *slots[i].lock().expect("cell slot poisoned") = Some(out);
            });
        }
    });

    let outputs: Vec<CellOutput> = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("cell slot poisoned")
                .expect("every cell index below the cursor limit was executed")
        })
        .collect();

    let mut report = SweepReport {
        experiment: spec.id().to_string(),
        title: spec.title().to_string(),
        columns: spec.columns().to_vec(),
        rows: Vec::new(),
        notes: Vec::new(),
        artifacts: Vec::new(),
    };
    for out in &outputs {
        for row in &out.rows {
            assert_eq!(
                row.len(),
                report.columns.len(),
                "sweep {}: cell row arity {} != column arity {}",
                spec.id(),
                row.len(),
                report.columns.len()
            );
        }
        report.rows.extend(out.rows.iter().cloned());
        report.artifacts.extend(out.artifacts.iter().cloned());
    }
    if let Some(finish) = spec.finish() {
        finish(&outputs, &mut report);
    }
    // cell notes come after aggregate rows, static sweep notes last
    for out in &outputs {
        report.notes.extend(out.notes.iter().cloned());
    }
    report.notes.extend(spec.notes().iter().cloned());
    report
}

/// [`run_sweep`] with a panic caught instead of unwound into the caller,
/// so a batch of sweeps can report one broken experiment and still run
/// the rest. The panic itself is printed by the panic hook as usual.
///
/// # Errors
/// Returns the panic message when a cell or the `finish` hook panics.
/// A cell panic surfaces through the worker scope, whose message is
/// generic; the cell's own message is the one the hook printed.
pub fn try_run_sweep(spec: &SweepSpec, cfg: &RunnerConfig) -> Result<SweepReport, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_sweep(spec, cfg))).map_err(
        |payload| {
            payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic with a non-string payload".to_string())
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    fn counting_spec(cells: usize) -> SweepSpec {
        let mut spec = SweepSpec::new("count", "Counting", ["i", "seed"]);
        for i in 0..cells as u64 {
            spec.push_cell(format!("c{i}"), |ctx| {
                CellOutput::new()
                    .with_row([ctx.index.to_string(), ctx.seed.to_string()])
                    .with_data([ctx.index as f64])
            });
        }
        spec
    }

    #[test]
    fn merges_in_canonical_order_at_every_thread_count() {
        let spec = counting_spec(23);
        let baseline = run_sweep(&spec, &RunnerConfig { threads: 1 });
        for threads in [2, 3, 8, 64] {
            let r = run_sweep(&spec, &RunnerConfig { threads });
            assert_eq!(r, baseline, "threads={threads} diverged");
            assert_eq!(r.to_json(), baseline.to_json());
            assert_eq!(r.to_csv(), baseline.to_csv());
        }
        for (i, row) in baseline.rows.iter().enumerate() {
            assert_eq!(row[0], i.to_string());
        }
    }

    #[test]
    fn finish_hook_sees_outputs_in_order() {
        let mut spec = counting_spec(9);
        spec.set_finish(|outputs, report| {
            let sum: f64 = outputs.iter().flat_map(|o| o.data.iter()).sum();
            report.rows.push(vec!["sum".to_string(), format!("{sum}")]);
        });
        let r = run_sweep(&spec, &RunnerConfig { threads: 4 });
        assert_eq!(
            r.rows.last().unwrap(),
            &vec!["sum".to_string(), "36".to_string()]
        );
    }

    #[test]
    fn empty_sweep_yields_empty_report() {
        let spec = SweepSpec::new("empty", "Nothing", ["a"]);
        let r = run_sweep(&spec, &RunnerConfig { threads: 8 });
        assert!(r.rows.is_empty());
        assert_eq!(r.experiment, "empty");
    }

    #[test]
    fn notes_and_artifacts_merge_in_order() {
        let mut spec = SweepSpec::new("arts", "Artifacts", ["x"]);
        for i in 0..4u64 {
            spec.push_cell(format!("c{i}"), move |ctx| {
                CellOutput::new()
                    .with_row([ctx.index.to_string()])
                    .with_note(format!("note {}", ctx.index))
                    .with_artifact(format!("a{}.txt", ctx.index), "body")
            });
        }
        spec.push_note("static last");
        let r = run_sweep(&spec, &RunnerConfig { threads: 3 });
        let names: Vec<&str> = r.artifacts.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, ["a0.txt", "a1.txt", "a2.txt", "a3.txt"]);
        assert_eq!(r.notes.first().unwrap(), "note 0");
        assert_eq!(r.notes.last().unwrap(), "static last");
    }

    /// The pooling dividend itself: sleeping cells (a stand-in for
    /// independent simulations) must overlap on the worker pool. Kept
    /// coarse — 8 workers over 16×40 ms cells is ≥640 ms serial but
    /// ~80–120 ms pooled — so scheduler noise cannot flake it.
    #[test]
    fn pool_overlaps_independent_cells() {
        let mut spec = SweepSpec::new("sleepy", "Overlap", ["i"]);
        for i in 0..16u64 {
            spec.push_cell(format!("c{i}"), |ctx| {
                std::thread::sleep(Duration::from_millis(40));
                CellOutput::new().with_row([ctx.index.to_string()])
            });
        }
        let t0 = Instant::now();
        let serial = run_sweep(&spec, &RunnerConfig { threads: 1 });
        let serial_wall = t0.elapsed();
        let t1 = Instant::now();
        let pooled = run_sweep(&spec, &RunnerConfig { threads: 8 });
        let pooled_wall = t1.elapsed();
        assert_eq!(serial, pooled, "pooling must not change results");
        eprintln!(
            "pool_overlaps_independent_cells: serial {serial_wall:?}, \
             8 threads {pooled_wall:?} ({:.1}x)",
            serial_wall.as_secs_f64() / pooled_wall.as_secs_f64()
        );
        assert!(
            serial_wall >= Duration::from_millis(640),
            "serial run finished impossibly fast: {serial_wall:?}"
        );
        assert!(
            pooled_wall * 3 < serial_wall,
            "8 workers over 16 sleeping cells should be >=3x faster: \
             serial {serial_wall:?} vs pooled {pooled_wall:?}"
        );
    }

    #[test]
    fn thread_count_clamps() {
        // more threads than cells and zero threads must both work
        let spec = counting_spec(2);
        let a = run_sweep(&spec, &RunnerConfig { threads: 0 });
        let b = run_sweep(&spec, &RunnerConfig { threads: 100 });
        assert_eq!(a, b);
        assert!(RunnerConfig::default().threads >= 1);
    }

    #[test]
    fn try_run_sweep_turns_a_panicking_cell_into_an_error() {
        let mut spec = counting_spec(4);
        spec.push_cell("boom", |_| panic!("cell exploded"));
        for threads in [1, 3] {
            assert!(try_run_sweep(&spec, &RunnerConfig { threads }).is_err());
        }
        // a panicking finish hook runs on the caller's thread: its message
        // comes back verbatim
        let mut spec = counting_spec(2);
        spec.set_finish(|_, _| panic!("finish exploded"));
        let err = try_run_sweep(&spec, &RunnerConfig { threads: 2 }).unwrap_err();
        assert!(err.contains("finish exploded"), "{err}");
        // a healthy sweep is untouched
        let spec = counting_spec(5);
        let cfg = RunnerConfig { threads: 2 };
        assert_eq!(try_run_sweep(&spec, &cfg), Ok(run_sweep(&spec, &cfg)));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_mismatch_panics() {
        let mut spec = SweepSpec::new("bad", "Bad", ["a", "b"]);
        spec.push_cell("c", |_| CellOutput::new().with_row(["only one"]));
        let _ = run_sweep(&spec, &RunnerConfig { threads: 1 });
    }
}
