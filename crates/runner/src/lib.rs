//! # inrpp-runner — deterministic parallel sweep execution
//!
//! The paper's headline artifacts (Table 1, Figs. 2–4, the ablations) are
//! grids of *independent* simulation cells: topology × strategy × seed ×
//! parameter point. This crate pools the host's cores the way INRPP pools
//! network resources — a shared work queue feeds a `std::thread` worker
//! pool — while keeping the one property the whole suite rests on:
//!
//! **output is bit-identical at any thread count, including 1.**
//!
//! Three rules make that hold:
//!
//! 1. **Cells are pure.** A cell is a `Fn(&CellCtx) -> CellOutput` closure
//!    that may read shared configuration but must not mutate shared state.
//! 2. **Randomness is derived, not drawn.** A cell that needs fresh
//!    randomness uses [`CellCtx::rng`], seeded from
//!    `hash(experiment_id, cell_index)`
//!    (see [`inrpp_sim::rng::cell_seed`]) — never a shared generator whose
//!    draw order would depend on scheduling.
//! 3. **Merge order is canonical.** Workers write into a slot per cell;
//!    the report is assembled in cell-index order after the pool joins, so
//!    which worker ran a cell can never reorder output.
//!
//! ## The three-minute tour
//!
//! Build a [`SweepSpec`], run it with [`run_sweep`], serialize the
//! [`SweepReport`]:
//!
//! ```
//! use inrpp_runner::{run_sweep, CellOutput, RunnerConfig, SweepSpec};
//!
//! let mut spec = SweepSpec::new("square-demo", "Squares", ["n", "n^2"]);
//! for n in 0u64..4 {
//!     spec.push_cell(format!("n={n}"), move |_ctx| {
//!         CellOutput::new().with_row([n.to_string(), (n * n).to_string()])
//!     });
//! }
//! let report = run_sweep(&spec, &RunnerConfig { threads: 2 });
//! assert_eq!(report.rows.len(), 4);
//! assert_eq!(report.rows[3], vec!["3", "9"]);
//! ```
//!
//! The experiment definitions themselves live in `inrpp-bench::sweeps`;
//! this crate knows nothing about topologies or transports.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod pool;
mod report;
mod slots;
mod spec;

pub use pool::{run_sweep, try_run_sweep, RunnerConfig};
pub use report::{json_string, Artifact, SweepReport};
pub use slots::{SlotGuard, SlotPool};
pub use spec::{CellCtx, CellOutput, CellSpec, SweepSpec};
