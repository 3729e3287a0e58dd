//! # inrpp-bench — the experiment harness
//!
//! Every table and figure of the paper (and every ablation) is a
//! declarative sweep in [`sweeps`], executed by the parallel runner
//! (`inrpp-runner`) and reachable two ways:
//!
//! * the `inrpp` CLI — `inrpp run table1 --threads 8 --format json`;
//! * the library functions in [`experiments`], unit-tested like any other
//!   code — the CLI prints, these functions compute.
//!
//! [`table`] holds the plain-text table renderer all output shares, and
//! the test-only `serve` module pins the v1 wire bytes of `inrpp serve`.
//! The suite's performance benchmark lives outside the workspace, in
//! `perfbench/` (see its README).
//!
//! | Artifact | Sweep id |
//! |---|---|
//! | Table 1 | `table1` |
//! | Fig. 2 regimes | `fig2` |
//! | Fig. 3 worked example | `fig3` |
//! | Fig. 4a throughput bars | `fig4a` |
//! | Fig. 4b stretch CDF | `fig4b` |
//! | §3.3 custody arithmetic | `custody` |
//! | Ablations A1–A8 | `ablation-*`, `coexistence` |
//! | Topology edge lists | `export-topologies` |
//! | Everything at once | `all` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
#[cfg(test)]
mod serve;
pub mod sweeps;
pub mod table;
