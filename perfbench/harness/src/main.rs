//! perfbench harness: runs one workload for a fixed wall-clock budget
//! and prints one JSON line with its metrics, deterministic counts, and
//! output-check tally.
//!
//! ```text
//! perfbench-harness --workload fig4a|packet|packet-sharded|serve
//!                   --seed N --seconds S --trace 0|1
//!                   [--inrpp PATH] [--work DIR]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics. `--trace 1` times each
//! layer boundary from here, outside the library, and reports
//! `trace.overhead_pct`, the traced work's slowdown against the same
//! work untraced. `--inrpp` names the `inrpp` binary the `serve` workload
//! spawns; `--work` is a scratch directory for its checkpoints.

mod fig4a;
mod host;
mod packet;
mod serve;
mod stats;

use std::path::PathBuf;
use std::time::Duration;

use stats::Output;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Measurement budget.
    pub budget: Duration,
    pub trace: bool,
    pub inrpp: PathBuf,
    pub work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut inrpp = PathBuf::from("inrpp");
    let mut work = std::env::temp_dir().join("perfbench-work");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                })
            }
            "--inrpp" => inrpp = PathBuf::from(value()?),
            "--work" => work = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        budget: Duration::from_secs_f64(seconds.ok_or("--seconds is required")?),
        trace: trace.unwrap_or(false),
        inrpp,
        work,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench-harness: {e}");
            std::process::exit(2);
        }
    };
    let mut out = Output::default();
    let host_before = host::cpu_and_steal_ticks();
    let ran = match args.workload.as_str() {
        "fig4a" => fig4a::run(&args, &mut out),
        "packet" => packet::run_sequential(&args, &mut out),
        "packet-sharded" => packet::run_sharded(&args, &mut out),
        "serve" => serve::run(&args, &mut out),
        other => Err(format!(
            "unknown workload {other:?} (fig4a|packet|packet-sharded|serve)"
        )),
    };
    if let (Some((t0, s0)), Some((t1, s1))) = (host_before, host::cpu_and_steal_ticks()) {
        // stolen time slows every wall-clock timing without any change
        // in code
        let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        out.note(format!("host steal: {:.1}% of CPU time", 100.0 * share));
    }
    if let Err(e) = ran {
        eprintln!("perfbench-harness: {}: {e}", args.workload);
        std::process::exit(1);
    }
    println!("{}", out.to_json());
}
