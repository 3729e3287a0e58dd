//! The unified experiment CLI: every paper artifact and ablation behind
//! one binary, with a worker-pool `--threads` knob and machine-readable
//! output — results are byte-identical at any thread count.
//!
//! ```text
//! inrpp list
//! inrpp run <experiment>... [--threads N] [--format table|csv|json]
//!                           [--quick] [--seeds N] [--out DIR]
//! inrpp run all --quick --threads 8
//! inrpp serve [--listen ADDR] [--workers N]
//! ```
//!
//! Examples:
//!
//! ```text
//! inrpp run table1                        # Table 1, all cores
//! inrpp run table1 --threads 1            # same bytes, one core
//! inrpp run fig4a --seeds 8 --format csv  # seed-aggregated Fig. 4a as CSV
//! inrpp run export-topologies --out data  # write the nine .topo files
//! ```

use std::process::ExitCode;

use inrpp_bench::sweeps::{self, OutputFormat, SweepOptions};
use inrpp_runner::{json_string, try_run_sweep, RunnerConfig};

const USAGE: &str = "\
usage: inrpp <command>

commands:
  list                       show every experiment id with a description
  run <experiment>...        run one or more sweeps (or 'all')
      --threads N            worker threads (default: all cores; results
                             are byte-identical for every N)
      --format table|csv|json  output format (default: table)
      --quick                short-horizon configuration where available
      --seeds N              aggregate Fig. 4a over N derived seeds
      --out DIR              write sweep artifacts (.topo files, CDF dumps)
  serve                      service mode: the multi-session daemon speaking
                             line-delimited JSON — open/feed/advance/snapshot/
                             checkpoint/resume steppable sessions on either
                             engine (see the inrpp-server crate docs for the
                             protocol and determinism contract)
      --listen ADDR          serve many clients over a socket instead of
                             stdio: a TCP bind address ('127.0.0.1:0' picks
                             a free port; the bound address is announced as
                             a {\"event\":\"listening\"} line on stdout) or
                             'unix:PATH' for a Unix-domain socket
      --workers N            simulation-worker slots — how many sessions may
                             compute concurrently (default: all cores; replies
                             are byte-identical for every N)
  help                       this text
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            print!("{}", sweeps::render_experiment_list());
            ExitCode::SUCCESS
        }
        Some("run") => run(&args[1..]),
        Some("serve") => match serve(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("inrpp serve: {e}");
                ExitCode::FAILURE
            }
        },
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("inrpp: unknown command '{other}'\n");
            eprint!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Parsed `inrpp run` invocation.
struct RunArgs {
    experiments: Vec<String>,
    threads: usize,
    format: OutputFormat,
    opts: SweepOptions,
    out_dir: Option<String>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut experiments = Vec::new();
    let mut threads = RunnerConfig::default().threads;
    let mut format = OutputFormat::Table;
    let mut opts = SweepOptions::default();
    let mut out_dir = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" => {
                threads = value_of(&mut it, "--threads")?
                    .parse()
                    .map_err(|_| "--threads takes a positive integer".to_string())?;
            }
            "--format" => {
                format = value_of(&mut it, "--format")?.parse()?;
            }
            "--seeds" => {
                opts.seeds = value_of(&mut it, "--seeds")?
                    .parse()
                    .map_err(|_| "--seeds takes a positive integer".to_string())?;
            }
            "--out" => out_dir = Some(value_of(&mut it, "--out")?.to_string()),
            "--quick" => opts.quick = true,
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag '{flag}'"));
            }
            id => experiments.push(id.to_string()),
        }
    }
    if experiments.is_empty() {
        return Err("nothing to run: name an experiment or 'all' (try 'inrpp list')".to_string());
    }
    Ok(RunArgs {
        experiments,
        threads,
        format,
        opts,
        out_dir,
    })
}

fn value_of<'a>(it: &mut std::slice::Iter<'a, String>, flag: &str) -> Result<&'a String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

/// `inrpp serve [--listen ADDR] [--workers N]`: stdio by default, the
/// socket daemon with `--listen`.
fn serve(args: &[String]) -> Result<(), String> {
    use inrpp_server::{Daemon, DaemonConfig, SocketTransport, StdioTransport, Transport};
    let mut listen: Option<String> = None;
    let mut workers = DaemonConfig::default().workers;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--listen" => listen = Some(value_of(&mut it, "--listen")?.to_string()),
            "--workers" => {
                workers = value_of(&mut it, "--workers")?
                    .parse()
                    .map_err(|_| "--workers takes a positive integer".to_string())?;
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let daemon = Daemon::new(DaemonConfig { workers });
    match listen {
        None => {
            let mut transport = StdioTransport::new();
            daemon.serve(&mut transport).map_err(|e| e.to_string())
        }
        Some(spec) => {
            let mut transport = SocketTransport::bind(&spec)
                .map_err(|e| format!("cannot listen on {spec:?}: {e}"))?;
            // announce the bound address (crucial for ':0' port picks)
            // on stdout so drivers can discover where to connect
            let mut line = String::from("{\"event\":\"listening\",\"addr\":");
            json_string(&mut line, &transport.local_addr().unwrap_or(spec));
            use std::io::Write as _;
            let mut stdout = std::io::stdout();
            let _ = writeln!(stdout, "{line},\"workers\":{workers}}}");
            let _ = stdout.flush();
            daemon.serve(&mut transport).map_err(|e| e.to_string())
        }
    }
}

fn run(args: &[String]) -> ExitCode {
    let parsed = match parse_run(args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("inrpp run: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut jobs: Vec<(String, inrpp_runner::SweepSpec)> = Vec::new();
    for id in &parsed.experiments {
        if id == "all" {
            for e in sweeps::EXPERIMENTS {
                jobs.push((
                    e.id.to_string(),
                    sweeps::build(e.id, &parsed.opts).expect("registry id"),
                ));
            }
        } else if let Some(spec) = sweeps::build(id, &parsed.opts) {
            jobs.push((id.clone(), spec));
        } else {
            eprintln!("inrpp run: unknown experiment '{id}' (try 'inrpp list')");
            return ExitCode::FAILURE;
        }
    }
    let many = jobs.len() > 1;
    let mut json_reports = Vec::new();
    let mut failures = 0usize;
    let cfg = RunnerConfig {
        threads: parsed.threads,
    };
    for (i, (id, spec)) in jobs.iter().enumerate() {
        // one broken experiment must not cost the others their output
        let report = match try_run_sweep(spec, &cfg) {
            Ok(report) => report,
            Err(e) => {
                failures += 1;
                eprintln!("inrpp run: experiment '{id}' panicked ({e}); continuing with the rest");
                continue;
            }
        };
        match parsed.format {
            OutputFormat::Json => json_reports.push(report.to_json()),
            OutputFormat::Csv => {
                if many {
                    if i > 0 {
                        println!();
                    }
                    println!("# {id}");
                }
                print!("{}", sweeps::render(&report, OutputFormat::Csv));
            }
            OutputFormat::Table => {
                if many {
                    if i > 0 {
                        println!();
                    }
                    println!("=== {id} {}", "=".repeat(60usize.saturating_sub(id.len())));
                    println!();
                }
                print!("{}", sweeps::render(&report, OutputFormat::Table));
            }
        }
        if let Some(dir) = &parsed.out_dir {
            if !report.artifacts.is_empty() {
                sweeps::write_artifacts(&report, std::path::Path::new(dir));
            }
        }
    }
    if parsed.format == OutputFormat::Json {
        if many {
            println!("[{}]", json_reports.join(","));
        } else if let Some(report) = json_reports.first() {
            println!("{report}");
        }
    }
    if failures > 0 {
        eprintln!("inrpp run: {failures} experiment(s) failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
