//! `serve`: the daemon as deployed. An `inrpp serve --listen
//! 127.0.0.1:0 --workers 2` child process is driven over TCP loopback
//! by a closed loop of two connections from this process, one request
//! in flight per connection, each request timed from send to reply.
//!
//! Each connection keeps a few idle sessions open for the whole run and
//! cycles scripted sessions on `dumbbell:16`, alternating the packet and
//! fluid engines: open, 16–32 feeds, 0.25 s advances with `ckpt_dir`
//! auto-checkpointing, an explicit checkpoint, stats, close. Every
//! fourth round resumes the session of two rounds before from its
//! newest auto-checkpoint and advances it further instead.
//!
//! Afterwards every completed session is replayed alone, in process,
//! through `FluidService` / `PacketService::advance` with the daemon's
//! advance slicing: its close reply (report and probe fingerprint) must
//! match byte for byte, and its checkpoint size and `stats` counters
//! must match too.

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use inrpp::service::{FluidBacking, FluidService, ServiceSession};
use inrpp::session::{
    AllocationEvent, EngineKind, FlowEnd, FlowStart, Probe, RunReport, Sample, Session, Transfer,
};
use inrpp_packetsim::PacketService;
use inrpp_server::protocol::{
    append_fields, parse_object, report_reply, secs_to_time, topology_by_name, OpenSpec,
};
use inrpp_sim::time::{SimDuration, SimTime};
use inrpp_sim::units::ByteSize;

use crate::stats::{median, Latency, Output, SplitMix, Tally};
use crate::{host, Args};

const CONNECTIONS: usize = 2;
const WORKERS: usize = 2;
const IDLE_SESSIONS_PER_CONN: usize = 3;
const TOPOLOGY: &str = "dumbbell:16";
const PAIRS: u64 = 16;
const HORIZON_S: f64 = 4.0;
const STEP_S: f64 = 0.25;
/// Advances of a fresh session (to 2 s) and of a resumed one (to 3 s).
const FRESH_ADVANCES: usize = 8;
const RESUMED_ADVANCES: usize = 4;
const CHUNK_BYTES: u64 = 1250;
/// The daemon's preemption quantum: slices per advance (`host::SLICES`).
const SLICES: u64 = 64;
/// Daemon start-ups timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;
/// The tail rule needs a thousand replies for a p99.
const MIN_REPLIES: usize = 1000;

// ===================================================================
// Schedules
// ===================================================================

#[derive(Debug, Clone)]
struct Feed {
    flow: u64,
    src: u64,
    dst: u64,
    chunks: u64,
    start_s: f64,
}

/// One fresh session's script, a pure function of (seed, conn, round).
#[derive(Debug, Clone)]
struct Script {
    engine: EngineKind,
    seed: u64,
    feeds: Vec<Feed>,
    dir: PathBuf,
}

impl Script {
    fn new(seed: u64, conn: usize, round: usize, work: &Path) -> Script {
        let mut rng = SplitMix(seed ^ ((conn as u64) << 32) ^ round as u64);
        let nfeeds = rng.range(16, 32);
        let feeds = (0..nfeeds)
            .map(|i| Feed {
                flow: i + 1,
                src: rng.range(0, PAIRS - 1),
                dst: PAIRS + 2 + rng.range(0, PAIRS - 1),
                chunks: rng.range(50, 200),
                start_s: rng.range(0, 30) as f64 * 0.05,
            })
            .collect();
        Script {
            engine: if (round + conn).is_multiple_of(2) {
                EngineKind::Packet
            } else {
                EngineKind::Fluid
            },
            seed: rng.range(1, 1 << 20),
            feeds,
            dir: work.join(format!("c{conn}-r{round}")),
        }
    }

    /// The `open`/`resume` request body, without `sid`/`seq`.
    fn spec(&self, cmd: &str) -> String {
        format!(
            "\"cmd\":\"{cmd}\",\"engine\":\"{}\",\"topology\":\"{TOPOLOGY}\",\
             \"strategy\":\"urp\",\"horizon_secs\":{HORIZON_S},\"seed\":{},\
             \"ckpt_dir\":\"{}\",\"ckpt_retain\":2,\"probe_fp\":true",
            self.engine,
            self.seed,
            self.dir.display()
        )
    }
}

fn advance_target(i: usize) -> f64 {
    (i + 1) as f64 * STEP_S
}

// ===================================================================
// Wire client
// ===================================================================

/// The daemon child process.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn(inrpp: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(inrpp)
            .args(["serve", "--listen", "127.0.0.1:0", "--workers"])
            .arg(WORKERS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", inrpp.display()))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("daemon stdout: {e}"))?;
        let addr = field_str(&line, "addr").ok_or_else(|| {
            let _ = child.kill();
            let _ = child.wait();
            format!("daemon did not announce its address: {line:?}")
        })?;
        Ok(Daemon { child, addr })
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Ask the daemon to stop (every client connection must be closed
    /// first) and wait for it, killing it if it does not exit in time.
    fn shutdown(mut self) -> Result<(), String> {
        let stopped = Client::connect(&self.addr)
            .and_then(|mut c| c.call("shutdown", "\"cmd\":\"shutdown\"").map(|_| ()));
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return stopped,
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("daemon did not stop after shutdown".into());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One timed request: the op and its send-to-reply latency.
struct Timed {
    op: &'static str,
    ms: f64,
}

/// One connection: a closed loop of one request in flight.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    seq: u64,
    samples: Vec<Timed>,
    /// Request lines sent, for the parser timing.
    lines: Vec<String>,
}

impl Client {
    fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone().map_err(|e| e.to_string())?),
            writer: stream,
            seq: 0,
            samples: Vec::new(),
            lines: Vec::new(),
        })
    }

    /// Send `{body,"seq":N}` and return the reply with its `seq` tail
    /// checked and removed.
    fn call(&mut self, op: &'static str, body: &str) -> Result<String, String> {
        self.seq += 1;
        let line = format!("{{{body},\"seq\":{}}}\n", self.seq);
        let mut reply = String::new();
        let t0 = Instant::now();
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send {op}: {e}"))?;
        self.reader
            .read_line(&mut reply)
            .map_err(|e| format!("reply to {op}: {e}"))?;
        self.samples.push(Timed {
            op,
            ms: t0.elapsed().as_secs_f64() * 1e3,
        });
        self.lines.push(line.trim_end().to_string());
        let tail = format!(",\"seq\":{}}}", self.seq);
        match reply.trim_end().strip_suffix(&tail) {
            Some(head) => Ok(format!("{head}}}")),
            None => Err(format!("{op}: reply without its seq: {reply:?}")),
        }
    }
}

fn field_raw<'a>(hay: &'a str, key: &str) -> Option<&'a str> {
    let at = hay.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &hay[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(&rest[..end])
}

fn field_u64(hay: &str, key: &str) -> Option<u64> {
    field_raw(hay, key)?.parse().ok()
}

fn field_str(hay: &str, key: &str) -> Option<String> {
    let raw = field_raw(hay, key)?;
    Some(raw.strip_prefix('"')?.strip_suffix('"')?.to_string())
}

fn is_ok(reply: &str) -> bool {
    reply.starts_with("{\"ok\":true")
}

// ===================================================================
// Scripted sessions
// ===================================================================

/// What the daemon said about one completed session.
struct Done {
    round: usize,
    script: Script,
    /// True for a session resumed from `script`'s checkpoints.
    resumed: bool,
    sid: String,
    close: String,
    /// (advances, events, ckpt_writes) from the session's `stats` entry.
    stats: (u64, u64, u64),
    /// Bytes of the explicit checkpoint (fresh sessions).
    ckpt_bytes: Option<u64>,
}

/// Per-connection loop state, carried across measurement windows.
struct Conn {
    id: usize,
    client: Client,
    round: usize,
    scripts: Vec<Script>,
    done: Vec<Done>,
    tally: Tally,
}

impl Conn {
    /// Issue one request; a non-`ok` reply or a broken exchange counts
    /// as a failed operation.
    fn ok(&mut self, op: &'static str, body: &str) -> Result<String, String> {
        let reply = self.client.call(op, body)?;
        let conn = self.id;
        self.tally.check(is_ok(&reply), || {
            format!("serve conn {conn}: {op} failed: {reply}")
        });
        Ok(reply)
    }

    fn open_idle(&mut self, k: usize) -> Result<(), String> {
        let body = format!(
            "\"cmd\":\"open\",\"sid\":\"idle-{k}\",\"engine\":\"fluid\",\"topology\":\"{TOPOLOGY}\",\
             \"strategy\":\"urp\",\"horizon_secs\":{HORIZON_S}"
        );
        self.ok("open", &body).map(|_| ())
    }

    /// Run one scripted session (fresh or resumed) to its close.
    fn round(&mut self, seed: u64, work: &Path) -> Result<(), String> {
        let r = self.round;
        self.round += 1;
        let script = Script::new(seed, self.id, r, work);
        self.scripts.push(script.clone());
        let sid = format!("s{}-{r}", self.id);
        let sid_field = format!("\"sid\":\"{sid}\"");
        let resumed = r % 4 == 3;
        let (script, first, count) = if resumed {
            let base = self.scripts[r - 2].clone();
            let reply = self.ok("resume", &format!("{},{sid_field}", base.spec("resume")))?;
            let seq = field_u64(&reply, "recovered_seq");
            let conn = self.id;
            self.tally.check(seq == Some(FRESH_ADVANCES as u64), || {
                format!("serve conn {conn}: resume recovered {seq:?}: {reply}")
            });
            (base, FRESH_ADVANCES, RESUMED_ADVANCES)
        } else {
            let _ = fs::remove_dir_all(&script.dir);
            self.ok("open", &format!("{},{sid_field}", script.spec("open")))?;
            for f in &script.feeds {
                let body = format!(
                    "\"cmd\":\"feed\",{sid_field},\"flow\":{},\"src\":\"n{}\",\"dst\":\"n{}\",\
                     \"chunks\":{},\"start_secs\":{}",
                    f.flow, f.src, f.dst, f.chunks, f.start_s
                );
                self.ok("feed", &body)?;
            }
            (script, 0, FRESH_ADVANCES)
        };
        for i in first..first + count {
            let body = format!(
                "\"cmd\":\"advance\",{sid_field},\"to_secs\":{}",
                advance_target(i)
            );
            self.ok("advance", &body)?;
        }
        let mut ckpt_bytes = None;
        if !resumed {
            let path = script.dir.join("manual.ckpt");
            let body = format!(
                "\"cmd\":\"checkpoint\",{sid_field},\"path\":\"{}\"",
                path.display()
            );
            ckpt_bytes = field_u64(&self.ok("checkpoint", &body)?, "bytes");
        }
        let stats = self.ok("stats", "\"cmd\":\"stats\"")?;
        let entry = stats
            .find(&format!("{{{sid_field},"))
            .map(|at| &stats[at..])
            .unwrap_or("");
        let counters = (
            field_u64(entry, "advances").unwrap_or(0),
            field_u64(entry, "events").unwrap_or(0),
            field_u64(entry, "ckpt_writes").unwrap_or(0),
        );
        let close = self.ok("close", &format!("\"cmd\":\"close\",{sid_field}"))?;
        self.done.push(Done {
            round: r,
            script,
            resumed,
            sid,
            close,
            stats: counters,
            ckpt_bytes,
        });
        Ok(())
    }
}

/// Drive every connection until `deadline` and at least `min_replies`
/// replies in total (or until `hard_stop`). Returns the wall time.
fn drive(
    conns: &mut [Conn],
    seed: u64,
    work: &Path,
    deadline: Instant,
    hard_stop: Instant,
    min_replies: usize,
) -> Result<f64, String> {
    let t0 = Instant::now();
    let before: usize = conns.iter().map(|c| c.client.samples.len()).sum();
    let replies = std::sync::atomic::AtomicUsize::new(before);
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let replies = &replies;
                scope.spawn(move || -> Result<(), String> {
                    loop {
                        let now = Instant::now();
                        let enough = replies.load(std::sync::atomic::Ordering::Relaxed)
                            >= before + min_replies;
                        if now >= hard_stop || (now >= deadline && enough) {
                            return Ok(());
                        }
                        let n = conn.client.samples.len();
                        conn.round(seed, work)?;
                        replies.fetch_add(
                            conn.client.samples.len() - n,
                            std::sync::atomic::Ordering::Relaxed,
                        );
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
    })?;
    Ok(t0.elapsed().as_secs_f64())
}

// ===================================================================
// Solo replay
// ===================================================================

/// FNV-1a over every typed probe event, `f64`s by bit pattern — the
/// wire protocol's `probe_fp`, recomputed independently.
struct Fingerprint(u64);

impl Fingerprint {
    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100000001b3);
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

impl Probe for Fingerprint {
    fn on_flow_start(&mut self, ev: &FlowStart) {
        self.byte(1);
        self.u64(ev.time.as_nanos());
        self.u64(ev.flow);
        self.u64(ev.src.idx() as u64);
        self.u64(ev.dst.idx() as u64);
        self.f64(ev.size_bits);
        self.u64(ev.subpaths as u64);
    }

    fn on_flow_end(&mut self, ev: &FlowEnd) {
        self.byte(2);
        self.u64(ev.time.as_nanos());
        self.u64(ev.flow);
        self.f64(ev.delivered_bits);
        self.f64(ev.fct_secs);
    }

    fn on_allocation(&mut self, ev: &AllocationEvent<'_>) {
        self.byte(3);
        self.u64(ev.time.as_nanos());
        self.u64(ev.flows.len() as u64);
        for (&flow, &rate) in ev.flows.iter().zip(ev.rates) {
            self.u64(flow);
            self.f64(rate);
        }
    }

    fn on_sample(&mut self, ev: &Sample) {
        self.byte(4);
        self.u64(ev.time.as_nanos());
        self.f64(ev.delivered_bits);
    }

    fn on_report(&mut self, report: &RunReport) {
        self.byte(5);
        self.u64(report.aggregates.duration.as_nanos());
        self.u64(report.aggregates.arrived_flows as u64);
        self.u64(report.aggregates.completed_flows as u64);
        self.f64(report.aggregates.delivered_bits);
        self.u64(report.flows.len() as u64);
    }
}

/// Events as the daemon's `stats` op counts them.
fn stats_events(r: &RunReport) -> u64 {
    match r.packet() {
        Some(p) => p.chunks_delivered,
        None => (r.arrived_flows + r.completed_flows) as u64,
    }
}

/// A session run alone, in process.
struct Solo {
    close: String,
    events_at_stats: u64,
    ckpt_bytes: u64,
    advance_ms: Vec<f64>,
}

/// Advance in the daemon's slices: `SLICES` equal steps from `now`.
fn advance_sliced(
    svc: &mut dyn ServiceSession,
    to: SimTime,
    probes: &mut [&mut dyn Probe],
) -> Result<(), String> {
    let start = svc.now();
    let goal = to.min(svc.horizon());
    let step = SimDuration::from_nanos((to.duration_since(start).as_nanos() / SLICES).max(1));
    let mut next = start;
    while svc.now() < goal {
        next = (next + step).min(to);
        svc.advance(next, probes).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Run `d`'s schedule alone: the fresh advances, plus the resumed ones
/// for a resumed session, whose fingerprint starts at the resume point.
fn solo(d: &Done) -> Result<Solo, String> {
    let s = &d.script;
    let topo = topology_by_name(TOPOLOGY)?;
    let spec = OpenSpec::parse(&parse_object(&format!("{{{}}}", s.spec("open")))?, false)?;
    let session = Session::builder()
        .topology(&topo)
        .transfers(Vec::new())
        .strategy(spec.strategy()?)
        .horizon_secs(HORIZON_S)
        .seed(s.seed)
        .build()
        .map_err(|e| e.to_string())?;
    let backing;
    let mut svc: Box<dyn ServiceSession + '_> = match s.engine {
        EngineKind::Fluid => {
            backing = FluidBacking::empty_for(&session);
            Box::new(FluidService::open(&session, &backing).map_err(|e| e.to_string())?)
        }
        EngineKind::Packet => Box::new(
            PacketService::open(&spec.packet_engine()?, &session).map_err(|e| e.to_string())?,
        ),
    };
    for f in &s.feeds {
        let t = Transfer {
            flow: f.flow,
            src: topo
                .node_by_name(&format!("n{}", f.src))
                .ok_or("feed src")?,
            dst: topo
                .node_by_name(&format!("n{}", f.dst))
                .ok_or("feed dst")?,
            chunks: f.chunks,
            chunk_bytes: ByteSize::bytes(CHUNK_BYTES),
            start: secs_to_time(f.start_s).map_err(|e| e.to_string())?,
        };
        svc.feed(&t).map_err(|e| e.to_string())?;
    }
    let mut fp = Fingerprint(0xcbf29ce484222325);
    let fp_from = if d.resumed { FRESH_ADVANCES } else { 0 };
    let total = FRESH_ADVANCES + if d.resumed { RESUMED_ADVANCES } else { 0 };
    let mut advance_ms = Vec::new();
    let mut ckpt_bytes = 0;
    let mut events_at_stats = 0;
    for i in 0..total {
        let to = secs_to_time(advance_target(i)).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        if i >= fp_from {
            advance_sliced(&mut *svc, to, &mut [&mut fp])?;
            advance_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        } else {
            advance_sliced(&mut *svc, to, &mut [])?;
        }
        if i + 1 == FRESH_ADVANCES {
            ckpt_bytes = svc.checkpoint().to_bytes().len() as u64;
        }
        if i + 1 == total {
            events_at_stats = stats_events(&svc.snapshot());
        }
    }
    let report = svc.finish(&mut [&mut fp]).map_err(|e| e.to_string())?;
    let close = append_fields(
        report_reply("close", &topo, &report),
        &format!(",\"probe_fp\":\"{:016x}\"", fp.0),
    );
    Ok(Solo {
        close: append_fields(close, &format!(",\"sid\":\"{}\"", d.sid)),
        events_at_stats,
        ckpt_bytes,
        advance_ms,
    })
}

// ===================================================================
// The workload
// ===================================================================

/// Spawn the daemon and bring the connections up; the time this takes
/// is the workload's set-up.
fn start(args: &Args) -> Result<(Daemon, Vec<Client>, f64), String> {
    let t0 = Instant::now();
    let daemon = Daemon::spawn(&args.inrpp)?;
    let mut clients = Vec::new();
    for _ in 0..CONNECTIONS {
        let mut c = Client::connect(&daemon.addr)?;
        let hello = c.call("hello", "\"cmd\":\"hello\"")?;
        if !is_ok(&hello) {
            return Err(format!("hello failed: {hello}"));
        }
        c.samples.clear();
        c.lines.clear();
        clients.push(c);
    }
    Ok((daemon, clients, t0.elapsed().as_secs_f64()))
}

pub fn run(args: &Args, out: &mut Output) -> Result<(), String> {
    let work = args.work.join("serve");
    let _ = fs::remove_dir_all(&work);
    fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let work = work
        .canonicalize()
        .map_err(|e| format!("{}: {e}", work.display()))?;

    let mut setup_s = Vec::new();
    for _ in 1..SETUP_REPEATS {
        let (daemon, clients, s) = start(args)?;
        setup_s.push(s);
        drop(clients);
        daemon.shutdown()?;
    }
    let (daemon, clients, s) = start(args)?;
    setup_s.push(s);
    let pid = daemon.pid();

    let threads_before = host::threads(&pid).ok_or("cannot read daemon threads")?;
    let mut conns: Vec<Conn> = clients
        .into_iter()
        .enumerate()
        .map(|(id, client)| Conn {
            id,
            client,
            round: 0,
            scripts: Vec::new(),
            done: Vec::new(),
            tally: Tally::default(),
        })
        .collect();
    for c in &mut conns {
        for k in 0..IDLE_SESSIONS_PER_CONN {
            c.open_idle(k)?;
        }
    }
    let threads_idle = host::threads(&pid).ok_or("cannot read daemon threads")?;

    // untraced measurement (all of it, or the first half when tracing)
    let budget = if args.trace {
        args.budget / 2
    } else {
        args.budget
    };
    let cpu0 = host::pid_cpu_s(&pid).ok_or("cannot read daemon cpu")?;
    let now = Instant::now();
    let min = if args.trace { 0 } else { MIN_REPLIES };
    let wall_s = drive(
        &mut conns,
        args.seed,
        &work,
        now + budget,
        now + 3 * budget,
        min,
    )?;
    let cpu1 = host::pid_cpu_s(&pid).ok_or("cannot read daemon cpu")?;
    let untraced: Vec<f64> = conns
        .iter()
        .flat_map(|c| c.client.samples.iter().map(|s| s.ms))
        .collect();
    let stats_before = conns[0].client.call("stats", "\"cmd\":\"stats\"")?;
    conns[0].client.samples.pop();
    let mut traced_from = vec![0; conns.len()];
    let (mut cpu_s, mut span_s) = (cpu1 - cpu0, wall_s);
    if args.trace {
        for (i, c) in conns.iter().enumerate() {
            traced_from[i] = c.client.samples.len();
        }
        let now = Instant::now();
        span_s = drive(
            &mut conns,
            args.seed,
            &work,
            now + budget,
            now + 3 * budget,
            0,
        )?;
        cpu_s = host::pid_cpu_s(&pid).ok_or("cannot read daemon cpu")? - cpu1;
    }
    let rss = host::peak_rss_mb(&pid).ok_or("cannot read daemon VmHWM")?;
    let stats_after = conns[0].client.call("stats", "\"cmd\":\"stats\"")?;
    conns[0].client.samples.pop();

    // end the run: drop the connections, stop the daemon
    let mut done = Vec::new();
    let mut samples = Vec::new();
    let mut lines = Vec::new();
    for (i, c) in conns.into_iter().enumerate() {
        out.tally.attempted += c.tally.attempted;
        out.tally.failed += c.tally.failed;
        done.extend(c.done);
        samples.extend(c.client.samples.into_iter().skip(traced_from[i]));
        lines.extend(c.client.lines);
    }
    let stopped = daemon.shutdown();
    out.tally
        .check(stopped.is_ok(), || format!("daemon shutdown: {stopped:?}"));

    // every completed session against its solo run
    let mut solo_ms = Vec::new();
    let mut ckpt_bytes = Vec::new();
    let mut first_rounds = (0, 0, 0);
    for d in &done {
        let s = solo(d)?;
        out.tally.check(d.close == s.close, || {
            format!("serve {}: close reply differs from the solo run", d.sid)
        });
        let (advances, ckpt_writes) = if d.resumed {
            (RESUMED_ADVANCES as u64, RESUMED_ADVANCES as u64)
        } else {
            (FRESH_ADVANCES as u64, FRESH_ADVANCES as u64 + 1)
        };
        let want = (advances, s.events_at_stats, ckpt_writes);
        out.tally.check(d.stats == want, || {
            format!(
                "serve {}: stats {:?}, solo run says {want:?}",
                d.sid, d.stats
            )
        });
        if let Some(bytes) = d.ckpt_bytes {
            out.tally.check(bytes == s.ckpt_bytes, || {
                format!(
                    "serve {}: checkpoint {bytes} B, solo run {} B",
                    d.sid, s.ckpt_bytes
                )
            });
            ckpt_bytes.push(bytes as f64);
        }
        if d.round < 4 {
            first_rounds.0 += d.stats.0;
            first_rounds.1 += d.stats.1;
            first_rounds.2 += d.stats.2;
        }
        solo_ms.extend(s.advance_ms);
    }
    let _ = fs::remove_dir_all(&work);
    out.count("serve.rounds0-3.advances", first_rounds.0);
    out.count("serve.rounds0-3.events", first_rounds.1);
    out.count("serve.rounds0-3.ckpt_writes", first_rounds.2);

    if !args.trace {
        let lat = Latency::of(&untraced);
        out.note(format!(
            "reply = one request over TCP loopback; {}",
            lat.describe()
        ));
        out.metric("setup_s", median(&setup_s), "s");
        let events = field_u64(&stats_before, "events").ok_or("stats without events")?;
        out.metric("events_per_s", events as f64 / wall_s, "1/s");
        out.metric("reply_p50_ms", lat.p50, "ms");
        out.metric("reply_p99_ms", lat.tail, "ms");
        out.metric("replies_per_s", untraced.len() as f64 / wall_s, "1/s");
        out.metric("peak_rss_mb", rss, "MB");
        return Ok(());
    }

    let ms_of = |op: &str| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.op == op)
            .map(|s| s.ms)
            .collect()
    };
    for op in [
        "open",
        "feed",
        "advance",
        "checkpoint",
        "resume",
        "stats",
        "close",
    ] {
        let xs = ms_of(op);
        if !xs.is_empty() {
            out.metric(format!("server.reply_ms.{op}"), median(&xs), "ms");
        }
    }
    let mut parse_us = Vec::with_capacity(lines.len());
    for line in &lines {
        let t0 = Instant::now();
        let parsed = parse_object(std::hint::black_box(line));
        parse_us.push(t0.elapsed().as_secs_f64() * 1e6);
        out.tally
            .check(parsed.is_ok(), || format!("request does not parse: {line}"));
    }
    let solo_p50 = median(&solo_ms);
    let traced: Vec<f64> = samples.iter().map(|s| s.ms).collect();
    out.metric("server.parse_us", median(&parse_us), "us");
    out.metric("service.advance_solo_ms", solo_p50, "ms");
    out.metric(
        "server.overhead_ms",
        median(&ms_of("advance")) - solo_p50,
        "ms",
    );
    out.metric("server.cpu_s", cpu_s, "s");
    out.metric("server.cpu_per_wall", cpu_s / span_s, "ratio");
    for key in ["advances", "events", "ckpt_writes"] {
        let v = field_u64(&stats_after, key).ok_or("stats reply incomplete")?;
        out.metric(format!("server.stats.{key}"), v as f64, "count");
    }
    out.metric(
        "server.threads_per_idle_session",
        (threads_idle as f64 - threads_before as f64)
            / (CONNECTIONS * IDLE_SESSIONS_PER_CONN) as f64,
        "count",
    );
    out.metric("service.checkpoint_bytes", median(&ckpt_bytes), "B");
    out.metric(
        "trace.overhead_pct",
        100.0 * (median(&traced) / median(&untraced) - 1.0),
        "%",
    );
    out.note(format!("{} sessions replayed solo", done.len()));
    Ok(())
}
