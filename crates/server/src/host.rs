//! Per-session hosts: one OS thread owning one live simulation.
//!
//! A [`ServiceSession`] is a borrow
//! chain — topology → session spec → engine backing → service — so the
//! object itself can never migrate between pool workers. The daemon
//! multiplexes sessions the other way round: each session gets a cheap
//! *host thread* that owns the whole chain on its stack and blocks on a
//! command channel, and the scarce resource — simulation compute — is
//! rationed by the shared [`SlotPool`](inrpp_runner::SlotPool). Every
//! `advance` is cut into bounded slices and each slice runs under one
//! acquired worker slot, so at most `workers` sessions simulate at any
//! instant while the rest wait (FIFO-fair) at the pool. Slice
//! boundaries depend only on the request (`now`, `to_secs`), never on
//! pool occupancy, which is what keeps the determinism contract: any
//! interleaving of N sessions produces per-session replies byte-equal
//! to running that session alone.
//!
//! Hosts speak rendered reply strings back to the connection layer —
//! the host renders everything except the `sid`/`seq` correlation tail,
//! which only the connection knows.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use inrpp::service::{Checkpoint, FluidBacking, FluidService, ServiceSession};
use inrpp::session::{
    AllocationEvent, EngineDetail, EngineKind, FlowEnd, FlowStart, Probe, RunReport, Sample,
    Session, SessionError, Transfer,
};
use inrpp::source::{pump, skip_until, TraceSource, WorkloadSource};
use inrpp_packetsim::PacketService;
use inrpp_sim::fault::FaultPlan;
use inrpp_sim::time::{SimDuration, SimTime};
use inrpp_sim::units::ByteSize;
use inrpp_topology::Topology;

use crate::daemon::Shared;
use crate::protocol::{
    err_reply, num, ok_reply, quote, report_reply, session_err_kind, FeedReq, OpenSpec, ResumeFrom,
};

/// Fixed slice count per `advance`: the preemption quantum. A client
/// advance of any span yields at most this many pool grants, so a long
/// advance cannot monopolise a worker slot.
const SLICES: u64 = 64;

// ===================================================================
// Commands
// ===================================================================

/// A request forwarded from the connection to a session host.
pub enum HostCmd {
    /// `feed`: inject one transfer.
    Feed(FeedReq),
    /// `advance`: run to `to_secs`, optionally under a wall-clock
    /// budget.
    Advance {
        /// Absolute target, seconds.
        to_secs: f64,
        /// Wall-clock budget for this one request, milliseconds.
        timeout_ms: Option<u64>,
    },
    /// `snapshot`: report the run so far.
    Snapshot,
    /// `checkpoint`: serialise to an explicit file.
    Checkpoint {
        /// Destination path.
        path: String,
    },
    /// `stats`: the per-session counter fragment.
    Stats,
    /// `close`: finish the run, report, and end the host.
    Close,
    /// Drop the session unfinished and end the host (EOF / `exit` /
    /// connection teardown). No reply is sent.
    Abort,
}

// ===================================================================
// Handle
// ===================================================================

/// The connection side of one session host: command sender, reply
/// receiver, and the join handle that makes teardown deterministic.
pub struct SessionHandle {
    tx: Sender<HostCmd>,
    rx: Receiver<String>,
    join: Option<JoinHandle<()>>,
}

impl SessionHandle {
    /// Spawn a host for `spec`. `Ok` carries the handle plus the
    /// rendered `open`/`resume` reply; `Err` carries the rendered error
    /// reply (the host thread has already been joined).
    pub fn open(spec: OpenSpec, shared: Arc<Shared>) -> Result<(SessionHandle, String), String> {
        let (cmd_tx, cmd_rx) = std::sync::mpsc::channel::<HostCmd>();
        let (rep_tx, rep_rx) = std::sync::mpsc::channel::<String>();
        // first reply arrives via a dedicated channel so a failed open
        // can be distinguished without string-sniffing rep_rx
        let (born_tx, born_rx) = std::sync::mpsc::sync_channel::<Result<String, String>>(1);
        let join = std::thread::spawn(move || host_main(spec, shared, cmd_rx, rep_tx, born_tx));
        match born_rx.recv() {
            Ok(Ok(reply)) => Ok((
                SessionHandle {
                    tx: cmd_tx,
                    rx: rep_rx,
                    join: Some(join),
                },
                reply,
            )),
            Ok(Err(reply)) => {
                let _ = join.join();
                Err(reply)
            }
            Err(_) => {
                let _ = join.join();
                Err(err_reply("io", "session host died before replying"))
            }
        }
    }

    /// Forward one command and wait for its rendered reply.
    pub fn request(&self, cmd: HostCmd) -> String {
        if self.tx.send(cmd).is_err() {
            return err_reply("io", "session host is gone");
        }
        self.rx
            .recv()
            .unwrap_or_else(|_| err_reply("io", "session host died mid-request"))
    }

    /// `close`: finish the run, then **join the host thread before
    /// returning the reply** — by the time the client reads the close
    /// reply, the session's trace handles, checkpoint-directory state,
    /// and worker-slot claims are provably released.
    pub fn close(mut self) -> String {
        let reply = self.request(HostCmd::Close);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
        reply
    }

    /// Drop the session unfinished; joins the host thread.
    pub fn abort(mut self) {
        self.teardown();
    }

    fn teardown(&mut self) {
        if let Some(join) = self.join.take() {
            let _ = self.tx.send(HostCmd::Abort);
            let _ = join.join();
        }
    }
}

impl Drop for SessionHandle {
    // any exit path (io error, panic in the conn loop) still tears the
    // host down deterministically
    fn drop(&mut self) {
        self.teardown();
    }
}

// ===================================================================
// Probes
// ===================================================================

/// Always-attached observer: tracks how much the session has simulated,
/// for the `stats` op and the pool-wide event counter. Reads the latest
/// incremental report (fired once per advance slice).
#[derive(Default)]
struct MonitorProbe {
    /// Events simulated so far: delivered chunks (packet) or flow
    /// arrivals + completions (fluid) — the same definition the bench
    /// perf harness uses.
    events: u64,
}

impl Probe for MonitorProbe {
    fn on_report(&mut self, report: &RunReport) {
        self.events = match &report.detail {
            EngineDetail::Packet(p) => p.chunks_delivered,
            EngineDetail::Fluid(_) => {
                (report.aggregates.arrived_flows + report.aggregates.completed_flows) as u64
            }
        };
    }
}

/// Opt-in (`"probe_fp":true` on `open`/`resume`) probe-stream
/// fingerprint: an FNV-1a 64 running hash over every typed probe event,
/// `f64`s hashed by bit pattern. Carried in `advance`/`close` replies,
/// it makes "the probe stream is byte-identical" testable over the
/// wire without shipping the stream itself.
struct FingerprintProbe {
    hash: u64,
}

impl FingerprintProbe {
    fn new() -> Self {
        FingerprintProbe {
            hash: 0xcbf29ce484222325,
        }
    }

    fn byte(&mut self, b: u8) {
        self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x100000001b3);
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn hex(&self) -> String {
        format!("{:016x}", self.hash)
    }
}

impl Probe for FingerprintProbe {
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

// ===================================================================
// Self-healing: auto-checkpoints, crash recovery
// ===================================================================

/// List `ckpt-NNNNNN.ckpt` files in `dir` as `(sequence, path)` pairs
/// (unsorted; missing or unreadable directories yield an empty list).
pub fn list_checkpoints(dir: &Path) -> Vec<(u64, PathBuf)> {
    let mut out = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(stem) = name
            .strip_prefix("ckpt-")
            .and_then(|s| s.strip_suffix(".ckpt"))
        {
            if let Ok(seq) = stem.parse::<u64>() {
                out.push((seq, entry.path()));
            }
        }
    }
    out
}

/// Crash recovery: decode the newest readable checkpoint in `dir`,
/// falling back past truncated/corrupt files. Returns the checkpoint,
/// its sequence number (auto-checkpointing continues from there), and a
/// diagnostic per skipped file.
fn recover_newest(dir: &Path) -> Result<(Checkpoint, u64, Vec<String>), String> {
    let mut found = list_checkpoints(dir);
    if found.is_empty() {
        return Err(format!(
            "no checkpoints matching ckpt-*.ckpt in {:?}",
            dir.display()
        ));
    }
    found.sort();
    let mut skipped = Vec::new();
    for (seq, path) in found.into_iter().rev() {
        match fs::read(&path) {
            Err(e) => skipped.push(format!("{}: {e}", path.display())),
            Ok(bytes) => match Checkpoint::from_bytes(&bytes) {
                Ok(c) => return Ok((c, seq, skipped)),
                Err(e) => skipped.push(format!("{}: {e}", path.display())),
            },
        }
    }
    Err(format!(
        "no usable checkpoint in {:?}: {}",
        dir.display(),
        skipped.join("; ")
    ))
}

/// Auto-checkpoint state: write `ckpt_dir/ckpt-NNNNNN.ckpt` after every
/// `every` successful advances, atomically (tmp + rename), pruning all
/// but the newest `retain` files.
struct AutoCkpt {
    dir: PathBuf,
    every: u64,
    retain: usize,
    advances: u64,
    seq: u64,
}

impl AutoCkpt {
    /// Record one successful advance; write + prune when due. Returns
    /// the new checkpoint's sequence number when one was written.
    fn after_advance(&mut self, svc: &dyn ServiceSession) -> Result<Option<u64>, String> {
        self.advances += 1;
        if self.advances % self.every != 0 {
            return Ok(None);
        }
        let bytes = svc.checkpoint().to_bytes();
        self.seq += 1;
        let name = format!("ckpt-{:06}.ckpt", self.seq);
        fs::create_dir_all(&self.dir)
            .map_err(|e| format!("cannot create {}: {e}", self.dir.display()))?;
        // atomic publish: a crash mid-write leaves only a .tmp behind,
        // never a truncated ckpt-*.ckpt
        let tmp = self.dir.join(format!(".{name}.tmp"));
        let path = self.dir.join(&name);
        fs::write(&tmp, &bytes).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
        fs::rename(&tmp, &path).map_err(|e| format!("cannot publish {}: {e}", path.display()))?;
        let mut all = list_checkpoints(&self.dir);
        all.sort();
        while all.len() > self.retain {
            let (_, old) = all.remove(0);
            fs::remove_file(old).ok(); // best-effort
        }
        Ok(Some(self.seq))
    }
}

// ===================================================================
// Pool-sliced advance
// ===================================================================

/// How a guarded advance failed.
enum AdvanceError {
    /// The wall-clock budget expired; the session stopped (consistently)
    /// at the contained instant and can be advanced again later.
    Timeout(SimTime),
    /// The engine rejected the advance.
    Session(SessionError),
}

/// Advance to `to` in [`SLICES`] bounded slices, acquiring one worker
/// slot from the shared pool per slice — the preemption primitive that
/// lets N sessions share `workers` cores fairly. Slice boundaries are a
/// pure function of (`now`, `to`), so they are identical at every pool
/// size, and intermediate boundaries never change simulated results
/// (the service contract). An optional wall-clock deadline is consulted
/// between slices; on expiry the advance stops at a boundary and can be
/// re-issued.
fn advance_pooled(
    shared: &Shared,
    mut source: Option<&mut dyn WorkloadSource>,
    svc: &mut dyn ServiceSession,
    probes: &mut [&mut dyn Probe],
    to: SimTime,
    deadline: Option<Instant>,
) -> Result<SimTime, AdvanceError> {
    let start = svc.now();
    // the engine clamps its clock to the horizon, so a target past it
    // is reached the moment the clock parks there
    let goal = to.min(svc.horizon());
    let step = SimDuration::from_nanos((to.duration_since(start).as_nanos() / SLICES).max(1));
    let mut next = start;
    loop {
        let reached = svc.now();
        if reached >= goal {
            return Ok(reached);
        }
        if let Some(d) = deadline {
            if Instant::now() > d {
                return Err(AdvanceError::Timeout(reached));
            }
        }
        next = (next + step).min(to);
        let _slot = shared.pool.acquire();
        let r = match source {
            Some(ref mut s) => pump(&mut **s, svc, next, probes),
            None => svc.advance(next, probes),
        };
        if let Err(e) = r {
            return Err(AdvanceError::Session(e));
        }
    }
}

// ===================================================================
// The host thread
// ===================================================================

/// Build the session named by `spec`, announce the result on `born`,
/// then serve commands until `Close`/`Abort`/disconnect. Owns the full
/// borrow chain on its stack; every resource (trace file handle,
/// checkpoint state, slot claims) dies with the thread, which the
/// handle joins — that is the deterministic-teardown guarantee.
fn host_main(
    spec: OpenSpec,
    shared: Arc<Shared>,
    rx: Receiver<HostCmd>,
    tx: Sender<String>,
    born: SyncSender<Result<String, String>>,
) {
    let fail = |born: SyncSender<Result<String, String>>, reply: String| {
        let _ = born.send(Err(reply));
    };

    let topo = match crate::protocol::topology_by_name(&spec.topology) {
        Ok(t) => t,
        Err(e) => return fail(born, err_reply("config", &e)),
    };
    let strategy = match spec.strategy() {
        Ok(s) => s,
        Err(e) => return fail(born, err_reply("config", &e)),
    };
    // serve sessions are streaming-only: traffic arrives via feed/trace,
    // so the spec (and its fingerprint) carries an empty transfer list
    let mut builder = Session::builder()
        .topology(&topo)
        .transfers(Vec::new())
        .strategy(strategy)
        .horizon_secs(spec.horizon_secs);
    if let Some(seed) = spec.seed {
        builder = builder.seed(seed);
    }
    if let Some(workers) = spec.workers {
        builder = builder.workers(workers as usize);
    }
    if let Some(text) = &spec.faults {
        match FaultPlan::parse(text) {
            Ok(plan) => builder = builder.faults(plan),
            Err(e) => return fail(born, err_reply("config", &format!("bad fault plan: {e}"))),
        }
    }
    let session = match builder.build() {
        Ok(s) => s,
        Err(e) => return fail(born, err_reply(session_err_kind(&e), &e.to_string())),
    };

    // resume source: an explicit file, or crash recovery from the newest
    // readable auto-checkpoint (skipping truncated/corrupt files)
    let mut recovered_seq = 0u64;
    let mut recovery_skipped: Vec<String> = Vec::new();
    let checkpoint = match &spec.checkpoint {
        None => None,
        Some(ResumeFrom::Path(path)) => match fs::read(path) {
            Ok(bytes) => match Checkpoint::from_bytes(&bytes) {
                Ok(c) => Some(c),
                Err(e) => return fail(born, err_reply(session_err_kind(&e), &e.to_string())),
            },
            Err(e) => {
                return fail(
                    born,
                    err_reply(
                        "checkpoint",
                        &format!("cannot read checkpoint {path:?}: {e}"),
                    ),
                )
            }
        },
        Some(ResumeFrom::Newest) => {
            let dir = spec.ckpt_dir.as_deref().expect("validated at parse");
            match recover_newest(Path::new(dir)) {
                Ok((c, seq, skipped)) => {
                    recovered_seq = seq;
                    recovery_skipped = skipped;
                    Some(c)
                }
                Err(e) => return fail(born, err_reply("checkpoint", &e)),
            }
        }
    };

    let backing;
    let mut svc: Box<dyn ServiceSession + '_> = match spec.engine {
        EngineKind::Fluid => {
            backing = FluidBacking::empty_for(&session);
            let opened = match &checkpoint {
                Some(c) => FluidService::resume(&session, &backing, c),
                None => FluidService::open(&session, &backing),
            };
            match opened {
                Ok(s) => Box::new(s),
                Err(e) => return fail(born, err_reply(session_err_kind(&e), &e.to_string())),
            }
        }
        EngineKind::Packet => {
            let engine = match spec.packet_engine() {
                Ok(e) => e,
                Err(e) => return fail(born, err_reply("config", &e)),
            };
            let opened = match &checkpoint {
                Some(c) => PacketService::resume(&engine, &session, c),
                None => PacketService::open(&engine, &session),
            };
            match opened {
                Ok(s) => Box::new(s),
                Err(e) => return fail(born, err_reply(session_err_kind(&e), &e.to_string())),
            }
        }
    };

    let mut trace = match &spec.trace {
        Some(path) => match fs::File::open(path) {
            Ok(f) => {
                let mut ts = TraceSource::new(&topo, std::io::BufReader::new(f));
                // entries the interrupted run already fed by the
                // checkpoint boundary must not be fed twice
                if let Err(e) = skip_until(&mut ts, svc.now()) {
                    return fail(born, err_reply(session_err_kind(&e), &e.to_string()));
                }
                Some(ts)
            }
            Err(e) => {
                return fail(
                    born,
                    err_reply("io", &format!("cannot read trace {path:?}: {e}")),
                )
            }
        },
        None => None,
    };

    let mut auto = spec.ckpt_dir.as_ref().map(|dir| AutoCkpt {
        dir: PathBuf::from(dir),
        every: spec.ckpt_every,
        retain: spec.ckpt_retain,
        advances: 0,
        seq: recovered_seq,
    });

    let mut monitor = MonitorProbe::default();
    let mut fp = spec.probe_fp.then(FingerprintProbe::new);

    let mut open_extra = format!(
        "\"engine\":\"{}\",\"now_secs\":{},\"horizon_secs\":{},\"fingerprint\":\"{:016x}\"",
        svc.kind(),
        num(svc.now().as_secs_f64()),
        num(svc.horizon().as_secs_f64()),
        session.fingerprint(),
    );
    if matches!(spec.checkpoint, Some(ResumeFrom::Newest)) {
        open_extra.push_str(&format!(
            ",\"recovered_seq\":{recovered_seq},\"skipped_checkpoints\":{}",
            recovery_skipped.len()
        ));
        if !recovery_skipped.is_empty() {
            open_extra.push_str(&format!(
                ",\"diagnostics\":{}",
                quote(&recovery_skipped.join("; "))
            ));
        }
    }
    let event = if checkpoint.is_some() {
        "resume"
    } else {
        "open"
    };
    if born.send(Ok(ok_reply(event, &open_extra))).is_err() {
        return; // connection died during open
    }
    shared.stats.sessions_opened.fetch_add(1, Ordering::Relaxed);

    let mut feeds = 0u64;
    let mut bytes_fed = 0u64;
    let mut advances = 0u64;
    let mut ckpt_writes = 0u64;
    // recv error = connection gone: drop the session unfinished
    while let Ok(cmd) = rx.recv() {
        let reply = match cmd {
            HostCmd::Feed(req) => match resolve_feed(&req, &topo, spec.chunk_bytes) {
                Ok(t) => match svc.feed(&t) {
                    Ok(()) => {
                        feeds += 1;
                        bytes_fed += t.chunks * spec.chunk_bytes;
                        shared
                            .stats
                            .bytes_fed
                            .fetch_add(t.chunks * spec.chunk_bytes, Ordering::Relaxed);
                        ok_reply("feed", &format!("\"flow\":{}", t.flow))
                    }
                    Err(e) => err_reply(session_err_kind(&e), &e.to_string()),
                },
                Err(e) => err_reply("parse", &e),
            },
            HostCmd::Advance {
                to_secs,
                timeout_ms,
            } => {
                let before = monitor.events;
                let reply = advance_cmd(
                    &shared,
                    &mut *svc,
                    trace.as_mut(),
                    auto.as_mut(),
                    &mut monitor,
                    &mut fp,
                    to_secs,
                    timeout_ms,
                    &mut ckpt_writes,
                );
                if reply.starts_with("{\"ok\":true") {
                    advances += 1;
                    shared.stats.advances.fetch_add(1, Ordering::Relaxed);
                }
                shared
                    .stats
                    .events
                    .fetch_add(monitor.events.saturating_sub(before), Ordering::Relaxed);
                reply
            }
            HostCmd::Snapshot => report_reply("snapshot", &topo, &svc.snapshot()),
            HostCmd::Checkpoint { path } => {
                let bytes = svc.checkpoint().to_bytes();
                match fs::write(&path, &bytes) {
                    Ok(()) => {
                        ckpt_writes += 1;
                        shared.stats.ckpt_writes.fetch_add(1, Ordering::Relaxed);
                        ok_reply(
                            "checkpoint",
                            &format!("\"path\":{},\"bytes\":{}", quote(&path), bytes.len()),
                        )
                    }
                    Err(e) => err_reply("io", &format!("cannot write checkpoint {path:?}: {e}")),
                }
            }
            HostCmd::Stats => format!(
                "\"engine\":\"{}\",\"now_secs\":{},\"advances\":{advances},\"feeds\":{feeds},\
                 \"bytes_fed\":{bytes_fed},\"events\":{},\"ckpt_writes\":{ckpt_writes}",
                svc.kind(),
                num(svc.now().as_secs_f64()),
                monitor.events,
            ),
            HostCmd::Close => {
                let before = monitor.events;
                let mut probes: Vec<&mut dyn Probe> = vec![&mut monitor];
                if let Some(p) = fp.as_mut() {
                    probes.push(p);
                }
                // the final drain is compute like any other: it runs
                // under a worker slot
                let slot = shared.pool.acquire();
                let finished = svc.finish(&mut probes);
                drop(slot);
                shared
                    .stats
                    .events
                    .fetch_add(monitor.events.saturating_sub(before), Ordering::Relaxed);
                let reply = match finished {
                    Ok(report) => {
                        let base = report_reply("close", &topo, &report);
                        match &fp {
                            Some(p) => crate::protocol::append_fields(
                                base,
                                &format!(",\"probe_fp\":\"{}\"", p.hex()),
                            ),
                            None => base,
                        }
                    }
                    Err(e) => err_reply(session_err_kind(&e), &e.to_string()),
                };
                let _ = tx.send(reply);
                break; // close always ends the session, even on error
            }
            HostCmd::Abort => break,
        };
        if tx.send(reply).is_err() {
            break;
        }
    }
    shared.stats.sessions_closed.fetch_add(1, Ordering::Relaxed);
}

/// Resolve a [`FeedReq`] against the session topology into a
/// [`Transfer`] quantised with the session's chunk size.
fn resolve_feed(req: &FeedReq, topo: &Topology, chunk_bytes: u64) -> Result<Transfer, String> {
    let node = |name: &str| {
        topo.node_by_name(name)
            .ok_or_else(|| format!("unknown node {name:?}"))
    };
    let start = crate::protocol::secs_to_time(req.start_secs).map_err(|e| e.to_string())?;
    Ok(Transfer {
        flow: req.flow,
        src: node(&req.src)?,
        dst: node(&req.dst)?,
        chunks: req.chunks,
        chunk_bytes: ByteSize::bytes(chunk_bytes),
        start,
    })
}

/// The `advance` arm: validate the target, run pool-sliced, then
/// auto-checkpoint when due.
#[allow(clippy::too_many_arguments)]
fn advance_cmd(
    shared: &Shared,
    svc: &mut dyn ServiceSession,
    trace: Option<&mut TraceSource<std::io::BufReader<fs::File>>>,
    auto: Option<&mut AutoCkpt>,
    monitor: &mut MonitorProbe,
    fp: &mut Option<FingerprintProbe>,
    to_secs: f64,
    timeout_ms: Option<u64>,
    ckpt_writes: &mut u64,
) -> String {
    let to = match crate::protocol::secs_to_time(to_secs) {
        Ok(t) => t,
        Err(e) => return err_reply("parse", &e.to_string()),
    };
    if to < svc.now() {
        return err_reply(
            "state",
            &format!(
                "advance target {}s precedes now {}s (time only moves forward)",
                num(to.as_secs_f64()),
                num(svc.now().as_secs_f64())
            ),
        );
    }
    let deadline = timeout_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    let mut probes: Vec<&mut dyn Probe> = vec![monitor];
    if let Some(p) = fp.as_mut() {
        probes.push(p);
    }
    let source = trace.map(|ts| ts as &mut dyn WorkloadSource);
    match advance_pooled(shared, source, svc, &mut probes, to, deadline) {
        Ok(now) => {
            let mut extra = format!("\"now_secs\":{}", num(now.as_secs_f64()));
            if let Some(auto) = auto {
                match auto.after_advance(svc) {
                    Ok(Some(seq)) => {
                        *ckpt_writes += 1;
                        shared.stats.ckpt_writes.fetch_add(1, Ordering::Relaxed);
                        extra.push_str(&format!(",\"ckpt_seq\":{seq}"));
                    }
                    Ok(None) => {}
                    Err(e) => return err_reply("io", &format!("auto-checkpoint failed: {e}")),
                }
            }
            if let Some(p) = fp {
                extra.push_str(&format!(",\"probe_fp\":\"{}\"", p.hex()));
            }
            ok_reply("advance", &extra)
        }
        Err(AdvanceError::Timeout(reached)) => err_reply(
            "timeout",
            &format!(
                "advance timed out at {}s (target {}s); re-issue to continue",
                num(reached.as_secs_f64()),
                num(to.as_secs_f64())
            ),
        ),
        Err(AdvanceError::Session(e)) => err_reply(session_err_kind(&e), &e.to_string()),
    }
}
