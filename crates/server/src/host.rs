//! Per-session hosts: each live simulation is a coroutine on its
//! connection's thread.
//!
//! A [`ServiceSession`] is a borrow chain — topology → session spec →
//! engine backing → service — so it can never migrate between threads.
//! A session host is an `async fn` whose pinned future builds and owns
//! that chain. The connection polls it once per request, on its own
//! thread and with no runtime, passing the command in and the rendered
//! reply out through a one-slot mailbox; in between, the host is parked.
//! A host may block its thread (on a slot, or in a long advance): a
//! connection serves one request at a time, so nothing else waits on it.
//!
//! Simulation compute is rationed by the shared
//! [`SlotPool`](inrpp_runner::SlotPool): every `advance` is cut into
//! bounded slices, each run under one acquired worker slot, so at most
//! `workers` sessions simulate at any instant while the rest wait
//! (FIFO-fair) at the pool. Slice boundaries depend only on the request
//! (`now`, `to_secs`), never on pool occupancy, which keeps the
//! determinism contract: any interleaving of N sessions produces
//! per-session replies byte-equal to running that session alone.
//!
//! Hosts render every reply except the `sid`/`seq` correlation tail,
//! which only the connection knows.

use std::cell::Cell;
use std::fs;
use std::future::{poll_fn, Future};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

use inrpp::service::{Checkpoint, FluidBacking, FluidService, ServiceSession};
use inrpp::session::{
    AllocationEvent, EngineKind, FlowEnd, FlowStart, Probe, RunReport, Sample, Session,
    SessionError, Transfer,
};
use inrpp::source::{pump, skip_until, TraceSource};
use inrpp_packetsim::PacketService;
use inrpp_sim::fault::FaultPlan;
use inrpp_sim::time::{SimDuration, SimTime};
use inrpp_sim::units::ByteSize;
use inrpp_topology::Topology;

use crate::daemon::Shared;
use crate::protocol::{
    err_reply, num, ok_reply, quote, report_reply, session_err_kind, FeedReq, OpenSpec, ResumeFrom,
};

/// A session's trace, read from a file.
type Trace<'t> = TraceSource<'t, std::io::BufReader<fs::File>>;

/// Fixed slice count per `advance`: the preemption quantum. A client
/// advance of any span yields at most this many pool grants, so a long
/// advance cannot monopolise a worker slot.
const SLICES: u64 = 64;

// ===================================================================
// Commands
// ===================================================================

/// A request forwarded from the connection to a session host.
pub(crate) enum HostCmd {
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
}

// ===================================================================
// Handle
// ===================================================================

/// The one-slot mailbox a connection and a session host share: the
/// connection leaves a command, the host leaves its reply.
#[derive(Default)]
struct Mailbox {
    cmd: Cell<Option<HostCmd>>,
    reply: Cell<Option<String>>,
}

impl Mailbox {
    /// The next command: pending until the connection leaves one.
    fn next_cmd(&self) -> impl Future<Output = HostCmd> + '_ {
        poll_fn(|_| self.cmd.take().map_or(Poll::Pending, Poll::Ready))
    }

    fn put(&self, reply: String) {
        self.reply.set(Some(reply));
    }

    /// The host's reply, or an `io` error saying it `died` leaving none.
    fn take_reply(&self, died: &str) -> String {
        self.reply.take().unwrap_or_else(|| err_reply("io", died))
    }
}

/// A session host, parked between requests.
type Host<'a> = Pin<Box<dyn Future<Output = ()> + 'a>>;

/// The waker hosts are polled with: a host only ever waits for its
/// mailbox, and the connection polls it whenever it fills the mailbox.
struct NoWake;

impl Wake for NoWake {
    fn wake(self: Arc<Self>) {}
}

/// Poll `host` once on this thread; `None` if it panicked.
fn poll_once(host: &mut Host<'_>) -> Option<Poll<()>> {
    let waker = Waker::from(Arc::new(NoWake));
    let mut cx = Context::from_waker(&waker);
    catch_unwind(AssertUnwindSafe(|| host.as_mut().poll(&mut cx))).ok()
}

/// The connection side of one session host: the host's future and
/// their mailbox. Dropping the handle drops the session.
pub(crate) struct SessionHandle<'a> {
    /// `None` once the host has returned or panicked.
    host: Option<Host<'a>>,
    mailbox: Rc<Mailbox>,
    shared: &'a Shared,
}

impl<'a> SessionHandle<'a> {
    /// Start a host for `spec` and poll it through its open. `Ok`
    /// carries the handle plus the rendered `open`/`resume` reply;
    /// `Err` carries the rendered error reply.
    pub(crate) fn open(spec: OpenSpec, shared: &'a Shared) -> Result<(Self, String), String> {
        let mailbox = Rc::new(Mailbox::default());
        let mut host: Host<'a> = Box::pin(host_main(spec, shared, Rc::clone(&mailbox)));
        // an opened host parks on its first command; a failed one returns
        let opened = poll_once(&mut host) == Some(Poll::Pending);
        let reply = mailbox.take_reply("session host died before replying");
        if !opened {
            return Err(reply);
        }
        shared.stats.sessions_opened.fetch_add(1, Ordering::Relaxed);
        let handle = SessionHandle {
            host: Some(host),
            mailbox,
            shared,
        };
        Ok((handle, reply))
    }

    /// Leave `cmd` in the mailbox and poll the host once for its
    /// rendered reply: `Ok` while the host lives on, `Err` once it has
    /// returned or panicked, which drops it.
    pub(crate) fn request(&mut self, cmd: HostCmd) -> Result<String, String> {
        let Some(host) = self.host.as_mut() else {
            return Err(err_reply("io", "session host is gone"));
        };
        self.mailbox.cmd.set(Some(cmd));
        let parked = poll_once(host) == Some(Poll::Pending);
        let reply = self.mailbox.take_reply("session host died mid-request");
        if !parked {
            self.host = None;
            return Err(reply);
        }
        Ok(reply)
    }

    /// `close`: finish the run, then **drop the host before returning
    /// the reply** — by the time the client reads the close reply, the
    /// session's trace handles, checkpoint-directory state, and
    /// worker-slot claims are provably released.
    pub(crate) fn close(mut self) -> String {
        self.request(HostCmd::Close).unwrap_or_else(|ended| ended)
    }
}

impl Drop for SessionHandle<'_> {
    fn drop(&mut self) {
        let closed = &self.shared.stats.sessions_closed;
        closed.fetch_add(1, Ordering::Relaxed);
    }
}

// ===================================================================
// Probes
// ===================================================================

/// Opt-in (`"probe_fp":true` on `open`/`resume`) probe-stream
/// fingerprint: an FNV-1a 64 running hash over every typed probe event,
/// `f64`s hashed by bit pattern. Carried in `advance`/`close` replies,
/// it makes "the probe stream is byte-identical" testable over the
/// wire without shipping the stream itself. It is the only probe the
/// daemon attaches: a session without it advances and closes with no
/// probe, so no slice builds a report.
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

/// A session's probe list: its fingerprint probe, if it has one.
fn fp_probes(fp: &mut Option<FingerprintProbe>) -> Vec<&mut dyn Probe> {
    fp.iter_mut().map(|p| p as &mut dyn Probe).collect()
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
/// after each slice, so every advance makes at least one slice of
/// progress; on expiry the advance stops at a boundary and can be
/// re-issued. `events` is refreshed from [`ServiceSession::events`]
/// after every slice that succeeds.
fn advance_pooled(
    shared: &Shared,
    mut source: Option<&mut Trace<'_>>,
    svc: &mut dyn ServiceSession,
    probes: &mut [&mut dyn Probe],
    events: &mut u64,
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
        // `next > start` once a slice has run: the first always does
        if next > start && deadline.is_some_and(|d| Instant::now() > d) {
            return Err(AdvanceError::Timeout(reached));
        }
        next = (next + step).min(to);
        let _slot = shared.pool.acquire();
        let r = match source {
            Some(ref mut s) => pump(s, svc, next, probes),
            None => svc.advance(next, probes),
        };
        if let Err(e) = r {
            return Err(AdvanceError::Session(e));
        }
        *events = svc.events();
    }
}

// ===================================================================
// The session host
// ===================================================================

/// Build the session named by `spec` and leave its `open`/`resume`
/// reply in the mailbox — or leave the error reply and return — then
/// serve commands until `Close`. The future owns the full borrow chain;
/// every resource (trace file handle, checkpoint state, slot claims)
/// dies with it when the handle drops it — that is the
/// deterministic-teardown guarantee.
async fn host_main(spec: OpenSpec, shared: &Shared, mailbox: Rc<Mailbox>) {
    let topo = match crate::protocol::topology_by_name(&spec.topology) {
        Ok(t) => t,
        Err(e) => return mailbox.put(err_reply("config", &e)),
    };
    let strategy = match spec.strategy() {
        Ok(s) => s,
        Err(e) => return mailbox.put(err_reply("config", &e)),
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
    if let Some(text) = &spec.faults {
        match FaultPlan::parse(text) {
            Ok(plan) => builder = builder.faults(plan),
            Err(e) => return mailbox.put(err_reply("config", &format!("bad fault plan: {e}"))),
        }
    }
    let session = match builder.build() {
        Ok(s) => s,
        Err(e) => return mailbox.put(err_reply(session_err_kind(&e), &e.to_string())),
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
                Err(e) => return mailbox.put(err_reply(session_err_kind(&e), &e.to_string())),
            },
            Err(e) => {
                return mailbox.put(err_reply(
                    "checkpoint",
                    &format!("cannot read checkpoint {path:?}: {e}"),
                ))
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
                Err(e) => return mailbox.put(err_reply("checkpoint", &e)),
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
                Err(e) => return mailbox.put(err_reply(session_err_kind(&e), &e.to_string())),
            }
        }
        EngineKind::Packet => {
            let engine = match spec.packet_engine() {
                Ok(e) => e,
                Err(e) => return mailbox.put(err_reply("config", &e)),
            };
            let opened = match &checkpoint {
                Some(c) => PacketService::resume(&engine, &session, c),
                None => PacketService::open(&engine, &session),
            };
            match opened {
                Ok(s) => Box::new(s),
                Err(e) => return mailbox.put(err_reply(session_err_kind(&e), &e.to_string())),
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
                    return mailbox.put(err_reply(session_err_kind(&e), &e.to_string()));
                }
                Some(ts)
            }
            Err(e) => {
                return mailbox.put(err_reply("io", &format!("cannot read trace {path:?}: {e}")))
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

    // `ServiceSession::events` as of the last successful slice, 0 before
    let mut events = 0u64;
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
    mailbox.put(ok_reply(event, &open_extra));

    let mut feeds = 0u64;
    let mut bytes_fed = 0u64;
    let mut advances = 0u64;
    let mut ckpt_writes = 0u64;
    loop {
        let reply = match mailbox.next_cmd().await {
            HostCmd::Feed(req) => match resolve_feed(&req, &topo, spec.chunk_bytes, bytes_fed) {
                Ok((t, bytes)) => match svc.feed(&t) {
                    Ok(()) => {
                        feeds += 1;
                        bytes_fed += bytes;
                        // daemon-wide, over every session: saturate, never wrap
                        let _ = shared.stats.bytes_fed.fetch_update(
                            Ordering::Relaxed,
                            Ordering::Relaxed,
                            |v| Some(v.saturating_add(bytes)),
                        );
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
                let before = events;
                let reply = advance_cmd(
                    shared,
                    &mut *svc,
                    trace.as_mut(),
                    auto.as_mut(),
                    &mut events,
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
                    .fetch_add(events.saturating_sub(before), Ordering::Relaxed);
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
                 \"bytes_fed\":{bytes_fed},\"events\":{events},\"ckpt_writes\":{ckpt_writes}",
                svc.kind(),
                num(svc.now().as_secs_f64()),
            ),
            HostCmd::Close => {
                let mut probes = fp_probes(&mut fp);
                // the final drain is compute like any other: it runs
                // under a worker slot; `stats` does not count its events
                let slot = shared.pool.acquire();
                let finished = svc.finish(&mut probes);
                drop(slot);
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
                return mailbox.put(reply); // close ends the session, even on error
            }
        };
        mailbox.put(reply);
    }
}

/// Resolve a [`FeedReq`] against the session topology into a
/// [`Transfer`] quantised with the session's chunk size, and its size in
/// bytes. A size that overflows a `u64`, alone or added to the
/// `bytes_fed` so far, is an error.
fn resolve_feed(
    req: &FeedReq,
    topo: &Topology,
    chunk_bytes: u64,
    bytes_fed: u64,
) -> Result<(Transfer, u64), String> {
    let node = |name: &str| {
        topo.node_by_name(name)
            .ok_or_else(|| format!("unknown node {name:?}"))
    };
    let start = crate::protocol::secs_to_time(req.start_secs).map_err(|e| e.to_string())?;
    let bytes = req
        .chunks
        .checked_mul(chunk_bytes)
        .filter(|b| bytes_fed.checked_add(*b).is_some())
        .ok_or_else(|| {
            format!(
                "{} chunks of {chunk_bytes} B overflow the session's u64 byte count",
                req.chunks
            )
        })?;
    let transfer = Transfer {
        flow: req.flow,
        src: node(&req.src)?,
        dst: node(&req.dst)?,
        chunks: req.chunks,
        chunk_bytes: ByteSize::bytes(chunk_bytes),
        start,
    };
    Ok((transfer, bytes))
}

/// The `advance` arm: validate the target, run pool-sliced, then
/// auto-checkpoint when due.
#[allow(clippy::too_many_arguments)]
fn advance_cmd(
    shared: &Shared,
    svc: &mut dyn ServiceSession,
    trace: Option<&mut Trace<'_>>,
    auto: Option<&mut AutoCkpt>,
    events: &mut u64,
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
    let mut probes = fp_probes(fp);
    match advance_pooled(shared, trace, svc, &mut probes, events, to, deadline) {
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::daemon::{Daemon, DaemonConfig};

    /// An opened session whose host panics on its first command.
    pub(crate) fn panicking_handle(shared: &Shared) -> SessionHandle<'_> {
        let mailbox = Rc::new(Mailbox::default());
        let inbox = Rc::clone(&mailbox);
        let host: Host<'_> = Box::pin(async move {
            let _ = inbox.next_cmd().await;
            panic!("a session host fault");
        });
        shared.stats.sessions_opened.fetch_add(1, Ordering::Relaxed);
        SessionHandle {
            host: Some(host),
            mailbox,
            shared,
        }
    }

    #[test]
    fn a_host_that_panics_is_dropped_and_answered_with_an_io_error() {
        let daemon = Daemon::new(DaemonConfig { workers: 1 });
        let mut handle = panicking_handle(daemon.shared());
        let died = handle.request(HostCmd::Stats).expect_err("the host died");
        assert!(died.starts_with("{\"ok\":false,\"kind\":\"io\""), "{died}");
        assert!(died.contains("died mid-request"), "{died}");
        assert!(handle.host.is_none(), "the panicked host is dropped");
        let gone = handle
            .request(HostCmd::Stats)
            .expect_err("the host is gone");
        assert!(gone.contains("session host is gone"), "{gone}");
        drop(handle);
        let closed = &daemon.shared().stats.sessions_closed;
        assert_eq!(closed.load(Ordering::Relaxed), 1);
    }
}
