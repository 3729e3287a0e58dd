//! The session daemon: a worker pool, pool-wide counters, and the
//! accept/serve loop that multiplexes many clients over any
//! [`Transport`]. Each client gets one thread, and its sessions run on
//! that thread as coroutines.

use std::io::{self, BufRead, Write};
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::Arc;

use inrpp_runner::SlotPool;

use crate::conn::drive_conn;
use crate::transport::Transport;

/// Pool-wide counters, updated by the connections and their session
/// hosts and reported by the `stats` op. Monotonic and advisory
/// (relaxed ordering): they never feed back into simulation, so they
/// cannot perturb results.
#[derive(Debug, Default)]
pub struct PoolStats {
    /// Sessions successfully opened or resumed.
    pub sessions_opened: AtomicU64,
    /// Sessions ended (closed, aborted, or connection-dropped).
    pub sessions_closed: AtomicU64,
    /// Successful `advance` requests.
    pub advances: AtomicU64,
    /// Events simulated by advances: delivered chunks (packet), flow
    /// arrivals plus completions (fluid). Each advance adds how far its
    /// session's count moved; a session counts from 0 at `open` and
    /// `resume`, so a resumed session's first advance adds its replayed
    /// history. The final drain at `close` is not counted.
    pub events: AtomicU64,
    /// Payload bytes injected via `feed`.
    pub bytes_fed: AtomicU64,
    /// Checkpoints written (manual and auto-rotation).
    pub ckpt_writes: AtomicU64,
}

/// State shared by every connection and session host of one daemon.
#[derive(Debug)]
pub struct Shared {
    /// The simulation-worker pool: compute slices run under its slots.
    pub pool: SlotPool,
    /// Pool-wide counters.
    pub stats: PoolStats,
    /// Raised by the `shutdown` op; stops the accept loop.
    pub shutdown: AtomicBool,
}

/// Daemon construction knobs.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Simulation-worker slots: how many sessions may compute at the
    /// same instant. Defaults to the host's available parallelism.
    pub workers: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

/// A session-multiplexing service daemon.
///
/// Connections each get a driver thread, and their sessions run as
/// coroutines on it; simulation compute is rationed by the shared
/// [`SlotPool`] in bounded slices. See the crate docs for the
/// determinism contract.
pub struct Daemon {
    shared: Arc<Shared>,
}

impl Daemon {
    /// A daemon with `config.workers` simulation-worker slots.
    pub fn new(config: DaemonConfig) -> Self {
        Daemon {
            shared: Arc::new(Shared {
                pool: SlotPool::new(config.workers),
                stats: PoolStats::default(),
                shutdown: AtomicBool::new(false),
            }),
        }
    }

    /// The shared state (pool, counters, shutdown flag).
    pub fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    /// Accept and serve clients until the transport drains (stdio EOF
    /// handed out, or a `shutdown` request raised the flag). Every
    /// connection runs on its own thread; all of them are joined — and
    /// every session dropped — before this returns.
    pub fn serve(&self, transport: &mut dyn Transport) -> io::Result<()> {
        let mut clients = Vec::new();
        while let Some(mut conn) = transport.accept(&self.shared.shutdown)? {
            let shared = self.shared.clone();
            clients.push(std::thread::spawn(move || {
                let _ = drive_conn(&mut conn.reader, &mut conn.writer, &shared);
            }));
        }
        for c in clients {
            let _ = c.join();
        }
        Ok(())
    }
}

/// Run the serve protocol on an arbitrary reader/writer pair until EOF
/// — the v1 entry point (`inrpp serve` on stdio, tests on in-memory
/// buffers), now backed by the same daemon machinery as the socket
/// transports. Uses the default worker-pool size.
pub fn serve_lines(input: &mut dyn BufRead, out: &mut dyn Write) -> io::Result<()> {
    serve_lines_with(input, out, DaemonConfig::default().workers)
}

/// [`serve_lines`] with an explicit simulation-worker pool size.
pub fn serve_lines_with(
    input: &mut dyn BufRead,
    out: &mut dyn Write,
    workers: usize,
) -> io::Result<()> {
    let daemon = Daemon::new(DaemonConfig { workers });
    drive_conn(input, out, daemon.shared())
}
