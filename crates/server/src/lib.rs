//! # inrpp-server — the concurrent multi-session service daemon
//!
//! PR 8/9 gave the suite a single-session service mode: one client, one
//! stdio pipe, one live simulation. This crate is the next layer up — a
//! daemon that owns a **pool of simulation workers** and schedules
//! **many concurrent sessions** (fluid and packet) across it, over
//! pluggable transports:
//!
//! * [`StdioTransport`] — the classic `inrpp serve` pipe (one client);
//! * [`SocketTransport`] — a TCP or Unix-domain listener serving many
//!   clients at once.
//!
//! Both speak the same line-delimited flat-JSON protocol
//! ([`protocol`]), now versioned (v2): a `hello` handshake reports the
//! protocol version and engine list, requests may carry a
//! client-assigned `sid` to interleave sessions on one connection and a
//! `seq` echoed on every reply, and a `stats` op reports per-session
//! and pool-wide counters. Requests without a `sid` reproduce the v1
//! wire format byte-for-byte.
//!
//! ## Scheduling and determinism
//!
//! A live session is a borrow chain (topology → spec → backing →
//! service), so the session object never migrates between threads.
//! Instead each session runs as a coroutine ([`host`]): an `async fn`
//! that owns the chain in its pinned future and is polled once per
//! request, with no runtime, on the thread of the connection that
//! opened it. The only thread per client is that connection thread; an
//! idle session costs no thread at all. Compute is rationed by a
//! FIFO-fair [`SlotPool`](inrpp_runner::SlotPool) of `workers` slots:
//! every `advance` runs as bounded slices, one slot acquired per slice
//! — the preemption primitive that keeps a long advance from
//! monopolising a worker. Slice boundaries are a pure function of the
//! request, and intermediate advance boundaries never change simulated
//! results (the service contract), so the daemon keeps a strong
//! guarantee:
//!
//! > **Any interleaving of N concurrent sessions, at any pool size,
//! > produces per-session reports and probe streams byte-identical to
//! > running that session alone.**
//!
//! `tests/server_multiplex.rs` gates exactly that, at pool sizes 1, 2,
//! and 8, over both transports. Probe streams are made observable by
//! the opt-in `"probe_fp":true` open flag, which streams an FNV-1a
//! fingerprint of every typed probe event in `advance`/`close` replies.
//!
//! Teardown is deterministic too: `close` (and client EOF) drop the
//! session's future before the daemon moves on, releasing trace
//! handles, checkpoint-directory state, and worker slots — a client
//! that saw the close reply can immediately reuse the session's
//! `ckpt_dir`. A session whose host panics is dropped the same way; its
//! request gets an `io` error reply and the connection keeps serving.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod conn;
pub mod daemon;
pub mod host;
pub mod protocol;
pub mod transport;

pub use conn::drive_conn;
pub use daemon::{serve_lines, serve_lines_with, Daemon, DaemonConfig, PoolStats, Shared};
pub use protocol::PROTOCOL_VERSION;
pub use transport::{Conn, SocketTransport, StdioTransport, Transport};
