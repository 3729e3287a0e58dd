//! # inrpp-packetsim — chunk-level discrete-event simulation of INRPP
//!
//! The flow-level simulator (`inrpp-flowsim`) reproduces the paper's own
//! evaluation; this crate goes below that abstraction and executes the
//! §3.2/§3.3 node model chunk by chunk:
//!
//! * receivers issue `⟨Nc, ACKc, Ac⟩` requests and self-clock on data;
//! * senders multiplex flows processor-sharing style, pushing requested
//!   plus anticipated chunks (open loop) or exactly requested ones
//!   (closed loop after back-pressure);
//! * routers run the Eq. 1 anticipated-rate estimator and the three-phase
//!   interface machine, split detoured traffic into flowlets, take custody
//!   of overflow chunks, and emit hop-by-hop slow-downs;
//! * an AIMD baseline transport (receiver-driven window, drop-tail
//!   routers, no custody/detour/back-pressure) runs on the *same* channel
//!   model for head-to-head comparisons — the paper's claim that INRPP
//!   "moves traffic faster without causing packet drops" becomes a
//!   measurable experiment (ablations A2–A4).
//!
//! Modules: [`channel`] (the busy-until link model), [`packet`] (transfer
//! and configuration types), [`engine`] (the network + event loop),
//! [`report`] (per-run metrics), [`session`] (the `inrpp::session`
//! facade backend — run this engine through the typed `Session` API),
//! [`shard`] (deterministic multi-threaded execution over topology
//! regions, byte-identical to the sequential run).
//!
//! This crate holds one packet engine. The seed implementation it must
//! match bit for bit lives in the `inrpp-packet-oracle` test crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod engine;
pub mod packet;
pub mod report;
pub mod session;
pub mod shard;

pub use engine::{PacketRun, PacketSim};
pub use packet::{AimdConfig, FlowTransport, PacketSimConfig, TransferSpec, TransportKind};
pub use report::{FlowStats, PacketSimReport};
pub use session::{PacketEngine, PacketService};
