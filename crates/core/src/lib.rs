//! # inrpp — the In-Network Resource Pooling Principle as a library
//!
//! This crate implements the paper's contribution proper: the mechanisms a
//! router and the endpoints need to pool bandwidth *and* cache resources
//! along the whole delivery path (§3 of the paper).
//!
//! | Paper concept (§) | Module |
//! |---|---|
//! | Request/anticipated-rate accounting, Eq. 1 (§3.3) | [`rate`] |
//! | Push-data / detour / back-pressure interface phases (§3.3) | [`phase`] |
//! | Detour selection, blind and load-aware (§3.3 options i/ii) | [`detour`] |
//! | Flowlet splitting for detoured traffic (§1, flowlets of ref.\[50\]) | [`flowlet`] |
//! | Back-pressure notifications and closed-loop entry (§3.3) | [`backpressure`] |
//! | Receiver ⟨Nc, ACKc, Ac⟩ pipeline and sender modes (§3.2) | [`endpoint`] |
//! | Global fairness / local stability arithmetic (Fig. 3) | [`fairness`] |
//! | Whole-scenario convenience API over the substrates | [`scenario`] |
//! | Steppable sessions with checkpoint/resume (service mode) | [`service`] |
//! | Streaming workload ingestion from recorded traces | [`source`] |
//!
//! The chunk-level dynamics live in `inrpp-packetsim`, which drives these
//! state machines from a discrete-event loop; the fluid equilibria live in
//! `inrpp-flowsim`. Both share this crate's configuration type,
//! [`config::InrppConfig`].

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod backpressure;
pub mod config;
pub mod detour;
pub mod endpoint;
pub mod fairness;
pub mod flowlet;
pub mod phase;
pub mod rate;
pub mod scenario;
pub mod service;
pub mod session;
pub mod source;

pub use config::InrppConfig;
pub use phase::{Phase, PhaseController};
pub use rate::RateEstimator;
pub use service::{Checkpoint, FluidBacking, FluidService, ServiceSession};
pub use session::{
    Engine, EngineKind, FluidEngine, Probe, QuantileProbe, RunReport, Session, SessionBuilder,
    SessionError, SessionStrategy, TimeSeriesProbe,
};
pub use source::TraceSource;
