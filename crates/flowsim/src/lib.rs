//! # inrpp-flowsim — fluid flow-level simulation of routing strategies
//!
//! The paper evaluates INRP's push-data and detour mechanisms "in a simple
//! flow-level simulator, where flows arrive Poisson distributed" (§3.3,
//! Fig. 4). This crate is that simulator, rebuilt:
//!
//! * [`allocator`] — a **multipath max-min** fluid bandwidth allocator
//!   (progressive filling over preference-ordered subpaths). With one
//!   subpath per flow it reduces to classic TCP-style max-min fairness
//!   (the paper's e2e baseline); with detour subpaths it realises INRPP's
//!   "split equally up to the bottleneck, detour the excess" semantics —
//!   both sides of Fig. 3 fall out of the same machinery.
//! * [`engine`] — the **incremental, arena-backed** allocation engine the
//!   event loop actually runs: subpaths resolve to flat channel-index
//!   slices once at flow arrival, scratch state persists across events,
//!   and every re-allocation is bit-identical to the reference allocator
//!   (see the module docs for the exactness contract).
//! * [`strategy`] — path-set construction per flow: single shortest path
//!   (SP), hash-selected equal-cost path (ECMP), and INRP (primary +
//!   detour-spliced subpaths, 1-hop plus the paper's "one extra hop").
//! * [`workload`] — Poisson arrivals, flow-size distributions, source/
//!   destination samplers.
//! * [`sim`] — the event loop: arrivals/departures with exact fluid
//!   integration between events, producing the Fig. 4a (normalised network
//!   throughput) and Fig. 4b (traffic-weighted path-stretch CDF) metrics.
//! * [`metrics`] — weighted CDF and report types shared by the binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocator;
pub mod engine;
pub mod metrics;
pub mod sim;
pub mod strategy;
pub mod workload;

pub use allocator::{max_min_allocate, Allocation, UnresolvedHop};
pub use engine::AllocEngine;
pub use metrics::{FlowSimReport, WeightedCdf};
pub use sim::{FlowObserver, FlowSim, FlowSimConfig};
pub use strategy::{
    EcmpStrategy, InrpStrategy, MptcpStrategy, RoutingStrategy, SinglePathStrategy,
};
pub use workload::{FlowSpec, PairSelector, Workload, WorkloadConfig};
