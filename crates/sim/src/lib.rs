//! # inrpp-sim — deterministic discrete-event simulation substrate
//!
//! This crate is the foundation every other crate in the INRPP reproduction
//! builds on. It deliberately contains **no networking semantics**: only the
//! machinery needed to run reproducible simulations and to measure them.
//!
//! Design rules (the suite-wide version is ARCHITECTURE.md's
//! "Determinism model"):
//!
//! * **Integer time.** [`time::SimTime`] and [`time::SimDuration`] are
//!   nanosecond `u64` newtypes. Floating point appears only at the edges
//!   (rates, metrics), so event ordering can never be perturbed by rounding.
//! * **Total determinism.** The [`event::EventQueue`] orders events by
//!   `(time, insertion sequence)`; the [`rng::SimRng`] generator is an
//!   in-crate xoshiro256\*\* whose output is stable forever, independent of
//!   `rand` version bumps. Components derive independent streams from
//!   `(seed, stream-id)` so adding a component never shifts another's stream.
//! * **Synchronous, poll-style control flow** in the spirit of smoltcp: the
//!   [`event::Engine`] hands events back to the caller; there is no runtime,
//!   no threads, no async.
//!
//! The crate also carries the measurement toolbox ([`metrics`]) shared by the
//! flow-level and packet-level simulators, the random-variate library
//! ([`dist`]) used by workload generators, deterministic [`fault`] injection
//! (keyed drop/corrupt draws and timed fault plans), and human-friendly
//! [`units`] helpers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calendar;
pub mod dist;
pub mod event;
pub mod fault;
pub mod metrics;
pub mod rng;
pub mod shard;
pub mod snap;
pub mod time;
pub mod units;
