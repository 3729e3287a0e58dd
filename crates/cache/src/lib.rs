//! # inrpp-cache — temporary-custody storage for in-flight content
//!
//! The paper's central reinterpretation of ICN caching (§1, §3.3): routers
//! do not cache *popular* objects, they take **temporary custody** of
//! chunks that cannot currently be forwarded — a store-and-forward buffer
//! addressed by content name rather than a FIFO of anonymous packets.
//!
//! * [`custody`] — the [`custody::CustodyStore`]: byte-budgeted, per-flow,
//!   in-order chunk storage that refuses a chunk past its budget, so the
//!   caller pushes back (§3.3's back-pressure contract).
//! * [`sizing`] — the line-rate feasibility arithmetic behind the paper's
//!   "a 10GB cache after a 40Gbps link can hold incoming traffic for 2
//!   seconds" claim (experiment C1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod custody;
pub mod sizing;

pub use custody::{CustodyStore, StoreError};
pub use sizing::{holding_time, required_cache};
