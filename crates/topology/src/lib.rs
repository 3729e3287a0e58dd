//! # inrpp-topology — network graphs, paths, and detour analysis
//!
//! Everything the INRPP reproduction knows about network *structure* lives
//! here:
//!
//! * [`graph`] — the [`graph::Topology`] model: nodes and undirected
//!   capacity/delay-annotated links, plus canned shapes (line, ring, star,
//!   dumbbell, and the paper's Fig. 3 example network).
//! * [`spath`] — Dijkstra shortest paths (hop- or delay-weighted),
//!   single-source trees and full path extraction.
//! * [`kshort`] — Yen's k-shortest loopless paths.
//! * [`ecmp`] — enumeration of *all* equal-cost shortest paths and the
//!   deterministic flow-hash used by the ECMP baseline.
//! * [`detour`] — the paper's Table 1 analysis: classify every link by the
//!   length of its best alternative path (1-hop / 2-hop / 3+ / none) and
//!   build the per-link detour tables the INRP strategies consult.
//! * [`rocketfuel`] — deterministic generators for the nine ISP topologies
//!   of Table 1, calibrated to each published row (a substitution for the
//!   original Rocketfuel maps, which are not redistributable).
//! * [`synth`] — synthetic scenario-catalog families: heterogeneous-access
//!   dumbbell, parking-lot chain, k-ary fat-tree, Barabási–Albert
//!   scale-free — all seed-deterministic and detour-capable.
//! * [`partition`] — region assignment for sharded simulation: the
//!   pluggable [`partition::Partitioner`] trait, contiguous and BFS
//!   strategies, and symmetric cut-channel enumeration.
//! * [`io`] — plain-text edge-list serialisation.
//! * [`stats`] — degree distribution, diameter, clustering.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dense;
pub mod detour;
pub mod ecmp;
pub mod graph;
pub mod io;
pub mod kshort;
pub mod partition;
pub mod rocketfuel;
pub mod spath;
pub mod stats;
pub mod synth;

pub use dense::DenseChannels;
pub use detour::{DetourClass, DetourStats, DetourTable};
pub use graph::{LinkId, NodeId, Topology, TopologyError};
pub use partition::{BfsPartitioner, ContiguousPartitioner, CutChannel, Partition, Partitioner};
pub use rocketfuel::{Isp, IspProfile};
pub use spath::Path;
