//! # inrpp-packet-oracle — the seed packet engine, kept as a test oracle
//!
//! `inrpp-packetsim` ships one packet engine: the arena/calendar engine
//! behind `PacketSim`. This crate keeps the original seed implementation
//! of the same §3 node model next to it, unoptimised and easy to audit,
//! so tests can demand that every run of the shipped engine is
//! **bit-identical** to it: the same report, floats and per-channel byte
//! totals included, and the same probe stream.
//!
//! The crate is `publish = false` and only ever a dev-dependency; no
//! shipped crate links it. Its entry point is [`run`]; the in-crate
//! equivalence tests and the `packet_engine_matches_reference_runner`
//! property test (`tests/properties.rs`) call it.
//!
//! Modules: [`channel`] (the seed's one-struct-per-direction link model),
//! [`packet`] (its owned, source-routed packet), [`detour`] (its
//! neighbour-load board), and the engine itself in `reference`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod detour;
pub mod packet;
mod reference;

#[cfg(test)]
mod equivalence;

use inrpp::session::{Probe, ProbeSet};
use inrpp_packetsim::{FlowTransport, PacketSimConfig, PacketSimReport, TransferSpec};
use inrpp_topology::Topology;

/// Run `transfers` over `topo` on the seed engine and return its report.
///
/// The seed engine predates fault plans, so there is no fault-plan
/// argument; the static `config.drop_chance` applies, with the same keyed
/// draws as the shipped engine.
/// Transfers are taken as given: validate them first (for example with
/// `PacketSim::try_add_transfer_as`), because the seed engine panics on
/// an unroutable or empty transfer.
pub fn run(
    topo: &Topology,
    config: PacketSimConfig,
    transfers: Vec<(TransferSpec, FlowTransport)>,
    probes: &mut [&mut dyn Probe],
) -> PacketSimReport {
    reference::Runner::build(topo, config, transfers).run(&mut ProbeSet::new(probes))
}
