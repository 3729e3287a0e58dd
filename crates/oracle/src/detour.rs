//! Neighbour load advertisements (§3.3 option i): the board the seed
//! engine's routers gossip their residual capacities onto every tick.
//! The seed engine never reads it back; the oracle keeps it so the seed
//! code runs as written.

use std::collections::HashMap;

use inrpp_sim::time::SimTime;
use inrpp_sim::units::Rate;
use inrpp_topology::graph::NodeId;

/// Advertised residual capacities of neighbour interfaces, keyed by the
/// directed pair `(from, to)`. Entries carry the advertisement time so
/// stale gossip can be aged out.
#[derive(Debug, Clone, Default)]
pub struct NeighborLoads {
    residual: HashMap<(NodeId, NodeId), (Rate, SimTime)>,
}

impl NeighborLoads {
    /// Empty map (blind operation).
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that channel `from -> to` advertised `residual` free capacity.
    pub fn advertise(&mut self, now: SimTime, from: NodeId, to: NodeId, residual: Rate) {
        self.residual.insert((from, to), (residual, now));
    }

    /// The advertised residual for `from -> to`, if any.
    pub fn residual(&self, from: NodeId, to: NodeId) -> Option<Rate> {
        self.residual.get(&(from, to)).map(|&(r, _)| r)
    }

    /// Drop advertisements older than `oldest`.
    pub fn expire(&mut self, oldest: SimTime) {
        self.residual.retain(|_, &mut (_, t)| t >= oldest);
    }

    /// Number of live advertisements.
    pub fn len(&self) -> usize {
        self.residual.len()
    }

    /// True when no advertisements are known.
    pub fn is_empty(&self) -> bool {
        self.residual.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbor_loads_expire() {
        let mut loads = NeighborLoads::new();
        loads.advertise(SimTime::from_secs(1), NodeId(0), NodeId(1), Rate::mbps(5.0));
        loads.advertise(SimTime::from_secs(3), NodeId(1), NodeId(2), Rate::mbps(7.0));
        assert_eq!(loads.len(), 2);
        loads.expire(SimTime::from_secs(2));
        assert_eq!(loads.len(), 1);
        assert!(loads.residual(NodeId(0), NodeId(1)).is_none());
        assert!(loads.residual(NodeId(1), NodeId(2)).is_some());
        assert!(!loads.is_empty());
    }

    #[test]
    fn advertisements_overwrite() {
        let mut loads = NeighborLoads::new();
        loads.advertise(SimTime::ZERO, NodeId(0), NodeId(1), Rate::mbps(5.0));
        loads.advertise(SimTime::from_secs(1), NodeId(0), NodeId(1), Rate::mbps(2.0));
        assert_eq!(loads.residual(NodeId(0), NodeId(1)), Some(Rate::mbps(2.0)));
        assert_eq!(loads.len(), 1);
    }
}
