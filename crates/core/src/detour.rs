//! Detour selection: which paths bypass a congested link?
//!
//! When an interface enters the detour phase it places its excess onto
//! alternative sub-paths around the congested link. The paper describes
//! two modes (§3.3), which the packet engine applies when it checks a
//! candidate's headroom:
//!
//! * **load-aware** (option i): neighbours periodically advertise their
//!   interface loads, so every hop of a detour is checked;
//! * **blind** (option ii): no load information; only the local first hop
//!   is checked and downstream nodes may detour again.
//!
//! Depth 1 uses 1-hop detours; depth 2 additionally allows the "one extra
//! hop" paths of the Fig. 4 setup, which is what the engines run
//! ([`MAX_DETOUR_DEPTH`]).

use inrpp_topology::detour::DetourTable;
use inrpp_topology::graph::{LinkId, NodeId, Topology};
use inrpp_topology::spath::Path;

/// Detour depth of the packet engines: the Fig. 4 setup, where "nodes on
/// the detour path can further detour, but for one extra hop only".
pub const MAX_DETOUR_DEPTH: u8 = 2;

/// Bypass paths kept per directed link, shortest first.
const MAX_DETOUR_PATHS: usize = 4;

/// Precomputed table for picking detours on one topology, at depth
/// [`MAX_DETOUR_DEPTH`].
#[derive(Debug, Clone)]
pub struct DetourSelector {
    table: DetourTable,
}

impl DetourSelector {
    /// Build a selector for `topo`.
    pub fn new(topo: &Topology) -> Self {
        DetourSelector {
            table: DetourTable::build(topo, MAX_DETOUR_PATHS),
        }
    }

    /// Candidate bypass paths around `link` traversed `from -> to`,
    /// shortest first, of at most [`MAX_DETOUR_DEPTH`] + 1 hops.
    pub fn candidates(&self, topo: &Topology, link: LinkId, from: NodeId, to: NodeId) -> Vec<Path> {
        self.table
            .detour_paths(topo, link, from, to, MAX_DETOUR_PATHS)
            .into_iter()
            .filter(|p| p.hops() <= MAX_DETOUR_DEPTH as usize + 1)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inrpp_sim::time::SimDuration;
    use inrpp_sim::units::Rate;

    fn fig3() -> Topology {
        Topology::fig3()
    }

    fn ids(t: &Topology) -> (NodeId, NodeId, NodeId, NodeId) {
        (
            t.node_by_name("1").unwrap(),
            t.node_by_name("2").unwrap(),
            t.node_by_name("3").unwrap(),
            t.node_by_name("4").unwrap(),
        )
    }

    #[test]
    fn fig3_bottleneck_has_one_candidate() {
        let t = fig3();
        let (_, n2, n3, n4) = ids(&t);
        let sel = DetourSelector::new(&t);
        let link = t.link_between(n2, n4).unwrap();
        let cands = sel.candidates(&t, link, n2, n4);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].nodes(), &[n2, n3, n4]);
    }

    #[test]
    fn access_link_has_no_detour() {
        let t = fig3();
        let (n1, n2, _, _) = ids(&t);
        let sel = DetourSelector::new(&t);
        let link = t.link_between(n1, n2).unwrap();
        assert!(sel.candidates(&t, link, n1, n2).is_empty());
    }

    #[test]
    fn depth_two_admits_two_hop_paths() {
        // quad: detour around a-b requires 2 intermediates
        let mut t = Topology::new("quad");
        let n = t.add_nodes(4);
        let c = Rate::mbps(10.0);
        let d = SimDuration::from_millis(1);
        t.add_link(n[0], n[1], c, d).unwrap();
        t.add_link(n[0], n[2], c, d).unwrap();
        t.add_link(n[2], n[3], c, d).unwrap();
        t.add_link(n[3], n[1], c, d).unwrap();
        let link = t.link_between(n[0], n[1]).unwrap();
        let sel = DetourSelector::new(&t);
        assert!(!sel.candidates(&t, link, n[0], n[1]).is_empty());
    }
}
