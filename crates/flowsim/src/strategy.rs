//! Routing strategies: how a flow's subpath set is constructed.
//!
//! The three contenders of Fig. 4a:
//!
//! * [`SinglePathStrategy`] (SP) — the hop-count shortest path, ties broken
//!   deterministically. The paper's e2e baseline.
//! * [`EcmpStrategy`] — one of the equal-cost shortest paths, chosen by a
//!   per-flow hash (RFC 2992 behaviour).
//! * [`InrpStrategy`] (URP in the figure) — the shortest path *plus*
//!   detour-spliced subpaths around each of its links, built from the
//!   [`DetourTable`]: 1-hop detours, and — matching the Fig. 4 setup,
//!   "nodes on the detour path can further detour, but for one extra hop
//!   only" — 2-hop detours. Subpaths are preference-ordered by stretch so
//!   the fluid allocator engages detours only when the primary saturates.

use inrpp_topology::detour::DetourTable;
use inrpp_topology::ecmp::{all_shortest_paths, hash_select};
use inrpp_topology::graph::{NodeId, Topology};
use inrpp_topology::kshort::edge_disjoint_paths;
use inrpp_topology::spath::{cost, shortest_path, Path};

/// A source of per-flow subpath sets.
pub trait RoutingStrategy {
    /// Short display name ("SP", "ECMP", "URP").
    fn name(&self) -> &'static str;

    /// Preference-ordered subpaths for a flow `src -> dst` with hash key
    /// `flow_key`. Empty when `dst` is unreachable.
    fn paths_for(&self, topo: &Topology, src: NodeId, dst: NodeId, flow_key: u64) -> Vec<Path>;
}

/// Single shortest path (hop count) — the paper's SP baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct SinglePathStrategy;

impl RoutingStrategy for SinglePathStrategy {
    fn name(&self) -> &'static str {
        "SP"
    }

    fn paths_for(&self, topo: &Topology, src: NodeId, dst: NodeId, _key: u64) -> Vec<Path> {
        shortest_path(topo, src, dst, &cost::hops)
            .map(|p| vec![p])
            .unwrap_or_default()
    }
}

/// Cap on the equal-cost paths [`EcmpStrategy`] enumerates (dense cores
/// explode otherwise).
const ECMP_MAX_PATHS: usize = 16;

/// Equal-cost multipath: per-flow hash over the shortest-path set.
#[derive(Debug, Clone, Copy, Default)]
pub struct EcmpStrategy;

impl RoutingStrategy for EcmpStrategy {
    fn name(&self) -> &'static str {
        "ECMP"
    }

    fn paths_for(&self, topo: &Topology, src: NodeId, dst: NodeId, key: u64) -> Vec<Path> {
        let set = all_shortest_paths(topo, src, dst, ECMP_MAX_PATHS);
        if set.is_empty() {
            return Vec::new();
        }
        vec![hash_select(&set, key).clone()]
    }
}

/// Maximum concurrent subflows of an [`MptcpStrategy`] connection.
const MPTCP_MAX_SUBFLOWS: usize = 4;

/// MPTCP-style end-to-end multipath: each flow pools over up to four
/// **edge-disjoint end-to-end paths** — the paper's "e2eRPP" regime
/// (Fig. 2 ii). Unlike INRP, pooling happens only between the endpoints'
/// full paths; there is no in-network, per-link detouring.
#[derive(Debug, Clone, Copy, Default)]
pub struct MptcpStrategy;

impl RoutingStrategy for MptcpStrategy {
    fn name(&self) -> &'static str {
        "MPTCP"
    }

    fn paths_for(&self, topo: &Topology, src: NodeId, dst: NodeId, _key: u64) -> Vec<Path> {
        edge_disjoint_paths(topo, src, dst, MPTCP_MAX_SUBFLOWS, &cost::hops)
    }
}

/// Configuration for the INRP strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InrpConfig {
    /// Use 1-hop detours around saturated links.
    pub one_hop_detours: bool,
    /// Allow the "one extra hop" recursion (2-hop detours).
    pub two_hop_detours: bool,
    /// Max detour alternatives considered per primary-path link.
    pub detours_per_link: usize,
    /// Max total subpaths per flow (primary included).
    pub max_subpaths: usize,
}

impl Default for InrpConfig {
    fn default() -> Self {
        InrpConfig {
            one_hop_detours: true,
            two_hop_detours: true,
            detours_per_link: 3,
            max_subpaths: 8,
        }
    }
}

/// INRP / URP: shortest path plus detour-spliced subpaths.
///
/// Holds the precomputed [`DetourTable`] for its topology; building it per
/// flow would dominate runtime.
#[derive(Debug, Clone)]
pub struct InrpStrategy {
    config: InrpConfig,
    table: DetourTable,
}

impl InrpStrategy {
    /// Build for `topo` with `config`.
    pub fn new(topo: &Topology, config: InrpConfig) -> Self {
        InrpStrategy {
            config,
            table: DetourTable::build(topo, config.detours_per_link.max(1)),
        }
    }

    /// Build with the default configuration.
    pub fn with_defaults(topo: &Topology) -> Self {
        InrpStrategy::new(topo, InrpConfig::default())
    }

    /// The active configuration.
    pub fn config(&self) -> InrpConfig {
        self.config
    }
}

impl RoutingStrategy for InrpStrategy {
    fn name(&self) -> &'static str {
        "URP"
    }

    fn paths_for(&self, topo: &Topology, src: NodeId, dst: NodeId, _key: u64) -> Vec<Path> {
        let Some(primary) = shortest_path(topo, src, dst, &cost::hops) else {
            return Vec::new();
        };
        let mut out = vec![primary.clone()];
        if !self.config.one_hop_detours || primary.hops() == 0 {
            return out;
        }
        // Candidate detour-spliced variants around every primary link.
        let mut candidates: Vec<Path> = Vec::new();
        let nodes = primary.nodes();
        for w in nodes.windows(2) {
            let (u, v) = (w[0], w[1]);
            let link = topo
                .link_between(u, v)
                .expect("primary path hops are links");
            let per_link = if self.config.two_hop_detours {
                self.config.detours_per_link
            } else {
                // only 1-hop entries: cap the request so 2-hop never surfaces
                self.table
                    .one_hop(link)
                    .len()
                    .min(self.config.detours_per_link)
            };
            for d in self.table.detour_paths(topo, link, u, v, per_link) {
                if !self.config.two_hop_detours && d.hops() > 2 {
                    continue;
                }
                let spliced = primary.splice(&d);
                // reject detours that revisit a node (would loop traffic)
                if spliced.is_simple() {
                    candidates.push(spliced);
                }
            }
        }
        // Preference order: shorter detours first; ties by node sequence
        // for determinism.
        candidates.sort_by(|a, b| {
            a.hops()
                .cmp(&b.hops())
                .then_with(|| a.nodes().cmp(b.nodes()))
        });
        candidates.dedup();
        for c in candidates {
            if out.len() >= self.config.max_subpaths {
                break;
            }
            out.push(c);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inrpp_topology::rocketfuel::{generate_isp, Isp};

    fn fig3() -> Topology {
        Topology::fig3()
    }

    fn n(t: &Topology, s: &str) -> NodeId {
        t.node_by_name(s).unwrap()
    }

    #[test]
    fn sp_returns_one_shortest_path() {
        let t = fig3();
        let s = SinglePathStrategy;
        let ps = s.paths_for(&t, n(&t, "1"), n(&t, "4"), 0);
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0].hops(), 2);
        assert_eq!(s.name(), "SP");
    }

    #[test]
    fn sp_unreachable_is_empty() {
        let mut t = Topology::new("gap");
        let ids = t.add_nodes(2);
        assert!(SinglePathStrategy
            .paths_for(&t, ids[0], ids[1], 0)
            .is_empty());
    }

    #[test]
    fn ecmp_spreads_by_key() {
        // diamond with two equal paths
        let mut t = Topology::new("d");
        let ids = t.add_nodes(4);
        let c = inrpp_sim::units::Rate::mbps(10.0);
        let d = inrpp_sim::time::SimDuration::from_millis(1);
        t.add_link(ids[0], ids[1], c, d).unwrap();
        t.add_link(ids[0], ids[2], c, d).unwrap();
        t.add_link(ids[1], ids[3], c, d).unwrap();
        t.add_link(ids[2], ids[3], c, d).unwrap();
        let s = EcmpStrategy;
        let mut seen = std::collections::HashSet::new();
        for key in 0..64 {
            let ps = s.paths_for(&t, ids[0], ids[3], key);
            assert_eq!(ps.len(), 1);
            seen.insert(ps[0].nodes().to_vec());
        }
        assert_eq!(seen.len(), 2, "both equal-cost paths should be used");
    }

    #[test]
    fn inrp_includes_fig3_detour() {
        let t = fig3();
        let s = InrpStrategy::with_defaults(&t);
        let ps = s.paths_for(&t, n(&t, "1"), n(&t, "4"), 0);
        assert_eq!(s.name(), "URP");
        assert!(ps.len() >= 2, "expected primary + detour, got {ps:?}");
        assert_eq!(ps[0].hops(), 2, "primary first");
        let detour_nodes = [n(&t, "1"), n(&t, "2"), n(&t, "3"), n(&t, "4")];
        assert!(
            ps.iter().any(|p| p.nodes() == detour_nodes),
            "detour via 3 missing: {ps:?}"
        );
    }

    #[test]
    fn inrp_preference_order_is_stretch_sorted() {
        let t = generate_isp(Isp::Exodus, 1);
        let s = InrpStrategy::with_defaults(&t);
        let nodes: Vec<NodeId> = t.node_ids().collect();
        let mut checked = 0;
        for (i, &src) in nodes.iter().enumerate().step_by(7) {
            let dst = nodes[(i * 13 + 5) % nodes.len()];
            if src == dst {
                continue;
            }
            let ps = s.paths_for(&t, src, dst, 0);
            if ps.len() < 2 {
                continue;
            }
            checked += 1;
            for w in ps.windows(2).skip(1) {
                assert!(w[0].hops() <= w[1].hops(), "detours out of order");
            }
            assert!(ps.len() <= s.config().max_subpaths);
            for p in &ps {
                assert!(p.is_simple(), "non-simple subpath {p}");
                assert_eq!(p.source(), src);
                assert_eq!(p.target(), dst);
            }
        }
        assert!(checked > 0, "test never exercised a multi-subpath flow");
    }

    #[test]
    fn inrp_without_two_hop_keeps_short_detours_only() {
        let t = fig3();
        let cfg = InrpConfig {
            two_hop_detours: false,
            ..InrpConfig::default()
        };
        let s = InrpStrategy::new(&t, cfg);
        let ps = s.paths_for(&t, n(&t, "1"), n(&t, "4"), 0);
        // the via-3 detour is 1-hop (one intermediate), so it stays
        assert_eq!(ps.len(), 2);
        // all detours add exactly one hop
        for p in &ps[1..] {
            assert_eq!(p.hops(), ps[0].hops() + 1);
        }
    }

    #[test]
    fn inrp_detours_disabled_reduces_to_sp() {
        let t = fig3();
        let cfg = InrpConfig {
            one_hop_detours: false,
            ..InrpConfig::default()
        };
        let s = InrpStrategy::new(&t, cfg);
        let ps = s.paths_for(&t, n(&t, "1"), n(&t, "4"), 0);
        assert_eq!(ps.len(), 1);
    }

    #[test]
    fn inrp_single_hop_flow() {
        let t = fig3();
        let s = InrpStrategy::with_defaults(&t);
        let ps = s.paths_for(&t, n(&t, "2"), n(&t, "4"), 0);
        assert!(!ps.is_empty());
        assert_eq!(ps[0].hops(), 1);
        // detour around the only link: 2-3-4
        assert!(ps.iter().any(|p| p.hops() == 2));
    }

    #[test]
    fn mptcp_pools_disjoint_paths() {
        let t = fig3();
        let s = MptcpStrategy;
        assert_eq!(s.name(), "MPTCP");
        // from node 2, two disjoint routes reach node 4
        let ps = s.paths_for(&t, n(&t, "2"), n(&t, "4"), 0);
        assert_eq!(ps.len(), 2);
        let l0: std::collections::HashSet<_> = ps[0].links(&t).into_iter().collect();
        let l1: std::collections::HashSet<_> = ps[1].links(&t).into_iter().collect();
        assert!(l0.is_disjoint(&l1));
        // from node 1 the single access link forces one subflow —
        // the multihoming limitation the paper calls out for e2eRPP
        let ps = s.paths_for(&t, n(&t, "1"), n(&t, "4"), 0);
        assert_eq!(ps.len(), 1);
    }

    #[test]
    fn mptcp_vs_inrp_on_fig3() {
        // single-homed sources: MPTCP degenerates to SP while INRP can
        // still pool in-network — the paper's core Fig. 2 argument.
        use crate::allocator::max_min_allocate;
        let t = fig3();
        let src = n(&t, "1");
        let dst = n(&t, "4");
        let mptcp = MptcpStrategy.paths_for(&t, src, dst, 0);
        let inrp = InrpStrategy::with_defaults(&t).paths_for(&t, src, dst, 0);
        let a_mptcp = max_min_allocate(&t, &[mptcp]);
        let a_inrp = max_min_allocate(&t, &[inrp]);
        assert!(
            (a_mptcp.flow_rates[0] - 2e6).abs() < 1.0,
            "MPTCP capped at bottleneck"
        );
        assert!(
            (a_inrp.flow_rates[0] - 5e6).abs() < 1.0,
            "INRP pools to 5 Mbps"
        );
    }

    #[test]
    fn strategies_are_deterministic() {
        let t = generate_isp(Isp::Tiscali, 2);
        let s = InrpStrategy::with_defaults(&t);
        let a = s.paths_for(&t, NodeId(0), NodeId(5), 3);
        let b = s.paths_for(&t, NodeId(0), NodeId(5), 3);
        assert_eq!(a, b);
    }
}
