//! Detour-path analysis — the algorithm behind the paper's Table 1.
//!
//! For every link `(u, v)` we ask: if this link saturates, how far around it
//! is the best alternative? The answer is the length of the shortest
//! `u -> v` path that avoids the link itself, classified by the number of
//! *intermediate* nodes, matching the paper's terminology:
//!
//! * **1 hop**  — a path `u -> w -> v` exists (the link closes a triangle);
//! * **2 hops** — best alternative is `u -> w -> x -> v`;
//! * **3+ hops** — some longer cycle covers the link;
//! * **N/A** — the link is a bridge: no alternative at all.
//!
//! The same machinery builds the [`DetourTable`] that the INRP routing
//! strategies consult at *forwarding* time: for each link, the list of
//! 1-hop intermediates and 2-hop intermediate pairs, deterministically
//! ordered.

use std::collections::VecDeque;
use std::fmt;

use crate::graph::{LinkId, NodeId, Topology};
use crate::spath::Path;

/// Classification of a link's best detour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetourClass {
    /// Best alternative has one intermediate node (`u->w->v`).
    OneHop,
    /// Best alternative has two intermediate nodes.
    TwoHop,
    /// Best alternative has `n >= 3` intermediate nodes.
    ThreePlus(u32),
    /// No alternative path: the link is a bridge.
    None,
}

impl fmt::Display for DetourClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DetourClass::OneHop => write!(f, "1 hop"),
            DetourClass::TwoHop => write!(f, "2 hops"),
            DetourClass::ThreePlus(n) => write!(f, "{n} hops"),
            DetourClass::None => write!(f, "N/A"),
        }
    }
}

/// Classify one link by BFS from one endpoint to the other with the link
/// masked out.
///
/// ```
/// use inrpp_topology::detour::{classify_link, DetourClass};
/// use inrpp_topology::Topology;
///
/// let topo = Topology::fig3();
/// let n = |s: &str| topo.node_by_name(s).unwrap();
/// // the 2 Mbps bottleneck has a 1-hop detour via node 3 ...
/// let bottleneck = topo.link_between(n("2"), n("4")).unwrap();
/// assert_eq!(classify_link(&topo, bottleneck), DetourClass::OneHop);
/// // ... but the access link is a bridge: back-pressure territory
/// let access = topo.link_between(n("1"), n("2")).unwrap();
/// assert_eq!(classify_link(&topo, access), DetourClass::None);
/// ```
pub fn classify_link(topo: &Topology, link: LinkId) -> DetourClass {
    let l = topo.link(link);
    let (src, dst) = (l.a, l.b);
    let mut dist = vec![u32::MAX; topo.node_count()];
    dist[src.idx()] = 0;
    let mut q = VecDeque::from([src]);
    while let Some(u) = q.pop_front() {
        let du = dist[u.idx()];
        for &(v, via) in topo.neighbors(u) {
            if via == link || dist[v.idx()] != u32::MAX {
                continue;
            }
            dist[v.idx()] = du + 1;
            if v == dst {
                // BFS guarantees first arrival is shortest.
                return match du {
                    // du+1 total hops => du intermediates... careful:
                    // path length = du + 1 edges, intermediates = du.
                    1 => DetourClass::OneHop,
                    2 => DetourClass::TwoHop,
                    n => DetourClass::ThreePlus(n),
                };
            }
            q.push_back(v);
        }
    }
    DetourClass::None
}

/// Aggregate detour availability for a topology — one row of Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetourStats {
    /// Total links analysed.
    pub links: usize,
    /// Links whose best detour has one intermediate node.
    pub one_hop: usize,
    /// Links whose best detour has two intermediate nodes.
    pub two_hop: usize,
    /// Links whose best detour has three or more intermediates.
    pub three_plus: usize,
    /// Bridge links with no detour.
    pub none: usize,
}

impl DetourStats {
    /// Percentage helpers, `0.0` when the topology has no links.
    fn pct(&self, n: usize) -> f64 {
        if self.links == 0 {
            0.0
        } else {
            100.0 * n as f64 / self.links as f64
        }
    }

    /// % of links with a 1-hop detour.
    pub fn one_hop_pct(&self) -> f64 {
        self.pct(self.one_hop)
    }

    /// % of links with a 2-hop best detour.
    pub fn two_hop_pct(&self) -> f64 {
        self.pct(self.two_hop)
    }

    /// % of links whose best detour needs 3+ intermediates.
    pub fn three_plus_pct(&self) -> f64 {
        self.pct(self.three_plus)
    }

    /// % of bridge links (no detour available).
    pub fn none_pct(&self) -> f64 {
        self.pct(self.none)
    }
}

/// Classify every link and aggregate the distribution.
pub fn analyze(topo: &Topology) -> (Vec<DetourClass>, DetourStats) {
    let classes: Vec<DetourClass> = topo.link_ids().map(|l| classify_link(topo, l)).collect();
    let mut stats = DetourStats {
        links: classes.len(),
        one_hop: 0,
        two_hop: 0,
        three_plus: 0,
        none: 0,
    };
    for c in &classes {
        match c {
            DetourClass::OneHop => stats.one_hop += 1,
            DetourClass::TwoHop => stats.two_hop += 1,
            DetourClass::ThreePlus(_) => stats.three_plus += 1,
            DetourClass::None => stats.none += 1,
        }
    }
    (classes, stats)
}

/// Precomputed per-link detour alternatives, consulted by routers when an
/// interface enters the *detour phase* (§3.3).
///
/// For a congested link between `u` and `v` the table stores, symmetric in
/// direction:
/// * `one_hop`: intermediates `w` with links `u-w` and `w-v`;
/// * `two_hop`: ordered pairs `(w, x)` forming `u-w-x-v`, relative to the
///   link's canonical `(a, b)` orientation — callers traversing `b -> a`
///   reverse the pair.
#[derive(Debug, Clone)]
pub struct DetourTable {
    one_hop: Vec<Vec<NodeId>>,
    two_hop: Vec<Vec<(NodeId, NodeId)>>,
}

impl DetourTable {
    /// Build the table for `topo`, listing 2-hop alternatives only for links
    /// that lack enough 1-hop ones (`two_hop_limit` pairs at most per link,
    /// to bound memory on dense graphs).
    pub fn build(topo: &Topology, two_hop_limit: usize) -> DetourTable {
        let mut one_hop = Vec::with_capacity(topo.link_count());
        let mut two_hop = Vec::with_capacity(topo.link_count());
        for lid in topo.link_ids() {
            let l = topo.link(lid);
            let (a, b) = (l.a, l.b);
            // 1-hop: common neighbours of a and b (sorted: both adjacency
            // lists are sorted, intersect them).
            let mut ws = Vec::new();
            let na = topo.neighbors(a);
            let nb = topo.neighbors(b);
            let (mut i, mut j) = (0, 0);
            while i < na.len() && j < nb.len() {
                match na[i].0.cmp(&nb[j].0) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        let w = na[i].0;
                        if w != a && w != b {
                            ws.push(w);
                        }
                        i += 1;
                        j += 1;
                    }
                }
            }
            // 2-hop: pairs (w, x): a-w, w-x, x-b with all nodes distinct and
            // neither hop being the congested link itself.
            let mut pairs = Vec::new();
            for &(w, _) in topo.neighbors(a) {
                if w == b || pairs.len() >= two_hop_limit {
                    continue;
                }
                for &(x, _) in topo.neighbors(w) {
                    if x == a || x == b || x == w {
                        continue;
                    }
                    if topo.link_between(x, b).is_some() {
                        pairs.push((w, x));
                        if pairs.len() >= two_hop_limit {
                            break;
                        }
                    }
                }
            }
            one_hop.push(ws);
            two_hop.push(pairs);
        }
        DetourTable { one_hop, two_hop }
    }

    /// 1-hop intermediates for `link`, ascending by node id.
    pub fn one_hop(&self, link: LinkId) -> &[NodeId] {
        &self.one_hop[link.idx()]
    }

    /// 2-hop intermediate pairs for `link`, oriented `a -> b`.
    pub fn two_hop(&self, link: LinkId) -> &[(NodeId, NodeId)] {
        &self.two_hop[link.idx()]
    }

    /// Detour *paths* around `link` when traversed `from -> to`, 1-hop
    /// alternatives first, then 2-hop; at most `max` paths.
    ///
    /// # Panics
    /// Panics if `(from, to)` are not the endpoints of `link`.
    pub fn detour_paths(
        &self,
        topo: &Topology,
        link: LinkId,
        from: NodeId,
        to: NodeId,
        max: usize,
    ) -> Vec<Path> {
        let l = topo.link(link);
        assert!(
            (from == l.a && to == l.b) || (from == l.b && to == l.a),
            "({from}, {to}) are not the endpoints of {link}"
        );
        let forward = from == l.a;
        let mut out = Vec::new();
        for &w in self.one_hop(link) {
            if out.len() >= max {
                return out;
            }
            out.push(Path::new(vec![from, w, to]));
        }
        for &(w, x) in self.two_hop(link) {
            if out.len() >= max {
                return out;
            }
            let (first, second) = if forward { (w, x) } else { (x, w) };
            out.push(Path::new(vec![from, first, second, to]));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inrpp_sim::time::SimDuration;
    use inrpp_sim::units::Rate;

    fn c() -> Rate {
        Rate::mbps(10.0)
    }
    fn d() -> SimDuration {
        SimDuration::from_millis(1)
    }

    #[test]
    fn triangle_links_have_one_hop_detours() {
        let t = Topology::ring(3, c(), d());
        let (classes, stats) = analyze(&t);
        assert!(classes.iter().all(|&cl| cl == DetourClass::OneHop));
        assert_eq!(stats.one_hop, 3);
        assert!((stats.one_hop_pct() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn square_links_have_two_hop_detours() {
        let t = Topology::ring(4, c(), d());
        let (classes, _) = analyze(&t);
        assert!(classes.iter().all(|&cl| cl == DetourClass::TwoHop));
    }

    #[test]
    fn long_ring_is_three_plus() {
        let t = Topology::ring(6, c(), d());
        let (classes, stats) = analyze(&t);
        assert!(classes.iter().all(|&cl| cl == DetourClass::ThreePlus(4)));
        assert_eq!(stats.three_plus, 6);
    }

    #[test]
    fn bridges_have_no_detour() {
        let t = Topology::line(3, c(), d());
        let (classes, stats) = analyze(&t);
        assert!(classes.iter().all(|&cl| cl == DetourClass::None));
        assert_eq!(stats.none, 2);
        assert!((stats.none_pct() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn star_spokes_are_bridges() {
        let t = Topology::star(5, c(), d());
        let (_, stats) = analyze(&t);
        assert_eq!(stats.none, 4);
    }

    #[test]
    fn fig3_detour_classes() {
        let t = Topology::fig3();
        let n = |s: &str| t.node_by_name(s).unwrap();
        let bottleneck = t.link_between(n("2"), n("4")).unwrap();
        assert_eq!(classify_link(&t, bottleneck), DetourClass::OneHop);
        let access = t.link_between(n("1"), n("2")).unwrap();
        assert_eq!(classify_link(&t, access), DetourClass::None);
    }

    #[test]
    fn stats_percentages_sum_to_100() {
        let t = Topology::fig3();
        let (_, s) = analyze(&t);
        let total = s.one_hop_pct() + s.two_hop_pct() + s.three_plus_pct() + s.none_pct();
        assert!((total - 100.0).abs() < 1e-9);
        assert_eq!(s.links, 4);
    }

    #[test]
    fn empty_topology_stats() {
        let t = Topology::new("empty");
        let (classes, s) = analyze(&t);
        assert!(classes.is_empty());
        assert_eq!(s.one_hop_pct(), 0.0);
    }

    #[test]
    fn detour_table_one_hop_entries() {
        let t = Topology::fig3();
        let n = |s: &str| t.node_by_name(s).unwrap();
        let table = DetourTable::build(&t, 8);
        let bottleneck = t.link_between(n("2"), n("4")).unwrap();
        assert_eq!(table.one_hop(bottleneck), &[n("3")]);
        let access = t.link_between(n("1"), n("2")).unwrap();
        assert!(table.one_hop(access).is_empty());
        assert!(table.two_hop(access).is_empty());
    }

    #[test]
    fn detour_table_two_hop_entries() {
        // pentagon-ish: a-b link, plus a-w-x-b path
        let mut t = Topology::new("quad");
        let ids = t.add_nodes(4);
        t.add_link(ids[0], ids[1], c(), d()).unwrap(); // a-b
        t.add_link(ids[0], ids[2], c(), d()).unwrap(); // a-w
        t.add_link(ids[2], ids[3], c(), d()).unwrap(); // w-x
        t.add_link(ids[3], ids[1], c(), d()).unwrap(); // x-b
        let table = DetourTable::build(&t, 8);
        let ab = t.link_between(ids[0], ids[1]).unwrap();
        assert!(table.one_hop(ab).is_empty());
        assert_eq!(table.two_hop(ab), &[(ids[2], ids[3])]);
    }

    #[test]
    fn detour_paths_orient_by_direction() {
        let mut t = Topology::new("quad");
        let ids = t.add_nodes(4);
        t.add_link(ids[0], ids[1], c(), d()).unwrap();
        t.add_link(ids[0], ids[2], c(), d()).unwrap();
        t.add_link(ids[2], ids[3], c(), d()).unwrap();
        t.add_link(ids[3], ids[1], c(), d()).unwrap();
        let table = DetourTable::build(&t, 8);
        let ab = t.link_between(ids[0], ids[1]).unwrap();
        let fwd = table.detour_paths(&t, ab, ids[0], ids[1], 8);
        assert_eq!(fwd.len(), 1);
        assert_eq!(fwd[0].nodes(), &[ids[0], ids[2], ids[3], ids[1]]);
        let rev = table.detour_paths(&t, ab, ids[1], ids[0], 8);
        assert_eq!(rev[0].nodes(), &[ids[1], ids[3], ids[2], ids[0]]);
        // every returned path must be walkable in the topology
        for p in fwd.iter().chain(rev.iter()) {
            let _ = p.links(&t);
        }
    }

    #[test]
    fn detour_paths_respect_max() {
        let t = Topology::full_mesh(6, c(), d());
        let table = DetourTable::build(&t, 8);
        let l = t.link_between(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(table.one_hop(l).len(), 4);
        let paths = table.detour_paths(&t, l, NodeId(0), NodeId(1), 2);
        assert_eq!(paths.len(), 2);
    }

    #[test]
    #[should_panic(expected = "not the endpoints")]
    fn detour_paths_checks_endpoints() {
        let t = Topology::fig3();
        let table = DetourTable::build(&t, 8);
        let _ = table.detour_paths(&t, LinkId(0), NodeId(2), NodeId(3), 4);
    }

    #[test]
    fn two_hop_limit_bounds_pairs() {
        let t = Topology::full_mesh(8, c(), d());
        let table = DetourTable::build(&t, 3);
        for l in t.link_ids() {
            assert!(table.two_hop(l).len() <= 3);
        }
    }
}
