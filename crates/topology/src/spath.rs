//! Shortest paths: Dijkstra with pluggable link costs, plus BFS hop matrices.
//!
//! Determinism note: when several shortest paths tie, the algorithms here
//! always return the same one — the heap breaks cost ties by node id and
//! adjacency lists are iterated in sorted order. Baselines that want *all*
//! tied paths use [`crate::ecmp`] instead.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

use crate::graph::{LinkId, NodeId, Topology};

/// A walk through the topology as a node sequence.
///
/// Paths are almost always *simple* (no repeated node); detour-spliced paths
/// can temporarily violate that, so simplicity is a query, not an invariant.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Path {
    nodes: Vec<NodeId>,
}

impl Path {
    /// Wrap a node sequence.
    ///
    /// # Panics
    /// Panics on an empty sequence.
    pub fn new(nodes: Vec<NodeId>) -> Self {
        assert!(!nodes.is_empty(), "a path needs at least one node");
        Path { nodes }
    }

    /// First node.
    pub fn source(&self) -> NodeId {
        self.nodes[0]
    }

    /// Last node.
    pub fn target(&self) -> NodeId {
        *self.nodes.last().expect("paths are non-empty")
    }

    /// Number of links traversed.
    pub fn hops(&self) -> usize {
        self.nodes.len() - 1
    }

    /// The node sequence.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Resolve each hop to its [`LinkId`].
    ///
    /// # Panics
    /// Panics if a consecutive pair is not linked in `topo` — a path is
    /// meaningless outside the topology it was computed on.
    pub fn links(&self, topo: &Topology) -> Vec<LinkId> {
        self.nodes
            .windows(2)
            .map(|w| {
                topo.link_between(w[0], w[1]).unwrap_or_else(|| {
                    panic!("path hop {}-{} has no link in {}", w[0], w[1], topo.name())
                })
            })
            .collect()
    }

    /// True when no node repeats.
    pub fn is_simple(&self) -> bool {
        let mut seen = std::collections::HashSet::with_capacity(self.nodes.len());
        self.nodes.iter().all(|n| seen.insert(*n))
    }

    /// True when the path crosses `link`.
    pub fn uses_link(&self, topo: &Topology, link: LinkId) -> bool {
        self.nodes
            .windows(2)
            .any(|w| topo.link_between(w[0], w[1]) == Some(link))
    }

    /// Total cost under a link-cost function.
    pub fn cost(&self, topo: &Topology, cost: impl Fn(&Topology, LinkId) -> f64) -> f64 {
        self.links(topo).into_iter().map(|l| cost(topo, l)).sum()
    }

    /// Splice `detour` into this path in place of the single hop
    /// `detour.source() -> detour.target()`.
    ///
    /// # Panics
    /// Panics if that hop does not occur consecutively in `self`.
    pub fn splice(&self, detour: &Path) -> Path {
        let (u, v) = (detour.source(), detour.target());
        let pos = self
            .nodes
            .windows(2)
            .position(|w| w[0] == u && w[1] == v)
            .unwrap_or_else(|| panic!("hop {u}->{v} not found in path"));
        let mut nodes = Vec::with_capacity(self.nodes.len() + detour.nodes.len() - 2);
        nodes.extend_from_slice(&self.nodes[..pos]);
        nodes.extend_from_slice(detour.nodes());
        nodes.extend_from_slice(&self.nodes[pos + 2..]);
        Path::new(nodes)
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for n in &self.nodes {
            if !first {
                write!(f, "->")?;
            }
            write!(f, "{n}")?;
            first = false;
        }
        Ok(())
    }
}

/// Built-in link cost functions.
pub mod cost {
    use super::*;

    /// Every link costs 1 (hop count).
    pub fn hops(_topo: &Topology, _l: LinkId) -> f64 {
        1.0
    }

    /// Propagation delay in seconds.
    pub fn delay(topo: &Topology, l: LinkId) -> f64 {
        topo.link(l).delay.as_secs_f64()
    }
}

/// Single-source shortest-path tree.
#[derive(Debug, Clone)]
pub struct SpTree {
    src: NodeId,
    dist: Vec<f64>,
    prev: Vec<Option<(NodeId, LinkId)>>,
}

impl SpTree {
    /// The source this tree was grown from.
    pub fn source(&self) -> NodeId {
        self.src
    }

    /// Extract the path to `dst`, `None` if unreachable.
    pub fn path_to(&self, dst: NodeId) -> Option<Path> {
        if !self.dist[dst.idx()].is_finite() {
            return None;
        }
        let mut nodes = vec![dst];
        let mut cur = dst;
        while cur != self.src {
            let (p, _) = self.prev[cur.idx()].expect("finite dist implies predecessor");
            nodes.push(p);
            cur = p;
        }
        nodes.reverse();
        Some(Path::new(nodes))
    }
}

#[derive(PartialEq)]
struct HeapItem {
    cost: f64,
    node: NodeId,
}

impl Eq for HeapItem {}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // min-heap on (cost, node id) through reversal
        other
            .cost
            .total_cmp(&self.cost)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// Dijkstra from `src` with masks: banned nodes/links are treated as absent.
///
/// `banned_nodes[src]` is ignored (the source always participates). Mask
/// slices must match the topology's node/link counts.
pub fn dijkstra_masked(
    topo: &Topology,
    src: NodeId,
    link_cost: &dyn Fn(&Topology, LinkId) -> f64,
    banned_nodes: &[bool],
    banned_links: &[bool],
) -> SpTree {
    assert_eq!(banned_nodes.len(), topo.node_count(), "node mask size");
    assert_eq!(banned_links.len(), topo.link_count(), "link mask size");
    let n = topo.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev: Vec<Option<(NodeId, LinkId)>> = vec![None; n];
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[src.idx()] = 0.0;
    heap.push(HeapItem {
        cost: 0.0,
        node: src,
    });
    while let Some(HeapItem { cost, node: u }) = heap.pop() {
        if done[u.idx()] {
            continue;
        }
        done[u.idx()] = true;
        for &(v, l) in topo.neighbors(u) {
            if banned_nodes[v.idx()] || banned_links[l.idx()] || done[v.idx()] {
                continue;
            }
            let w = link_cost(topo, l);
            debug_assert!(w >= 0.0, "Dijkstra requires non-negative link costs");
            let nd = cost + w;
            if nd < dist[v.idx()] {
                dist[v.idx()] = nd;
                prev[v.idx()] = Some((u, l));
                heap.push(HeapItem { cost: nd, node: v });
            }
        }
    }
    SpTree { src, dist, prev }
}

/// Dijkstra from `src` over the whole topology.
pub fn dijkstra(
    topo: &Topology,
    src: NodeId,
    link_cost: &dyn Fn(&Topology, LinkId) -> f64,
) -> SpTree {
    dijkstra_masked(
        topo,
        src,
        link_cost,
        &vec![false; topo.node_count()],
        &vec![false; topo.link_count()],
    )
}

/// One shortest path `src -> dst`, `None` if unreachable.
pub fn shortest_path(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    link_cost: &dyn Fn(&Topology, LinkId) -> f64,
) -> Option<Path> {
    dijkstra(topo, src, link_cost).path_to(dst)
}

/// All-pairs hop distances by BFS; `None` marks unreachable pairs.
pub fn hop_matrix(topo: &Topology) -> Vec<Vec<Option<u32>>> {
    let n = topo.node_count();
    let mut out = vec![vec![None; n]; n];
    for src in topo.node_ids() {
        let row = &mut out[src.idx()];
        row[src.idx()] = Some(0);
        let mut queue = std::collections::VecDeque::from([src]);
        while let Some(u) = queue.pop_front() {
            let du = row[u.idx()].expect("queued nodes have distances");
            for &(v, _) in topo.neighbors(u) {
                if row[v.idx()].is_none() {
                    row[v.idx()] = Some(du + 1);
                    queue.push_back(v);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use inrpp_sim::time::SimDuration;
    use inrpp_sim::units::Rate;

    fn fig3() -> Topology {
        Topology::fig3()
    }

    fn n(t: &Topology, s: &str) -> NodeId {
        t.node_by_name(s).unwrap()
    }

    #[test]
    fn path_basics() {
        let t = fig3();
        let p = Path::new(vec![n(&t, "1"), n(&t, "2"), n(&t, "4")]);
        assert_eq!(p.hops(), 2);
        assert_eq!(p.source(), n(&t, "1"));
        assert_eq!(p.target(), n(&t, "4"));
        assert!(p.is_simple());
        assert_eq!(p.links(&t).len(), 2);
        assert_eq!(format!("{p}"), "n0->n1->n3");
        let bottleneck = t.link_between(n(&t, "2"), n(&t, "4")).unwrap();
        assert!(p.uses_link(&t, bottleneck));
        let other = t.link_between(n(&t, "3"), n(&t, "4")).unwrap();
        assert!(!p.uses_link(&t, other));
    }

    #[test]
    fn path_splice_replaces_hop() {
        let t = fig3();
        let p = Path::new(vec![n(&t, "1"), n(&t, "2"), n(&t, "4")]);
        let detour = Path::new(vec![n(&t, "2"), n(&t, "3"), n(&t, "4")]);
        let spliced = p.splice(&detour);
        assert_eq!(
            spliced.nodes(),
            &[n(&t, "1"), n(&t, "2"), n(&t, "3"), n(&t, "4")]
        );
        assert_eq!(spliced.hops(), 3);
    }

    #[test]
    #[should_panic(expected = "not found in path")]
    fn splice_missing_hop_panics() {
        let t = fig3();
        let p = Path::new(vec![n(&t, "1"), n(&t, "2")]);
        let detour = Path::new(vec![n(&t, "2"), n(&t, "3"), n(&t, "4")]);
        let _ = p.splice(&detour);
    }

    #[test]
    fn dijkstra_hops_picks_direct_route() {
        let t = fig3();
        let p = shortest_path(&t, n(&t, "1"), n(&t, "4"), &cost::hops).unwrap();
        assert_eq!(p.nodes(), &[n(&t, "1"), n(&t, "2"), n(&t, "4")]);
        assert_eq!(p.hops(), 2);
    }

    #[test]
    fn dijkstra_masked_avoids_banned_link() {
        let t = fig3();
        let bottleneck = t.link_between(n(&t, "2"), n(&t, "4")).unwrap();
        let mut banned_links = vec![false; t.link_count()];
        banned_links[bottleneck.idx()] = true;
        let tree = dijkstra_masked(
            &t,
            n(&t, "1"),
            &cost::hops,
            &vec![false; t.node_count()],
            &banned_links,
        );
        let p = tree.path_to(n(&t, "4")).unwrap();
        assert_eq!(p.nodes(), &[n(&t, "1"), n(&t, "2"), n(&t, "3"), n(&t, "4")]);
    }

    #[test]
    fn dijkstra_masked_avoids_banned_node() {
        let t = fig3();
        let mut banned_nodes = vec![false; t.node_count()];
        banned_nodes[n(&t, "2").idx()] = true;
        let tree = dijkstra_masked(
            &t,
            n(&t, "1"),
            &cost::hops,
            &banned_nodes,
            &vec![false; t.link_count()],
        );
        assert!(tree.path_to(n(&t, "4")).is_none());
    }

    #[test]
    fn delay_cost_prefers_low_latency() {
        let mut t = Topology::new("tri");
        let ids = t.add_nodes(3);
        // direct link is slow; two-hop route is faster
        t.add_link(
            ids[0],
            ids[2],
            Rate::mbps(10.0),
            SimDuration::from_millis(100),
        )
        .unwrap();
        t.add_link(
            ids[0],
            ids[1],
            Rate::mbps(10.0),
            SimDuration::from_millis(10),
        )
        .unwrap();
        t.add_link(
            ids[1],
            ids[2],
            Rate::mbps(10.0),
            SimDuration::from_millis(10),
        )
        .unwrap();
        let by_hops = shortest_path(&t, ids[0], ids[2], &cost::hops).unwrap();
        assert_eq!(by_hops.hops(), 1);
        let by_delay = shortest_path(&t, ids[0], ids[2], &cost::delay).unwrap();
        assert_eq!(by_delay.hops(), 2);
    }

    #[test]
    fn tie_break_is_deterministic() {
        // Two equal-hop paths 0-1-3 and 0-2-3; lower node id must win.
        let mut t = Topology::new("diamond");
        let ids = t.add_nodes(4);
        let c = Rate::mbps(10.0);
        let d = SimDuration::from_millis(1);
        t.add_link(ids[0], ids[1], c, d).unwrap();
        t.add_link(ids[0], ids[2], c, d).unwrap();
        t.add_link(ids[1], ids[3], c, d).unwrap();
        t.add_link(ids[2], ids[3], c, d).unwrap();
        for _ in 0..10 {
            let p = shortest_path(&t, ids[0], ids[3], &cost::hops).unwrap();
            assert_eq!(p.nodes(), &[ids[0], ids[1], ids[3]]);
        }
    }

    #[test]
    fn hop_matrix_on_line() {
        let t = Topology::line(4, Rate::mbps(1.0), SimDuration::from_millis(1));
        let m = hop_matrix(&t);
        assert_eq!(m[0][3], Some(3));
        assert_eq!(m[3][0], Some(3));
        assert_eq!(m[1][2], Some(1));
        assert_eq!(m[2][2], Some(0));
    }

    #[test]
    fn hop_matrix_marks_unreachable() {
        let mut t = Topology::new("split");
        let ids = t.add_nodes(3);
        t.add_link(ids[0], ids[1], Rate::mbps(1.0), SimDuration::from_millis(1))
            .unwrap();
        let m = hop_matrix(&t);
        assert_eq!(m[0][2], None);
        assert_eq!(m[2][0], None);
        assert_eq!(m[0][1], Some(1));
    }

    #[test]
    fn path_cost_accumulates() {
        let t = fig3();
        let p = Path::new(vec![n(&t, "1"), n(&t, "2"), n(&t, "3"), n(&t, "4")]);
        assert_eq!(p.cost(&t, cost::hops), 3.0);
        let d = p.cost(&t, cost::delay);
        assert!((d - 0.015).abs() < 1e-9);
    }
}
