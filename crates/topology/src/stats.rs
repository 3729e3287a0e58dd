//! Structural statistics for topologies.
//!
//! Used to sanity-check the generated ISP topologies against the shape of
//! real networks (degree skew, small diameter, non-trivial clustering) and
//! reported alongside Table 1 in the experiment output.

use crate::graph::{NodeId, Topology};
use crate::spath::hop_matrix;

/// Summary of a topology's structure.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Node count.
    pub nodes: usize,
    /// Undirected link count.
    pub links: usize,
    /// Minimum node degree.
    pub min_degree: usize,
    /// Mean node degree.
    pub mean_degree: f64,
    /// Maximum node degree.
    pub max_degree: usize,
    /// Longest shortest path in hops (`None` when disconnected or trivial).
    pub diameter: Option<u32>,
    /// Global clustering coefficient (triangle density).
    pub clustering: f64,
    /// Whether the graph is connected.
    pub connected: bool,
}

/// Compute [`GraphStats`] for `topo`.
pub fn graph_stats(topo: &Topology) -> GraphStats {
    let nodes = topo.node_count();
    let links = topo.link_count();
    let degrees: Vec<usize> = topo.node_ids().map(|n| topo.degree(n)).collect();
    let (min_degree, max_degree) = degrees
        .iter()
        .fold((usize::MAX, 0), |(lo, hi), &d| (lo.min(d), hi.max(d)));
    let mean_degree = if nodes == 0 {
        0.0
    } else {
        2.0 * links as f64 / nodes as f64
    };
    let connected = topo.is_connected();
    let diameter = if nodes < 2 || !connected {
        None
    } else {
        hop_matrix(topo)
            .iter()
            .flat_map(|row| row.iter().flatten())
            .max()
            .copied()
    };
    GraphStats {
        nodes,
        links,
        min_degree: if nodes == 0 { 0 } else { min_degree },
        mean_degree,
        max_degree,
        diameter,
        clustering: global_clustering(topo),
        connected,
    }
}

/// Global clustering coefficient: `3 × triangles / open triads`.
/// Zero for graphs with no node of degree ≥ 2.
pub fn global_clustering(topo: &Topology) -> f64 {
    let mut triangles = 0usize;
    let mut triads = 0usize;
    for u in topo.node_ids() {
        let neigh = topo.neighbors(u);
        let d = neigh.len();
        if d < 2 {
            continue;
        }
        triads += d * (d - 1) / 2;
        for i in 0..d {
            for j in (i + 1)..d {
                if topo.link_between(neigh[i].0, neigh[j].0).is_some() {
                    triangles += 1;
                }
            }
        }
    }
    if triads == 0 {
        0.0
    } else {
        // each triangle is counted once per corner = 3 times total
        triangles as f64 / triads as f64
    }
}

/// Histogram of node degrees: `out[d]` = number of nodes with degree `d`.
pub fn degree_histogram(topo: &Topology) -> Vec<usize> {
    let max = topo.node_ids().map(|n| topo.degree(n)).max().unwrap_or(0);
    let mut out = vec![0usize; max + 1];
    for n in topo.node_ids() {
        out[topo.degree(n)] += 1;
    }
    out
}

/// Exact betweenness centrality (Brandes' algorithm, unweighted), the
/// standard predictor of which routers sit on most shortest paths — and
/// therefore where INRPP's detour/custody machinery earns its keep.
///
/// Returns one score per node; endpoint pairs are not counted, each
/// unordered pair contributes once.
pub fn betweenness(topo: &Topology) -> Vec<f64> {
    let n = topo.node_count();
    let mut cb = vec![0.0f64; n];
    for s in topo.node_ids() {
        // single-source shortest-path counting
        let mut stack: Vec<NodeId> = Vec::with_capacity(n);
        let mut preds: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        let mut sigma = vec![0.0f64; n];
        let mut dist = vec![-1i64; n];
        sigma[s.idx()] = 1.0;
        dist[s.idx()] = 0;
        let mut queue = std::collections::VecDeque::from([s]);
        while let Some(v) = queue.pop_front() {
            stack.push(v);
            for &(w, _) in topo.neighbors(v) {
                if dist[w.idx()] < 0 {
                    dist[w.idx()] = dist[v.idx()] + 1;
                    queue.push_back(w);
                }
                if dist[w.idx()] == dist[v.idx()] + 1 {
                    sigma[w.idx()] += sigma[v.idx()];
                    preds[w.idx()].push(v);
                }
            }
        }
        // dependency accumulation
        let mut delta = vec![0.0f64; n];
        while let Some(w) = stack.pop() {
            for &v in &preds[w.idx()] {
                delta[v.idx()] += sigma[v.idx()] / sigma[w.idx()] * (1.0 + delta[w.idx()]);
            }
            if w != s {
                cb[w.idx()] += delta[w.idx()];
            }
        }
    }
    // undirected graph: every pair was counted twice
    for c in &mut cb {
        *c /= 2.0;
    }
    cb
}

#[cfg(test)]
mod tests {
    use super::*;
    use inrpp_sim::time::SimDuration;
    use inrpp_sim::units::Rate;

    fn c() -> Rate {
        Rate::mbps(1.0)
    }
    fn d() -> SimDuration {
        SimDuration::from_millis(1)
    }

    #[test]
    fn stats_of_ring() {
        let t = Topology::ring(6, c(), d());
        let s = graph_stats(&t);
        assert_eq!(s.nodes, 6);
        assert_eq!(s.links, 6);
        assert_eq!(s.min_degree, 2);
        assert_eq!(s.max_degree, 2);
        assert!((s.mean_degree - 2.0).abs() < 1e-12);
        assert_eq!(s.diameter, Some(3));
        assert_eq!(s.clustering, 0.0);
        assert!(s.connected);
    }

    #[test]
    fn stats_of_mesh() {
        let t = Topology::full_mesh(4, c(), d());
        let s = graph_stats(&t);
        assert_eq!(s.diameter, Some(1));
        assert!((s.clustering - 1.0).abs() < 1e-12);
    }

    #[test]
    fn triangle_clustering() {
        // A triangle with one pendant node: clustering < 1.
        let mut t = Topology::ring(3, c(), d());
        let x = t.add_node();
        t.add_link(crate::graph::NodeId(0), x, c(), d()).unwrap();
        let cl = global_clustering(&t);
        // triads: n0 has deg3 -> 3, n1,n2 deg2 -> 1 each; total 5; triangles counted 3x.
        assert!((cl - 3.0 / 5.0).abs() < 1e-12, "clustering {cl}");
    }

    #[test]
    fn disconnected_graph_has_no_diameter() {
        let mut t = Topology::new("two");
        t.add_nodes(2);
        let s = graph_stats(&t);
        assert!(!s.connected);
        assert_eq!(s.diameter, None);
        assert_eq!(s.min_degree, 0);
    }

    #[test]
    fn degree_histogram_counts() {
        let t = Topology::star(5, c(), d());
        let h = degree_histogram(&t);
        assert_eq!(h[1], 4);
        assert_eq!(h[4], 1);
        assert_eq!(h.iter().sum::<usize>(), 5);
    }

    #[test]
    fn betweenness_of_line() {
        // line 0-1-2-3: inner nodes lie on shortest paths
        let t = Topology::line(4, c(), d());
        let b = betweenness(&t);
        assert_eq!(b[0], 0.0);
        assert_eq!(b[3], 0.0);
        // node 1 is on paths 0-2, 0-3 => 2.0 ; symmetric for node 2
        assert!((b[1] - 2.0).abs() < 1e-9, "{b:?}");
        assert!((b[2] - 2.0).abs() < 1e-9, "{b:?}");
    }

    #[test]
    fn betweenness_of_star_hub() {
        let t = Topology::star(5, c(), d());
        let b = betweenness(&t);
        // hub is on all C(4,2) = 6 leaf pairs
        assert!((b[0] - 6.0).abs() < 1e-9, "{b:?}");
        for &leaf_score in &b[1..5] {
            assert_eq!(leaf_score, 0.0);
        }
    }

    #[test]
    fn betweenness_splits_over_equal_paths() {
        // diamond 0-{1,2}-3: each middle node carries half of pair (0,3)
        let mut t = Topology::new("diamond");
        let ids = t.add_nodes(4);
        for (a, b) in [(0u32, 1), (0, 2), (1, 3), (2, 3)] {
            t.add_link(crate::graph::NodeId(a), crate::graph::NodeId(b), c(), d())
                .unwrap();
        }
        let b = betweenness(&t);
        assert!((b[1] - 0.5).abs() < 1e-9, "{b:?}");
        assert!((b[2] - 0.5).abs() < 1e-9, "{b:?}");
        let _ = ids;
    }

    #[test]
    fn betweenness_on_complete_graph_is_zero() {
        let t = Topology::full_mesh(5, c(), d());
        let b = betweenness(&t);
        assert!(b.iter().all(|&x| x.abs() < 1e-9), "{b:?}");
    }

    #[test]
    fn empty_graph_stats() {
        let t = Topology::new("empty");
        let s = graph_stats(&t);
        assert_eq!(s.nodes, 0);
        assert_eq!(s.mean_degree, 0.0);
        assert_eq!(s.min_degree, 0);
        assert!(degree_histogram(&t).len() == 1);
    }
}
