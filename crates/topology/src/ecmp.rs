//! Equal-Cost Multi-Path support.
//!
//! The ECMP baseline of Fig. 4a routes each flow over one of the *hop-count*
//! shortest paths, selected by a deterministic hash of the flow identifier
//! (RFC 2992-style). This module enumerates the full equal-cost path set —
//! bounded, because dense cores can have combinatorially many — and provides
//! the hash selector.

use std::collections::VecDeque;

use crate::graph::{NodeId, Topology};
use crate::spath::Path;
use inrpp_sim::rng::splitmix64;

/// Hop distances from every node to `src` (BFS).
fn bfs_dist(topo: &Topology, src: NodeId) -> Vec<Option<u32>> {
    let mut dist = vec![None; topo.node_count()];
    dist[src.idx()] = Some(0);
    let mut q = VecDeque::from([src]);
    while let Some(u) = q.pop_front() {
        let du = dist[u.idx()].expect("queued nodes have distances");
        for &(v, _) in topo.neighbors(u) {
            if dist[v.idx()].is_none() {
                dist[v.idx()] = Some(du + 1);
                q.push_back(v);
            }
        }
    }
    dist
}

/// All hop-count-shortest paths from `src` to `dst`, in deterministic
/// (lexicographic by node id) order, truncated to `max` paths.
///
/// Returns an empty vector when `dst` is unreachable. `src == dst` yields
/// the single zero-hop path.
pub fn all_shortest_paths(topo: &Topology, src: NodeId, dst: NodeId, max: usize) -> Vec<Path> {
    if max == 0 {
        return Vec::new();
    }
    if src == dst {
        return vec![Path::new(vec![src])];
    }
    let dist = bfs_dist(topo, src);
    let rdist = bfs_dist(topo, dst);
    let Some(total) = dist[dst.idx()] else {
        return Vec::new();
    };
    // DFS over the shortest-path DAG: edge u->v is on a shortest path iff
    // dist[u] + 1 + rdist[v] == total.
    let mut out = Vec::new();
    let mut stack = vec![src];
    dfs(topo, dst, total, &dist, &rdist, &mut stack, &mut out, max);
    out
}

#[allow(clippy::too_many_arguments)]
fn dfs(
    topo: &Topology,
    dst: NodeId,
    total: u32,
    dist: &[Option<u32>],
    rdist: &[Option<u32>],
    stack: &mut Vec<NodeId>,
    out: &mut Vec<Path>,
    max: usize,
) {
    if out.len() >= max {
        return;
    }
    let u = *stack.last().expect("stack starts non-empty");
    if u == dst {
        out.push(Path::new(stack.clone()));
        return;
    }
    let du = dist[u.idx()].expect("DAG nodes are reachable");
    for &(v, _) in topo.neighbors(u) {
        let Some(rv) = rdist[v.idx()] else { continue };
        if du + 1 + rv == total {
            stack.push(v);
            dfs(topo, dst, total, dist, rdist, stack, out, max);
            stack.pop();
            if out.len() >= max {
                return;
            }
        }
    }
}

/// Deterministically select a path for `flow_key` — the per-flow hash load
/// balancing of RFC 2992. Stable across runs and machines.
///
/// # Panics
/// Panics on an empty path set.
pub fn hash_select(paths: &[Path], flow_key: u64) -> &Path {
    assert!(!paths.is_empty(), "hash_select needs at least one path");
    let mut s = flow_key ^ 0x9E37_79B9_7F4A_7C15;
    let h = splitmix64(&mut s);
    &paths[(h % paths.len() as u64) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use inrpp_sim::time::SimDuration;
    use inrpp_sim::units::Rate;

    fn diamond() -> Topology {
        // 0 -{1,2}- 3 : two equal 2-hop paths
        let mut t = Topology::new("diamond");
        let ids = t.add_nodes(4);
        let c = Rate::mbps(10.0);
        let d = SimDuration::from_millis(1);
        t.add_link(ids[0], ids[1], c, d).unwrap();
        t.add_link(ids[0], ids[2], c, d).unwrap();
        t.add_link(ids[1], ids[3], c, d).unwrap();
        t.add_link(ids[2], ids[3], c, d).unwrap();
        t
    }

    #[test]
    fn finds_both_diamond_paths_in_order() {
        let t = diamond();
        let paths = all_shortest_paths(&t, NodeId(0), NodeId(3), 16);
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].nodes(), &[NodeId(0), NodeId(1), NodeId(3)]);
        assert_eq!(paths[1].nodes(), &[NodeId(0), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn longer_paths_are_excluded() {
        let t = Topology::fig3();
        let n = |s: &str| t.node_by_name(s).unwrap();
        // 1->4: the 2-hop route is strictly shorter than via node 3.
        let paths = all_shortest_paths(&t, n("1"), n("4"), 16);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].hops(), 2);
    }

    #[test]
    fn max_truncates() {
        let t = diamond();
        let paths = all_shortest_paths(&t, NodeId(0), NodeId(3), 1);
        assert_eq!(paths.len(), 1);
        assert!(all_shortest_paths(&t, NodeId(0), NodeId(3), 0).is_empty());
    }

    #[test]
    fn unreachable_and_self() {
        let mut t = Topology::new("t");
        let ids = t.add_nodes(3);
        t.add_link(ids[0], ids[1], Rate::mbps(1.0), SimDuration::from_millis(1))
            .unwrap();
        assert!(all_shortest_paths(&t, ids[0], ids[2], 8).is_empty());
        let own = all_shortest_paths(&t, ids[0], ids[0], 8);
        assert_eq!(own.len(), 1);
        assert_eq!(own[0].hops(), 0);
    }

    #[test]
    fn mesh_path_count() {
        // In K5, paths between two nodes: 1 direct (the only 1-hop one).
        let t = Topology::full_mesh(5, Rate::mbps(1.0), SimDuration::from_millis(1));
        assert_eq!(all_shortest_paths(&t, NodeId(0), NodeId(4), 64).len(), 1);
        // Remove direct link: now 3 two-hop equal-cost paths.
        let mut t2 = Topology::new("k5minus");
        let ids = t2.add_nodes(5);
        for i in 0..5u32 {
            for j in (i + 1)..5 {
                if (i, j) == (0, 4) {
                    continue;
                }
                t2.add_link(
                    NodeId(i),
                    NodeId(j),
                    Rate::mbps(1.0),
                    SimDuration::from_millis(1),
                )
                .unwrap();
            }
        }
        assert_eq!(all_shortest_paths(&t2, ids[0], ids[4], 64).len(), 3);
    }

    #[test]
    fn hash_select_is_deterministic_and_spreads() {
        let t = diamond();
        let paths = all_shortest_paths(&t, NodeId(0), NodeId(3), 16);
        let a = hash_select(&paths, 42);
        let b = hash_select(&paths, 42);
        assert_eq!(a, b);
        // over many keys both paths are used
        let mut used = [false, false];
        for key in 0..100 {
            let p = hash_select(&paths, key);
            let which = paths.iter().position(|q| q == p).unwrap();
            used[which] = true;
        }
        assert_eq!(used, [true, true]);
    }

    #[test]
    #[should_panic(expected = "at least one path")]
    fn hash_select_empty_panics() {
        let _ = hash_select(&[], 1);
    }
}
