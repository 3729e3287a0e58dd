//! Topology partitioning for sharded simulation.
//!
//! A [`Partition`] assigns every node to exactly one *region*; links whose
//! endpoints fall in different regions are *cut links*, and their
//! propagation delays bound the conservative lookahead a sharded driver
//! may use (see ARCHITECTURE.md §"Sharded execution"). Partitioners are
//! pluggable through the [`Partitioner`] trait; two deterministic
//! strategies ship here:
//!
//! * [`ContiguousPartitioner`] — balanced contiguous node-index ranges,
//!   the cheapest possible split (and the identity layout for tests);
//! * [`BfsPartitioner`] — seed-chosen sources grown breadth-first in
//!   round-robin frontier order, which keeps regions topologically
//!   clustered so cut sets stay small.
//!
//! Both are pure functions of `(topology, regions, seed)`: the same inputs
//! always give the same partition, a property the shard-equivalence test
//! layer depends on.

use crate::graph::{LinkId, NodeId, Topology};
use inrpp_sim::rng::SimRng;
use std::collections::VecDeque;

/// A pluggable region-assignment strategy.
pub trait Partitioner {
    /// Split `topo` into at most `regions` regions. Implementations must
    /// be deterministic in their inputs and must clamp the request to
    /// `[1, node_count]`; a topology without nodes gets one empty region.
    fn partition(&self, topo: &Topology, regions: usize) -> Partition;
}

/// One directed side of a cut link: the channel `from -> to` crosses from
/// `from_region` into `to_region`. Cut channels are enumerated
/// symmetrically — every cut link contributes both directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CutChannel {
    /// The undirected link this channel belongs to.
    pub link: LinkId,
    /// Source endpoint of the directed channel.
    pub from: NodeId,
    /// Destination endpoint of the directed channel.
    pub to: NodeId,
    /// Region owning `from`.
    pub from_region: usize,
    /// Region owning `to`.
    pub to_region: usize,
}

/// A complete node → region assignment over one topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    regions: usize,
    region_of: Vec<u32>,
}

impl Partition {
    /// Build from an explicit per-node assignment (indexed by
    /// `NodeId::idx`). Region ids must be dense: every value in
    /// `0..regions` where `regions = max + 1`. Used by tests that draw
    /// arbitrary partitions.
    ///
    /// # Panics
    /// Panics if `region_of` is empty or the region ids are not dense.
    pub fn from_assignment(region_of: Vec<u32>) -> Self {
        assert!(!region_of.is_empty(), "partition over an empty topology");
        let regions = *region_of.iter().max().expect("non-empty") as usize + 1;
        let mut seen = vec![false; regions];
        for &r in &region_of {
            seen[r as usize] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "region ids must be dense in 0..regions"
        );
        Partition { regions, region_of }
    }

    /// Number of regions (≥ 1).
    pub fn regions(&self) -> usize {
        self.regions
    }

    /// Region owning `node`.
    pub fn region_of(&self, node: NodeId) -> usize {
        self.region_of[node.idx()] as usize
    }

    /// Per-node assignment, indexed by `NodeId::idx`.
    pub fn assignment(&self) -> &[u32] {
        &self.region_of
    }

    /// Nodes owned by region `r`, ascending by node index.
    pub fn nodes_in(&self, r: usize) -> Vec<NodeId> {
        self.region_of
            .iter()
            .enumerate()
            .filter(|&(_, &reg)| reg as usize == r)
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// Every directed channel crossing a region boundary, sorted by
    /// `(link, from)`. Symmetric by construction: each cut link appears
    /// once per direction.
    pub fn cut_channels(&self, topo: &Topology) -> Vec<CutChannel> {
        let mut cuts = Vec::new();
        for l in topo.link_ids() {
            let link = topo.link(l);
            let ra = self.region_of(link.a);
            let rb = self.region_of(link.b);
            if ra != rb {
                cuts.push(CutChannel {
                    link: l,
                    from: link.a,
                    to: link.b,
                    from_region: ra,
                    to_region: rb,
                });
                cuts.push(CutChannel {
                    link: l,
                    from: link.b,
                    to: link.a,
                    from_region: rb,
                    to_region: ra,
                });
            }
        }
        cuts
    }
}

fn clamp_regions(topo: &Topology, regions: usize) -> usize {
    regions.clamp(1, topo.node_count().max(1))
}

/// Balanced contiguous node-index ranges: node `i` of `n` goes to region
/// `i * regions / n`. The single-region partition is the identity layout.
#[derive(Debug, Clone, Copy, Default)]
pub struct ContiguousPartitioner;

impl Partitioner for ContiguousPartitioner {
    fn partition(&self, topo: &Topology, regions: usize) -> Partition {
        let n = topo.node_count();
        let k = clamp_regions(topo, regions);
        let region_of = (0..n).map(|i| (i * k / n) as u32).collect();
        Partition {
            regions: k,
            region_of,
        }
    }
}

/// Multi-source breadth-first growth from `seed`-chosen start nodes.
///
/// The seed picks `regions` distinct source nodes; regions then claim
/// unvisited neighbours in round-robin frontier order, so each region is
/// a connected patch whenever the graph allows it. Unreachable leftovers
/// (disconnected components) fall back to a balanced index assignment so
/// every node still lands in exactly one region.
#[derive(Debug, Clone, Copy)]
pub struct BfsPartitioner {
    /// Determines the source-node choice; fixed seed ⇒ fixed partition.
    pub seed: u64,
}

impl Partitioner for BfsPartitioner {
    fn partition(&self, topo: &Topology, regions: usize) -> Partition {
        let n = topo.node_count();
        let k = clamp_regions(topo, regions);
        let mut rng = SimRng::from_seed_u64(self.seed).derive(0x05EE_DBF5);
        // k distinct sources, drawn without replacement
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        let mut region_of: Vec<u32> = vec![u32::MAX; n];
        let mut frontiers: Vec<VecDeque<NodeId>> = (0..k).map(|_| VecDeque::new()).collect();
        for (r, &src) in order.iter().take(k).enumerate() {
            region_of[src] = r as u32;
            frontiers[r].push_back(NodeId(src as u32));
        }
        // k sources were placed, or none on an empty topology
        let mut remaining = n.saturating_sub(k);
        while remaining > 0 {
            let mut progressed = false;
            for (r, frontier) in frontiers.iter_mut().enumerate() {
                let Some(node) = frontier.pop_front() else {
                    continue;
                };
                progressed = true;
                for &(nb, _) in topo.neighbors(node) {
                    if region_of[nb.idx()] == u32::MAX {
                        region_of[nb.idx()] = r as u32;
                        frontier.push_back(nb);
                        remaining -= 1;
                    }
                }
                // one claim sweep per region per round keeps the rotation
                // fair; re-queue the node only while it can still claim
                if topo
                    .neighbors(node)
                    .iter()
                    .any(|&(nb, _)| region_of[nb.idx()] == u32::MAX)
                {
                    frontier.push_back(node);
                }
            }
            if !progressed {
                // disconnected leftovers: balanced index fallback
                for (i, slot) in region_of.iter_mut().enumerate() {
                    if *slot == u32::MAX {
                        *slot = (i * k / n) as u32;
                        remaining -= 1;
                    }
                }
            }
        }
        Partition {
            regions: k,
            region_of,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_covers_every_node_once() {
        let topo = Topology::fig3();
        for k in 1..=topo.node_count() + 2 {
            let p = ContiguousPartitioner.partition(&topo, k);
            assert!(p.regions() >= 1 && p.regions() <= topo.node_count());
            let mut total = 0;
            for r in 0..p.regions() {
                total += p.nodes_in(r).len();
                assert!(!p.nodes_in(r).is_empty(), "region {r} empty");
            }
            assert_eq!(total, topo.node_count());
        }
    }

    #[test]
    fn empty_topology_is_one_empty_region() {
        let topo = Topology::new("empty");
        let bfs = BfsPartitioner { seed: 3 };
        for p in [&ContiguousPartitioner as &dyn Partitioner, &bfs] {
            for k in [0, 1, 2, 8] {
                let part = p.partition(&topo, k);
                assert_eq!(part.regions(), 1);
                assert!(part.assignment().is_empty());
                assert!(part.nodes_in(0).is_empty());
                assert!(part.cut_channels(&topo).is_empty());
            }
        }
    }

    #[test]
    fn bfs_is_deterministic_and_total() {
        let topo = Topology::dumbbell(
            4,
            inrpp_sim::units::Rate::mbps(10.0),
            inrpp_sim::units::Rate::mbps(4.0),
            inrpp_sim::time::SimDuration::from_millis(2),
        );
        let a = BfsPartitioner { seed: 7 }.partition(&topo, 3);
        let b = BfsPartitioner { seed: 7 }.partition(&topo, 3);
        assert_eq!(a, b);
        assert!(a.assignment().iter().all(|&r| (r as usize) < a.regions()));
    }

    #[test]
    fn cut_channels_come_in_symmetric_pairs() {
        let topo = Topology::fig3();
        let p = BfsPartitioner { seed: 1 }.partition(&topo, 2);
        let cuts = p.cut_channels(&topo);
        for c in &cuts {
            assert!(cuts.iter().any(|o| o.link == c.link
                && o.from == c.to
                && o.to == c.from
                && o.from_region == c.to_region
                && o.to_region == c.from_region));
        }
    }

    #[test]
    fn single_region_has_no_cuts() {
        let topo = Topology::fig3();
        let p = ContiguousPartitioner.partition(&topo, 1);
        assert_eq!(p.regions(), 1);
        assert!(p.cut_channels(&topo).is_empty());
    }
}
