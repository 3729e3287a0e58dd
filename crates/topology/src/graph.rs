//! The network graph model.
//!
//! A [`Topology`] is a set of named nodes joined by **undirected** links,
//! each annotated with a capacity ([`Rate`]) and a propagation delay. The
//! simulators treat an undirected link as a pair of independent directed
//! channels of the same capacity — the convention the paper follows (its
//! Fig. 3 capacities are per-direction).
//!
//! Node and link identifiers are dense indices, so algorithm state can live
//! in flat `Vec`s and iteration order is deterministic by construction.

use std::collections::HashMap;
use std::fmt;

use inrpp_sim::time::SimDuration;
use inrpp_sim::units::Rate;

/// Dense node identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Dense link identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

impl NodeId {
    /// The index as `usize`, for flat-vector state.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl LinkId {
    /// The index as `usize`, for flat-vector state.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// A node and its metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// Human-readable label (unique within a topology).
    pub name: String,
    /// Structural tier, used by generators to assign capacities.
    pub tier: Tier,
}

/// Structural role of a node in an ISP-like topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Tier {
    /// Backbone / core router.
    Core,
    /// Aggregation / metro router.
    #[default]
    Aggregation,
    /// Edge / stub attachment.
    Edge,
}

/// An undirected link with per-direction capacity and propagation delay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// One endpoint (the lower `NodeId` after normalisation).
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Per-direction capacity.
    pub capacity: Rate,
    /// One-way propagation delay.
    pub delay: SimDuration,
}

impl Link {
    /// The endpoint opposite to `n`.
    ///
    /// # Panics
    /// Panics if `n` is not an endpoint of this link.
    #[inline]
    pub fn other(&self, n: NodeId) -> NodeId {
        if n == self.a {
            self.b
        } else if n == self.b {
            self.a
        } else {
            panic!("node {n} is not an endpoint of link {}-{}", self.a, self.b)
        }
    }

    /// True if `n` is one of the endpoints.
    #[inline]
    pub fn touches(&self, n: NodeId) -> bool {
        n == self.a || n == self.b
    }
}

/// Errors from topology construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A link referenced a node id that does not exist.
    UnknownNode(NodeId),
    /// Self-loops are not allowed.
    SelfLoop(NodeId),
    /// The node pair is already linked.
    DuplicateLink(NodeId, NodeId),
    /// A node name was used twice.
    DuplicateName(String),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::UnknownNode(n) => write!(f, "unknown node {n}"),
            TopologyError::SelfLoop(n) => write!(f, "self-loop at node {n}"),
            TopologyError::DuplicateLink(a, b) => write!(f, "duplicate link {a}-{b}"),
            TopologyError::DuplicateName(s) => write!(f, "duplicate node name {s:?}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// An undirected, link-annotated network graph.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    name: String,
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// adjacency: per node, `(neighbour, link)` sorted by neighbour id.
    adj: Vec<Vec<(NodeId, LinkId)>>,
    by_name: HashMap<String, NodeId>,
    by_pair: HashMap<(NodeId, NodeId), LinkId>,
}

impl Topology {
    /// An empty topology with the given display name.
    pub fn new(name: impl Into<String>) -> Self {
        Topology {
            name: name.into(),
            ..Default::default()
        }
    }

    /// The topology's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Add a node with an auto-generated name (`n<idx>`).
    pub fn add_node(&mut self) -> NodeId {
        let name = format!("n{}", self.nodes.len());
        self.add_named_node(name, Tier::default())
            .expect("auto-generated names cannot collide")
    }

    /// Add a node with an explicit name and tier.
    pub fn add_named_node(
        &mut self,
        name: impl Into<String>,
        tier: Tier,
    ) -> Result<NodeId, TopologyError> {
        let name = name.into();
        if self.by_name.contains_key(&name) {
            return Err(TopologyError::DuplicateName(name));
        }
        let id = NodeId(self.nodes.len() as u32);
        self.by_name.insert(name.clone(), id);
        self.nodes.push(Node { name, tier });
        self.adj.push(Vec::new());
        Ok(id)
    }

    /// Add `n` anonymous nodes, returning their ids.
    pub fn add_nodes(&mut self, n: usize) -> Vec<NodeId> {
        (0..n).map(|_| self.add_node()).collect()
    }

    /// Add an undirected link between `a` and `b`.
    pub fn add_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        capacity: Rate,
        delay: SimDuration,
    ) -> Result<LinkId, TopologyError> {
        if a.idx() >= self.nodes.len() {
            return Err(TopologyError::UnknownNode(a));
        }
        if b.idx() >= self.nodes.len() {
            return Err(TopologyError::UnknownNode(b));
        }
        if a == b {
            return Err(TopologyError::SelfLoop(a));
        }
        let key = Self::pair_key(a, b);
        if self.by_pair.contains_key(&key) {
            return Err(TopologyError::DuplicateLink(key.0, key.1));
        }
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            a: key.0,
            b: key.1,
            capacity,
            delay,
        });
        self.by_pair.insert(key, id);
        // keep adjacency sorted by neighbour id for deterministic iteration
        let ins_a = self.adj[a.idx()].partition_point(|&(n, _)| n < b);
        self.adj[a.idx()].insert(ins_a, (b, id));
        let ins_b = self.adj[b.idx()].partition_point(|&(n, _)| n < a);
        self.adj[b.idx()].insert(ins_b, (a, id));
        Ok(id)
    }

    #[inline]
    fn pair_key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of undirected links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// All node ids in index order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// All link ids in index order.
    pub fn link_ids(&self) -> impl Iterator<Item = LinkId> + '_ {
        (0..self.links.len() as u32).map(LinkId)
    }

    /// Node metadata.
    ///
    /// # Panics
    /// Panics on an out-of-range id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.idx()]
    }

    /// Link metadata.
    ///
    /// # Panics
    /// Panics on an out-of-range id.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.idx()]
    }

    /// Look up a node by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// The link joining `a` and `b`, if any (order-insensitive).
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.by_pair.get(&Self::pair_key(a, b)).copied()
    }

    /// Neighbours of `n` as `(neighbour, link)` pairs, ascending by id.
    pub fn neighbors(&self, n: NodeId) -> &[(NodeId, LinkId)] {
        &self.adj[n.idx()]
    }

    /// Degree of `n`.
    pub fn degree(&self, n: NodeId) -> usize {
        self.adj[n.idx()].len()
    }

    /// Replace the capacity of a link (used by what-if experiments).
    pub fn set_capacity(&mut self, id: LinkId, capacity: Rate) {
        self.links[id.idx()].capacity = capacity;
    }

    /// True when every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &(v, _) in self.neighbors(u) {
                if !seen[v.idx()] {
                    seen[v.idx()] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == self.nodes.len()
    }

    /// A copy with several links removed (duplicates tolerated).
    pub fn without_links(&self, failed: &[LinkId]) -> Topology {
        let dead: std::collections::HashSet<usize> = failed.iter().map(|l| l.idx()).collect();
        let mut t = Topology::new(format!("{}-minus-{}", self.name, dead.len()));
        for n in &self.nodes {
            t.add_named_node(n.name.clone(), n.tier)
                .expect("names were unique in the source topology");
        }
        for (i, l) in self.links.iter().enumerate() {
            if dead.contains(&i) {
                continue;
            }
            t.add_link(l.a, l.b, l.capacity, l.delay)
                .expect("links were unique in the source topology");
        }
        t
    }

    // ---- canned shapes -----------------------------------------------

    /// A line `0 - 1 - ... - (n-1)` with uniform link parameters.
    pub fn line(n: usize, capacity: Rate, delay: SimDuration) -> Topology {
        assert!(n >= 2, "line needs at least two nodes");
        let mut t = Topology::new(format!("line{n}"));
        let ids = t.add_nodes(n);
        for w in ids.windows(2) {
            t.add_link(w[0], w[1], capacity, delay)
                .expect("line links are unique");
        }
        t
    }

    /// A ring of `n >= 3` nodes.
    pub fn ring(n: usize, capacity: Rate, delay: SimDuration) -> Topology {
        assert!(n >= 3, "ring needs at least three nodes");
        let mut t = Topology::new(format!("ring{n}"));
        let ids = t.add_nodes(n);
        for i in 0..n {
            t.add_link(ids[i], ids[(i + 1) % n], capacity, delay)
                .expect("ring links are unique");
        }
        t
    }

    /// A star: hub node 0 with `n - 1` spokes.
    pub fn star(n: usize, capacity: Rate, delay: SimDuration) -> Topology {
        assert!(n >= 2, "star needs at least two nodes");
        let mut t = Topology::new(format!("star{n}"));
        let ids = t.add_nodes(n);
        for &leaf in &ids[1..] {
            t.add_link(ids[0], leaf, capacity, delay)
                .expect("star links are unique");
        }
        t
    }

    /// A complete graph on `n` nodes.
    pub fn full_mesh(n: usize, capacity: Rate, delay: SimDuration) -> Topology {
        assert!(n >= 2, "mesh needs at least two nodes");
        let mut t = Topology::new(format!("mesh{n}"));
        let ids = t.add_nodes(n);
        for i in 0..n {
            for j in (i + 1)..n {
                t.add_link(ids[i], ids[j], capacity, delay)
                    .expect("mesh links are unique");
            }
        }
        t
    }

    /// The classic dumbbell: `pairs` senders and receivers joined by a
    /// two-router bottleneck of capacity `bottleneck`; access links get
    /// `access` capacity.
    ///
    /// Node layout: senders `0..pairs`, left router `pairs`, right router
    /// `pairs+1`, receivers `pairs+2..`.
    pub fn dumbbell(pairs: usize, access: Rate, bottleneck: Rate, delay: SimDuration) -> Topology {
        assert!(
            pairs >= 1,
            "dumbbell needs at least one sender/receiver pair"
        );
        let mut t = Topology::new(format!("dumbbell{pairs}"));
        let senders = t.add_nodes(pairs);
        let left = t.add_node();
        let right = t.add_node();
        let receivers = t.add_nodes(pairs);
        for &s in &senders {
            t.add_link(s, left, access, delay).expect("unique");
        }
        t.add_link(left, right, bottleneck, delay).expect("unique");
        for &r in &receivers {
            t.add_link(right, r, access, delay).expect("unique");
        }
        t
    }

    /// The paper's Fig. 3 example network.
    ///
    /// ```text
    ///        10 Mbps      2 Mbps
    ///   (1) --------- (2) ------ (4)
    ///                  |          |
    ///           8 Mbps |          | 3 Mbps
    ///                  +--- (3) --+
    /// ```
    ///
    /// Node names are `"1"`..`"4"` to match the figure. Two flows enter at
    /// node 1: one terminates at node 4 (crossing the 2 Mbps bottleneck,
    /// detourable via 3), one at node 3.
    pub fn fig3() -> Topology {
        let d = SimDuration::from_millis(5);
        let mut t = Topology::new("fig3");
        let n1 = t.add_named_node("1", Tier::Edge).expect("unique");
        let n2 = t.add_named_node("2", Tier::Core).expect("unique");
        let n3 = t.add_named_node("3", Tier::Core).expect("unique");
        let n4 = t.add_named_node("4", Tier::Edge).expect("unique");
        t.add_link(n1, n2, Rate::mbps(10.0), d).expect("unique");
        t.add_link(n2, n4, Rate::mbps(2.0), d).expect("unique");
        t.add_link(n2, n3, Rate::mbps(8.0), d).expect("unique");
        t.add_link(n3, n4, Rate::mbps(3.0), d).expect("unique");
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn caps() -> (Rate, SimDuration) {
        (Rate::mbps(10.0), SimDuration::from_millis(1))
    }

    #[test]
    fn build_and_query() {
        let (c, d) = caps();
        let mut t = Topology::new("t");
        let a = t.add_node();
        let b = t.add_node();
        let l = t.add_link(a, b, c, d).unwrap();
        assert_eq!(t.node_count(), 2);
        assert_eq!(t.link_count(), 1);
        assert_eq!(t.link_between(a, b), Some(l));
        assert_eq!(t.link_between(b, a), Some(l));
        assert_eq!(t.link(l).other(a), b);
        assert_eq!(t.link(l).other(b), a);
        assert!(t.link(l).touches(a));
        assert_eq!(t.neighbors(a), &[(b, l)]);
        assert_eq!(t.degree(b), 1);
        assert_eq!(t.node(a).name, "n0");
        assert_eq!(t.node_by_name("n1"), Some(b));
        assert_eq!(t.node_by_name("zz"), None);
    }

    #[test]
    fn construction_errors() {
        let (c, d) = caps();
        let mut t = Topology::new("t");
        let a = t.add_node();
        let b = t.add_node();
        assert_eq!(t.add_link(a, a, c, d), Err(TopologyError::SelfLoop(a)));
        t.add_link(a, b, c, d).unwrap();
        assert_eq!(
            t.add_link(b, a, c, d),
            Err(TopologyError::DuplicateLink(a, b))
        );
        assert_eq!(
            t.add_link(a, NodeId(9), c, d),
            Err(TopologyError::UnknownNode(NodeId(9)))
        );
        assert_eq!(
            t.add_named_node("n0", Tier::Core),
            Err(TopologyError::DuplicateName("n0".into()))
        );
        assert!(TopologyError::SelfLoop(a).to_string().contains("self-loop"));
    }

    #[test]
    fn adjacency_is_sorted() {
        let (c, d) = caps();
        let mut t = Topology::new("t");
        let ids = t.add_nodes(5);
        // insert out of order on purpose
        t.add_link(ids[0], ids[4], c, d).unwrap();
        t.add_link(ids[0], ids[1], c, d).unwrap();
        t.add_link(ids[0], ids[3], c, d).unwrap();
        let ns: Vec<u32> = t.neighbors(ids[0]).iter().map(|&(n, _)| n.0).collect();
        assert_eq!(ns, vec![1, 3, 4]);
    }

    #[test]
    fn line_ring_star_mesh_shapes() {
        let (c, d) = caps();
        let line = Topology::line(4, c, d);
        assert_eq!(line.link_count(), 3);
        assert!(line.is_connected());

        let ring = Topology::ring(5, c, d);
        assert_eq!(ring.link_count(), 5);
        assert!(ring.node_ids().all(|n| ring.degree(n) == 2));

        let star = Topology::star(6, c, d);
        assert_eq!(star.link_count(), 5);
        assert_eq!(star.degree(NodeId(0)), 5);

        let mesh = Topology::full_mesh(5, c, d);
        assert_eq!(mesh.link_count(), 10);
        assert!(mesh.node_ids().all(|n| mesh.degree(n) == 4));
    }

    #[test]
    fn dumbbell_layout() {
        let t = Topology::dumbbell(
            3,
            Rate::mbps(10.0),
            Rate::mbps(5.0),
            SimDuration::from_millis(1),
        );
        assert_eq!(t.node_count(), 3 + 2 + 3);
        assert_eq!(t.link_count(), 3 + 1 + 3);
        let left = NodeId(3);
        let right = NodeId(4);
        let l = t.link_between(left, right).unwrap();
        assert_eq!(t.link(l).capacity, Rate::mbps(5.0));
        assert!(t.is_connected());
    }

    #[test]
    fn fig3_matches_paper() {
        let t = Topology::fig3();
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.link_count(), 4);
        let n = |s: &str| t.node_by_name(s).unwrap();
        let cap = |a, b| t.link(t.link_between(a, b).unwrap()).capacity;
        assert_eq!(cap(n("1"), n("2")), Rate::mbps(10.0));
        assert_eq!(cap(n("2"), n("4")), Rate::mbps(2.0));
        assert_eq!(cap(n("2"), n("3")), Rate::mbps(8.0));
        assert_eq!(cap(n("3"), n("4")), Rate::mbps(3.0));
        assert!(t.link_between(n("1"), n("4")).is_none());
        assert!(t.is_connected());
    }

    #[test]
    fn connectivity_detects_partitions() {
        let (c, d) = caps();
        let mut t = Topology::new("t");
        let ids = t.add_nodes(4);
        t.add_link(ids[0], ids[1], c, d).unwrap();
        t.add_link(ids[2], ids[3], c, d).unwrap();
        assert!(!t.is_connected());
        t.add_link(ids[1], ids[2], c, d).unwrap();
        assert!(t.is_connected());
        assert!(Topology::new("empty").is_connected());
    }

    #[test]
    fn without_link_removes_exactly_one() {
        let t = Topology::fig3();
        let n = |s: &str| t.node_by_name(s).unwrap();
        let bottleneck = t.link_between(n("2"), n("4")).unwrap();
        let cut = t.without_links(&[bottleneck]);
        assert_eq!(cut.node_count(), 4);
        assert_eq!(cut.link_count(), 3);
        let n2 = cut.node_by_name("2").unwrap();
        let n4 = cut.node_by_name("4").unwrap();
        assert!(cut.link_between(n2, n4).is_none());
        assert!(
            cut.is_connected(),
            "fig3 minus the bottleneck stays connected"
        );
        // original untouched
        assert_eq!(t.link_count(), 4);
    }

    #[test]
    fn without_links_removes_a_set() {
        let t = Topology::full_mesh(4, Rate::mbps(1.0), SimDuration::from_millis(1));
        let cut = t.without_links(&[LinkId(0), LinkId(1), LinkId(0)]);
        assert_eq!(cut.link_count(), 4);
        assert_eq!(cut.node_count(), 4);
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn link_other_panics_for_stranger() {
        let t = Topology::fig3();
        let l = t.link(LinkId(0));
        let _ = l.other(NodeId(3));
    }
}
