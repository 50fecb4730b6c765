//! Who may send to whom.
//!
//! Protocol messages travel only along topology edges; the faithful FPSS
//! extension additionally gives every node a direct (overlay) link to the
//! bank, the paper's trusted party. [`Connectivity`] captures the
//! permitted directed links, and the simulator refuses sends outside them,
//! so a protocol bug cannot silently teleport messages.

use specfaith_core::id::NodeId;
use specfaith_graph::topology::Topology;

/// The set of permitted communication links.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Connectivity {
    n: usize,
    allowed: Vec<Vec<bool>>,
}

impl Connectivity {
    /// No links at all between `n` nodes.
    pub fn disconnected(n: usize) -> Self {
        Connectivity {
            n,
            allowed: vec![vec![false; n]; n],
        }
    }

    /// Every ordered pair may communicate.
    pub fn fully_connected(n: usize) -> Self {
        let mut c = Connectivity::disconnected(n);
        for i in 0..n {
            for j in 0..n {
                c.allowed[i][j] = i != j;
            }
        }
        c
    }

    /// Links along the undirected edges of a topology.
    pub fn from_topology(topo: &Topology) -> Self {
        let mut c = Connectivity::disconnected(topo.num_nodes());
        for &(a, b) in topo.edges() {
            c.add_link(a, b);
        }
        c
    }

    /// Like [`Connectivity::from_topology`], but with `extra` additional
    /// nodes appended (ids `n..n+extra`), each bidirectionally linked to
    /// every topology node — the bank-overlay construction.
    pub fn from_topology_with_overlay(topo: &Topology, extra: usize) -> Self {
        let n = topo.num_nodes();
        let mut c = Connectivity::disconnected(n + extra);
        for &(a, b) in topo.edges() {
            c.add_link(a, b);
        }
        for o in n..n + extra {
            for v in 0..n {
                c.add_link(NodeId::from_index(o), NodeId::from_index(v));
            }
        }
        c
    }

    /// Number of nodes (including overlay nodes).
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Adds a bidirectional link.
    ///
    /// # Panics
    ///
    /// Panics on self-links or out-of-range ids.
    pub fn add_link(&mut self, a: NodeId, b: NodeId) {
        assert_ne!(a, b, "self-links are not allowed");
        self.allowed[a.index()][b.index()] = true;
        self.allowed[b.index()][a.index()] = true;
    }

    /// Whether `from` may send to `to`.
    pub fn can_send(&self, from: NodeId, to: NodeId) -> bool {
        self.allowed[from.index()][to.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn fully_connected_excludes_self() {
        let c = Connectivity::fully_connected(3);
        assert!(c.can_send(n(0), n(2)));
        assert!(!c.can_send(n(1), n(1)));
    }

    #[test]
    fn from_topology_matches_edges() {
        let topo = Topology::builder(3).edge(0, 1).build();
        let c = Connectivity::from_topology(&topo);
        assert!(c.can_send(n(0), n(1)) && c.can_send(n(1), n(0)));
        assert!(!c.can_send(n(0), n(2)));
    }

    #[test]
    fn overlay_links_every_node_to_extras() {
        let topo = Topology::builder(3).edge(0, 1).edge(1, 2).build();
        let c = Connectivity::from_topology_with_overlay(&topo, 1);
        assert_eq!(c.num_nodes(), 4);
        for v in 0..3 {
            assert!(c.can_send(n(3), n(v)) && c.can_send(n(v), n(3)));
        }
        // Topology links unchanged; 0-2 still not adjacent.
        assert!(!c.can_send(n(0), n(2)));
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn rejects_self_link() {
        let mut c = Connectivity::disconnected(2);
        c.add_link(n(1), n(1));
    }
}
