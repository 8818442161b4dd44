//! The unified overlay construction surface shared by every driver.
//!
//! [`OverlayBuilder`] collects the graph: brokers and edges, started
//! empty, from a preset shape or from a [`Topology`], and extended
//! with [`OverlayBuilder::edge`] either way. Each driver's `builder()`
//! entry point accepts it through `impl Into<OverlayBuilder>`, so a
//! plain [`Topology`] works everywhere a builder does:
//!
//! ```
//! use transmob_broker::{BrokerConfig, OverlayBuilder, SyncNet, Topology};
//!
//! // Preset shape:
//! let net = SyncNet::builder()
//!     .overlay(OverlayBuilder::ring(5))
//!     .options(BrokerConfig::covering())
//!     .start();
//! assert!(!net.topology().is_tree());
//!
//! // A pre-built Topology converts implicitly:
//! let net = SyncNet::builder().overlay(Topology::chain(3)).start();
//! assert!(net.topology().is_tree());
//! ```

use transmob_pubsub::BrokerId;

use crate::topology::{Topology, TopologyError};

/// Builder for a broker overlay: graph edges, optionally on top of a
/// preset shape or an existing [`Topology`].
///
/// The node set is inferred from the edge endpoints; use
/// [`OverlayBuilder::broker`] for nodes that would otherwise be
/// isolated (which [`Topology::from_edges`] then rejects as
/// disconnected — the builder never constructs an invalid overlay
/// silently).
#[derive(Debug, Clone, Default)]
pub struct OverlayBuilder {
    brokers: Vec<BrokerId>,
    edges: Vec<(BrokerId, BrokerId)>,
}

impl OverlayBuilder {
    /// An empty builder; add edges with [`OverlayBuilder::edge`].
    pub fn new() -> Self {
        OverlayBuilder::default()
    }

    /// A linear chain `B1 - B2 - ... - Bn` (ids 1..=n).
    pub fn chain(n: u32) -> Self {
        Topology::chain(n).into()
    }

    /// A star with `B1` at the centre and `B2..=Bn` as leaves.
    pub fn star(n: u32) -> Self {
        Topology::star(n).into()
    }

    /// A ring `B1 - ... - Bn - B1` (`n >= 3`): the smallest cyclic
    /// overlay. Drivers built over it switch to multi-path forwarding
    /// automatically.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3`.
    pub fn ring(n: u32) -> Self {
        Topology::ring(n).into()
    }

    /// Adds the undirected edge `a - b`; both endpoints join the node
    /// set.
    pub fn edge(mut self, a: BrokerId, b: BrokerId) -> Self {
        self.edges.push((a, b));
        self
    }

    /// Adds many undirected edges at once.
    pub fn edges(mut self, edges: impl IntoIterator<Item = (BrokerId, BrokerId)>) -> Self {
        self.edges.extend(edges);
        self
    }

    /// Declares a broker id explicitly (only needed when it appears in
    /// no edge).
    pub fn broker(mut self, b: BrokerId) -> Self {
        self.brokers.push(b);
        self
    }

    /// Validates and builds the [`Topology`].
    ///
    /// # Errors
    ///
    /// Anything [`Topology::from_edges`] rejects: unknown endpoints
    /// (impossible here — endpoints imply nodes), duplicate edges or
    /// self-loops, an empty or disconnected graph.
    pub fn build(self) -> Result<Topology, TopologyError> {
        let mut brokers = self.brokers;
        for (a, b) in &self.edges {
            brokers.push(*a);
            brokers.push(*b);
        }
        Topology::from_edges(brokers, self.edges)
    }
}

impl From<Topology> for OverlayBuilder {
    fn from(t: Topology) -> Self {
        OverlayBuilder {
            brokers: t.brokers().collect(),
            edges: t.edges(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(n: u32) -> BrokerId {
        BrokerId(n)
    }

    #[test]
    fn edges_imply_nodes() {
        let t = OverlayBuilder::new()
            .edge(b(1), b(2))
            .edge(b(2), b(3))
            .build()
            .unwrap();
        assert_eq!(t.brokers().count(), 3);
        assert!(t.is_tree());
    }

    #[test]
    fn cycle_is_allowed() {
        let t = OverlayBuilder::new()
            .edges([(b(1), b(2)), (b(2), b(3)), (b(3), b(1))])
            .build()
            .unwrap();
        assert!(!t.is_tree());
    }

    #[test]
    fn isolated_broker_is_rejected() {
        let err = OverlayBuilder::new()
            .edge(b(1), b(2))
            .broker(b(9))
            .build()
            .unwrap_err();
        assert_eq!(err, TopologyError::Disconnected);
    }

    #[test]
    fn topology_passes_through_untouched() {
        for t in [Topology::ring(4), Topology::chain(1), Topology::star(5)] {
            assert_eq!(OverlayBuilder::from(t.clone()).build().unwrap(), t);
        }
    }

    #[test]
    fn preset_keeps_edges_added_after_it() {
        let t = OverlayBuilder::ring(4).edge(b(1), b(3)).build().unwrap();
        assert_eq!(t.edge_count(), 5);
        assert!(t.neighbors(b(1)).contains(&b(3)));

        let t = OverlayBuilder::from(Topology::chain(3))
            .edge(b(3), b(4))
            .build()
            .unwrap();
        assert_eq!(t, Topology::chain(4));
    }
}
