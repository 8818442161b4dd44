//! Broker overlay topology: a validated connected graph.
//!
//! The paper (Sec. 4.1) assumes an acyclic overlay of brokers, which
//! makes the route between any two brokers unique. [`Topology`] has
//! since been generalized to any *connected* graph — the tree is the
//! special case ([`Topology::is_tree`]) in which every route is
//! unique. On a cyclic overlay [`Topology::route`] returns a
//! deterministic shortest path (`RouteS2T` in the paper's notation);
//! the broker layer switches to multi-path forwarding with
//! publication dedup when the overlay has cycles (DESIGN.md §15).
//!
//! Construct with [`Topology::from_edges`] (or the [`Topology::chain`]
//! / [`Topology::star`] / [`Topology::ring`] presets).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use serde::{Deserialize, Serialize};
use transmob_pubsub::BrokerId;

/// Error building or mutating a [`Topology`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// An edge references a broker id that is not in the node set.
    UnknownBroker(BrokerId),
    /// The same undirected edge appears twice, or a self-loop.
    BadEdge(BrokerId, BrokerId),
    /// The overlay is not connected.
    Disconnected,
    /// No brokers.
    Empty,
    /// A joining broker id is already in the overlay.
    AlreadyPresent(BrokerId),
    /// Removing this broker would leave the overlay empty.
    LastBroker(BrokerId),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::UnknownBroker(b) => write!(f, "edge references unknown broker {b}"),
            TopologyError::BadEdge(a, b) => write!(f, "bad edge ({a}, {b})"),
            TopologyError::Disconnected => f.write_str("overlay is not connected"),
            TopologyError::Empty => f.write_str("overlay has no brokers"),
            TopologyError::AlreadyPresent(b) => write!(f, "broker {b} is already in the overlay"),
            TopologyError::LastBroker(b) => {
                write!(f, "cannot remove {b}: it is the last broker")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// A connected broker overlay graph (a tree in the acyclic special
/// case).
///
/// # Examples
///
/// ```
/// use transmob_broker::Topology;
/// use transmob_pubsub::BrokerId;
///
/// // A chain B1 - B2 - B3.
/// let t = Topology::from_edges(
///     vec![BrokerId(1), BrokerId(2), BrokerId(3)],
///     vec![(BrokerId(1), BrokerId(2)), (BrokerId(2), BrokerId(3))],
/// )?;
/// assert!(t.is_tree());
/// let route = t.route(BrokerId(1), BrokerId(3)).unwrap();
/// assert_eq!(route.brokers(), &[BrokerId(1), BrokerId(2), BrokerId(3)]);
///
/// // Closing the cycle is allowed; routes become shortest paths.
/// let ring = Topology::from_edges(
///     vec![BrokerId(1), BrokerId(2), BrokerId(3)],
///     vec![
///         (BrokerId(1), BrokerId(2)),
///         (BrokerId(2), BrokerId(3)),
///         (BrokerId(3), BrokerId(1)),
///     ],
/// )?;
/// assert!(!ring.is_tree());
/// assert_eq!(ring.route(BrokerId(1), BrokerId(3)).unwrap().hops(), 1);
/// # Ok::<(), transmob_broker::TopologyError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    brokers: BTreeSet<BrokerId>,
    adjacency: BTreeMap<BrokerId, BTreeSet<BrokerId>>,
}

impl Topology {
    /// Builds and validates a topology over any connected graph —
    /// cycles are allowed and enable multi-path forwarding at the
    /// broker layer.
    ///
    /// # Errors
    ///
    /// Returns an error if the edge list references unknown brokers,
    /// contains self-loops or duplicates, or if the graph is empty or
    /// not connected.
    pub fn from_edges(
        brokers: impl IntoIterator<Item = BrokerId>,
        edges: impl IntoIterator<Item = (BrokerId, BrokerId)>,
    ) -> Result<Self, TopologyError> {
        let brokers: BTreeSet<BrokerId> = brokers.into_iter().collect();
        if brokers.is_empty() {
            return Err(TopologyError::Empty);
        }
        let mut adjacency: BTreeMap<BrokerId, BTreeSet<BrokerId>> =
            brokers.iter().map(|b| (*b, BTreeSet::new())).collect();
        for (a, b) in edges {
            if a == b {
                return Err(TopologyError::BadEdge(a, b));
            }
            if !brokers.contains(&a) {
                return Err(TopologyError::UnknownBroker(a));
            }
            if !brokers.contains(&b) {
                return Err(TopologyError::UnknownBroker(b));
            }
            // unwrap: both ids were just checked to be in the map
            if !adjacency.get_mut(&a).unwrap().insert(b) {
                return Err(TopologyError::BadEdge(a, b));
            }
            adjacency.get_mut(&b).unwrap().insert(a);
        }
        let start = *brokers.iter().next().expect("non-empty");
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::from([start]);
        seen.insert(start);
        while let Some(b) = queue.pop_front() {
            for n in &adjacency[&b] {
                if seen.insert(*n) {
                    queue.push_back(*n);
                }
            }
        }
        if seen.len() != brokers.len() {
            return Err(TopologyError::Disconnected);
        }
        Ok(Topology { brokers, adjacency })
    }

    /// A linear chain `B1 - B2 - ... - Bn` (ids 1..=n).
    pub fn chain(n: u32) -> Self {
        let brokers: Vec<BrokerId> = (1..=n).map(BrokerId).collect();
        let edges: Vec<_> = (1..n).map(|i| (BrokerId(i), BrokerId(i + 1))).collect();
        Topology::from_edges(brokers, edges).expect("chain is a valid tree")
    }

    /// A star with `B1` at the centre and `B2..=Bn` as leaves.
    pub fn star(n: u32) -> Self {
        let brokers: Vec<BrokerId> = (1..=n).map(BrokerId).collect();
        let edges: Vec<_> = (2..=n).map(|i| (BrokerId(1), BrokerId(i))).collect();
        Topology::from_edges(brokers, edges).expect("star is a valid tree")
    }

    /// A ring `B1 - B2 - ... - Bn - B1` (ids 1..=n, `n >= 3`): the
    /// smallest cyclic overlay, giving every broker pair two disjoint
    /// paths.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3` (two nodes cannot form a simple cycle).
    pub fn ring(n: u32) -> Self {
        assert!(n >= 3, "a ring needs at least 3 brokers");
        let brokers: Vec<BrokerId> = (1..=n).map(BrokerId).collect();
        let mut edges: Vec<_> = (1..n).map(|i| (BrokerId(i), BrokerId(i + 1))).collect();
        edges.push((BrokerId(n), BrokerId(1)));
        Topology::from_edges(brokers, edges).expect("ring is a valid connected graph")
    }

    /// Whether the overlay is acyclic (a connected graph is a tree
    /// exactly when it has `|V| - 1` edges). Tree overlays keep the
    /// paper's unique-route forwarding; cyclic overlays switch the
    /// broker layer to multi-path forwarding with publication dedup.
    pub fn is_tree(&self) -> bool {
        self.edge_count() + 1 == self.brokers.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adjacency.values().map(BTreeSet::len).sum::<usize>() / 2
    }

    /// Adds the undirected edge `a - b` (closing a cycle is allowed:
    /// this is how cyclic overlays are grown from trees).
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownBroker`] if either endpoint is
    /// not in the overlay and [`TopologyError::BadEdge`] for
    /// self-loops or edges that already exist.
    pub fn add_edge(&mut self, a: BrokerId, b: BrokerId) -> Result<TopologyChange, TopologyError> {
        if a == b {
            return Err(TopologyError::BadEdge(a, b));
        }
        if !self.brokers.contains(&a) {
            return Err(TopologyError::UnknownBroker(a));
        }
        if !self.brokers.contains(&b) {
            return Err(TopologyError::UnknownBroker(b));
        }
        if !self.adjacency.get_mut(&a).unwrap().insert(b) {
            return Err(TopologyError::BadEdge(a, b));
        }
        self.adjacency.get_mut(&b).unwrap().insert(a);
        self.debug_check_invariants();
        Ok(TopologyChange {
            removed_edges: Vec::new(),
            added_edges: vec![ordered_edge(a, b)],
        })
    }

    /// The broker ids, in order.
    pub fn brokers(&self) -> impl Iterator<Item = BrokerId> + '_ {
        self.brokers.iter().copied()
    }

    /// Number of brokers.
    pub fn len(&self) -> usize {
        self.brokers.len()
    }

    /// Whether the overlay is empty (never true for a validated
    /// topology).
    pub fn is_empty(&self) -> bool {
        self.brokers.is_empty()
    }

    /// Whether `b` is in the overlay.
    pub fn contains(&self, b: BrokerId) -> bool {
        self.brokers.contains(&b)
    }

    /// The neighbours of `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is not in the overlay.
    pub fn neighbors(&self, b: BrokerId) -> &BTreeSet<BrokerId> {
        &self.adjacency[&b]
    }

    /// The edges, each reported once with the smaller id first.
    pub fn edges(&self) -> Vec<(BrokerId, BrokerId)> {
        let mut out = Vec::new();
        for (a, ns) in &self.adjacency {
            for n in ns {
                if a < n {
                    out.push((*a, *n));
                }
            }
        }
        out
    }

    /// The route from `src` to `dst` (`RouteS2T` in the paper): the
    /// unique path on a tree, a *deterministic shortest* path on a
    /// cyclic overlay (BFS over sorted neighbour sets, so every broker
    /// computes the same path, and hop-by-hop forwarding along
    /// [`Topology::next_hop`] converges because the remaining distance
    /// strictly decreases).
    ///
    /// Returns `None` if either endpoint is not in the overlay. The
    /// route includes both endpoints; `route(b, b)` is the single-node
    /// route.
    pub fn route(&self, src: BrokerId, dst: BrokerId) -> Option<Route> {
        if !self.contains(src) || !self.contains(dst) {
            return None;
        }
        if src == dst {
            return Some(Route { brokers: vec![src] });
        }
        // BFS from src recording parents; in a tree this finds the
        // unique path, in a graph the deterministic shortest one.
        let mut parent: BTreeMap<BrokerId, BrokerId> = BTreeMap::new();
        self.bfs(src, |n, from| {
            parent.insert(n, from);
            n == dst
        });
        let mut path = vec![dst];
        let mut cur = dst;
        while cur != src {
            cur = *parent.get(&cur)?;
            path.push(cur);
        }
        path.reverse();
        Some(Route { brokers: path })
    }

    /// The first-hop row of `src`: for every other broker, the
    /// neighbour of `src` that [`Topology::route`] leaves through
    /// (`first_hops(a)[&b] == route(a, b).brokers()[1]`). One BFS
    /// answers every destination, so a broker that keeps its own row
    /// routes a movement message with a lookup; the row is stale as
    /// soon as the overlay mutates and must be recomputed then.
    ///
    /// Empty if `src` is not in the overlay.
    pub fn first_hops(&self, src: BrokerId) -> BTreeMap<BrokerId, BrokerId> {
        let mut row: BTreeMap<BrokerId, BrokerId> = BTreeMap::new();
        if self.contains(src) {
            self.bfs(src, |n, from| {
                // Discovery order guarantees `from` already has its
                // entry unless it is `src` itself.
                let first = if from == src { n } else { row[&from] };
                row.insert(n, first);
                false
            });
        }
        row
    }

    /// The one breadth-first walk behind [`Topology::route`] and
    /// [`Topology::first_hops`]: from `src` over the sorted neighbour
    /// sets, reporting each broker once as `(broker, discovered from)`
    /// in discovery order, until `discovered` returns `true`. Sharing
    /// the walk is what keeps the two tie-breaks identical on cyclic
    /// overlays.
    ///
    /// `src` must be in the overlay.
    fn bfs(&self, src: BrokerId, mut discovered: impl FnMut(BrokerId, BrokerId) -> bool) {
        let mut queue = VecDeque::from([src]);
        let mut seen = BTreeSet::from([src]);
        while let Some(b) = queue.pop_front() {
            for n in &self.adjacency[&b] {
                if seen.insert(*n) {
                    if discovered(*n, b) {
                        return;
                    }
                    queue.push_back(*n);
                }
            }
        }
    }

    /// Renders the overlay as Graphviz DOT (used by the `figures`
    /// harness to export the Fig. 6 drawing).
    pub fn to_dot(&self) -> String {
        let mut out = String::from("graph overlay {\n  node [shape=circle];\n");
        for (a, b) in self.edges() {
            out.push_str(&format!("  \"{a}\" -- \"{b}\";\n"));
        }
        out.push_str("}\n");
        out
    }

    /// The next hop from `from` on the [`Topology::route`] toward `to`
    /// (unique on trees, deterministic-shortest on cyclic overlays).
    ///
    /// Returns `None` when `from == to` or either is unknown.
    pub fn next_hop(&self, from: BrokerId, to: BrokerId) -> Option<BrokerId> {
        let route = self.route(from, to)?;
        route.brokers.get(1).copied()
    }

    /// Adds `broker` to the overlay, attached to `attach_to`.
    ///
    /// Attaching a fresh leaf to an existing node keeps the graph
    /// connected (and keeps a tree a tree), so this cannot violate the
    /// invariants. Extra edges for the new broker can then be added
    /// with [`Topology::add_edge`].
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::AlreadyPresent`] if `broker` is in the
    /// overlay and [`TopologyError::UnknownBroker`] if `attach_to` is
    /// not.
    pub fn join(
        &mut self,
        broker: BrokerId,
        attach_to: BrokerId,
    ) -> Result<TopologyChange, TopologyError> {
        if self.brokers.contains(&broker) {
            return Err(TopologyError::AlreadyPresent(broker));
        }
        if !self.brokers.contains(&attach_to) {
            return Err(TopologyError::UnknownBroker(attach_to));
        }
        self.brokers.insert(broker);
        self.adjacency.insert(broker, BTreeSet::from([attach_to]));
        // unwrap: attach_to membership checked above
        self.adjacency.get_mut(&attach_to).unwrap().insert(broker);
        self.debug_check_invariants();
        Ok(TopologyChange {
            removed_edges: Vec::new(),
            added_edges: vec![ordered_edge(broker, attach_to)],
        })
    }

    /// Removes `broker` gracefully, designating the neighbour that
    /// inherits its responsibilities (routing state, attached-client
    /// handover) and reconnecting any remaining components through it.
    ///
    /// The designated neighbour is the smallest-id neighbour of the
    /// leaving broker; on a tree every other neighbour gains an edge
    /// to it, on a general graph only the components actually
    /// disconnected by the removal do (often none — redundant paths
    /// keep the remainder connected). This is the same reconnection
    /// rule as [`Topology::repair`] — the difference between leave and
    /// repair is purely at the routing layer (state handover vs.
    /// re-propagation).
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownBroker`] if `broker` is not in
    /// the overlay and [`TopologyError::LastBroker`] if it is the only
    /// one.
    pub fn leave(&mut self, broker: BrokerId) -> Result<(BrokerId, TopologyChange), TopologyError> {
        let change = self.remove_reconnect(broker)?;
        let designated = change
            .added_edges
            .first()
            .map(|(a, _)| *a)
            .or_else(|| {
                change
                    .removed_edges
                    .iter()
                    .flat_map(|&(a, b)| [a, b])
                    .find(|x| *x != broker)
            })
            .expect("a non-last broker has at least one neighbour");
        Ok((designated, change))
    }

    /// Repairs the overlay after `dead` crashed: removes it and, where
    /// the removal actually disconnected the remainder, reconnects the
    /// orphaned components with new edges, preserving connectivity
    /// (and acyclicity on trees — reconnection never *adds* cycles).
    ///
    /// The reconnection rule is deterministic: the smallest-id
    /// neighbour of the dead broker (the *anchor*) gains an edge into
    /// every component of the remainder that it is not itself part of,
    /// landing on that component's smallest-id ex-neighbour of the
    /// dead broker. On a tree every ex-neighbour is its own component,
    /// so this degenerates to the original rule (anchor gains an edge
    /// to every other neighbour); on a cyclic overlay whose redundant
    /// paths keep the remainder connected, no edges are added at all.
    /// Determinism matters — every surviving broker derives the same
    /// post-repair overlay from `(topology, dead)` alone, with no
    /// coordination round.
    ///
    /// Returns the edge set that changed.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownBroker`] if `dead` is not in
    /// the overlay and [`TopologyError::LastBroker`] if it is the only
    /// one.
    pub fn repair(&mut self, dead: BrokerId) -> Result<TopologyChange, TopologyError> {
        self.remove_reconnect(dead)
    }

    /// Shared removal + reconnection for [`Topology::leave`] and
    /// [`Topology::repair`].
    fn remove_reconnect(&mut self, gone: BrokerId) -> Result<TopologyChange, TopologyError> {
        if !self.brokers.contains(&gone) {
            return Err(TopologyError::UnknownBroker(gone));
        }
        if self.brokers.len() == 1 {
            return Err(TopologyError::LastBroker(gone));
        }
        // unwrap: membership checked above
        let neighbors: Vec<BrokerId> = self.adjacency.remove(&gone).unwrap().into_iter().collect();
        self.brokers.remove(&gone);
        let mut removed_edges = Vec::new();
        for n in &neighbors {
            self.adjacency.get_mut(n).unwrap().remove(&gone);
            removed_edges.push(ordered_edge(gone, *n));
        }
        // Label the connected components of the remainder. Every
        // component contains at least one ex-neighbour of `gone` (its
        // path to `gone` in the pre-removal graph entered through
        // one), so reconnecting through ex-neighbours suffices.
        let mut component: BTreeMap<BrokerId, usize> = BTreeMap::new();
        for &start in &self.brokers {
            if component.contains_key(&start) {
                continue;
            }
            let idx = component.len(); // distinct per BFS start
            component.insert(start, idx);
            let mut queue = VecDeque::from([start]);
            while let Some(b) = queue.pop_front() {
                for n in &self.adjacency[&b] {
                    if let std::collections::btree_map::Entry::Vacant(e) = component.entry(*n) {
                        e.insert(idx);
                        queue.push_back(*n);
                    }
                }
            }
        }
        // The neighbour set is sorted (BTreeSet), so the anchor is the
        // smallest-id neighbour: under the TCP runtime's owner-dials
        // rule (smaller id dials) the anchor owns every new link. Each
        // still-disconnected component is adopted through its own
        // smallest-id ex-neighbour; iterating `neighbors` in ascending
        // order makes that the first one seen per component.
        let mut added_edges = Vec::new();
        if let Some((&anchor, rest)) = neighbors.split_first() {
            let mut linked = BTreeSet::from([component[&anchor]]);
            for n in rest {
                if linked.insert(component[n]) {
                    self.adjacency.get_mut(&anchor).unwrap().insert(*n);
                    self.adjacency.get_mut(n).unwrap().insert(anchor);
                    added_edges.push(ordered_edge(anchor, *n));
                }
            }
        }
        self.debug_check_invariants();
        Ok(TopologyChange {
            removed_edges,
            added_edges,
        })
    }

    /// Debug-build re-validation of the graph invariants after a
    /// mutation (the mutation ops maintain them by construction).
    fn debug_check_invariants(&self) {
        #[cfg(debug_assertions)]
        {
            let rebuilt = Topology::from_edges(self.brokers.iter().copied(), self.edges());
            debug_assert!(
                rebuilt.as_ref() == Ok(self),
                "topology mutation broke the overlay invariants: {rebuilt:?}"
            );
        }
    }
}

/// Normalizes an undirected edge to (smaller, larger).
fn ordered_edge(a: BrokerId, b: BrokerId) -> (BrokerId, BrokerId) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

/// The edge delta produced by a [`Topology`] mutation, each edge
/// reported with the smaller id first.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TopologyChange {
    /// Edges that disappeared.
    pub removed_edges: Vec<(BrokerId, BrokerId)>,
    /// Edges that were created.
    pub added_edges: Vec<(BrokerId, BrokerId)>,
}

/// The unique route between two brokers: the paper's
/// `RouteS2T = <B_i, ..., B_j>` with `pre`/`suc` accessors.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Route {
    brokers: Vec<BrokerId>,
}

impl Route {
    /// The brokers on the route, source first.
    pub fn brokers(&self) -> &[BrokerId] {
        &self.brokers
    }

    /// The source broker.
    pub fn source(&self) -> BrokerId {
        self.brokers[0]
    }

    /// The target broker.
    pub fn target(&self) -> BrokerId {
        *self.brokers.last().expect("routes are non-empty")
    }

    /// Number of brokers on the route.
    pub fn len(&self) -> usize {
        self.brokers.len()
    }

    /// Whether the route is a single broker (source == target).
    pub fn is_empty(&self) -> bool {
        false // a Route always has at least one broker
    }

    /// Number of hops (edges) on the route.
    pub fn hops(&self) -> usize {
        self.brokers.len() - 1
    }

    /// `RouteS2T.pre(b)`: the predecessor of `b` (toward the source).
    pub fn pre(&self, b: BrokerId) -> Option<BrokerId> {
        let i = self.brokers.iter().position(|x| *x == b)?;
        if i == 0 {
            None
        } else {
            Some(self.brokers[i - 1])
        }
    }

    /// `RouteS2T.suc(b)`: the successor of `b` (toward the target).
    pub fn suc(&self, b: BrokerId) -> Option<BrokerId> {
        let i = self.brokers.iter().position(|x| *x == b)?;
        self.brokers.get(i + 1).copied()
    }

    /// Whether `b` lies on the route.
    pub fn contains(&self, b: BrokerId) -> bool {
        self.brokers.contains(&b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u32) -> BrokerId {
        BrokerId(i)
    }

    #[test]
    fn chain_routes() {
        let t = Topology::chain(5);
        let r = t.route(b(1), b(5)).unwrap();
        assert_eq!(r.brokers(), &[b(1), b(2), b(3), b(4), b(5)]);
        assert_eq!(r.hops(), 4);
        assert_eq!(r.pre(b(3)), Some(b(2)));
        assert_eq!(r.suc(b(3)), Some(b(4)));
        assert_eq!(r.pre(b(1)), None);
        assert_eq!(r.suc(b(5)), None);
    }

    #[test]
    fn route_to_self_is_single_node() {
        let t = Topology::chain(3);
        let r = t.route(b(2), b(2)).unwrap();
        assert_eq!(r.brokers(), &[b(2)]);
        assert_eq!(r.hops(), 0);
        assert_eq!(r.source(), r.target());
    }

    #[test]
    fn star_routes_pass_centre() {
        let t = Topology::star(6);
        let r = t.route(b(4), b(5)).unwrap();
        assert_eq!(r.brokers(), &[b(4), b(1), b(5)]);
    }

    #[test]
    fn cycle_accepted_by_graph_constructor() {
        let t = Topology::from_edges(
            vec![b(1), b(2), b(3)],
            vec![(b(1), b(2)), (b(2), b(3)), (b(3), b(1))],
        )
        .unwrap();
        assert!(!t.is_tree());
        assert_eq!(t.edge_count(), 3);
        // Shortest path wins; the neighbour order makes it
        // deterministic.
        assert_eq!(t.route(b(1), b(3)).unwrap().brokers(), &[b(1), b(3)]);
    }

    #[test]
    fn disconnected_rejected() {
        let err = Topology::from_edges(vec![b(1), b(2), b(3)], vec![(b(1), b(2))]).unwrap_err();
        assert_eq!(err, TopologyError::Disconnected);
    }

    #[test]
    fn self_loop_and_duplicate_edges_rejected() {
        assert_eq!(
            Topology::from_edges(vec![b(1), b(2)], vec![(b(1), b(1))]).unwrap_err(),
            TopologyError::BadEdge(b(1), b(1))
        );
        assert_eq!(
            Topology::from_edges(vec![b(1), b(2)], vec![(b(1), b(2)), (b(2), b(1))]).unwrap_err(),
            TopologyError::BadEdge(b(2), b(1))
        );
    }

    #[test]
    fn unknown_broker_rejected() {
        assert_eq!(
            Topology::from_edges(vec![b(1)], vec![(b(1), b(9))]).unwrap_err(),
            TopologyError::UnknownBroker(b(9))
        );
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(
            Topology::from_edges(Vec::<BrokerId>::new(), vec![]).unwrap_err(),
            TopologyError::Empty
        );
    }

    #[test]
    fn ring_preset_is_cyclic_and_routes_shortest() {
        let t = Topology::ring(5);
        assert!(!t.is_tree());
        assert_eq!(t.edge_count(), 5);
        // B1 -> B4: the short way round is B1 - B5 - B4.
        assert_eq!(t.route(b(1), b(4)).unwrap().hops(), 2);
        assert_eq!(t.neighbors(b(1)), &BTreeSet::from([b(2), b(5)]));
    }

    #[test]
    fn add_edge_closes_cycles_and_validates() {
        let mut t = Topology::chain(4);
        let change = t.add_edge(b(4), b(1)).unwrap();
        assert_eq!(change.added_edges, vec![(b(1), b(4))]);
        assert!(!t.is_tree());
        assert_eq!(t.route(b(1), b(4)).unwrap().hops(), 1);
        assert_eq!(
            t.add_edge(b(1), b(4)).unwrap_err(),
            TopologyError::BadEdge(b(1), b(4))
        );
        assert_eq!(
            t.add_edge(b(2), b(2)).unwrap_err(),
            TopologyError::BadEdge(b(2), b(2))
        );
        assert_eq!(
            t.add_edge(b(1), b(9)).unwrap_err(),
            TopologyError::UnknownBroker(b(9))
        );
    }

    #[test]
    fn repair_on_a_ring_adds_no_edges() {
        // Removing one ring node leaves a chain: still connected, so
        // the repair delta is pure removal.
        let mut t = Topology::ring(5);
        let change = t.repair(b(3)).unwrap();
        assert_eq!(change.removed_edges, vec![(b(2), b(3)), (b(3), b(4))]);
        assert!(change.added_edges.is_empty());
        assert!(t.is_tree(), "ring minus a node is a chain");
        assert_eq!(
            t.route(b(2), b(4)).unwrap().brokers(),
            &[b(2), b(1), b(5), b(4)]
        );
    }

    #[test]
    fn repair_reconnects_only_disconnected_components() {
        // Two triangles sharing node B4: killing B4 splits them, and
        // the anchor (B1) adopts the other component through its
        // smallest ex-neighbour (B5) — one edge, not one per
        // neighbour.
        let mut t = Topology::from_edges(
            vec![b(1), b(2), b(3), b(5), b(6), b(4)],
            vec![
                (b(1), b(2)),
                (b(2), b(3)),
                (b(3), b(1)),
                (b(5), b(6)),
                (b(1), b(4)),
                (b(3), b(4)),
                (b(5), b(4)),
                (b(6), b(4)),
            ],
        )
        .unwrap();
        let change = t.repair(b(4)).unwrap();
        assert_eq!(change.added_edges, vec![(b(1), b(5))]);
        assert_eq!(change.removed_edges.len(), 4);
        assert!(t.contains(b(5)));
        assert_eq!(
            t.route(b(2), b(6)).unwrap().brokers(),
            &[b(2), b(1), b(5), b(6)]
        );
    }

    #[test]
    fn next_hop_follows_route() {
        let t = Topology::star(4);
        assert_eq!(t.next_hop(b(2), b(3)), Some(b(1)));
        assert_eq!(t.next_hop(b(1), b(3)), Some(b(3)));
        assert_eq!(t.next_hop(b(3), b(3)), None);
    }

    #[test]
    fn route_symmetric_reverse() {
        let t = Topology::chain(7);
        let fwd = t.route(b(2), b(6)).unwrap();
        let back = t.route(b(6), b(2)).unwrap();
        let mut rev = fwd.brokers().to_vec();
        rev.reverse();
        assert_eq!(back.brokers(), rev.as_slice());
    }

    #[test]
    fn dot_export_lists_every_edge() {
        let t = Topology::star(4);
        let dot = t.to_dot();
        assert!(dot.starts_with("graph overlay"));
        for (a, b) in t.edges() {
            assert!(dot.contains(&format!("\"{a}\" -- \"{b}\"")));
        }
    }

    #[test]
    fn neighbors_reflect_edges() {
        let t = Topology::star(4);
        assert_eq!(t.neighbors(b(1)).len(), 3);
        assert_eq!(t.neighbors(b(2)).len(), 1);
        assert_eq!(t.edges().len(), 3);
    }

    #[test]
    fn join_attaches_leaf() {
        let mut t = Topology::chain(3);
        let change = t.join(b(9), b(2)).unwrap();
        assert_eq!(change.added_edges, vec![(b(2), b(9))]);
        assert!(change.removed_edges.is_empty());
        assert!(t.contains(b(9)));
        assert_eq!(t.route(b(9), b(1)).unwrap().brokers(), &[b(9), b(2), b(1)]);
    }

    #[test]
    fn join_rejects_duplicates_and_unknown_attach() {
        let mut t = Topology::chain(3);
        assert_eq!(
            t.join(b(2), b(1)).unwrap_err(),
            TopologyError::AlreadyPresent(b(2))
        );
        assert_eq!(
            t.join(b(9), b(8)).unwrap_err(),
            TopologyError::UnknownBroker(b(8))
        );
    }

    #[test]
    fn repair_of_star_centre_reconnects_through_anchor() {
        // Killing the centre of a star orphans every leaf; the anchor
        // (smallest-id neighbour) must adopt all the others.
        let mut t = Topology::star(5);
        let change = t.repair(b(1)).unwrap();
        assert_eq!(change.removed_edges.len(), 4);
        assert_eq!(
            change.added_edges,
            vec![(b(2), b(3)), (b(2), b(4)), (b(2), b(5))]
        );
        assert!(!t.contains(b(1)));
        assert_eq!(t.len(), 4);
        assert_eq!(t.route(b(5), b(3)).unwrap().brokers(), &[b(5), b(2), b(3)]);
    }

    #[test]
    fn repair_of_chain_interior_bridges_the_gap() {
        let mut t = Topology::chain(4);
        let change = t.repair(b(2)).unwrap();
        assert_eq!(change.removed_edges, vec![(b(1), b(2)), (b(2), b(3))]);
        assert_eq!(change.added_edges, vec![(b(1), b(3))]);
        assert_eq!(t.route(b(1), b(4)).unwrap().brokers(), &[b(1), b(3), b(4)]);
    }

    #[test]
    fn repair_of_leaf_adds_no_edges() {
        let mut t = Topology::chain(3);
        let change = t.repair(b(3)).unwrap();
        assert_eq!(change.removed_edges, vec![(b(2), b(3))]);
        assert!(change.added_edges.is_empty());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn leave_designates_smallest_neighbor() {
        let mut t = Topology::star(4);
        let (designated, change) = t.leave(b(1)).unwrap();
        assert_eq!(designated, b(2));
        assert_eq!(change.added_edges, vec![(b(2), b(3)), (b(2), b(4))]);

        let mut t = Topology::chain(3);
        let (designated, change) = t.leave(b(3)).unwrap();
        assert_eq!(designated, b(2));
        assert!(change.added_edges.is_empty());
    }

    #[test]
    fn removing_unknown_or_last_broker_rejected() {
        let mut t = Topology::chain(2);
        assert_eq!(
            t.repair(b(9)).unwrap_err(),
            TopologyError::UnknownBroker(b(9))
        );
        t.repair(b(2)).unwrap();
        assert_eq!(t.repair(b(1)).unwrap_err(), TopologyError::LastBroker(b(1)));
        assert_eq!(t.leave(b(1)).unwrap_err(), TopologyError::LastBroker(b(1)));
    }
}
