//! Executable versions of the paper's Sec. 3 transaction properties,
//! used as oracles by the integration tests and the experiment
//! harness.
//!
//! - **Routing-layer consistency (Sec. 3.5)**: from any publisher
//!   location, the distributed PRT state must route a conforming
//!   publication to every client with an intersecting subscription.
//!   [`static_delivery_set`] computes, *without sending messages*, the
//!   set of clients the current tables would deliver a probe
//!   publication to; [`check_routing_consistency`] compares it against
//!   the expected set.
//! - **Notification atomicity (Sec. 3.4)**: [`assert_exactly_once`] —
//!   no duplicate publication ids in a client's application stream.
//! - **Client-layer consistency (Sec. 3.3)**: [`started_copies`] — at
//!   most one `Started` copy of any client across the network.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::Arc;

use transmob_broker::{Hop, Prt, Topology};
use transmob_pubsub::{BrokerId, ClientId, PubId, Publication};

use crate::mobile_broker::MobileBroker;
use crate::states::ClientState;

/// Read-only access to a network of brokers, so the property checkers
/// run over whatever hosts the [`MobileBroker`]s: `transmob_sim::Sim`
/// implements it, from the crate above this one, and [`Frozen`] does
/// for brokers copied out of running threads.
pub trait NetworkView {
    /// The overlay topology.
    fn view_topology(&self) -> &Topology;
    /// Every broker id in the network.
    fn view_broker_ids(&self) -> Vec<BrokerId>;
    /// A broker by id.
    ///
    /// # Panics
    ///
    /// May panic if `id` is unknown.
    fn view_broker(&self, id: BrokerId) -> &MobileBroker;
    /// The broker currently holding any stub for `client` (whatever its
    /// state), if one exists.
    fn view_find_client(&self, client: ClientId) -> Option<BrokerId> {
        self.view_broker_ids()
            .into_iter()
            .find(|b| self.view_broker(*b).client(client).is_some())
    }
}

/// Copies of a network's brokers, taken out of whatever runs them (the
/// threaded runtimes' `brokers()`), with the overlay they were built
/// on.
#[derive(Debug, Clone)]
pub struct Frozen {
    /// The overlay topology.
    pub topology: Arc<Topology>,
    /// Every broker, by id.
    pub brokers: BTreeMap<BrokerId, MobileBroker>,
}

impl NetworkView for Frozen {
    fn view_topology(&self) -> &Topology {
        &self.topology
    }

    fn view_broker_ids(&self) -> Vec<BrokerId> {
        self.brokers.keys().copied().collect()
    }

    fn view_broker(&self, id: BrokerId) -> &MobileBroker {
        &self.brokers[&id]
    }
}

/// A violation reported by one of the property checkers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropertyViolation(pub String);

impl fmt::Display for PropertyViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for PropertyViolation {}

/// Computes the set of clients the current distributed PRT state would
/// deliver `probe` to, starting from a publisher attached to `start`.
///
/// This is a static fixpoint over the tables (active *and* pending
/// configurations, like the forwarding rule itself) — no messages are
/// sent and no broker state changes.
pub fn static_delivery_set<'a, F>(
    prt_of: F,
    start: BrokerId,
    probe: &Publication,
) -> BTreeSet<ClientId>
where
    F: Fn(BrokerId) -> &'a Prt,
{
    let mut delivered = BTreeSet::new();
    let mut visited = BTreeSet::new();
    let mut queue: VecDeque<(BrokerId, Option<BrokerId>)> = VecDeque::from([(start, None)]);
    while let Some((b, from)) = queue.pop_front() {
        if !visited.insert(b) {
            continue;
        }
        let prt = prt_of(b);
        for (_, e) in prt.iter() {
            if !e.item.filter.matches(probe) {
                continue;
            }
            for hop in [Some(e.lasthop), e.pending.as_ref().map(|p| p.lasthop)]
                .into_iter()
                .flatten()
            {
                match hop {
                    Hop::Client(c) => {
                        delivered.insert(c);
                    }
                    Hop::Broker(n) => {
                        if Some(n) != from {
                            queue.push_back((n, Some(b)));
                        }
                    }
                }
            }
            // Multi-path forwarding fans publications out along every
            // redundant route too (empty on acyclic overlays).
            for n in &e.alt_lasthops {
                if Some(*n) != from {
                    queue.push_back((*n, Some(b)));
                }
            }
        }
    }
    delivered
}

/// One routing-consistency test case: a publisher location, a probe
/// publication, and the clients that must receive it.
#[derive(Debug, Clone)]
pub struct ConsistencyCase {
    /// Broker the probe is published at.
    pub publisher_broker: BrokerId,
    /// The probe publication.
    pub probe: Publication,
    /// Clients that must be reached.
    pub expected: BTreeSet<ClientId>,
}

/// Checks routing consistency (Sec. 3.5) over any [`NetworkView`]:
/// every expected client is reachable by the static forwarding
/// fixpoint.
///
/// Stale extra recipients are allowed, exactly as the paper's
/// consistency definition allows stale routing entries (client stubs
/// de-duplicate).
///
/// # Errors
///
/// Returns the first case whose expected set is not covered.
pub fn check_routing_consistency<N: NetworkView + ?Sized>(
    net: &N,
    cases: &[ConsistencyCase],
) -> Result<(), PropertyViolation> {
    for case in cases {
        let got = static_delivery_set(
            |b| net.view_broker(b).core().prt(),
            case.publisher_broker,
            &case.probe,
        );
        if !case.expected.is_subset(&got) {
            let missing: Vec<String> = case
                .expected
                .difference(&got)
                .map(|c| c.to_string())
                .collect();
            return Err(PropertyViolation(format!(
                "publication {} from {} misses clients [{}] (reached: {:?})",
                case.probe,
                case.publisher_broker,
                missing.join(","),
                got
            )));
        }
    }
    Ok(())
}

/// Checks notification atomicity (Sec. 3.4): the stream of publication
/// ids surfaced to a client's application contains no duplicate.
///
/// # Errors
///
/// Returns the first duplicated id.
pub fn assert_exactly_once(
    stream: impl IntoIterator<Item = PubId>,
) -> Result<(), PropertyViolation> {
    let mut seen: BTreeSet<PubId> = BTreeSet::new();
    for id in stream {
        if !seen.insert(id) {
            return Err(PropertyViolation(format!(
                "publication {id} delivered more than once"
            )));
        }
    }
    Ok(())
}

/// Checks eventual completeness: every id in `expected` appears in the
/// stream of publication ids surfaced to the client.
///
/// # Errors
///
/// Returns the set of missing ids.
pub fn assert_all_delivered(
    stream: impl IntoIterator<Item = PubId>,
    expected: &BTreeSet<PubId>,
) -> Result<(), PropertyViolation> {
    let got: BTreeSet<PubId> = stream.into_iter().collect();
    let missing: Vec<String> = expected.difference(&got).map(|p| p.to_string()).collect();
    if missing.is_empty() {
        Ok(())
    } else {
        Err(PropertyViolation(format!(
            "missing notifications: [{}]",
            missing.join(",")
        )))
    }
}

/// The paper's routing-consistency clause (ii), checked structurally.
///
/// On an acyclic overlay: at every broker `B`, every SRT entry's
/// lasthop must be `B`'s neighbour on the unique path from `B` toward
/// the advertisement's publisher (or the publisher itself when
/// co-located). Movement transactions must leave this invariant intact
/// for every advertisement of every (possibly relocated) publisher.
///
/// On a cyclic overlay there is no unique path; the generalized
/// invariant is that the chain of *primary* lasthops from any broker
/// holding the entry reaches the publisher's home in at most one hop
/// per broker (no primary-route cycles, no dead ends) — redundant
/// `alt_lasthops` routes are extra and unchecked.
///
/// # Errors
///
/// Returns the first broker/advertisement pair whose route points the
/// wrong way (tree) or whose primary-route walk fails to reach the
/// publisher (graph).
pub fn check_srt_paths<N: NetworkView + ?Sized>(net: &N) -> Result<(), PropertyViolation> {
    let topology = net.view_topology();
    let is_tree = topology.is_tree();
    let bound = net.view_broker_ids().len();
    for b in net.view_broker_ids() {
        let broker = net.view_broker(b);
        for (adv_id, entry) in broker.core().srt().iter() {
            let Some(home) = net.view_find_client(adv_id.client) else {
                continue; // publisher currently mid-move; skip
            };
            if !is_tree {
                walk_primary_route(net, b, *adv_id, home, bound)?;
                continue;
            }
            let expected: Hop = if home == b {
                Hop::Client(adv_id.client)
            } else {
                match topology.next_hop(b, home) {
                    Some(n) => Hop::Broker(n),
                    None => continue,
                }
            };
            // During a movement window the pending configuration may
            // already point the new way while the active one still
            // points the old way; accept either.
            let pending_ok = entry
                .pending
                .as_ref()
                .is_some_and(|p| p.lasthop == expected);
            if entry.lasthop != expected && !pending_ok {
                return Err(PropertyViolation(format!(
                    "at {b}, advertisement {adv_id} lasthop {} is off the path to                      its publisher at {home} (expected {expected:?})",
                    entry.lasthop
                )));
            }
        }
    }
    Ok(())
}

/// Follows the chain of primary SRT lasthops for `adv_id` from `start`
/// and demands it reach the publisher's `home` within `bound` hops
/// (the broker count — each broker contributes at most one hop, so a
/// longer walk means a primary-route cycle).
///
/// Brokers mid-transaction (pending configurations), entries already
/// retracted along the walk, and stale client anchors are all skipped
/// rather than failed: they are transient windows the message-level
/// checks cover.
fn walk_primary_route<N: NetworkView + ?Sized>(
    net: &N,
    start: BrokerId,
    adv_id: transmob_pubsub::AdvId,
    home: BrokerId,
    bound: usize,
) -> Result<(), PropertyViolation> {
    let mut cur = start;
    let mut seen: BTreeSet<BrokerId> = BTreeSet::new();
    for _ in 0..=bound {
        if cur == home {
            return Ok(());
        }
        if !seen.insert(cur) {
            break; // primary-route cycle
        }
        let Some(entry) = net.view_broker(cur).core().srt().get(adv_id) else {
            return Ok(()); // retraction in flight along this path
        };
        if entry.pending.is_some() {
            return Ok(()); // movement window: message-level checks own this
        }
        match entry.lasthop {
            Hop::Client(_) => return Ok(()), // mid-move client anchor
            Hop::Broker(n) => cur = n,
        }
    }
    Err(PropertyViolation(format!(
        "at {start}, advertisement {adv_id}'s primary-route walk never reaches \
         its publisher at {home}"
    )))
}

/// Counts, per client, how many `Started` copies exist across the
/// network (the client-layer consistency property of Sec. 3.3 requires
/// at most one).
pub fn started_copies<N: NetworkView + ?Sized>(net: &N) -> BTreeMap<ClientId, usize> {
    let mut counts: BTreeMap<ClientId, usize> = BTreeMap::new();
    for b in net.view_broker_ids() {
        for (cid, stub) in net.view_broker(b).clients() {
            if stub.state() == ClientState::Started {
                *counts.entry(*cid).or_insert(0) += 1;
            }
        }
    }
    counts
}

/// Asserts the client-layer consistency property: at most one
/// `Started` copy per client.
///
/// # Errors
///
/// Returns the first client with more than one running copy.
pub fn assert_single_instance<N: NetworkView + ?Sized>(net: &N) -> Result<(), PropertyViolation> {
    for (c, n) in started_copies(net) {
        if n > 1 {
            return Err(PropertyViolation(format!(
                "client {c} has {n} running copies"
            )));
        }
    }
    Ok(())
}
