//! Property tests for the overlay mutation ops (`join`, `leave`,
//! `repair`): an arbitrary interleaving applied to a valid tree must
//! keep the overlay an acyclic connected tree, keep `route`/`next_hop`
//! consistent with the mutated edge set, and report edge deltas
//! ([`TopologyChange`]) that exactly account for the mutation.

use proptest::prelude::*;
use transmob_broker::{Topology, TopologyChange};
use transmob_pubsub::BrokerId;

/// One overlay mutation, with indices resolved against the broker set
/// at application time (so a generated sequence stays meaningful no
/// matter what the earlier ops did).
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Join a fresh broker, attached to the `usize`-th current broker.
    Join(usize),
    /// Graceful leave of the `usize`-th current broker.
    Leave(usize),
    /// Crash repair around the `usize`-th current broker.
    Repair(usize),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0usize..64).prop_map(Op::Join),
            (0usize..64).prop_map(Op::Leave),
            (0usize..64).prop_map(Op::Repair),
        ],
        0..24,
    )
}

/// Full revalidation: rebuilding the overlay from its broker and edge
/// sets re-runs the constructor's acyclicity + connectivity checks.
fn assert_valid_tree(topo: &Topology) {
    let rebuilt = Topology::from_edges(topo.brokers(), topo.edges());
    assert_eq!(
        rebuilt.as_ref(),
        Ok(topo),
        "mutation broke the connectivity invariants"
    );
    assert!(topo.is_tree(), "mutation introduced a cycle");
}

/// `route` must agree with the mutated edge set: every pair is
/// connected by a simple path whose consecutive hops are real edges,
/// and `next_hop` is its second entry, which is also what the
/// first-hop row of the route's source holds for its destination.
fn assert_routes_consistent(topo: &Topology) {
    let brokers: Vec<BrokerId> = topo.brokers().collect();
    for &a in &brokers {
        let row = topo.first_hops(a);
        assert_eq!(
            row.len(),
            brokers.len() - 1,
            "the first-hop row of {a} must cover every other broker and only those"
        );
        for &z in &brokers {
            let route = topo
                .route(a, z)
                .unwrap_or_else(|| panic!("no route {a} -> {z}"));
            let hops = route.brokers();
            assert_eq!(hops.first(), Some(&a));
            assert_eq!(hops.last(), Some(&z));
            assert!(
                hops.len() <= brokers.len(),
                "route {a} -> {z} revisits a broker: {hops:?}"
            );
            for w in hops.windows(2) {
                assert!(
                    topo.neighbors(w[0]).contains(&w[1]),
                    "route {a} -> {z} uses the non-edge {} - {}",
                    w[0],
                    w[1]
                );
            }
            assert_eq!(topo.next_hop(a, z), hops.get(1).copied());
            assert_eq!(
                row.get(&z),
                hops.get(1),
                "first-hop row of {a} disagrees with route {a} -> {z}"
            );
        }
    }
}

/// Applies the reported [`TopologyChange`] to the pre-mutation edge
/// set and demands it reproduce the post-mutation one exactly.
fn assert_change_accounts(
    before: &[(BrokerId, BrokerId)],
    change: &TopologyChange,
    after: &[(BrokerId, BrokerId)],
) {
    let mut derived: std::collections::BTreeSet<(BrokerId, BrokerId)> =
        before.iter().copied().collect();
    for e in &change.removed_edges {
        assert!(derived.remove(e), "removed edge {e:?} was not present");
    }
    for e in &change.added_edges {
        assert!(derived.insert(*e), "added edge {e:?} already present");
    }
    let after: std::collections::BTreeSet<(BrokerId, BrokerId)> = after.iter().copied().collect();
    assert_eq!(
        derived, after,
        "TopologyChange does not account for the delta"
    );
}

/// The paper's Fig. 6 overlay (`transmob_workloads::default_14`, which
/// this crate cannot name) plus the three cycle edges of the
/// `sim-cyclic` benchmark workload: ties between equally short routes
/// exist here, so the first-hop row must break them as `route` does.
fn fig6_with_cycle_edges() -> Topology {
    let edges = [
        (1, 2),
        (1, 3),
        (3, 4),
        (3, 5),
        (5, 6),
        (5, 7),
        (4, 8),
        (8, 9),
        (9, 10),
        (9, 11),
        (8, 12),
        (8, 13),
        (12, 14),
        (1, 13),
        (2, 14),
        (5, 12),
    ];
    Topology::from_edges(
        (1..=14).map(BrokerId),
        edges.map(|(a, b)| (BrokerId(a), BrokerId(b))),
    )
    .expect("a connected overlay")
}

/// First-hop rows against `route` for every ordered pair on the cyclic
/// Fig. 6 overlay, and again on what every single `repair` and `leave`
/// turns it into (a row computed before the mutation would be stale).
#[test]
fn first_hop_rows_follow_routes_on_a_cyclic_overlay_and_its_repairs() {
    let topo = fig6_with_cycle_edges();
    assert!(!topo.is_tree());
    assert_routes_consistent(&topo);
    for gone in topo.brokers() {
        let mut repaired = topo.clone();
        repaired.repair(gone).expect("not the last broker");
        assert_routes_consistent(&repaired);
        let mut left = topo.clone();
        left.leave(gone).expect("not the last broker");
        assert_routes_consistent(&left);
    }
}

proptest! {
    /// Any join/leave/repair interleaving from a chain seed yields an
    /// acyclic connected overlay with consistent unique routes after
    /// every single step.
    #[test]
    fn mutation_sequences_preserve_tree_and_routes(ops in arb_ops()) {
        let mut topo = Topology::chain(5);
        let mut next_fresh = 100u32;
        for op in ops {
            let brokers: Vec<BrokerId> = topo.brokers().collect();
            let before = topo.edges();
            let change = match op {
                Op::Join(i) => {
                    let attach = brokers[i % brokers.len()];
                    let fresh = BrokerId(next_fresh);
                    next_fresh += 1;
                    topo.join(fresh, attach).expect("fresh join is always valid")
                }
                Op::Leave(i) => {
                    let gone = brokers[i % brokers.len()];
                    match topo.leave(gone) {
                        Ok((designated, change)) => {
                            prop_assert!(
                                change.added_edges.iter().all(|&(a, b)| a == designated || b == designated),
                                "leave must reconnect through the designated neighbour"
                            );
                            change
                        }
                        Err(_) => {
                            prop_assert_eq!(brokers.len(), 1, "leave may only fail on the last broker");
                            continue;
                        }
                    }
                }
                Op::Repair(i) => {
                    let dead = brokers[i % brokers.len()];
                    match topo.repair(dead) {
                        Ok(change) => change,
                        Err(_) => {
                            prop_assert_eq!(brokers.len(), 1, "repair may only fail on the last broker");
                            continue;
                        }
                    }
                }
            };
            assert_change_accounts(&before, &change, &topo.edges());
            assert_valid_tree(&topo);
            assert_routes_consistent(&topo);
        }
    }

    /// Repair is deterministic in `(topology, dead)`: two copies of
    /// the same overlay repairing the same death derive identical
    /// post-repair overlays and identical edge deltas — the property
    /// that lets every survivor repair without a coordination round.
    #[test]
    fn repair_is_deterministic(seed_ops in arb_ops(), pick in 0usize..64) {
        let mut topo = Topology::chain(5);
        let mut next_fresh = 100u32;
        for op in seed_ops {
            let brokers: Vec<BrokerId> = topo.brokers().collect();
            match op {
                Op::Join(i) => {
                    let fresh = BrokerId(next_fresh);
                    next_fresh += 1;
                    let _ = topo.join(fresh, brokers[i % brokers.len()]);
                }
                Op::Leave(i) => { let _ = topo.leave(brokers[i % brokers.len()]); }
                Op::Repair(i) => { let _ = topo.repair(brokers[i % brokers.len()]); }
            }
        }
        if topo.len() == 1 {
            // Repair needs a survivor: grow back to two brokers.
            let fresh = BrokerId(next_fresh);
            let only = topo.brokers().next().expect("non-empty");
            topo.join(fresh, only).expect("fresh join is always valid");
        }
        let brokers: Vec<BrokerId> = topo.brokers().collect();
        let dead = brokers[pick % brokers.len()];
        let mut a = topo.clone();
        let mut b = topo;
        let ca = a.repair(dead).expect("repair of a non-last broker");
        let cb = b.repair(dead).expect("repair of a non-last broker");
        prop_assert_eq!(ca, cb);
        prop_assert_eq!(a, b);
    }
}
