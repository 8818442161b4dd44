//! Multi-path forwarding over cyclic overlays (DESIGN.md §15).
//!
//! - A ring overlay delivers every matching publication exactly once:
//!   the publication travels both arcs, and the subscriber's broker
//!   drops the second copy through its [`DedupWindow`].
//! - Differential oracle: the same clients and operations on a tree
//!   and on the same tree with extra (cycle-closing) edges produce
//!   identical delivered multisets.
//! - The dedup window is bounded: past its capacity it forgets whole
//!   generations, keeping at least the most recent `cap / 2` ids.
//! - Advertisement TTLs bound the residual flood budget.

use std::collections::BTreeMap;

use proptest::prelude::*;
use transmob_broker::{
    BrokerConfig, DedupWindow, Hop, OverlayBuilder, PubSubMsg, SyncNet, Topology, DEDUP_WINDOW_CAP,
};
use transmob_pubsub::{
    AdvId, Advertisement, BrokerId, ClientId, Filter, PubId, Publication, PublicationMsg, SubId,
    Subscription,
};

fn b(i: u32) -> BrokerId {
    BrokerId(i)
}

fn c(i: u64) -> ClientId {
    ClientId(i)
}

fn adv(client: u64, seq: u32, f: Filter) -> Advertisement {
    Advertisement::new(AdvId::new(c(client), seq), f)
}

fn sub(client: u64, seq: u32, f: Filter) -> Subscription {
    Subscription::new(SubId::new(c(client), seq), f)
}

fn range(lo: i64, hi: i64) -> Filter {
    Filter::builder().ge("x", lo).le("x", hi).build()
}

fn publish(net: &mut SyncNet, broker: BrokerId, client: u64, id: u64, x: i64) {
    net.client_send(
        broker,
        c(client),
        PubSubMsg::Publish(PublicationMsg::new(
            PubId(id),
            c(client),
            Publication::new().with("x", x),
        )),
    );
}

#[test]
fn ring_records_redundant_routes_and_delivers_exactly_once() {
    let mut net = SyncNet::builder().overlay(OverlayBuilder::ring(5)).start();
    net.client_send(b(1), c(1), PubSubMsg::Advertise(adv(1, 0, range(0, 100))));

    // The flood reaches every broker along both arcs; the broker
    // opposite the advertiser hears it twice and records the second
    // arrival as a redundant route.
    let with_alts = (1..=5)
        .filter(|i| {
            !net.broker(b(*i))
                .srt()
                .get(AdvId::new(c(1), 0))
                .expect("adv flooded everywhere")
                .alt_lasthops
                .is_empty()
        })
        .count();
    assert!(with_alts >= 1, "a ring must produce at least one alt route");

    net.client_send(b(3), c(2), PubSubMsg::Subscribe(sub(2, 0, range(0, 100))));
    for id in 0..20 {
        publish(&mut net, b(1), 1, id, (id as i64) % 100);
    }
    let deliveries = net.take_deliveries();
    let mut per_pub: BTreeMap<PubId, usize> = BTreeMap::new();
    for d in &deliveries {
        assert_eq!(d.client, c(2));
        *per_pub.entry(d.publication.id).or_insert(0) += 1;
    }
    assert_eq!(per_pub.len(), 20, "every publication delivered");
    assert!(
        per_pub.values().all(|&n| n == 1),
        "duplicate deliveries on the ring: {per_pub:?}"
    );
    // The second copy was dropped by a dedup window, not by luck.
    assert!(
        (1..=5).any(|i| !net.broker(b(i)).dedup_window().is_empty()),
        "multi-path forwarding must have armed the dedup windows"
    );
}

#[test]
fn surviving_arc_keeps_routing_when_one_arc_retracts() {
    // Retracting the primary route (the protocol event a broker death
    // on one arc degrades to) must promote the redundant one instead
    // of tearing the entry down.
    let mut net = SyncNet::builder().overlay(OverlayBuilder::ring(4)).start();
    net.client_send(b(1), c(1), PubSubMsg::Advertise(adv(1, 0, range(0, 100))));
    net.client_send(b(3), c(2), PubSubMsg::Subscribe(sub(2, 0, range(0, 100))));

    // B3 sits opposite B1: one route via B2, one via B4.
    let entry = net.broker(b(3)).srt().get(AdvId::new(c(1), 0)).unwrap();
    let primary = entry.lasthop;
    let Hop::Broker(primary_nb) = primary else {
        panic!("opposite broker cannot be anchored to the client");
    };
    assert_eq!(entry.alt_lasthops.len(), 1, "ring gives exactly one alt");

    // Retract the primary arc (as the repair path does when a broker
    // on it dies): the alt must be promoted, delivery must continue.
    let aid = AdvId::new(c(1), 0);
    net.with_broker(b(3), |core| {
        let out = core.handle_batch(Hop::Broker(primary_nb), vec![PubSubMsg::Unadvertise(aid)]);
        ((), out)
    });
    let entry = net.broker(b(3)).srt().get(aid).unwrap();
    assert_ne!(entry.lasthop, primary, "alt promoted to primary");
    assert!(entry.alt_lasthops.is_empty());

    net.take_deliveries();
    publish(&mut net, b(1), 1, 7, 42);
    let deliveries = net.take_deliveries();
    assert_eq!(
        deliveries.iter().filter(|d| d.client == c(2)).count(),
        1,
        "delivery must survive on the remaining arc"
    );
}

#[test]
fn dedup_window_rotates_generations_past_capacity() {
    // cap 4 → generations of two ids each.
    let mut w = DedupWindow::with_capacity(4);
    assert!(w.insert(PubId(1)), "fresh id");
    assert!(w.insert(PubId(2)), "fresh id fills the generation");
    assert!(!w.insert(PubId(1)), "still inside the window");
    assert!(!w.insert(PubId(2)), "still inside the window");
    assert_eq!(w.len(), 2, "duplicate inserts do not grow the window");

    // {1, 2} rotated into the older generation; {3, 4} fill the
    // current one, and the second rotation forgets {1, 2} wholesale.
    assert!(w.insert(PubId(3)));
    assert!(!w.insert(PubId(1)), "older generation still remembered");
    assert!(w.insert(PubId(4)));
    assert!(!w.contains(PubId(1)), "rotated out");
    assert!(!w.contains(PubId(2)), "rotated out");
    assert!(w.contains(PubId(3)));
    assert!(w.contains(PubId(4)));
    assert_eq!(w.len(), 2);
    assert!(
        w.insert(PubId(1)),
        "a forgotten id is treated as fresh again (the documented \
         window contract: exactly-once holds within the window only)"
    );

    // The guaranteed memory horizon: an id survives at least the next
    // cap/2 - 1 distinct inserts, wherever it lands in a generation.
    let mut w = DedupWindow::with_capacity(8);
    for start in 0..4u64 {
        for pad in 0..start {
            w.insert(PubId(1000 + 10 * start + pad));
        }
        assert!(w.insert(PubId(start)), "fresh id {start}");
        for next in 0..3u64 {
            w.insert(PubId(2000 + 10 * start + next));
            assert!(w.contains(PubId(start)), "id {start} inside the horizon");
        }
    }

    assert_eq!(DedupWindow::default().capacity(), DEDUP_WINDOW_CAP);
}

#[test]
fn advertisement_ttl_bounds_the_flood() {
    let mut net = SyncNet::builder().overlay(Topology::chain(5)).start();
    let a = adv(1, 0, range(0, 10)).with_ttl(2);
    net.client_send(b(1), c(1), PubSubMsg::Advertise(a));
    // ttl=2 at B1: B2 receives ttl=1, B3 receives ttl=0 and stops.
    for i in 1..=3 {
        assert!(
            net.broker(b(i)).srt().get(AdvId::new(c(1), 0)).is_some(),
            "broker {i} inside the TTL horizon"
        );
    }
    for i in 4..=5 {
        assert!(
            net.broker(b(i)).srt().get(AdvId::new(c(1), 0)).is_none(),
            "broker {i} beyond the TTL horizon"
        );
    }
}

/// One generated workload: publishers advertise, subscribers
/// subscribe, publishers publish — all at arbitrary home brokers.
#[derive(Debug, Clone)]
struct Workload {
    /// (home, lo, hi) per publisher; client ids 1..=N.
    pubs: Vec<(u32, i64, i64)>,
    /// (home, lo, hi) per subscriber; client ids 100..=100+M.
    subs: Vec<(u32, i64, i64)>,
    /// (publisher index, value) publications, ids assigned in order.
    msgs: Vec<(usize, i64)>,
}

fn workload(brokers: u32) -> impl Strategy<Value = Workload> {
    let pub_s = (1..=brokers, 0i64..50, 0i64..50);
    let sub_s = (1..=brokers, 0i64..50, 0i64..50);
    (
        proptest::collection::vec(pub_s, 1..4),
        proptest::collection::vec(sub_s, 1..4),
        proptest::collection::vec((0usize..4, 0i64..100), 1..30),
    )
        .prop_map(|(pubs, subs, msgs)| Workload { pubs, subs, msgs })
}

/// Runs `w` on `net` and returns the delivered multiset as sorted
/// `(subscriber, publication id, publisher)` triples. `hops` differs
/// between acyclic and cyclic runs by design, so it is not compared.
fn run(net: &mut SyncNet, w: &Workload) -> Vec<(ClientId, PubId, ClientId)> {
    for (i, (home, lo, hi)) in w.pubs.iter().enumerate() {
        let client = i as u64 + 1;
        let f = range(*lo, (*lo).max(*hi));
        net.client_send(b(*home), c(client), PubSubMsg::Advertise(adv(client, 0, f)));
    }
    for (i, (home, lo, hi)) in w.subs.iter().enumerate() {
        let client = i as u64 + 100;
        let f = range(*lo, (*lo).max(*hi));
        net.client_send(b(*home), c(client), PubSubMsg::Subscribe(sub(client, 0, f)));
    }
    for (id, (pi, x)) in w.msgs.iter().enumerate() {
        let pi = pi % w.pubs.len();
        let (home, lo, hi) = w.pubs[pi];
        // Publications must conform to the publisher's advertisement
        // (the paper's model): clamp the value into the advertised
        // range. Routing equality is only promised for conforming
        // publications.
        let hi = lo.max(hi);
        let x = lo + x.rem_euclid(hi - lo + 1);
        publish(net, b(home), pi as u64 + 1, id as u64, x);
    }
    let mut got: Vec<_> = net
        .take_deliveries()
        .into_iter()
        .map(|d| (d.client, d.publication.id, d.publication.publisher))
        .collect();
    got.sort_unstable();
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tentpole differential: adding cycle-closing edges to a tree
    /// changes the paths but not the delivered multiset.
    #[test]
    fn cyclic_overlay_is_differentially_equal_to_the_tree(
        w in workload(6),
        edge_mask in 1u8..16,
    ) {
        const EXTRA_EDGES: [(u32, u32); 4] = [(1, 6), (2, 5), (1, 4), (3, 6)];
        let mut tree_net = SyncNet::builder()
            .overlay(Topology::chain(6))
            .start();
        let expected = run(&mut tree_net, &w);

        let mut cyclic = Topology::chain(6);
        for (i, (x, y)) in EXTRA_EDGES.iter().enumerate() {
            if edge_mask & (1 << i) != 0 {
                cyclic.add_edge(b(*x), b(*y)).expect("cycle-closing edge");
            }
        }
        prop_assert!(!cyclic.is_tree());
        let mut cyclic_net = SyncNet::builder().overlay(cyclic).start();
        prop_assert!(cyclic_net.broker(b(1)).config().multipath,
            "cyclic overlay must auto-enable multi-path forwarding");
        let got = run(&mut cyclic_net, &w);

        prop_assert_eq!(got, expected,
            "cyclic overlay delivered a different multiset than the acyclic oracle");
    }

    /// Tree overlays with multipath compiled in behave bit-identically
    /// to plain single-path forwarding (the dedup gate costs nothing
    /// when no duplicates can arise).
    #[test]
    fn multipath_on_a_tree_changes_nothing(w in workload(5)) {
        let mut plain = SyncNet::builder().overlay(Topology::chain(5)).start();
        let expected = run(&mut plain, &w);
        let mut forced = SyncNet::builder()
            .overlay(Topology::chain(5))
            .options(BrokerConfig::plain().with_multipath())
            .start();
        let got = run(&mut forced, &w);
        prop_assert_eq!(got, expected);
    }
}
