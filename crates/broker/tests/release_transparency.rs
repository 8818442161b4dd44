//! Differential property: the *conservative* release cascade (the
//! paper's PADRES-era behaviour — re-forward everything the withdrawn
//! entry covered and let downstream re-quench) and the *precise*
//! release ablation must both converge to routing-transparent tables
//! (the paper's Claim 1/2 transparency), even when retractions and
//! releases **cross in flight**.
//!
//! The covering_transparency suite runs every client operation to
//! quiescence before the next, so a release can never race the
//! retraction that made it necessary. Here operations are *batched*
//! into the network queue and drained in one run, which interleaves
//! e.g. "unsubscribe the covering root" with "unsubscribe the covered
//! leaf" — the scenario where a broker may re-forward a subscription
//! on the very link a crossing retraction just removed it from.
//!
//! Two oracles:
//!  * cross-mode: plain vs conservative vs precise deliver identically;
//!  * cross-schedule: for each mode, the batched (crossing) execution
//!    converges to the same delivery behaviour as the sequential
//!    (quiescent-per-op) execution of the same operations.
//!
//! Both suites also toggle advertisements, so the adv-side quench /
//! retract / `release_quenched` cascade is raced the same way.

use std::collections::BTreeSet;

use proptest::prelude::*;
use transmob_broker::{BrokerConfig, PubSubMsg, SyncNet, Topology};
use transmob_pubsub::{
    AdvId, Advertisement, BrokerId, ClientId, Filter, PubId, Publication, PublicationMsg, SubId,
    Subscription,
};

/// One client-visible operation: a subscriber toggling a group filter,
/// or an advertiser slot toggling its advertisement.
#[derive(Debug, Clone)]
enum Op {
    /// `client` toggles a covered-workload-style subscription.
    Sub { client: u8, group: u8, shift: u8 },
    /// Advertiser slot (0..3) toggles its advertisement.
    Adv { slot: u8, shift: u8 },
}

fn group_filter(group: u8, shift: u8) -> Filter {
    let s = i64::from(shift);
    if group == 0 {
        Filter::builder().ge("x", s).le("x", 10_000 + s).build()
    } else {
        let lo = i64::from(group) * 1000;
        Filter::builder()
            .ge("x", lo + s)
            .le("x", lo + 500 + s)
            .build()
    }
}

/// The toggled advertiser slots: edge broker, client, and filter
/// family. Slot filters are chosen so the permanent full-space
/// advertisements cover slots 0/1 (their floods quench) while slot 2
/// is half-unbounded and therefore *not* covered — its flood quenches
/// others instead.
fn adv_slot(slot: u8, shift: u8) -> (BrokerId, ClientId, Filter) {
    let s = i64::from(shift);
    match slot {
        0 => (
            BrokerId(5),
            ClientId(30),
            Filter::builder().ge("x", s).le("x", 10_000 + s).build(),
        ),
        1 => (
            BrokerId(6),
            ClientId(31),
            Filter::builder()
                .ge("x", 5_000 + s)
                .le("x", 15_000 + s)
                .build(),
        ),
        _ => (
            BrokerId(2),
            ClientId(32),
            Filter::builder().ge("x", s).build(),
        ),
    }
}

/// A branching overlay:
///
/// ```text
///   B1 — B2 — B3 — B4
///        |    |
///        B5   B6
/// ```
///
/// Branch points make quenching per-link decisions diverge (an adv or
/// sub can be quenched toward B5 but live toward B3), which a chain
/// cannot express.
fn tree6() -> Topology {
    Topology::from_edges(
        (1..=6).map(BrokerId),
        [
            (BrokerId(1), BrokerId(2)),
            (BrokerId(2), BrokerId(3)),
            (BrokerId(3), BrokerId(4)),
            (BrokerId(2), BrokerId(5)),
            (BrokerId(3), BrokerId(6)),
        ],
    )
    .expect("tree6 is a valid tree")
}

fn arb_batches() -> impl Strategy<Value = Vec<Vec<Op>>> {
    // ~4:1 mix of subscription toggles to advertisement toggles.
    let op = (0u8..5, 0u8..10, 0u8..10, 0u8..100).prop_map(|(kind, client, group, shift)| {
        if kind < 4 {
            Op::Sub {
                client,
                group,
                shift,
            }
        } else {
            Op::Adv {
                slot: client % 3,
                shift,
            }
        }
    });
    proptest::collection::vec(proptest::collection::vec(op, 1..6), 1..10)
}

/// Replays `batches` into a fresh network. With `batched` set, every
/// op of a batch is enqueued before the queue is drained, so control
/// traffic from different ops crosses in flight; otherwise each op
/// runs to quiescence (the schedule the older suites use).
fn build_net(config: BrokerConfig, batches: &[Vec<Op>], batched: bool) -> SyncNet {
    let mut net = SyncNet::builder().overlay(tree6()).options(config).start();
    // Permanent full-space advertisers at both ends, so probes from
    // either side always have a routed path.
    for (broker, client) in [(BrokerId(1), ClientId(1)), (BrokerId(4), ClientId(2))] {
        net.client_send(
            broker,
            client,
            PubSubMsg::Advertise(Advertisement::new(
                AdvId::new(client, 0),
                Filter::builder().ge("x", 0).le("x", 20_000).build(),
            )),
        );
    }
    let mut active_sub: Vec<Option<SubId>> = vec![None; 10];
    let mut active_adv: Vec<Option<AdvId>> = vec![None; 3];
    let mut seq = 0u32;
    for batch in batches {
        for op in batch {
            seq += 1;
            let (broker, client, msg) = match *op {
                Op::Sub {
                    client,
                    group,
                    shift,
                } => {
                    let cid = ClientId(100 + u64::from(client));
                    let broker = BrokerId(1 + u32::from(client) % 6);
                    let msg = match active_sub[client as usize].take() {
                        Some(id) => PubSubMsg::Unsubscribe(id),
                        None => {
                            let id = SubId::new(cid, seq);
                            active_sub[client as usize] = Some(id);
                            PubSubMsg::Subscribe(Subscription::new(id, group_filter(group, shift)))
                        }
                    };
                    (broker, cid, msg)
                }
                Op::Adv { slot, shift } => {
                    let (broker, cid, filter) = adv_slot(slot, shift);
                    let msg = match active_adv[slot as usize].take() {
                        Some(id) => PubSubMsg::Unadvertise(id),
                        None => {
                            let id = AdvId::new(cid, seq);
                            active_adv[slot as usize] = Some(id);
                            PubSubMsg::Advertise(Advertisement::new(id, filter))
                        }
                    };
                    (broker, cid, msg)
                }
            };
            if batched {
                net.enqueue_client(broker, client, msg);
            } else {
                net.client_send(broker, client, msg);
            }
        }
        net.run();
    }
    net
}

/// Probe values straddling every group boundary the workload can
/// produce (groups are 1000-aligned with shifts below 100).
const PROBES: [i64; 14] = [
    0, 55, 501, 1_001, 1_555, 3_007, 4_444, 5_555, 7_007, 9_501, 9_999, 10_050, 12_345, 19_999,
];

/// Who receives a probe publication with value `x` published at
/// `broker` by `client` (one of the permanent advertisers).
fn delivery_set(
    net: &mut SyncNet,
    broker: BrokerId,
    client: ClientId,
    x: i64,
    probe_id: u64,
) -> BTreeSet<ClientId> {
    net.take_deliveries();
    net.client_send(
        broker,
        client,
        PubSubMsg::Publish(PublicationMsg::new(
            PubId(probe_id),
            client,
            Publication::new().with("x", x),
        )),
    );
    net.take_deliveries().iter().map(|d| d.client).collect()
}

/// Delivery behaviour fingerprint: the delivery set for every probe
/// value from both publisher edges.
fn fingerprint(net: &mut SyncNet) -> Vec<BTreeSet<ClientId>> {
    let mut out = Vec::new();
    for (k, x) in PROBES.iter().enumerate() {
        out.push(delivery_set(
            net,
            BrokerId(1),
            ClientId(1),
            *x,
            1_000 + k as u64,
        ));
        out.push(delivery_set(
            net,
            BrokerId(4),
            ClientId(2),
            *x,
            2_000 + k as u64,
        ));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Conservative and precise release both stay delivery-transparent
    /// against plain routing when retractions and releases cross in
    /// flight.
    #[test]
    fn crossing_release_is_delivery_transparent(batches in arb_batches()) {
        let mut plain = build_net(BrokerConfig::plain(), &batches, true);
        let mut conservative = build_net(BrokerConfig::covering(), &batches, true);
        let mut precise = build_net(BrokerConfig::covering_precise_release(), &batches, true);
        let a = fingerprint(&mut plain);
        let b = fingerprint(&mut conservative);
        let c = fingerprint(&mut precise);
        prop_assert_eq!(&a, &b, "conservative release diverged under crossing traffic");
        prop_assert_eq!(&a, &c, "precise release diverged under crossing traffic");
    }

    /// Each mode converges to the same delivery behaviour whether the
    /// operations crossed in flight or ran to quiescence one at a
    /// time: the tables are determined by the surviving operations,
    /// not the schedule.
    #[test]
    fn crossing_schedule_converges_to_sequential(batches in arb_batches()) {
        for config in [
            BrokerConfig::plain(),
            BrokerConfig::covering(),
            BrokerConfig::covering_precise_release(),
        ] {
            let mut crossed = build_net(config, &batches, true);
            let mut sequential = build_net(config, &batches, false);
            prop_assert_eq!(
                fingerprint(&mut crossed),
                fingerprint(&mut sequential),
                "schedule-dependent convergence under {:?}",
                config
            );
        }
    }

    /// Conservative release may transiently re-forward more than
    /// precise release, but at quiescence neither mode forwards state
    /// plain routing would not.
    #[test]
    fn crossing_release_never_exceeds_plain_state(batches in arb_batches()) {
        let plain = build_net(BrokerConfig::plain(), &batches, true);
        let conservative = build_net(BrokerConfig::covering(), &batches, true);
        let precise = build_net(BrokerConfig::covering_precise_release(), &batches, true);
        let forwarded = |net: &SyncNet| -> usize {
            net.brokers()
                .map(|(_, b)| b.prt().iter().map(|(_, e)| e.sent_to.len()).sum::<usize>())
                .sum()
        };
        let bound = forwarded(&plain);
        prop_assert!(forwarded(&conservative) <= bound);
        prop_assert!(forwarded(&precise) <= bound);
    }
}

/// Deterministic witness of the crossing scenario the proptest hunts:
/// a covering root and a covered leaf unsubscribe in the same batch.
/// The root's retraction triggers a release that re-forwards the leaf
/// on the link toward the advertiser while the leaf's own retraction
/// is already crossing the same link — both must cancel cleanly.
#[test]
fn crossing_root_and_leaf_unsubscribe_cancel() {
    for config in [
        BrokerConfig::covering(),
        BrokerConfig::covering_precise_release(),
    ] {
        let mut net = SyncNet::builder()
            .overlay(Topology::chain(4))
            .options(config)
            .start();
        net.client_send(
            BrokerId(1),
            ClientId(1),
            PubSubMsg::Advertise(Advertisement::new(
                AdvId::new(ClientId(1), 0),
                Filter::builder().ge("x", 0).le("x", 20_000).build(),
            )),
        );
        let leaf = Subscription::new(SubId::new(ClientId(10), 0), group_filter(1, 0));
        let root = Subscription::new(SubId::new(ClientId(11), 0), group_filter(0, 0));
        net.client_send(
            BrokerId(4),
            ClientId(10),
            PubSubMsg::Subscribe(leaf.clone()),
        );
        net.client_send(
            BrokerId(4),
            ClientId(11),
            PubSubMsg::Subscribe(root.clone()),
        );
        // Both withdraw at once: the release of `leaf` (triggered by
        // root's retraction) races leaf's own unsubscription.
        net.enqueue_client(BrokerId(4), ClientId(11), PubSubMsg::Unsubscribe(root.id));
        net.enqueue_client(BrokerId(4), ClientId(10), PubSubMsg::Unsubscribe(leaf.id));
        net.run();
        for (id, b) in net.brokers() {
            assert_eq!(
                b.prt().iter().count(),
                0,
                "stale PRT rows at {id} after crossing unsubscribes ({config:?})"
            );
        }
        assert!(delivery_set(&mut net, BrokerId(1), ClientId(1), 1_100, 9_001).is_empty());
    }
}

/// The reverse crossing: the leaf's unsubscribe is queued *before*
/// the root's, so the release fires for an entry whose retraction is
/// already in flight upstream of it.
#[test]
fn crossing_leaf_then_root_unsubscribe_cancel() {
    for config in [
        BrokerConfig::covering(),
        BrokerConfig::covering_precise_release(),
    ] {
        let mut net = SyncNet::builder()
            .overlay(Topology::chain(4))
            .options(config)
            .start();
        net.client_send(
            BrokerId(1),
            ClientId(1),
            PubSubMsg::Advertise(Advertisement::new(
                AdvId::new(ClientId(1), 0),
                Filter::builder().ge("x", 0).le("x", 20_000).build(),
            )),
        );
        let leaf = Subscription::new(SubId::new(ClientId(10), 0), group_filter(2, 3));
        let root = Subscription::new(SubId::new(ClientId(11), 0), group_filter(0, 1));
        net.client_send(
            BrokerId(4),
            ClientId(10),
            PubSubMsg::Subscribe(leaf.clone()),
        );
        net.client_send(
            BrokerId(3),
            ClientId(11),
            PubSubMsg::Subscribe(root.clone()),
        );
        net.enqueue_client(BrokerId(4), ClientId(10), PubSubMsg::Unsubscribe(leaf.id));
        net.enqueue_client(BrokerId(3), ClientId(11), PubSubMsg::Unsubscribe(root.id));
        net.run();
        for (id, b) in net.brokers() {
            assert_eq!(
                b.prt().iter().count(),
                0,
                "stale PRT rows at {id} after crossing unsubscribes ({config:?})"
            );
        }
        assert!(delivery_set(&mut net, BrokerId(1), ClientId(1), 2_100, 9_002).is_empty());
    }
}
