//! The three PRT cases of the paper's Sec. 4.4, exercised one by one
//! for a moving advertisement `adv` with `RouteS2T = <B1 ... B5>`:
//!
//! - **Case 1**: `sub.lasthop = Bx ∉ RouteS2T` — the subscription came
//!   from off-path; it must additionally be forwarded toward the
//!   advertisement's new direction (`RouteS2T.suc(Bl)`).
//! - **Case 2**: `sub.lasthop = RouteS2T.suc(Bl)` — the subscriber
//!   lies toward the target; after the move the entry is stale and is
//!   removed unless another advertisement justifies it.
//! - **Case 3**: `sub.lasthop = RouteS2T.pre(Bl)` — the subscription
//!   is justified by *another* advertisement; it too must be forwarded
//!   toward the new direction if not already.
//!
//! Each case is built as a minimal overlay, the reconfiguration is
//! driven through the broker pending-configuration API (as the
//! movement protocol does), and the post-commit routing is validated
//! by actually routing publications.

use transmob_broker::{BrokerConfig, Hop, PubSubMsg, SyncNet, Topology};
use transmob_pubsub::{
    AdvId, Advertisement, BrokerId, ClientId, Filter, MoveId, PubId, Publication, PublicationMsg,
    SubId, Subscription,
};

fn b(i: u32) -> BrokerId {
    BrokerId(i)
}
fn c(i: u64) -> ClientId {
    ClientId(i)
}
fn range(lo: i64, hi: i64) -> Filter {
    Filter::builder().ge("x", lo).le("x", hi).build()
}

/// Installs pendings for `adv` along the chain `1..=5` (publisher
/// moving B1 → B5), runs the Sec. 4.4 pull fix-ups, and commits
/// hop-by-hop from the source — returning the net ready for
/// post-commit validation.
fn reconfigure_adv_move(net: &mut SyncNet, a: &Advertisement) {
    let m = MoveId(77);
    // Prepare pass (target → source, as the approval message walks).
    net.broker_mut(b(5))
        .install_pending_adv(a, m, Hop::Client(c(1)), Some(b(4)));
    net.broker_mut(b(4))
        .install_pending_adv(a, m, Hop::Broker(b(5)), Some(b(3)));
    net.broker_mut(b(3))
        .install_pending_adv(a, m, Hop::Broker(b(4)), Some(b(2)));
    net.broker_mut(b(2))
        .install_pending_adv(a, m, Hop::Broker(b(3)), Some(b(1)));
    net.broker_mut(b(1))
        .install_pending_adv(a, m, Hop::Broker(b(2)), None);
    // Fix-ups: pull intersecting subscriptions toward the new
    // direction at every path broker.
    for (broker, toward) in [(1u32, 2u32), (2, 3), (3, 4), (4, 5)] {
        net.with_broker(b(broker), |br, out| {
            br.pull_subs_toward(a.id, b(toward), out)
        });
    }
    // Commit pass (source → target, as the state transfer walks).
    for i in 1..=5u32 {
        net.with_broker(b(i), |br, out| br.commit_move(m, out));
    }
}

#[test]
fn case1_offpath_subscriber_is_pulled_toward_new_location() {
    // B3 has an off-path branch to B6 hosting the subscriber: its
    // subscription's lasthop at B3 is B6 ∉ RouteS2T.
    let topo = Topology::from_edges(
        (1..=6).map(b).collect::<Vec<_>>(),
        vec![
            (b(1), b(2)),
            (b(2), b(3)),
            (b(3), b(4)),
            (b(4), b(5)),
            (b(3), b(6)),
        ],
    )
    .unwrap();
    let mut net = SyncNet::builder()
        .overlay(topo)
        .options(BrokerConfig::plain())
        .start();
    let a = Advertisement::new(AdvId::new(c(1), 0), range(0, 100));
    net.client_send(b(1), c(1), PubSubMsg::Advertise(a.clone()));
    let s = Subscription::new(SubId::new(c(2), 0), range(0, 100));
    net.client_send(b(6), c(2), PubSubMsg::Subscribe(s.clone()));
    // Pre-move: the subscription extends B6 → B3 → B2 → B1 (toward the
    // adv), but NOT toward B4/B5.
    assert!(net.broker(b(1)).prt().get(s.id).is_some());
    assert!(net.broker(b(4)).prt().get(s.id).is_none());

    reconfigure_adv_move(&mut net, &a);

    // Post-move: case 1 forwarded the subscription toward B5, so a
    // publication from the new location reaches the subscriber.
    net.client_send(
        b(5),
        c(1),
        PubSubMsg::Publish(PublicationMsg::new(
            PubId(1),
            c(1),
            Publication::new().with("x", 50),
        )),
    );
    let d = net.take_deliveries();
    assert_eq!(d.len(), 1, "off-path subscriber unreachable after move");
    assert_eq!(d[0].client, c(2));
    assert_eq!(d[0].broker, b(6));
}

#[test]
fn case2_stale_entry_toward_target_is_pruned_on_commit() {
    // The subscriber sits at B5 (the target side): pre-move its
    // subscription extends B5 → ... → B1 toward the adv; post-move
    // those entries are stale (the publisher is co-located now) and
    // the commit pass prunes them.
    let mut net = SyncNet::builder()
        .overlay(Topology::chain(5))
        .options(BrokerConfig::plain())
        .start();
    let a = Advertisement::new(AdvId::new(c(1), 0), range(0, 100));
    net.client_send(b(1), c(1), PubSubMsg::Advertise(a.clone()));
    let s = Subscription::new(SubId::new(c(2), 0), range(0, 100));
    net.client_send(b(5), c(2), PubSubMsg::Subscribe(s.clone()));
    // At B3 the entry's lasthop is B4 = RouteS2T.suc(B3): case 2.
    assert_eq!(
        net.broker(b(3)).prt().get(s.id).unwrap().lasthop,
        Hop::Broker(b(4))
    );

    reconfigure_adv_move(&mut net, &a);

    // "Unless sub intersects an advertisement besides adv, it is
    // removed from the PRT": no other adv exists, so the stale tail
    // B1..B4 is gone; only the access broker keeps the subscription.
    for i in 1..=4u32 {
        assert!(
            net.broker(b(i)).prt().get(s.id).is_none(),
            "stale case-2 entry kept at B{i}"
        );
    }
    assert!(net.broker(b(5)).prt().get(s.id).is_some());
    // Routing still works from the new location.
    net.client_send(
        b(5),
        c(1),
        PubSubMsg::Publish(PublicationMsg::new(
            PubId(1),
            c(1),
            Publication::new().with("x", 50),
        )),
    );
    assert_eq!(net.take_deliveries().len(), 1);
}

#[test]
fn case2_entry_kept_when_another_advertisement_justifies_it() {
    // Same as case 2, but a second (stationary) publisher at B1 also
    // intersects the subscription — the entries must survive the
    // commit-pass prune.
    let mut net = SyncNet::builder()
        .overlay(Topology::chain(5))
        .options(BrokerConfig::plain())
        .start();
    let a = Advertisement::new(AdvId::new(c(1), 0), range(0, 100));
    net.client_send(b(1), c(1), PubSubMsg::Advertise(a.clone()));
    let other = Advertisement::new(AdvId::new(c(9), 0), range(0, 100));
    net.client_send(b(1), c(9), PubSubMsg::Advertise(other));
    let s = Subscription::new(SubId::new(c(2), 0), range(0, 100));
    net.client_send(b(5), c(2), PubSubMsg::Subscribe(s.clone()));

    reconfigure_adv_move(&mut net, &a);

    // The stationary publisher still justifies the path entries.
    for i in 1..=5u32 {
        assert!(
            net.broker(b(i)).prt().get(s.id).is_some(),
            "entry wrongly pruned at B{i}"
        );
    }
    // And both directions still deliver.
    net.client_send(
        b(1),
        c(9),
        PubSubMsg::Publish(PublicationMsg::new(
            PubId(1),
            c(9),
            Publication::new().with("x", 10),
        )),
    );
    net.client_send(
        b(5),
        c(1),
        PubSubMsg::Publish(PublicationMsg::new(
            PubId(2),
            c(1),
            Publication::new().with("x", 20),
        )),
    );
    assert_eq!(net.take_deliveries().len(), 2);
}

#[test]
fn case3_subscription_from_source_direction_forwarded_onward() {
    // The subscriber sits at B1 (the source side) and its subscription
    // is also justified by a second advertisement hanging at B1: at B2
    // the entry's lasthop is B1 = RouteS2T.pre(B2): case 3. After the
    // move it must be forwarded toward B5.
    let mut net = SyncNet::builder()
        .overlay(Topology::chain(5))
        .options(BrokerConfig::plain())
        .start();
    let a = Advertisement::new(AdvId::new(c(1), 0), range(0, 100));
    net.client_send(b(1), c(1), PubSubMsg::Advertise(a.clone()));
    let other = Advertisement::new(AdvId::new(c(9), 0), range(50, 200));
    net.client_send(b(1), c(9), PubSubMsg::Advertise(other));
    let s = Subscription::new(SubId::new(c(2), 0), range(0, 100));
    net.client_send(b(1), c(2), PubSubMsg::Subscribe(s.clone()));
    // Pre-move the subscription never leaves B1 (both advs are local).
    assert!(net.broker(b(2)).prt().get(s.id).is_none());

    reconfigure_adv_move(&mut net, &a);

    // Case 1/3 fix-ups extended the subscription along the path.
    for i in 1..=5u32 {
        assert!(
            net.broker(b(i)).prt().get(s.id).is_some(),
            "case-3 subscription missing at B{i}"
        );
    }
    // A publication from the relocated publisher reaches B1's client.
    net.client_send(
        b(5),
        c(1),
        PubSubMsg::Publish(PublicationMsg::new(
            PubId(1),
            c(1),
            Publication::new().with("x", 60),
        )),
    );
    let d = net.take_deliveries();
    assert_eq!(d.len(), 1);
    assert_eq!(d[0].broker, b(1));
}

/// What a movement records for rollback at a path broker is the list
/// [`BrokerCore::pull_subs_toward`] returns: the subscriptions the pull
/// put on the link. Checked here against the before/after difference
/// of `sent_to` over the whole PRT, without covering and with active
/// covering in both id orders (a covered candidate is quenched, or
/// forwarded and then retracted in favour of the covering one; neither
/// may be reported). Then the abort path of a moving advertisement:
/// dropping the shadow configuration and pruning exactly the reported
/// links returns every table of the overlay to its pre-movement rows.
///
/// [`BrokerCore::pull_subs_toward`]: transmob_broker::BrokerCore::pull_subs_toward
#[test]
fn pull_reports_the_links_it_added_and_abort_undoes_exactly_those() {
    let m = MoveId(78);
    for config in [BrokerConfig::plain(), BrokerConfig::covering()] {
        for (wide, narrow) in [(2u64, 3u64), (3, 2)] {
            let mut net = SyncNet::builder()
                .overlay(Topology::chain(5))
                .options(config)
                .start();
            let a = Advertisement::new(AdvId::new(c(1), 0), range(0, 100));
            net.client_send(b(1), c(1), PubSubMsg::Advertise(a.clone()));
            // Both subscribers sit at B3, mid-path: their rows point at
            // the publisher (B2) and not yet toward the target (B4).
            let s_wide = Subscription::new(SubId::new(c(wide), 0), range(0, 100));
            let s_narrow = Subscription::new(SubId::new(c(narrow), 0), range(10, 20));
            net.client_send(b(3), c(wide), PubSubMsg::Subscribe(s_wide.clone()));
            net.client_send(b(3), c(narrow), PubSubMsg::Subscribe(s_narrow.clone()));
            let before: Vec<_> = (1..=5u32)
                .map(|i| {
                    let br = net.broker(b(i));
                    (br.srt().clone(), br.prt().clone())
                })
                .collect();

            // Prepare pass of the publisher's move B1 -> B5, recording
            // the pulls as the movement layer does.
            net.broker_mut(b(5))
                .install_pending_adv(&a, m, Hop::Client(c(1)), Some(b(4)));
            let mut fixups: Vec<(u32, SubId, BrokerId)> = Vec::new();
            for (i, next, prev) in [
                (4u32, 5u32, Some(3u32)),
                (3, 4, Some(2)),
                (2, 3, Some(1)),
                (1, 2, None),
            ] {
                net.broker_mut(b(i))
                    .install_pending_adv(&a, m, Hop::Broker(b(next)), prev.map(b));
                let lacking: Vec<SubId> = (net.broker(b(i)).prt().iter())
                    .filter(|(_, e)| !e.sent_to.contains(&b(next)))
                    .map(|(id, _)| *id)
                    .collect();
                let pulled =
                    net.with_broker(b(i), |br, out| br.pull_subs_toward(a.id, b(next), out));
                let gained: Vec<SubId> = (lacking.into_iter())
                    .filter(|id| {
                        let e = net.broker(b(i)).prt().get(*id);
                        e.is_some_and(|e| e.sent_to.contains(&b(next)))
                    })
                    .collect();
                assert_eq!(pulled, gained, "pull report at B{i} ({config:?})");
                fixups.extend(pulled.into_iter().map(|id| (i, id, b(next))));
            }
            // B3 pulled toward B4; with covering only the wide
            // subscription stays on the link.
            let at_b3: Vec<SubId> = (fixups.iter())
                .filter(|(i, ..)| *i == 3)
                .map(|(_, id, _)| *id)
                .collect();
            if config.sub_covering.enabled() {
                assert_eq!(at_b3, vec![s_wide.id]);
            } else {
                let mut both = vec![s_wide.id, s_narrow.id];
                both.sort();
                assert_eq!(at_b3, both);
            }

            // Abort pass, target -> source.
            for i in (1..=5u32).rev() {
                net.with_broker(b(i), |br, out| {
                    br.abort_move(m, &mut Vec::new());
                    for (_, id, n) in fixups.iter().filter(|(at, ..)| *at == i) {
                        br.prune_sub_link(*id, *n, out);
                    }
                });
            }
            for (i, (srt, prt)) in (1..=5u32).zip(&before) {
                let br = net.broker(b(i));
                br.check_invariants();
                assert!(br.pending_moves().is_empty());
                assert_eq!(br.srt(), srt, "SRT of B{i} after abort ({config:?})");
                assert_eq!(br.prt(), prt, "PRT of B{i} after abort ({config:?})");
            }
        }
    }
}
