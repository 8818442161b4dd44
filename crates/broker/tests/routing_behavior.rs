//! Behavioural tests of the routing substrate: flooding, subscription
//! routing, publication delivery, covering quench/retract/release
//! cascades, and the pull/prune consistency rules — all exercised over
//! the deterministic `SyncNet`.

use transmob_broker::{
    BrokerConfig, BrokerCore, BrokerOutput, CoveringMode, Hop, MsgKind, PubSubMsg, SyncNet,
    Topology, MAX_PUB_HOPS,
};
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
fn advertisement_floods_entire_overlay() {
    let mut net = SyncNet::builder()
        .overlay(Topology::chain(5))
        .options(BrokerConfig::plain())
        .start();
    net.client_send(b(1), c(1), PubSubMsg::Advertise(adv(1, 0, range(0, 10))));
    for i in 1..=5 {
        assert_eq!(net.broker(b(i)).srt().len(), 1, "broker {i} missing adv");
    }
    // lasthops point back toward the advertiser
    assert_eq!(
        net.broker(b(3))
            .srt()
            .get(AdvId::new(c(1), 0))
            .unwrap()
            .lasthop,
        Hop::Broker(b(2))
    );
    assert_eq!(
        net.broker(b(1))
            .srt()
            .get(AdvId::new(c(1), 0))
            .unwrap()
            .lasthop,
        Hop::Client(c(1))
    );
    // 4 overlay hops + 1 client injection
    assert_eq!(net.traffic()[&MsgKind::Advertise], 5);
}

#[test]
fn subscription_routes_only_toward_intersecting_advertisement() {
    // Star: advertiser on leaf 2, subscriber on leaf 3, bystander leaf 4.
    let mut net = SyncNet::builder()
        .overlay(Topology::star(4))
        .options(BrokerConfig::plain())
        .start();
    net.client_send(b(2), c(1), PubSubMsg::Advertise(adv(1, 0, range(0, 10))));
    net.client_send(b(3), c(2), PubSubMsg::Subscribe(sub(2, 0, range(5, 15))));
    // Subscription installed at B3 (access), B1 (centre), B2 (advertiser),
    // but NOT at bystander B4.
    assert_eq!(net.broker(b(3)).prt().len(), 1);
    assert_eq!(net.broker(b(1)).prt().len(), 1);
    assert_eq!(net.broker(b(2)).prt().len(), 1);
    assert_eq!(net.broker(b(4)).prt().len(), 0);
}

#[test]
fn non_intersecting_subscription_stays_local() {
    let mut net = SyncNet::builder()
        .overlay(Topology::chain(3))
        .options(BrokerConfig::plain())
        .start();
    net.client_send(b(1), c(1), PubSubMsg::Advertise(adv(1, 0, range(0, 10))));
    net.client_send(b(3), c(2), PubSubMsg::Subscribe(sub(2, 0, range(50, 60))));
    assert_eq!(net.broker(b(3)).prt().len(), 1); // stored at access broker
    assert_eq!(net.broker(b(2)).prt().len(), 0); // not propagated
}

#[test]
fn publication_delivered_end_to_end_exactly_once() {
    let mut net = SyncNet::builder()
        .overlay(Topology::chain(5))
        .options(BrokerConfig::plain())
        .start();
    net.client_send(b(1), c(1), PubSubMsg::Advertise(adv(1, 0, range(0, 100))));
    net.client_send(b(5), c(2), PubSubMsg::Subscribe(sub(2, 0, range(0, 50))));
    publish(&mut net, b(1), 1, 1, 25);
    let d = net.take_deliveries();
    assert_eq!(d.len(), 1);
    assert_eq!(d[0].client, c(2));
    assert_eq!(d[0].broker, b(5));
    // Non-matching publication is dropped en route.
    publish(&mut net, b(1), 1, 2, 75);
    assert!(net.take_deliveries().is_empty());
}

#[test]
fn publication_not_routed_into_empty_branches() {
    let mut net = SyncNet::builder()
        .overlay(Topology::star(4))
        .options(BrokerConfig::plain())
        .start();
    net.client_send(b(2), c(1), PubSubMsg::Advertise(adv(1, 0, range(0, 100))));
    net.client_send(b(3), c(2), PubSubMsg::Subscribe(sub(2, 0, range(0, 100))));
    net.reset_traffic();
    publish(&mut net, b(2), 1, 1, 10);
    // publish messages: client->B2, B2->B1, B1->B3 = 3; never to B4.
    assert_eq!(net.traffic()[&MsgKind::Publish], 3);
    assert_eq!(
        net.broker(b(4)).stats().handled.get(&MsgKind::Publish),
        None
    );
}

#[test]
fn multiple_matching_subs_of_one_client_deliver_once() {
    let mut net = SyncNet::builder()
        .overlay(Topology::chain(2))
        .options(BrokerConfig::plain())
        .start();
    net.client_send(b(1), c(1), PubSubMsg::Advertise(adv(1, 0, range(0, 100))));
    net.client_send(b(2), c(2), PubSubMsg::Subscribe(sub(2, 0, range(0, 50))));
    net.client_send(b(2), c(2), PubSubMsg::Subscribe(sub(2, 1, range(0, 30))));
    publish(&mut net, b(1), 1, 1, 10);
    assert_eq!(net.take_deliveries().len(), 1);
}

#[test]
fn two_subscribers_both_receive() {
    let mut net = SyncNet::builder()
        .overlay(Topology::star(4))
        .options(BrokerConfig::plain())
        .start();
    net.client_send(b(1), c(1), PubSubMsg::Advertise(adv(1, 0, range(0, 100))));
    net.client_send(b(2), c(2), PubSubMsg::Subscribe(sub(2, 0, range(0, 50))));
    net.client_send(b(3), c(3), PubSubMsg::Subscribe(sub(3, 0, range(0, 50))));
    publish(&mut net, b(1), 1, 1, 20);
    let mut clients: Vec<u64> = net.take_deliveries().iter().map(|d| d.client.0).collect();
    clients.sort_unstable();
    assert_eq!(clients, vec![2, 3]);
}

#[test]
fn publisher_does_not_receive_own_publication() {
    let mut net = SyncNet::builder()
        .overlay(Topology::chain(2))
        .options(BrokerConfig::plain())
        .start();
    net.client_send(b(1), c(1), PubSubMsg::Advertise(adv(1, 0, range(0, 100))));
    net.client_send(b(1), c(1), PubSubMsg::Subscribe(sub(1, 0, range(0, 100))));
    publish(&mut net, b(1), 1, 1, 10);
    assert!(net.take_deliveries().is_empty());
}

#[test]
fn unsubscribe_retracts_along_path() {
    let mut net = SyncNet::builder()
        .overlay(Topology::chain(4))
        .options(BrokerConfig::plain())
        .start();
    net.client_send(b(1), c(1), PubSubMsg::Advertise(adv(1, 0, range(0, 100))));
    net.client_send(b(4), c(2), PubSubMsg::Subscribe(sub(2, 0, range(0, 100))));
    assert_eq!(net.broker(b(1)).prt().len(), 1);
    net.client_send(b(4), c(2), PubSubMsg::Unsubscribe(SubId::new(c(2), 0)));
    for i in 1..=4 {
        assert_eq!(net.broker(b(i)).prt().len(), 0, "stale entry at B{i}");
    }
    publish(&mut net, b(1), 1, 1, 10);
    assert!(net.take_deliveries().is_empty());
}

#[test]
fn unadvertise_retracts_and_prunes_subscriptions() {
    let mut net = SyncNet::builder()
        .overlay(Topology::chain(3))
        .options(BrokerConfig::plain())
        .start();
    net.client_send(b(1), c(1), PubSubMsg::Advertise(adv(1, 0, range(0, 100))));
    net.client_send(b(3), c(2), PubSubMsg::Subscribe(sub(2, 0, range(0, 100))));
    // Sub reached B1.
    assert_eq!(net.broker(b(1)).prt().len(), 1);
    net.client_send(b(1), c(1), PubSubMsg::Unadvertise(AdvId::new(c(1), 0)));
    for i in 1..=3 {
        assert_eq!(net.broker(b(i)).srt().len(), 0, "stale adv at B{i}");
    }
    // Prune: subscription withdrawn from links that pointed at the adv,
    // but retained at the subscriber's access broker.
    assert_eq!(net.broker(b(1)).prt().len(), 0);
    assert_eq!(net.broker(b(2)).prt().len(), 0);
    assert_eq!(net.broker(b(3)).prt().len(), 1);
}

#[test]
fn late_advertisement_pulls_existing_subscriptions() {
    let mut net = SyncNet::builder()
        .overlay(Topology::chain(4))
        .options(BrokerConfig::plain())
        .start();
    // Subscriber first: no adv yet, sub stays local.
    net.client_send(b(4), c(2), PubSubMsg::Subscribe(sub(2, 0, range(0, 100))));
    assert_eq!(net.broker(b(3)).prt().len(), 0);
    // Advertiser appears at the far end: flooding pulls the sub.
    net.client_send(b(1), c(1), PubSubMsg::Advertise(adv(1, 0, range(0, 100))));
    assert_eq!(net.broker(b(1)).prt().len(), 1);
    publish(&mut net, b(1), 1, 1, 42);
    assert_eq!(net.take_deliveries().len(), 1);
}

#[test]
fn second_advertisement_does_not_duplicate_deliveries() {
    let mut net = SyncNet::builder()
        .overlay(Topology::chain(3))
        .options(BrokerConfig::plain())
        .start();
    net.client_send(b(1), c(1), PubSubMsg::Advertise(adv(1, 0, range(0, 100))));
    net.client_send(b(1), c(1), PubSubMsg::Advertise(adv(1, 1, range(0, 100))));
    net.client_send(b(3), c(2), PubSubMsg::Subscribe(sub(2, 0, range(0, 100))));
    publish(&mut net, b(1), 1, 1, 42);
    assert_eq!(net.take_deliveries().len(), 1);
}

// ----- covering behaviour -------------------------------------------

fn covering_net(n: u32) -> SyncNet {
    SyncNet::builder()
        .overlay(Topology::chain(n))
        .options(BrokerConfig {
            sub_covering: CoveringMode::Active,
            adv_covering: CoveringMode::Off,
            conservative_release: false,
            ..Default::default()
        })
        .start()
}

#[test]
fn covered_subscription_is_quenched() {
    let mut net = covering_net(4);
    net.client_send(b(1), c(9), PubSubMsg::Advertise(adv(9, 0, range(0, 100))));
    // Root (covering) subscription from client 1 at B4.
    net.client_send(b(4), c(1), PubSubMsg::Subscribe(sub(1, 0, range(0, 100))));
    net.reset_traffic();
    // Covered subscription from client 2, also at B4: quenched at B4.
    net.client_send(b(4), c(2), PubSubMsg::Subscribe(sub(2, 0, range(10, 20))));
    // Only the client→B4 injection; no overlay propagation.
    assert_eq!(net.traffic()[&MsgKind::Subscribe], 1);
    assert_eq!(net.broker(b(3)).prt().len(), 1);
    // Publication still reaches both subscribers via the covering sub?
    // No — the covered sub exists only at B4; matching happens there.
    publish(&mut net, b(1), 9, 1, 15);
    let mut clients: Vec<u64> = net.take_deliveries().iter().map(|d| d.client.0).collect();
    clients.sort_unstable();
    assert_eq!(clients, vec![1, 2]);
}

#[test]
fn active_covering_retracts_previously_forwarded_subs() {
    let mut net = covering_net(3);
    net.client_send(b(1), c(9), PubSubMsg::Advertise(adv(9, 0, range(0, 100))));
    // Narrow sub first: propagates to B1.
    net.client_send(b(3), c(1), PubSubMsg::Subscribe(sub(1, 0, range(10, 20))));
    assert_eq!(net.broker(b(1)).prt().len(), 1);
    net.reset_traffic();
    // Covering sub second: propagates AND retracts the narrow one.
    net.client_send(b(3), c(2), PubSubMsg::Subscribe(sub(2, 0, range(0, 100))));
    assert!(net.traffic()[&MsgKind::Unsubscribe] >= 2); // retractions en route
                                                        // Narrow sub now lives only at its access broker.
    assert_eq!(net.broker(b(1)).prt().len(), 1);
    assert!(net.broker(b(1)).prt().get(SubId::new(c(2), 0)).is_some());
    assert!(net.broker(b(1)).prt().get(SubId::new(c(1), 0)).is_none());
    // Deliveries still correct for both.
    publish(&mut net, b(1), 9, 1, 15);
    let mut clients: Vec<u64> = net.take_deliveries().iter().map(|d| d.client.0).collect();
    clients.sort_unstable();
    assert_eq!(clients, vec![1, 2]);
}

#[test]
fn unsubscribing_root_releases_quenched_subs() {
    let mut net = covering_net(4);
    net.client_send(b(1), c(9), PubSubMsg::Advertise(adv(9, 0, range(0, 100))));
    // Root covering sub, then two covered subs (quenched).
    net.client_send(b(4), c(1), PubSubMsg::Subscribe(sub(1, 0, range(0, 100))));
    net.client_send(b(4), c(2), PubSubMsg::Subscribe(sub(2, 0, range(10, 20))));
    net.client_send(b(4), c(3), PubSubMsg::Subscribe(sub(3, 0, range(30, 40))));
    assert_eq!(net.broker(b(1)).prt().len(), 1);
    net.reset_traffic();
    // Root unsubscribes: the paper's pathological burst — the two
    // covered subs must now propagate to keep routing correct.
    net.client_send(b(4), c(1), PubSubMsg::Unsubscribe(SubId::new(c(1), 0)));
    assert_eq!(net.broker(b(1)).prt().len(), 2);
    // The release cost: 3 unsub hops + 1 injection, and 2 subs × 3 hops.
    assert!(net.traffic()[&MsgKind::Subscribe] >= 6);
    publish(&mut net, b(1), 9, 1, 35);
    let clients: Vec<u64> = net.take_deliveries().iter().map(|d| d.client.0).collect();
    assert_eq!(clients, vec![3]);
}

#[test]
fn covering_chain_workload_quenches_transitively() {
    let mut net = covering_net(3);
    net.client_send(b(1), c(9), PubSubMsg::Advertise(adv(9, 0, range(0, 100))));
    // chained: s1 ⊃ s2 ⊃ s3, issued broadest-first.
    net.client_send(b(3), c(1), PubSubMsg::Subscribe(sub(1, 0, range(0, 90))));
    net.reset_traffic();
    net.client_send(b(3), c(2), PubSubMsg::Subscribe(sub(2, 0, range(0, 50))));
    net.client_send(b(3), c(3), PubSubMsg::Subscribe(sub(3, 0, range(0, 20))));
    // Both quenched by s1: only the two injections.
    assert_eq!(net.traffic()[&MsgKind::Subscribe], 2);
}

#[test]
fn adv_covering_quenches_flood_and_release_on_unadvertise() {
    let mut net = SyncNet::builder()
        .overlay(Topology::chain(4))
        .options(BrokerConfig {
            sub_covering: CoveringMode::Off,
            adv_covering: CoveringMode::Active,
            conservative_release: false,
            ..Default::default()
        })
        .start();
    // Covering adv first.
    net.client_send(b(1), c(1), PubSubMsg::Advertise(adv(1, 0, range(0, 100))));
    net.reset_traffic();
    // Covered adv from the same broker: quenched immediately.
    net.client_send(b(1), c(2), PubSubMsg::Advertise(adv(2, 0, range(10, 20))));
    assert_eq!(net.traffic()[&MsgKind::Advertise], 1); // injection only
    assert_eq!(net.broker(b(4)).srt().len(), 1);
    net.reset_traffic();
    // Unadvertise the root: covered adv must now flood (the burst).
    net.client_send(b(1), c(1), PubSubMsg::Unadvertise(AdvId::new(c(1), 0)));
    assert_eq!(net.broker(b(4)).srt().len(), 1);
    assert!(net.broker(b(4)).srt().get(AdvId::new(c(2), 0)).is_some());
    assert!(net.traffic()[&MsgKind::Advertise] >= 3);
}

#[test]
fn subscription_routed_by_covering_sub_still_delivers_downstream() {
    // Quenched subs still receive because the covering sub routes the
    // publication all the way to the shared access broker.
    let mut net = covering_net(5);
    net.client_send(b(1), c(9), PubSubMsg::Advertise(adv(9, 0, range(0, 100))));
    net.client_send(b(5), c(1), PubSubMsg::Subscribe(sub(1, 0, range(0, 100))));
    net.client_send(b(5), c(2), PubSubMsg::Subscribe(sub(2, 0, range(40, 60))));
    publish(&mut net, b(1), 9, 1, 50);
    let mut clients: Vec<u64> = net.take_deliveries().iter().map(|d| d.client.0).collect();
    clients.sort_unstable();
    assert_eq!(clients, vec![1, 2]);
    publish(&mut net, b(1), 9, 2, 5);
    let clients: Vec<u64> = net.take_deliveries().iter().map(|d| d.client.0).collect();
    assert_eq!(clients, vec![1]);
}

// ----- pending-configuration (movement) hooks ------------------------

#[test]
fn pending_sub_config_routes_to_both_until_commit() {
    // Subscriber moves B4 → B1 on a chain; install pending configs by
    // hand (the protocol in transmob-core automates this).
    let mut net = SyncNet::builder()
        .overlay(Topology::chain(4))
        .options(BrokerConfig::plain())
        .start();
    net.client_send(b(4), c(1), PubSubMsg::Advertise(adv(1, 0, range(0, 100))));
    let s = sub(2, 0, range(0, 100));
    net.client_send(b(1), c(2), PubSubMsg::Subscribe(s.clone()));
    use transmob_pubsub::MoveId;
    let m = MoveId(1);
    // Route B1→B4: at B1 new lasthop is B2 ... at B4 new lasthop is client.
    net.broker_mut(b(1))
        .install_pending_sub(&s, m, Hop::Broker(b(2)), None);
    net.broker_mut(b(2))
        .install_pending_sub(&s, m, Hop::Broker(b(3)), Some(b(1)));
    net.broker_mut(b(3))
        .install_pending_sub(&s, m, Hop::Broker(b(4)), Some(b(2)));
    net.broker_mut(b(4))
        .install_pending_sub(&s, m, Hop::Client(c(2)), Some(b(3)));
    // During the window a publication reaches BOTH client locations
    // (the brokers deliver; the stubs dedupe by PubId).
    publish(&mut net, b(4), 1, 1, 10);
    let d = net.take_deliveries();
    let mut brokers: Vec<u32> = d.iter().map(|x| x.broker.0).collect();
    brokers.sort_unstable();
    assert_eq!(brokers, vec![1, 4]);
    // Commit everywhere: old path gone, new delivery only at B4.
    for i in 1..=4 {
        let mut outs = Vec::new();
        net.broker_mut(b(i)).commit_move(m, &mut outs);
        assert!(outs.is_empty(), "sub move commit should not prune");
    }
    publish(&mut net, b(4), 1, 2, 10);
    let d = net.take_deliveries();
    assert_eq!(d.len(), 1);
    assert_eq!(d[0].broker, b(4));
    // Unsubscribe from the new location cleans every broker.
    net.client_send(b(4), c(2), PubSubMsg::Unsubscribe(s.id));
    for i in 1..=4 {
        assert_eq!(net.broker(b(i)).prt().len(), 0, "stale sub at B{i}");
    }
}

#[test]
fn pending_sub_abort_restores_original_routing() {
    let mut net = SyncNet::builder()
        .overlay(Topology::chain(3))
        .options(BrokerConfig::plain())
        .start();
    net.client_send(b(3), c(1), PubSubMsg::Advertise(adv(1, 0, range(0, 100))));
    let s = sub(2, 0, range(0, 100));
    net.client_send(b(1), c(2), PubSubMsg::Subscribe(s.clone()));
    use transmob_pubsub::MoveId;
    let m = MoveId(7);
    net.broker_mut(b(1))
        .install_pending_sub(&s, m, Hop::Broker(b(2)), None);
    net.broker_mut(b(2))
        .install_pending_sub(&s, m, Hop::Broker(b(3)), Some(b(1)));
    net.broker_mut(b(3))
        .install_pending_sub(&s, m, Hop::Client(c(2)), Some(b(2)));
    let before = net.broker(b(1)).prt().get(s.id).unwrap().lasthop;
    for i in 1..=3 {
        net.broker_mut(b(i)).abort_move(m, &mut Vec::new());
    }
    // Entry unchanged at B1/B2; created entry at B3 removed.
    assert_eq!(net.broker(b(1)).prt().get(s.id).unwrap().lasthop, before);
    assert!(net.broker(b(1)).prt().get(s.id).unwrap().pending.is_none());
    // B3 had an entry only if the sub had propagated there; it did
    // (adv at B3), so the pending flag is simply cleared.
    assert!(net.broker(b(3)).prt().get(s.id).is_some());
    publish(&mut net, b(3), 1, 1, 10);
    let d = net.take_deliveries();
    assert_eq!(d.len(), 1);
    assert_eq!(d[0].broker, b(1));
}

#[test]
fn pending_created_entry_removed_on_abort() {
    // No advertisement: subscription never propagates, so path brokers
    // get created-by-move entries which abort must remove.
    let mut net = SyncNet::builder()
        .overlay(Topology::chain(3))
        .options(BrokerConfig::plain())
        .start();
    let s = sub(2, 0, range(0, 100));
    net.client_send(b(1), c(2), PubSubMsg::Subscribe(s.clone()));
    use transmob_pubsub::MoveId;
    let m = MoveId(3);
    net.broker_mut(b(2))
        .install_pending_sub(&s, m, Hop::Broker(b(3)), Some(b(1)));
    assert!(net.broker(b(2)).prt().get(s.id).is_some());
    net.broker_mut(b(2)).abort_move(m, &mut Vec::new());
    assert!(net.broker(b(2)).prt().get(s.id).is_none());
}

#[test]
fn pending_adv_move_with_commit_prunes_stale_sub_paths() {
    // Publisher moves B1 → B4; a subscriber sits at B3 (so its sub,
    // with lasthop toward B3, is case 1/3 material).
    let mut net = SyncNet::builder()
        .overlay(Topology::chain(4))
        .options(BrokerConfig::plain())
        .start();
    let a = adv(1, 0, range(0, 100));
    net.client_send(b(1), c(1), PubSubMsg::Advertise(a.clone()));
    let s = sub(2, 0, range(0, 100));
    net.client_send(b(3), c(2), PubSubMsg::Subscribe(s.clone()));
    // Sub propagated toward the adv: B3 → B2 → B1.
    assert!(net.broker(b(1)).prt().get(s.id).is_some());
    use transmob_pubsub::MoveId;
    let m = MoveId(11);
    // Prepare along route <B1,B2,B3,B4>: new adv lasthop = suc(B).
    net.broker_mut(b(1))
        .install_pending_adv(&a, m, Hop::Broker(b(2)), None);
    net.broker_mut(b(2))
        .install_pending_adv(&a, m, Hop::Broker(b(3)), Some(b(1)));
    net.broker_mut(b(3))
        .install_pending_adv(&a, m, Hop::Broker(b(4)), Some(b(2)));
    net.broker_mut(b(4))
        .install_pending_adv(&a, m, Hop::Client(c(1)), Some(b(3)));
    // Case 1/3 fixups: pull intersecting subs toward the target.
    net.with_broker(b(1), |br, out| br.pull_subs_toward(a.id, b(2), out));
    net.with_broker(b(2), |br, out| br.pull_subs_toward(a.id, b(3), out));
    net.with_broker(b(3), |br, out| br.pull_subs_toward(a.id, b(4), out));
    // The subscription must now extend to B4 so post-move publications
    // route.
    assert!(net.broker(b(4)).prt().get(s.id).is_some());
    // Commit hop-by-hop.
    for i in [4u32, 3, 2, 1] {
        net.with_broker(b(i), |br, out| br.commit_move(m, out));
    }
    // Publications from the new location reach the subscriber.
    publish(&mut net, b(4), 1, 1, 10);
    let d = net.take_deliveries();
    assert_eq!(d.len(), 1);
    assert_eq!(d[0].broker, b(3));
    // And the stale tail at B1 was pruned: B1 should no longer hold
    // the subscription (no adv lies that way anymore).
    assert!(net.broker(b(1)).prt().get(s.id).is_none());
}

#[test]
fn broker_stats_count_and_anomalies() {
    let mut net = SyncNet::builder()
        .overlay(Topology::chain(2))
        .options(BrokerConfig::plain())
        .start();
    // An unsubscribe for an unknown id is a tolerated stale retraction.
    net.client_send(b(1), c(1), PubSubMsg::Unsubscribe(SubId::new(c(1), 0)));
    assert_eq!(net.broker(b(1)).stats().reroutes, 1);
    assert_eq!(net.broker(b(1)).stats().anomalies, 0);
    net.client_send(b(1), c(1), PubSubMsg::Advertise(adv(1, 0, range(0, 1))));
    assert_eq!(net.broker(b(1)).stats().handled[&MsgKind::Advertise], 1);
}

#[test]
fn broker_core_is_send_and_clonable() {
    fn assert_send<T: Send>() {}
    assert_send::<BrokerCore>();
    let core = BrokerCore::new(b(1), [b(2)], BrokerConfig::covering());
    let _clone = core.clone();
}

/// A subscription is one filter body from the client's message to
/// the copy forwarded to the next broker: the row, and the `Subscribe`
/// sent on, hold the handle that arrived.
#[test]
fn forwarded_subscription_shares_the_arriving_filter_body() {
    let mut core = BrokerCore::new(b(2), [b(1), b(3)], BrokerConfig::covering());
    core.attach_client(c(7));
    core.handle(
        Hop::Broker(b(1)),
        PubSubMsg::Advertise(adv(1, 0, range(0, 100))),
    );
    let s = sub(7, 0, range(5, 15));
    let out = core.handle(Hop::Client(c(7)), PubSubMsg::Subscribe(s.clone()));
    let [BrokerOutput::ToBroker(to, PubSubMsg::Subscribe(forwarded))] = &out[..] else {
        panic!("expected one forwarded subscription, got {out:?}");
    };
    assert_eq!(*to, b(1));
    assert!(Filter::ptr_eq(&forwarded.filter, &s.filter));
    assert!(Filter::ptr_eq(
        &core.prt().get(s.id).unwrap().item.filter,
        &s.filter
    ));
    // The same subscription arriving again, decoded apart (an equal
    // filter on another body), is the idempotent duplicate.
    let again = sub(7, 0, range(5, 15));
    assert!(!Filter::ptr_eq(&again.filter, &s.filter));
    assert!(core
        .handle(Hop::Client(c(7)), PubSubMsg::Subscribe(again))
        .is_empty());
    assert_eq!(core.stats().anomalies, 0);
}

/// Ids are bound to immutable filters: a second subscription under a
/// live id with a genuinely different filter is reported, and the
/// original row kept.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "re-issued with a different filter")]
fn resubscription_with_a_different_filter_is_detected() {
    let mut core = BrokerCore::new(b(1), [b(2)], BrokerConfig::plain());
    core.attach_client(c(7));
    core.handle(
        Hop::Client(c(7)),
        PubSubMsg::Subscribe(sub(7, 0, range(5, 15))),
    );
    core.handle(
        Hop::Client(c(7)),
        PubSubMsg::Subscribe(sub(7, 0, range(5, 16))),
    );
}

/// One publication matching many rows whose active, pending and
/// alternate hops overlap each other and the arrival direction: the
/// emitted sequence is brokers ascending, then clients ascending, each
/// destination once, the arrival direction never. The simulator's
/// event order, and with it every virtual latency and message count of
/// the benchmark, hangs on exactly this order.
#[test]
fn publication_fanout_order_over_active_pending_and_alternate_hops() {
    let mut core = BrokerCore::new(
        b(5),
        [b(1), b(2), b(3), b(4), b(6)],
        BrokerConfig::plain().with_multipath(),
    );
    for cl in [50, 51, 52] {
        core.attach_client(c(cl));
    }
    // No advertisement is known, so subscriptions install rows and
    // forward nowhere.
    let mut subscribe = |from: Hop, s: &Subscription| {
        assert!(core
            .handle(from, PubSubMsg::Subscribe(s.clone()))
            .is_empty());
    };
    let hit = |client: u64| sub(client, 0, range(0, 10));
    subscribe(Hop::Client(c(51)), &hit(51));
    subscribe(Hop::Client(c(50)), &hit(50));
    subscribe(Hop::Broker(b(4)), &hit(60));
    // Two redundant routes beside the primary.
    for from in [2, 6, 1] {
        subscribe(Hop::Broker(b(from)), &hit(61));
    }
    subscribe(Hop::Broker(b(3)), &hit(62));
    subscribe(Hop::Broker(b(2)), &hit(63));
    for from in [4, 3] {
        subscribe(Hop::Broker(b(from)), &hit(64));
    }
    // A row the publication does not match, on a direction of its own.
    subscribe(Hop::Broker(b(1)), &sub(70, 0, range(100, 110)));
    // Shadow configurations of two in-flight movements: one toward a
    // neighbour, one toward a local client no row names otherwise.
    core.install_pending_sub(&hit(62), MoveId(1), Hop::Broker(b(6)), None);
    core.install_pending_sub(&hit(63), MoveId(2), Hop::Client(c(52)), None);

    let publication = |id: u64, hops: u32| {
        let mut p = PublicationMsg::new(PubId(id), c(9), Publication::new().with("x", 5));
        p.hops = hops;
        p
    };
    let fanout = |brokers: &[u32], clients: &[u64], arrived: &PublicationMsg| {
        let mut fwd = arrived.clone();
        fwd.hops += 1;
        let to_brokers = brokers
            .iter()
            .map(|n| BrokerOutput::ToBroker(b(*n), PubSubMsg::Publish(fwd.clone())));
        let to_clients = clients
            .iter()
            .map(|cl| BrokerOutput::Deliver(c(*cl), arrived.clone()));
        to_brokers.chain(to_clients).collect::<Vec<_>>()
    };

    // From a neighbour that is the active hop of two rows.
    let p = publication(1, 1);
    assert_eq!(
        core.handle(Hop::Broker(b(2)), PubSubMsg::Publish(p.clone())),
        fanout(&[1, 3, 4, 6], &[50, 51, 52], &p)
    );
    // From a neighbour that is only ever an alternate or pending hop.
    let p = publication(2, 0);
    assert_eq!(
        core.handle(Hop::Broker(b(6)), PubSubMsg::Publish(p.clone())),
        fanout(&[1, 2, 3, 4], &[50, 51, 52], &p)
    );
    // From a local subscriber.
    let p = publication(3, 0);
    assert_eq!(
        core.handle(Hop::Client(c(50)), PubSubMsg::Publish(p.clone())),
        fanout(&[1, 2, 3, 4, 6], &[51, 52], &p)
    );
    // A second copy of the same publication is the dedup window's.
    assert!(core
        .handle(Hop::Broker(b(4)), PubSubMsg::Publish(p))
        .is_empty());
    // The hop backstop drops the broker half only, and counts it.
    let p = publication(4, MAX_PUB_HOPS);
    assert_eq!(core.stats().anomalies, 0);
    assert_eq!(
        core.handle(Hop::Broker(b(3)), PubSubMsg::Publish(p.clone())),
        fanout(&[], &[50, 51, 52], &p)
    );
    assert_eq!(core.stats().anomalies, 1);
    // A batch is the fold of its publications, in order.
    let (p5, p6) = (publication(5, 0), publication(6, 2));
    let batch = vec![
        PubSubMsg::Publish(p5.clone()),
        PubSubMsg::Publish(p6.clone()),
    ];
    let mut want = fanout(&[1, 2, 3, 6], &[50, 51, 52], &p5);
    want.extend(fanout(&[1, 2, 3, 6], &[50, 51, 52], &p6));
    let mut got = Vec::new();
    for msg in batch {
        core.handle_into(Hop::Broker(b(4)), msg, &mut got);
    }
    assert_eq!(got, want);
}

/// A retraction from a moving subscription's old direction withdraws
/// only the route the commit replaces: the row keeps its pending route
/// and commits on it, or, if the movement aborts, goes and is retracted
/// on the links it was forwarded over (a race two crossing movements
/// produce on real threads).
#[test]
fn retraction_during_a_subscription_move_spares_the_pending_route() {
    for commit in [true, false] {
        let mut core = BrokerCore::new(b(2), [b(1), b(3)], BrokerConfig::plain());
        core.handle(
            Hop::Broker(b(1)),
            PubSubMsg::Advertise(adv(1, 0, range(0, 100))),
        );
        let s = sub(2, 0, range(0, 100));
        let forwarded = core.handle(Hop::Broker(b(3)), PubSubMsg::Subscribe(s.clone()));
        assert_eq!(
            forwarded,
            [BrokerOutput::ToBroker(
                b(1),
                PubSubMsg::Subscribe(s.clone())
            )]
        );
        // The subscriber moves from B3's side to B1's; B3 retracts the
        // old route before the commit reaches B2.
        let m = MoveId(9);
        core.install_pending_sub(&s, m, Hop::Broker(b(1)), Some(b(3)));
        assert!(core
            .handle(Hop::Broker(b(3)), PubSubMsg::Unsubscribe(s.id))
            .is_empty());
        if commit {
            core.commit_move(m, &mut Vec::new());
            assert_eq!(
                core.prt().get(s.id).map(|e| e.lasthop),
                Some(Hop::Broker(b(1)))
            );
        } else {
            let mut retracted = Vec::new();
            core.abort_move(m, &mut retracted);
            assert!(core.prt().get(s.id).is_none());
            assert_eq!(
                retracted,
                [BrokerOutput::ToBroker(b(1), PubSubMsg::Unsubscribe(s.id))]
            );
        }
    }
}

/// The advertisement side of the case above behaves differently, and
/// this pins how: a retraction from the active side of an advertisement
/// row that carries a pending route removes the row, pending route and
/// all, and retracts it toward the post-commit hop; the movement's
/// later commit or abort finds nothing left to finish.
#[test]
fn an_unadvertise_from_the_active_side_drops_a_pending_advertisement_route() {
    for commit in [true, false] {
        let mut core = BrokerCore::new(b(2), [b(1), b(3)], BrokerConfig::plain());
        let a = adv(3, 0, range(0, 100));
        let flooded = core.handle(Hop::Broker(b(3)), PubSubMsg::Advertise(a.clone()));
        assert_eq!(
            flooded,
            [BrokerOutput::ToBroker(
                b(1),
                PubSubMsg::Advertise(a.clone())
            )]
        );
        // The publisher moves from B3's side to B1's; B3 retracts the
        // old route before the commit reaches B2.
        let m = MoveId(9);
        core.install_pending_adv(&a, m, Hop::Broker(b(1)), Some(b(3)));
        let retracted = core.handle(Hop::Broker(b(3)), PubSubMsg::Unadvertise(a.id));
        assert_eq!(
            retracted,
            [BrokerOutput::ToBroker(b(1), PubSubMsg::Unadvertise(a.id))]
        );
        assert!(core.srt().get(a.id).is_none());
        assert!(core.pending_moves().is_empty());
        core.check_invariants();
        let mut finished = Vec::new();
        if commit {
            core.commit_move(m, &mut finished);
        } else {
            core.abort_move(m, &mut finished);
        }
        assert!(finished.is_empty());
        assert!(core.srt().get(a.id).is_none());
        core.check_invariants();
    }
}

/// An advertisement re-propagated by an overlay repair keeps its tag on
/// what it sets off here: the onward flood goes on as `RepairAdv` and
/// the subscription it pulls as `RepairSub`, while the covering
/// retraction of the narrower advertisement it now covers goes on as a
/// plain `Unadvertise`.
#[test]
fn a_repair_advertisement_tags_its_flood_and_its_pull_but_not_its_retractions() {
    let mut core = BrokerCore::new(b(2), [b(1), b(3)], BrokerConfig::covering());
    let narrow = adv(1, 0, range(0, 10));
    let flooded = core.handle(Hop::Broker(b(1)), PubSubMsg::Advertise(narrow.clone()));
    assert_eq!(
        flooded,
        [BrokerOutput::ToBroker(b(3), PubSubMsg::Advertise(narrow))]
    );
    // One subscription routes toward the narrow advertisement; the
    // other overlaps no advertisement yet and stays here.
    let routed = sub(3, 0, range(0, 10));
    let waiting = sub(3, 1, range(50, 60));
    assert_eq!(
        core.handle(Hop::Broker(b(3)), PubSubMsg::Subscribe(routed.clone())),
        [BrokerOutput::ToBroker(b(1), PubSubMsg::Subscribe(routed))]
    );
    assert!(core
        .handle(Hop::Broker(b(3)), PubSubMsg::Subscribe(waiting.clone()))
        .is_empty());

    let wide = adv(1, 1, range(0, 100));
    let outs = core.handle(Hop::Broker(b(1)), PubSubMsg::RepairAdv(wide.clone()));
    assert_eq!(
        outs,
        [
            BrokerOutput::ToBroker(b(3), PubSubMsg::RepairAdv(wide)),
            BrokerOutput::ToBroker(b(3), PubSubMsg::Unadvertise(AdvId::new(c(1), 0))),
            BrokerOutput::ToBroker(b(1), PubSubMsg::RepairSub(waiting)),
        ]
    );
}
