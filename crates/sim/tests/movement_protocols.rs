//! End-to-end tests of both movement protocols on the simulator under
//! the instant network model, stepped by hand: commit and abort paths, subscriber and publisher
//! movement, notification exactly-once/no-loss oracles, routing
//! consistency after movement, covering-cascade behaviour, and
//! timeout-driven failure injection.

use std::collections::BTreeSet;

use transmob_broker::Topology;
use transmob_core::{properties, ClientOp, MobileBrokerConfig, ProtocolKind};
use transmob_pubsub::{BrokerId, ClientId, Filter, PubId, Publication};
use transmob_sim::{NetworkModel, Sim};

fn b(i: u32) -> BrokerId {
    BrokerId(i)
}

fn c(i: u64) -> ClientId {
    ClientId(i)
}

fn range(lo: i64, hi: i64) -> Filter {
    Filter::builder().ge("x", lo).le("x", hi).build()
}

/// A chain where nothing takes time, with the delivery log on.
fn chain(n: u32, config: MobileBrokerConfig) -> Sim {
    let mut net = Sim::builder()
        .overlay(Topology::chain(n))
        .options(config)
        .network(NetworkModel::instant())
        .start();
    net.enable_delivery_log();
    net
}

/// A publisher at B1 and a subscriber that will move, on a chain.
fn chain_setup(n: u32, config: MobileBrokerConfig) -> Sim {
    let mut net = chain(n, config);
    net.create_client(b(1), c(1)); // publisher
    net.create_client(b(n), c(2)); // subscriber
    net.client_op(c(1), ClientOp::Advertise(range(0, 100)));
    net.client_op(c(2), ClientOp::Subscribe(range(0, 100)));
    net
}

fn publish_x(net: &mut Sim, client: ClientId, x: i64) {
    net.client_op(client, ClientOp::Publish(Publication::new().with("x", x)));
}

#[test]
fn reconfig_subscriber_move_commits_and_keeps_delivering() {
    let mut net = chain_setup(5, MobileBrokerConfig::reconfig());
    publish_x(&mut net, c(1), 1);
    net.client_op(c(2), ClientOp::MoveTo(b(2), ProtocolKind::Reconfig));
    assert!(net
        .metrics
        .finished_moves()
        .any(|(_, r)| r.committed == Some(true) && r.client == c(2)));
    net.metrics.reset_measurement(net.now());
    assert_eq!(net.find_client(c(2)), Some(b(2)));
    // Deliveries continue at the new location.
    publish_x(&mut net, c(1), 2);
    let stream = net.metrics.deliveries_to(c(2));
    assert_eq!(stream.len(), 1);
    properties::assert_exactly_once(stream).unwrap();
    assert_eq!(net.total_anomalies(), 0);
}

#[test]
fn reconfig_move_loses_nothing_published_during_any_phase() {
    // Publications before, (logically) during, and after the movement
    // must all reach the subscriber exactly once. The instant network
    // serializes phases, so "during" is modelled by the buffered
    // windows the protocol itself creates.
    let mut net = chain_setup(6, MobileBrokerConfig::reconfig());
    let mut expected = BTreeSet::new();
    for x in 0..5 {
        publish_x(&mut net, c(1), x);
    }
    net.client_op(c(2), ClientOp::MoveTo(b(3), ProtocolKind::Reconfig));
    for x in 5..10 {
        publish_x(&mut net, c(1), x);
    }
    net.client_op(c(2), ClientOp::MoveTo(b(6), ProtocolKind::Reconfig));
    for x in 10..15 {
        publish_x(&mut net, c(1), x);
    }
    for seq in 0..15u64 {
        expected.insert(PubId((1u64 << 32) | seq));
    }
    let stream = net.metrics.deliveries_to(c(2));
    properties::assert_exactly_once(stream.iter().copied()).unwrap();
    properties::assert_all_delivered(stream, &expected).unwrap();
    assert_eq!(net.total_anomalies(), 0);
}

#[test]
fn reconfig_publisher_move_keeps_routing_consistent() {
    let mut net = chain(5, MobileBrokerConfig::reconfig());
    net.create_client(b(1), c(1)); // moving publisher
    net.create_client(b(3), c(2)); // stationary subscriber
    net.client_op(c(1), ClientOp::Advertise(range(0, 100)));
    net.client_op(c(2), ClientOp::Subscribe(range(0, 100)));
    publish_x(&mut net, c(1), 1);
    net.client_op(c(1), ClientOp::MoveTo(b(5), ProtocolKind::Reconfig));
    assert_eq!(net.find_client(c(1)), Some(b(5)));
    publish_x(&mut net, c(1), 2);
    let stream = net.metrics.deliveries_to(c(2));
    assert_eq!(stream.len(), 2, "subscriber missed a publication");
    properties::assert_exactly_once(stream).unwrap();
    // Static routing-consistency check from the new publisher location.
    properties::check_routing_consistency(
        &net,
        &[properties::ConsistencyCase {
            publisher_broker: b(5),
            probe: Publication::new().with("x", 50),
            expected: [c(2)].into_iter().collect(),
        }],
    )
    .unwrap();
    assert_eq!(net.total_anomalies(), 0);
}

#[test]
fn reconfig_move_back_and_forth_is_stable() {
    let mut net = chain_setup(4, MobileBrokerConfig::reconfig());
    for round in 0..4 {
        let dest = if round % 2 == 0 { b(1) } else { b(4) };
        net.client_op(c(2), ClientOp::MoveTo(dest, ProtocolKind::Reconfig));
        publish_x(&mut net, c(1), round);
        assert_eq!(net.find_client(c(2)), Some(dest));
    }
    let stream = net.metrics.deliveries_to(c(2));
    assert_eq!(stream.len(), 4);
    properties::assert_exactly_once(stream).unwrap();
    assert_eq!(net.total_anomalies(), 0);
}

#[test]
fn reconfig_rejected_move_leaves_client_at_source() {
    let mut net = chain_setup(4, MobileBrokerConfig::reconfig());
    // A broker outside the topology refuses outright (an admission
    // rejection by a real target is `notification_consistency.rs`).
    net.client_op(c(2), ClientOp::MoveTo(BrokerId(99), ProtocolKind::Reconfig));
    assert!(net
        .metrics
        .finished_moves()
        .any(|(_, r)| r.committed == Some(false)));
    assert_eq!(net.find_client(c(2)), Some(b(4)));
    // Still delivering at the source.
    publish_x(&mut net, c(1), 7);
    assert_eq!(net.metrics.deliveries_to(c(2)).len(), 1);
}

#[test]
fn reconfig_move_to_same_broker_is_a_committed_noop() {
    let mut net = chain_setup(3, MobileBrokerConfig::reconfig());
    net.client_op(c(2), ClientOp::MoveTo(b(3), ProtocolKind::Reconfig));
    assert!(net
        .metrics
        .finished_moves()
        .any(|(_, r)| r.committed == Some(true)));
    assert_eq!(net.find_client(c(2)), Some(b(3)));
    publish_x(&mut net, c(1), 7);
    assert_eq!(net.metrics.deliveries_to(c(2)).len(), 1);
}

#[test]
fn reconfig_message_cost_scales_with_path_not_workload() {
    // The reconfiguration protocol's per-movement message count must
    // track the path length, independent of how many other clients
    // exist.
    for extra_clients in [0u64, 20] {
        let mut net = chain_setup(6, MobileBrokerConfig::reconfig());
        for i in 0..extra_clients {
            let id = c(100 + i);
            net.create_client(b(2), id);
            net.client_op(id, ClientOp::Subscribe(range(0, 100)));
        }
        net.metrics.reset_measurement(net.now());
        net.client_op(c(2), ClientOp::MoveTo(b(1), ProtocolKind::Reconfig));
        let m = *net.metrics.moves.keys().next().expect("one move");
        let cost = net.metrics.moves[&m].messages;
        // negotiate + reconfigure + state + ack, 5 hops each = 20,
        // plus a handful of fix-ups; must stay well under the cost of
        // re-propagating subscriptions.
        assert!(
            (20..30).contains(&cost),
            "unexpected reconfig cost {cost} with {extra_clients} bystanders"
        );
    }
}

// ----- covering (traditional) protocol --------------------------------

fn covering_config() -> MobileBrokerConfig {
    MobileBrokerConfig::covering()
}

#[test]
fn covering_subscriber_move_commits_and_delivers_after() {
    let mut net = chain_setup(5, covering_config());
    publish_x(&mut net, c(1), 1);
    net.client_op(c(2), ClientOp::MoveTo(b(2), ProtocolKind::Covering));
    assert_eq!(net.find_client(c(2)), Some(b(2)));
    publish_x(&mut net, c(1), 2);
    let stream = net.metrics.deliveries_to(c(2));
    properties::assert_exactly_once(stream.iter().copied()).unwrap();
    assert_eq!(stream.len(), 2);
}

#[test]
fn covering_move_cost_grows_with_quenched_subscriptions() {
    // The paper's pathological case: moving the client whose (root)
    // subscription covers many others forces their re-propagation.
    let mk = |covered: u64| {
        let mut net = chain(6, covering_config());
        net.create_client(b(1), c(1));
        net.client_op(c(1), ClientOp::Advertise(range(0, 1000)));
        // Root subscription (the mover).
        net.create_client(b(6), c(2));
        net.client_op(c(2), ClientOp::Subscribe(range(0, 1000)));
        // Covered subscriptions, quenched by the root.
        for i in 0..covered {
            let id = c(10 + i);
            net.create_client(b(6), id);
            net.client_op(
                id,
                ClientOp::Subscribe(range(i as i64 * 10, i as i64 * 10 + 5)),
            );
        }
        net.metrics.reset_measurement(net.now());
        net.client_op(c(2), ClientOp::MoveTo(b(5), ProtocolKind::Covering));
        let m = *net.metrics.moves.keys().next().expect("one move");
        net.metrics.moves[&m].messages
    };
    let cost0 = mk(0);
    let cost9 = mk(9);
    assert!(
        cost9 > cost0 + 9,
        "covering release cascade not reflected: {cost0} vs {cost9}"
    );
}

#[test]
fn covering_protocol_loses_no_messages_published_when_idle() {
    // With no in-flight publications, the covering protocol also moves
    // cleanly (the loss window only involves in-flight messages, which
    // the timing-faithful simulator exercises).
    let mut net = chain_setup(5, covering_config());
    for x in 0..3 {
        publish_x(&mut net, c(1), x);
    }
    net.client_op(c(2), ClientOp::MoveTo(b(1), ProtocolKind::Covering));
    for x in 3..6 {
        publish_x(&mut net, c(1), x);
    }
    let stream = net.metrics.deliveries_to(c(2));
    assert_eq!(stream.len(), 6);
    properties::assert_exactly_once(stream).unwrap();
}

#[test]
fn covering_stationary_bystanders_keep_receiving_during_moves() {
    let mut net = chain(5, covering_config());
    net.create_client(b(1), c(1));
    net.client_op(c(1), ClientOp::Advertise(range(0, 100)));
    net.create_client(b(5), c(2)); // mover (root sub)
    net.client_op(c(2), ClientOp::Subscribe(range(0, 100)));
    net.create_client(b(5), c(3)); // bystander (covered sub)
    net.client_op(c(3), ClientOp::Subscribe(range(10, 20)));
    net.client_op(c(2), ClientOp::MoveTo(b(2), ProtocolKind::Covering));
    publish_x(&mut net, c(1), 15);
    assert_eq!(
        net.metrics.deliveries_to(c(3)).len(),
        1,
        "bystander starved"
    );
    assert_eq!(net.metrics.deliveries_to(c(2)).len(), 1);
}

#[test]
fn make_before_break_variant_also_moves_cleanly() {
    let mut config = covering_config();
    config.make_before_break = true;
    let mut net = chain_setup(5, config);
    publish_x(&mut net, c(1), 1);
    net.client_op(c(2), ClientOp::MoveTo(b(2), ProtocolKind::Covering));
    publish_x(&mut net, c(1), 2);
    let stream = net.metrics.deliveries_to(c(2));
    assert_eq!(stream.len(), 2);
    properties::assert_exactly_once(stream).unwrap();
    assert_eq!(net.find_client(c(2)), Some(b(2)));
}

// ----- queued commands and single-instance ----------------------------

#[test]
fn operations_issued_while_moving_execute_at_target() {
    let mut net = chain_setup(5, MobileBrokerConfig::reconfig());
    // Subscribe from the publisher to the mover's future publications.
    net.client_op(
        c(1),
        ClientOp::Subscribe(Filter::builder().ge("y", 0).build()),
    );
    net.client_op(
        c(2),
        ClientOp::Advertise(Filter::builder().ge("y", 0).build()),
    );
    // The mover is paused during the move; a publish queued mid-move
    // must be issued exactly once after arrival.
    net.client_op(c(2), ClientOp::MoveTo(b(2), ProtocolKind::Reconfig));
    net.client_op(c(2), ClientOp::Publish(Publication::new().with("y", 1)));
    let stream = net.metrics.deliveries_to(c(1));
    assert_eq!(stream.len(), 1);
    properties::assert_exactly_once(stream).unwrap();
}

#[test]
fn single_running_instance_throughout() {
    let mut net = chain_setup(6, MobileBrokerConfig::reconfig());
    properties::assert_single_instance(&net).unwrap();
    net.client_op(c(2), ClientOp::MoveTo(b(2), ProtocolKind::Reconfig));
    properties::assert_single_instance(&net).unwrap();
    net.client_op(c(2), ClientOp::MoveTo(b(6), ProtocolKind::Covering));
    properties::assert_single_instance(&net).unwrap();
}

// ----- timeout failure injection ---------------------------------------

#[test]
fn negotiate_timeout_aborts_and_resumes_at_source() {
    let mut config = MobileBrokerConfig::reconfig();
    config.negotiate_timeout_ns = Some(1_000_000);
    let mut net = chain_setup(5, config);
    // Hand-stepping never fires a timer by itself: issue the move,
    // then fire whatever timer is left; the handler must ignore it
    // because the move already finished.
    net.client_op(c(2), ClientOp::MoveTo(b(2), ProtocolKind::Reconfig));
    for (broker, token) in net.armed_timers() {
        net.fire_timer(broker, token);
    }
    // The committed move must not be undone by the late timer.
    assert_eq!(net.find_client(c(2)), Some(b(2)));
    publish_x(&mut net, c(1), 1);
    assert_eq!(net.metrics.deliveries_to(c(2)).len(), 1);
    assert_eq!(net.total_anomalies(), 0);
}

/// A moving *publisher* whose reconfiguration message pulled a
/// mid-path subscription toward the target (Sec. 4.4 PRT cases 1
/// and 3) and is then aborted at every depth of the protocol: the
/// fix-ups each path broker recorded must undo exactly what the pull
/// added, so every routing table returns to its pre-movement rows.
/// The commit side of the same setup is
/// `reconfig_publisher_move_keeps_routing_consistent`.
#[test]
fn aborted_publisher_move_rolls_the_pulled_subscriptions_back() {
    use transmob_core::TimerToken;
    let mut config = MobileBrokerConfig::reconfig();
    config.negotiate_timeout_ns = Some(1_000_000_000);
    config.state_timeout_ns = Some(2_000_000_000);
    let mut aborted = 0;
    for steps in 1..12usize {
        let mut net = chain(5, config.clone());
        net.create_client(b(1), c(1)); // moving publisher
        net.create_client(b(3), c(2)); // stationary subscriber, mid-path
        net.client_op(c(1), ClientOp::Advertise(range(0, 100)));
        net.client_op(c(2), ClientOp::Subscribe(range(0, 100)));
        let before: Vec<_> = (1..=5)
            .map(|i| {
                let core = net.broker(b(i)).core();
                (core.srt().clone(), core.prt().clone())
            })
            .collect();
        net.client_op_deferred(c(1), ClientOp::MoveTo(b(5), ProtocolKind::Reconfig));
        net.step_n(steps);
        let negotiate =
            (net.armed_timers().into_iter()).find(|(_, t)| matches!(t, TimerToken::Negotiate(_)));
        let Some((broker, token)) = negotiate else {
            // Past the wait state at this depth: the move commits.
            net.settle();
            assert_eq!(net.find_client(c(1)), Some(b(5)));
            continue;
        };
        if steps >= 6 {
            // The reconfiguration message is walking back: B4 has
            // installed its shadow configuration, and from depth 6 on
            // B3 has pulled the subscription toward it.
            assert!(net.broker(b(4)).core().pending_moves().len() == 1);
        }
        net.fire_timer(broker, token);
        net.settle();
        aborted += 1;
        assert_eq!(net.find_client(c(1)), Some(b(1)), "depth {steps}");
        for (i, (srt, prt)) in (1..=5).zip(&before) {
            let core = net.broker(b(i)).core();
            core.check_invariants();
            assert!(core.pending_moves().is_empty(), "B{i} depth {steps}");
            assert_eq!(core.srt(), srt, "SRT of B{i} after abort at depth {steps}");
            assert_eq!(core.prt(), prt, "PRT of B{i} after abort at depth {steps}");
        }
        publish_x(&mut net, c(1), steps as i64);
        assert_eq!(net.metrics.deliveries_to(c(2)).len(), 1, "depth {steps}");
    }
    assert!(aborted >= 6, "the injection never hit the prepare window");
}

#[test]
fn per_move_traffic_attribution_covers_cascades() {
    let mut net = chain(4, covering_config());
    net.create_client(b(1), c(1));
    net.client_op(c(1), ClientOp::Advertise(range(0, 100)));
    net.create_client(b(4), c(2));
    net.client_op(c(2), ClientOp::Subscribe(range(0, 100)));
    net.metrics.reset_measurement(net.now());
    net.client_op(c(2), ClientOp::MoveTo(b(3), ProtocolKind::Covering));
    let m = *net.metrics.moves.keys().next().unwrap();
    // Control messages + unsubscribe cascade + resubscription all
    // attribute to the move.
    let total: u64 = net.metrics.total_traffic();
    assert_eq!(net.metrics.moves[&m].messages, total);
}

#[test]
fn application_pause_buffers_and_resume_replays() {
    let mut net = chain_setup(4, MobileBrokerConfig::reconfig());
    net.client_op(c(2), ClientOp::Pause);
    publish_x(&mut net, c(1), 1);
    publish_x(&mut net, c(1), 2);
    // Nothing surfaced while paused.
    assert!(net.metrics.deliveries_to(c(2)).is_empty());
    // A command issued while paused queues...
    net.client_op(c(2), ClientOp::Subscribe(range(200, 300)));
    assert_eq!(net.broker(b(4)).client(c(2)).unwrap().queued_len(), 1);
    // ...and everything flushes on resume.
    net.client_op(c(2), ClientOp::Resume);
    let stream = net.metrics.deliveries_to(c(2));
    assert_eq!(stream.len(), 2);
    properties::assert_exactly_once(stream).unwrap();
    assert_eq!(net.broker(b(4)).client(c(2)).unwrap().queued_len(), 0);
}

#[test]
fn move_from_application_pause_commits_and_resumes_at_target() {
    // Fig. 4: pause_oper --[move]--> pause_move; after the commit the
    // client starts at the target (the transferred buffer included).
    let mut net = chain_setup(4, MobileBrokerConfig::reconfig());
    net.client_op(c(2), ClientOp::Pause);
    publish_x(&mut net, c(1), 1);
    net.client_op(c(2), ClientOp::MoveTo(b(2), ProtocolKind::Reconfig));
    assert_eq!(net.find_client(c(2)), Some(b(2)));
    let stream = net.metrics.deliveries_to(c(2));
    assert_eq!(stream.len(), 1, "buffered notification lost across move");
    publish_x(&mut net, c(1), 2);
    assert_eq!(net.metrics.deliveries_to(c(2)).len(), 2);
}
