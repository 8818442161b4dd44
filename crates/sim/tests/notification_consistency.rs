//! The paper's notification **consistency** property (Sec. 3.4),
//! checked literally: the notifications `N_T(t0→∞)` a client receives
//! when its movement *succeeds* must equal the notifications
//! `N_S(t0→∞)` it receives when the identical movement is *rejected*
//! and it stays at the source. Two runs with identical schedules,
//! differing only in the target's admission decision, must deliver the
//! same set.
//!
//! Also: the **isolation** property — other clients' notification
//! streams are identical whether the movement commits or aborts.

use std::collections::BTreeSet;

use transmob_core::{ClientOp, MobileBrokerConfig, ProtocolKind};
use transmob_pubsub::{BrokerId, ClientId, Filter, PubId, Publication};
use transmob_sim::{NetworkModel, Sim};
use transmob_workloads::default_14;

fn b(i: u32) -> BrokerId {
    BrokerId(i)
}
fn c(i: u64) -> ClientId {
    ClientId(i)
}
fn range(lo: i64, hi: i64) -> Filter {
    Filter::builder().ge("x", lo).le("x", hi).build()
}

/// The Fig. 6 overlay with nothing taking time and the delivery log on.
fn instant_14(config: MobileBrokerConfig) -> Sim {
    let mut net = Sim::builder()
        .overlay(default_14())
        .options(config)
        .network(NetworkModel::instant())
        .start();
    net.enable_delivery_log();
    net
}

/// Runs the reference schedule; `target_accepts` flips the admission
/// decision at the target broker. Returns the delivered sets of the
/// mover and of a stationary observer.
fn run(
    protocol: ProtocolKind,
    target_accepts: bool,
) -> (BTreeSet<PubId>, Vec<PubId>, Option<BrokerId>) {
    let config = match protocol {
        ProtocolKind::Reconfig => MobileBrokerConfig::reconfig(),
        ProtocolKind::Covering => MobileBrokerConfig::covering(),
    };
    let mut net = instant_14(config);
    let publisher = c(1);
    let mover = c(2);
    let observer = c(3);
    net.create_client(b(6), publisher);
    net.create_client(b(13), mover);
    net.create_client(b(14), observer);
    net.broker_mut(b(2)).set_accept_moves(target_accepts);
    net.client_op(publisher, ClientOp::Advertise(range(0, 1000)));
    net.client_op(mover, ClientOp::Subscribe(range(0, 500)));
    net.client_op(observer, ClientOp::Subscribe(range(200, 800)));
    // t0: the movement starts; publications continue either way.
    for x in [100, 300] {
        net.client_op(
            publisher,
            ClientOp::Publish(Publication::new().with("x", x)),
        );
    }
    net.client_op(mover, ClientOp::MoveTo(b(2), protocol));
    for x in [150, 350, 450] {
        net.client_op(
            publisher,
            ClientOp::Publish(Publication::new().with("x", x)),
        );
    }
    let mover_set: BTreeSet<PubId> = net.metrics.deliveries_to(mover).into_iter().collect();
    let observer_stream: Vec<PubId> = net.metrics.deliveries_to(observer);
    (mover_set, observer_stream, net.find_client(mover))
}

#[test]
fn consistency_moved_equals_stayed_reconfig() {
    let (moved, observer_moved, where_moved) = run(ProtocolKind::Reconfig, true);
    let (stayed, observer_stayed, where_stayed) = run(ProtocolKind::Reconfig, false);
    assert_eq!(where_moved, Some(b(2)), "accepting run must commit");
    assert_eq!(where_stayed, Some(b(13)), "rejecting run must abort");
    // N_T(t0→∞) == N_S(t0→∞): the mover receives the same
    // notifications whether the movement succeeded or failed.
    assert_eq!(moved, stayed, "consistency property violated");
    assert_eq!(moved.len(), 5); // all of x ∈ {100, 300, 150, 350, 450} match [0,500]
                                // Isolation: the observer's stream is unaffected by the outcome.
    assert_eq!(
        observer_moved, observer_stayed,
        "isolation property violated"
    );
    assert_eq!(observer_moved.len(), 3); // x ∈ {300, 350, 450} match [200,800]
}

#[test]
fn consistency_moved_equals_stayed_covering_quiescent() {
    // On the instantaneous network (no in-flight window) the covering
    // baseline also satisfies consistency; the timing-faithful
    // simulator demonstrates where it does not
    // (sim/tests/notification_properties.rs).
    let (moved, observer_moved, where_moved) = run(ProtocolKind::Covering, true);
    let (stayed, observer_stayed, where_stayed) = run(ProtocolKind::Covering, false);
    assert_eq!(where_moved, Some(b(2)));
    assert_eq!(where_stayed, Some(b(13)));
    assert_eq!(moved, stayed);
    assert_eq!(observer_moved, observer_stayed);
}

#[test]
fn rejected_move_emits_reject_not_timeout() {
    // The admission rejection travels the explicit Reject path (paper
    // message (3)); no timers are involved and no pendings linger.
    let mut net = instant_14(MobileBrokerConfig::reconfig());
    net.create_client(b(13), c(2));
    net.client_op(c(2), ClientOp::Subscribe(range(0, 500)));
    net.broker_mut(b(2)).set_accept_moves(false);
    net.client_op(c(2), ClientOp::MoveTo(b(2), ProtocolKind::Reconfig));
    assert_eq!(net.find_client(c(2)), Some(b(13)));
    assert!(net.armed_timers().is_empty());
    for id in net.topology().brokers() {
        let core = net.broker(id).core();
        assert!(
            core.prt().iter().all(|(_, e)| e.pending.is_none()),
            "pending left at {id} after rejection"
        );
    }
    assert_eq!(net.total_anomalies(), 0);
}

#[test]
fn isolation_mover_publications_reach_others_exactly_once() {
    // The Sec. 3.4 isolation proof: the mover publishes the same
    // stream whether it moves or not, and every other client receives
    // each publication exactly once. Here the mover publishes around a
    // movement; the observer's stream must be loss- and dup-free.
    let mut net = instant_14(MobileBrokerConfig::reconfig());
    let mover = c(2);
    let observer = c(3);
    net.create_client(b(13), mover);
    net.create_client(b(14), observer);
    net.client_op(mover, ClientOp::Advertise(range(0, 1000)));
    net.client_op(observer, ClientOp::Subscribe(range(0, 1000)));
    net.client_op(mover, ClientOp::Publish(Publication::new().with("x", 1)));
    net.client_op(mover, ClientOp::MoveTo(b(2), ProtocolKind::Reconfig));
    net.client_op(mover, ClientOp::Publish(Publication::new().with("x", 2)));
    net.client_op(mover, ClientOp::MoveTo(b(7), ProtocolKind::Reconfig));
    net.client_op(mover, ClientOp::Publish(Publication::new().with("x", 3)));
    let stream: Vec<PubId> = net.metrics.deliveries_to(observer);
    let unique: BTreeSet<PubId> = stream.iter().copied().collect();
    assert_eq!(stream.len(), 3, "observer missed a mover publication");
    assert_eq!(unique.len(), 3, "observer saw duplicates");
    assert_eq!(net.total_anomalies(), 0);
}
