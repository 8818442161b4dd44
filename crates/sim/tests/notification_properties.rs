//! Notification-property experiments on the timing-faithful simulator:
//! the reconfiguration protocol's no-loss/no-duplicate guarantee under
//! a publication stream crossing the movement window, versus the
//! traditional break-before-make covering baseline — the paper's
//! motivating observation that ad-hoc movement is not well-behaved.

use std::collections::BTreeSet;

use transmob_broker::Topology;
use transmob_core::properties::{self, NetworkView};
use transmob_core::{ClientOp, MobileBrokerConfig, ProtocolKind, SEEN_WINDOW_CAP};
use transmob_pubsub::{BrokerId, ClientId, Filter, PubId, Publication};
use transmob_sim::{MovementPlan, NetworkModel, Sim, SimDuration, SimTime};

fn b(i: u32) -> BrokerId {
    BrokerId(i)
}
fn c(i: u64) -> ClientId {
    ClientId(i)
}
fn range(lo: i64, hi: i64) -> Filter {
    Filter::builder().ge("x", lo).le("x", hi).build()
}

/// Streams `n_pubs` publications (one per `gap`) while the subscriber
/// moves B6 → B2 in the middle of the stream; returns the delivered
/// ids, having checked that none was delivered twice (the stub dedup
/// holds under every protocol).
fn stream_across_move(
    protocol: ProtocolKind,
    config: MobileBrokerConfig,
    n_pubs: u64,
    seed: u64,
) -> BTreeSet<PubId> {
    let mut sim = Sim::builder()
        .overlay(Topology::chain(6))
        .options(config)
        .network(NetworkModel::cluster())
        .seed(seed)
        .start();
    sim.enable_delivery_log();
    sim.create_client(b(1), c(1));
    sim.create_client(b(6), c(2));
    sim.schedule_cmd(SimTime(0), c(1), ClientOp::Advertise(range(0, 1_000_000)));
    sim.schedule_cmd(SimTime(0), c(2), ClientOp::Subscribe(range(0, 1_000_000)));
    sim.run_to_quiescence();
    let t0 = sim.now();
    let gap = SimDuration::from_micros(500);
    for k in 0..n_pubs {
        sim.schedule_cmd(
            t0 + gap.mul_f64(k as f64),
            c(1),
            ClientOp::Publish(Publication::new().with("x", k as i64)),
        );
    }
    // Move right in the middle of the stream: the (un)subscription
    // traffic and the publications cross on the path.
    sim.schedule_cmd(
        t0 + gap.mul_f64(n_pubs as f64 / 2.0),
        c(2),
        ClientOp::MoveTo(b(2), protocol),
    );
    sim.run_to_quiescence();
    assert_eq!(sim.home_of(c(2)), Some(b(2)), "movement did not commit");
    let all = sim.metrics.deliveries_to(c(2));
    properties::assert_exactly_once(all.iter().copied())
        .unwrap_or_else(|e| panic!("{protocol:?} seed {seed}: {e}"));
    all.into_iter().collect()
}

fn expected_ids(n: u64) -> BTreeSet<PubId> {
    (0..n).map(|k| PubId((1u64 << 32) | k)).collect()
}

#[test]
fn reconfig_never_loses_or_duplicates_in_flight_publications() {
    for seed in [1u64, 2, 3, 4, 5] {
        let unique = stream_across_move(
            ProtocolKind::Reconfig,
            MobileBrokerConfig::reconfig(),
            40,
            seed,
        );
        assert_eq!(
            unique,
            expected_ids(40),
            "lost publications under reconfig (seed {seed})"
        );
    }
}

#[test]
fn covering_break_before_make_can_lose_in_flight_publications() {
    // The paper's motivation: the traditional protocol retracts the
    // subscription at the source before re-issuing it at the target, so
    // publications crossing the path behind the unsubscription frontier
    // die at intermediate brokers. Demonstrate that at least one seed
    // loses messages (and quantify).
    let mut any_loss = 0usize;
    for seed in [1u64, 2, 3, 4, 5] {
        let unique = stream_across_move(
            ProtocolKind::Covering,
            MobileBrokerConfig::covering(),
            40,
            seed,
        );
        any_loss += 40 - unique.len();
    }
    assert!(
        any_loss > 0,
        "expected the break-before-make baseline to drop at least one \
         in-flight publication across five seeds"
    );
}

#[test]
fn covering_make_before_break_closes_the_loss_window() {
    // The ablation: re-issue at the target before retracting at the
    // source. Duplicates may be produced in the network but the stub
    // dedup absorbs them; nothing is lost.
    let config = MobileBrokerConfig {
        make_before_break: true,
        ..MobileBrokerConfig::covering()
    };
    for seed in [1u64, 2, 3] {
        let unique = stream_across_move(ProtocolKind::Covering, config.clone(), 40, seed);
        assert_eq!(
            unique,
            expected_ids(40),
            "make-before-break still lost publications (seed {seed})"
        );
    }
}

#[test]
fn reconfig_survives_a_burst_of_background_churn() {
    // Heavy background: 30 other subscribers churn (unsubscribe and
    // resubscribe) while the mover crosses the overlay; the mover's
    // stream stays exactly-once.
    let mut sim = Sim::builder()
        .overlay(Topology::chain(6))
        .options(MobileBrokerConfig::reconfig())
        .network(NetworkModel::cluster())
        .seed(9)
        .start();
    sim.enable_delivery_log();
    sim.create_client(b(1), c(1));
    sim.create_client(b(6), c(2));
    sim.schedule_cmd(SimTime(0), c(1), ClientOp::Advertise(range(0, 1_000_000)));
    sim.schedule_cmd(SimTime(0), c(2), ClientOp::Subscribe(range(0, 1_000_000)));
    for i in 0..30u64 {
        let id = c(100 + i);
        sim.create_client(b(3 + (i % 3) as u32), id);
        sim.schedule_cmd(
            SimTime(0),
            id,
            ClientOp::Subscribe(range(0, 500_000 + i as i64)),
        );
    }
    sim.run_to_quiescence();
    let t0 = sim.now();
    let gap = SimDuration::from_micros(400);
    for k in 0..50u64 {
        sim.schedule_cmd(
            t0 + gap.mul_f64(k as f64),
            c(1),
            ClientOp::Publish(Publication::new().with("x", k as i64)),
        );
    }
    // Churners toggle mid-stream; the mover crosses at the same time.
    for i in 0..30u64 {
        let id = c(100 + i);
        sim.schedule_cmd(
            t0 + gap.mul_f64(10.0 + i as f64),
            id,
            ClientOp::Unsubscribe(0),
        );
        sim.schedule_cmd(
            t0 + gap.mul_f64(25.0 + i as f64),
            id,
            ClientOp::Subscribe(range(0, 400_000)),
        );
    }
    sim.schedule_cmd(
        t0 + gap.mul_f64(20.0),
        c(2),
        ClientOp::MoveTo(b(2), ProtocolKind::Reconfig),
    );
    sim.run_to_quiescence();
    let got = sim.metrics.deliveries_to(c(2));
    properties::assert_exactly_once(got.iter().copied()).expect("duplicates under churn");
    let unique: BTreeSet<PubId> = got.into_iter().collect();
    assert_eq!(unique, expected_ids(50), "losses under churn");
    assert_eq!(sim.total_anomalies(), 0);
}

/// The state transfer every copy of every client would send right
/// now carries at most the stub's dedup window.
fn assert_snapshots_bounded(sim: &Sim) {
    for broker in sim.view_broker_ids() {
        for (client, stub) in sim.broker(broker).clients() {
            let seen = stub.clone().take_snapshot().seen.len();
            assert!(
                seen <= SEEN_WINDOW_CAP,
                "{client} at {broker} would transfer {seen} ids"
            );
        }
    }
}

#[test]
fn mover_outliving_its_dedup_window_stays_exactly_once() {
    // The subscriber ping-pongs B4 <-> B2 under a stream that crosses
    // every movement and is more than twice as long as the stub's
    // window: what the stub forgot is never what a movement duplicates.
    let n_pubs = 2 * SEEN_WINDOW_CAP as u64 + 500;
    let mut sim = Sim::builder()
        .overlay(Topology::chain(4))
        .options(MobileBrokerConfig::reconfig())
        .network(NetworkModel::cluster())
        .seed(3)
        .start();
    sim.enable_delivery_log();
    sim.create_client(b(1), c(1));
    sim.create_client(b(4), c(2));
    sim.schedule_cmd(SimTime(0), c(1), ClientOp::Advertise(range(0, 1_000_000)));
    sim.schedule_cmd(SimTime(0), c(2), ClientOp::Subscribe(range(0, 1_000_000)));
    sim.run_to_quiescence();
    let t0 = sim.now();
    let gap = SimDuration::from_micros(500);
    for k in 0..n_pubs {
        sim.schedule_cmd(
            t0 + gap.mul_f64(k as f64),
            c(1),
            ClientOp::Publish(Publication::new().with("x", k as i64)),
        );
    }
    sim.install_plan(
        c(2),
        MovementPlan {
            destinations: vec![b(2), b(4)],
            pause: SimDuration::from_millis(20),
            protocol: ProtocolKind::Reconfig,
        },
        t0 + SimDuration::from_millis(1),
    );
    let end = t0 + gap.mul_f64(n_pubs as f64);
    sim.set_plan_deadline(end);
    let mut t = t0;
    while t < end {
        t += SimDuration::from_millis(10);
        sim.run_until(t);
        assert_snapshots_bounded(&sim);
    }
    sim.run_to_quiescence();
    assert_snapshots_bounded(&sim);

    let committed = sim
        .metrics
        .finished_moves()
        .filter(|(_, r)| r.committed == Some(true))
        .count();
    assert!(committed >= 20, "only {committed} movements completed");
    assert_eq!(sim.total_anomalies(), 0);
    let stream = sim.metrics.deliveries_to(c(2));
    assert!(stream.len() > 2 * SEEN_WINDOW_CAP);
    properties::assert_exactly_once(stream.iter().copied()).unwrap();
    properties::assert_all_delivered(stream, &expected_ids(n_pubs)).unwrap();
}
