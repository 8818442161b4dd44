//! Failure injection: the movement transaction under rejection,
//! timeout and broker crash, plus the exhaustive Fig. 5 model check.
//!
//! Demonstrates the paper's safety claims operationally:
//!
//! 1. the model checker regenerates the Fig. 5 global state graph and
//!    verifies both safety properties, with and without failures;
//! 2. a rejected movement leaves the client running at the source;
//! 3. a broker crash delays — but never loses — messages (the paper's
//!    Sec. 3.5 fault model), and a movement started during the outage
//!    completes after recovery.
//!
//! ```text
//! cargo run --example failure_injection
//! ```

use transmob::broker::Topology;
use transmob::core::modelcheck::{explore, ExploreConfig};
use transmob::core::{ClientOp, MobileBrokerConfig, ProtocolKind};
use transmob::pubsub::{BrokerId, ClientId, Filter, Publication};
use transmob::sim::{NetworkModel, Sim, SimDuration, SimTime};

fn main() {
    // --- 1. Model check (Fig. 5) -------------------------------------
    let ex = explore(ExploreConfig::fig5());
    println!("Fig. 5 reachable coordinator states: {:?}", ex.labels());
    ex.check_final_states()
        .expect("exactly one started+clean in finals");
    ex.check_at_most_one_started()
        .expect("at most one started everywhere");
    let with_failures = explore(ExploreConfig::failures());
    with_failures
        .check_final_states()
        .expect("safe with crashes");
    with_failures
        .check_at_most_one_started()
        .expect("isolated with crashes");
    println!(
        "model check: {} states failure-free, {} with crash+timeout — all safe\n",
        ex.states.len(),
        with_failures.states.len()
    );

    // --- 2. Rejected movement ----------------------------------------
    // Nothing takes time and the commands are issued by hand, each
    // run until the network is quiet.
    let mut net = Sim::builder()
        .overlay(Topology::chain(4))
        .options(MobileBrokerConfig::reconfig())
        .network(NetworkModel::instant())
        .start();
    net.enable_delivery_log();
    net.create_client(BrokerId(1), ClientId(1));
    net.create_client(BrokerId(4), ClientId(2));
    net.client_op(
        ClientId(1),
        ClientOp::Advertise(Filter::builder().ge("x", 0).build()),
    );
    net.client_op(
        ClientId(2),
        ClientOp::Subscribe(Filter::builder().ge("x", 0).build()),
    );
    // Moving to a broker outside the overlay is refused outright.
    net.client_op(
        ClientId(2),
        ClientOp::MoveTo(BrokerId(99), ProtocolKind::Reconfig),
    );
    let aborted = (net.metrics.finished_moves()).any(|(_, r)| r.committed == Some(false));
    net.client_op(
        ClientId(1),
        ClientOp::Publish(Publication::new().with("x", 1)),
    );
    println!(
        "rejected movement: aborted={aborted}, client still served at {:?}, {} delivery",
        net.find_client(ClientId(2)).expect("client hosted"),
        net.metrics.deliveries_to(ClientId(2)).len()
    );
    assert!(aborted);
    assert_eq!(net.metrics.deliveries_to(ClientId(2)).len(), 1);

    // --- 3. Crash during movement (simulator) ------------------------
    let mut sim = Sim::builder()
        .overlay(Topology::chain(5))
        .options(MobileBrokerConfig::reconfig())
        .network(NetworkModel::cluster())
        .seed(7)
        .start();
    sim.create_client(BrokerId(1), ClientId(1));
    sim.create_client(BrokerId(5), ClientId(2));
    sim.schedule_cmd(
        SimTime(0),
        ClientId(1),
        ClientOp::Advertise(Filter::builder().ge("x", 0).build()),
    );
    sim.schedule_cmd(
        SimTime(0),
        ClientId(2),
        ClientOp::Subscribe(Filter::builder().ge("x", 0).build()),
    );
    sim.run_to_quiescence();
    let t0 = sim.now();
    // Crash a mid-path broker for two (virtual) seconds and start a
    // movement right through it.
    sim.crash_broker(BrokerId(3), t0 + SimDuration::from_secs(2));
    sim.schedule_cmd(
        t0 + SimDuration::from_millis(10),
        ClientId(2),
        ClientOp::MoveTo(BrokerId(2), ProtocolKind::Reconfig),
    );
    sim.schedule_cmd(
        t0 + SimDuration::from_millis(20),
        ClientId(1),
        ClientOp::Publish(Publication::new().with("x", 9)),
    );
    sim.run_to_quiescence();
    let rec = sim
        .metrics
        .finished_moves()
        .next()
        .map(|(_, r)| (r.committed, r.latency()))
        .expect("movement finished");
    println!(
        "crash during movement: committed={:?}, latency={} (includes the 2 s outage), \
         deliveries={}",
        rec.0.unwrap(),
        rec.1.unwrap(),
        sim.metrics.delivery_count
    );
    assert_eq!(rec.0, Some(true), "movement must complete after recovery");
    assert!(rec.1.unwrap() >= SimDuration::from_secs(1));
    assert_eq!(sim.metrics.delivery_count, 1, "publication lost in crash");
    assert_eq!(sim.total_anomalies(), 0);
    println!("\ndone: all failure scenarios behaved transactionally");
}
