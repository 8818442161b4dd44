//! Failure injection: the movement transaction under rejection,
//! timeout and broker crash, plus every schedule of one movement.
//!
//! Demonstrates the paper's safety claims operationally:
//!
//! 1. the schedule explorer runs one movement between real brokers in
//!    every order, regenerates the Fig. 5 global state graph from them
//!    and checks both safety properties, with and without timeouts;
//! 2. a rejected movement leaves the client running at the source;
//! 3. a broker crash delays — but never loses — messages (the paper's
//!    Sec. 3.5 fault model), and a movement started during the outage
//!    completes after recovery.
//!
//! ```text
//! cargo run --example failure_injection
//! ```

use transmob::broker::Topology;
use transmob::core::{ClientOp, MobileBrokerConfig, ProtocolKind};
use transmob::pubsub::{BrokerId, ClientId, Filter, Publication};
use transmob::sim::{explore, Exploration, NetworkModel, Sim, SimDuration, SimTime};

/// Every schedule of one movement on a 3-broker chain, C2 moving from
/// B3 to B1, once with B1 admitting it and once rejecting it.
fn every_schedule(config: MobileBrokerConfig) -> Exploration {
    let root = |accept: bool| {
        let config = config.clone();
        let build = move || {
            let mut net = Sim::builder()
                .overlay(Topology::chain(3))
                .options(config.clone())
                .network(NetworkModel::instant())
                .start();
            net.create_client(BrokerId(3), ClientId(2));
            net.broker_mut(BrokerId(1)).set_accept_moves(accept);
            let to = ClientOp::MoveTo(BrokerId(1), ProtocolKind::Reconfig);
            net.schedule_cmd(SimTime(0), ClientId(2), to);
            net
        };
        explore(build, 0).expect("both safety properties hold on every schedule")
    };
    let mut ex = root(true);
    ex.merge(root(false));
    ex
}

fn main() {
    // --- 1. Every schedule (Fig. 5) ----------------------------------
    let blocking = every_schedule(MobileBrokerConfig::reconfig().blocking());
    println!(
        "Fig. 5 reachable coordinator states: {:?}",
        blocking.labels()
    );
    let timeouts = every_schedule(MobileBrokerConfig::reconfig());
    println!(
        "every schedule: {} states blocking, {} with timeouts — all safe\n",
        blocking.states, timeouts.states
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
