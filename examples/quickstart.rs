//! Quickstart: a three-broker overlay, one publisher, one subscriber,
//! and a transactional movement of the subscriber between brokers.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use std::time::Duration;

use transmob::broker::Topology;
use transmob::core::{MobileBrokerConfig, ProtocolKind};
use transmob::pubsub::{BrokerId, ClientId, Filter, Publication};
use transmob::runtime::Network;

fn main() {
    // A chain of three brokers: B1 - B2 - B3.
    let net = Network::builder()
        .overlay(Topology::chain(3))
        .options(MobileBrokerConfig::reconfig())
        .start();

    // A publisher of stock quotes at B1 and a subscriber at B3.
    let publisher = net.create_client(BrokerId(1), ClientId(1));
    let subscriber = net.create_client(BrokerId(3), ClientId(2));

    publisher.advertise(Filter::builder().eq("symbol", "IBM").ge("price", 0).build());
    subscriber.subscribe(
        Filter::builder()
            .eq("symbol", "IBM")
            .lt("price", 100)
            .build(),
    );
    // The barrier: both routing entries are in place on every broker.
    assert!(net.quiesce(Duration::from_secs(5)));

    publisher.publish(Publication::new().with("symbol", "IBM").with("price", 88));
    let quote = subscriber
        .recv_timeout(Duration::from_secs(2))
        .expect("first quote delivered");
    println!("received before move: {quote}");

    // Transactionally move the subscriber to B2. The reconfiguration
    // protocol rewrites routing state hop-by-hop along the B3→B2 path;
    // the subscriber misses nothing and sees no duplicates.
    let committed = subscriber.move_to(BrokerId(2), ProtocolKind::Reconfig, Duration::from_secs(5));
    println!("movement committed: {committed}");
    assert!(committed);

    publisher.publish(Publication::new().with("symbol", "IBM").with("price", 91));
    let quote = subscriber
        .recv_timeout(Duration::from_secs(2))
        .expect("second quote delivered at the new broker");
    println!("received after move:  {quote}");

    net.shutdown();
    println!("done");
}
