//! The broker overlay over real TCP sockets: every overlay link is a
//! loopback socket carrying binary-framed protocol messages — the bytes
//! a multi-host deployment would put on the wire. Runs the quickstart
//! scenario (subscribe, publish, transactional move) end to end over
//! that transport.
//!
//! ```text
//! cargo run --example tcp_overlay
//! ```

use std::time::Duration;

use transmob::core::{MobileBrokerConfig, ProtocolKind};
use transmob::pubsub::{BrokerId, ClientId, Filter, Publication};
use transmob::runtime::tcp::TcpNetwork;
use transmob::workloads::default_14;

fn main() -> std::io::Result<()> {
    // The paper's 14-broker overlay: 13 links = 13 sockets.
    let net = TcpNetwork::builder()
        .overlay(default_14())
        .options(MobileBrokerConfig::reconfig())
        .start()?;
    println!("overlay up: 14 brokers, 13 TCP links");

    let publisher = net.create_client(BrokerId(6), ClientId(1));
    let subscriber = net.create_client(BrokerId(13), ClientId(2));
    publisher.advertise(Filter::builder().eq("feed", "alerts").any("sev").build());
    subscriber.subscribe(Filter::builder().eq("feed", "alerts").ge("sev", 3).build());
    // The barrier: the subscription is in place on every broker.
    assert!(net.quiesce(Duration::from_secs(5)));

    publisher.publish(Publication::new().with("feed", "alerts").with("sev", 5));
    let alert = subscriber
        .recv_timeout(Duration::from_secs(3))
        .expect("alert over TCP");
    println!("received over sockets: {alert}");

    // Transactional movement across the backbone — negotiate,
    // reconfigure, state and ack all serialized over the wire.
    let committed =
        subscriber.move_to(BrokerId(2), ProtocolKind::Reconfig, Duration::from_secs(10));
    println!("movement over sockets committed: {committed}");
    assert!(committed);
    assert_eq!(net.home_of(ClientId(2)), Some(BrokerId(2)));

    publisher.publish(Publication::new().with("feed", "alerts").with("sev", 4));
    let alert = subscriber
        .recv_timeout(Duration::from_secs(3))
        .expect("post-move alert");
    println!("received at the new broker: {alert}");

    net.shutdown();
    println!("done");
    Ok(())
}
