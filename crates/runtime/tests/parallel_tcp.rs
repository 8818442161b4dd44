//! End-to-end smoke for the parallel matching stage on the TCP
//! runtime: real sockets, brokers configured with sharded tables and a
//! worker pool, delivery and movement must behave exactly as with the
//! sequential default (socket timing is nondeterministic, so this
//! driver gets a behavioural check rather than a log-for-log diff).

use std::time::Duration;

use transmob_broker::{Parallelism, Topology};
use transmob_core::{MobileBrokerConfig, ProtocolKind};
use transmob_pubsub::{BrokerId, ClientId, Filter, Publication};
use transmob_runtime::tcp::TcpNetwork;

fn range(lo: i64, hi: i64) -> Filter {
    Filter::builder().ge("x", lo).le("x", hi).build()
}

#[test]
fn tcp_delivers_and_moves_under_parallel_config() {
    let config = MobileBrokerConfig::reconfig().with_parallelism(Parallelism::sharded(4, 2));
    let net = TcpNetwork::builder()
        .overlay(Topology::chain(3))
        .options(config)
        .start()
        .expect("sockets");
    let p = net.create_client(BrokerId(1), ClientId(1));
    let s = net.create_client(BrokerId(3), ClientId(2));
    p.advertise(range(0, 100));
    s.subscribe(range(0, 100));
    std::thread::sleep(Duration::from_millis(150));
    p.publish(Publication::new().with("x", 1));
    assert!(
        s.recv_timeout(Duration::from_secs(3)).is_some(),
        "delivery through sharded tables"
    );
    // Move the subscriber across the chain and prove routing still
    // follows it with the parallel stage active at every broker.
    assert!(
        s.move_to(BrokerId(2), ProtocolKind::Reconfig, Duration::from_secs(5)),
        "movement must commit under parallel config"
    );
    std::thread::sleep(Duration::from_millis(300));
    p.publish(Publication::new().with("x", 2));
    assert!(
        s.recv_timeout(Duration::from_secs(3)).is_some(),
        "delivery after movement under parallel config"
    );
    net.shutdown();
}

/// The same contention over real sockets with the pooled matching
/// stage active: a publisher floods frames through the broker loops
/// that commit the subscriber's movements.
/// Deliveries must stay duplicate-free and routing must follow the
/// subscriber through every move.
#[test]
fn tcp_publish_flood_during_moves_stays_consistent() {
    let config = MobileBrokerConfig::reconfig().with_parallelism(Parallelism::sharded(4, 4));
    let net = TcpNetwork::builder()
        .overlay(Topology::chain(3))
        .options(config)
        .start()
        .expect("sockets");
    let p = net.create_client(BrokerId(1), ClientId(1));
    let s = net.create_client(BrokerId(3), ClientId(2));
    p.advertise(range(0, 100_000));
    s.subscribe(range(0, 100_000));
    std::thread::sleep(Duration::from_millis(150));

    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let flood = {
        let stop = std::sync::Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut x = 0i64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                p.publish(Publication::new().with("x", x));
                x += 1;
                if x % 8 == 0 {
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
            p
        })
    };
    for round in 0..2 {
        let dest = if round % 2 == 0 {
            BrokerId(2)
        } else {
            BrokerId(3)
        };
        assert!(
            s.move_to(dest, ProtocolKind::Reconfig, Duration::from_secs(15)),
            "move {round} must commit under the publish flood over TCP"
        );
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let p = flood.join().expect("flood thread");
    std::thread::sleep(Duration::from_millis(400));
    let got = s.drain();
    let ids: std::collections::BTreeSet<_> = got.iter().map(|x| x.id).collect();
    assert_eq!(ids.len(), got.len(), "duplicate deliveries over TCP");
    p.publish(Publication::new().with("x", 99_999));
    assert!(
        s.recv_timeout(Duration::from_secs(5)).is_some(),
        "delivery after the contended move sequence over TCP"
    );
    net.shutdown();
}
