//! Overlay churn over real sockets: a broker dies *permanently*, each
//! survivor whose link to it stays down past
//! [`MobileBrokerConfig::suspect_after_ns`] declares it dead, the
//! overlay self-repairs around the hole, and a publication published
//! after the repair reaches every surviving matching subscriber
//! exactly once (DESIGN.md §14).

use std::time::Duration;

use transmob_broker::Topology;
use transmob_core::MobileBrokerConfig;
use transmob_pubsub::{BrokerId, ClientId, Filter, Publication};
use transmob_runtime::tcp::{TcpNetwork, REDIAL_CAP};

fn b(i: u32) -> BrokerId {
    BrokerId(i)
}
fn c(i: u64) -> ClientId {
    ClientId(i)
}
fn everything() -> Filter {
    Filter::builder().ge("x", 0).le("x", 100).build()
}

/// Aggressive detector settings so the test converges in hundreds of
/// milliseconds: a link down for 400 ms means a dead broker.
fn churn_config() -> MobileBrokerConfig {
    MobileBrokerConfig {
        suspect_after_ns: Some(400_000_000),
        ..MobileBrokerConfig::reconfig()
    }
}

/// How long a barrier may take. The barrier stays exact across the
/// kill: it hits a broker with nothing queued for it.
const SETTLE: Duration = Duration::from_secs(10);

fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    for _ in 0..600 {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("timed out waiting for {what}");
}

/// Kill the middle broker of a chain for good: both sides suspect it,
/// repair creates the bypass edge, and a post-repair publication
/// reaches both surviving subscribers exactly once over the new link.
#[test]
fn suspicion_promotes_death_and_repair_restores_delivery() {
    let net = TcpNetwork::builder()
        .overlay(Topology::chain(4))
        .options(churn_config())
        .bind(|_| "127.0.0.1:0".to_string())
        .start()
        .expect("sockets");
    let publisher = net.create_client(b(1), c(1));
    let near_sub = net.create_client(b(2), c(2));
    let far_sub = net.create_client(b(4), c(3));
    publisher.advertise(everything());
    near_sub.subscribe(everything());
    far_sub.subscribe(everything());
    // Sanity: the intact overlay delivers end to end.
    assert!(net.quiesce(SETTLE));
    publisher.publish(Publication::new().with("x", 1));
    assert!(net.quiesce(SETTLE));
    assert_eq!((near_sub.drain().len(), far_sub.drain().len()), (1, 1));

    // Permanent death of the path broker B3. Its links to B2 and B4 go
    // down at once; whichever survivor's suspicion timer fires first
    // floods the death notice (the other cancels its own timer on
    // receipt), and the repair's bypass edge 2–4 materializes as a
    // real socket.
    net.kill_broker(b(3));
    wait_for("suspicion of broker 3", || net.suspected().contains(&b(3)));
    wait_for("repair edge 2-4 up", || {
        net.link_up(b(2), b(4)) && net.link_up(b(4), b(2))
    });

    // Delivery transparency after repair: once the repair has settled,
    // a fresh publication reaches both surviving subscribers over the
    // repaired overlay, once.
    assert!(net.quiesce(SETTLE));
    publisher.publish(Publication::new().with("x", 42));
    assert!(net.quiesce(SETTLE));
    assert_eq!(near_sub.drain().len(), 1, "survivor at B2");
    assert_eq!(far_sub.drain().len(), 1, "survivor at B4");

    // A broker the overlay excised cannot be restarted back in.
    let err = net
        .restart_broker(b(3))
        .expect_err("excised broker must not restart");
    assert_eq!(err.kind(), std::io::ErrorKind::AddrNotAvailable, "{err}");
    net.shutdown();
}

/// The endpoint rule: once B2 of a chain is dead for good and the
/// repair is done, neither survivor keeps an endpoint toward it, and
/// the bypass edge B1–B3 is one connection on each side that stays
/// one, over which a publication is delivered exactly once.
#[test]
fn a_dead_neighbour_keeps_no_endpoint_and_the_bypass_connects_once() {
    let net = TcpNetwork::builder()
        .overlay(Topology::chain(3))
        .options(churn_config())
        .start()
        .expect("sockets");
    let publisher = net.create_client(b(1), c(1));
    let sub = net.create_client(b(3), c(2));
    publisher.advertise(everything());
    sub.subscribe(everything());
    assert!(net.quiesce(SETTLE));

    net.kill_broker(b(2));
    wait_for("suspicion of broker 2", || net.suspected().contains(&b(2)));
    wait_for("repair edge 1-3 up", || {
        net.link_up(b(1), b(3)) && net.link_up(b(3), b(1))
    });
    assert!(net.quiesce(SETTLE));
    assert_eq!(net.link_stats(b(1), b(2)), None, "B1 kept an endpoint");
    assert_eq!(net.link_stats(b(3), b(2)), None, "B3 kept an endpoint");
    let connects = || {
        let of = |x, y| net.link_stats(x, y).map(|s| s.connects);
        (of(b(1), b(3)), of(b(3), b(1)))
    };
    assert_eq!(connects(), (Some(1), Some(1)));
    // Long enough for any second dialer to get through.
    std::thread::sleep(REDIAL_CAP + Duration::from_millis(200));
    assert_eq!(connects(), (Some(1), Some(1)));

    publisher.publish(Publication::new().with("x", 9));
    assert!(net.quiesce(SETTLE));
    assert_eq!(sub.drain().len(), 1, "one delivery over the bypass");
    net.shutdown();
}

/// With suspicion disabled (the default), a dead broker is *never*
/// promoted: links queue and redial forever, which is what the
/// crash/restart recovery tests rely on.
#[test]
fn suspicion_disabled_never_promotes() {
    let net = TcpNetwork::builder()
        .overlay(Topology::chain(3))
        .options(MobileBrokerConfig::reconfig())
        .start()
        .expect("sockets");
    net.kill_broker(b(3));
    std::thread::sleep(Duration::from_millis(600));
    assert!(
        net.suspected().is_empty(),
        "default options must never suspect"
    );
    // The outage stays a recoverable crash: restarting heals the link.
    net.restart_broker(b(3)).expect("restart");
    wait_for("link 2-3 heals", || {
        net.link_up(b(2), b(3)) && net.link_up(b(3), b(2))
    });
    net.shutdown();
}

/// A broker restarted from its log suspects a neighbour that died while
/// it was down: B3 dies for good, B2 is killed and restarted before its
/// own suspicion can fire, and B2 must still declare B3 dead — while
/// its link to B1, which comes back, cancels its report.
#[test]
fn restarted_broker_suspects_a_neighbour_that_never_returns() {
    let net = TcpNetwork::builder()
        .overlay(Topology::chain(3))
        .options(churn_config())
        .start()
        .expect("sockets");
    net.kill_broker(b(3));
    net.kill_broker(b(2));
    net.restart_broker(b(2)).expect("restart");
    wait_for("suspicion of broker 3", || net.suspected().contains(&b(3)));
    assert!(!net.suspected().contains(&b(1)), "B1 came back");
    net.shutdown();
}
