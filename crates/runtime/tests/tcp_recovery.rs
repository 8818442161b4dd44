//! Crash–recovery over real sockets: kill a broker process
//! mid-movement, restart it from its durability log, and demand that
//! the movement resolves cleanly (commit or abort) with the client
//! running at exactly one broker afterwards — the TCP half of the
//! ISSUE 3 acceptance criteria.

use std::time::Duration;

use transmob_broker::Topology;
use transmob_core::{MobileBrokerConfig, ProtocolKind};
use transmob_pubsub::{BrokerId, ClientId, Filter, Publication};
use transmob_runtime::tcp::TcpNetwork;

const PUBLISHER: ClientId = ClientId(1);
const MOVER: ClientId = ClientId(2);
const B1: BrokerId = BrokerId(1);
const B2: BrokerId = BrokerId(2);
const B3: BrokerId = BrokerId(3);

/// How long a barrier may take. The barrier stays exact across these
/// kills: each one hits a broker with nothing queued for it.
const SETTLE: Duration = Duration::from_secs(10);

fn range(lo: i64, hi: i64) -> Filter {
    Filter::builder().ge("x", lo).le("x", hi).build()
}

/// Chain B1–B2–B3, publisher at B1, mover at B3, subscriptions in
/// place and verified end to end.
fn setup(
    config: MobileBrokerConfig,
) -> (
    TcpNetwork,
    transmob_runtime::tcp::TcpClient,
    transmob_runtime::tcp::TcpClient,
) {
    let net = TcpNetwork::builder()
        .overlay(Topology::chain(3))
        .options(config)
        .start()
        .expect("sockets");
    let p = net.create_client(B1, PUBLISHER);
    let s = net.create_client(B3, MOVER);
    p.advertise(range(0, 100));
    s.subscribe(range(0, 100));
    assert!(net.quiesce(SETTLE));
    p.publish(Publication::new().with("x", 1));
    assert!(
        s.recv_timeout(Duration::from_secs(3)).is_some(),
        "baseline delivery before any fault"
    );
    (net, p, s)
}

/// A movement issued while the target broker is dead must survive the
/// outage: the negotiate queues at the surviving neighbour, the
/// restarted target (recovered from its WAL) is redialed with backoff,
/// the queued frame flushes, and the movement commits — the client
/// ends up at exactly the target broker.
#[test]
fn inflight_move_commits_after_target_restart() {
    let (net, p, s) = setup(MobileBrokerConfig::reconfig());
    net.kill_broker(B2);
    // The failure detector on the surviving sides notices the outage.
    std::thread::sleep(Duration::from_millis(200));
    assert!(!net.link_up(B1, B2), "B1 still believes the link is up");
    assert!(!net.link_up(B3, B2), "B3 still believes the link is up");

    std::thread::scope(|scope| {
        scope.spawn(|| {
            // Restart mid-movement: the move_to below has already
            // parked the source coordinator in Wait by now.
            std::thread::sleep(Duration::from_millis(300));
            net.restart_broker(B2).expect("restart");
        });
        assert!(
            s.move_to(B2, ProtocolKind::Reconfig, Duration::from_secs(15)),
            "movement across the outage must commit"
        );
    });
    assert_eq!(net.home_of(MOVER), Some(B2), "client home after commit");

    // The moved client receives the next publication exactly once.
    p.publish(Publication::new().with("x", 2));
    assert!(net.quiesce(SETTLE));
    assert_eq!(s.drain().len(), 1, "one delivery after recovery");
    net.shutdown();
}

/// Kill the broker *hosting* a client: after restart its WAL replay
/// rebuilds the hosted client stub and routing tables, deliveries
/// resume, and a subsequent movement commits normally.
#[test]
fn killed_source_recovers_hosted_client_from_wal() {
    let (net, p, s) = setup(MobileBrokerConfig::reconfig());
    net.kill_broker(B3);
    net.restart_broker(B3).expect("restart");
    // A publication racing the reconnect queues at B2 and flushes.
    p.publish(Publication::new().with("x", 3));
    assert!(
        s.recv_timeout(Duration::from_secs(5)).is_some(),
        "delivery to the WAL-recovered client"
    );
    assert_eq!(net.home_of(MOVER), Some(B3), "client still at its home");

    assert!(
        s.move_to(B2, ProtocolKind::Reconfig, Duration::from_secs(15)),
        "movement after recovery must commit"
    );
    assert_eq!(net.home_of(MOVER), Some(B2));
    p.publish(Publication::new().with("x", 4));
    assert!(net.quiesce(SETTLE));
    assert_eq!(s.drain().len(), 1, "one delivery after the move");
    net.shutdown();
}

/// Double fault: the *source* dies mid-movement (after logging the
/// MoveTo) while the target is also dead, so the negotiate can never
/// complete. The restarted source re-arms the negotiate timer from its
/// WAL and aborts the movement cleanly — the client resumes at the
/// source, at exactly one broker, and keeps receiving publications.
#[test]
fn killed_source_mid_movement_aborts_cleanly_after_restart() {
    let config = MobileBrokerConfig {
        // Short protocol timeouts so the recovered coordinator's
        // re-armed timer resolves the wedged movement within the test.
        negotiate_timeout_ns: Some(1_500_000_000),
        state_timeout_ns: Some(1_500_000_000),
        ..MobileBrokerConfig::reconfig()
    };
    let (net, p, s) = setup(config);
    // Target dead: the negotiate frame parks in B3's retransmit queue.
    net.kill_broker(B2);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            std::thread::sleep(Duration::from_millis(200));
            // Source dies mid-movement; the queued negotiate dies with
            // it, but the MoveTo itself is already in the WAL.
            net.kill_broker(B3);
            std::thread::sleep(Duration::from_millis(200));
            net.restart_broker(B3).expect("restart source");
        });
        assert!(
            !s.move_to(B2, ProtocolKind::Reconfig, Duration::from_secs(15)),
            "movement with both peers crashed must abort, not commit"
        );
    });
    // The client resumed at the source.
    assert_eq!(net.home_of(MOVER), Some(B3), "client resumed at source");
    // Bring the target machine back too; the overlay re-knits.
    net.restart_broker(B2).expect("restart target");
    p.publish(Publication::new().with("x", 5));
    assert!(
        s.recv_timeout(Duration::from_secs(5)).is_some(),
        "delivery to the resumed client"
    );
    net.shutdown();
}

/// A kill drops nothing already queued at the victim: its loop applies
/// every input queued before the kill, then stops. A subscription
/// issued the moment before B3 is killed is therefore applied, logged
/// and forwarded, and after the restart a publication from B1 reaches
/// the subscriber.
#[test]
fn a_command_queued_before_a_kill_survives_the_restart() {
    let net = TcpNetwork::builder()
        .overlay(Topology::chain(3))
        .options(MobileBrokerConfig::reconfig())
        .start()
        .expect("sockets");
    let p = net.create_client(B1, PUBLISHER);
    let s = net.create_client(B3, MOVER);
    p.advertise(range(0, 100));
    assert!(net.quiesce(SETTLE));
    s.subscribe(range(0, 100));
    net.kill_broker(B3);
    net.restart_broker(B3).expect("restart");
    p.publish(Publication::new().with("x", 6));
    assert!(
        s.recv_timeout(Duration::from_secs(5)).is_some(),
        "the subscription queued before the kill must survive it"
    );
    net.shutdown();
}

/// The failure detector's view: heartbeats flow while healthy, the
/// link drops within a few heartbeat intervals of a kill, and both
/// heartbeats and connectivity resume after the restart.
#[test]
fn failure_detector_tracks_kill_and_restart() {
    let net = TcpNetwork::builder()
        .overlay(Topology::chain(2))
        .options(MobileBrokerConfig::reconfig())
        .start()
        .expect("sockets");
    std::thread::sleep(Duration::from_millis(300));
    assert!(net.heartbeats_seen(B1) > 0, "no heartbeats while healthy");
    assert!(net.link_up(B1, B2));

    net.kill_broker(B2);
    std::thread::sleep(Duration::from_millis(300));
    assert!(!net.link_up(B1, B2), "kill not detected");
    assert!(
        net.peer_silence(B1, B2).expect("link exists") >= Duration::from_millis(200),
        "silence not accumulating on a dead peer"
    );

    net.restart_broker(B2).expect("restart");
    // The dialer's capped backoff is at most 400 ms between attempts.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !(net.link_up(B1, B2) && net.link_up(B2, B1)) {
        assert!(
            std::time::Instant::now() < deadline,
            "link did not re-establish after restart"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let before = net.heartbeats_seen(B1);
    std::thread::sleep(Duration::from_millis(300));
    assert!(
        net.heartbeats_seen(B1) > before,
        "heartbeats did not resume after restart"
    );
    net.shutdown();
}
