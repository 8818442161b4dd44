//! Wire-level fault injection over real sockets: a peer that frames
//! garbage, a publication flood against a dead neighbour, and a
//! differential run of the same scenario under both codecs — the
//! regression suite for the framing bugfixes of ISSUE 7.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use std::collections::BTreeSet;
use transmob_broker::Topology;

use transmob_core::{properties, MobileBrokerConfig, ProtocolKind};
use transmob_pubsub::{BrokerId, ClientId, Filter, PubId, Publication};
use transmob_runtime::codec::WireMode;
use transmob_runtime::tcp::{TcpClient, TcpNetwork, TcpOptions};

const B1: BrokerId = BrokerId(1);
const B2: BrokerId = BrokerId(2);

fn attr(name: &str, lo: i64, hi: i64) -> Filter {
    Filter::builder().ge(name, lo).le(name, hi).build()
}

fn wait_until(what: &str, timeout: Duration, mut done: impl FnMut() -> bool) {
    let deadline = std::time::Instant::now() + timeout;
    while !done() {
        assert!(std::time::Instant::now() < deadline, "timed out: {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// How long a barrier may take. The barrier stays exact across these
/// kills: each one hits a broker with nothing queued for it.
const SETTLE: Duration = Duration::from_secs(10);

/// Publishes once and demands exactly one delivery.
fn assert_delivery(net: &TcpNetwork, p: &TcpClient, s: &TcpClient, name: &str, val: i64) {
    p.publish(Publication::new().with(name, val));
    assert!(net.quiesce(SETTLE));
    assert_eq!(s.drain().len(), 1, "one delivery of {name}={val}");
}

/// Satellite bugfix 3: a peer that sends a corrupt frame must not make
/// the reader die silently — the failure is counted, the link-down
/// reason names the corruption, and the overlay heals by redial
/// (a kill and a restart), under either codec.
#[test]
fn corrupt_frame_is_counted_and_names_the_cause() {
    for wire in [WireMode::Binary, WireMode::Json] {
        corrupt_frame_case(wire);
    }
}

fn corrupt_frame_case(wire: WireMode) {
    let net = TcpNetwork::builder()
        .overlay(Topology::chain(2))
        .options(MobileBrokerConfig::reconfig())
        .tcp(TcpOptions {
            wire,
            ..TcpOptions::default()
        })
        .start()
        .expect("sockets");
    let p = net.create_client(B1, ClientId(1));
    let s = net.create_client(B2, ClientId(2));
    p.advertise(attr("x", 0, 100));
    s.subscribe(attr("x", 0, 100));
    assert!(net.quiesce(SETTLE));
    assert_delivery(&net, &p, &s, "x", 1);

    // Take the real peer down, then pose as broker 2 on a fresh
    // connection and frame garbage at broker 1.
    net.kill_broker(B2);
    wait_until("B1 notices the outage", Duration::from_secs(3), || {
        !net.link_up(B1, B2)
    });
    {
        let addr = net.broker_addr(B1).expect("broker 1 address");
        let imp = TcpStream::connect(addr).expect("connect impostor");
        let mut w = imp.try_clone().expect("clone");
        writeln!(w, "2 {}", net.wire_mode().token()).expect("handshake");
        w.flush().expect("handshake flush");
        let mut reply = String::new();
        BufReader::new(imp.try_clone().expect("clone"))
            .read_line(&mut reply)
            .expect("handshake reply");
        assert_eq!(reply.trim(), "ok", "acceptor must admit the impostor");
        // Not a frame in either codec: in JSON mode the line fails to
        // parse; in binary mode the first byte promises a 35-byte
        // payload the closed socket never completes.
        w.write_all(b"#corrupt#\n").expect("garbage");
        w.flush().expect("garbage flush");
        // Dropping the socket gives the reader EOF mid-frame.
    }
    wait_until(
        "decode failure counted on B1->B2",
        Duration::from_secs(3),
        || {
            net.link_stats(B1, B2)
                .is_some_and(|st| st.decode_failures >= 1)
        },
    );
    let stats = net.link_stats(B1, B2).expect("stats");
    let reason = stats.down_reason.expect("link went down with a reason");
    assert!(
        reason.contains("corrupt frame"),
        "down reason must name the corruption, got: {reason}"
    );

    // The overlay heals: restart the real peer, the dialer's backoff
    // loop reconnects, and delivery works end to end again.
    net.restart_broker(B2).expect("restart");
    wait_until("link heals after restart", Duration::from_secs(5), || {
        net.link_up(B1, B2) && net.link_up(B2, B1)
    });
    assert_delivery(&net, &p, &s, "x", 2);
    net.shutdown();
}

/// Satellite bugfix 2, end to end: a publication flood against a dead
/// neighbour is bounded by the down-queue high-water mark (drops
/// counted), while a subscription issued during the outage — a control
/// frame — survives the overflow and works after the restart, under
/// either codec.
#[test]
fn down_queue_bounds_flood_but_control_frames_survive() {
    for wire in [WireMode::Binary, WireMode::Json] {
        down_queue_case(wire);
    }
}

fn down_queue_case(wire: WireMode) {
    const HWM: usize = 16;
    let options = TcpOptions {
        wire,
        down_queue_hwm: HWM,
        ..TcpOptions::default()
    };
    let net = TcpNetwork::builder()
        .overlay(Topology::chain(2))
        .options(MobileBrokerConfig::reconfig())
        .tcp(options)
        .bind(|_| "127.0.0.1:0".to_string())
        .start()
        .expect("sockets");
    let p = net.create_client(B1, ClientId(1));
    let s = net.create_client(B2, ClientId(2));
    let a2 = net.create_client(B2, ClientId(3));
    p.advertise(attr("x", 0, 1_000_000));
    s.subscribe(attr("x", 0, 1_000_000));
    a2.advertise(attr("y", 0, 100));
    assert!(net.quiesce(SETTLE));
    assert_delivery(&net, &p, &s, "x", 1);

    net.kill_broker(B2);
    wait_until("B1 notices the outage", Duration::from_secs(3), || {
        !net.link_up(B1, B2)
    });
    // Flood: far more publications than the queue may hold.
    for i in 0..100 {
        p.publish(Publication::new().with("x", 100 + i));
    }
    wait_until(
        "high-water mark drops the overflow",
        Duration::from_secs(5),
        || {
            net.link_stats(B1, B2)
                .is_some_and(|st| st.dropped_publications >= 50)
        },
    );
    // A subscription issued mid-outage rides the same queue as a
    // control frame; the mark must evict a publication, not this.
    let dropped = || net.link_stats(B1, B2).expect("stats").dropped_publications;
    let before = dropped();
    let s3 = net.create_client(B1, ClientId(4));
    s3.subscribe(attr("y", 0, 100));
    wait_until("the subscription queues", Duration::from_secs(3), || {
        dropped() > before
    });

    net.restart_broker(B2).expect("restart");
    wait_until("link heals after restart", Duration::from_secs(5), || {
        net.link_up(B1, B2) && net.link_up(B2, B1)
    });
    // The retained tail of the flood flushes to the recovered
    // subscriber — no more than the mark allowed to stay queued.
    assert!(net.quiesce(SETTLE));
    let retained = s.drain().len();
    assert!(
        retained >= 1,
        "the queue's retained publications must flush on reconnect"
    );
    assert!(
        retained <= HWM,
        "at most {HWM} flood publications may survive, got {retained}"
    );
    // The control frame survived the overflow: the mid-outage
    // subscription routes publications after the restart.
    assert_delivery(&net, &a2, &s3, "y", 7);
    net.shutdown();
}

/// The tentpole's safety net: the same scenario (delivery plus a
/// transactional move) under the binary codec and under the JSON
/// debug codec must produce identical outcomes — the wire format is
/// an implementation detail, never semantics.
#[test]
fn binary_and_json_modes_agree_end_to_end() {
    let run = |wire: WireMode| -> BTreeSet<PubId> {
        let options = TcpOptions {
            wire,
            ..TcpOptions::default()
        };
        let net = TcpNetwork::builder()
            .overlay(Topology::chain(3))
            .options(MobileBrokerConfig::reconfig())
            .tcp(options)
            .bind(|_| "127.0.0.1:0".to_string())
            .start()
            .expect("sockets");
        assert_eq!(net.wire_mode(), wire);
        let p = net.create_client(B1, ClientId(1));
        let s = net.create_client(BrokerId(3), ClientId(2));
        p.advertise(attr("x", 0, 100));
        s.subscribe(attr("x", 0, 100));
        assert!(net.quiesce(SETTLE));
        for i in 0..5 {
            p.publish(Publication::new().with("x", i));
        }
        assert!(
            s.move_to(B2, ProtocolKind::Reconfig, Duration::from_secs(10)),
            "move commits under {wire}"
        );
        for i in 5..10 {
            p.publish(Publication::new().with("x", i));
        }
        assert!(net.quiesce(SETTLE));
        let got: Vec<PubId> = s.drain().iter().map(|n| n.id).collect();
        properties::assert_exactly_once(got.iter().copied()).expect("no duplicates");
        net.shutdown();
        got.into_iter().collect::<BTreeSet<_>>()
    };
    let binary = run(WireMode::Binary);
    let json = run(WireMode::Json);
    assert_eq!(binary.len(), 10, "binary mode lost notifications");
    assert_eq!(
        binary, json,
        "the two codecs must deliver the same notifications"
    );
}
