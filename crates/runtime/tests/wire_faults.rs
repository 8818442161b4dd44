//! Wire-level fault injection over real sockets: a peer that frames
//! garbage, dialers whose hello is not one broker id, and a publication
//! flood against a dead neighbour — the regression suite for the
//! framing bugfixes of DESIGN.md §13.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use transmob_broker::Topology;
use transmob_core::MobileBrokerConfig;
use transmob_pubsub::{BrokerId, ClientId, Filter, Publication};
use transmob_runtime::tcp::{TcpClient, TcpNetwork, DEFAULT_DOWN_QUEUE_HWM};

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

/// A `chain(2)` overlay with a publisher at B1 and a subscriber at B2.
fn pair() -> TcpNetwork {
    TcpNetwork::builder()
        .overlay(Topology::chain(2))
        .options(MobileBrokerConfig::reconfig())
        .start()
        .expect("sockets")
}

/// Publishes once and demands exactly one delivery.
fn assert_delivery(net: &TcpNetwork, p: &TcpClient, s: &TcpClient, name: &str, val: i64) {
    p.publish(Publication::new().with(name, val));
    assert!(net.quiesce(SETTLE));
    assert_eq!(s.drain().len(), 1, "one delivery of {name}={val}");
}

/// Dials `net`'s broker 1 raw, sends `hello` and returns the reply line
/// (empty if the acceptor closed the socket without one), plus the
/// socket for the caller to keep writing to.
fn raw_hello(net: &TcpNetwork, hello: &str) -> (String, TcpStream) {
    let addr = net.broker_addr(B1).expect("broker 1 address");
    let sock = TcpStream::connect(addr).expect("connect");
    sock.set_read_timeout(Some(SETTLE)).expect("read timeout");
    let mut w = sock.try_clone().expect("clone");
    w.write_all(hello.as_bytes()).expect("hello");
    w.flush().expect("hello flush");
    let mut reply = String::new();
    let _ = BufReader::new(sock.try_clone().expect("clone")).read_line(&mut reply);
    (reply, sock)
}

/// Satellite bugfix 3: a peer that sends a corrupt frame must not make
/// the reader die silently — the failure is counted, the link-down
/// reason names the corruption, and the overlay heals by redial
/// (a kill and a restart).
#[test]
fn corrupt_frame_is_counted_and_names_the_cause() {
    let net = pair();
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
        let (reply, mut imp) = raw_hello(&net, "2\n");
        assert_eq!(reply, "ok\n", "acceptor must admit the impostor");
        // Not a frame: the first byte promises a 35-byte payload the
        // closed socket never completes.
        imp.write_all(b"#corrupt#\n").expect("garbage");
        imp.flush().expect("garbage flush");
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

/// The handshake admits a hello that is one broker id and nothing else:
/// a trailing token, a non-number or an empty line is refused without
/// `ok`, reaches neither loop (no connection is installed, the live
/// link is untouched) and leaves delivery as it was.
#[test]
fn handshake_refuses_anything_but_one_broker_id() {
    let net = pair();
    let p = net.create_client(B1, ClientId(1));
    let s = net.create_client(B2, ClientId(2));
    p.advertise(attr("x", 0, 100));
    s.subscribe(attr("x", 0, 100));
    assert!(net.quiesce(SETTLE));
    assert_delivery(&net, &p, &s, "x", 1);
    let connects = || {
        let of = |x, y| net.link_stats(x, y).expect("stats").connects;
        (of(B1, B2), of(B2, B1))
    };
    let before = connects();
    for hello in ["2 json\n", "2 bin\n", "x\n", "\n"] {
        let (reply, _sock) = raw_hello(&net, hello);
        assert_eq!(reply, "", "the acceptor answered {hello:?}");
    }
    // Each refusal closed its socket before the next hello was read,
    // so nothing admitted can still be on its way to the loop.
    assert!(net.quiesce(SETTLE));
    assert_eq!(connects(), before, "a refused hello installed a connection");
    assert!(net.link_up(B1, B2) && net.link_up(B2, B1));
    assert_delivery(&net, &p, &s, "x", 2);
    net.shutdown();
}

/// Satellite bugfix 2, end to end at the real mark: a publication flood
/// against a dead neighbour is bounded by [`DEFAULT_DOWN_QUEUE_HWM`]
/// (drops counted), while a subscription issued during the outage — a
/// control frame — survives the overflow and works after the restart.
#[test]
fn down_queue_bounds_flood_but_control_frames_survive() {
    const HWM: usize = DEFAULT_DOWN_QUEUE_HWM;
    let net = pair();
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
    // Flood: 100 publications more than the queue may hold.
    for i in 0..HWM as i64 + 100 {
        p.publish(Publication::new().with("x", 100 + i));
    }
    let dropped = || net.link_stats(B1, B2).expect("stats").dropped_publications;
    wait_until(
        "the mark drops the overflow",
        Duration::from_secs(60),
        || dropped() >= 100,
    );
    // A subscription issued mid-outage rides the same queue as a
    // control frame; the mark must evict a publication, not this.
    let before = dropped();
    let s3 = net.create_client(B1, ClientId(4));
    s3.subscribe(attr("y", 0, 100));
    wait_until("the subscription queues", Duration::from_secs(10), || {
        dropped() > before
    });

    net.restart_broker(B2).expect("restart");
    wait_until("link heals after restart", Duration::from_secs(5), || {
        net.link_up(B1, B2) && net.link_up(B2, B1)
    });
    // The retained tail of the flood flushes to the recovered
    // subscriber — no more than the mark allowed to stay queued.
    assert!(net.quiesce(Duration::from_secs(60)));
    let retained = s.drain().len();
    assert!(
        (1..=HWM).contains(&retained),
        "between 1 and {HWM} flood publications must survive, got {retained}"
    );
    // The control frame survived the overflow: the mid-outage
    // subscription routes publications after the restart.
    assert_delivery(&net, &a2, &s3, "y", 7);
    net.shutdown();
}
