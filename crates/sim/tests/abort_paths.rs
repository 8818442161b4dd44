//! Failure injection on the movement transaction: negotiate timeouts
//! fired mid-flight, abort passes crossing in-flight reconfiguration
//! messages, target-side state timeouts, and rollback of shadow
//! routing configurations — the non-blocking 3PC behaviour of
//! Sec. 4.1/4.2.

use transmob_broker::Topology;
use transmob_core::{properties, ClientOp, MobileBrokerConfig, ProtocolKind, TimerKind};
use transmob_pubsub::{BrokerId, ClientId, Filter, Publication};
use transmob_sim::{NetworkModel, Sim, SimDuration};

fn b(i: u32) -> BrokerId {
    BrokerId(i)
}
fn c(i: u64) -> ClientId {
    ClientId(i)
}
fn range(lo: i64, hi: i64) -> Filter {
    Filter::builder().ge("x", lo).le("x", hi).build()
}

fn timed_config() -> MobileBrokerConfig {
    MobileBrokerConfig {
        negotiate_timeout_ns: Some(1_000_000_000),
        state_timeout_ns: Some(2_000_000_000),
        ..MobileBrokerConfig::reconfig()
    }
}

fn setup(n: u32, config: MobileBrokerConfig) -> Sim {
    let mut net = Sim::builder()
        .overlay(Topology::chain(n))
        .options(config)
        .network(NetworkModel::instant())
        .start();
    net.enable_delivery_log();
    net.create_client(b(1), c(1));
    net.create_client(b(n), c(2));
    net.client_op(c(1), ClientOp::Advertise(range(0, 100)));
    net.client_op(c(2), ClientOp::Subscribe(range(0, 100)));
    net
}

fn publish(net: &mut Sim, x: i64) {
    net.client_op(c(1), ClientOp::Publish(Publication::new().with("x", x)));
}

#[test]
fn negotiate_timeout_before_any_delivery_aborts_cleanly() {
    let mut net = setup(5, timed_config());
    // Start the move but do not let the negotiate travel at all.
    net.client_op_deferred(c(2), ClientOp::MoveTo(b(2), ProtocolKind::Reconfig));
    let (broker, token) = net
        .armed_timers()
        .into_iter()
        .find(|(_, t)| t.kind == TimerKind::Negotiate)
        .expect("negotiate timer armed");
    assert!(net.fire_timer(broker, token));
    // The movement aborted; the client resumed at the source.
    assert!(net
        .metrics
        .finished_moves()
        .any(|(_, r)| r.committed == Some(false)));
    assert_eq!(net.find_client(c(2)), Some(b(5)));
    // The network is fully clean: a publication arrives exactly once,
    // and the late negotiate (still queued when the timer fired) plus
    // the abort sweep left no pendings behind.
    publish(&mut net, 10);
    let stream = net.metrics.deliveries_to(c(2));
    assert_eq!(stream.len(), 1);
    properties::assert_exactly_once(stream).unwrap();
    properties::assert_single_instance(&net).unwrap();
    for i in 1..=5 {
        let core = net.broker(b(i)).core();
        assert!(
            core.prt().iter().all(|(_, e)| e.pending.is_none()),
            "stale pending at B{i}"
        );
    }
}

#[test]
fn negotiate_timeout_crossing_reconfigure_in_flight() {
    // Let the protocol progress partway: the negotiate reaches the
    // target and the reconfiguration message starts walking back, THEN
    // the source times out. The abort pass and the reconfigure cross;
    // the source re-issues the abort when the late reconfigure
    // arrives, and everything converges clean.
    for steps in 1..12usize {
        let mut net = setup(5, timed_config());
        net.client_op_deferred(c(2), ClientOp::MoveTo(b(2), ProtocolKind::Reconfig));
        net.step_n(steps);
        let Some((broker, token)) = net
            .armed_timers()
            .into_iter()
            .find(|(_, t)| t.kind == TimerKind::Negotiate)
        else {
            // The protocol already passed the wait state: nothing to
            // inject at this depth.
            net.settle();
            continue;
        };
        net.fire_timer(broker, token);
        net.settle();
        // Whatever the interleaving, the invariants hold:
        properties::assert_single_instance(&net).unwrap();
        publish(&mut net, 10 + steps as i64);
        let stream = net.metrics.deliveries_to(c(2));
        assert_eq!(
            stream.len(),
            1,
            "delivery broken at injection depth {steps}"
        );
        for i in 1..=5 {
            let core = net.broker(b(i)).core();
            assert!(
                core.prt().iter().all(|(_, e)| e.pending.is_none()),
                "stale pending at B{i} (depth {steps})"
            );
        }
    }
}

#[test]
fn state_timeout_after_source_crash_equivalent() {
    // Drive the protocol until the target prepared (client copy
    // created, state timer armed), then pretend the source died by
    // firing the target's state timeout. The target destroys its copy
    // and sweeps the path back.
    let mut net = setup(5, timed_config());
    net.client_op_deferred(c(2), ClientOp::MoveTo(b(2), ProtocolKind::Reconfig));
    // Walk the negotiate to the target (3 hops) and let it prepare,
    // but stop before the reconfigure reaches the source.
    net.step_n(4);
    let (broker, token) = net
        .armed_timers()
        .into_iter()
        .find(|(_, t)| t.kind == TimerKind::State)
        .expect("target prepared and armed the state timer");
    // Drop everything still in flight (simulates a source crash whose
    // messages never materialize).
    let dropped = net.drain_queue();
    assert!(dropped > 0);
    net.fire_timer(broker, token);
    net.settle();
    // Target copy destroyed; only the (crashed, here: silent) source
    // copy remains.
    assert_eq!(net.find_client(c(2)), Some(b(5)));
    properties::assert_single_instance(&net).unwrap();
    let target_core = net.broker(b(2)).core();
    assert!(
        target_core.prt().iter().all(|(_, e)| e.pending.is_none()),
        "target kept a pending after state timeout"
    );
}

#[test]
fn blocking_variant_never_times_out() {
    // The blocking variant is an explicit opt-in now that finite
    // timeouts are the default: no timers are ever armed and the
    // transaction simply completes.
    let mut net = setup(4, MobileBrokerConfig::reconfig().blocking());
    net.client_op_deferred(c(2), ClientOp::MoveTo(b(2), ProtocolKind::Reconfig));
    assert!(net.armed_timers().is_empty(), "blocking mode armed a timer");
    net.settle();
    assert!(net.armed_timers().is_empty());
    assert_eq!(net.find_client(c(2)), Some(b(2)));
}

#[test]
fn default_config_arms_finite_timeouts() {
    // The non-blocking variant is the default: starting a movement
    // arms the source's negotiate timer without any explicit timeout
    // configuration (a partitioned target must not wedge the source).
    let mut net = setup(4, MobileBrokerConfig::reconfig());
    net.client_op_deferred(c(2), ClientOp::MoveTo(b(2), ProtocolKind::Reconfig));
    assert!(
        net.armed_timers()
            .iter()
            .any(|(_, t)| t.kind == TimerKind::Negotiate),
        "default config must arm the negotiate timer"
    );
    net.settle();
    // A completed move leaves no timer behind.
    assert!(net.armed_timers().is_empty());
    assert_eq!(net.find_client(c(2)), Some(b(2)));
}

#[test]
fn covering_timeout_on_request_aborts() {
    let mut net = setup(5, timed_config());
    net.client_op_deferred(c(2), ClientOp::MoveTo(b(2), ProtocolKind::Covering));
    let (broker, token) = net
        .armed_timers()
        .into_iter()
        .find(|(_, t)| t.kind == TimerKind::Negotiate)
        .expect("request timer armed");
    net.fire_timer(broker, token);
    net.settle();
    assert_eq!(net.find_client(c(2)), Some(b(5)));
    publish(&mut net, 42);
    assert_eq!(net.metrics.deliveries_to(c(2)).len(), 1);
}

#[test]
fn aborted_then_retried_move_succeeds() {
    let mut net = setup(5, timed_config());
    // Abort the first attempt immediately.
    net.client_op_deferred(c(2), ClientOp::MoveTo(b(2), ProtocolKind::Reconfig));
    let (broker, token) = net.armed_timers()[0];
    net.fire_timer(broker, token);
    net.settle();
    assert_eq!(net.find_client(c(2)), Some(b(5)));
    // Retry: must commit normally.
    net.client_op(c(2), ClientOp::MoveTo(b(2), ProtocolKind::Reconfig));
    assert_eq!(net.find_client(c(2)), Some(b(2)));
    publish(&mut net, 10);
    let stream = net.metrics.deliveries_to(c(2));
    assert_eq!(stream.len(), 1);
    properties::assert_exactly_once(stream).unwrap();
}

#[test]
fn a_crashed_brokers_timer_cannot_be_fired() {
    // The timed path holds a crashed broker's timer until restart;
    // firing it by hand must not run the handler of a broker that is
    // down either.
    let mut net = setup(5, timed_config());
    net.client_op_deferred(c(2), ClientOp::MoveTo(b(2), ProtocolKind::Reconfig));
    let (broker, token) = net
        .armed_timers()
        .into_iter()
        .find(|(_, t)| t.kind == TimerKind::Negotiate)
        .expect("negotiate timer armed");
    assert_eq!(broker, b(5));
    // Back up before the timer's own deadline (1 s).
    let restart_at = net.now() + SimDuration::from_millis(500);
    net.crash_broker(b(5), restart_at);
    let traffic = net.metrics.total_traffic();
    assert!(!net.fire_timer(broker, token), "B5 is down");
    assert_eq!(net.metrics.total_traffic(), traffic, "a down broker sent");
    assert!(net.armed_timers().contains(&(broker, token)), "still armed");
    // Restarted, B5 takes the replies it was held back from and the
    // movement commits, its timer never having fired.
    net.settle();
    assert!(net.now() >= restart_at);
    assert!(net.armed_timers().is_empty());
    assert_eq!(net.find_client(c(2)), Some(b(2)));
    properties::assert_single_instance(&net).unwrap();
    publish(&mut net, 10);
    assert_eq!(net.metrics.deliveries_to(c(2)).len(), 1);
}
