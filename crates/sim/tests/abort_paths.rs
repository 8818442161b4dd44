//! Failure injection on the movement transaction: negotiate timeouts
//! fired mid-flight, abort passes crossing in-flight reconfiguration
//! messages, target-side state timeouts, and rollback of shadow
//! routing configurations — the non-blocking 3PC behaviour of
//! Sec. 4.1/4.2.

use transmob_broker::Topology;
use transmob_core::{properties, ClientOp, MobileBrokerConfig, ProtocolKind, TimerToken};
use transmob_pubsub::{BrokerId, ClientId, Filter, Publication};
use transmob_sim::{NetworkModel, Sim, SimDuration, SimTime};

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
        suspect_after_ns: Some(50_000_000),
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
        .find(|(_, t)| matches!(t, TimerToken::Negotiate(_)))
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
            .find(|(_, t)| matches!(t, TimerToken::Negotiate(_)))
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
        .find(|(_, t)| matches!(t, TimerToken::State(_)))
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
            .any(|(_, t)| matches!(t, TimerToken::Negotiate(_))),
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
        .find(|(_, t)| matches!(t, TimerToken::Negotiate(_)))
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
        .find(|(_, t)| matches!(t, TimerToken::Negotiate(_)))
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

fn negotiate_timer(net: &Sim) -> (BrokerId, TimerToken) {
    net.armed_timers()
        .into_iter()
        .find(|(_, t)| matches!(t, TimerToken::Negotiate(_)))
        .expect("negotiate timer armed")
}

#[test]
fn timer_due_in_a_warm_outage_fires_once_at_the_restart_in_arming_order() {
    let mut net = setup(5, timed_config());
    // An advertisement flooding from B1 has been executed by B2..B4;
    // its last frame, B4 to B5, is on the wire.
    net.create_client(b(1), c(3));
    net.client_op_deferred(c(3), ClientOp::Advertise(range(200, 300)));
    assert_eq!(net.step_n(3), 3);
    let srt_rows = |net: &Sim| net.broker(b(5)).core().srt().len();
    let rows = srt_rows(&net);
    // B5 starts the movement, arming the 1 s negotiate timer behind
    // that frame, and goes down until after the deadline.
    net.client_op_deferred(c(2), ClientOp::MoveTo(b(2), ProtocolKind::Reconfig));
    let (broker, token) = negotiate_timer(&net);
    assert_eq!(broker, b(5));
    let restart_at = net.now() + SimDuration::from_millis(1500);
    net.crash_broker(b(5), restart_at);
    assert!(!net.fire_timer(broker, token), "B5 is down");
    // A down broker's timer cannot come due, so settling runs past the
    // deadline and through the restart. There the timer is due, in the
    // order it was armed among the inputs B5 was held back from: the
    // advertisement sent before it replays first, the target's reply
    // sent after it waits behind it.
    net.settle();
    assert_eq!(net.now(), restart_at);
    assert_eq!(
        srt_rows(&net),
        rows + 1,
        "the timer overtook the earlier frame"
    );
    assert!(
        net.armed_timers().contains(&(broker, token)),
        "the reply overtook it"
    );
    assert_eq!(net.metrics.finished_count(), 0);
    // On the clock it fires there and then, once: the movement aborts
    // at the restart instant, and the late reply finds it gone.
    net.run_to_quiescence();
    let ends: Vec<_> = (net.metrics.finished_moves())
        .map(|(_, r)| (r.committed, r.end))
        .collect();
    assert_eq!(ends, [(Some(false), Some(restart_at))]);
    assert!(net.armed_timers().is_empty());
    assert_eq!(net.find_client(c(2)), Some(b(5)));
    properties::assert_single_instance(&net).unwrap();
}

#[test]
fn timer_due_in_a_state_loss_outage_is_lost_and_the_recovered_one_fires() {
    let mut net = setup(5, timed_config());
    net.enable_durability();
    net.client_op_deferred(c(2), ClientOp::MoveTo(b(2), ProtocolKind::Reconfig));
    let armed = net.armed_timers();
    assert_eq!(armed, [negotiate_timer(&net)]);
    // The negotiate is lost, and B5 loses its state until after the
    // 1 s deadline.
    assert!(net.drain_queue() > 0);
    let restart_at = net.now() + SimDuration::from_millis(1500);
    net.crash_broker_lossy(b(5), restart_at);
    net.run_until(restart_at);
    // The timer died with the process: nothing fired, at its deadline
    // or at the restart. Recovery armed the movement's timer afresh.
    assert_eq!(net.metrics.finished_count(), 0);
    assert_eq!(net.armed_timers(), armed);
    net.run_to_quiescence();
    let ends: Vec<_> = (net.metrics.finished_moves())
        .map(|(_, r)| (r.committed, r.end))
        .collect();
    let refired_at = restart_at + SimDuration::from_secs(1);
    assert_eq!(ends, [(Some(false), Some(refired_at))]);
    assert!(net.armed_timers().is_empty());
    assert_eq!(net.find_client(c(2)), Some(b(5)));
}

#[test]
fn a_dead_brokers_timers_die_with_it() {
    let mut net = setup(5, timed_config());
    net.client_op_deferred(c(2), ClientOp::MoveTo(b(2), ProtocolKind::Reconfig));
    assert_eq!(negotiate_timer(&net).0, b(5));
    net.drain_queue();
    net.kill_broker(net.now(), b(5));
    net.run_to_quiescence();
    assert!(net.armed_timers().is_empty());
    assert!(
        net.now() < SimTime::ZERO + SimDuration::from_secs(1),
        "the clock ran on to a dead broker's deadline"
    );
}
