//! Bit-identity pins for timed runs: one fixed scenario per movement
//! protocol whose virtual clock, event count, traffic and movement
//! metrics must repeat to the last bit. A change to the event loop,
//! the link model or the timer bookkeeping that is meant to be
//! invisible to timed runs keeps these constants.
//!
//! What the pins cover since timers left the event heap: `now()` is
//! the instant of the last event that ran (the last movement's last
//! frame, within milliseconds of the plan deadline), and
//! `events_processed()` counts events that ran: frames, commands and
//! the timers that fired, of which these runs have none. A cancelled
//! timer is in neither. That change moved exactly those two fields (two
//! cancelled 30 s timers a movement; the clock no longer runs on to
//! their deadlines); traffic, median latency and messages per move
//! kept their constants, as they must under any change that keeps the
//! `(time, seq)` order of the events that do run.

use std::collections::BTreeMap;

use transmob_core::properties::NetworkView;
use transmob_core::{ClientOp, MobileBrokerConfig, ProtocolKind};
use transmob_pubsub::{BrokerId, ClientId, Publication};
use transmob_sim::{MovementPlan, NetworkModel, Sim, SimDuration, SimTime};
use transmob_workloads::{default_14, full_space_adv, paper_default, SubWorkload, ATTR};

/// What a run is pinned by: `now()`, `events_processed()`,
/// `total_traffic()`, and the bits of the median movement latency and
/// of the messages per movement.
type Trace = (SimTime, u64, u64, u64, u64);

/// `default_14()`, a publisher at B6 publishing ten times a second,
/// 40 `Covered` subscribers ping-ponging 1↔13 and 2↔14 with a
/// two-second pause for 20 virtual seconds, `cluster()` timing, seed 1.
/// Runs to quiescence.
fn ping_pong(protocol: ProtocolKind) -> Sim {
    let config = match protocol {
        ProtocolKind::Reconfig => MobileBrokerConfig::reconfig(),
        ProtocolKind::Covering => MobileBrokerConfig::covering(),
    };
    let mut sim = Sim::builder()
        .overlay(default_14())
        .options(config)
        .network(NetworkModel::cluster())
        .seed(1)
        .start();
    let publisher = ClientId(1);
    sim.create_client(BrokerId(6), publisher);
    sim.schedule_cmd(SimTime(0), publisher, ClientOp::Advertise(full_space_adv()));
    let movers = paper_default(40, SubWorkload::Covered);
    for (i, spec) in movers.iter().enumerate() {
        sim.create_client(spec.start, spec.id);
        sim.schedule_cmd(
            SimTime(1_000_000 + i as u64 * 25_000_000),
            spec.id,
            ClientOp::Subscribe(spec.subscription.clone()),
        );
    }
    sim.run_to_quiescence();
    let t0 = sim.now() + SimDuration::from_millis(100);
    let span = SimDuration::from_secs(20);
    let pause = SimDuration::from_secs(2);
    for k in 0..200u64 {
        sim.schedule_cmd(
            t0 + SimDuration::from_millis(100 * k + 50),
            publisher,
            ClientOp::Publish(Publication::new().with(ATTR, (k as i64 * 37) % 10_000)),
        );
    }
    for (i, spec) in movers.iter().enumerate() {
        sim.install_plan(
            spec.id,
            MovementPlan {
                destinations: spec.route.clone(),
                pause,
                protocol,
            },
            t0 + pause.mul_f64(i as f64 / movers.len() as f64),
        );
    }
    sim.metrics.reset_measurement(t0);
    sim.set_plan_deadline(t0 + span);
    sim.run_until(t0 + span);
    sim.run_to_quiescence();
    assert_eq!(sim.total_anomalies(), 0);
    sim
}

fn trace(sim: &Sim) -> Trace {
    (
        sim.now(),
        sim.events_processed(),
        sim.metrics.total_traffic(),
        sim.metrics.latency_percentile_ms(0.5).to_bits(),
        sim.metrics.messages_per_move().to_bits(),
    )
}

#[test]
fn reconfig_ping_pong_trace_is_pinned() {
    assert_eq!(
        trace(&ping_pong(ProtocolKind::Reconfig)),
        (
            SimTime(21_078_153_879),
            19_968,
            9_192,
            4620734675005548702,
            4626317059427865420
        )
    );
}

#[test]
fn covering_ping_pong_trace_is_pinned() {
    assert_eq!(
        trace(&ping_pong(ProtocolKind::Covering)),
        (
            SimTime(21_076_699_474),
            20_948,
            12_003,
            4622096673308106457,
            4628279638482997053
        )
    );
}

/// Sec. 4.4's cost claim (DESIGN.md §16): a committed reconfiguration
/// movement exchanges four messages a hop of its route (`negotiate`
/// and `ack` routed, `reconfigure` and `state` hop by hop), whatever
/// the tables hold.
#[test]
fn a_reconfig_movement_costs_four_messages_a_hop() {
    let sim = ping_pong(ProtocolKind::Reconfig);
    let mut committed = 0;
    for (m, rec) in sim.metrics.finished_moves() {
        assert_eq!(rec.committed, Some(true), "{m:?} aborted");
        let route = (sim.topology().route(rec.source, rec.target))
            .expect("both ends of a movement are in the overlay");
        assert_eq!(
            rec.messages,
            4 * route.hops() as u64,
            "{m:?} from {:?} to {:?}",
            rec.source,
            rec.target
        );
        committed += 1;
    }
    assert_eq!(committed, 398);
}

/// The honest negative: a target never retires its record. Nothing
/// removes a target record in Commit or Abort unless its source dies,
/// so at the end of the ping-pong every broker holds one record per
/// movement it was ever the target of, while every source and path
/// record is gone. Retiring them needs a protocol rule first: the
/// duplicate-`StateTransfer` and late-`CovTransfer` arms read a
/// committed target's record (ROADMAP open items).
#[test]
fn target_records_are_never_retired() {
    for (protocol, movements) in [(ProtocolKind::Reconfig, 398), (ProtocolKind::Covering, 399)] {
        let sim = ping_pong(protocol);
        let mut targeted: BTreeMap<BrokerId, usize> = BTreeMap::new();
        for rec in sim.metrics.moves.values() {
            *targeted.entry(rec.target).or_default() += 1;
        }
        let mut kept: BTreeMap<BrokerId, usize> = BTreeMap::new();
        for id in sim.view_broker_ids() {
            let moves = sim.broker(id).snapshot().moves;
            assert!(moves.src.is_empty(), "{protocol}: source record at {id}");
            assert!(moves.path.is_empty(), "{protocol}: path record at {id}");
            if !moves.tgt.is_empty() {
                kept.insert(id, moves.tgt.len());
            }
        }
        assert_eq!(kept, targeted, "{protocol}");
        assert_eq!(kept.values().sum::<usize>(), movements, "{protocol}");
    }
}
