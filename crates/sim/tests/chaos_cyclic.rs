//! Cyclic tier of the chaos suite: the churn contract of
//! `chaos_churn.rs` re-run on a **ring** overlay, where every
//! publisher/subscriber pair is connected by two arcs and multi-path
//! forwarding (DESIGN.md §15) is auto-enabled.
//!
//! What the ring adds on top of the tree-churn contract:
//!
//! - **Degradation before repair**: killing one broker on a redundant
//!   arc must leave delivery intact *immediately* — publications fan
//!   out over both arcs, so the copy travelling the surviving arc
//!   arrives while the failure detector is still inside its
//!   `suspect_after_ns` window and no repair has run anywhere.
//! - **Exactly-once on redundant routes**: with two copies of every
//!   publication racing around the ring, the per-broker dedup windows
//!   (not repair, not luck) must keep the application-layer log
//!   duplicate-free through movement and churn.
//! - **ACI across the cyclic region**: the movement protocols
//!   negotiate along one route of the ring; deaths on and off that
//!   route must still resolve every transaction (source surviving).
//!
//! The randomized tier honours `CHAOS_CASES` (default 128).

use std::collections::BTreeSet;

use proptest::prelude::*;
use transmob_broker::Topology;
use transmob_core::properties::NetworkView;
use transmob_core::{properties, ClientOp, MobileBrokerConfig, ProtocolKind};
use transmob_pubsub::{BrokerId, ClientId, Filter, Publication};
use transmob_sim::{FaultPlan, NetworkModel, ScheduledDeath, Sim, SimDuration, SimTime};

const PUBLISHER: ClientId = ClientId(1);
const MOVER: ClientId = ClientId(2);
const STATIC_SUB: ClientId = ClientId(3);
/// Ring B1–B2–B3–B4–B5–B1; the publisher at B1 and the static
/// subscriber at B3 are joined by two arcs (1–2–3 and 1–5–4–3).
const PUB_HOME: BrokerId = BrokerId(1);
const SUB_HOME: BrokerId = BrokerId(3);
/// The mover travels B4 → B2; the (shortest) movement route is
/// 4–3–2, so B3 doubles as the on-path broker.
const SOURCE: BrokerId = BrokerId(4);
const TARGET: BrokerId = BrokerId(2);
const PATH: BrokerId = SUB_HOME;
/// On the redundant arc between publisher and subscriber, off the
/// movement route.
const ARC: BrokerId = BrokerId(5);

/// One randomized churn schedule on the ring: who dies, and when
/// (offset after the MOVE command, spanning every protocol phase).
#[derive(Debug, Clone)]
struct ChurnCase {
    seed: u64,
    victim: BrokerId,
    death_offset_us: u64,
}

fn arb_case() -> impl Strategy<Value = ChurnCase> {
    (0u64..1 << 48, 0usize..4, 0u64..12_000).prop_map(|(seed, victim, death_offset_us)| ChurnCase {
        seed,
        victim: [PATH, TARGET, SOURCE, ARC][victim],
        death_offset_us,
    })
}

/// Survivors declare a neighbour dead once its link has been down
/// this long.
const SUSPECT_AFTER_NS: u64 = 50_000_000;

fn config_for(protocol: ProtocolKind) -> MobileBrokerConfig {
    let config = match protocol {
        ProtocolKind::Reconfig => MobileBrokerConfig::reconfig(),
        ProtocolKind::Covering => MobileBrokerConfig {
            make_before_break: true,
            ..MobileBrokerConfig::covering()
        },
    };
    MobileBrokerConfig {
        suspect_after_ns: Some(SUSPECT_AFTER_NS),
        ..config
    }
}

fn setup(protocol: ProtocolKind, seed: u64) -> Sim {
    let mut sim = Sim::builder()
        .overlay(Topology::ring(5))
        .options(config_for(protocol))
        .network(NetworkModel::cluster())
        .seed(seed)
        .start();
    sim.enable_durability();
    sim.enable_delivery_log();
    sim.create_client(PUB_HOME, PUBLISHER);
    sim.create_client(SOURCE, MOVER);
    sim.create_client(SUB_HOME, STATIC_SUB);
    let everything = || Filter::builder().ge("x", 0).le("x", 100).build();
    sim.schedule_cmd(SimTime(0), PUBLISHER, ClientOp::Advertise(everything()));
    sim.schedule_cmd(SimTime(0), MOVER, ClientOp::Subscribe(everything()));
    sim.schedule_cmd(SimTime(0), STATIC_SUB, ClientOp::Subscribe(everything()));
    sim.run_to_quiescence();
    sim
}

/// Schedules the movement, a publication stream straddling the death,
/// and the death itself.
fn inject(sim: &mut Sim, case: &ChurnCase, protocol: ProtocolKind) {
    let t0 = sim.now();
    let move_at = t0 + SimDuration::from_millis(1);
    for (i, off_us) in [500u64, 2_000, 4_000, 8_000].iter().enumerate() {
        sim.schedule_cmd(
            t0 + SimDuration::from_micros(*off_us),
            PUBLISHER,
            ClientOp::Publish(Publication::new().with("x", i as i64 + 1)),
        );
    }
    sim.schedule_cmd(move_at, MOVER, ClientOp::MoveTo(TARGET, protocol));
    let mut plan = FaultPlan::new(case.seed);
    plan.deaths.push(ScheduledDeath {
        at: move_at + SimDuration::from_micros(case.death_offset_us),
        broker: case.victim,
    });
    sim.apply_fault_plan(&plan);
}

/// Exactly-once at the application layer: with two copies of every
/// publication racing around the ring, only the dedup windows stand
/// between the subscribers and duplicate deliveries.
fn assert_app_exactly_once(sim: &Sim) -> Result<(), TestCaseError> {
    for client in [MOVER, STATIC_SUB] {
        properties::assert_exactly_once(sim.metrics.deliveries_to(client))
            .map_err(|e| TestCaseError::fail(format!("{client}: {e}")))?;
    }
    Ok(())
}

/// After quiescence, publishes a fresh probe and demands it reach
/// every surviving matching subscriber exactly once. Unlike the chain
/// tier, the static subscriber's home is a legal victim here (it is
/// the movement-path broker), so both subscribers are conditional.
fn assert_post_repair_delivery(sim: &mut Sim, ctx: &str) -> Result<(), TestCaseError> {
    let mut expected: BTreeSet<ClientId> = BTreeSet::new();
    if sim.find_client(STATIC_SUB).is_some() {
        expected.insert(STATIC_SUB);
    }
    if sim.find_client(MOVER).is_some() {
        expected.insert(MOVER);
    }
    let before = sim
        .metrics
        .delivery_log
        .as_ref()
        .expect("delivery log enabled")
        .len();
    let probe_at = sim.now() + SimDuration::from_millis(1);
    sim.schedule_cmd(
        probe_at,
        PUBLISHER,
        ClientOp::Publish(Publication::new().with("x", 55)),
    );
    sim.run_to_quiescence();
    let log = sim
        .metrics
        .delivery_log
        .as_ref()
        .expect("delivery log enabled");
    let mut got: Vec<ClientId> = log[before..].iter().map(|d| d.client).collect();
    got.sort_unstable();
    let got_set: BTreeSet<ClientId> = got.iter().copied().collect();
    prop_assert_eq!(
        got_set.clone(),
        expected,
        "{}: post-repair probe delivery set wrong",
        ctx
    );
    prop_assert_eq!(
        got.len(),
        got_set.len(),
        "{}: post-repair probe duplicated",
        ctx
    );
    let probe_case = properties::ConsistencyCase {
        publisher_broker: PUB_HOME,
        probe: Publication::new().with("x", 55),
        expected: got_set,
    };
    properties::check_routing_consistency(sim, std::slice::from_ref(&probe_case))
        .map_err(|e| TestCaseError::fail(format!("{ctx}: {e}")))?;
    Ok(())
}

fn run_case(case: &ChurnCase, protocol: ProtocolKind) -> Result<(), TestCaseError> {
    let mut sim = setup(protocol, case.seed);
    inject(&mut sim, case, protocol);
    sim.run_to_quiescence();
    let ctx = format!("ring {protocol:?} {case:?}");

    properties::assert_single_instance(&sim)
        .map_err(|e| TestCaseError::fail(format!("{ctx}: {e}")))?;
    assert_app_exactly_once(&sim)?;

    // Atomicity: with the source coordinator alive, the movement must
    // resolve — committed or aborted, never wedged.
    if case.victim != SOURCE {
        for (m, rec) in sim.metrics.moves.iter() {
            prop_assert!(
                rec.committed.is_some(),
                "{}: movement {} wedged (never finished)",
                ctx,
                m
            );
        }
        let committed = sim
            .metrics
            .moves
            .values()
            .any(|r| r.committed == Some(true));
        let expected_home = if committed {
            (!sim.dead_brokers().contains(&TARGET)).then_some(TARGET)
        } else {
            Some(SOURCE)
        };
        prop_assert_eq!(
            sim.find_client(MOVER),
            expected_home,
            "{}: mover not where its outcome says (committed={})",
            ctx,
            committed
        );
    }

    // Routing reconstruction over the (possibly still cyclic) repaired
    // overlay: every survivor's primary route leads to each live
    // publisher.
    properties::check_srt_paths(&sim).map_err(|e| TestCaseError::fail(format!("{ctx}: {e}")))?;

    assert_post_repair_delivery(&mut sim, &ctx)
}

fn chaos_cases() -> u32 {
    std::env::var("CHAOS_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(128)
}

/// The acceptance criterion of the multi-path redesign: a broker death
/// on one redundant arc must NOT interrupt delivery while the failure
/// detector is still blind. A probe published *inside* the detection
/// window — after the death, before any survivor has noticed — must
/// reach both subscribers via the surviving arc.
#[test]
fn surviving_arc_delivers_inside_the_detection_window() {
    for victim in [TARGET, ARC] {
        let mut sim = setup(ProtocolKind::Reconfig, 11);
        let t0 = sim.now();
        let death_at = t0 + SimDuration::from_millis(1);
        sim.kill_broker(death_at, victim);
        let before = sim
            .metrics
            .delivery_log
            .as_ref()
            .expect("delivery log enabled")
            .len();
        sim.schedule_cmd(
            t0 + SimDuration::from_millis(3),
            PUBLISHER,
            ClientOp::Publish(Publication::new().with("x", 77)),
        );
        // Run to a horizon strictly inside the detection window: the
        // victim is dead but no survivor's suspicion timer has fired.
        let suspect_after = config_for(ProtocolKind::Reconfig).suspect_after_ns;
        let horizon = t0 + SimDuration::from_millis(20);
        assert!(horizon < death_at + SimDuration::from_nanos(suspect_after.expect("detector")));
        sim.run_until(horizon);
        assert!(sim.dead_brokers().contains(&victim));
        // No survivor has detected the death yet: every live broker's
        // own overlay copy still carries the victim. (The sim's
        // gods-eye `topology()` is bookkeeping — it repairs eagerly at
        // the death instant.)
        for id in sim.view_broker_ids() {
            assert!(
                sim.view_broker(id).topology().contains(victim),
                "survivor {id} repaired before its suspicion timer fired"
            );
        }
        let log = sim
            .metrics
            .delivery_log
            .as_ref()
            .expect("delivery log enabled");
        let got: Vec<ClientId> = log[before..].iter().map(|d| d.client).collect();
        let got_set: BTreeSet<ClientId> = got.iter().copied().collect();
        assert_eq!(
            got_set,
            BTreeSet::from([MOVER, STATIC_SUB]),
            "victim {victim}: pre-repair probe must arrive via the surviving arc"
        );
        assert_eq!(
            got.len(),
            got_set.len(),
            "victim {victim}: probe duplicated"
        );

        // The full run afterwards stays consistent: repair prunes the
        // dead arc, exactly-once holds end to end.
        sim.run_to_quiescence();
        for id in sim.view_broker_ids() {
            assert!(
                !sim.view_broker(id).topology().contains(victim),
                "survivor {id} never repaired"
            );
        }
        assert_app_exactly_once(&sim).expect("exactly-once across repair");
        assert_post_repair_delivery(&mut sim, &format!("detection-window victim {victim}"))
            .expect("delivery after repair");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(chaos_cases()))]

    #[test]
    fn broker_death_mid_movement_on_the_ring_preserves_aci(case in arb_case()) {
        run_case(&case, ProtocolKind::Reconfig)?;
        run_case(&case, ProtocolKind::Covering)?;
    }
}

/// Deterministic sweep: kill every non-publisher broker with offsets
/// across the protocol window, for both protocols.
#[test]
fn ring_death_sweep_over_every_protocol_step() {
    for protocol in [ProtocolKind::Reconfig, ProtocolKind::Covering] {
        for victim in [PATH, TARGET, SOURCE, ARC] {
            for offset_ms in (0..=12u64).step_by(2) {
                let case = ChurnCase {
                    seed: 1000 * offset_ms + victim.0 as u64,
                    victim,
                    death_offset_us: offset_ms * 1000,
                };
                if let Err(e) = run_case(&case, protocol) {
                    panic!("ring sweep {protocol:?} victim {victim} offset {offset_ms}ms: {e}");
                }
            }
        }
    }
}

/// Repair without any movement in flight: the ring degrades to a
/// chain, no repair edge is needed, and publications keep flowing.
#[test]
fn ring_repair_needs_no_new_edge() {
    let mut sim = setup(ProtocolKind::Reconfig, 7);
    sim.kill_broker(sim.now() + SimDuration::from_millis(1), ARC);
    sim.run_to_quiescence();
    assert!(sim.dead_brokers().contains(&ARC));
    assert!(!sim.topology().contains(ARC), "gods-eye overlay repaired");
    assert!(
        sim.topology().is_tree(),
        "ring minus one broker is a chain — repair must not add edges"
    );
    assert_post_repair_delivery(&mut sim, "ring repair").expect("delivery after repair");
    assert_eq!(sim.total_anomalies(), 0, "clean repair counts no anomalies");
}

/// Same schedule, same seed, same result: multi-path fan-out and
/// dedup must not perturb determinism.
#[test]
fn cyclic_churn_runs_are_deterministic_per_seed() {
    let case = ChurnCase {
        seed: 42,
        victim: ARC,
        death_offset_us: 2_500,
    };
    let fingerprint = |_: u32| {
        let mut sim = setup(ProtocolKind::Reconfig, case.seed);
        inject(&mut sim, &case, ProtocolKind::Reconfig);
        sim.run_to_quiescence();
        (
            sim.now(),
            sim.metrics.total_traffic(),
            sim.metrics.delivery_count,
            sim.events_processed(),
        )
    };
    assert_eq!(fingerprint(0), fingerprint(1));
}
