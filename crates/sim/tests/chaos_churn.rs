//! Churn tier of the chaos suite: *permanent* broker deaths injected
//! mid-movement, with the overlay self-repair asserted to preserve the
//! paper's Sec. 3 ACI properties for every **surviving** participant.
//!
//! Churn contract (DESIGN.md §14):
//!
//! - **Atomicity under churn**: every movement whose source coordinator
//!   survives either commits or aborts cleanly — no transaction wedges,
//!   no half-moved client. The moving client keeps exactly one
//!   `Started` stub among the survivors (or died with its only host).
//! - **Isolation / exactly-once**: no surviving client is surfaced the
//!   same publication twice, even while repair floods re-propagate
//!   routing state over new edges.
//! - **Delivery transparency after repair**: once the repair has
//!   quiesced, a fresh publication reaches *every* surviving matching
//!   subscriber. (Publications in flight at the death instant may be
//!   lost with the victim's queues — permanent death forfeits the
//!   persisted-queue assumption that crash/restart keeps.)
//!
//! The randomized tier honours `CHAOS_CASES` (default 128); the death
//! offset sweeps the whole protocol window so the victim dies in every
//! phase of both movement protocols.

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
/// Chain B1–B2–B3–B4–B5; publisher at B1, static subscriber at B5.
const PUB_HOME: BrokerId = BrokerId(1);
const SOURCE: BrokerId = BrokerId(4);
const TARGET: BrokerId = BrokerId(2);
const PATH: BrokerId = BrokerId(3);
const SUB_HOME: BrokerId = BrokerId(5);

/// One randomized churn schedule: who dies, and when (offset after the
/// MOVE command, spanning every protocol phase).
#[derive(Debug, Clone)]
struct ChurnCase {
    seed: u64,
    victim: BrokerId,
    death_offset_us: u64,
}

fn arb_case() -> impl Strategy<Value = ChurnCase> {
    (0u64..1 << 48, 0usize..3, 0u64..12_000).prop_map(|(seed, victim, death_offset_us)| ChurnCase {
        seed,
        victim: [PATH, TARGET, SOURCE][victim],
        death_offset_us,
    })
}

fn config_for(protocol: ProtocolKind) -> MobileBrokerConfig {
    match protocol {
        ProtocolKind::Reconfig => MobileBrokerConfig::reconfig(),
        ProtocolKind::Covering => MobileBrokerConfig {
            make_before_break: true,
            ..MobileBrokerConfig::covering()
        },
    }
}

fn setup(protocol: ProtocolKind, seed: u64) -> Sim {
    let mut sim = Sim::builder()
        .overlay(Topology::chain(5))
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

/// Exactly-once at the application layer, across repair re-propagation
/// and transient multi-path forwarding.
fn assert_app_exactly_once(sim: &Sim) -> Result<(), TestCaseError> {
    for client in [MOVER, STATIC_SUB] {
        properties::assert_exactly_once(sim.metrics.deliveries_to(client))
            .map_err(|e| TestCaseError::fail(format!("{client}: {e}")))?;
    }
    Ok(())
}

/// After quiescence, publishes a fresh probe and demands it reach every
/// surviving matching subscriber exactly once (delivery transparency
/// after repair).
fn assert_post_repair_delivery(sim: &mut Sim, ctx: &str) -> Result<(), TestCaseError> {
    let mut expected: BTreeSet<ClientId> = BTreeSet::from([STATIC_SUB]);
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
    // The static routing fixpoint over the survivors' tables must agree.
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
    let ctx = format!("{protocol:?} {case:?}");

    // Safety half of ACI among the survivors.
    properties::assert_single_instance(&sim)
        .map_err(|e| TestCaseError::fail(format!("{ctx}: {e}")))?;
    assert_app_exactly_once(&sim)?;

    // Every survivor's derived routing state (forwarding column, match
    // index, per-move pending index) equals what its rows say after
    // the repair purge, and the movement left no shadow configuration
    // behind on any of them.
    for id in sim.view_broker_ids() {
        let core = sim.broker(id).core();
        core.check_invariants();
        prop_assert_eq!(
            core.pending_moves(),
            Vec::new(),
            "{}: shadow configuration left at {}",
            ctx,
            id
        );
    }

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
        // A committed movement placed the client at the target (which
        // may then have died with it — same fate as any stationary
        // client whose broker dies); an aborted one resumed it at the
        // source. Never anywhere else, never in two places.
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

    // Routing reconstruction: every survivor's SRT points along the
    // repaired tree toward each live publisher.
    properties::check_srt_paths(&sim).map_err(|e| TestCaseError::fail(format!("{ctx}: {e}")))?;

    assert_post_repair_delivery(&mut sim, &ctx)
}

fn chaos_cases() -> u32 {
    std::env::var("CHAOS_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(128)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(chaos_cases()))]

    #[test]
    fn broker_death_mid_movement_preserves_aci(case in arb_case()) {
        run_case(&case, ProtocolKind::Reconfig)?;
        run_case(&case, ProtocolKind::Covering)?;
    }
}

/// Deterministic sweep: kill the path broker, the target, and the
/// source with every millisecond offset across the protocol window,
/// for both protocols.
#[test]
fn death_sweep_over_every_protocol_step() {
    for protocol in [ProtocolKind::Reconfig, ProtocolKind::Covering] {
        for victim in [PATH, TARGET, SOURCE] {
            for offset_ms in 0..=12u64 {
                let case = ChurnCase {
                    seed: 1000 * offset_ms + victim.0 as u64,
                    victim,
                    death_offset_us: offset_ms * 1000,
                };
                if let Err(e) = run_case(&case, protocol) {
                    panic!("sweep {protocol:?} victim {victim} offset {offset_ms}ms: {e}");
                }
            }
        }
    }
}

/// Repair without any movement in flight: the overlay heals and
/// publications flow along the new edge.
#[test]
fn repair_restores_delivery_with_no_movement() {
    let mut sim = setup(ProtocolKind::Reconfig, 7);
    sim.kill_broker(sim.now() + SimDuration::from_millis(1), PATH);
    sim.run_to_quiescence();
    assert!(sim.dead_brokers().contains(&PATH));
    assert!(!sim.topology().contains(PATH), "gods-eye overlay repaired");
    assert_post_repair_delivery(&mut sim, "no-movement repair").expect("delivery after repair");
    assert_eq!(sim.total_anomalies(), 0, "clean repair counts no anomalies");
}

/// Same schedule, same seed, same result: churn must not perturb
/// determinism.
#[test]
fn churn_runs_are_deterministic_per_seed() {
    let case = ChurnCase {
        seed: 42,
        victim: PATH,
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
