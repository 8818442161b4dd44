//! Chaos-recovery suite: seeded fault schedules (crashes with state
//! loss, warm crashes, link partitions, drops, duplication) injected
//! at every phase of both movement protocols, with the paper's Sec. 3
//! ACI properties asserted after quiescence.
//!
//! Fault-model contract (DESIGN.md §9):
//!
//! - **Loss-free schedules** (crashes + partitions, no `drop_prob`):
//!   messages are delayed, never lost — the movement must *commit*,
//!   every publication must reach the mover exactly once, and routing
//!   consistency plus the SRT path invariant must hold.
//! - **Dropping schedules** leave the paper's reliable-channel
//!   assumption, so only the safety half is guaranteed: at most one
//!   `Started` copy, no duplicate surfaced notification.
//!
//! The case count honours `CHAOS_CASES` (default 256); each case runs
//! both protocols, so the default run covers ≥256 schedules per
//! protocol. A deterministic sweep additionally crashes the source,
//! target, and path broker at every millisecond offset across the
//! protocol window.

use std::collections::BTreeSet;

use proptest::prelude::*;
use transmob_broker::Topology;
use transmob_core::properties::NetworkView;
use transmob_core::{properties, ClientOp, MobileBrokerConfig, ProtocolKind};
use transmob_pubsub::{BrokerId, ClientId, Filter, Publication};
use transmob_sim::{
    CrashKind, FaultPlan, LinkFaults, NetworkModel, Partition, ScheduledCrash, Sim, SimDuration,
    SimTime,
};

const PUBLISHER: ClientId = ClientId(1);
const MOVER: ClientId = ClientId(2);
const SOURCE: BrokerId = BrokerId(4);
const TARGET: BrokerId = BrokerId(2);
const PATH: BrokerId = BrokerId(3);
const N_PUBS: usize = 5;

/// One randomized fault schedule.
#[derive(Debug, Clone)]
struct ChaosCase {
    seed: u64,
    victim: BrokerId,
    kind: CrashKind,
    /// Crash offset after the MOVE command, in microseconds (the whole
    /// protocol runs in ~6 ms on the cluster model, so 0..12 ms spans
    /// every phase including after commit).
    crash_offset_us: u64,
    outage_ms: u64,
    /// Optional link outage: (edge index on the chain, start offset µs,
    /// duration ms).
    partition: Option<(usize, u64, u64)>,
    drop_prob: f64,
    dup_prob: f64,
}

fn arb_case() -> impl Strategy<Value = ChaosCase> {
    (
        (0u64..1 << 48, 0usize..3, 0u8..2, 0u64..12_000),
        (20u64..500, 0u8..3, 0usize..3, 0u64..10_000, 50u64..300),
        (0u8..8, 0u8..8),
    )
        .prop_map(
            |(
                (seed, victim, kind, crash_offset_us),
                (outage_ms, part_sel, part_edge, part_start_us, part_ms),
                (drop_sel, dup_sel),
            )| {
                ChaosCase {
                    seed,
                    victim: [SOURCE, TARGET, PATH][victim],
                    kind: if kind == 0 {
                        CrashKind::StateLoss
                    } else {
                        CrashKind::Warm
                    },
                    crash_offset_us,
                    outage_ms,
                    partition: (part_sel == 0).then_some((part_edge, part_start_us, part_ms)),
                    drop_prob: if drop_sel == 0 { 0.05 } else { 0.0 },
                    dup_prob: if dup_sel == 0 { 0.05 } else { 0.0 },
                }
            },
        )
}

fn config_for(protocol: ProtocolKind) -> MobileBrokerConfig {
    match protocol {
        ProtocolKind::Reconfig => MobileBrokerConfig::reconfig(),
        // The traditional break-before-make covering baseline loses
        // in-flight publications even without faults (the paper's
        // motivating observation, pinned by notification_properties.rs),
        // so the loss-free chaos contract is only meaningful for the
        // make-before-break ablation.
        ProtocolKind::Covering => MobileBrokerConfig {
            make_before_break: true,
            ..MobileBrokerConfig::covering()
        },
    }
}

/// Chain B1–B2–B3–B4; publisher at B1, mover at B4 heading for B2.
fn setup(protocol: ProtocolKind, seed: u64) -> Sim {
    let mut sim = Sim::builder()
        .overlay(Topology::chain(4))
        .options(config_for(protocol))
        .network(NetworkModel::cluster())
        .seed(seed)
        .start();
    sim.enable_durability();
    sim.enable_delivery_log();
    sim.create_client(BrokerId(1), PUBLISHER);
    sim.create_client(SOURCE, MOVER);
    sim.schedule_cmd(
        SimTime(0),
        PUBLISHER,
        ClientOp::Advertise(Filter::builder().ge("x", 0).le("x", 100).build()),
    );
    sim.schedule_cmd(
        SimTime(0),
        MOVER,
        ClientOp::Subscribe(Filter::builder().ge("x", 0).le("x", 100).build()),
    );
    sim.run_to_quiescence();
    sim
}

/// Schedules the movement, the publication stream (before, during, and
/// long after the fault window), and the fault plan itself.
fn inject(sim: &mut Sim, case: &ChaosCase, protocol: ProtocolKind) {
    let t0 = sim.now();
    let move_at = t0 + SimDuration::from_millis(1);
    // Publications straddling every protocol phase, plus one after all
    // 30 s default timeouts have resolved.
    for (i, off_us) in [500u64, 2_000, 4_000, 8_000].iter().enumerate() {
        sim.schedule_cmd(
            t0 + SimDuration::from_micros(*off_us),
            PUBLISHER,
            ClientOp::Publish(Publication::new().with("x", i as i64 + 1)),
        );
    }
    sim.schedule_cmd(
        t0 + SimDuration::from_secs(40),
        PUBLISHER,
        ClientOp::Publish(Publication::new().with("x", 99)),
    );
    sim.schedule_cmd(move_at, MOVER, ClientOp::MoveTo(TARGET, protocol));

    let mut plan = FaultPlan::new(case.seed);
    let crash_at = move_at + SimDuration::from_micros(case.crash_offset_us);
    plan.crashes.push(ScheduledCrash {
        at: crash_at,
        broker: case.victim,
        restart_at: crash_at + SimDuration::from_millis(case.outage_ms),
        kind: case.kind,
    });
    if let Some((edge, start_us, dur_ms)) = case.partition {
        let (a, b) = [(1u32, 2u32), (2, 3), (3, 4)][edge % 3];
        let from = t0 + SimDuration::from_micros(start_us);
        plan.partitions.push(Partition {
            a: BrokerId(a),
            b: BrokerId(b),
            from,
            until: from + SimDuration::from_millis(dur_ms),
        });
    }
    plan.link = LinkFaults {
        drop_prob: case.drop_prob,
        dup_prob: case.dup_prob,
    };
    sim.apply_fault_plan(&plan);
}

/// Sec. 3.4 at the application layer: no client is surfaced the same
/// publication twice, across crashes and wire duplication (the stub's
/// transferred `seen` set is what makes this hold).
fn assert_app_exactly_once(sim: &Sim) -> Result<(), TestCaseError> {
    // The mover is the only subscriber.
    properties::assert_exactly_once(sim.metrics.deliveries_to(MOVER))
        .map_err(|e| TestCaseError::fail(format!("{MOVER}: {e}")))
}

fn pubs_received_by_mover(sim: &Sim) -> usize {
    sim.metrics.deliveries_to(MOVER).len()
}

/// The safety properties that hold under EVERY schedule, including
/// message-dropping ones. Among them: every broker's derived routing
/// state (forwarding column, match index, per-move pending index)
/// equals what its rows say, recovered from a checkpoint or not.
fn check_safety(sim: &Sim, ctx: &str) -> Result<(), TestCaseError> {
    properties::assert_single_instance(sim)
        .map_err(|e| TestCaseError::fail(format!("{ctx}: {e}")))?;
    assert_app_exactly_once(sim)?;
    for id in sim.view_broker_ids() {
        sim.broker(id).core().check_invariants();
    }
    Ok(())
}

/// The full ACI property set, valid whenever no message was dropped
/// (crashes, partitions, and duplication all preserve them).
fn check_loss_free(sim: &Sim, ctx: &str, expect_commit: bool) -> Result<(), TestCaseError> {
    check_safety(sim, ctx)?;
    properties::check_srt_paths(sim).map_err(|e| TestCaseError::fail(format!("{ctx}: {e}")))?;
    let probe_case = properties::ConsistencyCase {
        publisher_broker: BrokerId(1),
        probe: Publication::new().with("x", 50),
        expected: BTreeSet::from([MOVER]),
    };
    properties::check_routing_consistency(sim, std::slice::from_ref(&probe_case))
        .map_err(|e| TestCaseError::fail(format!("{ctx}: {e}")))?;
    prop_assert_eq!(
        pubs_received_by_mover(sim),
        N_PUBS,
        "{}: mover missed publications",
        ctx
    );
    // With no message lost the movement resolved at every broker of
    // its path: no shadow configuration and no armed timer is left.
    for id in sim.view_broker_ids() {
        prop_assert_eq!(
            sim.broker(id).core().pending_moves(),
            Vec::new(),
            "{}: shadow configuration left at {}",
            ctx,
            id
        );
    }
    prop_assert_eq!(sim.armed_timers(), [], "{}: timer left armed", ctx);
    if expect_commit {
        let outcomes: Vec<Option<bool>> = sim
            .metrics
            .finished_moves()
            .map(|(_, r)| r.committed)
            .collect();
        prop_assert_eq!(
            outcomes,
            vec![Some(true)],
            "{}: loss-free movement must commit",
            ctx
        );
        prop_assert_eq!(
            sim.home_of(MOVER),
            Some(TARGET),
            "{}: wrong final home",
            ctx
        );
    }
    Ok(())
}

fn run_case(case: &ChaosCase, protocol: ProtocolKind) -> Result<(), TestCaseError> {
    let mut sim = setup(protocol, case.seed);
    inject(&mut sim, case, protocol);
    sim.run_to_quiescence();
    let ctx = format!("{protocol:?} {case:?}");
    if case.drop_prob > 0.0 {
        check_safety(&sim, &ctx)
    } else {
        // Duplication can re-finish an already-finished transaction
        // record, so the commit claim is only asserted on clean wires.
        check_loss_free(&sim, &ctx, case.dup_prob == 0.0)
    }
}

fn chaos_cases() -> u32 {
    std::env::var("CHAOS_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(256)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(chaos_cases()))]

    #[test]
    fn chaos_schedules_preserve_aci_properties(case in arb_case()) {
        run_case(&case, ProtocolKind::Reconfig)?;
        run_case(&case, ProtocolKind::Covering)?;
    }
}

/// Deterministic coverage of "crash at every protocol step": for both
/// protocols, kill the source, the target, and the on-path broker with
/// full state loss at every millisecond offset across (and past) the
/// protocol window, and demand the full loss-free property set.
#[test]
fn state_loss_sweep_over_every_protocol_step() {
    for protocol in [ProtocolKind::Reconfig, ProtocolKind::Covering] {
        for victim in [SOURCE, TARGET, PATH] {
            for offset_ms in 0..=12u64 {
                let case = ChaosCase {
                    seed: 1000 * offset_ms + victim.0 as u64,
                    victim,
                    kind: CrashKind::StateLoss,
                    crash_offset_us: offset_ms * 1000,
                    outage_ms: 100,
                    partition: None,
                    drop_prob: 0.0,
                    dup_prob: 0.0,
                };
                if let Err(e) = run_case(&case, protocol) {
                    panic!("sweep {protocol:?} victim {victim} offset {offset_ms}ms: {e}");
                }
            }
        }
    }
}

/// Same schedule, same seed, same result: the fault layer must not
/// perturb determinism.
#[test]
fn chaos_runs_are_deterministic_per_seed() {
    let case = ChaosCase {
        seed: 42,
        victim: TARGET,
        kind: CrashKind::StateLoss,
        crash_offset_us: 2_500,
        outage_ms: 80,
        partition: Some((1, 3_000, 120)),
        drop_prob: 0.0,
        dup_prob: 0.05,
    };
    let fingerprint = |_: u32| {
        let mut sim = setup(ProtocolKind::Reconfig, case.seed);
        inject(&mut sim, &case, ProtocolKind::Reconfig);
        sim.run_to_quiescence();
        (
            sim.now(),
            sim.metrics.total_traffic(),
            sim.metrics.delivery_count,
            sim.faults_duplicated(),
            sim.events_processed(),
        )
    };
    assert_eq!(fingerprint(0), fingerprint(1));
}
