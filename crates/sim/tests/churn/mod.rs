//! The churn tier's shared harness: permanent broker deaths injected
//! mid-movement on a chain (`chaos_churn.rs`) or a ring
//! (`chaos_cyclic.rs`), and the checks every run must pass (DESIGN.md
//! §14, §15). Each test file uses its own overlay's half.
#![allow(dead_code)]

use std::collections::BTreeSet;

use proptest::prelude::*;
use transmob_broker::Topology;
use transmob_core::properties::NetworkView;
use transmob_core::{properties, ClientOp, MobileBrokerConfig, ProtocolKind};
use transmob_pubsub::{BrokerId, ClientId, Filter, Publication};
use transmob_sim::{FaultPlan, NetworkModel, ScheduledDeath, Sim, SimDuration, SimTime};

pub const PUBLISHER: ClientId = ClientId(1);
pub const MOVER: ClientId = ClientId(2);
pub const STATIC_SUB: ClientId = ClientId(3);
/// The publisher's home on both overlays.
pub const PUB_HOME: BrokerId = BrokerId(1);
/// The mover travels B4 → B2 on both overlays, over the route 4–3–2.
pub const SOURCE: BrokerId = BrokerId(4);
pub const TARGET: BrokerId = BrokerId(2);
pub const PATH: BrokerId = BrokerId(3);
/// On the ring's redundant arc between publisher and subscriber, off
/// the movement route.
pub const ARC: BrokerId = BrokerId(5);

/// The overlay a run is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Overlay {
    /// Chain B1–B2–B3–B4–B5; the static subscriber sits at B5.
    Chain,
    /// Ring B1–B2–B3–B4–B5–B1; the publisher at B1 and the static
    /// subscriber at B3 are joined by two arcs (1–2–3 and 1–5–4–3), so
    /// B3 doubles as the on-path broker and may die.
    Ring,
}

impl Overlay {
    pub fn topology(self) -> Topology {
        match self {
            Overlay::Chain => Topology::chain(5),
            Overlay::Ring => Topology::ring(5),
        }
    }

    pub fn sub_home(self) -> BrokerId {
        match self {
            Overlay::Chain => BrokerId(5),
            Overlay::Ring => PATH,
        }
    }

    /// Who may die: every broker but the publisher's home on the ring,
    /// and the movement's three brokers on the chain.
    pub fn victims(self) -> &'static [BrokerId] {
        match self {
            Overlay::Chain => &[PATH, TARGET, SOURCE],
            Overlay::Ring => &[PATH, TARGET, SOURCE, ARC],
        }
    }

    /// The sweep's step through the protocol window, in milliseconds.
    pub fn sweep_step_ms(self) -> usize {
        match self {
            Overlay::Chain => 1,
            Overlay::Ring => 2,
        }
    }
}

/// One churn schedule: who dies, and when (offset after the MOVE
/// command, spanning every protocol phase).
#[derive(Debug, Clone)]
pub struct ChurnCase {
    pub seed: u64,
    pub victim: BrokerId,
    pub death_offset_us: u64,
}

/// A randomized schedule on `overlay`, its victim drawn uniformly from
/// the overlay's victims.
pub fn arb_case(overlay: Overlay) -> impl Strategy<Value = ChurnCase> {
    let victims = overlay.victims();
    (0u64..1 << 48, 0..victims.len(), 0u64..12_000).prop_map(
        move |(seed, victim, death_offset_us)| ChurnCase {
            seed,
            victim: victims[victim],
            death_offset_us,
        },
    )
}

/// Survivors declare a neighbour dead once its link has been down
/// this long.
pub const SUSPECT_AFTER_NS: u64 = 50_000_000;

pub fn config_for(protocol: ProtocolKind) -> MobileBrokerConfig {
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

pub fn setup(overlay: Overlay, protocol: ProtocolKind, seed: u64) -> Sim {
    let mut sim = Sim::builder()
        .overlay(overlay.topology())
        .options(config_for(protocol))
        .network(NetworkModel::cluster())
        .seed(seed)
        .start();
    sim.enable_durability();
    sim.enable_delivery_log();
    sim.create_client(PUB_HOME, PUBLISHER);
    sim.create_client(SOURCE, MOVER);
    sim.create_client(overlay.sub_home(), STATIC_SUB);
    let everything = || Filter::builder().ge("x", 0).le("x", 100).build();
    sim.schedule_cmd(SimTime(0), PUBLISHER, ClientOp::Advertise(everything()));
    sim.schedule_cmd(SimTime(0), MOVER, ClientOp::Subscribe(everything()));
    sim.schedule_cmd(SimTime(0), STATIC_SUB, ClientOp::Subscribe(everything()));
    sim.run_to_quiescence();
    sim
}

/// Schedules the movement, a publication stream straddling the death,
/// and the death itself.
pub fn inject(sim: &mut Sim, case: &ChurnCase, protocol: ProtocolKind) {
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
/// and multi-path forwarding: on the ring, with two copies of every
/// publication racing around it, only the dedup windows stand between
/// the subscribers and duplicate deliveries.
pub fn assert_app_exactly_once(sim: &Sim) -> Result<(), TestCaseError> {
    for client in [MOVER, STATIC_SUB] {
        properties::assert_exactly_once(sim.metrics.deliveries_to(client))
            .map_err(|e| TestCaseError::fail(format!("{client}: {e}")))?;
    }
    Ok(())
}

/// After quiescence, publishes a fresh probe and demands it reach every
/// surviving matching subscriber exactly once (delivery transparency
/// after repair). The static subscriber survives unless its home died
/// (only the ring's on-path broker hosts one).
pub fn assert_post_repair_delivery(
    sim: &mut Sim,
    overlay: Overlay,
    ctx: &str,
) -> Result<(), TestCaseError> {
    let mut expected: BTreeSet<ClientId> = BTreeSet::new();
    if !sim.dead_brokers().contains(&overlay.sub_home()) {
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

pub fn run_case(
    overlay: Overlay,
    case: &ChurnCase,
    protocol: ProtocolKind,
) -> Result<(), TestCaseError> {
    let mut sim = setup(overlay, protocol, case.seed);
    inject(&mut sim, case, protocol);
    sim.run_to_quiescence();
    let ctx = format!("{overlay:?} {protocol:?} {case:?}");

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

    // Routing reconstruction: every survivor's primary route leads
    // along the repaired (on the ring possibly still cyclic) overlay
    // toward each live publisher.
    properties::check_srt_paths(&sim).map_err(|e| TestCaseError::fail(format!("{ctx}: {e}")))?;

    assert_post_repair_delivery(&mut sim, overlay, &ctx)
}

pub fn chaos_cases() -> u32 {
    std::env::var("CHAOS_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(128)
}

/// Deterministic sweep: kill each of the overlay's victims at offsets
/// across the protocol window, for both protocols.
pub fn death_sweep(overlay: Overlay) {
    for protocol in [ProtocolKind::Reconfig, ProtocolKind::Covering] {
        for &victim in overlay.victims() {
            for offset_ms in (0..=12u64).step_by(overlay.sweep_step_ms()) {
                let case = ChurnCase {
                    seed: 1000 * offset_ms + victim.0 as u64,
                    victim,
                    death_offset_us: offset_ms * 1000,
                };
                if let Err(e) = run_case(overlay, &case, protocol) {
                    panic!(
                        "sweep {overlay:?} {protocol:?} victim {victim} offset {offset_ms}ms: {e}"
                    );
                }
            }
        }
    }
}

/// Runs the same churn schedule twice and demands the same end time,
/// traffic, deliveries and event count: churn, multi-path fan-out and
/// dedup must not perturb determinism.
pub fn assert_deterministic(overlay: Overlay, victim: BrokerId) {
    let case = ChurnCase {
        seed: 42,
        victim,
        death_offset_us: 2_500,
    };
    let fingerprint = |_: u32| {
        let mut sim = setup(overlay, ProtocolKind::Reconfig, case.seed);
        inject(&mut sim, &case, ProtocolKind::Reconfig);
        sim.run_to_quiescence();
        (
            sim.now(),
            sim.metrics.total_traffic(),
            sim.metrics.delivery_count,
            sim.events_processed(),
        )
    };
    assert_eq!(fingerprint(0), fingerprint(1), "{overlay:?}");
}
