//! Cyclic tier of the chaos suite: the churn contract of
//! `chaos_churn.rs` re-run on a **ring** overlay, where every
//! publisher/subscriber pair is connected by two arcs and multi-path
//! forwarding (DESIGN.md §15) is auto-enabled. Both tiers share the
//! harness in `churn/mod.rs`.
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

mod churn;

use std::collections::BTreeSet;

use churn::*;
use proptest::prelude::*;
use transmob_core::properties::NetworkView;
use transmob_core::{ClientOp, ProtocolKind};
use transmob_pubsub::{ClientId, Publication};
use transmob_sim::SimDuration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(chaos_cases()))]

    #[test]
    fn broker_death_mid_movement_on_the_ring_preserves_aci(case in arb_case(Overlay::Ring)) {
        run_case(Overlay::Ring, &case, ProtocolKind::Reconfig)?;
        run_case(Overlay::Ring, &case, ProtocolKind::Covering)?;
    }
}

/// Kill each of the ring's victims at every other millisecond of the
/// protocol window, for both protocols.
#[test]
fn ring_death_sweep_over_every_protocol_step() {
    death_sweep(Overlay::Ring);
}

/// Repair without any movement in flight: the ring degrades to a
/// chain, no repair edge is needed, and publications keep flowing.
#[test]
fn ring_repair_needs_no_new_edge() {
    let mut sim = setup(Overlay::Ring, ProtocolKind::Reconfig, 7);
    sim.kill_broker(sim.now() + SimDuration::from_millis(1), ARC);
    sim.run_to_quiescence();
    assert!(sim.dead_brokers().contains(&ARC));
    assert!(!sim.topology().contains(ARC), "gods-eye overlay repaired");
    assert!(
        sim.topology().is_tree(),
        "ring minus one broker is a chain — repair must not add edges"
    );
    assert_post_repair_delivery(&mut sim, Overlay::Ring, "ring repair")
        .expect("delivery after repair");
    assert_eq!(sim.total_anomalies(), 0, "clean repair counts no anomalies");
}

/// The acceptance criterion of the multi-path redesign: a broker death
/// on one redundant arc of the ring must NOT interrupt delivery while
/// the failure detector is still blind. A probe published *inside* the
/// detection window — after the death, before any survivor has noticed
/// — must reach both subscribers via the surviving arc.
#[test]
fn surviving_arc_delivers_inside_the_detection_window() {
    for victim in [TARGET, ARC] {
        let mut sim = setup(Overlay::Ring, ProtocolKind::Reconfig, 11);
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
        let ctx = format!("detection-window victim {victim}");
        assert_post_repair_delivery(&mut sim, Overlay::Ring, &ctx).expect("delivery after repair");
    }
}

/// Same schedule, same seed, same result: multi-path fan-out and dedup
/// must not perturb determinism.
#[test]
fn cyclic_churn_runs_are_deterministic_per_seed() {
    assert_deterministic(Overlay::Ring, ARC);
}
