//! Churn tier of the chaos suite: *permanent* broker deaths injected
//! mid-movement on a chain, with the overlay self-repair asserted to
//! preserve the paper's Sec. 3 ACI properties for every **surviving**
//! participant. `chaos_cyclic.rs` runs the same contract on a ring;
//! both share the harness in `churn/mod.rs`.
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

mod churn;

use churn::*;
use proptest::prelude::*;
use transmob_core::ProtocolKind;
use transmob_sim::SimDuration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(chaos_cases()))]

    #[test]
    fn broker_death_mid_movement_preserves_aci(case in arb_case(Overlay::Chain)) {
        run_case(Overlay::Chain, &case, ProtocolKind::Reconfig)?;
        run_case(Overlay::Chain, &case, ProtocolKind::Covering)?;
    }
}

/// Kill each of the movement's brokers at every millisecond of the
/// protocol window, for both protocols.
#[test]
fn death_sweep_over_every_protocol_step() {
    death_sweep(Overlay::Chain);
}

/// Repair without any movement in flight: the overlay heals and
/// publications flow along the new edge.
#[test]
fn repair_restores_delivery_with_no_movement() {
    let mut sim = setup(Overlay::Chain, ProtocolKind::Reconfig, 7);
    sim.kill_broker(sim.now() + SimDuration::from_millis(1), PATH);
    sim.run_to_quiescence();
    assert!(sim.dead_brokers().contains(&PATH));
    assert!(!sim.topology().contains(PATH), "gods-eye overlay repaired");
    assert_post_repair_delivery(&mut sim, Overlay::Chain, "no-movement repair")
        .expect("delivery after repair");
    assert_eq!(sim.total_anomalies(), 0, "clean repair counts no anomalies");
}

/// Same schedule, same seed, same result: churn must not perturb
/// determinism.
#[test]
fn churn_runs_are_deterministic_per_seed() {
    assert_deterministic(Overlay::Chain, PATH);
}

/// A broker rebuilt from its log re-arms the suspicion its lost self
/// had armed: chain(3), B3 dies, B2 hears of it and crashes with state
/// loss before its suspicion fires; after the restart B2 must still
/// declare B3 dead and repair around it.
#[test]
fn state_loss_restart_still_suspects_a_dead_neighbour() {
    use transmob_broker::Topology;
    use transmob_core::MobileBrokerConfig;
    use transmob_pubsub::BrokerId;
    use transmob_sim::{NetworkModel, Sim};

    let (b2, b3) = (BrokerId(2), BrokerId(3));
    let mut sim = Sim::builder()
        .overlay(Topology::chain(3))
        .options(MobileBrokerConfig {
            suspect_after_ns: Some(50_000_000),
            ..MobileBrokerConfig::reconfig()
        })
        .network(NetworkModel::cluster())
        .start();
    sim.enable_durability();
    let ms = SimDuration::from_millis;
    sim.kill_broker(sim.now(), b3);
    sim.run_until(sim.now() + ms(10)); // B2's report arrived, suspicion armed
    assert!(sim.armed_timers().iter().any(|&(b, _)| b == b2));
    sim.crash_broker_lossy(b2, sim.now() + ms(10));
    sim.run_to_quiescence();
    assert!(
        !sim.broker(b2).topology().contains(b3),
        "the restarted B2 never repaired around the dead B3"
    );
    assert!(!sim.broker(BrokerId(1)).topology().contains(b3));
}
