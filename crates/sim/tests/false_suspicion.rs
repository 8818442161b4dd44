//! False-suspicion tier: a partition between two *live* brokers, as
//! the failure detector sees it (DESIGN.md §6, §14). The detector's one
//! rule is "a link down past `suspect_after_ns` means a dead broker",
//! so a partition longer than the deadline declares a live broker dead
//! and a shorter one must change nothing.
//!
//! Overlay: chain B1–B2–B3–B4, partitioned on 2–3. The publisher sits
//! at B1, a subscriber at B3 and one at B4, and a client at B4 moves to
//! B1 across the partition. Every state of each run is checked for the
//! safety properties that must hold whatever the detector decides: at
//! most one running copy of each client and routing tables that agree
//! with their own rows.

use std::collections::{BTreeMap, BTreeSet};

use transmob_broker::Topology;
use transmob_core::properties::NetworkView;
use transmob_core::{properties, ClientOp, MobileBrokerConfig, ProtocolKind};
use transmob_pubsub::{BrokerId, ClientId, Filter, PubId, Publication};
use transmob_sim::{FaultPlan, NetworkModel, Partition, Sim, SimDuration, SimTime};

const PUBLISHER: ClientId = ClientId(1);
const SUB3: ClientId = ClientId(3);
const SUB4: ClientId = ClientId(4);
const MOVER: ClientId = ClientId(5);

/// Survivors declare a neighbour dead once its link has been down
/// this long.
const SUSPECT_AFTER_MS: u64 = 50;

fn b(i: u32) -> BrokerId {
    BrokerId(i)
}

fn setup() -> Sim {
    let config = MobileBrokerConfig {
        suspect_after_ns: Some(SUSPECT_AFTER_MS * 1_000_000),
        ..MobileBrokerConfig::reconfig()
    };
    let mut sim = Sim::builder()
        .overlay(Topology::chain(4))
        .options(config)
        .network(NetworkModel::cluster())
        .seed(5)
        .start();
    sim.enable_delivery_log();
    sim.create_client(b(1), PUBLISHER);
    sim.create_client(b(3), SUB3);
    sim.create_client(b(4), SUB4);
    sim.create_client(b(4), MOVER);
    let everything = || Filter::builder().ge("x", 0).le("x", 1000).build();
    sim.schedule_cmd(SimTime(0), PUBLISHER, ClientOp::Advertise(everything()));
    for client in [SUB3, SUB4, MOVER] {
        sim.schedule_cmd(SimTime(0), client, ClientOp::Subscribe(everything()));
    }
    sim.run_to_quiescence();
    sim
}

/// Partitions 2–3 for `outage_ms` (none if zero) one millisecond from
/// now, publishes every 10 ms for 300 ms, moves `MOVER` to B1 5 ms in,
/// and runs to quiescence, checking the safety properties after every
/// event.
fn run(outage_ms: u64) -> Sim {
    let mut sim = setup();
    let t0 = sim.now();
    let ms = SimDuration::from_millis;
    if outage_ms > 0 {
        let mut plan = FaultPlan::new(9);
        plan.partitions.push(Partition {
            a: b(2),
            b: b(3),
            from: t0 + ms(1),
            until: t0 + ms(1 + outage_ms),
        });
        sim.apply_fault_plan(&plan);
    }
    for i in 0..30 {
        let content = Publication::new().with("x", i);
        sim.schedule_cmd(
            t0 + ms(10 * i as u64),
            PUBLISHER,
            ClientOp::Publish(content),
        );
    }
    let to_b1 = ClientOp::MoveTo(b(1), ProtocolKind::Reconfig);
    sim.schedule_cmd(t0 + ms(5), MOVER, to_b1);
    while sim.run_next() {
        properties::assert_single_instance(&sim).expect("single instance");
        for id in sim.view_broker_ids() {
            sim.broker(id).core().check_invariants();
        }
    }
    sim
}

/// Each subscriber's delivered publications, duplicates kept.
fn deliveries(sim: &Sim) -> BTreeMap<ClientId, Vec<PubId>> {
    let mut by_client: BTreeMap<ClientId, Vec<PubId>> = BTreeMap::new();
    for client in [SUB3, SUB4, MOVER] {
        let log = sim.metrics.deliveries_to(client);
        by_client.insert(client, log);
    }
    by_client
}

/// Publishes one probe at quiescence and returns who got it.
fn probe(sim: &mut Sim) -> BTreeSet<ClientId> {
    let before = sim.metrics.delivery_log.as_ref().expect("log").len();
    let at = sim.now() + SimDuration::from_millis(1);
    sim.schedule_cmd(
        at,
        PUBLISHER,
        ClientOp::Publish(Publication::new().with("x", 999)),
    );
    sim.run_to_quiescence();
    let log = sim.metrics.delivery_log.as_ref().expect("log");
    log[before..].iter().map(|d| d.client).collect()
}

#[test]
fn a_partition_shorter_than_the_deadline_repairs_nothing() {
    let calm = run(0);
    let short = run(SUSPECT_AFTER_MS - 20);
    for id in short.view_broker_ids() {
        assert_eq!(
            short.broker(id).topology(),
            &Topology::chain(4),
            "{id} repaired around a live neighbour"
        );
    }
    let sorted = |sim: &Sim| {
        let mut d = deliveries(sim);
        d.values_mut().for_each(|ids| ids.sort_unstable());
        d
    };
    assert_eq!(
        sorted(&short),
        sorted(&calm),
        "the outage changed what arrived"
    );
    assert_eq!(short.find_client(MOVER), calm.find_client(MOVER));
    assert_eq!(short.total_anomalies(), 0);
}

/// The failure-model boundary, stated as a test. A partition four
/// deadlines long makes B2 and B3 each declare the other dead, and
/// both floods spread. Pinned outcome for this schedule:
///
/// - Safety holds in every state: one running copy of each client, and
///   no publication reaches a subscriber twice. Every publication
///   reaches every subscriber, and the movement aborts cleanly.
/// - The excised brokers are **not fenced**. Nothing refuses a frame
///   from a broker the receiver declared dead, so B1 still serves B3
///   over the repair edge 1–3 that only B3 believes in.
/// - The overlay views **never converge**. Nothing re-admits a broker
///   once it is excised, so after the heal the four brokers hold three
///   different overlays. B3's routing no longer follows the real
///   overlay, which is still the chain.
#[test]
fn a_partition_longer_than_the_deadline_splits_the_overlay_views() {
    let mut sim = run(4 * SUSPECT_AFTER_MS);
    let edges = |pairs: &[(u32, u32)]| -> Vec<(BrokerId, BrokerId)> {
        pairs.iter().map(|&(x, y)| (b(x), b(y))).collect()
    };
    let views: Vec<_> = (sim.view_broker_ids().into_iter())
        .map(|id| (id, sim.broker(id).topology().edges()))
        .collect();
    assert_eq!(
        views,
        [
            (b(1), edges(&[(1, 4)])),
            (b(2), edges(&[(1, 2), (2, 4)])),
            (b(3), edges(&[(1, 3), (3, 4)])),
            (b(4), edges(&[(1, 4)])),
        ],
        "each broker's own overlay after the heal"
    );
    assert_eq!(sim.topology(), &Topology::chain(4), "nobody died");

    for (client, ids) in deliveries(&sim) {
        properties::assert_exactly_once(ids.iter().copied()).expect("exactly once");
        assert_eq!(ids.len(), 30, "{client} missed publications");
    }
    let outcomes: Vec<_> = sim.metrics.moves.values().map(|r| r.committed).collect();
    assert_eq!(outcomes, [Some(false)]);
    assert_eq!(sim.find_client(MOVER), Some(b(4)));

    let srt = properties::check_srt_paths(&sim).expect_err("routing follows the split views");
    assert!(srt.to_string().contains("at B3"), "{srt}");
    assert_eq!(probe(&mut sim), BTreeSet::from([SUB3, SUB4, MOVER]));
    assert_eq!(sim.total_anomalies(), 0);
}
