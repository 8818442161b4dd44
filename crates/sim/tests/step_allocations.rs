//! What broker steps cost in heap allocations, counted by an allocator
//! that counts (DESIGN.md §19): no clock, so the counts repeat exactly
//! and the budgets can be tight. Three fixed `Sim`s on virtual time:
//! the `sim-cyclic` overlay (`default_14` plus three cycle-closing
//! edges) with stationary `Distinct` subscribers, counted per delivered
//! publication; the reconfiguration protocol's ping-pong on
//! `default_14`, counted per committed movement; and a covering
//! subscription issued and withdrawn over `Covered` subscribers under
//! active covering, counted per subscribe–unsubscribe round (the
//! control path: the retraction of covered rows, then their release).
//!
//! Each budget sits a quarter above the count this file measured when
//! it was set (a step came to allocate per frame rather than per
//! effect; the control path's rules came to write into the step's
//! sink; a subscription's directions came to be collected inline; the
//! tables' filter queries came to visit their rows in place, and the
//! rules to collect what they visit into reused lists); the counts
//! before, and after, are in CHANGES.md. Debug builds run the routing
//! tables' linear-scan oracle on every query, and its matching half
//! allocates, so they have budgets of their own; the containment half
//! compares the two sequences in place, so the covering round counts
//! the same in both builds.
//!
//! `cargo test -p transmob-sim --test step_allocations -- --nocapture`
//! prints the counts.

use std::collections::BTreeSet;

use transmob_broker::MsgKind;
use transmob_core::{ClientOp, MobileBrokerConfig, ProtocolKind};
use transmob_pubsub::{BrokerId, ClientId, Filter, Publication};
use transmob_sim::{MovementPlan, NetworkModel, Sim, SimDuration, SimTime};
use transmob_workloads::footprint::{measure, CountingAlloc};
use transmob_workloads::{default_14, paper_default, SubWorkload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const PUBLISHERS: [u32; 3] = [6, 10, 14];

/// Release and debug budgets: a quarter above the measured counts.
const fn budget(release: f64, debug: f64) -> f64 {
    if cfg!(debug_assertions) {
        debug * 1.25
    } else {
        release * 1.25
    }
}

fn publisher(j: usize) -> ClientId {
    ClientId(1 + j as u64)
}

/// A `Sim` on `topology` under `config` whose publishers at
/// [`PUBLISHERS`] advertise the whole space and whose subscribers hold
/// one filter each, run quiescent.
fn settled(
    topology: transmob_broker::Topology,
    config: MobileBrokerConfig,
    workload: SubWorkload,
    n: usize,
) -> Sim {
    let mut sim = Sim::builder()
        .overlay(topology)
        .options(config)
        .network(NetworkModel::cluster())
        .seed(1)
        .start();
    let everything = Filter::builder().ge("x", 0).le("x", 100_000).build();
    for (j, &home) in PUBLISHERS.iter().enumerate() {
        sim.create_client(BrokerId(home), publisher(j));
        sim.schedule_cmd(
            SimTime::ZERO,
            publisher(j),
            ClientOp::Advertise(everything.clone()),
        );
    }
    for c in paper_default(n, workload) {
        sim.create_client(c.start, c.id);
        sim.schedule_cmd(
            SimTime(1_000_000),
            c.id,
            ClientOp::Subscribe(c.subscription),
        );
    }
    sim.run_to_quiescence();
    sim
}

#[test]
fn a_publication_on_the_cyclic_overlay_stays_under_its_allocation_budget() {
    const PUBLICATIONS: usize = 120;
    let budget = budget(10.9, 24.4);
    let mut topology = default_14();
    for (x, y) in [(1, 13), (2, 14), (5, 12)] {
        topology
            .add_edge(BrokerId(x), BrokerId(y))
            .expect("cycle-closing edge between existing brokers");
    }
    let mut sim = settled(
        topology,
        MobileBrokerConfig::reconfig(),
        SubWorkload::Distinct,
        40,
    );
    // Contents inside the `Distinct` groups, as `sim-cyclic`'s are, and
    // clear of their edges, where the shifted instances part; each
    // publisher every 20 ms, interleaved.
    let start = sim.now() + SimDuration::from_millis(100);
    for i in 0..PUBLICATIONS {
        let k = i as i64;
        let x = 50_000 + 2_000 * ((k * 7) % 10) + 50 + (k * 37) % 700;
        let at = start + SimDuration::from_micros(i as u64 * 20_000 / 3);
        let j = i % PUBLISHERS.len();
        sim.schedule_cmd(
            at,
            publisher(j),
            ClientOp::Publish(Publication::new().with("x", x)),
        );
    }
    // The log is reserved up front, so that its growth is not charged
    // to the steps.
    sim.metrics.delivery_log = Some(Vec::with_capacity(PUBLICATIONS * 40));
    let ((), heap) = measure(|| sim.run_to_quiescence());
    let log = sim.metrics.delivery_log.as_ref().expect("log enabled");
    let delivered: BTreeSet<_> = log.iter().map(|d| d.publication).collect();
    assert_eq!(
        delivered.len(),
        PUBLICATIONS,
        "every publication reaches a subscriber"
    );
    let per_pub = heap.allocs as f64 / PUBLICATIONS as f64;
    println!(
        "step_allocations: {per_pub:.1} allocations a publication ({} deliveries)",
        log.len()
    );
    assert!(
        per_pub <= budget,
        "{per_pub:.1} a publication (budget {budget:.1})"
    );
}

#[test]
fn a_movement_on_the_tree_stays_under_its_allocation_budget() {
    let budget = budget(31.9, 205.0);
    let mut sim = settled(
        default_14(),
        MobileBrokerConfig::reconfig(),
        SubWorkload::Covered,
        40,
    );
    let start = sim.now() + SimDuration::from_millis(100);
    let pause = SimDuration::from_secs(1);
    let movers = paper_default(40, SubWorkload::Covered);
    let n = movers.len() as f64;
    for (i, c) in movers.into_iter().enumerate() {
        let plan = MovementPlan {
            destinations: c.route,
            pause,
            protocol: ProtocolKind::Reconfig,
        };
        sim.install_plan(c.id, plan, start + pause.mul_f64(i as f64 / n));
    }
    sim.set_plan_deadline(start + SimDuration::from_secs(10));
    let ((), heap) = measure(|| sim.run_to_quiescence());
    let committed = (sim.metrics.finished_moves())
        .filter(|(_, r)| r.committed == Some(true))
        .count();
    assert_eq!(
        committed,
        sim.metrics.finished_count(),
        "no movement aborts"
    );
    assert!(committed >= 300, "{committed} movements committed");
    let per_move = heap.allocs as f64 / committed as f64;
    println!("step_allocations: {per_move:.1} allocations a movement ({committed} committed)");
    assert!(
        per_move <= budget,
        "{per_move:.1} a movement (budget {budget:.1})"
    );
}

#[test]
fn a_covering_subscription_and_its_withdrawal_stay_under_their_allocation_budget() {
    const ROUNDS: u32 = 20;
    let budget = budget(120.5, 120.5);
    let mut sim = settled(
        default_14(),
        MobileBrokerConfig::covering(),
        SubWorkload::Covered,
        40,
    );
    // PRT rows and retractions handled, over every broker.
    let census = |sim: &Sim| -> (usize, u64) {
        (1..=14).fold((0, 0), |(rows, retracted), b| {
            let core = sim.broker(BrokerId(b)).core();
            let handled = core.stats().handled.get(&MsgKind::Unsubscribe);
            (rows + core.prt().len(), retracted + handled.unwrap_or(&0))
        })
    };
    let (rows_before, retracted_before) = census(&sim);
    // A client at a leaf broker away from the publishers, covering
    // every subscriber's filter.
    let cover = ClientId(1_000_000);
    sim.create_client(BrokerId(4), cover);
    let everything = Filter::builder().ge("x", 0).le("x", 100_000).build();
    let start = sim.now() + SimDuration::from_millis(100);
    for round in 0..ROUNDS {
        let at = start + SimDuration::from_millis(200 * u64::from(round));
        sim.schedule_cmd(at, cover, ClientOp::Subscribe(everything.clone()));
        let later = at + SimDuration::from_millis(100);
        sim.schedule_cmd(later, cover, ClientOp::Unsubscribe(round));
    }
    let ((), heap) = measure(|| sim.run_to_quiescence());
    let (rows_after, retracted_after) = census(&sim);
    assert_eq!(
        rows_after, rows_before,
        "every round leaves the tables as it found them"
    );
    let retracted = retracted_after - retracted_before;
    let per_round = heap.allocs as f64 / f64::from(ROUNDS);
    println!(
        "step_allocations: {per_round:.1} allocations a covering round ({} retractions handled a round)",
        retracted / u64::from(ROUNDS)
    );
    assert!(
        per_round <= budget,
        "{per_round:.1} a covering round (budget {budget:.1})"
    );
}
