//! Every schedule of one movement between real brokers
//! ([`transmob_sim::explore`]): the paper's Fig. 5 global state graph
//! regenerated from the code, with its two safety properties and
//! progress checked at every state, with and without timeouts and
//! crashes, for both protocols.
//!
//! The scenario: on chain(3), subscriber C2 moves from B3 to B1, where
//! its publisher C1 is. A second root has B1 reject the movement. The
//! failure-free and timeout modes also schedule one publication beside
//! the movement, so exactly-once delivery is checked on every schedule.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use transmob_broker::Topology;
use transmob_core::{ClientOp, MobileBrokerConfig, ProtocolKind};
use transmob_pubsub::{BrokerId, ClientId, Filter, Publication};
use transmob_sim::{
    explore, CrashKind, Exploration, LinkModel, NetworkModel, NodeModel, Sim, SimDuration,
};

const PUBLISHER: ClientId = ClientId(1);
const MOVER: ClientId = ClientId(2);
const SOURCE: BrokerId = BrokerId(3);
const TARGET: BrokerId = BrokerId(1);

/// The labels of the paper's Fig. 5.
const FIG5: [&str; 8] = [
    "iS,iT", "wS,iT", "wS,pT", "wS,aT", "aS,aT", "pS,pT", "pS,cT", "cS,cT",
];
/// What timeouts add to Fig. 5 in the fail-stop model the explorer
/// replaced; its crash-recovery variant added `pS,aT` as well.
const TIMEOUT_LABELS: [&str; 2] = ["aS,iT", "aS,pT"];
const COMMIT_OR_ABORT: [&str; 2] = ["cS,cT", "aS,aT"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// `MobileBrokerConfig::blocking()`: no timer, no crash.
    Blocking,
    /// The default protocol timeouts, fired at any point.
    Timeouts,
    /// The default timeouts and one crash of any broker, warm or
    /// losing its state, at any point. No publication.
    Faults,
}

fn scenario(protocol: ProtocolKind, mode: Mode, accept: bool) -> impl Fn() -> Sim {
    move || {
        let config = match protocol {
            ProtocolKind::Reconfig => MobileBrokerConfig::reconfig(),
            ProtocolKind::Covering => MobileBrokerConfig::covering(),
        };
        let config = match mode {
            Mode::Blocking => config.blocking(),
            Mode::Timeouts | Mode::Faults => config,
        };
        let mut sim = chain3(config, NetworkModel::instant());
        sim.broker_mut(TARGET).set_accept_moves(accept);
        let now = sim.now();
        sim.schedule_cmd(now, MOVER, ClientOp::MoveTo(TARGET, protocol));
        if mode == Mode::Faults {
            sim.enable_durability();
        } else {
            sim.schedule_cmd(now, PUBLISHER, publish());
        }
        sim
    }
}

/// Chain(3) on `network`: the publisher at B1 advertises, the mover at
/// B3 subscribes, and nothing else is scheduled yet.
fn chain3(config: MobileBrokerConfig, network: NetworkModel) -> Sim {
    let mut sim = Sim::builder()
        .overlay(Topology::chain(3))
        .options(config)
        .network(network)
        .start();
    let band = Filter::builder().ge("x", 0).le("x", 100).build();
    sim.create_client(TARGET, PUBLISHER);
    sim.create_client(SOURCE, MOVER);
    sim.client_op(PUBLISHER, ClientOp::Advertise(band.clone()));
    sim.client_op(MOVER, ClientOp::Subscribe(band));
    sim
}

/// The one publication the failure-free and timeout modes schedule.
fn publish() -> ClientOp {
    ClientOp::Publish(Publication::new().with("x", 5))
}

fn root(protocol: ProtocolKind, mode: Mode, accept: bool) -> Exploration {
    let faults = usize::from(mode == Mode::Faults);
    explore(scenario(protocol, mode, accept), faults).unwrap_or_else(|v| panic!("{v}"))
}

/// Both roots of a mode, explored once per test binary.
fn explored(protocol: ProtocolKind, mode: Mode) -> &'static Exploration {
    static CACHE: [[OnceLock<Exploration>; 3]; 2] = [const { [const { OnceLock::new() }; 3] }; 2];
    CACHE[protocol as usize][mode as usize].get_or_init(|| {
        let mut ex = root(protocol, mode, true);
        ex.merge(root(protocol, mode, false));
        ex
    })
}

fn set<'a>(labels: impl IntoIterator<Item = &'a str>) -> BTreeSet<String> {
    labels.into_iter().map(str::to_owned).collect()
}

fn every_exploration() -> impl Iterator<Item = &'static Exploration> {
    let protocols = [ProtocolKind::Reconfig, ProtocolKind::Covering];
    let modes = [Mode::Blocking, Mode::Timeouts, Mode::Faults];
    protocols
        .into_iter()
        .flat_map(move |p| modes.map(|mode| explored(p, mode)))
}

/// How many times each final delivered the publication to the mover.
fn deliveries(ex: &Exploration) -> Vec<usize> {
    (ex.finals.iter())
        .map(|f| f.deliveries.get(&MOVER).map_or(0, Vec::len))
        .collect()
}

#[test]
fn fig5_reachable_graph_matches_paper() {
    let ex = explored(ProtocolKind::Reconfig, Mode::Blocking);
    assert_eq!(ex.labels(), set(FIG5));
}

#[test]
fn fig5_final_states_are_commit_or_abort() {
    let ex = explored(ProtocolKind::Reconfig, Mode::Blocking);
    assert_eq!(ex.final_labels(), set(COMMIT_OR_ABORT));
}

#[test]
fn paper_property_1_exactly_one_started_and_clean_in_finals() {
    // The explorer checks property (1) at every final state of every
    // mode: each client runs as one started copy, the other is gone.
    for ex in every_exploration() {
        assert!(!ex.finals.is_empty());
        assert!(ex.final_labels().is_subset(&set(COMMIT_OR_ABORT)));
    }
    // And it fails a final state with a client that does not run.
    let paused = || {
        let mut sim = scenario(ProtocolKind::Reconfig, Mode::Blocking, true)();
        sim.schedule_cmd(sim.now(), PUBLISHER, ClientOp::Pause);
        sim
    };
    let violation = explore(paused, 0).expect_err("a paused publisher at the end");
    assert!(violation.what.contains("PauseOper"), "{violation}");
}

#[test]
fn paper_property_2_at_most_one_started_everywhere() {
    // Checked at every state: every mode of both protocols explores
    // without a violation.
    assert_eq!(every_exploration().count(), 6);
    // A second started copy is caught where it first appears.
    let cloned = || {
        let mut sim = scenario(ProtocolKind::Reconfig, Mode::Blocking, true)();
        sim.create_client(BrokerId(2), MOVER);
        sim
    };
    let violation = explore(cloned, 0).expect_err("two started copies");
    assert!(violation.what.contains("2 running copies"), "{violation}");
    assert!(violation.schedule.is_empty(), "caught at the start");
}

#[test]
fn invariants_hold_under_timeout_failures() {
    for protocol in [ProtocolKind::Reconfig, ProtocolKind::Covering] {
        let timeouts = explored(protocol, Mode::Timeouts);
        assert_eq!(timeouts.final_labels(), set(COMMIT_OR_ABORT));
        assert!(timeouts.states > explored(protocol, Mode::Blocking).states);
    }
}

#[test]
fn happy_path_without_reject_reaches_only_commit() {
    let ex = root(ProtocolKind::Reconfig, Mode::Blocking, true);
    assert_eq!(ex.final_labels(), set(["cS,cT"]));
}

#[test]
fn protocol_always_makes_progress() {
    // `explore` fails a state from which no final state is reachable;
    // every mode of both protocols explored, so every state can finish.
    for ex in every_exploration() {
        assert!(ex.states > ex.finals.len());
    }
}

#[test]
fn dot_export_mentions_all_labels() {
    let ex = explored(ProtocolKind::Reconfig, Mode::Blocking);
    let dot = ex.to_dot();
    assert!(dot.starts_with("digraph"));
    for label in ex.labels() {
        assert!(dot.contains(&format!("\"{label}\"")), "missing {label}");
    }
    assert!(dot.contains("\"wS,pT\" -> \"pS,pT\" [label=\"B2→B3 reconfigure\"]"));
}

/// The state counts of both roots together, pinned exactly: a change
/// meant to keep the coordinator's behaviour keeps every one of them.
fn states(protocol: ProtocolKind, mode: Mode) -> usize {
    explored(protocol, mode).states
}

#[test]
fn state_space_is_small_and_finite() {
    for (protocol, blocking, timeouts) in [
        (ProtocolKind::Reconfig, 86, 589),
        (ProtocolKind::Covering, 89, 396),
    ] {
        assert_eq!(states(protocol, Mode::Blocking), blocking, "{protocol}");
        assert_eq!(states(protocol, Mode::Timeouts), timeouts, "{protocol}");
    }
}

#[test]
fn crash_recover_at_every_step_preserves_both_safety_properties() {
    // Every broker crashes, warm and losing its state, in some run.
    let faults = explored(ProtocolKind::Reconfig, Mode::Faults);
    for broker in [TARGET, BrokerId(2), SOURCE] {
        for kind in [CrashKind::Warm, CrashKind::StateLoss] {
            let crashed = (faults.finals.iter()).any(|f| f.crashed.get(&broker) == Some(&kind));
            assert!(crashed, "no run where {broker} crashed ({kind:?})");
        }
    }
    assert!(faults.states > explored(ProtocolKind::Reconfig, Mode::Timeouts).states);
}

#[test]
fn every_crashed_run_recovers_to_a_live_commit_or_abort() {
    // Every final has every broker up (the explorer checks it) and is a
    // commit or an abort; the model's crash-recovery labels are reached.
    let faults = explored(ProtocolKind::Reconfig, Mode::Faults);
    assert_eq!(faults.final_labels(), set(COMMIT_OR_ABORT));
    let recovery = set(FIG5.into_iter().chain(TIMEOUT_LABELS).chain(["pS,aT"]));
    assert_eq!(faults.labels(), recovery);
}

#[test]
fn recovered_runs_can_still_commit() {
    let faults = explored(ProtocolKind::Reconfig, Mode::Faults);
    for broker in [SOURCE, TARGET] {
        for kind in [CrashKind::Warm, CrashKind::StateLoss] {
            let committed_after = (faults.finals.iter())
                .any(|f| f.label == "cS,cT" && f.crashed.get(&broker) == Some(&kind));
            assert!(
                committed_after,
                "no commit after {broker} restarted ({kind:?})"
            );
        }
    }
}

#[test]
fn recovery_graph_makes_progress_and_stays_finite() {
    // A target rebuilt from its log keeps its own configuration: under
    // the reject root it still refuses the mover after a state-loss
    // restart, and the runs in which the restarted target accepted it
    // are gone.
    assert_eq!(states(ProtocolKind::Reconfig, Mode::Faults), 1_817);
    assert_eq!(states(ProtocolKind::Covering, Mode::Faults), 1_169);
}

#[test]
fn faults_extend_the_failure_free_graph() {
    // A budget of one fault still explores every crash-free schedule.
    let faults = explored(ProtocolKind::Reconfig, Mode::Faults);
    assert!(faults.finals.iter().any(|f| f.crashed.is_empty()));
    let timeouts = explored(ProtocolKind::Reconfig, Mode::Timeouts);
    assert!(timeouts.labels().is_subset(&faults.labels()));
}

#[test]
fn abort_while_target_prepared_reachable_with_timeouts() {
    // Fig. 5's aS,pT needs the source's negotiate timer.
    let timeouts = explored(ProtocolKind::Reconfig, Mode::Timeouts);
    let witness = timeouts.witnesses.get("aS,pT").expect("aS,pT reached");
    assert!(witness.contains(&format!("{SOURCE} fires its negotiate timer")));
}

#[test]
fn timeouts_add_a_prepared_source_with_an_aborted_target_without_any_crash() {
    // The fail-stop model let the target's state timer fire only after
    // the source crashed, and only while no state transfer was on the
    // wire; the code has neither guard. Once the reconfiguration
    // reaches B3, the source is prepared and its state is on B3→B2.
    let timeouts = explored(ProtocolKind::Reconfig, Mode::Timeouts);
    let labels = set(FIG5.into_iter().chain(TIMEOUT_LABELS).chain(["pS,aT"]));
    assert_eq!(timeouts.labels(), labels);
    let witness = timeouts.witnesses.get("pS,aT").expect("pS,aT reached");
    let expected = [
        "C2 moves to B1 (reconfig)",
        "B3→B2 negotiate",
        "B2→B1 negotiate",
        "B1→B2 reconfigure",
        "B2→B3 reconfigure",
        "B1 fires its state timer",
    ];
    assert_eq!(witness, &expected);
}

#[test]
fn a_rejecting_target_keeps_no_record_and_projects_to_abort() {
    // Fig. 4 puts a rejecting target in Abort; the code keeps no record,
    // so the explorer projects from the Reject it sent.
    let ex = root(ProtocolKind::Reconfig, Mode::Blocking, false);
    assert_eq!(ex.labels(), set(["iS,iT", "wS,iT", "wS,aT", "aS,aT"]));
    let witness = ex.witnesses.get("wS,aT").expect("wS,aT reached");
    assert_eq!(witness.last().map(String::as_str), Some("B2→B1 negotiate"));
    assert!(deliveries(&ex).iter().all(|&n| n == 1));
}

#[test]
fn failure_free_reconfig_delivers_the_publication_exactly_once() {
    let ex = explored(ProtocolKind::Reconfig, Mode::Blocking);
    assert!(
        deliveries(ex).iter().all(|&n| n == 1),
        "{:?}",
        deliveries(ex)
    );
}

#[test]
fn timeout_losses_are_a_state_timer_firing_behind_the_state_transfer() {
    // The honest negative. The explorer fires a timer whatever its
    // deadline; a 30 s state timeout cannot expire while a transfer is
    // in flight unless the network's delay bound exceeds it (DESIGN.md
    // §9). When it does, the target destroys its copy, and what that
    // copy buffered (or the transfer carried) is lost: the source's
    // buffer went out with the state. These are all the losses.
    let ex = explored(ProtocolKind::Reconfig, Mode::Timeouts);
    let lost: BTreeSet<Vec<&str>> = (ex.finals.iter())
        .filter(|f| f.deliveries.get(&MOVER).map_or(0, Vec::len) != 1)
        .map(|f| f.schedule.iter().map(String::as_str).collect())
        .collect();
    let pinned: BTreeSet<Vec<&str>> = [
        vec![
            "C2 moves to B1 (reconfig)",
            "C1 publishes",
            "B3→B2 negotiate",
            "B1→B2 publish",
            "B2→B1 negotiate",
            "B2→B3 publish",
            "B1→B2 reconfigure",
            "B2→B3 reconfigure",
            "B3→B2 state",
            "B1 fires its state timer",
            "B2→B1 state",
            "B1→B2 abort",
            "B1→B2 abort",
            "B2→B3 abort",
            "B2→B3 abort",
            "B3→B2 subscribe",
            "B2→B1 subscribe",
        ],
        vec![
            "C2 moves to B1 (reconfig)",
            "C1 publishes",
            "B3→B2 negotiate",
            "B1→B2 publish",
            "B2→B1 negotiate",
            "B2→B3 publish",
            "B1→B2 reconfigure",
            "B2→B3 reconfigure",
            "B1 fires its state timer",
            "B1→B2 abort",
            "B3→B2 state",
            "B2→B3 abort",
            "B2→B1 state",
            "B3→B2 subscribe",
            "B1→B2 abort",
            "B2→B3 abort",
        ],
        vec![
            "C2 moves to B1 (reconfig)",
            "B3→B2 negotiate",
            "B2→B1 negotiate",
            "C1 publishes",
            "B1→B2 reconfigure",
            "B2→B3 reconfigure",
            "B3→B2 state",
            "B1→B2 publish",
            "B1 fires its state timer",
            "B2→B1 state",
            "B1→B2 abort",
            "B1→B2 abort",
            "B2→B3 abort",
            "B2→B3 abort",
            "B3→B2 subscribe",
            "B2→B1 subscribe",
        ],
    ]
    .into_iter()
    .collect();
    assert_eq!(lost, pinned);
    let finals = ex.finals.len();
    assert_eq!((lost.len(), finals), (3, 10), "3 of the 10 finals lose");
}

/// One-way link delay of the timed runs below; nothing else costs
/// time.
const LINK_NS: u64 = 1_000_000;

/// From `negotiate` reaching B1 to `state` reaching B1, the movement
/// crosses four links: `reconfigure` B1→B2→B3, then `state` B3→B2→B1.
const TRANSFER_NS: u64 = 4 * LINK_NS;

/// The explored scenario, timed: C2 moves B3→B1 and C1 publishes with
/// the move, over links of [`LINK_NS`], with B1's state timer at
/// `state_timeout_ns`. Runs to quiescence.
fn timed(state_timeout_ns: u64) -> Sim {
    let link = LinkModel {
        latency: SimDuration::from_nanos(LINK_NS),
        serialize: SimDuration::ZERO,
        jitter: 0.0,
    };
    let node = NodeModel {
        process: SimDuration::ZERO,
        per_entry: SimDuration::ZERO,
        jitter: 0.0,
    };
    let config = MobileBrokerConfig {
        state_timeout_ns: Some(state_timeout_ns),
        ..MobileBrokerConfig::reconfig()
    };
    let mut sim = chain3(config, NetworkModel::uniform(link, node));
    sim.enable_delivery_log();
    let now = sim.now();
    let to_b1 = ClientOp::MoveTo(TARGET, ProtocolKind::Reconfig);
    sim.schedule_cmd(now, MOVER, to_b1);
    sim.schedule_cmd(now, PUBLISHER, publish());
    sim.run_to_quiescence();
    sim
}

/// The outcome of each movement of a timed run.
fn outcomes(sim: &Sim) -> Vec<Option<bool>> {
    sim.metrics.moves.values().map(|r| r.committed).collect()
}

#[test]
fn a_state_timeout_above_the_transfer_time_commits_and_delivers_once() {
    // The bounded-delay side of DESIGN.md §9: the state reaches B1 long
    // before its timer could fire.
    let sim = timed(10 * TRANSFER_NS);
    assert_eq!(outcomes(&sim), [Some(true)]);
    assert_eq!(sim.find_client(MOVER), Some(TARGET));
    assert_eq!(sim.metrics.deliveries_to(MOVER).len(), 1);
    assert_eq!(sim.total_anomalies(), 0);
}

#[test]
fn a_state_timeout_below_the_transfer_time_loses_the_publication() {
    // The losses the explorer pins
    // (`timeout_losses_are_a_state_timer_firing_behind_the_state_transfer`),
    // on a clock. B1's timer fires while the state, which carries the
    // publication C2 buffered at B3, is on B3→B2. B1 destroys its copy
    // and aborts; the late state is answered with a second abort pass,
    // and C2 resumes at B3 without the publication: the source's
    // buffer went out with the state.
    let sim = timed(TRANSFER_NS * 5 / 8);
    assert_eq!(outcomes(&sim), [Some(false)]);
    assert_eq!(sim.find_client(MOVER), Some(SOURCE));
    assert_eq!(sim.metrics.deliveries_to(MOVER), []);
    assert_eq!(sim.total_anomalies(), 1, "the late state at B1");
}

#[test]
fn covering_runs_the_same_three_modes() {
    let [blocking, timeouts, faults] =
        [Mode::Blocking, Mode::Timeouts, Mode::Faults].map(|m| explored(ProtocolKind::Covering, m));
    let with_timeouts = set(FIG5.into_iter().chain(TIMEOUT_LABELS).chain(["pS,aT"]));
    assert_eq!(blocking.labels(), set(FIG5));
    assert_eq!(timeouts.labels(), with_timeouts);
    assert_eq!(faults.labels(), with_timeouts);
    for ex in [blocking, timeouts, faults] {
        assert_eq!(ex.final_labels(), set(COMMIT_OR_ABORT));
    }
    // Break-before-make loses by design (notification_properties.rs):
    // the publication dies behind the unsubscription in 2 of 5 finals
    // without timeouts and in 5 of 10 with them.
    let lost = |ex: &Exploration| deliveries(ex).iter().filter(|&&n| n != 1).count();
    assert_eq!((lost(blocking), blocking.finals.len()), (2, 5));
    assert_eq!((lost(timeouts), timeouts.finals.len()), (5, 10));
}

/// A wider alphabet than tier 1 affords: chain(4), both protocols, one
/// crash. Run by `scripts/ci.sh` beside the chaos smoke.
#[test]
#[ignore = "tier 2: ~20 s in a debug build"]
fn chain4_one_crash_both_protocols() {
    for protocol in [ProtocolKind::Reconfig, ProtocolKind::Covering] {
        let build = move || {
            let config = match protocol {
                ProtocolKind::Reconfig => MobileBrokerConfig::reconfig(),
                ProtocolKind::Covering => MobileBrokerConfig::covering(),
            };
            let mut sim = Sim::builder()
                .overlay(Topology::chain(4))
                .options(config)
                .network(NetworkModel::instant())
                .start();
            let band = Filter::builder().ge("x", 0).build();
            sim.create_client(BrokerId(1), PUBLISHER);
            sim.create_client(BrokerId(4), MOVER);
            sim.client_op(PUBLISHER, ClientOp::Advertise(band.clone()));
            sim.client_op(MOVER, ClientOp::Subscribe(band));
            sim.enable_durability();
            let now = sim.now();
            sim.schedule_cmd(now, MOVER, ClientOp::MoveTo(BrokerId(1), protocol));
            sim
        };
        let ex = explore(build, 1).unwrap_or_else(|v| panic!("{protocol}: {v}"));
        assert_eq!(ex.final_labels(), set(COMMIT_OR_ABORT));
        println!("{protocol} chain(4), one crash: {} states", ex.states);
    }
}
