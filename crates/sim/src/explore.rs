//! Schedule exploration over real brokers: the paper's Fig. 5 global
//! state graph, regenerated from the code.
//!
//! [`explore`] runs a scenario, a [`Sim`] built with one movement
//! scheduled as a command, in every order [`Sim::enabled`] allows, and
//! up to a fault budget crashes any broker at any point, warm or (with
//! durability enabled) losing its state. It back-tracks by replay from
//! the builder, since a `Sim` shares its durability logs and is not
//! cloned, and it merges states by a hash of everything their future
//! and their checks depend on.
//!
//! At every state it checks property (2), at most one `Started` copy
//! per client, each live broker's routing invariants, and that nothing
//! panicked. At every final state, where nothing is enabled, every
//! broker is up, no timer is armed, every client runs as exactly one
//! `Started` copy (property (1)), the movement projects to a commit or
//! an abort, and no client saw a publication twice. Every state must
//! reach a final one.
//!
//! A state projects onto the coordinator labels of Fig. 4 (`"wS,pT"`):
//! a broker's record of the movement where it keeps one
//! ([`MobileBroker::source_state`], [`MobileBroker::target_state`]),
//! and what the run has seen where it does not. A source is `i` before
//! the move command ran, `c` once the movement committed and `a` once
//! it aborted; a target is `a` once it sent a `Reject` (Fig. 4's
//! `Abort`, of which the code keeps no record) and `i` otherwise.
//!
//! [`MobileBroker::source_state`]: transmob_core::MobileBroker::source_state
//! [`MobileBroker::target_state`]: transmob_core::MobileBroker::target_state

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};

use transmob_core::{properties, ClientState, Message, MoveMsg};
use transmob_core::{SourceCoordState as S, TargetCoordState as T};
use transmob_pubsub::{BrokerId, ClientId, PubId};

use crate::fault::CrashKind;
use crate::sim::{Choice, Sim};

/// The reachable states of a scenario, projected onto Fig. 4 labels.
#[derive(Debug, Clone, Default)]
pub struct Exploration {
    /// Distinct states reached.
    pub states: usize,
    /// Each label reached, with the shortest schedule found to it.
    pub witnesses: BTreeMap<String, Vec<String>>,
    /// Every final state.
    pub finals: Vec<Final>,
    /// Each step that changes the label: `(from, step, to)`.
    pub edges: BTreeSet<(String, String, String)>,
}

/// A final state: nothing is left to run.
#[derive(Debug, Clone)]
pub struct Final {
    /// Its Fig. 4 label.
    pub label: String,
    /// The steps that reached it.
    pub schedule: Vec<String>,
    /// The publications each client was delivered, in delivery order.
    pub deliveries: BTreeMap<ClientId, Vec<PubId>>,
    /// The brokers crashed on the way, and how.
    pub crashed: BTreeMap<BrokerId, CrashKind>,
}

/// A check that failed, and the steps that reached the failing state.
#[derive(Debug, Clone)]
pub struct Violation {
    /// What failed.
    pub what: String,
    /// The steps that reached the failing state.
    pub schedule: Vec<String>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}; schedule:", self.what)?;
        (self.schedule.iter().enumerate())
            .try_for_each(|(i, step)| write!(f, "\n  {}. {step}", i + 1))
    }
}

impl std::error::Error for Violation {}

impl Exploration {
    /// The labels reached.
    pub fn labels(&self) -> BTreeSet<String> {
        self.witnesses.keys().cloned().collect()
    }

    /// The labels of the final states.
    pub fn final_labels(&self) -> BTreeSet<String> {
        self.finals.iter().map(|f| f.label.clone()).collect()
    }

    /// Adds the exploration of another root of the same scenario (a
    /// target that rejects, say).
    pub fn merge(&mut self, other: Exploration) {
        self.states += other.states;
        self.finals.extend(other.finals);
        self.edges.extend(other.edges);
        for (label, schedule) in other.witnesses {
            self.witness(label, schedule);
        }
    }

    fn witness(&mut self, label: String, schedule: Vec<String>) {
        let known = self
            .witnesses
            .entry(label)
            .or_insert_with(|| schedule.clone());
        if schedule.len() < known.len() {
            *known = schedule;
        }
    }

    /// The label graph in Graphviz DOT: the regenerated Fig. 5.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph fig5 {\n  rankdir=TB;\n");
        for label in self.witnesses.keys() {
            out.push_str(&format!("  \"{label}\";\n"));
        }
        for (from, step, to) in &self.edges {
            out.push_str(&format!("  \"{from}\" -> \"{to}\" [label=\"{step}\"];\n"));
        }
        out + "}\n"
    }
}

/// Explores every schedule of the scenario `build` returns, crashing at
/// most `faults` brokers a run, each at most once, and checks what the
/// module docs list. `build` must return the same simulator every time;
/// the movement is the first its commands start, and the delivery log
/// is enabled if `build` left it off.
///
/// # Errors
///
/// The first check that fails.
pub fn explore(build: impl Fn() -> Sim, faults: usize) -> Result<Exploration, Violation> {
    let root = Run::start(&build);
    let (key, label) = (root.key(), root.label());
    let mut search = Search {
        build: &build,
        faults,
        nodes: HashMap::from([(key, (label.clone(), Vec::new()))]),
        edges: Vec::new(),
        finals: Vec::new(),
        out: Exploration::default(),
    };
    search.out.witness(label, Vec::new());
    search.visit(key, &mut Vec::new(), root)?;
    search.check_progress()?;
    search.out.states = search.nodes.len();
    Ok(search.out)
}

/// One step of a schedule: a choice the simulator offers, or a crash.
#[derive(Debug, Clone, Copy)]
enum Step {
    Run(Choice),
    Crash(BrokerId, CrashKind),
}

/// A run being explored, and what the projection has seen on the way.
struct Run {
    sim: Sim,
    /// A `Reject` of the movement has been sent.
    rejected: bool,
    crashed: BTreeMap<BrokerId, CrashKind>,
}

impl Run {
    fn start(build: &dyn Fn() -> Sim) -> Run {
        let mut sim = build();
        if sim.metrics.delivery_log.is_none() {
            sim.enable_delivery_log();
        }
        Run {
            sim,
            rejected: false,
            crashed: BTreeMap::new(),
        }
    }

    /// What can happen next; a crash only while something else can.
    fn steps(&self, faults: usize) -> Vec<Step> {
        let mut steps: Vec<Step> = self.sim.enabled().into_iter().map(Step::Run).collect();
        if steps.is_empty() || self.crashed.len() >= faults {
            return steps;
        }
        let kinds: &[CrashKind] = match self.sim.durability_enabled() {
            true => &[CrashKind::Warm, CrashKind::StateLoss],
            false => &[CrashKind::Warm],
        };
        for broker in self.sim.topology().brokers() {
            if !self.crashed.contains_key(&broker) {
                steps.extend(kinds.iter().map(|&kind| Step::Crash(broker, kind)));
            }
        }
        steps
    }

    fn describe(&self, step: Step) -> String {
        match step {
            Step::Run(choice) => self.sim.describe(choice),
            Step::Crash(broker, CrashKind::Warm) => format!("{broker} crashes"),
            Step::Crash(broker, CrashKind::StateLoss) => {
                format!("{broker} crashes, losing its state")
            }
        }
    }

    fn take(&mut self, step: Step) {
        let now = self.sim.now();
        match step {
            Step::Run(choice) => self.sim.run(choice),
            Step::Crash(broker, kind) => {
                match kind {
                    CrashKind::Warm => self.sim.crash_broker(broker, now),
                    CrashKind::StateLoss => self.sim.crash_broker_lossy(broker, now),
                }
                self.crashed.insert(broker, kind);
            }
        }
        if let Some((&m, _)) = self.sim.metrics.moves.first_key_value() {
            let reject = |msg: &Message| match msg {
                Message::Move(mv) => matches!(**mv, MoveMsg::Reject { m: r, .. } if r == m),
                _ => false,
            };
            self.rejected |= self.sim.in_flight().any(reject);
        }
    }

    fn key(&self) -> u64 {
        let mut state = DefaultHasher::new();
        self.sim.digest(&mut state);
        (self.rejected, &self.crashed).hash(&mut state);
        state.finish()
    }

    fn label(&self) -> String {
        let Some((&m, rec)) = self.sim.metrics.moves.first_key_value() else {
            return "iS,iT".to_owned();
        };
        let source = match (self.sim.broker(rec.source).source_state(m), rec.committed) {
            (Some(state), _) => state,
            (None, Some(true)) => S::Commit,
            (None, Some(false)) => S::Abort,
            (None, None) => S::Init,
        };
        let target = match self.sim.broker(rec.target).target_state(m) {
            Some(state) => state,
            None if self.rejected => T::Abort,
            None => T::Init,
        };
        // The paper labels a state by its initial.
        let (source, target) = (source.to_string(), target.to_string());
        format!("{}S,{}T", &source[..1], &target[..1])
    }

    fn deliveries(&self) -> BTreeMap<ClientId, Vec<PubId>> {
        let mut streams: BTreeMap<ClientId, Vec<PubId>> = BTreeMap::new();
        for d in self.sim.metrics.delivery_log.iter().flatten() {
            streams.entry(d.client).or_default().push(d.publication);
        }
        streams
    }

    fn check_state(&self) -> Result<(), String> {
        properties::assert_single_instance(&self.sim).map_err(|e| e.to_string())?;
        // A crashed broker's are checked too: they held before the crash.
        for broker in self.sim.topology().brokers() {
            self.sim.broker(broker).core().check_invariants();
        }
        Ok(())
    }

    fn check_final(&self) -> Result<(), String> {
        let (down, armed) = (self.sim.crashed(), self.sim.armed_timers());
        if !down.is_empty() || !armed.is_empty() {
            return Err(format!(
                "final state with {down:?} down and {armed:?} armed"
            ));
        }
        let mut copies: BTreeMap<ClientId, Vec<ClientState>> = BTreeMap::new();
        for rec in self.sim.metrics.moves.values() {
            copies.entry(rec.client).or_default();
        }
        for broker in self.sim.topology().brokers() {
            for (client, stub) in self.sim.broker(broker).clients() {
                copies.entry(*client).or_default().push(stub.state());
            }
        }
        if let Some((client, states)) = copies.iter().find(|(_, s)| **s != [ClientState::Started]) {
            return Err(format!(
                "final state: {client} has copies {states:?}, not one started"
            ));
        }
        let label = self.label();
        if label != "cS,cT" && label != "aS,aT" {
            return Err(format!(
                "final state {label} is neither a commit nor an abort"
            ));
        }
        let mut streams = self.deliveries().into_values();
        streams
            .try_for_each(properties::assert_exactly_once)
            .map_err(|e| e.to_string())
    }
}

/// Runs `check`, turning a panic into an error.
fn guard(check: impl FnOnce() -> Result<(), String>) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(check)).unwrap_or_else(|panic| {
        let msg = (panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .or_else(|| panic.downcast_ref::<String>().cloned());
        Err(format!("panicked: {}", msg.unwrap_or_default()))
    })
}

struct Search<'a> {
    build: &'a dyn Fn() -> Sim,
    faults: usize,
    /// Each state reached: its label and the steps that first reached it.
    nodes: HashMap<u64, (String, Vec<String>)>,
    edges: Vec<(u64, u64)>,
    finals: Vec<u64>,
    out: Exploration,
}

impl Search<'_> {
    /// Checks the state `key`, which `path` reached and `run` is in, then
    /// explores each step out of it: the last on `run`, the others on
    /// replays of `path`.
    fn visit(&mut self, key: u64, path: &mut Vec<Step>, run: Run) -> Result<(), Violation> {
        guard(|| run.check_state()).map_err(|what| self.fail(key, what))?;
        let steps = run.steps(self.faults);
        if steps.is_empty() {
            guard(|| run.check_final()).map_err(|what| self.fail(key, what))?;
            let (label, schedule) = self.nodes[&key].clone();
            let (deliveries, crashed) = (run.deliveries(), run.crashed);
            (self.out.finals).push(Final {
                label,
                schedule,
                deliveries,
                crashed,
            });
            self.finals.push(key);
            return Ok(());
        }
        let mut last = Some(run);
        for (i, &step) in steps.iter().enumerate() {
            let mut child = match i + 1 < steps.len() {
                true => self.replay(path),
                false => last.take().expect("the last step takes the run"),
            };
            let what = child.describe(step);
            let took = guard(|| {
                child.take(step);
                Ok(())
            });
            took.map_err(|e| self.fail(key, format!("{what}: {e}")))?;
            let (next, label) = (child.key(), child.label());
            self.edges.push((key, next));
            let (from, schedule) = &self.nodes[&key];
            if label != *from {
                (self.out.edges).insert((from.clone(), what.clone(), label.clone()));
            }
            if self.nodes.contains_key(&next) {
                continue;
            }
            let schedule = [schedule.as_slice(), &[what]].concat();
            self.out.witness(label.clone(), schedule.clone());
            self.nodes.insert(next, (label, schedule));
            path.push(step);
            self.visit(next, path, child)?;
            path.pop();
        }
        Ok(())
    }

    fn replay(&self, path: &[Step]) -> Run {
        let mut run = Run::start(self.build);
        path.iter().for_each(|&step| run.take(step));
        run
    }

    fn fail(&self, key: u64, what: String) -> Violation {
        let schedule = self.nodes[&key].1.clone();
        Violation { what, schedule }
    }

    /// Every state reaches a final state: reverse reachability from the
    /// finals.
    fn check_progress(&self) -> Result<(), Violation> {
        let mut preds: HashMap<u64, Vec<u64>> = HashMap::new();
        for &(from, to) in &self.edges {
            preds.entry(to).or_default().push(from);
        }
        let mut done: HashSet<u64> = self.finals.iter().copied().collect();
        let mut queue = self.finals.clone();
        while let Some(key) = queue.pop() {
            for &pred in preds.get(&key).into_iter().flatten() {
                if done.insert(pred) {
                    queue.push(pred);
                }
            }
        }
        match self.nodes.keys().find(|key| !done.contains(key)) {
            Some(&stuck) => Err(self.fail(stuck, "cannot reach a final state".to_owned())),
            None => Ok(()),
        }
    }
}
