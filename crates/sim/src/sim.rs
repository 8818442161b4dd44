//! The discrete-event simulation driver.
//!
//! [`Sim`] hosts one [`MobileBroker`] per overlay node and advances a
//! virtual clock over a priority queue of events. Brokers and links
//! are FIFO servers (see [`crate::network`]); protocol timers wait in
//! a [`TimerTable`] beside the queue and count as an event only when
//! they fire; client commands (including `MOVE`) are injected on a
//! schedule; and repeated movement patterns — the paper's "move, pause
//! ten seconds, move again" clients — run as [`MovementPlan`]s.
//!
//! Failure injection: brokers can crash and restart. Per the paper's
//! fault model (Sec. 3.5), a crashed broker's algorithmic and queue
//! state is persisted: messages addressed to it are *delayed*, not
//! lost, and processing resumes at restart.
//!
//! The same loop is also driven by hand, which is how the protocol
//! tests inject failures mid-transaction: [`Sim::client_op_deferred`]
//! issues a command on the spot, [`Sim::step_n`] executes a chosen
//! number of frames, [`Sim::fire_timer`] fires a timer that is still
//! armed, [`Sim::drain_queue`] loses what is in flight and
//! [`Sim::settle`] runs everything that needs no timer to fire. Under
//! [`NetworkModel::instant`] nothing takes time, the event order is
//! send order, and these verbs step one global FIFO of frames.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use transmob_broker::{Hop, OverlayBuilder, Topology};
use transmob_core::transport::{flush_outputs, for_each_cause_run, TimerTable, Transport};
use transmob_core::{
    ClientOp, DurabilityLog, MemoryLog, Message, MobileBroker, MobileBrokerConfig, Output,
    ProtocolKind, TimerToken,
};
use transmob_pubsub::{BrokerId, ClientId, MoveId, PublicationMsg};

use crate::fault::{CrashKind, FaultPlan, LinkFaults, Partition};
use crate::metrics::Metrics;
use crate::network::NetworkModel;
use crate::time::{SimDuration, SimTime};

/// A repeating movement pattern for one client: cycle through
/// `destinations`, pausing between movements (the paper's default
/// pause is ten seconds).
#[derive(Debug, Clone)]
pub struct MovementPlan {
    /// Destinations visited round-robin.
    pub destinations: Vec<BrokerId>,
    /// Pause at each broker between movements.
    pub pause: SimDuration,
    /// Which protocol each movement uses.
    pub protocol: ProtocolKind,
}

/// One wire frame: the message batch a neighbour flushed to `dst` in
/// one go, and the movement it is attributed to.
#[derive(Debug)]
struct Frame {
    dst: BrokerId,
    from: Hop,
    msgs: Vec<Message>,
    cause: Option<MoveId>,
}

#[derive(Debug)]
enum EventKind {
    /// A frame arrives at a broker's input queue.
    Arrive(Frame),
    /// A broker finishes processing a frame.
    Exec(Frame),
    /// A client command reaches the client's current broker.
    Cmd { client: ClientId, op: ClientOp },
    /// A client command is processed by its broker.
    CmdExec {
        broker: BrokerId,
        client: ClientId,
        op: ClientOp,
    },
    /// A scheduled broker crash (from a [`FaultPlan`]).
    Crash {
        broker: BrokerId,
        restart_at: SimTime,
        kind: CrashKind,
    },
    /// A crashed broker restarts.
    Restart { broker: BrokerId, kind: CrashKind },
    /// A broker dies permanently (overlay churn); it never restarts
    /// and its queue state is lost with it.
    Die { broker: BrokerId },
    /// A survivor's failure detector declares `dead` gone, triggering
    /// the overlay self-repair on `observer`.
    Detect { observer: BrokerId, dead: BrokerId },
}

/// Per-link failure-detection delay: how long after a permanent death
/// a survivor with a live link to the victim declares it gone (the
/// sim's stand-in for the TCP runtime's heartbeat-timeout plus
/// redial-exhaustion suspicion window).
const DETECTION_DELAY: SimDuration = SimDuration(50_000_000);

/// The bound of a run that has none.
const FOREVER: SimTime = SimTime(u64::MAX);

#[derive(Debug)]
struct Event {
    time: SimTime,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    // Reversed: the heap pops the *earliest* event.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// The discrete-event simulator.
#[derive(Debug)]
pub struct Sim {
    topology: Arc<Topology>,
    model: NetworkModel,
    config: MobileBrokerConfig,
    brokers: BTreeMap<BrokerId, MobileBroker>,
    clock: SimTime,
    heap: BinaryHeap<Event>,
    seq: u64,
    broker_free: BTreeMap<BrokerId, SimTime>,
    link_free: BTreeMap<(BrokerId, BrokerId), SimTime>,
    link_last_arrival: BTreeMap<(BrokerId, BrokerId), SimTime>,
    rng: StdRng,
    /// Collected measurements.
    pub metrics: Metrics,
    /// Every broker's armed timers. A deadline carries the sequence
    /// number drawn at arming, so a timer and a heap event of the same
    /// instant run in the order they were scheduled.
    armed: TimerTable<(BrokerId, TimerToken), (SimTime, u64)>,
    home: BTreeMap<ClientId, BrokerId>,
    plans: BTreeMap<ClientId, (MovementPlan, usize)>,
    plan_deadline: Option<SimTime>,
    crashed: BTreeSet<BrokerId>,
    /// Permanently dead brokers (overlay churn). Unlike `crashed`,
    /// traffic addressed to a dead broker is *dropped*, not held.
    dead: BTreeSet<BrokerId>,
    /// Events addressed to a crashed broker, held in arrival order
    /// (the paper's persisted-queue fault model) and replayed at
    /// restart.
    held: BTreeMap<BrokerId, Vec<Event>>,
    events_processed: u64,
    /// Per-broker durability logs ([`Sim::enable_durability`]); the
    /// source of truth for state-loss recovery.
    logs: BTreeMap<BrokerId, Arc<Mutex<MemoryLog>>>,
    partitions: Vec<Partition>,
    link_faults: LinkFaults,
    fault_rng: StdRng,
    faults_dropped: u64,
    faults_duplicated: u64,
}

impl Sim {
    /// The builder entry point: `Sim::builder().overlay(..)
    /// .options(..).network(..).seed(..).start()`.
    pub fn builder() -> SimBuilder {
        SimBuilder::default()
    }

    fn from_parts(
        topology: Topology,
        config: MobileBrokerConfig,
        model: NetworkModel,
        seed: u64,
    ) -> Self {
        let topology = Arc::new(topology);
        let brokers = topology
            .brokers()
            .map(|b| {
                (
                    b,
                    MobileBroker::new(b, Arc::clone(&topology), config.clone()),
                )
            })
            .collect();
        Sim {
            topology,
            model,
            config,
            brokers,
            clock: SimTime::ZERO,
            heap: BinaryHeap::new(),
            seq: 0,
            broker_free: BTreeMap::new(),
            link_free: BTreeMap::new(),
            link_last_arrival: BTreeMap::new(),
            rng: StdRng::seed_from_u64(seed),
            metrics: Metrics::new(false),
            armed: TimerTable::default(),
            home: BTreeMap::new(),
            plans: BTreeMap::new(),
            plan_deadline: None,
            crashed: BTreeSet::new(),
            dead: BTreeSet::new(),
            held: BTreeMap::new(),
            events_processed: 0,
            logs: BTreeMap::new(),
            partitions: Vec::new(),
            link_faults: LinkFaults::none(),
            fault_rng: StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
            faults_dropped: 0,
            faults_duplicated: 0,
        }
    }

    /// Attaches an in-memory durability log to every broker (the sim's
    /// stand-in for [`crate::WalDurability`]): every external input is
    /// logged before it is applied, and periodic checkpoints truncate
    /// the tail. Required before any [`CrashKind::StateLoss`] crash.
    pub fn enable_durability(&mut self) {
        for (id, broker) in self.brokers.iter_mut() {
            let log = MemoryLog::shared();
            let dyn_log: Arc<Mutex<dyn DurabilityLog>> = log.clone();
            broker
                .attach_durability(dyn_log)
                .expect("in-memory durability cannot fail");
            self.logs.insert(*id, log);
        }
    }

    /// Whether [`Sim::enable_durability`] has run.
    pub fn durability_enabled(&self) -> bool {
        !self.logs.is_empty()
    }

    /// Schedules every fault in `plan`: crashes become events, link
    /// outage windows and drop/duplication probabilities take effect
    /// immediately. The drop/dup decisions draw from a dedicated RNG
    /// reseeded from `plan.seed`, so the simulation's own randomness is
    /// untouched and runs are reproducible per (sim seed, plan).
    ///
    /// # Panics
    ///
    /// Panics if the plan contains a state-loss crash and durability is
    /// not enabled.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        assert!(
            !plan.needs_durability() || self.durability_enabled(),
            "state-loss crashes require Sim::enable_durability()"
        );
        self.fault_rng = StdRng::seed_from_u64(plan.seed ^ 0x9e37_79b9_7f4a_7c15);
        self.partitions.extend_from_slice(&plan.partitions);
        self.link_faults = plan.link;
        for c in &plan.crashes {
            self.push(
                c.at,
                EventKind::Crash {
                    broker: c.broker,
                    restart_at: c.restart_at,
                    kind: c.kind,
                },
            );
        }
        for d in &plan.deaths {
            self.push(d.at, EventKind::Die { broker: d.broker });
        }
    }

    /// Messages dropped by [`LinkFaults::drop_prob`] so far.
    pub fn faults_dropped(&self) -> u64 {
        self.faults_dropped
    }

    /// Messages duplicated by [`LinkFaults::dup_prob`] so far.
    pub fn faults_duplicated(&self) -> u64 {
        self.faults_duplicated
    }

    /// Timers armed and neither fired nor cancelled yet, in key order
    /// (leak check: quiescent runs must end with none; failure
    /// injection: what [`Sim::fire_timer`] can fire). A crashed
    /// broker's stay listed: they wait for its restart.
    pub fn armed_timers(&self) -> Vec<(BrokerId, TimerToken)> {
        self.armed.keys().collect()
    }

    /// Enables the full delivery log (property-checking runs).
    pub fn enable_delivery_log(&mut self) {
        self.metrics = Metrics::new(true);
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// The overlay topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Immutable access to a broker.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub fn broker(&self, id: BrokerId) -> &MobileBroker {
        &self.brokers[&id]
    }

    /// Mutable access to a broker (test set-up, e.g.
    /// `set_accept_moves`).
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub fn broker_mut(&mut self, id: BrokerId) -> &mut MobileBroker {
        self.brokers.get_mut(&id).expect("unknown broker")
    }

    /// The broker a client currently calls home (its command target).
    pub fn home_of(&self, client: ClientId) -> Option<BrokerId> {
        self.home.get(&client).copied()
    }

    /// Total protocol/routing anomalies across brokers (healthy runs:
    /// zero).
    pub fn total_anomalies(&self) -> u64 {
        self.brokers
            .values()
            .map(|b| b.anomalies() + b.core().stats().anomalies)
            .sum()
    }

    /// Events processed so far (progress/debug metric).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    fn push(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.next_seq();
        self.heap.push(Event { time, seq, kind });
    }

    /// Pushes an event that *continues* an earlier one (an `Exec` for
    /// its `Arrive`, a `CmdExec` for its `Cmd`), reusing the original
    /// sequence number. The seq is the arrival-order witness: if the
    /// broker crashes mid-processing, the re-held event must sort back
    /// into the persisted input queue at its original arrival position,
    /// or replay could reorder a link's FIFO (e.g. an abort overtaking
    /// the ack it chased).
    fn push_continuation(&mut self, time: SimTime, seq: u64, kind: EventKind) {
        self.heap.push(Event { time, seq, kind });
    }

    /// Creates (attaches and starts) a client at `broker`, effective
    /// immediately.
    pub fn create_client(&mut self, broker: BrokerId, client: ClientId) {
        self.broker_mut(broker).create_client(client);
        self.home.insert(client, broker);
    }

    /// Schedules a client command at virtual time `at`. The command is
    /// routed to whatever broker hosts the client *at that time*.
    pub fn schedule_cmd(&mut self, at: SimTime, client: ClientId, op: ClientOp) {
        self.push(at, EventKind::Cmd { client, op });
    }

    /// Installs a repeating movement plan; the first movement fires at
    /// `first_at`.
    pub fn install_plan(&mut self, client: ClientId, plan: MovementPlan, first_at: SimTime) {
        assert!(
            !plan.destinations.is_empty(),
            "movement plan needs at least one destination"
        );
        let dest = plan.destinations[0];
        let protocol = plan.protocol;
        self.plans.insert(client, (plan, 1));
        self.schedule_cmd(first_at, client, ClientOp::MoveTo(dest, protocol));
    }

    /// Stops scheduling plan movements after `t` (already-scheduled
    /// ones still run).
    pub fn set_plan_deadline(&mut self, t: SimTime) {
        self.plan_deadline = Some(t);
    }

    /// Crashes a broker warm until `restart_at`: messages addressed to
    /// it are delayed (queue state persists, per the paper's fault
    /// model), its timers wait (one that comes due meanwhile fires at
    /// the restart), and its algorithmic state survives untouched.
    pub fn crash_broker(&mut self, broker: BrokerId, restart_at: SimTime) {
        self.crash(broker, restart_at, CrashKind::Warm);
    }

    /// Crashes a broker *with state loss* until `restart_at`: the
    /// in-memory broker and all of its timers are destroyed, and the
    /// restart rebuilds it from its durability log (checkpoint + WAL
    /// replay) via `MobileBroker::recover`, re-arming the timers of
    /// in-flight movements. Queued messages still wait out the outage
    /// (persistent queues).
    ///
    /// # Panics
    ///
    /// Panics unless [`Sim::enable_durability`] has run.
    pub fn crash_broker_lossy(&mut self, broker: BrokerId, restart_at: SimTime) {
        assert!(
            self.logs.contains_key(&broker),
            "state-loss crash requires Sim::enable_durability()"
        );
        self.crash(broker, restart_at, CrashKind::StateLoss);
    }

    /// Takes `broker` down now and schedules its restart. A broker
    /// that is already down or dead stays as it is: the first crash
    /// wins, so one outage never gets a second restart.
    fn crash(&mut self, broker: BrokerId, restart_at: SimTime, kind: CrashKind) {
        if self.crashed.contains(&broker) || self.dead.contains(&broker) {
            return;
        }
        self.crashed.insert(broker);
        self.push(
            restart_at.max(self.clock),
            EventKind::Restart { broker, kind },
        );
    }

    /// Schedules the permanent death of `broker` at `at` (overlay
    /// churn). The broker never restarts: messages addressed to it are
    /// dropped, its held queue and timers are discarded, and after a
    /// detection delay every survivor holding a live link to it runs
    /// the overlay self-repair
    /// ([`MobileBroker::handle_broker_death`]), whose repair flood
    /// then reaches the rest of the overlay.
    pub fn kill_broker(&mut self, at: SimTime, broker: BrokerId) {
        self.push(at, EventKind::Die { broker });
    }

    /// Brokers that have died permanently so far.
    pub fn dead_brokers(&self) -> &BTreeSet<BrokerId> {
        &self.dead
    }

    /// Runs until nothing is left to run or the clock passes `until`
    /// (events and timers after `until` remain).
    pub fn run_until(&mut self, until: SimTime) {
        while self.advance(until, true).is_some() {}
        self.clock = self.clock.max(until);
    }

    /// Runs until no event remains and no timer can come due.
    pub fn run_to_quiescence(&mut self) {
        while self.advance(FOREVER, true).is_some() {}
    }

    /// Runs everything that needs no timer to fire: stops when a timer
    /// comes due before the earliest event left, or when none is left.
    /// Timers are the caller's to fire ([`Sim::fire_timer`]), and a
    /// crashed broker's cannot come due before its restart has run.
    /// Under [`NetworkModel::instant`] this drains the frame queue.
    pub fn settle(&mut self) {
        while self.advance(FOREVER, false).is_some() {}
    }

    /// Executes at most `n` frames (partial execution for mid-protocol
    /// failure injection) and returns how many it executed; it stops
    /// early where [`Sim::settle`] would. One step is one frame handled
    /// by its broker: the frame's arrival, and any other event passed
    /// on the way, runs but is not counted.
    pub fn step_n(&mut self, n: usize) -> usize {
        let mut done = 0;
        while done < n {
            match self.advance(FOREVER, false) {
                Some(frame_executed) => done += usize::from(frame_executed),
                None => break,
            }
        }
        done
    }

    /// Issues an application command at the client's current broker
    /// and [settles](Sim::settle).
    ///
    /// # Panics
    ///
    /// Panics if the client is not hosted anywhere.
    pub fn client_op(&mut self, client: ClientId, op: ClientOp) {
        self.client_op_deferred(client, op);
        self.settle();
    }

    /// Issues an application command at the client's current broker
    /// and stops there. The command executes on the spot, ahead of
    /// every frame in flight (a [scheduled](Sim::schedule_cmd) one
    /// queues behind them), and what it sends stays queued: with
    /// [`Sim::step_n`] and [`Sim::fire_timer`] this lets tests inject
    /// failures mid-protocol (e.g. fire the negotiate timeout while the
    /// negotiate message is still in flight).
    ///
    /// # Panics
    ///
    /// Panics if the client is not hosted anywhere.
    pub fn client_op_deferred(&mut self, client: ClientId, op: ClientOp) {
        let broker = self.find_client(client).expect("client not hosted");
        self.exec_cmd(broker, client, op);
    }

    /// Fires an armed timer now, whatever its deadline (failure
    /// injection), then [settles](Sim::settle). Returns `false`, and
    /// does nothing, if no such timer is armed or its broker is
    /// crashed: a broker that is down runs no handler, and the timer
    /// stays armed for after its restart, as on the timed path.
    pub fn fire_timer(&mut self, broker: BrokerId, token: TimerToken) -> bool {
        if !self.armed.is_armed((broker, token)) || self.crashed.contains(&broker) {
            return false;
        }
        self.fire(broker, token);
        self.settle();
        true
    }

    /// Loses every frame in flight, on a link or waiting for its
    /// broker (crash-style failure injection); returns how many.
    pub fn drain_queue(&mut self) -> usize {
        let before = self.heap.len();
        self.heap
            .retain(|ev| !matches!(ev.kind, EventKind::Arrive(_) | EventKind::Exec(_)));
        before - self.heap.len()
    }

    /// Runs what comes next, if that is no later than `until`: the
    /// earlier, by `(time, seq)`, of the heap's head and the first
    /// armed timer whose broker is up. The one place the heap is popped
    /// and a due timer fires. Returns whether the event was a frame its
    /// broker executed, or `None` when nothing ran: with `fire_timers`
    /// off (hand-stepping) a timer that comes next ends the run instead.
    fn advance(&mut self, until: SimTime, fire_timers: bool) -> Option<bool> {
        let head = self.heap.peek().map(|ev| (ev.time, ev.seq));
        let timer = (self.armed.by_deadline())
            .find(|(_, (broker, _))| !self.crashed.contains(broker))
            .filter(|&(at, _)| head.is_none_or(|head| at < head));
        let (time, _) = timer.map(|(at, _)| at).or(head)?;
        if time > until || (timer.is_some() && !fire_timers) {
            return None;
        }
        self.clock = self.clock.max(time);
        self.events_processed += 1;
        Some(match timer {
            Some((_, (broker, token))) => {
                self.fire(broker, token);
                false
            }
            None => {
                let ev = self.heap.pop().expect("peeked above");
                self.step(ev)
            }
        })
    }

    /// Parks an event addressed to a crashed broker in its persisted
    /// queue, under the sequence number it arrived with, for replay at
    /// restart.
    fn hold(&mut self, broker: BrokerId, seq: u64, kind: EventKind) {
        self.held.entry(broker).or_default().push(Event {
            time: self.clock,
            seq,
            kind,
        });
    }

    /// Books `broker`'s next service slot (the broker is a FIFO
    /// server) and returns when it completes.
    fn service_done(&mut self, broker: BrokerId) -> SimTime {
        let free = self.broker_free.get(&broker).copied();
        let start = free.unwrap_or(SimTime::ZERO).max(self.clock);
        let core = self.brokers[&broker].core();
        let entries = core.prt().len() + core.srt().len();
        let done = start + self.model.sample_process(broker, entries, &mut self.rng);
        self.broker_free.insert(broker, done);
        done
    }

    /// Runs one event. Returns whether it was a frame its broker
    /// executed (not one queued for service, held, or lost).
    fn step(&mut self, ev: Event) -> bool {
        let ev_seq = ev.seq;
        match ev.kind {
            EventKind::Arrive(frame) => {
                let dst = frame.dst;
                if self.dead.contains(&dst) {
                    return false; // dead broker: mail is lost, not held
                }
                if self.crashed.contains(&dst) {
                    // Persisted queue: hold in arrival order and replay
                    // at restart — per-link FIFO must survive the
                    // outage or the reconfiguration message could
                    // overtake in-flight publications, violating the
                    // ordering the paper's consistency proof relies on.
                    self.hold(dst, ev_seq, EventKind::Arrive(frame));
                    return false;
                }
                let done = self.service_done(dst);
                self.push_continuation(done, ev_seq, EventKind::Exec(frame));
            }
            EventKind::Exec(frame) => {
                if self.dead.contains(&frame.dst) {
                    return false; // died between queueing and processing
                }
                if self.crashed.contains(&frame.dst) {
                    // The broker died between queueing and processing:
                    // the batch goes back to the persisted input queue
                    // (as an Arrive, so it pays processing again after
                    // the restart).
                    self.hold(frame.dst, ev_seq, EventKind::Arrive(frame));
                    return false;
                }
                // Each cause-uniform run goes through the broker's
                // batch entry point (defined as the per-message fold).
                let Frame {
                    dst,
                    from,
                    msgs,
                    cause,
                } = frame;
                for_each_cause_run(msgs, cause, |cause, run| {
                    let outs = self.broker_mut(dst).handle_batch(from, run);
                    self.dispatch(dst, cause, outs);
                });
                return true;
            }
            EventKind::Cmd { client, op } => {
                let Some(mut broker) = self.home.get(&client).copied() else {
                    return false; // client gone (never created or destroyed)
                };
                if self.dead.contains(&broker) {
                    // The client's home died. If a stub survives
                    // elsewhere (the movement machinery resurrected or
                    // committed it), re-home the client there;
                    // otherwise the client perished with its broker.
                    match self.find_client(client) {
                        Some(b) => {
                            self.home.insert(client, b);
                            broker = b;
                        }
                        None => {
                            self.home.remove(&client);
                            self.plans.remove(&client);
                            return false;
                        }
                    }
                }
                if self.crashed.contains(&broker) {
                    self.hold(broker, ev_seq, EventKind::Cmd { client, op });
                    return false;
                }
                let done = self.service_done(broker);
                self.push_continuation(done, ev_seq, EventKind::CmdExec { broker, client, op });
            }
            EventKind::CmdExec { broker, client, op } => {
                if self.dead.contains(&broker) {
                    // Died between command arrival and execution:
                    // retry as a Cmd, which re-resolves the client's
                    // home (or declares the client gone).
                    self.push(self.clock, EventKind::Cmd { client, op });
                } else if self.crashed.contains(&broker) {
                    // Crashed mid-processing: back to the persisted
                    // queue (as a Cmd, which also re-resolves the
                    // client's home after recovery).
                    self.hold(broker, ev_seq, EventKind::Cmd { client, op });
                } else if self.brokers[&broker].client(client).is_none() {
                    // The client moved away between command arrival and
                    // execution (its stub was cleaned up when the
                    // transaction acked). Re-resolve its home and
                    // retry; the home map was updated in the same step
                    // as the cleanup, so the retry lands correctly.
                    self.push(self.clock, EventKind::Cmd { client, op });
                } else {
                    self.exec_cmd(broker, client, op);
                }
            }
            EventKind::Crash {
                broker,
                restart_at,
                kind,
            } => self.crash(broker, restart_at, kind),
            EventKind::Restart { broker, kind } => {
                if self.dead.contains(&broker) {
                    return false; // death trumps a pending restart
                }
                self.crashed.remove(&broker);
                match kind {
                    CrashKind::StateLoss => self.recover_from_log(broker),
                    // A timer that came due during the outage fires
                    // now, in arming order among the inputs replayed
                    // below: it keeps its sequence number, as they do.
                    CrashKind::Warm => {
                        let overdue: Vec<_> = (self.armed.by_deadline())
                            .take_while(|&((at, _), _)| at < self.clock)
                            .filter(|(_, (b, _))| *b == broker)
                            .collect();
                        for ((_, seq), key) in overdue {
                            self.armed.arm(key, (self.clock, seq));
                        }
                    }
                }
                // Replay the persisted queue in original order; the
                // original sequence numbers keep held events ahead of
                // anything that arrives after the restart instant.
                for mut held in self.held.remove(&broker).unwrap_or_default() {
                    held.time = self.clock;
                    self.heap.push(held);
                }
            }
            EventKind::Die { broker } => {
                if self.dead.contains(&broker) {
                    return false;
                }
                self.dead.insert(broker);
                self.crashed.remove(&broker);
                self.held.remove(&broker);
                self.disarm(broker); // timers die with the broker
                self.logs.remove(&broker);
                self.brokers.remove(&broker);
                // Keep the sim's gods-eye overlay in sync so the
                // property checkers (NetworkView) see the post-churn
                // topology the survivors converge to.
                let _ = Arc::make_mut(&mut self.topology).repair(broker);
                // Clients whose only stub lived here are gone; their
                // queued commands drop at the Cmd re-resolution.
                // Per-link failure detectors: every survivor that still
                // carries a live link to the victim (per its *own*,
                // possibly already-repaired overlay copy) notices
                // independently after the detection delay; the repair
                // flood spreads the declaration from there.
                let observers: Vec<BrokerId> = self
                    .brokers
                    .iter()
                    .filter(|(id, b)| {
                        let topo = b.topology();
                        topo.contains(broker) && topo.neighbors(broker).contains(id)
                    })
                    .map(|(id, _)| *id)
                    .collect();
                for obs in observers {
                    // Jitter the per-link detection so repairs do not
                    // start in lockstep (they race in the TCP runtime).
                    let jitter = SimDuration::from_nanos(self.rng.gen_range(0..1_000_000));
                    self.push(
                        self.clock + DETECTION_DELAY + jitter,
                        EventKind::Detect {
                            observer: obs,
                            dead: broker,
                        },
                    );
                }
            }
            EventKind::Detect { observer, dead } => {
                if self.dead.contains(&observer) {
                    return false;
                }
                if self.crashed.contains(&observer) {
                    // The observer is down (but not dead): it detects
                    // after it comes back.
                    self.hold(observer, ev_seq, EventKind::Detect { observer, dead });
                    return false;
                }
                let outs = self.broker_mut(observer).handle_broker_death(dead);
                self.dispatch(observer, None, outs);
            }
        }
        false
    }

    /// Executes a client command at `broker`, which hosts the client,
    /// and ships what it produces. A `MOVE` registers the movement's
    /// start under the id found in the outputs: the negotiate/request
    /// send, or an immediate `MoveFinished` for a degenerate move.
    fn exec_cmd(&mut self, broker: BrokerId, client: ClientId, op: ClientOp) {
        let target = match op {
            ClientOp::MoveTo(target, _) => Some(target),
            _ => None,
        };
        let outs = self.broker_mut(broker).client_op(client, op);
        if let Some(target) = target {
            let started = outs.iter().find_map(|o| match o {
                Output::Send {
                    msg: Message::Move(mv),
                    ..
                } => Some(mv.move_id()),
                Output::MoveFinished { m, .. } => Some(*m),
                _ => None,
            });
            if let Some(m) = started {
                self.metrics
                    .move_started(m, client, broker, target, self.clock);
            }
        }
        self.dispatch(broker, None, outs);
    }

    /// Fires `broker`'s armed timer `token`: disarms it and ships what
    /// the handler produces, attributed to the timer's movement.
    fn fire(&mut self, broker: BrokerId, token: TimerToken) {
        self.armed.cancel((broker, token));
        let outs = self.broker_mut(broker).handle_timer(token);
        self.dispatch(broker, Some(token.m), outs);
    }

    /// Cancels every timer of `broker`.
    fn disarm(&mut self, broker: BrokerId) {
        let gone: Vec<_> = self.armed.keys().filter(|(b, _)| *b == broker).collect();
        for key in gone {
            self.armed.cancel(key);
        }
    }

    /// Rebuilds a broker after a state-loss crash: restore the last
    /// checkpoint, replay the WAL tail, re-arm in-flight movement
    /// timers, and re-attach the (now freshly checkpointed) log.
    fn recover_from_log(&mut self, broker: BrokerId) {
        self.disarm(broker); // every pre-crash timer died with the process
        let log = Arc::clone(self.logs.get(&broker).expect("durability enabled"));
        let (snapshot, records) = log.lock().expect("durability log poisoned").contents();
        let snapshot = snapshot.expect("attach_durability wrote the base checkpoint");
        let (mut rebuilt, timer_outs) = MobileBroker::recover(
            Arc::clone(&self.topology),
            self.config.clone(),
            snapshot,
            &records,
        );
        let dyn_log: Arc<Mutex<dyn DurabilityLog>> = log;
        rebuilt
            .attach_durability(dyn_log)
            .expect("in-memory durability cannot fail");
        self.brokers.insert(broker, rebuilt);
        // Re-arm timers for movements that were in flight at the crash.
        self.dispatch(broker, None, timer_outs);
    }

    fn dispatch(&mut self, src: BrokerId, cause: Option<MoveId>, outs: Vec<Output>) {
        let mut flush = SimFlush {
            sim: self,
            src,
            cause,
        };
        flush_outputs(&mut flush, outs);
    }

    /// Ships one coalesced frame over the (src → to) link: per-message
    /// metrics and drop/duplication draws (a duplicate rides the same
    /// frame right after its original; an all-dropped frame never
    /// departs), then one serialization slot, one latency sample and
    /// one FIFO clamp for the whole frame — the wire-level amortization
    /// batching buys.
    fn ship_batch(
        &mut self,
        src: BrokerId,
        cause: Option<MoveId>,
        to: BrokerId,
        msgs: Vec<Message>,
    ) {
        if self.dead.contains(&to) {
            return; // link to a dead broker: frames vanish
        }
        let mut wire: Vec<Message> = Vec::with_capacity(msgs.len());
        for msg in msgs {
            self.metrics
                .count_message(msg.kind(), msg.effective_cause(cause));
            if self.link_faults.drop_prob > 0.0
                && self.fault_rng.gen::<f64>() < self.link_faults.drop_prob
            {
                self.faults_dropped += 1;
                continue;
            }
            let duplicate = self.link_faults.dup_prob > 0.0
                && self.fault_rng.gen::<f64>() < self.link_faults.dup_prob;
            let echo = duplicate.then(|| msg.clone());
            wire.push(msg);
            if let Some(echo) = echo {
                self.faults_duplicated += 1;
                wire.push(echo);
            }
        }
        if wire.is_empty() {
            return;
        }
        // A partitioned link buffers: the frame cannot start
        // serializing before the heal (chained windows compound).
        let mut base = self.clock;
        loop {
            let healed = base;
            for p in &self.partitions {
                if p.covers(src, to, base) {
                    base = base.max(p.until);
                }
            }
            if base == healed {
                break;
            }
        }
        // Link: FIFO serialization server + latency, paid once per
        // frame.
        let key = (src, to);
        let link = self.model.link(src, to);
        let depart = self
            .link_free
            .get(&key)
            .copied()
            .unwrap_or(SimTime::ZERO)
            .max(base)
            + link.serialize;
        self.link_free.insert(key, depart);
        let mut arrive = depart + self.model.sample_latency(src, to, &mut self.rng);
        // Clamp to preserve per-link FIFO despite jitter. A link
        // without jitter needs none: departures never decrease, the
        // latency is constant, and frames arriving at one instant run
        // in send order (the sequence number breaks the tie). Clamping
        // there would push the second of two same-instant frames behind
        // traffic sent later on other links.
        if link.jitter > 0.0 {
            if let Some(last) = self.link_last_arrival.get(&key) {
                if arrive <= *last {
                    arrive = *last + SimDuration::from_nanos(1);
                }
            }
            self.link_last_arrival.insert(key, arrive);
        }
        let frame = Frame {
            dst: to,
            from: Hop::Broker(src),
            msgs: wire,
            cause,
        };
        self.push(arrive, EventKind::Arrive(frame));
    }

    /// The broker currently holding any stub for `client` (any state).
    pub fn find_client(&self, client: ClientId) -> Option<BrokerId> {
        self.brokers
            .iter()
            .find(|(_, b)| b.client(client).is_some())
            .map(|(id, _)| *id)
    }

    fn schedule_next_plan_move(&mut self, client: ClientId) {
        let Some((plan, idx)) = self.plans.get_mut(&client) else {
            return;
        };
        let dest = plan.destinations[*idx % plan.destinations.len()];
        *idx += 1;
        let protocol = plan.protocol;
        // Jitter the pause ±5% so the fleet does not move in lockstep.
        let jitter = 0.95 + 0.1 * self.rng.gen::<f64>();
        let at = self.clock + plan.pause.mul_f64(jitter);
        if let Some(deadline) = self.plan_deadline {
            if at > deadline {
                return;
            }
        }
        self.schedule_cmd(at, client, ClientOp::MoveTo(dest, protocol));
    }
}

/// [`Transport`] adapter for one broker step in the simulator: sends
/// become timed wire frames (with fault draws), deliveries become
/// metrics, control effects drive the timer and movement bookkeeping.
struct SimFlush<'a> {
    sim: &'a mut Sim,
    src: BrokerId,
    cause: Option<MoveId>,
}

impl Transport for SimFlush<'_> {
    fn send_batch(&mut self, to: BrokerId, msgs: Vec<Message>) {
        self.sim.ship_batch(self.src, self.cause, to, msgs);
    }

    fn deliver_batch(&mut self, client: ClientId, publications: Vec<PublicationMsg>) {
        for publication in publications {
            self.sim
                .metrics
                .count_delivery(self.sim.clock, client, publication.id);
        }
    }

    fn control(&mut self, output: Output) {
        let src = self.src;
        match output {
            Output::SetTimer { token, delay_ns } => {
                let at = self.sim.clock + SimDuration::from_nanos(delay_ns);
                let seq = self.sim.next_seq();
                self.sim.armed.arm((src, token), (at, seq));
            }
            Output::CancelTimer { token } => self.sim.armed.cancel((src, token)),
            Output::MoveFinished {
                m,
                client,
                committed,
            } => {
                self.sim.metrics.move_finished(m, committed, self.sim.clock);
                if committed {
                    if let Some(rec) = self.sim.metrics.moves.get(&m) {
                        let target = rec.target;
                        self.sim.home.insert(client, target);
                    }
                }
                self.sim.schedule_next_plan_move(client);
            }
            Output::ClientArrived { .. } => {}
            Output::Send { .. } | Output::DeliverToApp { .. } => {
                unreachable!("flush_outputs routes batchable effects to the batch verbs")
            }
        }
    }
}

impl transmob_core::properties::NetworkView for Sim {
    fn view_topology(&self) -> &Topology {
        &self.topology
    }

    fn view_broker_ids(&self) -> Vec<BrokerId> {
        self.brokers.keys().copied().collect()
    }

    fn view_broker(&self, id: BrokerId) -> &MobileBroker {
        &self.brokers[&id]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transmob_pubsub::{Filter, Publication};

    fn b(i: u32) -> BrokerId {
        BrokerId(i)
    }
    fn c(i: u64) -> ClientId {
        ClientId(i)
    }
    fn range(lo: i64, hi: i64) -> Filter {
        Filter::builder().ge("x", lo).le("x", hi).build()
    }

    fn base_sim() -> Sim {
        let mut sim = Sim::builder()
            .overlay(Topology::chain(5))
            .options(MobileBrokerConfig::reconfig())
            .network(NetworkModel::cluster())
            .seed(7)
            .start();
        sim.create_client(b(1), c(1));
        sim.create_client(b(5), c(2));
        sim.schedule_cmd(SimTime(0), c(1), ClientOp::Advertise(range(0, 100)));
        sim.schedule_cmd(SimTime(1_000_000), c(2), ClientOp::Subscribe(range(0, 100)));
        sim
    }

    #[test]
    fn options_accept_a_routing_config_or_a_full_one() {
        let start = |sim: SimBuilder| sim.overlay(Topology::chain(2)).start();
        let bare = start(Sim::builder().options(transmob_broker::BrokerConfig::covering()));
        let full = start(Sim::builder().options(MobileBrokerConfig::covering()));
        let routing = |sim: &Sim| sim.broker(b(1)).core().config();
        assert_eq!(routing(&bare), transmob_broker::BrokerConfig::covering());
        assert_eq!(routing(&bare), routing(&full));
    }

    #[test]
    fn publication_delivery_takes_network_time() {
        let mut sim = base_sim();
        sim.schedule_cmd(
            SimTime(10_000_000),
            c(1),
            ClientOp::Publish(Publication::new().with("x", 5)),
        );
        sim.run_to_quiescence();
        assert_eq!(sim.metrics.delivery_count, 1);
        // 4 links × (latency ≈ 200µs + processing ≈ 300µs) ⇒ ≈ 2ms+.
        assert!(sim.now() > SimTime(11_000_000));
    }

    #[test]
    fn movement_latency_is_measured() {
        let mut sim = base_sim();
        sim.schedule_cmd(
            SimTime(20_000_000),
            c(2),
            ClientOp::MoveTo(b(2), ProtocolKind::Reconfig),
        );
        sim.run_to_quiescence();
        let recs: Vec<_> = sim.metrics.finished_moves().collect();
        assert_eq!(recs.len(), 1);
        let rec = recs[0].1;
        assert_eq!(rec.committed, Some(true));
        let lat = rec.latency().unwrap();
        // 4 round trips over 4 hops at ~0.5ms/hop ⇒ a few ms.
        assert!(
            lat > SimDuration::from_millis(2) && lat < SimDuration::from_millis(60),
            "implausible latency {lat}"
        );
        assert!(rec.messages >= 12); // 4 protocol legs x 3 hops (B5->B2)
        assert_eq!(sim.home_of(c(2)), Some(b(2)));
        assert_eq!(sim.total_anomalies(), 0);
    }

    #[test]
    fn movement_plan_ping_pongs() {
        let mut sim = base_sim();
        sim.run_to_quiescence(); // finish setup
        sim.install_plan(
            c(2),
            MovementPlan {
                destinations: vec![b(1), b(5)],
                pause: SimDuration::from_millis(100),
                protocol: ProtocolKind::Reconfig,
            },
            sim.now() + SimDuration::from_millis(1),
        );
        let deadline = sim.now() + SimDuration::from_secs(1);
        sim.set_plan_deadline(deadline);
        sim.run_to_quiescence();
        let committed = sim
            .metrics
            .finished_moves()
            .filter(|(_, r)| r.committed == Some(true))
            .count();
        // ~1s / (100ms pause + ~few ms move) ⇒ ≈ 8-10 movements.
        assert!(committed >= 5, "only {committed} movements completed");
        assert_eq!(sim.total_anomalies(), 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut sim = Sim::builder()
                .overlay(Topology::chain(5))
                .options(MobileBrokerConfig::reconfig())
                .network(NetworkModel::cluster())
                .seed(seed)
                .start();
            sim.create_client(b(1), c(1));
            sim.create_client(b(5), c(2));
            sim.schedule_cmd(SimTime(0), c(1), ClientOp::Advertise(range(0, 100)));
            sim.schedule_cmd(SimTime(0), c(2), ClientOp::Subscribe(range(0, 100)));
            sim.schedule_cmd(
                SimTime(5_000_000),
                c(2),
                ClientOp::MoveTo(b(3), ProtocolKind::Reconfig),
            );
            sim.run_to_quiescence();
            (
                sim.now(),
                sim.metrics.total_traffic(),
                sim.metrics.mean_latency_ms().to_bits(),
            )
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11).0, run(12).0);
    }

    #[test]
    fn crash_delays_but_does_not_lose_messages() {
        let mut sim = base_sim();
        sim.run_to_quiescence();
        // Crash a mid-path broker, publish through it, then restart.
        let t0 = sim.now();
        sim.crash_broker(b(3), t0 + SimDuration::from_secs(2));
        // The first crash wins: a second call on a broker that is
        // already down must not schedule an earlier restart.
        sim.crash_broker(b(3), t0 + SimDuration::from_secs(1));
        sim.schedule_cmd(
            t0 + SimDuration::from_millis(1),
            c(1),
            ClientOp::Publish(Publication::new().with("x", 9)),
        );
        sim.run_until(t0 + SimDuration::from_millis(1500));
        assert_eq!(sim.metrics.delivery_count, 0, "B3 came back a second early");
        sim.run_to_quiescence();
        assert_eq!(sim.metrics.delivery_count, 1, "publication lost in crash");
        // Delivery had to wait out the crash.
        assert!(sim.now() >= t0 + SimDuration::from_secs(2));
    }

    #[test]
    fn run_until_stops_the_clock() {
        let mut sim = base_sim();
        sim.schedule_cmd(
            SimTime(5_000_000_000),
            c(1),
            ClientOp::Publish(Publication::new().with("x", 5)),
        );
        sim.run_until(SimTime(1_000_000_000));
        assert_eq!(sim.metrics.delivery_count, 0);
        assert_eq!(sim.now(), SimTime(1_000_000_000));
        sim.run_to_quiescence();
        assert_eq!(sim.metrics.delivery_count, 1);
    }
}

#[cfg(test)]
mod fifo_tests {
    use super::*;
    use transmob_pubsub::{Filter, Publication};

    /// Per-link FIFO must survive latency jitter: a rapid sequence of
    /// publications over a jittery wide-area link is delivered in
    /// publication order.
    #[test]
    fn per_link_fifo_survives_jitter() {
        let topology = Topology::chain(3);
        let model = NetworkModel::planetlab(&topology.edges(), 5);
        let mut sim = Sim::builder()
            .overlay(topology)
            .options(MobileBrokerConfig::reconfig())
            .network(model)
            .seed(5)
            .start();
        sim.enable_delivery_log();
        sim.create_client(BrokerId(1), ClientId(1));
        sim.create_client(BrokerId(3), ClientId(2));
        sim.schedule_cmd(
            SimTime(0),
            ClientId(1),
            ClientOp::Advertise(Filter::builder().ge("x", 0).build()),
        );
        sim.schedule_cmd(
            SimTime(0),
            ClientId(2),
            ClientOp::Subscribe(Filter::builder().ge("x", 0).build()),
        );
        sim.run_to_quiescence();
        let t0 = sim.now();
        // 100 publications 50µs apart — far below the ±35% jitter on a
        // ~100ms link, so naive jitter would reorder massively.
        for k in 0..100u64 {
            sim.schedule_cmd(
                t0 + SimDuration::from_micros(50 * k),
                ClientId(1),
                ClientOp::Publish(Publication::new().with("x", k as i64)),
            );
        }
        sim.run_to_quiescence();
        let seqs: Vec<u64> = (sim.metrics.deliveries_to(ClientId(2)).iter())
            .map(|p| p.0 & 0xffff_ffff)
            .collect();
        assert_eq!(seqs.len(), 100, "publications lost");
        assert!(
            seqs.windows(2).all(|w| w[0] < w[1]),
            "per-link FIFO violated: {seqs:?}"
        );
    }

    fn band(lo: i64, hi: i64) -> Filter {
        Filter::builder().ge("x", lo).le("x", hi).build()
    }

    /// B1–B2–B3–B4 under `model`: a publisher at B2 (client 2), a
    /// subscriber to 0..=9 at B1 (client 1) and one to 10..=19 at B4
    /// (client 4).
    fn two_sided(model: NetworkModel) -> Sim {
        let mut sim = Sim::builder()
            .overlay(Topology::chain(4))
            .options(MobileBrokerConfig::reconfig())
            .network(model)
            .start();
        sim.enable_delivery_log();
        for i in [1, 2, 4] {
            sim.create_client(BrokerId(i), ClientId(i.into()));
        }
        sim.client_op(ClientId(2), ClientOp::Advertise(band(0, 19)));
        sim.client_op(ClientId(1), ClientOp::Subscribe(band(0, 9)));
        sim.client_op(ClientId(4), ClientOp::Subscribe(band(10, 19)));
        sim
    }

    fn publish(sim: &mut Sim, x: i64) {
        let op = ClientOp::Publish(Publication::new().with("x", x));
        sim.client_op_deferred(ClientId(2), op);
    }

    /// Under the instant model the event order is send order, across
    /// links: frames A1, B1, A2 leave B2 at one instant on links
    /// B2→B3, B2→B1, B2→B3 and are executed in that order, ahead of
    /// the frames they cause. A FIFO clamp on the jitter-free link
    /// would stamp A2 a nanosecond late and run A1's forward at B4
    /// before it.
    #[test]
    fn instant_frames_run_in_send_order_across_links() {
        let mut sim = two_sided(NetworkModel::instant());
        publish(&mut sim, 10); // A1
        publish(&mut sim, 5); // B1
        publish(&mut sim, 11); // A2
        assert_eq!(sim.step_n(3), 3);
        let received = |sim: &Sim, i| sim.metrics.deliveries_to(ClientId(i)).len();
        assert_eq!(received(&sim, 1), 1, "B1 not executed");
        assert_eq!(received(&sim, 4), 0, "A1's forward ran before A2");
        assert_eq!(sim.step_n(9), 2, "A1 and A2 each cross B3→B4");
        assert_eq!(received(&sim, 4), 2);
        assert_eq!(sim.now(), SimTime::ZERO, "nothing takes time");
    }

    /// Without jitter a link needs no clamp to stay FIFO: departures
    /// are spaced by the serialization time and the latency is
    /// constant.
    #[test]
    fn jitter_free_link_is_fifo_without_a_clamp() {
        let mut lan = crate::network::LinkModel::lan();
        lan.jitter = 0.0;
        let mut sim = two_sided(NetworkModel::uniform(lan, NetworkModel::cluster().node));
        for k in 0..50 {
            publish(&mut sim, 10 + k % 10);
        }
        sim.settle();
        assert!(sim.link_last_arrival.is_empty(), "the clamp was consulted");
        let seqs: Vec<u64> = (sim.metrics.deliveries_to(ClientId(4)).iter())
            .map(|p| p.0 & 0xffff_ffff)
            .collect();
        assert_eq!(seqs.len(), 50, "publications lost");
        assert!(
            seqs.windows(2).all(|w| w[0] < w[1]),
            "per-link FIFO violated: {seqs:?}"
        );
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::fault::{CrashKind, FaultPlan, LinkFaults, Partition, ScheduledCrash};
    use transmob_pubsub::{Filter, Publication};

    fn b(i: u32) -> BrokerId {
        BrokerId(i)
    }
    fn c(i: u64) -> ClientId {
        ClientId(i)
    }
    fn range(lo: i64, hi: i64) -> Filter {
        Filter::builder().ge("x", lo).le("x", hi).build()
    }

    fn durable_sim(n: u32, seed: u64) -> Sim {
        let mut sim = Sim::builder()
            .overlay(Topology::chain(n))
            .options(MobileBrokerConfig::reconfig())
            .network(NetworkModel::cluster())
            .seed(seed)
            .start();
        sim.enable_durability();
        sim.create_client(b(1), c(1));
        sim.create_client(b(n), c(2));
        sim.schedule_cmd(SimTime(0), c(1), ClientOp::Advertise(range(0, 100)));
        sim.schedule_cmd(SimTime(0), c(2), ClientOp::Subscribe(range(0, 100)));
        sim.run_to_quiescence();
        sim
    }

    /// The acceptance scenario: the target broker dies with full state
    /// loss mid-movement, is rebuilt from checkpoint + WAL, and the
    /// movement still completes cleanly.
    #[test]
    fn state_loss_crash_mid_move_recovers_and_commits() {
        let mut sim = durable_sim(5, 9);
        let t0 = sim.now();
        sim.schedule_cmd(
            t0 + SimDuration::from_millis(1),
            c(2),
            ClientOp::MoveTo(b(2), ProtocolKind::Reconfig),
        );
        // ~3 ms in, the negotiate has reached (or is reaching) the
        // target: kill it with state loss.
        sim.run_until(t0 + SimDuration::from_millis(3));
        sim.crash_broker_lossy(b(2), sim.now() + SimDuration::from_millis(100));
        sim.run_to_quiescence();
        let outcomes: Vec<Option<bool>> = sim
            .metrics
            .finished_moves()
            .map(|(_, r)| r.committed)
            .collect();
        assert_eq!(outcomes, vec![Some(true)], "movement did not commit");
        assert_eq!(sim.home_of(c(2)), Some(b(2)));
        assert_eq!(sim.total_anomalies(), 0);
        // The recovered broker routes: a publication arrives once.
        sim.schedule_cmd(
            sim.now() + SimDuration::from_millis(1),
            c(1),
            ClientOp::Publish(Publication::new().with("x", 5)),
        );
        sim.run_to_quiescence();
        assert_eq!(sim.metrics.delivery_count, 1);
    }

    /// Source-side variant: the broker hosting the moving client dies
    /// with state loss; its client (and the in-flight move state) come
    /// back from the log.
    #[test]
    fn state_loss_crash_of_source_mid_move_recovers() {
        let mut sim = durable_sim(5, 21);
        let t0 = sim.now();
        sim.schedule_cmd(
            t0 + SimDuration::from_millis(1),
            c(2),
            ClientOp::MoveTo(b(2), ProtocolKind::Reconfig),
        );
        sim.run_until(t0 + SimDuration::from_millis(2));
        sim.crash_broker_lossy(b(5), sim.now() + SimDuration::from_millis(100));
        sim.run_to_quiescence();
        // Whatever the interleaving chose (commit or timeout-abort),
        // the client lives at exactly one broker and routing is sane.
        let homes: Vec<BrokerId> = sim
            .topology()
            .brokers()
            .filter(|id| {
                sim.broker(*id)
                    .client(c(2))
                    .is_some_and(|cl| cl.state() == transmob_core::ClientState::Started)
            })
            .collect();
        assert_eq!(
            homes.len(),
            1,
            "client must be Started at exactly one broker"
        );
        assert_eq!(sim.total_anomalies(), 0);
        sim.schedule_cmd(
            sim.now() + SimDuration::from_millis(1),
            c(1),
            ClientOp::Publish(Publication::new().with("x", 7)),
        );
        sim.run_to_quiescence();
        assert_eq!(
            sim.metrics.delivery_count, 1,
            "publication lost after recovery"
        );
    }

    /// A committed movement cancels its 30 s timers within
    /// milliseconds, and a cancelled timer is nothing: not armed, not
    /// an event, not somewhere for the clock to go. A state-loss crash
    /// in between must neither fire nor re-arm one.
    #[test]
    fn cancelled_timers_leave_nothing_behind_across_a_lossy_restart() {
        let mut sim = durable_sim(4, 13);
        let t0 = sim.now();
        sim.schedule_cmd(
            t0 + SimDuration::from_millis(1),
            c(2),
            ClientOp::MoveTo(b(2), ProtocolKind::Reconfig),
        );
        sim.run_to_quiescence();
        assert_eq!(sim.home_of(c(2)), Some(b(2)), "the movement committed");
        assert_eq!(
            sim.armed_timers(),
            [],
            "a committed move left a timer armed"
        );
        assert!(
            sim.now() < t0 + SimDuration::from_secs(1),
            "the clock ran on to a cancelled deadline: {}",
            sim.now()
        );
        let events = sim.events_processed();
        let restart_at = sim.now() + SimDuration::from_millis(50);
        sim.crash_broker_lossy(b(2), restart_at);
        // Across the restart and both cancelled 30 s deadlines.
        sim.run_until(t0 + SimDuration::from_secs(31));
        assert_eq!(
            sim.events_processed(),
            events + 1,
            "only the restart was left to run"
        );
        sim.run_to_quiescence();
        assert_eq!(sim.armed_timers(), []);
        assert_eq!(sim.total_anomalies(), 0);
    }

    /// The blocking variant arms no timer but still emits every
    /// `CancelTimer`: a cancel of a never-armed token must store
    /// nothing, however many movements run.
    #[test]
    fn blocking_run_stores_nothing_for_its_cancels() {
        let mut sim = Sim::builder()
            .overlay(Topology::chain(4))
            .options(MobileBrokerConfig::reconfig().blocking())
            .network(NetworkModel::cluster())
            .seed(5)
            .start();
        sim.create_client(b(1), c(1));
        for round in 0..6 {
            let at = sim.now() + SimDuration::from_millis(100 * (round + 1));
            let dest = if round % 2 == 0 { b(4) } else { b(1) };
            sim.schedule_cmd(at, c(1), ClientOp::MoveTo(dest, ProtocolKind::Reconfig));
        }
        sim.run_to_quiescence();
        assert_eq!(sim.find_client(c(1)), Some(b(1)));
        assert_eq!(sim.armed_timers(), []);
        assert_eq!(sim.total_anomalies(), 0);
    }

    /// `SetTimer` and `CancelTimer` reach the timer table, and a
    /// re-armed timer fires once, at the new deadline: that is where
    /// the clock ends.
    #[test]
    fn rearmed_timer_fires_at_the_new_deadline_only() {
        let mut sim = Sim::builder()
            .overlay(Topology::chain(2))
            .options(MobileBrokerConfig::reconfig())
            .network(NetworkModel::cluster())
            .seed(3)
            .start();
        let token = TimerToken {
            m: MoveId(77),
            kind: transmob_core::TimerKind::Negotiate,
        };
        let arm = |sim: &mut Sim, delay_ns| {
            sim.dispatch(b(1), None, vec![Output::SetTimer { token, delay_ns }]);
        };
        arm(&mut sim, 1_000_000);
        sim.dispatch(b(1), None, vec![Output::CancelTimer { token }]);
        arm(&mut sim, 5_000_000);
        assert_eq!(sim.armed_timers(), [(b(1), token)]);
        let t0 = sim.now();
        sim.run_until(t0 + SimDuration::from_millis(2));
        assert_eq!(
            sim.armed_timers(),
            [(b(1), token)],
            "the superseded event fired the re-armed timer early"
        );
        sim.run_to_quiescence();
        assert_eq!(sim.armed_timers(), []);
        assert_eq!(sim.now(), t0 + SimDuration::from_millis(5));
    }

    /// Partitions buffer traffic until the heal — nothing is lost.
    #[test]
    fn partition_delays_but_delivers() {
        let mut sim = durable_sim(3, 4);
        let t0 = sim.now();
        let mut plan = FaultPlan::new(4);
        plan.partitions.push(Partition {
            a: b(1),
            b: b(2),
            from: t0,
            until: t0 + SimDuration::from_secs(1),
        });
        sim.apply_fault_plan(&plan);
        sim.schedule_cmd(
            t0 + SimDuration::from_millis(1),
            c(1),
            ClientOp::Publish(Publication::new().with("x", 3)),
        );
        sim.run_to_quiescence();
        assert_eq!(sim.metrics.delivery_count, 1, "partition lost a message");
        assert!(
            sim.now() >= t0 + SimDuration::from_secs(1),
            "delivery did not wait out the partition"
        );
    }

    /// Plan-scheduled warm crashes behave like `crash_broker`.
    #[test]
    fn fault_plan_schedules_warm_outages() {
        let mut sim = durable_sim(5, 6);
        let t0 = sim.now();
        let mut plan = FaultPlan::new(6);
        plan.crashes.push(ScheduledCrash {
            at: t0 + SimDuration::from_millis(1),
            broker: b(3),
            restart_at: t0 + SimDuration::from_secs(2),
            kind: CrashKind::Warm,
        });
        sim.apply_fault_plan(&plan);
        sim.schedule_cmd(
            t0 + SimDuration::from_millis(2),
            c(1),
            ClientOp::Publish(Publication::new().with("x", 9)),
        );
        sim.run_to_quiescence();
        assert_eq!(sim.metrics.delivery_count, 1);
        assert!(sim.now() >= t0 + SimDuration::from_secs(2));
    }

    /// Explicit link drops are counted; with `drop_prob = 1` nothing
    /// crosses any link.
    #[test]
    fn drop_prob_one_loses_messages_and_counts_them() {
        let mut sim = durable_sim(3, 8);
        let t0 = sim.now();
        let mut plan = FaultPlan::new(8);
        plan.link = LinkFaults {
            drop_prob: 1.0,
            dup_prob: 0.0,
        };
        sim.apply_fault_plan(&plan);
        sim.schedule_cmd(
            t0 + SimDuration::from_millis(1),
            c(1),
            ClientOp::Publish(Publication::new().with("x", 2)),
        );
        sim.run_to_quiescence();
        assert_eq!(sim.metrics.delivery_count, 0, "dropped message arrived");
        assert!(sim.faults_dropped() > 0);
    }

    /// Duplication delivers twice on the wire; the counter records it.
    #[test]
    fn dup_prob_one_duplicates_and_counts() {
        let mut sim = durable_sim(3, 2);
        let t0 = sim.now();
        let mut plan = FaultPlan::new(2);
        plan.link = LinkFaults {
            drop_prob: 0.0,
            dup_prob: 1.0,
        };
        sim.apply_fault_plan(&plan);
        sim.schedule_cmd(
            t0 + SimDuration::from_millis(1),
            c(1),
            ClientOp::Publish(Publication::new().with("x", 4)),
        );
        sim.run_to_quiescence();
        assert!(sim.faults_duplicated() > 0);
        assert!(
            sim.metrics.delivery_count >= 1,
            "duplication lost the original"
        );
    }
}

#[cfg(test)]
mod timer_tests {
    use super::*;
    use transmob_pubsub::{Filter, Publication};

    /// The non-blocking variant in real (virtual) time: the target
    /// broker is down for longer than the negotiate timeout, so the
    /// source aborts via its timer and the client resumes at the
    /// source; after the target recovers, a retry commits.
    #[test]
    fn negotiate_timeout_fires_in_sim_and_retry_succeeds() {
        let config = MobileBrokerConfig {
            negotiate_timeout_ns: Some(500_000_000), // 0.5 s
            ..MobileBrokerConfig::reconfig()
        };
        let mut sim = Sim::builder()
            .overlay(Topology::chain(4))
            .options(config)
            .network(NetworkModel::cluster())
            .seed(3)
            .start();
        sim.enable_delivery_log();
        sim.create_client(BrokerId(1), ClientId(1));
        sim.create_client(BrokerId(4), ClientId(2));
        sim.schedule_cmd(
            SimTime(0),
            ClientId(1),
            ClientOp::Advertise(Filter::builder().ge("x", 0).build()),
        );
        sim.schedule_cmd(
            SimTime(0),
            ClientId(2),
            ClientOp::Subscribe(Filter::builder().ge("x", 0).build()),
        );
        sim.run_to_quiescence();
        let t0 = sim.now();
        // Target down for 2 s >> timeout.
        sim.crash_broker(BrokerId(2), t0 + SimDuration::from_secs(2));
        sim.schedule_cmd(
            t0 + SimDuration::from_millis(1),
            ClientId(2),
            ClientOp::MoveTo(BrokerId(2), ProtocolKind::Reconfig),
        );
        // A publication during the aborted window must still arrive.
        sim.schedule_cmd(
            t0 + SimDuration::from_millis(700),
            ClientId(1),
            ClientOp::Publish(Publication::new().with("x", 1)),
        );
        // Retry after recovery.
        sim.schedule_cmd(
            t0 + SimDuration::from_secs(3),
            ClientId(2),
            ClientOp::MoveTo(BrokerId(2), ProtocolKind::Reconfig),
        );
        sim.run_to_quiescence();
        let outcomes: Vec<Option<bool>> = sim
            .metrics
            .finished_moves()
            .map(|(_, r)| r.committed)
            .collect();
        assert_eq!(
            outcomes,
            vec![Some(false), Some(true)],
            "expected timeout-abort then committed retry"
        );
        assert_eq!(sim.home_of(ClientId(2)), Some(BrokerId(2)));
        assert_eq!(sim.metrics.delivery_count, 1, "publication lost");
        assert_eq!(sim.total_anomalies(), 0);
    }
}

/// Builder for [`Sim`] — the same `builder().overlay(..).options(..)
/// .start()` surface every driver exposes, plus the sim-specific
/// network model and RNG seed.
#[derive(Debug)]
pub struct SimBuilder {
    overlay: OverlayBuilder,
    options: MobileBrokerConfig,
    model: NetworkModel,
    seed: u64,
}

impl Default for SimBuilder {
    fn default() -> Self {
        SimBuilder {
            overlay: OverlayBuilder::default(),
            options: MobileBrokerConfig::default(),
            model: NetworkModel::cluster(),
            seed: 0,
        }
    }
}

impl SimBuilder {
    /// The overlay: an [`OverlayBuilder`] or a pre-built [`Topology`].
    pub fn overlay(mut self, overlay: impl Into<OverlayBuilder>) -> Self {
        self.overlay = overlay.into();
        self
    }

    /// Per-broker options: a [`MobileBrokerConfig`] or a bare
    /// `BrokerConfig`.
    pub fn options(mut self, options: impl Into<MobileBrokerConfig>) -> Self {
        self.options = options.into();
        self
    }

    /// The link/node timing model (defaults to
    /// [`NetworkModel::cluster`]).
    pub fn network(mut self, model: NetworkModel) -> Self {
        self.model = model;
        self
    }

    /// RNG seed for jitter and fault injection (defaults to 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the simulator.
    ///
    /// # Panics
    ///
    /// Panics if the overlay is invalid (empty, disconnected,
    /// duplicate edges) — use `OverlayBuilder::build` directly for the
    /// typed `TopologyError`.
    pub fn start(self) -> Sim {
        let topology = self
            .overlay
            .build()
            .expect("invalid overlay passed to Sim::builder()");
        Sim::from_parts(topology, self.options, self.model, self.seed)
    }
}
