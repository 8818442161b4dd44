//! The discrete-event simulation driver.
//!
//! [`Sim`] hosts one [`MobileBroker`] per overlay node and advances a
//! virtual clock over a two-tier queue of events (`crate::queue`).
//! Brokers and links are FIFO servers (see [`crate::network`]) whose
//! state sits in tables indexed by broker and by directed link, so an
//! event's bookkeeping does not grow with the events pending or the
//! movements recorded. Protocol timers wait in a [`TimerTable`] beside
//! the queue and count as an event only when they fire; client
//! commands (including `MOVE`) are injected on a schedule; and
//! repeated movement patterns — the paper's "move, pause ten seconds,
//! move again" clients — run as [`MovementPlan`]s.
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
//! [`Sim::enabled`] lists everything that could run next and
//! [`Sim::run`] runs any one of them, which is how the schedule
//! explorer ([`crate::explore()`]) picks its orders.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use transmob_broker::{Hop, OverlayBuilder, Topology};
use transmob_core::transport::{flush_outputs, for_each_cause_run, TimerTable, Transport};
use transmob_core::{
    ClientOp, DurabilityLog, MemoryLog, Message, MobileBroker, MobileBrokerConfig, MoveMsg, Output,
    ProtocolKind, TimerToken,
};
use transmob_pubsub::{BrokerId, ClientId, MoveId, PublicationMsg};

use crate::fault::{CrashKind, FaultPlan, LinkFaults, Partition};
use crate::metrics::Metrics;
use crate::network::{LinkModel, NetworkModel, NodeModel};
use crate::queue::{EventQueue, Tier};
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

/// One thing that can run next, as [`Sim::enabled`] lists it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Choice {
    /// The queued event with this sequence number: the head frame of a
    /// link, received and executed (one step as [`Sim::step_n`] counts
    /// it), or a command, likewise, or a crash, restart, death or
    /// link report.
    Queued(u64),
    /// An armed timer of a broker that is up, fired whatever its
    /// deadline.
    Timer(BrokerId, TimerToken),
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
    /// `observer`'s link to `peer` went down or came back, reported to
    /// `observer`'s failure detector ([`MobileBroker::handle_link`]).
    Link {
        observer: BrokerId,
        peer: BrokerId,
        up: bool,
    },
}

/// The bound of a run that has none.
const FOREVER: SimTime = SimTime(u64::MAX);

impl EventKind {
    /// A command waits on the agenda, scheduled ahead of the clock;
    /// whatever the run produced waits near it.
    fn tier(&self) -> Tier {
        match self {
            EventKind::Cmd { .. } => Tier::Agenda,
            _ => Tier::Near,
        }
    }
}

/// Whether a broker's server runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Up,
    /// Down until its restart runs: what arrives meanwhile is held.
    Crashed,
    /// Gone for good (overlay churn): what arrives is dropped.
    Dead,
}

/// One broker and its FIFO server.
#[derive(Debug)]
struct Server {
    id: BrokerId,
    /// `None` once the broker died.
    broker: Option<MobileBroker>,
    status: Status,
    /// When the server finishes the last frame or command it took.
    free: SimTime,
    /// The broker's node model, resolved once.
    node: NodeModel,
    /// Events addressed to the broker while it is crashed, in arrival
    /// order under their sequence numbers (the paper's persisted-queue
    /// fault model), replayed at restart.
    held: Vec<(u64, EventKind)>,
    /// The broker's durability log ([`Sim::enable_durability`]): the
    /// source of truth for state-loss recovery.
    log: Option<Arc<Mutex<MemoryLog>>>,
}

/// One directed link's FIFO serialization server.
#[derive(Debug)]
struct Link {
    /// The edge's model, resolved once.
    model: LinkModel,
    /// When the link finishes serializing the last frame it took.
    free: SimTime,
    /// When its last frame arrives; kept on a jittered link only, for
    /// the FIFO clamp.
    last_arrival: Option<SimTime>,
}

/// An empty entry of [`Sim`]'s slot and link indexes.
const NONE: u32 = u32::MAX;

/// The discrete-event simulator.
#[derive(Debug)]
pub struct Sim {
    topology: Arc<Topology>,
    model: NetworkModel,
    config: MobileBrokerConfig,
    /// Every broker's server, in ascending id order.
    servers: Vec<Server>,
    /// The `servers` index of each broker id (`NONE` for an id the
    /// overlay does not hold).
    slot_of: Vec<u32>,
    /// Each directed link's index in `links`, at `src * servers.len() +
    /// dst` by server index; `NONE` until it carries its first frame.
    link_at: Vec<u32>,
    links: Vec<Link>,
    clock: SimTime,
    queue: EventQueue<EventKind>,
    seq: u64,
    rng: StdRng,
    /// Collected measurements.
    pub metrics: Metrics,
    /// Every broker's armed timers. A deadline carries the sequence
    /// number drawn at arming, so a timer and a queued event of the
    /// same instant run in the order they were scheduled.
    armed: TimerTable<(BrokerId, TimerToken), (SimTime, u64)>,
    home: BTreeMap<ClientId, BrokerId>,
    plans: BTreeMap<ClientId, (MovementPlan, usize)>,
    plan_deadline: Option<SimTime>,
    events_processed: u64,
    partitions: Vec<Partition>,
    link_faults: LinkFaults,
    fault_rng: StdRng,
    faults_dropped: u64,
    faults_duplicated: u64,
    /// One broker step's effects: the broker writes them, and
    /// [`Sim::dispatch`] drains them. Kept across steps for its
    /// capacity.
    outputs: Vec<Output>,
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
        let servers: Vec<Server> = (topology.brokers())
            .map(|id| Server {
                id,
                broker: Some(MobileBroker::new(id, Arc::clone(&topology), config.clone())),
                status: Status::Up,
                free: SimTime::ZERO,
                node: model.node_model(id),
                held: Vec::new(),
                log: None,
            })
            .collect();
        let top = servers.last().map_or(0, |s| s.id.0 as usize + 1);
        let mut slot_of = vec![NONE; top];
        for (slot, server) in servers.iter().enumerate() {
            slot_of[server.id.0 as usize] = u32::try_from(slot).expect("fewer than 2^32 brokers");
        }
        let link_at = vec![NONE; servers.len() * servers.len()];
        Sim {
            topology,
            model,
            config,
            servers,
            slot_of,
            link_at,
            links: Vec::new(),
            clock: SimTime::ZERO,
            queue: EventQueue::default(),
            seq: 0,
            rng: StdRng::seed_from_u64(seed),
            metrics: Metrics::new(false),
            armed: TimerTable::default(),
            home: BTreeMap::new(),
            plans: BTreeMap::new(),
            plan_deadline: None,
            events_processed: 0,
            partitions: Vec::new(),
            link_faults: LinkFaults::none(),
            fault_rng: StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
            faults_dropped: 0,
            faults_duplicated: 0,
            outputs: Vec::new(),
        }
    }

    /// Attaches an in-memory durability log to every broker (the sim's
    /// stand-in for [`crate::WalDurability`]): every external input is
    /// logged before it is applied, and periodic checkpoints truncate
    /// the tail. Required before any [`CrashKind::StateLoss`] crash.
    pub fn enable_durability(&mut self) {
        for server in &mut self.servers {
            let Some(broker) = &mut server.broker else {
                continue;
            };
            let log = MemoryLog::shared();
            let dyn_log: Arc<Mutex<dyn DurabilityLog>> = log.clone();
            broker
                .attach_durability(dyn_log)
                .expect("in-memory durability cannot fail");
            server.log = Some(log);
        }
    }

    /// Whether [`Sim::enable_durability`] has run.
    pub fn durability_enabled(&self) -> bool {
        self.servers.iter().any(|s| s.log.is_some())
    }

    /// Schedules every fault in `plan`: crashes become events, link
    /// outage windows and drop/duplication probabilities take effect
    /// immediately. The drop/dup decisions draw from a dedicated RNG
    /// reseeded from `plan.seed`, so the simulation's own randomness is
    /// untouched and runs are reproducible per (sim seed, plan).
    ///
    /// A partition reports its link down to both endpoints at `from`
    /// and up again at `until`.
    ///
    /// # Panics
    ///
    /// Panics if the plan contains a state-loss crash and durability is
    /// not enabled, or a death and the brokers run no failure detector.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        assert!(
            !plan.needs_durability() || self.durability_enabled(),
            "state-loss crashes require Sim::enable_durability()"
        );
        if !plan.deaths.is_empty() {
            self.assert_detector();
        }
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
        for p in &plan.partitions {
            for (at, up) in [(p.from, false), (p.until, true)] {
                for (observer, peer) in [(p.a, p.b), (p.b, p.a)] {
                    self.push(at, EventKind::Link { observer, peer, up });
                }
            }
        }
    }

    /// A permanent death is only ever noticed by a failure detector:
    /// without one the survivors would wait for the victim forever.
    fn assert_detector(&self) {
        assert!(
            self.config.suspect_after_ns.is_some(),
            "killing a broker needs a failure detector: set MobileBrokerConfig::suspect_after_ns"
        );
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
        self.server(id).broker.as_ref().expect("a live broker")
    }

    /// Mutable access to a broker (test set-up, e.g.
    /// `set_accept_moves`).
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub fn broker_mut(&mut self, id: BrokerId) -> &mut MobileBroker {
        self.server_mut(id).broker.as_mut().expect("a live broker")
    }

    /// The index of `id`'s server.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    fn slot(&self, id: BrokerId) -> usize {
        match self.slot_of.get(id.0 as usize) {
            Some(&slot) if slot != NONE => slot as usize,
            _ => panic!("unknown broker {id}"),
        }
    }

    fn server(&self, id: BrokerId) -> &Server {
        &self.servers[self.slot(id)]
    }

    fn server_mut(&mut self, id: BrokerId) -> &mut Server {
        let slot = self.slot(id);
        &mut self.servers[slot]
    }

    /// Whether `id` is down until its restart runs.
    fn is_crashed(&self, id: BrokerId) -> bool {
        self.server(id).status == Status::Crashed
    }

    /// Whether `id` died for good.
    fn is_dead(&self, id: BrokerId) -> bool {
        self.server(id).status == Status::Dead
    }

    /// The brokers that are alive (up or crashed), in ascending id
    /// order.
    fn live(&self) -> impl Iterator<Item = (BrokerId, &MobileBroker)> {
        (self.servers.iter()).filter_map(|s| Some((s.id, s.broker.as_ref()?)))
    }

    /// The brokers whose status is `status`, ascending.
    fn with_status(&self, status: Status) -> Vec<BrokerId> {
        let servers = self.servers.iter().filter(|s| s.status == status);
        servers.map(|s| s.id).collect()
    }

    /// The broker a client currently calls home (its command target).
    pub fn home_of(&self, client: ClientId) -> Option<BrokerId> {
        self.home.get(&client).copied()
    }

    /// Total protocol/routing anomalies across brokers (healthy runs:
    /// zero).
    pub fn total_anomalies(&self) -> u64 {
        self.live()
            .map(|(_, b)| b.anomalies() + b.core().stats().anomalies)
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
        self.queue.push(time, seq, kind.tier(), kind);
    }

    /// Pushes an event that *continues* an earlier one (an `Exec` for
    /// its `Arrive`, a `CmdExec` for its `Cmd`), reusing the original
    /// sequence number. The seq is the arrival-order witness: if the
    /// broker crashes mid-processing, the re-held event must sort back
    /// into the persisted input queue at its original arrival position,
    /// or replay could reorder a link's FIFO (e.g. an abort overtaking
    /// the ack it chased).
    fn push_continuation(&mut self, time: SimTime, seq: u64, kind: EventKind) {
        self.queue.push(time, seq, kind.tier(), kind);
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
    /// replay) via `MobileBroker::recover_from_log`, re-arming the
    /// timers of in-flight movements. Queued messages still wait out
    /// the outage (persistent queues).
    ///
    /// # Panics
    ///
    /// Panics unless [`Sim::enable_durability`] has run.
    pub fn crash_broker_lossy(&mut self, broker: BrokerId, restart_at: SimTime) {
        assert!(
            self.server(broker).log.is_some(),
            "state-loss crash requires Sim::enable_durability()"
        );
        self.crash(broker, restart_at, CrashKind::StateLoss);
    }

    /// Takes `broker` down now and schedules its restart. A broker
    /// that is already down or dead stays as it is: the first crash
    /// wins, so one outage never gets a second restart.
    fn crash(&mut self, broker: BrokerId, restart_at: SimTime, kind: CrashKind) {
        let server = self.server_mut(broker);
        if server.status != Status::Up {
            return;
        }
        server.status = Status::Crashed;
        self.push(
            restart_at.max(self.clock),
            EventKind::Restart { broker, kind },
        );
    }

    /// Schedules the permanent death of `broker` at `at` (overlay
    /// churn). The broker never restarts: messages addressed to it are
    /// dropped, and its held queue and timers are discarded. Every
    /// survivor holding a link to it gets a link-down report one
    /// sampled link latency later ([`MobileBroker::handle_link`]);
    /// its suspicion timer then runs the overlay self-repair, whose
    /// flood reaches the rest of the overlay.
    ///
    /// # Panics
    ///
    /// Panics unless the brokers run a failure detector
    /// ([`MobileBrokerConfig::suspect_after_ns`]).
    pub fn kill_broker(&mut self, at: SimTime, broker: BrokerId) {
        self.assert_detector();
        self.push(at, EventKind::Die { broker });
    }

    /// Brokers that have died permanently so far, ascending.
    pub fn dead_brokers(&self) -> Vec<BrokerId> {
        self.with_status(Status::Dead)
    }

    /// Runs until nothing is left to run or the clock passes `until`
    /// (events and timers after `until` remain).
    pub fn run_until(&mut self, until: SimTime) {
        while self.advance(until, true).is_some() {}
        self.clock = self.clock.max(until);
    }

    /// Runs the next event or due timer, as [`Sim::run_to_quiescence`]
    /// would; returns `false`, and does nothing, when none is left.
    /// Checking a property after every call checks it in every state
    /// of the run.
    pub fn run_next(&mut self) -> bool {
        self.advance(FOREVER, true).is_some()
    }

    /// Runs until no event remains and no timer can come due.
    pub fn run_to_quiescence(&mut self) {
        while self.run_next() {}
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
        if !self.armed.is_armed((broker, token)) || self.is_crashed(broker) {
            return false;
        }
        self.fire(broker, token);
        self.settle();
        true
    }

    /// Loses every frame in flight, on a link or waiting for its
    /// broker (crash-style failure injection); returns how many.
    pub fn drain_queue(&mut self) -> usize {
        let frame = |kind: &EventKind| matches!(kind, EventKind::Arrive(_) | EventKind::Exec(_));
        self.queue.discard(frame)
    }

    /// Everything that could run next, earliest `(time, seq)` first:
    /// the head frame of each directed link, each armed timer of a
    /// broker that is up (whatever its deadline, as
    /// [`Sim::fire_timer`] allows), and each pending non-frame event.
    /// The clock-driven loop always runs the first; a schedule
    /// explorer ([`crate::explore()`]) picks any.
    pub fn enabled(&self) -> Vec<Choice> {
        let mut heads: BTreeMap<(Hop, BrokerId), (SimTime, u64)> = BTreeMap::new();
        let mut next = Vec::new();
        for (time, seq, kind) in self.queue.iter() {
            match kind {
                EventKind::Arrive(f) | EventKind::Exec(f) => {
                    let head = heads.entry((f.from, f.dst)).or_insert((time, seq));
                    if seq < head.1 {
                        *head = (time, seq);
                    }
                }
                _ => next.push(((time, seq), Choice::Queued(seq))),
            }
        }
        next.extend(heads.into_values().map(|at| (at, Choice::Queued(at.1))));
        let up = |(_, (broker, _)): &(_, (BrokerId, _))| !self.is_crashed(*broker);
        let timers = self.armed.by_deadline().filter(up);
        next.extend(timers.map(|(at, (broker, token))| (at, Choice::Timer(broker, token))));
        next.sort_unstable_by_key(|&(at, _)| at);
        next.into_iter().map(|(_, choice)| choice).collect()
    }

    /// Runs one choice [`Sim::enabled`] listed, through the handlers
    /// the clock-driven loop uses.
    ///
    /// # Panics
    ///
    /// Panics if `choice` is not enabled.
    pub fn run(&mut self, choice: Choice) {
        self.events_processed += 1;
        match choice {
            Choice::Timer(broker, token) => {
                let up = !self.is_crashed(broker);
                assert!(
                    up && self.armed.is_armed((broker, token)),
                    "{choice:?} is not enabled"
                );
                self.fire(broker, token);
            }
            Choice::Queued(seq) => {
                let (time, kind) = self.queue.remove(seq).expect("an enabled choice");
                self.clock = self.clock.max(time);
                self.step(seq, kind);
                // An `Exec` continues its `Arrive`, a `CmdExec` its `Cmd`,
                // under the same sequence number: one step.
                if let Some((time, kind)) = self.queue.remove(seq) {
                    self.clock = self.clock.max(time);
                    self.events_processed += 1;
                    self.step(seq, kind);
                }
            }
        }
    }

    /// What `choice` does, in words: `"B2→B1 negotiate"`, `"C2 moves to
    /// B1 (reconfig)"`, `"B1 fires its state timer"`.
    pub(crate) fn describe(&self, choice: Choice) -> String {
        let seq = match choice {
            Choice::Timer(broker, token) => {
                let kind = match token {
                    TimerToken::Negotiate(_) => "negotiate".to_owned(),
                    TimerToken::State(_) => "state".to_owned(),
                    TimerToken::Suspect(peer) => format!("{peer} suspicion"),
                };
                return format!("{broker} fires its {kind} timer");
            }
            Choice::Queued(seq) => seq,
        };
        let (_, _, kind) = self.queue.iter().find(|e| e.1 == seq).expect("enabled");
        match kind {
            EventKind::Arrive(f) | EventKind::Exec(f) => {
                let name = |msg: &Message| match msg {
                    Message::Move(mv) => mv.name().to_owned(),
                    _ => msg.kind().to_string(),
                };
                let names: Vec<String> = f.msgs.iter().map(name).collect();
                format!("{}→{} {}", f.from, f.dst, names.join("+"))
            }
            EventKind::Cmd { client, op } => match op {
                ClientOp::MoveTo(to, protocol) => format!("{client} moves to {to} ({protocol})"),
                ClientOp::Publish(_) => format!("{client} publishes"),
                _ => format!("{client} runs {op:?}"),
            },
            EventKind::Restart { broker, kind } => match kind {
                CrashKind::Warm => format!("{broker} restarts"),
                CrashKind::StateLoss => format!("{broker} restarts from its log"),
            },
            other => format!("{other:?}"),
        }
    }

    /// The messages on the wire or waiting for their broker.
    pub(crate) fn in_flight(&self) -> impl Iterator<Item = &Message> {
        self.queue.iter().flat_map(|(_, _, kind)| match kind {
            EventKind::Arrive(f) | EventKind::Exec(f) => f.msgs.as_slice(),
            _ => &[],
        })
    }

    /// The crashed brokers, down until their restart runs, ascending.
    pub(crate) fn crashed(&self) -> Vec<BrokerId> {
        self.with_status(Status::Crashed)
    }

    /// Feeds into `state` what a run's future and its checks depend on:
    /// each broker's serialized snapshot, the frames queued on each link
    /// in send order, the other pending and the held events, the armed
    /// timers, the crashed and dead brokers, the clients' homes, the
    /// movements' outcomes and the deliveries; not the clock, nor the
    /// sequence numbers.
    pub(crate) fn digest(&self, state: &mut impl Hasher) {
        for (id, broker) in self.live() {
            let snapshot = serde_json::to_string(&broker.snapshot());
            (id, snapshot.expect("a broker snapshot serializes")).hash(state);
        }
        let debug = |kind: &EventKind| format!("{kind:?}");
        let (mut frames, mut others) = (Vec::new(), Vec::new());
        for (_, seq, kind) in self.queue.iter() {
            match kind {
                EventKind::Arrive(f) | EventKind::Exec(f) => {
                    frames.push(((f.from, f.dst, seq), kind))
                }
                _ => others.push(debug(kind)),
            }
        }
        frames.sort_unstable_by_key(|&(link_and_seq, _)| link_and_seq);
        others.sort_unstable();
        let frames: Vec<String> = frames.into_iter().map(|(_, kind)| debug(kind)).collect();
        let held: Vec<String> = (self.servers.iter().flat_map(|s| &s.held))
            .map(|e| debug(&e.1))
            .collect();
        (frames, others, held).hash(state);
        let timers: Vec<_> = self.armed.keys().collect();
        let (crashed, dead) = (self.crashed(), self.dead_brokers());
        (timers, crashed, dead, &self.home).hash(state);
        for (m, rec) in self.metrics.moves.iter() {
            (m, rec.committed).hash(state);
        }
        let log = self.metrics.delivery_log.iter().flatten();
        let mut delivered: Vec<_> = log.map(|d| (d.client, d.publication)).collect();
        delivered.sort_unstable();
        delivered.hash(state);
    }

    /// Runs what comes next, if that is no later than `until`: the
    /// earlier, by `(time, seq)`, of the queue's head and the first
    /// armed timer whose broker is up. The one place the queue is
    /// popped and a due timer fires. Returns whether the event was a
    /// frame its broker executed, or `None` when nothing ran: with
    /// `fire_timers` off (hand-stepping) a timer that comes next ends
    /// the run instead.
    fn advance(&mut self, until: SimTime, fire_timers: bool) -> Option<bool> {
        let head = self.queue.peek();
        let timer = (self.armed.by_deadline())
            .find(|(_, (broker, _))| !self.is_crashed(*broker))
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
                let (seq, kind) = self.queue.pop().expect("peeked above");
                self.step(seq, kind)
            }
        })
    }

    /// Parks an event addressed to a crashed broker in its persisted
    /// queue, under the sequence number it arrived with, for replay at
    /// restart.
    fn hold(&mut self, broker: BrokerId, seq: u64, kind: EventKind) {
        self.server_mut(broker).held.push((seq, kind));
    }

    /// Books `broker`'s next service slot (the broker is a FIFO
    /// server) and returns when it completes.
    fn service_done(&mut self, broker: BrokerId) -> SimTime {
        let slot = self.slot(broker);
        let server = &mut self.servers[slot];
        let core = server.broker.as_ref().expect("a live broker").core();
        let entries = core.prt().len() + core.srt().len();
        let start = server.free.max(self.clock);
        server.free = start + server.node.sample_process(entries, &mut self.rng);
        server.free
    }

    /// Runs one event. Returns whether it was a frame its broker
    /// executed (not one queued for service, held, or lost).
    fn step(&mut self, ev_seq: u64, kind: EventKind) -> bool {
        match kind {
            EventKind::Arrive(frame) => {
                let dst = frame.dst;
                let status = self.server(dst).status;
                if status == Status::Dead {
                    return false; // dead broker: mail is lost, not held
                }
                if status == Status::Crashed {
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
                let status = self.server(frame.dst).status;
                if status == Status::Dead {
                    return false; // died between queueing and processing
                }
                if status == Status::Crashed {
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
                let mut outs = std::mem::take(&mut self.outputs);
                for_each_cause_run(msgs, cause, |cause, run| {
                    self.broker_mut(dst).handle_batch_into(from, run, &mut outs);
                    self.dispatch(dst, cause, &mut outs);
                });
                self.outputs = outs;
                return true;
            }
            EventKind::Cmd { client, op } => {
                let Some(mut broker) = self.home.get(&client).copied() else {
                    return false; // client gone (never created or destroyed)
                };
                if self.is_dead(broker) {
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
                if self.is_crashed(broker) {
                    self.hold(broker, ev_seq, EventKind::Cmd { client, op });
                    return false;
                }
                let done = self.service_done(broker);
                self.push_continuation(done, ev_seq, EventKind::CmdExec { broker, client, op });
            }
            EventKind::CmdExec { broker, client, op } => {
                let server = self.server(broker);
                if server.status == Status::Dead {
                    // Died between command arrival and execution:
                    // retry as a Cmd, which re-resolves the client's
                    // home (or declares the client gone).
                    self.push(self.clock, EventKind::Cmd { client, op });
                } else if server.status == Status::Crashed {
                    // Crashed mid-processing: back to the persisted
                    // queue (as a Cmd, which also re-resolves the
                    // client's home after recovery).
                    self.hold(broker, ev_seq, EventKind::Cmd { client, op });
                } else if (server.broker.as_ref()).is_some_and(|b| b.client(client).is_none()) {
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
                let server = self.server_mut(broker);
                if server.status == Status::Dead {
                    return false; // death trumps a pending restart
                }
                server.status = Status::Up;
                match kind {
                    CrashKind::StateLoss => {
                        self.recover_from_log(broker);
                        self.report_links_down(broker);
                    }
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
                for (seq, kind) in std::mem::take(&mut self.server_mut(broker).held) {
                    self.queue.push(self.clock, seq, kind.tier(), kind);
                }
            }
            EventKind::Die { broker } => {
                let server = self.server_mut(broker);
                if server.status == Status::Dead {
                    return false;
                }
                server.status = Status::Dead;
                server.held = Vec::new();
                server.log = None;
                server.broker = None;
                self.disarm(broker); // timers die with the broker

                // Keep the sim's gods-eye overlay in sync so the
                // property checkers (NetworkView) see the post-churn
                // topology the survivors converge to.
                let _ = Arc::make_mut(&mut self.topology).repair(broker);
                // Clients whose only stub lived here are gone; their
                // queued commands drop at the Cmd re-resolution.
                // Every survivor that still carries a link to the victim
                // (per its *own*, possibly already-repaired overlay copy)
                // sees that link go down one link latency later.
                let observers: Vec<BrokerId> = self
                    .live()
                    .filter(|(id, b)| {
                        let topo = b.topology();
                        topo.contains(broker) && topo.neighbors(broker).contains(id)
                    })
                    .map(|(id, _)| id)
                    .collect();
                for observer in observers {
                    let latency = self.model.sample_latency(broker, observer, &mut self.rng);
                    let report = EventKind::Link {
                        observer,
                        peer: broker,
                        up: false,
                    };
                    self.push(self.clock + latency, report);
                }
            }
            EventKind::Link { observer, peer, up } => {
                let status = self.server(observer).status;
                if status == Status::Dead {
                    return false;
                }
                if status == Status::Crashed {
                    // The observer is down (but not dead): it hears the
                    // report after it comes back.
                    self.hold(observer, ev_seq, EventKind::Link { observer, peer, up });
                    return false;
                }
                // A link comes back only to a live peer, and only once
                // no other partition still holds it.
                let held = (self.partitions.iter()).any(|p| p.covers(observer, peer, self.clock));
                if up && (self.is_dead(peer) || held) {
                    return false;
                }
                let mut outs = self.broker_mut(observer).handle_link(peer, up);
                self.dispatch(observer, None, &mut outs);
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
        let mut outs = std::mem::take(&mut self.outputs);
        self.broker_mut(broker)
            .client_op_into(client, op, &mut outs);
        if let Some(target) = target {
            // A movement that finishes on the spot sends no request;
            // one that does is recorded where the request ships.
            let finished = outs.iter().find_map(|o| match o {
                Output::MoveFinished { m, .. } => Some(*m),
                _ => None,
            });
            if let Some(m) = finished {
                self.metrics
                    .move_started(m, client, broker, target, self.clock);
            }
        }
        self.dispatch(broker, None, &mut outs);
        self.outputs = outs;
    }

    /// Fires `broker`'s armed timer `token`: disarms it and ships what
    /// the handler produces, attributed to the timer's movement, if it
    /// has one.
    fn fire(&mut self, broker: BrokerId, token: TimerToken) {
        self.armed.cancel((broker, token));
        let mut outs = self.broker_mut(broker).handle_timer(token);
        self.dispatch(broker, token.move_id(), &mut outs);
    }

    /// Cancels every timer of `broker`.
    fn disarm(&mut self, broker: BrokerId) {
        let gone: Vec<_> = self.armed.keys().filter(|(b, _)| *b == broker).collect();
        for key in gone {
            self.armed.cancel(key);
        }
    }

    /// Rebuilds a broker after a state-loss crash
    /// ([`MobileBroker::recover_from_log`]) under the lost broker's own
    /// configuration, which a test may have changed
    /// (`set_accept_moves`), and re-arms in-flight movement timers.
    fn recover_from_log(&mut self, broker: BrokerId) {
        self.disarm(broker); // every pre-crash timer died with the process
        let server = self.server(broker);
        let log = Arc::clone(server.log.as_ref().expect("durability enabled"));
        let config = self.broker(broker).config().clone();
        let (rebuilt, mut timer_outs) =
            MobileBroker::recover_from_log(Arc::clone(&self.topology), config, log)
                .expect("attach_durability wrote the base checkpoint");
        self.server_mut(broker).broker = Some(rebuilt);
        // Re-arm timers for movements that were in flight at the crash.
        self.dispatch(broker, None, &mut timer_outs);
    }

    /// Reports to a broker rebuilt from its log each of its links that
    /// is down at this instant (the peer dead, or a partition holding
    /// the link). Link reports are not logged, so without this the
    /// rebuilt broker would forget a suspicion the lost one had armed.
    fn report_links_down(&mut self, broker: BrokerId) {
        let peers: Vec<BrokerId> = (self.broker(broker).topology())
            .neighbors(broker)
            .iter()
            .copied()
            .collect();
        for peer in peers {
            let held = (self.partitions.iter()).any(|p| p.covers(broker, peer, self.clock));
            if self.is_dead(peer) || held {
                let mut outs = self.broker_mut(broker).handle_link(peer, false);
                self.dispatch(broker, None, &mut outs);
            }
        }
    }

    /// Ships one step's effects, leaving `outs` empty.
    fn dispatch(&mut self, src: BrokerId, cause: Option<MoveId>, outs: &mut Vec<Output>) {
        let mut flush = SimFlush {
            sim: self,
            src,
            cause,
        };
        flush_outputs(&mut flush, outs.drain(..));
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
        if self.is_dead(to) {
            return; // link to a dead broker: frames vanish
        }
        for msg in &msgs {
            // A movement starts where its source ships the request,
            // whether a command issued it or a client resumed at a new
            // home runs one it had queued.
            if let Message::Move(mv) = msg {
                if let MoveMsg::Negotiate { client, source, .. }
                | MoveMsg::CovRequest { client, source, .. } = **mv
                {
                    if source == src {
                        let (m, target) = (mv.move_id(), mv.destination());
                        self.metrics
                            .move_started(m, client, src, target, self.clock);
                    }
                }
            }
            self.metrics
                .count_message(msg.kind(), msg.effective_cause(cause));
        }
        // On a reliable link the frame is the batch as it came.
        let faulty = self.link_faults.drop_prob > 0.0 || self.link_faults.dup_prob > 0.0;
        let wire = match faulty {
            true => self.draw_link_faults(msgs),
            false => msgs,
        };
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
        let link = self.link(src, to);
        let link = &mut self.links[link];
        link.free = link.free.max(base) + link.model.serialize;
        let mut arrive = link.free + link.model.sample_latency(&mut self.rng);
        // Clamp to preserve per-link FIFO despite jitter. A link
        // without jitter needs none: departures never decrease, the
        // latency is constant, and frames arriving at one instant run
        // in send order (the sequence number breaks the tie). Clamping
        // there would push the second of two same-instant frames behind
        // traffic sent later on other links.
        if link.model.jitter > 0.0 {
            if let Some(last) = link.last_arrival {
                if arrive <= last {
                    arrive = last + SimDuration::from_nanos(1);
                }
            }
            link.last_arrival = Some(arrive);
        }
        let frame = Frame {
            dst: to,
            from: Hop::Broker(src),
            msgs: wire,
            cause,
        };
        self.push(arrive, EventKind::Arrive(frame));
    }

    /// The index in `links` of the directed link `src → to`, which the
    /// first call sets up with the edge's model.
    fn link(&mut self, src: BrokerId, to: BrokerId) -> usize {
        let at = self.slot(src) * self.servers.len() + self.slot(to);
        if self.link_at[at] == NONE {
            self.link_at[at] = u32::try_from(self.links.len()).expect("fewer than 2^32 links");
            self.links.push(Link {
                model: self.model.link(src, to),
                free: SimTime::ZERO,
                last_arrival: None,
            });
        }
        self.link_at[at] as usize
    }

    /// The messages of one frame that survive the link's drop draws,
    /// each followed by its copy where the duplication draw says so.
    fn draw_link_faults(&mut self, msgs: Vec<Message>) -> Vec<Message> {
        let mut wire = Vec::with_capacity(msgs.len());
        for msg in msgs {
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
        wire
    }

    /// The broker currently holding any stub for `client` (any state).
    pub fn find_client(&self, client: ClientId) -> Option<BrokerId> {
        self.live()
            .find(|(_, b)| b.client(client).is_some())
            .map(|(id, _)| id)
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
            self.deliver(client, publication);
        }
    }

    fn deliver(&mut self, client: ClientId, publication: PublicationMsg) {
        self.sim
            .metrics
            .count_delivery(self.sim.clock, client, publication.id);
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
                self.sim.schedule_next_plan_move(client);
            }
            Output::ClientArrived { m: _, client } => {
                // Commands issued from now on route to the new home, as
                // on the threaded runtimes.
                self.sim.home.insert(client, src);
            }
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
        self.live().map(|(id, _)| id).collect()
    }

    fn view_broker(&self, id: BrokerId) -> &MobileBroker {
        self.broker(id)
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
        assert!(
            sim.links.iter().all(|l| l.last_arrival.is_none()),
            "the clamp was consulted"
        );
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

    /// A broker's admission setting is configuration, not logged
    /// state: a target told to refuse movers still refuses them after
    /// it is rebuilt from its log.
    #[test]
    fn a_refusing_target_still_refuses_after_a_state_loss_restart() {
        let mut sim = durable_sim(3, 5);
        sim.broker_mut(b(1)).set_accept_moves(false);
        sim.crash_broker_lossy(b(1), sim.now() + SimDuration::from_millis(100));
        sim.run_to_quiescence();
        assert!(!sim.broker(b(1)).config().accept_moves);
        sim.schedule_cmd(
            sim.now() + SimDuration::from_millis(1),
            c(2),
            ClientOp::MoveTo(b(1), ProtocolKind::Reconfig),
        );
        sim.run_to_quiescence();
        let outcomes: Vec<Option<bool>> = (sim.metrics.finished_moves())
            .map(|(_, r)| r.committed)
            .collect();
        assert_eq!(outcomes, vec![Some(false)], "the move must be rejected");
        assert_eq!(sim.home_of(c(2)), Some(b(3)));
        assert_eq!(sim.total_anomalies(), 0);
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
        let token = TimerToken::Negotiate(MoveId(77));
        let arm = |sim: &mut Sim, delay_ns| {
            sim.dispatch(b(1), None, &mut vec![Output::SetTimer { token, delay_ns }]);
        };
        arm(&mut sim, 1_000_000);
        sim.dispatch(b(1), None, &mut vec![Output::CancelTimer { token }]);
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

#[cfg(test)]
mod queue_tests {
    use super::*;
    use transmob_pubsub::{Filter, Publication};

    /// An event body that names the sequence number it was pushed
    /// under, so a pop can be checked against its key.
    fn body(seq: u64) -> EventKind {
        EventKind::Die {
            broker: BrokerId(u32::try_from(seq).unwrap()),
        }
    }

    /// Pops the head, checking that it is `expect` and that the body
    /// came out of the slot its key named.
    fn pop_expecting(q: &mut EventQueue<EventKind>, expect: (SimTime, u64)) {
        assert_eq!(q.peek(), Some(expect));
        let (seq, kind) = q.pop().unwrap();
        assert_eq!(seq, expect.1);
        assert!(matches!(kind, EventKind::Die { broker } if u64::from(broker.0) == seq));
    }

    #[test]
    fn shuffled_pushes_with_colliding_instants_pop_in_time_seq_order() {
        let mut rng = StdRng::seed_from_u64(26);
        // 3 000 events on 16 instants, pushed in shuffled order.
        let mut keys: Vec<(SimTime, u64)> = (0..3_000)
            .map(|seq| (SimTime(rng.gen_range(0..16u64)), seq))
            .collect();
        for i in (1..keys.len()).rev() {
            keys.swap(i, rng.gen_range(0..i + 1));
        }
        let mut q = EventQueue::default();
        let mut pending: Vec<(SimTime, u64)> = Vec::new();
        for (k, &(time, seq)) in keys.iter().enumerate() {
            // Either tier: the order is the keys' alone.
            let tier = [Tier::Agenda, Tier::Near][k % 2];
            q.push(time, seq, tier, body(seq));
            pending.push((time, seq));
            // Pop between pushes too, so slots are reused mid-run.
            if k % 3 == 2 {
                pending.sort();
                pop_expecting(&mut q, pending.remove(0));
            }
        }
        pending.sort();
        for expect in pending {
            pop_expecting(&mut q, expect);
        }
        assert_eq!(q.peek(), None);
        assert!(q.pop().is_none());
        assert_eq!(q.free_slots(), q.slots(), "a popped slot was not freed");
        assert_eq!(q.live(), 0);
    }

    #[test]
    fn drain_queue_returns_the_frames_it_dropped_and_frees_their_slots() {
        let band = Filter::builder().ge("x", 0).build();
        let mut sim = Sim::builder()
            .overlay(Topology::chain(3))
            .options(MobileBrokerConfig::reconfig())
            .network(NetworkModel::instant())
            .start();
        sim.enable_delivery_log();
        sim.create_client(BrokerId(1), ClientId(1));
        sim.create_client(BrokerId(3), ClientId(3));
        sim.client_op(ClientId(1), ClientOp::Advertise(band.clone()));
        sim.client_op(ClientId(3), ClientOp::Subscribe(band));
        let publish = |sim: &mut Sim, x: i64| {
            let op = ClientOp::Publish(Publication::new().with("x", x));
            sim.client_op_deferred(ClientId(1), op);
        };
        for x in 0..3 {
            publish(&mut sim, x);
        }
        for x in 0..2 {
            let op = ClientOp::Publish(Publication::new().with("x", x));
            sim.schedule_cmd(SimTime(1_000), ClientId(1), op);
        }
        // Both tiers share one slab: the frames wait near the clock,
        // the commands on the agenda.
        let slots = sim.queue.slots();
        assert_eq!(sim.queue.live(), 5);
        assert_eq!(sim.queue.tier_len(Tier::Near), 3);
        assert_eq!(sim.queue.tier_len(Tier::Agenda), 2);
        assert_eq!(sim.drain_queue(), 3, "three frames were in flight");
        assert_eq!(sim.queue.len(), 2, "the scheduled commands stay");
        assert_eq!(sim.queue.tier_len(Tier::Agenda), 2);
        assert_eq!(sim.queue.live(), 2);
        assert_eq!(sim.queue.free_slots(), slots - 2);
        assert_eq!(sim.drain_queue(), 0);
        // The freed slots take the next frames.
        for x in 0..3 {
            publish(&mut sim, x);
        }
        assert_eq!(sim.queue.slots(), slots);
        sim.settle();
        assert_eq!(sim.metrics.deliveries_to(ClientId(3)).len(), 5);
    }

    #[test]
    fn slab_never_outgrows_the_peak_of_pending_events_over_a_long_timed_run() {
        let mut sim = Sim::builder()
            .overlay(Topology::chain(5))
            .options(MobileBrokerConfig::reconfig())
            .network(NetworkModel::cluster())
            .seed(4)
            .start();
        sim.create_client(BrokerId(1), ClientId(1));
        sim.schedule_cmd(
            SimTime(0),
            ClientId(1),
            ClientOp::Advertise(Filter::builder().ge("x", 0).build()),
        );
        let start = SimTime(10_000_000);
        for i in 0..20 {
            let id = ClientId(100 + i);
            let home = if i % 2 == 0 { BrokerId(5) } else { BrokerId(2) };
            sim.create_client(home, id);
            let band = Filter::builder().ge("x", 0).le("x", 50 + i as i64).build();
            sim.schedule_cmd(SimTime(0), id, ClientOp::Subscribe(band));
            let plan = MovementPlan {
                destinations: vec![BrokerId(1 + (i % 2) as u32 * 3), home],
                pause: SimDuration::from_millis(40),
                protocol: ProtocolKind::Reconfig,
            };
            sim.install_plan(id, plan, start + SimDuration::from_millis(i));
        }
        let end = start + SimDuration::from_secs(2);
        sim.set_plan_deadline(end);
        for k in 0..400u64 {
            let op = ClientOp::Publish(Publication::new().with("x", (k % 100) as i64));
            sim.schedule_cmd(start + SimDuration::from_millis(5 * k), ClientId(1), op);
        }
        // One `advance` pops at most one event before it pushes any, so
        // the count after each, over both tiers, is the most pending
        // during it.
        let mut peak = sim.queue.len();
        while sim.advance(FOREVER, true).is_some() {
            peak = peak.max(sim.queue.len());
        }
        assert!(sim.events_processed() > 20 * peak as u64, "too short a run");
        assert_eq!(sim.queue.slots(), peak);
        assert_eq!(sim.queue.free_slots(), peak, "every slot is free again");
        assert!(sim.metrics.finished_moves().count() > 300);
        assert_eq!(sim.total_anomalies(), 0);
    }

    fn publish(sim: &mut Sim, x: i64) {
        let op = ClientOp::Publish(Publication::new().with("x", x));
        sim.client_op_deferred(ClientId(2), op);
    }

    /// B1–B2–B3–B4 under the instant model: a publisher at B2
    /// (client 2), a subscriber to 0..=9 at B1 and one to 10..=19 at
    /// B4, which has started moving to B3.
    fn two_sided() -> Sim {
        let band = |lo: i64| Filter::builder().ge("x", lo).le("x", lo + 9).build();
        let mut sim = Sim::builder()
            .overlay(Topology::chain(4))
            .options(MobileBrokerConfig::reconfig())
            .network(NetworkModel::instant())
            .start();
        sim.enable_delivery_log();
        for i in [1, 2, 4] {
            sim.create_client(BrokerId(i), ClientId(i.into()));
        }
        let both = Filter::builder().ge("x", 0).le("x", 19).build();
        sim.client_op(ClientId(2), ClientOp::Advertise(both));
        sim.client_op(ClientId(1), ClientOp::Subscribe(band(0)));
        sim.client_op(ClientId(4), ClientOp::Subscribe(band(10)));
        let to = ClientOp::MoveTo(BrokerId(3), ProtocolKind::Reconfig);
        sim.client_op_deferred(ClientId(4), to);
        sim
    }

    fn digest(sim: &Sim) -> u64 {
        let mut state = std::hash::DefaultHasher::new();
        sim.digest(&mut state);
        state.finish()
    }

    #[test]
    fn running_the_earliest_choice_each_time_is_settle_event_for_event() {
        let build = || {
            let mut sim = two_sided();
            for x in [10, 5, 11] {
                publish(&mut sim, x);
            }
            let op = ClientOp::Publish(Publication::new().with("x", 12));
            sim.schedule_cmd(SimTime::ZERO, ClientId(2), op);
            sim
        };
        let (mut settled, mut chosen) = (build(), build());
        while let Some(&first) = chosen.enabled().first() {
            if matches!(first, Choice::Timer(..)) {
                break;
            }
            chosen.run(first);
            while settled.events_processed() < chosen.events_processed() {
                assert!(settled.advance(FOREVER, false).is_some(), "settle stopped");
            }
            assert_eq!(settled.events_processed(), chosen.events_processed());
            assert_eq!(digest(&settled), digest(&chosen));
            assert_eq!(settled.metrics.delivery_log, chosen.metrics.delivery_log);
        }
        assert_eq!(settled.advance(FOREVER, false), None, "settle runs on");
        assert!(chosen.events_processed() > 20, "too short a run");
        assert_eq!(chosen.metrics.delivery_count, 4);
    }

    #[test]
    fn running_a_later_links_head_first_keeps_every_link_fifo() {
        let mut sim = two_sided();
        let moving = sim.enabled();
        publish(&mut sim, 10); // A1, on B2→B3
        publish(&mut sim, 5); // B1, on B2→B1
        publish(&mut sim, 11); // A2, on B2→B3
        let heads: Vec<Choice> = (sim.enabled().into_iter())
            .filter(|c| !moving.contains(c))
            .collect();
        let [a1, b1] = heads[..] else {
            panic!("one head frame per link, earliest first: {heads:?}");
        };
        assert_eq!(sim.describe(a1), "B2→B3 publish");
        assert_eq!(sim.describe(b1), "B2→B1 publish");
        sim.run(b1);
        assert!(sim.enabled().contains(&a1), "A2 overtook A1 on B2→B3");
        // Latest first from here on, timers aside: each link still runs
        // in send order.
        let latest = |sim: &Sim| {
            let untimed = |c: &Choice| !matches!(c, Choice::Timer(..));
            sim.enabled().into_iter().rfind(untimed)
        };
        while let Some(choice) = latest(&sim) {
            sim.run(choice);
        }
        let seqs: Vec<u64> = (sim.metrics.deliveries_to(ClientId(4)).iter())
            .map(|p| p.0 & 0xffff_ffff)
            .collect();
        assert_eq!(seqs, [0, 2], "A1 then A2");
        assert_eq!(sim.find_client(ClientId(4)), Some(BrokerId(3)));
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
