//! The mobile container: a broker plus movement coordinator.
//!
//! [`MobileBroker`] wraps a [`BrokerCore`] with the paper's *mobile
//! container* (Sec. 4.1): it hosts client stubs, runs the movement
//! coordinator state machines of Fig. 4, and implements both movement
//! protocols:
//!
//! - **Reconfiguration protocol** (the paper's contribution, Sec. 4.2
//!   and 4.4). The conversation of Fig. 3: `negotiate` →
//!   `approve`/`reject` → `state` → `ack`, where the approval doubles
//!   as the hop-by-hop *reconfiguration message* that installs shadow
//!   routing configurations along `RouteS2T`, and the state transfer
//!   doubles as the hop-by-hop *commit pass* that deletes the old
//!   configuration. An `AbortMove` pass rolls everything back.
//!
//! - **Covering protocol** (the traditional end-to-end baseline,
//!   Sec. 2). The source unadvertises/unsubscribes the client's whole
//!   profile (letting the covering optimization quench or cascade as it
//!   may), transfers the profile and execution state to the target,
//!   which reissues everything.
//!
//! Like [`BrokerCore`], a `MobileBroker` is a pure state machine: one
//! input (message, timer, or client command) maps to a list of
//! [`Output`] effects; the simulator and the threaded runtime interpret
//! them.

use std::collections::BTreeMap;
use std::io;
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};
use transmob_broker::{
    BrokerConfig, BrokerCore, BrokerOutput, Destinations, Effects, Hop, PubSubMsg, Topology,
};
use transmob_pubsub::{BrokerId, ClientId, MoveId, PublicationMsg, SubId};

use crate::client_stub::{DeliverOutcome, HostedClient};
use crate::durability::{
    DurabilityLog, DurabilityRecord, LoggedInput, MemoryLog, CHECKPOINT_EVERY,
    DURABILITY_FORMAT_VERSION,
};
use crate::messages::{
    ClientOp, ClientProfile, ClientSnapshot, Message, MoveMsg, Output, ProtocolKind, TimerToken,
};
use crate::persistence::BrokerSnapshot;
use crate::states::{ClientState, SourceCoordState, TargetCoordState};

/// Configuration of a [`MobileBroker`].
#[derive(Debug, Clone)]
pub struct MobileBrokerConfig {
    /// Routing-layer configuration (covering modes).
    pub broker: BrokerConfig,
    /// Whether this broker accepts incoming clients (the paper allows
    /// a target to reject a moving client, e.g. when overloaded).
    pub accept_moves: bool,
    /// Source-side timeout waiting for `approve`/`reject`
    /// (non-blocking 3PC under bounded delay). `None` = blocking
    /// variant: a partitioned or crashed target wedges the source
    /// coordinator (and its paused client) indefinitely, so blocking
    /// is an explicit opt-in via [`MobileBrokerConfig::blocking`].
    pub negotiate_timeout_ns: Option<u64>,
    /// Target-side timeout waiting for `state`. `None` = blocking
    /// variant (opt-in, see [`MobileBrokerConfig::blocking`]). Must
    /// exceed the network's delay bound; see DESIGN.md.
    pub state_timeout_ns: Option<u64>,
    /// Covering-protocol ablation: reissue at the target *before*
    /// retracting at the source (make-before-break), trading duplicate
    /// suppression work for no message loss.
    pub make_before_break: bool,
    /// The failure detector's one deadline: a neighbour whose link the
    /// driver reports down ([`MobileBroker::handle_link`]) and not up
    /// again within this long is declared permanently dead, and the
    /// overlay repairs around it. `None` (the default) never suspects:
    /// every outage is a crash that comes back (the paper's Sec. 3.5
    /// fault model).
    pub suspect_after_ns: Option<u64>,
}

/// Default movement-protocol timeout: far above any simulated or
/// loopback delay bound, far below "wedged forever".
const DEFAULT_MOVE_TIMEOUT_NS: u64 = 30_000_000_000; // 30 s

impl Default for MobileBrokerConfig {
    fn default() -> Self {
        MobileBrokerConfig {
            broker: BrokerConfig::plain(),
            accept_moves: true,
            negotiate_timeout_ns: Some(DEFAULT_MOVE_TIMEOUT_NS),
            state_timeout_ns: Some(DEFAULT_MOVE_TIMEOUT_NS),
            make_before_break: false,
            suspect_after_ns: None,
        }
    }
}

impl MobileBrokerConfig {
    /// Plain routing, reconfiguration-protocol deployment.
    pub fn reconfig() -> Self {
        MobileBrokerConfig::default()
    }

    /// Active covering, covering-protocol deployment.
    pub fn covering() -> Self {
        MobileBrokerConfig {
            broker: BrokerConfig::covering(),
            ..MobileBrokerConfig::default()
        }
    }

    /// The blocking 3PC variant: no protocol timeouts at all. The
    /// paper's base protocol — movements never spuriously abort, but a
    /// crashed or partitioned peer wedges the coordinator until the
    /// peer returns. Opt-in; the default is the non-blocking variant
    /// with 30-second timeouts on both sides.
    pub fn blocking(mut self) -> Self {
        self.negotiate_timeout_ns = None;
        self.state_timeout_ns = None;
        self
    }
}

impl From<BrokerConfig> for MobileBrokerConfig {
    /// A bare routing config under the default movement settings.
    fn from(broker: BrokerConfig) -> Self {
        MobileBrokerConfig {
            broker,
            ..MobileBrokerConfig::default()
        }
    }
}

/// Source-side bookkeeping for one movement transaction
/// (serializable for [`crate::persistence`]; opaque otherwise).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SourceMoveRecord {
    client: ClientId,
    target: BrokerId,
    state: SourceCoordState,
    protocol: ProtocolKind,
    /// Reconfiguration fix-ups performed here (for rollback).
    fixups: Vec<(SubId, BrokerId)>,
}

/// Target-side bookkeeping for one movement transaction
/// (serializable for [`crate::persistence`]; opaque otherwise).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TargetMoveRecord {
    client: ClientId,
    source: BrokerId,
    state: TargetCoordState,
    protocol: ProtocolKind,
}

impl TargetMoveRecord {
    /// The target's answer to a committed transfer of movement `m`:
    /// `Ack` (reconfiguration) or `CovDone` (covering).
    fn done(&self, m: MoveId, target: BrokerId) -> MoveMsg {
        let source = self.source;
        match self.protocol {
            ProtocolKind::Reconfig => MoveMsg::Ack { m, source, target },
            ProtocolKind::Covering => MoveMsg::CovDone { m, source, target },
        }
    }
}

/// Bookkeeping at an intermediate broker on the reconfiguration path
/// (serializable for [`crate::persistence`]; opaque otherwise).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PathMoveRecord {
    fixups: Vec<(SubId, BrokerId)>,
}

/// A broker with its mobile container (coordinator + hosted clients).
///
/// See the module docs for the protocol walk-throughs.
///
/// Cloning a broker with a [`DurabilityLog`] attached shares the log
/// handle (a clone is a replica of the state machine, not of its
/// storage); detach-by-default drivers that clone for benchmarking
/// never attach one.
#[derive(Debug, Clone)]
pub struct MobileBroker {
    core: BrokerCore,
    topology: Arc<Topology>,
    /// Destination → neighbour on the route there
    /// ([`Topology::first_hops`] of this broker): derived from
    /// `topology`, rebuilt where `topology` is assigned or repaired
    /// and nowhere else, so forwarding a movement message is a lookup.
    first_hop: BTreeMap<BrokerId, BrokerId>,
    config: MobileBrokerConfig,
    clients: BTreeMap<ClientId, HostedClient>,
    src_moves: BTreeMap<MoveId, SourceMoveRecord>,
    tgt_moves: BTreeMap<MoveId, TargetMoveRecord>,
    path_moves: BTreeMap<MoveId, PathMoveRecord>,
    next_move_seq: u32,
    anomalies: u64,
    /// Write-ahead durability, if attached (never serialized).
    log: Option<Arc<Mutex<dyn DurabilityLog>>>,
    records_since_checkpoint: u32,
}

impl MobileBroker {
    /// Creates a mobile broker for overlay node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in `topology`.
    pub fn new(id: BrokerId, topology: Arc<Topology>, mut config: MobileBrokerConfig) -> Self {
        assert!(topology.contains(id), "broker {id} not in topology");
        // A cyclic overlay *requires* multi-path forwarding (routing
        // entries hold redundant routes, publications need dedup);
        // turn it on here so every driver constructing through this
        // point gets it without opting in. Trees keep the bit as
        // configured (default off: single-path, zero dedup cost).
        config.broker.multipath |= !topology.is_tree();
        let neighbors = topology.neighbors(id).iter().copied();
        MobileBroker {
            core: BrokerCore::new(id, neighbors, config.broker),
            first_hop: topology.first_hops(id),
            topology,
            config,
            clients: BTreeMap::new(),
            src_moves: BTreeMap::new(),
            tgt_moves: BTreeMap::new(),
            path_moves: BTreeMap::new(),
            next_move_seq: 0,
            anomalies: 0,
            log: None,
            records_since_checkpoint: 0,
        }
    }

    /// This broker's id.
    pub fn id(&self) -> BrokerId {
        self.core.id()
    }

    /// The wrapped routing core (tests and property checkers).
    pub fn core(&self) -> &BrokerCore {
        &self.core
    }

    /// The overlay topology as this broker currently sees it. Brokers
    /// start from a shared handle; an overlay repair
    /// ([`MobileBroker::handle_broker_death`]) mutates the local copy.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// A hosted client stub, if present.
    pub fn client(&self, id: ClientId) -> Option<&HostedClient> {
        self.clients.get(&id)
    }

    /// Iterates the hosted clients.
    pub fn clients(&self) -> impl Iterator<Item = (&ClientId, &HostedClient)> {
        self.clients.iter()
    }

    /// Count of tolerated protocol anomalies (tests assert zero on
    /// healthy runs).
    pub fn anomalies(&self) -> u64 {
        self.anomalies
    }

    /// This broker's source-coordinator state (Fig. 4) for movement
    /// `m`, while it keeps a record: `Wait` or `Prepare`. The record
    /// goes when the movement finishes, committed or aborted.
    pub fn source_state(&self, m: MoveId) -> Option<SourceCoordState> {
        self.src_moves.get(&m).map(|r| r.state)
    }

    /// This broker's target-coordinator state (Fig. 4) for movement
    /// `m`, if it keeps a record. A target that rejects the movement
    /// keeps none.
    pub fn target_state(&self, m: MoveId) -> Option<TargetCoordState> {
        self.tgt_moves.get(&m).map(|r| r.state)
    }

    /// This broker's configuration, as set at construction and by
    /// [`MobileBroker::set_accept_moves`].
    pub fn config(&self) -> &MobileBrokerConfig {
        &self.config
    }

    /// Creates (attaches and starts) a fresh client at this broker.
    pub fn create_client(&mut self, id: ClientId) {
        self.input(LoggedInput::CreateClient { client: id }, &mut Vec::new());
    }

    // ================= external inputs ================================

    /// The one way a single external input enters the broker: appended
    /// write-ahead to the attached log (if any), applied, then the
    /// checkpoint rule. Handlers that re-issue a client command call
    /// `client_op_apply` instead, so replay does not run it twice.
    fn input(&mut self, input: LoggedInput, out: &mut Vec<Output>) {
        if let Some(log) = &self.log {
            log.lock()
                .expect("durability log poisoned")
                .append(&DurabilityRecord::new(input.clone()))
                .expect("durability append failed: refusing to run ahead of the log");
            self.records_since_checkpoint += 1;
        }
        self.apply(input, out);
        self.checkpoint_if_due();
    }

    /// Applies one external input, unlogged, appending its effects to
    /// `out`: [`MobileBroker::input`] and recovery replay both go
    /// through here.
    fn apply(&mut self, input: LoggedInput, out: &mut Vec<Output>) {
        match input {
            LoggedInput::Message { from, msg } => self.apply_messages(from, [msg], out),
            LoggedInput::ClientOp { client, op } => self.client_op_apply(client, op, out),
            LoggedInput::Timer { token } => self.handle_timer_apply(token, out),
            LoggedInput::CreateClient { client } => {
                self.clients.insert(client, HostedClient::started(client));
                self.core.attach_client(client);
            }
            LoggedInput::BrokerDeath { dead } => self.broker_death_apply(dead, out),
        }
    }

    /// Checkpoints once [`CHECKPOINT_EVERY`] inputs were logged since
    /// the last checkpoint (never without a log: nothing is counted).
    fn checkpoint_if_due(&mut self) {
        if self.records_since_checkpoint >= CHECKPOINT_EVERY {
            self.checkpoint_now()
                .expect("durability checkpoint failed: refusing to run ahead of the log");
        }
    }

    // ================= durability =====================================

    /// Attaches a write-ahead [`DurabilityLog`]: the broker immediately
    /// checkpoints its current state into it (the recovery base), then
    /// appends every external input before applying it and checkpoints
    /// again every [`CHECKPOINT_EVERY`] inputs.
    ///
    /// # Errors
    ///
    /// Propagates the initial checkpoint's storage error; on error the
    /// log is not attached.
    pub fn attach_durability(&mut self, log: Arc<Mutex<dyn DurabilityLog>>) -> std::io::Result<()> {
        {
            let snapshot = self.snapshot();
            let mut guard = log.lock().expect("durability log poisoned");
            guard.checkpoint(&snapshot)?;
        }
        self.records_since_checkpoint = 0;
        self.log = Some(log);
        Ok(())
    }

    /// Forces a checkpoint (snapshot + log truncation) now. No-op
    /// without an attached log.
    ///
    /// # Errors
    ///
    /// Propagates storage errors; the previous checkpoint stays valid.
    pub fn checkpoint_now(&mut self) -> std::io::Result<()> {
        let Some(log) = self.log.clone() else {
            return Ok(());
        };
        let snapshot = self.snapshot();
        log.lock()
            .expect("durability log poisoned")
            .checkpoint(&snapshot)?;
        self.records_since_checkpoint = 0;
        Ok(())
    }

    /// Rebuilds a broker from its last checkpoint plus the inputs
    /// logged since, then re-arms the timers any in-flight movement
    /// needs: a source coordinator recovered in `Wait` gets its
    /// negotiate timer back, a target coordinator recovered in
    /// `Prepare` its state timer — without them a movement whose
    /// messages died with the crash would wedge instead of aborting.
    ///
    /// Replay applies each record through the one function live inputs
    /// go through, one record at a time, and discards the regenerated
    /// outputs (the pre-crash execution already emitted them;
    /// at-least-once redelivery of the ones the crash destroyed is the
    /// driver's concern). The recovered broker has no log attached —
    /// call [`MobileBroker::attach_durability`] again to resume logging
    /// (which re-checkpoints, establishing the new base), or rebuild
    /// with [`MobileBroker::recover_from_log`], which does both.
    ///
    /// Returns the broker and the `SetTimer` outputs to arm.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint's broker id is not in `topology` or a
    /// record's version tag is not [`DURABILITY_FORMAT_VERSION`].
    pub fn recover(
        topology: Arc<Topology>,
        config: MobileBrokerConfig,
        checkpoint: BrokerSnapshot,
        records: Vec<DurabilityRecord>,
    ) -> (MobileBroker, Vec<Output>) {
        let mut broker = MobileBroker::restore(topology, config, checkpoint);
        let mut discarded = Vec::new();
        for rec in records {
            assert_eq!(
                rec.v, DURABILITY_FORMAT_VERSION,
                "unknown durability record version {}",
                rec.v
            );
            broker.apply(rec.input, &mut discarded);
            discarded.clear();
        }
        let timers = broker.rearm_timers();
        (broker, timers)
    }

    /// Rebuilds a broker from `log` after a state-loss crash:
    /// [`MobileBroker::recover`] from its checkpoint and records, moved
    /// out of the log rather than copied, then the same log re-attached
    /// (a fresh checkpoint of the rebuilt state takes their place).
    ///
    /// Returns the broker and the `SetTimer` outputs to arm.
    ///
    /// # Errors
    ///
    /// `InvalidData` if the log holds no checkpoint (it was never
    /// attached), or the re-attaching checkpoint's storage error.
    pub fn recover_from_log(
        topology: Arc<Topology>,
        config: MobileBrokerConfig,
        log: Arc<Mutex<MemoryLog>>,
    ) -> io::Result<(MobileBroker, Vec<Output>)> {
        let (checkpoint, records) = log
            .lock()
            .map_err(|_| io::Error::other("durability log poisoned"))?
            .take()
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    "durability log holds no checkpoint",
                )
            })?;
        let (mut broker, timers) = MobileBroker::recover(topology, config, checkpoint, records);
        broker.attach_durability(log)?;
        Ok((broker, timers))
    }

    /// The `SetTimer` outputs an in-flight movement needs after
    /// recovery (timers are volatile — they die with the process).
    fn rearm_timers(&self) -> Vec<Output> {
        let mut out = Vec::new();
        if let Some(delay_ns) = self.config.negotiate_timeout_ns {
            for (m, rec) in &self.src_moves {
                if rec.state == SourceCoordState::Wait {
                    out.push(Output::SetTimer {
                        token: TimerToken::Negotiate(*m),
                        delay_ns,
                    });
                }
            }
        }
        if let Some(delay_ns) = self.config.state_timeout_ns {
            for (m, rec) in &self.tgt_moves {
                if rec.state == TargetCoordState::Prepare {
                    out.push(Output::SetTimer {
                        token: TimerToken::State(*m),
                        delay_ns,
                    });
                }
            }
        }
        out
    }

    /// Sets whether this broker accepts incoming clients (the paper's
    /// target-side admission decision — e.g. an overloaded broker
    /// rejects movers). Used by tests and experiments to exercise the
    /// reject path.
    pub fn set_accept_moves(&mut self, accept: bool) {
        self.config.accept_moves = accept;
    }

    /// Movement bookkeeping snapshot (persistence support).
    pub(crate) fn moves_snapshot(&self) -> crate::persistence::MovesSnapshot {
        crate::persistence::MovesSnapshot {
            src: self
                .src_moves
                .iter()
                .map(|(m, r)| (*m, r.clone()))
                .collect(),
            tgt: self
                .tgt_moves
                .iter()
                .map(|(m, r)| (*m, r.clone()))
                .collect(),
            path: self
                .path_moves
                .iter()
                .map(|(m, r)| (*m, r.clone()))
                .collect(),
        }
    }

    /// Movement-id counter (persistence support).
    pub(crate) fn next_move_seq_value(&self) -> u32 {
        self.next_move_seq
    }

    /// Reconstructs a broker from persisted parts (persistence
    /// support; see [`crate::persistence::BrokerSnapshot`]).
    pub(crate) fn from_parts(
        core: BrokerCore,
        topology: Arc<Topology>,
        config: MobileBrokerConfig,
        clients: BTreeMap<ClientId, HostedClient>,
        moves: crate::persistence::MovesSnapshot,
        next_move_seq: u32,
    ) -> Self {
        MobileBroker {
            first_hop: topology.first_hops(core.id()),
            core,
            topology,
            config,
            clients,
            src_moves: moves.src.into_iter().collect(),
            tgt_moves: moves.tgt.into_iter().collect(),
            path_moves: moves.path.into_iter().collect(),
            next_move_seq,
            anomalies: 0,
            log: None,
            records_since_checkpoint: 0,
        }
    }

    fn route_next(&self, to: BrokerId) -> BrokerId {
        self.try_route_next(to)
            .expect("destination must be another broker in the topology")
    }

    /// Next hop toward `to`, or `None` when `to` is this broker or has
    /// fallen out of the (possibly repaired) overlay. Movement
    /// forwarding uses this so a broker death mid-protocol drops the
    /// message instead of panicking; the endpoints' own death handling
    /// resolves the transaction.
    fn try_route_next(&self, to: BrokerId) -> Option<BrokerId> {
        let next = self.first_hop.get(&to).copied();
        debug_assert_eq!(
            next,
            self.topology.next_hop(self.id(), to),
            "first-hop row diverged from the overlay's route"
        );
        next
    }

    /// Hands one routing-layer message to the core, whose effects land
    /// at the end of `out` as driver effects, each built once.
    fn route(&mut self, from: Hop, msg: PubSubMsg, out: &mut Vec<Output>) {
        let sink = &mut Absorb::new(&mut self.clients, out);
        self.core.handle_into(from, msg, sink);
    }

    // ================= client commands ================================

    /// Executes (or queues) an application command on a hosted client.
    ///
    /// # Panics
    ///
    /// Panics if the client is not hosted here (drivers address
    /// commands to the client's current broker).
    ///
    /// Every driver calls [`MobileBroker::client_op_into`]; this
    /// `Vec`-returning form is left for tests and the end-to-end
    /// benchmark's replay, and the benchmark PR of ROADMAP item 2 may
    /// delete it.
    pub fn client_op(&mut self, client: ClientId, op: ClientOp) -> Vec<Output> {
        let mut out = Vec::new();
        self.client_op_into(client, op, &mut out);
        out
    }

    /// [`MobileBroker::client_op`], appending the effects to `out`, a
    /// buffer the driver keeps from one step to the next.
    pub fn client_op_into(&mut self, client: ClientId, op: ClientOp, out: &mut Vec<Output>) {
        self.input(LoggedInput::ClientOp { client, op }, out);
    }

    fn client_op_apply(&mut self, client: ClientId, op: ClientOp, out: &mut Vec<Output>) {
        let stub = self
            .clients
            .get_mut(&client)
            .expect("client not hosted at this broker");
        if stub.state().queues_commands()
            || (stub.state() == ClientState::PauseOper
                && !matches!(
                    op,
                    ClientOp::Resume | ClientOp::MoveTo(..) | ClientOp::Pause
                ))
        {
            stub.queue_op(op);
            return;
        }
        let from = Hop::Client(client);
        match op {
            ClientOp::Subscribe(filter) => {
                let s = stub.new_subscription(filter);
                self.route(from, PubSubMsg::Subscribe(s), out);
            }
            ClientOp::Unsubscribe(seq) => match stub.remove_subscription(seq) {
                Some(s) => self.route(from, PubSubMsg::Unsubscribe(s.id), out),
                None => self.anomalies += 1,
            },
            ClientOp::Advertise(filter) => {
                let a = stub.new_advertisement(filter);
                self.route(from, PubSubMsg::Advertise(a), out);
            }
            ClientOp::Unadvertise(seq) => match stub.remove_advertisement(seq) {
                Some(a) => self.route(from, PubSubMsg::Unadvertise(a.id), out),
                None => self.anomalies += 1,
            },
            ClientOp::Publish(content) => {
                let p = PublicationMsg::new(stub.next_pub_id(), client, content);
                self.route(from, PubSubMsg::Publish(p), out);
            }
            ClientOp::Pause => {
                // started | pause_oper → pause_oper (idempotent).
                stub.set_state(ClientState::PauseOper);
            }
            ClientOp::Resume => {
                if stub.state() == ClientState::PauseOper {
                    self.resume_client(client, out);
                }
            }
            ClientOp::MoveTo(to, protocol) => self.start_move(client, to, protocol, out),
        }
    }

    fn fresh_move_id(&mut self) -> MoveId {
        let m = MoveId((u64::from(self.id().0) << 32) | u64::from(self.next_move_seq));
        self.next_move_seq += 1;
        m
    }

    fn start_move(
        &mut self,
        client: ClientId,
        to: BrokerId,
        protocol: ProtocolKind,
        out: &mut Vec<Output>,
    ) {
        if to == self.id() || !self.topology.contains(to) {
            // Degenerate movement: nothing to do (or unknown target).
            let m = self.fresh_move_id();
            out.push(Output::MoveFinished {
                m,
                client,
                committed: to == self.id(),
            });
            return;
        }
        let m = self.fresh_move_id();
        // unwrap: caller contract of client_op — the stub exists
        let stub = self.clients.get_mut(&client).unwrap();
        stub.set_state(ClientState::PauseMove);
        let profile = stub.profile();
        self.src_moves.insert(
            m,
            SourceMoveRecord {
                client,
                target: to,
                state: SourceCoordState::Wait,
                protocol,
                fixups: Vec::new(),
            },
        );
        let msg = match protocol {
            ProtocolKind::Reconfig => MoveMsg::Negotiate {
                m,
                client,
                source: self.id(),
                target: to,
                profile,
                protocol,
            },
            ProtocolKind::Covering => MoveMsg::CovRequest {
                m,
                client,
                source: self.id(),
                target: to,
            },
        };
        out.push(Output::Send {
            to: self.route_next(to),
            msg: msg.into(),
        });
        if let Some(delay_ns) = self.config.negotiate_timeout_ns {
            out.push(Output::SetTimer {
                token: TimerToken::Negotiate(m),
                delay_ns,
            });
        }
    }

    // ================= message handling ===============================

    /// Handles one incoming message from a neighbouring broker.
    pub fn handle(&mut self, from: Hop, msg: Message) -> Vec<Output> {
        let mut out = Vec::new();
        self.input(LoggedInput::Message { from, msg }, &mut out);
        out
    }

    /// Handles a batch of incoming messages that arrived together from
    /// one hop, in order.
    ///
    /// Defined as the sequential fold of [`MobileBroker::handle`]: the
    /// outputs are the concatenation, in order, of what per-message
    /// handling would emit. Batching buys one amortization: the whole
    /// batch is logged with one [`DurabilityLog::append_batch`] call
    /// (one flush on file-backed logs; the records stay individual, so
    /// crash recovery can still replay a prefix). Thin wrapper over
    /// [`MobileBroker::handle_batch_into`], which every driver calls;
    /// this form is left for tests and the end-to-end benchmark's
    /// replay, and the benchmark PR of ROADMAP item 2 may delete it.
    pub fn handle_batch(&mut self, from: Hop, msgs: Vec<Message>) -> Vec<Output> {
        let mut out = Vec::new();
        self.handle_batch_into(from, msgs, &mut out);
        out
    }

    /// [`MobileBroker::handle_batch`], appending the effects to `out`,
    /// a buffer the driver keeps from one step to the next: the step's
    /// effects are written there once, as they are made, and a pub/sub
    /// message's go straight from the routing core into it. Logs the
    /// batch write-ahead through one [`DurabilityLog::append_batch`]
    /// call, applies it, then runs the checkpoint rule: `input` for a
    /// whole batch.
    pub fn handle_batch_into(&mut self, from: Hop, msgs: Vec<Message>, out: &mut Vec<Output>) {
        if msgs.is_empty() {
            return;
        }
        if let Some(log) = &self.log {
            let records: Vec<DurabilityRecord> = (msgs.iter())
                .map(|msg| {
                    DurabilityRecord::new(LoggedInput::Message {
                        from,
                        msg: msg.clone(),
                    })
                })
                .collect();
            log.lock()
                .expect("durability log poisoned")
                .append_batch(&records)
                .expect("durability append failed: refusing to run ahead of the log");
            self.records_since_checkpoint += records.len() as u32;
        }
        self.apply_messages(from, msgs, out);
        self.checkpoint_if_due();
    }

    /// No driver calls this; ROADMAP item 2's first PR deletes it.
    ///
    /// The routing core's destinations for each publication of `msgs`,
    /// in order, against the current routing state
    /// ([`transmob_broker::Prt::destinations`]): what the end-to-end
    /// benchmark's replay prices as its match stage.
    #[doc(hidden)]
    pub fn prematch(&self, msgs: &[Message]) -> Vec<Destinations> {
        (msgs.iter())
            .filter_map(|m| match m {
                Message::PubSub(PubSubMsg::Publish(p)) => {
                    Some(self.core.prt().destinations(&p.content))
                }
                _ => None,
            })
            .collect()
    }

    /// No driver calls this; ROADMAP item 2's first PR deletes it.
    ///
    /// [`MobileBroker::handle_batch`], the destinations of
    /// [`MobileBroker::prematch`] ignored.
    #[doc(hidden)]
    pub fn handle_batch_prematched(
        &mut self,
        from: Hop,
        msgs: Vec<Message>,
        _prematched: Vec<Destinations>,
    ) -> Vec<Output> {
        self.handle_batch(from, msgs)
    }

    /// Applies messages from one hop in order, unlogged: a pub/sub
    /// message goes through the routing core, each other message
    /// through its handler.
    fn apply_messages(
        &mut self,
        from: Hop,
        msgs: impl IntoIterator<Item = Message>,
        out: &mut Vec<Output>,
    ) {
        for msg in msgs {
            match msg {
                Message::PubSub(p) => self.route(from, p, out),
                Message::Move(mv) => self.handle_move(from, mv, out),
                Message::BrokerDeath { dead } => self.broker_death_apply(dead, out),
            }
        }
    }

    /// Sends a routed movement message one hop toward its destination,
    /// in the box it arrived in, if it arrived.
    fn forward_move(&mut self, msg: impl Into<Box<MoveMsg>>, out: &mut Vec<Output>) {
        let msg = msg.into();
        match self.try_route_next(msg.destination()) {
            Some(next) => out.push(Output::Send {
                to: next,
                msg: Message::Move(msg),
            }),
            None => {
                // The destination fell out of the overlay (broker
                // death): drop the message; the endpoints' death
                // handling resolves the transaction.
                self.anomalies += 1;
            }
        }
    }

    fn handle_move(&mut self, from: Hop, msg: Box<MoveMsg>, out: &mut Vec<Output>) {
        // Routed messages are only acted on at their destination.
        if !msg.is_hop_by_hop() && msg.destination() != self.id() {
            return self.forward_move(msg, out);
        }
        match *msg {
            // The hop-by-hop messages walk on in their box.
            MoveMsg::Reconfigure { .. } => self.on_reconfigure(from, msg, out),
            MoveMsg::StateTransfer { .. } => self.on_state_transfer(msg, out),
            MoveMsg::AbortMove { .. } => self.on_abort_move(msg, out),
            MoveMsg::Negotiate { .. } | MoveMsg::CovRequest { .. } => self.on_request(msg, out),
            MoveMsg::Reject { m, .. } => self.on_reject(m, out),
            MoveMsg::Ack { m, .. } | MoveMsg::CovDone { m, .. } => self.on_done(m, out),
            MoveMsg::CovAccept { m, .. } => self.on_cov_accept(m, out),
            MoveMsg::CovTransfer {
                m,
                client,
                profile,
                snapshot,
                ..
            } => self.on_cov_transfer(m, client, profile, snapshot, out),
        }
    }

    // ----- target side: Init → Prepare ---------------------------------

    /// A movement request at its target, `Negotiate` (with the profile
    /// to shadow-install) or `CovRequest`: Init → Prepare, answered
    /// with `Reconfigure` or `CovAccept`, or a `Reject` when this
    /// broker takes no movers. The answer leaves in the request's box.
    fn on_request(&mut self, mut msg: Box<MoveMsg>, out: &mut Vec<Output>) {
        let (m, client, source, target, protocol, profile) = match &mut *msg {
            MoveMsg::Negotiate {
                m,
                client,
                source,
                target,
                profile,
                protocol,
            } => (
                *m,
                *client,
                *source,
                *target,
                *protocol,
                Some(std::mem::take(profile)),
            ),
            MoveMsg::CovRequest {
                m,
                client,
                source,
                target,
            } => (*m, *client, *source, *target, ProtocolKind::Covering, None),
            _ => unreachable!("dispatched on the variant"),
        };
        debug_assert_eq!(target, self.id());
        if !self.config.accept_moves {
            *msg = MoveMsg::Reject { m, source, target };
            return self.forward_move(msg, out);
        }
        if self.tgt_moves.contains_key(&m) {
            // Duplicate request (wire duplication, or a retransmit
            // replayed from a recovered peer's queue): the first one
            // already answered and armed the state timer, and the
            // transaction may have progressed past Prepare. Running it
            // again would wipe whatever the copy has buffered during
            // the prepare window.
            self.anomalies += 1;
            return;
        }
        let reply = match profile {
            Some(profile) => {
                let Some(back) = self.try_route_next(source) else {
                    // The source died while its negotiate was in
                    // flight: there is no coordinator left to converse
                    // with.
                    self.anomalies += 1;
                    return;
                };
                // Create the client copy (state `Created`) and install
                // the shadow routing configuration at the target
                // itself: the client's entries will point at the local
                // client, so nothing is pulled.
                let copy = HostedClient::created_from_profile(client, &profile);
                self.clients.insert(client, copy);
                self.core.attach_client(client);
                self.install_shadows(m, &profile, Hop::Client(client), Some(back), out);
                MoveMsg::Reconfigure {
                    m,
                    client,
                    source,
                    target,
                    profile,
                }
            }
            None => MoveMsg::CovAccept { m, source, target },
        };
        self.tgt_moves.insert(
            m,
            TargetMoveRecord {
                client,
                source,
                state: TargetCoordState::Prepare,
                protocol,
            },
        );
        *msg = reply;
        self.forward_move(msg, out);
        if let Some(delay_ns) = self.config.state_timeout_ns {
            out.push(Output::SetTimer {
                token: TimerToken::State(m),
                delay_ns,
            });
        }
    }

    // ----- reconfiguration message, walked target → source ------------

    /// `Reconfigure` at a path broker or at the source; `msg` walks on
    /// toward the source in its box.
    fn on_reconfigure(&mut self, from: Hop, mut msg: Box<MoveMsg>, out: &mut Vec<Output>) {
        let MoveMsg::Reconfigure {
            m,
            client,
            source,
            target,
            ref profile,
        } = *msg
        else {
            unreachable!("dispatched on the variant")
        };
        let Hop::Broker(frm) = from else {
            self.anomalies += 1;
            return;
        };
        if self.id() == source {
            let Some(snapshot) =
                self.on_reconfigure_at_source(frm, m, client, target, profile, out)
            else {
                return;
            };
            // Message (4) leaves in the box message (2) came in.
            *msg = MoveMsg::StateTransfer {
                m,
                client,
                source,
                target,
                snapshot,
            };
            out.push(Output::Send {
                to: frm,
                msg: Message::Move(msg),
            });
            return;
        }
        // Intermediate broker: install shadow configuration pointing at
        // the target direction, perform the Sec. 4.4 PRT fix-ups, and
        // walk on toward the source.
        let Some(back) = self.try_route_next(source) else {
            // The source died while the reconfiguration message was
            // walking toward it; the target's state timer aborts the
            // movement.
            self.anomalies += 1;
            return;
        };
        let fixups = self.install_shadows(m, profile, Hop::Broker(frm), Some(back), out);
        self.path_moves.insert(m, PathMoveRecord { fixups });
        out.push(Output::Send {
            to: back,
            msg: Message::Move(msg),
        });
    }

    /// Installs movement `m`'s shadow configuration of `profile`: the
    /// client's entries will point at `to`, and `back` is the next hop
    /// toward the source (`None` at the source itself). Toward a
    /// neighbour, the pull rule runs for each advertisement. Returns
    /// the subscriptions it put on that link (the Sec. 4.4 fix-ups,
    /// kept for rollback); what it sent lands in `out`.
    fn install_shadows(
        &mut self,
        m: MoveId,
        profile: &ClientProfile,
        to: Hop,
        back: Option<BrokerId>,
        out: &mut Vec<Output>,
    ) -> Vec<(SubId, BrokerId)> {
        for s in &profile.subs {
            self.core.install_pending_sub(s, m, to, back);
        }
        let mut fixups = Vec::new();
        for a in &profile.advs {
            self.core.install_pending_adv(a, m, to, back);
            if let Hop::Broker(n) = to {
                let sink = &mut Absorb::new(&mut self.clients, out);
                let pulled = self.core.pull_subs_toward(a.id, n, sink);
                fixups.extend(pulled.into_iter().map(|sid| (sid, n)));
            }
        }
        fixups
    }

    // ----- source side: Wait → Prepare ----------------------------------

    /// `Reconfigure` at the source: installs the shadows, takes the
    /// client's snapshot and commits the local hop. Returns the
    /// snapshot that message (4) carries to `frm`, or `None` when no
    /// commit pass is due.
    fn on_reconfigure_at_source(
        &mut self,
        frm: BrokerId,
        m: MoveId,
        client: ClientId,
        target: BrokerId,
        profile: &ClientProfile,
        out: &mut Vec<Output>,
    ) -> Option<ClientSnapshot> {
        let source = self.id();
        match self.source_state(m) {
            Some(SourceCoordState::Wait) => {}
            None => {
                // We already gave up on this movement (timeout): undo
                // the reconfiguration along the path.
                self.abort_pass(m, client, source, target, target, out);
                return None;
            }
            Some(_) => {
                self.anomalies += 1;
                return None;
            }
        }
        // Install the shadow configuration at the source: entries flip
        // from the local client to the path toward the target.
        let fixups = self.install_shadows(m, profile, Hop::Broker(frm), None, out);
        let snapshot = self.prepare_source(m, fixups);
        // Local hop of the commit pass, then (at the caller) `state`
        // (message (4)), which commits hop-by-hop on its way to the
        // target.
        self.core
            .commit_move(m, &mut Absorb::new(&mut self.clients, out));
        out.push(Output::CancelTimer {
            token: TimerToken::Negotiate(m),
        });
        Some(snapshot)
    }

    fn on_cov_accept(&mut self, m: MoveId, out: &mut Vec<Output>) {
        if self.source_state(m) != Some(SourceCoordState::Wait) {
            self.anomalies += 1;
            return;
        }
        let snapshot = self.prepare_source(m, Vec::new());
        let rec = &self.src_moves[&m];
        let (client, target) = (rec.client, rec.target);
        let profile = self.clients[&client].profile();
        out.push(Output::CancelTimer {
            token: TimerToken::Negotiate(m),
        });
        if !self.config.make_before_break {
            // Traditional order: retract everything at the source
            // first. The covering optimization now quenches or
            // cascades as the workload dictates.
            self.route_profile(client, &profile, false, out);
        }
        let transfer = MoveMsg::CovTransfer {
            m,
            client,
            source: self.id(),
            target,
            profile,
            snapshot,
        };
        self.forward_move(transfer, out);
    }

    /// Source Wait → Prepare for a record its caller found waiting:
    /// keeps the fix-ups made here for rollback, and stops the moving
    /// client (`pause_move` → `prepare_stop`) to capture its state.
    fn prepare_source(&mut self, m: MoveId, fixups: Vec<(SubId, BrokerId)>) -> ClientSnapshot {
        // unwrap: callers checked that the record waits
        let rec = self.src_moves.get_mut(&m).unwrap();
        rec.state = SourceCoordState::Prepare;
        rec.fixups = fixups;
        // unwrap: the moving client is hosted here until cleanup
        let stub = self.clients.get_mut(&rec.client).unwrap();
        stub.set_state(ClientState::PrepareStop);
        stub.take_snapshot()
    }

    // ----- commit: the state reaches the target --------------------------

    /// `StateTransfer` at a path broker, which commits and passes `msg`
    /// on in its box, or at the target.
    fn on_state_transfer(&mut self, msg: Box<MoveMsg>, out: &mut Vec<Output>) {
        let MoveMsg::StateTransfer {
            m,
            client,
            source,
            target,
            ..
        } = *msg
        else {
            unreachable!("dispatched on the variant")
        };
        if self.id() != target {
            // Intermediate broker: commit the shadow configuration and
            // walk on. If the target died mid-commit, the committed
            // hops stay consistent with the ones behind us; the
            // source's death handling resurrects the client.
            self.core
                .commit_move(m, &mut Absorb::new(&mut self.clients, out));
            self.path_moves.remove(&m);
            return self.forward_move(msg, out);
        }
        match self.target_state(m) {
            Some(TargetCoordState::Prepare) => {}
            Some(TargetCoordState::Commit) => {
                // Retransmitted/duplicated commit pass: the transfer
                // already applied. Answering with an abort here would
                // chase the ack down the path and tear a committed
                // movement back open at the source.
                self.anomalies += 1;
                return;
            }
            _ => {
                // Late state after a local abort: the client copy is
                // gone. Undo the commit pass we cannot apply.
                self.anomalies += 1;
                return self.abort_pass(m, client, source, target, source, out);
            }
        }
        let MoveMsg::StateTransfer { snapshot, .. } = *msg else {
            unreachable!("dispatched on the variant")
        };
        self.core
            .commit_move(m, &mut Absorb::new(&mut self.clients, out));
        // unwrap: target-move record in Prepare implies the copy exists
        self.clients
            .get_mut(&client)
            .unwrap()
            .merge_snapshot(snapshot);
        self.commit_target(m, client, out);
    }

    fn on_cov_transfer(
        &mut self,
        m: MoveId,
        client: ClientId,
        profile: ClientProfile,
        snapshot: ClientSnapshot,
        out: &mut Vec<Output>,
    ) {
        match self.target_state(m) {
            Some(TargetCoordState::Prepare) => {}
            Some(TargetCoordState::Commit) => {
                // Late flush: the client already runs here; surface the
                // remaining buffered notifications (dedup applies) and
                // execute commands that straggled in at the source.
                if self.clients.contains_key(&client) {
                    for p in snapshot.buffered {
                        // unwrap: presence checked just above and
                        // client_op below never removes the stub
                        let stub = self.clients.get_mut(&client).unwrap();
                        if stub.deliver(&p) == DeliverOutcome::Surfaced {
                            out.push(Output::DeliverToApp {
                                client,
                                publication: p,
                            });
                        }
                    }
                    for op in snapshot.queued_ops {
                        self.client_op_apply(client, op, out);
                    }
                }
                return;
            }
            _ => {
                self.anomalies += 1;
                return;
            }
        }
        let mut copy = HostedClient::created_from_profile(client, &profile);
        copy.merge_snapshot(snapshot);
        self.clients.insert(client, copy);
        self.core.attach_client(client);
        // Reissue the profile at the target: normal propagation, with
        // whatever covering behaviour the broker network is configured
        // for.
        self.route_profile(client, &profile, true, out);
        self.commit_target(m, client, out);
    }

    /// Target Prepare → Commit, once the copy holds the transferred
    /// state: starts the copy (buffered notifications surface, queued
    /// commands run), disarms the state timer and answers the source.
    fn commit_target(&mut self, m: MoveId, client: ClientId, out: &mut Vec<Output>) {
        let target = self.id();
        // unwrap: callers checked the record is in Prepare
        let rec = self.tgt_moves.get_mut(&m).unwrap();
        rec.state = TargetCoordState::Commit;
        let done = rec.done(m, target);
        out.push(Output::CancelTimer {
            token: TimerToken::State(m),
        });
        out.push(Output::ClientArrived { m, client });
        // The answer leaves before anything the resumed client does: a
        // movement it queued back to the source then reaches the
        // source behind the answer, after the old copy is gone.
        self.forward_move(done, out);
        self.resume_client(client, out);
    }

    /// `Ack` (reconfiguration) or `CovDone` (covering): the target runs
    /// the client.
    fn on_done(&mut self, m: MoveId, out: &mut Vec<Output>) {
        let Some(rec) = self.src_moves.remove(&m) else {
            self.anomalies += 1;
            return;
        };
        if rec.protocol == ProtocolKind::Covering && self.config.make_before_break {
            // Retract the profile only now that the target runs; the
            // notifications buffered here in the meantime ship in the
            // late transfer.
            let profile = (self.clients.get(&rec.client))
                .map(HostedClient::profile)
                .unwrap_or_default();
            self.route_profile(rec.client, &profile, false, out);
        }
        self.commit_source(m, rec, out);
    }

    /// Source Prepare → Commit, for a record its caller removed. Client:
    /// `prepare_stop` → `clean`, and the container drops it. Anything
    /// that reached the source copy *after* the snapshot was taken
    /// (commands issued by a slow application, notifications still in
    /// flight) is flushed to the target in a late transfer; the
    /// target's dedup suppresses what it already has.
    fn commit_source(&mut self, m: MoveId, rec: SourceMoveRecord, out: &mut Vec<Output>) {
        debug_assert_eq!(rec.state, SourceCoordState::Prepare);
        if let Some(mut stub) = self.clients.remove(&rec.client) {
            let late = stub.take_snapshot();
            if !late.buffered.is_empty() || !late.queued_ops.is_empty() {
                let transfer = MoveMsg::CovTransfer {
                    m,
                    client: rec.client,
                    source: self.id(),
                    target: rec.target,
                    profile: ClientProfile::default(),
                    snapshot: late,
                };
                self.forward_move(transfer, out);
            }
        }
        self.core.detach_client(rec.client);
        out.push(Output::MoveFinished {
            m,
            client: rec.client,
            committed: true,
        });
    }

    // ----- abort ---------------------------------------------------------

    fn on_reject(&mut self, m: MoveId, out: &mut Vec<Output>) {
        let Some(rec) = self.src_moves.remove(&m) else {
            self.anomalies += 1;
            return;
        };
        self.abort_source(m, rec, out);
    }

    /// One hop of the abort pass: every broker it crosses rolls back,
    /// and the endpoint it runs `toward` aborts its coordinator; `msg`
    /// walks on in its box.
    fn on_abort_move(&mut self, msg: Box<MoveMsg>, out: &mut Vec<Output>) {
        let MoveMsg::AbortMove {
            m,
            client,
            source,
            toward,
            ..
        } = *msg
        else {
            unreachable!("dispatched on the variant")
        };
        if self.id() == toward {
            if toward == source {
                if let Some(rec) = self.src_moves.remove(&m) {
                    return self.abort_source(m, rec, out);
                }
            } else if let Some(state) = self.target_state(m) {
                if state != TargetCoordState::Commit {
                    return self.abort_target(m, client, out);
                }
                // A stale abort (e.g. triggered by a duplicated
                // negotiate replay at the source after cleanup) must
                // not destroy a copy that already committed and runs
                // here.
                self.anomalies += 1;
            }
        }
        // Roll back shadow configurations and any fix-ups recorded on
        // the path (a source rolls back its own in `abort_source`).
        let fixups = (self.path_moves.remove(&m))
            .map(|p| p.fixups)
            .unwrap_or_default();
        self.roll_back(m, fixups, out);
        if self.id() != toward {
            self.forward_move(msg, out);
        }
    }

    /// Source Wait/Prepare → Abort, for a record its caller removed:
    /// disarms the negotiate timer (armed only in Wait), rolls back,
    /// makes the client routable here again and resumes it. The caller
    /// sends the abort pass, if one is due.
    fn abort_source(&mut self, m: MoveId, rec: SourceMoveRecord, out: &mut Vec<Output>) {
        if rec.state == SourceCoordState::Wait {
            out.push(Output::CancelTimer {
                token: TimerToken::Negotiate(m),
            });
        }
        self.roll_back(m, rec.fixups, out);
        if rec.state == SourceCoordState::Prepare {
            // The source already flipped its routing away from the
            // local client (commit pass sent, or the covering protocol
            // retracted the profile): plain rollback cannot help
            // because the pendings are gone. Re-issue the profile so
            // the resurrected client is routable again (idempotent:
            // the insert-or-adopt semantics of subscribe/advertise
            // flip surviving entries back toward the client and
            // re-propagate).
            match self.clients.get(&rec.client).map(HostedClient::profile) {
                Some(profile) => self.route_profile(rec.client, &profile, true, out),
                None => self.anomalies += 1,
            }
        }
        self.resume_client(rec.client, out);
        out.push(Output::MoveFinished {
            m,
            client: rec.client,
            committed: false,
        });
    }

    /// Target Prepare → Abort: destroys the client copy, rolls back
    /// and disarms the state timer. The record stays, marked `Abort`;
    /// the caller drops it if it must, and sends the abort pass if one
    /// is due.
    fn abort_target(&mut self, m: MoveId, client: ClientId, out: &mut Vec<Output>) {
        if let Some(rec) = self.tgt_moves.get_mut(&m) {
            rec.state = TargetCoordState::Abort;
        }
        self.clients.remove(&client);
        self.core.detach_client(client);
        self.roll_back(m, Vec::new(), out);
        out.push(Output::CancelTimer {
            token: TimerToken::State(m),
        });
    }

    /// Drops movement `m`'s shadow configurations here and prunes the
    /// subscriptions its fix-ups pulled onto a link.
    fn roll_back(&mut self, m: MoveId, fixups: Vec<(SubId, BrokerId)>, out: &mut Vec<Output>) {
        let sink = &mut Absorb::new(&mut self.clients, out);
        self.core.abort_move(m, sink);
        for (sid, n) in fixups {
            self.core.prune_sub_link(sid, n, sink);
        }
    }

    /// Sends movement `m`'s abort pass on toward `toward`.
    fn abort_pass(
        &mut self,
        m: MoveId,
        client: ClientId,
        source: BrokerId,
        target: BrokerId,
        toward: BrokerId,
        out: &mut Vec<Output>,
    ) {
        let pass = MoveMsg::AbortMove {
            m,
            client,
            source,
            target,
            toward,
        };
        self.forward_move(pass, out);
    }

    /// Starts a paused client here: buffered notifications surface,
    /// queued commands run. Resumes the source's client after an
    /// aborted movement and starts the target's copy on commit.
    fn resume_client(&mut self, client: ClientId, out: &mut Vec<Output>) {
        let Some(stub) = self.clients.get_mut(&client) else {
            self.anomalies += 1;
            return;
        };
        stub.set_state(ClientState::Started);
        for p in stub.flush_buffered() {
            out.push(Output::DeliverToApp {
                client,
                publication: p,
            });
        }
        let ops = stub.drain_ops();
        for op in ops {
            self.client_op_apply(client, op, out);
        }
    }

    /// Issues (`issue`) or retracts a client's whole profile through
    /// the routing layer, as its own commands would: subscriptions
    /// first, then advertisements.
    fn route_profile(
        &mut self,
        client: ClientId,
        profile: &ClientProfile,
        issue: bool,
        out: &mut Vec<Output>,
    ) {
        let subs = profile.subs.iter().map(|s| match issue {
            true => PubSubMsg::Subscribe(s.clone()),
            false => PubSubMsg::Unsubscribe(s.id),
        });
        let advs = profile.advs.iter().map(|a| match issue {
            true => PubSubMsg::Advertise(a.clone()),
            false => PubSubMsg::Unadvertise(a.id),
        });
        for msg in subs.chain(advs) {
            self.route(Hop::Client(client), msg, out);
        }
    }

    // ----- overlay repair ------------------------------------------------

    /// The driver's report that the link to neighbour `peer` went down
    /// (`up == false`) or came back (`up == true`). Down arms the
    /// suspicion timer [`TimerToken::Suspect`] for `peer` at
    /// [`MobileBrokerConfig::suspect_after_ns`]; up cancels it. When
    /// it fires, `peer` is declared dead as by
    /// [`MobileBroker::handle_broker_death`], and the fired timer is
    /// the logged input. A report is not logged: it only arms or
    /// disarms a timer, and timers die with the process.
    ///
    /// Does nothing when suspicion is off or `peer` is not in this
    /// broker's topology (never known, or already excised).
    pub fn handle_link(&mut self, peer: BrokerId, up: bool) -> Vec<Output> {
        let Some(delay_ns) = self.config.suspect_after_ns else {
            return Vec::new();
        };
        if peer == self.id() || !self.topology.contains(peer) {
            return Vec::new();
        }
        let token = TimerToken::Suspect(peer);
        vec![if up {
            Output::CancelTimer { token }
        } else {
            Output::SetTimer { token, delay_ns }
        }]
    }

    /// Declares `dead` permanently failed: repairs the local topology
    /// copy (reconnecting the orphaned subtrees through the dead
    /// broker's smallest-id neighbour), rebuilds the affected routing
    /// state, resolves movement transactions that involved or crossed
    /// the dead broker, and floods the death notice over every
    /// surviving link — including the new repair edges, which is how
    /// the notice crosses between the formerly separated subtrees.
    ///
    /// Idempotent: a broker that already repaired (or never knew
    /// `dead`) does nothing, which terminates the flood. Logged
    /// write-ahead like any other external input; replay re-derives
    /// the repair deterministically from `(topology, dead)`.
    pub fn handle_broker_death(&mut self, dead: BrokerId) -> Vec<Output> {
        let mut out = Vec::new();
        self.input(LoggedInput::BrokerDeath { dead }, &mut out);
        out
    }

    fn broker_death_apply(&mut self, dead: BrokerId, out: &mut Vec<Output>) {
        if dead == self.id() || !self.topology.contains(dead) {
            return;
        }
        // Keep the pre-repair overlay: movement resolution below needs
        // to know which old routes crossed the dead broker.
        let pre = Arc::clone(&self.topology);
        let change = {
            let topo = Arc::make_mut(&mut self.topology);
            match topo.repair(dead) {
                Ok(c) => c,
                Err(_) => {
                    self.anomalies += 1;
                    return;
                }
            }
        };
        let myid = self.id();
        self.first_hop = self.topology.first_hops(myid);
        if self.config.suspect_after_ns.is_some() {
            // A death learned from the flood settles this broker's own
            // suspicion of the same neighbour.
            out.push(Output::CancelTimer {
                token: TimerToken::Suspect(dead),
            });
        }
        let new_peers: Vec<BrokerId> = change
            .added_edges
            .iter()
            .filter_map(|&(a, b)| {
                if a == myid {
                    Some(b)
                } else if b == myid {
                    Some(a)
                } else {
                    None
                }
            })
            .collect();
        let sink = &mut Absorb::new(&mut self.clients, out);
        let doomed = self.core.repair_neighbors(dead, &new_peers, sink);
        // Roll back the shadow configurations of movements whose
        // reconfiguration path came through the dead broker. Endpoints
        // resolve their coordinator records below instead.
        for m in doomed {
            if self.src_moves.contains_key(&m) || self.tgt_moves.contains_key(&m) {
                continue;
            }
            let fixups = self
                .path_moves
                .remove(&m)
                .map(|p| p.fixups)
                .unwrap_or_default();
            self.roll_back(m, fixups, out);
        }
        self.resolve_moves_after_death(dead, &pre, out);
        // Flood the notice over every surviving link.
        for &n in self.topology.neighbors(myid) {
            out.push(Output::Send {
                to: n,
                msg: Message::BrokerDeath { dead },
            });
        }
    }

    /// Resolves this broker's movement coordinator records after
    /// `dead` was removed from the overlay, using the `pre`-repair
    /// topology to decide which transactions crossed it.
    ///
    /// Source side: a movement *toward* the dead broker, or whose path
    /// crossed it, aborts as a negotiate timeout would — except that a
    /// source already in `Prepare` with the *target itself* dead
    /// resurrects the client locally (the copy died with the target,
    /// so the single-instance guarantee holds). A source in `Prepare`
    /// toward a surviving target is left alone: the target resolves it
    /// (re-sent terminal message below, or its state timer).
    ///
    /// Target side: a copy whose source died before transferring state
    /// is destroyed (the original still existed at the source when it
    /// died). For a surviving source whose route crossed the dead
    /// broker, the terminal message we may have lost with it —
    /// `Ack`/`CovDone` after commit, `AbortMove` after a local abort —
    /// is re-sent; both are idempotent at the source.
    fn resolve_moves_after_death(&mut self, dead: BrokerId, pre: &Topology, out: &mut Vec<Output>) {
        let myid = self.id();
        let crossed = |other: BrokerId| {
            other == dead || pre.route(myid, other).is_some_and(|r| r.contains(dead))
        };
        let src_ids: Vec<MoveId> = (self.src_moves.iter())
            .filter(|(_, r)| crossed(r.target))
            .filter(|(_, r)| r.state == SourceCoordState::Wait || r.target == dead)
            .map(|(m, _)| *m)
            .collect();
        for m in src_ids {
            // unwrap: ids collected from the map just above
            let rec = self.src_moves.remove(&m).unwrap();
            let (client, target) = (rec.client, rec.target);
            self.abort_source(m, rec, out);
            if let Some(toward) = self.sweep_toward(myid, target, dead, pre) {
                self.abort_pass(m, client, myid, target, toward, out);
            }
        }
        let tgt_ids: Vec<MoveId> = (self.tgt_moves.iter())
            .filter(|(_, r)| crossed(r.source))
            .map(|(m, _)| *m)
            .collect();
        for m in tgt_ids {
            let rec = &self.tgt_moves[&m];
            let (client, source, state) = (rec.client, rec.source, rec.state);
            if source == dead {
                if state == TargetCoordState::Prepare {
                    self.abort_target(m, client, out);
                    self.tgt_moves.remove(&m);
                    if let Some(toward) = self.sweep_toward(source, myid, dead, pre) {
                        self.abort_pass(m, client, source, myid, toward, out);
                    }
                }
                // Commit: the client runs here; the source can no
                // longer clean up, which is fine — it is gone.
                continue;
            }
            match state {
                TargetCoordState::Commit => {
                    let done = rec.done(m, myid);
                    self.forward_move(done, out);
                }
                TargetCoordState::Abort => {
                    self.abort_pass(m, client, source, myid, source, out);
                }
                TargetCoordState::Prepare | TargetCoordState::Init => {} // state timer pending
            }
        }
    }

    /// Where the abort pass of a movement between `source` and `target`
    /// runs after `dead` died: down the surviving part of the *old*
    /// route toward `far` (the remote end of the transaction). When
    /// `far` is the dead broker itself the pass stops at the last
    /// surviving broker before it; otherwise it runs to `far` over the
    /// repaired overlay, which contains every survivor of the old path
    /// (the repair replaces the dead broker with at most its anchor
    /// neighbour). `None` when no pass is due.
    fn sweep_toward(
        &self,
        source: BrokerId,
        target: BrokerId,
        dead: BrokerId,
        pre: &Topology,
    ) -> Option<BrokerId> {
        let far = if source == self.id() { target } else { source };
        let toward = if far == dead {
            pre.route(self.id(), far)
                .and_then(|r| r.pre(dead))
                .filter(|&x| x != self.id())?
        } else {
            far
        };
        self.topology.contains(toward).then_some(toward)
    }

    // ----- timers --------------------------------------------------------

    /// Handles a fired protocol timer (driver callback).
    pub fn handle_timer(&mut self, token: TimerToken) -> Vec<Output> {
        let mut out = Vec::new();
        self.input(LoggedInput::Timer { token }, &mut out);
        out
    }

    fn handle_timer_apply(&mut self, token: TimerToken, out: &mut Vec<Output>) {
        match token {
            TimerToken::Negotiate(m) => {
                if self.source_state(m) != Some(SourceCoordState::Wait) {
                    return; // finished meanwhile
                }
                // unwrap: state checked just above
                let rec = self.src_moves.remove(&m).unwrap();
                let (client, target) = (rec.client, rec.target);
                self.abort_source(m, rec, out);
                // Sweep any partially installed reconfiguration.
                self.abort_pass(m, client, self.id(), target, target, out);
            }
            TimerToken::State(m) => {
                if self.target_state(m) != Some(TargetCoordState::Prepare) {
                    return;
                }
                let rec = &self.tgt_moves[&m];
                let (client, source) = (rec.client, rec.source);
                // Destroy the copy and sweep the path back to the
                // source.
                self.abort_target(m, client, out);
                self.abort_pass(m, client, source, self.id(), source, out);
            }
            TimerToken::Suspect(peer) => self.broker_death_apply(peer, out),
        }
    }
}

/// The conversion of routing-core effects into driver effects, as a
/// sink the core writes into: a send becomes [`Output::Send`] at the
/// end of `out`; a delivery goes through the hosted client's stub
/// (buffering and exactly-once dedup) and becomes
/// [`Output::DeliverToApp`] only if the stub surfaces it.
struct Absorb<'a> {
    clients: &'a mut BTreeMap<ClientId, HostedClient>,
    out: &'a mut Vec<Output>,
}

impl<'a> Absorb<'a> {
    fn new(clients: &'a mut BTreeMap<ClientId, HostedClient>, out: &'a mut Vec<Output>) -> Self {
        Absorb { clients, out }
    }
}

impl Effects for Absorb<'_> {
    fn emit(&mut self, effect: BrokerOutput) {
        match effect {
            BrokerOutput::ToBroker(n, msg) => self.out.push(Output::Send {
                to: n,
                msg: Message::PubSub(msg),
            }),
            BrokerOutput::Deliver(cid, publication) => {
                if let Some(stub) = self.clients.get_mut(&cid) {
                    if stub.deliver(&publication) == DeliverOutcome::Surfaced {
                        self.out.push(Output::DeliverToApp {
                            client: cid,
                            publication,
                        });
                    }
                }
                // A delivery for a client we no longer host can only
                // be a leftover of a committed movement whose
                // duplicate the target-side dedup will suppress.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transmob_pubsub::{Filter, PubId, Publication, Subscription};

    fn broker_at(id: u32) -> MobileBroker {
        let topo = Arc::new(Topology::chain(3));
        MobileBroker::new(BrokerId(id), topo, MobileBrokerConfig::reconfig())
    }

    #[test]
    #[should_panic(expected = "not in topology")]
    fn new_rejects_foreign_id() {
        let topo = Arc::new(Topology::chain(3));
        let _ = MobileBroker::new(BrokerId(9), topo, MobileBrokerConfig::reconfig());
    }

    #[test]
    fn unknown_unsubscribe_counts_anomaly() {
        let mut b = broker_at(1);
        b.create_client(ClientId(1));
        let outs = b.client_op(ClientId(1), ClientOp::Unsubscribe(7));
        assert!(outs.is_empty());
        assert_eq!(b.anomalies(), 1);
        let outs = b.client_op(ClientId(1), ClientOp::Unadvertise(7));
        assert!(outs.is_empty());
        assert_eq!(b.anomalies(), 2);
    }

    #[test]
    fn move_to_self_finishes_committed_without_traffic() {
        let mut b = broker_at(2);
        b.create_client(ClientId(1));
        let outs = b.client_op(
            ClientId(1),
            ClientOp::MoveTo(BrokerId(2), ProtocolKind::Reconfig),
        );
        assert_eq!(outs.len(), 1);
        assert!(matches!(
            outs[0],
            Output::MoveFinished {
                committed: true,
                ..
            }
        ));
        assert_eq!(b.client(ClientId(1)).unwrap().state(), ClientState::Started);
    }

    #[test]
    fn move_to_unknown_broker_aborts_locally() {
        let mut b = broker_at(2);
        b.create_client(ClientId(1));
        let outs = b.client_op(
            ClientId(1),
            ClientOp::MoveTo(BrokerId(42), ProtocolKind::Covering),
        );
        assert!(matches!(
            outs[0],
            Output::MoveFinished {
                committed: false,
                ..
            }
        ));
    }

    #[test]
    fn commands_queue_while_moving() {
        let mut b = broker_at(1);
        b.create_client(ClientId(1));
        // Start a (real) move: the stub pauses, later ops must queue.
        let outs = b.client_op(
            ClientId(1),
            ClientOp::MoveTo(BrokerId(3), ProtocolKind::Reconfig),
        );
        assert!(outs.iter().any(|o| matches!(o, Output::Send { .. })));
        let outs = b.client_op(
            ClientId(1),
            ClientOp::Subscribe(Filter::builder().any("x").build()),
        );
        assert!(outs.is_empty(), "ops while moving must be queued");
        assert_eq!(b.client(ClientId(1)).unwrap().queued_len(), 1);
        assert_eq!(
            b.client(ClientId(1)).unwrap().state(),
            ClientState::PauseMove
        );
    }

    #[test]
    fn rejecting_broker_sends_reject() {
        let topo = Arc::new(Topology::chain(3));
        let mut target = MobileBroker::new(
            BrokerId(3),
            Arc::clone(&topo),
            MobileBrokerConfig {
                accept_moves: false,
                ..MobileBrokerConfig::reconfig()
            },
        );
        let nego = MoveMsg::Negotiate {
            m: MoveId(5),
            client: ClientId(1),
            source: BrokerId(1),
            target: BrokerId(3),
            profile: crate::messages::ClientProfile::default(),
            protocol: ProtocolKind::Reconfig,
        };
        let outs = target.handle(Hop::Broker(BrokerId(2)), nego.into());
        assert_eq!(outs.len(), 1);
        match &outs[0] {
            Output::Send { to, msg } => {
                assert_eq!(*to, BrokerId(2));
                assert!(matches!(msg, Message::Move(mv) if matches!(**mv, MoveMsg::Reject { .. })));
            }
            other => panic!("expected a reject send, got {other:?}"),
        }
        assert!(target.client(ClientId(1)).is_none(), "no copy on reject");
    }

    #[test]
    fn routed_move_messages_forward_through_intermediates() {
        let mut mid = broker_at(2);
        let ack = MoveMsg::Ack {
            m: MoveId(5),
            source: BrokerId(1),
            target: BrokerId(3),
        };
        let outs = mid.handle(Hop::Broker(BrokerId(3)), ack.into());
        assert_eq!(outs.len(), 1);
        match &outs[0] {
            Output::Send { to, .. } => assert_eq!(*to, BrokerId(1)),
            other => panic!("expected forward, got {other:?}"),
        }
        assert_eq!(mid.anomalies(), 0);
    }

    #[test]
    fn first_hop_row_follows_an_overlay_repair() {
        // B2 dies: the repair bridges B1 - B3, and the row B1 routes
        // by must say so for B3 and hold nothing for B2.
        let mut b1 = broker_at(1);
        let _ = b1.handle_broker_death(BrokerId(2));
        let ack_from = |source| {
            Message::from(MoveMsg::Ack {
                m: MoveId(5),
                source,
                target: BrokerId(1),
            })
        };
        let outs = b1.handle(Hop::Client(ClientId(0)), ack_from(BrokerId(3)));
        assert!(
            matches!(
                outs[..],
                [Output::Send {
                    to: BrokerId(3),
                    ..
                }]
            ),
            "expected a forward over the repair edge, got {outs:?}"
        );
        assert_eq!(b1.anomalies(), 0);
        let outs = b1.handle(Hop::Client(ClientId(0)), ack_from(BrokerId(2)));
        assert!(outs.is_empty(), "nothing routes toward a dead broker");
        assert_eq!(b1.anomalies(), 1);
    }

    /// The two names the end-to-end benchmark's replay compiles
    /// against: `prematch` is the fresh fold of every publication of a
    /// frame, in order, and `handle_batch_prematched` is `handle_batch`
    /// on a frame that mixes publications with a subscribe, on a
    /// broker that holds a pending shadow route.
    #[test]
    fn prematch_shims_fold_fresh_and_apply_as_handle_batch() {
        let x_in = |lo: i64, hi: i64| Filter::builder().ge("x", lo).le("x", hi).build();
        let mut b = broker_at(2);
        b.create_client(ClientId(1));
        let _ = b.client_op(ClientId(1), ClientOp::Subscribe(x_in(0, 10)));
        let from_b1 = Subscription::new(SubId::new(ClientId(4), 0), x_in(5, 20));
        let _ = b.handle(
            Hop::Broker(BrokerId(1)),
            PubSubMsg::Subscribe(from_b1).into(),
        );
        // B2 is the target of client 7's movement from B1: its profile
        // goes in as pending (shadow) rows.
        let nego = MoveMsg::Negotiate {
            m: MoveId(5),
            client: ClientId(7),
            source: BrokerId(1),
            target: BrokerId(2),
            profile: crate::messages::ClientProfile {
                subs: vec![Subscription::new(SubId::new(ClientId(7), 0), x_in(12, 40))],
                advs: vec![],
            },
            protocol: ProtocolKind::Reconfig,
        };
        let _ = b.handle(Hop::Broker(BrokerId(1)), nego.into());
        assert!(b.core().prt().iter().any(|(_, e)| e.pending.is_some()));

        let publish = |seq: u64, x: i64| -> Message {
            let content = Publication::new().with("x", x);
            PubSubMsg::Publish(PublicationMsg::new(PubId(seq), ClientId(9), content)).into()
        };
        let late = Subscription::new(SubId::new(ClientId(6), 0), x_in(30, 60));
        let frame = vec![
            publish(1, 7),
            publish(2, 15),
            PubSubMsg::Subscribe(late).into(),
            publish(3, 50),
            publish(4, 3),
        ];
        let want: Vec<Destinations> = (frame.iter())
            .filter_map(|m| match m {
                Message::PubSub(PubSubMsg::Publish(p)) => {
                    Some(b.core().prt().destinations(&p.content))
                }
                _ => None,
            })
            .collect();
        let got = b.prematch(&frame);
        assert_eq!(got, want);
        assert_eq!(got.len(), 4);
        assert!(
            got[1].clients.contains(&ClientId(7)),
            "the shadow row routes"
        );

        let mut shimmed = b.clone();
        let outs = shimmed.handle_batch_prematched(Hop::Broker(BrokerId(1)), frame.clone(), got);
        let mut plain = b.clone();
        assert_eq!(outs, plain.handle_batch(Hop::Broker(BrokerId(1)), frame));
        assert!(!outs.is_empty());
        let json = |b: &MobileBroker| serde_json::to_string(&b.snapshot()).unwrap();
        assert_eq!(json(&shimmed), json(&plain));
    }

    /// B2 of chain(3) with a failure detector: a down link means a
    /// dead broker after 50 ms.
    fn suspecting_b2() -> MobileBroker {
        let config = MobileBrokerConfig {
            suspect_after_ns: Some(50_000_000),
            ..MobileBrokerConfig::reconfig()
        };
        MobileBroker::new(BrokerId(2), Arc::new(Topology::chain(3)), config)
    }

    #[test]
    fn link_down_arms_exactly_one_suspicion_timer() {
        let outs = suspecting_b2().handle_link(BrokerId(3), false);
        assert_eq!(
            outs,
            [Output::SetTimer {
                token: TimerToken::Suspect(BrokerId(3)),
                delay_ns: 50_000_000,
            }]
        );
    }

    #[test]
    fn link_up_cancels_the_suspicion() {
        let mut b2 = suspecting_b2();
        let _ = b2.handle_link(BrokerId(3), false);
        let outs = b2.handle_link(BrokerId(3), true);
        assert_eq!(
            outs,
            [Output::CancelTimer {
                token: TimerToken::Suspect(BrokerId(3)),
            }]
        );
        assert!(b2.topology().contains(BrokerId(3)), "nothing repaired");
    }

    #[test]
    fn a_fired_suspicion_floods_the_death_once() {
        let mut b2 = suspecting_b2();
        let _ = b2.handle_link(BrokerId(3), false);
        let token = TimerToken::Suspect(BrokerId(3));
        let outs = b2.handle_timer(token);
        let floods: Vec<BrokerId> = (outs.iter())
            .filter_map(|o| match o {
                Output::Send {
                    to,
                    msg: Message::BrokerDeath { dead: BrokerId(3) },
                } => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(floods, [BrokerId(1)], "one notice to each survivor");
        assert!(!b2.topology().contains(BrokerId(3)));
        // A second firing, or a report about the excised peer, is a
        // no-op.
        assert!(b2.handle_timer(token).is_empty());
        assert!(b2.handle_link(BrokerId(3), false).is_empty());
    }

    #[test]
    fn link_reports_without_a_detector_or_about_a_stranger_do_nothing() {
        let mut plain = broker_at(2);
        assert!(plain.handle_link(BrokerId(3), false).is_empty());
        assert!(plain.handle_link(BrokerId(3), true).is_empty());
        let mut b2 = suspecting_b2();
        assert!(b2.handle_link(BrokerId(9), false).is_empty());
        assert!(b2.handle_link(BrokerId(9), true).is_empty());
    }

    #[test]
    fn set_accept_moves_toggles() {
        let mut b = broker_at(1);
        b.set_accept_moves(false);
        let nego = MoveMsg::Negotiate {
            m: MoveId(5),
            client: ClientId(9),
            source: BrokerId(3),
            target: BrokerId(1),
            profile: crate::messages::ClientProfile::default(),
            protocol: ProtocolKind::Reconfig,
        };
        let outs = b.handle(Hop::Broker(BrokerId(2)), nego.clone().into());
        assert!(matches!(
            &outs[0],
            Output::Send {
                msg: Message::Move(mv),
                ..
            } if matches!(**mv, MoveMsg::Reject { .. })
        ));
        b.set_accept_moves(true);
        let outs = b.handle(Hop::Broker(BrokerId(2)), nego.into());
        assert!(outs.iter().any(|o| matches!(
            o,
            Output::Send {
                msg: Message::Move(mv),
                ..
            } if matches!(**mv, MoveMsg::Reconfigure { .. })
        )));
    }
}
