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
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};
use transmob_broker::{
    BrokerConfig, BrokerCore, BrokerOutput, Hop, PrematchedRoutes, PubSubMsg, Topology,
};
use transmob_pubsub::{BrokerId, ClientId, MoveId, Publication, PublicationMsg, SubId};

use crate::client_stub::{DeliverOutcome, HostedClient};
use crate::durability::{DurabilityLog, DurabilityRecord, LoggedInput, DURABILITY_FORMAT_VERSION};
use crate::messages::{
    ClientOp, ClientProfile, ClientSnapshot, Message, MoveMsg, Output, ProtocolKind, TimerKind,
    TimerToken,
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
    /// With a [`DurabilityLog`] attached, checkpoint (snapshot +
    /// truncate) after this many logged inputs. `0` disables periodic
    /// checkpoints (explicit [`MobileBroker::checkpoint_now`] only).
    pub checkpoint_every: u32,
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
            checkpoint_every: 64,
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
    #[allow(dead_code)] // kept for diagnostics in Debug output
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
    #[allow(dead_code)]
    protocol: ProtocolKind,
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
    /// Input nesting depth: only depth-0 (external) inputs are logged.
    input_depth: u32,
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
            input_depth: 0,
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

    /// Creates (attaches and starts) a fresh client at this broker.
    pub fn create_client(&mut self, id: ClientId) {
        let outer = self.begin_input(|| LoggedInput::CreateClient { client: id });
        self.clients.insert(id, HostedClient::started(id));
        self.core.attach_client(id);
        self.end_input(outer);
    }

    // ================= durability =====================================

    /// Attaches a write-ahead [`DurabilityLog`]: the broker immediately
    /// checkpoints its current state into it (the recovery base), then
    /// appends every external input before applying it and checkpoints
    /// again every [`MobileBrokerConfig::checkpoint_every`] inputs.
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
    /// Replay applies each input through the normal handlers and
    /// discards the regenerated outputs (the pre-crash execution
    /// already emitted them; at-least-once redelivery of the ones the
    /// crash destroyed is the driver's concern). The recovered broker
    /// has no log attached — call [`MobileBroker::attach_durability`]
    /// again to resume logging (which re-checkpoints, establishing the
    /// new base).
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
        records: &[DurabilityRecord],
    ) -> (MobileBroker, Vec<Output>) {
        let mut broker = MobileBroker::restore(topology, config, checkpoint);
        for rec in records {
            assert_eq!(
                rec.v, DURABILITY_FORMAT_VERSION,
                "unknown durability record version {}",
                rec.v
            );
            match rec.input.clone() {
                LoggedInput::Message { from, msg } => {
                    let _ = broker.handle(from, msg);
                }
                LoggedInput::ClientOp { client, op } => {
                    let _ = broker.client_op(client, op);
                }
                LoggedInput::Timer { token } => {
                    let _ = broker.handle_timer(token);
                }
                LoggedInput::CreateClient { client } => broker.create_client(client),
                LoggedInput::BrokerDeath { dead } => {
                    let _ = broker.handle_broker_death(dead);
                }
            }
        }
        let timers = broker.rearm_timers();
        (broker, timers)
    }

    /// The `SetTimer` outputs an in-flight movement needs after
    /// recovery (timers are volatile — they die with the process).
    fn rearm_timers(&self) -> Vec<Output> {
        let mut out = Vec::new();
        if let Some(delay_ns) = self.config.negotiate_timeout_ns {
            for (m, rec) in &self.src_moves {
                if rec.state == SourceCoordState::Wait {
                    out.push(Output::SetTimer {
                        token: TimerToken {
                            m: *m,
                            kind: TimerKind::Negotiate,
                        },
                        delay_ns,
                    });
                }
            }
        }
        if let Some(delay_ns) = self.config.state_timeout_ns {
            for (m, rec) in &self.tgt_moves {
                if rec.state == TargetCoordState::Prepare {
                    out.push(Output::SetTimer {
                        token: TimerToken {
                            m: *m,
                            kind: TimerKind::State,
                        },
                        delay_ns,
                    });
                }
            }
        }
        out
    }

    /// Enters one input frame. At depth 0 (an *external* input — not a
    /// handler re-issuing a command internally) the input is appended
    /// to the attached log before anything is applied (write-ahead).
    fn begin_input(&mut self, make: impl FnOnce() -> LoggedInput) -> bool {
        let outer = self.input_depth == 0;
        self.input_depth += 1;
        if outer {
            if let Some(log) = &self.log {
                let rec = DurabilityRecord::new(make());
                log.lock()
                    .expect("durability log poisoned")
                    .append(&rec)
                    .expect("durability append failed: refusing to run ahead of the log");
                self.records_since_checkpoint += 1;
            }
        }
        outer
    }

    /// Enters one input frame covering a whole message batch: at depth
    /// 0 every message is appended write-ahead through one
    /// [`DurabilityLog::append_batch`] call before anything is applied.
    fn begin_input_batch(&mut self, from: Hop, msgs: &[Message]) -> bool {
        let outer = self.input_depth == 0;
        self.input_depth += 1;
        if outer {
            if let Some(log) = &self.log {
                let records: Vec<DurabilityRecord> = msgs
                    .iter()
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
        }
        outer
    }

    /// Leaves an input frame; at depth 0 runs the periodic checkpoint.
    fn end_input(&mut self, outer: bool) {
        self.input_depth -= 1;
        if outer
            && self.config.checkpoint_every > 0
            && self.records_since_checkpoint >= self.config.checkpoint_every
        {
            self.checkpoint_now()
                .expect("durability checkpoint failed: refusing to run ahead of the log");
        }
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
            input_depth: 0,
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

    /// Converts routing-core effects into driver effects, routing
    /// client deliveries through the hosted stubs (with buffering and
    /// exactly-once dedup).
    fn absorb(&mut self, outputs: Vec<BrokerOutput>) -> Vec<Output> {
        let mut out = Vec::with_capacity(outputs.len());
        for o in outputs {
            match o {
                BrokerOutput::ToBroker(n, msg) => out.push(Output::Send {
                    to: n,
                    msg: Message::PubSub(msg),
                }),
                BrokerOutput::Deliver(cid, publication) => {
                    if let Some(stub) = self.clients.get_mut(&cid) {
                        if stub.deliver(&publication) == DeliverOutcome::Surfaced {
                            out.push(Output::DeliverToApp {
                                client: cid,
                                publication,
                            });
                        }
                    }
                    // A delivery for a client we no longer host can
                    // only be a leftover of a committed movement whose
                    // duplicate the target-side dedup will suppress.
                }
            }
        }
        out
    }

    // ================= client commands ================================

    /// Executes (or queues) an application command on a hosted client.
    ///
    /// # Panics
    ///
    /// Panics if the client is not hosted here (drivers address
    /// commands to the client's current broker).
    pub fn client_op(&mut self, client: ClientId, op: ClientOp) -> Vec<Output> {
        let outer = self.begin_input(|| LoggedInput::ClientOp {
            client,
            op: op.clone(),
        });
        let out = self.client_op_apply(client, op);
        self.end_input(outer);
        out
    }

    fn client_op_apply(&mut self, client: ClientId, op: ClientOp) -> Vec<Output> {
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
            return Vec::new();
        }
        match op {
            ClientOp::Subscribe(filter) => {
                let s = stub.new_subscription(filter);
                let outs = self
                    .core
                    .handle(Hop::Client(client), PubSubMsg::Subscribe(s));
                self.absorb(outs)
            }
            ClientOp::Unsubscribe(seq) => match stub.remove_subscription(seq) {
                Some(s) => {
                    let outs = self
                        .core
                        .handle(Hop::Client(client), PubSubMsg::Unsubscribe(s.id));
                    self.absorb(outs)
                }
                None => {
                    self.anomalies += 1;
                    Vec::new()
                }
            },
            ClientOp::Advertise(filter) => {
                let a = stub.new_advertisement(filter);
                let outs = self
                    .core
                    .handle(Hop::Client(client), PubSubMsg::Advertise(a));
                self.absorb(outs)
            }
            ClientOp::Unadvertise(seq) => match stub.remove_advertisement(seq) {
                Some(a) => {
                    let outs = self
                        .core
                        .handle(Hop::Client(client), PubSubMsg::Unadvertise(a.id));
                    self.absorb(outs)
                }
                None => {
                    self.anomalies += 1;
                    Vec::new()
                }
            },
            ClientOp::Publish(content) => {
                let p = PublicationMsg::new(stub.next_pub_id(), client, content);
                let outs = self.core.handle(Hop::Client(client), PubSubMsg::Publish(p));
                self.absorb(outs)
            }
            ClientOp::Pause => {
                // started | pause_oper → pause_oper (idempotent).
                stub.set_state(ClientState::PauseOper);
                Vec::new()
            }
            ClientOp::Resume => {
                if stub.state() == ClientState::PauseOper {
                    self.resume_client(client)
                } else {
                    Vec::new()
                }
            }
            ClientOp::MoveTo(to, protocol) => self.start_move(client, to, protocol),
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
    ) -> Vec<Output> {
        if to == self.id() || !self.topology.contains(to) {
            // Degenerate movement: nothing to do (or unknown target).
            let m = self.fresh_move_id();
            return vec![Output::MoveFinished {
                m,
                client,
                committed: to == self.id(),
            }];
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
        let mut out = Vec::new();
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
            msg: Message::Move(msg),
        });
        if let Some(delay_ns) = self.config.negotiate_timeout_ns {
            out.push(Output::SetTimer {
                token: TimerToken {
                    m,
                    kind: TimerKind::Negotiate,
                },
                delay_ns,
            });
        }
        out
    }

    // ================= message handling ===============================

    /// Handles one incoming message from a neighbouring broker.
    pub fn handle(&mut self, from: Hop, msg: Message) -> Vec<Output> {
        let outer = self.begin_input(|| LoggedInput::Message {
            from,
            msg: msg.clone(),
        });
        let out = self.handle_apply(from, msg);
        self.end_input(outer);
        out
    }

    /// Handles a batch of incoming messages that arrived together from
    /// one hop, in order.
    ///
    /// Defined as the sequential fold of [`MobileBroker::handle`]: the
    /// outputs are the concatenation, in order, of what per-message
    /// handling would emit. Batching buys two amortizations: the whole
    /// batch is logged with one [`DurabilityLog::append_batch`] call
    /// (one flush on file-backed logs; the records stay individual, so
    /// crash recovery can still replay a prefix), and maximal runs of
    /// consecutive pub/sub messages go through
    /// [`BrokerCore::handle_batch`], which amortizes publication
    /// matching across the run.
    pub fn handle_batch(&mut self, from: Hop, msgs: Vec<Message>) -> Vec<Output> {
        self.handle_batch_apply(from, msgs, None)
    }

    /// The read-locked *match* stage of a pipelined broker loop:
    /// matches the batch's publications against the current routing
    /// state without mutating anything, stamped with the routing
    /// version (see [`BrokerCore::prematch`]). Hand the result to
    /// [`MobileBroker::handle_batch_prematched`]; a concurrent
    /// mutation (movement commit, subscription churn) between the two
    /// calls merely invalidates the stamp and the apply stage
    /// re-matches — results are identical either way.
    pub fn prematch(&self, msgs: &[Message]) -> PrematchedRoutes {
        let contents: Vec<&Publication> = msgs
            .iter()
            .filter_map(|m| match m {
                Message::PubSub(PubSubMsg::Publish(p)) => Some(&p.content),
                _ => None,
            })
            .collect();
        self.core.prematch(&contents)
    }

    /// [`MobileBroker::handle_batch`] consuming the routes
    /// pre-computed by [`MobileBroker::prematch`] over the same
    /// message sequence (the write-locked *apply* stage of a pipelined
    /// broker loop).
    pub fn handle_batch_prematched(
        &mut self,
        from: Hop,
        msgs: Vec<Message>,
        mut pre: PrematchedRoutes,
    ) -> Vec<Output> {
        self.handle_batch_apply(from, msgs, Some(&mut pre))
    }

    fn handle_batch_apply(
        &mut self,
        from: Hop,
        mut msgs: Vec<Message>,
        mut pre: Option<&mut PrematchedRoutes>,
    ) -> Vec<Output> {
        match msgs.len() {
            // The single-message shortcut keeps the durability log's
            // record shape; any pre-computed route for it is simply
            // unused (it dies with `pre`).
            0 => return Vec::new(),
            1 => return self.handle(from, msgs.pop().expect("len checked")),
            _ => {}
        }
        let outer = self.begin_input_batch(from, &msgs);
        let mut out = Vec::new();
        let mut run: Vec<PubSubMsg> = Vec::new();
        for msg in msgs {
            match msg {
                Message::PubSub(p) => run.push(p),
                Message::Move(mv) => {
                    self.flush_pubsub_run(from, &mut run, &mut pre, &mut out);
                    out.extend(self.handle_move(from, mv));
                }
                Message::BrokerDeath { dead } => {
                    self.flush_pubsub_run(from, &mut run, &mut pre, &mut out);
                    out.extend(self.broker_death_apply(dead));
                }
            }
        }
        self.flush_pubsub_run(from, &mut run, &mut pre, &mut out);
        self.end_input(outer);
        out
    }

    /// Applies a buffered run of consecutive pub/sub messages through
    /// the routing core's batch entry point.
    fn flush_pubsub_run(
        &mut self,
        from: Hop,
        run: &mut Vec<PubSubMsg>,
        pre: &mut Option<&mut PrematchedRoutes>,
        out: &mut Vec<Output>,
    ) {
        if run.is_empty() {
            return;
        }
        let reborrow = pre.as_mut().map(|p| &mut **p);
        let batch = self
            .core
            .handle_batch_prematched(from, std::mem::take(run), reborrow);
        out.extend(self.absorb(batch));
    }

    fn handle_apply(&mut self, from: Hop, msg: Message) -> Vec<Output> {
        match msg {
            Message::PubSub(p) => {
                let outs = self.core.handle(from, p);
                self.absorb(outs)
            }
            Message::Move(mv) => self.handle_move(from, mv),
            Message::BrokerDeath { dead } => self.broker_death_apply(dead),
        }
    }

    fn forward_move(&mut self, msg: MoveMsg) -> Vec<Output> {
        let dest = msg.destination();
        match self.try_route_next(dest) {
            Some(next) => vec![Output::Send {
                to: next,
                msg: Message::Move(msg),
            }],
            None => {
                // The destination fell out of the overlay (broker
                // death): drop the message; the endpoints' death
                // handling resolves the transaction.
                self.anomalies += 1;
                Vec::new()
            }
        }
    }

    fn handle_move(&mut self, from: Hop, msg: MoveMsg) -> Vec<Output> {
        // Routed messages are only acted on at their destination.
        if !msg.is_hop_by_hop() && msg.destination() != self.id() {
            return self.forward_move(msg);
        }
        match msg {
            MoveMsg::Negotiate {
                m,
                client,
                source,
                target,
                profile,
                protocol,
            } => self.on_negotiate(m, client, source, target, profile, protocol),
            MoveMsg::Reject { m, .. } => self.on_reject(m),
            MoveMsg::Reconfigure {
                m,
                client,
                source,
                target,
                profile,
            } => self.on_reconfigure(from, m, client, source, target, profile),
            MoveMsg::StateTransfer {
                m,
                client,
                source,
                target,
                snapshot,
            } => self.on_state_transfer(m, client, source, target, snapshot),
            MoveMsg::Ack { m, .. } => self.on_ack(m),
            MoveMsg::AbortMove {
                m,
                client,
                source,
                target,
                toward,
            } => self.on_abort_move(m, client, source, target, toward),
            MoveMsg::CovRequest {
                m,
                client,
                source,
                target,
            } => self.on_cov_request(m, client, source, target),
            MoveMsg::CovAccept { m, .. } => self.on_cov_accept(m),
            MoveMsg::CovTransfer {
                m,
                client,
                source,
                target,
                profile,
                snapshot,
            } => self.on_cov_transfer(m, client, source, target, profile, snapshot),
            MoveMsg::CovDone { m, .. } => self.on_cov_done(m),
        }
    }

    // ----- reconfiguration protocol, target side ----------------------

    fn on_negotiate(
        &mut self,
        m: MoveId,
        client: ClientId,
        source: BrokerId,
        target: BrokerId,
        profile: ClientProfile,
        protocol: ProtocolKind,
    ) -> Vec<Output> {
        debug_assert_eq!(target, self.id());
        if !self.config.accept_moves {
            return self.forward_or_emit_toward(source, MoveMsg::Reject { m, source, target });
        }
        if self.tgt_moves.contains_key(&m) {
            // Duplicate negotiate (wire duplication, or a retransmit
            // replayed from a recovered peer's queue): the first one
            // already created the copy — recreating it here would wipe
            // whatever the copy has buffered during the prepare window.
            self.anomalies += 1;
            return Vec::new();
        }
        let Some(back) = self.try_route_next(source) else {
            // The source died while its negotiate was in flight:
            // there is no coordinator left to converse with.
            self.anomalies += 1;
            return Vec::new();
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
        // Create the client copy (state `Created`).
        let copy = HostedClient::created_from_profile(client, &profile);
        self.clients.insert(client, copy);
        self.core.attach_client(client);
        // Install the shadow routing configuration at the target
        // itself: the client's entries will point at the local client.
        for s in &profile.subs {
            self.core
                .install_pending_sub(s, m, Hop::Client(client), Some(back));
        }
        for a in &profile.advs {
            self.core
                .install_pending_adv(a, m, Hop::Client(client), Some(back));
        }
        let mut out = vec![Output::Send {
            to: back,
            msg: Message::Move(MoveMsg::Reconfigure {
                m,
                client,
                source,
                target,
                profile,
            }),
        }];
        if let Some(delay_ns) = self.config.state_timeout_ns {
            out.push(Output::SetTimer {
                token: TimerToken {
                    m,
                    kind: TimerKind::State,
                },
                delay_ns,
            });
        }
        out
    }

    fn forward_or_emit_toward(&mut self, dest: BrokerId, msg: MoveMsg) -> Vec<Output> {
        match self.try_route_next(dest) {
            Some(next) => vec![Output::Send {
                to: next,
                msg: Message::Move(msg),
            }],
            None => {
                self.anomalies += 1;
                Vec::new()
            }
        }
    }

    // ----- reconfiguration message, walked target → source ------------

    fn on_reconfigure(
        &mut self,
        from: Hop,
        m: MoveId,
        client: ClientId,
        source: BrokerId,
        target: BrokerId,
        profile: ClientProfile,
    ) -> Vec<Output> {
        let Hop::Broker(frm) = from else {
            self.anomalies += 1;
            return Vec::new();
        };
        if self.id() == source {
            return self.on_reconfigure_at_source(frm, m, client, target, profile);
        }
        // Intermediate broker: install shadow configuration pointing at
        // the target direction, perform the Sec. 4.4 PRT fix-ups, and
        // walk on toward the source.
        let Some(back) = self.try_route_next(source) else {
            // The source died while the reconfiguration message was
            // walking toward it; the target's state timer aborts the
            // movement.
            self.anomalies += 1;
            return Vec::new();
        };
        let mut fixups = Vec::new();
        let mut outs: Vec<BrokerOutput> = Vec::new();
        for s in &profile.subs {
            self.core
                .install_pending_sub(s, m, Hop::Broker(frm), Some(back));
        }
        for a in &profile.advs {
            self.core
                .install_pending_adv(a, m, Hop::Broker(frm), Some(back));
            let pulled = self.pull_with_record(a.id, frm, &mut outs);
            fixups.extend(pulled);
        }
        self.path_moves.insert(m, PathMoveRecord { fixups });
        let mut out = self.absorb(outs);
        out.push(Output::Send {
            to: back,
            msg: Message::Move(MoveMsg::Reconfigure {
                m,
                client,
                source,
                target,
                profile,
            }),
        });
        out
    }

    /// Runs the pull rule for advertisement `id` toward `n`, returning
    /// the subscriptions it put on that link (for rollback).
    fn pull_with_record(
        &mut self,
        id: transmob_pubsub::AdvId,
        n: BrokerId,
        outs: &mut Vec<BrokerOutput>,
    ) -> Vec<(SubId, BrokerId)> {
        let (pull_outs, pulled) = self.core.pull_subs_toward(id, n);
        outs.extend(pull_outs);
        pulled.into_iter().map(|sid| (sid, n)).collect()
    }

    fn on_reconfigure_at_source(
        &mut self,
        frm: BrokerId,
        m: MoveId,
        client: ClientId,
        target: BrokerId,
        profile: ClientProfile,
    ) -> Vec<Output> {
        let source = self.id();
        match self.src_moves.get(&m).map(|r| r.state) {
            Some(SourceCoordState::Wait) => {}
            Some(SourceCoordState::Abort) | None => {
                // We already gave up on this movement (timeout): undo
                // the reconfiguration along the path.
                return self.forward_or_emit_toward(
                    target,
                    MoveMsg::AbortMove {
                        m,
                        client,
                        source,
                        target,
                        toward: target,
                    },
                );
            }
            _ => {
                self.anomalies += 1;
                return Vec::new();
            }
        }
        // Install the shadow configuration at the source: entries flip
        // from the local client to the path toward the target.
        let mut outs: Vec<BrokerOutput> = Vec::new();
        let mut fixups = Vec::new();
        for s in &profile.subs {
            self.core.install_pending_sub(s, m, Hop::Broker(frm), None);
        }
        for a in &profile.advs {
            self.core.install_pending_adv(a, m, Hop::Broker(frm), None);
            fixups.extend(self.pull_with_record(a.id, frm, &mut outs));
        }
        // Coordinator: wait → prepare. Client: pause_move →
        // prepare_stop, then capture its state.
        // unwrap: state checked above
        let rec = self.src_moves.get_mut(&m).unwrap();
        rec.state = SourceCoordState::Prepare;
        rec.fixups = fixups;
        // unwrap: the moving client is hosted here until cleanup
        let stub = self.clients.get_mut(&client).unwrap();
        stub.set_state(ClientState::PrepareStop);
        let snapshot = stub.take_snapshot();
        // Local hop of the commit pass, then send `state` (message (4))
        // which commits hop-by-hop on its way to the target.
        outs.extend(self.core.commit_move(m));
        let mut out = self.absorb(outs);
        out.push(Output::CancelTimer {
            token: TimerToken {
                m,
                kind: TimerKind::Negotiate,
            },
        });
        out.push(Output::Send {
            to: frm,
            msg: Message::Move(MoveMsg::StateTransfer {
                m,
                client,
                source,
                target,
                snapshot,
            }),
        });
        out
    }

    // ----- commit pass, walked source → target -------------------------

    fn on_state_transfer(
        &mut self,
        m: MoveId,
        client: ClientId,
        source: BrokerId,
        target: BrokerId,
        snapshot: ClientSnapshot,
    ) -> Vec<Output> {
        if self.id() != target {
            // Intermediate broker: commit the shadow configuration and
            // walk on.
            let outs = self.core.commit_move(m);
            self.path_moves.remove(&m);
            let mut out = self.absorb(outs);
            match self.try_route_next(target) {
                Some(next) => out.push(Output::Send {
                    to: next,
                    msg: Message::Move(MoveMsg::StateTransfer {
                        m,
                        client,
                        source,
                        target,
                        snapshot,
                    }),
                }),
                None => {
                    // The target died mid-commit: the committed hops
                    // stay consistent with the ones behind us; the
                    // source's death handling resurrects the client.
                    self.anomalies += 1;
                }
            }
            return out;
        }
        // Target: commit, start the client, ack.
        match self.tgt_moves.get(&m).map(|r| r.state) {
            Some(TargetCoordState::Prepare) => {}
            Some(TargetCoordState::Commit) => {
                // Retransmitted/duplicated commit pass: the transfer
                // already applied. Answering with an abort here would
                // chase the ack down the path and tear a committed
                // movement back open at the source.
                self.anomalies += 1;
                return Vec::new();
            }
            _ => {
                // Late state after a local abort: the client copy is
                // gone. Undo the commit pass we cannot apply.
                self.anomalies += 1;
                return self.forward_or_emit_toward(
                    source,
                    MoveMsg::AbortMove {
                        m,
                        client,
                        source,
                        target,
                        toward: source,
                    },
                );
            }
        }
        let outs = self.core.commit_move(m);
        let mut out = self.absorb(outs);
        // unwrap: target-move record in Prepare implies the copy exists
        let stub = self.clients.get_mut(&client).unwrap();
        stub.merge_snapshot(snapshot);
        stub.set_state(ClientState::Started);
        for p in stub.flush_buffered() {
            out.push(Output::DeliverToApp {
                client,
                publication: p,
            });
        }
        let ops = stub.drain_ops();
        for op in ops {
            out.extend(self.client_op(client, op));
        }
        // unwrap: record presence checked above
        self.tgt_moves.get_mut(&m).unwrap().state = TargetCoordState::Commit;
        out.push(Output::CancelTimer {
            token: TimerToken {
                m,
                kind: TimerKind::State,
            },
        });
        out.push(Output::ClientArrived { m, client });
        out.extend(self.forward_or_emit_toward(source, MoveMsg::Ack { m, source, target }));
        out
    }

    fn on_ack(&mut self, m: MoveId) -> Vec<Output> {
        let Some(rec) = self.src_moves.remove(&m) else {
            self.anomalies += 1;
            return Vec::new();
        };
        debug_assert_eq!(rec.state, SourceCoordState::Prepare);
        let mut out = Vec::new();
        // Client: prepare_stop → clean; container cleanup. Anything
        // that reached the source copy *after* the snapshot was taken
        // (commands issued by a slow application, notifications still
        // in flight) is flushed to the target in a late transfer; the
        // target's dedup suppresses what it already has.
        if let Some(mut stub) = self.clients.remove(&rec.client) {
            let late = stub.take_snapshot();
            if !late.buffered.is_empty() || !late.queued_ops.is_empty() {
                out.extend(self.forward_or_emit_toward(
                    rec.target,
                    MoveMsg::CovTransfer {
                        m,
                        client: rec.client,
                        source: self.id(),
                        target: rec.target,
                        profile: ClientProfile::default(),
                        snapshot: late,
                    },
                ));
            }
            stub.set_state(ClientState::Clean);
        }
        self.core.detach_client(rec.client);
        out.push(Output::MoveFinished {
            m,
            client: rec.client,
            committed: true,
        });
        out
    }

    fn on_reject(&mut self, m: MoveId) -> Vec<Output> {
        let Some(rec) = self.src_moves.remove(&m) else {
            self.anomalies += 1;
            return Vec::new();
        };
        let mut out = vec![Output::CancelTimer {
            token: TimerToken {
                m,
                kind: TimerKind::Negotiate,
            },
        }];
        out.extend(self.resume_client(rec.client));
        out.push(Output::MoveFinished {
            m,
            client: rec.client,
            committed: false,
        });
        out
    }

    /// Resumes a client at the source after an aborted/rejected
    /// movement: buffered notifications surface, queued commands run.
    fn resume_client(&mut self, client: ClientId) -> Vec<Output> {
        let mut out = Vec::new();
        let Some(stub) = self.clients.get_mut(&client) else {
            self.anomalies += 1;
            return out;
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
            out.extend(self.client_op(client, op));
        }
        out
    }

    // ----- abort pass ---------------------------------------------------

    fn on_abort_move(
        &mut self,
        m: MoveId,
        client: ClientId,
        source: BrokerId,
        target: BrokerId,
        toward: BrokerId,
    ) -> Vec<Output> {
        // Roll back shadow configurations and any recorded fix-ups.
        let mut outs: Vec<BrokerOutput> = self.core.abort_move(m);
        let fixups: Vec<(SubId, BrokerId)> = if let Some(pm) = self.path_moves.remove(&m) {
            pm.fixups
        } else if let Some(sm) = self.src_moves.get(&m) {
            sm.fixups.clone()
        } else {
            Vec::new()
        };
        for (sid, n) in fixups {
            outs.extend(self.core.prune_sub_link(sid, n));
        }
        let mut out = self.absorb(outs);
        if self.id() == toward {
            if toward == source {
                if let Some(rec) = self.src_moves.remove(&m) {
                    if rec.state == SourceCoordState::Prepare {
                        // The source already flipped its routing away
                        // from the local client (commit pass sent, or
                        // the covering protocol retracted the profile):
                        // plain rollback cannot help because the
                        // pendings are gone. Re-issue the profile so
                        // the resurrected client is routable again.
                        out.extend(self.reissue_profile(rec.client));
                    }
                    out.extend(self.resume_client(rec.client));
                    out.push(Output::CancelTimer {
                        token: TimerToken {
                            m,
                            kind: TimerKind::Negotiate,
                        },
                    });
                    out.push(Output::MoveFinished {
                        m,
                        client: rec.client,
                        committed: false,
                    });
                }
            } else if let Some(rec) = self.tgt_moves.get_mut(&m) {
                if rec.state == TargetCoordState::Commit {
                    // A stale abort (e.g. triggered by a duplicated
                    // negotiate replay at the source after cleanup)
                    // must not destroy a copy that already committed
                    // and runs here.
                    self.anomalies += 1;
                } else {
                    rec.state = TargetCoordState::Abort;
                    // Destroy the client copy.
                    self.clients.remove(&client);
                    self.core.detach_client(client);
                    out.push(Output::CancelTimer {
                        token: TimerToken {
                            m,
                            kind: TimerKind::State,
                        },
                    });
                }
            }
        } else {
            out.extend(self.forward_or_emit_toward(
                toward,
                MoveMsg::AbortMove {
                    m,
                    client,
                    source,
                    target,
                    toward,
                },
            ));
        }
        out
    }

    /// Re-issues a hosted client's full profile into the routing layer
    /// (idempotent: the insert-or-adopt semantics of
    /// `handle_subscribe`/`handle_advertise` flip surviving entries
    /// back toward the client and re-propagate). Used when rolling
    /// back a movement that already committed its source-side routing
    /// flip.
    fn reissue_profile(&mut self, client: ClientId) -> Vec<Output> {
        let Some(stub) = self.clients.get(&client) else {
            self.anomalies += 1;
            return Vec::new();
        };
        let profile = stub.profile();
        let mut outs: Vec<BrokerOutput> = Vec::new();
        for s in &profile.subs {
            outs.extend(
                self.core
                    .handle(Hop::Client(client), PubSubMsg::Subscribe(s.clone())),
            );
        }
        for a in &profile.advs {
            outs.extend(
                self.core
                    .handle(Hop::Client(client), PubSubMsg::Advertise(a.clone())),
            );
        }
        self.absorb(outs)
    }

    // ----- overlay repair ------------------------------------------------

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
        let outer = self.begin_input(|| LoggedInput::BrokerDeath { dead });
        let out = self.broker_death_apply(dead);
        self.end_input(outer);
        out
    }

    fn broker_death_apply(&mut self, dead: BrokerId) -> Vec<Output> {
        if dead == self.id() || !self.topology.contains(dead) {
            return Vec::new();
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
                    return Vec::new();
                }
            }
        };
        let myid = self.id();
        self.first_hop = self.topology.first_hops(myid);
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
        let (core_outs, doomed) = self.core.repair_neighbors(dead, &new_peers);
        let mut out = self.absorb(core_outs);
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
            let mut outs = self.core.abort_move(m);
            for (sid, n) in fixups {
                outs.extend(self.core.prune_sub_link(sid, n));
            }
            out.extend(self.absorb(outs));
        }
        out.extend(self.resolve_moves_after_death(dead, &pre));
        // Flood the notice over every surviving link.
        let peers: Vec<BrokerId> = self.topology.neighbors(myid).iter().copied().collect();
        for n in peers {
            out.push(Output::Send {
                to: n,
                msg: Message::BrokerDeath { dead },
            });
        }
        out
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
    fn resolve_moves_after_death(&mut self, dead: BrokerId, pre: &Topology) -> Vec<Output> {
        let myid = self.id();
        let crossed = |other: BrokerId| {
            other == dead || pre.route(myid, other).is_some_and(|r| r.contains(dead))
        };
        let mut out = Vec::new();
        let src_ids: Vec<MoveId> = self
            .src_moves
            .iter()
            .filter(|(_, r)| crossed(r.target))
            .map(|(m, _)| *m)
            .collect();
        for m in src_ids {
            // unwrap: ids collected from the map just above
            let rec = self.src_moves.get(&m).unwrap().clone();
            match rec.state {
                SourceCoordState::Wait => {
                    self.src_moves.remove(&m);
                    let mut outs = self.core.abort_move(m);
                    for (sid, n) in rec.fixups {
                        outs.extend(self.core.prune_sub_link(sid, n));
                    }
                    out.extend(self.absorb(outs));
                    out.push(Output::CancelTimer {
                        token: TimerToken {
                            m,
                            kind: TimerKind::Negotiate,
                        },
                    });
                    out.extend(self.resume_client(rec.client));
                    out.push(Output::MoveFinished {
                        m,
                        client: rec.client,
                        committed: false,
                    });
                    out.extend(self.sweep_abort(m, rec.client, myid, rec.target, dead, pre));
                }
                SourceCoordState::Prepare if rec.target == dead => {
                    self.src_moves.remove(&m);
                    let mut outs = self.core.abort_move(m);
                    for (sid, n) in rec.fixups {
                        outs.extend(self.core.prune_sub_link(sid, n));
                    }
                    out.extend(self.absorb(outs));
                    out.extend(self.reissue_profile(rec.client));
                    out.extend(self.resume_client(rec.client));
                    out.push(Output::MoveFinished {
                        m,
                        client: rec.client,
                        committed: false,
                    });
                    out.extend(self.sweep_abort(m, rec.client, myid, rec.target, dead, pre));
                }
                _ => {}
            }
        }
        let tgt_ids: Vec<MoveId> = self
            .tgt_moves
            .iter()
            .filter(|(_, r)| crossed(r.source))
            .map(|(m, _)| *m)
            .collect();
        for m in tgt_ids {
            // unwrap: ids collected from the map just above
            let rec = self.tgt_moves.get(&m).unwrap().clone();
            if rec.source == dead {
                if rec.state == TargetCoordState::Prepare {
                    self.tgt_moves.remove(&m);
                    self.clients.remove(&rec.client);
                    self.core.detach_client(rec.client);
                    let outs = self.core.abort_move(m);
                    out.extend(self.absorb(outs));
                    out.push(Output::CancelTimer {
                        token: TimerToken {
                            m,
                            kind: TimerKind::State,
                        },
                    });
                    out.extend(self.sweep_abort(m, rec.client, rec.source, myid, dead, pre));
                }
                // Commit: the client runs here; the source can no
                // longer clean up, which is fine — it is gone.
            } else {
                match rec.state {
                    TargetCoordState::Commit => {
                        let msg = match rec.protocol {
                            ProtocolKind::Reconfig => MoveMsg::Ack {
                                m,
                                source: rec.source,
                                target: myid,
                            },
                            ProtocolKind::Covering => MoveMsg::CovDone {
                                m,
                                source: rec.source,
                                target: myid,
                            },
                        };
                        out.extend(self.forward_or_emit_toward(rec.source, msg));
                    }
                    TargetCoordState::Abort => {
                        out.extend(self.forward_or_emit_toward(
                            rec.source,
                            MoveMsg::AbortMove {
                                m,
                                client: rec.client,
                                source: rec.source,
                                target: myid,
                                toward: rec.source,
                            },
                        ));
                    }
                    TargetCoordState::Prepare | TargetCoordState::Init => {} // state timer pending
                }
            }
        }
        out
    }

    /// Emits the abort pass for movement `m` down the surviving part
    /// of the *old* route toward `far` (the remote end of the
    /// transaction). When `far` is the dead broker itself the pass
    /// stops at the last surviving broker before it; otherwise it runs
    /// to `far` over the repaired overlay, which contains every
    /// survivor of the old path (the repair replaces the dead broker
    /// with at most its anchor neighbour).
    fn sweep_abort(
        &mut self,
        m: MoveId,
        client: ClientId,
        source: BrokerId,
        target: BrokerId,
        dead: BrokerId,
        pre: &Topology,
    ) -> Vec<Output> {
        let far = if source == self.id() { target } else { source };
        let toward = if far == dead {
            match pre.route(self.id(), far).and_then(|r| r.pre(dead)) {
                Some(x) if x != self.id() => x,
                _ => return Vec::new(),
            }
        } else {
            far
        };
        if !self.topology.contains(toward) {
            return Vec::new();
        }
        self.forward_or_emit_toward(
            toward,
            MoveMsg::AbortMove {
                m,
                client,
                source,
                target,
                toward,
            },
        )
    }

    // ----- timers --------------------------------------------------------

    /// Handles a fired protocol timer (driver callback).
    pub fn handle_timer(&mut self, token: TimerToken) -> Vec<Output> {
        let outer = self.begin_input(|| LoggedInput::Timer { token });
        let out = self.handle_timer_apply(token);
        self.end_input(outer);
        out
    }

    fn handle_timer_apply(&mut self, token: TimerToken) -> Vec<Output> {
        match token.kind {
            TimerKind::Negotiate => {
                let m = token.m;
                let Some(rec) = self.src_moves.get_mut(&m) else {
                    return Vec::new(); // finished meanwhile
                };
                if rec.state != SourceCoordState::Wait {
                    return Vec::new();
                }
                rec.state = SourceCoordState::Abort;
                let client = rec.client;
                let target = rec.target;
                let source = self.id();
                self.src_moves.remove(&m);
                let mut out = self.resume_client(client);
                out.push(Output::MoveFinished {
                    m,
                    client,
                    committed: false,
                });
                // Sweep any partially installed reconfiguration.
                out.extend(self.forward_or_emit_toward(
                    target,
                    MoveMsg::AbortMove {
                        m,
                        client,
                        source,
                        target,
                        toward: target,
                    },
                ));
                out
            }
            TimerKind::State => {
                let m = token.m;
                let Some(rec) = self.tgt_moves.get_mut(&m) else {
                    return Vec::new();
                };
                if rec.state != TargetCoordState::Prepare {
                    return Vec::new();
                }
                rec.state = TargetCoordState::Abort;
                let client = rec.client;
                let source = rec.source;
                let target = self.id();
                // Destroy the copy and sweep the path back to the
                // source.
                self.clients.remove(&client);
                self.core.detach_client(client);
                let mut outs = self.core.abort_move(m);
                let mut out = Vec::new();
                out.append(&mut self.absorb(std::mem::take(&mut outs)));
                out.extend(self.forward_or_emit_toward(
                    source,
                    MoveMsg::AbortMove {
                        m,
                        client,
                        source,
                        target,
                        toward: source,
                    },
                ));
                out
            }
        }
    }

    // ----- covering (traditional) protocol -------------------------------

    fn on_cov_request(
        &mut self,
        m: MoveId,
        client: ClientId,
        source: BrokerId,
        target: BrokerId,
    ) -> Vec<Output> {
        debug_assert_eq!(target, self.id());
        if !self.config.accept_moves {
            return self.forward_or_emit_toward(source, MoveMsg::Reject { m, source, target });
        }
        if self.tgt_moves.contains_key(&m) {
            // Duplicate request: re-running the accept would re-arm the
            // state timer and re-send the accept for a transaction that
            // may have progressed past Prepare.
            self.anomalies += 1;
            return Vec::new();
        }
        self.tgt_moves.insert(
            m,
            TargetMoveRecord {
                client,
                source,
                state: TargetCoordState::Prepare,
                protocol: ProtocolKind::Covering,
            },
        );
        let mut out = self.forward_or_emit_toward(source, MoveMsg::CovAccept { m, source, target });
        if let Some(delay_ns) = self.config.state_timeout_ns {
            out.push(Output::SetTimer {
                token: TimerToken {
                    m,
                    kind: TimerKind::State,
                },
                delay_ns,
            });
        }
        out
    }

    fn on_cov_accept(&mut self, m: MoveId) -> Vec<Output> {
        let (client, target) = match self.src_moves.get_mut(&m) {
            Some(rec) if rec.state == SourceCoordState::Wait => {
                rec.state = SourceCoordState::Prepare;
                (rec.client, rec.target)
            }
            _ => {
                self.anomalies += 1;
                return Vec::new();
            }
        };
        let source = self.id();
        let mut out = vec![Output::CancelTimer {
            token: TimerToken {
                m,
                kind: TimerKind::Negotiate,
            },
        }];
        // unwrap: the moving client is hosted here until cleanup
        let stub = self.clients.get_mut(&client).unwrap();
        stub.set_state(ClientState::PrepareStop);
        let profile = stub.profile();
        let snapshot = stub.take_snapshot();
        if !self.config.make_before_break {
            // Traditional order: retract everything at the source
            // first. The covering optimization now quenches or
            // cascades as the workload dictates.
            let mut outs: Vec<BrokerOutput> = Vec::new();
            for s in &profile.subs {
                outs.extend(
                    self.core
                        .handle(Hop::Client(client), PubSubMsg::Unsubscribe(s.id)),
                );
            }
            for a in &profile.advs {
                outs.extend(
                    self.core
                        .handle(Hop::Client(client), PubSubMsg::Unadvertise(a.id)),
                );
            }
            out.extend(self.absorb(outs));
        }
        out.extend(self.forward_or_emit_toward(
            target,
            MoveMsg::CovTransfer {
                m,
                client,
                source,
                target,
                profile,
                snapshot,
            },
        ));
        out
    }

    fn on_cov_transfer(
        &mut self,
        m: MoveId,
        client: ClientId,
        source: BrokerId,
        target: BrokerId,
        profile: ClientProfile,
        snapshot: ClientSnapshot,
    ) -> Vec<Output> {
        match self.tgt_moves.get(&m).map(|r| r.state) {
            Some(TargetCoordState::Prepare) => {}
            Some(TargetCoordState::Commit) => {
                // Late flush: the client already runs here; surface the
                // remaining buffered notifications (dedup applies) and
                // execute commands that straggled in at the source.
                let mut out = Vec::new();
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
                        out.extend(self.client_op(client, op));
                    }
                }
                return out;
            }
            _ => {
                self.anomalies += 1;
                return Vec::new();
            }
        }
        let mut copy = HostedClient::created_from_profile(client, &profile);
        copy.merge_snapshot(snapshot);
        self.clients.insert(client, copy);
        self.core.attach_client(client);
        // Reissue the profile at the target: normal propagation, with
        // whatever covering behaviour the broker network is configured
        // for.
        let mut outs: Vec<BrokerOutput> = Vec::new();
        for s in &profile.subs {
            outs.extend(
                self.core
                    .handle(Hop::Client(client), PubSubMsg::Subscribe(s.clone())),
            );
        }
        for a in &profile.advs {
            outs.extend(
                self.core
                    .handle(Hop::Client(client), PubSubMsg::Advertise(a.clone())),
            );
        }
        let mut out = self.absorb(outs);
        // unwrap: the copy was inserted above
        let stub = self.clients.get_mut(&client).unwrap();
        stub.set_state(ClientState::Started);
        for p in stub.flush_buffered() {
            out.push(Output::DeliverToApp {
                client,
                publication: p,
            });
        }
        let ops = stub.drain_ops();
        for op in ops {
            out.extend(self.client_op(client, op));
        }
        // unwrap: record presence checked above
        self.tgt_moves.get_mut(&m).unwrap().state = TargetCoordState::Commit;
        out.push(Output::CancelTimer {
            token: TimerToken {
                m,
                kind: TimerKind::State,
            },
        });
        out.push(Output::ClientArrived { m, client });
        out.extend(self.forward_or_emit_toward(source, MoveMsg::CovDone { m, source, target }));
        out
    }

    fn on_cov_done(&mut self, m: MoveId) -> Vec<Output> {
        let Some(rec) = self.src_moves.remove(&m) else {
            self.anomalies += 1;
            return Vec::new();
        };
        let client = rec.client;
        let mut out = Vec::new();
        if self.config.make_before_break {
            // Retract the profile only now that the target runs, and
            // ship any notifications buffered here in the meantime.
            let profile = self
                .clients
                .get(&client)
                .map(HostedClient::profile)
                .unwrap_or_default();
            let mut outs: Vec<BrokerOutput> = Vec::new();
            for s in &profile.subs {
                outs.extend(
                    self.core
                        .handle(Hop::Client(client), PubSubMsg::Unsubscribe(s.id)),
                );
            }
            for a in &profile.advs {
                outs.extend(
                    self.core
                        .handle(Hop::Client(client), PubSubMsg::Unadvertise(a.id)),
                );
            }
            out.extend(self.absorb(outs));
        }
        // Flush anything that straggled in after the snapshot
        // (commands from a slow application; buffered notifications in
        // the make-before-break variant).
        if let Some(stub) = self.clients.get_mut(&client) {
            let late = stub.take_snapshot();
            if !late.buffered.is_empty() || !late.queued_ops.is_empty() {
                out.extend(self.forward_or_emit_toward(
                    rec.target,
                    MoveMsg::CovTransfer {
                        m,
                        client,
                        source: self.id(),
                        target: rec.target,
                        profile: ClientProfile::default(),
                        snapshot: late,
                    },
                ));
            }
        }
        self.clients.remove(&client);
        self.core.detach_client(client);
        out.push(Output::MoveFinished {
            m,
            client,
            committed: true,
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transmob_pubsub::Filter;

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
        let outs = target.handle(Hop::Broker(BrokerId(2)), Message::Move(nego));
        assert_eq!(outs.len(), 1);
        match &outs[0] {
            Output::Send { to, msg } => {
                assert_eq!(*to, BrokerId(2));
                assert!(matches!(msg, Message::Move(MoveMsg::Reject { .. })));
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
        let outs = mid.handle(Hop::Broker(BrokerId(3)), Message::Move(ack));
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
            Message::Move(MoveMsg::Ack {
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
        let outs = b.handle(Hop::Broker(BrokerId(2)), Message::Move(nego.clone()));
        assert!(matches!(
            &outs[0],
            Output::Send {
                msg: Message::Move(MoveMsg::Reject { .. }),
                ..
            }
        ));
        b.set_accept_moves(true);
        let outs = b.handle(Hop::Broker(BrokerId(2)), Message::Move(nego));
        assert!(outs.iter().any(|o| matches!(
            o,
            Output::Send {
                msg: Message::Move(MoveMsg::Reconfigure { .. }),
                ..
            }
        )));
    }
}
