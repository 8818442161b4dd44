//! A zero-latency deterministic network of [`MobileBroker`]s.
//!
//! Like `transmob_broker::SyncNet` but for the full mobile stack:
//! messages (routing *and* movement control) are processed from one
//! global FIFO queue, every message transitively caused by a movement
//! transaction is attributed to it (the paper's per-movement message
//! metric), and protocol timers are collected but never fire — tests
//! fire them explicitly to inject timeouts.
//!
//! The timing-faithful driver with queueing delays — the one the
//! figures are produced with — is `transmob-sim`.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use transmob_broker::{Hop, MsgKind, OverlayBuilder, Topology};
use transmob_pubsub::{BrokerId, ClientId, MoveId, PublicationMsg};

use crate::messages::{ClientOp, Message, Output, TimerToken};
use crate::mobile_broker::{MobileBroker, MobileBrokerConfig};
use crate::transport::{flush_outputs, for_each_cause_run, Transport};

/// An observable event produced while draining the network.
#[derive(Debug, Clone, PartialEq)]
pub enum NetEvent {
    /// A notification surfaced to a client's application layer.
    Delivered {
        /// Broker hosting the client.
        broker: BrokerId,
        /// The client.
        client: ClientId,
        /// The notification.
        publication: PublicationMsg,
    },
    /// A movement finished (source-side view).
    MoveFinished {
        /// Movement id.
        m: MoveId,
        /// The client.
        client: ClientId,
        /// Whether it committed.
        committed: bool,
    },
    /// The moving client started at its target broker.
    ClientArrived {
        /// Movement id.
        m: MoveId,
        /// The client.
        client: ClientId,
        /// The target broker.
        broker: BrokerId,
    },
}

/// A protocol timer armed by some broker (never fired automatically).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArmedTimer {
    /// Broker that armed it.
    pub broker: BrokerId,
    /// The token.
    pub token: TimerToken,
    /// Requested delay (informational in this driver).
    pub delay_ns: u64,
}

/// Zero-latency deterministic driver for a network of mobile brokers.
///
/// `Clone` produces an independent copy of the whole network state
/// (used by benchmarks to re-run an operation from a fixed snapshot).
#[derive(Debug, Clone)]
pub struct InstantNet {
    topology: Arc<Topology>,
    brokers: BTreeMap<BrokerId, MobileBroker>,
    /// Queued message batches: each entry is one coalesced frame (all
    /// messages arrived together from one hop, processed in order).
    queue: VecDeque<(BrokerId, Hop, Vec<Message>, Option<MoveId>)>,
    events: Vec<NetEvent>,
    timers: Vec<ArmedTimer>,
    traffic: BTreeMap<MsgKind, u64>,
    per_move: BTreeMap<MoveId, u64>,
}

impl InstantNet {
    /// The builder entry point: `InstantNet::builder().overlay(..)
    /// .options(..).start()`.
    pub fn builder() -> InstantNetBuilder {
        InstantNetBuilder::default()
    }

    fn from_parts(topology: Topology, config: MobileBrokerConfig) -> Self {
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
        InstantNet {
            topology,
            brokers,
            queue: VecDeque::new(),
            events: Vec::new(),
            timers: Vec::new(),
            traffic: BTreeMap::new(),
            per_move: BTreeMap::new(),
        }
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

    /// Mutable access to a broker.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub fn broker_mut(&mut self, id: BrokerId) -> &mut MobileBroker {
        self.brokers.get_mut(&id).expect("unknown broker")
    }

    /// The broker currently hosting `client`, if any.
    pub fn find_client(&self, client: ClientId) -> Option<BrokerId> {
        self.brokers
            .iter()
            .find(|(_, b)| b.client(client).is_some())
            .map(|(id, _)| *id)
    }

    /// Creates a fresh running client at `broker`.
    pub fn create_client(&mut self, broker: BrokerId, client: ClientId) {
        self.broker_mut(broker).create_client(client);
    }

    /// Issues an application command at the client's current broker and
    /// runs the network to quiescence.
    ///
    /// # Panics
    ///
    /// Panics if the client is not hosted anywhere.
    pub fn client_op(&mut self, client: ClientId, op: ClientOp) {
        let broker = self.find_client(client).expect("client not hosted");
        let outs = self.broker_mut(broker).client_op(client, op);
        self.dispatch(broker, None, outs);
        self.run();
    }

    /// Issues an application command *without* draining the network:
    /// the produced messages stay queued. Combined with
    /// [`InstantNet::step_n`] and [`InstantNet::fire_timer`], this lets
    /// tests inject failures mid-protocol (e.g. fire the negotiate
    /// timeout while the negotiate message is still in flight).
    ///
    /// # Panics
    ///
    /// Panics if the client is not hosted anywhere.
    pub fn client_op_deferred(&mut self, client: ClientId, op: ClientOp) {
        let broker = self.find_client(client).expect("client not hosted");
        let outs = self.broker_mut(broker).client_op(client, op);
        self.dispatch(broker, None, outs);
    }

    /// Processes at most `n` queued message batches (partial execution
    /// for mid-protocol failure injection). Returns how many were
    /// processed.
    pub fn step_n(&mut self, n: usize) -> usize {
        let mut done = 0;
        while done < n {
            let Some((dst, from, msgs, cause)) = self.queue.pop_front() else {
                break;
            };
            self.process_batch(dst, from, msgs, cause);
            done += 1;
        }
        done
    }

    /// Number of message batches currently queued.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Drops every queued message (crash-style failure injection);
    /// returns how many were discarded.
    pub fn drain_queue(&mut self) -> usize {
        let n = self.queue.len();
        self.queue.clear();
        n
    }

    /// Fires an armed timer (failure injection), then runs to
    /// quiescence. Returns `true` if such a timer was pending.
    pub fn fire_timer(&mut self, broker: BrokerId, token: TimerToken) -> bool {
        let Some(pos) = self
            .timers
            .iter()
            .position(|t| t.broker == broker && t.token == token)
        else {
            return false;
        };
        self.timers.remove(pos);
        let outs = self.broker_mut(broker).handle_timer(token);
        self.dispatch(broker, Some(token.m), outs);
        self.run();
        true
    }

    /// The timers currently armed.
    pub fn armed_timers(&self) -> &[ArmedTimer] {
        &self.timers
    }

    /// Drains the queue until quiescent.
    pub fn run(&mut self) {
        while let Some((dst, from, msgs, cause)) = self.queue.pop_front() {
            self.process_batch(dst, from, msgs, cause);
        }
    }

    /// Processes one queued batch: each cause-uniform run goes through
    /// [`MobileBroker::handle_batch`] (defined as the per-message
    /// fold), keeping metrics identical to unbatched processing.
    fn process_batch(
        &mut self,
        dst: BrokerId,
        from: Hop,
        msgs: Vec<Message>,
        cause: Option<MoveId>,
    ) {
        for msg in &msgs {
            *self.traffic.entry(msg.kind()).or_insert(0) += 1;
        }
        for_each_cause_run(msgs, cause, |cause, run| {
            self.exec_run(dst, from, cause, run)
        });
    }

    fn exec_run(&mut self, dst: BrokerId, from: Hop, cause: Option<MoveId>, msgs: Vec<Message>) {
        if let Some(m) = cause {
            *self.per_move.entry(m).or_insert(0) += msgs.len() as u64;
        }
        let outs = self
            .brokers
            .get_mut(&dst)
            .expect("unknown broker")
            .handle_batch(from, msgs);
        self.dispatch(dst, cause, outs);
    }

    fn dispatch(&mut self, src: BrokerId, cause: Option<MoveId>, outs: Vec<Output>) {
        let mut flush = InstantFlush {
            net: self,
            src,
            cause,
        };
        flush_outputs(&mut flush, outs);
    }

    /// Removes and returns the recorded events.
    pub fn take_events(&mut self) -> Vec<NetEvent> {
        std::mem::take(&mut self.events)
    }

    /// The recorded events (without clearing).
    pub fn events(&self) -> &[NetEvent] {
        &self.events
    }

    /// Notifications surfaced to `client`, in order, across all
    /// recorded events.
    pub fn deliveries_to(&self, client: ClientId) -> Vec<PublicationMsg> {
        self.events
            .iter()
            .filter_map(|e| match e {
                NetEvent::Delivered {
                    client: c,
                    publication,
                    ..
                } if *c == client => Some(publication.clone()),
                _ => None,
            })
            .collect()
    }

    /// The set of clients that received at least one notification in
    /// the currently recorded events.
    pub fn deliveries_to_all(&self) -> std::collections::BTreeSet<ClientId> {
        self.events
            .iter()
            .filter_map(|e| match e {
                NetEvent::Delivered { client, .. } => Some(*client),
                _ => None,
            })
            .collect()
    }

    /// Total messages transmitted, by kind.
    pub fn traffic(&self) -> &BTreeMap<MsgKind, u64> {
        &self.traffic
    }

    /// Messages attributed (transitively) to movement `m`.
    pub fn traffic_for_move(&self, m: MoveId) -> u64 {
        self.per_move.get(&m).copied().unwrap_or(0)
    }

    /// Per-movement message counts.
    pub fn per_move_traffic(&self) -> &BTreeMap<MoveId, u64> {
        &self.per_move
    }

    /// Resets traffic counters (after setup, before measurement).
    pub fn reset_traffic(&mut self) {
        self.traffic.clear();
        self.per_move.clear();
    }

    /// Sum of anomaly counters across brokers (healthy runs: 0).
    pub fn total_anomalies(&self) -> u64 {
        self.brokers
            .values()
            .map(|b| b.anomalies() + b.core().stats().anomalies)
            .sum()
    }

    /// Iterates the brokers.
    pub fn brokers(&self) -> impl Iterator<Item = (&BrokerId, &MobileBroker)> {
        self.brokers.iter()
    }
}

/// [`Transport`] adapter for one broker step: queues coalesced frames
/// with their cause attribution and records events/timers.
struct InstantFlush<'a> {
    net: &'a mut InstantNet,
    src: BrokerId,
    cause: Option<MoveId>,
}

impl Transport for InstantFlush<'_> {
    fn send_batch(&mut self, to: BrokerId, msgs: Vec<Message>) {
        self.net
            .queue
            .push_back((to, Hop::Broker(self.src), msgs, self.cause));
    }

    fn deliver_batch(&mut self, client: ClientId, publications: Vec<PublicationMsg>) {
        for publication in publications {
            self.net.events.push(NetEvent::Delivered {
                broker: self.src,
                client,
                publication,
            });
        }
    }

    fn control(&mut self, output: Output) {
        match output {
            Output::SetTimer { token, delay_ns } => self.net.timers.push(ArmedTimer {
                broker: self.src,
                token,
                delay_ns,
            }),
            Output::CancelTimer { token } => {
                let src = self.src;
                self.net
                    .timers
                    .retain(|t| !(t.broker == src && t.token == token));
            }
            Output::MoveFinished {
                m,
                client,
                committed,
            } => self.net.events.push(NetEvent::MoveFinished {
                m,
                client,
                committed,
            }),
            Output::ClientArrived { m, client } => self.net.events.push(NetEvent::ClientArrived {
                m,
                client,
                broker: self.src,
            }),
            Output::Send { .. } | Output::DeliverToApp { .. } => {
                unreachable!("flush_outputs routes batchable effects to the batch verbs")
            }
        }
    }
}

impl crate::properties::NetworkView for InstantNet {
    fn view_topology(&self) -> &Topology {
        self.topology()
    }

    fn view_broker_ids(&self) -> Vec<BrokerId> {
        self.brokers.keys().copied().collect()
    }

    fn view_broker(&self, id: BrokerId) -> &MobileBroker {
        self.broker(id)
    }

    fn view_find_client(&self, client: ClientId) -> Option<BrokerId> {
        self.find_client(client)
    }
}

/// Builder for [`InstantNet`] — the same `builder().overlay(..)
/// .options(..).start()` surface every driver exposes.
#[derive(Debug, Default)]
pub struct InstantNetBuilder {
    overlay: OverlayBuilder,
    options: MobileBrokerConfig,
}

impl InstantNetBuilder {
    /// The overlay: an [`OverlayBuilder`] or a pre-built [`Topology`].
    pub fn overlay(mut self, overlay: impl Into<OverlayBuilder>) -> Self {
        self.overlay = overlay.into();
        self
    }

    /// Per-broker options: a [`MobileBrokerConfig`], or a bare
    /// `BrokerConfig` under the default movement settings.
    ///
    /// ```
    /// use transmob_broker::{BrokerConfig, Topology};
    /// use transmob_core::{InstantNet, MobileBrokerConfig};
    /// use transmob_pubsub::BrokerId;
    ///
    /// let start = |net: transmob_core::InstantNetBuilder| net.overlay(Topology::chain(2)).start();
    /// let bare = start(InstantNet::builder().options(BrokerConfig::covering()));
    /// let full = start(InstantNet::builder().options(MobileBrokerConfig::covering()));
    /// let routing = |net: &InstantNet| net.broker(BrokerId(1)).core().config();
    /// assert_eq!(routing(&bare), BrokerConfig::covering());
    /// assert_eq!(routing(&bare), routing(&full));
    /// ```
    pub fn options(mut self, options: impl Into<MobileBrokerConfig>) -> Self {
        self.options = options.into();
        self
    }

    /// Builds the network.
    ///
    /// # Panics
    ///
    /// Panics if the overlay is invalid (empty, disconnected,
    /// duplicate edges) — use [`OverlayBuilder::build`] directly for
    /// the typed `TopologyError`.
    pub fn start(self) -> InstantNet {
        let topology = self
            .overlay
            .build()
            .expect("invalid overlay passed to InstantNet::builder()");
        InstantNet::from_parts(topology, self.options)
    }
}
