//! A zero-latency, deterministic in-memory broker network.
//!
//! [`SyncNet`] hosts one [`BrokerCore`] per topology node and processes
//! messages from a single global FIFO queue (which preserves per-link
//! FIFO order). There is no clock and no concurrency: every call to
//! [`SyncNet::run`] drains the network to quiescence.
//!
//! This driver is used by unit/integration tests and by the routing
//! property checkers, where *what* the protocol converges to matters
//! but timing does not. The timing-faithful driver is `transmob-sim`.

use std::collections::{BTreeMap, VecDeque};

use transmob_pubsub::{BrokerId, ClientId, PublicationMsg};

use crate::broker::{BrokerConfig, BrokerCore};
use crate::messages::{BrokerOutput, Hop, MsgKind, PubSubMsg};
use crate::overlay::OverlayBuilder;
use crate::topology::Topology;

/// A recorded delivery of a publication to a client.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery {
    /// Broker that performed the delivery.
    pub broker: BrokerId,
    /// Receiving client.
    pub client: ClientId,
    /// The publication.
    pub publication: PublicationMsg,
}

/// A deterministic, instantaneous broker network for tests and
/// property checking.
///
/// # Examples
///
/// ```
/// use transmob_broker::{BrokerConfig, SyncNet, Topology};
/// use transmob_pubsub::{Advertisement, AdvId, ClientId, Filter, Publication,
///     PublicationMsg, PubId, SubId, Subscription};
/// use transmob_broker::PubSubMsg;
/// use transmob_pubsub::BrokerId;
///
/// let mut net = SyncNet::builder()
///     .overlay(Topology::chain(3))
///     .options(BrokerConfig::plain())
///     .start();
/// let publisher = ClientId(1);
/// let subscriber = ClientId(2);
/// let f = Filter::builder().ge("x", 0).build();
/// net.client_send(BrokerId(1), publisher,
///     PubSubMsg::Advertise(Advertisement::new(AdvId::new(publisher, 0), f.clone())));
/// net.client_send(BrokerId(3), subscriber,
///     PubSubMsg::Subscribe(Subscription::new(SubId::new(subscriber, 0), f)));
/// net.client_send(BrokerId(1), publisher,
///     PubSubMsg::Publish(PublicationMsg::new(PubId(1), publisher,
///         Publication::new().with("x", 5))));
/// let deliveries = net.take_deliveries();
/// assert_eq!(deliveries.len(), 1);
/// assert_eq!(deliveries[0].client, subscriber);
/// ```
#[derive(Debug)]
pub struct SyncNet {
    topology: Topology,
    brokers: BTreeMap<BrokerId, BrokerCore>,
    queue: VecDeque<(BrokerId, Hop, PubSubMsg)>,
    deliveries: Vec<Delivery>,
    traffic: BTreeMap<MsgKind, u64>,
}

impl SyncNet {
    /// The builder entry point: `SyncNet::builder().overlay(..)
    /// .options(..).start()`.
    pub fn builder() -> SyncNetBuilder {
        SyncNetBuilder::default()
    }

    /// A cyclic topology forces [`BrokerConfig::multipath`] on —
    /// cyclic routing is undefined without it.
    fn from_parts(topology: Topology, mut config: BrokerConfig) -> Self {
        config.multipath |= !topology.is_tree();
        let brokers = topology
            .brokers()
            .map(|b| {
                (
                    b,
                    BrokerCore::new(b, topology.neighbors(b).iter().copied(), config),
                )
            })
            .collect();
        SyncNet {
            topology,
            brokers,
            queue: VecDeque::new(),
            deliveries: Vec::new(),
            traffic: BTreeMap::new(),
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
    /// Panics if `id` is not in the topology.
    pub fn broker(&self, id: BrokerId) -> &BrokerCore {
        &self.brokers[&id]
    }

    /// Mutable access to a broker (for the movement protocols and for
    /// test setup).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the topology.
    pub fn broker_mut(&mut self, id: BrokerId) -> &mut BrokerCore {
        self.brokers.get_mut(&id).expect("unknown broker id")
    }

    /// Injects a client message at `broker` and runs the network to
    /// quiescence.
    pub fn client_send(&mut self, broker: BrokerId, client: ClientId, msg: PubSubMsg) {
        self.queue.push_back((broker, Hop::Client(client), msg));
        self.run();
    }

    /// Enqueues a client message without running (for batching).
    pub fn enqueue_client(&mut self, broker: BrokerId, client: ClientId, msg: PubSubMsg) {
        self.queue.push_back((broker, Hop::Client(client), msg));
    }

    /// Applies `f` to one broker and routes the outputs it returns,
    /// then runs to quiescence. Used by movement protocols that
    /// manipulate broker state directly.
    pub fn with_broker<R>(
        &mut self,
        id: BrokerId,
        f: impl FnOnce(&mut BrokerCore) -> (R, Vec<BrokerOutput>),
    ) -> R {
        let broker = self.brokers.get_mut(&id).expect("unknown broker id");
        let (r, outputs) = f(broker);
        self.route_outputs(id, outputs);
        self.run();
        r
    }

    /// Drains the message queue, routing every output until the
    /// network is quiescent.
    ///
    /// Consecutive queue entries sharing a destination and arrival
    /// direction are ingested through one [`BrokerCore::handle_batch`]
    /// call. The batch call is defined as the sequential fold of the
    /// per-message handling, and its effects are appended in the same
    /// order the fold would emit them, so the global processing order
    /// (and thus convergence and traffic) is unchanged.
    pub fn run(&mut self) {
        while let Some((dst, from, msg)) = self.queue.pop_front() {
            *self.traffic.entry(msg.kind()).or_insert(0) += 1;
            let mut msgs = vec![msg];
            while let Some((d2, f2, _)) = self.queue.front() {
                if *d2 != dst || *f2 != from {
                    break;
                }
                // unwrap: front() just matched
                let (_, _, m) = self.queue.pop_front().unwrap();
                *self.traffic.entry(m.kind()).or_insert(0) += 1;
                msgs.push(m);
            }
            let broker = self.brokers.get_mut(&dst).expect("unknown broker id");
            let outputs = broker.handle_batch(from, msgs);
            self.route_outputs(dst, outputs);
        }
    }

    fn route_outputs(&mut self, src: BrokerId, outputs: Vec<BrokerOutput>) {
        for o in outputs {
            match o {
                BrokerOutput::ToBroker(n, msg) => {
                    self.queue.push_back((n, Hop::Broker(src), msg));
                }
                BrokerOutput::Deliver(client, publication) => {
                    self.deliveries.push(Delivery {
                        broker: src,
                        client,
                        publication,
                    });
                }
            }
        }
    }

    /// Removes and returns all recorded deliveries.
    pub fn take_deliveries(&mut self) -> Vec<Delivery> {
        std::mem::take(&mut self.deliveries)
    }

    /// The recorded deliveries (without clearing).
    pub fn deliveries(&self) -> &[Delivery] {
        &self.deliveries
    }

    /// Total messages transmitted over overlay links, by kind. Client
    /// injections are counted too (as the paper's client↔broker
    /// messages).
    pub fn traffic(&self) -> &BTreeMap<MsgKind, u64> {
        &self.traffic
    }

    /// Total messages transmitted, all kinds.
    pub fn total_traffic(&self) -> u64 {
        self.traffic.values().sum()
    }

    /// Resets traffic counters (e.g. after setup, before the measured
    /// phase).
    pub fn reset_traffic(&mut self) {
        self.traffic.clear();
    }

    /// Iterates the brokers.
    pub fn brokers(&self) -> impl Iterator<Item = (&BrokerId, &BrokerCore)> {
        self.brokers.iter()
    }
}

/// Builder for [`SyncNet`] — the same `builder().overlay(..)
/// .options(..).start()` surface every driver exposes.
#[derive(Debug, Default)]
pub struct SyncNetBuilder {
    overlay: OverlayBuilder,
    config: BrokerConfig,
}

impl SyncNetBuilder {
    /// The overlay: an [`OverlayBuilder`] or a pre-built [`Topology`].
    pub fn overlay(mut self, overlay: impl Into<OverlayBuilder>) -> Self {
        self.overlay = overlay.into();
        self
    }

    /// The per-broker routing configuration (defaults to
    /// [`BrokerConfig::plain`]).
    pub fn options(mut self, config: impl Into<BrokerConfig>) -> Self {
        self.config = config.into();
        self
    }

    /// Builds the network.
    ///
    /// # Panics
    ///
    /// Panics if the overlay is invalid (empty, disconnected,
    /// duplicate edges) — use [`OverlayBuilder::build`] directly for
    /// the typed [`crate::TopologyError`].
    pub fn start(self) -> SyncNet {
        let topology = self
            .overlay
            .build()
            .expect("invalid overlay passed to SyncNet::builder()");
        SyncNet::from_parts(topology, self.config)
    }
}
