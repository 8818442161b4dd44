//! # transmob-runtime
//!
//! A *threaded deployment* of the transmob stack: every broker of the
//! overlay runs as an OS thread hosting the same
//! [`MobileBroker`] state machine the
//! simulator drives, exchanging messages over crossbeam channels. This
//! is the "real system" face of the reproduction: the examples and the
//! integration tests run the movement protocols over genuinely
//! concurrent brokers with wall-clock protocol timers.
//!
//! The entry point is [`Network`]; clients are driven through
//! [`Client`] handles:
//!
//! ```
//! use transmob_runtime::Network;
//! use transmob_broker::Topology;
//! use transmob_core::{MobileBrokerConfig, ProtocolKind};
//! use transmob_pubsub::{BrokerId, ClientId, Filter, Publication};
//! use std::time::Duration;
//!
//! let net = Network::builder()
//!     .overlay(Topology::chain(3))
//!     .options(MobileBrokerConfig::reconfig())
//!     .start();
//! let publisher = net.create_client(BrokerId(1), ClientId(1));
//! let subscriber = net.create_client(BrokerId(3), ClientId(2));
//! publisher.advertise(Filter::builder().ge("x", 0).build());
//! subscriber.subscribe(Filter::builder().ge("x", 0).build());
//! // The barrier: both (un)subscriptions are in place on every broker.
//! assert!(net.quiesce(Duration::from_secs(5)));
//! publisher.publish(Publication::new().with("x", 7));
//! let n = subscriber.recv_timeout(Duration::from_secs(2)).expect("delivery");
//! assert_eq!(n.publisher, ClientId(1));
//! // Move the subscriber; deliveries continue at the new broker.
//! assert!(subscriber.move_to(BrokerId(1), ProtocolKind::Reconfig, Duration::from_secs(5)));
//! publisher.publish(Publication::new().with("x", 8));
//! assert!(subscriber.recv_timeout(Duration::from_secs(2)).is_some());
//! net.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod broker_loop;
pub mod codec;
pub mod tcp;

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use transmob_broker::{OverlayBuilder, Topology};
use transmob_core::properties::Frozen;
use transmob_core::{Message, MobileBroker, MobileBrokerConfig};
use transmob_pubsub::{BrokerId, ClientId};

pub use broker_loop::{Client, MoveOutcome};
use broker_loop::{Hub, Input, Links};

/// A running broker network: one thread per broker, each running the
/// single-threaded broker loop over crossbeam channels.
///
/// Shut it down explicitly with [`Network::shutdown`]; dropping the
/// handle also stops the threads (without blocking indefinitely on a
/// healthy network).
#[derive(Debug)]
pub struct Network {
    topology: Arc<Topology>,
    hub: Arc<Hub>,
    handles: Vec<JoinHandle<()>>,
}

impl Network {
    /// The builder entry point: `Network::builder().overlay(..)
    /// .options(..).start()`.
    pub fn builder() -> NetworkBuilder {
        NetworkBuilder::default()
    }

    fn from_parts(topology: Topology, config: MobileBrokerConfig) -> Self {
        let topology = Arc::new(topology);
        let (hub, receivers) = Hub::new(topology.brokers());
        let handles = receivers
            .into_iter()
            .map(|(b, rx)| {
                let hub = Arc::clone(&hub);
                let broker = MobileBroker::new(b, Arc::clone(&topology), config.clone());
                std::thread::Builder::new()
                    .name(format!("broker-{b}"))
                    .spawn(move || {
                        let mut links = ChannelLinks { id: b, hub: &hub };
                        broker_loop::run(broker, Vec::new(), &rx, &hub, &mut links);
                    })
                    .expect("spawn broker thread")
            })
            .collect();
        Network {
            topology,
            hub,
            handles,
        }
    }

    /// The overlay topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Creates (attaches and starts) a client at `broker` and returns
    /// its handle.
    ///
    /// # Panics
    ///
    /// Panics if `broker` is not in the topology or the client id is
    /// already in use.
    pub fn create_client(&self, broker: BrokerId, id: ClientId) -> Client {
        self.hub.create_client(broker, id)
    }

    /// The broker currently hosting `client` (its command target).
    pub fn home_of(&self, client: ClientId) -> Option<BrokerId> {
        self.hub.home_of(client)
    }

    /// Waits up to `timeout` for the network to settle: every command,
    /// message and link report applied, no protocol timer armed.
    /// Returns whether it did (DESIGN.md §12, "The barrier").
    pub fn quiesce(&self, timeout: Duration) -> bool {
        self.hub.quiesce(timeout)
    }

    /// A copy of every broker, for the property checkers of
    /// [`transmob_core::properties`]; one state of the network when
    /// taken right after [`Network::quiesce`] returned `true`.
    pub fn brokers(&self) -> Frozen {
        self.hub.brokers(&self.topology)
    }

    /// Stops all broker threads and waits for them to finish.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        self.hub.shutdown_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Network {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

/// The channel runtime's [`Links`]: a neighbour's input queue is the
/// link, so there is nothing to flush, probe or redial.
struct ChannelLinks<'a> {
    id: BrokerId,
    hub: &'a Hub,
}

impl Links for ChannelLinks<'_> {
    fn ship(&mut self, to: BrokerId, msgs: Vec<Message>) {
        self.hub.enqueue(to, Input::FromBroker(self.id, msgs));
    }
}

/// Builder for [`Network`] — the same `builder().overlay(..)
/// .options(..).start()` surface every driver exposes.
#[derive(Debug, Default)]
pub struct NetworkBuilder {
    overlay: OverlayBuilder,
    options: MobileBrokerConfig,
}

impl NetworkBuilder {
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

    /// Starts the broker threads.
    ///
    /// # Panics
    ///
    /// Panics if the overlay is invalid (empty, disconnected,
    /// duplicate edges) — use [`OverlayBuilder::build`] directly for
    /// the typed `TopologyError`.
    pub fn start(self) -> Network {
        let topology = self
            .overlay
            .build()
            .expect("invalid overlay passed to Network::builder()");
        Network::from_parts(topology, self.options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transmob_core::{properties, ProtocolKind};
    use transmob_pubsub::{Filter, PubId, Publication};

    fn b(i: u32) -> BrokerId {
        BrokerId(i)
    }
    fn c(i: u64) -> ClientId {
        ClientId(i)
    }
    fn start(topology: Topology, config: MobileBrokerConfig) -> Network {
        Network::builder().overlay(topology).options(config).start()
    }

    /// A publisher at B1 floods broker batches (`burst` publications,
    /// then `pause`) while the subscriber, first at `far`, moves through
    /// `dests` on the same broker loops. Every move must commit and,
    /// once the barrier holds, the subscriber must have every flooded
    /// publication exactly once; routing keeps following it afterwards.
    /// Shared with the TCP runtime's tests.
    pub(crate) fn flood_during_moves(
        hub: &Arc<Hub>,
        far: BrokerId,
        dests: &[BrokerId],
        burst: i64,
        pause: Duration,
    ) {
        use std::sync::atomic::{AtomicBool, Ordering};
        let wait = Duration::from_secs(15);
        let everything = || Filter::builder().ge("x", 0).build();
        let (p, s) = (hub.create_client(b(1), c(1)), hub.create_client(far, c(2)));
        p.advertise(everything());
        s.subscribe(everything());
        assert!(hub.quiesce(wait));
        let stop = Arc::new(AtomicBool::new(false));
        let (started, first_burst) = std::sync::mpsc::channel();
        let flood = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut x = 0i64;
                while x < burst || !stop.load(Ordering::Relaxed) {
                    p.publish(Publication::new().with("x", x));
                    x += 1;
                    if x % burst == 0 {
                        let _ = started.send(());
                        std::thread::sleep(pause);
                    }
                }
                (p, x) // the publisher handle outlives the flood
            })
        };
        first_burst.recv().expect("the flood starts");
        for (round, &to) in dests.iter().enumerate() {
            let committed = s.move_to(to, ProtocolKind::Reconfig, wait);
            if !committed {
                stop.store(true, Ordering::Relaxed);
            }
            assert!(
                committed,
                "move {round} must commit under the publish flood"
            );
        }
        stop.store(true, Ordering::Relaxed);
        let (p, published) = flood.join().expect("flood thread");
        assert!(hub.quiesce(wait));
        let ids: Vec<PubId> = s.drain().iter().map(|n| n.id).collect();
        assert_eq!(ids.len() as i64, published, "lost notifications");
        properties::assert_exactly_once(ids).expect("no duplicates");
        p.publish(Publication::new().with("x", published));
        assert!(hub.quiesce(wait));
        assert_eq!(s.drain().len(), 1, "delivery after the contended moves");
    }

    /// A bare routing config converts: under active covering the
    /// covering-protocol movement commits either way.
    #[test]
    fn options_accept_a_routing_config_or_a_full_one() {
        let check = |net: Network| {
            let s = net.create_client(b(1), c(1));
            assert!(s.move_to(b(2), ProtocolKind::Covering, Duration::from_secs(5)));
            net.shutdown();
        };
        let overlay = || Network::builder().overlay(Topology::chain(2));
        check(
            overlay()
                .options(transmob_broker::BrokerConfig::covering())
                .start(),
        );
        check(overlay().options(MobileBrokerConfig::covering()).start());
    }

    /// The barrier waits a movement out: not quiescent right after it
    /// is issued, quiescent once its outcome is queued and one copy of
    /// the client runs.
    #[test]
    fn quiesce_waits_for_a_movement() {
        let net = start(Topology::chain(6), MobileBrokerConfig::reconfig());
        let s = net.create_client(b(6), c(1));
        assert!(net.quiesce(Duration::from_secs(10)));
        s.move_to_async(b(1), ProtocolKind::Reconfig);
        assert!(!net.quiesce(Duration::ZERO));
        assert!(net.quiesce(Duration::from_secs(10)));
        let outcome = s.next_move_outcome(Duration::ZERO).expect("outcome queued");
        assert!(outcome.committed);
        properties::assert_single_instance(&net.brokers()).expect("one copy");
        assert_eq!(
            net.brokers().brokers[&b(1)].client(c(1)).map(|_| ()),
            Some(())
        );
    }

    #[test]
    fn publish_flood_during_moves_stays_consistent() {
        let net = start(Topology::chain(4), MobileBrokerConfig::reconfig());
        let dests = [b(2), b(4), b(2), b(4)];
        flood_during_moves(&net.hub, b(4), &dests, 16, Duration::from_millis(1));
    }

    #[test]
    fn drop_shuts_down_threads() {
        let net = start(Topology::chain(2), MobileBrokerConfig::reconfig());
        let _cl = net.create_client(b(1), c(1));
        drop(net); // must not hang
    }
}
