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
//! std::thread::sleep(Duration::from_millis(50));
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

use transmob_broker::{OverlayBuilder, Topology};
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
                        let links = ChannelLinks { id: b, hub: &hub };
                        broker_loop::run(broker, Vec::new(), &rx, &hub, links);
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
/// link, so there is nothing to flush, probe or stand down.
struct ChannelLinks<'a> {
    id: BrokerId,
    hub: &'a Hub,
}

impl Links for ChannelLinks<'_> {
    fn ship(&mut self, to: BrokerId, msgs: Vec<Message>) {
        self.hub.send(to, Input::FromBroker(self.id, msgs));
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
    use std::time::Duration;
    use transmob_core::ProtocolKind;
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

    #[test]
    fn end_to_end_delivery() {
        let net = Network::builder()
            .overlay(Topology::chain(4))
            .options(MobileBrokerConfig::reconfig())
            .start();
        let p = net.create_client(b(1), c(1));
        let s = net.create_client(b(4), c(2));
        p.advertise(range(0, 100));
        s.subscribe(range(0, 100));
        std::thread::sleep(Duration::from_millis(50));
        p.publish(Publication::new().with("x", 5));
        let got = s.recv_timeout(Duration::from_secs(2)).expect("delivery");
        assert_eq!(got.publisher, c(1));
        net.shutdown();
    }

    #[test]
    fn reconfig_move_over_threads() {
        let net = Network::builder()
            .overlay(Topology::chain(5))
            .options(MobileBrokerConfig::reconfig())
            .start();
        let p = net.create_client(b(1), c(1));
        let s = net.create_client(b(5), c(2));
        p.advertise(range(0, 100));
        s.subscribe(range(0, 100));
        std::thread::sleep(Duration::from_millis(50));
        assert!(s.move_to(b(2), ProtocolKind::Reconfig, Duration::from_secs(5)));
        assert_eq!(net.home_of(c(2)), Some(b(2)));
        p.publish(Publication::new().with("x", 5));
        assert!(s.recv_timeout(Duration::from_secs(2)).is_some());
        net.shutdown();
    }

    #[test]
    fn covering_move_over_threads() {
        let net = Network::builder()
            .overlay(Topology::chain(5))
            .options(MobileBrokerConfig::covering())
            .start();
        let p = net.create_client(b(1), c(1));
        let s = net.create_client(b(5), c(2));
        p.advertise(range(0, 100));
        s.subscribe(range(0, 100));
        std::thread::sleep(Duration::from_millis(50));
        assert!(s.move_to(b(3), ProtocolKind::Covering, Duration::from_secs(5)));
        p.publish(Publication::new().with("x", 5));
        assert!(s.recv_timeout(Duration::from_secs(2)).is_some());
        net.shutdown();
    }

    #[test]
    fn no_duplicates_across_repeated_moves() {
        let net = Network::builder()
            .overlay(Topology::chain(4))
            .options(MobileBrokerConfig::reconfig())
            .start();
        let p = net.create_client(b(1), c(1));
        let s = net.create_client(b(4), c(2));
        p.advertise(range(0, 100));
        s.subscribe(range(0, 100));
        std::thread::sleep(Duration::from_millis(50));
        let mut total = 0;
        for round in 0..3 {
            let dest = if round % 2 == 0 { b(1) } else { b(4) };
            assert!(s.move_to(dest, ProtocolKind::Reconfig, Duration::from_secs(5)));
            p.publish(Publication::new().with("x", round));
            total += 1;
        }
        std::thread::sleep(Duration::from_millis(200));
        let got = s.drain();
        assert_eq!(got.len(), total);
        let ids: std::collections::BTreeSet<_> = got.iter().map(|x| x.id).collect();
        assert_eq!(ids.len(), total, "duplicate deliveries");
        net.shutdown();
    }

    /// A publisher floods broker batches (`burst` publications, then
    /// `pause`) while the subscriber's movement transactions commit on
    /// the same broker loops. Every move must commit, deliveries must
    /// stay duplicate-free, and routing must keep following the
    /// subscriber afterwards. Shared with the TCP runtime's tests.
    pub(crate) fn flood_during_moves(
        p: Client,
        s: &Client,
        dests: &[BrokerId],
        burst: i64,
        pause: Duration,
    ) {
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flood = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut x = 0i64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    p.publish(Publication::new().with("x", x));
                    x += 1;
                    if x % burst == 0 {
                        std::thread::sleep(pause);
                    }
                }
                p // keep the publisher handle alive for the epilogue
            })
        };
        for (round, dest) in dests.iter().enumerate() {
            assert!(
                s.move_to(*dest, ProtocolKind::Reconfig, Duration::from_secs(15)),
                "move {round} must commit under the publish flood"
            );
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let p = flood.join().expect("flood thread");
        std::thread::sleep(Duration::from_millis(400));
        let got = s.drain();
        let ids: std::collections::BTreeSet<_> = got.iter().map(|x| x.id).collect();
        assert_eq!(
            ids.len(),
            got.len(),
            "duplicate deliveries under contention"
        );
        // Liveness epilogue: routing still follows the subscriber.
        p.publish(Publication::new().with("x", 99_999));
        assert!(
            s.recv_timeout(Duration::from_secs(5)).is_some(),
            "delivery after the contended move sequence"
        );
    }

    #[test]
    fn publish_flood_during_moves_stays_consistent() {
        let net = Network::builder()
            .overlay(Topology::chain(4))
            .options(MobileBrokerConfig::reconfig())
            .start();
        let p = net.create_client(b(1), c(1));
        let s = net.create_client(b(4), c(2));
        p.advertise(range(0, 100_000));
        s.subscribe(range(0, 100_000));
        std::thread::sleep(Duration::from_millis(50));
        flood_during_moves(
            p,
            &s,
            &[b(2), b(4), b(2), b(4)],
            16,
            Duration::from_millis(1),
        );
        net.shutdown();
    }

    #[test]
    fn drop_shuts_down_threads() {
        let net = Network::builder()
            .overlay(Topology::chain(2))
            .options(MobileBrokerConfig::reconfig())
            .start();
        let _cl = net.create_client(b(1), c(1));
        drop(net); // must not hang
    }
}
