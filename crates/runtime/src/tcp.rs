//! A TCP transport for the broker overlay: every overlay link is a
//! real socket carrying length-prefixed binary frames of the protocol
//! [`Message`]s (newline-delimited JSON in the debug/interop mode —
//! see [`WireMode`] and DESIGN.md §13) — the same bytes a multi-host
//! deployment would put on the wire. Brokers still run as threads of
//! this process (the paper's cluster ran one broker per machine; the
//! transport, serialization and framing are what this module makes
//! real), and clients attach through in-process handles exactly as
//! with [`crate::Network`].
//!
//! Each broker runs the single-threaded loop it shares with
//! [`crate::Network`]; this module is that loop's link layer
//! (`TcpLinks`) and everything a socket needs around it. Frames
//! written during one broker step are buffered and flushed with a
//! single syscall per touched link (`TcpLinks` tracks the touched
//! set), so the coalescer's batching survives all the way to
//! the socket. Per-link [`LinkStats`] count frames, flushes, decode
//! failures, serialize failures and publication drops, and a link
//! taken down records *why* ([`TcpNetwork::link_stats`]).
//!
//! # Failure detection and crash recovery
//!
//! Each broker drives a [`DurabilityLog`] (write-ahead command log +
//! periodic checkpoint) and sends heartbeat frames over every link, so
//! the overlay survives a broker process dying:
//!
//! - a peer disconnect (socket EOF, write error, or a failed
//!   heartbeat) marks the link **down**; protocol messages queue at
//!   the surviving endpoint instead of being dropped;
//! - the link going down, and coming back, is reported to its owning
//!   broker, whose one failure detector decides whether a link that
//!   stays down means a dead peer
//!   ([`MobileBrokerConfig::suspect_after_ns`], DESIGN.md §14);
//! - the link's dialer side redials with capped exponential backoff
//!   ([`REDIAL_BASE`] doubling up to [`REDIAL_CAP`]) until the peer
//!   accepts again, then flushes the queued frames in order;
//! - [`TcpNetwork::kill_broker`] crashes one broker (thread torn down,
//!   sockets severed, undelivered inputs lost) and
//!   [`TcpNetwork::restart_broker`] resumes it from its durability
//!   log, re-arming the timers of any in-flight movement — so a
//!   movement that was mid-flight when the broker died still commits
//!   (or aborts cleanly via its protocol timeout) after the restart.
//!
//! ```no_run
//! use transmob_runtime::tcp::TcpNetwork;
//! use transmob_broker::Topology;
//! use transmob_core::MobileBrokerConfig;
//!
//! let net = TcpNetwork::builder()
//!     .overlay(Topology::chain(3))
//!     .options(MobileBrokerConfig::reconfig())
//!     .start()
//!     .expect("bind overlay sockets");
//! // ... create clients, publish, move — same API as Network ...
//! net.shutdown();
//! ```

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::Receiver;
use parking_lot::{Mutex, MutexGuard, RwLock};
use transmob_broker::{OverlayBuilder, PubSubMsg, Topology};
use transmob_core::properties::Frozen;
use transmob_core::{DurabilityLog, MemoryLog, Message, MobileBroker, MobileBrokerConfig, Output};
use transmob_pubsub::{BrokerId, ClientId};

use crate::broker_loop::{self, Hub, Input, Links};
use crate::codec::{Frame, FrameDecoder, FrameEncoder, ReadError, WireMode};

/// A client handle on a [`TcpNetwork`]: the one [`crate::Client`].
pub use crate::Client as TcpClient;

/// Default heartbeat period: each broker pings every live link this
/// often ([`TcpOptions::heartbeat_interval`]).
pub const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(50);
/// First redial delay after a link drops.
pub const REDIAL_BASE: Duration = Duration::from_millis(25);
/// Redial backoff ceiling. Jitter never pushes a delay past it.
pub const REDIAL_CAP: Duration = Duration::from_millis(400);
/// Handshake read deadline (a half-open peer must not wedge a dialer).
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(2);

/// Default high-water mark for a down link's outbound queue, in
/// messages. Generous enough that no protocol conversation ever nears
/// it; small enough that a long partition under publication flood
/// cannot grow memory without bound.
pub const DEFAULT_DOWN_QUEUE_HWM: usize = 8192;

/// Transport tuning for one [`TcpNetwork`].
#[derive(Debug, Clone)]
pub struct TcpOptions {
    /// Frame codec for every link of this overlay (all endpoints share
    /// it; the handshake refuses mode mismatches).
    pub wire: WireMode,
    /// High-water mark for each down link's outbound queue. On
    /// overflow the oldest queued *publications* are dropped (and
    /// counted in [`LinkStats::dropped_publications`]); subscription
    /// control and movement-protocol frames are never dropped, even if
    /// that means exceeding the mark.
    pub down_queue_hwm: usize,
    /// Heartbeat period (default [`HEARTBEAT_INTERVAL`]). The probe
    /// doubles as write-path failure detection, so this bounds how
    /// long a silent peer death goes unnoticed by the sender side.
    /// Whether a link that stays down means a dead broker is the
    /// broker's call, not the transport's
    /// ([`MobileBrokerConfig::suspect_after_ns`]).
    pub heartbeat_interval: Duration,
}

impl Default for TcpOptions {
    /// Binary framing, [`DEFAULT_DOWN_QUEUE_HWM`] and
    /// [`HEARTBEAT_INTERVAL`].
    fn default() -> Self {
        TcpOptions {
            wire: WireMode::Binary,
            down_queue_hwm: DEFAULT_DOWN_QUEUE_HWM,
            heartbeat_interval: HEARTBEAT_INTERVAL,
        }
    }
}

/// The `attempt`-th redial delay (0-based): capped exponential backoff
/// with deterministic *equal jitter* — the envelope doubles from
/// `base` up to `cap`, and the delay is drawn uniformly from the upper
/// half `[envelope/2, envelope]` of it, so concurrently dropped links
/// (a broker death severs every link at once) spread their dial storms
/// instead of knocking in lockstep.
///
/// Pure and seed-deterministic: the same `(base, cap, attempt, seed)`
/// always yields the same delay, which is what lets the backoff
/// schedule be regression-tested as a value.
pub fn redial_delay(base: Duration, cap: Duration, attempt: u32, seed: u64) -> Duration {
    let envelope = base
        .saturating_mul(1u32 << attempt.min(20))
        .min(cap)
        .max(Duration::from_nanos(1));
    let half = envelope / 2;
    // splitmix64 of (seed, attempt): cheap, stateless, well-mixed.
    let mut z = seed ^ (u64::from(attempt)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    let jitter = Duration::from_nanos(z % (half.as_nanos().max(1) as u64));
    (half + jitter).min(cap)
}

/// Counters for one link endpoint, surviving reconnects (they belong
/// to the edge, not the socket).
#[derive(Debug, Default)]
struct LinkStatCells {
    frames_sent: AtomicU64,
    flushes: AtomicU64,
    serialize_failures: AtomicU64,
    decode_failures: AtomicU64,
    dropped_publications: AtomicU64,
    connects: AtomicU64,
    down_reason: Mutex<Option<String>>,
}

/// A snapshot of one link endpoint's counters
/// ([`TcpNetwork::link_stats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkStats {
    /// Frames successfully written (not necessarily flushed yet).
    pub frames_sent: u64,
    /// Successful flush syscalls that pushed buffered frames out. The
    /// broker loop flushes once per step, so under batched
    /// load this stays well below `frames_sent`.
    pub flushes: u64,
    /// Frames that failed to serialize (JSON mode only — binary
    /// encoding is total). Each one is counted, never dropped
    /// silently.
    pub serialize_failures: u64,
    /// Inbound frames that failed to decode; each takes the link down
    /// with a reason naming the corruption.
    pub decode_failures: u64,
    /// Publications dropped from the down-queue by the high-water
    /// mark ([`TcpOptions::down_queue_hwm`]).
    pub dropped_publications: u64,
    /// Connections installed on this endpoint (initial dial plus every
    /// reconnect). Exactly one per link generation — a stale dialer or
    /// reader from a superseded generation can neither install nor
    /// tear down, so churn tests can pin this count.
    pub connects: u64,
    /// Why the link last went down (`None` if it never did).
    pub down_reason: Option<String>,
}

/// One endpoint of an overlay link (this broker's writer toward one
/// neighbour).
///
/// While down, outbound protocol **messages** (not serialized frames)
/// queue here and are re-encoded on reconnect: the binary codec's
/// string table belongs to a single connection, so bytes encoded
/// against the old connection's table would desync a redialed peer.
enum LinkState {
    Up {
        w: BufWriter<TcpStream>,
        /// A clone kept for `shutdown()` so the blocked reader thread
        /// observes EOF when the link is torn down.
        sock: TcpStream,
        /// This connection's frame encoder (owns the outgoing string
        /// table; dies with the socket).
        enc: FrameEncoder,
        /// Messages written into `w` since the last successful flush.
        /// If the link dies before they reach the socket they move to
        /// the down-queue and are resent on reconnect.
        pending: Vec<Message>,
    },
    Down {
        queued: VecDeque<Message>,
        /// How many of `queued` are publications (the droppable kind),
        /// maintained incrementally for the high-water-mark check.
        queued_pubs: usize,
        /// A redial thread for this link is already running.
        redialing: bool,
    },
}

impl LinkState {
    fn fresh_down() -> LinkState {
        LinkState::Down {
            queued: VecDeque::new(),
            queued_pubs: 0,
            redialing: false,
        }
    }
}

struct Link {
    state: Mutex<LinkState>,
    /// When a frame (of any kind) last arrived from the peer.
    last_heard: Mutex<Instant>,
    /// The link's generation: bumped under the state lock whenever a
    /// new connection is installed or the state is forcibly reset
    /// (kill, shutdown). Redial threads and readers capture the
    /// generation they were spawned for and stand down when it has
    /// moved on — this is what makes "exactly one dialer, exactly one
    /// authoritative connection per link" hold across kill/restart
    /// races.
    generation: AtomicU64,
    stats: LinkStatCells,
}

impl Link {
    fn new_down() -> Self {
        Link {
            state: Mutex::new(LinkState::fresh_down()),
            last_heard: Mutex::new(Instant::now()),
            generation: AtomicU64::new(0),
            stats: LinkStatCells::default(),
        }
    }

    fn note_down(&self, reason: &str) {
        *self.stats.down_reason.lock() = Some(reason.to_string());
    }
}

/// Whether a message is a publication — the only kind the down-queue
/// high-water mark may drop. Everything else (subscription control,
/// movement protocol) is load-bearing for protocol correctness.
fn is_droppable(m: &Message) -> bool {
    matches!(m, Message::PubSub(PubSubMsg::Publish(_)))
}

fn count_droppable<'a>(msgs: impl IntoIterator<Item = &'a Message>) -> usize {
    msgs.into_iter().filter(|m| is_droppable(m)).count()
}

/// Appends `msgs` to a down link's queue, then enforces the high-water
/// mark by dropping the **oldest publications** (never protocol or
/// movement frames), and returns how many it dropped. The scan is
/// linear per drop — overflow is the pathological case, not the steady
/// state.
fn enqueue_down(
    stats: &LinkStatCells,
    queued: &mut VecDeque<Message>,
    queued_pubs: &mut usize,
    msgs: impl IntoIterator<Item = Message>,
    hwm: usize,
) -> u64 {
    let mut dropped = 0;
    for m in msgs {
        if is_droppable(&m) {
            *queued_pubs += 1;
        }
        queued.push_back(m);
    }
    while queued.len() > hwm && *queued_pubs > 0 {
        let Some(idx) = queued.iter().position(is_droppable) else {
            break;
        };
        queued.remove(idx);
        *queued_pubs -= 1;
        dropped += 1;
    }
    stats
        .dropped_publications
        .fetch_add(dropped, Ordering::Relaxed);
    dropped
}

struct Shared {
    topology: Arc<Topology>,
    config: MobileBrokerConfig,
    options: TcpOptions,
    /// Client registry and each broker's input queue (swapped on
    /// kill/restart; readers clone the sender at spawn time).
    hub: Arc<Hub>,
    /// `links[owner][peer]`: owner's endpoint of the owner–peer edge.
    /// Starts as the static overlay's edge set; overlay self-repair
    /// adds endpoints for the new repair edges at runtime (lock order:
    /// this map's lock strictly before any `Link::state` mutex).
    links: RwLock<BTreeMap<BrokerId, BTreeMap<BrokerId, Arc<Link>>>>,
    /// Every broker's listener address (stable across kill/restart —
    /// the "machine" keeps its port, only the process dies).
    addrs: BTreeMap<BrokerId, SocketAddr>,
    /// Brokers currently killed: their acceptor refuses connections
    /// and their links neither flush nor redial.
    down: RwLock<BTreeSet<BrokerId>>,
    /// `excised[owner]`: the peers `owner`'s broker declared dead, by
    /// its own suspicion timer or by a `BrokerDeath` it received. Each
    /// entry is one broker's own record, written by its loop only:
    /// its endpoints toward them are gone, and its acceptor refuses
    /// them.
    excised: RwLock<BTreeMap<BrokerId, BTreeSet<BrokerId>>>,
    shutting_down: AtomicBool,
    /// Heartbeats received, per broker (failure-detector liveness).
    pings: BTreeMap<BrokerId, AtomicU64>,
    /// Reader/dialer/acceptor threads, joined at shutdown.
    aux_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Shared({} brokers)", self.addrs.len())
    }
}

/// A broker overlay whose links are real TCP sockets, with a
/// heartbeat failure detector and crash–restart recovery from a
/// per-broker [`DurabilityLog`].
pub struct TcpNetwork {
    shared: Arc<Shared>,
    broker_handles: Mutex<BTreeMap<BrokerId, JoinHandle<()>>>,
    /// Receiver for a killed broker's fresh input channel, consumed by
    /// `restart_broker`.
    pending_rx: Mutex<BTreeMap<BrokerId, Receiver<Input>>>,
    /// Each broker's stable storage: the durability log its
    /// `MobileBroker` drives, surviving `kill_broker`.
    wals: BTreeMap<BrokerId, Arc<std::sync::Mutex<MemoryLog>>>,
}

impl std::fmt::Debug for TcpNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TcpNetwork({} brokers)", self.wals.len())
    }
}

impl TcpNetwork {
    /// The builder entry point: `TcpNetwork::builder().overlay(..)
    /// .options(..).bind(..).tcp(..).start()`.
    pub fn builder() -> TcpNetworkBuilder {
        TcpNetworkBuilder::default()
    }

    fn spawn_broker(
        &self,
        b: BrokerId,
        broker: MobileBroker,
        initial_outs: Vec<Output>,
        rx: Receiver<Input>,
    ) -> io::Result<()> {
        let shared = Arc::clone(&self.shared);
        let handle = std::thread::Builder::new()
            .name(format!("tcp-broker-{b}"))
            .spawn(move || {
                let links = TcpLinks {
                    id: b,
                    next_ping: Instant::now() + shared.options.heartbeat_interval,
                    touched: BTreeSet::new(),
                    shared: &shared,
                };
                broker_loop::run(broker, initial_outs, &rx, &shared.hub, links);
            })
            .map_err(|e| io::Error::new(e.kind(), format!("spawn broker thread {b}: {e}")))?;
        self.broker_handles.lock().insert(b, handle);
        Ok(())
    }

    /// Creates (attaches and starts) a client at `broker`, returning
    /// its handle.
    ///
    /// # Panics
    ///
    /// Panics if the client id is already in use.
    pub fn create_client(&self, broker: BrokerId, id: ClientId) -> TcpClient {
        self.shared.hub.create_client(broker, id)
    }

    /// The broker currently hosting `client`.
    pub fn home_of(&self, client: ClientId) -> Option<BrokerId> {
        self.shared.hub.home_of(client)
    }

    /// Whether `owner`'s endpoint of the link to `peer` is currently
    /// connected (failure-detector view).
    pub fn link_up(&self, owner: BrokerId, peer: BrokerId) -> bool {
        link_of(&self.shared, owner, peer)
            .is_some_and(|l| matches!(*l.state.lock(), LinkState::Up { .. }))
    }

    /// How long ago `owner` last heard anything (heartbeat or protocol
    /// frame) from `peer`.
    pub fn peer_silence(&self, owner: BrokerId, peer: BrokerId) -> Option<Duration> {
        let link = link_of(&self.shared, owner, peer)?;
        let at = *link.last_heard.lock();
        Some(at.elapsed())
    }

    /// Brokers some broker of this overlay has declared permanently
    /// dead (the union of the brokers' own records). Empty unless
    /// [`MobileBrokerConfig::suspect_after_ns`] is set.
    pub fn suspected(&self) -> BTreeSet<BrokerId> {
        let excised = self.shared.excised.read();
        excised.values().flatten().copied().collect()
    }

    /// Total heartbeats `broker` has received from its neighbours.
    pub fn heartbeats_seen(&self, broker: BrokerId) -> u64 {
        self.shared
            .pings
            .get(&broker)
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Waits up to `timeout` for the network to settle: every command,
    /// message and link report applied or dropped, no protocol timer
    /// armed; heartbeats do not count. Returns whether it did. Not
    /// exact across [`TcpNetwork::kill_broker`] (DESIGN.md §12, "The
    /// barrier").
    pub fn quiesce(&self, timeout: Duration) -> bool {
        self.shared.hub.quiesce(timeout)
    }

    /// A copy of every broker, for the property checkers of
    /// [`transmob_core::properties`]; one state of the network when
    /// taken right after [`TcpNetwork::quiesce`] returned `true`.
    ///
    /// # Panics
    ///
    /// Panics while a broker is killed.
    pub fn brokers(&self) -> Frozen {
        self.shared.hub.brokers(&self.shared.topology)
    }

    /// The frame codec this overlay runs.
    pub fn wire_mode(&self) -> WireMode {
        self.shared.options.wire
    }

    /// The listener address of `broker` (stable across kill/restart).
    pub fn broker_addr(&self, broker: BrokerId) -> Option<SocketAddr> {
        self.shared.addrs.get(&broker).copied()
    }

    /// Counters for `owner`'s endpoint of the link to `peer`. The
    /// counters belong to the edge and survive reconnects.
    pub fn link_stats(&self, owner: BrokerId, peer: BrokerId) -> Option<LinkStats> {
        let link = link_of(&self.shared, owner, peer)?;
        let s = &link.stats;
        let down_reason = s.down_reason.lock().clone();
        Some(LinkStats {
            frames_sent: s.frames_sent.load(Ordering::Relaxed),
            flushes: s.flushes.load(Ordering::Relaxed),
            serialize_failures: s.serialize_failures.load(Ordering::Relaxed),
            decode_failures: s.decode_failures.load(Ordering::Relaxed),
            dropped_publications: s.dropped_publications.load(Ordering::Relaxed),
            connects: s.connects.load(Ordering::Relaxed),
            down_reason,
        })
    }

    /// Crashes `broker`: its thread is torn down, its sockets severed
    /// (neighbours observe the disconnect and start queueing +
    /// redialing), and any inputs it had not yet applied are lost.
    /// Its durability log — everything appended before the crash —
    /// survives for [`TcpNetwork::restart_broker`].
    pub fn kill_broker(&self, broker: BrokerId) {
        // Mark down first so reader-side disconnect handling neither
        // redials on this broker's behalf nor lets its acceptor admit
        // new connections while it is dead.
        self.shared.down.write().insert(broker);
        // Fresh input channel: frames and commands sent from now on
        // wait for the restarted process; the old channel (with any
        // undelivered inputs) dies with the thread.
        let rx = self.shared.hub.replace_queue(broker);
        self.pending_rx.lock().insert(broker, rx);
        // Sever every link endpoint; drop anything it had queued. The
        // generation bump (under the state lock) retires any redial
        // thread or reader still running for the old process — this is
        // what prevents a stale dialer surviving the kill from racing
        // the restart's fresh one.
        let peers: Vec<Arc<Link>> = self
            .shared
            .links
            .read()
            .get(&broker)
            .map(|m| m.values().cloned().collect())
            .unwrap_or_default();
        for link in peers {
            let mut st = link.state.lock();
            if let LinkState::Up { sock, .. } = &*st {
                let _ = sock.shutdown(std::net::Shutdown::Both);
            }
            link.generation.fetch_add(1, Ordering::SeqCst);
            link.note_down("broker killed");
            *st = LinkState::fresh_down();
        }
        if let Some(h) = self.broker_handles.lock().remove(&broker) {
            let _ = h.join();
        }
    }

    /// Restarts a broker previously crashed with
    /// [`TcpNetwork::kill_broker`]: rebuilds its state from the
    /// durability log (checkpoint + record replay), re-arms the timers
    /// of any in-flight movement, reports each of its links down until
    /// that link is installed again (so its failure detector suspects
    /// a neighbour that never returns), rejoins the overlay (dialing
    /// out and accepting again), and flushes whatever its neighbours
    /// queued during the outage.
    ///
    /// # Errors
    ///
    /// Fails if the broker is not currently killed, or on thread-spawn
    /// / log errors.
    pub fn restart_broker(&self, broker: BrokerId) -> io::Result<()> {
        if !self.pending_rx.lock().contains_key(&broker) {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("broker {broker} is not killed"),
            ));
        }
        if self.suspected().contains(&broker) {
            // The overlay declared it dead and repaired around it; its
            // old edges no longer exist. Coming back is a *join*, not a
            // restart.
            return Err(io::Error::new(
                io::ErrorKind::AddrNotAvailable,
                format!("broker {broker} was excised by overlay self-repair"),
            ));
        }
        let log = Arc::clone(&self.wals[&broker]);
        let (snapshot, records) = log
            .lock()
            .map_err(|_| io::Error::other(format!("broker {broker} WAL mutex poisoned")))?
            .contents();
        let Some(snapshot) = snapshot else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("broker {broker} durability log holds no checkpoint"),
            ));
        };
        let (mut recovered, timer_outs) = MobileBroker::recover(
            Arc::clone(&self.shared.topology),
            self.shared.config.clone(),
            snapshot,
            &records,
        );
        // Re-attach the log; this checkpoints the recovered state and
        // truncates the replayed records.
        let wal: Arc<std::sync::Mutex<dyn DurabilityLog>> = log;
        recovered
            .attach_durability(wal)
            .map_err(|e| io::Error::new(e.kind(), format!("re-attach WAL for {broker}: {e}")))?;
        // Recovery succeeded; only now consume the pending channel so a
        // failed attempt leaves the broker cleanly killed and
        // retryable.
        let rx = self.pending_rx.lock().remove(&broker).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("broker {broker} was restarted concurrently"),
            )
        })?;
        let peers: Vec<BrokerId> = self
            .shared
            .links
            .read()
            .get(&broker)
            .map(|m| m.keys().copied().collect())
            .unwrap_or_default();
        // Link reports are not logged, so the recovered broker knows of
        // no outage: report every link down, queued before the acceptor
        // admits anyone, and let each link that comes back report
        // itself up (`install_link`). A neighbour that never returns is
        // then suspected like any other (DESIGN.md §14).
        for &n in &peers {
            self.shared.hub.send(broker, Input::Link(n, false));
        }
        self.shared.down.write().remove(&broker);
        self.spawn_broker(broker, recovered, timer_outs, rx)?;
        // Rejoin the overlay: redial the edges this broker dials (its
        // current link map — repair edges included); for the rest, the
        // surviving dialer's backoff loop is already knocking and will
        // get through now that the acceptor answers.
        for n in peers {
            if broker < n {
                maybe_redial(&self.shared, broker, n);
            }
        }
        Ok(())
    }

    /// Stops all broker threads, closes every socket so reader threads
    /// observe EOF, and waits for them all.
    pub fn shutdown(self) {
        drop(self); // Drop runs the actual teardown.
    }

    fn stop(&mut self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        self.shared.hub.shutdown_all();
        let all_links: Vec<Arc<Link>> = self
            .shared
            .links
            .read()
            .values()
            .flat_map(|m| m.values().cloned())
            .collect();
        for link in all_links {
            let mut st = link.state.lock();
            if let LinkState::Up { sock, .. } = &*st {
                let _ = sock.shutdown(std::net::Shutdown::Both);
            }
            link.generation.fetch_add(1, Ordering::SeqCst);
            *st = LinkState::fresh_down();
        }
        // Wake each acceptor so it can observe the flag and exit.
        for addr in self.shared.addrs.values() {
            let _ = TcpStream::connect_timeout(addr, Duration::from_millis(200));
        }
        for (_, h) in std::mem::take(&mut *self.broker_handles.lock()) {
            let _ = h.join();
        }
        // Aux threads exit on EOF / the flag; redial threads wake from
        // their (capped) backoff sleep and observe the flag.
        loop {
            let batch = std::mem::take(&mut *self.shared.aux_threads.lock());
            if batch.is_empty() {
                break;
            }
            for h in batch {
                let _ = h.join();
            }
        }
    }
}

impl Drop for TcpNetwork {
    fn drop(&mut self) {
        self.stop();
    }
}

// ---------------------------------------------------------------------
// Link management
// ---------------------------------------------------------------------

fn link_of(shared: &Shared, owner: BrokerId, peer: BrokerId) -> Option<Arc<Link>> {
    shared
        .links
        .read()
        .get(&owner)
        .and_then(|m| m.get(&peer))
        .cloned()
}

/// `link_of`, creating the endpoint if it does not exist yet, unless
/// `owner` excised `peer`. Overlay self-repair adds edges that were not
/// in the static topology; the endpoints for them materialize lazily —
/// on the anchor side when the repair outputs are dispatched, on the
/// far side when the anchor's dial arrives.
fn ensure_link(shared: &Shared, owner: BrokerId, peer: BrokerId) -> Option<Arc<Link>> {
    if let Some(link) = link_of(shared, owner, peer) {
        return Some(link);
    }
    // Under the map's write lock, where `note_death` records an
    // excision and drops the endpoint in one step.
    let mut links = shared.links.write();
    if is_excised(shared, owner, peer) {
        return None;
    }
    let endpoints = links.entry(owner).or_default();
    Some(Arc::clone(
        endpoints
            .entry(peer)
            .or_insert_with(|| Arc::new(Link::new_down())),
    ))
}

/// Whether `owner`'s broker has declared `peer` dead.
fn is_excised(shared: &Shared, owner: BrokerId, peer: BrokerId) -> bool {
    (shared.excised.read().get(&owner)).is_some_and(|dead| dead.contains(&peer))
}

/// Takes `owner`'s link to `peer` from up to down: severs the socket,
/// moves the frames written since the last flush and then `unsent` to
/// the down-queue, records `reason`, reports the link down to `owner`'s
/// failure detector (`Input::Link`), and kicks the redial loop. The one
/// place a link goes down; a link that is already down only gets the
/// kick.
fn take_down(
    shared: &Arc<Shared>,
    owner: BrokerId,
    peer: BrokerId,
    link: &Link,
    mut st: MutexGuard<'_, LinkState>,
    reason: &str,
    unsent: Vec<Message>,
) {
    let LinkState::Up { sock, pending, .. } = &mut *st else {
        drop(st);
        maybe_redial(shared, owner, peer);
        return;
    };
    let _ = sock.shutdown(std::net::Shutdown::Both);
    let mut queued: VecDeque<Message> = std::mem::take(pending).into();
    let mut queued_pubs = count_droppable(&queued);
    let hwm = shared.options.down_queue_hwm;
    let dropped = enqueue_down(&link.stats, &mut queued, &mut queued_pubs, unsent, hwm);
    shared.hub.discard(peer, dropped);
    link.note_down(reason);
    *st = LinkState::Down {
        queued,
        queued_pubs,
        redialing: false,
    };
    drop(st);
    shared.hub.send(owner, Input::Link(peer, false));
    maybe_redial(shared, owner, peer);
}

/// Writes one protocol-message frame on `owner`'s link to `peer`
/// **without flushing** — the broker loop flushes each touched link
/// once per step ([`flush_link`]). While the link is down the
/// messages queue un-encoded (the binary string table belongs to a
/// single connection), bounded by the down-queue high-water mark.
/// Messages dropped here are counted ended for the barrier.
fn send_msgs(shared: &Arc<Shared>, owner: BrokerId, peer: BrokerId, msgs: Vec<Message>) {
    let n = msgs.len() as u64;
    // Auto-vivify: repair edges are not in the static link map; the
    // first frame the repair routes over one creates the endpoint.
    let Some(link) = ensure_link(shared, owner, peer) else {
        shared.hub.discard(peer, n);
        return; // a broker sends nothing to a peer it excised
    };
    let mut st = link.state.lock();
    let unsent = match &mut *st {
        LinkState::Up {
            w, enc, pending, ..
        } => {
            let frame = Frame::Msg {
                from: owner.0,
                msgs,
            };
            let write_ok = match enc.encode(&frame) {
                Ok(bytes) => w.write_all(bytes).is_ok(),
                Err(e) => {
                    // A frame that cannot be serialized (JSON mode
                    // only; binary encoding is total) must never
                    // vanish silently: count it, and in debug
                    // builds treat any non-injected failure as a
                    // bug.
                    link.stats
                        .serialize_failures
                        .fetch_add(1, Ordering::Relaxed);
                    shared.hub.discard(peer, n);
                    debug_assert!(
                        e.0.contains("injected"),
                        "frame serialize failed on {owner}->{peer}: {e}"
                    );
                    return;
                }
            };
            let Frame::Msg { msgs, .. } = frame else {
                unreachable!()
            };
            if write_ok {
                link.stats.frames_sent.fetch_add(1, Ordering::Relaxed);
                pending.extend(msgs);
                return;
            }
            // Peer disconnect detected on the write path (the
            // heartbeat guarantees this fires within one interval of
            // a silent peer death): the failed frame joins the
            // unflushed ones in the down-queue.
            msgs
        }
        LinkState::Down {
            queued,
            queued_pubs,
            ..
        } => {
            let hwm = shared.options.down_queue_hwm;
            let dropped = enqueue_down(&link.stats, queued, queued_pubs, msgs, hwm);
            drop(st);
            shared.hub.discard(peer, dropped);
            // A static edge already has a dialer knocking; a fresh
            // repair edge does not — kick one (no-op when one runs).
            maybe_redial(shared, owner, peer);
            return;
        }
    };
    take_down(shared, owner, peer, &link, st, "write failed", unsent);
}

/// Sends one heartbeat on `owner`'s link to `peer`, flushing
/// immediately (the probe doubles as write-path failure detection, so
/// it must actually hit the socket). Skipped while the link is down —
/// a stale ping carries no information.
fn send_ping(shared: &Arc<Shared>, owner: BrokerId, peer: BrokerId) {
    let Some(link) = link_of(shared, owner, peer) else {
        return;
    };
    let mut st = link.state.lock();
    let LinkState::Up {
        w, enc, pending, ..
    } = &mut *st
    else {
        return;
    };
    match enc.encode(&Frame::Ping { from: owner.0 }) {
        Ok(bytes) => {
            if w.write_all(bytes).and_then(|()| w.flush()).is_ok() {
                link.stats.frames_sent.fetch_add(1, Ordering::Relaxed);
                link.stats.flushes.fetch_add(1, Ordering::Relaxed);
                // The flush carried any batched frames with it.
                pending.clear();
                return;
            }
        }
        Err(e) => {
            link.stats
                .serialize_failures
                .fetch_add(1, Ordering::Relaxed);
            debug_assert!(
                e.0.contains("injected"),
                "ping serialize failed on {owner}->{peer}: {e}"
            );
            return;
        }
    }
    take_down(
        shared,
        owner,
        peer,
        &link,
        st,
        "heartbeat write failed",
        Vec::new(),
    );
}

/// Flushes `owner`'s link to `peer` — called once per broker step
/// for each link the batch wrote to, turning N frames into one flush
/// syscall. A flush failure demotes the unflushed frames to the
/// down-queue (they are resent on reconnect).
fn flush_link(shared: &Arc<Shared>, owner: BrokerId, peer: BrokerId) {
    let Some(link) = link_of(shared, owner, peer) else {
        return;
    };
    let mut st = link.state.lock();
    let LinkState::Up { w, pending, .. } = &mut *st else {
        return;
    };
    if pending.is_empty() {
        return; // nothing written since the last flush
    }
    if w.flush().is_ok() {
        link.stats.flushes.fetch_add(1, Ordering::Relaxed);
        pending.clear();
        return;
    }
    take_down(shared, owner, peer, &link, st, "flush failed", Vec::new());
}

/// Marks `owner`'s link to `peer` down (reader-side disconnect),
/// recording `reason` so chaos tests can assert *why* the link died,
/// and kicks the redial loop if this endpoint is the dialer. Frames
/// written but not yet flushed move to the down-queue for resend.
///
/// `generation` is the connection the caller observed dying: if the
/// link has since moved on (a newer connection was installed, or a
/// kill reset the state), the stale teardown is a no-op — a reader
/// from a superseded socket must not kill its healthy successor.
fn mark_link_down(
    shared: &Arc<Shared>,
    owner: BrokerId,
    peer: BrokerId,
    reason: &str,
    generation: u64,
) {
    let Some(link) = link_of(shared, owner, peer) else {
        return;
    };
    let st = link.state.lock();
    if link.generation.load(Ordering::SeqCst) != generation {
        return;
    }
    take_down(shared, owner, peer, &link, st, reason, Vec::new());
}

/// Starts a redial thread for the (owner → peer) link if owner is the
/// edge's dialer, the link is down and no redialer is running yet. An
/// excised peer has no endpoint left to redial.
///
/// The thread captures the link generation it was authorized under;
/// every wake-up re-validates it, so a dialer stranded in a backoff
/// sleep across a kill/restart of `owner` stands down instead of
/// racing the restart's fresh dialer (the duplicate used to install a
/// second connection whose leftover reader then tore down the healthy
/// one).
fn maybe_redial(shared: &Arc<Shared>, owner: BrokerId, peer: BrokerId) {
    if owner > peer {
        return; // the peer dials this edge
    }
    if shared.shutting_down.load(Ordering::SeqCst) || shared.down.read().contains(&owner) {
        return;
    }
    let Some(link) = link_of(shared, owner, peer) else {
        return;
    };
    let my_gen = {
        let mut st = link.state.lock();
        match &mut *st {
            LinkState::Down { redialing, .. } => {
                if *redialing {
                    return;
                }
                *redialing = true;
            }
            LinkState::Up { .. } => return,
        }
        link.generation.load(Ordering::SeqCst)
    };
    let shared2 = Arc::clone(shared);
    // The jitter seed only has to decorrelate the links of one
    // process; edge identity plus generation does that and keeps runs
    // reproducible.
    let seed = (u64::from(owner.0) << 40) ^ (u64::from(peer.0) << 20) ^ my_gen;
    let handle = std::thread::Builder::new()
        .name(format!("tcp-redial-{owner}-{peer}"))
        .spawn(move || {
            let mut attempt = 0u32;
            // Clears the redial flag iff this thread still owns it.
            let stand_down = |shared: &Arc<Shared>| {
                if let Some(link) = link_of(shared, owner, peer) {
                    let mut st = link.state.lock();
                    if link.generation.load(Ordering::SeqCst) == my_gen {
                        if let LinkState::Down { redialing, .. } = &mut *st {
                            *redialing = false;
                        }
                    }
                }
            };
            loop {
                std::thread::sleep(redial_delay(REDIAL_BASE, REDIAL_CAP, attempt, seed));
                attempt += 1;
                if shared2.shutting_down.load(Ordering::SeqCst)
                    || shared2.down.read().contains(&owner)
                {
                    stand_down(&shared2);
                    return;
                }
                // A kill/restart (or a competing install) moved the
                // link to a new generation, or the peer was excised:
                // this dialer is stale.
                let Some(link) = link_of(&shared2, owner, peer) else {
                    return;
                };
                if link.generation.load(Ordering::SeqCst) != my_gen {
                    return;
                }
                if dial_link(&shared2, owner, peer, Some(my_gen)).is_ok() {
                    return; // install_link cleared the flag
                }
            }
        });
    match handle {
        Ok(h) => shared.aux_threads.lock().push(h),
        Err(_) => {
            if let LinkState::Down { redialing, .. } = &mut *link.state.lock() {
                *redialing = false;
            }
        }
    }
}

/// Dials `peer` on behalf of `owner` and installs the connection.
/// Handshake: dialer sends its broker id and wire-mode token, acceptor
/// answers `ok` only if its broker process is actually up and the
/// codec matches — so queued frames are never flushed into a dead (or
/// differently-framed) peer.
///
/// `expect_generation` (redial path) makes the install conditional: if
/// the link's generation moved while the dial was in flight (owner
/// killed, competing install), the fresh socket is discarded instead
/// of installed on behalf of a world that no longer exists.
fn dial_link(
    shared: &Arc<Shared>,
    owner: BrokerId,
    peer: BrokerId,
    expect_generation: Option<u64>,
) -> io::Result<()> {
    let stream = TcpStream::connect(shared.addrs[&peer])?;
    stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
    {
        let mut w = BufWriter::new(stream.try_clone()?);
        writeln!(w, "{} {}", owner.0, shared.options.wire.token())?;
        w.flush()?;
    }
    // Read the reply byte-by-byte: the peer flushes queued protocol
    // frames immediately after "ok\n", and a buffered reader here
    // would swallow those bytes before the reader thread exists.
    let mut line = String::new();
    {
        use std::io::Read;
        let mut one = [0u8; 1];
        let mut raw = stream.try_clone()?;
        loop {
            if raw.read(&mut one)? == 0 || one[0] == b'\n' {
                break;
            }
            line.push(one[0] as char);
            if line.len() > 16 {
                break;
            }
        }
    }
    if line.trim() != "ok" {
        return Err(io::Error::new(
            io::ErrorKind::ConnectionRefused,
            format!("peer {peer} refused handshake"),
        ));
    }
    stream.set_read_timeout(None)?;
    install_link(shared, owner, peer, stream, expect_generation)
}

/// How many queued messages a reconnect packs into one frame when it
/// drains the down-queue.
const RECONNECT_CHUNK: usize = 256;

/// Installs a fresh socket as `owner`'s endpoint toward `peer`,
/// re-encoding and flushing any messages queued while the link was
/// down, and spawns the reader for the inbound direction. Latest
/// connection wins: a previously installed socket is severed (its
/// unflushed messages carry over to the new connection).
///
/// The fresh connection gets a fresh [`FrameEncoder`] — the binary
/// string table is per-connection state, negotiated from empty on both
/// sides, which is exactly why the down-queue holds [`Message`]s and
/// not pre-serialized bytes.
fn install_link(
    shared: &Arc<Shared>,
    owner: BrokerId,
    peer: BrokerId,
    stream: TcpStream,
    expect_generation: Option<u64>,
) -> io::Result<()> {
    let Some(link) = ensure_link(shared, owner, peer) else {
        let _ = stream.shutdown(std::net::Shutdown::Both);
        return Err(io::Error::new(
            io::ErrorKind::ConnectionRefused,
            format!("{owner} excised {peer}"),
        ));
    };
    // Every dialed and accepted stream passes through here. Frames are
    // written through a `BufWriter` flushed once per output batch, so
    // Nagle's algorithm has nothing to coalesce and only adds a
    // delayed ACK (40 ms) to each write-write-read exchange.
    stream.set_nodelay(true)?;
    let reader_stream = stream.try_clone()?;
    let sock = stream.try_clone()?;
    let mut st = link.state.lock();
    // Checked under the link lock: `stop` sets the flag before its
    // sever pass takes these locks, so no connection can slip in
    // after the pass and leave a reader blocked on a live socket.
    if shared.shutting_down.load(Ordering::SeqCst) || shared.down.read().contains(&owner) {
        let _ = sock.shutdown(std::net::Shutdown::Both);
        return Err(io::Error::new(io::ErrorKind::Interrupted, "shutting down"));
    }
    if let Some(expect) = expect_generation {
        if link.generation.load(Ordering::SeqCst) != expect {
            let _ = sock.shutdown(std::net::Shutdown::Both);
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "link generation moved during dial",
            ));
        }
    }
    let mut queued = match std::mem::replace(&mut *st, LinkState::fresh_down()) {
        LinkState::Up {
            sock: old, pending, ..
        } => {
            let _ = old.shutdown(std::net::Shutdown::Both);
            pending.into()
        }
        LinkState::Down { queued, .. } => queued,
    };
    let mut enc = FrameEncoder::new(shared.options.wire);
    let mut w = BufWriter::new(stream);
    let mut written = true;
    let mut frames = 0u64;
    for chunk in queued.make_contiguous().chunks(RECONNECT_CHUNK) {
        let frame = Frame::Msg {
            from: owner.0,
            msgs: chunk.to_vec(),
        };
        match enc.encode(&frame) {
            Ok(bytes) => {
                written = w.write_all(bytes).is_ok();
                if !written {
                    break;
                }
                frames += 1;
            }
            Err(e) => {
                link.stats
                    .serialize_failures
                    .fetch_add(1, Ordering::Relaxed);
                debug_assert!(
                    e.0.contains("injected"),
                    "reconnect frame serialize failed on {owner}->{peer}: {e}"
                );
                written = false;
                break;
            }
        }
    }
    let flushed = written && w.flush().is_ok();
    // New connection, new generation: retires any reader or dialer of
    // the previous one, and the dialer of this one if it fails below.
    let reader_generation = link.generation.fetch_add(1, Ordering::SeqCst) + 1;
    let pending = if flushed { Vec::new() } else { queued.into() };
    *st = LinkState::Up {
        w,
        sock,
        enc,
        pending,
    };
    if !flushed {
        // The fresh socket died mid-flush. Requeue everything — some
        // frames may arrive twice, which the movement protocol's
        // duplicate-tolerant handlers absorb.
        take_down(
            shared,
            owner,
            peer,
            &link,
            st,
            "reconnect flush failed",
            Vec::new(),
        );
        return Err(io::Error::new(
            io::ErrorKind::BrokenPipe,
            "reconnect flush failed",
        ));
    }
    link.stats.frames_sent.fetch_add(frames, Ordering::Relaxed);
    if frames > 0 {
        link.stats.flushes.fetch_add(1, Ordering::Relaxed);
    }
    link.stats.connects.fetch_add(1, Ordering::Relaxed);
    *link.last_heard.lock() = Instant::now();
    drop(st);
    shared.hub.send(owner, Input::Link(peer, true));
    spawn_reader(shared, owner, peer, reader_stream, reader_generation)
}

/// Reads frames from one socket (in the overlay's wire mode) and
/// feeds them to the owning broker's input channel. Exits on EOF,
/// socket error, or a corrupt frame — marking the link down with a
/// reason that distinguishes the three, and counting corruption in
/// the link stats.
fn spawn_reader(
    shared: &Arc<Shared>,
    owner: BrokerId,
    peer: BrokerId,
    stream: TcpStream,
    generation: u64,
) -> io::Result<()> {
    // Snapshot the current input sender: a reader that outlives a
    // kill/restart must not feed the reborn broker from a stale
    // socket's thread (its sends just fail and the thread exits).
    let tx = shared.hub.sender(owner);
    let shared2 = Arc::clone(shared);
    let handle = std::thread::Builder::new()
        .name(format!("tcp-reader-{owner}-{peer}"))
        .spawn(move || {
            let mut reader = BufReader::new(stream);
            let mut dec = FrameDecoder::new(shared2.options.wire);
            let reason = loop {
                match dec.read_frame(&mut reader) {
                    Ok(Some(frame)) => {
                        if let Some(link) = link_of(&shared2, owner, peer) {
                            *link.last_heard.lock() = Instant::now();
                        }
                        match frame {
                            Frame::Ping { .. } => {
                                if let Some(c) = shared2.pings.get(&owner) {
                                    c.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            Frame::Msg { from, msgs } => {
                                if tx.send(Input::FromBroker(BrokerId(from), msgs)).is_err() {
                                    break "broker gone".to_string();
                                }
                            }
                        }
                    }
                    Ok(None) => break "peer closed".to_string(),
                    Err(ReadError::Io(e)) => break format!("read error: {e}"),
                    Err(ReadError::Corrupt(e)) => {
                        // Corrupt peer: count it and drop the link —
                        // the codec is desynced, so no later frame on
                        // this connection can be trusted.
                        if let Some(link) = link_of(&shared2, owner, peer) {
                            link.stats.decode_failures.fetch_add(1, Ordering::Relaxed);
                        }
                        break format!("corrupt frame: {e}");
                    }
                }
            };
            if !shared2.shutting_down.load(Ordering::SeqCst) {
                mark_link_down(&shared2, owner, peer, &reason, generation);
            }
        })
        .map_err(|e| io::Error::new(e.kind(), format!("spawn reader for {owner}: {e}")))?;
    shared.aux_threads.lock().push(handle);
    Ok(())
}

/// Accepts connections for one broker forever. A connection is only
/// admitted (handshake answered with `ok`) while the broker process is
/// up; during a kill window dialers keep backing off and retrying.
fn spawn_acceptor(shared: &Arc<Shared>, owner: BrokerId, listener: TcpListener) -> io::Result<()> {
    let shared2 = Arc::clone(shared);
    let handle = std::thread::Builder::new()
        .name(format!("tcp-accept-{owner}"))
        .spawn(move || loop {
            let Ok((stream, _)) = listener.accept() else {
                return;
            };
            if shared2.shutting_down.load(Ordering::SeqCst) {
                return;
            }
            if stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT)).is_err() {
                continue;
            }
            let mut r = BufReader::new(match stream.try_clone() {
                Ok(s) => s,
                Err(_) => continue,
            });
            let mut line = String::new();
            if r.read_line(&mut line).is_err() {
                continue;
            }
            let mut fields = line.split_whitespace();
            let Some(Ok(peer)) = fields.next().map(|f| f.parse::<u32>().map(BrokerId)) else {
                continue;
            };
            // The mode token guards against a peer (or test harness)
            // framing the stream differently: refuse rather than feed
            // the decoder a foreign format.
            if let Some(tok) = fields.next() {
                if WireMode::from_token(tok) != Some(shared2.options.wire) {
                    continue;
                }
            }
            // Any broker of this overlay may dial in: overlay
            // self-repair creates edges the static topology never had,
            // and the anchor's dial for one must not be refused. A
            // shutdown wake-up (no valid id) still falls out here.
            if peer == owner || !shared2.addrs.contains_key(&peer) {
                continue;
            }
            if shared2.down.read().contains(&owner) {
                continue; // process down: refuse, dialer keeps retrying
            }
            if is_excised(&shared2, owner, peer) {
                continue; // this broker already repaired around it
            }
            let ok = (|| -> io::Result<()> {
                let mut w = BufWriter::new(stream.try_clone()?);
                writeln!(w, "ok")?;
                w.flush()?;
                stream.set_read_timeout(None)?;
                Ok(())
            })();
            if ok.is_ok() {
                let _ = install_link(&shared2, owner, peer, stream, None);
            }
        })
        .map_err(|e| io::Error::new(e.kind(), format!("spawn acceptor for {owner}: {e}")))?;
    shared.aux_threads.lock().push(handle);
    Ok(())
}

// ---------------------------------------------------------------------
// The broker loop's link layer
// ---------------------------------------------------------------------

/// The TCP runtime's [`Links`] for one broker: a shipped batch becomes
/// one wire frame buffered on the link, and the links written to
/// during one step are flushed **once** when it finishes — N frames,
/// one flush syscall per destination.
struct TcpLinks<'a> {
    id: BrokerId,
    shared: &'a Arc<Shared>,
    touched: BTreeSet<BrokerId>,
    next_ping: Instant,
}

impl Links for TcpLinks<'_> {
    fn ship(&mut self, to: BrokerId, msgs: Vec<Message>) {
        send_msgs(self.shared, self.id, to, msgs);
        self.touched.insert(to);
    }

    fn finish_step(&mut self) {
        for peer in std::mem::take(&mut self.touched) {
            flush_link(self.shared, self.id, peer);
        }
    }

    fn tick(&mut self) -> Option<Instant> {
        let (id, shared) = (self.id, self.shared);
        // Heartbeat every live link (the probe doubles as write-path
        // failure detection). The peer set is the *current* link map,
        // not the static topology — overlay repair adds edges.
        if Instant::now() >= self.next_ping {
            self.next_ping = Instant::now() + shared.options.heartbeat_interval;
            let peers: Vec<BrokerId> = shared
                .links
                .read()
                .get(&id)
                .map(|m| m.keys().copied().collect())
                .unwrap_or_default();
            for n in peers {
                send_ping(shared, id, n);
            }
        }
        Some(self.next_ping)
    }

    /// Records the excision in this broker's own record and drops its
    /// endpoint toward `dead`, and what the endpoint still held, so its
    /// dialer stands down instead of redialing a hole in the overlay
    /// and its acceptor refuses `dead`.
    fn note_death(&mut self, dead: BrokerId) {
        let (id, shared) = (self.id, self.shared);
        let endpoint = {
            let mut links = shared.links.write();
            shared.excised.write().entry(id).or_default().insert(dead);
            links.get_mut(&id).and_then(|peers| peers.remove(&dead))
        };
        if let Some(link) = endpoint {
            let mut st = link.state.lock();
            if let LinkState::Up { sock, .. } = &*st {
                let _ = sock.shutdown(std::net::Shutdown::Both);
            }
            link.generation.fetch_add(1, Ordering::SeqCst);
            let held = match std::mem::replace(&mut *st, LinkState::fresh_down()) {
                LinkState::Up { pending, .. } => pending.len(),
                LinkState::Down { queued, .. } => queued.len(),
            };
            shared.hub.discard(dead, held as u64);
        }
    }
}

/// Builder for [`TcpNetwork`] — the same `builder().overlay(..)
/// .options(..).start()` surface every driver exposes, plus the
/// TCP-specific transport options and bind-address chooser.
pub struct TcpNetworkBuilder {
    overlay: OverlayBuilder,
    options: MobileBrokerConfig,
    tcp: TcpOptions,
    bind: Box<dyn FnMut(BrokerId) -> String>,
}

impl std::fmt::Debug for TcpNetworkBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpNetworkBuilder")
            .field("overlay", &self.overlay)
            .field("tcp", &self.tcp)
            .finish_non_exhaustive()
    }
}

impl Default for TcpNetworkBuilder {
    fn default() -> Self {
        TcpNetworkBuilder {
            overlay: OverlayBuilder::default(),
            options: MobileBrokerConfig::default(),
            tcp: TcpOptions::default(),
            bind: Box::new(|_| "127.0.0.1:0".to_string()),
        }
    }
}

impl TcpNetworkBuilder {
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

    /// Transport options (frame codec, queue bounds, heartbeat and
    /// redial timing).
    pub fn tcp(mut self, options: TcpOptions) -> Self {
        self.tcp = options;
        self
    }

    /// Chooses each broker's listener bind address (default: loopback
    /// on an ephemeral port). Port `0` picks an ephemeral port.
    pub fn bind(mut self, bind_addr: impl FnMut(BrokerId) -> String + 'static) -> Self {
        self.bind = Box::new(bind_addr);
        self
    }

    /// Binds the listeners, connects every overlay edge, and starts
    /// the broker threads.
    ///
    /// # Errors
    ///
    /// Propagates socket bind/connect and thread-spawn errors; any
    /// threads already started are shut down and joined before the
    /// error is returned.
    ///
    /// # Panics
    ///
    /// Panics if the overlay is invalid (empty, disconnected,
    /// duplicate edges) — use `OverlayBuilder::build` directly for the
    /// typed `TopologyError`.
    pub fn start(self) -> io::Result<TcpNetwork> {
        let topology = self
            .overlay
            .build()
            .expect("invalid overlay passed to TcpNetwork::builder()");
        let (config, options, mut bind_addr) = (self.options, self.tcp, self.bind);
        let topology = Arc::new(topology);
        // Phase 1: bind all listeners.
        let mut listeners: BTreeMap<BrokerId, TcpListener> = BTreeMap::new();
        let mut addrs: BTreeMap<BrokerId, SocketAddr> = BTreeMap::new();
        for b in topology.brokers() {
            let addr = bind_addr(b);
            let l = TcpListener::bind(&addr).map_err(|e| {
                io::Error::new(e.kind(), format!("bind broker {b} listener at {addr}: {e}"))
            })?;
            addrs.insert(b, l.local_addr()?);
            listeners.insert(b, l);
        }
        // Phase 2: shared state, acceptors, and the initial dials.
        let (hub, input_rx) = Hub::new(topology.brokers());
        let mut links: BTreeMap<BrokerId, BTreeMap<BrokerId, Arc<Link>>> = BTreeMap::new();
        let mut pings: BTreeMap<BrokerId, AtomicU64> = BTreeMap::new();
        for b in topology.brokers() {
            pings.insert(b, AtomicU64::new(0));
            let peers = topology
                .neighbors(b)
                .iter()
                .map(|&n| (n, Arc::new(Link::new_down())))
                .collect();
            links.insert(b, peers);
        }
        let shared = Arc::new(Shared {
            topology: Arc::clone(&topology),
            config: config.clone(),
            options,
            hub,
            links: RwLock::new(links),
            addrs,
            down: RwLock::new(BTreeSet::new()),
            excised: RwLock::new(BTreeMap::new()),
            shutting_down: AtomicBool::new(false),
            pings,
            aux_threads: Mutex::new(Vec::new()),
        });
        let net = TcpNetwork {
            shared: Arc::clone(&shared),
            broker_handles: Mutex::new(BTreeMap::new()),
            pending_rx: Mutex::new(BTreeMap::new()),
            wals: topology
                .brokers()
                .map(|b| (b, MemoryLog::shared()))
                .collect(),
        };
        for (b, listener) in listeners {
            spawn_acceptor(&shared, b, listener)?;
        }
        // Dial each edge once, lower id dialing the higher (the same
        // side redials after failures). The acceptors are already up,
        // so one synchronous attempt per edge suffices here.
        for (a, b) in topology.edges() {
            dial_link(&shared, a, b, None)?;
        }
        // Phase 3: broker threads (from here on `net`'s Drop handles
        // cleanup if a later spawn fails).
        for (b, rx) in input_rx {
            let mut broker = MobileBroker::new(b, Arc::clone(&topology), config.clone());
            let wal = Arc::clone(&net.wals[&b]);
            let wal: Arc<std::sync::Mutex<dyn DurabilityLog>> = wal;
            broker
                .attach_durability(wal)
                .map_err(|e| io::Error::new(e.kind(), format!("attach WAL for {b}: {e}")))?;
            net.spawn_broker(b, broker, Vec::new(), rx)?;
        }
        Ok(net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transmob_core::ProtocolKind;
    use transmob_pubsub::{Filter, Publication, PublicationMsg};

    fn b(i: u32) -> BrokerId {
        BrokerId(i)
    }
    fn c(i: u64) -> ClientId {
        ClientId(i)
    }
    fn start(topology: Topology, config: MobileBrokerConfig) -> TcpNetwork {
        let net = TcpNetwork::builder().overlay(topology).options(config);
        net.start().expect("sockets")
    }

    #[test]
    fn delivery_over_real_sockets() {
        let net = start(Topology::chain(4), MobileBrokerConfig::reconfig());
        crate::tests::move_and_deliver(&net.shared.hub, b(4), &[]);
    }

    #[test]
    fn transactional_move_over_real_sockets() {
        let net = start(Topology::chain(5), MobileBrokerConfig::reconfig());
        let moves = [(b(2), ProtocolKind::Reconfig)];
        crate::tests::move_and_deliver(&net.shared.hub, b(5), &moves);
    }

    #[test]
    fn covering_protocol_over_real_sockets() {
        let net = start(Topology::chain(4), MobileBrokerConfig::covering());
        let moves = [(b(2), ProtocolKind::Covering)];
        crate::tests::move_and_deliver(&net.shared.hub, b(4), &moves);
    }

    /// [`crate::tests::flood_during_moves`] with every link a socket.
    #[test]
    fn publish_flood_during_moves_over_real_sockets() {
        let net = start(Topology::chain(3), MobileBrokerConfig::reconfig());
        let hub = &net.shared.hub;
        crate::tests::flood_during_moves(hub, b(3), &[b(2), b(3)], 8, Duration::from_millis(2));
    }

    /// `pause`/`resume` and `move_to_async` + `next_move_outcome` on a
    /// TCP client: nothing surfaces while it is paused, all of it once
    /// it resumes.
    #[test]
    fn pause_and_async_move_over_real_sockets() {
        let net = start(Topology::chain(3), MobileBrokerConfig::reconfig());
        let wait = Duration::from_secs(10);
        let (p, s) = (net.create_client(b(1), c(1)), net.create_client(b(3), c(2)));
        let x = |x: i64| Publication::new().with("x", x);
        p.advertise(Filter::builder().ge("x", 0).build());
        s.subscribe(Filter::builder().ge("x", 0).build());
        s.pause();
        assert!(net.quiesce(wait));
        p.publish(x(5));
        p.publish(x(6));
        assert!(net.quiesce(wait));
        assert!(s.try_recv().is_none(), "delivered while paused");
        s.resume();
        assert!(net.quiesce(wait));
        let resumed: Vec<_> = s.drain().into_iter().map(|n| n.content).collect();
        assert_eq!(resumed, [x(5), x(6)]);

        s.move_to_async(b(1), ProtocolKind::Reconfig);
        let outcome = s.next_move_outcome(wait).expect("movement outcome");
        assert!(outcome.committed);
        assert_eq!(net.home_of(c(2)), Some(b(1)));
        p.publish(x(7));
        assert!(net.quiesce(wait));
        assert_eq!(s.drain().len(), 1);
    }

    #[test]
    fn heartbeats_flow_between_neighbours() {
        let net = TcpNetwork::builder()
            .overlay(Topology::chain(2))
            .options(MobileBrokerConfig::reconfig())
            .start()
            .expect("sockets");
        std::thread::sleep(HEARTBEAT_INTERVAL * 6);
        assert!(net.heartbeats_seen(b(1)) > 0, "no pings reached broker 1");
        assert!(net.heartbeats_seen(b(2)) > 0, "no pings reached broker 2");
        assert!(net.link_up(b(1), b(2)) && net.link_up(b(2), b(1)));
        assert!(net.peer_silence(b(1), b(2)).unwrap() < Duration::from_secs(1));
        net.shutdown();
    }

    #[test]
    fn colliding_port_reports_error_instead_of_aborting() {
        // Occupy a loopback port, then ask the overlay to bind every
        // broker on it: construction must surface the bind error (it
        // used to abort the process via `expect`).
        let occupied = TcpListener::bind("127.0.0.1:0").expect("bind blocker");
        let addr = occupied.local_addr().expect("blocker addr").to_string();
        let err = TcpNetwork::builder()
            .overlay(Topology::chain(3))
            .options(MobileBrokerConfig::reconfig())
            .bind(move |_| addr.clone())
            .start()
            .expect_err("colliding bind must fail");
        assert_eq!(err.kind(), io::ErrorKind::AddrInUse, "{err}");
        assert!(
            err.to_string().contains("bind broker"),
            "error lacks broker context: {err}"
        );
    }

    #[test]
    fn late_collision_cleans_up_earlier_listeners() {
        // First broker binds an ephemeral port, a later one collides:
        // the partial construction must tear down without hanging and
        // a subsequent start on fresh ports must succeed.
        let occupied = TcpListener::bind("127.0.0.1:0").expect("bind blocker");
        let addr = occupied.local_addr().expect("blocker addr").to_string();
        let err = TcpNetwork::builder()
            .overlay(Topology::chain(3))
            .options(MobileBrokerConfig::reconfig())
            .bind(move |b| {
                if b == BrokerId(2) {
                    addr.clone()
                } else {
                    "127.0.0.1:0".to_string()
                }
            })
            .start()
            .expect_err("colliding bind must fail");
        assert_eq!(err.kind(), io::ErrorKind::AddrInUse, "{err}");
        let net = TcpNetwork::builder()
            .overlay(Topology::chain(3))
            .options(MobileBrokerConfig::reconfig())
            .start()
            .expect("fresh ephemeral start succeeds after failed attempt");
        net.shutdown();
    }

    #[test]
    fn drop_is_clean() {
        let net = TcpNetwork::builder()
            .overlay(Topology::chain(2))
            .options(MobileBrokerConfig::reconfig())
            .start()
            .expect("sockets");
        let _c = net.create_client(b(1), c(1));
        drop(net); // must join without hanging
    }

    fn wait_link_up(net: &TcpNetwork, a: BrokerId, z: BrokerId) {
        for _ in 0..200 {
            if net.link_up(a, z) {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("link {a}->{z} never came up");
    }

    fn pub_msg(i: u64) -> Message {
        Message::PubSub(PubSubMsg::Publish(PublicationMsg::new(
            transmob_pubsub::PubId(i),
            c(9),
            Publication::new().with("x", i as i64),
        )))
    }

    /// Satellite bugfix 4: frames written during one batch share a
    /// single flush instead of one syscall each.
    #[test]
    fn batched_frames_share_one_flush() {
        let net = TcpNetwork::builder()
            .overlay(Topology::chain(2))
            .options(MobileBrokerConfig::reconfig())
            .start()
            .expect("sockets");
        wait_link_up(&net, b(1), b(2));
        let before = net.link_stats(b(1), b(2)).expect("stats");
        for i in 0..3 {
            send_msgs(&net.shared, b(1), b(2), vec![pub_msg(i)]);
        }
        flush_link(&net.shared, b(1), b(2));
        let after = net.link_stats(b(1), b(2)).expect("stats");
        let frames = after.frames_sent - before.frames_sent;
        let flushes = after.flushes - before.flushes;
        assert!(frames >= 3, "three frames were written, saw {frames}");
        // Concurrent heartbeats add one frame *and* one flush each, so
        // the batched writes show up as a surplus of frames: 3 frames,
        // at most 1 flush of our own.
        assert!(
            frames - flushes >= 2,
            "3 frames must share one flush: frames={frames} flushes={flushes}"
        );
        net.shutdown();
    }

    /// Satellite bugfix 2: the down-queue high-water mark drops the
    /// oldest *publications*, never subscription-control or movement
    /// frames, and counts every drop.
    #[test]
    fn down_queue_drops_oldest_publications_never_protocol() {
        let stats = LinkStatCells::default();
        let mut queued = VecDeque::new();
        let mut pubs = 0usize;
        let ctl = Message::Move(transmob_core::MoveMsg::Ack {
            m: transmob_pubsub::MoveId(1),
            source: b(1),
            target: b(2),
        });
        enqueue_down(&stats, &mut queued, &mut pubs, (0..4).map(pub_msg), 4);
        assert_eq!(queued.len(), 4);
        assert_eq!(stats.dropped_publications.load(Ordering::Relaxed), 0);
        // A protocol frame pushes past the mark: the oldest publication
        // is dropped, the protocol frame stays.
        enqueue_down(&stats, &mut queued, &mut pubs, [ctl.clone()], 4);
        assert_eq!(queued.len(), 4);
        assert_eq!(pubs, 3);
        assert_eq!(stats.dropped_publications.load(Ordering::Relaxed), 1);
        assert!(queued.iter().any(|m| matches!(m, Message::Move(_))));
        match &queued[0] {
            Message::PubSub(PubSubMsg::Publish(p)) => {
                assert_eq!(p.id, transmob_pubsub::PubId(1), "oldest pub must go first");
            }
            other => panic!("expected a publication at the front, got {other:?}"),
        }
        // A queue of nothing but protocol frames may exceed the mark:
        // correctness-bearing messages are never sacrificed.
        let stats2 = LinkStatCells::default();
        let mut queued2 = VecDeque::new();
        let mut pubs2 = 0usize;
        enqueue_down(
            &stats2,
            &mut queued2,
            &mut pubs2,
            std::iter::repeat_with(|| ctl.clone()).take(6),
            4,
        );
        assert_eq!(queued2.len(), 6);
        assert_eq!(stats2.dropped_publications.load(Ordering::Relaxed), 0);
    }

    /// The redial backoff schedule: capped exponential envelope with
    /// deterministic equal jitter. Pinned as a value so a regression in
    /// the delay sequence (lost cap, lost jitter, non-determinism)
    /// fails loudly.
    #[test]
    fn redial_backoff_is_capped_exponential_with_jitter() {
        let base = Duration::from_millis(25);
        let cap = Duration::from_millis(400);
        for seed in [0u64, 7, 0xdead_beef] {
            for attempt in 0..12 {
                let envelope = base.saturating_mul(1 << attempt.min(20)).min(cap);
                let d = redial_delay(base, cap, attempt, seed);
                assert!(
                    d >= envelope / 2 && d <= envelope,
                    "attempt {attempt} seed {seed}: {d:?} outside [{:?}, {envelope:?}]",
                    envelope / 2
                );
                assert!(d <= cap, "attempt {attempt}: {d:?} exceeds the cap");
                // Deterministic: the same inputs give the same delay.
                assert_eq!(d, redial_delay(base, cap, attempt, seed));
            }
            // Past the doubling range every delay saturates into the
            // cap's upper half.
            let late = redial_delay(base, cap, 30, seed);
            assert!(late >= cap / 2 && late <= cap);
        }
        // Jitter is real: two seeds must not produce identical
        // schedules (decorrelating simultaneous redials is the point).
        let schedule =
            |seed| -> Vec<Duration> { (0..12).map(|a| redial_delay(base, cap, a, seed)).collect() };
        assert_ne!(schedule(1), schedule(2), "jitter must depend on the seed");
    }

    /// Satellite bugfix (churn PR): a reader whose connection was
    /// superseded must not tear down the fresh connection — the
    /// generation guard makes the stale teardown a no-op.
    #[test]
    fn stale_reader_cannot_tear_down_fresh_connection() {
        let net = TcpNetwork::builder()
            .overlay(Topology::chain(2))
            .options(MobileBrokerConfig::reconfig())
            .start()
            .expect("sockets");
        wait_link_up(&net, b(1), b(2));
        let link = link_of(&net.shared, b(1), b(2)).expect("link");
        let current = link.generation.load(Ordering::SeqCst);
        // A teardown on behalf of the previous generation: no-op.
        mark_link_down(&net.shared, b(1), b(2), "stale reader", current - 1);
        assert!(
            net.link_up(b(1), b(2)),
            "stale-generation teardown must not kill the live connection"
        );
        // The same teardown with the live generation takes it down
        // (and the redialer heals it again).
        mark_link_down(&net.shared, b(1), b(2), "live reader", current);
        assert_eq!(
            net.link_stats(b(1), b(2)).expect("stats").down_reason,
            Some("live reader".to_string())
        );
        wait_link_up(&net, b(1), b(2));
        net.shutdown();
    }

    /// Satellite bugfix (churn PR): a dialer stranded in its backoff
    /// sleep across a kill/restart of its own broker stands down
    /// instead of installing a duplicate connection. Pinned via the
    /// per-link connect counter: after the restart churn settles,
    /// exactly one new connection may exist on the edge.
    #[test]
    fn restart_during_active_redial_spawns_no_duplicate_dialer() {
        let net = TcpNetwork::builder()
            .overlay(Topology::chain(2))
            .options(MobileBrokerConfig::reconfig())
            .start()
            .expect("sockets");
        wait_link_up(&net, b(1), b(2));
        // Take the acceptor side down: broker 1's dialer starts its
        // backoff loop (the acceptor refuses while 2 is killed).
        net.kill_broker(b(2));
        for _ in 0..200 {
            if !net.link_up(b(1), b(2)) {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(!net.link_up(b(1), b(2)), "kill must take the link down");
        // Let the dialer's backoff grow toward the cap so it is very
        // likely mid-sleep during the kill/restart below.
        std::thread::sleep(Duration::from_millis(250));
        // Kill and restart the *dialer* while its redial thread is
        // stranded in backoff: the kill bumps the link generation, the
        // restart authorizes a fresh dialer.
        net.kill_broker(b(1));
        net.restart_broker(b(1)).expect("restart dialer");
        net.restart_broker(b(2)).expect("restart acceptor");
        wait_link_up(&net, b(1), b(2));
        let connects_after_heal = net.link_stats(b(1), b(2)).expect("stats").connects;
        // Wait out the redial cap: a stale dialer that survived the
        // kill would wake, dial, and install a duplicate connection in
        // this window. With the generation guard it stands down.
        std::thread::sleep(REDIAL_CAP + Duration::from_millis(200));
        let connects_settled = net.link_stats(b(1), b(2)).expect("stats").connects;
        assert_eq!(
            connects_settled, connects_after_heal,
            "a stale redialer installed a duplicate connection"
        );
        assert!(net.link_up(b(1), b(2)), "the healed link must stay up");
        net.shutdown();
    }

    /// Satellite bugfix 1: a frame that fails to serialize is counted
    /// in the link stats instead of vanishing, and the link survives.
    #[test]
    #[cfg(debug_assertions)]
    fn serialize_failure_is_counted_not_silent() {
        let net = TcpNetwork::builder()
            .overlay(Topology::chain(2))
            .options(MobileBrokerConfig::reconfig())
            .start()
            .expect("sockets");
        wait_link_up(&net, b(1), b(2));
        {
            let link = link_of(&net.shared, b(1), b(2)).expect("link");
            match &mut *link.state.lock() {
                LinkState::Up { enc, .. } => enc.inject_encode_failure(),
                LinkState::Down { .. } => panic!("link down"),
            };
        }
        // Either this send or a concurrent heartbeat consumes the
        // injected failure, counting it under the link's lock before
        // this send can take it; both paths must count it.
        send_msgs(&net.shared, b(1), b(2), vec![pub_msg(1)]);
        let counted = net.link_stats(b(1), b(2)).expect("stats");
        assert_eq!(
            counted.serialize_failures, 1,
            "the injected serialize failure must be counted"
        );
        assert!(
            net.link_up(b(1), b(2)),
            "a serialize failure must not take the link down"
        );
        net.shutdown();
    }
}
