//! A TCP transport for the broker overlay: every overlay link is a
//! real socket carrying length-prefixed binary frames of the protocol
//! [`Message`]s ([`crate::codec`], DESIGN.md §13) — the same bytes a
//! multi-host deployment would put on the wire. Brokers still run as
//! threads of this process (the paper's cluster ran one broker per
//! machine; the transport, serialization and framing are what this
//! module makes real), and clients attach through in-process handles
//! exactly as with [`crate::Network`].
//!
//! Each broker runs the single-threaded loop it shares with
//! [`crate::Network`]; this module is that loop's link layer
//! (`TcpLinks`) and everything a socket needs around it. The loop owns
//! its *endpoints* — its end of each overlay link — outright: one
//! toward each neighbour of its broker's own topology, one for an
//! accepted connection from any broker that topology still contains,
//! none toward a broker it no longer contains. Frames written during
//! one broker step are buffered and flushed with a single syscall per
//! touched endpoint, so the coalescer's batching survives all the way
//! to the socket. Per-endpoint [`LinkStats`] count frames, flushes,
//! decode failures, serialize failures and publication drops, and an
//! endpoint taken down records *why* ([`TcpNetwork::link_stats`]).
//!
//! # Threads
//!
//! | Thread | What it may touch |
//! |---|---|
//! | broker loop `tcp-broker-{b}` | its broker, its endpoints (sockets, encoders, down-queues, connection numbers, redial schedule), its endpoints' mirrors |
//! | reader `tcp-reader-{b}-{peer}` | one socket's read half; its endpoint mirror's last-heard time and ping count. Frames and the loss of the connection go to its loop's queue |
//! | dialer `tcp-dial-{b}-{peer}` | one connect and handshake; the stream or the failure goes to its loop's queue |
//! | acceptor `tcp-accept-{b}` | its listener; reads which brokers are killed; an admitted stream goes to the broker's current queue |
//! | caller of [`TcpNetwork`] | the killed set, the input queues, the thread handles; reads the mirrors and asks the loops |
//!
//! A reader or dialer speaks only to the loop that spawned it, on that
//! loop's own queue: once the loop has stopped, nobody reads it. An
//! event names its connection by number, and only the loop compares
//! numbers, so a superseded connection can neither install nor tear
//! down anything.
//!
//! # Failure detection and crash recovery
//!
//! Each broker drives a [`DurabilityLog`] (write-ahead command log +
//! periodic checkpoint) and pings every connected endpoint, so the
//! overlay survives a broker process dying:
//!
//! - an endpoint reports itself down to its broker when it is created
//!   and when its connection is lost (socket EOF, read or write
//!   error), and up when a connection is installed; protocol messages
//!   queue at a down endpoint instead of being dropped;
//! - the broker's one failure detector decides whether a link that
//!   stays down means a dead peer
//!   ([`MobileBrokerConfig::suspect_after_ns`], DESIGN.md §14);
//! - the lower-id end of a link dials it, and redials with capped
//!   exponential backoff ([`REDIAL_BASE`] doubling up to
//!   [`REDIAL_CAP`]), one attempt at a time, until the peer accepts
//!   again; then the queued messages go out in order;
//! - [`TcpNetwork::kill_broker`] crashes one broker: its loop applies
//!   what was queued before the kill, then stops and closes its
//!   sockets; what reaches its old queue after that, the bytes unread
//!   in its sockets and its down-queues are lost.
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
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, Sender};
use parking_lot::{Mutex, RwLock};
use transmob_broker::{OverlayBuilder, PubSubMsg, Topology};
use transmob_core::properties::Frozen;
use transmob_core::{DurabilityLog, MemoryLog, Message, MobileBroker, MobileBrokerConfig, Output};
use transmob_pubsub::{BrokerId, ClientId};

use crate::broker_loop::{self, Hub, Input, Links};
use crate::codec::{Frame, FrameDecoder, FrameEncoder, ReadError, WireMode};

/// A client handle on a [`TcpNetwork`]: the one [`crate::Client`].
pub use crate::Client as TcpClient;

/// Heartbeat period: each broker pings every connected endpoint this
/// often. Each ping is a flushed write, so a connection the peer has
/// reset fails at the next ping at the latest and the endpoint goes
/// down. A peer that vanishes without a reset (power loss, a
/// partition) is not detected this way: the write lands in the
/// kernel's send buffer and succeeds. Its silence shows in
/// [`TcpNetwork::peer_silence`], which nothing acts on. Whether a link
/// that stays down means a dead broker is the broker's call, not the
/// transport's ([`MobileBrokerConfig::suspect_after_ns`]).
pub const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(50);
/// First redial delay after a link drops.
pub const REDIAL_BASE: Duration = Duration::from_millis(25);
/// Redial backoff ceiling. Jitter never pushes a delay past it.
pub const REDIAL_CAP: Duration = Duration::from_millis(400);
/// Handshake read deadline (a half-open peer must not wedge a dialer).
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(2);

/// High-water mark for each down endpoint's outbound queue, in
/// messages. On overflow the oldest queued *publications* are dropped
/// (and counted in [`LinkStats::dropped_publications`]); subscription
/// control and movement-protocol frames are never dropped, even if that
/// means exceeding the mark. Generous enough that no protocol
/// conversation ever nears it; small enough that a long partition under
/// publication flood cannot grow memory without bound.
pub const DEFAULT_DOWN_QUEUE_HWM: usize = 8192;

/// Transport options of a [`TcpNetwork`]: there is one configuration.
// Kept only because `bench_e2e` names it; ROADMAP item 2's first PR deletes it.
#[doc(hidden)]
#[derive(Debug, Clone, Default)]
pub struct TcpOptions {
    /// The frame codec: binary, the only one.
    pub wire: WireMode,
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

/// What the caller's thread may read of one endpoint: counters that
/// belong to the edge and survive reconnects and restarts, whether it
/// is up, and when it last heard from the peer. The owning loop writes
/// it, except the last-heard time and the ping count, which the
/// endpoint's reader bumps per frame.
#[derive(Debug)]
struct Mirror {
    up: AtomicBool,
    last_heard: Mutex<Instant>,
    pings: AtomicU64,
    frames_sent: AtomicU64,
    flushes: AtomicU64,
    serialize_failures: AtomicU64,
    decode_failures: AtomicU64,
    dropped_publications: AtomicU64,
    connects: AtomicU64,
    down_reason: Mutex<Option<String>>,
}

impl Mirror {
    fn new() -> Mirror {
        Mirror {
            up: AtomicBool::new(false),
            last_heard: Mutex::new(Instant::now()),
            pings: AtomicU64::new(0),
            frames_sent: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            serialize_failures: AtomicU64::new(0),
            decode_failures: AtomicU64::new(0),
            dropped_publications: AtomicU64::new(0),
            connects: AtomicU64::new(0),
            down_reason: Mutex::new(None),
        }
    }

    fn count(cell: &AtomicU64, n: u64) {
        cell.fetch_add(n, Ordering::Relaxed);
    }
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
    /// Frames that failed to encode. Binary encoding is total, so only
    /// the debug-build fault hook produces one
    /// ([`FrameEncoder::inject_encode_failure`]); each is counted, never
    /// dropped silently.
    pub serialize_failures: u64,
    /// Inbound frames that failed to decode; each takes the link down
    /// with a reason naming the corruption.
    pub decode_failures: u64,
    /// Publications dropped from the down-queue by the high-water
    /// mark ([`DEFAULT_DOWN_QUEUE_HWM`]).
    pub dropped_publications: u64,
    /// Connections installed on this endpoint (initial dial plus every
    /// reconnect): one per connection, since a superseded dial or
    /// reader can neither install nor tear down, so churn tests can
    /// pin this count.
    pub connects: u64,
    /// Why the link last went down (`None` if it never did).
    pub down_reason: Option<String>,
}

/// Whether a message is a publication — the only kind the down-queue
/// high-water mark may drop. Everything else (subscription control,
/// movement protocol) is load-bearing for protocol correctness.
fn is_droppable(m: &Message) -> bool {
    matches!(m, Message::PubSub(PubSubMsg::Publish(_)))
}

/// A down endpoint's outbound **messages** (not serialized frames):
/// they are re-encoded on reconnect, because the binary codec's string
/// table belongs to a single connection, so bytes encoded against the
/// old connection's table would desync a redialed peer.
#[derive(Debug, Default)]
struct DownQueue {
    msgs: VecDeque<Message>,
    /// How many of `msgs` are publications (the droppable kind),
    /// maintained incrementally for the high-water-mark check.
    pubs: usize,
}

/// Appends `msgs` to a down endpoint's queue, then enforces the
/// high-water mark by dropping the **oldest publications** (never
/// protocol or movement frames), and returns how many it dropped. The
/// scan is linear per drop — overflow is the pathological case, not
/// the steady state.
fn enqueue_down(queue: &mut DownQueue, msgs: impl IntoIterator<Item = Message>, hwm: usize) -> u64 {
    let mut dropped = 0;
    for m in msgs {
        queue.pubs += usize::from(is_droppable(&m));
        queue.msgs.push_back(m);
    }
    while queue.msgs.len() > hwm && queue.pubs > 0 {
        let Some(idx) = queue.msgs.iter().position(is_droppable) else {
            break;
        };
        queue.msgs.remove(idx);
        queue.pubs -= 1;
        dropped += 1;
    }
    dropped
}

/// News of one link, handed to its broker's loop by a reader, a dialer
/// or the acceptor ([`Input::Link`]).
pub(crate) enum LinkEvent {
    /// A handshaken connection to `peer`: the loop's dial number
    /// `conn`, or accepted (`None`).
    Connected {
        peer: BrokerId,
        conn: Option<u64>,
        stream: TcpStream,
    },
    /// Connection (or dial) number `conn` to `peer` ended, for
    /// `reason`; `corrupt` if a frame failed to decode.
    Lost {
        peer: BrokerId,
        conn: u64,
        reason: String,
        corrupt: bool,
    },
}

struct Shared {
    topology: Arc<Topology>,
    config: MobileBrokerConfig,
    /// Client registry and each broker's input queue (swapped on
    /// kill/restart).
    hub: Arc<Hub>,
    /// Every broker's listener address (stable across kill/restart —
    /// the "machine" keeps its port, only the process dies).
    addrs: BTreeMap<BrokerId, SocketAddr>,
    /// Brokers currently killed: their acceptor refuses connections.
    down: RwLock<BTreeSet<BrokerId>>,
    shutting_down: AtomicBool,
    /// `mirrors[owner][peer]`: what the caller's thread may read of
    /// owner's endpoint toward peer; written by owner's loop, which
    /// drops the entry with the endpoint when peer leaves its topology.
    mirrors: BTreeMap<BrokerId, RwLock<BTreeMap<BrokerId, Arc<Mirror>>>>,
    /// Reader/dialer/acceptor threads, joined at shutdown.
    aux_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Shared({} brokers)", self.addrs.len())
    }
}

impl Shared {
    fn new(
        topology: Arc<Topology>,
        config: MobileBrokerConfig,
        hub: Arc<Hub>,
        addrs: BTreeMap<BrokerId, SocketAddr>,
    ) -> Shared {
        Shared {
            mirrors: topology.brokers().map(|b| (b, RwLock::default())).collect(),
            topology,
            config,
            hub,
            addrs,
            down: RwLock::new(BTreeSet::new()),
            shutting_down: AtomicBool::new(false),
            aux_threads: Mutex::new(Vec::new()),
        }
    }

    fn mirror(&self, owner: BrokerId, peer: BrokerId) -> Option<Arc<Mirror>> {
        self.mirrors.get(&owner)?.read().get(&peer).cloned()
    }

    /// Spawns a helper thread, joined at shutdown; `false` if the OS
    /// would not.
    fn spawn(&self, name: String, f: impl FnOnce() + Send + 'static) -> bool {
        match std::thread::Builder::new().name(name).spawn(f) {
            Ok(handle) => {
                self.aux_threads.lock().push(handle);
                true
            }
            Err(_) => false,
        }
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
    /// .options(..).bind(..).start()`.
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
        // A counted no-op the loop takes only after its first step, in
        // which its endpoints report down: the barrier waits for it.
        self.shared.hub.send(b, Input::Inspect(Box::new(|_| {})));
        let shared = Arc::clone(&self.shared);
        let handle = std::thread::Builder::new()
            .name(format!("tcp-broker-{b}"))
            .spawn(move || {
                let mut links = TcpLinks::new(b, Arc::clone(&shared));
                broker_loop::run(broker, initial_outs, &rx, &shared.hub, &mut links);
                // The queue closes before the sockets do: a reader the
                // close wakes finds nobody to tell.
                drop(rx);
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
        (self.shared.mirror(owner, peer)).is_some_and(|m| m.up.load(Ordering::SeqCst))
    }

    /// How long ago `owner` last heard anything (heartbeat or protocol
    /// frame) from `peer`.
    pub fn peer_silence(&self, owner: BrokerId, peer: BrokerId) -> Option<Duration> {
        let at = *self.shared.mirror(owner, peer)?.last_heard.lock();
        Some(at.elapsed())
    }

    /// Brokers some live broker of this overlay has declared
    /// permanently dead: those missing from its own topology. Empty
    /// unless [`MobileBrokerConfig::suspect_after_ns`] is set.
    pub fn suspected(&self) -> BTreeSet<BrokerId> {
        let all: BTreeSet<BrokerId> = self.shared.topology.brokers().collect();
        let live: Vec<BrokerId> = {
            let down = self.shared.down.read();
            all.iter().filter(|b| !down.contains(b)).copied().collect()
        };
        let members =
            |broker: &MobileBroker| -> BTreeSet<BrokerId> { broker.topology().brokers().collect() };
        let mut dead = BTreeSet::new();
        for b in live {
            if let Some(kept) = self.shared.hub.ask(b, members) {
                dead.extend(all.difference(&kept));
            }
        }
        dead
    }

    /// Total heartbeats `broker` has received from its neighbours.
    pub fn heartbeats_seen(&self, broker: BrokerId) -> u64 {
        let Some(mirrors) = self.shared.mirrors.get(&broker) else {
            return 0;
        };
        let pings = mirrors
            .read()
            .values()
            .map(|m| m.pings.load(Ordering::Relaxed))
            .sum();
        pings
    }

    /// Waits up to `timeout` for the network to settle: every command,
    /// message and link event applied or dropped, no protocol timer
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

    /// The listener address of `broker` (stable across kill/restart).
    pub fn broker_addr(&self, broker: BrokerId) -> Option<SocketAddr> {
        self.shared.addrs.get(&broker).copied()
    }

    /// Counters for `owner`'s endpoint of the link to `peer`: `None`
    /// once `owner` has no endpoint toward `peer` (it declared `peer`
    /// dead). The counters belong to the edge and survive reconnects.
    pub fn link_stats(&self, owner: BrokerId, peer: BrokerId) -> Option<LinkStats> {
        let m = self.shared.mirror(owner, peer)?;
        let down_reason = m.down_reason.lock().clone();
        Some(LinkStats {
            frames_sent: m.frames_sent.load(Ordering::Relaxed),
            flushes: m.flushes.load(Ordering::Relaxed),
            serialize_failures: m.serialize_failures.load(Ordering::Relaxed),
            decode_failures: m.decode_failures.load(Ordering::SeqCst),
            dropped_publications: m.dropped_publications.load(Ordering::Relaxed),
            connects: m.connects.load(Ordering::Relaxed),
            down_reason,
        })
    }

    /// Crashes `broker`. Its loop first applies every input queued
    /// before the kill (commands, frames, link events), then stops and
    /// closes its sockets, so its neighbours see the disconnect, queue
    /// and redial. Lost with it: what reaches its old
    /// queue behind the kill, the bytes left unread in its sockets, and
    /// the messages its own endpoints had queued. Its durability log —
    /// everything appended before the crash — survives for
    /// [`TcpNetwork::restart_broker`].
    pub fn kill_broker(&self, broker: BrokerId) {
        // Its acceptor refuses from now on; dialers keep backing off.
        self.shared.down.write().insert(broker);
        // Fresh input queue: inputs sent from now on wait for the
        // restarted process.
        let rx = self.shared.hub.replace_queue(broker);
        self.pending_rx.lock().insert(broker, rx);
        if let Some(h) = self.broker_handles.lock().remove(&broker) {
            let _ = h.join();
        }
    }

    /// Restarts a broker previously crashed with
    /// [`TcpNetwork::kill_broker`]: rebuilds its state from the
    /// durability log (checkpoint + record replay), re-arms the timers
    /// of any in-flight movement, and starts its loop, which derives
    /// its endpoints from the recovered topology (each reports itself
    /// down until a connection is installed, so its failure detector
    /// suspects a neighbour that never returns), dials and accepts
    /// again, and takes in whatever its neighbours queued during the
    /// outage.
    ///
    /// # Errors
    ///
    /// Fails if the broker is not currently killed, if the overlay has
    /// repaired around it, or on thread-spawn / log errors.
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
                format!("broker {broker} was repaired around by the overlay"),
            ));
        }
        let (recovered, timer_outs) = MobileBroker::recover_from_log(
            Arc::clone(&self.shared.topology),
            self.shared.config.clone(),
            Arc::clone(&self.wals[&broker]),
        )
        .map_err(|e| io::Error::new(e.kind(), format!("recover broker {broker}: {e}")))?;
        // Recovery succeeded; only now consume the pending channel so a
        // failed attempt leaves the broker cleanly killed and
        // retryable.
        let rx = self.pending_rx.lock().remove(&broker).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("broker {broker} was restarted concurrently"),
            )
        })?;
        self.shared.down.write().remove(&broker);
        self.spawn_broker(broker, recovered, timer_outs, rx)
    }

    /// Stops all broker threads, closes every socket so reader threads
    /// observe EOF, and waits for them all.
    pub fn shutdown(self) {
        drop(self); // Drop runs the actual teardown.
    }

    fn stop(&mut self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        self.shared.hub.shutdown_all();
        // Wake each acceptor so it can observe the flag and exit.
        for addr in self.shared.addrs.values() {
            let _ = TcpStream::connect_timeout(addr, Duration::from_millis(200));
        }
        // A loop closes its sockets as it stops, which ends its readers.
        for (_, h) in std::mem::take(&mut *self.broker_handles.lock()) {
            let _ = h.join();
        }
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
// The threads around a loop: dialer, reader, acceptor
// ---------------------------------------------------------------------

/// Dials `peer` on behalf of `owner` and returns the handshaken
/// stream. Handshake: the dialer sends its broker id on a line of its
/// own, and the acceptor answers `ok` only to exactly that line and
/// only if its broker process is actually up — so queued frames are
/// never flushed into a dead peer.
fn dial(shared: &Shared, owner: BrokerId, peer: BrokerId) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(shared.addrs[&peer])?;
    stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
    {
        let mut w = BufWriter::new(stream.try_clone()?);
        writeln!(w, "{}", owner.0)?;
        w.flush()?;
    }
    // Read the reply byte-by-byte: the peer flushes queued protocol
    // frames immediately after "ok\n", and a buffered reader here
    // would swallow those bytes before the reader thread exists.
    let mut line = String::new();
    {
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
    Ok(stream)
}

/// Reads frames from connection `conn` of `owner`'s endpoint toward
/// `peer` and feeds them to `owner`'s loop on `tx`, its own queue. On
/// EOF, a socket error or a corrupt frame it tells the loop the
/// connection is lost, with a reason that distinguishes the three.
/// `false` if the thread would not spawn.
fn spawn_reader(
    shared: &Arc<Shared>,
    tx: &Sender<Input>,
    (owner, peer, conn): (BrokerId, BrokerId, u64),
    stream: TcpStream,
    mirror: Arc<Mirror>,
) -> bool {
    let (shared2, tx) = (Arc::clone(shared), tx.clone());
    shared.spawn(format!("tcp-reader-{owner}-{peer}"), move || {
        let mut reader = BufReader::new(stream);
        let mut dec = FrameDecoder::new(WireMode::Binary);
        let (reason, corrupt) = loop {
            match dec.read_frame(&mut reader) {
                Ok(Some(frame)) => {
                    *mirror.last_heard.lock() = Instant::now();
                    match frame {
                        Frame::Ping { .. } => Mirror::count(&mirror.pings, 1),
                        Frame::Msg { from, msgs } => {
                            if tx.send(Input::FromBroker(BrokerId(from), msgs)).is_err() {
                                return; // the loop is gone
                            }
                        }
                    }
                }
                Ok(None) => break ("peer closed".to_string(), false),
                Err(ReadError::Io(e)) => break (format!("read error: {e}"), false),
                // The codec is desynced: no later frame on this
                // connection can be trusted.
                Err(ReadError::Corrupt(e)) => break (format!("corrupt frame: {e}"), true),
            }
        };
        let lost = LinkEvent::Lost {
            peer,
            conn,
            reason,
            corrupt,
        };
        shared2.hub.send_on(&tx, owner, Input::Link(lost));
    })
}

/// Accepts connections for one broker forever. A connection is only
/// admitted (handshake answered with `ok`) while the broker process is
/// up; during a kill window dialers keep backing off and retrying. An
/// admitted stream goes to the broker's loop, which decides whether to
/// keep it.
fn spawn_acceptor(shared: &Arc<Shared>, owner: BrokerId, listener: TcpListener) -> io::Result<()> {
    let shared2 = Arc::clone(shared);
    let accept = move || loop {
        let Ok((stream, _)) = listener.accept() else {
            return;
        };
        if shared2.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        if stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT)).is_err() {
            continue;
        }
        let Ok(clone) = stream.try_clone() else {
            continue;
        };
        // The hello is one broker id and a newline, nothing else; a
        // longer line is cut off and refused.
        let mut line = String::new();
        if BufReader::new(clone).take(16).read_line(&mut line).is_err() {
            continue;
        }
        let hello = line.strip_suffix('\n');
        let digits = hello.filter(|id| id.bytes().all(|b| b.is_ascii_digit()));
        let Some(Ok(peer)) = digits.map(|id| id.parse().map(BrokerId)) else {
            continue;
        };
        // Any broker of this overlay may dial in: overlay self-repair
        // creates edges the static topology never had. A shutdown
        // wake-up (no hello) still falls out here.
        if peer == owner || !shared2.addrs.contains_key(&peer) {
            continue;
        }
        if shared2.down.read().contains(&owner) {
            continue; // process down: refuse, dialer keeps retrying
        }
        let ok = (|| -> io::Result<()> {
            let mut w = BufWriter::new(stream.try_clone()?);
            writeln!(w, "ok")?;
            w.flush()?;
            stream.set_read_timeout(None)
        })();
        if ok.is_ok() {
            let conn = None;
            let accepted = LinkEvent::Connected { peer, conn, stream };
            shared2.hub.send(owner, Input::Link(accepted));
        }
    };
    if shared.spawn(format!("tcp-accept-{owner}"), accept) {
        Ok(())
    } else {
        Err(io::Error::other(format!("spawn acceptor for {owner}")))
    }
}

// ---------------------------------------------------------------------
// The broker loop's link layer
// ---------------------------------------------------------------------

/// How many queued messages a reconnect packs into one frame when it
/// drains the down-queue.
const RECONNECT_CHUNK: usize = 256;

/// One connection of an endpoint, while it is up. Dropping it closes
/// the socket, which ends its reader.
struct Conn {
    /// The connection's number, unique within its endpoint.
    n: u64,
    w: BufWriter<TcpStream>,
    /// This connection's frame encoder (owns the outgoing string
    /// table; dies with the socket).
    enc: FrameEncoder,
    /// Messages written into `w` since the last successful flush. If
    /// the connection dies before they reach the socket they move to
    /// the down-queue and are resent on reconnect.
    pending: Vec<Message>,
}

impl Drop for Conn {
    fn drop(&mut self) {
        let _ = self.w.get_ref().shutdown(Shutdown::Both);
    }
}

impl Conn {
    /// Buffers one frame of `msgs` (no flush). A frame that cannot be
    /// encoded (only under the debug-build fault hook) is counted and
    /// dropped: `Ok(false)`. A failed write hands `msgs` back.
    fn write(
        &mut self,
        from: BrokerId,
        msgs: Vec<Message>,
        mirror: &Mirror,
    ) -> Result<bool, Vec<Message>> {
        let frame = Frame::Msg { from: from.0, msgs };
        let written = match self.enc.encode(&frame) {
            Ok(bytes) => self.w.write_all(bytes).is_ok(),
            Err(e) => {
                Mirror::count(&mirror.serialize_failures, 1);
                debug_assert!(e.0.contains("injected"), "frame serialize failed: {e}");
                return Ok(false);
            }
        };
        let Frame::Msg { msgs, .. } = frame else {
            unreachable!()
        };
        if !written {
            return Err(msgs);
        }
        Mirror::count(&mirror.frames_sent, 1);
        self.pending.extend(msgs);
        Ok(true)
    }
}

/// One broker's end of one overlay link, owned by its loop.
struct Endpoint {
    /// The newest connection number: the installed connection's, or
    /// the dial's in flight.
    conn: u64,
    /// The connection, while up.
    up: Option<Conn>,
    /// What waits for a connection, while down.
    queue: DownQueue,
    /// When to dial next: set while the endpoint is down, dials its
    /// edge and has no dial in flight.
    dial_at: Option<Instant>,
    /// Failed dials since the endpoint went down (the backoff step).
    attempt: u32,
    mirror: Arc<Mirror>,
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        self.mirror.up.store(false, Ordering::SeqCst);
    }
}

impl Endpoint {
    /// Schedules the next dial with [`redial_delay`], if `owner` is the
    /// side that dials the edge (the lower id).
    fn schedule_dial(&mut self, owner: BrokerId, peer: BrokerId) {
        if owner < peer {
            // The jitter seed only has to decorrelate the links of one
            // process; edge identity plus connection number does that
            // and keeps runs reproducible.
            let seed = (u64::from(owner.0) << 40) ^ (u64::from(peer.0) << 20) ^ self.conn;
            let delay = redial_delay(REDIAL_BASE, REDIAL_CAP, self.attempt, seed);
            self.dial_at = Some(Instant::now() + delay);
        }
    }

    /// Messages this endpoint holds that have not reached the socket.
    fn held(&self) -> u64 {
        let pending = self.up.as_ref().map_or(0, |c| c.pending.len());
        (pending + self.queue.msgs.len()) as u64
    }
}

/// The TCP runtime's [`Links`] for one broker: its endpoints, owned by
/// its loop. A shipped batch becomes one wire frame buffered on the
/// endpoint, and the endpoints written to during one step are flushed
/// **once** when it finishes — N frames, one flush syscall per
/// destination.
struct TcpLinks {
    id: BrokerId,
    shared: Arc<Shared>,
    /// This loop's own input queue, for the threads it spawns.
    tx: Sender<Input>,
    endpoints: BTreeMap<BrokerId, Endpoint>,
    touched: BTreeSet<BrokerId>,
    /// Link reports for the broker, handed over at the end of the step.
    reports: Vec<(BrokerId, bool)>,
    next_ping: Instant,
}

impl TcpLinks {
    fn new(id: BrokerId, shared: Arc<Shared>) -> TcpLinks {
        TcpLinks {
            id,
            tx: shared.hub.sender(id),
            next_ping: Instant::now() + HEARTBEAT_INTERVAL,
            shared,
            endpoints: BTreeMap::new(),
            touched: BTreeSet::new(),
            reports: Vec::new(),
        }
    }

    /// Creates the endpoint toward `peer` if there is none: down,
    /// reported down, dialing at once if this side dials the edge.
    fn open(&mut self, peer: BrokerId) -> &mut Endpoint {
        let id = self.id;
        let Self {
            shared,
            endpoints,
            reports,
            ..
        } = self;
        endpoints.entry(peer).or_insert_with(|| {
            let mut mirrors = shared.mirrors[&id].write();
            let mirror = mirrors
                .entry(peer)
                .or_insert_with(|| Arc::new(Mirror::new()));
            reports.push((peer, false));
            Endpoint {
                conn: 0,
                up: None,
                queue: DownQueue::default(),
                dial_at: (id < peer).then(Instant::now),
                attempt: 0,
                mirror: Arc::clone(mirror),
            }
        })
    }

    /// Installs `stream` as connection `n` of the endpoint toward
    /// `peer`, superseding any connection it had, and sends what was
    /// waiting on it. The fresh connection gets a fresh
    /// [`FrameEncoder`]: the binary string table is per-connection
    /// state, negotiated from empty on both sides.
    fn install(&mut self, peer: BrokerId, n: u64, stream: TcpStream) {
        let id = self.id;
        // Frames are written through a `BufWriter` flushed once per
        // step, so Nagle's algorithm has nothing to coalesce and only
        // adds a delayed ACK (40 ms) to each write-write-read exchange.
        let reader = stream.set_nodelay(true).and_then(|()| stream.try_clone());
        let mirror = Arc::clone(&self.open(peer).mirror);
        let spawned = reader.is_ok_and(|reader| {
            spawn_reader(&self.shared, &self.tx, (id, peer, n), reader, mirror)
        });
        if !spawned {
            return self.lost(peer, n, "reader thread failed to spawn");
        }
        let ep = self.endpoints.get_mut(&peer).expect("opened above");
        let mut backlog: Vec<Message> = ep
            .up
            .take()
            .map(|mut c| std::mem::take(&mut c.pending))
            .unwrap_or_default();
        backlog.extend(ep.queue.msgs.drain(..));
        ep.queue.pubs = 0;
        ep.up = Some(Conn {
            n,
            w: BufWriter::new(stream),
            enc: FrameEncoder::new(WireMode::Binary),
            pending: Vec::new(),
        });
        (ep.dial_at, ep.attempt) = (None, 0);
        *ep.mirror.last_heard.lock() = Instant::now();
        Mirror::count(&ep.mirror.connects, 1);
        ep.mirror.up.store(true, Ordering::SeqCst);
        self.reports.push((peer, true));
        let mut backlog = backlog.into_iter();
        loop {
            let chunk: Vec<Message> = backlog.by_ref().take(RECONNECT_CHUNK).collect();
            if chunk.is_empty() {
                break;
            }
            self.ship(peer, chunk);
        }
    }

    /// Takes the endpoint toward `peer` down: closes its socket, queues
    /// what it had written since the last flush and then `unsent`,
    /// records `reason`, reports it down and schedules a redial. The
    /// one place an endpoint goes down.
    fn teardown(&mut self, peer: BrokerId, reason: &str, unsent: Vec<Message>) {
        let Some(ep) = self.endpoints.get_mut(&peer) else {
            return;
        };
        let Some(mut conn) = ep.up.take() else {
            return;
        };
        let msgs = std::mem::take(&mut conn.pending).into_iter().chain(unsent);
        drop(conn);
        let dropped = enqueue_down(&mut ep.queue, msgs, DEFAULT_DOWN_QUEUE_HWM);
        Mirror::count(&ep.mirror.dropped_publications, dropped);
        self.shared.hub.discard(peer, dropped);
        *ep.mirror.down_reason.lock() = Some(reason.to_string());
        ep.mirror.up.store(false, Ordering::SeqCst);
        ep.attempt = 0;
        ep.schedule_dial(self.id, peer);
        self.reports.push((peer, false));
    }

    /// Connection or dial `conn` toward `peer` ended: an installed one
    /// takes the endpoint down, a dial in flight schedules the next
    /// one, and anything superseded is ignored.
    fn lost(&mut self, peer: BrokerId, conn: u64, reason: &str) {
        let Some(ep) = self.endpoints.get_mut(&peer) else {
            return;
        };
        match &ep.up {
            Some(c) if c.n == conn => self.teardown(peer, reason, Vec::new()),
            None if ep.conn == conn && ep.dial_at.is_none() => {
                ep.attempt += 1;
                ep.schedule_dial(self.id, peer);
            }
            _ => {}
        }
    }

    /// Starts the next dial of the endpoint toward `peer`, on a thread
    /// of its own that hands the loop the outcome.
    fn spawn_dial(&mut self, peer: BrokerId) {
        let owner = self.id;
        let ep = self.endpoints.get_mut(&peer).expect("dialing endpoint");
        ep.dial_at = None;
        ep.conn += 1;
        let n = ep.conn;
        let (shared, tx) = (Arc::clone(&self.shared), self.tx.clone());
        let spawned = self
            .shared
            .spawn(format!("tcp-dial-{owner}-{peer}"), move || {
                let event = match dial(&shared, owner, peer) {
                    Ok(stream) => LinkEvent::Connected {
                        peer,
                        conn: Some(n),
                        stream,
                    },
                    Err(e) => LinkEvent::Lost {
                        peer,
                        conn: n,
                        reason: format!("dial failed: {e}"),
                        corrupt: false,
                    },
                };
                shared.hub.send_on(&tx, owner, Input::Link(event));
            });
        if !spawned {
            self.lost(peer, n, "dial thread failed to spawn");
        }
    }

    /// Sends one heartbeat toward `peer`, flushing at once: a write on
    /// a connection the peer has reset fails here. Skipped while the
    /// endpoint is down — a stale ping carries no information.
    fn ping(&mut self, peer: BrokerId) {
        let from = self.id.0;
        let Some(ep) = self.endpoints.get_mut(&peer) else {
            return;
        };
        let Some(conn) = &mut ep.up else {
            return;
        };
        match conn.enc.encode(&Frame::Ping { from }) {
            Ok(bytes) => {
                if conn
                    .w
                    .write_all(bytes)
                    .and_then(|()| conn.w.flush())
                    .is_ok()
                {
                    Mirror::count(&ep.mirror.frames_sent, 1);
                    Mirror::count(&ep.mirror.flushes, 1);
                    // The flush carried any batched frames with it.
                    conn.pending.clear();
                    return;
                }
            }
            Err(e) => {
                Mirror::count(&ep.mirror.serialize_failures, 1);
                debug_assert!(e.0.contains("injected"), "ping serialize failed: {e}");
                return;
            }
        }
        self.teardown(peer, "heartbeat write failed", Vec::new());
    }

    /// Flushes the endpoint toward `peer` if the step wrote to it. A
    /// failed flush demotes the unflushed messages to the down-queue.
    fn flush(&mut self, peer: BrokerId) {
        let Some(ep) = self.endpoints.get_mut(&peer) else {
            return;
        };
        let Some(conn) = &mut ep.up else {
            return;
        };
        if conn.pending.is_empty() {
            return;
        }
        if conn.w.flush().is_ok() {
            Mirror::count(&ep.mirror.flushes, 1);
            conn.pending.clear();
            return;
        }
        self.teardown(peer, "flush failed", Vec::new());
    }
}

impl Links for TcpLinks {
    /// Writes one frame toward `to` **without flushing**; while the
    /// endpoint is down the messages queue un-encoded, bounded by the
    /// down-queue high-water mark. Messages dropped here are counted
    /// ended for the barrier.
    fn ship(&mut self, to: BrokerId, msgs: Vec<Message>) {
        self.touched.insert(to);
        let id = self.id;
        let n = msgs.len() as u64;
        let ep = self.open(to);
        let dropped = match &mut ep.up {
            Some(conn) => match conn.write(id, msgs, &ep.mirror) {
                Ok(true) => 0,
                Ok(false) => n,
                Err(unsent) => return self.teardown(to, "write failed", unsent),
            },
            None => {
                let dropped = enqueue_down(&mut ep.queue, msgs, DEFAULT_DOWN_QUEUE_HWM);
                Mirror::count(&ep.mirror.dropped_publications, dropped);
                dropped
            }
        };
        self.shared.hub.discard(to, dropped);
    }

    /// Flushes each endpoint the step wrote to, brings the endpoints in
    /// line with `topology` (one toward each neighbour, none toward a
    /// broker it no longer contains), pings when the heartbeat is due
    /// and starts the dials that are due.
    fn finish_step(&mut self, topology: &Topology) -> Vec<(BrokerId, bool)> {
        for peer in std::mem::take(&mut self.touched) {
            self.flush(peer);
        }
        let (id, shared) = (self.id, &self.shared);
        self.endpoints.retain(|&peer, ep| {
            let keep = topology.contains(peer);
            if !keep {
                shared.hub.discard(peer, ep.held());
                shared.mirrors[&id].write().remove(&peer);
            }
            keep
        });
        for &n in topology.neighbors(id) {
            self.open(n);
        }
        let now = Instant::now();
        if now >= self.next_ping {
            self.next_ping = now + HEARTBEAT_INTERVAL;
            let peers: Vec<BrokerId> = self.endpoints.keys().copied().collect();
            for peer in peers {
                self.ping(peer);
            }
        }
        let due: Vec<BrokerId> = (self.endpoints.iter())
            .filter(|(_, ep)| ep.dial_at.is_some_and(|at| at <= now))
            .map(|(&peer, _)| peer)
            .collect();
        for peer in due {
            self.spawn_dial(peer);
        }
        std::mem::take(&mut self.reports)
    }

    fn next_wake(&self) -> Option<Instant> {
        let dials = self.endpoints.values().filter_map(|ep| ep.dial_at);
        dials.chain([self.next_ping]).min()
    }

    /// A connection is installed if it comes from a broker `topology`
    /// still contains and, when dialed, from the endpoint's newest
    /// dial; an accepted one supersedes whatever was there (latest
    /// wins). A lost one goes to [`TcpLinks::lost`].
    fn event(&mut self, event: LinkEvent, topology: &Topology) {
        match event {
            LinkEvent::Connected { peer, conn, stream } => {
                if !topology.contains(peer) {
                    return; // dropping the stream closes it
                }
                let ep = self.open(peer);
                let n = match conn {
                    Some(n) if n == ep.conn => n,
                    Some(_) => return, // a superseded dial
                    None => {
                        ep.conn += 1;
                        ep.conn
                    }
                };
                self.install(peer, n, stream);
            }
            LinkEvent::Lost {
                peer,
                conn,
                reason,
                corrupt,
            } => {
                self.lost(peer, conn, &reason);
                if let Some(ep) = self.endpoints.get(&peer).filter(|_| corrupt) {
                    // After the reason: a reader of the count sees it.
                    ep.mirror.decode_failures.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
    }
}

/// Builder for [`TcpNetwork`] — the same `builder().overlay(..)
/// .options(..).start()` surface every driver exposes, plus the
/// bind-address chooser.
pub struct TcpNetworkBuilder {
    overlay: OverlayBuilder,
    options: MobileBrokerConfig,
    bind: Box<dyn FnMut(BrokerId) -> String>,
}

impl std::fmt::Debug for TcpNetworkBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpNetworkBuilder")
            .field("overlay", &self.overlay)
            .finish_non_exhaustive()
    }
}

impl Default for TcpNetworkBuilder {
    fn default() -> Self {
        TcpNetworkBuilder {
            overlay: OverlayBuilder::default(),
            options: MobileBrokerConfig::default(),
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

    /// Transport options: there is one configuration, so this changes
    /// nothing.
    // Kept only because `bench_e2e` calls it; ROADMAP item 2's first PR deletes it.
    #[doc(hidden)]
    pub fn tcp(self, _: TcpOptions) -> Self {
        self
    }

    /// Chooses each broker's listener bind address (default: loopback
    /// on an ephemeral port). Port `0` picks an ephemeral port.
    pub fn bind(mut self, bind_addr: impl FnMut(BrokerId) -> String + 'static) -> Self {
        self.bind = Box::new(bind_addr);
        self
    }

    /// Binds the listeners and starts the broker threads; each loop
    /// then dials the overlay edges it owns.
    ///
    /// # Errors
    ///
    /// Propagates socket bind and thread-spawn errors; any threads
    /// already started are shut down and joined before the error is
    /// returned.
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
        let (config, mut bind_addr) = (self.options, self.bind);
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
        // Phase 2: shared state and acceptors.
        let (hub, input_rx) = Hub::new(topology.brokers());
        let shared = Shared::new(Arc::clone(&topology), config.clone(), hub, addrs);
        let shared = Arc::new(shared);
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

    /// Broker 1's links of a `chain(2)` with no loop around them, handed
    /// one accepted connection toward broker 2, and that connection's
    /// far end. No heartbeat falls due while a test runs.
    fn lone_links() -> (TcpLinks, TcpStream, Topology) {
        let topology = Topology::chain(2);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let (hub, _queues) = Hub::new(topology.brokers());
        let addrs = topology.brokers().map(|b| (b, addr)).collect();
        let config = MobileBrokerConfig::reconfig();
        let shared = Shared::new(Arc::new(topology.clone()), config, hub, addrs);
        let mut links = TcpLinks::new(b(1), Arc::new(shared));
        links.next_ping = Instant::now() + Duration::from_secs(3600);
        let far = TcpStream::connect(addr).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        let accepted = LinkEvent::Connected {
            peer: b(2),
            conn: None,
            stream,
        };
        links.event(accepted, &topology);
        (links, far, topology)
    }

    fn stats(links: &TcpLinks) -> Arc<Mirror> {
        links.shared.mirror(b(1), b(2)).expect("mirror")
    }

    /// Satellite bugfix 4: frames written during one batch share a
    /// single flush instead of one syscall each.
    #[test]
    fn batched_frames_share_one_flush() {
        let (mut links, _far, topology) = lone_links();
        for i in 0..3 {
            links.ship(b(2), vec![pub_msg(i)]);
        }
        let reports = links.finish_step(&topology);
        assert_eq!(reports, [(b(2), false), (b(2), true)]);
        let m = stats(&links);
        assert_eq!(m.frames_sent.load(Ordering::Relaxed), 3);
        assert_eq!(m.flushes.load(Ordering::Relaxed), 1, "3 frames, one flush");
    }

    /// Satellite bugfix 2: the down-queue high-water mark drops the
    /// oldest *publications*, never subscription-control or movement
    /// frames, and counts every drop.
    #[test]
    fn down_queue_drops_oldest_publications_never_protocol() {
        let mut queue = DownQueue::default();
        let ctl = Message::from(transmob_core::MoveMsg::Ack {
            m: transmob_pubsub::MoveId(1),
            source: b(1),
            target: b(2),
        });
        assert_eq!(enqueue_down(&mut queue, (0..4).map(pub_msg), 4), 0);
        assert_eq!(queue.msgs.len(), 4);
        // A protocol frame pushes past the mark: the oldest publication
        // is dropped, the protocol frame stays.
        assert_eq!(enqueue_down(&mut queue, [ctl.clone()], 4), 1);
        assert_eq!(queue.msgs.len(), 4);
        assert_eq!(queue.pubs, 3);
        assert!(queue.msgs.iter().any(|m| matches!(m, Message::Move(_))));
        match &queue.msgs[0] {
            Message::PubSub(PubSubMsg::Publish(p)) => {
                assert_eq!(p.id, transmob_pubsub::PubId(1), "oldest pub must go first");
            }
            other => panic!("expected a publication at the front, got {other:?}"),
        }
        // A queue of nothing but protocol frames may exceed the mark:
        // correctness-bearing messages are never sacrificed.
        let mut controls = DownQueue::default();
        let six = std::iter::repeat_with(|| ctl.clone()).take(6);
        assert_eq!(enqueue_down(&mut controls, six, 4), 0);
        assert_eq!(controls.msgs.len(), 6);
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
    /// superseded must not tear down the fresh connection — the loop
    /// compares connection numbers, so the stale loss is a no-op.
    #[test]
    fn stale_reader_cannot_tear_down_fresh_connection() {
        let (mut links, _far, topology) = lone_links();
        let live = links.endpoints[&b(2)].up.as_ref().expect("installed").n;
        let lost = |conn, reason: &str| LinkEvent::Lost {
            peer: b(2),
            conn,
            reason: reason.to_string(),
            corrupt: false,
        };
        // The loss of the previous connection: no-op.
        links.event(lost(live - 1, "stale reader"), &topology);
        assert!(
            links.endpoints[&b(2)].up.is_some(),
            "a stale loss must not kill the live connection"
        );
        assert!(stats(&links).up.load(Ordering::SeqCst));
        // The loss of the live connection takes it down, and the
        // endpoint (the edge's dialer) schedules a redial.
        links.event(lost(live, "live reader"), &topology);
        let ep = &links.endpoints[&b(2)];
        assert!(ep.up.is_none() && ep.dial_at.is_some());
        let reason = stats(&links).down_reason.lock().clone();
        assert_eq!(reason.as_deref(), Some("live reader"));
        assert!(!stats(&links).up.load(Ordering::SeqCst));
    }

    /// Satellite bugfix (churn PR): a kill/restart of the dialing
    /// broker while its redial backs off leaves exactly one dialer, the
    /// restarted loop's. Pinned via the per-link connect counter: after
    /// the restart churn settles, no further connection appears on the
    /// edge.
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
        // Let the dialer's backoff grow toward the cap so a redial is
        // very likely scheduled during the kill/restart below.
        std::thread::sleep(Duration::from_millis(250));
        // Kill and restart the *dialer* while its redial is scheduled:
        // the schedule dies with the loop, and the restarted loop dials
        // afresh.
        net.kill_broker(b(1));
        net.restart_broker(b(1)).expect("restart dialer");
        net.restart_broker(b(2)).expect("restart acceptor");
        wait_link_up(&net, b(1), b(2));
        let connects_after_heal = net.link_stats(b(1), b(2)).expect("stats").connects;
        // Wait out the redial cap: a dialer that survived the kill would
        // dial and install a duplicate connection in this window.
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
        let (mut links, _far, topology) = lone_links();
        let ep = links.endpoints.get_mut(&b(2)).expect("endpoint");
        ep.up
            .as_mut()
            .expect("installed")
            .enc
            .inject_encode_failure();
        links.ship(b(2), vec![pub_msg(1)]);
        links.finish_step(&topology);
        let m = stats(&links);
        assert_eq!(
            m.serialize_failures.load(Ordering::Relaxed),
            1,
            "the injected serialize failure must be counted"
        );
        assert!(
            m.up.load(Ordering::SeqCst),
            "a serialize failure must not take the link down"
        );
    }
}
