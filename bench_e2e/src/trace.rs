//! The traced replay: a bench-owned, single-threaded driver that
//! carries encoded frames between `MobileBroker`s as the TCP runtime
//! does (decode, pre-match, apply, coalesce, encode; with a durability
//! log attached where the workload's real driver attaches one), timing
//! each call into a layer as a span. The spans come from this file,
//! around the layers' public functions; nothing inside the layers is
//! instrumented.

use std::collections::{BTreeMap, VecDeque};
use std::io::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use transmob_broker::{Hop, MsgKind, PubSubMsg};
use transmob_core::transport::{flush_outputs, Transport};
use transmob_core::{
    BrokerSnapshot, ClientOp, DurabilityLog, DurabilityRecord, MemoryLog, Message, MobileBroker,
    MobileBrokerConfig, Output, ProtocolKind,
};
use transmob_pubsub::{BrokerId, ClientId, PubId, PublicationMsg};
use transmob_runtime::codec::{Frame, FrameDecoder, FrameEncoder, WireMode};

use crate::oracle::{Oracle, Tracker};
use crate::workloads::{Driver, Op, Spec, SUBSCRIBER_BASE};

/// One timed call, or one operation (the root of a tree of calls).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span this one ran inside.
    pub parent: Option<u32>,
    /// Index of the operation in the replayed stream.
    pub op: u32,
    /// `PubId` of a publish operation, `MoveId` of a movement.
    pub id: u64,
    /// The broker the call ran at (0 for an operation's root).
    pub broker: u32,
}

/// Span names. An operation's root is named for its kind; every other
/// span is one call into one layer.
pub mod names {
    /// `FrameDecoder::read_frame` on an arriving frame.
    pub const DECODE: &str = "runtime.codec.decode";
    /// `FrameEncoder::encode` of a coalesced batch.
    pub const ENCODE: &str = "runtime.codec.encode";
    /// `MobileBroker::prematch`, consumed by the apply that follows.
    pub const PREMATCH: &str = "pubsub.index.prematch";
    /// The same call made only to price the matching that a
    /// single-message apply does internally, right after that apply (so
    /// the apply runs on the caches the real driver would find); its
    /// result is dropped, and being a span of its own it is left out of
    /// the operation's cost.
    pub const MATCH_PROBE: &str = "pubsub.index.match_probe";
    /// `MobileBroker::handle_batch[_prematched]` / `client_op`.
    pub const APPLY: &str = "broker.core.apply";
    /// `DurabilityLog::append[_batch]`, called from inside an apply.
    pub const WAL_APPEND: &str = "core.durability.append";
    /// `DurabilityLog::checkpoint`, called from inside an apply.
    pub const WAL_CHECKPOINT: &str = "core.durability.checkpoint";
    /// `flush_outputs` over one apply's effects.
    pub const FLUSH: &str = "core.transport.flush";
    /// One frame's stay at one broker; its self time is this driver's.
    pub const HOP: &str = "trace.hop";
}

/// Collects spans in memory.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
    id: u64,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            id: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span inside the innermost open one.
    fn enter(&mut self, name: &'static str, broker: BrokerId) {
        if !self.on {
            return;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
            id: self.id,
            broker: broker.0,
        });
        self.stack.push(self.spans.len() as u32 - 1);
    }

    /// Closes the innermost open span.
    fn exit(&mut self) {
        if !self.on {
            return;
        }
        let i = self.stack.pop().expect("exit without enter");
        self.spans[i as usize].end_ns = self.now();
    }

    /// Adds an already finished call as a child of the innermost open
    /// span.
    fn child(&mut self, name: &'static str, broker: BrokerId, start_ns: u64, end_ns: u64) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.stack.last().copied(),
            op: self.op,
            id: self.id,
            broker: broker.0,
        });
    }
}

/// Each span's self time: its duration minus the part of it its child
/// spans cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let covered = s
                .end_ns
                .min(parent.end_ns)
                .saturating_sub(s.start_ns.max(parent.start_ns));
            own[p as usize] = own[p as usize].saturating_sub(covered);
        }
    }
    own
}

/// A `MemoryLog` that times every call the broker makes on it,
/// attached exactly as `TcpNetwork` attaches its logs (the Sim and the
/// channel runtime run without one, and so does their replay).
#[derive(Debug)]
struct TimedLog {
    inner: MemoryLog,
    epoch: Instant,
    /// `(name, start_ns, end_ns)` of calls not yet turned into spans.
    calls: Vec<(&'static str, u64, u64)>,
    appended: u64,
}

impl TimedLog {
    fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut MemoryLog) -> R) -> R {
        let t0 = self.epoch.elapsed().as_nanos() as u64;
        let r = f(&mut self.inner);
        self.calls
            .push((name, t0, self.epoch.elapsed().as_nanos() as u64));
        r
    }
}

impl DurabilityLog for TimedLog {
    fn append(&mut self, record: &DurabilityRecord) -> std::io::Result<()> {
        self.appended += 1;
        self.timed(names::WAL_APPEND, |log| log.append(record))
    }

    fn append_batch(&mut self, records: &[DurabilityRecord]) -> std::io::Result<()> {
        self.appended += records.len() as u64;
        self.timed(names::WAL_APPEND, |log| log.append_batch(records))
    }

    fn checkpoint(&mut self, snapshot: &BrokerSnapshot) -> std::io::Result<()> {
        self.timed(names::WAL_CHECKPOINT, |log| log.checkpoint(snapshot))
    }
}

/// Counts taken at the same boundaries as the spans.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub frames: u64,
    pub frame_bytes: u64,
    pub msgs: u64,
    pub msgs_by_kind: BTreeMap<MsgKind, u64>,
    pub applies: u64,
    pub outputs: u64,
    /// Publications that arrived at a broker whose dedup window
    /// already held them.
    pub duplicate_arrivals: u64,
}

/// Everything but the brokers: what a broker's effects are flushed
/// into.
struct Wire {
    rec: Recorder,
    counts: Counts,
    /// Per directed link: the sender's encoder and the receiver's
    /// decoder (one string table per direction, as on a socket).
    links: BTreeMap<(BrokerId, BrokerId), (FrameEncoder, FrameDecoder)>,
    /// Frames in flight: `(to, from, bytes)`, FIFO overall and so FIFO
    /// per link.
    queue: VecDeque<(BrokerId, BrokerId, Vec<u8>)>,
    homes: BTreeMap<ClientId, BrokerId>,
    delivered: Vec<(ClientId, PubId)>,
    /// `(MoveId, committed)` of finished movements.
    finished: Vec<(u64, bool)>,
}

/// [`Transport`] for one broker's effects: a send batch becomes one
/// encoded frame on the queue.
struct TraceFlush<'a> {
    wire: &'a mut Wire,
    src: BrokerId,
}

impl Transport for TraceFlush<'_> {
    fn send_batch(&mut self, to: BrokerId, msgs: Vec<Message>) {
        let w = &mut *self.wire;
        w.counts.frames += 1;
        w.counts.msgs += msgs.len() as u64;
        for m in &msgs {
            *w.counts.msgs_by_kind.entry(m.kind()).or_insert(0) += 1;
        }
        let frame = Frame::Msg {
            from: self.src.0,
            msgs,
        };
        w.rec.enter(names::ENCODE, self.src);
        let (enc, _) = w
            .links
            .get_mut(&(self.src, to))
            .expect("frame on a non-edge");
        let bytes = enc
            .encode(&frame)
            .expect("binary encoding is total")
            .to_vec();
        w.rec.exit();
        w.counts.frame_bytes += bytes.len() as u64;
        w.queue.push_back((to, self.src, bytes));
    }

    fn deliver_batch(&mut self, client: ClientId, publications: Vec<PublicationMsg>) {
        self.wire
            .delivered
            .extend(publications.into_iter().map(|p| (client, p.id)));
    }

    fn control(&mut self, output: Output) {
        match output {
            Output::ClientArrived { client, .. } => {
                self.wire.homes.insert(client, self.src);
            }
            Output::MoveFinished { m, committed, .. } => {
                self.wire.finished.push((m.0, committed));
            }
            // Nothing is ever late on one thread: protocol timers are
            // armed and cancelled but never fire.
            Output::SetTimer { .. } | Output::CancelTimer { .. } => {}
            Output::Send { .. } | Output::DeliverToApp { .. } => {
                unreachable!("flush_outputs routes batchable effects to the batch verbs")
            }
        }
    }
}

type SharedLog = Arc<Mutex<TimedLog>>;

/// The traced single-threaded driver.
pub struct TraceDriver {
    brokers: BTreeMap<BrokerId, (MobileBroker, Option<SharedLog>)>,
    wire: Wire,
}

fn is_publish(m: &Message) -> bool {
    matches!(m, Message::PubSub(PubSubMsg::Publish(_)))
}

impl TraceDriver {
    /// Brokers over `spec`'s overlay, with a timed log attached where
    /// the workload's real driver attaches one; `spans` off gives the
    /// same driver without the recording, for the tracing-overhead
    /// comparison.
    pub fn new(spec: &Spec, spans: bool) -> Self {
        let rec = Recorder::new(spans);
        let topology = Arc::new(spec.topology.clone());
        let brokers = topology
            .brokers()
            .map(|b| {
                let mut broker =
                    MobileBroker::new(b, Arc::clone(&topology), MobileBrokerConfig::reconfig());
                let log = (spec.driver == Driver::Tcp).then(|| {
                    let log = Arc::new(Mutex::new(TimedLog {
                        inner: MemoryLog::new(),
                        epoch: rec.epoch,
                        calls: Vec::new(),
                        appended: 0,
                    }));
                    let attached: Arc<Mutex<dyn DurabilityLog>> = log.clone();
                    broker
                        .attach_durability(attached)
                        .expect("in-memory checkpoint cannot fail");
                    log
                });
                (b, (broker, log))
            })
            .collect();
        let links = topology
            .edges()
            .into_iter()
            .flat_map(|(a, b)| [(a, b), (b, a)])
            .map(|link| {
                let codec = (
                    FrameEncoder::new(WireMode::Binary),
                    FrameDecoder::new(WireMode::Binary),
                );
                (link, codec)
            })
            .collect();
        TraceDriver {
            brokers,
            wire: Wire {
                rec,
                counts: Counts::default(),
                links,
                queue: VecDeque::new(),
                homes: BTreeMap::new(),
                delivered: Vec::new(),
                finished: Vec::new(),
            },
        }
    }

    pub fn create_client(&mut self, home: BrokerId, client: ClientId) {
        self.brokers
            .get_mut(&home)
            .expect("unknown broker")
            .0
            .create_client(client);
        self.wire.homes.insert(client, home);
    }

    /// Turns the log calls made during the apply that just ran into
    /// children of the open apply span.
    fn adopt_log_calls(&mut self, at: BrokerId) {
        let Some(log) = &self.brokers[&at].1 else {
            return;
        };
        let calls = std::mem::take(&mut log.lock().expect("log poisoned").calls);
        for (name, start, end) in calls {
            self.wire.rec.child(name, at, start, end);
        }
    }

    /// Prices the matching the single-message apply that just ran did
    /// internally: the same `prematch` call on the same routing state
    /// (a publication changes none), result dropped.
    fn match_probe(&mut self, at: BrokerId, msgs: &[Message]) {
        let broker = &self.brokers[&at].0;
        self.wire.rec.enter(names::MATCH_PROBE, at);
        std::hint::black_box(broker.prematch(std::hint::black_box(msgs)));
        self.wire.rec.exit();
    }

    fn flush(&mut self, src: BrokerId, outs: Vec<Output>) {
        self.wire.counts.applies += 1;
        self.wire.counts.outputs += outs.len() as u64;
        self.wire.rec.enter(names::FLUSH, src);
        let mut flush = TraceFlush {
            wire: &mut self.wire,
            src,
        };
        flush_outputs(&mut flush, outs);
        self.wire.rec.exit();
    }

    /// Applies an application command at the client's current broker
    /// and carries every frame it causes until the overlay is quiet.
    pub fn client_op(&mut self, client: ClientId, op: ClientOp) {
        let home = self.wire.homes[&client];
        let probe = match &op {
            ClientOp::Publish(content) => Some(Message::PubSub(PubSubMsg::Publish(
                PublicationMsg::new(PubId(0), client, content.clone()),
            ))),
            _ => None,
        };
        self.wire.rec.enter(names::APPLY, home);
        let outs = self
            .brokers
            .get_mut(&home)
            .expect("client at an unknown broker")
            .0
            .client_op(client, op);
        self.adopt_log_calls(home);
        self.wire.rec.exit();
        if let Some(probe) = probe {
            self.match_probe(home, &[probe]);
        }
        self.flush(home, outs);
        while let Some((to, from, bytes)) = self.wire.queue.pop_front() {
            self.hop(to, from, &bytes);
        }
    }

    /// Records appended to the brokers' logs so far.
    fn appended(&self) -> u64 {
        self.brokers
            .values()
            .filter_map(|(_, log)| log.as_ref())
            .map(|log| log.lock().expect("log poisoned").appended)
            .sum()
    }

    /// One frame's arrival at one broker: what a TCP reader, ingest
    /// and apply thread do between them.
    fn hop(&mut self, to: BrokerId, from: BrokerId, bytes: &[u8]) {
        self.wire.rec.enter(names::HOP, to);
        self.wire.rec.enter(names::DECODE, to);
        let (_, dec) = self
            .wire
            .links
            .get_mut(&(from, to))
            .expect("frame on a non-edge");
        let frame = dec
            .read_frame(&mut &bytes[..])
            .expect("frame decodes")
            .expect("whole frame");
        self.wire.rec.exit();
        let Frame::Msg { msgs, .. } = frame else {
            unreachable!("the replay sends no heartbeats")
        };
        // A single publication is matched inside the apply; keep a copy
        // to price that matching afterwards.
        let probe = (msgs.len() == 1 && is_publish(&msgs[0])).then(|| msgs.clone());
        {
            let window = self.brokers[&to].0.core().dedup_window();
            self.wire.counts.duplicate_arrivals += msgs
                .iter()
                .filter(|m| matches!(m, Message::PubSub(PubSubMsg::Publish(p)) if window.contains(p.id)))
                .count() as u64;
        }
        // As the runtimes' ingest stage: only a multi-message frame is
        // pre-matched; a single message is matched inside the apply.
        let outs = if msgs.len() > 1 {
            self.wire.rec.enter(names::PREMATCH, to);
            let pre = self.brokers[&to].0.prematch(&msgs);
            self.wire.rec.exit();
            self.wire.rec.enter(names::APPLY, to);
            let broker = &mut self.brokers.get_mut(&to).expect("known broker").0;
            broker.handle_batch_prematched(Hop::Broker(from), msgs, pre)
        } else {
            self.wire.rec.enter(names::APPLY, to);
            let broker = &mut self.brokers.get_mut(&to).expect("known broker").0;
            broker.handle_batch(Hop::Broker(from), msgs)
        };
        self.adopt_log_calls(to);
        self.wire.rec.exit();
        if let Some(probe) = probe {
            self.match_probe(to, &probe);
        }
        self.flush(to, outs);
        self.wire.rec.exit();
    }
}

/// What replaying a workload's operation prefix yielded.
pub struct Replay {
    pub spans: Vec<Span>,
    pub counts: Counts,
    /// Counts at the end of set-up (subtract for per-operation rates).
    pub setup_counts: Counts,
    pub ops: usize,
    pub publishes: usize,
    pub moves: usize,
    /// Wall time of the operation prefix, and of its first quarter.
    pub wall_s: f64,
    pub quarter_wall_s: f64,
    /// Mean wall time of one subscribe, and of one unsubscribe, end to
    /// end through the overlay, in microseconds.
    pub subscribe_us: f64,
    pub unsubscribe_us: f64,
    pub prt_rows: usize,
    pub srt_rows: usize,
    /// Link messages sent while movement operations ran, by kind.
    pub move_msgs: BTreeMap<MsgKind, u64>,
    /// Log records appended during the prefix.
    pub wal_records: u64,
    /// Mean serialized size of a log record (JSON, as the file WAL
    /// writes it), sampled from the records still in the logs.
    pub wal_record_bytes: f64,
    pub failures: Vec<(u64, &'static str)>,
}

/// Subscriptions withdrawn after the prefix to time `unsubscribe`.
const UNSUBSCRIBES: usize = 64;

/// Sets the workload up on a [`TraceDriver`] and replays the first
/// `n` operations of its stream, checking every notification against
/// the oracle.
pub fn replay(spec: &Spec, oracle: &Oracle, n: usize, spans: bool) -> Replay {
    let mut d = TraceDriver::new(spec, spans);
    // Set-up is timed as a whole, not span by span: 10 000 subscribes
    // would bury the operations in the trace file.
    d.wire.rec.on = false;
    for p in &spec.publishers {
        d.create_client(p.home, p.id);
        d.client_op(p.id, ClientOp::Advertise(spec.adv.clone()));
    }
    let t0 = Instant::now();
    for s in &spec.subscribers {
        d.create_client(s.home, s.id);
        for f in &s.filters {
            d.client_op(s.id, ClientOp::Subscribe(f.clone()));
        }
    }
    let subscribe_us = t0.elapsed().as_secs_f64() * 1e6 / spec.rows().max(1) as f64;
    if let Some(c) = &spec.churner {
        d.create_client(c.home, c.id);
    }
    let prt_rows = d.brokers.values().map(|(b, _)| b.core().prt().len()).sum();
    let srt_rows = d.brokers.values().map(|(b, _)| b.core().srt().len()).sum();
    let setup_counts = d.wire.counts.clone();
    let appended0 = d.appended();
    d.wire.delivered.clear();
    d.wire.rec.on = spans;

    let ops = spec.op_prefix(n);
    let mut tracker: Tracker<()> = Tracker::new();
    let mut published = vec![0u64; spec.publishers.len()];
    let (mut publishes, mut moves, mut churn_subs, mut aborted) = (0, 0, 0u32, 0);
    let mut move_msgs: BTreeMap<MsgKind, u64> = BTreeMap::new();
    let started = Instant::now();
    let mut quarter_wall_s = 0.0;
    for (i, op) in ops.iter().enumerate() {
        if i == n / 4 {
            quarter_wall_s = started.elapsed().as_secs_f64();
        }
        d.wire.rec.op = i as u32;
        match op {
            Op::Publish { publisher, content } => {
                let p = &spec.publishers[*publisher];
                let key = p.pub_id(published[*publisher]);
                published[*publisher] += 1;
                publishes += 1;
                tracker.on_publish(key, oracle.expected(*content), ());
                d.wire.rec.id = key;
                d.wire.rec.enter("publish", BrokerId(0));
                d.client_op(p.id, ClientOp::Publish(spec.contents[*content].clone()));
                d.wire.rec.exit();
            }
            Op::Move { subscriber, to } => {
                moves += 1;
                d.wire.rec.id = 0;
                d.wire.rec.enter("move", BrokerId(0));
                let root = d.wire.rec.spans.len().saturating_sub(1);
                let before = d.wire.counts.msgs_by_kind.clone();
                let op = ClientOp::MoveTo(*to, ProtocolKind::Reconfig);
                d.client_op(spec.subscribers[*subscriber].id, op);
                d.wire.rec.exit();
                for (kind, n) in &d.wire.counts.msgs_by_kind {
                    *move_msgs.entry(*kind).or_insert(0) +=
                        n - before.get(kind).copied().unwrap_or(0);
                }
                match d.wire.finished.pop() {
                    Some((m, true)) => {
                        // The movement's id is known only once it is
                        // over: stamp it on the operation's spans.
                        if spans {
                            for s in &mut d.wire.rec.spans[root..] {
                                s.id = m;
                            }
                        }
                    }
                    _ => aborted += 1,
                }
            }
            Op::ChurnSubscribe | Op::ChurnUnsubscribe => {
                let c = spec.churner.as_ref().expect("churn op without a churner");
                d.wire.rec.id = 0;
                d.wire.rec.enter("churn", BrokerId(0));
                if *op == Op::ChurnSubscribe {
                    churn_subs += 1;
                    d.client_op(c.id, ClientOp::Subscribe(c.filter.clone()));
                } else {
                    d.client_op(c.id, ClientOp::Unsubscribe(churn_subs - 1));
                }
                d.wire.rec.exit();
            }
        }
        for (client, id) in d.wire.delivered.drain(..) {
            // The churner is outside the oracle.
            if client.0 >= SUBSCRIBER_BASE {
                tracker.on_notify(id.0, (client.0 - SUBSCRIBER_BASE) as usize);
            }
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let counts = d.wire.counts.clone();
    let appended1 = d.appended();
    let spans_out = std::mem::take(&mut d.wire.rec.spans);
    d.wire.rec.on = false;

    // Epilogue, outside the trace: one subscription withdrawn from
    // each of the first subscribers, to time `unsubscribe`.
    let victims: Vec<_> = spec.subscribers.iter().take(UNSUBSCRIBES).collect();
    let t0 = Instant::now();
    for s in &victims {
        d.client_op(s.id, ClientOp::Unsubscribe(s.filters.len() as u32 - 1));
    }
    let unsubscribe_us = t0.elapsed().as_secs_f64() * 1e6 / victims.len().max(1) as f64;

    let mut sizes = Vec::new();
    for log in d.brokers.values().filter_map(|(_, log)| log.as_ref()) {
        let (_, records) = log.lock().expect("log poisoned").inner.contents();
        for r in records.iter().take(16) {
            sizes.push(serde_json::to_string(r).map_or(0, |s| s.len()) as f64);
        }
    }
    let mut failures = Vec::new();
    for (n, what) in [
        (
            tracker.in_flight() as u64,
            "replayed publications missing a notification",
        ),
        (
            tracker.unexpected,
            "duplicate or unexpected notifications in the replay",
        ),
        (aborted, "replayed movements that did not commit"),
    ] {
        if n > 0 {
            failures.push((n, what));
        }
    }
    Replay {
        spans: spans_out,
        counts,
        setup_counts,
        ops: ops.len(),
        publishes,
        moves,
        wall_s,
        quarter_wall_s,
        subscribe_us,
        unsubscribe_us,
        prt_rows,
        srt_rows,
        move_msgs,
        wal_records: appended1 - appended0,
        wal_record_bytes: crate::stats::mean(&sizes),
        failures,
    }
}

/// Writes spans as JSON lines, each with its self time.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let own = self_times(spans);
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, (s, own)) in spans.iter().zip(own).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"span\":{i},\"parent\":{parent},\"name\":\"{}\",\"op\":{},\"id\":{},\"broker\":{},\
             \"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
            s.name, s.op, s.id, s.broker, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
            id: 0,
            broker: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("op", 0, 100, None),
            span("hop", 10, 90, Some(0)),
            span("decode", 10, 30, Some(1)),
            span("apply", 30, 70, Some(1)),
            span("wal", 35, 45, Some(3)),
            // A child that outlives its parent only counts for the
            // part inside it.
            span("late", 60, 80, Some(3)),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 20, 20, 10, 20]);
    }

    #[test]
    fn recorder_nests_and_can_be_switched_off() {
        let mut r = Recorder::new(true);
        r.enter("a", BrokerId(1));
        r.enter("b", BrokerId(2));
        r.child("c", BrokerId(2), 1, 2);
        r.exit();
        r.exit();
        assert_eq!(r.spans.len(), 3);
        assert_eq!(r.spans[1].parent, Some(0));
        assert_eq!(r.spans[2].parent, Some(1));
        assert!(r.spans[0].end_ns >= r.spans[1].end_ns);
        let mut off = Recorder::new(false);
        off.enter("a", BrokerId(1));
        off.exit();
        assert!(off.spans.is_empty());
    }

    #[test]
    fn replay_delivers_what_the_oracle_expects() {
        for name in ["tcp-moves", "tcp-fanout", "sim-cyclic"] {
            let spec = workloads::build(name, 4).unwrap();
            let oracle = Oracle::build(&spec.filter_table(), &spec.contents);
            let r = replay(&spec, &oracle, 120, true);
            assert_eq!(r.failures, vec![], "{name}");
            assert_eq!(r.ops, 120);
            assert!(r.counts.frames > r.setup_counts.frames, "{name}");
            assert!(r.spans.iter().any(|s| s.name == names::APPLY), "{name}");
            // Every span but the roots has a parent in the same op.
            for s in &r.spans {
                if let Some(p) = s.parent {
                    assert_eq!(r.spans[p as usize].op, s.op);
                }
            }
            let quiet = replay(&spec, &oracle, 120, false);
            assert!(quiet.spans.is_empty());
            assert_eq!(
                quiet.counts.frames, r.counts.frames,
                "{name}: same work untraced"
            );
        }
    }
}
