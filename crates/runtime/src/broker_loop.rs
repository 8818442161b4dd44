//! What a threaded broker is, once: the input queue, the client-facing
//! registry and handle, and the single-threaded loop that owns one
//! [`MobileBroker`] by value and its [`TimerTable`]. The channel runtime
//! ([`crate::Network`]) and the TCP runtime ([`crate::tcp::TcpNetwork`])
//! both run [`run`]; what differs between them — how a batch reaches a
//! neighbour — sits behind [`Links`]. Both handles read the network
//! through the [`Hub`]: whether it has settled ([`Hub::quiesce`]) and
//! what every broker holds ([`Hub::brokers`]).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::RwLock;
use transmob_broker::{Hop, Topology};
use transmob_core::properties::Frozen;
use transmob_core::transport::{flush_outputs, TimerTable, Transport};
use transmob_core::{ClientOp, Message, MobileBroker, Output, ProtocolKind, TimerToken};
use transmob_pubsub::{BrokerId, ClientId, Filter, MoveId, Publication, PublicationMsg};

use crate::tcp::LinkEvent;

/// The outcome of a movement, delivered to the issuing client's handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoveOutcome {
    /// The movement transaction id.
    pub m: MoveId,
    /// Whether the client now runs at the target.
    pub committed: bool,
}

/// One entry of a broker's input queue. The queue is the broker's only
/// source of work, so per-sender FIFO on it is per-link FIFO.
pub(crate) enum Input {
    FromBroker(BrokerId, Vec<Message>),
    /// A thread of the TCP runtime hands the loop news of one of its
    /// links ([`Links::event`]).
    Link(LinkEvent),
    FromClient(ClientId, ClientOp),
    CreateClient(ClientId),
    /// Run this on the broker between two inputs ([`Hub::ask`]).
    Inspect(Box<dyn FnOnce(&MobileBroker) + Send>),
    Shutdown,
}

impl Input {
    /// How many inputs this counts as for the barrier: a batch counts
    /// its messages (a link may split a batch, or drop one message of
    /// it), a shutdown nothing, anything else one.
    fn weight(&self) -> u64 {
        match self {
            Input::FromBroker(_, msgs) => msgs.len() as u64,
            Input::Shutdown => 0,
            _ => 1,
        }
    }
}

/// One broker's side of the quiescence barrier ([`Hub::quiesce`]).
#[derive(Debug, Default)]
struct Tally {
    /// Inputs for this broker, counted where they were made: by the
    /// hub as it queues them, and by the loop that ships a batch here.
    made: AtomicU64,
    /// Inputs this broker's loop finished applying, or a link dropped
    /// on their way here.
    ended: AtomicU64,
    /// Whether the loop held an armed protocol timer after its last
    /// step.
    armed: AtomicBool,
}

/// One broker's tally as the barrier read it: made, ended, armed.
type Reading = (u64, u64, bool);

/// How long the barrier waits between two readings that disagree.
const POLL: Duration = Duration::from_micros(200);

/// How long [`Hub::brokers`] waits for one broker's answer.
const INSPECT_TIMEOUT: Duration = Duration::from_secs(10);

#[derive(Debug, Default)]
struct Registry {
    homes: BTreeMap<ClientId, BrokerId>,
    deliveries: BTreeMap<ClientId, Sender<PublicationMsg>>,
    move_events: BTreeMap<ClientId, Sender<MoveOutcome>>,
}

/// The client-facing side of a running network, shared by its handle,
/// its clients and its broker loops: where each client lives, where its
/// notifications and movement outcomes go, each broker's input queue,
/// and the barrier's count of what each queue was given and finished.
#[derive(Debug)]
pub(crate) struct Hub {
    registry: RwLock<Registry>,
    /// Locked because TCP's kill/restart swaps a broker's queue.
    inputs: RwLock<BTreeMap<BrokerId, Sender<Input>>>,
    tallies: BTreeMap<BrokerId, Tally>,
}

impl Hub {
    /// A hub over `brokers`, with the receiving end of each input queue.
    pub(crate) fn new(
        brokers: impl IntoIterator<Item = BrokerId>,
    ) -> (Arc<Hub>, BTreeMap<BrokerId, Receiver<Input>>) {
        let mut inputs = BTreeMap::new();
        let mut receivers = BTreeMap::new();
        for b in brokers {
            let (tx, rx) = unbounded();
            inputs.insert(b, tx);
            receivers.insert(b, rx);
        }
        let hub = Hub {
            registry: RwLock::new(Registry::default()),
            tallies: inputs.keys().map(|&b| (b, Tally::default())).collect(),
            inputs: RwLock::new(inputs),
        };
        (Arc::new(hub), receivers)
    }

    /// Counts `input` as made for `broker`, then queues it there.
    ///
    /// # Panics
    ///
    /// Panics if `broker` is not in the overlay.
    pub(crate) fn send(&self, broker: BrokerId, input: Input) {
        self.made(broker, input.weight());
        self.enqueue(broker, input);
    }

    /// Counts `input` as made for `broker`, then queues it on `tx`, a
    /// queue of that broker's that its loop may have left: a thread the
    /// loop spawned speaks only to the loop that spawned it.
    pub(crate) fn send_on(&self, tx: &Sender<Input>, broker: BrokerId, input: Input) {
        self.made(broker, input.weight());
        if let Err(lost) = tx.send(input) {
            self.discard(broker, lost.0.weight());
        }
    }

    /// Queues `input` at `broker` without counting it: its messages
    /// were counted when a loop shipped them. A send to a broker whose
    /// loop has ended is dropped, like a frame to a dead process.
    ///
    /// # Panics
    ///
    /// Panics if `broker` is not in the overlay.
    pub(crate) fn enqueue(&self, broker: BrokerId, input: Input) {
        if let Err(lost) = self.inputs.read()[&broker].send(input) {
            self.discard(broker, lost.0.weight());
        }
    }

    /// Counts `n` inputs made for `broker`, before its loop can see
    /// them.
    fn made(&self, broker: BrokerId, n: u64) {
        self.tallies[&broker].made.fetch_add(n, Ordering::SeqCst);
    }

    /// Counts `n` inputs for `broker` as ended without reaching it: a
    /// link dropped them.
    pub(crate) fn discard(&self, broker: BrokerId, n: u64) {
        self.tallies[&broker].ended.fetch_add(n, Ordering::SeqCst);
    }

    /// Waits up to `timeout` for the network to be quiescent, and
    /// returns whether it was: every input made for a broker — a client
    /// command, a link event, a shipped message — was applied or
    /// dropped, and no loop holds an armed protocol timer. Heartbeats
    /// are not inputs. The count is exact while no broker is killed: a
    /// killed loop still applies what was queued before the kill, but
    /// what reaches its old queue behind the `Shutdown`, the bytes left
    /// unread in its sockets and its own down-queues are lost
    /// uncounted, after which this may never return `true`.
    pub(crate) fn quiesce(&self, timeout: Duration) -> bool {
        settled(Instant::now() + timeout, || {
            let load = |t: &Tally| {
                let made = t.made.load(Ordering::SeqCst);
                let ended = t.ended.load(Ordering::SeqCst);
                (made, ended, t.armed.load(Ordering::SeqCst))
            };
            self.tallies.values().map(load).collect()
        })
    }

    /// A copy of every broker, each taken by its own loop between two
    /// inputs: one state of the network once [`Hub::quiesce`] returned
    /// `true` and nothing was issued since.
    ///
    /// # Panics
    ///
    /// Panics if a broker does not answer within ten seconds (a killed
    /// one).
    pub(crate) fn brokers(&self, topology: &Arc<Topology>) -> Frozen {
        let copy = |&b: &BrokerId| {
            let answer = self.ask(b, MobileBroker::clone);
            (
                b,
                answer.unwrap_or_else(|| panic!("broker {b} did not answer")),
            )
        };
        Frozen {
            topology: Arc::clone(topology),
            brokers: self.tallies.keys().map(copy).collect(),
        }
    }

    /// What `f` says of `broker`, run by its loop between two inputs;
    /// `None` if no answer came within ten seconds (a killed broker).
    pub(crate) fn ask<T: Send + 'static>(
        &self,
        broker: BrokerId,
        f: impl FnOnce(&MobileBroker) -> T + Send + 'static,
    ) -> Option<T> {
        let (tx, rx) = unbounded();
        let reply = move |b: &MobileBroker| {
            let _ = tx.send(f(b));
        };
        self.send(broker, Input::Inspect(Box::new(reply)));
        rx.recv_timeout(INSPECT_TIMEOUT).ok()
    }

    /// A clone of `broker`'s current input sender.
    pub(crate) fn sender(&self, broker: BrokerId) -> Sender<Input> {
        self.inputs.read()[&broker].clone()
    }

    /// Gives `broker` a fresh input queue, and queues a `Shutdown`
    /// behind whatever the old one holds: the loop that drains it
    /// applies those inputs first, then stops.
    pub(crate) fn replace_queue(&self, broker: BrokerId) -> Receiver<Input> {
        let (tx, rx) = unbounded();
        if let Some(old) = self.inputs.write().insert(broker, tx) {
            let _ = old.send(Input::Shutdown);
        }
        rx
    }

    pub(crate) fn shutdown_all(&self) {
        for tx in self.inputs.read().values() {
            let _ = tx.send(Input::Shutdown);
        }
    }

    pub(crate) fn home_of(&self, client: ClientId) -> Option<BrokerId> {
        self.registry.read().homes.get(&client).copied()
    }

    /// Registers `id` as hosted at `broker`, queues its creation there
    /// and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if `broker` is not in the overlay or the client id is
    /// already in use.
    pub(crate) fn create_client(self: &Arc<Self>, broker: BrokerId, id: ClientId) -> Client {
        let (dtx, drx) = unbounded();
        let (mtx, mrx) = unbounded();
        {
            let mut reg = self.registry.write();
            assert!(
                !reg.homes.contains_key(&id),
                "client id {id} already in use"
            );
            reg.homes.insert(id, broker);
            reg.deliveries.insert(id, dtx);
            reg.move_events.insert(id, mtx);
        }
        self.send(broker, Input::CreateClient(id));
        Client {
            id,
            hub: Arc::clone(self),
            deliveries: drx,
            moves: mrx,
        }
    }
}

/// The barrier's rule over successive readings of every broker's tally:
/// quiescent once two consecutive readings are identical, every broker
/// ended all that was made for it, and none holds an armed timer. The
/// counters only grow and an input is made before its receiver can see
/// it, so two identical readings mean nothing was made or ended between
/// them and the second is one instant of the network (Mattern's
/// four-counter termination detection). One reading is not enough: it
/// may read a sender's tally before a send and the receiver's after
/// the receipt.
fn settled(deadline: Instant, mut read: impl FnMut() -> Vec<Reading>) -> bool {
    let quiet = |r: &[Reading]| {
        r.iter()
            .all(|&(made, ended, armed)| made == ended && !armed)
    };
    let mut last = read();
    loop {
        let now = read();
        if now == last && quiet(&now) {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(POLL);
        last = now;
    }
}

/// A handle to a client hosted somewhere in the network. Commands are
/// routed to whatever broker currently hosts the client; notifications
/// arrive on the handle's delivery channel.
#[derive(Debug)]
pub struct Client {
    id: ClientId,
    hub: Arc<Hub>,
    deliveries: Receiver<PublicationMsg>,
    moves: Receiver<MoveOutcome>,
}

impl Client {
    /// The client id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    fn send_op(&self, op: ClientOp) {
        let home = self.hub.home_of(self.id).expect("client registered");
        self.hub.send(home, Input::FromClient(self.id, op));
    }

    /// Issues a subscription.
    pub fn subscribe(&self, filter: Filter) {
        self.send_op(ClientOp::Subscribe(filter));
    }

    /// Withdraws the subscription with client-local sequence `seq`
    /// (subscriptions are numbered 0, 1, ... in issue order).
    pub fn unsubscribe(&self, seq: u32) {
        self.send_op(ClientOp::Unsubscribe(seq));
    }

    /// Issues an advertisement.
    pub fn advertise(&self, filter: Filter) {
        self.send_op(ClientOp::Advertise(filter));
    }

    /// Withdraws the advertisement with client-local sequence `seq`.
    pub fn unadvertise(&self, seq: u32) {
        self.send_op(ClientOp::Unadvertise(seq));
    }

    /// Publishes a publication.
    pub fn publish(&self, content: Publication) {
        self.send_op(ClientOp::Publish(content));
    }

    /// Application-level pause: notifications buffer at the broker and
    /// commands queue until [`Client::resume`].
    pub fn pause(&self) {
        self.send_op(ClientOp::Pause);
    }

    /// Resumes from an application-level pause.
    pub fn resume(&self) {
        self.send_op(ClientOp::Resume);
    }

    /// Requests a movement and waits up to `timeout` for it to finish.
    /// Returns `true` if the movement committed (the client now runs
    /// at `target`).
    pub fn move_to(&self, target: BrokerId, protocol: ProtocolKind, timeout: Duration) -> bool {
        self.move_to_async(target, protocol);
        self.next_move_outcome(timeout)
            .is_some_and(|outcome| outcome.committed)
    }

    /// Requests a movement without waiting (the outcome arrives via
    /// [`Client::next_move_outcome`]).
    pub fn move_to_async(&self, target: BrokerId, protocol: ProtocolKind) {
        self.send_op(ClientOp::MoveTo(target, protocol));
    }

    /// Waits for the next movement outcome.
    pub fn next_move_outcome(&self, timeout: Duration) -> Option<MoveOutcome> {
        self.moves.recv_timeout(timeout).ok()
    }

    /// Receives the next notification, waiting up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<PublicationMsg> {
        self.deliveries.recv_timeout(timeout).ok()
    }

    /// Receives a notification if one is already queued.
    pub fn try_recv(&self) -> Option<PublicationMsg> {
        self.deliveries.try_recv().ok()
    }

    /// Drains all currently queued notifications.
    pub fn drain(&self) -> Vec<PublicationMsg> {
        std::iter::from_fn(|| self.try_recv()).collect()
    }
}

/// How one broker's batches reach its neighbours: the only thing the
/// two threaded runtimes do differently.
pub(crate) trait Links {
    /// Ships one coalesced batch to neighbour `to`, contents in order.
    fn ship(&mut self, to: BrokerId, msgs: Vec<Message>);

    /// One step's outputs have all been shipped: push out anything
    /// [`Links::ship`] buffered, keep the links in line with the
    /// broker's `topology` and do what falls due. Returns the link
    /// reports the broker must hear, `(peer, up)`, in order.
    fn finish_step(&mut self, _topology: &Topology) -> Vec<(BrokerId, bool)> {
        Vec::new()
    }

    /// When the loop must run a step even if no input arrives.
    fn next_wake(&self) -> Option<Instant> {
        None
    }

    /// News of a link from a thread of the TCP runtime.
    fn event(&mut self, _event: LinkEvent, _topology: &Topology) {}
}

/// The loop's [`Transport`]: one broker step's outputs go to the links,
/// the hub and the timer table.
struct Step<'a, L> {
    id: BrokerId,
    hub: &'a Hub,
    links: &'a mut L,
    timers: TimerTable<TimerToken, Instant>,
}

impl<L: Links> Step<'_, L> {
    /// Ships one step's outputs, draining `outs`, lets the links
    /// finish the step and applies their link reports (which only arm
    /// or cancel a timer), then records for the barrier whether a timer
    /// is left armed.
    fn flush(&mut self, broker: &mut MobileBroker, outs: &mut Vec<Output>) {
        flush_outputs(self, outs.drain(..));
        for (peer, up) in self.links.finish_step(broker.topology()) {
            flush_outputs(self, broker.handle_link(peer, up));
        }
        let armed = self.timers.keys().next().is_some();
        self.hub.tallies[&self.id]
            .armed
            .store(armed, Ordering::SeqCst);
    }
}

impl<L: Links> Transport for Step<'_, L> {
    fn send_batch(&mut self, to: BrokerId, msgs: Vec<Message>) {
        self.hub.made(to, msgs.len() as u64);
        self.links.ship(to, msgs);
    }

    fn deliver_batch(&mut self, client: ClientId, publications: Vec<PublicationMsg>) {
        let reg = self.hub.registry.read();
        if let Some(tx) = reg.deliveries.get(&client) {
            for p in publications {
                let _ = tx.send(p);
            }
        }
    }

    fn control(&mut self, output: Output) {
        match output {
            Output::SetTimer { token, delay_ns } => {
                self.timers
                    .arm(token, Instant::now() + Duration::from_nanos(delay_ns));
            }
            Output::CancelTimer { token } => self.timers.cancel(token),
            Output::MoveFinished {
                m,
                client,
                committed,
            } => {
                // The home registry was already flipped by the target's
                // `ClientArrived` for committed moves; here we only
                // signal the outcome to the client handle.
                let reg = self.hub.registry.read();
                if let Some(tx) = reg.move_events.get(&client) {
                    let _ = tx.send(MoveOutcome { m, committed });
                }
            }
            Output::ClientArrived { m: _, client } => {
                // Commands issued from now on route to the new home.
                self.hub.registry.write().homes.insert(client, self.id);
            }
            Output::Send { .. } | Output::DeliverToApp { .. } => {
                unreachable!("flush_outputs routes batchable effects to the batch verbs")
            }
        }
    }
}

/// Runs `broker` on the calling thread until [`Input::Shutdown`] or
/// until every sender of `rx` is gone. `initial_outs` are effects the
/// broker produced before the loop existed (timers re-armed by crash
/// recovery).
///
/// Each round: fire the due timers, wait for the next input or the
/// earlier of the next timer and the links' next wake, apply the input,
/// ship its outputs, count it ended. Every step writes its outputs
/// into one buffer that the loop keeps from step to step. One input at
/// a time and per-sender FIFO on `rx` are all the movement protocols'
/// consistency argument asks of a driver (DESIGN.md §2), which is why
/// the broker is owned, not locked.
pub(crate) fn run<L: Links>(
    mut broker: MobileBroker,
    initial_outs: Vec<Output>,
    rx: &Receiver<Input>,
    hub: &Hub,
    links: &mut L,
) {
    let id = broker.id();
    let mut step = Step {
        id,
        hub,
        links,
        timers: TimerTable::default(),
    };
    let mut outs = initial_outs;
    step.flush(&mut broker, &mut outs);
    loop {
        let now = Instant::now();
        while let Some(token) = step.timers.pop_due(now) {
            outs.extend(broker.handle_timer(token));
            step.flush(&mut broker, &mut outs);
        }
        let next_timer = step.timers.by_deadline().next().map(|(at, _)| at);
        let wake = next_timer.into_iter().chain(step.links.next_wake()).min();
        let input = match wake {
            Some(at) => match rx.recv_timeout(at.saturating_duration_since(Instant::now())) {
                Ok(input) => input,
                Err(RecvTimeoutError::Timeout) => {
                    step.flush(&mut broker, &mut outs);
                    continue;
                }
                Err(RecvTimeoutError::Disconnected) => return,
            },
            None => match rx.recv() {
                Ok(input) => input,
                Err(_) => return,
            },
        };
        let weight = input.weight();
        match input {
            Input::Shutdown => return,
            Input::CreateClient(c) => broker.create_client(c),
            Input::Inspect(f) => f(&broker),
            Input::FromClient(c, op) if broker.client(c).is_none() => {
                // The client moved away while the command was in
                // flight; forward it to the current home (the registry
                // is updated before the source cleans up, so
                // re-resolution always progresses). A client gone
                // entirely has its command dropped.
                if let Some(home) = hub.home_of(c).filter(|h| *h != id) {
                    hub.send(home, Input::FromClient(c, op));
                }
            }
            Input::FromClient(c, op) => broker.client_op_into(c, op, &mut outs),
            Input::Link(event) => step.links.event(event, broker.topology()),
            Input::FromBroker(from, msgs) => {
                broker.handle_batch_into(Hop::Broker(from), msgs, &mut outs)
            }
        }
        step.flush(&mut broker, &mut outs);
        hub.tallies[&id].ended.fetch_add(weight, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transmob_broker::{PubSubMsg, Topology};
    use transmob_core::{MobileBrokerConfig, MoveMsg};
    use transmob_pubsub::{SubId, Subscription, Value};

    fn b(i: u32) -> BrokerId {
        BrokerId(i)
    }
    fn c(i: u64) -> ClientId {
        ClientId(i)
    }
    fn range(lo: i64, hi: i64) -> Filter {
        Filter::builder().ge("x", lo).le("x", hi).build()
    }
    /// What the loop asked of its links, in order.
    #[derive(Debug, PartialEq)]
    enum Call {
        Ship(BrokerId, Vec<Message>),
        /// A finished step, with the brokers its topology held.
        FinishStep(Vec<BrokerId>),
    }

    #[derive(Default)]
    struct FakeLinks {
        calls: Vec<Call>,
        /// Link reports handed to the loop at the first finished step.
        reports: Vec<(BrokerId, bool)>,
    }

    impl Links for FakeLinks {
        fn ship(&mut self, to: BrokerId, msgs: Vec<Message>) {
            self.calls.push(Call::Ship(to, msgs));
        }
        fn finish_step(&mut self, topology: &Topology) -> Vec<(BrokerId, bool)> {
            self.calls
                .push(Call::FinishStep(topology.brokers().collect()));
            std::mem::take(&mut self.reports)
        }
    }

    impl FakeLinks {
        /// `(destination, message)` of everything shipped, in order.
        fn shipped(&self) -> Vec<(BrokerId, &Message)> {
            self.calls
                .iter()
                .filter_map(|call| match call {
                    Call::Ship(to, msgs) => Some(msgs.iter().map(move |m| (*to, m))),
                    _ => None,
                })
                .flatten()
                .collect()
        }
    }

    /// Runs broker `id` of `topology` over `inputs` followed by a
    /// `Shutdown`, on this thread, and returns what its links saw.
    fn run_inputs(
        hub: &Hub,
        rx: &Receiver<Input>,
        id: BrokerId,
        topology: Topology,
        config: MobileBrokerConfig,
        inputs: Vec<Input>,
    ) -> FakeLinks {
        run_reporting(hub, rx, id, topology, config, inputs, Vec::new())
    }

    /// [`run_inputs`], with links that hand the broker `reports` when
    /// it starts.
    fn run_reporting(
        hub: &Hub,
        rx: &Receiver<Input>,
        id: BrokerId,
        topology: Topology,
        config: MobileBrokerConfig,
        inputs: Vec<Input>,
        reports: Vec<(BrokerId, bool)>,
    ) -> FakeLinks {
        for input in inputs {
            hub.send(id, input);
        }
        hub.send(id, Input::Shutdown);
        let broker = MobileBroker::new(id, Arc::new(topology), config);
        let mut links = FakeLinks {
            reports,
            ..FakeLinks::default()
        };
        run(broker, Vec::new(), rx, hub, &mut links);
        links
    }

    #[test]
    fn inputs_apply_in_queue_order_across_brokers_and_clients() {
        let (hub, rx) = Hub::new(Topology::chain(3).brokers());
        let sub = SubId::new(c(9), 0);
        let publish =
            |x| Input::FromClient(c(1), ClientOp::Publish(Publication::new().with("x", x)));
        let from_b1 = |msg: PubSubMsg| Input::FromBroker(b(1), vec![Message::PubSub(msg)]);
        let links = run_inputs(
            &hub,
            &rx[&b(2)],
            b(2),
            Topology::chain(3),
            MobileBrokerConfig::reconfig(),
            vec![
                Input::CreateClient(c(1)),
                Input::FromClient(c(1), ClientOp::Advertise(range(0, 100))),
                publish(1), // nobody subscribed yet
                from_b1(PubSubMsg::Subscribe(Subscription::new(sub, range(0, 100)))),
                publish(2), // B1's subscription is in
                from_b1(PubSubMsg::Unsubscribe(sub)),
                publish(3), // and out again
            ],
        );
        let kinds: Vec<_> = links
            .shipped()
            .into_iter()
            .map(|(to, m)| match m {
                Message::PubSub(PubSubMsg::Advertise(_)) => (to, "adv", 0),
                Message::PubSub(PubSubMsg::Publish(p)) => match p.content.get("x") {
                    Some(Value::Int(x)) => (to, "pub", *x),
                    other => panic!("unexpected x = {other:?}"),
                },
                other => panic!("unexpected {other}"),
            })
            .collect();
        assert_eq!(
            kinds,
            vec![(b(1), "adv", 0), (b(3), "adv", 0), (b(1), "pub", 2)]
        );
    }

    #[test]
    fn command_for_a_departed_client_follows_the_registry() {
        let (hub, rx) = Hub::new(Topology::chain(3).brokers());
        let _handle = hub.create_client(b(3), c(1));
        let _gone = hub.create_client(b(2), c(2));
        let publish = |client| Input::FromClient(client, ClientOp::Publish(Publication::new()));
        // Broker 2 hosts neither: client 1 lives at broker 3 by the
        // registry, client 2's home is broker 2 itself (gone entirely).
        let links = run_inputs(
            &hub,
            &rx[&b(2)],
            b(2),
            Topology::chain(3),
            MobileBrokerConfig::reconfig(),
            vec![publish(c(1)), publish(c(2))],
        );
        assert!(links.shipped().is_empty());
        let at_b3: Vec<Input> = std::iter::from_fn(|| rx[&b(3)].try_recv().ok()).collect();
        assert!(
            matches!(
                at_b3[..],
                [
                    Input::CreateClient(ClientId(1)),
                    Input::FromClient(ClientId(1), ClientOp::Publish(_))
                ]
            ),
            "broker 3 must get client 1's command after its creation"
        );
        assert!(rx[&b(1)].try_recv().is_err());
    }

    #[test]
    fn due_timer_fires_before_the_next_input_is_taken() {
        let (hub, rx) = Hub::new(Topology::chain(2).brokers());
        let mover = hub.create_client(b(1), c(1));
        let _other = hub.create_client(b(1), c(2));
        let mut config = MobileBrokerConfig::reconfig();
        config.negotiate_timeout_ns = Some(0);
        // The negotiate timer is due as soon as the movement starts;
        // client 2's advertisement is already queued behind it.
        let links = run_inputs(
            &hub,
            &rx[&b(1)],
            b(1),
            Topology::chain(2),
            config,
            vec![
                Input::FromClient(c(1), ClientOp::MoveTo(b(2), ProtocolKind::Reconfig)),
                Input::FromClient(c(2), ClientOp::Advertise(range(0, 9))),
            ],
        );
        let order: Vec<&str> = links
            .shipped()
            .into_iter()
            .map(|(to, m)| {
                assert_eq!(to, b(2));
                match m {
                    Message::Move(mv) => match **mv {
                        MoveMsg::Negotiate { .. } => "negotiate",
                        MoveMsg::AbortMove { .. } => "abort",
                        _ => panic!("unexpected {mv}"),
                    },
                    Message::PubSub(PubSubMsg::Advertise(_)) => "adv",
                    other => panic!("unexpected {other}"),
                }
            })
            .collect();
        assert_eq!(order, ["negotiate", "abort", "adv"]);
        let outcome = mover.next_move_outcome(Duration::ZERO).expect("outcome");
        assert!(!outcome.committed);
    }

    /// The links hear of a death through the topology they are handed:
    /// once a down report outlives the deadline, the step that declares
    /// the death hands them a topology without the dead broker.
    #[test]
    fn a_link_down_past_the_deadline_is_a_death_the_links_hear_of() {
        let (hub, rx) = Hub::new(Topology::chain(3).brokers());
        let config = MobileBrokerConfig {
            suspect_after_ns: Some(0),
            ..MobileBrokerConfig::reconfig()
        };
        let links = run_reporting(
            &hub,
            &rx[&b(2)],
            b(2),
            Topology::chain(3),
            config,
            Vec::new(),
            vec![(b(3), false)],
        );
        let seen: Vec<&Vec<BrokerId>> = (links.calls.iter())
            .filter_map(|call| match call {
                Call::FinishStep(brokers) => Some(brokers),
                Call::Ship(..) => None,
            })
            .collect();
        assert_eq!(seen.first(), Some(&&vec![b(1), b(2), b(3)]));
        assert_eq!(seen.last(), Some(&&vec![b(1), b(2)]));
        let notice = Message::BrokerDeath { dead: b(3) };
        assert_eq!(links.shipped(), [(b(1), &notice)]);
    }

    #[test]
    fn shutdown_returns_after_every_earlier_batch_reached_the_links() {
        let (hub, rx) = Hub::new(Topology::chain(2).brokers());
        let death = Input::FromBroker(b(2), vec![Message::BrokerDeath { dead: b(7) }]);
        let advertise = |seq| Input::FromClient(c(1), ClientOp::Advertise(range(seq, seq)));
        let links = run_inputs(
            &hub,
            &rx[&b(1)],
            b(1),
            Topology::chain(2),
            MobileBrokerConfig::reconfig(),
            vec![Input::CreateClient(c(1)), advertise(1), advertise(2), death],
        );
        // Queued behind the Shutdown: never applied.
        hub.send(b(1), advertise(3));
        let is_ship = |call: &Call| matches!(call, Call::Ship(BrokerId(2), _));
        assert_eq!(links.calls.iter().filter(|c| is_ship(c)).count(), 2);
        // Initial step, three inputs' steps and the death notice's.
        let steps = links.calls.len() - 2;
        assert_eq!(steps, 5, "one finished step an input: {:?}", links.calls);
        for (i, call) in links.calls.iter().enumerate() {
            if is_ship(call) {
                assert!(
                    matches!(links.calls[i + 1], Call::FinishStep(_)),
                    "a shipped batch was left unflushed"
                );
            }
        }
        assert!(matches!(rx[&b(1)].try_recv(), Ok(Input::FromClient(..))));
    }

    /// The barrier over brokers whose links deliver nothing: not
    /// quiescent while an input waits in a queue, while a shipped
    /// message waits for its receiver, or while a protocol timer is
    /// armed; quiescent once each has drained.
    #[test]
    fn quiesce_waits_for_queued_shipped_and_timed_work() {
        let (hub, rx) = Hub::new(Topology::chain(2).brokers());
        let idle = Duration::from_millis(5);
        let run_b1 =
            |config, inputs| run_inputs(&hub, &rx[&b(1)], b(1), Topology::chain(2), config, inputs);
        hub.send(b(1), Input::CreateClient(c(1)));
        assert!(!hub.quiesce(idle), "an input is queued");
        run_b1(MobileBrokerConfig::reconfig(), Vec::new());
        assert!(hub.quiesce(idle));

        let advertise = Input::FromClient(c(1), ClientOp::Advertise(range(0, 9)));
        let links = run_b1(
            MobileBrokerConfig::reconfig(),
            vec![Input::CreateClient(c(1)), advertise],
        );
        assert!(!hub.quiesce(idle), "a shipped message is not yet applied");
        for (to, m) in links.shipped() {
            hub.enqueue(to, Input::FromBroker(b(1), vec![m.clone()]));
        }
        let b2 = &rx[&b(2)];
        run_inputs(
            &hub,
            b2,
            b(2),
            Topology::chain(2),
            MobileBrokerConfig::reconfig(),
            Vec::new(),
        );
        assert!(hub.quiesce(idle));

        let config = MobileBrokerConfig {
            suspect_after_ns: Some(3_600_000_000_000),
            ..MobileBrokerConfig::reconfig()
        };
        let report_b1 = |config, reports| {
            run_reporting(
                &hub,
                &rx[&b(1)],
                b(1),
                Topology::chain(2),
                config,
                Vec::new(),
                reports,
            )
        };
        report_b1(config.clone(), vec![(b(2), false)]);
        assert!(!hub.quiesce(idle), "a suspicion timer is armed");
        report_b1(config, vec![(b(2), false), (b(2), true)]);
        assert!(hub.quiesce(idle));
    }

    /// One balanced reading is not quiescence: it may have read a
    /// sender before a send and the receiver after the receipt. Only
    /// two equal balanced readings in a row are.
    #[test]
    fn quiescence_takes_two_equal_readings() {
        let balanced_then_busy = [
            vec![(1, 1, false), (0, 0, false)],
            vec![(1, 1, false), (1, 1, false)],
            vec![(1, 2, false), (2, 1, false)],
        ];
        let mut readings = balanced_then_busy.into_iter().cycle();
        assert!(!settled(Instant::now(), || readings.next().unwrap()));
        let mut readings = std::iter::repeat(vec![(3, 3, false), (1, 1, false)]);
        assert!(settled(Instant::now(), || readings.next().unwrap()));
    }
}
