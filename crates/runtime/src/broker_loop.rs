//! What a threaded broker is, once: the input queue, the client-facing
//! registry and handle, and the single-threaded loop that owns one
//! [`MobileBroker`] by value and its [`TimerTable`]. The channel runtime
//! ([`crate::Network`]) and the TCP runtime ([`crate::tcp::TcpNetwork`])
//! both run [`run`]; what differs between them — how a batch reaches a
//! neighbour — sits behind [`Links`].

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::RwLock;
use transmob_broker::Hop;
use transmob_core::transport::{flush_outputs, TimerTable, Transport};
use transmob_core::{ClientOp, Message, MobileBroker, Output, ProtocolKind, TimerToken};
use transmob_pubsub::{BrokerId, ClientId, Filter, MoveId, Publication, PublicationMsg};

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
    FromClient(ClientId, ClientOp),
    CreateClient(ClientId),
    Shutdown,
}

#[derive(Debug, Default)]
struct Registry {
    homes: BTreeMap<ClientId, BrokerId>,
    deliveries: BTreeMap<ClientId, Sender<PublicationMsg>>,
    move_events: BTreeMap<ClientId, Sender<MoveOutcome>>,
}

/// The client-facing side of a running network, shared by its handle,
/// its clients and its broker loops: where each client lives, where its
/// notifications and movement outcomes go, and each broker's input
/// queue.
#[derive(Debug)]
pub(crate) struct Hub {
    registry: RwLock<Registry>,
    /// Locked because TCP's kill/restart swaps a broker's queue.
    inputs: RwLock<BTreeMap<BrokerId, Sender<Input>>>,
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
            inputs: RwLock::new(inputs),
        };
        (Arc::new(hub), receivers)
    }

    /// Queues `input` at `broker`. A send to a broker whose loop has
    /// ended is dropped, like a frame to a dead process.
    ///
    /// # Panics
    ///
    /// Panics if `broker` is not in the overlay.
    pub(crate) fn send(&self, broker: BrokerId, input: Input) {
        let _ = self.inputs.read()[&broker].send(input);
    }

    /// A clone of `broker`'s current input sender.
    pub(crate) fn sender(&self, broker: BrokerId) -> Sender<Input> {
        self.inputs.read()[&broker].clone()
    }

    /// Gives `broker` a fresh input queue, shutting down the loop that
    /// drains the old one (whose undelivered inputs die with it).
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

    /// One input's outputs have all been shipped: push out anything
    /// [`Links::ship`] buffered.
    fn finish_step(&mut self) {}

    /// Periodic link upkeep, called before each wait. Returns when the
    /// loop must wake for the next round even if no input arrives.
    fn tick(&mut self) -> Option<Instant> {
        None
    }

    /// A death notice for `dead` arrived from a neighbour.
    fn note_death(&mut self, _dead: BrokerId) {}
}

/// The loop's [`Transport`]: one broker step's outputs go to the links,
/// the hub and the timer table.
struct Step<'a, L> {
    id: BrokerId,
    hub: &'a Hub,
    links: L,
    timers: TimerTable<TimerToken, Instant>,
}

impl<L: Links> Step<'_, L> {
    fn flush(&mut self, outs: Vec<Output>) {
        flush_outputs(self, outs);
        self.links.finish_step();
    }
}

impl<L: Links> Transport for Step<'_, L> {
    fn send_batch(&mut self, to: BrokerId, msgs: Vec<Message>) {
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
/// Each round: fire the due timers, let the links tick, wait for the
/// next input or the earlier of the two deadlines, apply the input,
/// ship its outputs. One input at a time and per-sender FIFO on `rx`
/// are all the movement protocols' consistency argument asks of a
/// driver (DESIGN.md §2), which is why the broker is owned, not locked.
pub(crate) fn run<L: Links>(
    mut broker: MobileBroker,
    initial_outs: Vec<Output>,
    rx: &Receiver<Input>,
    hub: &Hub,
    links: L,
) {
    let id = broker.id();
    let mut step = Step {
        id,
        hub,
        links,
        timers: TimerTable::default(),
    };
    step.flush(initial_outs);
    loop {
        let now = Instant::now();
        while let Some(token) = step.timers.pop_due(now) {
            let outs = broker.handle_timer(token);
            step.flush(outs);
        }
        let next_timer = step.timers.by_deadline().next().map(|(at, _)| at);
        let wake = next_timer.into_iter().chain(step.links.tick()).min();
        let input = match wake {
            Some(at) => match rx.recv_timeout(at.saturating_duration_since(Instant::now())) {
                Ok(input) => input,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return,
            },
            None => match rx.recv() {
                Ok(input) => input,
                Err(_) => return,
            },
        };
        let outs = match input {
            Input::Shutdown => return,
            Input::CreateClient(c) => {
                broker.create_client(c);
                continue;
            }
            Input::FromClient(c, op) => {
                if broker.client(c).is_none() {
                    // The client moved away while the command was in
                    // flight; forward it to the current home (the
                    // registry is updated before the source cleans up,
                    // so re-resolution always progresses). A client
                    // gone entirely has its command dropped.
                    if let Some(home) = hub.home_of(c).filter(|h| *h != id) {
                        hub.send(home, Input::FromClient(c, op));
                    }
                    continue;
                }
                broker.client_op(c, op)
            }
            Input::FromBroker(from, msgs) => {
                for m in &msgs {
                    if let Message::BrokerDeath { dead } = m {
                        step.links.note_death(*dead);
                    }
                }
                broker.handle_batch(Hop::Broker(from), msgs)
            }
        };
        step.flush(outs);
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
        FinishStep,
        Death(BrokerId),
    }

    #[derive(Default)]
    struct FakeLinks {
        calls: Vec<Call>,
    }

    impl Links for &mut FakeLinks {
        fn ship(&mut self, to: BrokerId, msgs: Vec<Message>) {
            self.calls.push(Call::Ship(to, msgs));
        }
        fn finish_step(&mut self) {
            self.calls.push(Call::FinishStep);
        }
        fn note_death(&mut self, dead: BrokerId) {
            self.calls.push(Call::Death(dead));
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
        for input in inputs {
            hub.send(id, input);
        }
        hub.send(id, Input::Shutdown);
        let broker = MobileBroker::new(id, Arc::new(topology), config);
        let mut links = FakeLinks::default();
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
                    Message::Move(MoveMsg::Negotiate { .. }) => "negotiate",
                    Message::Move(MoveMsg::AbortMove { .. }) => "abort",
                    Message::PubSub(PubSubMsg::Advertise(_)) => "adv",
                    other => panic!("unexpected {other}"),
                }
            })
            .collect();
        assert_eq!(order, ["negotiate", "abort", "adv"]);
        let outcome = mover.next_move_outcome(Duration::ZERO).expect("outcome");
        assert!(!outcome.committed);
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
        assert!(links.calls.contains(&Call::Death(b(7))));
        for (i, call) in links.calls.iter().enumerate() {
            if is_ship(call) {
                assert_eq!(
                    links.calls[i + 1],
                    Call::FinishStep,
                    "a shipped batch was left unflushed"
                );
            }
        }
        assert!(matches!(rx[&b(1)].try_recv(), Ok(Input::FromClient(..))));
    }
}
