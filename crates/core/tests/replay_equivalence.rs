//! A broker rebuilt from its durability log is the live broker: after
//! any sequence of external inputs, [`MobileBroker::recover_from_log`]
//! yields a broker whose serialized snapshot equals the live one's.
//!
//! The inputs reach B2 of `chain(3)` as a driver would deliver them:
//! client commands (pause, commands queued behind it, resume, moves in
//! both protocols), pub/sub traffic from both neighbours (alone and in
//! batches), answers to the moves it starts, moves arriving for it,
//! protocol timers and a neighbour's death. Queued commands drain
//! through the handlers' internal re-issue, which replay must run
//! exactly once, and the sequences are long enough to cross
//! [`CHECKPOINT_EVERY`].
//!
//! The case count honours `CHAOS_CASES` (default 64).

use std::sync::Arc;

use proptest::prelude::*;
use transmob_broker::{Hop, PubSubMsg, Topology};
use transmob_core::{
    ClientOp, ClientProfile, ClientSnapshot, MemoryLog, Message, MobileBroker, MobileBrokerConfig,
    MoveMsg, Output, ProtocolKind, SourceCoordState, TimerToken, CHECKPOINT_EVERY,
};
use transmob_pubsub::{
    AdvId, Advertisement, BrokerId, ClientId, Filter, MoveId, PubId, Publication, PublicationMsg,
    SubId, Subscription,
};

const ME: BrokerId = BrokerId(2);

fn cases() -> u32 {
    std::env::var("CHAOS_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64)
}

fn band(lo: i64) -> Filter {
    Filter::builder().ge("x", lo).le("x", lo + 10).build()
}

fn neighbour(b1: bool) -> BrokerId {
    if b1 {
        BrokerId(1)
    } else {
        BrokerId(3)
    }
}

fn protocol(covering: bool) -> ProtocolKind {
    if covering {
        ProtocolKind::Covering
    } else {
        ProtocolKind::Reconfig
    }
}

#[derive(Debug, Clone)]
enum Cmd {
    Subscribe(i64),
    Unsubscribe(u32),
    Advertise(i64),
    Publish(i64),
    Pause,
    Resume,
    MoveTo { to_b1: bool, covering: bool },
}

#[derive(Debug, Clone)]
enum Step {
    /// Creates a local client.
    Create,
    /// A command of the `pick`-th hosted client.
    Op(usize, Cmd),
    /// An advertisement, subscription or publication from a neighbour.
    Remote { b1: bool, kind: u8, x: i64 },
    /// A batch of publications and one subscription from a neighbour.
    Batch { b1: bool, xs: Vec<i64> },
    /// A reply to, or the timer of, a movement this broker started.
    Answer { pick: usize, how: u8 },
    /// A movement of a new client, subscribed to `band(k)`, from B1 to
    /// here.
    Arrive { k: u64, covering: bool },
    /// The state transfer, or the state timer, of an arrived movement.
    Transfer {
        pick: usize,
        queued: bool,
        timeout: bool,
    },
    /// A neighbour declared dead.
    Death(bool),
}

/// One step, drawn with weights: client commands most often, a
/// neighbour's death rarely (after both deaths B2 stands alone).
fn step() -> impl Strategy<Value = Step> {
    let draws = (
        0u8..69,
        0usize..8,
        0i64..50,
        any::<bool>(),
        any::<bool>(),
        0u8..7,
    );
    draws.prop_map(|(roll, pick, x, p, q, k)| match roll {
        0..=3 => Step::Create,
        4..=27 => Step::Op(
            pick,
            match k {
                0 => Cmd::Subscribe(x),
                1 => Cmd::Unsubscribe(pick as u32 % 4),
                2 => Cmd::Advertise(x),
                3 => Cmd::Publish(x),
                4 => Cmd::Pause,
                5 => Cmd::Resume,
                _ => Cmd::MoveTo {
                    to_b1: p,
                    covering: q,
                },
            },
        ),
        28..=39 => Step::Remote {
            b1: p,
            kind: k % 3,
            x,
        },
        40..=43 => Step::Batch {
            b1: p,
            xs: [x, x / 2, x + 3][..=usize::from(k % 3)].to_vec(),
        },
        44..=55 => Step::Answer { pick, how: k % 5 },
        56..=59 => Step::Arrive {
            k: u64::from(k),
            covering: p,
        },
        60..=67 => Step::Transfer {
            pick,
            queued: p,
            timeout: q,
        },
        _ => Step::Death(p),
    })
}

/// A movement seen from this broker: id, client, the other end.
#[derive(Debug, Clone)]
struct Move {
    m: MoveId,
    client: ClientId,
    peer: BrokerId,
    protocol: ProtocolKind,
    profile: ClientProfile,
}

/// The live broker, its log, and what the driver remembers of the
/// movements in play.
struct Driver {
    live: MobileBroker,
    log: Arc<std::sync::Mutex<MemoryLog>>,
    outgoing: Vec<Move>,
    incoming: Vec<Move>,
    next_id: u64,
}

impl Driver {
    fn new() -> Self {
        let mut live = MobileBroker::new(
            ME,
            Arc::new(Topology::chain(3)),
            MobileBrokerConfig::reconfig(),
        );
        let log = MemoryLog::shared();
        live.attach_durability(log.clone()).unwrap();
        Driver {
            live,
            log,
            outgoing: Vec::new(),
            incoming: Vec::new(),
            next_id: 0,
        }
    }

    fn fresh(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// A client id never used before (a client id names one client
    /// for good, wherever it moves).
    fn fresh_client(&mut self) -> ClientId {
        ClientId(1000 + self.fresh())
    }

    /// Remembers the movements this broker starts.
    fn note(&mut self, outs: Vec<Output>) {
        for o in outs {
            let Output::Send {
                msg: Message::Move(mv),
                ..
            } = o
            else {
                continue;
            };
            let (m, client, target, protocol, profile) = match *mv {
                MoveMsg::Negotiate {
                    m,
                    client,
                    source: ME,
                    target,
                    profile,
                    ..
                } => (m, client, target, ProtocolKind::Reconfig, profile),
                MoveMsg::CovRequest {
                    m,
                    client,
                    source: ME,
                    target,
                } => (
                    m,
                    client,
                    target,
                    ProtocolKind::Covering,
                    Default::default(),
                ),
                _ => continue,
            };
            self.outgoing.push(Move {
                m,
                client,
                peer: target,
                protocol,
                profile,
            });
        }
    }

    /// A movement message from neighbour `peer`, unless it is dead.
    fn receive(&mut self, peer: BrokerId, mv: MoveMsg) {
        if !self.live.topology().contains(peer) {
            return;
        }
        let outs = self.live.handle(Hop::Broker(peer), mv.into());
        self.note(outs);
    }

    fn run(&mut self, step: Step) {
        match step {
            Step::Create => {
                let id = self.fresh_client();
                self.live.create_client(id);
            }
            Step::Op(pick, cmd) => {
                let hosted: Vec<ClientId> = self.live.clients().map(|(id, _)| *id).collect();
                if hosted.is_empty() {
                    return;
                }
                let client = hosted[pick % hosted.len()];
                let op = match cmd {
                    Cmd::Subscribe(lo) => ClientOp::Subscribe(band(lo)),
                    Cmd::Unsubscribe(seq) => ClientOp::Unsubscribe(seq),
                    Cmd::Advertise(lo) => ClientOp::Advertise(band(lo)),
                    Cmd::Publish(x) => ClientOp::Publish(Publication::new().with("x", x)),
                    Cmd::Pause => ClientOp::Pause,
                    Cmd::Resume => ClientOp::Resume,
                    Cmd::MoveTo { to_b1, covering } => {
                        ClientOp::MoveTo(neighbour(to_b1), protocol(covering))
                    }
                };
                let outs = self.live.client_op(client, op);
                self.note(outs);
            }
            Step::Remote { b1, kind, x } => {
                let from = neighbour(b1);
                if !self.live.topology().contains(from) {
                    return;
                }
                let remote = ClientId(50 + u64::from(from.0));
                let seq = self.fresh() as u32;
                let msg = match kind {
                    0 => PubSubMsg::Advertise(Advertisement::new(AdvId::new(remote, seq), band(x))),
                    1 => PubSubMsg::Subscribe(Subscription::new(SubId::new(remote, seq), band(x))),
                    _ => PubSubMsg::Publish(self.publication(remote, x)),
                };
                let outs = self.live.handle(Hop::Broker(from), Message::PubSub(msg));
                self.note(outs);
            }
            Step::Batch { b1, xs } => {
                let from = neighbour(b1);
                if !self.live.topology().contains(from) {
                    return;
                }
                let remote = ClientId(50 + u64::from(from.0));
                let mut msgs: Vec<Message> = (xs.iter())
                    .map(|&x| Message::PubSub(PubSubMsg::Publish(self.publication(remote, x))))
                    .collect();
                let seq = self.fresh() as u32;
                let sub = Subscription::new(SubId::new(remote, seq), band(xs[0]));
                msgs.insert(msgs.len() / 2, Message::PubSub(PubSubMsg::Subscribe(sub)));
                let outs = self.live.handle_batch(Hop::Broker(from), msgs);
                self.note(outs);
            }
            Step::Answer { pick, how } => {
                if self.outgoing.is_empty() {
                    return;
                }
                let mv = self.outgoing[pick % self.outgoing.len()].clone();
                let (m, source, target) = (mv.m, ME, mv.peer);
                let covering = mv.protocol == ProtocolKind::Covering;
                // What the target may send in the source's state: a
                // stale answer after the movement finished is fine.
                let reply = match (how, self.live.source_state(m)) {
                    (3, _) => {
                        let outs = self.live.handle_timer(TimerToken::Negotiate(m));
                        self.note(outs);
                        return;
                    }
                    (4, _) => MoveMsg::AbortMove {
                        m,
                        client: mv.client,
                        source,
                        target,
                        toward: source,
                    },
                    (0, Some(SourceCoordState::Wait)) => MoveMsg::Reject { m, source, target },
                    (_, Some(SourceCoordState::Prepare)) if covering => {
                        MoveMsg::CovDone { m, source, target }
                    }
                    (_, Some(SourceCoordState::Prepare)) => MoveMsg::Ack { m, source, target },
                    _ if covering => MoveMsg::CovAccept { m, source, target },
                    _ => MoveMsg::Reconfigure {
                        m,
                        client: mv.client,
                        source,
                        target,
                        profile: mv.profile,
                    },
                };
                self.receive(target, reply);
            }
            Step::Arrive { k, covering } => {
                let m = MoveId((1 << 32) | self.fresh());
                let client = self.fresh_client();
                let source = BrokerId(1);
                let profile = ClientProfile {
                    subs: vec![Subscription::new(SubId::new(client, 0), band(k as i64))],
                    advs: Vec::new(),
                };
                let request = if covering {
                    MoveMsg::CovRequest {
                        m,
                        client,
                        source,
                        target: ME,
                    }
                } else {
                    MoveMsg::Negotiate {
                        m,
                        client,
                        source,
                        target: ME,
                        profile: profile.clone(),
                        protocol: ProtocolKind::Reconfig,
                    }
                };
                self.incoming.push(Move {
                    m,
                    client,
                    peer: source,
                    protocol: protocol(covering),
                    profile,
                });
                self.receive(source, request);
            }
            Step::Transfer {
                pick,
                queued,
                timeout,
            } => {
                if self.incoming.is_empty() {
                    return;
                }
                let mv = self.incoming[pick % self.incoming.len()].clone();
                if timeout {
                    let outs = self.live.handle_timer(TimerToken::State(mv.m));
                    self.note(outs);
                    return;
                }
                let x = self.fresh() as i64 % 50;
                let snapshot = ClientSnapshot {
                    buffered: vec![self.publication(ClientId(51), x)],
                    queued_ops: match queued {
                        true => vec![
                            ClientOp::Publish(Publication::new().with("x", x)),
                            ClientOp::Subscribe(band(x)),
                        ],
                        false => Vec::new(),
                    },
                    next_seq: (1, 0, 0),
                    ..ClientSnapshot::default()
                };
                let (m, client, source) = (mv.m, mv.client, mv.peer);
                let transfer = match mv.protocol {
                    ProtocolKind::Covering => MoveMsg::CovTransfer {
                        m,
                        client,
                        source,
                        target: ME,
                        profile: mv.profile,
                        snapshot,
                    },
                    ProtocolKind::Reconfig => MoveMsg::StateTransfer {
                        m,
                        client,
                        source,
                        target: ME,
                        snapshot,
                    },
                };
                self.receive(source, transfer);
            }
            Step::Death(b1) => {
                let outs = self.live.handle_broker_death(neighbour(b1));
                self.note(outs);
            }
        }
    }

    fn publication(&mut self, publisher: ClientId, x: i64) -> PublicationMsg {
        let id = PubId(self.fresh());
        PublicationMsg::new(id, publisher, Publication::new().with("x", x))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn a_broker_rebuilt_from_its_log_equals_the_live_one(
        steps in proptest::collection::vec(step(), 40..(3 * CHECKPOINT_EVERY as usize)),
    ) {
        let mut driver = Driver::new();
        for s in steps {
            driver.run(s);
        }
        let live = serde_json::to_string(&driver.live.snapshot()).unwrap();
        let (rebuilt, _) = MobileBroker::recover_from_log(
            Arc::new(Topology::chain(3)),
            driver.live.config().clone(),
            Arc::clone(&driver.log),
        )
        .unwrap();
        let rebuilt = serde_json::to_string(&rebuilt.snapshot()).unwrap();
        prop_assert_eq!(rebuilt, live);
    }
}

#[test]
fn a_log_without_a_checkpoint_is_refused() {
    let err = MobileBroker::recover_from_log(
        Arc::new(Topology::chain(3)),
        MobileBrokerConfig::reconfig(),
        MemoryLog::shared(),
    )
    .unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}
