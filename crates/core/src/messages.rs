//! Wire messages of the movement protocols and the effect vocabulary
//! of a [`crate::MobileBroker`].
//!
//! The movement protocol adds a second message family next to the
//! routing layer's [`PubSubMsg`]: [`MoveMsg`]. Two kinds of movement
//! message exist:
//!
//! - **routed** messages (`Negotiate`, `Reject`, `Ack`, and the
//!   covering-protocol messages) travel between the source and target
//!   brokers; intermediate brokers forward them without acting;
//! - **hop-by-hop** messages (`Reconfigure`, `StateTransfer`,
//!   `AbortMove`) are *processed at every broker on the path* — they
//!   are the paper's reconfiguration message (message (2) of Fig. 3)
//!   and the hop-by-hop commit/abort passes of Sec. 4.4.

use std::fmt;

use serde::{Deserialize, Serialize};
use transmob_broker::PubSubMsg;
use transmob_pubsub::{
    Advertisement, BrokerId, ClientId, Filter, MoveId, Publication, PublicationMsg, Subscription,
};

use crate::client_stub::SeenWindow;

/// Which movement protocol a transaction uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ProtocolKind {
    /// The paper's contribution: 3PC conversation plus hop-by-hop
    /// routing reconfiguration along the source–target path.
    #[default]
    Reconfig,
    /// The traditional end-to-end protocol: unadvertise/unsubscribe at
    /// the source, reissue at the target, relying on the covering
    /// optimization for efficiency.
    Covering,
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolKind::Reconfig => f.write_str("reconfig"),
            ProtocolKind::Covering => f.write_str("covering"),
        }
    }
}

/// The pub/sub profile of a client: everything the routing layer knows
/// about it. Carried by `Negotiate`/`Reconfigure` so the target and
/// path brokers can reconstruct the client's routing configuration.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ClientProfile {
    /// Active subscriptions.
    pub subs: Vec<Subscription>,
    /// Active advertisements.
    pub advs: Vec<Advertisement>,
}

impl ClientProfile {
    /// Whether the profile is empty.
    pub fn is_empty(&self) -> bool {
        self.subs.is_empty() && self.advs.is_empty()
    }
}

/// The transferable execution state of a client: the payload of the
/// paper's message (4).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ClientSnapshot {
    /// Notifications buffered at the source while the client was
    /// paused; merged (and de-duplicated by publication id) with the
    /// queue at the target.
    pub buffered: Vec<PublicationMsg>,
    /// Publication ids already surfaced to the application (exactly-
    /// once dedup state): the source's window, shared, not copied.
    pub seen: SeenWindow,
    /// Application commands queued while the client was moving; they
    /// are executed at the target after the client starts.
    pub queued_ops: Vec<ClientOp>,
    /// Next client-local sequence numbers (sub, adv, pub), so ids
    /// remain unique across moves.
    pub next_seq: (u32, u32, u32),
}

/// An application-level command a client can issue through its stub.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ClientOp {
    /// Issue a subscription with this filter.
    Subscribe(Filter),
    /// Withdraw the subscription with this client-local sequence
    /// number.
    Unsubscribe(u32),
    /// Issue an advertisement with this filter.
    Advertise(Filter),
    /// Withdraw the advertisement with this client-local sequence
    /// number.
    Unadvertise(u32),
    /// Publish this content.
    Publish(Publication),
    /// Application-level pause (the paper's `pause_oper` state):
    /// notifications buffer and commands queue until [`ClientOp::Resume`].
    Pause,
    /// Resume from an application-level pause; buffered notifications
    /// surface and queued commands execute.
    Resume,
    /// Move to another broker using the given protocol.
    MoveTo(BrokerId, ProtocolKind),
}

/// A movement-protocol message.
///
/// All variants carry the movement id plus the source and target
/// broker so intermediate brokers can route or walk them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MoveMsg {
    /// (1) Source → target: request to move `client`, with its pub/sub
    /// profile. Routed.
    Negotiate {
        /// Movement transaction id.
        m: MoveId,
        /// The moving client.
        client: ClientId,
        /// Source broker.
        source: BrokerId,
        /// Target broker.
        target: BrokerId,
        /// The client's routing profile.
        profile: ClientProfile,
        /// Which protocol drives this movement.
        protocol: ProtocolKind,
    },
    /// (3) Target → source: the target refuses the client. Routed.
    Reject {
        /// Movement transaction id.
        m: MoveId,
        /// Source broker (the destination of this message).
        source: BrokerId,
        /// Target broker.
        target: BrokerId,
    },
    /// (2) Target → source: the approval that doubles as the
    /// reconfiguration message, **processed at every broker on the
    /// path**: each installs the pending (shadow) routing
    /// configuration for the client's subscriptions/advertisements and
    /// performs the Sec. 4.4 PRT fix-ups.
    Reconfigure {
        /// Movement transaction id.
        m: MoveId,
        /// The moving client.
        client: ClientId,
        /// Source broker.
        source: BrokerId,
        /// Target broker.
        target: BrokerId,
        /// The client's routing profile.
        profile: ClientProfile,
    },
    /// (4) Source → target: the client state, **processed at every
    /// broker on the path** as the hop-by-hop commit pass (the old
    /// routing configuration is deleted).
    StateTransfer {
        /// Movement transaction id.
        m: MoveId,
        /// The moving client.
        client: ClientId,
        /// Source broker.
        source: BrokerId,
        /// Target broker.
        target: BrokerId,
        /// The client execution state.
        snapshot: ClientSnapshot,
    },
    /// (5) Target → source: movement committed; the source cleans up.
    /// Routed.
    Ack {
        /// Movement transaction id.
        m: MoveId,
        /// Source broker (the destination of this message).
        source: BrokerId,
        /// Target broker.
        target: BrokerId,
    },
    /// Abort pass, **processed at every broker on the path** in the
    /// direction `toward`: pending configurations are rolled back and
    /// reconfiguration fix-ups retracted.
    AbortMove {
        /// Movement transaction id.
        m: MoveId,
        /// The moving client.
        client: ClientId,
        /// Source broker.
        source: BrokerId,
        /// Target broker.
        target: BrokerId,
        /// The broker this abort pass is walking toward.
        toward: BrokerId,
    },
    /// Covering protocol: source → target request. Routed.
    CovRequest {
        /// Movement transaction id.
        m: MoveId,
        /// The moving client.
        client: ClientId,
        /// Source broker.
        source: BrokerId,
        /// Target broker.
        target: BrokerId,
    },
    /// Covering protocol: target → source acceptance. Routed.
    CovAccept {
        /// Movement transaction id.
        m: MoveId,
        /// Source broker (the destination of this message).
        source: BrokerId,
        /// Target broker.
        target: BrokerId,
    },
    /// Covering protocol: source → target profile + state transfer
    /// (after the source unsubscribed/unadvertised everything).
    /// Routed.
    CovTransfer {
        /// Movement transaction id.
        m: MoveId,
        /// The moving client.
        client: ClientId,
        /// Source broker.
        source: BrokerId,
        /// Target broker.
        target: BrokerId,
        /// The client's routing profile, reissued at the target.
        profile: ClientProfile,
        /// The client execution state.
        snapshot: ClientSnapshot,
    },
    /// Covering protocol: target → source completion. Routed.
    CovDone {
        /// Movement transaction id.
        m: MoveId,
        /// Source broker (the destination of this message).
        source: BrokerId,
        /// Target broker.
        target: BrokerId,
    },
}

impl MoveMsg {
    /// The movement id the message belongs to.
    pub fn move_id(&self) -> MoveId {
        match self {
            MoveMsg::Negotiate { m, .. }
            | MoveMsg::Reject { m, .. }
            | MoveMsg::Reconfigure { m, .. }
            | MoveMsg::StateTransfer { m, .. }
            | MoveMsg::Ack { m, .. }
            | MoveMsg::AbortMove { m, .. }
            | MoveMsg::CovRequest { m, .. }
            | MoveMsg::CovAccept { m, .. }
            | MoveMsg::CovTransfer { m, .. }
            | MoveMsg::CovDone { m, .. } => *m,
        }
    }

    /// The broker this message is ultimately travelling to.
    pub fn destination(&self) -> BrokerId {
        match self {
            MoveMsg::Negotiate { target, .. }
            | MoveMsg::CovRequest { target, .. }
            | MoveMsg::CovTransfer { target, .. }
            | MoveMsg::StateTransfer { target, .. } => *target,
            MoveMsg::Reject { source, .. }
            | MoveMsg::Ack { source, .. }
            | MoveMsg::CovAccept { source, .. }
            | MoveMsg::CovDone { source, .. }
            | MoveMsg::Reconfigure { source, .. } => *source,
            MoveMsg::AbortMove { toward, .. } => *toward,
        }
    }

    /// Whether the message is processed at every broker on the path
    /// (rather than only at its destination).
    pub fn is_hop_by_hop(&self) -> bool {
        matches!(
            self,
            MoveMsg::Reconfigure { .. } | MoveMsg::StateTransfer { .. } | MoveMsg::AbortMove { .. }
        )
    }

    /// The message's name in the protocol conversation (`"negotiate"`,
    /// `"state"`, …).
    pub fn name(&self) -> &'static str {
        match self {
            MoveMsg::Negotiate { .. } => "negotiate",
            MoveMsg::Reject { .. } => "reject",
            MoveMsg::Reconfigure { .. } => "reconfigure",
            MoveMsg::StateTransfer { .. } => "state",
            MoveMsg::Ack { .. } => "ack",
            MoveMsg::AbortMove { .. } => "abort",
            MoveMsg::CovRequest { .. } => "cov-request",
            MoveMsg::CovAccept { .. } => "cov-accept",
            MoveMsg::CovTransfer { .. } => "cov-transfer",
            MoveMsg::CovDone { .. } => "cov-done",
        }
    }
}

impl fmt::Display for MoveMsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.name(), self.move_id())
    }
}

/// The unified message type a [`crate::MobileBroker`] exchanges with
/// its peers: routing-layer traffic plus movement control.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Message {
    /// Routing-layer message.
    PubSub(PubSubMsg),
    /// Movement-protocol message, boxed: its profile and snapshot
    /// would otherwise make every message, and every [`Output`], as
    /// large as the largest movement body. A forwarded movement message
    /// keeps its box across the hop.
    Move(Box<MoveMsg>),
    /// Overlay-repair notice: `dead` has been declared permanently
    /// failed. Flooded over every surviving link; each receiver
    /// repairs its topology copy deterministically and re-floods, so
    /// processing is idempotent (a receiver that already repaired does
    /// nothing, which terminates the flood).
    BrokerDeath {
        /// The broker declared dead.
        dead: BrokerId,
    },
}

impl Message {
    /// Coarse kind for metrics.
    pub fn kind(&self) -> transmob_broker::MsgKind {
        match self {
            Message::PubSub(p) => p.kind(),
            Message::Move(_) | Message::BrokerDeath { .. } => transmob_broker::MsgKind::MoveCtl,
        }
    }

    /// The movement this message is charged to (the paper's
    /// per-movement message metric): a movement message belongs to its
    /// own transaction, anything else to `inherited`, the cause of the
    /// message that produced it.
    pub fn effective_cause(&self, inherited: Option<MoveId>) -> Option<MoveId> {
        match self {
            Message::Move(mv) => Some(mv.move_id()),
            Message::PubSub(_) | Message::BrokerDeath { .. } => inherited,
        }
    }
}

impl From<PubSubMsg> for Message {
    fn from(m: PubSubMsg) -> Self {
        Message::PubSub(m)
    }
}

impl From<MoveMsg> for Message {
    fn from(m: MoveMsg) -> Self {
        Message::Move(Box::new(m))
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Message::PubSub(p) => write!(f, "{p}"),
            Message::Move(m) => write!(f, "{m}"),
            Message::BrokerDeath { dead } => write!(f, "broker-death({dead})"),
        }
    }
}

/// A timer a [`crate::MobileBroker`] asks its driver to arm: a
/// movement's protocol timeout, or the suspicion of one neighbour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TimerToken {
    /// Source of the movement, in `Wait`: no `approve`/`reject` arrived
    /// in time.
    Negotiate(MoveId),
    /// Target of the movement, in `Prepare`: no `state` arrived in time.
    State(MoveId),
    /// The link to this neighbour has stayed down for
    /// [`crate::MobileBrokerConfig::suspect_after_ns`]: the neighbour is
    /// declared dead ([`crate::MobileBroker::handle_link`]).
    Suspect(BrokerId),
}

impl TimerToken {
    /// The movement the timer guards; `None` for a suspicion, which
    /// names a broker.
    pub fn move_id(self) -> Option<MoveId> {
        match self {
            TimerToken::Negotiate(m) | TimerToken::State(m) => Some(m),
            TimerToken::Suspect(_) => None,
        }
    }
}

/// Effects produced by a [`crate::MobileBroker`]. The driver (the
/// discrete-event simulator or the threaded runtime) interprets them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Output {
    /// Send a message to a neighbouring broker.
    Send {
        /// Destination neighbour.
        to: BrokerId,
        /// The message.
        msg: Message,
    },
    /// Surface a notification to the application layer of a hosted
    /// client (already de-duplicated).
    DeliverToApp {
        /// The client.
        client: ClientId,
        /// The notification.
        publication: PublicationMsg,
    },
    /// Arm a timer; the driver calls
    /// [`crate::MobileBroker::handle_timer`] when it fires.
    SetTimer {
        /// The token to fire with.
        token: TimerToken,
        /// Delay in nanoseconds of driver time.
        delay_ns: u64,
    },
    /// Disarm a timer (firing it afterwards is tolerated).
    CancelTimer {
        /// The token.
        token: TimerToken,
    },
    /// A movement transaction finished from the *source* perspective.
    MoveFinished {
        /// Movement id.
        m: MoveId,
        /// The client that moved (or stayed).
        client: ClientId,
        /// `true` if the client now runs at the target; `false` if the
        /// movement aborted and the client resumed at the source.
        committed: bool,
    },
    /// The moving client started at the *target* broker.
    ClientArrived {
        /// Movement id.
        m: MoveId,
        /// The client.
        client: ClientId,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn move_msg_destination_and_hop_kind() {
        let m = MoveId(1);
        let nego = MoveMsg::Negotiate {
            m,
            client: ClientId(1),
            source: BrokerId(1),
            target: BrokerId(5),
            profile: ClientProfile::default(),
            protocol: ProtocolKind::Reconfig,
        };
        assert_eq!(nego.destination(), BrokerId(5));
        assert!(!nego.is_hop_by_hop());
        let rec = MoveMsg::Reconfigure {
            m,
            client: ClientId(1),
            source: BrokerId(1),
            target: BrokerId(5),
            profile: ClientProfile::default(),
        };
        assert_eq!(rec.destination(), BrokerId(1));
        assert!(rec.is_hop_by_hop());
        assert_eq!(rec.move_id(), m);
    }

    #[test]
    fn message_kind_tags_move_ctl() {
        let msg: Message = MoveMsg::Ack {
            m: MoveId(2),
            source: BrokerId(1),
            target: BrokerId(2),
        }
        .into();
        assert_eq!(msg.kind(), transmob_broker::MsgKind::MoveCtl);
    }

    /// Every effect of a broker step is moved at least once, so the
    /// size of the two enums is paid per effect: a new fat variant
    /// belongs in a box.
    #[test]
    fn messages_and_outputs_stay_small() {
        assert!(std::mem::size_of::<Message>() <= 48);
        assert!(std::mem::size_of::<Output>() <= 56);
    }

    #[test]
    fn display_is_compact() {
        let msg = MoveMsg::Ack {
            m: MoveId(2),
            source: BrokerId(1),
            target: BrokerId(2),
        };
        assert_eq!(msg.to_string(), "ack(M2)");
    }
}
