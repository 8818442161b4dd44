//! Wire messages of the pub/sub routing layer and the outputs a broker
//! state machine produces.

use std::fmt;

use serde::{Deserialize, Serialize};
use transmob_pubsub::{
    AdvId, Advertisement, BrokerId, ClientId, PublicationMsg, SubId, Subscription,
};

/// Where a message came from / where a routing-table entry points.
///
/// `lasthop` fields in the routing tables are `Hop`s: a neighbouring
/// broker, or a client attached to this broker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Hop {
    /// A neighbouring broker.
    Broker(BrokerId),
    /// A locally attached client.
    Client(ClientId),
}

impl Hop {
    /// The broker id, if this hop is a broker.
    pub fn as_broker(self) -> Option<BrokerId> {
        match self {
            Hop::Broker(b) => Some(b),
            Hop::Client(_) => None,
        }
    }

    /// The client id, if this hop is a client.
    pub fn as_client(self) -> Option<ClientId> {
        match self {
            Hop::Client(c) => Some(c),
            Hop::Broker(_) => None,
        }
    }
}

impl fmt::Display for Hop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Hop::Broker(b) => write!(f, "{b}"),
            Hop::Client(c) => write!(f, "{c}"),
        }
    }
}

impl From<BrokerId> for Hop {
    fn from(b: BrokerId) -> Self {
        Hop::Broker(b)
    }
}

impl From<ClientId> for Hop {
    fn from(c: ClientId) -> Self {
        Hop::Client(c)
    }
}

/// A routing-layer message exchanged between brokers (and between a
/// client and its access broker).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PubSubMsg {
    /// Announce intent to publish matching publications.
    Advertise(Advertisement),
    /// Withdraw an advertisement.
    Unadvertise(AdvId),
    /// Register interest.
    Subscribe(Subscription),
    /// Withdraw a subscription.
    Unsubscribe(SubId),
    /// A publication travelling toward interested subscribers.
    Publish(PublicationMsg),
    /// An advertisement re-propagated across a new overlay edge during
    /// repair after a broker death. Semantically an [`PubSubMsg::Advertise`]
    /// (idempotent insert-or-adopt-lasthop), tagged separately so repair
    /// traffic is identifiable end-to-end in metrics and traces.
    RepairAdv(Advertisement),
    /// A subscription re-propagated during repair (pulled toward a
    /// [`PubSubMsg::RepairAdv`]); semantically a [`PubSubMsg::Subscribe`].
    RepairSub(Subscription),
}

impl PubSubMsg {
    /// Coarse message kind, for metrics.
    pub fn kind(&self) -> MsgKind {
        match self {
            PubSubMsg::Advertise(_) => MsgKind::Advertise,
            PubSubMsg::Unadvertise(_) => MsgKind::Unadvertise,
            PubSubMsg::Subscribe(_) => MsgKind::Subscribe,
            PubSubMsg::Unsubscribe(_) => MsgKind::Unsubscribe,
            PubSubMsg::Publish(_) => MsgKind::Publish,
            PubSubMsg::RepairAdv(_) => MsgKind::RepairAdv,
            PubSubMsg::RepairSub(_) => MsgKind::RepairSub,
        }
    }
}

impl fmt::Display for PubSubMsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PubSubMsg::Advertise(a) => write!(f, "adv {a}"),
            PubSubMsg::Unadvertise(id) => write!(f, "unadv {id}"),
            PubSubMsg::Subscribe(s) => write!(f, "sub {s}"),
            PubSubMsg::Unsubscribe(id) => write!(f, "unsub {id}"),
            PubSubMsg::Publish(p) => write!(f, "pub {p}"),
            PubSubMsg::RepairAdv(a) => write!(f, "repair-adv {a}"),
            PubSubMsg::RepairSub(s) => write!(f, "repair-sub {s}"),
        }
    }
}

/// Coarse kind of a routing-layer message, used as a metrics key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum MsgKind {
    /// Advertisement.
    Advertise,
    /// Unadvertisement.
    Unadvertise,
    /// Subscription.
    Subscribe,
    /// Unsubscription.
    Unsubscribe,
    /// Publication.
    Publish,
    /// Movement-protocol control message (tagged by higher layers).
    MoveCtl,
    /// Advertisement re-propagated during overlay repair.
    RepairAdv,
    /// Subscription re-propagated during overlay repair.
    RepairSub,
}

impl MsgKind {
    /// Every kind, in order: `ALL[k as usize] == k`, so a counter per
    /// kind can be an array.
    pub const ALL: [MsgKind; 8] = [
        MsgKind::Advertise,
        MsgKind::Unadvertise,
        MsgKind::Subscribe,
        MsgKind::Unsubscribe,
        MsgKind::Publish,
        MsgKind::MoveCtl,
        MsgKind::RepairAdv,
        MsgKind::RepairSub,
    ];
}

impl fmt::Display for MsgKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MsgKind::Advertise => "advertise",
            MsgKind::Unadvertise => "unadvertise",
            MsgKind::Subscribe => "subscribe",
            MsgKind::Unsubscribe => "unsubscribe",
            MsgKind::Publish => "publish",
            MsgKind::MoveCtl => "move-ctl",
            MsgKind::RepairAdv => "repair-adv",
            MsgKind::RepairSub => "repair-sub",
        };
        f.write_str(s)
    }
}

/// Effects produced by [`crate::BrokerCore`] in response to one input
/// message. The hosting driver (simulator or threaded runtime) turns
/// these into real sends and deliveries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BrokerOutput {
    /// Send a routing-layer message to a neighbouring broker.
    ToBroker(BrokerId, PubSubMsg),
    /// Deliver a publication to a locally attached client.
    Deliver(ClientId, PublicationMsg),
}

/// Where a [`crate::BrokerCore`] step writes its effects, in emission
/// order. Every effectful rule of the core ([`crate::BrokerCore::handle_into`],
/// [`crate::BrokerCore::commit_move`], [`crate::BrokerCore::abort_move`],
/// [`crate::BrokerCore::pull_subs_toward`],
/// [`crate::BrokerCore::repair_neighbors`], …) takes the caller's sink
/// and returns only what is not an effect. A `Vec<BrokerOutput>`
/// collects them; a host that turns them into effects of its own
/// passes a sink that converts each one as it is emitted, so an effect
/// is built once, where it ends up.
pub trait Effects {
    /// Takes the next effect.
    fn emit(&mut self, effect: BrokerOutput);
}

impl Effects for Vec<BrokerOutput> {
    fn emit(&mut self, effect: BrokerOutput) {
        self.push(effect);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transmob_pubsub::Filter;

    #[test]
    fn hop_conversions() {
        let h: Hop = BrokerId(2).into();
        assert_eq!(h.as_broker(), Some(BrokerId(2)));
        assert_eq!(h.as_client(), None);
        let c: Hop = ClientId(7).into();
        assert_eq!(c.as_client(), Some(ClientId(7)));
        assert_eq!(c.to_string(), "C7");
    }

    #[test]
    fn every_kind_sits_at_its_own_index_in_order() {
        for (i, kind) in MsgKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i);
        }
        assert!(MsgKind::ALL.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn msg_kinds() {
        let s = Subscription::new(
            SubId::new(ClientId(1), 0),
            Filter::builder().any("x").build(),
        );
        assert_eq!(PubSubMsg::Subscribe(s).kind(), MsgKind::Subscribe);
        assert_eq!(
            PubSubMsg::Unsubscribe(SubId::new(ClientId(1), 0)).kind(),
            MsgKind::Unsubscribe
        );
    }

    #[test]
    fn hops_order_deterministically() {
        let mut hops = vec![
            Hop::Client(ClientId(1)),
            Hop::Broker(BrokerId(5)),
            Hop::Broker(BrokerId(1)),
        ];
        hops.sort();
        assert_eq!(
            hops,
            vec![
                Hop::Broker(BrokerId(1)),
                Hop::Broker(BrokerId(5)),
                Hop::Client(ClientId(1)),
            ]
        );
    }
}
