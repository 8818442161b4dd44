//! # transmob-core
//!
//! The paper's contribution: **transactional client mobility** for
//! distributed content-based publish/subscribe, from *"Transactional
//! Mobility in Distributed Content-Based Publish/Subscribe Systems"*
//! (ICDCS 2009).
//!
//! This crate implements, on top of the `transmob-broker` routing
//! substrate:
//!
//! - the client/coordinator **state machines** of the movement
//!   transaction ([`states`], the paper's Fig. 4);
//! - the **reconfiguration movement protocol**: the 3PC-style
//!   conversation of Fig. 3 whose approval message walks the
//!   source–target path hop-by-hop installing shadow routing
//!   configurations, and whose state transfer doubles as the
//!   hop-by-hop commit pass (Sec. 4.2/4.4) — see [`MobileBroker`];
//! - the **traditional covering protocol** baseline (end-to-end
//!   unsubscribe/resubscribe);
//! - an exhaustive **model checker** regenerating the paper's Fig. 5
//!   global state graph and verifying its two safety claims
//!   ([`modelcheck`]);
//! - executable **transaction properties** used as test oracles
//!   ([`properties`], the paper's Sec. 3);
//! - a deterministic instant-network driver ([`InstantNet`]) for
//!   protocol tests and failure injection.
//!
//! # Examples
//!
//! Move a subscriber across a 5-broker chain without losing or
//! duplicating notifications:
//!
//! ```
//! use transmob_core::{ClientOp, InstantNet, MobileBrokerConfig, NetEvent, ProtocolKind};
//! use transmob_broker::Topology;
//! use transmob_pubsub::{BrokerId, ClientId, Filter, Publication};
//!
//! let mut net = InstantNet::builder().overlay(Topology::chain(5)).options(MobileBrokerConfig::reconfig()).start();
//! let publisher = ClientId(1);
//! let subscriber = ClientId(2);
//! net.create_client(BrokerId(1), publisher);
//! net.create_client(BrokerId(5), subscriber);
//! net.client_op(publisher, ClientOp::Advertise(Filter::builder().ge("x", 0).build()));
//! net.client_op(subscriber, ClientOp::Subscribe(Filter::builder().ge("x", 0).build()));
//! net.client_op(publisher, ClientOp::Publish(Publication::new().with("x", 1)));
//! net.client_op(subscriber, ClientOp::MoveTo(BrokerId(2), ProtocolKind::Reconfig));
//! net.client_op(publisher, ClientOp::Publish(Publication::new().with("x", 2)));
//! assert_eq!(net.find_client(subscriber), Some(BrokerId(2)));
//! assert_eq!(net.deliveries_to(subscriber).len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client_stub;
pub mod durability;
pub mod instant_net;
pub mod messages;
pub mod mobile_broker;
pub mod modelcheck;
pub mod persistence;
pub mod properties;
pub mod states;
pub mod transport;
pub mod wire;

pub use client_stub::{DeliverOutcome, HostedClient, SEEN_WINDOW_CAP};
pub use durability::{
    DurabilityLog, DurabilityRecord, LoggedInput, MemoryLog, DURABILITY_FORMAT_VERSION,
};
pub use instant_net::{ArmedTimer, InstantNet, InstantNetBuilder, NetEvent};
pub use messages::{
    ClientOp, ClientProfile, ClientSnapshot, Message, MoveMsg, Output, ProtocolKind, TimerKind,
    TimerToken,
};
pub use mobile_broker::{MobileBroker, MobileBrokerConfig};
pub use persistence::BrokerSnapshot;
pub use properties::NetworkView;
pub use states::{ClientState, SourceCoordState, TargetCoordState};
pub use transport::{flush_outputs, Transport};
