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
//! - executable **transaction properties** used as test oracles
//!   ([`properties`], the paper's Sec. 3).
//!
//! The paper's Fig. 5 global state graph is regenerated from these
//! brokers, not from a model of them: `transmob_sim::explore` runs
//! every schedule of a movement on the simulator and projects each
//! reached state onto the coordinator labels of Fig. 4
//! ([`MobileBroker::source_state`], [`MobileBroker::target_state`]).
//!
//! The brokers are sans-IO: a driver hands each one its inputs and
//! ships its [`Output`]s. The virtual-time driver (timed runs, and the
//! hand-stepped protocol tests of this crate's state machines) is
//! `transmob_sim::Sim`, whose crate docs carry the worked example; the
//! threaded ones are in `transmob-runtime`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client_stub;
pub mod durability;
pub mod messages;
pub mod mobile_broker;
pub mod persistence;
pub mod properties;
pub mod states;
pub mod transport;
pub mod wire;

pub use client_stub::{DeliverOutcome, HostedClient, SeenWindow, SEEN_WINDOW_CAP};
pub use durability::{
    DurabilityLog, DurabilityRecord, LoggedInput, MemoryLog, CHECKPOINT_EVERY,
    DURABILITY_FORMAT_VERSION,
};
pub use messages::{
    ClientOp, ClientProfile, ClientSnapshot, Message, MoveMsg, Output, ProtocolKind, TimerToken,
};
pub use mobile_broker::{MobileBroker, MobileBrokerConfig};
pub use persistence::BrokerSnapshot;
pub use properties::NetworkView;
pub use states::{ClientState, SourceCoordState, TargetCoordState};
pub use transport::{flush_outputs, TimerTable, Transport};
