//! # transmob-sim
//!
//! The discrete-event simulation testbed of the transmob reproduction
//! of *"Transactional Mobility in Distributed Content-Based
//! Publish/Subscribe Systems"* (ICDCS 2009).
//!
//! The paper evaluates its protocols on a 14-machine cluster and on
//! PlanetLab; this crate substitutes a deterministic, seedable
//! discrete-event simulator that preserves the mechanisms behind the
//! paper's results: brokers and links are FIFO servers, so message
//! bursts (the covering protocol's cascades) congest queues and delay
//! the movement-protocol messages riding the same links — exactly the
//! effect the measured movement latencies reflect. See `DESIGN.md` for
//! the substitution argument.
//!
//! - [`Sim`] — the driver: events, virtual clock, FIFO queueing,
//!   timers, crash/restart injection, movement plans. Timers wait in
//!   the `TimerTable` the threaded loop also uses, not in the event
//!   queue: one that is cancelled is never an event, and a run to
//!   quiescence ends at the last thing that happened.
//! - [`NetworkModel`] — performance models with
//!   [`NetworkModel::cluster`] and [`NetworkModel::planetlab`] presets.
//! - [`Metrics`] — the paper's metrics: network traffic (with
//!   per-movement causal attribution), movement duration, movement
//!   throughput.
//!
//! # Examples
//!
//! Move a subscriber across a 5-broker chain without losing or
//! duplicating notifications. Under [`NetworkModel::instant`] nothing
//! takes time and each command is issued by hand and run until the
//! network is quiet (the protocol tests' way of driving the
//! simulator; the experiments schedule commands on the virtual clock
//! under [`NetworkModel::cluster`] instead):
//!
//! ```
//! use transmob_broker::Topology;
//! use transmob_core::{ClientOp, MobileBrokerConfig, ProtocolKind};
//! use transmob_pubsub::{BrokerId, ClientId, Filter, Publication};
//! use transmob_sim::{NetworkModel, Sim};
//!
//! let mut net = Sim::builder()
//!     .overlay(Topology::chain(5))
//!     .options(MobileBrokerConfig::reconfig())
//!     .network(NetworkModel::instant())
//!     .start();
//! net.enable_delivery_log();
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
//! assert_eq!(net.metrics.deliveries_to(subscriber).len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod durable;
pub mod fault;
pub mod metrics;
pub mod network;
pub mod sim;
pub mod time;
pub mod wal;

pub use durable::WalDurability;
pub use fault::{CrashKind, FaultPlan, LinkFaults, Partition, ScheduledCrash, ScheduledDeath};
pub use metrics::{DeliveryRecord, Metrics, MoveRecord};
pub use network::{LinkModel, NetworkModel, NodeModel};
pub use sim::{MovementPlan, Sim, SimBuilder};
pub use time::{SimDuration, SimTime};
pub use wal::{SyncPolicy, Wal};
