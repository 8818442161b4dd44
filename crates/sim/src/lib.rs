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
//!   timers, crash/restart injection, movement plans.
//! - [`NetworkModel`] — performance models with
//!   [`NetworkModel::cluster`] and [`NetworkModel::planetlab`] presets.
//! - [`Metrics`] — the paper's metrics: network traffic (with
//!   per-movement causal attribution), movement duration, movement
//!   throughput.

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
