//! Facade crate for the transactional-mobility pub/sub workspace.
//!
//! Re-exports every layer under one roof so the examples (and
//! downstream users) can write `transmob::broker::...` instead of
//! depending on each `transmob-*` crate individually.
//!
//! * [`pubsub`] — content-based data model: values, predicates,
//!   filters, publications, and the counting match index.
//! * [`broker`] — routing tables (SRT/PRT), the broker core, covering
//!   optimizations, and the synchronous test network.
//! * [`core`] — the movement transaction: coordinator protocol,
//!   mobile-client stub, property oracles.
//! * [`sim`] — discrete-event simulator, metrics and the schedule
//!   explorer.
//! * [`workloads`] — paper-style workload generators.
//! * [`runtime`] — threaded/TCP runtimes driving real brokers.
//! * [`bench`](mod@bench) — shared benchmark harness helpers.

pub use transmob_bench as bench;
pub use transmob_broker as broker;
pub use transmob_core as core;
pub use transmob_pubsub as pubsub;
pub use transmob_runtime as runtime;
pub use transmob_sim as sim;
pub use transmob_workloads as workloads;
