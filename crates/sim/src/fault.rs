//! Deterministic fault injection for [`crate::Sim`].
//!
//! A [`FaultPlan`] describes, per seed, everything that goes wrong in
//! a run:
//!
//! - **Crashes** ([`ScheduledCrash`]): a broker dies at a virtual time
//!   and restarts later. [`CrashKind::Warm`] is the paper's
//!   persisted-everything fault model — algorithmic state, queue state
//!   and timers all survive, mail is merely delayed.
//!   [`CrashKind::StateLoss`] is the real-world one: the in-memory
//!   broker and its timers are destroyed, and the replacement is
//!   rebuilt from its durability log (checkpoint + WAL replay via
//!   `MobileBroker::recover`). Queue state still follows the paper's
//!   persistent-queue assumption: messages addressed to the dead
//!   broker wait and are redelivered after recovery.
//! - **Deaths** ([`ScheduledDeath`]): a broker dies *permanently*
//!   (overlay churn). Nothing of it survives — mail addressed to it is
//!   dropped — and the overlay self-repairs around the hole: surviving
//!   link peers detect the death and run
//!   `MobileBroker::handle_broker_death`, which repairs the topology,
//!   rebuilds affected routing state and resolves in-flight movements
//!   that crossed the victim.
//! - **Partitions** ([`Partition`]): a link is down for a window.
//!   Consistent with persistent queues (and with the TCP runtime's
//!   reconnect-and-retransmit links), partitioned traffic is *delayed
//!   until the heal*, never dropped.
//! - **Link faults** ([`LinkFaults`]): per-message drop and
//!   duplication probabilities, for runs that deliberately leave the
//!   paper's reliable-channel assumption. Under drops only the safety
//!   half of the ACI properties (single instance, exactly-once) is
//!   guaranteed; see DESIGN.md §9.
//!
//! All of it is driven by a dedicated RNG seeded from
//! [`FaultPlan::seed`], so a plan perturbs nothing in the simulation's
//! own randomness and two runs with the same plan and seed are
//! identical.

use transmob_pubsub::BrokerId;

use crate::time::SimTime;

/// What a crash destroys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashKind {
    /// Everything persists (the paper's Sec. 3.5 idealization); the
    /// broker resumes exactly where it stopped.
    Warm,
    /// The in-memory broker and its timers are lost; recovery rebuilds
    /// it from the attached durability log
    /// ([`crate::Sim::enable_durability`] must be on).
    StateLoss,
}

/// One scheduled broker crash.
#[derive(Debug, Clone, Copy)]
pub struct ScheduledCrash {
    /// When the broker dies.
    pub at: SimTime,
    /// The victim.
    pub broker: BrokerId,
    /// When it comes back.
    pub restart_at: SimTime,
    /// What the crash destroys.
    pub kind: CrashKind,
}

/// One scheduled permanent broker death (overlay churn). Unlike a
/// [`ScheduledCrash`] the broker never comes back: its queue and state
/// are gone, messages addressed to it are dropped, and the surviving
/// neighbors detect the death and run the overlay self-repair
/// ([`transmob_core::MobileBroker::handle_broker_death`]).
#[derive(Debug, Clone, Copy)]
pub struct ScheduledDeath {
    /// When the broker dies.
    pub at: SimTime,
    /// The victim.
    pub broker: BrokerId,
}

/// A link outage window: traffic between `a` and `b` (both
/// directions) sent during `[from, until)` is delayed until `until`.
#[derive(Debug, Clone, Copy)]
pub struct Partition {
    /// One endpoint.
    pub a: BrokerId,
    /// The other endpoint.
    pub b: BrokerId,
    /// Outage start.
    pub from: SimTime,
    /// Heal time.
    pub until: SimTime,
}

impl Partition {
    /// Whether this partition holds traffic between `x` and `y` at
    /// time `t`.
    pub fn covers(&self, x: BrokerId, y: BrokerId, t: SimTime) -> bool {
        let same_link = (self.a == x && self.b == y) || (self.a == y && self.b == x);
        same_link && self.from <= t && t < self.until
    }
}

/// Per-message link fault probabilities.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkFaults {
    /// Probability a message is silently dropped.
    pub drop_prob: f64,
    /// Probability a message is delivered twice.
    pub dup_prob: f64,
}

impl LinkFaults {
    /// No link faults (reliable channels, the paper's assumption).
    pub fn none() -> Self {
        LinkFaults::default()
    }
}

/// A complete, seed-deterministic fault schedule for one run.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Seed of the dedicated fault RNG (drop/dup decisions).
    pub seed: u64,
    /// Broker crashes.
    pub crashes: Vec<ScheduledCrash>,
    /// Permanent broker deaths (overlay churn; self-repair kicks in).
    pub deaths: Vec<ScheduledDeath>,
    /// Link outage windows.
    pub partitions: Vec<Partition>,
    /// Per-message link faults.
    pub link: LinkFaults,
}

impl FaultPlan {
    /// An empty plan (nothing goes wrong).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Whether any scheduled crash is a [`CrashKind::StateLoss`]
    /// (which requires durability to be enabled on the sim).
    pub fn needs_durability(&self) -> bool {
        self.crashes.iter().any(|c| c.kind == CrashKind::StateLoss)
    }
}
