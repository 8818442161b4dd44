//! Write-ahead durability for [`MobileBroker`]: the log contract the
//! broker drives and the recovery constructor that replays it.
//!
//! The paper's fault-tolerance sketch (Sec. 3.5) requires a broker's
//! **algorithmic state** — routing tables, coordinator records, hosted
//! client stubs — to survive a crash. Because a [`MobileBroker`] is a
//! pure state machine (one input maps deterministically to a list of
//! [`Output`] effects), the cheapest faithful durability scheme is
//! *command logging*: append every external input to a
//! [`DurabilityLog`] **before** applying it, checkpoint a
//! [`BrokerSnapshot`] every [`CHECKPOINT_EVERY`] records (truncating
//! the log tail the snapshot supersedes), and on recovery replay
//! `snapshot + records` with the regenerated outputs discarded. Every movement-protocol state transition and every
//! SRT/PRT mutation is a deterministic function of the input sequence,
//! so replaying the inputs reproduces them exactly.
//!
//! What command logging does *not* recover is the effects the crashed
//! broker emitted but the crash destroyed (messages still in an
//! outbound buffer, timers, undelivered application callbacks). Those
//! are compensated at the protocol layer: movement timers are re-armed
//! by [`MobileBroker::recover`] from the rebuilt coordinator records,
//! and a movement whose messages died with the crash aborts cleanly
//! when they fire. See DESIGN.md §9 for the full contract.
//!
//! Only *external* inputs are logged. Every one of them enters the
//! broker through one private function that appends it, applies it and
//! runs the checkpoint rule; recovery replays each record through the
//! same apply step ([`MobileBroker::recover_from_log`] rebuilds a
//! broker from a [`MemoryLog`] in one call). Handlers re-issue client
//! commands internally (draining a resumed stub's queued commands, for
//! example) by calling the apply step directly: those re-issues happen
//! again during replay of the outer input, so logging them too would
//! double-execute them.

use std::collections::VecDeque;
use std::fmt;
use std::io;
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};
use transmob_broker::Hop;
use transmob_pubsub::{BrokerId, ClientId};

use crate::messages::{ClientOp, Message, TimerToken};
use crate::persistence::BrokerSnapshot;
#[cfg(doc)]
use crate::{MobileBroker, Output};

/// A broker with a [`DurabilityLog`] attached checkpoints (snapshot +
/// truncate) after this many logged inputs, so replay after a crash
/// applies at most this many records plus the last input batch.
pub const CHECKPOINT_EVERY: u32 = 64;

/// Version tag carried by every [`DurabilityRecord`] (the versioned
/// envelope the ROADMAP persistence item asked for): recovery refuses
/// records written by an incompatible build instead of misreplaying
/// them.
pub const DURABILITY_FORMAT_VERSION: u32 = 2;

/// One external broker input, as logged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LoggedInput {
    /// A message from a neighbouring broker ([`MobileBroker::handle`]).
    Message {
        /// The sending hop.
        from: Hop,
        /// The message.
        msg: Message,
    },
    /// An application command ([`MobileBroker::client_op`]).
    ClientOp {
        /// The client issuing the command.
        client: ClientId,
        /// The command.
        op: ClientOp,
    },
    /// A fired protocol timer ([`MobileBroker::handle_timer`]).
    Timer {
        /// The timer token.
        token: TimerToken,
    },
    /// A fresh client attached ([`MobileBroker::create_client`]).
    CreateClient {
        /// The client.
        client: ClientId,
    },
    /// A broker-death declaration from the local failure detector
    /// ([`MobileBroker::handle_broker_death`]). Replay re-derives the
    /// overlay repair deterministically from `(topology, dead)`, so
    /// the post-repair topology does not need to be logged.
    BrokerDeath {
        /// The broker declared dead.
        dead: BrokerId,
    },
}

/// A versioned log record: one external input under the
/// [`DURABILITY_FORMAT_VERSION`] envelope.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DurabilityRecord {
    /// Format version ([`DURABILITY_FORMAT_VERSION`]).
    pub v: u32,
    /// The logged input.
    pub input: LoggedInput,
}

impl DurabilityRecord {
    /// Wraps an input under the current format version.
    pub fn new(input: LoggedInput) -> Self {
        DurabilityRecord {
            v: DURABILITY_FORMAT_VERSION,
            input,
        }
    }
}

/// The durability contract a [`MobileBroker`] drives.
///
/// `append` is called *before* the corresponding input is applied
/// (write-ahead discipline); `checkpoint` atomically replaces the
/// stored snapshot and discards the record tail it supersedes. An
/// implementation must not return `Ok` before the data is as durable
/// as it claims to be — the broker treats append failure as fail-stop.
pub trait DurabilityLog: fmt::Debug + Send {
    /// Durably appends one record.
    ///
    /// # Errors
    ///
    /// Propagates storage errors; the broker panics (fail-stop) rather
    /// than continue past a lost record.
    fn append(&mut self, record: &DurabilityRecord) -> io::Result<()>;

    /// Durably appends a batch of records, atomically with respect to
    /// crash recovery: after a crash, the log replays either a prefix
    /// of the batch or all of it, never a subsequence with holes.
    ///
    /// The records stay *individual* — recovery replays them one by
    /// one — so the default implementation is a plain append loop.
    /// Implementations with per-append sync cost (a file WAL) override
    /// this to pay one flush for the whole batch.
    ///
    /// # Errors
    ///
    /// Propagates storage errors, as [`DurabilityLog::append`].
    fn append_batch(&mut self, records: &[DurabilityRecord]) -> io::Result<()> {
        for r in records {
            self.append(r)?;
        }
        Ok(())
    }

    /// Atomically replaces the checkpoint with `snapshot` and
    /// truncates the records it supersedes.
    ///
    /// # Errors
    ///
    /// Propagates storage errors. On error the previous checkpoint and
    /// records must remain intact (a failed checkpoint is a no-op).
    fn checkpoint(&mut self, snapshot: &BrokerSnapshot) -> io::Result<()>;
}

/// An in-memory [`DurabilityLog`] (the simulator's stand-in for a
/// disk-backed log; `transmob-sim`'s `WalDurability` is the real one).
///
/// Holds the latest checkpoint and the records appended since.
#[derive(Debug, Default)]
pub struct MemoryLog {
    checkpoint: Option<BrokerSnapshot>,
    records: VecDeque<DurabilityRecord>,
}

impl MemoryLog {
    /// An empty log.
    pub fn new() -> Self {
        MemoryLog::default()
    }

    /// A shareable handle to an empty log, ready for
    /// [`MobileBroker::attach_durability`].
    pub fn shared() -> Arc<Mutex<MemoryLog>> {
        Arc::new(Mutex::new(MemoryLog::new()))
    }

    /// The stored checkpoint and the records appended since, cloned
    /// for [`MobileBroker::recover`].
    pub fn contents(&self) -> (Option<BrokerSnapshot>, Vec<DurabilityRecord>) {
        (
            self.checkpoint.clone(),
            self.records.iter().cloned().collect(),
        )
    }

    /// Moves the stored checkpoint and the records appended since out
    /// of the log, for [`MobileBroker::recover_from_log`], which
    /// re-attaches the log (a fresh checkpoint) right after: nothing is
    /// copied. `None`, with the log untouched, if it holds no
    /// checkpoint.
    pub(crate) fn take(&mut self) -> Option<(BrokerSnapshot, Vec<DurabilityRecord>)> {
        let checkpoint = self.checkpoint.take()?;
        Some((checkpoint, std::mem::take(&mut self.records).into()))
    }

    /// Number of records since the last checkpoint.
    pub fn records_len(&self) -> usize {
        self.records.len()
    }

    /// Whether a checkpoint has been stored.
    pub fn has_checkpoint(&self) -> bool {
        self.checkpoint.is_some()
    }
}

impl DurabilityLog for MemoryLog {
    fn append(&mut self, record: &DurabilityRecord) -> io::Result<()> {
        self.records.push_back(record.clone());
        Ok(())
    }

    fn checkpoint(&mut self, snapshot: &BrokerSnapshot) -> io::Result<()> {
        self.checkpoint = Some(snapshot.clone());
        self.records.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{ClientOp, Output, ProtocolKind};
    use crate::mobile_broker::{MobileBroker, MobileBrokerConfig};
    use crate::states::ClientState;
    use std::sync::Arc;
    use transmob_broker::Topology;
    use transmob_pubsub::{BrokerId, Filter, Publication};

    fn c(i: u64) -> ClientId {
        ClientId(i)
    }

    #[test]
    fn record_envelope_round_trips_with_version() {
        let rec = DurabilityRecord::new(LoggedInput::CreateClient { client: c(7) });
        assert_eq!(rec.v, DURABILITY_FORMAT_VERSION);
        let json = serde_json::to_string(&rec).unwrap();
        let back: DurabilityRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn broker_logs_external_inputs_but_not_internal_replays() {
        let topo = Arc::new(Topology::chain(3));
        let mut b = MobileBroker::new(
            BrokerId(1),
            Arc::clone(&topo),
            MobileBrokerConfig::reconfig(),
        );
        let log = MemoryLog::shared();
        b.attach_durability(log.clone()).unwrap();
        b.create_client(c(1));
        let _ = b.client_op(
            c(1),
            ClientOp::Subscribe(Filter::builder().ge("x", 0).build()),
        );
        // Queue a command behind a pause, then resume: the resume
        // drains the queue through an *internal* client_op call which
        // must not be logged separately.
        let _ = b.client_op(c(1), ClientOp::Pause);
        let _ = b.client_op(c(1), ClientOp::Publish(Publication::new().with("x", 1)));
        let _ = b.client_op(c(1), ClientOp::Resume);
        let (_, records) = log.lock().unwrap().contents();
        assert_eq!(records.len(), 5, "one record per external input");
        assert!(records.iter().all(|r| r.v == DURABILITY_FORMAT_VERSION));
    }

    #[test]
    fn recovery_replays_to_identical_state() {
        let topo = Arc::new(Topology::chain(3));
        let mut b = MobileBroker::new(
            BrokerId(1),
            Arc::clone(&topo),
            MobileBrokerConfig::reconfig(),
        );
        let log = MemoryLog::shared();
        b.attach_durability(log.clone()).unwrap();
        b.create_client(c(1));
        let _ = b.client_op(
            c(1),
            ClientOp::Subscribe(Filter::builder().ge("x", 0).build()),
        );
        let _ = b.client_op(
            c(1),
            ClientOp::Advertise(Filter::builder().le("x", 9).build()),
        );

        let (snap, records) = log.lock().unwrap().contents();
        let (recovered, timers) = MobileBroker::recover(
            Arc::clone(&topo),
            MobileBrokerConfig::reconfig(),
            snap.expect("attach writes a checkpoint"),
            records,
        );
        assert!(timers.is_empty(), "no movement in flight");
        assert_eq!(recovered.id(), b.id());
        assert_eq!(recovered.core().prt().len(), b.core().prt().len());
        assert_eq!(recovered.core().srt().len(), b.core().srt().len());
        assert_eq!(
            recovered.client(c(1)).unwrap().profile(),
            b.client(c(1)).unwrap().profile()
        );
    }

    #[test]
    fn recovery_rearms_the_negotiate_timer_of_an_inflight_move() {
        let topo = Arc::new(Topology::chain(3));
        let mut b = MobileBroker::new(
            BrokerId(1),
            Arc::clone(&topo),
            MobileBrokerConfig::reconfig(),
        );
        let log = MemoryLog::shared();
        b.attach_durability(log.clone()).unwrap();
        b.create_client(c(1));
        // Start a movement; the source coordinator parks in Wait.
        let _ = b.client_op(c(1), ClientOp::MoveTo(BrokerId(3), ProtocolKind::Reconfig));

        let (snap, records) = log.lock().unwrap().contents();
        let (recovered, timers) = MobileBroker::recover(
            Arc::clone(&topo),
            MobileBrokerConfig::reconfig(),
            snap.unwrap(),
            records,
        );
        assert_eq!(
            recovered.client(c(1)).unwrap().state(),
            ClientState::PauseMove,
            "mid-move client state survives recovery"
        );
        assert_eq!(timers.len(), 1, "negotiate timer re-armed: {timers:?}");
        assert!(matches!(
            timers[0],
            Output::SetTimer {
                token: TimerToken::Negotiate(_),
                ..
            }
        ));
    }

    #[test]
    fn a_fired_suspicion_replays_to_the_same_repaired_topology() {
        let topo = Arc::new(Topology::chain(4));
        let config = MobileBrokerConfig {
            suspect_after_ns: Some(50_000_000),
            ..MobileBrokerConfig::reconfig()
        };
        let mut b = MobileBroker::new(BrokerId(2), Arc::clone(&topo), config.clone());
        let log = MemoryLog::shared();
        b.attach_durability(log.clone()).unwrap();
        let armed = b.handle_link(BrokerId(3), false);
        assert!(matches!(armed[..], [Output::SetTimer { .. }]));
        let _ = b.handle_timer(TimerToken::Suspect(BrokerId(3)));
        assert!(!b.topology().contains(BrokerId(3)));

        let (snap, records) = log.lock().unwrap().contents();
        let inputs: Vec<_> = records.iter().map(|r| &r.input).collect();
        assert_eq!(
            inputs,
            [&LoggedInput::Timer {
                token: TimerToken::Suspect(BrokerId(3))
            }],
            "the report is not logged, the fired timer is"
        );
        let (recovered, _) = MobileBroker::recover(topo, config, snap.unwrap(), records);
        assert_eq!(recovered.topology(), b.topology());
        assert_eq!(recovered.core().neighbors(), b.core().neighbors());
    }

    #[test]
    fn periodic_checkpoint_truncates_the_log() {
        let topo = Arc::new(Topology::chain(3));
        let config = MobileBrokerConfig::reconfig();
        let mut b = MobileBroker::new(BrokerId(1), Arc::clone(&topo), config.clone());
        let log = MemoryLog::shared();
        b.attach_durability(log.clone()).unwrap();
        b.create_client(c(1));
        for k in 0..CHECKPOINT_EVERY + 5 {
            let _ = b.client_op(
                c(1),
                ClientOp::Publish(Publication::new().with("x", i64::from(k))),
            );
        }
        // CHECKPOINT_EVERY + 6 inputs: one checkpoint, a short tail.
        let guard = log.lock().unwrap();
        assert!(guard.has_checkpoint());
        assert_eq!(guard.records_len(), 6, "log not truncated");
        drop(guard);
        // And the checkpoint+tail still recovers the full state.
        let (snap, records) = log.lock().unwrap().contents();
        let (recovered, _) =
            MobileBroker::recover(Arc::clone(&topo), config, snap.unwrap(), records);
        assert_eq!(recovered.core().srt().len(), b.core().srt().len());
    }

    #[test]
    #[should_panic(expected = "version")]
    fn recovery_rejects_foreign_record_version() {
        let topo = Arc::new(Topology::chain(3));
        let b = MobileBroker::new(
            BrokerId(1),
            Arc::clone(&topo),
            MobileBrokerConfig::reconfig(),
        );
        let snap = b.snapshot();
        let bad = DurabilityRecord {
            v: DURABILITY_FORMAT_VERSION + 1,
            input: LoggedInput::CreateClient { client: c(1) },
        };
        let _ = MobileBroker::recover(topo, MobileBrokerConfig::reconfig(), snap, vec![bad]);
    }
}
