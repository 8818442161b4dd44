//! Disk-backed [`DurabilityLog`]: a [`Wal`] for the record tail plus
//! an atomically-replaced snapshot file for the checkpoint.
//!
//! This is the storage a real deployment hangs under
//! `MobileBroker::attach_durability`: appends go to
//! `broker-<id>.wal` (fsynced by default, see
//! [`crate::wal::SyncPolicy`]); a checkpoint writes
//! `broker-<id>.snapshot.json` via write-to-temp + rename (atomic on
//! POSIX) and only then truncates the WAL, so a crash at any point
//! leaves either the old checkpoint with its full tail or the new one
//! with an empty tail. Both files carry the core crate's
//! [`DURABILITY_FORMAT_VERSION`] envelope; [`WalDurability::load`]
//! refuses foreign versions.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};
use transmob_core::persistence::BrokerSnapshot;
use transmob_core::{DurabilityLog, DurabilityRecord, DURABILITY_FORMAT_VERSION};
use transmob_pubsub::BrokerId;

use crate::wal::{SyncPolicy, Wal};

/// The checkpoint file's versioned envelope.
#[derive(Debug, Serialize, Deserialize)]
struct CheckpointEnvelope {
    v: u32,
    snapshot: BrokerSnapshot,
}

/// A disk-backed durability log for one broker: WAL + snapshot file.
#[derive(Debug)]
pub struct WalDurability {
    wal: Wal,
    snap_path: PathBuf,
}

impl WalDurability {
    /// Opens (creating if absent) the log pair for `broker` under
    /// `dir`, fsyncing every append.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating `dir` or opening the WAL.
    pub fn open(dir: impl AsRef<Path>, broker: BrokerId) -> io::Result<WalDurability> {
        WalDurability::open_with(dir, broker, SyncPolicy::Data)
    }

    /// Opens the log pair with an explicit WAL sync policy.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating `dir` or opening the WAL.
    pub fn open_with(
        dir: impl AsRef<Path>,
        broker: BrokerId,
        sync: SyncPolicy,
    ) -> io::Result<WalDurability> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let wal = Wal::open_with(dir.join(format!("broker-{}.wal", broker.0)), sync)?;
        let snap_path = dir.join(format!("broker-{}.snapshot.json", broker.0));
        Ok(WalDurability { wal, snap_path })
    }

    /// Loads the stored checkpoint (if any) and the record tail, for
    /// `MobileBroker::recover`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors, mid-log corruption, and version
    /// mismatches in either file.
    pub fn load(&self) -> io::Result<(Option<BrokerSnapshot>, Vec<DurabilityRecord>)> {
        let snapshot = match fs::read_to_string(&self.snap_path) {
            Ok(text) => {
                let env: CheckpointEnvelope = serde_json::from_str(&text)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                if env.v != DURABILITY_FORMAT_VERSION {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "checkpoint version {} (want {DURABILITY_FORMAT_VERSION})",
                            env.v
                        ),
                    ));
                }
                Some(env.snapshot)
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };
        let records: Vec<DurabilityRecord> = self.wal.replay()?;
        if let Some(bad) = records.iter().find(|r| r.v != DURABILITY_FORMAT_VERSION) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "record version {} (want {DURABILITY_FORMAT_VERSION})",
                    bad.v
                ),
            ));
        }
        Ok((snapshot, records))
    }
}

impl DurabilityLog for WalDurability {
    fn append(&mut self, record: &DurabilityRecord) -> io::Result<()> {
        self.wal.append(record)
    }

    fn append_batch(&mut self, records: &[DurabilityRecord]) -> io::Result<()> {
        // One write + one fsync for the whole input batch (the trait's
        // default would sync per record). Recovery still replays the
        // records one by one; a crash mid-batch persists a prefix.
        self.wal.append_batch(records)
    }

    fn checkpoint(&mut self, snapshot: &BrokerSnapshot) -> io::Result<()> {
        let env = CheckpointEnvelope {
            v: DURABILITY_FORMAT_VERSION,
            snapshot: snapshot.clone(),
        };
        let text = serde_json::to_string(&env)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let tmp = self.snap_path.with_extension("json.tmp");
        fs::write(&tmp, text)?;
        fs::rename(&tmp, &self.snap_path)?;
        // Only after the snapshot is in place may the tail go.
        self.wal.truncate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};
    use transmob_broker::Topology;
    use transmob_core::{ClientOp, MobileBroker, MobileBrokerConfig};
    use transmob_pubsub::{ClientId, Filter};

    fn temp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("transmob-durable-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        p
    }

    #[test]
    fn kill_and_recover_round_trip_via_disk() {
        let dir = temp_dir("roundtrip");
        let topo = Arc::new(Topology::chain(3));
        let profile_before;
        {
            let mut b = MobileBroker::new(
                BrokerId(2),
                Arc::clone(&topo),
                MobileBrokerConfig::reconfig(),
            );
            let log: Arc<Mutex<dyn DurabilityLog>> =
                Arc::new(Mutex::new(WalDurability::open(&dir, BrokerId(2)).unwrap()));
            b.attach_durability(log).unwrap();
            b.create_client(ClientId(1));
            let _ = b.client_op(
                ClientId(1),
                ClientOp::Subscribe(Filter::builder().ge("x", 0).build()),
            );
            profile_before = b.client(ClientId(1)).unwrap().profile();
            // Dropped here without a final checkpoint: the state-loss
            // "kill". Only the checkpoint + WAL survive.
        }
        let store = WalDurability::open(&dir, BrokerId(2)).unwrap();
        let (snap, records) = store.load().unwrap();
        assert_eq!(records.len(), 2, "create + subscribe logged");
        let (recovered, timers) = MobileBroker::recover(
            topo,
            MobileBrokerConfig::reconfig(),
            snap.expect("attach wrote the base checkpoint"),
            &records,
        );
        assert!(timers.is_empty());
        assert_eq!(
            recovered.client(ClientId(1)).unwrap().profile(),
            profile_before
        );
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn checkpoint_truncates_wal_and_survives_reload() {
        let dir = temp_dir("checkpoint");
        let topo = Arc::new(Topology::chain(3));
        let mut b = MobileBroker::new(
            BrokerId(1),
            Arc::clone(&topo),
            MobileBrokerConfig {
                checkpoint_every: 2,
                ..MobileBrokerConfig::reconfig()
            },
        );
        let log: Arc<Mutex<dyn DurabilityLog>> =
            Arc::new(Mutex::new(WalDurability::open(&dir, BrokerId(1)).unwrap()));
        b.attach_durability(log).unwrap();
        b.create_client(ClientId(1));
        for _ in 0..5 {
            let _ = b.client_op(
                ClientId(1),
                ClientOp::Subscribe(Filter::builder().ge("x", 0).build()),
            );
        }
        let store = WalDurability::open(&dir, BrokerId(1)).unwrap();
        let (snap, records) = store.load().unwrap();
        assert!(snap.is_some());
        assert!(records.len() < 2, "WAL not truncated by checkpoints");
        let (recovered, _) = MobileBroker::recover(
            topo,
            MobileBrokerConfig::reconfig(),
            snap.unwrap(),
            &records,
        );
        assert_eq!(
            recovered.client(ClientId(1)).unwrap().profile().subs.len(),
            5
        );
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn load_refuses_foreign_checkpoint_version() {
        let dir = temp_dir("badversion");
        fs::create_dir_all(&dir).unwrap();
        let topo = Arc::new(Topology::chain(2));
        let b = MobileBroker::new(BrokerId(1), topo, MobileBrokerConfig::reconfig());
        let env = CheckpointEnvelope {
            v: DURABILITY_FORMAT_VERSION + 1,
            snapshot: b.snapshot(),
        };
        fs::write(
            dir.join("broker-1.snapshot.json"),
            serde_json::to_string(&env).unwrap(),
        )
        .unwrap();
        let store = WalDurability::open(&dir, BrokerId(1)).unwrap();
        let err = store.load().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        fs::remove_dir_all(dir).unwrap();
    }
}
