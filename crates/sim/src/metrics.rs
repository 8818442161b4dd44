//! Measurement collection: the paper's three metrics (Sec. 5).
//!
//! - **Network traffic**: messages transmitted over overlay links, by
//!   kind, plus the per-movement attribution — every message
//!   *transitively caused* by a movement transaction (including
//!   covering-release cascades triggered at distant brokers) counts
//!   toward that movement.
//! - **Movement duration**: from the `MOVE` command until the source
//!   coordinator finishes the transaction (commit or abort), in
//!   virtual time.
//! - **Movement throughput**: completed movements per unit time.
//!
//! Every link message is counted as it ships, so counting one costs
//! O(1): a counter per [`MsgKind`] in an array, and the movement it is
//! charged to found where its [`MoveId`] says ([`MoveRecords`]).

use std::collections::BTreeMap;
use std::ops::Index;

use serde::{Deserialize, Deserializer, Serialize, Serializer};
use transmob_broker::MsgKind;
use transmob_pubsub::{BrokerId, ClientId, MoveId, PubId};

use crate::time::{SimDuration, SimTime};

/// Lifecycle record of one movement transaction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MoveRecord {
    /// The moving client.
    pub client: ClientId,
    /// Broker the movement started at.
    pub source: BrokerId,
    /// Requested target broker.
    pub target: BrokerId,
    /// When the `MOVE` command was issued.
    pub start: SimTime,
    /// When the source coordinator finished (commit or abort).
    pub end: Option<SimTime>,
    /// Whether it committed.
    pub committed: Option<bool>,
    /// Messages attributed to this movement.
    pub messages: u64,
}

impl MoveRecord {
    /// Movement duration, if finished.
    pub fn latency(&self) -> Option<SimDuration> {
        self.end.map(|e| e.since(self.start))
    }
}

/// A recorded application-layer delivery (kept only when the delivery
/// log is enabled; large experiments keep counters only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeliveryRecord {
    /// Delivery time.
    pub time: SimTime,
    /// Receiving client.
    pub client: ClientId,
    /// Publication id.
    pub publication: PubId,
}

/// Messages transmitted over links, one counter a [`MsgKind`]. It
/// serializes as the map of the kinds counted so far, in kind order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Traffic([u64; MsgKind::ALL.len()]);

impl Traffic {
    /// Messages of `kind` so far.
    pub fn get(&self, kind: MsgKind) -> u64 {
        self.0[kind as usize]
    }

    /// The kinds counted so far and their counts, in kind order.
    pub fn iter(&self) -> impl Iterator<Item = (MsgKind, u64)> + '_ {
        (MsgKind::ALL.into_iter().zip(self.0)).filter(|&(_, n)| n > 0)
    }

    /// Messages of every kind.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }
}

impl Serialize for Traffic {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_map(self.iter())
    }
}

impl<'de> Deserialize<'de> for Traffic {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let mut traffic = Traffic::default();
        for (kind, n) in BTreeMap::<MsgKind, u64>::deserialize(deserializer)? {
            traffic.0[kind as usize] = n;
        }
        Ok(traffic)
    }
}

/// The movement records, in ascending [`MoveId`] order, with the
/// lookups of a `BTreeMap<MoveId, MoveRecord>`, and serialized as one.
///
/// A `MoveId` is `broker << 32 | seq`, and a broker numbers its
/// movements 0, 1, 2, …, so the records are filed in one lane a broker,
/// each in ascending sequence. A record is found where its sequence
/// number says, counted back from the lane's newest: no search while
/// every movement since it has a record, a binary search within the
/// lane when one has none.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MoveRecords {
    /// Ordered by broker; none is empty.
    lanes: Vec<Lane>,
}

#[derive(Debug, Clone, PartialEq)]
struct Lane {
    broker: u64,
    /// Ordered by `MoveId`; never empty.
    recs: Vec<(MoveId, MoveRecord)>,
}

impl Lane {
    /// Where `m`'s record is in this lane, or where it would go.
    fn find(&self, m: MoveId) -> Result<usize, usize> {
        let newest = self.recs.last().expect("lanes are never empty").0;
        let Some(back) = newest.0.checked_sub(m.0) else {
            return Err(self.recs.len()); // newer than every record
        };
        let guess = usize::try_from(back).ok();
        let guess = guess.and_then(|back| (self.recs.len() - 1).checked_sub(back));
        match guess {
            Some(i) if self.recs[i].0 == m => Ok(i),
            _ => self.recs.binary_search_by_key(&m, |(id, _)| *id),
        }
    }
}

impl MoveRecords {
    /// The lane of `m`'s broker, or where it would go.
    fn lane(&self, m: MoveId) -> Result<usize, usize> {
        (self.lanes).binary_search_by_key(&(m.0 >> 32), |lane| lane.broker)
    }

    /// The record of movement `m`.
    pub fn get(&self, m: &MoveId) -> Option<&MoveRecord> {
        let lane = &self.lanes[self.lane(*m).ok()?];
        Some(&lane.recs[lane.find(*m).ok()?].1)
    }

    fn get_mut(&mut self, m: MoveId) -> Option<&mut MoveRecord> {
        let lane = self.lane(m).ok()?;
        let lane = &mut self.lanes[lane];
        let i = lane.find(m).ok()?;
        Some(&mut lane.recs[i].1)
    }

    /// Files `rec` under `m` unless `m` has a record already.
    fn insert_new(&mut self, m: MoveId, rec: MoveRecord) {
        match self.lane(m) {
            Ok(i) => {
                let lane = &mut self.lanes[i];
                if let Err(at) = lane.find(m) {
                    lane.recs.insert(at, (m, rec));
                }
            }
            Err(i) => {
                let lane = Lane {
                    broker: m.0 >> 32,
                    recs: vec![(m, rec)],
                };
                self.lanes.insert(i, lane);
            }
        }
    }

    /// Keeps the records `keep` picks; it may change them on the way.
    fn retain(&mut self, mut keep: impl FnMut(&mut MoveRecord) -> bool) {
        for lane in &mut self.lanes {
            lane.recs.retain_mut(|(_, r)| keep(r));
        }
        self.lanes.retain(|lane| !lane.recs.is_empty());
    }

    /// How many movements have a record.
    pub fn len(&self) -> usize {
        self.lanes.iter().map(|l| l.recs.len()).sum()
    }

    /// Whether no movement has a record.
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// The records and their movements, in ascending `MoveId` order.
    pub fn iter(&self) -> impl Iterator<Item = (&MoveId, &MoveRecord)> {
        (self.lanes.iter()).flat_map(|l| l.recs.iter().map(|(m, r)| (m, r)))
    }

    /// The movements, ascending.
    pub fn keys(&self) -> impl Iterator<Item = &MoveId> {
        self.iter().map(|(m, _)| m)
    }

    /// The records, in ascending `MoveId` order.
    pub fn values(&self) -> impl Iterator<Item = &MoveRecord> {
        self.iter().map(|(_, r)| r)
    }

    /// The record of the lowest `MoveId`.
    pub fn first_key_value(&self) -> Option<(&MoveId, &MoveRecord)> {
        self.iter().next()
    }
}

impl Index<&MoveId> for MoveRecords {
    type Output = MoveRecord;

    fn index(&self, m: &MoveId) -> &MoveRecord {
        self.get(m).expect("no record of that movement")
    }
}

impl Serialize for MoveRecords {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_map(self.iter())
    }
}

impl<'de> Deserialize<'de> for MoveRecords {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let mut moves = MoveRecords::default();
        for (m, rec) in BTreeMap::<MoveId, MoveRecord>::deserialize(deserializer)? {
            moves.insert_new(m, rec);
        }
        Ok(moves)
    }
}

/// All measurements of one simulation run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Metrics {
    /// Messages transmitted over links, by kind.
    pub traffic: Traffic,
    /// Per-movement records.
    pub moves: MoveRecords,
    /// Total application-layer deliveries.
    pub delivery_count: u64,
    /// Full delivery log (enabled for property-checking runs).
    pub delivery_log: Option<Vec<DeliveryRecord>>,
    /// Virtual time at which measurement started (set by
    /// `reset_measurement`).
    pub measure_from: SimTime,
}

impl Metrics {
    /// Creates empty metrics; `log_deliveries` enables the full log.
    pub fn new(log_deliveries: bool) -> Self {
        Metrics {
            delivery_log: log_deliveries.then(Vec::new),
            ..Metrics::default()
        }
    }

    /// Records one link transmission.
    pub fn count_message(&mut self, kind: MsgKind, cause: Option<MoveId>) {
        self.traffic.0[kind as usize] += 1;
        if let Some(m) = cause {
            if let Some(rec) = self.moves.get_mut(m) {
                rec.messages += 1;
            }
        }
    }

    /// Registers the start of a movement.
    pub fn move_started(
        &mut self,
        m: MoveId,
        client: ClientId,
        source: BrokerId,
        target: BrokerId,
        at: SimTime,
    ) {
        let rec = MoveRecord {
            client,
            source,
            target,
            start: at,
            end: None,
            committed: None,
            messages: 0,
        };
        self.moves.insert_new(m, rec);
    }

    /// Registers the completion of a movement.
    pub fn move_finished(&mut self, m: MoveId, committed: bool, at: SimTime) {
        if let Some(rec) = self.moves.get_mut(m) {
            rec.end = Some(at);
            rec.committed = Some(committed);
        }
    }

    /// Records an application delivery.
    pub fn count_delivery(&mut self, time: SimTime, client: ClientId, publication: PubId) {
        self.delivery_count += 1;
        if let Some(log) = &mut self.delivery_log {
            log.push(DeliveryRecord {
                time,
                client,
                publication,
            });
        }
    }

    /// The publication ids surfaced to `client`, in delivery order.
    ///
    /// # Panics
    ///
    /// Panics unless the delivery log is enabled.
    pub fn deliveries_to(&self, client: ClientId) -> Vec<PubId> {
        let log = self.delivery_log.as_ref().expect("delivery log enabled");
        log.iter()
            .filter(|d| d.client == client)
            .map(|d| d.publication)
            .collect()
    }

    /// Clears counters and finished-move records, marking `at` as the
    /// start of the measured phase (the paper ignores the setup phase
    /// to avoid skewing steady-state results).
    pub fn reset_measurement(&mut self, at: SimTime) {
        self.traffic = Traffic::default();
        self.moves.retain(|r| {
            r.messages = 0;
            r.end.is_none()
        });
        self.delivery_count = 0;
        if let Some(log) = &mut self.delivery_log {
            log.clear();
        }
        self.measure_from = at;
    }

    /// Finished movements (committed or aborted).
    pub fn finished_moves(&self) -> impl Iterator<Item = (&MoveId, &MoveRecord)> {
        self.moves.iter().filter(|(_, r)| r.end.is_some())
    }

    /// Number of finished movements.
    pub fn finished_count(&self) -> usize {
        self.finished_moves().count()
    }

    /// Mean movement latency in milliseconds over finished movements.
    pub fn mean_latency_ms(&self) -> f64 {
        let latencies: Vec<f64> = self
            .finished_moves()
            .filter_map(|(_, r)| r.latency().map(|d| d.as_millis_f64()))
            .collect();
        if latencies.is_empty() {
            return 0.0;
        }
        latencies.iter().sum::<f64>() / latencies.len() as f64
    }

    /// Latency percentile (0.0–1.0) in milliseconds over finished
    /// movements (nearest-rank).
    pub fn latency_percentile_ms(&self, q: f64) -> f64 {
        let mut latencies: Vec<f64> = self
            .finished_moves()
            .filter_map(|(_, r)| r.latency().map(|d| d.as_millis_f64()))
            .collect();
        if latencies.is_empty() {
            return 0.0;
        }
        latencies.sort_by(f64::total_cmp);
        let idx = ((q.clamp(0.0, 1.0) * latencies.len() as f64).ceil() as usize)
            .saturating_sub(1)
            .min(latencies.len() - 1);
        latencies[idx]
    }

    /// Messages per finished movement (the paper's normalized message
    /// overhead, Fig. 9(b)): movement-attributed messages divided by
    /// the number of finished movements.
    pub fn messages_per_move(&self) -> f64 {
        let n = self.finished_count();
        if n == 0 {
            return 0.0;
        }
        let msgs: u64 = self.finished_moves().map(|(_, r)| r.messages).sum();
        msgs as f64 / n as f64
    }

    /// Movement throughput in movements per second, measured from
    /// `measure_from` to `now`.
    pub fn throughput_per_sec(&self, now: SimTime) -> f64 {
        let span = now.since(self.measure_from).as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        self.finished_count() as f64 / span
    }

    /// Total link messages, all kinds.
    pub fn total_traffic(&self) -> u64 {
        self.traffic.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(i: u64) -> MoveId {
        MoveId(i)
    }

    #[test]
    fn move_lifecycle_and_latency() {
        let mut x = Metrics::new(false);
        x.move_started(m(1), ClientId(1), BrokerId(1), BrokerId(2), SimTime(1_000));
        x.count_message(MsgKind::MoveCtl, Some(m(1)));
        x.count_message(MsgKind::Subscribe, Some(m(1)));
        x.count_message(MsgKind::Publish, None);
        x.move_finished(m(1), true, SimTime(2_001_000));
        let rec = &x.moves[&m(1)];
        assert_eq!(rec.messages, 2);
        assert_eq!(rec.latency(), Some(SimDuration::from_millis(2)));
        assert_eq!(x.total_traffic(), 3);
        assert_eq!(x.finished_count(), 1);
        assert!((x.mean_latency_ms() - 2.0).abs() < 1e-9);
        assert!((x.messages_per_move() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn reset_measurement_keeps_inflight_moves() {
        let mut x = Metrics::new(false);
        x.move_started(m(1), ClientId(1), BrokerId(1), BrokerId(2), SimTime(0));
        x.move_finished(m(1), true, SimTime(10));
        x.move_started(m(2), ClientId(2), BrokerId(1), BrokerId(2), SimTime(5));
        x.count_message(MsgKind::MoveCtl, Some(m(2)));
        x.reset_measurement(SimTime(20));
        assert_eq!(x.moves.len(), 1, "in-flight move must survive reset");
        assert_eq!(x.moves[&m(2)].messages, 0, "counters reset");
        assert_eq!(x.total_traffic(), 0);
        assert_eq!(x.measure_from, SimTime(20));
    }

    #[test]
    fn percentiles() {
        let mut x = Metrics::new(false);
        for i in 0..100u64 {
            x.move_started(m(i), ClientId(i), BrokerId(1), BrokerId(2), SimTime(0));
            x.move_finished(m(i), true, SimTime((i + 1) * 1_000_000));
        }
        assert!((x.latency_percentile_ms(0.5) - 50.0).abs() < 1.0);
        assert!((x.latency_percentile_ms(0.99) - 99.0).abs() < 1.0);
        assert!((x.latency_percentile_ms(1.0) - 100.0).abs() < 1e-9);
        assert_eq!(Metrics::new(false).latency_percentile_ms(0.5), 0.0);
    }

    #[test]
    fn throughput() {
        let mut x = Metrics::new(false);
        x.reset_measurement(SimTime(0));
        for i in 0..10 {
            x.move_started(m(i), ClientId(i), BrokerId(1), BrokerId(2), SimTime(0));
            x.move_finished(m(i), true, SimTime(1));
        }
        let t = x.throughput_per_sec(SimTime(2_000_000_000));
        assert!((t - 5.0).abs() < 1e-9);
    }

    /// A `MoveId` numbered by `broker`.
    fn mv(broker: u64, seq: u64) -> MoveId {
        MoveId(broker << 32 | seq)
    }

    #[test]
    fn move_records_keep_the_order_and_lookups_of_a_map() {
        let mut x = Metrics::new(false);
        let mut reference: BTreeMap<MoveId, MoveRecord> = BTreeMap::new();
        // Interleaved brokers, a gap, a late start below the newest,
        // a repeated start (the first record stays) and a broker
        // numbered above 2^31.
        let order = [
            mv(3, 0),
            mv(1, 0),
            mv(3, 1),
            mv(1, 1),
            mv(3, 4),
            mv(3, 2),
            mv(1, 1),
            mv(0x8000_0001, 7),
            mv(2, 9),
            mv(3, 5),
        ];
        for (k, &m) in order.iter().enumerate() {
            let at = SimTime(k as u64);
            x.move_started(m, ClientId(k as u64), BrokerId(1), BrokerId(2), at);
            reference.entry(m).or_insert_with(|| x.moves[&m].clone());
            x.count_message(MsgKind::MoveCtl, Some(m));
            reference.get_mut(&m).unwrap().messages += 1;
        }
        x.count_message(MsgKind::MoveCtl, Some(mv(3, 3))); // never started
        x.move_finished(mv(3, 2), true, SimTime(100));
        reference.get_mut(&mv(3, 2)).unwrap().end = Some(SimTime(100));
        reference.get_mut(&mv(3, 2)).unwrap().committed = Some(true);
        let got: Vec<_> = x.moves.iter().map(|(m, r)| (*m, r.clone())).collect();
        let want: Vec<_> = reference.iter().map(|(m, r)| (*m, r.clone())).collect();
        assert_eq!(got, want);
        assert_eq!(x.moves.len(), reference.len());
        assert_eq!(x.moves.get(&mv(3, 3)), None);
        assert_eq!(x.moves.first_key_value().map(|(m, _)| *m), Some(mv(1, 0)));
        assert_eq!(x.traffic.get(MsgKind::MoveCtl), order.len() as u64 + 1);
        x.reset_measurement(SimTime(200));
        reference.retain(|_, r| r.end.is_none());
        assert_eq!(x.moves.len(), reference.len());
        assert!(x.moves.keys().eq(reference.keys()));
        assert!(x.moves.values().all(|r| r.messages == 0));
    }

    #[test]
    fn metrics_serialize_as_with_ordered_maps() {
        let mut x = Metrics::new(true);
        x.move_started(mv(2, 0), ClientId(1), BrokerId(2), BrokerId(1), SimTime(3));
        x.move_started(mv(1, 5), ClientId(2), BrokerId(1), BrokerId(2), SimTime(4));
        x.count_message(MsgKind::Subscribe, Some(mv(1, 5)));
        x.count_message(MsgKind::Advertise, None);
        x.count_message(MsgKind::Subscribe, None);
        x.count_delivery(SimTime(9), ClientId(2), PubId(7));
        /// `Metrics` as it was when both were ordered maps.
        #[derive(Serialize)]
        struct MapShaped {
            traffic: BTreeMap<MsgKind, u64>,
            moves: BTreeMap<MoveId, MoveRecord>,
            delivery_count: u64,
            delivery_log: Option<Vec<DeliveryRecord>>,
            measure_from: SimTime,
        }
        let map_shaped = MapShaped {
            traffic: x.traffic.iter().collect(),
            moves: (x.moves.iter()).map(|(m, r)| (*m, r.clone())).collect(),
            delivery_count: x.delivery_count,
            delivery_log: x.delivery_log.clone(),
            measure_from: x.measure_from,
        };
        let json = serde_json::to_string(&x).unwrap();
        assert_eq!(json, serde_json::to_string(&map_shaped).unwrap());
        let back: Metrics = serde_json::from_str(&json).unwrap();
        assert_eq!((back.traffic, back.moves), (x.traffic, x.moves));
    }

    #[test]
    fn delivery_log_optional() {
        let mut a = Metrics::new(false);
        a.count_delivery(SimTime(1), ClientId(1), PubId(1));
        assert!(a.delivery_log.is_none());
        assert_eq!(a.delivery_count, 1);
        let mut b = Metrics::new(true);
        b.count_delivery(SimTime(1), ClientId(1), PubId(1));
        assert_eq!(b.delivery_log.as_ref().unwrap().len(), 1);
    }
}
