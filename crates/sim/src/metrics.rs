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

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
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

/// All measurements of one simulation run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Metrics {
    /// Messages transmitted over links, by kind.
    pub traffic: BTreeMap<MsgKind, u64>,
    /// Per-movement records.
    pub moves: BTreeMap<MoveId, MoveRecord>,
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
        *self.traffic.entry(kind).or_insert(0) += 1;
        if let Some(m) = cause {
            if let Some(rec) = self.moves.get_mut(&m) {
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
        self.moves.entry(m).or_insert(MoveRecord {
            client,
            source,
            target,
            start: at,
            end: None,
            committed: None,
            messages: 0,
        });
    }

    /// Registers the completion of a movement.
    pub fn move_finished(&mut self, m: MoveId, committed: bool, at: SimTime) {
        if let Some(rec) = self.moves.get_mut(&m) {
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
        self.traffic.clear();
        self.moves.retain(|_, r| r.end.is_none());
        for r in self.moves.values_mut() {
            r.messages = 0;
        }
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
        self.traffic.values().sum()
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
