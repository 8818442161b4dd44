//! The channel and TCP workloads: real broker threads, driven through
//! client handles from this one generator thread.

use std::time::{Duration, Instant};

use transmob_core::{MobileBrokerConfig, ProtocolKind};
use transmob_pubsub::{BrokerId, Filter, Publication, PublicationMsg};
use transmob_runtime::codec::WireMode;
use transmob_runtime::tcp::{TcpClient, TcpNetwork, TcpOptions};
use transmob_runtime::{Client, Network};

use crate::oracle::{Oracle, Tracker};
use crate::stats::{process_cpu_s, rss_mb};
use crate::workloads::{Driver, Load, Spec, CONTENT_CYCLE};
use crate::Round;

/// The attribute of the set-up probe: each subscriber's last
/// subscription is a sentinel on it, and because a broker applies one
/// client's commands in order and links are FIFO, a probe publication
/// that reaches a subscriber proves all its earlier subscriptions are
/// installed along the whole path. Workload publications never carry
/// the attribute, so the sentinel never matches in the measured phase.
const PROBE: &str = "probe";

/// How long the generator sleeps on a notification channel when it has
/// nothing to send: short enough that completions are seen within a
/// fraction of the ~1 ms a publication takes, long enough that polling
/// costs well under 1 % of a core.
const POLL: Duration = Duration::from_micros(200);

const MOVE_TIMEOUT: Duration = Duration::from_secs(10);
/// Upper bound on any one phase: work that has not completed by then
/// is reported as failed instead of hanging the run.
const PHASE_TIMEOUT: Duration = Duration::from_secs(20);

enum Net {
    Channel(Network),
    Tcp(TcpNetwork),
}

enum Handle {
    Channel(Client),
    Tcp(TcpClient),
}

impl Handle {
    fn subscribe(&self, f: Filter) {
        match self {
            Handle::Channel(c) => c.subscribe(f),
            Handle::Tcp(c) => c.subscribe(f),
        }
    }

    fn unsubscribe(&self, seq: u32) {
        match self {
            Handle::Channel(c) => c.unsubscribe(seq),
            Handle::Tcp(_) => unreachable!("TcpClient cannot unsubscribe; no TCP workload churns"),
        }
    }

    fn advertise(&self, f: Filter) {
        match self {
            Handle::Channel(c) => c.advertise(f),
            Handle::Tcp(c) => c.advertise(f),
        }
    }

    fn publish(&self, p: Publication) {
        match self {
            Handle::Channel(c) => c.publish(p),
            Handle::Tcp(c) => c.publish(p),
        }
    }

    fn drain(&self) -> Vec<PublicationMsg> {
        match self {
            Handle::Channel(c) => c.drain(),
            Handle::Tcp(c) => c.drain(),
        }
    }

    fn recv_timeout(&self, d: Duration) -> Option<PublicationMsg> {
        match self {
            Handle::Channel(c) => c.recv_timeout(d),
            Handle::Tcp(c) => c.recv_timeout(d),
        }
    }

    fn move_to(&self, to: BrokerId) -> bool {
        match self {
            Handle::Channel(c) => c.move_to(to, ProtocolKind::Reconfig, MOVE_TIMEOUT),
            Handle::Tcp(c) => c.move_to(to, ProtocolKind::Reconfig, MOVE_TIMEOUT),
        }
    }
}

/// A started overlay with every client of the workload attached and
/// every subscription installed.
struct Rig<'a> {
    spec: &'a Spec,
    oracle: &'a Oracle,
    net: Net,
    publisher: Handle,
    /// Publications the publisher has issued (its next `PubId` seq).
    published: u64,
    subscribers: Vec<Handle>,
    churner: Option<Handle>,
    churn_ops: u32,
    tracker: Tracker<Instant>,
    /// Workload publications issued (the content cycle position).
    next_content: usize,
    /// Movements requested so far.
    moves: usize,
}

impl<'a> Rig<'a> {
    /// Starts the overlay, attaches the clients, installs every
    /// subscription and returns once a probe publication has reached
    /// every subscriber.
    fn start(spec: &'a Spec, oracle: &'a Oracle) -> Rig<'a> {
        let config = MobileBrokerConfig::reconfig();
        let net = match spec.driver {
            Driver::Channel => Net::Channel(
                Network::builder()
                    .overlay(spec.topology.clone())
                    .options(config)
                    .start(),
            ),
            Driver::Tcp => Net::Tcp(
                TcpNetwork::builder()
                    .overlay(spec.topology.clone())
                    .options(config)
                    .tcp(TcpOptions {
                        wire: WireMode::Binary,
                        ..TcpOptions::default()
                    })
                    .start()
                    .expect("loopback sockets"),
            ),
            Driver::Sim => unreachable!("sim workloads run in simrun"),
        };
        let attach = |home, id| match &net {
            Net::Channel(n) => Handle::Channel(n.create_client(home, id)),
            Net::Tcp(n) => Handle::Tcp(n.create_client(home, id)),
        };
        assert_eq!(
            spec.publishers.len(),
            1,
            "threaded workloads publish from one client"
        );
        let publisher = attach(spec.publishers[0].home, spec.publishers[0].id);
        publisher.advertise(spec.adv.clone());
        let subscribers: Vec<Handle> = spec
            .subscribers
            .iter()
            .map(|s| {
                let h = attach(s.home, s.id);
                for f in &s.filters {
                    h.subscribe(f.clone());
                }
                h.subscribe(Filter::builder().ge(PROBE, 0).build());
                h
            })
            .collect();
        let churner = spec.churner.as_ref().map(|c| attach(c.home, c.id));
        let mut rig = Rig {
            spec,
            oracle,
            net,
            publisher,
            published: 0,
            subscribers,
            churner,
            churn_ops: 0,
            tracker: Tracker::new(),
            next_content: 0,
            moves: 0,
        };
        rig.await_probe();
        rig
    }

    fn await_probe(&mut self) {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let probe = self.pub_key();
            self.publisher
                .publish(Publication::new().with(PROBE, self.published as i64));
            self.published += 1;
            let mut reached = vec![false; self.subscribers.len()];
            let give_up = Instant::now() + Duration::from_millis(5);
            while Instant::now() < give_up && reached.iter().any(|r| !r) {
                for (i, s) in self.subscribers.iter().enumerate() {
                    // Earlier probes may still trickle in; only this one counts.
                    reached[i] |= s.drain().iter().any(|n| n.id.0 == probe);
                }
                std::thread::sleep(POLL);
            }
            if reached.iter().all(|r| *r) {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "set-up probe never reached every subscriber"
            );
        }
    }

    /// The `PubId` the publisher's next publication will get.
    fn pub_key(&self) -> u64 {
        self.spec.publishers[0].pub_id(self.published)
    }

    /// Publishes the next content of the cycle, stamped `due` for
    /// latency purposes.
    fn publish_next(&mut self, due: Instant) {
        let content = self.next_content;
        self.next_content += 1;
        self.tracker
            .on_publish(self.pub_key(), self.oracle.expected(content), due);
        self.publisher
            .publish(self.spec.contents[content % CONTENT_CYCLE].clone());
        self.published += 1;
    }

    /// Feeds every queued notification to the tracker, blocking up to
    /// `wait` for the first. Returns `(published_at, seen_at)` of each
    /// publication that completed.
    fn poll(&mut self, wait: Duration) -> Vec<(Instant, Instant)> {
        let mut first = if wait.is_zero() {
            None
        } else {
            self.subscribers[0].recv_timeout(wait)
        };
        let now = Instant::now();
        let mut done = Vec::new();
        for (i, s) in self.subscribers.iter().enumerate() {
            let head = if i == 0 { first.take() } else { None };
            for n in head.into_iter().chain(s.drain()) {
                if let Some(at) = self.tracker.on_notify(n.id.0, i) {
                    done.push((at, now));
                }
            }
        }
        // The churner is outside the oracle: whether it sees a given
        // publication depends on where its toggle fell.
        if let Some(c) = &self.churner {
            c.drain();
        }
        done
    }

    /// Issues the churner's table writes that are due by `now`.
    fn churn_until(&mut self, now: Instant, next_due: &mut Instant, rate: f64) {
        let Some(c) = &self.churner else { return };
        let filter = &self.spec.churner.as_ref().expect("churner spec").filter;
        while *next_due <= now {
            // A client's subscriptions are numbered in issue order, and
            // each is withdrawn before the next is issued.
            let seq = self.churn_ops / 2;
            if self.churn_ops.is_multiple_of(2) {
                c.subscribe(filter.clone());
            } else {
                c.unsubscribe(seq);
            }
            self.churn_ops += 1;
            *next_due += Duration::from_secs_f64(1.0 / rate);
        }
    }

    /// Closed loop: keeps `window` publications in flight until `n`
    /// more have completed. Returns each completion's offset from the
    /// phase start, in seconds.
    fn closed_loop(&mut self, n: usize, window: usize, churn_rate: f64) -> Vec<f64> {
        let start = Instant::now();
        let deadline = start + PHASE_TIMEOUT;
        let mut churn_due = start;
        let mut completions = Vec::with_capacity(n);
        let mut to_publish = n;
        while completions.len() < n && Instant::now() < deadline {
            while to_publish > 0 && self.tracker.in_flight() < window {
                self.publish_next(Instant::now());
                to_publish -= 1;
            }
            if churn_rate > 0.0 {
                self.churn_until(Instant::now(), &mut churn_due, churn_rate);
            }
            for (_, seen) in self.poll(POLL) {
                completions.push((seen - start).as_secs_f64());
            }
            // Publications nobody subscribes to complete at once.
            if to_publish == 0 && self.tracker.in_flight() == 0 {
                break;
            }
        }
        completions
    }

    /// Open loop: `n` publications, one every `1/rate` s, each timed
    /// from when it was due. Returns the publish-to-last-notify
    /// latencies and how late the generator sent each publication.
    fn open_loop(
        &mut self,
        n: usize,
        rate: f64,
        churn_rate: f64,
    ) -> (Vec<Duration>, Vec<Duration>) {
        let start = Instant::now();
        let mut churn_due = start;
        let (mut latencies, mut late) = (Vec::new(), Vec::new());
        for k in 0..n {
            let due = start + Duration::from_secs_f64(k as f64 / rate);
            loop {
                let now = Instant::now();
                if churn_rate > 0.0 {
                    self.churn_until(now, &mut churn_due, churn_rate);
                }
                if now >= due {
                    late.push(now - due);
                    break;
                }
                for (at, seen) in self.poll(POLL.min(due - now)) {
                    latencies.push(seen - at);
                }
            }
            self.publish_next(due);
        }
        for (at, seen) in self.drain() {
            latencies.push(seen - at);
        }
        (latencies, late)
    }

    /// Waits until nothing is in flight (or [`PHASE_TIMEOUT`]).
    fn drain(&mut self) -> Vec<(Instant, Instant)> {
        let deadline = Instant::now() + PHASE_TIMEOUT;
        let mut done = Vec::new();
        while self.tracker.in_flight() > 0 && Instant::now() < deadline {
            done.extend(self.poll(POLL));
        }
        done
    }

    /// `n` movements, movers taking turns, each starting when the
    /// previous outcome arrived, beside an open-loop publication
    /// schedule.
    fn move_loop(&mut self, n: usize, pub_rate: f64) -> MovePhase {
        let start = Instant::now();
        let mut pub_due = start;
        let mut out = MovePhase::default();
        let mut delivered = Vec::new();
        for _ in 0..n {
            // Publications due by now go out right before the movement,
            // so they are in flight while it runs.
            let now = Instant::now();
            while pub_due <= now {
                out.late.push(now - pub_due);
                self.publish_next(pub_due);
                pub_due += Duration::from_secs_f64(1.0 / pub_rate);
            }
            let mover = self.moves % self.subscribers.len();
            let route = &self.spec.subscribers[mover].route;
            let to = route[(self.moves / self.subscribers.len()) % route.len()];
            self.moves += 1;
            let t0 = Instant::now();
            if self.subscribers[mover].move_to(to) {
                let end = Instant::now();
                out.committed
                    .push(((end - start).as_secs_f64(), (end - t0).as_secs_f64()));
            } else {
                out.aborted += 1;
            }
            delivered.extend(self.poll(Duration::ZERO));
        }
        // Every publication is awaited by its movers wherever they
        // are: this is the exactly-once check across movements.
        delivered.extend(self.drain());
        out.deliveries = delivered.iter().map(|(at, seen)| *seen - *at).collect();
        out
    }

    /// Frames written and flushes made so far, summed over every link
    /// endpoint of a TCP overlay, and link-level losses (all 0 on
    /// channels).
    fn link_totals(&self) -> (u64, u64, u64) {
        let Net::Tcp(net) = &self.net else {
            return (0, 0, 0);
        };
        let (mut frames, mut flushes, mut lost) = (0, 0, 0);
        for (a, b) in self.spec.topology.edges() {
            for (x, y) in [(a, b), (b, a)] {
                if let Some(s) = net.link_stats(x, y) {
                    frames += s.frames_sent;
                    flushes += s.flushes;
                    lost += s.dropped_publications + s.decode_failures + s.serialize_failures;
                }
            }
        }
        (frames, flushes, lost)
    }

    fn shutdown(self) {
        match self.net {
            Net::Channel(n) => n.shutdown(),
            Net::Tcp(n) => n.shutdown(),
        }
    }
}

/// What [`Rig::move_loop`] observed.
#[derive(Default)]
struct MovePhase {
    /// `(completion offset, latency)` in seconds per committed movement.
    committed: Vec<(f64, f64)>,
    /// Movements that aborted or timed out.
    aborted: u64,
    /// Publish-to-last-notify latency of each publication.
    deliveries: Vec<Duration>,
    /// How late each publication was sent.
    late: Vec<Duration>,
}

/// Ratio of the rate over the last quarter of `completions` (offsets
/// from the phase start, ascending) to the rate over the first.
fn quarter_decay(completions: &[f64]) -> f64 {
    let q = completions.len() / 4;
    if q == 0 {
        return 0.0;
    }
    let n = completions.len();
    let first = completions[q - 1];
    let last = completions[n - 1] - completions[n - 1 - q];
    if last > 0.0 {
        first / last
    } else {
        0.0
    }
}

fn us(d: &[Duration]) -> Vec<f64> {
    d.iter().map(|d| d.as_secs_f64() * 1e6).collect()
}

/// Runs the throughput phase `phase` (which returns its operations'
/// completion offsets in seconds) and records what it cost.
fn timed_phase(rig: &mut Rig, out: &mut Round, phase: impl FnOnce(&mut Rig) -> Vec<f64>) {
    let (cpu0, (frames0, flushes0, _)) = (process_cpu_s(), rig.link_totals());
    let done = phase(rig);
    let (cpu1, (frames1, flushes1, _)) = (process_cpu_s(), rig.link_totals());
    out.ops = done.len() as u64;
    out.wall_s = done.last().copied().unwrap_or(0.0);
    out.cpu_s = cpu1 - cpu0;
    out.decay = quarter_decay(&done);
    (out.tcp_frames, out.tcp_flushes) = (frames1 - frames0, flushes1 - flushes0);
}

/// One round of a channel or TCP workload: a fresh overlay, an untimed
/// warm-up, the timed throughput phase, and (for publication
/// workloads) the open-loop latency phase.
pub fn round(spec: &Spec, oracle: &Oracle) -> Round {
    let mut out = Round::default();
    let t0 = Instant::now();
    let mut rig = Rig::start(spec, oracle);
    out.setup_s = t0.elapsed().as_secs_f64();
    out.setup_rss_mb = rss_mb();
    match spec.load {
        Load::Pubs {
            window,
            warmup,
            closed,
            open,
            open_rate,
            churn_rate,
        } => {
            rig.closed_loop(warmup, window, churn_rate);
            timed_phase(&mut rig, &mut out, |rig| {
                rig.closed_loop(closed, window, churn_rate)
            });
            let (latencies, late) = rig.open_loop(open, open_rate, churn_rate);
            out.deliver_us = us(&latencies);
            out.latency_ms = out.deliver_us.iter().map(|l| l / 1e3).collect();
            out.gen_late_us = us(&late);
        }
        Load::Moves {
            pub_rate,
            warmup,
            moves,
        } => {
            rig.move_loop(warmup, pub_rate);
            let mut phase = MovePhase::default();
            timed_phase(&mut rig, &mut out, |rig| {
                phase = rig.move_loop(moves, pub_rate);
                phase.committed.iter().map(|(at, _)| *at).collect()
            });
            out.latency_ms = phase.committed.iter().map(|(_, l)| l * 1e3).collect();
            out.gen_late_us = us(&phase.late);
            out.deliver_us = us(&phase.deliveries);
            out.attempted += (warmup + moves) as u64;
            out.fail(phase.aborted, "movements aborted or timed out");
        }
        Load::SimMoves { .. } | Load::SimPubs { .. } => unreachable!("sim loads run in simrun"),
    }
    out.attempted += rig.next_content as u64 + u64::from(rig.churn_ops);
    out.fail(
        rig.tracker.in_flight() as u64,
        "publications missing a notification",
    );
    out.fail(
        rig.tracker.unexpected,
        "duplicate or unexpected notifications",
    );
    out.fail(rig.link_totals().2, "frames dropped or corrupted on a link");
    out.end_rss_mb = rss_mb();
    rig.shutdown();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quarter_decay_compares_the_ends() {
        // Eight completions, the last two twice as far apart as the
        // first two: the rate halved.
        let at = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0];
        assert_eq!(quarter_decay(&at), 0.5);
        let steady: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(quarter_decay(&steady), 1.0);
        assert_eq!(quarter_decay(&[1.0, 2.0]), 0.0, "too few to have quarters");
    }
}
