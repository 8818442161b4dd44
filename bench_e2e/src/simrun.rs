//! The simulator workloads: a `Sim` on virtual time, whose wall-clock
//! cost for a fixed virtual window is what gets timed.

use std::time::Instant;

use transmob_core::{ClientOp, MobileBrokerConfig, ProtocolKind};
use transmob_sim::{MovementPlan, NetworkModel, Sim, SimDuration, SimTime};

use crate::oracle::{Oracle, Tracker};
use crate::stats::{process_cpu_s, rss_mb};
use crate::workloads::{Load, Spec, SUBSCRIBER_BASE};
use crate::Round;

/// Steps the virtual window is run in.
const SLICES: u64 = 8;

struct Rig<'a> {
    spec: &'a Spec,
    oracle: &'a Oracle,
    sim: Sim,
    /// Publications are tracked by `PubId`, stamped with the virtual
    /// time their publish command was scheduled for.
    tracker: Tracker<SimTime>,
    /// Per publisher: publications scheduled so far (its `PubId` seq).
    scheduled: Vec<u64>,
    next_content: usize,
    measure_from: SimTime,
}

impl<'a> Rig<'a> {
    /// Builds the simulator, attaches every client, installs every
    /// subscription and runs the overlay quiescent.
    fn start(spec: &'a Spec, oracle: &'a Oracle) -> Rig<'a> {
        let mut sim = Sim::builder()
            .overlay(spec.topology.clone())
            .options(MobileBrokerConfig::reconfig())
            .network(NetworkModel::cluster())
            .seed(spec.seed)
            .start();
        sim.enable_delivery_log();
        for p in &spec.publishers {
            sim.create_client(p.home, p.id);
            sim.schedule_cmd(SimTime::ZERO, p.id, ClientOp::Advertise(spec.adv.clone()));
        }
        // Subscriptions are staggered over the first virtual second,
        // as the paper's set-up phase does, to avoid lockstep.
        let n = spec.subscribers.len() as u64;
        for (i, s) in spec.subscribers.iter().enumerate() {
            sim.create_client(s.home, s.id);
            let at = SimTime(1_000_000 + i as u64 * 1_000_000_000 / n);
            for f in &s.filters {
                sim.schedule_cmd(at, s.id, ClientOp::Subscribe(f.clone()));
            }
        }
        sim.run_to_quiescence();
        let measure_from = sim.now() + SimDuration::from_millis(100);
        Rig {
            spec,
            oracle,
            sim,
            tracker: Tracker::new(),
            scheduled: vec![0; spec.publishers.len()],
            next_content: 0,
            measure_from,
        }
    }

    /// Schedules every publish command not yet scheduled that is due
    /// before `to`: publisher `j`'s `k`-th publication at
    /// `(k + (j+1)/(P+1)) / rate`, so the publishers interleave instead
    /// of firing together.
    fn schedule_pubs(&mut self, rate: f64, to: SimTime) {
        let publishers = self.spec.publishers.len();
        for j in 0..publishers {
            loop {
                let phase = (j + 1) as f64 / (publishers + 1) as f64;
                let k = self.scheduled[j];
                let at = self.measure_from
                    + SimDuration::from_nanos(((k as f64 + phase) / rate * 1e9) as u64);
                if at >= to {
                    break;
                }
                let content = self.next_content;
                self.next_content += 1;
                let publisher = &self.spec.publishers[j];
                self.tracker
                    .on_publish(publisher.pub_id(k), self.oracle.expected(content), at);
                let p = self.spec.contents[content % self.spec.contents.len()].clone();
                self.sim
                    .schedule_cmd(at, publisher.id, ClientOp::Publish(p));
                self.scheduled[j] += 1;
            }
        }
    }

    /// Moves the simulator's delivery log into the tracker. Returns
    /// `(delivered_at, latency)` of each publication that completed.
    fn harvest(&mut self) -> Vec<(SimTime, SimDuration)> {
        let log = self
            .sim
            .metrics
            .delivery_log
            .as_mut()
            .expect("delivery log enabled at start");
        let mut done = Vec::new();
        for rec in std::mem::take(log) {
            let client = (rec.client.0 - SUBSCRIBER_BASE) as usize;
            if let Some(at) = self.tracker.on_notify(rec.publication.0, client) {
                done.push((rec.time, rec.time.since(at)));
            }
        }
        done
    }
}

/// One round of a simulator workload: a fresh `Sim`, then the
/// workload's fixed virtual window. Rounds of one run are identical
/// (same seed, same inputs), so the virtual-time latencies and the
/// message counts repeat bit for bit; only the wall clock and CPU they
/// cost differ.
pub fn round(spec: &Spec, oracle: &Oracle) -> Round {
    let mut out = Round::default();
    let t0 = Instant::now();
    let mut rig = Rig::start(spec, oracle);
    out.setup_s = t0.elapsed().as_secs_f64();
    out.setup_rss_mb = rss_mb();
    let from = rig.measure_from;
    let (pub_rate, window_s) = match spec.load {
        Load::SimMoves {
            pause_s,
            pub_rate,
            window_s,
        } => {
            let pause = SimDuration::from_secs(pause_s);
            let movers = spec.subscribers.len();
            for (i, s) in spec.subscribers.iter().enumerate() {
                let plan = MovementPlan {
                    destinations: s.route.clone(),
                    pause,
                    protocol: ProtocolKind::Reconfig,
                };
                // Staggered across the first pause interval.
                let first = from + pause.mul_f64(i as f64 / movers as f64);
                rig.sim.install_plan(s.id, plan, first);
            }
            (pub_rate, window_s)
        }
        Load::SimPubs { pub_rate, window_s } => (pub_rate, window_s),
        Load::Pubs { .. } | Load::Moves { .. } => unreachable!("threaded loads run in threaded"),
    };
    rig.sim.metrics.reset_measurement(from);
    let end = from + SimDuration::from_secs(window_s);
    // No movement starts after the window; those in flight finish.
    rig.sim.set_plan_deadline(end);

    let cpu0 = process_cpu_s();
    let events0 = rig.sim.events_processed();
    let mut delivered = Vec::new();
    // The window runs in SLICES steps so that the delivery log (and
    // with it this process's memory) stays small; only the simulator's
    // own work is on the clock.
    let slice_ns = window_s * 1_000_000_000 / SLICES;
    let mut slice_wall = Vec::new();
    for s in 1..=SLICES {
        let edge = from + SimDuration::from_nanos(slice_ns * s);
        rig.schedule_pubs(pub_rate, edge);
        let w = Instant::now();
        rig.sim.run_until(edge);
        slice_wall.push(w.elapsed().as_secs_f64());
        delivered.extend(rig.harvest());
    }
    let w = Instant::now();
    rig.sim.run_to_quiescence();
    out.wall_s = slice_wall.iter().sum::<f64>() + w.elapsed().as_secs_f64();
    delivered.extend(rig.harvest());
    out.cpu_s = process_cpu_s() - cpu0;
    out.sim_events = rig.sim.events_processed() - events0;
    out.link_msgs = rig.sim.metrics.total_traffic();

    out.deliver_us = delivered
        .iter()
        .map(|(_, l)| l.as_nanos() as f64 / 1e3)
        .collect();
    // Wall-clock rate over the window's last quarter against its first
    // (the virtual rate is the schedule's and does not move).
    let wall_decay = |done_at: &mut dyn Iterator<Item = SimTime>| {
        let mut per_slice = vec![0.0; SLICES as usize];
        for at in done_at {
            let slice = (at.since(from).as_nanos() / slice_ns) as usize;
            per_slice[slice.min(SLICES as usize - 1)] += 1.0;
        }
        let quarter = SLICES as usize / 4;
        let rate = |slices: std::ops::Range<usize>| {
            per_slice[slices.clone()].iter().sum::<f64>() / slice_wall[slices].iter().sum::<f64>()
        };
        rate(SLICES as usize - quarter..SLICES as usize) / rate(0..quarter)
    };
    if spec.load.ops_are_moves() {
        let (mut aborted, mut unfinished) = (0, 0);
        let mut ends = Vec::new();
        for rec in rig.sim.metrics.moves.values() {
            out.attempted += 1;
            match (rec.end, rec.committed) {
                (Some(at), Some(true)) => {
                    ends.push(at);
                    out.latency_ms
                        .push(at.since(rec.start).as_nanos() as f64 / 1e6);
                    out.move_msgs += rec.messages;
                }
                (Some(_), _) => aborted += 1,
                (None, _) => unfinished += 1,
            }
        }
        out.ops = ends.len() as u64;
        out.decay = wall_decay(&mut ends.into_iter());
        out.fail(aborted, "movements aborted");
        out.fail(unfinished, "movements never finished");
    } else {
        out.ops = delivered.len() as u64;
        out.latency_ms = out.deliver_us.iter().map(|l| l / 1e3).collect();
        out.decay = wall_decay(&mut delivered.iter().map(|(at, _)| *at));
    }
    out.attempted += rig.next_content as u64;
    out.fail(
        rig.tracker.in_flight() as u64,
        "publications missing a notification",
    );
    out.fail(
        rig.tracker.unexpected,
        "duplicate or unexpected notifications",
    );
    out.fail(rig.sim.total_anomalies(), "broker anomalies");
    out.end_rss_mb = rss_mb();
    out
}
