//! `--trace 1`: the per-layer metrics of BENCHMARK.json. The traced
//! replay supplies span self times and boundary counts, the layer
//! probes supply single-layer timings on the workload's own table,
//! and the rounds on the real driver supply what only it can show
//! (delivery latency, rate decay, socket counters, simulator events).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::layers;
use crate::oracle::Oracle;
use crate::stats::{mean, percentile, supported_tail};
use crate::trace::{self, names, Replay};
use crate::workloads::Spec;
use crate::{medians, metric, pooled, Metric, Round};

/// Operations of the workload's stream the traced replay covers.
pub const TRACE_OPS: usize = 2000;

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Per span name: how many spans, and their total self time in µs.
fn by_name(r: &Replay) -> BTreeMap<&'static str, (u64, f64)> {
    let mut out: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
    for (s, own) in r.spans.iter().zip(trace::self_times(&r.spans)) {
        let e = out.entry(s.name).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += own as f64 / 1e3;
    }
    out
}

/// Whether a span is a call into a layer (as opposed to an operation's
/// root, the replay driver's own per-hop glue, or the matching probe
/// that runs beside the operation).
fn is_layer_call(s: &trace::Span) -> bool {
    s.parent.is_some() && s.name != names::HOP && s.name != names::MATCH_PROBE
}

/// Runs the traced replay and the layer probes and assembles every
/// per-layer metric; appends the span summary to `report`.
pub fn per_layer(
    spec: &Spec,
    oracle: &Oracle,
    rounds: &mut [Round],
    gen_s: f64,
    report: &mut String,
) -> Result<Vec<Metric>, String> {
    let traced = trace::replay(spec, oracle, TRACE_OPS, true);
    // The same driver with the recorder off, over the first quarter
    // of the steps: what the spans themselves cost.
    let untraced = trace::replay(spec, oracle, TRACE_OPS / 4, false);
    let dir = crate::out_dir();
    let file = dir.join(format!("trace-{}.jsonl", spec.name));
    trace::write_spans(&file, &traced.spans).map_err(|e| format!("{}: {e}", file.display()))?;
    let kernels = layers::kernels(spec);
    let rtt = layers::socket_rtt_us(spec).map_err(|e| format!("socket probe: {e}"))?;
    let (wal_append, wal_fsync) =
        layers::file_wal_us(spec, &dir).map_err(|e| format!("file WAL probe: {e}"))?;

    let names_us = by_name(&traced);
    let us = |name: &str| names_us.get(name).map_or(0.0, |e| e.1);
    let calls = |name: &str| names_us.get(name).map_or(0.0, |e| e.0 as f64);
    let own = trace::self_times(&traced.spans);
    let pubs = traced.publishes as f64;
    let moves = traced.moves as f64;
    // "Per op" means per operation of the workload, as on the real
    // driver: per movement where operations are movements (the
    // publications beside them are part of a movement's cost), per
    // publication otherwise (and so is the churner's work).
    let ops = if spec.load.ops_are_moves() {
        moves
    } else {
        pubs
    };
    // Counts over the operation prefix alone.
    let c = &traced.counts;
    let c0 = &traced.setup_counts;
    let msgs = (c.msgs - c0.msgs) as f64;
    let frames = (c.frames - c0.frames) as f64;

    // A single-message apply matches internally, so the apply row
    // includes that matching; the probe after it prices the same call
    // on its own, for the match row. The two overlap and are not added.
    let match_us = us(names::PREMATCH) + us(names::MATCH_PROBE);
    let layer_us: f64 = traced
        .spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| is_layer_call(s))
        .map(|(_, own)| *own as f64 / 1e3)
        .sum();
    let kind_of: BTreeMap<u32, &str> = traced
        .spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name != names::MATCH_PROBE)
        .map(|s| (s.op, s.name))
        .collect();
    let move_us: f64 = traced
        .spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| is_layer_call(s) && kind_of.get(&s.op) == Some(&"move"))
        .map(|(_, own)| *own as f64 / 1e3)
        .sum();

    let total = |f: fn(&Round) -> f64| -> f64 { rounds.iter().map(f).sum() };
    let deliver = pooled(rounds, |r| &r.deliver_us);
    let late = pooled(rounds, |r| &r.gen_late_us);
    let real_ops = total(|r| r.ops as f64);
    let real_cpu_us = ratio(total(|r| r.cpu_s) * 1e6, real_ops);

    let metrics = vec![
        // pubsub
        metric("pubsub.index.match_us_per_pub", ratio(match_us, pubs), "us"),
        metric(
            "pubsub.index.matches_per_pub",
            kernels.matches_per_pub,
            "count",
        ),
        metric("pubsub.index.insert_us", kernels.insert_us, "us"),
        metric("pubsub.index.remove_us", kernels.remove_us, "us"),
        metric(
            "pubsub.index.kernel_counter_us_per_pub",
            kernels.counter_us,
            "us",
        ),
        metric(
            "pubsub.index.kernel_sweep_b16_us_per_pub",
            kernels.sweep_us[0],
            "us",
        ),
        metric(
            "pubsub.index.kernel_sweep_b64_us_per_pub",
            kernels.sweep_us[1],
            "us",
        ),
        metric(
            "pubsub.index.kernel_packed_b16_us_per_pub",
            kernels.packed_us[0],
            "us",
        ),
        metric(
            "pubsub.index.kernel_packed_b64_us_per_pub",
            kernels.packed_us[1],
            "us",
        ),
        // broker
        metric(
            "broker.core.apply_us_per_op",
            ratio(us(names::APPLY), ops),
            "us",
        ),
        metric(
            "broker.core.outputs_per_op",
            ratio((c.outputs - c0.outputs) as f64, ops),
            "count",
        ),
        metric("broker.core.subscribe_us", traced.subscribe_us, "us"),
        metric("broker.core.unsubscribe_us", traced.unsubscribe_us, "us"),
        metric("broker.core.link_msgs_per_op", ratio(msgs, ops), "count"),
        metric(
            "broker.dedup.dup_arrivals_per_pub",
            ratio((c.duplicate_arrivals - c0.duplicate_arrivals) as f64, pubs),
            "count",
        ),
        metric("broker.routing.prt_rows", traced.prt_rows as f64, "count"),
        metric("broker.routing.srt_rows", traced.srt_rows as f64, "count"),
        // core
        metric(
            "core.mobile_broker.move_cpu_us",
            ratio(move_us, moves),
            "us",
        ),
        metric(
            "core.mobile_broker.msgs_per_move",
            ratio(traced.move_msgs.values().sum::<u64>() as f64, moves),
            "count",
        ),
        metric(
            "core.durability.append_us_per_batch",
            ratio(us(names::WAL_APPEND), calls(names::WAL_APPEND)),
            "us",
        ),
        metric(
            "core.durability.checkpoint_us",
            ratio(us(names::WAL_CHECKPOINT), calls(names::WAL_CHECKPOINT)),
            "us",
        ),
        metric(
            "core.durability.checkpoints_per_kop",
            ratio(calls(names::WAL_CHECKPOINT) * 1e3, ops),
            "count",
        ),
        metric(
            "core.durability.bytes_per_op",
            ratio(traced.wal_records as f64 * traced.wal_record_bytes, ops),
            "B",
        ),
        metric(
            "core.transport.flush_us_per_batch",
            ratio(us(names::FLUSH), (c.applies - c0.applies) as f64),
            "us",
        ),
        metric(
            "core.transport.msgs_per_frame",
            ratio(msgs, frames),
            "count",
        ),
        // runtime
        metric(
            "runtime.codec.encode_us_per_msg",
            ratio(us(names::ENCODE), msgs),
            "us",
        ),
        metric(
            "runtime.codec.decode_us_per_msg",
            ratio(us(names::DECODE), msgs),
            "us",
        ),
        metric(
            "runtime.codec.bytes_per_msg",
            ratio((c.frame_bytes - c0.frame_bytes) as f64, msgs),
            "B",
        ),
        metric(
            "runtime.tcp.frames_per_op",
            ratio(total(|r| r.tcp_frames as f64), real_ops),
            "count",
        ),
        metric(
            "runtime.tcp.flushes_per_op",
            ratio(total(|r| r.tcp_flushes as f64), real_ops),
            "count",
        ),
        metric("runtime.tcp.socket_rtt_us", rtt, "us"),
        metric("runtime.deliver_p50_us", percentile(&deliver, 0.5), "us"),
        metric(
            "runtime.deliver_tail_us",
            percentile(&deliver, supported_tail(deliver.len())),
            "us",
        ),
        metric("runtime.gen_late_us", mean(&late), "us"),
        // Not an end-to-end metric: operations per wall-clock second
        // count the time the host gave to its other tenants, and
        // identical runs differed 2-3x under the PR driver. The best
        // round's rate is here so that a change in waiting (which CPU
        // per operation cannot see) still shows.
        metric(
            "runtime.ops_per_s",
            rounds.iter().map(Round::ops_per_s).fold(0.0, f64::max),
            "1/s",
        ),
        metric("runtime.rate_decay", medians(rounds, |r| r.decay), "ratio"),
        // Of the first round: later ones reuse what the allocator kept.
        metric(
            "runtime.rss_growth_mb",
            rounds[0].end_rss_mb - rounds[0].setup_rss_mb,
            "MiB",
        ),
        metric(
            "runtime.unaccounted_share",
            1.0 - ratio(ratio(layer_us, ops), real_cpu_us),
            "ratio",
        ),
        metric(
            "runtime.trace_overhead_share",
            ratio(traced.quarter_wall_s - untraced.wall_s, untraced.wall_s),
            "ratio",
        ),
        // sim
        metric(
            "sim.events_per_s",
            ratio(total(|r| r.sim_events as f64), total(|r| r.wall_s)),
            "1/s",
        ),
        metric(
            "sim.events_per_op",
            ratio(total(|r| r.sim_events as f64), real_ops),
            "count",
        ),
        metric(
            "sim.link_msgs_per_op",
            ratio(total(|r| r.link_msgs as f64), real_ops),
            "count",
        ),
        metric(
            "sim.msgs_per_move",
            ratio(total(|r| r.move_msgs as f64), real_ops),
            "count",
        ),
        metric("sim.wal.append_batch_us", wal_append, "us"),
        metric("sim.wal.fsync_us", wal_fsync, "us"),
        // workloads
        metric("workloads.gen_s", gen_s, "s"),
        metric("workloads.fanout_per_pub", oracle.fanout(), "count"),
    ];

    for (n, what) in &traced.failures {
        rounds[0].fail(*n, what);
    }
    rounds[0].attempted += traced.ops as u64;
    let _ = writeln!(
        report,
        "# traced replay of {} steps ({} publications, {} movements): {} spans in {}",
        traced.ops,
        traced.publishes,
        traced.moves,
        traced.spans.len(),
        file.display()
    );
    let _ = writeln!(
        report,
        "# replay wall {:.3} s; its first quarter {:.3} s traced, {:.3} s untraced; layer self \
         time {:.1} us/op against {:.1} us/op of process CPU on the real driver",
        traced.wall_s,
        traced.quarter_wall_s,
        untraced.wall_s,
        ratio(layer_us, ops),
        real_cpu_us
    );
    let _ = writeln!(
        report,
        "# {:<34} {:>9} {:>12} {:>10}",
        "span", "calls", "self ms", "us/op"
    );
    for (name, (n, total_us)) in &names_us {
        let _ = writeln!(
            report,
            "# {name:<34} {n:>9} {:>12.3} {:>10.2}",
            total_us / 1e3,
            ratio(*total_us, ops)
        );
    }
    let by_kind = |m: &BTreeMap<transmob_broker::MsgKind, u64>| {
        m.iter()
            .map(|(k, n)| format!("{k}={n}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let _ = writeln!(
        report,
        "# link messages of movement ops by kind: {}",
        by_kind(&traced.move_msgs)
    );
    Ok(metrics)
}
