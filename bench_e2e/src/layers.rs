//! Single-layer measurements taken beside the traced replay: each
//! calls one layer's public functions directly, on the workload's own
//! table and publications, so the numbers can be set against the
//! layer's spans in the replay.

use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

use transmob_broker::PubSubMsg;
use transmob_core::{ClientOp, DurabilityRecord, LoggedInput, Message};
use transmob_pubsub::{ClientId, MatchIndex, Parallelism, PubId, Publication, PublicationMsg};
use transmob_runtime::codec::{Frame, FrameDecoder, FrameEncoder, WireMode};
use transmob_sim::{SyncPolicy, Wal};

use crate::stats::median;
use crate::workloads::Spec;

/// Publications each kernel row matches (a multiple of every batch
/// size measured).
const KERNEL_PUBS: usize = 512;
const REPEATS: usize = 5;

/// Median over [`REPEATS`] runs of `f`, in microseconds.
fn median_us(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// The `pubsub` layer on the workload's table.
#[derive(Debug, Default)]
pub struct Kernels {
    pub insert_us: f64,
    pub remove_us: f64,
    pub matches_per_pub: f64,
    /// `matching`, one publication at a time.
    pub counter_us: f64,
    /// `matching_batch` under `Parallelism::sequential()` (the
    /// amortised sweep) at batch 16 and 64, per publication.
    pub sweep_us: [f64; 2],
    /// `matching_batch` under `Parallelism::sharded(4, nproc)` (the
    /// packed-snapshot kernel) at batch 16 and 64, per publication.
    pub packed_us: [f64; 2],
}

/// Times the three matching kernels, and row insertion and removal,
/// on an index holding every subscription of the workload: the table
/// the publishers' brokers match against.
pub fn kernels(spec: &Spec) -> Kernels {
    let rows: Vec<_> = spec
        .subscribers
        .iter()
        .flat_map(|s| s.filters.iter())
        .collect();
    let pubs: Vec<Publication> = spec.contents[..KERNEL_PUBS.min(spec.contents.len())].to_vec();
    let build = |par| {
        let mut index: MatchIndex<u32> = MatchIndex::with_parallelism(par);
        for (i, f) in rows.iter().enumerate() {
            index.insert(i as u32, f);
        }
        index
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let mut sequential = build(Parallelism::sequential());
    let packed = build(Parallelism::sharded(4, nproc));
    let per_pub = |index: &MatchIndex<u32>, batch: usize| {
        median_us(|| {
            for chunk in pubs.chunks(batch) {
                std::hint::black_box(index.matching_batch(std::hint::black_box(chunk)));
            }
        }) / pubs.len() as f64
    };
    let mut k = Kernels {
        matches_per_pub: pubs
            .iter()
            .map(|p| sequential.matching(p).len())
            .sum::<usize>() as f64
            / pubs.len() as f64,
        counter_us: median_us(|| {
            for p in &pubs {
                std::hint::black_box(sequential.matching(std::hint::black_box(p)));
            }
        }) / pubs.len() as f64,
        sweep_us: [per_pub(&sequential, 16), per_pub(&sequential, 64)],
        packed_us: [per_pub(&packed, 16), per_pub(&packed, 64)],
        ..Kernels::default()
    };
    // Writes: withdraw and re-insert the last rows of the full table.
    let tail = rows.len() - rows.len().min(256);
    let (mut removes, mut inserts) = (Vec::new(), Vec::new());
    for _ in 0..REPEATS {
        let t0 = Instant::now();
        for i in tail..rows.len() {
            sequential.remove(&(i as u32));
        }
        let t1 = Instant::now();
        for (i, f) in rows.iter().enumerate().skip(tail) {
            sequential.insert(i as u32, f);
        }
        let per_row = |d: std::time::Duration| d.as_secs_f64() * 1e6 / (rows.len() - tail) as f64;
        removes.push(per_row(t1 - t0));
        inserts.push(per_row(t1.elapsed()));
    }
    k.remove_us = median(&removes);
    k.insert_us = median(&inserts);
    k
}

fn publish_msg(i: usize, content: &Publication) -> Message {
    Message::PubSub(PubSubMsg::Publish(PublicationMsg::new(
        PubId(i as u64),
        ClientId(1),
        content.clone(),
    )))
}

/// A connected loopback socket pair.
fn socket_pair() -> std::io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let dialed = TcpStream::connect(listener.local_addr()?)?;
    let (accepted, _) = listener.accept()?;
    Ok((dialed, accepted))
}

/// Round trip of a one-publication frame over a bare loopback socket
/// pair with the overlay's framing and the sockets' default options
/// (write, flush, read and decode, then the same back), in
/// microseconds: what a link costs with no broker on either end.
pub fn socket_rtt_us(spec: &Spec) -> std::io::Result<f64> {
    const TRIPS: usize = 200;
    let (a, b) = socket_pair()?;
    let mut ends = [(a.try_clone()?, a), (b.try_clone()?, b)].map(|(r, w)| {
        (
            BufReader::new(r),
            BufWriter::new(w),
            FrameEncoder::new(WireMode::Binary),
            FrameDecoder::new(WireMode::Binary),
        )
    });
    let mut samples = Vec::with_capacity(TRIPS);
    for i in 0..TRIPS {
        let frame = Frame::Msg {
            from: 1,
            msgs: vec![publish_msg(i, &spec.contents[i % spec.contents.len()])],
        };
        let t0 = Instant::now();
        for (tx, rx) in [(0, 1), (1, 0)] {
            let (_, writer, encoder, _) = &mut ends[tx];
            writer.write_all(encoder.encode(&frame).expect("binary encoding is total"))?;
            writer.flush()?;
            let (reader, _, _, decoder) = &mut ends[rx];
            let echoed = decoder
                .read_frame(reader)
                .map_err(|e| std::io::Error::other(e.to_string()))?;
            assert_eq!(echoed.as_ref(), Some(&frame), "frame changed on the wire");
        }
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&samples))
}

/// The file WAL of `transmob-sim` under both sync policies: the cost
/// of `append_batch` for a 16-record batch of this workload's
/// publications flushed to the OS only, and what `fdatasync` adds to
/// it, both in microseconds per batch.
pub fn file_wal_us(spec: &Spec, dir: &std::path::Path) -> std::io::Result<(f64, f64)> {
    const BATCHES: usize = 20;
    std::fs::create_dir_all(dir)?;
    let batch: Vec<DurabilityRecord> = spec.contents[..16]
        .iter()
        .map(|p| {
            DurabilityRecord::new(LoggedInput::ClientOp {
                client: ClientId(1),
                op: ClientOp::Publish(p.clone()),
            })
        })
        .collect();
    let mut per_policy = [0.0; 2];
    for (slot, policy) in [SyncPolicy::OsBuffer, SyncPolicy::Data]
        .into_iter()
        .enumerate()
    {
        let path = dir.join(format!("wal-{}-{}.jsonl", spec.name, slot));
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open_with(&path, policy)?;
        let mut samples = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            let t0 = Instant::now();
            wal.append_batch(&batch)?;
            samples.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        per_policy[slot] = median(&samples);
        drop(wal);
        std::fs::remove_file(&path)?;
    }
    Ok((per_policy[0], (per_policy[1] - per_policy[0]).max(0.0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn kernels_agree_on_the_workload_table() {
        let spec = workloads::build("tcp-fanout", 2).unwrap();
        let k = kernels(&spec);
        // 200 two-band rows at 4 % selectivity: ~8 matches a publication.
        assert!(k.matches_per_pub > 2.0 && k.matches_per_pub < 20.0, "{k:?}");
        for v in [
            k.counter_us,
            k.sweep_us[0],
            k.sweep_us[1],
            k.packed_us[0],
            k.packed_us[1],
        ] {
            assert!(v > 0.0 && v.is_finite(), "{k:?}");
        }
        assert!(k.insert_us > 0.0 && k.remove_us > 0.0, "{k:?}");
    }

    #[test]
    fn socket_and_wal_probes_return_positive_times() {
        let spec = workloads::build("tcp-moves", 2).unwrap();
        assert!(socket_rtt_us(&spec).unwrap() > 0.0);
        let dir = crate::out_dir().join("test-layers");
        let (append, fsync) = file_wal_us(&spec, &dir).unwrap();
        assert!(append > 0.0 && fsync >= 0.0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
