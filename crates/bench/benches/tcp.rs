//! Wire-protocol benchmarks for the TCP runtime: frame throughput of
//! the binary codec against the JSON debug codec over a real loopback
//! socket pair, and end-to-end publish→notify latency through a full
//! [`TcpNetwork`]. Recorded into `BENCH_tcp.json`
//! (`CRITERION_JSON=BENCH_tcp.json cargo bench -p transmob-bench
//! --bench tcp`); `scripts/bench_check.sh` gates the binary codec at
//! ≥ 2× the JSON message rate for 256-message batches.

use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, BenchmarkId, Criterion};
use transmob_broker::{PubSubMsg, Topology};
use transmob_core::{Message, MobileBrokerConfig};
use transmob_pubsub::{BrokerId, ClientId, Filter, PubId, Publication, PublicationMsg};
use transmob_runtime::codec::{Frame, FrameDecoder, FrameEncoder, WireMode};
use transmob_runtime::tcp::{TcpNetwork, TcpOptions, DEFAULT_DOWN_QUEUE_HWM};

/// A connected loopback socket pair.
fn sock_pair() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let dialed = TcpStream::connect(addr).expect("connect");
    let (accepted, _) = listener.accept().expect("accept");
    (dialed, accepted)
}

/// A publication batch shaped like broker traffic: a few attributes of
/// mixed type, names repeating across messages (what the binary
/// codec's string interner exploits).
fn make_batch(n: usize) -> Vec<Message> {
    (0..n)
        .map(|i| {
            Message::PubSub(PubSubMsg::Publish(PublicationMsg::new(
                PubId(i as u64),
                ClientId(1),
                Publication::new()
                    .with("symbol", format!("T{}", i % 32))
                    .with("price", (i as f64) * 0.25)
                    .with("volume", i as i64 * 100)
                    .with("halted", i % 7 == 0),
            )))
        })
        .collect()
}

/// One frame per iteration over a real socket, reader thread decoding
/// and acking on a channel — socket, syscall, and codec costs
/// included; msgs/sec follows as `batch / ns_per_iter`.
fn bench_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("tcp_throughput");
    for mode in [WireMode::Binary, WireMode::Json] {
        for batch in [64usize, 256] {
            let frame = Frame::Msg {
                from: 1,
                msgs: make_batch(batch),
            };
            g.bench_with_input(BenchmarkId::new(mode.token(), batch), &frame, |b, frame| {
                let (w_sock, r_sock) = sock_pair();
                let (ack_tx, ack_rx) = mpsc::channel::<usize>();
                let reader = std::thread::spawn(move || {
                    let mut r = BufReader::new(r_sock);
                    let mut dec = FrameDecoder::new(mode);
                    while let Ok(Some(f)) = dec.read_frame(&mut r) {
                        if let Frame::Msg { msgs, .. } = f {
                            if ack_tx.send(msgs.len()).is_err() {
                                break;
                            }
                        }
                    }
                });
                let mut enc = FrameEncoder::new(mode);
                let mut w = BufWriter::new(w_sock.try_clone().expect("clone"));
                b.iter(|| {
                    let bytes = enc.encode(frame).expect("encoding is total");
                    w.write_all(bytes).expect("write");
                    w.flush().expect("flush");
                    // The ack bounds the in-flight window so the
                    // loopback buffer cannot absorb the benchmark.
                    ack_rx.recv().expect("reader ack")
                });
                drop(w);
                let _ = w_sock.shutdown(Shutdown::Both);
                let _ = reader.join();
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_throughput);

/// Mirrors the vendored criterion's CLI filter semantics for the
/// manually measured section below.
fn label_selected(label: &str) -> bool {
    let filters: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    filters.is_empty() || filters.iter().any(|f| label.contains(f.as_str()))
}

fn append_json_row(group: &str, bench: &str, field: &str, value: f64, iters: usize) {
    let Ok(path) = std::env::var("CRITERION_JSON") else {
        return;
    };
    if let Ok(mut file) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    {
        // Stamped like the vendored criterion's rows: the figures mean
        // something only against a box of that size.
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let _ = writeln!(
            file,
            "{{\"group\":\"{group}\",\"bench\":\"{bench}\",\"{field}\":{value:.1},\"iters\":{iters},\"nproc\":{nproc}}}"
        );
    }
}

/// Publish→notify latency through a full two-broker overlay; returns
/// the p99 in nanoseconds.
fn measure_p99_latency(mode: WireMode, samples: usize) -> u64 {
    let net = TcpNetwork::builder()
        .overlay(Topology::chain(2))
        .options(MobileBrokerConfig::reconfig())
        .tcp(TcpOptions {
            wire: mode,
            down_queue_hwm: DEFAULT_DOWN_QUEUE_HWM,
            ..TcpOptions::default()
        })
        .bind(|_| "127.0.0.1:0".to_string())
        .start()
        .expect("sockets");
    let p = net.create_client(BrokerId(1), ClientId(1));
    let s = net.create_client(BrokerId(2), ClientId(2));
    let space = Filter::builder().ge("x", 0).build();
    p.advertise(space.clone());
    s.subscribe(space);
    std::thread::sleep(Duration::from_millis(150));
    for i in 0..10 {
        p.publish(Publication::new().with("x", i));
        s.recv_timeout(Duration::from_secs(2)).expect("warmup");
    }
    let mut lat: Vec<u64> = Vec::with_capacity(samples);
    for i in 0..samples {
        let t = Instant::now();
        p.publish(Publication::new().with("x", i as i64));
        s.recv_timeout(Duration::from_secs(2)).expect("delivery");
        lat.push(t.elapsed().as_nanos() as u64);
    }
    net.shutdown();
    lat.sort_unstable();
    lat[(lat.len() * 99 / 100).min(lat.len() - 1)]
}

/// The manually measured tail: p99 end-to-end latency per codec, plus
/// msgs/sec summary rows derived from the `tcp_throughput` timings
/// already appended to `CRITERION_JSON`.
fn latency_and_summary() {
    let quick = std::env::var_os("CRITERION_QUICK").is_some();
    let samples = if quick { 5 } else { 300 };
    for mode in [WireMode::Binary, WireMode::Json] {
        let label = format!("tcp_latency/{}/p99", mode.token());
        if !label_selected(&label) {
            continue;
        }
        let p99 = measure_p99_latency(mode, samples);
        println!("bench: {label:<50} {p99:>14} ns (p99 of {samples})");
        append_json_row(
            "tcp_latency",
            &format!("{}/p99", mode.token()),
            "ns_per_iter",
            p99 as f64,
            samples,
        );
    }
    // msgs/sec summary: derived from the last recorded timing of each
    // tcp_throughput bench (batch size is the bench id's suffix).
    let Ok(path) = std::env::var("CRITERION_JSON") else {
        return;
    };
    let Ok(contents) = std::fs::read_to_string(&path) else {
        return;
    };
    let mut latest: Vec<(String, f64)> = Vec::new();
    for line in contents.lines() {
        let Some(rest) = line.strip_prefix("{\"group\":\"tcp_throughput\",\"bench\":\"") else {
            continue;
        };
        let Some((bench, tail)) = rest.split_once('"') else {
            continue;
        };
        let Some(ns) = tail
            .strip_prefix(",\"ns_per_iter\":")
            .and_then(|t| t.split(',').next())
            .and_then(|t| t.parse::<f64>().ok())
        else {
            continue;
        };
        latest.retain(|(b, _)| b != bench);
        latest.push((bench.to_string(), ns));
    }
    for (bench, ns) in latest {
        let Some(batch) = bench.rsplit('/').next().and_then(|b| b.parse::<f64>().ok()) else {
            continue;
        };
        let rate = batch * 1e9 / ns.max(1.0);
        println!("bench: tcp_summary/{bench:<38} {rate:>14.0} msgs/sec");
        append_json_row("tcp_summary", &bench, "msgs_per_sec", rate, 1);
    }
}

fn main() {
    benches();
    latency_and_summary();
}
