//! Stream-operator relocation: the paper's adaptive stream-processing
//! scenario (Sec. 1, [13][20]).
//!
//! A dataflow `filter → aggregate` pipeline runs over the pub/sub
//! network: a *source* publishes raw readings, an *aggregate operator*
//! (subscriber **and** publisher) consumes them and emits windowed
//! averages, and a *sink* consumes the averages. The query planner
//! decides the operator should run closer to the source and relocates
//! it with the transactional protocol — exercising simultaneous
//! subscriber *and* publisher mobility for one client.
//!
//! ```text
//! cargo run --example stream_operator_relocation
//! ```

use std::time::Duration;

use transmob::broker::Topology;
use transmob::core::{MobileBrokerConfig, ProtocolKind};
use transmob::pubsub::{BrokerId, ClientId, Filter, Publication, Value};
use transmob::runtime::Network;

fn main() {
    // A chain: source side (B1) — middle (B3) — sink side (B5).
    let net = Network::builder()
        .overlay(Topology::chain(5))
        .options(MobileBrokerConfig::reconfig())
        .start();

    let source = net.create_client(BrokerId(1), ClientId(1));
    let operator = net.create_client(BrokerId(5), ClientId(2)); // starts at the sink side
    let sink = net.create_client(BrokerId(5), ClientId(3));

    source.advertise(
        Filter::builder()
            .eq("stream", "temps")
            .any("celsius")
            .build(),
    );
    operator.subscribe(
        Filter::builder()
            .eq("stream", "temps")
            .ge("celsius", -50)
            .build(),
    );
    operator.advertise(
        Filter::builder()
            .eq("stream", "avg-temps")
            .any("avg")
            .build(),
    );
    sink.subscribe(
        Filter::builder()
            .eq("stream", "avg-temps")
            .any("avg")
            .build(),
    );
    assert!(net.quiesce(Duration::from_secs(5)));

    let reading = |c: i64| {
        Publication::new()
            .with("stream", "temps")
            .with("celsius", c)
    };

    // Window 1 processed at the sink side.
    let mut window = Vec::new();
    for c in [20, 22, 24] {
        source.publish(reading(c));
    }
    for _ in 0..3 {
        let r = operator
            .recv_timeout(Duration::from_secs(2))
            .expect("reading");
        if let Some(Value::Int(c)) = r.content.get("celsius").cloned() {
            window.push(c);
        }
    }
    let avg1 = window.iter().sum::<i64>() / window.len() as i64;
    operator.publish(
        Publication::new()
            .with("stream", "avg-temps")
            .with("avg", avg1)
            .with("window", 1),
    );
    println!("window 1 avg={avg1} computed at B5");

    // The planner relocates the operator next to the source. Readings
    // published while the operator is in transit are buffered by the
    // movement transaction and replayed at the new site.
    operator.move_to_async(BrokerId(1), ProtocolKind::Reconfig);
    for c in [30, 32, 34] {
        source.publish(reading(c));
    }
    let outcome = operator
        .next_move_outcome(Duration::from_secs(5))
        .expect("movement finished");
    assert!(outcome.committed);
    println!("operator relocated to B1 (transaction {})", outcome.m);

    // Window 2 processed at the source side — including the readings
    // published mid-flight.
    let mut window = Vec::new();
    for _ in 0..3 {
        let r = operator
            .recv_timeout(Duration::from_secs(2))
            .expect("reading after relocation");
        if let Some(Value::Int(c)) = r.content.get("celsius").cloned() {
            window.push(c);
        }
    }
    let avg2 = window.iter().sum::<i64>() / window.len() as i64;
    operator.publish(
        Publication::new()
            .with("stream", "avg-temps")
            .with("avg", avg2)
            .with("window", 2),
    );
    println!("window 2 avg={avg2} computed at B1 (no readings lost in transit)");

    // The sink saw both windows exactly once.
    let w1 = sink.recv_timeout(Duration::from_secs(2)).expect("window 1");
    let w2 = sink.recv_timeout(Duration::from_secs(2)).expect("window 2");
    println!("sink received: {w1}");
    println!("sink received: {w2}");
    assert!(sink.try_recv().is_none(), "sink saw duplicates");

    net.shutdown();
    println!("done");
}
