//! End-to-end movement-protocol benchmarks on the simulator under the
//! instant network model (nothing takes virtual time, so a row is the
//! CPU of the protocol and of the event loop): one full movement
//! transaction under each protocol, scaling with path length and
//! bystander population, plus the make-before-break covering ablation
//! and the hop-by-hop reconfiguration step in isolation.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use transmob_broker::Topology;
use transmob_core::{ClientOp, MobileBrokerConfig, ProtocolKind};
use transmob_pubsub::{BrokerId, ClientId};
use transmob_sim::{NetworkModel, Sim};
use transmob_workloads::{full_space_adv, SubWorkload};

fn b(i: u32) -> BrokerId {
    BrokerId(i)
}

/// A chain network with a publisher at B1, `bystanders` covered-
/// workload subscribers at the far end, and the mover (a root
/// subscription) also at the far end.
fn setup(chain: u32, bystanders: usize, config: MobileBrokerConfig) -> Sim {
    let mut net = Sim::builder()
        .overlay(Topology::chain(chain))
        .options(config)
        .network(NetworkModel::instant())
        .start();
    net.create_client(b(1), ClientId(1));
    net.client_op(ClientId(1), ClientOp::Advertise(full_space_adv()));
    for i in 0..bystanders {
        let cid = ClientId(1000 + i as u64);
        net.create_client(b(chain), cid);
        net.client_op(cid, ClientOp::Subscribe(SubWorkload::Covered.assign(i + 1)));
    }
    let mover = ClientId(500);
    net.create_client(b(chain), mover);
    net.client_op(
        mover,
        ClientOp::Subscribe(SubWorkload::Covered.instance(0, 99)),
    );
    net
}

fn bench_move_by_protocol(c: &mut Criterion) {
    let mut g = c.benchmark_group("one_movement");
    for (name, protocol, config) in [
        (
            "reconfig",
            ProtocolKind::Reconfig,
            MobileBrokerConfig::reconfig(),
        ),
        (
            "covering",
            ProtocolKind::Covering,
            MobileBrokerConfig::covering(),
        ),
        (
            "covering_make_before_break",
            ProtocolKind::Covering,
            MobileBrokerConfig {
                make_before_break: true,
                ..MobileBrokerConfig::covering()
            },
        ),
    ] {
        // A `Sim` is not `Clone` (a copy would share the brokers'
        // durability logs), so every iteration builds its own network.
        g.bench_function(name, |bch| {
            bch.iter_batched(
                || setup(8, 50, config.clone()),
                |mut net| {
                    net.client_op(ClientId(500), ClientOp::MoveTo(b(2), black_box(protocol)));
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_move_by_path_length(c: &mut Criterion) {
    let mut g = c.benchmark_group("reconfig_path_length");
    for chain in [4u32, 8, 16] {
        g.bench_with_input(BenchmarkId::from_parameter(chain), &chain, |bch, _| {
            bch.iter_batched(
                || setup(chain, 20, MobileBrokerConfig::reconfig()),
                |mut net| {
                    net.client_op(
                        ClientId(500),
                        ClientOp::MoveTo(b(2), ProtocolKind::Reconfig),
                    );
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_move_by_population(c: &mut Criterion) {
    let mut g = c.benchmark_group("move_vs_bystanders");
    for n in [10usize, 100, 300] {
        g.bench_with_input(BenchmarkId::new("covering", n), &n, |bch, _| {
            bch.iter_batched(
                || setup(8, n, MobileBrokerConfig::covering()),
                |mut net| {
                    net.client_op(
                        ClientId(500),
                        ClientOp::MoveTo(b(2), black_box(ProtocolKind::Covering)),
                    );
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    // The paper's Claims 1 and 2 (Sec. 4.4): a reconfiguration touches
    // the mover's own entries along the path, so its cost must not
    // depend on how many bystander rows the path brokers hold. At
    // these sizes a network is too big to build per iteration; the
    // mover ping-pongs B8 <-> B2 on one network instead (a committed
    // reconfiguration leaves nothing behind, and both directions walk
    // the same seven brokers), and a row is the mean of the two.
    for n in [300usize, 3_000, 30_000] {
        let mut net = setup(8, n, MobileBrokerConfig::reconfig());
        let mut dest = [b(2), b(8)].into_iter().cycle();
        g.bench_with_input(BenchmarkId::new("reconfig", n), &n, |bch, _| {
            bch.iter(|| {
                let to = dest.next().expect("cycle never ends");
                net.client_op(
                    ClientId(500),
                    ClientOp::MoveTo(to, black_box(ProtocolKind::Reconfig)),
                );
                let committed =
                    (net.metrics.finished_moves()).any(|(_, r)| r.committed == Some(true));
                assert!(committed, "the measured movement did not commit");
                net.metrics.reset_measurement(net.now());
            })
        });
        assert_eq!(net.total_anomalies(), 0);
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_move_by_protocol,
    bench_move_by_path_length,
    bench_move_by_population
);
criterion_main!(benches);
