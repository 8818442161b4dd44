//! Broker routing-table operation benchmarks, including the
//! DESIGN.md ablations:
//!
//! - publication forwarding cost vs. PRT size (the congestion knob);
//! - subscription handling with covering off / lazy / active;
//! - the covering-release strategies — the paper's conservative
//!   release vs. the precise variant — on the root-departure burst;
//! - what a routing row costs to hold, in bytes, and a subscription to
//!   install and forward, in time (DESIGN.md §18). The binary runs on
//!   the byte-counting allocator for the former; it adds two
//!   thread-local additions to every allocation of every group.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use transmob_broker::{
    BrokerConfig, BrokerCore, CoveringMode, Hop, Prt, PubSubMsg, Srt, SyncNet, Topology,
};
use transmob_core::{ClientOp, Message, MobileBroker, MobileBrokerConfig};
use transmob_pubsub::{
    AdvId, Advertisement, BrokerId, ClientId, Filter, PubId, Publication, PublicationMsg, SubId,
    Subscription,
};
use transmob_workloads::footprint::{measure, CountingAlloc};
use transmob_workloads::{
    full_space_adv, wide_publication, wide_sub_filter, SubWorkload, ATTR, ATTR_TAG, ATTR_Y,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn b(i: u32) -> BrokerId {
    BrokerId(i)
}

/// A broker with `n` workload subscriptions installed from a client
/// and the full-space advertisement pointing off-broker.
fn loaded_broker(n: usize, config: BrokerConfig) -> BrokerCore {
    let mut core = BrokerCore::new(b(1), [b(2), b(3)], config);
    core.handle(
        Hop::Broker(b(2)),
        PubSubMsg::Advertise(Advertisement::new(
            AdvId::new(ClientId(1), 0),
            full_space_adv(),
        )),
    );
    for i in 0..n {
        let cid = ClientId(1000 + i as u64);
        let sub = Subscription::new(SubId::new(cid, 0), SubWorkload::Covered.assign(i));
        core.handle(Hop::Client(cid), PubSubMsg::Subscribe(sub));
    }
    core
}

fn bench_publish_vs_table_size(c: &mut Criterion) {
    let mut g = c.benchmark_group("publish_forwarding");
    for n in [10usize, 100, 400] {
        let core = loaded_broker(n, BrokerConfig::plain());
        let p = PublicationMsg::new(PubId(1), ClientId(1), Publication::new().with(ATTR, 1500));
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |bch, _| {
            bch.iter_batched(
                || core.clone(),
                |mut core| core.handle(Hop::Broker(b(2)), PubSubMsg::Publish(black_box(p.clone()))),
                criterion::BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_subscribe_by_covering_mode(c: &mut Criterion) {
    let mut g = c.benchmark_group("subscribe");
    for (name, mode) in [
        ("off", CoveringMode::Off),
        ("lazy", CoveringMode::Lazy),
        ("active", CoveringMode::Active),
    ] {
        let config = BrokerConfig {
            sub_covering: mode,
            adv_covering: CoveringMode::Off,
            conservative_release: true,
            ..Default::default()
        };
        let core = loaded_broker(100, config);
        let sub = Subscription::new(
            SubId::new(ClientId(9999), 0),
            SubWorkload::Covered.instance(4, 50),
        );
        g.bench_function(name, |bch| {
            bch.iter_batched(
                || core.clone(),
                |mut core| {
                    core.handle(
                        Hop::Client(ClientId(9999)),
                        PubSubMsg::Subscribe(black_box(sub.clone())),
                    )
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

/// The DESIGN.md release-strategy ablation: cost of unsubscribing the
/// only forwarded root while many covered subscriptions are quenched
/// behind it.
fn bench_release_strategies(c: &mut Criterion) {
    let mut g = c.benchmark_group("root_unsubscribe_release");
    for (name, config) in [
        ("conservative", BrokerConfig::covering()),
        ("precise", BrokerConfig::covering_precise_release()),
    ] {
        // One root (forwarded) + 99 covered leaves (quenched).
        let mut core = BrokerCore::new(b(1), [b(2)], config);
        core.handle(
            Hop::Broker(b(2)),
            PubSubMsg::Advertise(Advertisement::new(
                AdvId::new(ClientId(1), 0),
                full_space_adv(),
            )),
        );
        let root = Subscription::new(
            SubId::new(ClientId(500), 0),
            SubWorkload::Covered.instance(0, 0),
        );
        core.handle(
            Hop::Client(ClientId(500)),
            PubSubMsg::Subscribe(root.clone()),
        );
        for i in 0..99 {
            let cid = ClientId(1000 + i as u64);
            let group = 1 + (i % 9);
            let sub = Subscription::new(
                SubId::new(cid, 0),
                SubWorkload::Covered.instance(group, (i / 9) as i64),
            );
            core.handle(Hop::Client(cid), PubSubMsg::Subscribe(sub));
        }
        g.bench_function(name, |bch| {
            bch.iter_batched(
                || core.clone(),
                |mut core| {
                    black_box(
                        core.handle(Hop::Client(ClientId(500)), PubSubMsg::Unsubscribe(root.id)),
                    )
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_advertise_flood(c: &mut Criterion) {
    let mut g = c.benchmark_group("advertise");
    let core = loaded_broker(200, BrokerConfig::plain());
    let adv = Advertisement::new(AdvId::new(ClientId(77), 0), full_space_adv());
    g.bench_function("flood_with_pull_200_subs", |bch| {
        bch.iter_batched(
            || core.clone(),
            |mut core| {
                core.handle(
                    Hop::Broker(b(3)),
                    PubSubMsg::Advertise(black_box(adv.clone())),
                )
            },
            criterion::BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// A PRT with `n` workload subscriptions (the 40-group random pool,
/// so range structure and shifts vary across the table).
fn loaded_prt(n: usize) -> Prt {
    let mut prt = Prt::new();
    for i in 0..n {
        let sub = Subscription::new(
            SubId::new(ClientId(i as u64), i as u32),
            SubWorkload::Random.assign(i),
        );
        prt.insert(sub, Hop::Client(ClientId(i as u64)));
    }
    prt
}

/// Publication matching through the counting match index, as the PRT
/// grows.
fn bench_prt_matching(c: &mut Criterion) {
    let mut g = c.benchmark_group("prt_matching");
    for n in [1_000usize, 10_000, 100_000] {
        let prt = loaded_prt(n);
        let p = Publication::new().with(ATTR, 1500);
        g.bench_with_input(BenchmarkId::new("indexed", n), &n, |bch, _| {
            bch.iter(|| black_box(prt.matching(black_box(&p))))
        });
    }
    g.finish();
}

/// Overlap (subscription-routing intersection) through the index, as
/// the SRT grows.
fn bench_srt_overlap(c: &mut Criterion) {
    let mut g = c.benchmark_group("srt_overlap");
    for n in [1_000usize, 10_000] {
        let mut srt = Srt::new();
        for i in 0..n {
            let adv = Advertisement::new(
                AdvId::new(ClientId(i as u64), i as u32),
                SubWorkload::Random.assign(i),
            );
            srt.insert(adv, Hop::Broker(b(2)));
        }
        let q = SubWorkload::Covered.instance(3, 7);
        g.bench_with_input(BenchmarkId::new("indexed", n), &n, |bch, _| {
            bch.iter(|| black_box(srt.overlapping(black_box(&q))))
        });
    }
    g.finish();
}

/// The containment queries behind the release cascade: enumerating
/// the candidates a withdrawn root had quenched (`covered_by`, the
/// `release_quenched_subs` hot path) and the quench check for a fresh
/// subscription (`covering`), through the dual-endpoint containment
/// index.
fn bench_covering_release(c: &mut Criterion) {
    let mut g = c.benchmark_group("covering_release");
    for n in [1_000usize, 10_000] {
        let prt = loaded_prt(n);
        // A withdrawn band-0 root releases everything it covered…
        let root = SubWorkload::Covered.instance(0, 0);
        // …and a fresh leaf asks whether anything quenches it.
        let leaf = SubWorkload::Covered.instance(3, 7);
        g.bench_with_input(BenchmarkId::new("covered_by_indexed", n), &n, |bch, _| {
            bch.iter(|| black_box(prt.covered_by(black_box(&root))))
        });
        g.bench_with_input(BenchmarkId::new("covering_indexed", n), &n, |bch, _| {
            bch.iter(|| black_box(prt.covering(black_box(&leaf))))
        });
    }
    g.finish();
}

/// A PRT mixing the 40-group random pool with the two-attribute and
/// string-prefix pools, so batch matching exercises the packed numeric
/// rows, the second attribute group, and the string buckets together.
fn loaded_prt_mixed(n: usize) -> Prt {
    let mut prt = Prt::new();
    for i in 0..n {
        let w = match i % 3 {
            0 => SubWorkload::Random,
            1 => SubWorkload::MultiAttr,
            _ => SubWorkload::StrPrefix,
        };
        let sub = Subscription::new(SubId::new(ClientId(i as u64), i as u32), w.assign(i / 3));
        prt.insert(sub, Hop::Client(ClientId(i as u64)));
    }
    prt
}

/// A batch of `k` publications spread across the attribute space, each
/// carrying all three workload attributes.
fn pub_batch(k: usize) -> Vec<Publication> {
    (0..k)
        .map(|i| {
            Publication::new()
                .with(ATTR, ((i * 997) % 100_000) as i64)
                .with(ATTR_Y, ((i * 131) % 6_000) as i64)
                .with(ATTR_TAG, format!("g{}x", i % 10))
        })
        .collect()
}

/// The forwarding query, `destinations_batch`. Every row processes the
/// *same* 256 publications per iteration, chunked at the row's batch
/// size, so `ns_per_iter` is directly comparable across batch sizes:
/// what a batch amortizes (the per-call set-up) is
/// `ns(batch1) / ns(batchK)`.
fn bench_publish_batch(c: &mut Criterion) {
    const TOTAL: usize = 256;
    let mut g = c.benchmark_group("publish_batch");
    for n in [1_000usize, 10_000] {
        let prt = loaded_prt_mixed(n);
        let pubs = pub_batch(TOTAL);
        let refs: Vec<&Publication> = pubs.iter().collect();
        for k in [1usize, 16, 64, 256] {
            g.bench_with_input(BenchmarkId::new(format!("batch{k}"), n), &n, |bch, _| {
                bch.iter(|| {
                    for chunk in refs.chunks(k) {
                        black_box(prt.destinations_batch(black_box(chunk)));
                    }
                })
            });
        }
        // The one-publication API.
        g.bench_with_input(BenchmarkId::new("unbatched", n), &n, |bch, _| {
            bch.iter(|| {
                for p in &pubs {
                    black_box(prt.destinations(black_box(p)));
                }
            })
        });
    }
    g.finish();
}

/// A PRT of `n` wide-attribute two-band subscriptions (hits ≫
/// matches) dealt round-robin to `hops` local clients; `hops == n` is a
/// hop of its own per row.
fn loaded_prt_wide(n: usize, hops: usize) -> Prt {
    let mut prt = Prt::new();
    for i in 0..n {
        let sub = Subscription::new(SubId::new(ClientId(i as u64), i as u32), wide_sub_filter(i));
        prt.insert(sub, Hop::Client(ClientId((i % hops) as u64)));
    }
    prt
}

/// The forwarding query on 10 000 wide rows by how many hops the table
/// names (DESIGN.md §7, "From match to destinations"): with one or
/// twenty the destinations are complete after a few attributes and the
/// match stops there; with a hop per row they never are, which prices
/// the unsaturated path and a 10 000-entry census. 64 publications an
/// iteration.
fn bench_forwarding_saturation(c: &mut Criterion) {
    const ROWS: usize = 10_000;
    let pubs: Vec<Publication> = (0..64).map(wide_publication).collect();
    let mut g = c.benchmark_group("forwarding_saturation");
    for (name, hops) in [("one_hop", 1), ("twenty_hops", 20), ("hop_per_row", ROWS)] {
        let prt = loaded_prt_wide(ROWS, hops);
        g.bench_function(name, |bch| {
            bch.iter(|| {
                for p in &pubs {
                    black_box(prt.destinations(black_box(p)));
                }
            })
        });
    }
    g.finish();
}

/// End-to-end publication routing over a 7-broker overlay
/// (DESIGN.md §15 ablation): the acyclic chain as baseline; the same
/// chain with the dedup gate forced on (`tree_dedup` — priced by the
/// <10% overhead bar in scripts/bench_check.sh); and cyclic variants
/// closing 1 and 3 extra edges, where publications fan out over the
/// redundant routes and the per-broker dedup windows drop the second
/// copies.
fn bench_cyclic_routing(c: &mut Criterion) {
    const BROKERS: u32 = 7;
    const EXTRA: [(u32, u32); 3] = [(1, 7), (2, 6), (3, 5)];
    let mut g = c.benchmark_group("cyclic_routing");
    for (name, extra, force_multipath) in [
        ("tree", 0usize, false),
        ("tree_dedup", 0, true),
        ("extra1", 1, false),
        ("extra3", 3, false),
    ] {
        let mut topo = Topology::chain(BROKERS);
        for (x, y) in EXTRA.iter().take(extra) {
            topo.add_edge(b(*x), b(*y)).expect("cycle-closing edge");
        }
        let config = if force_multipath {
            BrokerConfig::plain().with_multipath()
        } else {
            BrokerConfig::plain()
        };
        let mut net = SyncNet::builder().overlay(topo).options(config).start();
        net.client_send(
            b(1),
            ClientId(1),
            PubSubMsg::Advertise(Advertisement::new(
                AdvId::new(ClientId(1), 0),
                full_space_adv(),
            )),
        );
        for (i, home) in [(0u64, 4u32), (1, BROKERS)] {
            let cid = ClientId(100 + i);
            let sub =
                Subscription::new(SubId::new(cid, 0), SubWorkload::Covered.assign(i as usize));
            net.client_send(b(home), cid, PubSubMsg::Subscribe(sub));
        }
        // Fresh PubIds per iteration: reused ids would be swallowed by
        // the dedup windows and measure the drop path instead.
        let mut next_id = 0u64;
        g.bench_with_input(BenchmarkId::new(name, BROKERS), &BROKERS, |bch, _| {
            bch.iter(|| {
                next_id += 1;
                net.client_send(
                    b(1),
                    ClientId(1),
                    PubSubMsg::Publish(PublicationMsg::new(
                        PubId(next_id),
                        ClientId(1),
                        Publication::new().with(ATTR, 1500),
                    )),
                );
                black_box(net.take_deliveries())
            })
        });
    }
    g.finish();
}

/// What one publication costs a broker that hosts `K` running
/// subscribers who all match it (DESIGN.md §17): the match, `K` stub
/// deliveries and `K` `DeliverToApp` outputs. The content is eight
/// string attributes, so a per-subscriber copy of it would dominate.
fn bench_delivery_fanout(c: &mut Criterion) {
    let content: Publication = (0..8)
        .map(|i| {
            (
                format!("attr{i}"),
                format!("value-{i}-of-the-content").into(),
            )
        })
        .collect();
    let mut g = c.benchmark_group("delivery_fanout");
    for k in [1u64, 40, 400] {
        let topo = std::sync::Arc::new(Topology::chain(3));
        let mut broker = MobileBroker::new(b(2), topo, MobileBrokerConfig::reconfig());
        for i in 0..k {
            let cid = ClientId(1000 + i);
            broker.create_client(cid);
            broker.client_op(
                cid,
                ClientOp::Subscribe(Filter::builder().any("attr0").build()),
            );
        }
        // Fresh ids: a repeated one would stop at the stubs' dedup.
        let mut next_id = 0u64;
        g.bench_with_input(BenchmarkId::from_parameter(k), &k, |bch, _| {
            bch.iter(|| {
                next_id += 1;
                let p = PublicationMsg::new(PubId(next_id), ClientId(1), content.clone());
                black_box(broker.handle(
                    Hop::Broker(b(1)),
                    Message::PubSub(PubSubMsg::Publish(black_box(p))),
                ))
            })
        });
    }
    g.finish();
}

/// What a PRT of wide two-band rows holds per row once it has matched
/// a publication (filters, rows, forwarding column, index and packed
/// snapshot): the bytes are printed, and repeat exactly; the timed
/// routine is the build they were counted on.
fn bench_table_footprint(c: &mut Criterion) {
    let probe = wide_publication(0);
    let build = |n: usize| {
        let prt = loaded_prt_wide(n, n);
        black_box(prt.destinations(&probe));
        prt
    };
    let mut g = c.benchmark_group("table_footprint");
    for (name, n) in [("1k", 1_000usize), ("10k", 10_000)] {
        let (prt, heap) = measure(|| build(n));
        println!(
            "bench: table_footprint/{name:<34} {:>14} bytes a row",
            heap.live / prt.len() as isize
        );
        drop(prt);
        g.bench_function(name, |bch| bch.iter(|| black_box(build(n))));
    }
    g.finish();
}

/// The subscribe path on a subscription whose filter the caller keeps
/// a handle on, as a client stub or an upstream broker does:
/// `prt_insert` installs it in (and withdraws it from) a 10 000-row
/// PRT; `propagate` hands it to a broker of 1 000 rows that forwards
/// it toward an advertisement, then unsubscribes.
fn bench_subscribe_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("subscribe_path");
    let cid = ClientId(1_000_000);
    let sub = Subscription::new(SubId::new(cid, 0), wide_sub_filter(123_456));
    let mut prt = loaded_prt_wide(10_000, 10_000);
    g.bench_function("prt_insert", |bch| {
        bch.iter(|| {
            prt.insert(black_box(sub.clone()), Hop::Client(cid));
            black_box(prt.remove(sub.id))
        })
    });
    let mut core = BrokerCore::new(b(1), [b(2), b(3)], BrokerConfig::plain());
    core.handle(
        Hop::Broker(b(2)),
        PubSubMsg::Advertise(Advertisement::new(
            AdvId::new(ClientId(1), 0),
            Filter::new(vec![]),
        )),
    );
    for i in 0..1_000 {
        let from = ClientId(i as u64);
        let row = Subscription::new(SubId::new(from, 0), wide_sub_filter(i));
        core.handle(Hop::Client(from), PubSubMsg::Subscribe(row));
    }
    g.bench_function("propagate", |bch| {
        bch.iter(|| {
            let out = core.handle(Hop::Client(cid), PubSubMsg::Subscribe(sub.clone()));
            debug_assert_eq!(out.len(), 1, "forwarded toward the advertiser");
            black_box(out);
            black_box(core.handle(Hop::Client(cid), PubSubMsg::Unsubscribe(sub.id)))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_prt_matching,
    bench_srt_overlap,
    bench_covering_release,
    bench_publish_vs_table_size,
    bench_subscribe_by_covering_mode,
    bench_release_strategies,
    bench_advertise_flood,
    bench_publish_batch,
    bench_forwarding_saturation,
    bench_cyclic_routing,
    bench_delivery_fanout,
    bench_table_footprint,
    bench_subscribe_path
);
criterion_main!(benches);
