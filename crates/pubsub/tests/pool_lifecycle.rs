//! Regression tests pinning the worker-pool lifecycle contract of
//! batch matching:
//!
//! - fewer than two workers never touch the pool — no threads, no
//!   fan-outs: the batch is matched on the caller;
//! - two or more spawn the helper threads lazily on the first
//!   multi-worker batch and **reuse** them for every later batch (no
//!   per-batch spawning);
//! - the unseeded entry point never fans out beyond the machine's
//!   hardware parallelism;
//! - clones share one pool, so a cloned index rides the already
//!   spawned workers.
//!
//! The counters come from [`MatchIndex::pool_stats`]. The seeded entry
//! point is used where the test must observe real helper threads even
//! on single-core CI boxes (the unseeded path clamps to the hardware).

use transmob_pubsub::{Filter, MatchIndex, Parallelism, Publication};

fn loaded(n: usize) -> MatchIndex<u64> {
    let mut ix = MatchIndex::new();
    for i in 0..n {
        let lo = (i % 50) as i64;
        ix.insert(
            i as u64,
            &Filter::builder().ge("x", lo).le("x", lo + 20).build(),
        );
    }
    ix
}

fn batch(n: usize) -> Vec<Publication> {
    (0..n)
        .map(|i| Publication::new().with("x", (i % 60) as i64))
        .collect()
}

#[test]
fn fewer_than_two_workers_touch_no_pool() {
    let pubs = batch(64);
    for par in [Parallelism::sequential(), Parallelism::sharded(4, 1)] {
        let mut ix = loaded(300);
        ix.set_parallelism(par);
        for _ in 0..5 {
            let _ = ix.matching_batch(&pubs);
        }
        let stats = ix.pool_stats();
        assert_eq!(
            stats.workers_spawned, 0,
            "{par:?} must run inline, spawning nothing"
        );
        assert_eq!(
            stats.runs, 0,
            "{par:?} must not dispatch through the pool at all"
        );
    }
}

#[test]
fn pool_spawns_lazily_then_reuses() {
    let pubs = batch(64);
    let mut ix = loaded(300);
    ix.set_parallelism(Parallelism::sharded(2, 4));
    // Lazy: configuring parallelism alone starts nothing.
    assert_eq!(ix.pool_stats().workers_spawned, 0);
    assert_eq!(ix.pool_stats().runs, 0);

    let expected = ix.matching_batch(&pubs);
    let first = ix.matching_batch_seeded(&pubs, 1);
    assert_eq!(first, expected);
    let after_first = ix.pool_stats();
    // Fan-out 4 = the caller plus three pool helpers.
    assert_eq!(after_first.workers_spawned, 3, "helpers spawn on first use");

    for seed in 2..12 {
        assert_eq!(ix.matching_batch_seeded(&pubs, seed), expected);
    }
    let after_many = ix.pool_stats();
    assert_eq!(
        after_many.workers_spawned, after_first.workers_spawned,
        "later batches must reuse the spawned workers, not add more"
    );
    assert_eq!(
        after_many.runs,
        after_first.runs + 10,
        "every pooled batch is exactly one fan-out"
    );
}

#[test]
fn unseeded_fanout_is_clamped_to_hardware_parallelism() {
    let pubs = batch(64);
    let mut ix = loaded(300);
    ix.set_parallelism(Parallelism::sharded(2, 4));
    for _ in 0..3 {
        let _ = ix.matching_batch(&pubs);
    }
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cap = hw.saturating_sub(1).min(3);
    assert!(
        ix.pool_stats().workers_spawned <= cap,
        "unseeded batches spawned {} helpers, cap is {cap} (hw {hw})",
        ix.pool_stats().workers_spawned
    );
}

#[test]
fn clones_share_the_pool() {
    let pubs = batch(64);
    let mut ix = loaded(300);
    ix.set_parallelism(Parallelism::sharded(2, 4));
    let expected = ix.matching_batch(&pubs);
    assert_eq!(ix.matching_batch_seeded(&pubs, 7), expected);
    let spawned = ix.pool_stats().workers_spawned;
    assert_eq!(spawned, 3);

    let clone = ix.clone();
    assert_eq!(clone.matching_batch_seeded(&pubs, 8), expected);
    assert_eq!(
        clone.pool_stats().workers_spawned,
        spawned,
        "a cloned index must ride the original's workers"
    );
    assert_eq!(
        ix.pool_stats().workers_spawned,
        spawned,
        "the shared pool must not grow when a clone dispatches"
    );
}
