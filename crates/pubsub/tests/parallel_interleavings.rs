//! Seeded interleaving smoke for the pooled matching schedule (the
//! loom-style tier of `scripts/ci.sh`, also run under TSAN when the
//! toolchain supports it).
//!
//! The worker pool claims publication chunks off a shared atomic
//! cursor, so the *schedule* — which worker matches which chunk, and
//! in which order results land — is nondeterministic. The stitching
//! must erase that: `matching_batch_seeded` forces adversarial claim
//! orders via a seeded shuffle, and every (seed, worker-count,
//! shard-count) combination must reproduce the caller-thread answers
//! exactly.
//!
//! `INTERLEAVE_SEEDS` scales the seed sweep (default 64).

use transmob_pubsub::{Filter, MatchIndex, Parallelism, Publication};

fn seeds() -> u64 {
    std::env::var("INTERLEAVE_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64)
}

/// Splitmix64 for the deterministic workload stream.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const ATTRS: [&str; 7] = ["a0", "a1", "a2", "a3", "a4", "a5", "a6"];

fn filter(i: usize) -> Filter {
    let h = mix(i as u64);
    let a = ATTRS[i % ATTRS.len()];
    let b = ATTRS[(i + 1 + (h as usize >> 8) % (ATTRS.len() - 1)) % ATTRS.len()];
    let lo = (h % 80) as i64;
    match h % 4 {
        0 => Filter::builder().ge(a, lo).le(a, lo + 30).build(),
        1 => Filter::builder()
            .ge(a, lo)
            .le(a, lo + 30)
            .ge(b, lo / 2)
            .build(),
        2 => Filter::builder().eq(a, lo / 4).any(b).build(),
        _ => Filter::builder()
            .ge(a, lo)
            .le(a, lo + 40)
            .ne(a, lo + 7)
            .build(),
    }
}

fn pubs(n: usize) -> Vec<Publication> {
    (0..n)
        .map(|i| {
            let mut p = Publication::new();
            for (j, a) in ATTRS.iter().enumerate() {
                if !mix((i as u64) << 16 | j as u64).is_multiple_of(3) {
                    p.set(*a, (mix((j as u64) << 32 | i as u64) % 100) as i64);
                }
            }
            p
        })
        .collect()
}

/// Every forced schedule over every layout reproduces the
/// caller-thread answers bit-for-bit.
#[test]
fn seeded_schedules_are_invisible() {
    let batch = pubs(48);
    let mut sequential: MatchIndex<u64> = MatchIndex::new();
    for i in 0..400 {
        sequential.insert(i as u64, &filter(i));
    }
    let expected = sequential.matching_batch(&batch);
    for (shards, workers) in [(2usize, 2usize), (4, 2), (4, 4), (7, 3), (8, 8)] {
        let mut ix = sequential.clone();
        ix.set_parallelism(Parallelism::sharded(shards, workers));
        for seed in 0..seeds() {
            assert_eq!(
                ix.matching_batch_seeded(&batch, seed),
                expected,
                "schedule seed {seed} over {shards} shards / {workers} workers"
            );
        }
    }
}

/// The smoke stays meaningful under churn: after removals and
/// re-inserts (slot recycling), forced schedules still agree.
#[test]
fn seeded_schedules_agree_after_churn() {
    let batch = pubs(32);
    let mut sequential: MatchIndex<u64> = MatchIndex::new();
    for i in 0..300 {
        sequential.insert(i as u64, &filter(i));
    }
    for i in (0..300).step_by(3) {
        sequential.remove(&(i as u64));
    }
    for i in (0..300).step_by(6) {
        sequential.insert(i as u64, &filter(i + 1000));
    }
    let expected = sequential.matching_batch(&batch);
    let mut ix = sequential.clone();
    ix.set_parallelism(Parallelism::sharded(5, 3));
    ix.check_shard_invariants();
    for seed in 0..seeds().min(32) {
        assert_eq!(ix.matching_batch_seeded(&batch, seed), expected);
    }
}

/// Pool reuse under adversarial schedules: one index dispatches the
/// whole seed sweep through a single persistent pool — the helpers
/// spawn once, every forced schedule reuses them, and no schedule can
/// corrupt the per-slot scratch another schedule left behind.
#[test]
fn seeded_schedules_reuse_one_pool() {
    let batch = pubs(40);
    let mut ix: MatchIndex<u64> = MatchIndex::new();
    for i in 0..350 {
        ix.insert(i as u64, &filter(i));
    }
    let expected = ix.matching_batch(&batch);
    ix.set_parallelism(Parallelism::sharded(3, 4));
    let mut spawned_after_first = None;
    for seed in 0..seeds() {
        assert_eq!(
            ix.matching_batch_seeded(&batch, seed),
            expected,
            "schedule seed {seed} with a reused pool"
        );
        let spawned = ix.pool_stats().workers_spawned;
        match spawned_after_first {
            None => {
                assert_eq!(spawned, 3, "fan-out 4 spawns exactly three helpers");
                spawned_after_first = Some(spawned);
            }
            Some(first) => assert_eq!(
                spawned, first,
                "seed {seed} respawned workers instead of reusing the pool"
            ),
        }
    }
}
