//! A wide-attribute workload for the match tables.
//!
//! The paper's Fig. 7 workloads concentrate on one or two attributes,
//! which is the right shape for covering structure but leaves most of
//! a `MatchIndex` idle. This module spreads subscriptions over
//! [`WIDE_ATTRS`] numeric attributes, and tunes the selectivities so a
//! publication produces many constraint hits but few full matches —
//! the regime where the per-hit countdown cost dominates matching.
//!
//! Every generator is a pure function of its index arguments, so
//! benches and differential tests reproduce byte-identical tables.

use transmob_pubsub::{Filter, Publication};

/// The attribute universe subscriptions draw from.
pub const WIDE_ATTRS: [&str; 12] = [
    "k00", "k01", "k02", "k03", "k04", "k05", "k06", "k07", "k08", "k09", "k10", "k11",
];

/// Attribute value space: `[0, SPACE)`.
pub const SPACE: i64 = 100_000;

/// Width of each subscription's acceptance band per attribute (20% of
/// the space, so a random publication satisfies a given band with
/// probability ≈ 0.20 and a two-band subscription with ≈ 0.04).
pub const BAND: i64 = 20_000;

/// Splitmix64: the deterministic pseudo-random stream behind the
/// generators.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `idx`-th wide subscription filter: a two-attribute conjunction
/// of interval bands on distinct attributes, attributes and band
/// positions drawn deterministically from `idx`.
pub fn wide_sub_filter(idx: usize) -> Filter {
    let h = mix(idx as u64);
    let a = (idx % WIDE_ATTRS.len()) as u64;
    // A second attribute distinct from the first.
    let b = (a + 1 + (h >> 8) % (WIDE_ATTRS.len() as u64 - 1)) % WIDE_ATTRS.len() as u64;
    let lo_a = (h % (SPACE - BAND) as u64) as i64;
    let lo_b = (mix(h) % (SPACE - BAND) as u64) as i64;
    Filter::builder()
        .ge(WIDE_ATTRS[a as usize], lo_a)
        .le(WIDE_ATTRS[a as usize], lo_a + BAND)
        .ge(WIDE_ATTRS[b as usize], lo_b)
        .le(WIDE_ATTRS[b as usize], lo_b + BAND)
        .build()
}

/// The `i`-th wide publication: one value on every attribute of the
/// universe, spread deterministically over the space.
pub fn wide_publication(i: usize) -> Publication {
    let mut p = Publication::new();
    for (j, attr) in WIDE_ATTRS.iter().enumerate() {
        let v = (mix((i as u64) << 8 | j as u64) % SPACE as u64) as i64;
        p.set(*attr, v);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(wide_sub_filter(7), wide_sub_filter(7));
        assert_eq!(wide_publication(7), wide_publication(7));
    }

    #[test]
    fn subscriptions_constrain_two_distinct_attributes() {
        for idx in 0..100 {
            let f = wide_sub_filter(idx);
            assert_eq!(f.arity(), 2, "sub {idx} must conjoin two attributes");
            assert!(f.is_satisfiable());
        }
    }

    #[test]
    fn selectivity_is_in_the_target_regime() {
        // With 1k subs and 64 pubs, per-publication band hits should
        // be plentiful while full matches stay rare; this pins the
        // hits ≫ matches shape that makes the countdown the hot loop.
        let filters: Vec<Filter> = (0..1000).map(wide_sub_filter).collect();
        let mut hits = 0usize;
        let mut matches = 0usize;
        for i in 0..64 {
            let p = wide_publication(i);
            for f in &filters {
                if f.matches(&p) {
                    matches += 1;
                }
                hits += f
                    .constraints()
                    .filter(|(attr, c)| p.get(attr).is_some_and(|v| c.satisfied_by(v)))
                    .count();
            }
        }
        assert!(hits > 10 * matches, "hits {hits} vs matches {matches}");
        assert!(matches > 0, "workload must produce some matches");
    }
}
