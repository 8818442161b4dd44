//! Differential oracle for the counting match index behind `Srt`/`Prt`:
//! on randomized filter tables — including pending (shadow) routes and
//! insert → remove → re-insert churn — the indexed queries must return
//! exactly what the linear reference scans return.
//!
//! The routing layer also cross-checks every indexed query against the
//! scan via `debug_assert_eq!`; this test states the property
//! explicitly so it keeps holding in release builds too.

use proptest::prelude::*;
use transmob_broker::{Hop, Parallelism, PendingRoute, Prt, Srt};
use transmob_pubsub::{
    AdvId, Advertisement, BrokerId, ClientId, Filter, MoveId, Publication, SubId, Subscription,
};

const ATTRS: [&str; 3] = ["x", "y", "t"];
const WORDS: [&str; 5] = ["alpha", "alps", "beta", "al", ""];

/// One predicate spec: attribute, operator shape, operand seed.
type PredSpec = (usize, u8, i64);

fn apply_spec(
    b: transmob_pubsub::FilterBuilder,
    (ai, kind, v): PredSpec,
) -> transmob_pubsub::FilterBuilder {
    let a = ATTRS[ai % ATTRS.len()];
    match kind % 8 {
        0 => b.ge(a, v),
        1 => b.le(a, v),
        2 => b.ge(a, v).le(a, v + 15),
        3 => b.eq(a, v),
        4 => b.ne(a, v),
        5 => b.eq(a, WORDS[(v.unsigned_abs() as usize) % WORDS.len()]),
        6 => b.prefix(a, WORDS[(v.unsigned_abs() as usize) % WORDS.len()]),
        _ => b.any(a),
    }
}

fn build_filter(specs: &[PredSpec]) -> Filter {
    specs
        .iter()
        .fold(Filter::builder(), |b, s| apply_spec(b, *s))
        .build()
}

fn arb_filter() -> impl Strategy<Value = Vec<PredSpec>> {
    proptest::collection::vec((0usize..3, 0u8..8, -30i64..30), 1..4)
}

/// A churn step over the table: insert under a sequence id, remove a
/// (possibly absent) id, or tag a row with a pending route.
fn arb_steps() -> impl Strategy<Value = Vec<(u8, u64, Vec<PredSpec>)>> {
    proptest::collection::vec((0u8..4, 0u64..12, arb_filter()), 1..30)
}

fn probe_pubs() -> Vec<Publication> {
    let mut out = vec![Publication::new()];
    for x in [-35i64, -10, 0, 7, 15, 29, 45] {
        out.push(Publication::new().with("x", x).with("y", -x));
    }
    for w in WORDS {
        out.push(Publication::new().with("t", w).with("x", 5));
    }
    out.push(
        Publication::new()
            .with("x", 3)
            .with("y", 3)
            .with("t", "alpha"),
    );
    out
}

/// Builds a PRT and an SRT by replaying the step sequence; steps 0/1
/// insert (sometimes colliding on the id, re-using the stored filter
/// so the duplicate path stays legal), step 2 removes, step 3 installs
/// a pending route.
fn replay(steps: &[(u8, u64, Vec<PredSpec>)]) -> (Prt, Srt) {
    let mut prt = Prt::new();
    let mut srt = Srt::new();
    for (i, (op, slot, specs)) in steps.iter().enumerate() {
        let sid = SubId::new(ClientId(*slot), 0);
        let aid = AdvId::new(ClientId(*slot), 0);
        match op % 4 {
            0 | 1 => {
                // Re-inserting an occupied id with a different filter is
                // a protocol violation the table reports; keep the
                // replay legal by only inserting into free slots.
                if prt.get(sid).is_none() {
                    let f = build_filter(specs);
                    prt.insert(Subscription::new(sid, f), Hop::Client(ClientId(*slot)));
                }
                if srt.get(aid).is_none() {
                    let f = build_filter(specs);
                    srt.insert(Advertisement::new(aid, f), Hop::Broker(BrokerId(2)));
                }
            }
            2 => {
                prt.remove(sid);
                srt.remove(aid);
            }
            _ => {
                if let Some(e) = prt.get_mut(sid) {
                    e.pending = Some(PendingRoute {
                        move_id: MoveId(i as u64),
                        lasthop: Hop::Broker(BrokerId(9)),
                    });
                }
                if let Some(e) = srt.get_mut(aid) {
                    e.pending = Some(PendingRoute {
                        move_id: MoveId(i as u64),
                        lasthop: Hop::Broker(BrokerId(9)),
                    });
                }
            }
        }
    }
    (prt, srt)
}

/// The same replay with the tables switched to a sharded layout and a
/// live worker pool.
fn replay_parallel(steps: &[(u8, u64, Vec<PredSpec>)]) -> (Prt, Srt) {
    let (mut prt, mut srt) = replay(steps);
    prt.set_parallelism(Parallelism::sharded(4, 2));
    srt.set_parallelism(Parallelism::sharded(4, 2));
    (prt, srt)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Indexed publication matching ≡ the linear scan, after churn.
    #[test]
    fn prt_matching_equals_linear(steps in arb_steps()) {
        let (prt, _) = replay(&steps);
        for p in probe_pubs() {
            prop_assert_eq!(prt.matching(&p), prt.matching_linear(&p), "pub {}", p);
        }
    }

    /// Indexed overlap ≡ the linear scan on both tables, after churn.
    #[test]
    fn overlap_equals_linear(steps in arb_steps(), q in arb_filter()) {
        let (prt, srt) = replay(&steps);
        let query = build_filter(&q);
        prop_assert_eq!(prt.overlapping(&query), prt.overlapping_linear(&query));
        prop_assert_eq!(srt.overlapping(&query), srt.overlapping_linear(&query));
    }

    /// The joined route queries agree with the scans *and* carry the
    /// pending (shadow) hops of in-flight movements.
    #[test]
    fn route_queries_expose_pending_hops(steps in arb_steps(), q in arb_filter()) {
        let (prt, srt) = replay(&steps);
        for p in probe_pubs() {
            let routes = prt.matching_routes(&p);
            let ids: Vec<SubId> = routes.iter().map(|(id, _, _)| *id).collect();
            prop_assert_eq!(&ids, &prt.matching_linear(&p));
            for (id, active, pending) in routes {
                let e = prt.get(id).unwrap();
                prop_assert_eq!(active, e.lasthop);
                prop_assert_eq!(pending, e.pending.as_ref().map(|pd| pd.lasthop));
            }
        }
        let query = build_filter(&q);
        let routes = srt.overlapping_routes(&query);
        let ids: Vec<AdvId> = routes.iter().map(|(id, _, _)| *id).collect();
        prop_assert_eq!(&ids, &srt.overlapping_linear(&query));
        for (id, active, pending) in routes {
            let e = srt.get(id).unwrap();
            prop_assert_eq!(active, e.lasthop);
            prop_assert_eq!(pending, e.pending.as_ref().map(|pd| pd.lasthop));
        }
    }

    /// Indexed containment (`covering` / `covered_by`) ≡ the linear
    /// `Filter::covers` scans on both tables, after churn — including
    /// rows that carry pending (shadow) routes.
    #[test]
    fn containment_equals_linear(steps in arb_steps(), q in arb_filter()) {
        let (prt, srt) = replay(&steps);
        let query = build_filter(&q);
        prop_assert_eq!(prt.covering(&query), prt.covering_linear(&query));
        prop_assert_eq!(prt.covered_by(&query), prt.covered_by_linear(&query));
        prop_assert_eq!(srt.covering(&query), srt.covering_linear(&query));
        prop_assert_eq!(srt.covered_by(&query), srt.covered_by_linear(&query));
    }

    /// The containment answers are semantically right, not merely
    /// scan-consistent: every reported id really stands in the claimed
    /// `Filter::covers` relation with the query.
    #[test]
    fn containment_is_sound(steps in arb_steps(), q in arb_filter()) {
        let (prt, srt) = replay(&steps);
        let query = build_filter(&q);
        for id in prt.covering(&query) {
            prop_assert!(prt.get(id).unwrap().sub.filter.covers(&query));
        }
        for id in prt.covered_by(&query) {
            prop_assert!(query.covers(&prt.get(id).unwrap().sub.filter));
        }
        for id in srt.covering(&query) {
            prop_assert!(srt.get(id).unwrap().adv.filter.covers(&query));
        }
        for id in srt.covered_by(&query) {
            prop_assert!(query.covers(&srt.get(id).unwrap().adv.filter));
        }
    }

    /// Sharded tables answer every query family exactly like the
    /// sequential tables and the linear scans, after churn: the
    /// partitioned index is a pure layout change, never a semantic one.
    #[test]
    fn sharded_tables_agree_with_sequential_and_linear(
        steps in arb_steps(),
        q in arb_filter(),
    ) {
        let (prt, srt) = replay(&steps);
        let (pprt, psrt) = replay_parallel(&steps);
        for p in probe_pubs() {
            prop_assert_eq!(pprt.matching(&p), prt.matching_linear(&p), "pub {}", p);
        }
        let query = build_filter(&q);
        prop_assert_eq!(pprt.overlapping(&query), prt.overlapping_linear(&query));
        prop_assert_eq!(psrt.overlapping(&query), srt.overlapping_linear(&query));
        prop_assert_eq!(pprt.covering(&query), prt.covering_linear(&query));
        prop_assert_eq!(pprt.covered_by(&query), prt.covered_by_linear(&query));
        prop_assert_eq!(psrt.covering(&query), srt.covering_linear(&query));
        prop_assert_eq!(psrt.covered_by(&query), srt.covered_by_linear(&query));
    }

    /// `matching_batch` spread over the worker pool on sharded tables
    /// returns publication-for-publication exactly what it returns on
    /// the caller thread, and what the linear scans return.
    #[test]
    fn pooled_batch_equals_caller_batch(steps in arb_steps()) {
        let (prt, _) = replay(&steps);
        let (pprt, _) = replay_parallel(&steps);
        let pubs = probe_pubs();
        let par = pprt.matching_batch(&pubs);
        let seq = prt.matching_batch(&pubs);
        prop_assert_eq!(&par, &seq);
        for (i, p) in pubs.iter().enumerate() {
            prop_assert_eq!(&par[i], &prt.matching_linear(p), "pub {}", p);
        }
    }

    /// Probes *between* the writes, on a table big enough that the
    /// index's packed snapshot is built, aged by inserts and removes
    /// beside it (freed slots parked, then reused after a rebuild) and
    /// rebuilt several times over: at every step, single and batch
    /// matching ≡ the linear scan.
    #[test]
    fn matching_equals_linear_between_writes(
        base in proptest::collection::vec(arb_filter(), 40..80),
        steps in proptest::collection::vec((0u8..3, 0u64..120, arb_filter(), 0usize..4), 1..160),
    ) {
        let mut prt = Prt::new();
        for (i, specs) in base.iter().enumerate() {
            let sid = SubId::new(ClientId(i as u64), 0);
            prt.insert(Subscription::new(sid, build_filter(specs)), Hop::Client(ClientId(1)));
        }
        let pubs = probe_pubs();
        for (n, (op, slot, specs, probes)) in steps.iter().enumerate() {
            let sid = SubId::new(ClientId(*slot), 0);
            // Removes twice as often as not hit a live row (ids below
            // the base size); inserts refill freed ids and add new ones.
            if *op == 0 {
                prt.remove(sid);
            } else if prt.get(sid).is_none() {
                prt.insert(Subscription::new(sid, build_filter(specs)), Hop::Client(ClientId(1)));
            }
            // 0 probes: consecutive writes with no probe between them.
            for p in pubs.iter().cycle().skip(n).take(*probes) {
                prop_assert_eq!(prt.matching(p), prt.matching_linear(p), "step {} pub {}", n, p);
            }
            if *probes == 3 {
                let got = prt.matching_batch(&pubs);
                for (i, p) in pubs.iter().enumerate() {
                    prop_assert_eq!(&got[i], &prt.matching_linear(p), "step {} pub {}", n, p);
                }
            }
        }
    }

    /// Serde round-trip rebuilds an index that still agrees with the
    /// scans (crash-recovery path of the Sec. 3.5 persistence sketch).
    #[test]
    fn rebuilt_index_agrees_after_round_trip(steps in arb_steps(), q in arb_filter()) {
        let (prt, srt) = replay(&steps);
        let prt2: Prt = serde_json::from_str(&serde_json::to_string(&prt).unwrap()).unwrap();
        let srt2: Srt = serde_json::from_str(&serde_json::to_string(&srt).unwrap()).unwrap();
        prop_assert_eq!(&prt, &prt2);
        prop_assert_eq!(&srt, &srt2);
        let query = build_filter(&q);
        for p in probe_pubs() {
            prop_assert_eq!(prt2.matching(&p), prt.matching_linear(&p));
        }
        prop_assert_eq!(prt2.covering(&query), prt.covering_linear(&query));
        prop_assert_eq!(prt2.covered_by(&query), prt.covered_by_linear(&query));
        prop_assert_eq!(srt2.covering(&query), srt.covering_linear(&query));
        prop_assert_eq!(srt2.covered_by(&query), srt.covered_by_linear(&query));
    }
}
