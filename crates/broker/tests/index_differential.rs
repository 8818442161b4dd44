//! Differential oracle for the counting match index behind `Srt`/`Prt`:
//! on randomized filter tables — including pending (shadow) routes and
//! insert → remove → re-insert churn — the indexed queries must return
//! exactly what the linear reference scans return.
//!
//! The routing layer also cross-checks every indexed query against the
//! scan in debug builds; this test states the property explicitly. The
//! scans are compiled into test and debug builds only, so the suite is
//! too.

#![cfg(debug_assertions)]

use std::collections::BTreeSet;

use proptest::prelude::*;
use transmob_broker::{Destinations, Hop, PendingRoute, Prt, Srt};
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
                prt.update(sid, |e| {
                    e.pending = Some(PendingRoute {
                        move_id: MoveId(i as u64),
                        lasthop: Hop::Broker(BrokerId(9)),
                    })
                });
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

/// What `destinations` must answer, from first principles: the linear
/// scan's matching ids, each looked up in the rows, every active,
/// pending and alternate hop collected into ordered sets.
fn destinations_from_rows(prt: &Prt, p: &Publication) -> Destinations {
    let mut brokers = BTreeSet::new();
    let mut clients = BTreeSet::new();
    for id in prt.matching_linear(p) {
        let e = prt.get(id).unwrap();
        let alts = e.alt_lasthops.iter().map(|b| Hop::Broker(*b));
        let pending = e.pending.as_ref().map(|pd| pd.lasthop);
        for hop in [Some(e.lasthop), pending].into_iter().flatten().chain(alts) {
            match hop {
                Hop::Broker(b) => {
                    brokers.insert(b);
                }
                Hop::Client(c) => {
                    clients.insert(c);
                }
            }
        }
    }
    Destinations {
        brokers: brokers.into_iter().collect(),
        clients: clients.into_iter().collect(),
    }
}

/// A hop drawn from a small pool of brokers and local clients, so that
/// rows share destinations and `from`-like collisions are common, and
/// an alternate broker to go with it.
fn hop_of(seed: u8) -> (Hop, BrokerId) {
    let hop = if seed.is_multiple_of(2) {
        Hop::Broker(BrokerId(1 + u32::from(seed / 2 % 4)))
    } else {
        Hop::Client(ClientId(100 + u64::from(seed / 2 % 4)))
    };
    (hop, BrokerId(1 + u32::from(seed % 6)))
}

/// The same from a pool of `pool` hops (1 to 3) in all, alternates
/// included: nearly every publication that matches anything reaches
/// every hop the table names, which is where the forwarding fold stops
/// early.
fn hop_of_few(pool: u8) -> impl Fn(u8) -> (Hop, BrokerId) {
    const POOL: [Hop; 3] = [
        Hop::Broker(BrokerId(1)),
        Hop::Client(ClientId(100)),
        Hop::Broker(BrokerId(2)),
    ];
    move |seed| {
        let alt = BrokerId(if pool == 3 {
            1 + u32::from(seed % 2)
        } else {
            1
        });
        (POOL[usize::from(seed % pool)], alt)
    }
}

/// One write of the forwarding-column proptest, applied the way the
/// broker core applies it (everything on a live row through
/// `Prt::update`); `hop` and `alt` are the hops it may install.
fn apply_write(
    prt: &mut Prt,
    n: usize,
    op: u8,
    slot: u64,
    specs: &[PredSpec],
    (hop, alt): (Hop, BrokerId),
) {
    let sid = SubId::new(ClientId(slot), 0);
    match op % 10 {
        // Inserts refill freed ids (and so freed row numbers) and add
        // new ones.
        0 | 1 => {
            if prt.get(sid).is_none() {
                prt.insert(Subscription::new(sid, build_filter(specs)), hop);
            }
        }
        2 => {
            prt.remove(sid);
        }
        // Lasthop re-point.
        3 => {
            prt.update(sid, |e| e.lasthop = hop);
        }
        // Pending install, commit, abort.
        4 => {
            prt.update(sid, |e| {
                e.pending = Some(PendingRoute {
                    move_id: MoveId(n as u64),
                    lasthop: hop,
                })
            });
        }
        5 => {
            prt.update(sid, |e| {
                if let Some(pd) = e.pending.take() {
                    e.lasthop = pd.lasthop;
                    if let Hop::Broker(b) = pd.lasthop {
                        e.alt_lasthops.remove(&b);
                    }
                }
            });
        }
        6 => {
            prt.update(sid, |e| e.pending = None);
        }
        // Alternate add, remove, promote.
        7 => {
            prt.update(sid, |e| e.alt_lasthops.insert(alt));
        }
        8 => {
            prt.update(sid, |e| e.alt_lasthops.remove(&alt));
        }
        _ => {
            prt.update(sid, |e| {
                if let Some(next) = e.alt_lasthops.pop_first() {
                    e.lasthop = Hop::Broker(next);
                }
            });
        }
    }
}

/// One base row and one step of the forwarding-column proptests.
type BaseRow = (Vec<PredSpec>, u8);
type WriteStep = (u8, u64, Vec<PredSpec>, u8, usize);

fn arb_base() -> impl Strategy<Value = Vec<BaseRow>> {
    proptest::collection::vec((arb_filter(), 0u8..16), 40..80)
}

fn arb_writes() -> impl Strategy<Value = Vec<WriteStep>> {
    proptest::collection::vec(
        (0u8..10, 0u64..100, arb_filter(), 0u8..16, 0usize..3),
        1..120,
    )
}

/// The body of the forwarding-column proptests: `base` rows, then
/// `steps` writes with probes between them, every hop drawn by `hops`.
/// After every step the derived state matches the rows, and the
/// forwarding query (alone and as a batch) answers what the rows say.
fn destinations_follow(
    base: &[BaseRow],
    steps: &[WriteStep],
    hops: impl Fn(u8) -> (Hop, BrokerId),
) -> Result<(), TestCaseError> {
    let mut prt = Prt::new();
    for (i, (specs, arg)) in base.iter().enumerate() {
        let sid = SubId::new(ClientId(i as u64), 0);
        prt.insert(Subscription::new(sid, build_filter(specs)), hops(*arg).0);
    }
    let pubs = probe_pubs();
    let refs: Vec<&Publication> = pubs.iter().collect();
    for (n, (op, slot, specs, arg, probes)) in steps.iter().enumerate() {
        apply_write(&mut prt, n, *op, *slot, specs, hops(*arg));
        prt.check_invariants();
        // 0 probes: consecutive writes with no probe between them.
        for p in pubs.iter().cycle().skip(n).take(*probes) {
            prop_assert_eq!(
                prt.destinations(p),
                destinations_from_rows(&prt, p),
                "step {} pub {}",
                n,
                p
            );
        }
        if *probes == 2 {
            let want: Vec<Destinations> = pubs
                .iter()
                .map(|p| destinations_from_rows(&prt, p))
                .collect();
            prop_assert_eq!(&prt.destinations_batch(&refs), &want, "step {}", n);
        }
    }
    Ok(())
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

    /// The forwarding query and the joined SRT route query agree with
    /// the scans *and* carry the pending (shadow) hops of in-flight
    /// movements.
    #[test]
    fn route_queries_expose_pending_hops(steps in arb_steps(), q in arb_filter()) {
        let (prt, srt) = replay(&steps);
        prt.check_invariants();
        for p in probe_pubs() {
            prop_assert_eq!(prt.destinations(&p), destinations_from_rows(&prt, &p), "pub {}", p);
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

    /// The forwarding column under every kind of write the broker core
    /// makes: insert, remove, lasthop re-point, pending install /
    /// commit / abort, alternate add / remove / promote, on a table
    /// big enough that the index's packed snapshot is built, aged and
    /// rebuilt while row numbers are freed and handed out again (a
    /// freed number goes to the next insert at once, while the index
    /// slot it had is still parked). After every step the derived
    /// state (cells, hop census) matches the rows, and the forwarding
    /// query (alone and as a batch) answers what the rows say.
    #[test]
    fn destinations_follow_every_write(base in arb_base(), steps in arb_writes()) {
        destinations_follow(&base, &steps, hop_of)?;
    }

    /// The same over one to three hops in all, so that most probes end
    /// early, saturated, and every write kind moves the census the
    /// saturation test reads: a hop's last mention going (or a new hop
    /// coming) must change where the next probe stops.
    #[test]
    fn destinations_follow_every_write_over_few_hops(
        pool in 1u8..=3,
        base in arb_base(),
        steps in arb_writes(),
    ) {
        destinations_follow(&base, &steps, hop_of_few(pool))?;
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
        prt2.check_invariants();
        let query = build_filter(&q);
        for p in probe_pubs() {
            prop_assert_eq!(prt2.matching(&p), prt.matching_linear(&p));
            prop_assert_eq!(prt2.destinations(&p), destinations_from_rows(&prt, &p));
        }
        prop_assert_eq!(prt2.covering(&query), prt.covering_linear(&query));
        prop_assert_eq!(prt2.covered_by(&query), prt.covered_by_linear(&query));
        prop_assert_eq!(srt2.covering(&query), srt.covering_linear(&query));
        prop_assert_eq!(srt2.covered_by(&query), srt.covered_by_linear(&query));
    }
}

/// The recycling case the proptest above only reaches by chance, pinned:
/// a row number freed by a remove is handed to the next insert while
/// the index slot it had is still parked beside the packed snapshot,
/// and again after the snapshot was rebuilt.
#[test]
fn freed_row_number_is_reused_while_its_slot_is_parked() {
    let band = |lo: i64| Filter::builder().ge("x", lo).le("x", lo + 10).build();
    let sid = |c: u64| SubId::new(ClientId(c), 0);
    let mut prt = Prt::new();
    for c in 0..200u64 {
        prt.insert(
            Subscription::new(sid(c), band(c as i64)),
            Hop::Broker(BrokerId(1)),
        );
    }
    let probe = Publication::new().with("x", 100);
    // The first probe builds the packed snapshot.
    assert_eq!(prt.destinations(&probe).brokers, vec![BrokerId(1)]);
    for round in 0..40u64 {
        // Row `95 + round` matches the probe; its successor takes its
        // number, covers the probe too, and points somewhere else.
        let old = if round == 0 {
            sid(95)
        } else {
            sid(1000 + round - 1)
        };
        assert!(prt.remove(old).is_some());
        prt.insert(
            Subscription::new(sid(1000 + round), band(95)),
            Hop::Client(ClientId(round)),
        );
        prt.check_invariants();
        let got = prt.destinations(&probe);
        assert_eq!(got, destinations_from_rows(&prt, &probe), "round {round}");
        assert_eq!(got.clients, vec![ClientId(round)], "round {round}");
    }
}
