//! Differential oracle for the counting match index behind `Srt`/`Prt`:
//! on randomized filter tables — including pending (shadow) routes and
//! insert → remove → re-insert churn — the indexed queries must return
//! exactly what the linear reference scans return.
//!
//! The routing layer also cross-checks every indexed query against the
//! scan in debug builds; this test states the property explicitly. The
//! scans are compiled into test and debug builds only, so the suite is
//! too.
//!
//! Numeric operands are integers, quarters, `0.0` and `-0.0`; bands
//! span widths from 0 to 10¹⁷, so the packed snapshot holds many width
//! classes (one rounds its widths), and one band's width (2·10³⁰⁸)
//! overflows. Every table is probed on, just below and just above each
//! endpoint its filters name, and at `±∞` and a `NaN`, which a value
//! decoded off the wire can be.
//!
//! The case count honours `CHAOS_CASES` (default 96).

#![cfg(debug_assertions)]

use std::collections::BTreeSet;
use std::ops::{ControlFlow, Range};

use proptest::prelude::*;
use transmob_broker::{Destinations, Hop, PendingRoute, Prt, Srt};
use transmob_pubsub::{
    AdvId, Advertisement, BrokerId, ClientId, Filter, MoveId, Publication, SubId, Subscription,
};

const ATTRS: [&str; 3] = ["x", "y", "t"];
const WORDS: [&str; 5] = ["alpha", "alps", "beta", "al", ""];
/// Band widths over many binades; at 10¹⁷ an endpoint's quarter is
/// lost to rounding, so a band's float width can fall short of its
/// exact one.
const WIDTHS: [f64; 8] = [0.0, 0.25, 1.0, 15.0, 1_000.0, 1e9, 1e17, 3.0];
/// Operator shapes of [`apply_spec`].
const KINDS: u8 = 13;
/// The bound of the band whose width overflows.
const HUGE: f64 = 1e308;

fn cases() -> u32 {
    std::env::var("CHAOS_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(96)
}

/// One predicate spec: attribute, operator shape (and band width),
/// operand seed.
type PredSpec = (usize, u8, i64);

/// A numeric operand from a seed: whole numbers from even seeds,
/// quarters from odd ones, `-0.0` from 1 (and `0.0` from 0).
fn num(v: i64) -> f64 {
    match v {
        1 => -0.0,
        v if v % 2 == 0 => (v / 2) as f64,
        v => v as f64 / 4.0,
    }
}

/// The numeric endpoints a spec names: a band's two, a one-sided
/// bound's one, none for the other shapes.
fn endpoints((_, kind, v): PredSpec) -> Vec<f64> {
    let lo = num(v);
    match kind % KINDS {
        0 | 1 | 3 | 4 | 8 | 9 => vec![lo],
        2 | 10 | 11 => vec![lo, lo + WIDTHS[usize::from(kind / KINDS) % WIDTHS.len()]],
        12 => vec![-HUGE, HUGE],
        _ => vec![],
    }
}

fn apply_spec(
    b: transmob_pubsub::FilterBuilder,
    (ai, kind, v): PredSpec,
) -> transmob_pubsub::FilterBuilder {
    let a = ATTRS[ai % ATTRS.len()];
    let x = num(v);
    let hi = x + WIDTHS[usize::from(kind / KINDS) % WIDTHS.len()];
    match kind % KINDS {
        0 => b.ge(a, x),
        1 => b.le(a, x),
        2 => b.ge(a, x).le(a, hi),
        3 => b.eq(a, x),
        4 => b.ne(a, x),
        5 => b.eq(a, WORDS[(v.unsigned_abs() as usize) % WORDS.len()]),
        6 => b.prefix(a, WORDS[(v.unsigned_abs() as usize) % WORDS.len()]),
        7 => b.any(a),
        8 => b.gt(a, x),
        9 => b.lt(a, x),
        10 => b.gt(a, x).le(a, hi),
        11 => b.ge(a, x).lt(a, hi),
        _ => b.ge(a, -HUGE).le(a, HUGE),
    }
}

fn build_filter(specs: &[PredSpec]) -> Filter {
    specs
        .iter()
        .fold(Filter::builder(), |b, s| apply_spec(b, *s))
        .build()
}

fn arb_filter() -> impl Strategy<Value = Vec<PredSpec>> {
    proptest::collection::vec((0usize..3, 0u8..KINDS * 8, -30i64..30), 1..4)
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
    // `Value::float` refuses a `NaN`; `From<f64>`, as the wire
    // decoder uses it, does not.
    for x in [
        -0.0,
        0.25,
        -7.25,
        1e9,
        1e17,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ] {
        out.push(Publication::new().with("x", x).with("y", x));
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

/// Publications on, just below and just above every numeric endpoint
/// the filters of `specs` name, each endpoint on every attribute at
/// once: the probes where an inclusive or exclusive bound, a width
/// class's window edge or a `-0.0` decides.
fn edge_pubs<'a>(specs: impl IntoIterator<Item = &'a [PredSpec]>) -> Vec<Publication> {
    let mut xs: Vec<f64> = specs
        .into_iter()
        .flatten()
        .flat_map(|s| endpoints(*s))
        .flat_map(|x| [x.next_down(), x, x.next_up()])
        .collect();
    xs.sort_unstable_by(f64::total_cmp);
    xs.dedup_by(|a, b| a.total_cmp(b).is_eq());
    xs.into_iter()
        .map(|x| Publication::new().with("x", x).with("y", x).with("t", x))
        .collect()
}

/// The fixed probes and the edge probes of every filter of `steps`.
fn step_pubs(steps: &[(u8, u64, Vec<PredSpec>)]) -> Vec<Publication> {
    let mut out = probe_pubs();
    out.extend(edge_pubs(steps.iter().map(|(_, _, specs)| &specs[..])));
    out
}

/// Applies step `i` of a replay to a PRT and an SRT: ops 0/1 insert
/// (sometimes colliding on the id, re-using the stored filter so the
/// duplicate path stays legal), op 2 removes, op 3 installs a pending
/// route.
fn apply_step(
    prt: &mut Prt,
    srt: &mut Srt,
    i: usize,
    (op, slot, specs): &(u8, u64, Vec<PredSpec>),
) {
    let sid = SubId::new(ClientId(*slot), 0);
    let aid = AdvId::new(ClientId(*slot), 0);
    match op % 4 {
        0 | 1 => {
            // Re-inserting an occupied id with a different filter is a
            // protocol violation the table reports; keep the replay
            // legal by only inserting into free slots.
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
            srt.update(aid, |e| {
                e.pending = Some(PendingRoute {
                    move_id: MoveId(i as u64),
                    lasthop: Hop::Broker(BrokerId(9)),
                })
            });
        }
    }
}

/// Builds a PRT and an SRT by replaying the step sequence
/// ([`apply_step`]).
fn replay(steps: &[(u8, u64, Vec<PredSpec>)]) -> (Prt, Srt) {
    let mut prt = Prt::new();
    let mut srt = Srt::new();
    for (i, step) in steps.iter().enumerate() {
        apply_step(&mut prt, &mut srt, i, step);
    }
    (prt, srt)
}

/// The ids a table query visits, in order.
fn ids<I, E>(
    query: impl FnOnce(&mut dyn FnMut(I, &E) -> ControlFlow<()>) -> ControlFlow<()>,
) -> Vec<I> {
    let mut out = Vec::new();
    let _ = query(&mut |id, _| {
        out.push(id);
        ControlFlow::Continue(())
    });
    out
}

/// Every indexed query on both tables ≡ its linear scan, for `query`.
fn queries_equal_linear(prt: &Prt, srt: &Srt, query: &Filter) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        ids(|v| prt.overlapping(query, v)),
        ids(|v| prt.overlapping_linear(query, v))
    );
    prop_assert_eq!(
        ids(|v| srt.overlapping(query, v)),
        ids(|v| srt.overlapping_linear(query, v))
    );
    prop_assert_eq!(
        ids(|v| prt.covering(query, v)),
        ids(|v| prt.covering_linear(query, v))
    );
    prop_assert_eq!(
        ids(|v| prt.covered_by(query, v)),
        ids(|v| prt.covered_by_linear(query, v))
    );
    prop_assert_eq!(
        ids(|v| srt.covering(query, v)),
        ids(|v| srt.covering_linear(query, v))
    );
    prop_assert_eq!(
        ids(|v| srt.covered_by(query, v)),
        ids(|v| srt.covered_by_linear(query, v))
    );
    Ok(())
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

/// The same from a pool of 100 local clients, alternates drawn from six
/// brokers: a census of up to 106 hops, so the forwarding fold's
/// seen-bits span more than one word and census ids are freed and
/// handed to other hops all the time.
fn hop_of_many(seed: u8) -> (Hop, BrokerId) {
    (
        Hop::Client(ClientId(100 + u64::from(seed % 100))),
        BrokerId(1 + u32::from(seed % 6)),
    )
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

/// `rows` base rows whose hops are drawn from seeds below `seeds`.
fn arb_base(rows: Range<usize>, seeds: u8) -> impl Strategy<Value = Vec<BaseRow>> {
    proptest::collection::vec((arb_filter(), 0..seeds), rows)
}

/// Writes to the ids below `slots`, their hops drawn from seeds below
/// `seeds`.
fn arb_writes(slots: u64, seeds: u8) -> impl Strategy<Value = Vec<WriteStep>> {
    proptest::collection::vec(
        (0u8..10, 0..slots, arb_filter(), 0..seeds, 0usize..3),
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
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Indexed publication matching ≡ the linear scan, after churn,
    /// on every endpoint of the replayed filters and beside it.
    #[test]
    fn prt_matching_equals_linear(steps in arb_steps()) {
        let (prt, _) = replay(&steps);
        for p in step_pubs(&steps) {
            prop_assert_eq!(prt.matching(&p), prt.matching_linear(&p), "pub {}", p);
        }
    }

    /// Indexed overlap ≡ the linear scan on both tables, after churn.
    #[test]
    fn overlap_equals_linear(steps in arb_steps(), q in arb_filter()) {
        let (prt, srt) = replay(&steps);
        let query = build_filter(&q);
        prop_assert_eq!(ids(|v| prt.overlapping(&query, v)), ids(|v| prt.overlapping_linear(&query, v)));
        prop_assert_eq!(ids(|v| srt.overlapping(&query, v)), ids(|v| srt.overlapping_linear(&query, v)));
    }

    /// The forwarding query agrees with the scan of the rows *and*
    /// carries the pending (shadow) hops of in-flight movements.
    #[test]
    fn route_queries_expose_pending_hops(steps in arb_steps()) {
        let (prt, _) = replay(&steps);
        prt.check_invariants();
        for p in probe_pubs() {
            prop_assert_eq!(prt.destinations(&p), destinations_from_rows(&prt, &p), "pub {}", p);
        }
    }

    /// Indexed containment (`covering` / `covered_by`) ≡ the linear
    /// `Filter::covers` scans on both tables, after churn — including
    /// rows that carry pending (shadow) routes.
    #[test]
    fn containment_equals_linear(steps in arb_steps(), q in arb_filter()) {
        let (prt, srt) = replay(&steps);
        let query = build_filter(&q);
        prop_assert_eq!(ids(|v| prt.covering(&query, v)), ids(|v| prt.covering_linear(&query, v)));
        prop_assert_eq!(ids(|v| prt.covered_by(&query, v)), ids(|v| prt.covered_by_linear(&query, v)));
        prop_assert_eq!(ids(|v| srt.covering(&query, v)), ids(|v| srt.covering_linear(&query, v)));
        prop_assert_eq!(ids(|v| srt.covered_by(&query, v)), ids(|v| srt.covered_by_linear(&query, v)));
    }

    /// Containment and overlap queries first asked after `quiet`
    /// writes, so the first one derives the index's endpoint maps from
    /// the rows the writes left, then asked between every further
    /// write, so each insert and remove must keep the maps it finds:
    /// at every query, ≡ the linear scans on both tables.
    #[test]
    fn containment_after_writes_equals_linear(
        steps in arb_steps(),
        quiet in 0usize..30,
        queries in proptest::collection::vec(arb_filter(), 1..6),
    ) {
        let (mut prt, mut srt) = (Prt::new(), Srt::new());
        let quiet = quiet.min(steps.len());
        for (i, step) in steps[..quiet].iter().enumerate() {
            apply_step(&mut prt, &mut srt, i, step);
        }
        for (i, step) in steps.iter().enumerate().skip(quiet) {
            queries_equal_linear(&prt, &srt, &build_filter(&queries[i % queries.len()]))?;
            apply_step(&mut prt, &mut srt, i, step);
        }
        for q in &queries {
            queries_equal_linear(&prt, &srt, &build_filter(q))?;
        }
    }

    /// The containment answers are semantically right, not merely
    /// scan-consistent: every reported id really stands in the claimed
    /// `Filter::covers` relation with the query.
    #[test]
    fn containment_is_sound(steps in arb_steps(), q in arb_filter()) {
        let (prt, srt) = replay(&steps);
        let query = build_filter(&q);
        for id in ids(|v| prt.covering(&query, v)) {
            prop_assert!(prt.get(id).unwrap().item.filter.covers(&query));
        }
        for id in ids(|v| prt.covered_by(&query, v)) {
            prop_assert!(query.covers(&prt.get(id).unwrap().item.filter));
        }
        for id in ids(|v| srt.covering(&query, v)) {
            prop_assert!(srt.get(id).unwrap().item.filter.covers(&query));
        }
        for id in ids(|v| srt.covered_by(&query, v)) {
            prop_assert!(query.covers(&srt.get(id).unwrap().item.filter));
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
        // Every endpoint of the base table, as one batch: this builds
        // the snapshot the writes below age.
        let edges = edge_pubs(base.iter().map(|s| &s[..]));
        for (p, got) in edges.iter().zip(prt.matching_batch(&edges)) {
            prop_assert_eq!(got, prt.matching_linear(p), "base pub {}", p);
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
            // Otherwise also on every endpoint of the step's filter.
            let edges = if *probes == 0 { Vec::new() } else { edge_pubs([&specs[..]]) };
            for p in pubs.iter().cycle().skip(n).take(*probes).chain(&edges) {
                prop_assert_eq!(prt.matching(p), prt.matching_linear(p), "step {} pub {}", n, p);
            }
            if *probes == 3 {
                let batch: Vec<Publication> = pubs.iter().chain(&edges).cloned().collect();
                let got = prt.matching_batch(&batch);
                for (i, p) in batch.iter().enumerate() {
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
    fn destinations_follow_every_write(
        base in arb_base(40..80, 16),
        steps in arb_writes(100, 16),
    ) {
        destinations_follow(&base, &steps, hop_of)?;
    }

    /// The same over one to three hops in all, so that most probes end
    /// early, saturated, and every write kind moves the census the
    /// saturation test reads: a hop's last mention going (or a new hop
    /// coming) must change where the next probe stops.
    #[test]
    fn destinations_follow_every_write_over_few_hops(
        pool in 1u8..=3,
        base in arb_base(40..80, 16),
        steps in arb_writes(100, 16),
    ) {
        destinations_follow(&base, &steps, hop_of_few(pool))?;
    }

    /// The same over about a hundred hops: more rows than the few-hop
    /// tables, so the census usually outgrows one word of seen-bits,
    /// and its ids are freed and taken by other hops as rows come, go
    /// and are re-pointed.
    #[test]
    fn destinations_follow_every_write_over_many_hops(
        base in arb_base(100..160, 100),
        steps in arb_writes(160, 100),
    ) {
        destinations_follow(&base, &steps, hop_of_many)?;
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
        prop_assert_eq!(ids(|v| prt2.covering(&query, v)), ids(|v| prt.covering_linear(&query, v)));
        prop_assert_eq!(ids(|v| prt2.covered_by(&query, v)), ids(|v| prt.covered_by_linear(&query, v)));
        prop_assert_eq!(ids(|v| srt2.covering(&query, v)), ids(|v| srt.covering_linear(&query, v)));
        prop_assert_eq!(ids(|v| srt2.covered_by(&query, v)), ids(|v| srt.covered_by_linear(&query, v)));
    }
}

/// Every row shape with an open side or `!=` exclusions on one
/// attribute, beside bands: `<` with `!=`, `!=` alone (open on both
/// sides), `>`, `≥`, `<`, `≤` alone, and a band whose width overflows.
/// Probed on and beside every bound, at `±∞` and at `NaN`s of either
/// sign, matching and forwarding agree with the scan.
#[test]
fn open_and_excluding_rows_on_one_attribute_match_exactly() {
    let b = Filter::builder;
    let filters = [
        b().lt("x", 5).ne("x", 3).build(),
        b().ne("x", 4).build(),
        b().ge("x", -HUGE).le("x", HUGE).build(),
        b().gt("x", 2).build(),
        b().ge("x", 2).build(),
        b().lt("x", 2).build(),
        b().le("x", 2).build(),
        b().gt("x", 0).lt("x", 9).build(),
        b().ge("x", 0).le("x", 10).build(),
        b().ge("x", 1).le("x", 6).ne("x", 6).build(),
    ];
    let mut prt = Prt::new();
    for (i, f) in filters.into_iter().enumerate() {
        let sid = SubId::new(ClientId(i as u64), 0);
        prt.insert(Subscription::new(sid, f), Hop::Client(ClientId(i as u64)));
    }
    let mut xs = vec![f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -f64::NAN];
    for x in [-HUGE, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 9.0, 10.0, HUGE] {
        xs.extend([x.next_down(), x, x.next_up(), -x]);
    }
    for x in xs {
        let p = Publication::new().with("x", x);
        assert_eq!(prt.matching(&p), prt.matching_linear(&p), "pub {p}");
        assert_eq!(
            prt.destinations(&p),
            destinations_from_rows(&prt, &p),
            "pub {p}"
        );
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
