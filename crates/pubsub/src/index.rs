//! Attribute-indexed *counting* match index for filter tables.
//!
//! Brokers answer four hot-path queries against large filter tables:
//!
//! - **matching**: which stored filters match a publication? (the PRT
//!   publication-forwarding test)
//! - **overlapping**: which stored filters overlap a query filter?
//!   (the SRT/PRT subscription-routing intersection test)
//! - **covering**: which stored filters cover a query filter? (the
//!   covering-quench test of the subscription/advertisement paths)
//! - **covered_by**: which stored filters does a query filter cover?
//!   (active-retraction candidates and the covering-release cascade
//!   that dominates the paper's mobility unsubscribe bursts)
//!
//! The naive implementation scans every stored filter and evaluates
//! [`Filter::matches`] / [`Filter::overlaps`] — `O(table × arity)` per
//! publication. [`MatchIndex`] implements the classic counting
//! algorithm of Siena/PADRES-style brokers instead: each filter is
//! decomposed into its per-attribute normalized [`Constraint`]s, the
//! constraints are organized in per-attribute structures, and a
//! publication is matched by **counting** how many of a filter's
//! constraints are satisfied. A filter matches iff its count equals
//! its arity. Only filters constraining attributes the publication
//! actually carries are ever touched.
//!
//! # Handles, not copies
//!
//! The index stores the [`Filter`] handle it is given ([`Filter`]'s
//! clone is O(1) and shares one immutable body) and nothing of the
//! filter besides: an attribute row that needs the authoritative
//! constraint holds the handle and the constraint's position in the
//! filter (`ConsRef`), the dual-endpoint rows hold two `f64` endpoints
//! and a flag word, and a filter's arity is read off the filter. A
//! row therefore costs the index a few dozen bytes per constrained
//! attribute whatever the filter's size, and a table whose rows the
//! caller also holds (a routing row, a client stub) holds each body
//! once.
//!
//! # Data layout
//!
//! Per constrained attribute ([`AttrIndex`]):
//!
//! - numeric **point** constraints (`x = c`, no exclusions) live in a
//!   hash map keyed by the *bit pattern* of the point. Under
//!   `f64::total_cmp` — the order all numeric constraints use — two
//!   floats are equal iff their bit patterns are equal, so a single
//!   hash probe with `value.to_bits()` is exact.
//! - general numeric **interval** constraints live in the
//!   dual-endpoint maps below, and are probed through the packed
//!   snapshot the matching kernel derives from them.
//! - string constraints pinned to a **single value** (`s = "v"`) live
//!   in a hash map keyed by that value; constraints with **prefix**
//!   conjuncts are bucketed under their first prefix, probed by
//!   enumerating every prefix of the published string. Both bucket
//!   kinds re-verify hits with [`Constraint::satisfied_by`] (the
//!   bucket key is necessary, not sufficient).
//! - `[attr] *` **presence** constraints are satisfied by any value.
//! - everything else (booleans, exotic string shapes) falls back to a
//!   per-attribute scan with exact verification — still restricted to
//!   attributes the publication carries.
//!
//! # Dual-endpoint containment structure
//!
//! Containment and overlap between a query interval `[lq, hq]` and the
//! stored intervals are two-sided endpoint conditions:
//!
//! - stored **covers** query: `lo ≤ lq` and `hi ≥ hq`
//! - stored **covered by** query: `lo ≥ lq` and `hi ≤ hq`
//! - stored **overlaps** query: `lo ≤ hq` and `hi ≥ lq`
//!
//! (inclusive comparisons on effective endpoints in the `total_cmp`
//! order; exclusivity flags and `!=` exclusions only ever *shrink* the
//! true relation, so these are prune conditions). Each [`AttrIndex`]
//! therefore keeps every numeric constraint — point or interval — in
//! two additional ordered maps: `by_lo`, keyed by the effective lower
//! endpoint, and `by_hi`, keyed by the effective upper endpoint. Each
//! query becomes a *pair of range scans*, one per endpoint map, run in
//! lock-step; whichever side exhausts first already enumerates every
//! row satisfying its half of the conjunction, so the candidate set is
//! the smaller enumeration and total work is bounded by twice the
//! smaller side (instead of a per-constraint sweep of the attribute).
//! Candidates are then verified against the authoritative
//! [`Constraint`] relation.
//!
//! # Soundness
//!
//! Every fast path is *prune + verify*: the bucket structures only
//! narrow the candidate set, and any candidate that is not exact by
//! construction is re-checked against the authoritative constraint.
//! The index therefore returns byte-for-byte the same id sets as the
//! linear scans, including for unsatisfiable filters (never returned),
//! zero-arity filters (always returned by `matching`), and the
//! conservative [`Constraint::overlaps`] over-approximation contract
//! documented in [`crate::constraint`]. The routing layer keeps the
//! linear scans alive as a differential oracle.
//!
//! # The matching kernel
//!
//! One function, [`MatchIndex::fold_matching`], matches publications
//! against the table, on the calling thread, and it is a *fold* that
//! may stop: its caller supplies an accumulator per publication, a
//! step called with matching keys, in no particular order, a test that
//! says when the accumulator is *saturated* (no further key could
//! change it), and a finisher called once, last.
//! [`MatchIndex::matching`] and [`MatchIndex::matching_batch`] are
//! that fold into a vector, never saturated, finished by the sort
//! their contract promises; the broker's publication forwarding folds
//! row numbers straight into destination sets, never lists the
//! matching keys at all, and is saturated once the set holds every hop
//! its table names (Carzaniga and Wolf's forwarding short-cut: with
//! every interface matched, no further filter changes the decision).
//!
//! What the closures may assume: `step` sees a key at most once per
//! publication, and only a key whose filter matches it; `saturated` is
//! asked after the zero-arity keys and after each probed attribute
//! that completed at least one key, and the first `true` ends the
//! publication's probes: the remaining attributes are not probed, the
//! `wide` keys not checked and `step` not called again, so a saturated
//! accumulator has seen *some* matching keys, not all of them;
//! `finish` runs exactly once whichever way the probes ended, so it
//! may not assume the accumulator is complete unless `saturated` never
//! answers `true`. Each publication of a batch starts afresh.
//!
//! The kernel works *publication-major*: per publication, a countdown
//! cell per stored filter (a dense *slot* id, seeded with the filter's
//! arity by one bulk copy) is decremented once for every satisfied
//! constraint, and a cell reaching zero completes its key. The cells
//! of one publication fit the cache however the probes scatter over
//! them.
//!
//! Point, string, presence and fallback constraints are probed in the
//! live per-attribute buckets above. General numeric intervals are
//! probed in a *packed snapshot* of the table, `PackedTables`: per
//! attribute the rows are stored twice, sorted ascending by lower
//! bound and descending by upper bound, with the sort endpoints in
//! parallel `f64` arrays. Two binary searches bound the qualifying
//! prefix of each array and only the **smaller** prefix is scanned,
//! every visited row costing one comparison against its opposite
//! endpoint. Rows with an exclusive bound keep both endpoints; rows
//! with `!=` exclusions are checked against their constraint.
//!
//! # Rebuild policy
//!
//! The snapshot is built lazily by the first probe that finds none,
//! so any number of writes without a probe between them (a broker's
//! set-up) cost nothing. Once it exists, writes do not rebuild it:
//!
//! - an interval row inserted since the build is appended to its
//!   attribute's `fresh` list, which every numeric probe of that
//!   attribute checks exhaustively against the row's constraint;
//! - a removed filter's countdown seed is zeroed, so the rows the
//!   snapshot (or a `fresh` list) still holds for its slot can never
//!   complete, and the slot is not reused before the next build.
//!
//! Once the writes since the build exceed a fixed fraction of the
//! table (`REBUILD_FRACTION`) the snapshot is dropped, and the next
//! probe builds a new one.
//!
//! # Oracle
//!
//! The reference is the linear scan: [`Filter::matches`] over every
//! row, kept behind `Prt::matching_linear` in the routing layer, which
//! asserts every indexed answer against it in debug builds, and stated
//! as a property over random churn in `index_differential.rs`.

use std::borrow::Borrow;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;
use std::hash::Hash;
use std::sync::{Arc, OnceLock};

use crate::constraint::{Bound, Constraint, Interval, NumConstraint, TotalF64};
use crate::fasthash::FastMap;
use crate::filter::Filter;
use crate::publication::Publication;
use crate::value::Value;

/// Key types a [`MatchIndex`] can index filters under (`AdvId`,
/// `SubId`, …).
pub trait IndexKey: Copy + Ord + Eq + Hash + Debug {}
impl<T: Copy + Ord + Eq + Hash + Debug> IndexKey for T {}

/// Where a constraint lives inside an [`AttrIndex`]. Classification is
/// a pure function of the constraint, so insert and remove agree.
enum Bucket {
    Present,
    NumEq(u64),
    /// Any other numeric constraint: probed through the packed
    /// snapshot built from the dual-endpoint maps.
    NumRange,
    StrEq(String, bool),
    StrPre(String, bool),
    Other,
}

fn classify(c: &Constraint) -> Bucket {
    match c {
        Constraint::Present => Bucket::Present,
        Constraint::Num(n) => {
            if n.excluded.is_empty() {
                if let Some(p) = n.interval.as_point() {
                    return Bucket::NumEq(p.to_bits());
                }
            }
            Bucket::NumRange
        }
        Constraint::Str(s) => {
            // `exact`: reaching the bucket already proves satisfaction,
            // so probes may bump without consulting the authoritative
            // constraint.
            let plain = s.excluded.is_empty() && s.suffixes.is_empty() && s.contains.is_empty();
            if let Some(p) = s.interval.as_point() {
                Bucket::StrEq(p.clone(), plain && s.prefixes.is_empty())
            } else if let Some(p) = s.prefixes.first() {
                let exact = plain && s.prefixes.len() == 1 && s.interval == Interval::full();
                Bucket::StrPre(p.clone(), exact)
            } else {
                Bucket::Other
            }
        }
        Constraint::Bool(_) => Bucket::Other,
        // Unsatisfiable filters are kept out of the attribute indexes
        // entirely (MatchIndex::insert).
        Constraint::Empty => unreachable!("empty constraints are not indexed"),
    }
}

/// One string-bucket row. `exact` means a probe that reaches the
/// bucket (equal string / matching prefix) is already known satisfied,
/// so the hot matching paths skip the per-key constraint lookup.
#[derive(Debug, Clone)]
struct StrRow<K> {
    key: K,
    /// The key's dense slot id (see [`SlotTable`]).
    slot: u32,
    exact: bool,
}

/// A constraint of an indexed filter: the filter's handle and the
/// constraint's position in it (attribute order), in place of a copy
/// of the constraint.
#[derive(Debug, Clone)]
struct ConsRef {
    filter: Filter,
    at: usize,
}

impl ConsRef {
    fn get(&self) -> &Constraint {
        self.filter.constraint_at(self.at)
    }
}

/// Bit in [`EndRow::flags`] and [`ExclRow::flags`]: the lower bound is
/// exclusive (`>`).
const LO_EXCL: u32 = 1;
/// Bit in [`EndRow::flags`] and [`ExclRow::flags`]: the upper bound is
/// exclusive (`<`).
const HI_EXCL: u32 = 1 << 1;
/// Bit in [`EndRow::flags`]: no lower bound (`lo` is [`TotalF64::MIN`]).
const LO_OPEN: u32 = 1 << 2;
/// Bit in [`EndRow::flags`]: no upper bound (`hi` is [`TotalF64::MAX`]).
const HI_OPEN: u32 = 1 << 3;
/// Bit in [`EndRow::flags`]: the constraint carries `!=` exclusions.
const EXCLUSIONS: u32 = 1 << 4;

/// One row of the dual-endpoint containment structure. The stored
/// interval travels with the key, as its two effective endpoints and
/// the flags that tell them from open or absent bounds, so that
/// containment/overlap verification is data-local (no tree lookup per
/// candidate); rows whose constraint carries `!=` exclusions defer to
/// the authoritative constraint instead, because exclusions can flip
/// the exact relation at interval boundaries.
#[derive(Debug, Clone, Copy)]
struct EndRow<K> {
    key: K,
    /// The key's dense slot id (see [`SlotTable`]); the packed
    /// snapshot is built from these rows.
    slot: u32,
    /// `LO_EXCL`, `HI_EXCL`, `LO_OPEN`, `HI_OPEN`, `EXCLUSIONS`.
    flags: u32,
    /// Effective endpoints ([`Interval::total_endpoints`]).
    lo: f64,
    hi: f64,
}

impl<K> EndRow<K> {
    fn new(key: K, slot: u32, n: &NumConstraint) -> Self {
        let (lo, hi) = n.interval.total_endpoints();
        let side = |b: &Bound<f64>, excl: u32, open: u32| match b {
            Bound::Incl(_) => 0,
            Bound::Excl(_) => excl,
            Bound::Unbounded => open,
        };
        EndRow {
            key,
            slot,
            flags: side(n.interval.lo(), LO_EXCL, LO_OPEN)
                | side(n.interval.hi(), HI_EXCL, HI_OPEN)
                | if n.excluded.is_empty() { 0 } else { EXCLUSIONS },
            lo: lo.0,
            hi: hi.0,
        }
    }

    fn has_exclusions(&self) -> bool {
        self.flags & EXCLUSIONS != 0
    }

    /// The stored interval, rebuilt (nothing is allocated).
    fn interval(&self) -> Interval<f64> {
        let side = |v: f64, excl: u32, open: u32| {
            if self.flags & open != 0 {
                Bound::Unbounded
            } else if self.flags & excl != 0 {
                Bound::Excl(v)
            } else {
                Bound::Incl(v)
            }
        };
        Interval::new(
            side(self.lo, LO_EXCL, LO_OPEN),
            side(self.hi, HI_EXCL, HI_OPEN),
        )
    }
}

fn drop_from_bucket<Q: Eq + Hash, K: PartialEq>(
    map: &mut FastMap<Q, Vec<(K, u32)>>,
    bucket: &Q,
    key: &K,
) {
    if let Some(keys) = map.get_mut(bucket) {
        keys.retain(|(k, _)| k != key);
        if keys.is_empty() {
            map.remove(bucket);
        }
    }
}

fn drop_str_row<K: PartialEq>(map: &mut FastMap<String, Vec<StrRow<K>>>, bucket: &str, key: &K) {
    if let Some(rows) = map.get_mut(bucket) {
        rows.retain(|r| r.key != *key);
        if rows.is_empty() {
            map.remove(bucket);
        }
    }
}

fn drop_from_tree<K: PartialEq>(
    map: &mut BTreeMap<TotalF64, Vec<EndRow<K>>>,
    at: TotalF64,
    key: &K,
) {
    if let Some(rows) = map.get_mut(&at) {
        rows.retain(|r| r.key != *key);
        if rows.is_empty() {
            map.remove(&at);
        }
    }
}

/// Runs two candidate enumerations in lock-step and returns whichever
/// exhausts first.
///
/// Both iterators enumerate (from opposite endpoint maps) a superset of
/// the same target set, so either one alone is a valid candidate set;
/// racing them bounds the work by twice the *smaller* enumeration
/// without knowing in advance which side is more selective.
fn min_side<K>(mut a: impl Iterator<Item = K>, mut b: impl Iterator<Item = K>) -> Vec<K> {
    let mut av = Vec::new();
    let mut bv = Vec::new();
    loop {
        match a.next() {
            Some(k) => av.push(k),
            None => return av,
        }
        match b.next() {
            Some(k) => bv.push(k),
            None => return bv,
        }
    }
}

/// The per-attribute constraint structures; see the module docs for
/// the layout.
#[derive(Debug, Clone)]
struct AttrIndex<K> {
    /// Authoritative constraint per key, by reference into the key's
    /// filter; also used for the overlap disqualification scan (sorted
    /// so results come out ordered).
    cons: BTreeMap<K, ConsRef>,
    num_eq: FastMap<u64, Vec<(K, u32)>>,
    /// Every numeric constraint (points included), keyed by its
    /// effective lower endpoint: one half of the dual-endpoint
    /// containment structure (module docs).
    by_lo: BTreeMap<TotalF64, Vec<EndRow<K>>>,
    /// The same rows keyed by their effective upper endpoint.
    by_hi: BTreeMap<TotalF64, Vec<EndRow<K>>>,
    /// Interval rows inserted since the packed snapshot was built
    /// (module docs, "Rebuild policy"); empty while there is none.
    fresh: Vec<VerifyRow>,
    str_eq: FastMap<String, Vec<StrRow<K>>>,
    str_pre: FastMap<String, Vec<StrRow<K>>>,
    present: Vec<(K, u32)>,
    other: Vec<(K, u32)>,
}

impl<K: IndexKey> AttrIndex<K> {
    fn new() -> Self {
        AttrIndex {
            cons: BTreeMap::new(),
            num_eq: FastMap::default(),
            by_lo: BTreeMap::new(),
            by_hi: BTreeMap::new(),
            fresh: Vec::new(),
            str_eq: FastMap::default(),
            str_pre: FastMap::default(),
            present: Vec::new(),
            other: Vec::new(),
        }
    }

    /// Indexes `c` under `key`. `snapshotted` says a packed snapshot
    /// of the table exists, which an interval row must then be probed
    /// beside.
    fn insert(&mut self, key: K, slot: u32, cons: ConsRef, snapshotted: bool) {
        let c = cons.get();
        if let Constraint::Num(n) = c {
            let row = EndRow::new(key, slot, n);
            // Most endpoints are one row's alone: start each list at
            // one row, not at the four a first `push` reserves.
            let one = || Vec::with_capacity(1);
            self.by_lo
                .entry(TotalF64(row.lo))
                .or_insert_with(one)
                .push(row);
            self.by_hi
                .entry(TotalF64(row.hi))
                .or_insert_with(one)
                .push(row);
        }
        match classify(c) {
            Bucket::Present => self.present.push((key, slot)),
            Bucket::NumEq(bits) => self.num_eq.entry(bits).or_default().push((key, slot)),
            Bucket::NumRange => {
                if snapshotted {
                    self.fresh.push(VerifyRow {
                        slot,
                        cons: cons.clone(),
                    });
                }
            }
            Bucket::StrEq(s, exact) => {
                self.str_eq
                    .entry(s)
                    .or_default()
                    .push(StrRow { key, slot, exact })
            }
            Bucket::StrPre(p, exact) => {
                self.str_pre
                    .entry(p)
                    .or_default()
                    .push(StrRow { key, slot, exact })
            }
            Bucket::Other => self.other.push((key, slot)),
        }
        self.cons.insert(key, cons);
    }

    fn remove(&mut self, key: K) {
        let Some(cons) = self.cons.remove(&key) else {
            return;
        };
        let c = cons.get();
        if let Constraint::Num(n) = c {
            let (lo, hi) = n.interval.total_endpoints();
            drop_from_tree(&mut self.by_lo, lo, &key);
            drop_from_tree(&mut self.by_hi, hi, &key);
        }
        match classify(c) {
            Bucket::Present => self.present.retain(|(k, _)| *k != key),
            Bucket::NumEq(bits) => drop_from_bucket(&mut self.num_eq, &bits, &key),
            // Snapshot and `fresh` rows of the key stay behind, dead:
            // its countdown seed is zero until the next build.
            Bucket::NumRange => {}
            Bucket::StrEq(s, _) => drop_str_row(&mut self.str_eq, &s, &key),
            Bucket::StrPre(p, _) => drop_str_row(&mut self.str_pre, &p, &key),
            Bucket::Other => self.other.retain(|(k, _)| *k != key),
        }
    }

    fn is_empty(&self) -> bool {
        self.cons.is_empty()
    }

    /// The string probe: the point bucket plus every prefix of the
    /// published string. `exact` rows bump straight from the bucket;
    /// the rest verify against the authoritative constraint. Like
    /// every probe, it calls `bump(slot)` at most once per key.
    fn str_satisfied(&self, s: &str, value: &Value, bump: &mut impl FnMut(u32)) {
        if let Some(rows) = self.str_eq.get(s) {
            for row in rows {
                if row.exact || self.cons[&row.key].get().satisfied_by(value) {
                    bump(row.slot);
                }
            }
        }
        if !self.str_pre.is_empty() {
            for end in 0..=s.len() {
                if !s.is_char_boundary(end) {
                    continue;
                }
                if let Some(rows) = self.str_pre.get(&s[..end]) {
                    for row in rows {
                        if row.exact || self.cons[&row.key].get().satisfied_by(value) {
                            bump(row.slot);
                        }
                    }
                }
            }
        }
    }

    /// The kind-independent buckets: presence constraints (satisfied
    /// by any value) and the verified fallback scan.
    fn common_satisfied(&self, value: &Value, bump: &mut impl FnMut(u32)) {
        for &(_, s) in &self.present {
            bump(s);
        }
        for &(k, s) in &self.other {
            if self.cons[&k].get().satisfied_by(value) {
                bump(s);
            }
        }
    }

    /// Numeric candidates from the dual-endpoint maps: rows whose
    /// effective endpoints pass the inclusive prune conditions
    /// `lo ≤ lo_max` and `hi ≥ hi_min` (module docs), enumerated from
    /// whichever endpoint map is more selective.
    fn num_candidates(&self, lo_max: TotalF64, hi_min: TotalF64) -> Vec<&EndRow<K>> {
        min_side(
            self.by_lo
                .range(..=lo_max)
                .flat_map(|(_, rows)| rows.iter()),
            self.by_hi.range(hi_min..).flat_map(|(_, rows)| rows.iter()),
        )
    }

    /// The flipped prune (`lo ≥ lo_min`, `hi ≤ hi_max`): candidate
    /// rows *contained in* the queried endpoint window.
    fn num_contained_candidates(&self, lo_min: TotalF64, hi_max: TotalF64) -> Vec<&EndRow<K>> {
        min_side(
            self.by_lo.range(lo_min..).flat_map(|(_, rows)| rows.iter()),
            self.by_hi
                .range(..=hi_max)
                .flat_map(|(_, rows)| rows.iter()),
        )
    }

    /// String/bool/exotic rows, verified against `check`. Booleans and
    /// exotic string shapes share the `other` bucket, so both the
    /// string and the bool query kinds sweep it; `check` is the
    /// authoritative relation and rejects cross-kind rows.
    fn non_num_verified(
        &self,
        strings: bool,
        check: &mut impl FnMut(K) -> bool,
        bump: &mut impl FnMut(K),
    ) {
        if strings {
            for rows in self.str_eq.values().chain(self.str_pre.values()) {
                for row in rows {
                    if check(row.key) {
                        bump(row.key);
                    }
                }
            }
        }
        for &(k, _) in &self.other {
            if check(k) {
                bump(k);
            }
        }
    }

    /// Calls `bump(key)` once per key whose constraint on this
    /// attribute covers `qc`. Exact per [`Constraint::covers`].
    fn count_covering(&self, qc: &Constraint, bump: &mut impl FnMut(K)) {
        // A presence constraint covers every satisfiable constraint.
        for &(k, _) in &self.present {
            bump(k);
        }
        let mut check = |k: K| self.cons[&k].get().covers(qc);
        match qc {
            // Only `Present` covers `Present` (already bumped above).
            Constraint::Present => {}
            Constraint::Num(n) => {
                let (ql, qh) = n.interval.total_endpoints();
                for r in self.num_candidates(ql, qh) {
                    // Exclusion-free stored rows verify from the row
                    // itself: covering is pure interval containment
                    // (stored exclusions are what make `covers` more
                    // than that, and the query's own exclusions never
                    // weaken it).
                    let hit = if r.has_exclusions() {
                        check(r.key)
                    } else {
                        n.interval.is_subset(&r.interval())
                    };
                    if hit {
                        bump(r.key);
                    }
                }
            }
            Constraint::Str(_) => self.non_num_verified(true, &mut check, bump),
            Constraint::Bool(_) => self.non_num_verified(false, &mut check, bump),
            // Satisfiable query filters never carry empty constraints.
            Constraint::Empty => unreachable!("empty constraints are not queried"),
        }
    }

    /// Calls `bump(key)` once per key whose constraint on this
    /// attribute is covered by `qc`. Exact per [`Constraint::covers`].
    fn count_covered_by(&self, qc: &Constraint, bump: &mut impl FnMut(K)) {
        let mut check = |k: K| qc.covers(self.cons[&k].get());
        match qc {
            // `Present` covers every stored constraint on the attribute.
            Constraint::Present => {
                for &k in self.cons.keys() {
                    bump(k);
                }
            }
            Constraint::Num(n) => {
                let (ql, qh) = n.interval.total_endpoints();
                // An exclusion-free *query* covers exactly the rows
                // whose interval it contains (stored exclusions only
                // shrink the row); with query exclusions the boundary
                // cases need the authoritative constraint.
                let q_clean = n.excluded.is_empty();
                for r in self.num_contained_candidates(ql, qh) {
                    let hit = if q_clean {
                        r.interval().is_subset(&n.interval)
                    } else {
                        check(r.key)
                    };
                    if hit {
                        bump(r.key);
                    }
                }
            }
            Constraint::Str(_) => self.non_num_verified(true, &mut check, bump),
            Constraint::Bool(_) => self.non_num_verified(false, &mut check, bump),
            Constraint::Empty => unreachable!("empty constraints are not queried"),
        }
    }

    /// Keys whose constraint on this attribute overlaps `qc`, sorted.
    /// Exact per [`Constraint::overlaps`] (including its conservative
    /// over-approximation for exotic string shapes).
    fn overlap_qualified(&self, qc: &Constraint) -> Vec<K> {
        // Presence overlaps everything, in both directions.
        if matches!(qc, Constraint::Present) {
            return self.cons.keys().copied().collect();
        }
        let mut out: Vec<K> = self.present.iter().map(|&(k, _)| k).collect();
        let mut check = |k: K| self.cons[&k].get().overlaps(qc);
        let mut push = |k: K| out.push(k);
        match qc {
            Constraint::Num(n) => {
                let (ql, qh) = n.interval.total_endpoints();
                // Without exclusions on either side, constraint
                // overlap is exactly interval overlap; a point-sized
                // intersection that an exclusion deletes is the one
                // case needing the authoritative relation.
                let q_clean = n.excluded.is_empty();
                for r in self.num_candidates(qh, ql) {
                    let hit = if q_clean && !r.has_exclusions() {
                        r.interval().overlaps(&n.interval)
                    } else {
                        check(r.key)
                    };
                    if hit {
                        push(r.key);
                    }
                }
            }
            Constraint::Str(_) => self.non_num_verified(true, &mut check, &mut push),
            Constraint::Bool(_) => self.non_num_verified(false, &mut check, &mut push),
            Constraint::Present => unreachable!("handled above"),
            Constraint::Empty => unreachable!("empty constraints are not queried"),
        }
        out.sort_unstable();
        out
    }
}

/// What is left of the matcher's layout option, which had one value in
/// use: a field-less token. Its only caller is
/// `bench_e2e/src/layers.rs`, which this tree may not edit; it goes
/// with the next `benchmark` PR (ROADMAP, deletion list).
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub struct Parallelism;

impl Parallelism {
    /// Only caller: `bench_e2e/src/layers.rs`.
    pub fn sequential() -> Self {
        Parallelism
    }

    /// Only caller: `bench_e2e/src/layers.rs`.
    pub fn sharded(_shards: usize, _workers: usize) -> Self {
        Parallelism
    }
}

/// A packed snapshot is dropped, to be rebuilt by the next probe, once
/// the slot-bearing writes since its build exceed one
/// `REBUILD_FRACTION`-th of the live rows plus [`REBUILD_FLOOR`].
/// Between builds every numeric probe pays one constraint check per
/// `fresh` row of its attribute, so the fraction bounds that tail,
/// and the floor keeps a table of a few hundred rows from rebuilding
/// on every other write.
const REBUILD_FRACTION: usize = 64;
/// See [`REBUILD_FRACTION`].
const REBUILD_FLOOR: usize = 16;

/// Dense slot ids for the satisfiable, arity ≥ 1 keys.
///
/// Every such key gets a small stable `u32` id carried inline in the
/// attribute rows; the kernel counts constraints down in a flat array
/// indexed by slot (no hashing per hit), seeded from `seed`, and maps
/// a completed slot back to its key through `keys`.
#[derive(Debug, Clone)]
struct SlotTable<K> {
    of: FastMap<K, u32>,
    keys: Vec<K>,
    /// Per slot, the countdown a publication starts from: the
    /// filter's arity, or 0 for a slot that must never complete (a
    /// released slot, whose rows the packed snapshot may still hold,
    /// and a filter of more constraints than a cell can count, which
    /// the kernel checks directly).
    seed: Vec<u16>,
    free: Vec<u32>,
    /// Slots released since the packed snapshot was built: not to be
    /// reused while its rows can still bump them.
    parked: Vec<u32>,
}

impl<K: IndexKey> SlotTable<K> {
    fn new() -> Self {
        SlotTable {
            of: FastMap::default(),
            keys: Vec::new(),
            seed: Vec::new(),
            free: Vec::new(),
            parked: Vec::new(),
        }
    }

    fn alloc(&mut self, key: K, arity: usize) -> u32 {
        let seed = u16::try_from(arity).unwrap_or(0);
        let slot = match self.free.pop() {
            Some(s) => {
                self.keys[s as usize] = key;
                self.seed[s as usize] = seed;
                s
            }
            None => {
                self.keys.push(key);
                self.seed.push(seed);
                (self.keys.len() - 1) as u32
            }
        };
        self.of.insert(key, slot);
        slot
    }

    /// Frees `key`'s slot; `snapshotted` parks it until
    /// [`SlotTable::unpark`].
    fn release(&mut self, key: &K, snapshotted: bool) {
        if let Some(slot) = self.of.remove(key) {
            self.seed[slot as usize] = 0;
            if snapshotted {
                self.parked.push(slot);
            } else {
                self.free.push(slot);
            }
        }
    }

    fn unpark(&mut self) {
        self.free.append(&mut self.parked);
    }
}

/// One exclusion-free interval row of a [`PackedAttr`] scan array.
///
/// The array's sort key — the *admission* endpoint — lives in a
/// parallel `f64` array probed by binary search, so a row carries only
/// the opposite endpoint and the min-side scan verifies each visited
/// row with a single total-order comparison.
#[derive(Debug, Clone, Copy)]
struct CleanRow {
    /// The non-admission endpoint: the upper bound in the `lo`-sorted
    /// array, the lower bound in the `hi`-sorted array.
    bound: f64,
    /// The row's dense slot id.
    slot: u32,
}

/// One boundary-exclusive interval row (`>` / `<` bounds, no `!=`
/// exclusions), carried in full because the exclusivity checks need
/// exact endpoint equality on both sides.
#[derive(Debug, Clone, Copy)]
struct ExclRow {
    lo: f64,
    hi: f64,
    slot: u32,
    /// `LO_EXCL` / `HI_EXCL` bits.
    flags: u32,
}

/// One interval row checked against its authoritative constraint on
/// every probe of its attribute, with no endpoint pruning: the rows
/// with `!=` exclusions of a [`PackedAttr`], and the rows inserted
/// since it was built ([`AttrIndex::fresh`]).
#[derive(Debug, Clone)]
struct VerifyRow {
    slot: u32,
    cons: ConsRef,
}

/// Whether the boundary-exclusive interval `r` contains `x`.
fn excl_hit(r: &ExclRow, x: f64) -> bool {
    match r.lo.total_cmp(&x) {
        Ordering::Greater => return false,
        Ordering::Equal if r.flags & LO_EXCL != 0 => return false,
        _ => {}
    }
    match x.total_cmp(&r.hi) {
        Ordering::Greater => false,
        Ordering::Equal if r.flags & HI_EXCL != 0 => false,
        _ => true,
    }
}

/// The packed numeric probe tables of one attribute.
///
/// A probe value `x` satisfies a clean interval row iff `lo ≤ x` *and*
/// `x ≤ hi` (total order). The rows are stored twice — sorted
/// ascending by `lo` and descending by `hi` — with the sort endpoints
/// in parallel `f64` arrays. Per probe, two binary searches bound the
/// qualifying prefix of each array and only the **smaller** prefix is
/// scanned; every visited row needs just one comparison against its
/// opposite endpoint. The scan is stateless, so probes need no
/// batch-wide sorting.
#[derive(Debug, Default)]
struct PackedAttr {
    /// Lower bounds of the clean rows, ascending in the total order;
    /// parallel to `lo_rows`.
    lo_bound: Vec<f64>,
    /// Clean rows sorted ascending by lower bound; `bound` is the
    /// upper bound.
    lo_rows: Vec<CleanRow>,
    /// Upper bounds of the same rows, descending; parallel to
    /// `hi_rows`.
    hi_bound: Vec<f64>,
    /// Clean rows sorted descending by upper bound; `bound` is the
    /// lower bound.
    hi_rows: Vec<CleanRow>,
    /// Boundary-exclusive rows, ascending by lower bound.
    excl_lo: Vec<ExclRow>,
    /// The same rows, descending by upper bound.
    excl_hi: Vec<ExclRow>,
    /// `!=`-carrying rows, scanned per probe without pruning.
    verify: Vec<VerifyRow>,
}

impl PackedAttr {
    fn is_empty(&self) -> bool {
        self.lo_rows.is_empty() && self.excl_lo.is_empty() && self.verify.is_empty()
    }

    /// Derives the `hi`-sorted duals once every row has been pushed
    /// into the `lo`-sorted halves (which arrive pre-sorted from the
    /// lower-endpoint map's ascending iteration).
    fn finish(&mut self) {
        let mut ix: Vec<u32> = (0..self.lo_rows.len() as u32).collect();
        ix.sort_unstable_by(|&a, &b| {
            self.lo_rows[b as usize]
                .bound
                .total_cmp(&self.lo_rows[a as usize].bound)
        });
        self.hi_bound = ix.iter().map(|&i| self.lo_rows[i as usize].bound).collect();
        self.hi_rows = ix
            .iter()
            .map(|&i| CleanRow {
                bound: self.lo_bound[i as usize],
                slot: self.lo_rows[i as usize].slot,
            })
            .collect();
        self.excl_hi = self.excl_lo.clone();
        self.excl_hi.sort_unstable_by(|a, b| b.hi.total_cmp(&a.hi));
    }

    /// Calls `bump(slot)` once for every interval row satisfied by the
    /// numeric probe `x` (of `value`). Exact: no false positives, no
    /// false negatives, at most one bump per row.
    #[inline]
    fn scan(&self, x: f64, value: &Value, bump: &mut impl FnMut(u32)) {
        let lo_cnt = self
            .lo_bound
            .partition_point(|lo| lo.total_cmp(&x) != Ordering::Greater);
        let hi_cnt = self
            .hi_bound
            .partition_point(|hi| hi.total_cmp(&x) != Ordering::Less);
        if lo_cnt <= hi_cnt {
            for r in &self.lo_rows[..lo_cnt] {
                if x.total_cmp(&r.bound) != Ordering::Greater {
                    bump(r.slot);
                }
            }
        } else {
            for r in &self.hi_rows[..hi_cnt] {
                if r.bound.total_cmp(&x) != Ordering::Greater {
                    bump(r.slot);
                }
            }
        }
        if !self.excl_lo.is_empty() {
            let el = self
                .excl_lo
                .partition_point(|r| r.lo.total_cmp(&x) != Ordering::Greater);
            let eh = self
                .excl_hi
                .partition_point(|r| r.hi.total_cmp(&x) != Ordering::Less);
            let side = if el <= eh {
                &self.excl_lo[..el]
            } else {
                &self.excl_hi[..eh]
            };
            for r in side {
                if excl_hit(r, x) {
                    bump(r.slot);
                }
            }
        }
        for v in &self.verify {
            if v.cons.get().satisfied_by(value) {
                bump(v.slot);
            }
        }
    }
}

/// The immutable packed snapshot of the table's interval rows, per
/// attribute (module docs, "The matching kernel"). Clones of an index
/// share it; each clone's own writes age it separately.
type PackedTables = FastMap<String, PackedAttr>;

/// Reusable per-thread buffers of the matching kernel.
#[derive(Default)]
struct MatchScratch {
    /// Per slot, the constraints the publication being probed has yet
    /// to satisfy, copied from [`SlotTable::seed`]; 0 is a slot that
    /// is done or was never to complete.
    cells: Vec<u16>,
    /// Slots the publication being probed has completed.
    done: Vec<u32>,
}

thread_local! {
    static SCRATCH: RefCell<MatchScratch> = RefCell::default();
}

/// A counting match index over `(key, Filter)` pairs.
///
/// Results are always sorted by key and identical to what the
/// corresponding linear scans produce (see the module docs for the
/// argument; the broker's routing layer additionally asserts this in
/// debug builds).
///
/// # Examples
///
/// ```
/// use transmob_pubsub::{Filter, MatchIndex, Publication};
///
/// let mut ix: MatchIndex<u32> = MatchIndex::new();
/// ix.insert(1, &Filter::builder().ge("x", 0).le("x", 10).build());
/// ix.insert(2, &Filter::builder().ge("x", 20).build());
/// let p = Publication::new().with("x", 5);
/// assert_eq!(ix.matching(&p), vec![1]);
/// ```
#[derive(Debug, Clone)]
pub struct MatchIndex<K> {
    /// A handle on every indexed filter, satisfiable or not: the body
    /// is the caller's, shared, never copied.
    filters: FastMap<K, Filter>,
    /// Satisfiable keys, sorted (overlap candidates).
    sat: BTreeSet<K>,
    /// Satisfiable keys with no constraints: they match everything.
    zero: BTreeSet<K>,
    /// Unsatisfiable keys: they match and overlap nothing.
    unsat: BTreeSet<K>,
    /// Keys of more constraints than a countdown cell can hold: the
    /// kernel checks their filters directly.
    wide: BTreeSet<K>,
    /// The per-attribute structures, by attribute name.
    attrs: FastMap<String, AttrIndex<K>>,
    /// Dense slot ids for the kernel's countdown (module docs).
    slots: SlotTable<K>,
    /// The packed snapshot, built by the first probe that finds none
    /// and dropped by the write that makes it too old (module docs,
    /// "Rebuild policy").
    packed: OnceLock<Arc<PackedTables>>,
    /// Slot-bearing inserts and removes since `packed` was built.
    stale_writes: usize,
}

impl<K: IndexKey> Default for MatchIndex<K> {
    fn default() -> Self {
        MatchIndex {
            filters: FastMap::default(),
            sat: BTreeSet::new(),
            zero: BTreeSet::new(),
            unsat: BTreeSet::new(),
            wide: BTreeSet::new(),
            attrs: FastMap::default(),
            slots: SlotTable::new(),
            packed: OnceLock::new(),
            stale_writes: 0,
        }
    }
}

impl<K: IndexKey> MatchIndex<K> {
    /// Creates an empty index.
    pub fn new() -> Self {
        MatchIndex::default()
    }

    /// [`MatchIndex::new`]. Only caller: `bench_e2e/src/layers.rs`
    /// (see [`Parallelism`]).
    #[doc(hidden)]
    pub fn with_parallelism(_par: Parallelism) -> Self {
        MatchIndex::new()
    }

    /// Number of indexed filters.
    pub fn len(&self) -> usize {
        self.filters.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.filters.is_empty()
    }

    /// The filter indexed under `key`, if any.
    pub fn get(&self, key: &K) -> Option<&Filter> {
        self.filters.get(key)
    }

    /// Indexes `filter` under `key`. Replaces any previous filter for
    /// the key (upsert semantics).
    pub fn insert(&mut self, key: K, filter: &Filter) {
        self.remove(&key);
        self.filters.insert(key, filter.clone());
        if !filter.is_satisfiable() {
            self.unsat.insert(key);
            return;
        }
        self.sat.insert(key);
        if filter.arity() == 0 {
            self.zero.insert(key);
            return;
        }
        let snapshotted = self.age_snapshot();
        let slot = self.slots.alloc(key, filter.arity());
        if self.slots.seed[slot as usize] == 0 {
            self.wide.insert(key);
        }
        // A reference to every constraint, filed under its attribute.
        for (at, (attr, _)) in filter.constraints().enumerate() {
            let cons = ConsRef {
                filter: filter.clone(),
                at,
            };
            self.attrs
                .entry(attr.to_owned())
                .or_insert_with(AttrIndex::new)
                .insert(key, slot, cons, snapshotted);
        }
    }

    /// Removes the filter indexed under `key`, reporting whether one
    /// was present.
    pub fn remove(&mut self, key: &K) -> bool {
        let Some(filter) = self.filters.remove(key) else {
            return false;
        };
        if self.unsat.remove(key) {
            return true;
        }
        self.sat.remove(key);
        if self.zero.remove(key) {
            return true;
        }
        self.wide.remove(key);
        for (attr, _) in filter.constraints() {
            if let Some(ai) = self.attrs.get_mut(attr) {
                ai.remove(*key);
                if ai.is_empty() {
                    self.attrs.remove(attr);
                }
            }
        }
        let snapshotted = self.age_snapshot();
        self.slots.release(key, snapshotted);
        true
    }

    /// Counts one slot-bearing write against the packed snapshot and
    /// drops it once it is too old ([`REBUILD_FRACTION`]); reports
    /// whether one is still there for the write to be tracked beside.
    fn age_snapshot(&mut self) -> bool {
        if self.packed.get().is_none() {
            return false;
        }
        self.stale_writes += 1;
        if self.stale_writes > REBUILD_FLOOR + self.slots.of.len() / REBUILD_FRACTION {
            self.drop_snapshot();
            return false;
        }
        true
    }

    /// Drops the packed snapshot and everything tracked beside it.
    fn drop_snapshot(&mut self) {
        if self.packed.take().is_some() {
            self.stale_writes = 0;
            self.slots.unpark();
            for ai in self.attrs.values_mut() {
                ai.fresh.clear();
            }
        }
    }

    /// The packed snapshot, built first if there is none.
    fn packed(&self) -> &PackedTables {
        self.packed.get_or_init(|| {
            let mut attrs = PackedTables::default();
            for (attr, ai) in &self.attrs {
                let mut pa = PackedAttr::default();
                for r in ai.by_lo.values().flatten() {
                    let excl = r.flags & (LO_EXCL | HI_EXCL);
                    if r.has_exclusions() {
                        pa.verify.push(VerifyRow {
                            slot: r.slot,
                            cons: ai.cons[&r.key].clone(),
                        });
                    } else if excl != 0 {
                        pa.excl_lo.push(ExclRow {
                            lo: r.lo,
                            hi: r.hi,
                            slot: r.slot,
                            flags: excl,
                        });
                    } else if r.flags != 0 || r.lo.total_cmp(&r.hi) != Ordering::Equal {
                        // (Clean points are probed in `num_eq`.)
                        pa.lo_bound.push(r.lo);
                        pa.lo_rows.push(CleanRow {
                            bound: r.hi,
                            slot: r.slot,
                        });
                    }
                }
                if !pa.is_empty() {
                    pa.finish();
                    attrs.insert(attr.clone(), pa);
                }
            }
            Arc::new(attrs)
        })
    }

    /// Keys of filters matching `publication`, sorted: the fold on a
    /// batch of one.
    pub fn matching(&self, publication: &Publication) -> Vec<K> {
        self.matching_batch(std::slice::from_ref(publication))
            .pop()
            .expect("one result row per publication")
    }

    /// [`MatchIndex::matching`] for every publication of a batch,
    /// returning one sorted key vector per publication (same order as
    /// `pubs`): [`MatchIndex::fold_matching`] into a vector that is
    /// never saturated, sorted.
    pub fn matching_batch(&self, pubs: &[Publication]) -> Vec<Vec<K>> {
        self.fold_matching(
            pubs,
            Vec::new,
            |row: &mut Vec<K>, k| row.push(k),
            |_| false,
            |row: &mut Vec<K>| row.sort_unstable(),
        )
    }

    /// The matching kernel, on the calling thread: folds the keys
    /// matching each publication of `pubs` into one accumulator a
    /// publication (same order as `pubs`). `init` makes the
    /// accumulator; `step` takes a matching key; `saturated` says that
    /// no further key could change the accumulator, which ends that
    /// publication's probes; `finish` runs once, last (the place for a
    /// sort the accumulator's contract promises). The module docs
    /// ("The matching kernel") say when each is called and what it may
    /// assume; a fold that is never saturated is stepped with every
    /// matching key, once. The closures must not probe a
    /// [`MatchIndex`] themselves (the kernel's per-thread scratch is
    /// borrowed while they run).
    ///
    /// Per publication, every probe decrements the cells of the slots
    /// whose constraint on the probed attribute the value satisfies —
    /// at most once per slot and attribute — and a cell reaching zero
    /// completes its slot. Saturating at zero keeps a slot seeded with
    /// 0 dead however often stale or uncounted rows bump it. The
    /// zero-arity keys are stepped before the first probe, the slots an
    /// attribute completed after its probe, and the `wide` keys whose
    /// filter matches last, if the fold is still unsaturated by then.
    pub fn fold_matching<P: Borrow<Publication>, A>(
        &self,
        pubs: &[P],
        init: impl Fn() -> A,
        step: impl Fn(&mut A, K),
        saturated: impl Fn(&mut A) -> bool,
        finish: impl Fn(&mut A),
    ) -> Vec<A> {
        let packed = self.packed();
        SCRATCH.with_borrow_mut(|MatchScratch { cells, done }| {
            pubs.iter()
                .map(|p| {
                    let p = p.borrow();
                    let mut acc = init();
                    'probes: {
                        if !self.zero.is_empty() {
                            for &k in &self.zero {
                                step(&mut acc, k);
                            }
                            if saturated(&mut acc) {
                                break 'probes;
                            }
                        }
                        cells.clear();
                        cells.extend_from_slice(&self.slots.seed);
                        for (attr, value) in p.iter() {
                            let Some(ai) = self.attrs.get(attr) else {
                                continue;
                            };
                            done.clear();
                            let mut bump = |slot: u32| {
                                let cell = &mut cells[slot as usize];
                                if *cell == 1 {
                                    done.push(slot);
                                }
                                *cell = cell.saturating_sub(1);
                            };
                            if let Some(x) = value.as_f64() {
                                if let Some(keys) = ai.num_eq.get(&x.to_bits()) {
                                    for &(_, slot) in keys {
                                        bump(slot);
                                    }
                                }
                                if let Some(pa) = packed.get(attr) {
                                    pa.scan(x, value, &mut bump);
                                }
                                for row in &ai.fresh {
                                    if row.cons.get().satisfied_by(value) {
                                        bump(row.slot);
                                    }
                                }
                            } else if let Some(s) = value.as_str() {
                                ai.str_satisfied(s, value, &mut bump);
                            }
                            ai.common_satisfied(value, &mut bump);
                            if !done.is_empty() {
                                for &slot in done.iter() {
                                    step(&mut acc, self.slots.keys[slot as usize]);
                                }
                                if saturated(&mut acc) {
                                    break 'probes;
                                }
                            }
                        }
                        for k in &self.wide {
                            if self.filters[k].matches(p) {
                                step(&mut acc, *k);
                            }
                        }
                    }
                    finish(&mut acc);
                    acc
                })
                .collect()
        })
    }

    /// Asserts that the slot table covers exactly the satisfiable
    /// arity ≥ 1 keys with consistent key/seed mirrors. Test support.
    #[doc(hidden)]
    pub fn check_slot_invariants(&self) {
        let expected = self.sat.len() - self.zero.len();
        assert_eq!(self.slots.of.len(), expected, "slot table size mismatch");
        for (k, slot) in &self.slots.of {
            let s = *slot as usize;
            assert_eq!(self.slots.keys[s], *k, "slot {slot} key mirror mismatch");
            assert_eq!(
                self.slots.seed[s],
                u16::try_from(self.filters[k].arity()).unwrap_or(0),
                "slot {slot} countdown seed mismatch"
            );
            assert_eq!(
                self.slots.seed[s] == 0,
                self.wide.contains(k),
                "slot {slot} wide-set mismatch"
            );
        }
    }

    /// Keys of filters overlapping `filter`, sorted.
    ///
    /// A stored filter overlaps the query iff its constraint overlaps
    /// the query's on *every attribute both sides constrain*;
    /// attributes only one side constrains never disqualify — exactly
    /// the [`Filter::overlaps`] semantics. Per shared attribute the
    /// overlap-qualified keys come out of the dual-endpoint range scans
    /// (module docs); the result is seeded from the attribute promising
    /// the fewest survivors and filtered by the rest.
    pub fn overlapping(&self, filter: &Filter) -> Vec<K> {
        if !filter.is_satisfiable() {
            return Vec::new();
        }
        // Per query attribute at least one stored filter constrains:
        // the attribute index and its overlap-qualified keys.
        let mut relevant: Vec<(&AttrIndex<K>, Vec<K>)> = filter
            .constraints()
            .filter_map(|(attr, qc)| {
                self.attrs
                    .get(attr)
                    .map(|ai| (ai, ai.overlap_qualified(qc)))
            })
            .collect();
        if relevant.is_empty() {
            return self.sat.iter().copied().collect();
        }
        // The keys an attribute allows through are its qualified keys
        // plus every key not constraining it at all, so the survivor
        // count is bounded by |qualified| + (|sat| − |constraining|).
        let seed = (0..relevant.len())
            .min_by_key(|&i| relevant[i].1.len() + self.sat.len() - relevant[i].0.cons.len())
            .expect("relevant is non-empty");
        let (seed_ai, seed_q) = {
            let (ai, q) = &mut relevant[seed];
            (*ai, std::mem::take(q))
        };
        let mut out: Vec<K> = if seed_ai.cons.len() == self.sat.len() {
            // Every satisfiable filter constrains the seed attribute.
            seed_q
        } else {
            self.sat
                .iter()
                .copied()
                .filter(|k| !seed_ai.cons.contains_key(k) || seed_q.binary_search(k).is_ok())
                .collect()
        };
        for (i, (ai, q)) in relevant.iter().enumerate() {
            if i == seed {
                continue;
            }
            out.retain(|k| !ai.cons.contains_key(k) || q.binary_search(k).is_ok());
        }
        out
    }

    /// Keys of stored filters that *cover* `filter` (`stored.covers(filter)`),
    /// sorted. Exact per [`Filter::covers`], including its sound-but-
    /// incomplete string contract.
    ///
    /// Counting scheme: a stored filter covers the query iff every one
    /// of its constraints covers the query's constraint on the same
    /// attribute — so bumps only come from the query's attributes, and
    /// a key qualifies when its bump count reaches its own arity.
    /// Zero-arity filters cover everything; unsatisfiable queries are
    /// covered by everything.
    pub fn covering(&self, filter: &Filter) -> Vec<K> {
        if !filter.is_satisfiable() {
            let mut out: Vec<K> = self.filters.keys().copied().collect();
            out.sort_unstable();
            return out;
        }
        let mut out: Vec<K> = self.zero.iter().copied().collect();
        let mut counts: FastMap<K, usize> = FastMap::default();
        for (attr, qc) in filter.constraints() {
            if let Some(ai) = self.attrs.get(attr) {
                ai.count_covering(qc, &mut |k| *counts.entry(k).or_insert(0) += 1);
            }
        }
        for (k, n) in counts {
            if self.filters[&k].arity() == n {
                out.push(k);
            }
        }
        out.sort_unstable();
        out
    }

    /// Keys of stored filters `filter` covers (`filter.covers(stored)`),
    /// sorted — the active-retraction / covering-release candidate set.
    ///
    /// Counting scheme: the query covers a satisfiable stored filter
    /// iff the stored filter carries a covered constraint on *every*
    /// query attribute, so a key qualifies when its bump count reaches
    /// the query's arity. Unsatisfiable stored filters are covered by
    /// anything; a zero-arity satisfiable query covers everything.
    pub fn covered_by(&self, filter: &Filter) -> Vec<K> {
        let mut out: Vec<K> = self.unsat.iter().copied().collect();
        if !filter.is_satisfiable() {
            return out; // BTreeSet iteration order: already sorted
        }
        if filter.arity() == 0 {
            let mut out: Vec<K> = self.filters.keys().copied().collect();
            out.sort_unstable();
            return out;
        }
        if filter.arity() == 1 {
            // Single-attribute query: every bump qualifies outright
            // (each attribute bumps a key at most once), so the
            // counting map is pure overhead on the release hot path.
            let (attr, qc) = filter.constraints().next().expect("arity 1");
            if let Some(ai) = self.attrs.get(attr) {
                ai.count_covered_by(qc, &mut |k| out.push(k));
            }
            out.sort_unstable();
            return out;
        }
        let mut counts: FastMap<K, usize> = FastMap::default();
        for (attr, qc) in filter.constraints() {
            if let Some(ai) = self.attrs.get(attr) {
                ai.count_covered_by(qc, &mut |k| *counts.entry(k).or_insert(0) += 1);
            }
        }
        for (k, n) in counts {
            if n == filter.arity() {
                out.push(k);
            }
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{Op, Predicate};

    /// The reference implementations the index must agree with.
    fn linear_matching(table: &BTreeMap<u32, Filter>, p: &Publication) -> Vec<u32> {
        table
            .iter()
            .filter(|(_, f)| f.matches(p))
            .map(|(k, _)| *k)
            .collect()
    }

    fn linear_overlapping(table: &BTreeMap<u32, Filter>, q: &Filter) -> Vec<u32> {
        table
            .iter()
            .filter(|(_, f)| f.overlaps(q))
            .map(|(k, _)| *k)
            .collect()
    }

    fn linear_covering(table: &BTreeMap<u32, Filter>, q: &Filter) -> Vec<u32> {
        table
            .iter()
            .filter(|(_, f)| f.covers(q))
            .map(|(k, _)| *k)
            .collect()
    }

    fn linear_covered_by(table: &BTreeMap<u32, Filter>, q: &Filter) -> Vec<u32> {
        table
            .iter()
            .filter(|(_, f)| q.covers(f))
            .map(|(k, _)| *k)
            .collect()
    }

    fn build(filters: Vec<Filter>) -> (BTreeMap<u32, Filter>, MatchIndex<u32>) {
        let mut table = BTreeMap::new();
        let mut ix = MatchIndex::new();
        for (i, f) in filters.into_iter().enumerate() {
            ix.insert(i as u32, &f);
            table.insert(i as u32, f);
        }
        (table, ix)
    }

    fn assorted_filters() -> Vec<Filter> {
        vec![
            Filter::builder().ge("x", 0).le("x", 10).build(),
            Filter::builder().ge("x", 5).le("x", 20).ne("x", 7).build(),
            Filter::builder().eq("x", 7).build(),
            Filter::builder().gt("x", 10).build(),
            Filter::builder().lt("x", 0).build(),
            Filter::builder().eq("x", 7).ne("x", 7).build(), // unsatisfiable
            Filter::new(vec![]),                             // matches everything
            Filter::builder().any("x").build(),
            Filter::builder().eq("s", "alpha").build(),
            Filter::builder().prefix("s", "al").build(),
            Filter::builder()
                .prefix("s", "be")
                .suffix("s", "ta")
                .build(),
            Filter::builder().contains("s", "ph").build(),
            Filter::builder().ge("s", "a").lt("s", "c").build(),
            Filter::builder().eq("b", true).build(),
            Filter::builder().eq("b", false).build(),
            Filter::builder().ge("x", 0).eq("s", "alpha").build(),
            Filter::builder().ge("x", 0).le("y", 5).build(),
            Filter::builder().eq("x", 3.5).build(),
            Filter::builder().gt("x", 3).lt("x", 4).build(),
        ]
    }

    fn probes() -> Vec<Publication> {
        let mut ps = vec![Publication::new()];
        for x in [-5i64, 0, 3, 7, 10, 11, 15, 25] {
            ps.push(Publication::new().with("x", x));
            ps.push(Publication::new().with("x", x).with("y", 3));
        }
        ps.push(Publication::new().with("x", 3.5));
        ps.push(Publication::new().with("x", 3.25));
        for s in ["alpha", "al", "beta", "bta", "graph", "c", ""] {
            ps.push(Publication::new().with("s", s));
            ps.push(Publication::new().with("s", s).with("x", 7));
        }
        ps.push(Publication::new().with("b", true));
        ps.push(Publication::new().with("b", false));
        ps.push(Publication::new().with("z", 1));
        ps
    }

    #[test]
    fn matching_agrees_with_linear_scan() {
        let (table, ix) = build(assorted_filters());
        for p in probes() {
            assert_eq!(ix.matching(&p), linear_matching(&table, &p), "probe {p}");
        }
    }

    #[test]
    fn overlapping_agrees_with_linear_scan() {
        let (table, ix) = build(assorted_filters());
        for q in assorted_filters() {
            assert_eq!(
                ix.overlapping(&q),
                linear_overlapping(&table, &q),
                "query {q}"
            );
        }
    }

    #[test]
    fn covering_agrees_with_linear_scan() {
        let (table, ix) = build(assorted_filters());
        for q in assorted_filters() {
            assert_eq!(ix.covering(&q), linear_covering(&table, &q), "query {q}");
            assert_eq!(
                ix.covered_by(&q),
                linear_covered_by(&table, &q),
                "query {q}"
            );
        }
    }

    #[test]
    fn covering_endpoint_edge_cases() {
        // Exercises the inclusive-prune / exact-verify boundary: open
        // vs closed bounds meeting at the same endpoint, unbounded
        // sides, exclusions sitting on interval edges, and point
        // constraints as degenerate intervals.
        let (table, ix) = build(vec![
            Filter::builder().ge("x", 0).le("x", 10).build(),
            Filter::builder().gt("x", 0).le("x", 10).build(),
            Filter::builder().ge("x", 0).lt("x", 10).build(),
            Filter::builder().ge("x", 0).le("x", 10).ne("x", 0).build(),
            Filter::builder().ge("x", 0).le("x", 10).ne("x", 5).build(),
            Filter::builder().ge("x", 0).build(),
            Filter::builder().le("x", 10).build(),
            Filter::builder().eq("x", 0).build(),
            Filter::builder().eq("x", 10).build(),
            Filter::builder().any("x").build(),
            Filter::new(vec![]),
        ]);
        let queries = [
            Filter::builder().ge("x", 0).le("x", 10).build(),
            Filter::builder().gt("x", 0).lt("x", 10).build(),
            Filter::builder().ge("x", 0).le("x", 10).ne("x", 10).build(),
            Filter::builder().eq("x", 0).build(),
            Filter::builder().eq("x", 10).build(),
            Filter::builder().ge("x", 2).le("x", 8).build(),
            Filter::builder().ge("x", 2).le("x", 8).ne("x", 5).build(),
            Filter::builder().ge("x", 0).build(),
            Filter::builder().any("x").build(),
        ];
        for q in queries {
            assert_eq!(ix.covering(&q), linear_covering(&table, &q), "query {q}");
            assert_eq!(
                ix.covered_by(&q),
                linear_covered_by(&table, &q),
                "query {q}"
            );
            assert_eq!(
                ix.overlapping(&q),
                linear_overlapping(&table, &q),
                "query {q}"
            );
        }
    }

    #[test]
    fn churn_keeps_index_consistent() {
        let filters = assorted_filters();
        let (mut table, mut ix) = build(filters.clone());
        // Remove every other key, re-check, re-insert shifted filters,
        // re-check: exercises bucket vacation and re-population.
        for k in (0..filters.len() as u32).step_by(2) {
            assert!(ix.remove(&k));
            assert!(!ix.remove(&k));
            table.remove(&k);
        }
        for p in probes() {
            assert_eq!(ix.matching(&p), linear_matching(&table, &p));
        }
        for (i, f) in filters.iter().enumerate().take(8) {
            let k = 100 + i as u32;
            ix.insert(k, f);
            table.insert(k, f.clone());
        }
        for p in probes() {
            assert_eq!(ix.matching(&p), linear_matching(&table, &p));
        }
        for q in filters.iter() {
            assert_eq!(ix.overlapping(q), linear_overlapping(&table, q));
            assert_eq!(ix.covering(q), linear_covering(&table, q));
            assert_eq!(ix.covered_by(q), linear_covered_by(&table, q));
        }
    }

    #[test]
    fn upsert_replaces_previous_filter() {
        let mut ix = MatchIndex::new();
        ix.insert(1u32, &Filter::builder().ge("x", 0).le("x", 10).build());
        ix.insert(1u32, &Filter::builder().ge("x", 50).build());
        let p = Publication::new().with("x", 5);
        assert!(ix.matching(&p).is_empty());
        assert_eq!(ix.matching(&Publication::new().with("x", 60)), vec![1]);
        assert_eq!(ix.len(), 1);
    }

    #[test]
    fn open_bounds_are_respected() {
        let mut ix = MatchIndex::new();
        ix.insert(1u32, &Filter::builder().gt("x", 10).le("x", 20).build());
        assert!(ix.matching(&Publication::new().with("x", 10)).is_empty());
        assert_eq!(ix.matching(&Publication::new().with("x", 11)), vec![1]);
        assert_eq!(ix.matching(&Publication::new().with("x", 20)), vec![1]);
        assert!(ix.matching(&Publication::new().with("x", 21)).is_empty());
    }

    #[test]
    fn mismatched_kinds_do_not_match() {
        let mut ix = MatchIndex::new();
        ix.insert(1u32, &Filter::builder().ge("x", 0).build());
        ix.insert(2u32, &Filter::builder().eq("x", "zero").build());
        assert_eq!(ix.matching(&Publication::new().with("x", 1)), vec![1]);
        assert_eq!(ix.matching(&Publication::new().with("x", "zero")), vec![2]);
    }

    #[test]
    fn presence_constraint_matches_any_kind() {
        let mut ix = MatchIndex::new();
        ix.insert(1u32, &Filter::new(vec![Predicate::any("x")]));
        for v in [Value::Int(1), Value::from("s"), Value::Bool(true)] {
            let mut p = Publication::new();
            p.set("x", v);
            assert_eq!(ix.matching(&p), vec![1]);
        }
        assert!(ix.matching(&Publication::new().with("y", 1)).is_empty());
    }

    #[test]
    fn int_float_promotion_hits_point_buckets() {
        // `x = 7` built from an integer predicate must match the float
        // publication 7.0 and vice versa (both normalize to f64 bits).
        let mut ix = MatchIndex::new();
        ix.insert(1u32, &Filter::builder().eq("x", 7).build());
        assert_eq!(ix.matching(&Publication::new().with("x", 7.0)), vec![1]);
        ix.insert(2u32, &Filter::builder().eq("y", 2.0).build());
        assert_eq!(ix.matching(&Publication::new().with("y", 2)), vec![2]);
    }

    #[test]
    fn overlap_ignores_attrs_only_one_side_constrains() {
        let mut ix = MatchIndex::new();
        ix.insert(
            1u32,
            &Filter::builder().ge("price", 0).le("price", 50).build(),
        );
        let q = Filter::builder().ge("price", 40).eq("sym", "A").build();
        assert_eq!(ix.overlapping(&q), vec![1]);
        let disjoint = Filter::builder().gt("price", 60).build();
        assert!(ix.overlapping(&disjoint).is_empty());
    }

    #[test]
    fn batch_matching_agrees_with_per_publication_matching() {
        let (table, ix) = build(assorted_filters());
        let batch = probes();
        let got = ix.matching_batch(&batch);
        assert_eq!(got.len(), batch.len());
        for (i, p) in batch.iter().enumerate() {
            assert_eq!(got[i], linear_matching(&table, p), "probe {i} ({p})");
        }
        // Duplicated, unsorted, and empty batches behave identically.
        let mut shuffled: Vec<Publication> = batch.iter().rev().cloned().collect();
        shuffled.extend(batch.iter().cloned());
        for (i, p) in shuffled.iter().enumerate() {
            assert_eq!(
                ix.matching_batch(&shuffled)[i],
                ix.matching(p),
                "shuffled probe {i}"
            );
        }
        assert!(ix.matching_batch(&[]).is_empty());
    }

    #[test]
    fn fold_steps_once_per_matching_key() {
        // Zero-arity keys and counted keys, publications passed by
        // reference: the fold hands every matching key to `step`
        // exactly once and every accumulator to `finish` once.
        let (table, ix) = build(assorted_filters());
        let batch = probes();
        let refs: Vec<&Publication> = batch.iter().collect();
        let got = ix.fold_matching(
            &refs,
            BTreeMap::new,
            |seen, k| *seen.entry(k).or_insert(0usize) += 1,
            |_| false,
            |seen| assert_eq!(seen.insert(u32::MAX, 0), None, "finished twice"),
        );
        assert_eq!(got.len(), batch.len());
        for (i, p) in batch.iter().enumerate() {
            let want: BTreeMap<u32, usize> = linear_matching(&table, p)
                .into_iter()
                .map(|k| (k, 1))
                .chain([(u32::MAX, 0)])
                .collect();
            assert_eq!(got[i], want, "probe {i} ({p})");
        }
    }

    /// A fold into the keys stepped and whether saturation was
    /// reported, which it is as soon as it is asked: `step` asserts it
    /// never runs after that.
    fn fold_until_first_asked(ix: &MatchIndex<u32>, pubs: &[Publication]) -> Vec<(Vec<u32>, bool)> {
        ix.fold_matching(
            pubs,
            || (Vec::new(), false),
            |(keys, said), k| {
                assert!(!*said, "key {k} stepped after saturation");
                keys.push(k);
            },
            |(_, said)| {
                *said = true;
                true
            },
            |(keys, _)| keys.sort_unstable(),
        )
    }

    #[test]
    fn saturated_fold_is_not_stepped_again_and_the_batch_goes_on() {
        let (table, ix) = build(vec![
            Filter::builder().ge("x", 0).le("x", 10).build(),
            Filter::builder().ge("y", 0).le("y", 10).build(),
            Filter::builder().ge("x", 0).le("y", 10).build(),
            Filter::builder().eq("x", 5).build(),
        ]);
        let batch = vec![
            Publication::new().with("x", 5).with("y", 5),
            Publication::new().with("y", 5),
            Publication::new().with("x", 50),
            Publication::new().with("x", 7).with("y", 5),
        ];
        // Attributes are probed in name order: `x` completes keys 0
        // and 3 and the fold says it has enough, so `y` is never
        // probed and keys 1 and 2 never stepped. The next publications
        // start afresh; one that completes nothing is never asked.
        assert_eq!(
            fold_until_first_asked(&ix, &batch),
            vec![
                (vec![0, 3], true),
                (vec![1], true),
                (vec![], false),
                (vec![0], true),
            ]
        );
        // An accumulator that is never saturated sees every key.
        assert_eq!(ix.matching(&batch[0]), vec![0, 1, 2, 3]);
        for p in &batch {
            assert_eq!(ix.matching(p), linear_matching(&table, p), "probe {p}");
        }
    }

    #[test]
    fn zero_arity_keys_saturate_before_any_probe() {
        let everything = || Filter::new(vec![]);
        let p = Publication::new().with("x", 5);
        let (_, ix) = build(vec![everything(), everything()]);
        let asked = std::cell::Cell::new(0);
        let got = ix.fold_matching(
            std::slice::from_ref(&p),
            Vec::new,
            |keys: &mut Vec<u32>, k| keys.push(k),
            |_| {
                asked.set(asked.get() + 1);
                true
            },
            |keys| keys.sort_unstable(),
        );
        assert_eq!(got, vec![vec![0, 1]]);
        assert_eq!(asked.get(), 1);
        // Beside a counted row that matches too: saturated by the
        // zero-arity keys, the fold never sets up the countdown.
        let (table, ix) = build(vec![everything(), Filter::builder().ge("x", 0).build()]);
        SCRATCH.with_borrow_mut(|s| s.cells.clear());
        assert_eq!(
            fold_until_first_asked(&ix, std::slice::from_ref(&p)),
            vec![(vec![0], true)]
        );
        SCRATCH.with_borrow(|s| assert!(s.cells.is_empty(), "probed after saturation"));
        assert_eq!(ix.matching(&p), linear_matching(&table, &p));
        SCRATCH.with_borrow(|s| assert_eq!(s.cells.len(), 1));
    }

    #[test]
    fn kernel_handles_boundary_cases() {
        // Rows whose bounds collide with probe values in every
        // open/closed combination (clean, boundary-exclusive and
        // `!=`-carrying snapshot tiers, point buckets), probed below,
        // on, between and past every endpoint, with repeats.
        let (table, ix) = build(vec![
            Filter::builder().ge("x", 0).le("x", 10).build(),
            Filter::builder().gt("x", 0).le("x", 10).build(),
            Filter::builder().ge("x", 0).lt("x", 10).build(),
            Filter::builder().gt("x", 0).lt("x", 10).build(),
            Filter::builder().ge("x", 0).le("x", 10).ne("x", 5).build(),
            Filter::builder()
                .ge("x", 10)
                .le("x", 10)
                .ne("x", 10)
                .build(),
            Filter::builder().eq("x", 0).build(),
            Filter::builder().eq("x", 10).build(),
            Filter::builder().ge("x", 5).build(),
            Filter::builder().le("x", 5).build(),
        ]);
        let batch: Vec<Publication> = [-1i64, 0, 0, 5, 5, 10, 10, 11, 100]
            .into_iter()
            .map(|x| Publication::new().with("x", x))
            .collect();
        let got = ix.matching_batch(&batch);
        for (i, p) in batch.iter().enumerate() {
            assert_eq!(got[i], linear_matching(&table, p), "probe {i} ({p})");
            assert_eq!(ix.matching(p), got[i], "probe {i} ({p}) alone");
        }
    }

    #[test]
    fn batch_matching_mixes_value_kinds() {
        let (table, ix) = build(assorted_filters());
        let batch = vec![
            Publication::new().with("x", 7).with("s", "alpha"),
            Publication::new().with("s", "beta").with("b", true),
            Publication::new(),
            Publication::new().with("x", 3.5).with("y", 2),
            Publication::new().with("b", false).with("x", 25),
        ];
        let got = ix.matching_batch(&batch);
        for (i, p) in batch.iter().enumerate() {
            assert_eq!(got[i], linear_matching(&table, p), "probe {i} ({p})");
        }
    }

    #[test]
    fn predicate_ops_needing_fallback_paths() {
        // Suffix-only and contains-only string constraints take the
        // `other` fallback; make sure they are exact there.
        let (table, ix) = build(vec![
            Filter::new(vec![Predicate::new("s", Op::StrSuffix, "ta")]),
            Filter::new(vec![Predicate::new("s", Op::StrContains, "et")]),
            Filter::new(vec![Predicate::new("s", Op::Neq, "beta")]),
        ]);
        for s in ["beta", "theta", "et", "", "ta"] {
            let p = Publication::new().with("s", s);
            assert_eq!(ix.matching(&p), linear_matching(&table, &p), "s={s}");
        }
    }

    #[test]
    fn churn_recycles_slots_consistently() {
        let filters = assorted_filters();
        let (mut table, mut ix) = build(filters.clone());
        for k in (0..filters.len() as u32).step_by(2) {
            assert!(ix.remove(&k));
            table.remove(&k);
        }
        // Re-inserting reuses freed slot ids; answers must be unchanged.
        for (i, f) in filters.iter().enumerate().take(8) {
            let k = 100 + i as u32;
            ix.insert(k, f);
            table.insert(k, f.clone());
        }
        // Upsert in place.
        ix.insert(101, &Filter::builder().ge("y", 1).le("y", 2).build());
        table.insert(101, Filter::builder().ge("y", 1).le("y", 2).build());
        ix.check_slot_invariants();
        let batch = probes();
        let got = ix.matching_batch(&batch);
        for (i, p) in batch.iter().enumerate() {
            assert_eq!(got[i], linear_matching(&table, p), "probe {i} ({p})");
        }
        for q in filters.iter() {
            assert_eq!(ix.covering(q), linear_covering(&table, q));
            assert_eq!(ix.covered_by(q), linear_covered_by(&table, q));
        }
    }

    #[test]
    fn filter_wider_than_a_cell_is_matched_exactly() {
        // 70 000 constraints do not fit a `u16` countdown cell: the
        // filter is checked directly, beside ordinary counted rows.
        const WIDE: usize = 70_000;
        let attr = |i: usize| format!("w{i}");
        let wide = Filter::new(
            (0..WIDE)
                .map(|i| Predicate::new(attr(i), Op::Ge, 0))
                .collect(),
        );
        assert_eq!(wide.arity(), WIDE);
        let (mut table, mut ix) = build(vec![
            Filter::builder().ge("w0", 0).le("w0", 10).build(),
            wide,
            Filter::builder().eq("w1", 1).any("w2").build(),
        ]);
        ix.check_slot_invariants();
        let mut full = Publication::new();
        for i in 0..WIDE {
            full.set(attr(i), 1);
        }
        let mut short = full.clone();
        short.set(attr(WIDE - 1), -1);
        let narrow = Publication::new().with("w0", 5);
        for p in [&full, &short, &narrow] {
            assert_eq!(ix.matching(p), linear_matching(&table, p));
        }
        assert_eq!(ix.matching(&full), vec![0, 1, 2]);
        assert_eq!(ix.matching(&short), vec![0, 2]);
        // Wide keys come last: a fold saturated by then skips them, an
        // unsaturated one (`matching`, above) still finds them.
        let early = fold_until_first_asked(&ix, std::slice::from_ref(&full));
        assert_eq!(early, vec![(vec![0], true)]);
        // Removal frees it like any other row.
        assert!(ix.remove(&1));
        table.remove(&1);
        ix.check_slot_invariants();
        assert_eq!(ix.matching(&full), vec![0, 2]);
        assert_eq!(ix.matching_batch(&[full, short]), vec![vec![0, 2]; 2]);
    }

    #[test]
    fn index_holds_the_callers_body_not_a_copy() {
        // An exclusion-carrying band (a `verify` row of the snapshot
        // for the first key, a `fresh` row beside it for the second),
        // a string and a point.
        let f = Filter::builder()
            .ge("x", 0)
            .le("x", 10)
            .ne("x", 5)
            .eq("s", "alpha")
            .eq("y", 3)
            .build();
        let hit = Publication::new()
            .with("x", 4)
            .with("s", "alpha")
            .with("y", 3);
        let mut ix = MatchIndex::new();
        ix.insert(1u32, &f);
        assert_eq!(ix.matching(&hit), vec![1]);
        ix.insert(2u32, &f);
        assert_eq!(ix.matching(&hit), vec![1, 2]);
        for k in [1u32, 2] {
            assert!(Filter::ptr_eq(ix.get(&k).unwrap(), &f));
            for (attr, c) in f.constraints() {
                let held = &ix.attrs[attr].cons[&k];
                assert!(Filter::ptr_eq(&held.filter, &f), "{attr} of {k}");
                assert!(std::ptr::eq(held.get(), c), "{attr} of {k}");
            }
        }
        let verified: Vec<&VerifyRow> = ix.packed()["x"]
            .verify
            .iter()
            .chain(&ix.attrs["x"].fresh)
            .collect();
        assert_eq!(verified.len(), 2);
        assert!(verified.iter().all(|r| Filter::ptr_eq(&r.cons.filter, &f)));
    }

    #[test]
    fn snapshot_ages_by_writes_and_defers_slot_reuse() {
        let band = |lo: i64| Filter::builder().ge("x", lo).le("x", lo + 10).build();
        let (mut table, mut ix) = build((0..200).map(band).collect());
        let probe = Publication::new().with("x", 100);
        assert!(ix.packed.get().is_none(), "built lazily, not by inserts");
        assert_eq!(ix.matching(&probe), linear_matching(&table, &probe));
        assert!(ix.packed.get().is_some());

        // Under the rebuild threshold, writes are tracked beside the
        // snapshot: inserted rows in `fresh`, released slots parked.
        let budget = REBUILD_FLOOR + 200 / REBUILD_FRACTION;
        assert!(ix.remove(&95));
        table.remove(&95);
        ix.insert(500, &band(95));
        table.insert(500, band(95));
        assert!(ix.packed.get().is_some());
        assert_eq!(ix.slots.parked.len(), 1, "slot of 95 waits for the build");
        assert_eq!(ix.slots.keys.len(), 201, "and was not handed to 500");
        assert_eq!(ix.attrs["x"].fresh.len(), 1);
        assert_eq!(ix.matching(&probe), linear_matching(&table, &probe));
        assert!(ix.matching(&probe).contains(&500));
        assert!(!ix.matching(&probe).contains(&95));
        // A fresh row removed again stays behind, dead.
        assert!(ix.remove(&500));
        table.remove(&500);
        assert_eq!(ix.matching(&probe), linear_matching(&table, &probe));

        // Crossing the threshold drops the snapshot and everything
        // tracked beside it; the next probe builds a new one.
        for i in 0..budget as u32 {
            ix.insert(1000 + i, &band(90 + i as i64 % 20));
            table.insert(1000 + i, band(90 + i as i64 % 20));
        }
        assert!(ix.packed.get().is_none(), "too many writes: dropped");
        assert!(ix.slots.parked.is_empty());
        assert!(ix.attrs["x"].fresh.is_empty());
        ix.check_slot_invariants();
        assert_eq!(ix.matching(&probe), linear_matching(&table, &probe));
        assert!(ix.packed.get().is_some());
    }
}
