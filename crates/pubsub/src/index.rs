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
//! filter besides: an attribute row holds the handle and the
//! constraint's position in the filter (`ConsRef`), beside two `f64`
//! endpoints, a flag word and the key's slot, and a filter's arity is
//! read off the filter. A row therefore costs the index a few dozen
//! bytes per constrained attribute whatever the filter's size, and a
//! table whose rows the caller also holds (a routing row, a client
//! stub) holds each body once.
//!
//! # Data layout
//!
//! Per constrained attribute (`AttrIndex`), every constraint is
//! written once into one record keyed by the row's key (`cons`): the
//! constraint by reference and, for a numeric one, its effective
//! endpoints and bound flags (`Ends`). An insert or a remove is one
//! keyed write there plus one in the bucket below that probes the
//! constraint; nothing else is written for a table that is only
//! matched against.
//!
//! - numeric **point** constraints (`x = c`, no exclusions) live in a
//!   hash map keyed by the *bit pattern* of the point. Under
//!   `f64::total_cmp` — the order all numeric constraints use — two
//!   floats are equal iff their bit patterns are equal, so a single
//!   hash probe with `value.to_bits()` is exact.
//! - general numeric **interval** constraints are probed through the
//!   packed snapshot the matching kernel derives from the records.
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
//! The attribute's name is copied into the table only by the insert
//! that first constrains it, and a string bucket's key only by the
//! insert that opens the bucket.
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
//! true relation, so these are prune conditions). The containment
//! queries ([`MatchIndex::overlapping`], [`MatchIndex::covering`],
//! [`MatchIndex::covered_by`]) therefore read every numeric constraint
//! — point or interval — from two ordered maps (`EndMaps`): `by_lo`,
//! keyed by the effective lower endpoint, and `by_hi`, keyed by the
//! effective upper endpoint. Each relation becomes a *pair of range
//! scans*, one per endpoint map, either of which enumerates every row
//! satisfying its half of the conjunction. The two are stepped in
//! lock-step, keeping nothing, until one ends, and the one that ended
//! is walked again as the candidates: total work is bounded by three
//! times the smaller side (instead of a per-constraint sweep of the
//! attribute), without a list of either. Candidates are then verified
//! against the authoritative [`Constraint`] relation.
//!
//! Each query is a *visit*: it hands each qualifying key to the
//! caller's visitor, an `FnMut(K) -> ControlFlow<()>` (the shape in
//! which the matching kernel hands keys to its fold), once, in no particular order, the
//! moment the key qualifies, and it stops where it stands when the
//! visitor breaks; no list or count map is built per call. A stored
//! filter of several constraints is found on one attribute and checked
//! on the rest against the authoritative [`Filter`] relation:
//! `covering` finds it on the stored filter's first attribute (its
//! constraints all cover the query's, so the query constrains each of
//! its attributes), `covered_by` on the query's first attribute (the
//! stored filter constrains each of the query's), and `overlapping` on
//! a query attribute that every satisfiable stored filter constrains,
//! or, without one, among all satisfiable keys.
//!
//! The maps are derived from the attribute's records by the first
//! containment query on the attribute, and from then on every insert
//! and remove on it keeps them up to date. A table that is asked such
//! queries (an SRT, a PRT under covering or pulled from by an
//! advertisement) pays for the derivation once and for the upkeep on
//! every write, as it would for maps kept from the start; a table only
//! matched against never builds them.
//!
//! # Soundness
//!
//! Every fast path is *prune + verify*: the bucket structures only
//! narrow the candidate set, and any candidate that is not exact by
//! construction is re-checked against the authoritative constraint.
//! The index therefore finds exactly the keys the linear scans find,
//! including for unsatisfiable filters (never returned),
//! zero-arity filters (always returned by `matching`), and the
//! conservative [`Constraint::overlaps`] over-approximation contract
//! documented in [`crate::constraint`]. The routing layer keeps the
//! linear scans alive as a differential oracle.
//!
//! # The matching kernel
//!
//! One function, [`MatchIndex::fold_into`], matches a publication
//! against the table, on the calling thread, and it is a *fold* that
//! may stop: its caller supplies an accumulator, which it may keep
//! from one publication to the next, a step called with matching keys,
//! in no particular order, and a test that says when the accumulator
//! is *saturated* (no further key could change it).
//! [`MatchIndex::matching`] is that fold into a vector, never
//! saturated, then sorted as its contract promises, and
//! [`MatchIndex::matching_batch`] is `matching` once a publication; the
//! broker's publication forwarding folds row numbers straight into
//! destination sets, never lists the matching keys at all, and is
//! saturated once the set holds every hop its table names (Carzaniga
//! and Wolf's forwarding short-cut: with every interface matched, no
//! further filter changes the decision).
//!
//! What the closures may assume: `step` sees a key at most once per
//! publication, and only a key whose filter matches it; `saturated` is
//! asked after every `step`, and the first `true` ends the
//! publication's probes where they stand: the rest of the row list
//! being scanned, the remaining attributes and the `wide` keys are
//! never read, and `step` is not called again, so a saturated
//! accumulator has seen *some* matching keys, not all of them, and the
//! caller may not assume it complete unless `saturated` never answers
//! `true`.
//!
//! The kernel works *publication-major*: per publication, a countdown
//! cell per stored filter (a dense *slot* id, seeded with the filter's
//! arity by one bulk copy) is decremented once for every satisfied
//! constraint, and the probe whose decrement takes a cell to zero
//! steps its key then and there. The cells of one publication fit the
//! cache however the probes scatter over them.
//!
//! Point, string, presence and fallback constraints are probed in the
//! live per-attribute buckets above. Every other numeric constraint is
//! an *interval row*, and the interval rows are probed in a *packed
//! snapshot* of the table, `PackedTables`, built per attribute from the
//! records. It holds each row once, in one layout, and one scan probes
//! them all:
//!
//! - a row is 16 bytes: its upper bound, its slot, and the bits a
//!   visit checks beyond one comparison (an exclusive bound, `!=`
//!   exclusions). Its lower bound sits in a parallel `f64` array.
//! - the rows are grouped into **width classes** by the binade of
//!   `hi − lo`, each class a run ascending by lower bound that keeps its
//!   largest width as its `reach`. A row of the class can contain the
//!   probe `x` only if its lower bound lies in `[x − reach, x]`, so two
//!   binary searches a class bound that window, and every row in it
//!   costs one comparison against its upper bound. A visited row either
//!   matches or lies within its class's reach of `x`, and the widths of
//!   a class share a binade, so the rows read beyond those reported are
//!   the class's rows that end within one reach below `x`, whatever the
//!   table's size. The window's lower end is pushed below `x − reach`
//!   by more than float rounding can move either term (`window_start`),
//!   so no row is skipped, and each visited row is checked exactly in
//!   the `total_cmp` order.
//! - rows with bits sit in classes of their own, so a class of closed
//!   bands tests one bound a row and nothing else. The scan is one loop,
//!   compiled once for each kind of class; in a flagged class a visited
//!   row also checks its exclusive bits, and a `!=` row its constraint,
//!   which a side list of the snapshot holds.
//! - an open side is the `NaN`-encoded [`TotalF64::MIN`] or
//!   [`TotalF64::MAX`], so a row with one has a `NaN` width. Those rows
//!   and the rows whose width overflows form the **unbounded class**
//!   (binade `0x7ff`). Its reach is `∞` and its window starts at
//!   [`TotalF64::MIN`], below `−∞`, so a row open on both sides is in
//!   it. A row open above is visited only where it matches.
//! - a row open only below is stored **reflected**, `[−hi, −lo]` with its
//!   two exclusive bits swapped, in classes of their own probed at `−x`.
//!   Negation reverses the `total_cmp` order exactly, so the reflected
//!   row holds `−x` iff the row holds `x`, and a probe visits it only
//!   where `hi ≥ x`.
//!
//! The snapshot of an attribute takes one sort of its rows, by class
//! and lower bound, and every array is filled from a sorted list of
//! known length, so the snapshot carries no spare capacity.
//!
//! # Rebuild policy
//!
//! The snapshot is built lazily by the first probe that finds none,
//! so any number of writes without a probe between them (a broker's
//! set-up, a recovery's replay) cost nothing but their records. Once
//! it exists, writes do not rebuild it:
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
//! The endpoint maps of the containment queries follow the other
//! policy ("Dual-endpoint containment structure"): built on first use,
//! then kept by every write, never dropped.
//!
//! # Oracle
//!
//! The reference is the linear scan: [`Filter::matches`] over every
//! row, kept behind `Prt::matching_linear` in the routing layer, and
//! [`Filter::overlaps`] / [`Filter::covers`] over every row, kept
//! behind the routing tables' `*_linear` visits, which visit the rows
//! an indexed query visits, in the same order. The routing layer
//! asserts every indexed answer against its scan in debug builds (for
//! the containment queries, the two sequences of ids, compared in
//! place), and `index_differential.rs` states the equivalence as a
//! property over random churn.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;
use std::hash::Hash;
use std::ops::{ControlFlow, RangeBounds};
use std::sync::{Arc, OnceLock};

use crate::constraint::{Bound, Constraint, Interval, TotalF64};
use crate::fasthash::FastMap;
use crate::filter::Filter;
use crate::publication::Publication;
use crate::value::Value;

/// Key types a [`MatchIndex`] can index filters under (`AdvId`,
/// `SubId`, …).
pub trait IndexKey: Copy + Ord + Eq + Hash + Debug {}
impl<T: Copy + Ord + Eq + Hash + Debug> IndexKey for T {}

/// Where a constraint lives inside an [`AttrIndex`]. Classification is
/// a pure function of the constraint, so insert and remove agree. The
/// string buckets borrow their key from the constraint: a bucket that
/// exists already is found without allocating.
enum Bucket<'a> {
    Present,
    NumEq(u64),
    /// Any other numeric constraint: probed through the packed
    /// snapshot built from the attribute's rows.
    NumRange,
    StrEq(&'a str, bool),
    StrPre(&'a str, bool),
    Other,
}

fn classify(c: &Constraint) -> Bucket<'_> {
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
                Bucket::StrEq(p, plain && s.prefixes.is_empty())
            } else if let Some(p) = s.prefixes.first() {
                let exact = plain && s.prefixes.len() == 1 && s.interval == Interval::full();
                Bucket::StrPre(p, exact)
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

/// Bit in [`Ends::flags`] and [`Row::flags`]: the lower bound is
/// exclusive (`>`).
const LO_EXCL: u32 = 1;
/// Bit in [`Ends::flags`] and [`Row::flags`]: the upper bound is
/// exclusive (`<`).
const HI_EXCL: u32 = 1 << 1;
/// Bit in [`Ends::flags`]: no lower bound (`lo` is [`TotalF64::MIN`]).
const LO_OPEN: u32 = 1 << 2;
/// Bit in [`Ends::flags`]: no upper bound (`hi` is [`TotalF64::MAX`]).
const HI_OPEN: u32 = 1 << 3;
/// Bit in [`Ends::flags`] and [`Row::flags`]: the constraint carries
/// `!=` exclusions.
const EXCLUSIONS: u32 = 1 << 4;
/// Bit in [`Ends::flags`]: the constraint is numeric, so the
/// endpoints mean something; without it the other fields are 0.
const NUM: u32 = 1 << 5;

/// A numeric constraint's interval as the index keeps it: its two
/// effective endpoints and the flags that tell them from open or
/// absent bounds, beside the key's slot. Containment/overlap
/// verification and the packed snapshot read it without touching the
/// filter; rows whose constraint carries `!=` exclusions defer to the
/// authoritative constraint instead, because exclusions can flip the
/// exact relation at interval boundaries.
#[derive(Debug, Clone, Copy)]
struct Ends {
    /// The key's dense slot id (see [`SlotTable`]).
    slot: u32,
    /// `NUM`, and for a numeric constraint `LO_EXCL`, `HI_EXCL`,
    /// `LO_OPEN`, `HI_OPEN`, `EXCLUSIONS`.
    flags: u32,
    /// Effective endpoints ([`Interval::total_endpoints`]).
    lo: f64,
    hi: f64,
}

impl Ends {
    fn new(slot: u32, c: &Constraint) -> Self {
        let Constraint::Num(n) = c else {
            return Ends {
                slot,
                flags: 0,
                lo: 0.0,
                hi: 0.0,
            };
        };
        let (lo, hi) = n.interval.total_endpoints();
        let side = |b: &Bound<f64>, excl: u32, open: u32| match b {
            Bound::Incl(_) => 0,
            Bound::Excl(_) => excl,
            Bound::Unbounded => open,
        };
        Ends {
            slot,
            flags: NUM
                | side(n.interval.lo(), LO_EXCL, LO_OPEN)
                | side(n.interval.hi(), HI_EXCL, HI_OPEN)
                | if n.excluded.is_empty() { 0 } else { EXCLUSIONS },
            lo: lo.0,
            hi: hi.0,
        }
    }

    fn is_num(&self) -> bool {
        self.flags & NUM != 0
    }

    /// A numeric constraint that is not a clean point (those are
    /// probed in `num_eq`): a row of the packed snapshot.
    fn is_interval(&self) -> bool {
        self.is_num() && (self.flags != NUM || self.lo.total_cmp(&self.hi) != Ordering::Equal)
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

/// One constraint of an attribute: the authoritative constraint by
/// reference, and for a numeric one its interval ([`Ends`]). The one
/// record a write makes per constrained attribute.
#[derive(Debug, Clone)]
struct AttrRow {
    cons: ConsRef,
    ends: Ends,
}

impl AttrRow {
    fn get(&self) -> &Constraint {
        self.cons.get()
    }
}

/// One row of the dual-endpoint containment structure: a numeric
/// constraint's [`Ends`] under its key.
#[derive(Debug, Clone, Copy)]
struct EndRow<K> {
    key: K,
    ends: Ends,
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

fn push_str_row<K>(map: &mut FastMap<String, Vec<StrRow<K>>>, bucket: &str, row: StrRow<K>) {
    match map.get_mut(bucket) {
        Some(rows) => rows.push(row),
        None => {
            map.insert(bucket.to_owned(), vec![row]);
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

fn drop_from_tree<K: PartialEq>(map: &mut BTreeMap<TotalF64, Vec<EndRow<K>>>, at: f64, key: &K) {
    let at = TotalF64(at);
    if let Some(rows) = map.get_mut(&at) {
        rows.retain(|r| r.key != *key);
        if rows.is_empty() {
            map.remove(&at);
        }
    }
}

/// The rows filed under one endpoint.
fn rows_at<'a, K>(
    (_, rows): (&'a TotalF64, &'a Vec<EndRow<K>>),
) -> std::slice::Iter<'a, EndRow<K>> {
    rows.iter()
}

/// The dual-endpoint containment structure of one attribute (module
/// docs): every numeric row keyed by its effective lower endpoint and,
/// again, by its effective upper endpoint.
#[derive(Debug, Clone)]
struct EndMaps<K> {
    by_lo: BTreeMap<TotalF64, Vec<EndRow<K>>>,
    by_hi: BTreeMap<TotalF64, Vec<EndRow<K>>>,
}

impl<K: IndexKey> EndMaps<K> {
    fn insert(&mut self, row: EndRow<K>) {
        // Most endpoints are one row's alone: start each list at one
        // row, not at the four a first `push` reserves.
        let one = || Vec::with_capacity(1);
        self.by_lo
            .entry(TotalF64(row.ends.lo))
            .or_insert_with(one)
            .push(row);
        self.by_hi
            .entry(TotalF64(row.ends.hi))
            .or_insert_with(one)
            .push(row);
    }

    fn remove(&mut self, key: K, ends: &Ends) {
        drop_from_tree(&mut self.by_lo, ends.lo, &key);
        drop_from_tree(&mut self.by_hi, ends.hi, &key);
    }
}

/// The per-attribute constraint structures; see the module docs for
/// the layout.
#[derive(Debug, Clone)]
struct AttrIndex<K> {
    /// The one record per key: the authoritative constraint, by
    /// reference into the key's filter, and its interval if numeric.
    /// Also the overlap disqualification scan (sorted so results come
    /// out ordered) and the source of the packed snapshot and the
    /// endpoint maps.
    cons: BTreeMap<K, AttrRow>,
    num_eq: FastMap<u64, Vec<(K, u32)>>,
    /// The dual-endpoint containment structure, derived from `cons` by
    /// the first containment query on the attribute and kept up to
    /// date by every write from then on (module docs, "Rebuild
    /// policy").
    ends: OnceLock<EndMaps<K>>,
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
            ends: OnceLock::new(),
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
        let ends = Ends::new(slot, c);
        if let Some(maps) = self.ends.get_mut() {
            if ends.is_num() {
                maps.insert(EndRow { key, ends });
            }
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
                push_str_row(&mut self.str_eq, s, StrRow { key, slot, exact })
            }
            Bucket::StrPre(p, exact) => {
                push_str_row(&mut self.str_pre, p, StrRow { key, slot, exact })
            }
            Bucket::Other => self.other.push((key, slot)),
        }
        self.cons.insert(key, AttrRow { cons, ends });
    }

    fn remove(&mut self, key: K) {
        let Some(row) = self.cons.remove(&key) else {
            return;
        };
        if let Some(maps) = self.ends.get_mut() {
            if row.ends.is_num() {
                maps.remove(key, &row.ends);
            }
        }
        match classify(row.get()) {
            Bucket::Present => self.present.retain(|(k, _)| *k != key),
            Bucket::NumEq(bits) => drop_from_bucket(&mut self.num_eq, &bits, &key),
            // Snapshot and `fresh` rows of the key stay behind, dead:
            // its countdown seed is zero until the next build.
            Bucket::NumRange => {}
            Bucket::StrEq(s, _) => drop_str_row(&mut self.str_eq, s, &key),
            Bucket::StrPre(p, _) => drop_str_row(&mut self.str_pre, p, &key),
            Bucket::Other => self.other.retain(|(k, _)| *k != key),
        }
    }

    fn is_empty(&self) -> bool {
        self.cons.is_empty()
    }

    /// The dual-endpoint maps, derived from `cons` first if no
    /// containment query has asked for them yet.
    fn end_maps(&self) -> &EndMaps<K> {
        self.ends.get_or_init(|| {
            let mut maps = EndMaps {
                by_lo: BTreeMap::new(),
                by_hi: BTreeMap::new(),
            };
            for (&key, row) in &self.cons {
                if row.ends.is_num() {
                    maps.insert(EndRow {
                        key,
                        ends: row.ends,
                    });
                }
            }
            maps
        })
    }

    /// The string probe: the point bucket plus every prefix of the
    /// published string. `exact` rows bump straight from the bucket;
    /// the rest verify against the authoritative constraint. Like
    /// every probe, it calls `bump(slot)` at most once per key, and it
    /// stops at the first `bump` that breaks, passing the break on.
    fn str_satisfied(
        &self,
        s: &str,
        value: &Value,
        bump: &mut impl FnMut(u32) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if let Some(rows) = self.str_eq.get(s) {
            for row in rows {
                if row.exact || self.cons[&row.key].get().satisfied_by(value) {
                    bump(row.slot)?;
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
                            bump(row.slot)?;
                        }
                    }
                }
            }
        }
        ControlFlow::Continue(())
    }

    /// The kind-independent buckets: presence constraints (satisfied
    /// by any value) and the verified fallback scan.
    fn common_satisfied(
        &self,
        value: &Value,
        bump: &mut impl FnMut(u32) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        for &(_, s) in &self.present {
            bump(s)?;
        }
        for &(k, s) in &self.other {
            if self.cons[&k].get().satisfied_by(value) {
                bump(s)?;
            }
        }
        ControlFlow::Continue(())
    }

    /// Numeric candidates from the dual-endpoint maps: a superset of
    /// the rows whose effective lower endpoint lies in `lo` and whose
    /// upper endpoint lies in `hi`, the inclusive prune conditions of a
    /// relation (module docs).
    ///
    /// Either range alone enumerates a superset of the same target
    /// set, so either is a valid candidate set. The two are stepped in
    /// lock-step, keeping nothing, until one ends, and that one is
    /// walked again for the caller: the work is bounded by three times
    /// the *smaller* enumeration without knowing in advance which
    /// endpoint is more selective.
    fn num_candidates(
        &self,
        lo: impl RangeBounds<TotalF64>,
        hi: impl RangeBounds<TotalF64>,
    ) -> impl Iterator<Item = &EndRow<K>> {
        let maps = self.end_maps();
        let (a, b) = (maps.by_lo.range(lo), maps.by_hi.range(hi));
        let (mut x, mut y) = (a.clone().flat_map(rows_at), b.clone().flat_map(rows_at));
        let side = loop {
            if x.next().is_none() {
                break a;
            }
            if y.next().is_none() {
                break b;
            }
        };
        side.flat_map(rows_at)
    }

    /// String/bool/exotic rows, verified against `check`. Booleans and
    /// exotic string shapes share the `other` bucket, so both the
    /// string and the bool query kinds sweep it; `check` is the
    /// authoritative relation and rejects cross-kind rows.
    fn non_num_verified(
        &self,
        strings: bool,
        check: impl Fn(K) -> bool,
        visit: &mut impl FnMut(K) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if strings {
            for row in self.str_eq.values().chain(self.str_pre.values()).flatten() {
                if check(row.key) {
                    visit(row.key)?;
                }
            }
        }
        for &(k, _) in &self.other {
            if check(k) {
                visit(k)?;
            }
        }
        ControlFlow::Continue(())
    }

    /// Hands `visit` every key whose constraint on this attribute
    /// covers `qc`, once, until it breaks. Exact per
    /// [`Constraint::covers`].
    fn covering(
        &self,
        qc: &Constraint,
        visit: &mut impl FnMut(K) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        // A presence constraint covers every satisfiable constraint.
        for &(k, _) in &self.present {
            visit(k)?;
        }
        let check = |k: K| self.cons[&k].get().covers(qc);
        match qc {
            // Only `Present` covers `Present` (already visited above).
            Constraint::Present => ControlFlow::Continue(()),
            Constraint::Num(n) => {
                let (ql, qh) = n.interval.total_endpoints();
                for r in self.num_candidates(..=ql, qh..) {
                    // Exclusion-free stored rows verify from the row
                    // itself: covering is pure interval containment
                    // (stored exclusions are what make `covers` more
                    // than that, and the query's own exclusions never
                    // weaken it).
                    let hit = if r.ends.has_exclusions() {
                        check(r.key)
                    } else {
                        n.interval.is_subset(&r.ends.interval())
                    };
                    if hit {
                        visit(r.key)?;
                    }
                }
                ControlFlow::Continue(())
            }
            Constraint::Str(_) => self.non_num_verified(true, check, visit),
            Constraint::Bool(_) => self.non_num_verified(false, check, visit),
            // Satisfiable query filters never carry empty constraints.
            Constraint::Empty => unreachable!("empty constraints are not queried"),
        }
    }

    /// Hands `visit` every key whose constraint on this attribute is
    /// covered by `qc`, once, until it breaks. Exact per
    /// [`Constraint::covers`].
    fn covered_by(
        &self,
        qc: &Constraint,
        visit: &mut impl FnMut(K) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let check = |k: K| qc.covers(self.cons[&k].get());
        match qc {
            // `Present` covers every stored constraint on the attribute.
            Constraint::Present => self.cons.keys().try_for_each(|&k| visit(k)),
            Constraint::Num(n) => {
                let (ql, qh) = n.interval.total_endpoints();
                // An exclusion-free *query* covers exactly the rows
                // whose interval it contains (stored exclusions only
                // shrink the row); with query exclusions the boundary
                // cases need the authoritative constraint.
                let q_clean = n.excluded.is_empty();
                for r in self.num_candidates(ql.., ..=qh) {
                    let hit = if q_clean {
                        r.ends.interval().is_subset(&n.interval)
                    } else {
                        check(r.key)
                    };
                    if hit {
                        visit(r.key)?;
                    }
                }
                ControlFlow::Continue(())
            }
            Constraint::Str(_) => self.non_num_verified(true, check, visit),
            Constraint::Bool(_) => self.non_num_verified(false, check, visit),
            Constraint::Empty => unreachable!("empty constraints are not queried"),
        }
    }

    /// Hands `visit` every key whose constraint on this attribute
    /// overlaps `qc`, once, until it breaks. Exact per
    /// [`Constraint::overlaps`] (including its conservative
    /// over-approximation for exotic string shapes).
    fn overlapping(
        &self,
        qc: &Constraint,
        visit: &mut impl FnMut(K) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        // Presence overlaps everything, in both directions.
        if matches!(qc, Constraint::Present) {
            return self.cons.keys().try_for_each(|&k| visit(k));
        }
        for &(k, _) in &self.present {
            visit(k)?;
        }
        let check = |k: K| self.cons[&k].get().overlaps(qc);
        match qc {
            Constraint::Num(n) => {
                let (ql, qh) = n.interval.total_endpoints();
                // Without exclusions on either side, constraint
                // overlap is exactly interval overlap; a point-sized
                // intersection that an exclusion deletes is the one
                // case needing the authoritative relation.
                let q_clean = n.excluded.is_empty();
                for r in self.num_candidates(..=qh, ql..) {
                    let hit = if q_clean && !r.ends.has_exclusions() {
                        r.ends.interval().overlaps(&n.interval)
                    } else {
                        check(r.key)
                    };
                    if hit {
                        visit(r.key)?;
                    }
                }
                ControlFlow::Continue(())
            }
            Constraint::Str(_) => self.non_num_verified(true, check, visit),
            Constraint::Bool(_) => self.non_num_verified(false, check, visit),
            Constraint::Present => unreachable!("handled above"),
            Constraint::Empty => unreachable!("empty constraints are not queried"),
        }
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

/// One interval row of a [`PackedAttr`], 16 bytes. Its lower bound,
/// the sort key within its width class, lives in a parallel `f64`
/// array probed by binary search, so a row carries the far (upper)
/// bound, the slot and the bits a visit checks after its one
/// comparison.
#[derive(Debug, Clone, Copy)]
struct Row {
    /// The upper bound: [`TotalF64::MAX`] for a row open above.
    hi: f64,
    /// The row's dense slot id.
    slot: u32,
    /// `LO_EXCL`, `HI_EXCL` and `EXCLUSIONS`; 0 for a closed band.
    flags: u32,
}

/// One interval row checked against its authoritative constraint: the
/// rows inserted since the packed snapshot was built
/// ([`AttrIndex::fresh`]), and the snapshot's side list of `!=` rows.
#[derive(Debug, Clone)]
struct VerifyRow {
    slot: u32,
    cons: ConsRef,
}

/// The binade of a width `hi − lo`: its biased exponent, the same for
/// every width within a factor of two of another. A width no `f64`
/// holds, or a `NaN` one (an open side), has binade [`UNBOUNDED`].
fn binade(width: f64) -> u16 {
    ((width.to_bits() >> 52) & 0x7ff) as u16
}

/// The class key of the rows with an open side or a width that
/// overflows: the binade of an infinite or `NaN` width.
const UNBOUNDED: u16 = 0x7ff;
/// The class key of the rows unbounded only below, which are stored
/// reflected ([`PackedAttr`]); sorts after every binade.
const REFLECTED: u16 = 0x800;
/// Bit of a class key: the class's rows carry bits ([`Row::flags`]);
/// such classes sort after the rest.
const FLAGGED: u16 = 0x1000;

/// How far [`window_start`] pushes `x − reach` down, relative to the
/// magnitudes involved: 2⁻⁵⁰, four times the two roundings it covers.
const WINDOW_SLACK: f64 = 1.0 / (1u64 << 50) as f64;

/// The least lower bound a row of a width class of reach `reach` can
/// have and still contain `x`, widened past float rounding.
///
/// A row holds `x` only if `x ≤ hi`, so its lower bound is at least
/// `x − (hi − lo)`. Its exact width exceeds the rounded one its class
/// took the maximum of by at most a relative 2⁻⁵³, and `x − reach` is
/// rounded by at most a relative 2⁻⁵³ as well; [`WINDOW_SLACK`] of
/// their magnitudes covers both, and `next_down` takes the bound
/// strictly below a zero, which `total_cmp` splits in two. A start of
/// `−∞` or `NaN` (an infinite reach, an infinite or `NaN` probe)
/// becomes [`TotalF64::MIN`], which lies below `−∞`: the window then
/// starts at the class's first row, a row open on both sides included.
fn window_start(x: f64, reach: f64) -> f64 {
    let start = x - reach;
    let start = (start - (start.abs() + reach) * WINDOW_SLACK).next_down();
    if start.is_nan() || start == f64::NEG_INFINITY {
        TotalF64::MIN.0
    } else {
        start
    }
}

/// One width class of a [`PackedAttr`]: a run of its arrays.
#[derive(Debug, Clone, Copy)]
struct WidthClass {
    /// Where the run ends in `lo` / `rows`; it starts where the
    /// previous class's ends.
    end: u32,
    /// The class holds rows unbounded only below, reflected, and is
    /// probed at `−x`.
    reflected: bool,
    /// Every row of the class has bits to check after its upper bound
    /// (none of the other classes' rows has).
    flagged: bool,
    /// The largest width of the class; `∞` for the unbounded and the
    /// reflected classes.
    reach: f64,
}

/// The packed numeric probe table of one attribute: every interval row
/// of it, once.
///
/// A probe value `x` satisfies a row iff `lo ≤ x` *and* `x ≤ hi` (total
/// order), neither bound exclusive where it equals `x`, and `x` is not
/// one of the row's `!=` exclusions. The rows are grouped into *width
/// classes* by the binade of `hi − lo`: each class is a run of rows
/// ascending by lower bound, the lower bounds in a parallel `f64`
/// array, and keeps its largest width as its `reach`. A row of a class
/// can hold `x` only if its lower bound lies in `[x − reach, x]`
/// ([`window_start`]), so per class two binary searches bound that
/// window, and every row in it costs one comparison against its upper
/// bound: a visited row either matches or lies within its class's
/// reach of `x`. Rows with bits (an exclusive bound, `!=` exclusions)
/// form classes of their own, so a class of closed bands tests one
/// bound a row and nothing else; a visited row of a flagged class
/// checks its bits, and a `!=` row its constraint, found in the side
/// list `excluding`.
///
/// A row with an open side takes its missing bound from
/// [`TotalF64::MIN`] / [`TotalF64::MAX`], `NaN`s outside `±∞`, so its
/// width is `NaN`; with the rows whose width overflows they form the
/// class of binade [`UNBOUNDED`], whose reach is `∞` and whose window
/// starts at its first row. A row open above is visited only if
/// `lo ≤ x`, and then matches. A row open only below is stored
/// *reflected*, `[−hi, −lo]` with its two exclusive bits swapped, in
/// classes of their own probed at `−x`: negation reverses the
/// `total_cmp` order exactly, so the reflected row holds `−x` iff the
/// row holds `x`, and is visited only if `hi ≥ x`. The scan is
/// stateless, so probes need no batch-wide sorting.
#[derive(Debug, Default)]
struct PackedAttr {
    /// Lower bounds of the rows, class after class, each class
    /// ascending in the total order; parallel to `rows`.
    lo: Vec<f64>,
    /// The rows.
    rows: Vec<Row>,
    /// The width classes by key: the binades ascending, then the
    /// reflected class, first of the rows without bits, then of those
    /// with.
    classes: Vec<WidthClass>,
    /// The `!=` rows' constraints, by slot.
    excluding: Vec<VerifyRow>,
}

impl PackedAttr {
    /// The probe table of one attribute's rows, or `None` if none of
    /// them is an interval. The rows take one sort, by class and lower
    /// bound, and every array is filled from a sorted list of known
    /// length, so none carries spare capacity.
    fn build<'a>(rows: impl Iterator<Item = &'a AttrRow>) -> Option<Self> {
        let mut excluding = Vec::new();
        let mut keyed: Vec<(u16, f64, Row)> = Vec::new();
        for r in rows {
            let e = r.ends;
            if !e.is_interval() {
                continue;
            }
            if e.has_exclusions() {
                excluding.push(VerifyRow {
                    slot: e.slot,
                    cons: r.cons.clone(),
                });
            }
            let flags = e.flags & (LO_EXCL | HI_EXCL | EXCLUSIONS);
            // Unbounded only below: stored reflected.
            let (key, lo, hi, flags) = if e.flags & (LO_OPEN | HI_OPEN) == LO_OPEN {
                let swapped = flags & EXCLUSIONS | (flags & LO_EXCL) << 1 | (flags & HI_EXCL) >> 1;
                (REFLECTED, -e.hi, -e.lo, swapped)
            } else {
                (binade(e.hi - e.lo), e.lo, e.hi, flags)
            };
            let key = if flags == 0 { key } else { key | FLAGGED };
            let slot = e.slot;
            keyed.push((key, lo, Row { hi, slot, flags }));
        }
        if keyed.is_empty() {
            return None;
        }
        keyed.sort_unstable_by(|(a, al, _), (b, bl, _)| a.cmp(b).then(al.total_cmp(bl)));
        let mut classes = Vec::new();
        for run in keyed.chunk_by(|(a, ..), (b, ..)| a == b) {
            let end = classes.last().map_or(0, |c: &WidthClass| c.end) + run.len() as u32;
            let key = run[0].0;
            let reach = if key & !FLAGGED >= UNBOUNDED {
                f64::INFINITY
            } else {
                run.iter().map(|(_, lo, r)| r.hi - lo).fold(0.0, f64::max)
            };
            classes.push(WidthClass {
                end,
                reflected: key & REFLECTED != 0,
                flagged: key & FLAGGED != 0,
                reach,
            });
        }
        classes.shrink_to_fit();
        excluding.sort_unstable_by_key(|v| v.slot);
        excluding.shrink_to_fit();
        Some(PackedAttr {
            lo: keyed.iter().map(|(_, lo, _)| *lo).collect(),
            rows: keyed.iter().map(|(.., r)| *r).collect(),
            classes,
            excluding,
        })
    }

    /// Calls `bump(slot)` once for every interval row satisfied by the
    /// numeric probe `x` (of `value`). Exact: no false positives, no
    /// false negatives, at most one bump per row. The first `bump`
    /// that breaks ends the scan and is passed on.
    #[inline]
    fn scan(
        &self,
        x: f64,
        value: &Value,
        bump: &mut impl FnMut(u32) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let mut start = 0;
        for class in &self.classes {
            let end = class.end as usize;
            let x = if class.reflected { -x } else { x };
            let (lo, rows) = (&self.lo[start..end], &self.rows[start..end]);
            let floor = window_start(x, class.reach);
            if class.flagged {
                self.scan_class::<true>(lo, rows, x, floor, value, bump)?;
            } else {
                self.scan_class::<false>(lo, rows, x, floor, value, bump)?;
            }
            start = end;
        }
        ControlFlow::Continue(())
    }

    /// The window scan of one class, its lower bounds `lo` and its
    /// `rows`, from `floor` up to `x`; `FLAGGED` says the class's rows
    /// have bits to check. One loop, compiled once for each kind of
    /// class: testing a flag word on every visited row made matching on
    /// a table of 10 000 closed two-band rows about 10 % slower.
    #[inline(always)]
    fn scan_class<const FLAGGED: bool>(
        &self,
        lo: &[f64],
        rows: &[Row],
        x: f64,
        floor: f64,
        value: &Value,
        bump: &mut impl FnMut(u32) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let stop = lo.partition_point(|lo| lo.total_cmp(&x) != Ordering::Greater);
        let from = lo[..stop].partition_point(|lo| lo.total_cmp(&floor) == Ordering::Less);
        for (i, r) in rows[from..stop].iter().enumerate() {
            if x.total_cmp(&r.hi) != Ordering::Greater
                && (!FLAGGED || self.flagged_hit(r, lo[from + i], x, value))
            {
                bump(r.slot)?;
            }
        }
        ControlFlow::Continue(())
    }

    /// The rest of the test of a visited row of a flagged class, whose
    /// lower bound `lo` and upper bound admit `x` inclusively: neither
    /// exclusive bound equals `x`, and a `!=` row's constraint holds
    /// `value`.
    fn flagged_hit(&self, r: &Row, lo: f64, x: f64, value: &Value) -> bool {
        let on = |bit: u32, bound: f64| r.flags & bit != 0 && bound.total_cmp(&x).is_eq();
        if on(LO_EXCL, lo) || on(HI_EXCL, r.hi) {
            return false;
        }
        r.flags & EXCLUSIONS == 0 || {
            let at = self
                .excluding
                .binary_search_by_key(&r.slot, |v| v.slot)
                .expect("every `!=` row is in the side list");
            self.excluding[at].cons.get().satisfied_by(value)
        }
    }
}

/// The immutable packed snapshot of the table's interval rows, per
/// attribute (module docs, "The matching kernel"). Clones of an index
/// share it; each clone's own writes age it separately.
type PackedTables = FastMap<String, PackedAttr>;

/// Hands a matching key to the fold, out of line: that keeps the
/// decrement, which a wide table runs many times per completion, small
/// enough to be inlined into every probe loop. Every key goes through
/// here, so the fold's closures have one call site and are inlined
/// into this function.
#[inline(never)]
fn complete<K>(take: &mut impl FnMut(K) -> ControlFlow<()>, key: K) -> ControlFlow<()> {
    take(key)
}

thread_local! {
    /// The matching kernel's reusable per-thread countdown: per slot,
    /// the constraints the publication being probed has yet to
    /// satisfy, copied from [`SlotTable::seed`]; 0 is a slot that is
    /// done or was never to complete.
    static CELLS: RefCell<Vec<u16>> = RefCell::default();
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
        // One probe of `filters`: only a live key has rows to tear down.
        if let Some(old) = self.filters.insert(key, filter.clone()) {
            self.unfile(&key, &old);
        }
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
        // A reference to every constraint, filed under its attribute;
        // the name is copied only for an attribute new to the table.
        for (at, (attr, _)) in filter.constraints().enumerate() {
            let cons = ConsRef {
                filter: filter.clone(),
                at,
            };
            match self.attrs.get_mut(attr) {
                Some(ai) => ai.insert(key, slot, cons, snapshotted),
                None => {
                    let mut ai = AttrIndex::new();
                    ai.insert(key, slot, cons, snapshotted);
                    self.attrs.insert(attr.to_owned(), ai);
                }
            }
        }
    }

    /// Removes the filter indexed under `key`, reporting whether one
    /// was present.
    pub fn remove(&mut self, key: &K) -> bool {
        let Some(filter) = self.filters.remove(key) else {
            return false;
        };
        self.unfile(key, &filter);
        true
    }

    /// Tears down what indexing `filter` under `key` filed beside
    /// `filters`: its set memberships, attribute rows and slot.
    fn unfile(&mut self, key: &K, filter: &Filter) {
        if self.unsat.remove(key) {
            return;
        }
        self.sat.remove(key);
        if self.zero.remove(key) {
            return;
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
            let attrs = self
                .attrs
                .iter()
                .filter_map(|(attr, ai)| Some((attr.clone(), PackedAttr::build(ai.cons.values())?)))
                .collect();
            Arc::new(attrs)
        })
    }

    /// Keys of filters matching `publication`, sorted:
    /// [`MatchIndex::fold_into`] a vector that is never saturated.
    pub fn matching(&self, publication: &Publication) -> Vec<K> {
        let mut keys = Vec::new();
        self.fold_into(publication, &mut keys, |keys, k| keys.push(k), |_| false);
        keys.sort_unstable();
        keys
    }

    /// [`MatchIndex::matching`] for every publication of a batch, one
    /// after the other, returning one sorted key vector per publication
    /// (same order as `pubs`).
    pub fn matching_batch(&self, pubs: &[Publication]) -> Vec<Vec<K>> {
        pubs.iter().map(|p| self.matching(p)).collect()
    }

    /// The matching kernel, on the calling thread: folds the keys
    /// matching `p` into `acc`, an accumulator the caller owns, so a
    /// caller that routes publications one by one keeps one and its
    /// buffers from one publication to the next. `step` takes a
    /// matching key; `saturated` says that no further key could change
    /// the accumulator, which ends the probes. The module docs ("The
    /// matching kernel") say when each is called and what it may
    /// assume; a fold that is never saturated is stepped with every
    /// matching key, once. The closures must not probe a
    /// [`MatchIndex`] themselves (the kernel's per-thread scratch is
    /// borrowed while they run).
    ///
    /// Every probe decrements the cells of the slots whose constraint
    /// on the probed attribute the value satisfies — at most once per
    /// slot and attribute — and the decrement that takes a cell to zero
    /// steps its key. Saturating at zero keeps a slot seeded with 0
    /// dead however often stale or uncounted rows bump it. The
    /// zero-arity keys are stepped before the first probe and the
    /// `wide` keys whose filter matches after the last, if the fold is
    /// still unsaturated by then.
    pub fn fold_into<A>(
        &self,
        p: &Publication,
        acc: &mut A,
        step: impl Fn(&mut A, K),
        saturated: impl Fn(&mut A) -> bool,
    ) {
        let packed = self.packed();
        CELLS.with_borrow_mut(|cells| {
            let _ = self.probe_publication(p, packed, cells, &mut |k| {
                step(acc, k);
                if saturated(acc) {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            });
        });
    }

    /// The kernel's body for one publication: hands every key matching
    /// `p` to `take`, the moment it is known to match, until `take`
    /// breaks. Not inlined into [`MatchIndex::fold_into`], so that a
    /// profile names the match kernel; the probe loops and their
    /// decrements are inlined into it, `take` runs in [`complete`].
    #[inline(never)]
    fn probe_publication(
        &self,
        p: &Publication,
        packed: &PackedTables,
        cells: &mut Vec<u16>,
        take: &mut impl FnMut(K) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        for &k in &self.zero {
            complete(take, k)?;
        }
        cells.clear();
        cells.extend_from_slice(&self.slots.seed);
        let keys = &self.slots.keys;
        let mut bump = |slot: u32| {
            let cell = &mut cells[slot as usize];
            match *cell {
                0 => ControlFlow::Continue(()),
                1 => {
                    *cell = 0;
                    complete(take, keys[slot as usize])
                }
                _ => {
                    *cell -= 1;
                    ControlFlow::Continue(())
                }
            }
        };
        for (attr, value) in p.iter() {
            let Some(ai) = self.attrs.get(attr) else {
                continue;
            };
            if let Some(x) = value.as_f64() {
                if let Some(keys) = ai.num_eq.get(&x.to_bits()) {
                    for &(_, slot) in keys {
                        bump(slot)?;
                    }
                }
                if let Some(pa) = packed.get(attr) {
                    pa.scan(x, value, &mut bump)?;
                }
                for row in &ai.fresh {
                    if row.cons.get().satisfied_by(value) {
                        bump(row.slot)?;
                    }
                }
            } else if let Some(s) = value.as_str() {
                ai.str_satisfied(s, value, &mut bump)?;
            }
            ai.common_satisfied(value, &mut bump)?;
        }
        for k in &self.wide {
            if self.filters[k].matches(p) {
                complete(take, *k)?;
            }
        }
        ControlFlow::Continue(())
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

    /// Hands `visit` the key of every filter overlapping `filter`, once
    /// each and in no particular order, until it breaks; returns the
    /// break.
    ///
    /// A stored filter overlaps the query iff its constraint overlaps
    /// the query's on *every attribute both sides constrain*;
    /// attributes only one side constrains never disqualify — exactly
    /// the [`Filter::overlaps`] semantics. When every satisfiable
    /// stored filter constrains one of the query's attributes, that
    /// attribute's overlap-qualified keys, out of the dual-endpoint
    /// range scans (module docs), are the candidates, and the query's
    /// other attributes are checked on each; otherwise every
    /// satisfiable key is one.
    pub fn overlapping(
        &self,
        filter: &Filter,
        mut visit: impl FnMut(K) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if !filter.is_satisfiable() {
            return ControlFlow::Continue(());
        }
        let mut checked = |k: K| {
            if self.filters[&k].overlaps(filter) {
                visit(k)
            } else {
                ControlFlow::Continue(())
            }
        };
        let seed = filter.constraints().find_map(|(attr, qc)| {
            let ai = self.attrs.get(attr)?;
            (ai.cons.len() == self.sat.len()).then_some((ai, qc))
        });
        match seed {
            Some((ai, qc)) if filter.arity() == 1 => ai.overlapping(qc, &mut visit),
            Some((ai, qc)) => ai.overlapping(qc, &mut checked),
            None => self.sat.iter().try_for_each(|&k| checked(k)),
        }
    }

    /// Hands `visit` the key of every stored filter that *covers*
    /// `filter` (`stored.covers(filter)`), once each and in no
    /// particular order, until it breaks; returns the break. Exact per
    /// [`Filter::covers`], including its sound-but-incomplete string
    /// contract.
    ///
    /// A stored filter covers the query iff every one of its
    /// constraints covers the query's constraint on the same attribute,
    /// so the query constrains each of its attributes: a covering key
    /// is found at its first attribute, and checked there on the rest.
    /// Zero-arity filters cover everything; unsatisfiable queries are
    /// covered by everything.
    pub fn covering(
        &self,
        filter: &Filter,
        mut visit: impl FnMut(K) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if !filter.is_satisfiable() {
            return self.filters.keys().try_for_each(|&k| visit(k));
        }
        for &k in &self.zero {
            visit(k)?;
        }
        for (attr, qc) in filter.constraints() {
            let Some(ai) = self.attrs.get(attr) else {
                continue;
            };
            ai.covering(qc, &mut |k| {
                let f = &self.filters[&k];
                let first = f.constraints().next().is_some_and(|(a, _)| a == attr);
                if first && (f.arity() == 1 || f.covers(filter)) {
                    visit(k)
                } else {
                    ControlFlow::Continue(())
                }
            })?;
        }
        ControlFlow::Continue(())
    }

    /// Hands `visit` the key of every stored filter `filter` covers
    /// (`filter.covers(stored)`), once each and in no particular order,
    /// until it breaks; returns the break. The active-retraction /
    /// covering-release candidate set.
    ///
    /// The query covers a satisfiable stored filter iff the stored
    /// filter carries a covered constraint on *every* query attribute:
    /// the keys covered on the query's first attribute are the
    /// candidates, and each is checked on the rest. Unsatisfiable
    /// stored filters are covered by anything; a zero-arity
    /// satisfiable query covers everything.
    pub fn covered_by(
        &self,
        filter: &Filter,
        mut visit: impl FnMut(K) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        for &k in &self.unsat {
            visit(k)?;
        }
        if !filter.is_satisfiable() {
            return ControlFlow::Continue(());
        }
        let Some((attr, qc)) = filter.constraints().next() else {
            return self.sat.iter().try_for_each(|&k| visit(k));
        };
        let Some(ai) = self.attrs.get(attr) else {
            return ControlFlow::Continue(());
        };
        ai.covered_by(qc, &mut |k| {
            if filter.arity() == 1 || filter.covers(&self.filters[&k]) {
                visit(k)
            } else {
                ControlFlow::Continue(())
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use std::borrow::Borrow;

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

    /// The keys a containment query hands its visitor, which never
    /// breaks, sorted; each is handed over once.
    fn keys(
        query: impl FnOnce(&mut dyn FnMut(u32) -> ControlFlow<()>) -> ControlFlow<()>,
    ) -> Vec<u32> {
        let mut out = Vec::new();
        let flow = query(&mut |k| {
            out.push(k);
            ControlFlow::Continue(())
        });
        assert!(flow.is_continue());
        out.sort_unstable();
        assert!(
            out.windows(2).all(|w| w[0] < w[1]),
            "a key handed over twice"
        );
        out
    }

    /// [`MatchIndex::fold_into`] over a batch, into one accumulator a
    /// publication that `init` makes and `finish` finishes.
    fn fold_each<A>(
        ix: &MatchIndex<u32>,
        pubs: &[impl Borrow<Publication>],
        init: impl Fn() -> A,
        step: impl Fn(&mut A, u32),
        saturated: impl Fn(&mut A) -> bool,
        finish: impl Fn(&mut A),
    ) -> Vec<A> {
        pubs.iter()
            .map(|p| {
                let mut acc = init();
                ix.fold_into(p.borrow(), &mut acc, &step, &saturated);
                finish(&mut acc);
                acc
            })
            .collect()
    }

    #[test]
    fn a_visitor_that_breaks_sees_one_key() {
        // Nested bands, each covering the next: every query below has
        // several answers, and a visitor that breaks on the first is
        // handed that one alone.
        let (_, ix) = build(
            (0..8i64)
                .map(|i| Filter::builder().ge("x", i).le("x", 100 - i).build())
                .collect(),
        );
        let middle = Filter::builder().ge("x", 4).le("x", 96).build();
        let query = |i: usize, v: &mut dyn FnMut(u32) -> ControlFlow<()>| match i {
            0 => ix.overlapping(&middle, v),
            1 => ix.covering(&middle, v),
            _ => ix.covered_by(&middle, v),
        };
        for i in 0..3 {
            assert!(
                keys(|v| query(i, v)).len() > 1,
                "query {i} has several answers"
            );
            let mut seen = 0;
            let flow = query(i, &mut |_| {
                seen += 1;
                ControlFlow::Break(())
            });
            assert!(flow.is_break(), "query {i} passes the break on");
            assert_eq!(seen, 1, "query {i}");
        }
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
                keys(|v| ix.overlapping(&q, v)),
                linear_overlapping(&table, &q),
                "query {q}"
            );
        }
    }

    #[test]
    fn covering_agrees_with_linear_scan() {
        let (table, ix) = build(assorted_filters());
        for q in assorted_filters() {
            assert_eq!(
                keys(|v| ix.covering(&q, v)),
                linear_covering(&table, &q),
                "query {q}"
            );
            assert_eq!(
                keys(|v| ix.covered_by(&q, v)),
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
            assert_eq!(
                keys(|v| ix.covering(&q, v)),
                linear_covering(&table, &q),
                "query {q}"
            );
            assert_eq!(
                keys(|v| ix.covered_by(&q, v)),
                linear_covered_by(&table, &q),
                "query {q}"
            );
            assert_eq!(
                keys(|v| ix.overlapping(&q, v)),
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
            assert_eq!(
                keys(|v| ix.overlapping(q, v)),
                linear_overlapping(&table, q)
            );
            assert_eq!(keys(|v| ix.covering(q, v)), linear_covering(&table, q));
            assert_eq!(keys(|v| ix.covered_by(q, v)), linear_covered_by(&table, q));
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
        assert_eq!(keys(|v| ix.overlapping(&q, v)), vec![1]);
        let disjoint = Filter::builder().gt("price", 60).build();
        assert!(keys(|v| ix.overlapping(&disjoint, v)).is_empty());
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
        let got = fold_each(
            &ix,
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
        fold_each(
            ix,
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
        // Attributes are probed in name order, and an attribute's point
        // bucket before its intervals. `x = 5` steps key 3 and the fold
        // says it has enough, so key 0, which the same attribute's
        // interval scan would complete next, is never stepped, and `y`
        // is never probed. On `y = 5` the scan steps key 1 and stops;
        // key 2, whose `y` row it had already counted, still waits for
        // `x`. The next publications start afresh; one that completes
        // nothing is never asked.
        assert_eq!(
            fold_until_first_asked(&ix, &batch),
            vec![
                (vec![3], true),
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
        let got = fold_each(
            &ix,
            std::slice::from_ref(&p),
            Vec::new,
            |keys: &mut Vec<u32>, k| keys.push(k),
            |_| {
                asked.set(asked.get() + 1);
                true
            },
            |keys| keys.sort_unstable(),
        );
        // Asked after the first step, saturated: the second zero-arity
        // key is never stepped.
        assert_eq!(got, vec![vec![0]]);
        assert_eq!(asked.get(), 1);
        assert_eq!(ix.matching(&p), vec![0, 1]);
        // Beside a counted row that matches too: saturated by the
        // zero-arity keys, the fold never sets up the countdown.
        let (table, ix) = build(vec![everything(), Filter::builder().ge("x", 0).build()]);
        CELLS.with_borrow_mut(Vec::clear);
        assert_eq!(
            fold_until_first_asked(&ix, std::slice::from_ref(&p)),
            vec![(vec![0], true)]
        );
        CELLS.with_borrow(|cells| assert!(cells.is_empty(), "probed after saturation"));
        assert_eq!(ix.matching(&p), linear_matching(&table, &p));
        CELLS.with_borrow(|cells| assert_eq!(cells.len(), 1));
    }

    #[test]
    fn a_fold_saturated_by_its_first_row_stops_mid_attribute() {
        // 1 000 one-constraint bands that all contain the probe: the
        // first row the scan reaches completes its key, and the fold
        // is saturated after that one step.
        const ROWS: usize = 1_000;
        let p = Publication::new().with("x", 5_000);
        let (table, ix) = build(
            (0..ROWS as i64)
                .map(|i| Filter::builder().ge("x", i).le("x", 10_000 + i).build())
                .collect(),
        );
        let (stepped, asked) = (std::cell::Cell::new(0), std::cell::Cell::new(0));
        let got = fold_each(
            &ix,
            std::slice::from_ref(&p),
            || (),
            |_, _| stepped.set(stepped.get() + 1),
            |_| {
                asked.set(asked.get() + 1);
                true
            },
            |_| {},
        );
        assert_eq!(got.len(), 1);
        assert_eq!((stepped.get(), asked.get()), (1, 1));
        // The rest of the attribute was never read: every other row's
        // countdown still holds its seed.
        CELLS.with_borrow(|cells| {
            assert_eq!(cells.len(), ROWS);
            assert_eq!(cells.iter().filter(|&&c| c == 1).count(), ROWS - 1);
        });
        // A fold that is never saturated still sees every row.
        assert_eq!(ix.matching(&p).len(), ROWS);
        assert_eq!(ix.matching(&p), linear_matching(&table, &p));
    }

    #[test]
    fn kernel_handles_boundary_cases() {
        // Rows whose bounds collide with probe values in every
        // open/closed combination (closed, exclusive, `!=`-carrying,
        // open and reflected snapshot rows, point buckets), probed
        // below, on, between and past every endpoint, with repeats.
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
            assert_eq!(keys(|v| ix.covering(q, v)), linear_covering(&table, q));
            assert_eq!(keys(|v| ix.covered_by(q, v)), linear_covered_by(&table, q));
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
        let full: Publication = (0..WIDE).map(|i| (attr(i), Value::Int(1))).collect();
        let mut short = full.clone();
        short.set(attr(WIDE - 1), -1);
        let narrow = Publication::new().with("w0", 5);
        for p in [&full, &short, &narrow] {
            assert_eq!(ix.matching(p), linear_matching(&table, p));
        }
        assert_eq!(ix.matching(&full), vec![0, 1, 2]);
        assert_eq!(ix.matching(&short), vec![0, 2]);
        // Wide keys come last: a fold saturated by then skips them, an
        // unsaturated one (`matching`, above) still finds them. The
        // first attribute, `w0`, completes key 0, which saturates this
        // fold before `w1` completes key 2.
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
        // An exclusion-carrying band (in the snapshot's `excluding`
        // side list for the first key, a `fresh` row beside it for the
        // second),
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
                assert!(Filter::ptr_eq(&held.cons.filter, &f), "{attr} of {k}");
                assert!(std::ptr::eq(held.get(), c), "{attr} of {k}");
            }
        }
        let verified: Vec<&VerifyRow> = ix.packed()["x"]
            .excluding
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

    #[test]
    fn endpoint_maps_wait_for_a_containment_query() {
        let band = |lo: i64| Filter::builder().ge("x", lo).le("x", lo + 10).build();
        let (mut table, mut ix) = build((0..50).map(band).collect());
        let probe = Publication::new().with("x", 20);
        assert_eq!(ix.matching(&probe), linear_matching(&table, &probe));
        assert!(
            ix.attrs["x"].ends.get().is_none(),
            "not built by writes or matching"
        );

        // The first containment query derives them from the records...
        let q = Filter::builder().ge("x", 15).le("x", 18).build();
        assert_eq!(keys(|v| ix.covering(&q, v)), linear_covering(&table, &q));
        let maps = ix.attrs["x"].ends.get().expect("built by the query");
        assert_eq!(maps.by_lo.values().map(Vec::len).sum::<usize>(), 50);
        // ...and every write from then on keeps them.
        ix.insert(100, &band(12));
        table.insert(100, band(12));
        assert!(ix.remove(&8));
        table.remove(&8);
        for q in [q, band(12), Filter::builder().ge("x", 30).build()] {
            assert_eq!(
                keys(|v| ix.covering(&q, v)),
                linear_covering(&table, &q),
                "query {q}"
            );
            assert_eq!(
                keys(|v| ix.covered_by(&q, v)),
                linear_covered_by(&table, &q),
                "query {q}"
            );
            assert_eq!(
                keys(|v| ix.overlapping(&q, v)),
                linear_overlapping(&table, &q),
                "query {q}"
            );
        }
        let maps = ix.attrs["x"].ends.get().unwrap();
        assert_eq!(maps.by_hi.values().map(Vec::len).sum::<usize>(), 50);
    }

    #[test]
    fn width_classes_lose_no_row_to_rounding_or_signed_zero() {
        // A band of width 0 from `-0.0` to `0.0`, and a band whose float
        // width (10¹⁷, the class's reach) falls a quarter short of its
        // exact one: a window that started at `x − reach` unwidened
        // would miss both at their upper end. Beside them, bands in
        // other binades and one with an open side.
        let (table, ix) = build(vec![
            Filter::builder().ge("x", -0.0).le("x", 0.0).build(),
            Filter::builder().ge("x", -0.25).le("x", 1e17).build(),
            Filter::builder().ge("x", 0.25).le("x", 1.25).build(),
            Filter::builder().ge("x", -1e9).le("x", 0.0).build(),
            Filter::builder().ge("x", 0.5).build(),
        ]);
        // Four finite classes, and the open row alone in the unbounded
        // class after them.
        let packed = &ix.packed()["x"];
        let finite = packed.classes.iter().filter(|c| c.reach.is_finite());
        assert_eq!(finite.count(), 4);
        assert_eq!(packed.classes.len(), 5);
        let open = packed.classes[4];
        assert!(!open.reflected);
        assert_eq!(open.end - packed.classes[3].end, 1);
        for x in [
            -0.0,
            0.0,
            1e17,
            1e17f64.next_up(),
            -0.25,
            1.25,
            -1e9,
            0.5,
            -1.0,
        ] {
            let p = Publication::new().with("x", x);
            assert_eq!(ix.matching(&p), linear_matching(&table, &p), "x = {x:e}");
        }
        assert_eq!(
            ix.matching(&Publication::new().with("x", 0.0)),
            vec![0, 1, 3]
        );
        assert_eq!(ix.matching(&Publication::new().with("x", 1e17)), vec![1, 4]);
    }

    #[test]
    fn each_interval_row_is_stored_once() {
        // The differential suite's operator shapes at three operands:
        // among them the `!=`-only rows (open on both sides) and the
        // band whose width overflows; beside them `!=` on a bounded and
        // on a one-sided row.
        let shapes = |x: f64| {
            let b = Filter::builder;
            [
                b().ge("x", x).build(),
                b().le("x", x).build(),
                b().ge("x", x).le("x", x + 15.0).build(),
                b().eq("x", x).build(),
                b().ne("x", x).build(),
                b().eq("x", "alpha").build(),
                b().prefix("x", "al").build(),
                b().any("x").build(),
                b().gt("x", x).build(),
                b().lt("x", x).build(),
                b().gt("x", x).le("x", x + 1.0).build(),
                b().ge("x", x).lt("x", x + 1e9).build(),
                b().lt("x", x).ne("x", x - 1.0).build(),
                b().ge("x", x).le("x", x + 3.0).ne("x", x + 1.0).build(),
                b().ge("x", -1e308).le("x", 1e308).build(),
            ]
        };
        let (table, ix) = build([-2.5, -0.0, 7.0].into_iter().flat_map(shapes).collect());
        let packed = &ix.packed()["x"];
        let bits = LO_EXCL | HI_EXCL | EXCLUSIONS;
        let swap = |f: u32| f & EXCLUSIONS | (f & LO_EXCL) << 1 | (f & HI_EXCL) >> 1;
        // Every row read back as (slot, lo, hi, bits), a reflected one
        // reflected again.
        let mut stored = Vec::new();
        let mut start = 0;
        for class in &packed.classes {
            for (lo, r) in packed.lo[start..class.end as usize]
                .iter()
                .zip(&packed.rows[start..class.end as usize])
            {
                assert_eq!(r.flags != 0, class.flagged, "flagged class of {r:?}");
                stored.push(if class.reflected {
                    (r.slot, (-r.hi).to_bits(), (-lo).to_bits(), swap(r.flags))
                } else {
                    (r.slot, lo.to_bits(), r.hi.to_bits(), r.flags)
                });
            }
            start = class.end as usize;
        }
        assert_eq!((start, packed.lo.len()), (packed.rows.len(), start));
        // `≤` rows in one reflected class, `<` rows (with `!=` or not)
        // in a flagged one.
        assert_eq!(packed.classes.iter().filter(|c| c.reflected).count(), 2);
        stored.sort_unstable();
        let records = &ix.attrs["x"].cons;
        let mut want: Vec<_> = records
            .values()
            .map(|r| r.ends)
            .filter(Ends::is_interval)
            .map(|e| (e.slot, e.lo.to_bits(), e.hi.to_bits(), e.flags & bits))
            .collect();
        want.sort_unstable();
        assert_eq!(stored, want);
        // The side list holds exactly the `!=` rows, each by the
        // caller's constraint.
        let side: Vec<u32> = packed.excluding.iter().map(|v| v.slot).collect();
        let excl: Vec<u32> = want
            .iter()
            .filter(|r| r.3 & EXCLUSIONS != 0)
            .map(|r| r.0)
            .collect();
        assert_eq!(side, excl);
        for v in &packed.excluding {
            let key = ix.slots.keys[v.slot as usize];
            assert!(std::ptr::eq(v.cons.get(), records[&key].get()));
        }
        // And the table answers what the scan does, on and beside every
        // bound, at the infinities and at `NaN`s of either sign.
        let mut xs = vec![f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -f64::NAN];
        for x in [-2.5f64, -0.0, 7.0, 1e308, -1e308] {
            for y in [x, x + 1.0, x - 1.0, x + 3.0, x + 15.0, x + 1e9] {
                xs.extend([y.next_down(), y, y.next_up()]);
            }
        }
        for x in xs {
            let p = Publication::new().with("x", x);
            assert_eq!(ix.matching(&p), linear_matching(&table, &p), "x = {x:e}");
        }
    }
}
