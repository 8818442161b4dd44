//! Normalized per-attribute constraints.
//!
//! A [`crate::Filter`] (subscription or advertisement) is a conjunction
//! of predicates. For routing we need three relations between filters:
//! *matching* a publication, *covering* (subsumption: every publication
//! matching `f2` matches `f1`), and *overlap* (some publication could
//! match both — the advertisement/subscription intersection test).
//!
//! Rather than reason about raw predicate lists, each filter normalizes
//! the predicates on one attribute into a [`Constraint`]: an interval
//! with excluded points for numeric attributes, an interval plus
//! prefix/suffix/substring conjuncts for strings, or an allowed-set for
//! booleans.
//!
//! # Soundness contract
//!
//! The relations are *conservative in the safe direction* for
//! content-based routing:
//!
//! - [`Constraint::covers`] never returns `true` unless subsumption
//!   really holds (no false positives — a false positive would suppress
//!   a subscription and lose notifications). It may return `false` for
//!   exotic string-constraint combinations it cannot prove.
//! - [`Constraint::overlaps`] never returns `false` when an overlap
//!   exists (no false negatives — a false negative would break routing
//!   paths). It may return `true` for some actually-empty intersections,
//!   which only costs extra forwarding.
//!
//! These contracts are exercised by the property tests in this module
//! and in `tests/` of this crate.

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::predicate::{Op, Predicate};
use crate::value::{Value, ValueKind};

/// Domains over which intervals are defined (numeric and string).
///
/// This trait is sealed in spirit: it exists so [`Interval`] can be
/// shared between `f64` and `String` endpoints; implementing it for
/// other types is not useful.
pub trait Domain: Clone + fmt::Debug {
    /// Total order on the domain.
    fn cmp_dom(&self, other: &Self) -> Ordering;
}

impl Domain for f64 {
    fn cmp_dom(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl Domain for String {
    fn cmp_dom(&self, other: &Self) -> Ordering {
        self.cmp(other)
    }
}

/// One end of an [`Interval`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Bound<T> {
    /// No bound on this side.
    Unbounded,
    /// Closed bound (endpoint included).
    Incl(T),
    /// Open bound (endpoint excluded).
    Excl(T),
}

impl<T: Domain> Bound<T> {
    fn as_ref(&self) -> Option<(&T, bool)> {
        match self {
            Bound::Unbounded => None,
            Bound::Incl(t) => Some((t, true)),
            Bound::Excl(t) => Some((t, false)),
        }
    }
}

/// A (possibly half-open, possibly unbounded) interval over a [`Domain`].
///
/// The numeric domain is treated as continuous (`f64`); see the module
/// docs for why that is conservative in the safe direction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Interval<T> {
    lo: Bound<T>,
    hi: Bound<T>,
}

impl<T: Domain> Default for Interval<T> {
    fn default() -> Self {
        Interval::full()
    }
}

impl<T: Domain> Interval<T> {
    /// The full domain.
    pub fn full() -> Self {
        Interval {
            lo: Bound::Unbounded,
            hi: Bound::Unbounded,
        }
    }

    /// The single point `[v, v]`.
    pub fn point(v: T) -> Self {
        Interval {
            lo: Bound::Incl(v.clone()),
            hi: Bound::Incl(v),
        }
    }

    /// Builds an interval from explicit bounds.
    pub fn new(lo: Bound<T>, hi: Bound<T>) -> Self {
        Interval { lo, hi }
    }

    /// Lower bound.
    pub fn lo(&self) -> &Bound<T> {
        &self.lo
    }

    /// Upper bound.
    pub fn hi(&self) -> &Bound<T> {
        &self.hi
    }

    /// Whether `v` lies inside the interval.
    pub fn contains(&self, v: &T) -> bool {
        let lo_ok = match self.lo.as_ref() {
            None => true,
            Some((l, incl)) => match l.cmp_dom(v) {
                Ordering::Less => true,
                Ordering::Equal => incl,
                Ordering::Greater => false,
            },
        };
        let hi_ok = match self.hi.as_ref() {
            None => true,
            Some((h, incl)) => match v.cmp_dom(h) {
                Ordering::Less => true,
                Ordering::Equal => incl,
                Ordering::Greater => false,
            },
        };
        lo_ok && hi_ok
    }

    /// Whether the interval contains no points (in the continuous
    /// interpretation of the domain).
    pub fn is_empty(&self) -> bool {
        match (self.lo.as_ref(), self.hi.as_ref()) {
            (Some((l, li)), Some((h, hi))) => match l.cmp_dom(h) {
                Ordering::Greater => true,
                Ordering::Equal => !(li && hi),
                Ordering::Less => false,
            },
            _ => false,
        }
    }

    /// If the interval is a single point, returns it.
    pub fn as_point(&self) -> Option<&T> {
        match (&self.lo, &self.hi) {
            (Bound::Incl(l), Bound::Incl(h)) if l.cmp_dom(h) == Ordering::Equal => Some(l),
            _ => None,
        }
    }

    /// Intersection of two intervals (tightest bounds on each side).
    pub fn intersect(&self, other: &Interval<T>) -> Interval<T> {
        fn tighter_lo<T: Domain>(a: &Bound<T>, b: &Bound<T>) -> Bound<T> {
            match (a.as_ref(), b.as_ref()) {
                (None, _) => b.clone(),
                (_, None) => a.clone(),
                (Some((x, xi)), Some((y, yi))) => match x.cmp_dom(y) {
                    Ordering::Greater => a.clone(),
                    Ordering::Less => b.clone(),
                    Ordering::Equal => {
                        if !xi || !yi {
                            Bound::Excl(x.clone())
                        } else {
                            Bound::Incl(x.clone())
                        }
                    }
                },
            }
        }
        fn tighter_hi<T: Domain>(a: &Bound<T>, b: &Bound<T>) -> Bound<T> {
            match (a.as_ref(), b.as_ref()) {
                (None, _) => b.clone(),
                (_, None) => a.clone(),
                (Some((x, xi)), Some((y, yi))) => match x.cmp_dom(y) {
                    Ordering::Less => a.clone(),
                    Ordering::Greater => b.clone(),
                    Ordering::Equal => {
                        if !xi || !yi {
                            Bound::Excl(x.clone())
                        } else {
                            Bound::Incl(x.clone())
                        }
                    }
                },
            }
        }
        Interval {
            lo: tighter_lo(&self.lo, &other.lo),
            hi: tighter_hi(&self.hi, &other.hi),
        }
    }

    /// Whether `self ⊆ other` (every point of `self` lies in `other`).
    ///
    /// An empty `self` is a subset of everything.
    pub fn is_subset(&self, other: &Interval<T>) -> bool {
        if self.is_empty() {
            return true;
        }
        let lo_ok = match (other.lo.as_ref(), self.lo.as_ref()) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some((ol, oi)), Some((sl, si))) => match ol.cmp_dom(sl) {
                Ordering::Less => true,
                Ordering::Equal => oi || !si,
                Ordering::Greater => false,
            },
        };
        let hi_ok = match (other.hi.as_ref(), self.hi.as_ref()) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some((oh, oi)), Some((sh, si))) => match oh.cmp_dom(sh) {
                Ordering::Greater => true,
                Ordering::Equal => oi || !si,
                Ordering::Less => false,
            },
        };
        lo_ok && hi_ok
    }

    /// Whether the two intervals share at least one point.
    pub fn overlaps(&self, other: &Interval<T>) -> bool {
        !self.intersect(other).is_empty()
    }
}

impl Interval<f64> {
    /// The interval's effective endpoints in the `total_cmp` order:
    /// unbounded sides map to [`TotalF64::MIN`] / [`TotalF64::MAX`].
    ///
    /// Bound exclusivity is deliberately dropped: for any relation the
    /// index cares about (containment either way, overlap), comparing
    /// effective endpoints with the *inclusive* variant of the relevant
    /// inequality yields a superset of the qualifying intervals, so a
    /// range scan over endpoint-ordered maps can prune and the exact
    /// [`NumConstraint`] relations re-verify the survivors.
    pub fn total_endpoints(&self) -> (TotalF64, TotalF64) {
        let lo = match &self.lo {
            Bound::Unbounded => TotalF64::MIN,
            Bound::Incl(v) | Bound::Excl(v) => TotalF64(*v),
        };
        let hi = match &self.hi {
            Bound::Unbounded => TotalF64::MAX,
            Bound::Incl(v) | Bound::Excl(v) => TotalF64(*v),
        };
        (lo, hi)
    }
}

/// `f64` with a total order, for use in ordered sets of excluded points
/// and as the endpoint key of the index's ordered interval maps.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TotalF64(pub f64);

impl TotalF64 {
    /// Smallest value in the `total_cmp` order (the negative NaN with
    /// maximal payload): the effective endpoint of intervals unbounded
    /// below.
    pub const MIN: TotalF64 = TotalF64(f64::from_bits(u64::MAX));
    /// Largest value in the `total_cmp` order: the effective endpoint
    /// of intervals unbounded above.
    pub const MAX: TotalF64 = TotalF64(f64::from_bits(i64::MAX as u64));
}

impl PartialEq for TotalF64 {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == Ordering::Equal
    }
}
impl Eq for TotalF64 {}
impl PartialOrd for TotalF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TotalF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Numeric constraint: an interval minus a finite set of excluded points
/// (each `!=` predicate contributes one exclusion).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct NumConstraint {
    /// Admissible interval.
    pub interval: Interval<f64>,
    /// Points excluded by `!=` predicates.
    pub excluded: BTreeSet<TotalF64>,
}

impl NumConstraint {
    fn satisfied_by(&self, v: f64) -> bool {
        self.interval.contains(&v) && !self.excluded.contains(&TotalF64(v))
    }

    fn covers(&self, other: &NumConstraint) -> bool {
        // self's interval must admit all of other's interval, and every
        // point self excludes must be unreachable under other.
        other.interval.is_subset(&self.interval)
            && self
                .excluded
                .iter()
                .all(|p| !other.interval.contains(&p.0) || other.excluded.contains(p))
    }

    fn overlaps(&self, other: &NumConstraint) -> bool {
        let ix = self.interval.intersect(&other.interval);
        if ix.is_empty() {
            return false;
        }
        // If the intersection is a single point that either side
        // excludes, it is empty. Larger intersections always retain a
        // point in the continuous domain (finite exclusions cannot
        // exhaust them).
        if let Some(p) = ix.as_point() {
            let key = TotalF64(*p);
            if self.excluded.contains(&key) || other.excluded.contains(&key) {
                return false;
            }
        }
        true
    }

    fn is_empty(&self) -> bool {
        if self.interval.is_empty() {
            return true;
        }
        if let Some(p) = self.interval.as_point() {
            if self.excluded.contains(&TotalF64(*p)) {
                return true;
            }
        }
        false
    }
}

/// String constraint: lexicographic interval (from `=`/ordering
/// predicates) plus prefix/suffix/substring conjuncts and excluded
/// strings.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct StrConstraint {
    /// Lexicographic interval (equality folds to a point interval).
    pub interval: Interval<String>,
    /// Strings excluded by `!=`.
    pub excluded: BTreeSet<String>,
    /// All prefixes that must hold (conjunction).
    pub prefixes: Vec<String>,
    /// All suffixes that must hold.
    pub suffixes: Vec<String>,
    /// All substrings that must occur.
    pub contains: Vec<String>,
}

impl StrConstraint {
    fn satisfied_by(&self, s: &str) -> bool {
        self.interval.contains(&s.to_owned())
            && !self.excluded.contains(s)
            && self.prefixes.iter().all(|p| s.starts_with(p.as_str()))
            && self.suffixes.iter().all(|p| s.ends_with(p.as_str()))
            && self.contains.iter().all(|p| s.contains(p.as_str()))
    }

    fn covers(&self, other: &StrConstraint) -> bool {
        // Exact shortcut: if other admits exactly one string, test it.
        if let Some(p) = other.single_value() {
            return if other.satisfied_by(&p) {
                self.satisfied_by(&p)
            } else {
                true // other is empty; empty set is covered by anything
            };
        }
        // General conservative rules: each of self's conjuncts must be
        // implied by one of other's.
        let interval_ok =
            other.interval.is_subset(&self.interval) || self.interval == Interval::full();
        if !interval_ok {
            return false;
        }
        let prefixes_ok = self
            .prefixes
            .iter()
            .all(|p1| other.prefixes.iter().any(|p2| p2.starts_with(p1.as_str())));
        let suffixes_ok = self
            .suffixes
            .iter()
            .all(|s1| other.suffixes.iter().any(|s2| s2.ends_with(s1.as_str())));
        let contains_ok = self.contains.iter().all(|c1| {
            other.contains.iter().any(|c2| c2.contains(c1.as_str()))
                || other.prefixes.iter().any(|p| p.contains(c1.as_str()))
                || other.suffixes.iter().any(|s| s.contains(c1.as_str()))
        });
        // Every string self excludes must be unreachable under other.
        let excluded_ok = self.excluded.iter().all(|e| !other.satisfied_by(e));
        interval_ok && prefixes_ok && suffixes_ok && contains_ok && excluded_ok
    }

    fn overlaps(&self, other: &StrConstraint) -> bool {
        // Point shortcuts are exact.
        if let Some(p) = self.single_value() {
            return self.satisfied_by(&p) && other.satisfied_by(&p);
        }
        if let Some(p) = other.single_value() {
            return other.satisfied_by(&p) && self.satisfied_by(&p);
        }
        // Obvious disjointness: lexicographic intervals disjoint, or
        // incompatible prefixes.
        if !self.interval.overlaps(&other.interval) {
            return false;
        }
        for p1 in &self.prefixes {
            for p2 in &other.prefixes {
                if !p1.starts_with(p2.as_str()) && !p2.starts_with(p1.as_str()) {
                    return false;
                }
            }
        }
        true // conservative: assume an overlap exists
    }

    /// If this constraint pins the string to exactly one candidate
    /// value, returns it (the candidate may still fail the other
    /// conjuncts — callers must re-check with `satisfied_by`).
    fn single_value(&self) -> Option<String> {
        self.interval.as_point().cloned()
    }

    fn is_empty(&self) -> bool {
        if self.interval.is_empty() {
            return true;
        }
        if let Some(p) = self.single_value() {
            return !self.satisfied_by(&p);
        }
        // Prefix incompatibility makes the set provably empty.
        for (i, p1) in self.prefixes.iter().enumerate() {
            for p2 in &self.prefixes[i + 1..] {
                if !p1.starts_with(p2.as_str()) && !p2.starts_with(p1.as_str()) {
                    return true;
                }
            }
        }
        false
    }
}

/// Boolean constraint: which of `{false, true}` are admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BoolConstraint {
    /// `false` admitted.
    pub allow_false: bool,
    /// `true` admitted.
    pub allow_true: bool,
}

impl Default for BoolConstraint {
    fn default() -> Self {
        BoolConstraint {
            allow_false: true,
            allow_true: true,
        }
    }
}

impl BoolConstraint {
    fn satisfied_by(&self, v: bool) -> bool {
        if v {
            self.allow_true
        } else {
            self.allow_false
        }
    }
    fn covers(&self, other: &BoolConstraint) -> bool {
        (!other.allow_true || self.allow_true) && (!other.allow_false || self.allow_false)
    }
    fn overlaps(&self, other: &BoolConstraint) -> bool {
        (self.allow_true && other.allow_true) || (self.allow_false && other.allow_false)
    }
    fn is_empty(&self) -> bool {
        !self.allow_true && !self.allow_false
    }
}

/// The normalized constraint a filter places on one attribute.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Constraint {
    /// Attribute must be present; any value of any kind.
    Present,
    /// Numeric constraint.
    Num(NumConstraint),
    /// String constraint; boxed so that a constraint is the size of
    /// its numeric variant whatever the kind.
    Str(Box<StrConstraint>),
    /// Boolean constraint.
    Bool(BoolConstraint),
    /// Unsatisfiable (conflicting predicate kinds or empty range).
    Empty,
}

impl Constraint {
    /// Folds the predicates on a single attribute into a normalized
    /// constraint. All predicates must share the attribute; the caller
    /// (filter construction) guarantees this.
    pub fn from_predicates<'a>(preds: impl IntoIterator<Item = &'a Predicate>) -> Constraint {
        let mut c = Constraint::Present;
        for p in preds {
            c = c.and_predicate(p);
        }
        c.normalized()
    }

    /// Conjoins one more predicate onto this constraint.
    pub fn and_predicate(self, p: &Predicate) -> Constraint {
        if p.op() == Op::Any {
            return self; // presence is already required
        }
        let kind_wanted = match (p.op(), p.value().kind()) {
            (op, _) if op.is_string_op() => ValueKind::Str,
            (_, k) if k.is_numeric() => ValueKind::Float, // canonical numeric
            (_, ValueKind::Str) => ValueKind::Str,
            (_, ValueKind::Bool) => ValueKind::Bool,
            _ => unreachable!("kinds are exhaustively matched"),
        };
        match (self, kind_wanted) {
            (Constraint::Empty, _) => Constraint::Empty,
            (Constraint::Present, ValueKind::Float) => {
                Constraint::Num(NumConstraint::default()).and_predicate(p)
            }
            (Constraint::Present, ValueKind::Str) => {
                Constraint::Str(Box::default()).and_predicate(p)
            }
            (Constraint::Present, ValueKind::Bool) => {
                Constraint::Bool(BoolConstraint::default()).and_predicate(p)
            }
            (Constraint::Num(mut n), ValueKind::Float) => {
                // unwrap: kind_wanted Float implies a numeric operand
                let v = p.value().as_f64().unwrap();
                match p.op() {
                    Op::Eq => n.interval = n.interval.intersect(&Interval::point(v)),
                    Op::Neq => {
                        n.excluded.insert(TotalF64(v));
                    }
                    Op::Lt => {
                        n.interval = n
                            .interval
                            .intersect(&Interval::new(Bound::Unbounded, Bound::Excl(v)))
                    }
                    Op::Le => {
                        n.interval = n
                            .interval
                            .intersect(&Interval::new(Bound::Unbounded, Bound::Incl(v)))
                    }
                    Op::Gt => {
                        n.interval = n
                            .interval
                            .intersect(&Interval::new(Bound::Excl(v), Bound::Unbounded))
                    }
                    Op::Ge => {
                        n.interval = n
                            .interval
                            .intersect(&Interval::new(Bound::Incl(v), Bound::Unbounded))
                    }
                    _ => return Constraint::Empty,
                }
                Constraint::Num(n)
            }
            (Constraint::Str(mut s), ValueKind::Str) => {
                // unwrap: string operand guaranteed for string ops; Eq/Neq
                // with a string operand also lands here.
                let v = p.value().as_str().unwrap().to_owned();
                match p.op() {
                    Op::Eq => s.interval = s.interval.intersect(&Interval::point(v)),
                    Op::Neq => {
                        s.excluded.insert(v);
                    }
                    Op::Lt => {
                        s.interval = s
                            .interval
                            .intersect(&Interval::new(Bound::Unbounded, Bound::Excl(v)))
                    }
                    Op::Le => {
                        s.interval = s
                            .interval
                            .intersect(&Interval::new(Bound::Unbounded, Bound::Incl(v)))
                    }
                    Op::Gt => {
                        s.interval = s
                            .interval
                            .intersect(&Interval::new(Bound::Excl(v), Bound::Unbounded))
                    }
                    Op::Ge => {
                        s.interval = s
                            .interval
                            .intersect(&Interval::new(Bound::Incl(v), Bound::Unbounded))
                    }
                    Op::StrPrefix => s.prefixes.push(v),
                    Op::StrSuffix => s.suffixes.push(v),
                    Op::StrContains => s.contains.push(v),
                    Op::Any => unreachable!("Any handled above"),
                }
                Constraint::Str(s)
            }
            (Constraint::Bool(mut b), ValueKind::Bool) => {
                // unwrap: bool operand guaranteed by kind_wanted
                let v = p.value().as_bool().unwrap();
                match p.op() {
                    Op::Eq => {
                        if v {
                            b.allow_false = false;
                        } else {
                            b.allow_true = false;
                        }
                    }
                    Op::Neq => {
                        if v {
                            b.allow_true = false;
                        } else {
                            b.allow_false = false;
                        }
                    }
                    // Orderings on bools: false < true.
                    Op::Lt => {
                        b.allow_true = false;
                        if !v {
                            b.allow_false = false;
                        }
                    }
                    Op::Le => {
                        if !v {
                            b.allow_true = false;
                        }
                    }
                    Op::Gt => {
                        b.allow_false = false;
                        if v {
                            b.allow_true = false;
                        }
                    }
                    Op::Ge => {
                        if v {
                            b.allow_false = false;
                        }
                    }
                    _ => return Constraint::Empty,
                }
                Constraint::Bool(b)
            }
            // Kind conflict: x = 3 AND x = "a" admits nothing.
            _ => Constraint::Empty,
        }
    }

    /// Collapses provably-empty constraints to [`Constraint::Empty`].
    pub fn normalized(self) -> Constraint {
        let empty = match &self {
            Constraint::Num(n) => n.is_empty(),
            Constraint::Str(s) => s.is_empty(),
            Constraint::Bool(b) => b.is_empty(),
            _ => false,
        };
        if empty {
            Constraint::Empty
        } else {
            self
        }
    }

    /// Whether `v` satisfies this constraint.
    pub fn satisfied_by(&self, v: &Value) -> bool {
        match self {
            Constraint::Present => true,
            Constraint::Empty => false,
            Constraint::Num(n) => v.as_f64().is_some_and(|x| n.satisfied_by(x)),
            Constraint::Str(s) => v.as_str().is_some_and(|x| s.satisfied_by(x)),
            Constraint::Bool(b) => v.as_bool().is_some_and(|x| b.satisfied_by(x)),
        }
    }

    /// Subsumption: every value satisfying `other` satisfies `self`.
    ///
    /// Sound (no false positives); may be incomplete for exotic string
    /// combinations — see the module docs.
    pub fn covers(&self, other: &Constraint) -> bool {
        match (self, other) {
            (_, Constraint::Empty) => true,
            (Constraint::Empty, _) => false,
            (Constraint::Present, _) => true,
            (_, Constraint::Present) => false,
            (Constraint::Num(a), Constraint::Num(b)) => a.covers(b),
            (Constraint::Str(a), Constraint::Str(b)) => a.covers(b),
            (Constraint::Bool(a), Constraint::Bool(b)) => a.covers(b),
            _ => false, // cross-kind sets are disjoint
        }
    }

    /// Overlap: some value could satisfy both.
    ///
    /// Complete (no false negatives); may over-approximate.
    pub fn overlaps(&self, other: &Constraint) -> bool {
        match (self, other) {
            (Constraint::Empty, _) | (_, Constraint::Empty) => false,
            (Constraint::Present, _) | (_, Constraint::Present) => true,
            (Constraint::Num(a), Constraint::Num(b)) => a.overlaps(b),
            (Constraint::Str(a), Constraint::Str(b)) => a.overlaps(b),
            (Constraint::Bool(a), Constraint::Bool(b)) => a.overlaps(b),
            _ => false,
        }
    }

    /// Whether the constraint is provably unsatisfiable.
    pub fn is_empty(&self) -> bool {
        matches!(self, Constraint::Empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num(preds: &[Predicate]) -> Constraint {
        Constraint::from_predicates(preds)
    }

    #[test]
    fn interval_basic_containment() {
        let i = Interval::new(Bound::Incl(1.0), Bound::Excl(5.0));
        assert!(i.contains(&1.0));
        assert!(i.contains(&4.999));
        assert!(!i.contains(&5.0));
        assert!(!i.contains(&0.999));
    }

    #[test]
    fn interval_emptiness() {
        assert!(Interval::new(Bound::Incl(5.0), Bound::Incl(1.0)).is_empty());
        assert!(Interval::new(Bound::Incl(5.0), Bound::Excl(5.0)).is_empty());
        assert!(!Interval::new(Bound::Incl(5.0), Bound::Incl(5.0)).is_empty());
        assert!(!Interval::<f64>::full().is_empty());
    }

    #[test]
    fn interval_subset() {
        let small = Interval::new(Bound::Incl(2.0), Bound::Incl(3.0));
        let big = Interval::new(Bound::Incl(1.0), Bound::Incl(4.0));
        assert!(small.is_subset(&big));
        assert!(!big.is_subset(&small));
        assert!(small.is_subset(&small));
        // Open vs closed at the same endpoint:
        let open = Interval::new(Bound::Excl(1.0), Bound::Incl(4.0));
        assert!(open.is_subset(&big));
        assert!(!big.is_subset(&open));
        // Everything is a subset of full.
        assert!(big.is_subset(&Interval::full()));
    }

    #[test]
    fn interval_intersection() {
        let a = Interval::new(Bound::Incl(1.0), Bound::Incl(5.0));
        let b = Interval::new(Bound::Incl(3.0), Bound::Incl(8.0));
        let ix = a.intersect(&b);
        assert!(ix.contains(&3.0) && ix.contains(&5.0));
        assert!(!ix.contains(&2.9) && !ix.contains(&5.1));
        // Disjoint:
        let c = Interval::new(Bound::Incl(6.0), Bound::Incl(8.0));
        assert!(a.intersect(&c).is_empty());
        // Touching endpoints, one open:
        let d = Interval::new(Bound::Excl(5.0), Bound::Incl(9.0));
        assert!(a.intersect(&d).is_empty());
        let e = Interval::new(Bound::Incl(5.0), Bound::Incl(9.0));
        assert!(!a.intersect(&e).is_empty());
    }

    #[test]
    fn numeric_constraint_from_range_predicates() {
        let c = num(&[
            Predicate::new("x", Op::Ge, 10),
            Predicate::new("x", Op::Lt, 20),
        ]);
        assert!(c.satisfied_by(&Value::Int(10)));
        assert!(c.satisfied_by(&Value::Int(19)));
        assert!(!c.satisfied_by(&Value::Int(20)));
        assert!(!c.satisfied_by(&Value::Int(9)));
        assert!(!c.satisfied_by(&Value::from("10")));
    }

    #[test]
    fn contradictory_range_is_empty() {
        let c = num(&[
            Predicate::new("x", Op::Gt, 20),
            Predicate::new("x", Op::Lt, 10),
        ]);
        assert!(c.is_empty());
        let c2 = num(&[
            Predicate::new("x", Op::Eq, 5),
            Predicate::new("x", Op::Neq, 5),
        ]);
        assert!(c2.is_empty());
    }

    #[test]
    fn kind_conflict_is_empty() {
        let c = num(&[
            Predicate::new("x", Op::Eq, 3),
            Predicate::new("x", Op::Eq, "three"),
        ]);
        assert!(c.is_empty());
    }

    #[test]
    fn numeric_covering() {
        let wide = num(&[
            Predicate::new("x", Op::Ge, 0),
            Predicate::new("x", Op::Le, 100),
        ]);
        let narrow = num(&[
            Predicate::new("x", Op::Ge, 10),
            Predicate::new("x", Op::Le, 20),
        ]);
        assert!(wide.covers(&narrow));
        assert!(!narrow.covers(&wide));
        assert!(wide.covers(&wide));
    }

    #[test]
    fn covering_with_exclusions() {
        // wide excludes 15; narrow [10,20] includes 15 ⇒ not covered.
        let mut wide = num(&[
            Predicate::new("x", Op::Ge, 0),
            Predicate::new("x", Op::Le, 100),
        ]);
        wide = wide.and_predicate(&Predicate::new("x", Op::Neq, 15));
        let narrow = num(&[
            Predicate::new("x", Op::Ge, 10),
            Predicate::new("x", Op::Le, 20),
        ]);
        assert!(!wide.covers(&narrow));
        // But it covers a narrow range that also excludes 15.
        let narrow2 = narrow
            .clone()
            .and_predicate(&Predicate::new("x", Op::Neq, 15));
        assert!(wide.covers(&narrow2));
        // And covers one that avoids 15 entirely.
        let away = num(&[
            Predicate::new("x", Op::Ge, 30),
            Predicate::new("x", Op::Le, 40),
        ]);
        assert!(wide.covers(&away));
    }

    #[test]
    fn numeric_overlap() {
        let a = num(&[
            Predicate::new("x", Op::Ge, 0),
            Predicate::new("x", Op::Le, 10),
        ]);
        let b = num(&[
            Predicate::new("x", Op::Ge, 10),
            Predicate::new("x", Op::Le, 20),
        ]);
        let c = num(&[Predicate::new("x", Op::Gt, 10)]);
        assert!(a.overlaps(&b)); // touch at 10
        assert!(!a.overlaps(&c)); // open at 10
        assert!(b.overlaps(&c));
    }

    #[test]
    fn single_point_overlap_respects_exclusion() {
        let a = num(&[
            Predicate::new("x", Op::Ge, 0),
            Predicate::new("x", Op::Le, 10),
        ]);
        let b = num(&[
            Predicate::new("x", Op::Ge, 10),
            Predicate::new("x", Op::Le, 20),
            Predicate::new("x", Op::Neq, 10),
        ]);
        assert!(!a.overlaps(&b));
    }

    #[test]
    fn string_equality_covering_is_exact() {
        let pre = Constraint::from_predicates(&[Predicate::new("t", Op::StrPrefix, "stock/")]);
        let point = Constraint::from_predicates(&[Predicate::new("t", Op::Eq, "stock/ibm")]);
        let other = Constraint::from_predicates(&[Predicate::new("t", Op::Eq, "news/ibm")]);
        assert!(pre.covers(&point));
        assert!(!pre.covers(&other));
        assert!(!point.covers(&pre));
    }

    #[test]
    fn string_prefix_covering() {
        let short = Constraint::from_predicates(&[Predicate::new("t", Op::StrPrefix, "a/")]);
        let long = Constraint::from_predicates(&[Predicate::new("t", Op::StrPrefix, "a/b/")]);
        assert!(short.covers(&long));
        assert!(!long.covers(&short));
    }

    #[test]
    fn string_overlap_prefix_incompatible() {
        let a = Constraint::from_predicates(&[Predicate::new("t", Op::StrPrefix, "a/")]);
        let b = Constraint::from_predicates(&[Predicate::new("t", Op::StrPrefix, "b/")]);
        assert!(!a.overlaps(&b));
        let c = Constraint::from_predicates(&[Predicate::new("t", Op::StrPrefix, "a/b")]);
        assert!(a.overlaps(&c));
    }

    #[test]
    fn bool_constraints() {
        let t = Constraint::from_predicates(&[Predicate::new("b", Op::Eq, true)]);
        let f = Constraint::from_predicates(&[Predicate::new("b", Op::Eq, false)]);
        let any = Constraint::from_predicates(&[Predicate::any("b")]);
        assert!(t.satisfied_by(&Value::from(true)));
        assert!(!t.satisfied_by(&Value::from(false)));
        assert!(!t.overlaps(&f));
        assert!(any.covers(&t) && any.covers(&f));
        assert!(!t.covers(&any));
        let none = t
            .and_predicate(&Predicate::new("b", Op::Eq, false))
            .normalized();
        assert!(none.is_empty());
    }

    #[test]
    fn present_relations() {
        let p = Constraint::Present;
        let n = num(&[Predicate::new("x", Op::Ge, 0)]);
        assert!(p.covers(&n));
        assert!(!n.covers(&p));
        assert!(p.overlaps(&n));
        assert!(p.covers(&p) && p.overlaps(&p));
    }

    #[test]
    fn empty_relations() {
        let e = Constraint::Empty;
        let n = num(&[Predicate::new("x", Op::Ge, 0)]);
        assert!(n.covers(&e));
        assert!(!e.covers(&n));
        assert!(!e.overlaps(&n));
        assert!(!n.overlaps(&e));
        assert!(e.covers(&e));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_num_pred() -> impl Strategy<Value = Predicate> {
        (0..6u8, -50i64..50).prop_map(|(op, v)| {
            let op = match op {
                0 => Op::Eq,
                1 => Op::Neq,
                2 => Op::Lt,
                3 => Op::Le,
                4 => Op::Gt,
                _ => Op::Ge,
            };
            Predicate::new("x", op, v)
        })
    }

    fn arb_constraint() -> impl Strategy<Value = Constraint> {
        proptest::collection::vec(arb_num_pred(), 1..4)
            .prop_map(|ps| Constraint::from_predicates(&ps))
    }

    proptest! {
        /// covers soundness: if c1 covers c2 then every sample value
        /// satisfying c2 satisfies c1.
        #[test]
        fn covers_is_sound(c1 in arb_constraint(), c2 in arb_constraint(), vs in proptest::collection::vec(-60i64..60, 40)) {
            if c1.covers(&c2) {
                for v in vs {
                    let val = Value::Int(v);
                    if c2.satisfied_by(&val) {
                        prop_assert!(c1.satisfied_by(&val),
                            "c1={c1:?} claims to cover c2={c2:?} but misses {v}");
                    }
                }
            }
        }

        /// overlap completeness: if some sampled value satisfies both,
        /// overlaps must be true.
        #[test]
        fn overlap_is_complete(c1 in arb_constraint(), c2 in arb_constraint(), vs in proptest::collection::vec(-60i64..60, 40)) {
            let witness = vs.iter().any(|v| {
                let val = Value::Int(*v);
                c1.satisfied_by(&val) && c2.satisfied_by(&val)
            });
            if witness {
                prop_assert!(c1.overlaps(&c2));
            }
        }

        /// covering is reflexive and transitive on sampled constraints.
        #[test]
        fn covers_reflexive(c in arb_constraint()) {
            prop_assert!(c.covers(&c));
        }

        #[test]
        fn covers_transitive(a in arb_constraint(), b in arb_constraint(), c in arb_constraint()) {
            if a.covers(&b) && b.covers(&c) {
                prop_assert!(a.covers(&c));
            }
        }

        /// overlap is symmetric.
        #[test]
        fn overlap_symmetric(a in arb_constraint(), b in arb_constraint()) {
            prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
        }
    }
}

#[cfg(test)]
mod string_prop_tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_str_pred() -> impl Strategy<Value = Predicate> {
        (0..6u8, "[ab]{0,4}").prop_map(|(op, v)| {
            let op = match op {
                0 => Op::Eq,
                1 => Op::Neq,
                2 => Op::StrPrefix,
                3 => Op::StrSuffix,
                4 => Op::StrContains,
                _ => Op::Le,
            };
            Predicate::new("s", op, v)
        })
    }

    fn arb_str_constraint() -> impl Strategy<Value = Constraint> {
        proptest::collection::vec(arb_str_pred(), 1..4)
            .prop_map(|ps| Constraint::from_predicates(&ps))
    }

    /// Sample strings over the same small alphabet so witnesses exist.
    fn samples() -> Vec<Value> {
        let mut out = Vec::new();
        let alpha = ["", "a", "b", "aa", "ab", "ba", "bb", "aab", "abab", "bbaa"];
        for s in alpha {
            out.push(Value::from(s));
        }
        out
    }

    proptest! {
        /// String-constraint covering soundness: a claimed cover never
        /// misses a sampled witness.
        #[test]
        fn string_covers_is_sound(c1 in arb_str_constraint(), c2 in arb_str_constraint()) {
            if c1.covers(&c2) {
                for v in samples() {
                    if c2.satisfied_by(&v) {
                        prop_assert!(
                            c1.satisfied_by(&v),
                            "c1={c1:?} claims cover of c2={c2:?} but misses {v}"
                        );
                    }
                }
            }
        }

        /// String-constraint overlap completeness: a sampled common
        /// witness forces overlaps() to be true.
        #[test]
        fn string_overlap_is_complete(c1 in arb_str_constraint(), c2 in arb_str_constraint()) {
            let witness = samples()
                .iter()
                .any(|v| c1.satisfied_by(v) && c2.satisfied_by(v));
            if witness {
                prop_assert!(c1.overlaps(&c2), "c1={c1:?} c2={c2:?}");
            }
        }

        /// Mixed-kind constraints never cover or overlap.
        #[test]
        fn cross_kind_disjoint(sp in arb_str_pred(), n in -20i64..20) {
            let sc = Constraint::from_predicates(&[sp]);
            let nc = Constraint::from_predicates(&[Predicate::new("s", Op::Ge, n)]);
            if !sc.is_empty() && !nc.is_empty() {
                prop_assert!(!sc.overlaps(&nc));
                prop_assert!(!sc.covers(&nc));
                prop_assert!(!nc.covers(&sc));
            }
        }
    }
}
