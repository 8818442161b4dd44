//! Filters: conjunctions of predicates, used for both subscriptions and
//! advertisements.
//!
//! A filter normalizes its predicates into one [`Constraint`] per
//! attribute (see [`crate::constraint`]) and exposes the three relations
//! content-based routing needs:
//!
//! - [`Filter::matches`] — does a publication satisfy the filter?
//! - [`Filter::covers`] — subsumption (`f1` covers `f2` when every
//!   publication matching `f2` also matches `f1`), the basis of the
//!   covering optimization the paper analyzes.
//! - [`Filter::overlaps`] — could some publication match both? This is
//!   the advertisement/subscription *intersection* test that routes
//!   subscriptions toward advertisements.
//!
//! # One allocation, many holders
//!
//! A [`Filter`] is a handle on an immutable, shared body: cloning one
//! bumps a reference count and copies nothing, however many predicates
//! it has. The client stub, every routing row on the subscription's
//! path, the match index of each of those tables and every message
//! that carries the subscription between them all hold the same body.
//! That is sound because a filter has no mutating method: whoever
//! wants a different filter builds a new one (DESIGN.md §18). The body
//! itself is exact-sized: the predicates in a boxed slice, the
//! constraints in a boxed slice sorted by attribute and probed by
//! binary search.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::constraint::Constraint;
use crate::predicate::{Op, Predicate};
use crate::publication::Publication;

/// A conjunction of predicates with per-attribute normalized
/// constraints.
///
/// # Examples
///
/// ```
/// use transmob_pubsub::{Filter, Publication};
///
/// let sub = Filter::builder()
///     .ge("price", 10)
///     .le("price", 100)
///     .eq("symbol", "IBM")
///     .build();
/// let p = Publication::new()
///     .with("price", 42)
///     .with("symbol", "IBM");
/// assert!(sub.matches(&p));
/// ```
///
/// `Clone` is O(1) and shares the body (module docs); equality compares
/// bodies, and is immediate for two handles on one.
#[derive(Debug, Clone)]
pub struct Filter {
    body: Arc<Body>,
}

/// What a filter is made of; never written to once built. Field names
/// and order are the serialized shape.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Body {
    predicates: Box<[Predicate]>,
    /// One entry per constrained attribute, ascending by attribute, no
    /// attribute twice.
    #[serde(with = "sorted_map")]
    constraints: Box<[(Box<str>, Constraint)]>,
}

/// Serializes the sorted constraint slice as the attribute-keyed map
/// it stands for, in attribute order; a decoded map is sorted (and a
/// repeated key resolved, last one wins) by way of a `BTreeMap`.
mod sorted_map {
    use std::collections::BTreeMap;

    use serde::{Deserialize, Deserializer, Serializer};

    use crate::constraint::Constraint;

    type Entries = Box<[(Box<str>, Constraint)]>;

    pub fn serialize<S: Serializer>(entries: &Entries, ser: S) -> Result<S::Ok, S::Error> {
        ser.collect_map(entries.iter().map(|(a, c)| (&**a, c)))
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(de: D) -> Result<Entries, D::Error> {
        let map: BTreeMap<String, Constraint> = BTreeMap::deserialize(de)?;
        Ok(map
            .into_iter()
            .map(|(a, c)| (a.into_boxed_str(), c))
            .collect())
    }
}

impl Serialize for Filter {
    fn serialize<S: serde::Serializer>(&self, ser: S) -> Result<S::Ok, S::Error> {
        self.body.serialize(ser)
    }
}

impl<'de> Deserialize<'de> for Filter {
    fn deserialize<D: serde::Deserializer<'de>>(de: D) -> Result<Self, D::Error> {
        Body::deserialize(de).map(|body| Filter {
            body: Arc::new(body),
        })
    }
}

impl PartialEq for Filter {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.body, &other.body) || self.body == other.body
    }
}

impl Filter {
    /// Builds a filter from a list of predicates (conjunction).
    ///
    /// Conflicting predicates (e.g. `x > 5 AND x < 3`) are allowed and
    /// produce an unsatisfiable filter ([`Filter::is_satisfiable`]
    /// returns `false`, and it matches no publication).
    pub fn new(predicates: Vec<Predicate>) -> Self {
        // Stable, so the predicates of one attribute fold in the order
        // they were given.
        let mut by_attr: Vec<&Predicate> = predicates.iter().collect();
        by_attr.sort_by(|a, b| a.attr().cmp(b.attr()));
        let constraints = by_attr
            .chunk_by(|a, b| a.attr() == b.attr())
            .map(|preds| {
                let c = Constraint::from_predicates(preds.iter().copied());
                (preds[0].attr().into(), c)
            })
            .collect();
        Filter {
            body: Arc::new(Body {
                constraints,
                predicates: predicates.into_boxed_slice(),
            }),
        }
    }

    /// Starts a [`FilterBuilder`].
    pub fn builder() -> FilterBuilder {
        FilterBuilder::default()
    }

    /// The predicates the filter was built from.
    pub fn predicates(&self) -> &[Predicate] {
        &self.body.predicates
    }

    /// The normalized constraint on `attr`, if the filter constrains it.
    pub fn constraint(&self, attr: &str) -> Option<&Constraint> {
        let entries = &self.body.constraints;
        entries
            .binary_search_by(|(a, _)| (**a).cmp(attr))
            .ok()
            .map(|i| &entries[i].1)
    }

    /// Iterates over `(attribute, constraint)` pairs in attribute order.
    pub fn constraints(&self) -> impl Iterator<Item = (&str, &Constraint)> {
        self.body.constraints.iter().map(|(a, c)| (&**a, c))
    }

    /// The `i`-th constraint in attribute order: what the match index
    /// keeps beside a handle in place of a copy of the constraint.
    pub(crate) fn constraint_at(&self, i: usize) -> &Constraint {
        &self.body.constraints[i].1
    }

    /// Number of constrained attributes.
    pub fn arity(&self) -> usize {
        self.body.constraints.len()
    }

    /// Whether some publication could match (no provably-empty
    /// constraint).
    pub fn is_satisfiable(&self) -> bool {
        !self.constraints().any(|(_, c)| c.is_empty())
    }

    /// Whether `publication` satisfies every constraint.
    ///
    /// The publication must carry *every* constrained attribute (content
    /// based matching treats a missing attribute as unsatisfied).
    pub fn matches(&self, publication: &Publication) -> bool {
        self.constraints()
            .all(|(attr, c)| publication.get(attr).is_some_and(|v| c.satisfied_by(v)))
    }

    /// Subsumption: `self` covers `other` when every publication
    /// matching `other` also matches `self`.
    ///
    /// Sound but not complete: `true` is always correct; `false` may be
    /// returned for combinations the normalized form cannot prove (see
    /// [`crate::constraint`] module docs).
    pub fn covers(&self, other: &Filter) -> bool {
        if !other.is_satisfiable() {
            return true; // the empty set is covered by anything
        }
        self.constraints()
            .all(|(attr, c1)| other.constraint(attr).is_some_and(|c2| c1.covers(c2)))
    }

    /// Intersection test: could some publication match both filters?
    ///
    /// Complete but not exact: `false` is always correct; `true` may be
    /// an over-approximation (extra forwarding, never lost messages).
    pub fn overlaps(&self, other: &Filter) -> bool {
        if !self.is_satisfiable() || !other.is_satisfiable() {
            return false;
        }
        self.constraints().all(|(attr, c1)| {
            match other.constraint(attr) {
                Some(c2) => c1.overlaps(c2),
                // The other filter does not constrain this attribute; a
                // publication can carry any value here.
                None => true,
            }
        })
    }

    /// Whether the two handles share one body: sharing tests of the
    /// crates that hold filters.
    #[doc(hidden)]
    pub fn ptr_eq(a: &Filter, b: &Filter) -> bool {
        Arc::ptr_eq(&a.body, &b.body)
    }
}

impl fmt::Display for Filter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.predicates().is_empty() {
            return f.write_str("{true}");
        }
        f.write_str("{")?;
        for (i, p) in self.predicates().iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{p}")?;
        }
        f.write_str("}")
    }
}

impl FromIterator<Predicate> for Filter {
    fn from_iter<I: IntoIterator<Item = Predicate>>(iter: I) -> Self {
        Filter::new(iter.into_iter().collect())
    }
}

/// Incremental builder for [`Filter`].
///
/// # Examples
///
/// ```
/// use transmob_pubsub::Filter;
///
/// let f = Filter::builder().any("class").gt("volume", 1000).build();
/// assert_eq!(f.arity(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FilterBuilder {
    predicates: Vec<Predicate>,
}

impl FilterBuilder {
    /// Adds an arbitrary predicate.
    pub fn pred(mut self, p: Predicate) -> Self {
        self.predicates.push(p);
        self
    }

    /// Adds `attr = value`.
    pub fn eq(self, attr: &str, value: impl Into<crate::Value>) -> Self {
        self.pred(Predicate::new(attr, Op::Eq, value))
    }

    /// Adds `attr != value`.
    pub fn ne(self, attr: &str, value: impl Into<crate::Value>) -> Self {
        self.pred(Predicate::new(attr, Op::Neq, value))
    }

    /// Adds `attr < value`.
    pub fn lt(self, attr: &str, value: impl Into<crate::Value>) -> Self {
        self.pred(Predicate::new(attr, Op::Lt, value))
    }

    /// Adds `attr <= value`.
    pub fn le(self, attr: &str, value: impl Into<crate::Value>) -> Self {
        self.pred(Predicate::new(attr, Op::Le, value))
    }

    /// Adds `attr > value`.
    pub fn gt(self, attr: &str, value: impl Into<crate::Value>) -> Self {
        self.pred(Predicate::new(attr, Op::Gt, value))
    }

    /// Adds `attr >= value`.
    pub fn ge(self, attr: &str, value: impl Into<crate::Value>) -> Self {
        self.pred(Predicate::new(attr, Op::Ge, value))
    }

    /// Adds the presence predicate `attr *`.
    pub fn any(self, attr: &str) -> Self {
        self.pred(Predicate::any(attr))
    }

    /// Adds a string-prefix predicate.
    pub fn prefix(self, attr: &str, value: &str) -> Self {
        self.pred(Predicate::new(attr, Op::StrPrefix, value))
    }

    /// Adds a string-suffix predicate.
    pub fn suffix(self, attr: &str, value: &str) -> Self {
        self.pred(Predicate::new(attr, Op::StrSuffix, value))
    }

    /// Adds a substring predicate.
    pub fn contains(self, attr: &str, value: &str) -> Self {
        self.pred(Predicate::new(attr, Op::StrContains, value))
    }

    /// Finishes the filter.
    pub fn build(self) -> Filter {
        Filter::new(self.predicates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pub1(pairs: &[(&str, i64)]) -> Publication {
        let mut p = Publication::new();
        for (a, v) in pairs {
            p = p.with(*a, *v);
        }
        p
    }

    #[test]
    fn matching_requires_all_attributes_present() {
        let f = Filter::builder().ge("x", 0).le("y", 10).build();
        assert!(f.matches(&pub1(&[("x", 5), ("y", 5)])));
        assert!(!f.matches(&pub1(&[("x", 5)]))); // y missing
        assert!(!f.matches(&pub1(&[("x", 5), ("y", 11)])));
    }

    #[test]
    fn extra_publication_attributes_are_ignored() {
        let f = Filter::builder().eq("x", 1).build();
        assert!(f.matches(&pub1(&[("x", 1), ("z", 99)])));
    }

    #[test]
    fn empty_filter_matches_everything() {
        let f = Filter::new(vec![]);
        assert!(f.matches(&pub1(&[])));
        assert!(f.matches(&pub1(&[("a", 1)])));
    }

    #[test]
    fn covering_requires_attribute_subset_direction() {
        // f1 constrains only x; f2 constrains x (tighter) and y.
        let f1 = Filter::builder().ge("x", 0).build();
        let f2 = Filter::builder().ge("x", 5).eq("y", 1).build();
        assert!(f1.covers(&f2));
        assert!(!f2.covers(&f1)); // f1 matches pubs without y
    }

    #[test]
    fn covering_fails_when_extra_attr_constrained_by_coverer() {
        let f1 = Filter::builder().ge("x", 0).eq("y", 1).build();
        let f2 = Filter::builder().ge("x", 5).build();
        // f2 matches pubs without y, which f1 does not match.
        assert!(!f1.covers(&f2));
    }

    #[test]
    fn covers_reflexive_and_antisymmetric_on_distinct_ranges() {
        let a = Filter::builder().ge("x", 0).le("x", 10).build();
        let b = Filter::builder().ge("x", 2).le("x", 8).build();
        assert!(a.covers(&a));
        assert!(a.covers(&b));
        assert!(!b.covers(&a));
    }

    #[test]
    fn unsatisfiable_filter_is_covered_by_all_and_covers_nothing_satisfiable() {
        let bad = Filter::builder().gt("x", 10).lt("x", 0).build();
        assert!(!bad.is_satisfiable());
        let any = Filter::builder().any("x").build();
        assert!(any.covers(&bad));
        assert!(!bad.covers(&any));
        assert!(!bad.matches(&pub1(&[("x", 5)])));
        assert!(!bad.overlaps(&any));
    }

    #[test]
    fn overlap_on_shared_attributes_only() {
        let adv = Filter::builder().ge("price", 0).le("price", 50).build();
        let sub = Filter::builder().ge("price", 40).eq("sym", "A").build();
        // Price ranges overlap; `sym` unconstrained by adv — a
        // publication with sym=A and price=45 matches both.
        assert!(adv.overlaps(&sub));
        let sub2 = Filter::builder().gt("price", 60).build();
        assert!(!adv.overlaps(&sub2));
    }

    #[test]
    fn overlap_symmetry() {
        let a = Filter::builder().ge("x", 0).le("x", 10).build();
        let b = Filter::builder().ge("x", 5).eq("y", 2).build();
        assert_eq!(a.overlaps(&b), b.overlaps(&a));
    }

    #[test]
    fn builder_and_from_iterator_agree() {
        let a = Filter::builder().ge("x", 1).lt("x", 9).build();
        let b: Filter = vec![
            Predicate::new("x", Op::Ge, 1),
            Predicate::new("x", Op::Lt, 9),
        ]
        .into_iter()
        .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn display_is_compact() {
        let f = Filter::builder().eq("x", 1).build();
        assert_eq!(f.to_string(), "{[x = 1]}");
        assert_eq!(Filter::new(vec![]).to_string(), "{true}");
    }

    #[test]
    fn clone_shares_the_body_and_equality_ignores_sharing() {
        let build = || {
            Filter::builder()
                .ge("x", 1)
                .prefix("name", "al")
                .ne("x", 4)
                .any("seen")
                .build()
        };
        let a = build();
        let shared = a.clone();
        assert!(Arc::ptr_eq(&a.body, &shared.body));
        assert!(Filter::ptr_eq(&a, &shared));
        assert_eq!(a, shared);
        // Built again: another body, the same filter.
        let rebuilt = build();
        assert!(!Filter::ptr_eq(&a, &rebuilt));
        assert_eq!(a, rebuilt);
        assert_ne!(a, Filter::builder().ge("x", 1).build());
    }

    #[test]
    fn constraints_are_sorted_whatever_the_predicate_order() {
        let f = Filter::builder()
            .le("y", 9)
            .prefix("x", "a/")
            .ge("b", 0)
            .prefix("x", "a/b/")
            .ge("y", 1)
            .build();
        let attrs: Vec<&str> = f.constraints().map(|(a, _)| a).collect();
        assert_eq!(attrs, ["b", "x", "y"]);
        assert_eq!(f.arity(), 3);
        for (i, (attr, c)) in f.constraints().enumerate() {
            assert_eq!(f.constraint(attr), Some(c));
            assert_eq!(f.constraint_at(i), c);
        }
        assert_eq!(f.constraint("a"), None);
        assert_eq!(f.constraint("z"), None);
        // The predicates of one attribute fold in the order given.
        let Some(Constraint::Str(x)) = f.constraint("x") else {
            panic!("x is a string constraint");
        };
        assert_eq!(x.prefixes, ["a/", "a/b/"]);
        // The body holds what it needs and no more.
        assert_eq!(f.predicates().len(), 5);
        assert!(std::mem::size_of::<Constraint>() <= 64);
    }

    #[test]
    fn mixed_value_kinds_match() {
        let f = Filter::builder()
            .eq("name", "alpha")
            .ge("load", 0.5)
            .eq("active", true)
            .build();
        let p = Publication::new()
            .with("name", "alpha")
            .with("load", 0.75)
            .with("active", true);
        assert!(f.matches(&p));
        let p2 = Publication::new()
            .with("name", "alpha")
            .with("load", 0.25)
            .with("active", true);
        assert!(!f.matches(&p2));
    }

    #[test]
    fn string_covering_chain() {
        let root = Filter::builder().prefix("topic", "game/").build();
        let mid = Filter::builder().prefix("topic", "game/zone1/").build();
        let leaf = Filter::builder().eq("topic", "game/zone1/cell42").build();
        assert!(root.covers(&mid));
        assert!(mid.covers(&leaf));
        assert!(root.covers(&leaf)); // transitivity in practice
        assert!(!leaf.covers(&mid));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::value::Value as PubValue;
    use proptest::prelude::*;

    const ATTRS: [&str; 3] = ["x", "y", "z"];

    fn arb_filter() -> impl Strategy<Value = Filter> {
        proptest::collection::vec((0..3usize, 0..6u8, -20i64..20), 1..4).prop_map(|specs| {
            let preds = specs
                .into_iter()
                .map(|(ai, op, v)| {
                    let op = match op {
                        0 => Op::Eq,
                        1 => Op::Neq,
                        2 => Op::Lt,
                        3 => Op::Le,
                        4 => Op::Gt,
                        _ => Op::Ge,
                    };
                    Predicate::new(ATTRS[ai], op, v)
                })
                .collect();
            Filter::new(preds)
        })
    }

    fn arb_publication() -> impl Strategy<Value = Publication> {
        proptest::collection::vec(-25i64..25, 3).prop_map(|vs| {
            let mut p = Publication::new();
            for (a, v) in ATTRS.iter().zip(vs) {
                p = p.with(*a, v);
            }
            p
        })
    }

    proptest! {
        /// Filter covering soundness against sampled publications.
        #[test]
        fn filter_covers_sound(f1 in arb_filter(), f2 in arb_filter(),
                               pubs in proptest::collection::vec(arb_publication(), 25)) {
            if f1.covers(&f2) {
                for p in &pubs {
                    if f2.matches(p) {
                        prop_assert!(f1.matches(p), "f1={f1} f2={f2} pub misses");
                    }
                }
            }
        }

        /// Overlap completeness against sampled publications.
        #[test]
        fn filter_overlap_complete(f1 in arb_filter(), f2 in arb_filter(),
                                   pubs in proptest::collection::vec(arb_publication(), 25)) {
            if pubs.iter().any(|p| f1.matches(p) && f2.matches(p)) {
                prop_assert!(f1.overlaps(&f2));
            }
        }

        /// A filter always covers itself.
        #[test]
        fn filter_covers_reflexive(f in arb_filter()) {
            prop_assert!(f.covers(&f));
        }

        /// Matching is deterministic w.r.t. semantically-equal values.
        #[test]
        fn match_int_float_promotion(v in -20i64..20) {
            let f = Filter::builder().eq("x", v).build();
            let p = Publication::new().with("x", PubValue::Float(v as f64));
            prop_assert!(f.matches(&p));
        }
    }
}
