//! The paper's Fig. 7 subscription workloads.
//!
//! Each workload is built from ten *subscription groups* over a
//! numeric attribute `x` with a precise covering structure; the
//! paper's Fig. 9 x-axis — "the number of covered subscriptions" — is
//! the maximum number of groups *directly* covered by any one group:
//!
//! - [`SubWorkload::Covered`] (x = 9): one root group covers nine
//!   disjoint leaf groups;
//! - [`SubWorkload::Chained`] (x = 1): a nested chain, each group
//!   directly covering exactly one other;
//! - [`SubWorkload::Tree`] (x = 3): a root directly covering three
//!   children, each covering two leaves;
//! - [`SubWorkload::Distinct`] (x = 0): ten mutually disjoint groups;
//! - [`SubWorkload::Random`]: uniform selection over the four above.
//!
//! Two further pools step outside the paper's single-attribute ranges
//! for workload realism (used by the `publish_batch` benchmarks):
//!
//! - [`SubWorkload::MultiAttr`]: disjoint `x` bands *conjoined with* a
//!   shared numeric range on a second attribute [`ATTR_Y`], so every
//!   match probes two attribute groups;
//! - [`SubWorkload::StrPrefix`]: disjoint `x` bands conjoined with a
//!   per-group string-prefix constraint on [`ATTR_TAG`], exercising
//!   the match index's string buckets next to its numeric rows.
//!
//! Every *client* receives its own **instance** of a group: the group
//! range shifted by a client-specific offset ([`SubWorkload::assign`]).
//! Instances of the same group are mutually *incomparable* (neither
//! covers the other), while all cross-group covering relations are
//! preserved — the group ranges keep structural margins larger than
//! the maximum shift. This mirrors the paper's setup, where covering
//! relationships hold *between* clients' subscriptions: a broker
//! quenches a leaf-group subscription as long as at least one
//! root-group instance is forwarded, and the departure of the **last**
//! covering instance releases every quenched subscription at once —
//! the burst behaviour behind the paper's Fig. 9/11 pathology.
//!
//! The construction is validated by the unit tests against
//! [`Filter::covers`], so the covering relations seen by the broker
//! network are exactly the intended ones.

use std::fmt;

use transmob_pubsub::Filter;

/// The attribute all workload subscriptions range over.
pub const ATTR: &str = "x";

/// The second numeric attribute of [`SubWorkload::MultiAttr`].
pub const ATTR_Y: &str = "y";

/// The string attribute of [`SubWorkload::StrPrefix`].
pub const ATTR_TAG: &str = "tag";

/// [`ATTR_Y`] band stride of [`SubWorkload::MultiAttr`]: group `g`
/// ranges over `[g * Y_STRIDE, g * Y_STRIDE + Y_WIDTH]`, so the ten
/// bands are mutually disjoint with `Y_STRIDE - Y_WIDTH` gaps.
pub const Y_STRIDE: i64 = 600;

/// [`ATTR_Y`] band width of [`SubWorkload::MultiAttr`].
pub const Y_WIDTH: i64 = 400;

/// Maximum per-client shift; all structural margins exceed this, so
/// cross-group covering is shift-independent. Populations of up to
/// 10 × `MAX_SHIFT` clients get unique instances.
pub const MAX_SHIFT: i64 = 100;

/// The full attribute space advertised by workload publishers.
pub fn full_space_adv() -> Filter {
    Filter::builder().ge(ATTR, 0).le(ATTR, 100_000).build()
}

/// One of the paper's subscription workloads (Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SubWorkload {
    /// Fig. 7(a): root group covers all nine others directly.
    Covered,
    /// Fig. 7(b): nested chain of groups.
    Chained,
    /// Fig. 7(c): root → three children → two leaves each.
    Tree,
    /// Fig. 7(d): no covering relationships.
    Distinct,
    /// Uniform mix of the four.
    Random,
    /// Disjoint `x` bands conjoined with per-group disjoint [`ATTR_Y`]
    /// bands: two-attribute subscriptions, no covering.
    MultiAttr,
    /// Disjoint `x` bands conjoined with a per-group string prefix on
    /// [`ATTR_TAG`]: mixed numeric/string subscriptions, no covering.
    StrPrefix,
}

impl SubWorkload {
    /// The four pure workloads, in the paper's Fig. 9 x-axis order.
    pub const SWEEP: [SubWorkload; 4] = [
        SubWorkload::Distinct,
        SubWorkload::Chained,
        SubWorkload::Tree,
        SubWorkload::Covered,
    ];

    /// The paper's Fig. 9 x-value: the maximum number of groups
    /// directly covered by one group.
    ///
    /// Returns `None` for [`SubWorkload::Random`].
    pub fn covering_degree(self) -> Option<u32> {
        match self {
            SubWorkload::Covered => Some(9),
            SubWorkload::Chained => Some(1),
            SubWorkload::Tree => Some(3),
            SubWorkload::Distinct | SubWorkload::MultiAttr | SubWorkload::StrPrefix => Some(0),
            SubWorkload::Random => None,
        }
    }

    /// The `(lo, hi)` base ranges of the ten groups, index 0 being the
    /// paper's subscription 1 (the root where one exists). All
    /// structural margins are > [`MAX_SHIFT`].
    pub fn group_ranges(self) -> Vec<(i64, i64)> {
        match self {
            SubWorkload::Covered => {
                let mut g = vec![(0, 10_000)];
                // Nine disjoint leaves strictly inside the root, with
                // ≥ 500 gaps.
                g.extend((1..=9).map(|i| (i * 1000, i * 1000 + 500)));
                g
            }
            // Nested chain with 200-margins on both sides, in its own
            // band so it never collides with the covered root.
            SubWorkload::Chained => (0..10)
                .map(|i| (30_000 + i * 200, 40_000 - i * 200))
                .collect(),
            SubWorkload::Tree => vec![
                (20_000, 29_000), // 1: root
                (20_200, 22_700), // 2
                (23_200, 25_700), // 3
                (26_200, 28_700), // 4
                (20_400, 21_400), // 5 (under 2)
                (21_700, 22_500), // 6 (under 2)
                (23_400, 24_400), // 7 (under 3)
                (24_700, 25_500), // 8 (under 3)
                (26_400, 27_400), // 9 (under 4)
                (27_700, 28_500), // 10 (under 4)
            ],
            SubWorkload::Distinct => (0..10)
                .map(|i| (50_000 + i * 2000, 50_000 + i * 2000 + 800))
                .collect(),
            // The two-attribute pools live in their own bands above
            // every Fig. 7 workload, same 2000-stride disjoint layout.
            SubWorkload::MultiAttr => (0..10)
                .map(|i| (70_000 + i * 1500, 70_000 + i * 1500 + 800))
                .collect(),
            SubWorkload::StrPrefix => (0..10)
                .map(|i| (86_000 + i * 1200, 86_000 + i * 1200 + 800))
                .collect(),
            SubWorkload::Random => {
                let mut pool = Vec::with_capacity(40);
                for w in SubWorkload::SWEEP {
                    pool.extend(w.group_ranges());
                }
                pool
            }
        }
    }

    /// The canonical (unshifted) filters of the ten groups.
    pub fn filters(self) -> Vec<Filter> {
        (0..self.group_ranges().len())
            .map(|g| self.instance(g, 0))
            .collect()
    }

    /// A client-specific instance of group `group`: the base range
    /// shifted by `shift` (0 ≤ shift ≤ [`MAX_SHIFT`]). Instances of a
    /// group with different shifts are mutually incomparable;
    /// cross-group covering matches the group structure for any shift
    /// pair.
    ///
    /// # Panics
    ///
    /// Panics if `group` ≥ 10 (40 for [`SubWorkload::Random`]) or
    /// `shift` > [`MAX_SHIFT`].
    pub fn instance(self, group: usize, shift: i64) -> Filter {
        assert!(shift <= MAX_SHIFT, "shift {shift} exceeds MAX_SHIFT");
        let (lo, hi) = self.group_ranges()[group];
        let b = Filter::builder().ge(ATTR, lo + shift).le(ATTR, hi + shift);
        match self {
            SubWorkload::MultiAttr => {
                let y = group as i64 * Y_STRIDE;
                b.ge(ATTR_Y, y).le(ATTR_Y, y + Y_WIDTH).build()
            }
            SubWorkload::StrPrefix => b.prefix(ATTR_TAG, &format!("g{group}")).build(),
            _ => b.build(),
        }
    }

    /// The subscription instance assigned to the `idx`-th client of a
    /// population: group `idx % 10`, shift `idx / 10` (so instances are
    /// unique for up to 1000 clients). [`SubWorkload::Random`] draws
    /// the group deterministically from its 40-group pool.
    pub fn assign(self, idx: usize) -> Filter {
        let shift = (idx / 10) as i64 % (MAX_SHIFT + 1);
        match self {
            SubWorkload::Random => {
                // SplitMix-style deterministic hash of the index.
                let mut z = (idx as u64).wrapping_add(0x9e3779b97f4a7c15);
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                let k = (z ^ (z >> 31)) as usize % 40;
                self.instance(k, shift)
            }
            _ => self.instance(idx % 10, shift),
        }
    }
}

impl fmt::Display for SubWorkload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SubWorkload::Covered => "covered",
            SubWorkload::Chained => "chained",
            SubWorkload::Tree => "tree",
            SubWorkload::Distinct => "distinct",
            SubWorkload::Random => "random",
            SubWorkload::MultiAttr => "multiattr",
            SubWorkload::StrPrefix => "strprefix",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The direct-covering (Hasse) edges of a filter list: `(i, j)`
    /// when `i` covers `j` with no `k` strictly in between.
    fn hasse(filters: &[Filter]) -> Vec<(usize, usize)> {
        let n = filters.len();
        let covers = |a: usize, b: usize| {
            a != b && filters[a].covers(&filters[b]) && !filters[b].covers(&filters[a])
        };
        let mut edges = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if covers(i, j) {
                    let direct = !(0..n).any(|k| covers(i, k) && covers(k, j));
                    if direct {
                        edges.push((i, j));
                    }
                }
            }
        }
        edges
    }

    fn max_out_degree(edges: &[(usize, usize)]) -> usize {
        (0..10)
            .map(|i| edges.iter().filter(|(a, _)| *a == i).count())
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn covered_structure() {
        let f = SubWorkload::Covered.filters();
        assert_eq!(f.len(), 10);
        let h = hasse(&f);
        assert_eq!(h.len(), 9);
        assert!(h.iter().all(|(a, _)| *a == 0), "all edges from the root");
        assert_eq!(max_out_degree(&h), 9);
        for i in 1..10 {
            for j in (i + 1)..10 {
                assert!(!f[i].overlaps(&f[j]), "leaves {i},{j} overlap");
            }
        }
    }

    #[test]
    fn chained_structure() {
        let f = SubWorkload::Chained.filters();
        let h = hasse(&f);
        let expected: Vec<(usize, usize)> = (0..9).map(|i| (i, i + 1)).collect();
        assert_eq!(h, expected);
        assert_eq!(max_out_degree(&h), 1);
    }

    #[test]
    fn tree_structure() {
        let f = SubWorkload::Tree.filters();
        let h = hasse(&f);
        let mut expected = vec![(0, 1), (0, 2), (0, 3)];
        expected.extend([(1, 4), (1, 5), (2, 6), (2, 7), (3, 8), (3, 9)]);
        let mut got = h.clone();
        got.sort_unstable();
        expected.sort_unstable();
        assert_eq!(got, expected);
        assert_eq!(max_out_degree(&h), 3);
    }

    #[test]
    fn distinct_structure() {
        let f = SubWorkload::Distinct.filters();
        assert!(hasse(&f).is_empty());
        for i in 0..10 {
            for j in (i + 1)..10 {
                assert!(!f[i].overlaps(&f[j]));
            }
        }
    }

    #[test]
    fn covering_degrees_match_fig9_axis() {
        for w in SubWorkload::SWEEP {
            let h = hasse(&w.filters());
            assert_eq!(
                max_out_degree(&h) as u32,
                w.covering_degree().unwrap(),
                "degree mismatch for {w}"
            );
        }
    }

    #[test]
    fn instances_of_one_group_are_incomparable() {
        for w in SubWorkload::SWEEP {
            for g in 0..10 {
                let a = w.instance(g, 0);
                let b = w.instance(g, 37);
                assert!(!a.covers(&b), "{w} group {g}: shift-0 covers shift-37");
                assert!(!b.covers(&a), "{w} group {g}: shift-37 covers shift-0");
                assert!(a.overlaps(&b));
            }
        }
    }

    #[test]
    fn cross_group_covering_is_shift_independent() {
        // Every group-level covering edge must hold between arbitrary
        // instances, and every non-edge must stay a non-edge.
        for w in [
            SubWorkload::Covered,
            SubWorkload::Chained,
            SubWorkload::Tree,
        ] {
            let base = w.filters();
            for i in 0..10 {
                for j in 0..10 {
                    if i == j {
                        continue;
                    }
                    let group_covers = base[i].covers(&base[j]);
                    for (sa, sb) in [(0, MAX_SHIFT), (MAX_SHIFT, 0), (13, 87)] {
                        let a = w.instance(i, sa);
                        let b = w.instance(j, sb);
                        assert_eq!(
                            a.covers(&b),
                            group_covers,
                            "{w}: instance covering ({i}@{sa} vs {j}@{sb}) diverges from groups"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn distinct_instances_stay_disjoint() {
        let w = SubWorkload::Distinct;
        for i in 0..10 {
            for j in 0..10 {
                if i != j {
                    assert!(!w.instance(i, MAX_SHIFT).overlaps(&w.instance(j, 0)));
                }
            }
        }
    }

    #[test]
    fn all_subscriptions_inside_advertised_space() {
        let adv = full_space_adv();
        for w in SubWorkload::SWEEP {
            for g in 0..10 {
                assert!(
                    adv.overlaps(&w.instance(g, MAX_SHIFT)),
                    "{w} group {g} outside advertised space"
                );
            }
        }
    }

    #[test]
    fn multiattr_pool_is_disjoint_two_attribute() {
        use transmob_pubsub::Publication;
        let w = SubWorkload::MultiAttr;
        let f = w.filters();
        assert!(hasse(&f).is_empty(), "multiattr groups must not cover");
        for (g, filter) in f.iter().enumerate() {
            let (lo, _) = w.group_ranges()[g];
            let y = g as i64 * Y_STRIDE;
            let inside = Publication::new().with(ATTR, lo).with(ATTR_Y, y + 100);
            let wrong_y = Publication::new()
                .with(ATTR, lo)
                .with(ATTR_Y, y + Y_WIDTH + 1);
            let no_y = Publication::new().with(ATTR, lo);
            assert!(filter.matches(&inside), "group {g} misses its own band");
            assert!(!filter.matches(&wrong_y), "group {g} ignores {ATTR_Y}");
            assert!(!filter.matches(&no_y), "group {g} matches without {ATTR_Y}");
        }
    }

    #[test]
    fn strprefix_pool_keys_on_tag_prefix() {
        use transmob_pubsub::Publication;
        let w = SubWorkload::StrPrefix;
        let f = w.filters();
        assert!(hasse(&f).is_empty(), "strprefix groups must not cover");
        for (g, filter) in f.iter().enumerate() {
            let (lo, _) = w.group_ranges()[g];
            let tagged = Publication::new()
                .with(ATTR, lo)
                .with(ATTR_TAG, format!("g{g}-extra"));
            let wrong_tag = Publication::new()
                .with(ATTR, lo)
                .with(ATTR_TAG, format!("h{g}"));
            assert!(filter.matches(&tagged), "group {g} misses its own tag");
            assert!(!filter.matches(&wrong_tag), "group {g} ignores the tag");
        }
    }

    #[test]
    fn new_pools_keep_instance_semantics() {
        for w in [SubWorkload::MultiAttr, SubWorkload::StrPrefix] {
            // Same-group instances stay incomparable under shift…
            let a = w.instance(3, 0);
            let b = w.instance(3, 37);
            assert!(
                !a.covers(&b) && !b.covers(&a),
                "{w}: shifted instances comparable"
            );
            assert!(a.overlaps(&b));
            // …and assignment is deterministic and unique.
            let set: std::collections::BTreeSet<String> =
                (0..200).map(|i| format!("{}", w.assign(i))).collect();
            assert_eq!(set.len(), 200, "{w}: assignment collides");
        }
    }

    #[test]
    fn assignment_is_unique_and_deterministic() {
        let w = SubWorkload::Covered;
        assert_eq!(w.assign(0), w.instance(0, 0));
        assert_eq!(w.assign(13), w.instance(3, 1));
        // 400 clients ⇒ 400 distinct instances.
        let set: std::collections::BTreeSet<String> =
            (0..400).map(|i| format!("{}", w.assign(i))).collect();
        assert_eq!(set.len(), 400);
        let r = SubWorkload::Random;
        assert_eq!(r.assign(5), r.assign(5));
    }
}
