//! The per-broker routing tables of the paper's Sec. 2: the
//! *Subscription Routing Table* (SRT, `{adv, lasthop}` pairs that route
//! subscriptions toward advertisers) and the *Publication Routing
//! Table* (PRT, `{sub, lasthop}` pairs that route publications toward
//! subscribers).
//!
//! To support the transactional reconfiguration protocol (Sec. 4.4 of
//! the paper), every entry can carry a *pending* routing configuration
//! tagged with the movement transaction id: the shadow copy `rc(adv′)`
//! that coexists with `rc(adv)` between prepare and commit. Publication
//! forwarding honours both the active and pending configurations during
//! that window (duplicates are suppressed per destination and, at the
//! client stub, by publication id).

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};
use transmob_pubsub::fasthash::FastMap;
use transmob_pubsub::{
    AdvId, Advertisement, Filter, MatchIndex, MoveId, Parallelism, Publication, SubId, Subscription,
};

use crate::messages::Hop;

/// Serializes struct-keyed maps as `(key, value)` pair sequences so
/// the routing state survives formats with string-only map keys
/// (JSON), per the Sec. 3.5 persistence sketch.
pub(crate) mod serde_pairs {
    use std::collections::BTreeMap;

    use serde::de::Deserializer;
    use serde::ser::Serializer;
    use serde::{Deserialize, Serialize};

    pub fn serialize<K, V, S>(map: &BTreeMap<K, V>, ser: S) -> Result<S::Ok, S::Error>
    where
        K: Serialize + Ord,
        V: Serialize,
        S: Serializer,
    {
        ser.collect_seq(map.iter())
    }

    pub fn deserialize<'de, K, V, D>(de: D) -> Result<BTreeMap<K, V>, D::Error>
    where
        K: Deserialize<'de> + Ord,
        V: Deserialize<'de>,
        D: Deserializer<'de>,
    {
        let pairs: Vec<(K, V)> = Vec::deserialize(de)?;
        Ok(pairs.into_iter().collect())
    }
}

/// A pending (shadow) routing configuration installed by an in-flight
/// movement transaction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PendingRoute {
    /// The movement transaction that installed this configuration.
    pub move_id: MoveId,
    /// The new lasthop the entry will have if the transaction commits.
    pub lasthop: Hop,
}

/// One SRT row: an advertisement, where it came from, and where it has
/// been forwarded.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdvEntry {
    /// The advertisement.
    pub adv: Advertisement,
    /// Neighbour (or local client) the advertisement arrived from
    /// first: the *primary* parent in this advertisement's routing
    /// tree.
    pub lasthop: Hop,
    /// On cyclic overlays (multipath mode): additional neighbours the
    /// same advertisement later arrived from. Each is a redundant
    /// route toward the advertiser; subscriptions are forwarded along
    /// these too, so publications reach this broker over every
    /// surviving path. Always empty on tree overlays.
    #[serde(default)]
    pub alt_lasthops: BTreeSet<transmob_pubsub::BrokerId>,
    /// Neighbours this broker forwarded the advertisement to.
    pub sent_to: BTreeSet<transmob_pubsub::BrokerId>,
    /// Shadow configuration installed by an in-flight movement.
    pub pending: Option<PendingRoute>,
}

/// One PRT row: a subscription, where it came from, and where it has
/// been forwarded.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubEntry {
    /// The subscription.
    pub sub: Subscription,
    /// Neighbour (or local client) the subscription arrived from
    /// first; this is the primary direction publications are forwarded
    /// in.
    pub lasthop: Hop,
    /// On cyclic overlays (multipath mode): additional neighbours the
    /// same subscription later arrived from. Publications matching the
    /// row are forwarded along these hops as well; the per-broker
    /// dedup window keeps delivery exactly-once. Always empty on tree
    /// overlays.
    #[serde(default)]
    pub alt_lasthops: BTreeSet<transmob_pubsub::BrokerId>,
    /// Neighbours this broker forwarded the subscription to.
    pub sent_to: BTreeSet<transmob_pubsub::BrokerId>,
    /// Shadow configuration installed by an in-flight movement.
    pub pending: Option<PendingRoute>,
}

/// The Subscription Routing Table.
///
/// Filter queries ([`Srt::overlapping`]) are served by an
/// attribute-indexed counting [`MatchIndex`] kept in sync with the
/// rows; the index is rebuilt from the rows on deserialization and
/// asserted against the linear-scan oracle in debug builds.
///
/// The mutable accessors ([`Srt::get_mut`], [`Srt::iter_mut`]) exist
/// for the `lasthop`/`sent_to`/`pending` bookkeeping of the broker
/// core; callers must not mutate an entry's *filter* through them, or
/// the index would go stale. Replacing a filter requires
/// remove-then-insert.
#[derive(Debug, Clone, Default)]
pub struct Srt {
    entries: BTreeMap<AdvId, AdvEntry>,
    index: MatchIndex<AdvId>,
}

impl PartialEq for Srt {
    fn eq(&self, other: &Self) -> bool {
        // The index is derived state; two tables are equal iff their
        // rows are.
        self.entries == other.entries
    }
}

impl Serialize for Srt {
    fn serialize<S: serde::ser::Serializer>(&self, ser: S) -> Result<S::Ok, S::Error> {
        serde_pairs::serialize(&self.entries, ser)
    }
}

impl<'de> Deserialize<'de> for Srt {
    fn deserialize<D: serde::de::Deserializer<'de>>(de: D) -> Result<Self, D::Error> {
        Srt::from_pairs(Vec::deserialize(de)?).map_err(serde::de::Error::custom)
    }
}

impl Srt {
    /// Creates an empty table.
    pub fn new() -> Self {
        Srt::default()
    }

    /// Reconfigures the match index's sharding / worker pool (answers
    /// are identical under every configuration).
    pub fn set_parallelism(&mut self, par: Parallelism) {
        self.index.set_parallelism(par);
    }

    /// The match index's current sharding configuration.
    pub fn parallelism(&self) -> Parallelism {
        self.index.parallelism()
    }

    /// Rebuilds a table (and its match index) from persisted rows.
    ///
    /// Ids are bound to immutable filters (the same invariant the live
    /// insert path enforces), so a persisted snapshot carrying one id
    /// twice with *conflicting* filters is corrupt and is rejected
    /// rather than silently resolved last-writer-wins. Byte-identical
    /// duplicate rows are tolerated (first wins), mirroring the
    /// idempotent duplicate suppression of [`Srt::insert`].
    fn from_pairs(pairs: Vec<(AdvId, AdvEntry)>) -> Result<Self, String> {
        let mut entries: BTreeMap<AdvId, AdvEntry> = BTreeMap::new();
        for (id, e) in pairs {
            match entries.entry(id) {
                Entry::Occupied(existing) => {
                    if *existing.get() != e {
                        return Err(format!(
                            "SRT snapshot carries advertisement {id} twice with \
                             conflicting rows"
                        ));
                    }
                }
                Entry::Vacant(v) => {
                    v.insert(e);
                }
            }
        }
        let mut index = MatchIndex::new();
        for (id, e) in &entries {
            index.insert(*id, &e.adv.filter);
        }
        Ok(Srt { entries, index })
    }

    /// Inserts an advertisement arriving from `lasthop`. Returns `false`
    /// (leaving the row untouched) if the id is already present.
    ///
    /// A re-insert with the *same* filter is the normal idempotent
    /// duplicate-suppression path. A re-insert with a *different*
    /// filter under the same id is a protocol violation (ids are bound
    /// to immutable filters); it is reported — loudly in debug builds —
    /// and the original row is kept.
    pub fn insert(&mut self, adv: Advertisement, lasthop: Hop) -> bool {
        match self.entries.entry(adv.id) {
            Entry::Occupied(existing) => {
                if existing.get().adv.filter != adv.filter {
                    debug_assert!(
                        false,
                        "advertisement {} re-inserted with a different filter \
                         (kept {}, ignored {})",
                        adv.id,
                        existing.get().adv.filter,
                        adv.filter
                    );
                    eprintln!(
                        "transmob-broker: ignoring re-advertisement of {} with a \
                         different filter; the original row is kept",
                        adv.id
                    );
                }
                false
            }
            Entry::Vacant(v) => {
                self.index.insert(adv.id, &adv.filter);
                v.insert(AdvEntry {
                    adv,
                    lasthop,
                    alt_lasthops: BTreeSet::new(),
                    sent_to: BTreeSet::new(),
                    pending: None,
                });
                true
            }
        }
    }

    /// Removes an advertisement, returning its row.
    pub fn remove(&mut self, id: AdvId) -> Option<AdvEntry> {
        let row = self.entries.remove(&id);
        if row.is_some() {
            self.index.remove(&id);
        }
        row
    }

    /// Looks up a row.
    pub fn get(&self, id: AdvId) -> Option<&AdvEntry> {
        self.entries.get(&id)
    }

    /// Looks up a row mutably (for hop bookkeeping — never mutate the
    /// filter; see the type docs).
    pub fn get_mut(&mut self, id: AdvId) -> Option<&mut AdvEntry> {
        self.entries.get_mut(&id)
    }

    /// Iterates all rows.
    pub fn iter(&self) -> impl Iterator<Item = (&AdvId, &AdvEntry)> {
        self.entries.iter()
    }

    /// Iterates all rows mutably (for hop bookkeeping — never mutate
    /// the filter; see the type docs).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&AdvId, &mut AdvEntry)> {
        self.entries.iter_mut()
    }

    /// Ids of advertisements whose filter overlaps `filter`
    /// (the subscription-routing test). Served by the counting index.
    pub fn overlapping(&self, filter: &Filter) -> Vec<AdvId> {
        let out = self.index.overlapping(filter);
        debug_assert_eq!(
            out,
            self.overlapping_linear(filter),
            "match index diverged from the linear overlap scan"
        );
        out
    }

    /// Reference implementation of [`Srt::overlapping`]: the full
    /// linear scan. Kept as the differential oracle for the index (and
    /// as the benchmark baseline).
    pub fn overlapping_linear(&self, filter: &Filter) -> Vec<AdvId> {
        self.entries
            .iter()
            .filter(|(_, e)| e.adv.filter.overlaps(filter))
            .map(|(id, _)| *id)
            .collect()
    }

    /// Overlap query joined with the routing hops the broker needs:
    /// for every overlapping row, its id, active lasthop, and pending
    /// (shadow) lasthop if a movement transaction is in flight. This
    /// is the one API the broker core routes subscriptions through, so
    /// active and pending configurations are considered in one place.
    pub fn overlapping_routes(&self, filter: &Filter) -> Vec<(AdvId, Hop, Option<Hop>)> {
        self.overlapping(filter)
            .into_iter()
            .map(|id| {
                // unwrap: the index never returns ids without a row
                let e = &self.entries[&id];
                (id, e.lasthop, e.pending.as_ref().map(|p| p.lasthop))
            })
            .collect()
    }

    /// Ids of advertisements whose filter *covers* `filter` (the
    /// advertisement-quench test). Served by the dual-endpoint
    /// containment structure of the counting index.
    pub fn covering(&self, filter: &Filter) -> Vec<AdvId> {
        let out = self.index.covering(filter);
        debug_assert_eq!(
            out,
            self.covering_linear(filter),
            "match index diverged from the linear covering scan"
        );
        out
    }

    /// Reference implementation of [`Srt::covering`]: the full linear
    /// scan. Kept as the differential oracle for the index (and as the
    /// benchmark baseline).
    pub fn covering_linear(&self, filter: &Filter) -> Vec<AdvId> {
        self.entries
            .iter()
            .filter(|(_, e)| e.adv.filter.covers(filter))
            .map(|(id, _)| *id)
            .collect()
    }

    /// Ids of advertisements `filter` covers (the active-retraction /
    /// covering-release candidate set). Served by the dual-endpoint
    /// containment structure of the counting index.
    pub fn covered_by(&self, filter: &Filter) -> Vec<AdvId> {
        let out = self.index.covered_by(filter);
        debug_assert_eq!(
            out,
            self.covered_by_linear(filter),
            "match index diverged from the linear covered-by scan"
        );
        out
    }

    /// Reference implementation of [`Srt::covered_by`]: the full
    /// linear scan.
    pub fn covered_by_linear(&self, filter: &Filter) -> Vec<AdvId> {
        self.entries
            .iter()
            .filter(|(_, e)| filter.covers(&e.adv.filter))
            .map(|(id, _)| *id)
            .collect()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Ids of rows with a pending configuration for `move_id`.
    pub fn pending_for(&self, move_id: MoveId) -> Vec<AdvId> {
        self.entries
            .iter()
            .filter(|(_, e)| e.pending.as_ref().is_some_and(|p| p.move_id == move_id))
            .map(|(id, _)| *id)
            .collect()
    }
}

/// The Publication Routing Table.
///
/// Publication matching ([`Prt::matching`]) and filter overlap
/// ([`Prt::overlapping`]) are served by an attribute-indexed counting
/// [`MatchIndex`] kept in sync with the rows; the index is rebuilt
/// from the rows on deserialization and asserted against the
/// linear-scan oracle in debug builds.
///
/// As with [`Srt`], the mutable accessors are for hop bookkeeping
/// only — never mutate an entry's filter through them.
#[derive(Debug, Clone, Default)]
pub struct Prt {
    entries: BTreeMap<SubId, SubEntry>,
    index: MatchIndex<SubId>,
    /// Routing-state version: bumped by every mutable access that
    /// could change what [`Prt::matching_routes_batch`] answers (row
    /// churn *and* hop/pending bookkeeping through the mutable
    /// accessors, counted conservatively). The pipelined broker loops
    /// stamp pre-computed routes with this and discard them if the
    /// table has moved on ([`Prt::routing_version`]).
    version: u64,
}

impl PartialEq for Prt {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}

impl Serialize for Prt {
    fn serialize<S: serde::ser::Serializer>(&self, ser: S) -> Result<S::Ok, S::Error> {
        serde_pairs::serialize(&self.entries, ser)
    }
}

impl<'de> Deserialize<'de> for Prt {
    fn deserialize<D: serde::de::Deserializer<'de>>(de: D) -> Result<Self, D::Error> {
        Prt::from_pairs(Vec::deserialize(de)?).map_err(serde::de::Error::custom)
    }
}

impl Prt {
    /// Creates an empty table.
    pub fn new() -> Self {
        Prt::default()
    }

    /// Reconfigures the match index's sharding / worker pool (answers
    /// are identical under every configuration).
    pub fn set_parallelism(&mut self, par: Parallelism) {
        self.index.set_parallelism(par);
    }

    /// The match index's current sharding configuration.
    pub fn parallelism(&self) -> Parallelism {
        self.index.parallelism()
    }

    /// Rebuilds a table (and its match index) from persisted rows.
    ///
    /// Same contract as [`Srt::from_pairs`]: one id appearing twice
    /// with conflicting rows marks the snapshot corrupt and is
    /// rejected; byte-identical duplicates are tolerated (first wins).
    fn from_pairs(pairs: Vec<(SubId, SubEntry)>) -> Result<Self, String> {
        let mut entries: BTreeMap<SubId, SubEntry> = BTreeMap::new();
        for (id, e) in pairs {
            match entries.entry(id) {
                Entry::Occupied(existing) => {
                    if *existing.get() != e {
                        return Err(format!(
                            "PRT snapshot carries subscription {id} twice with \
                             conflicting rows"
                        ));
                    }
                }
                Entry::Vacant(v) => {
                    v.insert(e);
                }
            }
        }
        let mut index = MatchIndex::new();
        for (id, e) in &entries {
            index.insert(*id, &e.sub.filter);
        }
        Ok(Prt {
            entries,
            index,
            version: 0,
        })
    }

    /// Inserts a subscription arriving from `lasthop`. Returns `false`
    /// (leaving the row untouched) if the id is already present.
    ///
    /// Same contract as [`Srt::insert`]: equal-filter re-inserts are
    /// silent duplicate suppression, differing-filter re-inserts are a
    /// reported protocol violation and the original row is kept.
    pub fn insert(&mut self, sub: Subscription, lasthop: Hop) -> bool {
        self.version = self.version.wrapping_add(1);
        match self.entries.entry(sub.id) {
            Entry::Occupied(existing) => {
                if existing.get().sub.filter != sub.filter {
                    debug_assert!(
                        false,
                        "subscription {} re-inserted with a different filter \
                         (kept {}, ignored {})",
                        sub.id,
                        existing.get().sub.filter,
                        sub.filter
                    );
                    eprintln!(
                        "transmob-broker: ignoring re-subscription of {} with a \
                         different filter; the original row is kept",
                        sub.id
                    );
                }
                false
            }
            Entry::Vacant(v) => {
                self.index.insert(sub.id, &sub.filter);
                v.insert(SubEntry {
                    sub,
                    lasthop,
                    alt_lasthops: BTreeSet::new(),
                    sent_to: BTreeSet::new(),
                    pending: None,
                });
                true
            }
        }
    }

    /// Removes a subscription, returning its row.
    pub fn remove(&mut self, id: SubId) -> Option<SubEntry> {
        self.version = self.version.wrapping_add(1);
        let row = self.entries.remove(&id);
        if row.is_some() {
            self.index.remove(&id);
        }
        row
    }

    /// Looks up a row.
    pub fn get(&self, id: SubId) -> Option<&SubEntry> {
        self.entries.get(&id)
    }

    /// Looks up a row mutably (for hop bookkeeping — never mutate the
    /// filter; see the type docs).
    pub fn get_mut(&mut self, id: SubId) -> Option<&mut SubEntry> {
        self.version = self.version.wrapping_add(1);
        self.entries.get_mut(&id)
    }

    /// Iterates all rows.
    pub fn iter(&self) -> impl Iterator<Item = (&SubId, &SubEntry)> {
        self.entries.iter()
    }

    /// Iterates all rows mutably (for hop bookkeeping — never mutate
    /// the filter; see the type docs).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&SubId, &mut SubEntry)> {
        self.version = self.version.wrapping_add(1);
        self.entries.iter_mut()
    }

    /// The routing-state version stamp (see the `version` field): two
    /// equal stamps from the same table guarantee
    /// [`Prt::matching_routes_batch`] would answer identically.
    pub fn routing_version(&self) -> u64 {
        self.version
    }

    /// Ids of subscriptions whose filter matches `publication`
    /// (the publication-forwarding test). Served by the counting index.
    pub fn matching(&self, publication: &Publication) -> Vec<SubId> {
        let out = self.index.matching(publication);
        debug_assert_eq!(
            out,
            self.matching_linear(publication),
            "match index diverged from the linear matching scan"
        );
        out
    }

    /// Reference implementation of [`Prt::matching`]: the full linear
    /// scan. Kept as the differential oracle for the index (and as the
    /// benchmark baseline).
    pub fn matching_linear(&self, publication: &Publication) -> Vec<SubId> {
        self.entries
            .iter()
            .filter(|(_, e)| e.sub.filter.matches(publication))
            .map(|(id, _)| *id)
            .collect()
    }

    /// Matching query joined with the routing hops the broker needs:
    /// for every matching row, its id, active lasthop, and pending
    /// (shadow) lasthop if a movement transaction is in flight. This
    /// is the one API publication forwarding goes through, so the
    /// prepare–commit window (where both configurations must receive
    /// traffic) is honoured in one place.
    pub fn matching_routes(&self, publication: &Publication) -> Vec<(SubId, Hop, Option<Hop>)> {
        self.matching(publication)
            .into_iter()
            .map(|id| {
                // unwrap: the index never returns ids without a row
                let e = &self.entries[&id];
                (id, e.lasthop, e.pending.as_ref().map(|p| p.lasthop))
            })
            .collect()
    }

    /// [`Prt::matching`] for every publication of a batch, in batch
    /// order. Served by the counting index
    /// ([`MatchIndex::matching_batch`]); asserted against the linear
    /// scan in debug builds.
    pub fn matching_batch(&self, publications: &[Publication]) -> Vec<Vec<SubId>> {
        let out = self.index.matching_batch(publications);
        #[cfg(debug_assertions)]
        for (i, p) in publications.iter().enumerate() {
            debug_assert_eq!(
                out[i],
                self.matching_linear(p),
                "batch match index diverged from the linear matching scan"
            );
        }
        out
    }

    /// [`Prt::matching_routes`] for every publication of a batch, in
    /// batch order: the batch match joined with the active and pending
    /// lasthops publication forwarding needs.
    ///
    /// Matching ids repeat heavily across a batch (hot subscriptions
    /// match most publications), so the row lookup is cached per
    /// distinct id: one tree walk per distinct subscription, a hash
    /// probe per repeat.
    pub fn matching_routes_batch(
        &self,
        publications: &[Publication],
    ) -> Vec<Vec<(SubId, Hop, Option<Hop>)>> {
        let mut routes: FastMap<SubId, (Hop, Option<Hop>)> = FastMap::default();
        self.matching_batch(publications)
            .into_iter()
            .map(|ids| {
                ids.into_iter()
                    .map(|id| {
                        let (lasthop, pending) = *routes.entry(id).or_insert_with(|| {
                            // unwrap: the index never returns ids
                            // without a row
                            let e = &self.entries[&id];
                            (e.lasthop, e.pending.as_ref().map(|p| p.lasthop))
                        });
                        (id, lasthop, pending)
                    })
                    .collect()
            })
            .collect()
    }

    /// Ids of subscriptions whose filter overlaps `filter`. Served by
    /// the counting index.
    pub fn overlapping(&self, filter: &Filter) -> Vec<SubId> {
        let out = self.index.overlapping(filter);
        debug_assert_eq!(
            out,
            self.overlapping_linear(filter),
            "match index diverged from the linear overlap scan"
        );
        out
    }

    /// Reference implementation of [`Prt::overlapping`]: the full
    /// linear scan.
    pub fn overlapping_linear(&self, filter: &Filter) -> Vec<SubId> {
        self.entries
            .iter()
            .filter(|(_, e)| e.sub.filter.overlaps(filter))
            .map(|(id, _)| *id)
            .collect()
    }

    /// Ids of subscriptions whose filter *covers* `filter` (the
    /// subscription-quench test). Served by the dual-endpoint
    /// containment structure of the counting index.
    pub fn covering(&self, filter: &Filter) -> Vec<SubId> {
        let out = self.index.covering(filter);
        debug_assert_eq!(
            out,
            self.covering_linear(filter),
            "match index diverged from the linear covering scan"
        );
        out
    }

    /// Reference implementation of [`Prt::covering`]: the full linear
    /// scan. Kept as the differential oracle for the index (and as the
    /// benchmark baseline).
    pub fn covering_linear(&self, filter: &Filter) -> Vec<SubId> {
        self.entries
            .iter()
            .filter(|(_, e)| e.sub.filter.covers(filter))
            .map(|(id, _)| *id)
            .collect()
    }

    /// Ids of subscriptions `filter` covers (the active-retraction /
    /// covering-release candidate set that dominates the paper's
    /// mobility unsubscribe bursts). Served by the dual-endpoint
    /// containment structure of the counting index.
    pub fn covered_by(&self, filter: &Filter) -> Vec<SubId> {
        let out = self.index.covered_by(filter);
        debug_assert_eq!(
            out,
            self.covered_by_linear(filter),
            "match index diverged from the linear covered-by scan"
        );
        out
    }

    /// Reference implementation of [`Prt::covered_by`]: the full
    /// linear scan.
    pub fn covered_by_linear(&self, filter: &Filter) -> Vec<SubId> {
        self.entries
            .iter()
            .filter(|(_, e)| filter.covers(&e.sub.filter))
            .map(|(id, _)| *id)
            .collect()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Ids of rows with a pending configuration for `move_id`.
    pub fn pending_for(&self, move_id: MoveId) -> Vec<SubId> {
        self.entries
            .iter()
            .filter(|(_, e)| e.pending.as_ref().is_some_and(|p| p.move_id == move_id))
            .map(|(id, _)| *id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transmob_pubsub::{BrokerId, ClientId, Filter};

    fn sub(c: u64, seq: u32, lo: i64, hi: i64) -> Subscription {
        Subscription::new(
            SubId::new(ClientId(c), seq),
            Filter::builder().ge("x", lo).le("x", hi).build(),
        )
    }

    fn adv(c: u64, seq: u32, lo: i64, hi: i64) -> Advertisement {
        Advertisement::new(
            AdvId::new(ClientId(c), seq),
            Filter::builder().ge("x", lo).le("x", hi).build(),
        )
    }

    #[test]
    fn srt_insert_and_duplicate() {
        let mut srt = Srt::new();
        let a = adv(1, 0, 0, 10);
        assert!(srt.insert(a.clone(), Hop::Client(ClientId(1))));
        assert!(!srt.insert(a.clone(), Hop::Broker(BrokerId(2))));
        // first insert wins
        assert_eq!(srt.get(a.id).unwrap().lasthop, Hop::Client(ClientId(1)));
        assert_eq!(srt.len(), 1);
    }

    #[test]
    fn srt_overlapping_query() {
        let mut srt = Srt::new();
        srt.insert(adv(1, 0, 0, 10), Hop::Broker(BrokerId(2)));
        srt.insert(adv(1, 1, 50, 60), Hop::Broker(BrokerId(3)));
        let f = Filter::builder().ge("x", 5).le("x", 8).build();
        let hits = srt.overlapping(&f);
        assert_eq!(hits, vec![AdvId::new(ClientId(1), 0)]);
    }

    #[test]
    fn prt_matching_query() {
        let mut prt = Prt::new();
        prt.insert(sub(1, 0, 0, 10), Hop::Client(ClientId(1)));
        prt.insert(sub(2, 0, 5, 20), Hop::Broker(BrokerId(4)));
        let p = Publication::new().with("x", 7);
        let hits = prt.matching(&p);
        assert_eq!(hits.len(), 2);
        let p2 = Publication::new().with("x", 15);
        assert_eq!(prt.matching(&p2), vec![SubId::new(ClientId(2), 0)]);
    }

    #[test]
    fn remove_returns_row() {
        let mut prt = Prt::new();
        let s = sub(1, 0, 0, 10);
        prt.insert(s.clone(), Hop::Client(ClientId(1)));
        let row = prt.remove(s.id).unwrap();
        assert_eq!(row.lasthop, Hop::Client(ClientId(1)));
        assert!(prt.remove(s.id).is_none());
        assert!(prt.is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "different filter")]
    fn srt_reinsert_with_different_filter_is_detected() {
        let mut srt = Srt::new();
        srt.insert(adv(1, 0, 0, 10), Hop::Client(ClientId(1)));
        srt.insert(adv(1, 0, 5, 25), Hop::Client(ClientId(1)));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "different filter")]
    fn prt_reinsert_with_different_filter_is_detected() {
        let mut prt = Prt::new();
        prt.insert(sub(1, 0, 0, 10), Hop::Client(ClientId(1)));
        prt.insert(sub(1, 0, 5, 25), Hop::Client(ClientId(1)));
    }

    #[test]
    fn matching_routes_exposes_active_and_pending_hops() {
        let mut prt = Prt::new();
        let s1 = sub(1, 0, 0, 10);
        let s2 = sub(2, 0, 5, 20);
        prt.insert(s1.clone(), Hop::Client(ClientId(1)));
        prt.insert(s2.clone(), Hop::Broker(BrokerId(4)));
        prt.get_mut(s1.id).unwrap().pending = Some(PendingRoute {
            move_id: MoveId(3),
            lasthop: Hop::Broker(BrokerId(7)),
        });
        let routes = prt.matching_routes(&Publication::new().with("x", 7));
        assert_eq!(
            routes,
            vec![
                (
                    s1.id,
                    Hop::Client(ClientId(1)),
                    Some(Hop::Broker(BrokerId(7)))
                ),
                (s2.id, Hop::Broker(BrokerId(4)), None),
            ]
        );
    }

    #[test]
    fn batch_matching_routes_agree_with_per_publication_routes() {
        let mut prt = Prt::new();
        let s1 = sub(1, 0, 0, 10);
        let s2 = sub(2, 0, 5, 20);
        prt.insert(s1.clone(), Hop::Client(ClientId(1)));
        prt.insert(s2.clone(), Hop::Broker(BrokerId(4)));
        prt.get_mut(s1.id).unwrap().pending = Some(PendingRoute {
            move_id: MoveId(3),
            lasthop: Hop::Broker(BrokerId(7)),
        });
        let batch: Vec<Publication> = [7i64, 15, 40, 0]
            .into_iter()
            .map(|x| Publication::new().with("x", x))
            .collect();
        let got = prt.matching_routes_batch(&batch);
        assert_eq!(got.len(), batch.len());
        for (i, p) in batch.iter().enumerate() {
            assert_eq!(got[i], prt.matching_routes(p), "probe {i}");
        }
    }

    #[test]
    fn tables_survive_serde_round_trip_with_live_index() {
        let mut prt = Prt::new();
        prt.insert(sub(1, 0, 0, 10), Hop::Client(ClientId(1)));
        prt.insert(sub(2, 0, 5, 20), Hop::Broker(BrokerId(4)));
        let mut srt = Srt::new();
        srt.insert(adv(1, 0, 0, 10), Hop::Broker(BrokerId(2)));
        let prt2: Prt = serde_json::from_str(&serde_json::to_string(&prt).unwrap()).unwrap();
        let srt2: Srt = serde_json::from_str(&serde_json::to_string(&srt).unwrap()).unwrap();
        assert_eq!(prt, prt2);
        assert_eq!(srt, srt2);
        // The rebuilt indexes answer queries (the debug oracle inside
        // matching/overlapping cross-checks them against the scan).
        let p = Publication::new().with("x", 7);
        assert_eq!(prt2.matching(&p), prt.matching(&p));
        let f = Filter::builder().ge("x", 5).le("x", 8).build();
        assert_eq!(srt2.overlapping(&f), srt.overlapping(&f));
    }

    #[test]
    fn index_tracks_churn() {
        let mut prt = Prt::new();
        let s = sub(1, 0, 0, 10);
        let p = Publication::new().with("x", 5);
        prt.insert(s.clone(), Hop::Client(ClientId(1)));
        assert_eq!(prt.matching(&p), vec![s.id]);
        prt.remove(s.id);
        assert!(prt.matching(&p).is_empty());
        // Re-insert after removal with a *different* filter is legal
        // (the id is free again).
        let s2 = Subscription::new(
            SubId::new(ClientId(1), 0),
            Filter::builder().ge("x", 100).build(),
        );
        prt.insert(s2.clone(), Hop::Client(ClientId(1)));
        assert!(prt.matching(&p).is_empty());
        assert_eq!(
            prt.matching(&Publication::new().with("x", 150)),
            vec![s2.id]
        );
    }

    #[test]
    fn covering_and_covered_by_queries() {
        let mut prt = Prt::new();
        let root = sub(1, 0, 0, 100);
        let leaf = sub(2, 0, 10, 20);
        let outside = sub(3, 0, 500, 600);
        prt.insert(root.clone(), Hop::Client(ClientId(1)));
        prt.insert(leaf.clone(), Hop::Client(ClientId(2)));
        prt.insert(outside.clone(), Hop::Client(ClientId(3)));
        // Who covers the leaf? The root and the leaf itself.
        assert_eq!(prt.covering(&leaf.filter), vec![root.id, leaf.id]);
        // Whom does the root cover? Itself and the leaf.
        assert_eq!(prt.covered_by(&root.filter), vec![root.id, leaf.id]);
        let mut srt = Srt::new();
        srt.insert(adv(1, 0, 0, 100), Hop::Broker(BrokerId(2)));
        srt.insert(adv(2, 0, 10, 20), Hop::Broker(BrokerId(3)));
        assert_eq!(
            srt.covering(&Filter::builder().ge("x", 10).le("x", 20).build()),
            vec![AdvId::new(ClientId(1), 0), AdvId::new(ClientId(2), 0)]
        );
        assert_eq!(
            srt.covered_by(&Filter::builder().ge("x", 5).le("x", 25).build()),
            vec![AdvId::new(ClientId(2), 0)]
        );
    }

    #[test]
    fn deserialize_rejects_conflicting_duplicate_ids() {
        // A snapshot carrying one id twice with different filters must
        // not load last-writer-wins: the rebuild path rejects it.
        let mk = |lo: i64, hi: i64| SubEntry {
            sub: sub(1, 0, lo, hi),
            lasthop: Hop::Client(ClientId(1)),
            alt_lasthops: BTreeSet::new(),
            sent_to: BTreeSet::new(),
            pending: None,
        };
        let conflicting = vec![
            (SubId::new(ClientId(1), 0), mk(0, 10)),
            (SubId::new(ClientId(1), 0), mk(5, 25)),
        ];
        let json = serde_json::to_string(&conflicting).unwrap();
        let err = serde_json::from_str::<Prt>(&json).unwrap_err();
        assert!(err.to_string().contains("conflicting"), "err: {err}");
        // Byte-identical duplicates are the idempotent case: tolerated.
        let duplicated = vec![
            (SubId::new(ClientId(1), 0), mk(0, 10)),
            (SubId::new(ClientId(1), 0), mk(0, 10)),
        ];
        let json = serde_json::to_string(&duplicated).unwrap();
        let prt: Prt = serde_json::from_str(&json).unwrap();
        assert_eq!(prt.len(), 1);

        let mk_adv = |lo: i64, hi: i64| AdvEntry {
            adv: adv(1, 0, lo, hi),
            lasthop: Hop::Broker(BrokerId(2)),
            alt_lasthops: BTreeSet::new(),
            sent_to: BTreeSet::new(),
            pending: None,
        };
        let conflicting = vec![
            (AdvId::new(ClientId(1), 0), mk_adv(0, 10)),
            (AdvId::new(ClientId(1), 0), mk_adv(5, 25)),
        ];
        let json = serde_json::to_string(&conflicting).unwrap();
        let err = serde_json::from_str::<Srt>(&json).unwrap_err();
        assert!(err.to_string().contains("conflicting"), "err: {err}");
    }

    #[test]
    fn pending_for_finds_tagged_rows() {
        let mut prt = Prt::new();
        let s1 = sub(1, 0, 0, 10);
        let s2 = sub(2, 0, 0, 10);
        prt.insert(s1.clone(), Hop::Client(ClientId(1)));
        prt.insert(s2.clone(), Hop::Client(ClientId(2)));
        prt.get_mut(s1.id).unwrap().pending = Some(PendingRoute {
            move_id: MoveId(9),
            lasthop: Hop::Broker(BrokerId(3)),
        });
        assert_eq!(prt.pending_for(MoveId(9)), vec![s1.id]);
        assert!(prt.pending_for(MoveId(8)).is_empty());
    }
}
