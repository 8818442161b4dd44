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
//!
//! Both tables are one type, [`Table`], over what they route
//! ([`Routed`]): the rows, their dense row numbers, the match index
//! keyed by row number, and every write and filter query are written
//! once. The tables differ only in what they keep beside the rows
//! ([`Routed::Column`]). Every publication on every broker of its path
//! asks the PRT "where does this go", so the PRT keeps a *forwarding
//! column* ([`Forwarding`]) of hops per row number: a publication is
//! resolved to its [`Destinations`] by folding the matching row
//! numbers through the column, without listing the rows or walking the
//! row map (DESIGN.md §7, "From match to destinations"). The SRT is
//! only consulted on the control path and keeps nothing beside.

use std::collections::{btree_map, hash_map};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::ControlFlow;

use serde::de::{DeserializeOwned, Deserializer};
use serde::ser::Serializer;
use serde::{Deserialize, Serialize};
use transmob_pubsub::fasthash::FastMap;
use transmob_pubsub::{
    AdvId, Advertisement, BrokerId, ClientId, Filter, MatchIndex, MoveId, Publication, SubId,
    Subscription,
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

/// What a routing table routes: advertisements (the SRT) or
/// subscriptions (the PRT). Ids are bound to immutable filters.
pub trait Routed: Clone + PartialEq + fmt::Debug + Serialize + DeserializeOwned {
    /// The item's id: the table's key.
    type Id: Copy + Ord + fmt::Debug + fmt::Display + Serialize + DeserializeOwned;
    /// What the table keeps per row number beside its rows.
    type Column: Column<Self>;
    /// The key the item is persisted under in its row: `"adv"` or
    /// `"sub"`.
    const KEY: &'static str;
    /// What the item is called in reports.
    const NOUN: &'static str;
    /// The item's id.
    fn id(&self) -> Self::Id;
    /// The item's filter.
    fn filter(&self) -> &Filter;
}

impl Routed for Advertisement {
    type Id = AdvId;
    type Column = ();
    const KEY: &'static str = "adv";
    const NOUN: &'static str = "advertisement";
    fn id(&self) -> AdvId {
        self.id
    }
    fn filter(&self) -> &Filter {
        &self.filter
    }
}

impl Routed for Subscription {
    type Id = SubId;
    type Column = Forwarding;
    const KEY: &'static str = "sub";
    const NOUN: &'static str = "subscription";
    fn id(&self) -> SubId {
        self.id
    }
    fn filter(&self) -> &Filter {
        &self.filter
    }
}

/// One routing-table row: an advertisement (SRT) or a subscription
/// (PRT), where it came from, and where it has been forwarded.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry<T> {
    /// The advertisement or subscription.
    pub item: T,
    /// Neighbour (or local client) the item arrived from first: the
    /// *primary* direction toward the advertiser (SRT), the one
    /// publications are forwarded in (PRT).
    pub lasthop: Hop,
    /// On cyclic overlays (multipath mode): additional neighbours the
    /// same item later arrived from. Each is a redundant route:
    /// subscriptions are forwarded along an advertisement's, and
    /// publications along a subscription's, so traffic follows every
    /// surviving path (the per-broker dedup window keeps delivery
    /// exactly-once). Always empty on tree overlays.
    pub alt_lasthops: HopSet,
    /// Neighbours this broker forwarded the item to.
    pub sent_to: HopSet,
    /// Shadow configuration installed by an in-flight movement.
    pub pending: Option<PendingRoute>,
}

/// How many brokers a [`HopSet`] holds without a heap allocation.
const INLINE_HOPS: usize = 5;

/// A sorted set of neighbours: a row's forwarding set (`sent_to`) or
/// its redundant routes (`alt_lasthops`). Up to five brokers sit in the
/// set itself, which is the size of an empty `BTreeSet`; a row names
/// none or one on a tree and a few on the cyclic overlays, so a row
/// allocates nothing for its hops. A larger set is one boxed slice. It
/// offers the `BTreeSet` methods the broker calls and persists as a
/// `BTreeSet` does: a sorted sequence (DESIGN.md §18).
#[derive(Clone)]
pub struct HopSet(Hops);

/// Inline exactly when the set fits: a spilled set that shrinks to
/// [`INLINE_HOPS`] moves back.
#[derive(Clone)]
enum Hops {
    Inline(u8, [BrokerId; INLINE_HOPS]),
    Spilled(Box<[BrokerId]>),
}

impl Default for HopSet {
    fn default() -> Self {
        HopSet(Hops::Inline(0, [BrokerId(0); INLINE_HOPS]))
    }
}

impl HopSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The set of `ids`, which are sorted and distinct.
    fn from_sorted(ids: Vec<BrokerId>) -> Self {
        if ids.len() > INLINE_HOPS {
            return HopSet(Hops::Spilled(ids.into_boxed_slice()));
        }
        let mut inline = [BrokerId(0); INLINE_HOPS];
        inline[..ids.len()].copy_from_slice(&ids);
        HopSet(Hops::Inline(ids.len() as u8, inline))
    }

    /// The brokers, in order.
    fn as_slice(&self) -> &[BrokerId] {
        match &self.0 {
            Hops::Inline(len, ids) => &ids[..*len as usize],
            Hops::Spilled(ids) => ids,
        }
    }

    /// Number of brokers.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Whether `b` is in the set.
    pub fn contains(&self, b: &BrokerId) -> bool {
        self.as_slice().binary_search(b).is_ok()
    }

    /// The brokers, in order.
    pub fn iter(&self) -> std::slice::Iter<'_, BrokerId> {
        self.as_slice().iter()
    }

    /// The lowest broker.
    pub fn first(&self) -> Option<&BrokerId> {
        self.as_slice().first()
    }

    /// Adds `b`, reporting whether it was new.
    pub fn insert(&mut self, b: BrokerId) -> bool {
        let Err(at) = self.as_slice().binary_search(&b) else {
            return false;
        };
        match &mut self.0 {
            Hops::Inline(len, ids) if (*len as usize) < INLINE_HOPS => {
                ids.copy_within(at..*len as usize, at + 1);
                ids[at] = b;
                *len += 1;
            }
            _ => {
                let old = self.as_slice();
                let mut ids = Vec::with_capacity(old.len() + 1);
                ids.extend_from_slice(&old[..at]);
                ids.push(b);
                ids.extend_from_slice(&old[at..]);
                *self = HopSet::from_sorted(ids);
            }
        }
        true
    }

    /// Removes `b`, reporting whether it was there.
    pub fn remove(&mut self, b: &BrokerId) -> bool {
        let Ok(at) = self.as_slice().binary_search(b) else {
            return false;
        };
        match &mut self.0 {
            Hops::Inline(len, ids) => {
                ids.copy_within(at + 1..*len as usize, at);
                *len -= 1;
            }
            Hops::Spilled(old) => {
                let mut ids = Vec::with_capacity(old.len() - 1);
                ids.extend_from_slice(&old[..at]);
                ids.extend_from_slice(&old[at + 1..]);
                *self = HopSet::from_sorted(ids);
            }
        }
        true
    }

    /// Removes and returns the lowest broker.
    pub fn pop_first(&mut self) -> Option<BrokerId> {
        let first = *self.first()?;
        self.remove(&first);
        Some(first)
    }

    /// Empties the set.
    pub fn clear(&mut self) {
        *self = HopSet::new();
    }
}

impl PartialEq for HopSet {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for HopSet {}

impl fmt::Debug for HopSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a HopSet {
    type Item = &'a BrokerId;
    type IntoIter = std::slice::Iter<'a, BrokerId>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl Extend<BrokerId> for HopSet {
    fn extend<I: IntoIterator<Item = BrokerId>>(&mut self, iter: I) {
        for b in iter {
            self.insert(b);
        }
    }
}

impl FromIterator<BrokerId> for HopSet {
    fn from_iter<I: IntoIterator<Item = BrokerId>>(iter: I) -> Self {
        let mut ids: Vec<BrokerId> = iter.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        HopSet::from_sorted(ids)
    }
}

impl Serialize for HopSet {
    fn serialize<S: Serializer>(&self, ser: S) -> Result<S::Ok, S::Error> {
        ser.collect_seq(self.iter())
    }
}

impl<'de> Deserialize<'de> for HopSet {
    fn deserialize<D: Deserializer<'de>>(de: D) -> Result<Self, D::Error> {
        Ok(Vec::<BrokerId>::deserialize(de)?.into_iter().collect())
    }
}

/// One SRT row.
pub type AdvEntry = Entry<Advertisement>;
/// One PRT row.
pub type SubEntry = Entry<Subscription>;

impl<T> Entry<T> {
    /// Every hop the row routes toward: the active lasthop, the pending
    /// one, the alternates, in that order.
    pub(crate) fn hops(&self) -> impl Iterator<Item = Hop> + '_ {
        let pending = self.pending.as_ref().map(|p| p.lasthop);
        [Some(self.lasthop), pending]
            .into_iter()
            .flatten()
            .chain(self.alt_lasthops.iter().map(|b| Hop::Broker(*b)))
    }
}

/// A row persists as a map whose first key is its kind's
/// ([`Routed::KEY`]) and holds the item, followed by the hop
/// bookkeeping, so a checkpoint names what each table routes.
impl<T: Routed> Serialize for Entry<T> {
    fn serialize<S: Serializer>(&self, ser: S) -> Result<S::Ok, S::Error> {
        ser.collect_map([
            (T::KEY, Field::Item(&self.item)),
            ("lasthop", Field::Hop(&self.lasthop)),
            ("alt_lasthops", Field::Brokers(&self.alt_lasthops)),
            ("sent_to", Field::Brokers(&self.sent_to)),
            ("pending", Field::Pending(&self.pending)),
        ])
    }
}

/// One field of a persisted row, serialized as what it holds.
enum Field<'a, T> {
    Item(&'a T),
    Hop(&'a Hop),
    Brokers(&'a HopSet),
    Pending(&'a Option<PendingRoute>),
}

impl<T: Serialize> Serialize for Field<'_, T> {
    fn serialize<S: Serializer>(&self, ser: S) -> Result<S::Ok, S::Error> {
        match self {
            Field::Item(v) => v.serialize(ser),
            Field::Hop(v) => v.serialize(ser),
            Field::Brokers(v) => v.serialize(ser),
            Field::Pending(v) => v.serialize(ser),
        }
    }
}

/// A persisted row of either kind: it names every kind's key, and a
/// row reads the one its kind persists under.
#[derive(Deserialize)]
struct Persisted<T> {
    #[serde(default)]
    adv: Option<T>,
    #[serde(default)]
    sub: Option<T>,
    lasthop: Hop,
    #[serde(default)]
    alt_lasthops: HopSet,
    sent_to: HopSet,
    pending: Option<PendingRoute>,
}

impl<'de, T: Routed> Deserialize<'de> for Entry<T> {
    fn deserialize<D: Deserializer<'de>>(de: D) -> Result<Self, D::Error> {
        let row = Persisted::<T>::deserialize(de)?;
        let item = if T::KEY == "adv" { row.adv } else { row.sub };
        Ok(Entry {
            item: item
                .ok_or_else(|| serde::de::Error::custom(format!("missing field `{}`", T::KEY)))?,
            lasthop: row.lasthop,
            alt_lasthops: row.alt_lasthops,
            sent_to: row.sent_to,
            pending: row.pending,
        })
    }
}

/// What a table keeps per row number beside its rows, written only by
/// the table's own writers: [`Table::insert`] fills a number,
/// [`Table::remove`] frees one, and [`Table::update`] refreshes one
/// after its row's hops may have changed. The SRT keeps nothing (`()`);
/// the PRT keeps its forwarding column ([`Forwarding`]).
pub trait Column<T>: Clone + fmt::Debug + Default {
    /// Row number `n` went live holding `e`: a number freed before, or
    /// the next new one.
    fn fill(&mut self, n: u32, e: &Entry<T>);
    /// Row number `n` was freed.
    fn free(&mut self, n: u32);
    /// Live row number `n` now holds `e`.
    fn refresh(&mut self, n: u32, e: &Entry<T>);
    /// Asserts the column against the live rows, given as `(number,
    /// row)`, of a table that has handed out `width` numbers. Test
    /// support.
    fn check<'a>(&self, width: usize, live: impl Iterator<Item = (u32, &'a Entry<T>)>)
    where
        T: 'a;
}

impl<T> Column<T> for () {
    fn fill(&mut self, _: u32, _: &Entry<T>) {}
    fn free(&mut self, _: u32) {}
    fn refresh(&mut self, _: u32, _: &Entry<T>) {}
    fn check<'a>(&self, _: usize, _: impl Iterator<Item = (u32, &'a Entry<T>)>)
    where
        T: 'a,
    {
    }
}

/// The calling convention of a table's filter queries
/// ([`Table::overlapping`], [`Table::covering`], [`Table::covered_by`]):
/// handed each row's id and entry in ascending id order, the visitor
/// breaks to end the visit.
pub trait Visit<T: Routed>: FnMut(T::Id, &Entry<T>) -> ControlFlow<()> {}

impl<T: Routed, F: FnMut(T::Id, &Entry<T>) -> ControlFlow<()>> Visit<T> for F {}

/// What a table hands the index's filter queries: the row numbers
/// they visit go there.
type Take<'a> = &'a mut dyn FnMut(u32) -> ControlFlow<()>;

/// A routing table: the SRT ([`Srt`]) or the PRT ([`Prt`]).
///
/// Every row has a dense `u32` *row number*: a row keeps its number for
/// as long as it lives, and a removed row's number goes to the free
/// list and is handed to a later insert. The numbers are private to
/// one table instance: they are never serialized, and a table rebuilt
/// from its rows numbers them afresh. The attribute-indexed counting
/// [`MatchIndex`] is keyed by row number, and the filter queries
/// ([`Table::overlapping`], [`Table::covering`], [`Table::covered_by`])
/// translate numbers back to ids and visit the rows ([`Visit`]) in
/// ascending id order, exactly like the linear scans they are asserted
/// against in debug builds.
///
/// The entries live in a vector by row number, beside the id-ordered
/// map from id to number, so a query reaches the row of a number the
/// index hands it without a map lookup.
///
/// Index and column ([`Routed::Column`]) are derived state with one
/// writer each side of the row map: [`Table::insert`] and
/// [`Table::remove`] for rows coming and going, [`Table::update`] for
/// the hop bookkeeping of a live row, which refreshes the row's column
/// cell when the caller's closure returns. Equality and serialization
/// see the rows only; deserialization rebuilds the rest. Never mutate
/// a row's filter through [`Table::update`]: replacing a filter
/// requires remove-then-insert.
#[derive(Debug, Clone)]
pub struct Table<T: Routed> {
    /// Id → row number, in id order.
    rows: BTreeMap<T::Id, u32>,
    /// Row number → id (stale for the numbers in `free`).
    ids: Vec<T::Id>,
    /// Row number → entry (`None` for the numbers in `free`).
    entries: Vec<Option<Entry<T>>>,
    free: Vec<u32>,
    index: MatchIndex<u32>,
    column: T::Column,
}

/// The Subscription Routing Table: advertisements.
pub type Srt = Table<Advertisement>;
/// The Publication Routing Table: subscriptions, with the forwarding
/// column.
pub type Prt = Table<Subscription>;

impl<T: Routed> Default for Table<T> {
    fn default() -> Self {
        Table {
            rows: BTreeMap::new(),
            ids: Vec::new(),
            entries: Vec::new(),
            free: Vec::new(),
            index: MatchIndex::new(),
            column: T::Column::default(),
        }
    }
}

impl<T: Routed> PartialEq for Table<T> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl<T: Routed> Serialize for Table<T> {
    fn serialize<S: Serializer>(&self, ser: S) -> Result<S::Ok, S::Error> {
        ser.collect_seq(self.iter())
    }
}

impl<'de, T: Routed> Deserialize<'de> for Table<T> {
    fn deserialize<D: Deserializer<'de>>(de: D) -> Result<Self, D::Error> {
        Self::from_pairs(Vec::deserialize(de)?).map_err(serde::de::Error::custom)
    }
}

impl<T: Routed> Table<T> {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a table (row numbers, column and match index included)
    /// from persisted rows.
    ///
    /// Ids are bound to immutable filters (the same invariant the live
    /// insert path enforces), so a persisted snapshot carrying one id
    /// twice with *conflicting* rows is corrupt and is rejected rather
    /// than silently resolved last-writer-wins. Byte-identical
    /// duplicate rows are tolerated (first wins), mirroring the
    /// idempotent duplicate suppression of [`Table::insert`].
    fn from_pairs(pairs: Vec<(T::Id, Entry<T>)>) -> Result<Self, String> {
        let mut table = Self::new();
        for (id, entry) in pairs {
            if let Some((kept, dup)) = table.add(id, entry) {
                if *kept != dup {
                    return Err(format!(
                        "routing-table snapshot carries {} {id} twice with conflicting rows",
                        T::NOUN
                    ));
                }
            }
        }
        Ok(table)
    }

    /// Inserts an item arriving from `lasthop`. Returns `false`
    /// (leaving the row untouched) if the id is already present.
    ///
    /// A re-insert with the *same* filter is the normal idempotent
    /// duplicate-suppression path. A re-insert with a *different*
    /// filter under the same id is a protocol violation (ids are bound
    /// to immutable filters); it is reported — loudly in debug builds —
    /// and the original row is kept.
    pub fn insert(&mut self, item: T, lasthop: Hop) -> bool {
        let id = item.id();
        let entry = Entry {
            item,
            lasthop,
            alt_lasthops: HopSet::new(),
            sent_to: HopSet::new(),
            pending: None,
        };
        let Some((kept, ignored)) = self.add(id, entry) else {
            return true;
        };
        let (kept, ignored) = (kept.item.filter(), ignored.item.filter());
        if kept != ignored {
            debug_assert!(
                false,
                "{} {id} re-issued with a different filter (kept {kept}, ignored {ignored})",
                T::NOUN
            );
            eprintln!(
                "transmob-broker: ignoring {} {id} re-issued with a different filter; \
                 the original row is kept",
                T::NOUN
            );
        }
        false
    }

    /// Numbers, indexes and stores `entry` under `id`, unless the id is
    /// taken: then the table is left as it was, and the row kept is
    /// returned with the one turned away.
    fn add(&mut self, id: T::Id, entry: Entry<T>) -> Option<(&Entry<T>, Entry<T>)> {
        let slot = match self.rows.entry(id) {
            btree_map::Entry::Occupied(kept) => {
                let kept = self.entries[*kept.get() as usize].as_ref();
                return Some((kept.expect("a live row has its entry"), entry));
            }
            btree_map::Entry::Vacant(slot) => slot,
        };
        let n = match self.free.pop() {
            Some(n) => {
                self.ids[n as usize] = id;
                n
            }
            None => {
                self.ids.push(id);
                self.entries.push(None);
                u32::try_from(self.ids.len() - 1).expect("fewer than 2^32 rows")
            }
        };
        self.index.insert(n, entry.item.filter());
        self.column.fill(n, &entry);
        self.entries[n as usize] = Some(entry);
        slot.insert(n);
        None
    }

    /// Removes an item, returning its row.
    pub fn remove(&mut self, id: T::Id) -> Option<Entry<T>> {
        let n = self.rows.remove(&id)?;
        self.index.remove(&n);
        self.column.free(n);
        self.free.push(n);
        self.entries[n as usize].take()
    }

    /// Looks up a row.
    pub fn get(&self, id: T::Id) -> Option<&Entry<T>> {
        self.rows.get(&id).map(|&n| self.entry(n))
    }

    /// The entry of live row number `n`.
    fn entry(&self, n: u32) -> &Entry<T> {
        self.entries[n as usize]
            .as_ref()
            .expect("a live row number has its entry")
    }

    /// The one way to write to a live row: runs `f` on the entry (hop,
    /// forwarding-set and pending bookkeeping; never the filter, see
    /// the type docs), then refreshes the row's column cell. Returns
    /// what `f` returned, or `None` (with nothing touched) if the id is
    /// not in the table.
    pub fn update<R>(&mut self, id: T::Id, f: impl FnOnce(&mut Entry<T>) -> R) -> Option<R> {
        let n = *self.rows.get(&id)?;
        let entry = (self.entries[n as usize].as_mut()).expect("a live row number has its entry");
        let out = f(entry);
        self.column.refresh(n, entry);
        Some(out)
    }

    /// Iterates all rows.
    pub fn iter(&self) -> impl Iterator<Item = (&T::Id, &Entry<T>)> {
        self.rows.iter().map(|(id, &n)| (id, self.entry(n)))
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Visits, in ascending id order (the order of the linear scan),
    /// the rows whose numbers the index's `query` hands over, until
    /// `visit` breaks; returns the break. The numbers are sorted in the
    /// per-thread `ROWS` list. Debug builds first assert the ids equal
    /// to those of the rows whose filter passes `linear`, the query's
    /// linear scan ([`Table::overlapping_linear`] and its twins).
    fn visit_rows(
        &self,
        query: impl FnOnce(Take) -> ControlFlow<()>,
        linear: impl Fn(&Filter) -> bool,
        mut visit: impl Visit<T>,
    ) -> ControlFlow<()> {
        let mut rows = ROWS.take();
        rows.clear();
        let _ = query(&mut |n| {
            rows.push(n);
            ControlFlow::Continue(())
        });
        // By number first, which is cheap: rows numbered in id order (a
        // table filled in id order) then leave the id sort, whose keys
        // are looked up, one run to check.
        rows.sort_unstable();
        rows.sort_unstable_by_key(|&n| self.ids[n as usize]);
        debug_assert!(
            (rows.iter().map(|&n| self.ids[n as usize])).eq(self.scan(linear).map(|(id, _)| id)),
            "match index diverged from the linear scan"
        );
        let flow = (rows.iter()).try_for_each(|&n| visit(self.ids[n as usize], self.entry(n)));
        ROWS.set(rows);
        flow
    }

    /// The rows whose filter passes `test`, in ascending id order, by
    /// scanning every row: the differential oracle of the indexed
    /// queries, and the body of their `*_linear` twins.
    fn scan(&self, test: impl Fn(&Filter) -> bool) -> impl Iterator<Item = (T::Id, &Entry<T>)> {
        self.iter()
            .filter(move |(_, e)| test(e.item.filter()))
            .map(|(id, e)| (*id, e))
    }

    /// Visits ([`Visit`]) the rows whose filter overlaps `filter` (the
    /// subscription-routing and pull test) until `visit` breaks, and
    /// returns the break. Served by the counting index.
    pub fn overlapping(&self, filter: &Filter, visit: impl Visit<T>) -> ControlFlow<()> {
        let query = |take: Take| self.index.overlapping(filter, take);
        self.visit_rows(query, |f| f.overlaps(filter), visit)
    }

    /// Reference implementation of [`Table::overlapping`]: the same
    /// visit over every row.
    #[cfg(any(test, debug_assertions))]
    pub fn overlapping_linear(&self, filter: &Filter, mut visit: impl Visit<T>) -> ControlFlow<()> {
        self.scan(|f| f.overlaps(filter))
            .try_for_each(|(id, e)| visit(id, e))
    }

    /// Visits ([`Visit`]) the rows whose filter *covers* `filter` (the
    /// quench test) until `visit` breaks, and returns the break. Served
    /// by the dual-endpoint containment structure of the counting
    /// index.
    pub fn covering(&self, filter: &Filter, visit: impl Visit<T>) -> ControlFlow<()> {
        let query = |take: Take| self.index.covering(filter, take);
        self.visit_rows(query, |f| f.covers(filter), visit)
    }

    /// Reference implementation of [`Table::covering`]: the same visit
    /// over every row.
    #[cfg(any(test, debug_assertions))]
    pub fn covering_linear(&self, filter: &Filter, mut visit: impl Visit<T>) -> ControlFlow<()> {
        self.scan(|f| f.covers(filter))
            .try_for_each(|(id, e)| visit(id, e))
    }

    /// Visits ([`Visit`]) the rows `filter` covers (the
    /// active-retraction / covering-release candidates that dominate
    /// the paper's mobility unsubscribe bursts) until `visit` breaks,
    /// and returns the break. Served by the dual-endpoint containment
    /// structure of the counting index.
    pub fn covered_by(&self, filter: &Filter, visit: impl Visit<T>) -> ControlFlow<()> {
        let query = |take: Take| self.index.covered_by(filter, take);
        self.visit_rows(query, |f| filter.covers(f), visit)
    }

    /// Reference implementation of [`Table::covered_by`]: the same
    /// visit over every row.
    #[cfg(any(test, debug_assertions))]
    pub fn covered_by_linear(&self, filter: &Filter, mut visit: impl Visit<T>) -> ControlFlow<()> {
        self.scan(|f| filter.covers(f))
            .try_for_each(|(id, e)| visit(id, e))
    }

    /// Ids of rows with a pending configuration for `move_id`, by
    /// scanning the table: the oracle for the broker core's per-move
    /// pending index, compiled into test and debug builds only.
    #[cfg(any(test, debug_assertions))]
    pub fn pending_for(&self, move_id: MoveId) -> Vec<T::Id> {
        self.iter()
            .filter(|(_, e)| e.pending.as_ref().is_some_and(|p| p.move_id == move_id))
            .map(|(id, _)| *id)
            .collect()
    }

    /// Asserts the derived state against the rows: row numbers and ids
    /// map onto each other one to one (live and free numbers partition
    /// the numbers handed out), the index holds every row's filter
    /// under its number and nothing else, its own slot table
    /// consistent, and the column agrees with the rows
    /// ([`Column::check`]). Test support.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        assert_eq!(
            self.rows.len() + self.free.len(),
            self.ids.len(),
            "live and free row numbers do not partition the numbers handed out"
        );
        assert_eq!(self.entries.len(), self.ids.len(), "an entry a row number");
        let mut seen: BTreeSet<u32> = self.free.iter().copied().collect();
        assert_eq!(seen.len(), self.free.len(), "a row number is free twice");
        for &n in &self.free {
            assert!(
                self.entries[n as usize].is_none(),
                "free row {n} holds an entry"
            );
        }
        for (id, &n) in &self.rows {
            assert!(seen.insert(n), "row number {n} held twice");
            assert_eq!(self.ids[n as usize], *id, "row {n} names another id");
            assert_eq!(
                self.index.get(&n),
                Some(self.entry(n).item.filter()),
                "index filter of {id} differs from the row's"
            );
        }
        assert_eq!(self.index.len(), self.rows.len(), "index size mismatch");
        self.index.check_slot_invariants();
        let live = self.rows.values().map(|&n| (n, self.entry(n)));
        self.column.check(self.ids.len(), live);
    }
}

/// Where one publication goes from this broker: the answer of
/// [`Prt::destinations_into`]. Both lists are ascending and
/// duplicate-free, and forwarding emits them in this order (brokers,
/// then clients).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Destinations {
    /// Neighbouring brokers that get a copy.
    pub brokers: Vec<BrokerId>,
    /// Locally attached clients that get a copy.
    pub clients: Vec<ClientId>,
}

thread_local! {
    /// A zeroed seen-bit buffer handed from one forwarding accumulator
    /// to the next, so that a publication's fold allocates none: with a
    /// census of thousands of hops a fresh one cost each publication a
    /// large zeroed allocation. Reuse is all it buys; an accumulator
    /// that finds it taken starts an empty one.
    static SEEN: std::cell::Cell<Vec<u64>> = const { std::cell::Cell::new(Vec::new()) };

    /// The row numbers of one filter query, sorted by id before their
    /// rows are visited ([`Table::visit_rows`]), handed from one query
    /// to the next so that, once grown, a query allocates none. A query
    /// that finds the list taken starts an empty one.
    static ROWS: std::cell::Cell<Vec<u32>> = const { std::cell::Cell::new(Vec::new()) };
}

/// The forwarding fold's accumulator: the destinations found so far,
/// each pushed once, and a seen-bit per census id that keeps it so.
struct Reach {
    dests: Destinations,
    seen: Vec<u64>,
}

impl Reach {
    /// An empty accumulator for a census whose ids are below `width`,
    /// recording into `dests`' lists (emptied first).
    fn new(mut dests: Destinations, width: usize) -> Reach {
        dests.brokers.clear();
        dests.clients.clear();
        let mut seen = SEEN.take();
        seen.resize(width.div_ceil(64), 0);
        Reach { dests, seen }
    }

    /// Records `hop`, whose census id is `id`, unless it is recorded
    /// already.
    #[inline]
    fn add(&mut self, id: u32, hop: Hop) {
        let (word, bit) = (&mut self.seen[id as usize / 64], 1u64 << (id % 64));
        if *word & bit == 0 {
            *word |= bit;
            match hop {
                Hop::Broker(b) => self.dests.brokers.push(b),
                Hop::Client(c) => self.dests.clients.push(c),
            }
        }
    }

    /// How many distinct hops are recorded.
    fn found(&self) -> usize {
        self.dests.brokers.len() + self.dests.clients.len()
    }

    /// Puts the lists, which hold no repeats, in ascending order, and
    /// hands the seen-bits back, zeroed.
    fn finish(&mut self) {
        self.dests.brokers.sort_unstable();
        self.dests.clients.sort_unstable();
        self.seen.fill(0);
        SEEN.set(std::mem::take(&mut self.seen));
    }
}

/// One cell of the PRT's forwarding column: everything publication
/// forwarding reads of a row, which is the census ids of the row's
/// hops ([`Entry::hops`] order) and the active lasthop itself.
#[derive(Debug, Clone)]
struct Cell {
    /// Every step of the forwarding fold records the active lasthop, so
    /// the hop is kept beside its id: a table of many hops would
    /// otherwise pay a second random load, from the census, per row.
    lasthop: Hop,
    lasthop_id: u32,
    /// Inline: a movement installs and clears it, and neither may cost
    /// an allocation.
    pending: Option<u32>,
    /// The ids of the `alt_lasthops`; empty, which allocates nothing,
    /// for the many rows without any.
    alts: Box<[u32]>,
}

impl Cell {
    /// Calls `f` with every id, in [`Entry::hops`] order.
    #[inline]
    fn for_each_id(&self, mut f: impl FnMut(u32)) {
        f(self.lasthop_id);
        if let Some(id) = self.pending {
            f(id);
        }
        for &id in self.alts.iter() {
            f(id);
        }
    }

    /// [`Cell::for_each_id`] with each id's hop, the lasthop's read off
    /// the cell and the others off `census`: the forwarding fold's step.
    /// Plain code, not an iterator, because a chained iterator's fold
    /// was not inlined into the step.
    #[inline]
    fn for_each_hop(&self, census: &Census, mut f: impl FnMut(u32, Hop)) {
        f(self.lasthop_id, self.lasthop);
        if let Some(id) = self.pending {
            f(id, census.hops[id as usize]);
        }
        for &id in self.alts.iter() {
            f(id, census.hops[id as usize]);
        }
    }
}

/// The *hop census* of a forwarding column: every distinct hop a live
/// cell names, under a dense `u32` id, with the number of times the
/// live cells name it. Its size is the most destinations a publication
/// can have at this broker, which is what lets
/// [`Prt::destinations_into`] stop matching early. It must never
/// under-count (a probe would end before a destination was found), so
/// every cell is counted when it goes live and un-counted when it is
/// replaced or its row removed. A hop keeps its id while any live cell
/// names it; the id is freed, for another hop to take, when its last
/// mention goes.
#[derive(Debug, Clone, Default)]
struct Census {
    /// Hop → id, for every live hop.
    ids: FastMap<Hop, u32>,
    /// Id → hop (stale for the ids in `free`).
    hops: Vec<Hop>,
    /// Id → how many times the live cells name its hop; 0 for the ids
    /// in `free`.
    mentions: Vec<u32>,
    free: Vec<u32>,
}

impl Census {
    /// Counts one mention of every hop of `e` and returns the cell
    /// that names them by id.
    fn count(&mut self, e: &SubEntry) -> Cell {
        let lasthop_id = self.mention(e.lasthop);
        let pending = e.pending.as_ref().map(|p| self.mention(p.lasthop));
        let mut alts = Vec::with_capacity(e.alt_lasthops.len());
        alts.extend(e.alt_lasthops.iter().map(|b| self.mention(Hop::Broker(*b))));
        Cell {
            lasthop: e.lasthop,
            lasthop_id,
            pending,
            alts: alts.into_boxed_slice(),
        }
    }

    fn uncount(&mut self, cell: &Cell) {
        cell.for_each_id(|id| {
            let n = &mut self.mentions[id as usize];
            *n -= 1;
            if *n == 0 {
                self.ids.remove(&self.hops[id as usize]);
                self.free.push(id);
            }
        });
    }

    fn mention(&mut self, hop: Hop) -> u32 {
        let id = match self.ids.entry(hop) {
            hash_map::Entry::Occupied(o) => *o.get(),
            hash_map::Entry::Vacant(v) => *v.insert(match self.free.pop() {
                Some(id) => {
                    self.hops[id as usize] = hop;
                    id
                }
                None => {
                    self.hops.push(hop);
                    self.mentions.push(0);
                    u32::try_from(self.hops.len() - 1).expect("fewer than 2^32 hops")
                }
            }),
        };
        self.mentions[id as usize] += 1;
        id
    }

    /// Whether `cell` names exactly the hops of `e`, in order.
    fn names(&self, cell: &Cell, e: &SubEntry) -> bool {
        let hop = |id: u32| self.hops[id as usize];
        cell.lasthop == e.lasthop
            && cell.pending.map(hop) == e.pending.as_ref().map(|p| p.lasthop)
            && cell.alts.len() == e.alt_lasthops.len()
            && (cell.alts.iter())
                .zip(&e.alt_lasthops)
                .all(|(&id, &b)| hop(id) == Hop::Broker(b))
    }

    /// How many distinct hops the live cells name.
    fn len(&self) -> usize {
        self.ids.len()
    }

    /// One more than the highest id handed out: the seen-bits an
    /// accumulator needs.
    fn width(&self) -> usize {
        self.hops.len()
    }
}

/// The PRT's forwarding column ([`Routed::Column`] of a subscription):
/// per row number the row's forwarding cell, and the census of their
/// hops.
///
/// Publication forwarding ([`Table::destinations_into`]) folds the
/// index's matching row numbers through the cells straight into
/// destination sets, one seen-bit per census id: it never lists the
/// matching rows, never touches the row map and never sorts to find
/// repeats, and it stops matching at the row that makes the set every
/// hop of the census, since no further row could add one.
#[derive(Debug, Clone, Default)]
pub struct Forwarding {
    /// Row number → forwarding cell (stale for the table's free
    /// numbers).
    cells: Vec<Cell>,
    /// The census of the live cells.
    census: Census,
}

impl Column<Subscription> for Forwarding {
    fn fill(&mut self, n: u32, e: &SubEntry) {
        let cell = self.census.count(e);
        match self.cells.get_mut(n as usize) {
            Some(slot) => *slot = cell,
            None => self.cells.push(cell),
        }
    }

    /// The freed number's cell stays behind until the number is handed
    /// out again, so its hops leave the census here.
    fn free(&mut self, n: u32) {
        self.census.uncount(&self.cells[n as usize]);
    }

    /// Re-derives the cell from the entry. The new hops are counted
    /// before the old ones are un-counted, so a hop the row keeps keeps
    /// its id.
    fn refresh(&mut self, n: u32, e: &SubEntry) {
        if !self.census.names(&self.cells[n as usize], e) {
            let cell = self.census.count(e);
            let old = std::mem::replace(&mut self.cells[n as usize], cell);
            self.census.uncount(&old);
        }
    }

    /// Every live cell holds the census ids of its entry's hops, every
    /// live hop's id names it back, the mention counts are the ones
    /// counted from the entries and the free ids are exactly the
    /// unmentioned ones.
    fn check<'a>(&self, width: usize, live: impl Iterator<Item = (u32, &'a SubEntry)>) {
        let Forwarding { cells, census } = self;
        assert_eq!(
            cells.len(),
            width,
            "forwarding column and row numbers differ in length"
        );
        let mut recount: BTreeMap<Hop, u32> = BTreeMap::new();
        for (n, e) in live {
            let id = e.item.id;
            let derived: Vec<u32> = e
                .hops()
                .map(|hop| {
                    *recount.entry(hop).or_insert(0) += 1;
                    *census.ids.get(&hop).expect("a live row's hop has an id")
                })
                .collect();
            let cell = &cells[n as usize];
            let mut held = Vec::new();
            cell.for_each_id(|id| held.push(id));
            assert_eq!(held, derived, "forwarding cell of {id} is stale");
            assert!(census.names(cell, e), "forwarding cell of {id} is stale");
        }
        assert_eq!(census.ids.len(), recount.len(), "census names a dead hop");
        assert_eq!(census.hops.len(), census.mentions.len());
        for (hop, n) in &recount {
            let id = census.ids[hop] as usize;
            assert_eq!(census.hops[id], *hop, "census id {id} names another hop");
            assert_eq!(census.mentions[id], *n, "mentions of {hop:?} miscounted");
        }
        let unmentioned: Vec<u32> = (0..census.hops.len() as u32)
            .filter(|&id| census.mentions[id as usize] == 0)
            .collect();
        let mut free_ids = census.free.clone();
        free_ids.sort_unstable();
        assert_eq!(
            free_ids, unmentioned,
            "free census ids are not the unmentioned ones"
        );
    }
}

/// The PRT's publication queries: matching, and forwarding through the
/// column.
impl Table<Subscription> {
    /// Ids of subscriptions whose filter matches `publication`, sorted
    /// (the publication-forwarding test, for callers that want the
    /// rows; forwarding itself goes through
    /// [`Table::destinations_into`]): the index's fold
    /// ([`MatchIndex::fold_into`]) into an id vector, sorted; asserted
    /// against the linear scan in debug builds.
    pub fn matching(&self, publication: &Publication) -> Vec<SubId> {
        let mut row = Vec::new();
        let step = |row: &mut Vec<SubId>, n: u32| row.push(self.ids[n as usize]);
        self.index.fold_into(publication, &mut row, step, |_| false);
        row.sort_unstable();
        #[cfg(any(test, debug_assertions))]
        assert_eq!(
            row,
            self.matching_linear(publication),
            "match index diverged from the linear matching scan"
        );
        row
    }

    /// Reference implementation of [`Table::matching`]: the full
    /// linear scan.
    #[cfg(any(test, debug_assertions))]
    pub fn matching_linear(&self, publication: &Publication) -> Vec<SubId> {
        self.scan(|f| f.matches(publication))
            .map(|(id, _)| id)
            .collect()
    }

    /// [`Table::matching`] for every publication of a batch, in batch
    /// order.
    pub fn matching_batch(&self, publications: &[Publication]) -> Vec<Vec<SubId>> {
        publications.iter().map(|p| self.matching(p)).collect()
    }

    /// The forwarding query: where `publication` goes from this broker,
    /// written over `dests`. A destination is
    /// the active lasthop, the pending (shadow) lasthop of an in-flight
    /// movement, or a redundant `alt_lasthops` route of any matching
    /// row, so the prepare–commit window (where both configurations
    /// must receive traffic) and multi-path forwarding are honoured in
    /// one place.
    ///
    /// Each publication is the index's fold ([`MatchIndex::fold_into`])
    /// with the forwarding column as its step: per matching row number one
    /// cell is read, and neither the matching ids nor the row map are
    /// ever consulted. A hop is recorded the first time a row names its
    /// census id, so the count of hops found is the length of the
    /// lists. The fold is saturated, and the match ends at the row that
    /// completes it, once that count is the census size: what is owed
    /// is a set of hops, and no further row can add one. Asserted
    /// against [`Table::destinations_linear`], which scans every row,
    /// in debug builds. The lists of `dests` keep their capacity, so a
    /// broker that routes its publications one by one through one
    /// `Destinations` allocates nothing for them once the lists have
    /// grown.
    pub fn destinations_into(&self, publication: &Publication, dests: &mut Destinations) {
        let Forwarding { cells, census } = &self.column;
        let (hops, width) = (census.len(), census.width());
        let mut reach = Reach::new(std::mem::take(dests), width);
        self.index.fold_into(
            publication,
            &mut reach,
            |reach, n| cells[n as usize].for_each_hop(census, |id, hop| reach.add(id, hop)),
            |reach| reach.found() == hops,
        );
        reach.finish();
        *dests = reach.dests;
        #[cfg(any(test, debug_assertions))]
        assert_eq!(
            *dests,
            self.destinations_linear(publication),
            "forwarding column diverged from the linear scan of the rows"
        );
    }

    /// [`Table::destinations_into`] into a fresh set.
    pub fn destinations(&self, publication: &Publication) -> Destinations {
        let mut dests = Destinations::default();
        self.destinations_into(publication, &mut dests);
        dests
    }

    /// [`Table::destinations`] for every publication of a batch, in
    /// batch order.
    pub fn destinations_batch(&self, publications: &[&Publication]) -> Vec<Destinations> {
        publications.iter().map(|p| self.destinations(p)).collect()
    }

    /// Reference implementation of [`Table::destinations_into`]: the
    /// linear scan of the rows, reading the hops off the entries into
    /// ordered sets.
    #[cfg(any(test, debug_assertions))]
    pub fn destinations_linear(&self, publication: &Publication) -> Destinations {
        let mut brokers = BTreeSet::new();
        let mut clients = BTreeSet::new();
        for (_, e) in self.iter() {
            if e.item.filter.matches(publication) {
                for hop in e.hops() {
                    match hop {
                        Hop::Broker(b) => brokers.insert(b),
                        Hop::Client(c) => clients.insert(c),
                    };
                }
            }
        }
        Destinations {
            brokers: brokers.into_iter().collect(),
            clients: clients.into_iter().collect(),
        }
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

    /// The ids a table query visits, in order.
    fn ids<I, E>(
        query: impl FnOnce(&mut dyn FnMut(I, &E) -> ControlFlow<()>) -> ControlFlow<()>,
    ) -> Vec<I> {
        let mut out = Vec::new();
        let flow = query(&mut |id, _| {
            out.push(id);
            ControlFlow::Continue(())
        });
        assert!(flow.is_continue());
        out
    }

    #[test]
    fn a_visitor_that_breaks_sees_one_row() {
        // Nested bands, each covering the next, inserted from the
        // innermost: every query below has several rows to visit, and
        // a visitor that breaks on the first is handed the lowest id.
        let mut prt = Prt::new();
        for c in (0..6).rev() {
            prt.insert(
                sub(c, 0, c as i64, 100 - c as i64),
                Hop::Client(ClientId(c)),
            );
        }
        let middle = Filter::builder().ge("x", 3).le("x", 97).build();
        let query = |i: usize, v: &mut dyn FnMut(SubId, &SubEntry) -> ControlFlow<()>| match i {
            0 => prt.overlapping(&middle, v),
            1 => prt.covering(&middle, v),
            _ => prt.covered_by(&middle, v),
        };
        for i in 0..3 {
            let all = ids(|v| query(i, v));
            assert!(all.len() > 1, "query {i} has several rows");
            assert!(all.is_sorted(), "query {i} visits in id order");
            let mut seen = Vec::new();
            let flow = query(i, &mut |id, _| {
                seen.push(id);
                ControlFlow::Break(())
            });
            assert!(flow.is_break(), "query {i} passes the break on");
            assert_eq!(seen, all[..1], "query {i}");
        }
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
        let hits = ids(|v| srt.overlapping(&f, v));
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
    fn rows_and_index_share_the_callers_filter_body() {
        let s = sub(1, 0, 0, 10);
        let a = adv(2, 0, 0, 10);
        let mut prt = Prt::new();
        let mut srt = Srt::new();
        prt.insert(s.clone(), Hop::Client(ClientId(1)));
        srt.insert(a.clone(), Hop::Client(ClientId(2)));
        let n = prt.rows[&s.id];
        assert!(Filter::ptr_eq(&prt.entry(n).item.filter, &s.filter));
        assert!(Filter::ptr_eq(prt.index.get(&n).unwrap(), &s.filter));
        assert!(Filter::ptr_eq(
            &srt.get(a.id).unwrap().item.filter,
            &a.filter
        ));
        assert!(Filter::ptr_eq(
            srt.index.get(&srt.rows[&a.id]).unwrap(),
            &a.filter
        ));
        // A row handed back by `remove` is still the caller's body.
        assert!(Filter::ptr_eq(
            &prt.remove(s.id).unwrap().item.filter,
            &s.filter
        ));
        // An equal filter built apart is a duplicate, not a conflict.
        prt.insert(s.clone(), Hop::Client(ClientId(1)));
        assert!(!prt.insert(sub(1, 0, 0, 10), Hop::Broker(BrokerId(3))));
        assert!(Filter::ptr_eq(
            &prt.get(s.id).unwrap().item.filter,
            &s.filter
        ));
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

    fn pend(prt: &mut Prt, id: SubId, m: u64, hop: Hop) {
        prt.update(id, |e| {
            e.pending = Some(PendingRoute {
                move_id: MoveId(m),
                lasthop: hop,
            })
        })
        .expect("row present");
    }

    #[test]
    fn destinations_expose_active_and_pending_hops() {
        let mut prt = Prt::new();
        let s1 = sub(1, 0, 0, 10);
        let s2 = sub(2, 0, 5, 20);
        prt.insert(s1.clone(), Hop::Client(ClientId(1)));
        prt.insert(s2.clone(), Hop::Broker(BrokerId(4)));
        pend(&mut prt, s1.id, 3, Hop::Broker(BrokerId(7)));
        assert_eq!(
            prt.destinations(&Publication::new().with("x", 7)),
            Destinations {
                brokers: vec![BrokerId(4), BrokerId(7)],
                clients: vec![ClientId(1)],
            }
        );
        // Only s2 matches: s1's pending hop goes with s1.
        assert_eq!(
            prt.destinations(&Publication::new().with("x", 15)),
            Destinations {
                brokers: vec![BrokerId(4)],
                clients: vec![],
            }
        );
        prt.check_invariants();
    }

    #[test]
    fn batch_destinations_agree_with_per_publication_destinations() {
        let mut prt = Prt::new();
        let s1 = sub(1, 0, 0, 10);
        let s2 = sub(2, 0, 5, 20);
        prt.insert(s1.clone(), Hop::Client(ClientId(1)));
        prt.insert(s2.clone(), Hop::Broker(BrokerId(4)));
        pend(&mut prt, s1.id, 3, Hop::Broker(BrokerId(7)));
        let batch: Vec<Publication> = [7i64, 15, 40, 0]
            .into_iter()
            .map(|x| Publication::new().with("x", x))
            .collect();
        let got = prt.destinations_batch(&batch.iter().collect::<Vec<_>>());
        assert_eq!(got.len(), batch.len());
        for (i, p) in batch.iter().enumerate() {
            assert_eq!(got[i], prt.destinations(p), "probe {i}");
            assert_eq!(got[i], prt.destinations_linear(p), "probe {i}");
        }
    }

    #[test]
    fn update_keeps_the_forwarding_cell_in_step() {
        let mut prt = Prt::new();
        let s = sub(1, 0, 0, 10);
        let p = Publication::new().with("x", 5);
        prt.insert(s.clone(), Hop::Broker(BrokerId(2)));
        // Alternates come, the primary is re-pointed, a pending hop is
        // installed and dropped: the answer follows every write.
        prt.update(s.id, |e| {
            e.alt_lasthops.insert(BrokerId(9));
            e.alt_lasthops.insert(BrokerId(3));
        });
        assert_eq!(
            prt.destinations(&p).brokers,
            vec![BrokerId(2), BrokerId(3), BrokerId(9)]
        );
        prt.update(s.id, |e| e.lasthop = Hop::Client(ClientId(1)));
        pend(&mut prt, s.id, 1, Hop::Broker(BrokerId(3)));
        assert_eq!(
            prt.destinations(&p),
            Destinations {
                brokers: vec![BrokerId(3), BrokerId(9)],
                clients: vec![ClientId(1)],
            }
        );
        let removed = prt.update(s.id, |e| {
            e.pending = None;
            e.alt_lasthops.remove(&BrokerId(3))
        });
        assert_eq!(removed, Some(true));
        prt.update(s.id, |e| e.alt_lasthops.clear());
        assert_eq!(
            prt.destinations(&p),
            Destinations {
                brokers: vec![],
                clients: vec![ClientId(1)],
            }
        );
        prt.check_invariants();
        // An absent id is left alone, closure unrun.
        assert_eq!(prt.update(SubId::new(ClientId(8), 0), |_| ()), None);
    }

    /// The census as sorted `(hop, mentions)` pairs.
    fn census(prt: &Prt) -> Vec<(Hop, u32)> {
        let c = &prt.column.census;
        let mut out: Vec<(Hop, u32)> = c
            .ids
            .iter()
            .map(|(hop, id)| (*hop, c.mentions[*id as usize]))
            .collect();
        out.sort_unstable();
        out
    }

    fn census_id(prt: &Prt, hop: Hop) -> Option<u32> {
        prt.column.census.ids.get(&hop).copied()
    }

    #[test]
    fn a_census_id_is_reused_only_after_its_hops_last_mention_goes() {
        let (b2, b4, b7, b9) = (BrokerId(2), BrokerId(4), BrokerId(7), BrokerId(9));
        let (s1, s2, s3) = (sub(1, 0, 0, 10), sub(2, 0, 0, 10), sub(3, 0, 0, 10));
        let mut prt = Prt::new();
        prt.insert(s1.clone(), Hop::Broker(b2));
        prt.insert(s2.clone(), Hop::Broker(b2));
        prt.insert(s3.clone(), Hop::Broker(b4));
        assert_eq!(census_id(&prt, Hop::Broker(b2)), Some(0));
        assert_eq!(census_id(&prt, Hop::Broker(b4)), Some(1));
        // One of two mentions goes: the id stays taken, and a new hop
        // gets a new one.
        prt.remove(s1.id);
        prt.insert(sub(4, 0, 0, 10), Hop::Broker(b9));
        assert_eq!(census_id(&prt, Hop::Broker(b2)), Some(0));
        assert_eq!(census_id(&prt, Hop::Broker(b9)), Some(2));
        // A row re-pointed away and back keeps the hop's id while
        // another row names it.
        prt.update(s2.id, |e| e.alt_lasthops.insert(b4));
        prt.update(s2.id, |e| e.alt_lasthops.clear());
        assert_eq!(census_id(&prt, Hop::Broker(b4)), Some(1));
        // The last mention goes: the id is free, and the next new hop
        // takes it.
        prt.remove(s2.id);
        assert_eq!(census_id(&prt, Hop::Broker(b2)), None);
        prt.update(s3.id, |e| e.lasthop = Hop::Broker(b7));
        assert_eq!(census_id(&prt, Hop::Broker(b7)), Some(0));
        assert_eq!(census_id(&prt, Hop::Broker(b4)), None);
        assert_eq!(census(&prt), [(Hop::Broker(b7), 1), (Hop::Broker(b9), 1)]);
        prt.check_invariants();
        assert_eq!(
            prt.destinations(&Publication::new().with("x", 5)).brokers,
            vec![b7, b9]
        );
    }

    #[test]
    fn rows_that_name_one_hop_apart_yield_it_once() {
        // Three bands the probe hits, scanned in ascending lower
        // bound, point at b2, b4, b2; a fourth it misses names b7, so
        // the census (3 hops) is never reached and every matching row
        // is stepped. b2's second mention is not adjacent to its first.
        let (b2, b4, b7) = (BrokerId(2), BrokerId(4), BrokerId(7));
        let mut prt = Prt::new();
        prt.insert(sub(1, 0, 0, 10), Hop::Broker(b2));
        prt.insert(sub(2, 0, 1, 10), Hop::Broker(b4));
        prt.insert(sub(3, 0, 2, 10), Hop::Broker(b2));
        prt.insert(sub(4, 0, 50, 60), Hop::Broker(b7));
        let p = Publication::new().with("x", 5);
        assert_eq!(prt.matching(&p).len(), 3);
        assert_eq!(
            prt.destinations(&p),
            Destinations {
                brokers: vec![b2, b4],
                clients: vec![],
            }
        );
        // The same through alternates of one row and the lasthop of
        // another, brokers and clients mixed.
        prt.update(SubId::new(ClientId(2), 0), |e| {
            e.alt_lasthops.extend([b2, b7]);
            e.lasthop = Hop::Client(ClientId(5));
        });
        prt.update(SubId::new(ClientId(3), 0), |e| {
            e.lasthop = Hop::Client(ClientId(5))
        });
        assert_eq!(
            prt.destinations(&p),
            Destinations {
                brokers: vec![b2, b7],
                clients: vec![ClientId(5)],
            }
        );
    }

    #[test]
    fn census_and_destinations_follow_a_hops_last_mention() {
        let (b2, b4, b7) = (BrokerId(2), BrokerId(4), BrokerId(7));
        let (c3, c9) = (ClientId(3), ClientId(9));
        let dests = |brokers: &[BrokerId], clients: &[ClientId]| Destinations {
            brokers: brokers.to_vec(),
            clients: clients.to_vec(),
        };
        // Every row matches the probe, so each answer below is the
        // whole census, reached before the last row is looked at.
        let p = Publication::new().with("x", 5);
        let (s1, s2, s3) = (sub(1, 0, 0, 10), sub(2, 0, 0, 10), sub(3, 0, 0, 10));
        let mut prt = Prt::new();
        prt.insert(s1.clone(), Hop::Broker(b2));
        prt.insert(s2.clone(), Hop::Broker(b2));
        prt.insert(s3.clone(), Hop::Client(c3));
        assert_eq!(census(&prt), [(Hop::Broker(b2), 2), (Hop::Client(c3), 1)]);
        assert_eq!(prt.destinations(&p), dests(&[b2], &[c3]));
        // The last row naming a hop is removed.
        prt.remove(s3.id);
        assert_eq!(census(&prt), [(Hop::Broker(b2), 2)]);
        assert_eq!(prt.destinations(&p), dests(&[b2], &[]));
        // Re-pointed, one mention at a time.
        prt.update(s2.id, |e| e.lasthop = Hop::Broker(b4));
        assert_eq!(census(&prt), [(Hop::Broker(b2), 1), (Hop::Broker(b4), 1)]);
        assert_eq!(prt.destinations(&p), dests(&[b2, b4], &[]));
        prt.update(s1.id, |e| e.lasthop = Hop::Broker(b4));
        assert_eq!(census(&prt), [(Hop::Broker(b4), 2)]);
        assert_eq!(prt.destinations(&p), dests(&[b4], &[]));
        // A pending hop is one more mention; an abort takes it back.
        pend(&mut prt, s1.id, 1, Hop::Client(c9));
        assert_eq!(census(&prt), [(Hop::Broker(b4), 2), (Hop::Client(c9), 1)]);
        assert_eq!(prt.destinations(&p), dests(&[b4], &[c9]));
        prt.update(s1.id, |e| e.pending = None);
        assert_eq!(census(&prt), [(Hop::Broker(b4), 2)]);
        assert_eq!(prt.destinations(&p), dests(&[b4], &[]));
        // A commit moves the row to it.
        pend(&mut prt, s1.id, 2, Hop::Client(c9));
        prt.update(s1.id, |e| e.lasthop = e.pending.take().unwrap().lasthop);
        assert_eq!(census(&prt), [(Hop::Broker(b4), 1), (Hop::Client(c9), 1)]);
        assert_eq!(prt.destinations(&p), dests(&[b4], &[c9]));
        // Alternates count like any hop, also one the row already names.
        prt.update(s2.id, |e| e.alt_lasthops.extend([b4, b7]));
        assert_eq!(
            census(&prt),
            [
                (Hop::Broker(b4), 2),
                (Hop::Broker(b7), 1),
                (Hop::Client(c9), 1)
            ]
        );
        assert_eq!(prt.destinations(&p), dests(&[b4, b7], &[c9]));
        // A write that leaves the cell as it was leaves the census too.
        prt.update(s2.id, |e| e.sent_to.insert(b7));
        prt.check_invariants();
        // Clone copies the census; a rebuild from the rows recounts it.
        assert_eq!(census(&prt.clone()), census(&prt));
        let rebuilt: Prt = serde_json::from_str(&serde_json::to_string(&prt).unwrap()).unwrap();
        assert_eq!(census(&rebuilt), census(&prt));
        rebuilt.check_invariants();
        prt.remove(s2.id);
        assert_eq!(census(&prt), [(Hop::Client(c9), 1)]);
        assert_eq!(prt.destinations(&p), dests(&[], &[c9]));
        prt.remove(s1.id);
        assert_eq!(census(&prt), []);
        assert_eq!(prt.destinations(&p), Destinations::default());
        prt.check_invariants();
    }

    #[test]
    fn row_numbers_are_recycled() {
        let mut prt = Prt::new();
        for c in 0..4 {
            prt.insert(sub(c, 0, 0, 10), Hop::Client(ClientId(c)));
        }
        prt.remove(SubId::new(ClientId(1), 0));
        prt.remove(SubId::new(ClientId(2), 0));
        prt.check_invariants();
        // Two inserts reuse the freed numbers, a third extends the
        // column; the freed numbers' old cells must not leak through.
        for c in 10..13 {
            prt.insert(sub(c, 0, 0, 10), Hop::Broker(BrokerId(c as u32)));
        }
        prt.check_invariants();
        assert_eq!(prt.ids.len(), 5);
        assert_eq!(
            prt.destinations(&Publication::new().with("x", 5)),
            Destinations {
                brokers: vec![BrokerId(10), BrokerId(11), BrokerId(12)],
                clients: vec![ClientId(0), ClientId(3)],
            }
        );
    }

    #[test]
    fn tables_survive_serde_round_trip_with_live_index() {
        let mut prt = Prt::new();
        // Churn so the live table's row numbers are not the ones a
        // rebuild hands out: 3 takes the number 0 freed.
        prt.insert(sub(0, 0, 0, 10), Hop::Client(ClientId(7)));
        prt.insert(sub(1, 0, 0, 10), Hop::Client(ClientId(1)));
        prt.insert(sub(2, 0, 5, 20), Hop::Broker(BrokerId(4)));
        prt.remove(SubId::new(ClientId(0), 0));
        prt.insert(sub(3, 0, 0, 30), Hop::Broker(BrokerId(6)));
        prt.update(SubId::new(ClientId(3), 0), |e| {
            e.alt_lasthops.insert(BrokerId(8));
        });
        pend(
            &mut prt,
            SubId::new(ClientId(2), 0),
            5,
            Hop::Client(ClientId(9)),
        );
        let mut srt = Srt::new();
        srt.insert(adv(1, 0, 0, 10), Hop::Broker(BrokerId(2)));
        let json = serde_json::to_string(&prt).unwrap();
        let prt2: Prt = serde_json::from_str(&json).unwrap();
        let srt2: Srt = serde_json::from_str(&serde_json::to_string(&srt).unwrap()).unwrap();
        assert_eq!(prt, prt2);
        assert_eq!(srt, srt2);
        // Row numbers are not part of the table's value: the rebuilt
        // table numbers its rows afresh, serializes byte-identically
        // and forwards identically.
        prt2.check_invariants();
        assert_ne!(prt.ids, prt2.ids);
        assert_eq!(serde_json::to_string(&prt2).unwrap(), json);
        // The rebuilt indexes answer queries (the debug oracle inside
        // matching/overlapping cross-checks them against the scan).
        for x in [7i64, 15, 25, 40] {
            let p = Publication::new().with("x", x);
            assert_eq!(prt2.matching(&p), prt.matching(&p));
            assert_eq!(prt2.destinations(&p), prt.destinations(&p));
        }
        let f = Filter::builder().ge("x", 5).le("x", 8).build();
        assert_eq!(
            ids(|v| srt2.overlapping(&f, v)),
            ids(|v| srt.overlapping(&f, v))
        );
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
        assert_eq!(
            ids(|v| prt.covering(&leaf.filter, v)),
            vec![root.id, leaf.id]
        );
        // Whom does the root cover? Itself and the leaf.
        assert_eq!(
            ids(|v| prt.covered_by(&root.filter, v)),
            vec![root.id, leaf.id]
        );
        let mut srt = Srt::new();
        srt.insert(adv(1, 0, 0, 100), Hop::Broker(BrokerId(2)));
        srt.insert(adv(2, 0, 10, 20), Hop::Broker(BrokerId(3)));
        assert_eq!(
            ids(|v| srt.covering(&Filter::builder().ge("x", 10).le("x", 20).build(), v)),
            vec![AdvId::new(ClientId(1), 0), AdvId::new(ClientId(2), 0)]
        );
        assert_eq!(
            ids(|v| srt.covered_by(&Filter::builder().ge("x", 5).le("x", 25).build(), v)),
            vec![AdvId::new(ClientId(2), 0)]
        );
    }

    #[test]
    fn deserialize_rejects_conflicting_duplicate_ids() {
        // A snapshot carrying one id twice with different filters must
        // not load last-writer-wins: the rebuild path rejects it.
        let mk = |lo: i64, hi: i64| SubEntry {
            item: sub(1, 0, lo, hi),
            lasthop: Hop::Client(ClientId(1)),
            alt_lasthops: HopSet::new(),
            sent_to: HopSet::new(),
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
            item: adv(1, 0, lo, hi),
            lasthop: Hop::Broker(BrokerId(2)),
            alt_lasthops: HopSet::new(),
            sent_to: HopSet::new(),
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
        pend(&mut prt, s1.id, 9, Hop::Broker(BrokerId(3)));
        assert_eq!(prt.pending_for(MoveId(9)), vec![s1.id]);
        assert!(prt.pending_for(MoveId(8)).is_empty());
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// A hop set answers every method the broker calls as a
        /// `BTreeSet` does, on both sides of the inline capacity, and
        /// persists as one.
        #[test]
        fn a_hop_set_is_a_btree_set(
            ops in proptest::collection::vec(
                (0usize..6, 0u32..9, proptest::collection::vec(0u32..9, 0..4)),
                0..40,
            )
        ) {
            use proptest::{prop_assert, prop_assert_eq};
            let mut set = HopSet::new();
            let mut model = BTreeSet::new();
            for (op, b, batch) in ops {
                let b = BrokerId(b);
                let batch = batch.into_iter().map(BrokerId);
                match op {
                    0 | 1 => prop_assert_eq!(set.insert(b), model.insert(b)),
                    2 => prop_assert_eq!(set.remove(&b), model.remove(&b)),
                    3 => prop_assert_eq!(set.pop_first(), model.pop_first()),
                    4 => {
                        set.extend(batch.clone());
                        model.extend(batch);
                    }
                    _ => {
                        set.clear();
                        model.clear();
                    }
                }
                prop_assert_eq!(set.len(), model.len());
                prop_assert_eq!(set.is_empty(), model.is_empty());
                prop_assert_eq!(set.first(), model.first());
                for id in (0..10).map(BrokerId) {
                    prop_assert_eq!(set.contains(&id), model.contains(&id));
                }
                prop_assert!(set.iter().eq(model.iter()));
                prop_assert!((&set).into_iter().eq(&model));
                prop_assert_eq!(&set, &model.iter().rev().copied().collect::<HopSet>());
                let json = serde_json::to_string(&set).unwrap();
                prop_assert_eq!(&json, &serde_json::to_string(&model).unwrap());
                prop_assert_eq!(&serde_json::from_str::<HopSet>(&json).unwrap(), &set);
            }
        }
    }

    #[test]
    fn a_hop_set_reads_a_sequence_as_a_set() {
        let set: HopSet = serde_json::from_str("[9,3,9,1,7,5,2,3]").unwrap();
        assert_eq!(
            format!("{set:?}"),
            "{BrokerId(1), BrokerId(2), BrokerId(3), BrokerId(5), BrokerId(7), BrokerId(9)}"
        );
        assert_eq!(serde_json::to_string(&set).unwrap(), "[1,2,3,5,7,9]");
    }
}
