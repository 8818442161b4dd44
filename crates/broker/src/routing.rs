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
//! The two tables are built differently because they are used
//! differently. Every publication on every broker of its path asks the
//! PRT "where does this go", so [`Prt`] numbers its rows densely, keys
//! its match index by row number and keeps a *forwarding column* of
//! hops beside the rows: a publication is resolved to its
//! [`Destinations`] by folding the matching row numbers through the
//! column, without listing the rows or walking the row map
//! (DESIGN.md §7, "From match to destinations"). The SRT holds a few
//! dozen advertisements and is only consulted on the control path, so
//! [`Srt`] stays a plain id-keyed map with an id-keyed index.

use std::collections::btree_map::Entry;
use std::collections::hash_map;
use std::collections::{BTreeMap, BTreeSet};

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
    pub alt_lasthops: BTreeSet<BrokerId>,
    /// Neighbours this broker forwarded the advertisement to.
    pub sent_to: BTreeSet<BrokerId>,
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
    pub alt_lasthops: BTreeSet<BrokerId>,
    /// Neighbours this broker forwarded the subscription to.
    pub sent_to: BTreeSet<BrokerId>,
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
        #[cfg(any(test, debug_assertions))]
        assert_eq!(
            out,
            self.overlapping_linear(filter),
            "match index diverged from the linear overlap scan"
        );
        out
    }

    /// Reference implementation of [`Srt::overlapping`]: the full
    /// linear scan. The differential oracle for the index, compiled into
    /// test and debug builds only.
    #[cfg(any(test, debug_assertions))]
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
        #[cfg(any(test, debug_assertions))]
        assert_eq!(
            out,
            self.covering_linear(filter),
            "match index diverged from the linear covering scan"
        );
        out
    }

    /// Reference implementation of [`Srt::covering`]: the full linear
    /// scan. The differential oracle for the index, compiled into
    /// test and debug builds only.
    #[cfg(any(test, debug_assertions))]
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
        #[cfg(any(test, debug_assertions))]
        assert_eq!(
            out,
            self.covered_by_linear(filter),
            "match index diverged from the linear covered-by scan"
        );
        out
    }

    /// Reference implementation of [`Srt::covered_by`]: the full
    /// linear scan.
    #[cfg(any(test, debug_assertions))]
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

    /// Ids of rows with a pending configuration for `move_id`, by
    /// scanning the table: the oracle for the broker core's per-move
    /// pending index, compiled into test and debug builds only.
    #[cfg(any(test, debug_assertions))]
    pub fn pending_for(&self, move_id: MoveId) -> Vec<AdvId> {
        self.entries
            .iter()
            .filter(|(_, e)| e.pending.as_ref().is_some_and(|p| p.move_id == move_id))
            .map(|(id, _)| *id)
            .collect()
    }
}

impl SubEntry {
    /// Every hop a publication matching the row is forwarded to: the
    /// active lasthop, the pending one, the alternates, in that order.
    fn hops(&self) -> impl Iterator<Item = Hop> + '_ {
        let pending = self.pending.as_ref().map(|p| p.lasthop);
        [Some(self.lasthop), pending]
            .into_iter()
            .flatten()
            .chain(self.alt_lasthops.iter().map(|b| Hop::Broker(*b)))
    }
}

/// Where one publication goes from this broker: the answer of
/// [`Prt::destinations_batch`]. Both lists are ascending and
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
}

/// The forwarding fold's accumulator: the destinations found so far,
/// each pushed once, and a seen-bit per census id that keeps it so.
struct Reach {
    dests: Destinations,
    seen: Vec<u64>,
}

impl Reach {
    /// An empty accumulator for a census whose ids are below `width`.
    fn new(width: usize) -> Reach {
        let mut seen = SEEN.take();
        seen.resize(width.div_ceil(64), 0);
        Reach {
            dests: Destinations::default(),
            seen,
        }
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
/// hops ([`SubEntry::hops`] order) and the active lasthop itself.
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
    /// Calls `f` with every id, in [`SubEntry::hops`] order.
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
/// [`Prt::destinations_batch`] stop matching early. It must never
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

/// The PRT's dense row numbers and the forwarding column they index.
///
/// A row keeps its number for as long as it lives; a removed row's
/// number goes to the free list and is handed to a later insert. The
/// numbers are private to one table instance: they are never
/// serialized, and a table rebuilt from its rows numbers them afresh.
#[derive(Debug, Clone, Default)]
struct Column {
    /// Row number → subscription id (stale for the numbers in `free`).
    ids: Vec<SubId>,
    /// Row number → forwarding cell (stale for the numbers in `free`).
    cells: Vec<Cell>,
    free: Vec<u32>,
    /// The census of the live cells.
    census: Census,
}

impl Column {
    fn alloc(&mut self, id: SubId, e: &SubEntry) -> u32 {
        let cell = self.census.count(e);
        match self.free.pop() {
            Some(n) => {
                self.ids[n as usize] = id;
                self.cells[n as usize] = cell;
                n
            }
            None => {
                let n = u32::try_from(self.ids.len()).expect("fewer than 2^32 PRT rows");
                self.ids.push(id);
                self.cells.push(cell);
                n
            }
        }
    }

    /// Frees row number `n`. Its cell stays behind until the number is
    /// handed out again, so its hops leave the census here.
    fn release(&mut self, n: u32) {
        self.census.uncount(&self.cells[n as usize]);
        self.free.push(n);
    }

    /// Re-derives the cell of live row `n` from its entry `e`. The new
    /// hops are counted before the old ones are un-counted, so a hop
    /// the row keeps keeps its id.
    fn set(&mut self, n: u32, e: &SubEntry) {
        if !self.census.names(&self.cells[n as usize], e) {
            let cell = self.census.count(e);
            let old = std::mem::replace(&mut self.cells[n as usize], cell);
            self.census.uncount(&old);
        }
    }
}

/// One PRT row: the entry and its row number.
#[derive(Debug, Clone)]
struct Row {
    n: u32,
    entry: SubEntry,
}

/// The Publication Routing Table.
///
/// Every row has a dense `u32` *row number* (`Column`). The
/// attribute-indexed counting [`MatchIndex`] is keyed by it, and the
/// *forwarding column* beside the rows holds, per row number, the hops
/// a matching publication is forwarded to, each named by its dense id
/// in the column's hop `Census`. Publication forwarding
/// ([`Prt::destinations_batch`]) folds the index's matching row
/// numbers through the column straight into destination sets, one
/// seen-bit per census id: it never lists the matching rows, never
/// touches the row map and never sorts to find repeats, and it stops
/// matching at the row that makes the set every hop of the census,
/// since no further row could add one. The filter
/// queries ([`Prt::matching`], [`Prt::overlapping`], [`Prt::covering`],
/// [`Prt::covered_by`]) translate row numbers back to ids and answer
/// sorted by id, exactly like the linear scans they are asserted
/// against in debug builds.
///
/// Index, column and census are derived state with one writer each
/// side of the row map: [`Prt::insert`] and [`Prt::remove`] for rows
/// coming and going, [`Prt::update`] for the hop bookkeeping of a live
/// row, which re-derives that row's cell, and re-counts its hops if it
/// changed, when the caller's closure returns.
/// Equality and serialization see the rows only; deserialization
/// rebuilds the rest. Never mutate a row's filter through
/// [`Prt::update`]: replacing a filter requires remove-then-insert.
#[derive(Debug, Clone, Default)]
pub struct Prt {
    entries: BTreeMap<SubId, Row>,
    column: Column,
    index: MatchIndex<u32>,
    /// Routing-state version: bumped by every write that could change
    /// what [`Prt::destinations_batch`] answers (row churn *and* every
    /// [`Prt::update`], counted conservatively). A caller that
    /// pre-computes destinations stamps them with this and discards
    /// them if the table has moved on ([`Prt::routing_version`]).
    version: u64,
}

impl PartialEq for Prt {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Serialize for Prt {
    fn serialize<S: serde::ser::Serializer>(&self, ser: S) -> Result<S::Ok, S::Error> {
        ser.collect_seq(self.iter())
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

    /// Rebuilds a table (row numbers, forwarding column and match
    /// index included) from persisted rows.
    ///
    /// Same contract as [`Srt::from_pairs`]: one id appearing twice
    /// with conflicting rows marks the snapshot corrupt and is
    /// rejected; byte-identical duplicates are tolerated (first wins).
    fn from_pairs(pairs: Vec<(SubId, SubEntry)>) -> Result<Self, String> {
        let mut prt = Prt::new();
        for (id, entry) in pairs {
            match prt.entries.entry(id) {
                Entry::Occupied(existing) => {
                    if existing.get().entry != entry {
                        return Err(format!(
                            "PRT snapshot carries subscription {id} twice with \
                             conflicting rows"
                        ));
                    }
                }
                Entry::Vacant(v) => {
                    let n = prt.column.alloc(id, &entry);
                    prt.index.insert(n, &entry.sub.filter);
                    v.insert(Row { n, entry });
                }
            }
        }
        Ok(prt)
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
                let kept = &existing.get().entry.sub.filter;
                if *kept != sub.filter {
                    debug_assert!(
                        false,
                        "subscription {} re-inserted with a different filter \
                         (kept {}, ignored {})",
                        sub.id, kept, sub.filter
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
                let entry = SubEntry {
                    sub,
                    lasthop,
                    alt_lasthops: BTreeSet::new(),
                    sent_to: BTreeSet::new(),
                    pending: None,
                };
                let n = self.column.alloc(entry.sub.id, &entry);
                self.index.insert(n, &entry.sub.filter);
                v.insert(Row { n, entry });
                true
            }
        }
    }

    /// Removes a subscription, returning its row.
    pub fn remove(&mut self, id: SubId) -> Option<SubEntry> {
        self.version = self.version.wrapping_add(1);
        let row = self.entries.remove(&id)?;
        self.index.remove(&row.n);
        self.column.release(row.n);
        Some(row.entry)
    }

    /// Looks up a row.
    pub fn get(&self, id: SubId) -> Option<&SubEntry> {
        self.entries.get(&id).map(|row| &row.entry)
    }

    /// The one way to write to a live row: runs `f` on the entry (hop,
    /// forwarding-set and pending bookkeeping; never the filter, see
    /// the type docs), then bumps the routing version and re-derives
    /// the row's forwarding cell (and with it the hop census). Returns what `f` returned, or `None`
    /// (with nothing touched) if the id is not in the table.
    pub fn update<R>(&mut self, id: SubId, f: impl FnOnce(&mut SubEntry) -> R) -> Option<R> {
        let row = self.entries.get_mut(&id)?;
        self.version = self.version.wrapping_add(1);
        let out = f(&mut row.entry);
        self.column.set(row.n, &row.entry);
        Some(out)
    }

    /// Iterates all rows.
    pub fn iter(&self) -> impl Iterator<Item = (&SubId, &SubEntry)> {
        self.entries.iter().map(|(id, row)| (id, &row.entry))
    }

    /// The routing-state version stamp (see the `version` field): two
    /// equal stamps from the same table guarantee
    /// [`Prt::destinations_batch`] would answer identically.
    pub fn routing_version(&self) -> u64 {
        self.version
    }

    /// Row numbers out of the index → ids, sorted by id (the order the
    /// linear scans produce).
    fn ids_of(&self, rows: Vec<u32>) -> Vec<SubId> {
        let mut ids: Vec<SubId> = rows
            .into_iter()
            .map(|n| self.column.ids[n as usize])
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Ids of subscriptions whose filter matches `publication`, sorted
    /// (the publication-forwarding test, for callers that want the
    /// rows; forwarding itself goes through
    /// [`Prt::destinations_batch`]). Served by the counting index.
    pub fn matching(&self, publication: &Publication) -> Vec<SubId> {
        self.matching_batch(std::slice::from_ref(publication))
            .pop()
            .expect("one result row per publication")
    }

    /// Reference implementation of [`Prt::matching`]: the full linear
    /// scan. The differential oracle for the index, compiled into
    /// test and debug builds only.
    #[cfg(any(test, debug_assertions))]
    pub fn matching_linear(&self, publication: &Publication) -> Vec<SubId> {
        self.iter()
            .filter(|(_, e)| e.sub.filter.matches(publication))
            .map(|(id, _)| *id)
            .collect()
    }

    /// [`Prt::matching`] for every publication of a batch, in batch
    /// order: the index's fold ([`MatchIndex::fold_matching`]) into id
    /// vectors, sorted; asserted against the linear scan in debug
    /// builds.
    pub fn matching_batch(&self, publications: &[Publication]) -> Vec<Vec<SubId>> {
        let ids = &self.column.ids;
        let out = self.index.fold_matching(
            publications,
            Vec::new,
            |row: &mut Vec<SubId>, n| row.push(ids[n as usize]),
            |_| false,
            |row| row.sort_unstable(),
        );
        #[cfg(any(test, debug_assertions))]
        for (row, p) in out.iter().zip(publications) {
            assert_eq!(
                *row,
                self.matching_linear(p),
                "match index diverged from the linear matching scan"
            );
        }
        out
    }

    /// The forwarding query: for every publication of a batch, in
    /// batch order, where it goes from this broker. A destination is
    /// the active lasthop, the pending (shadow) lasthop of an in-flight
    /// movement, or a redundant `alt_lasthops` route of any matching
    /// row, so the prepare–commit window (where both configurations
    /// must receive traffic) and multi-path forwarding are honoured in
    /// one place.
    ///
    /// This is the index's fold ([`MatchIndex::fold_matching`]) with
    /// the forwarding column as its step: per matching row number one
    /// cell is read, and neither the matching ids nor the row map are
    /// ever consulted. A hop is recorded the first time a row names its
    /// census id, so the count of hops found is the length of the
    /// lists. The fold is saturated, and the match ends at the row that
    /// completes it, once that count is the census size: what is owed
    /// is a set of hops, and no further row can add one. Asserted
    /// against [`Prt::destinations_linear`], which scans every row, in
    /// debug builds.
    pub fn destinations_batch(&self, publications: &[&Publication]) -> Vec<Destinations> {
        let Column { cells, census, .. } = &self.column;
        let (hops, width) = (census.len(), census.width());
        let out: Vec<Destinations> = self
            .index
            .fold_matching(
                publications,
                || Reach::new(width),
                |reach, n| cells[n as usize].for_each_hop(census, |id, hop| reach.add(id, hop)),
                |reach| reach.found() == hops,
                Reach::finish,
            )
            .into_iter()
            .map(|reach| reach.dests)
            .collect();
        #[cfg(any(test, debug_assertions))]
        for (dests, p) in out.iter().zip(publications) {
            assert_eq!(
                *dests,
                self.destinations_linear(p),
                "forwarding column diverged from the linear scan of the rows"
            );
        }
        out
    }

    /// [`Prt::destinations_batch`] for one publication.
    pub fn destinations(&self, publication: &Publication) -> Destinations {
        self.destinations_batch(&[publication])
            .pop()
            .expect("one destination set per publication")
    }

    /// Reference implementation of [`Prt::destinations_batch`]: the
    /// linear scan of the rows, reading the hops off the entries into
    /// ordered sets.
    #[cfg(any(test, debug_assertions))]
    pub fn destinations_linear(&self, publication: &Publication) -> Destinations {
        let mut brokers = BTreeSet::new();
        let mut clients = BTreeSet::new();
        for (_, e) in self.iter() {
            if e.sub.filter.matches(publication) {
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

    /// Ids of subscriptions whose filter overlaps `filter`. Served by
    /// the counting index.
    pub fn overlapping(&self, filter: &Filter) -> Vec<SubId> {
        let out = self.ids_of(self.index.overlapping(filter));
        #[cfg(any(test, debug_assertions))]
        assert_eq!(
            out,
            self.overlapping_linear(filter),
            "match index diverged from the linear overlap scan"
        );
        out
    }

    /// Reference implementation of [`Prt::overlapping`]: the full
    /// linear scan.
    #[cfg(any(test, debug_assertions))]
    pub fn overlapping_linear(&self, filter: &Filter) -> Vec<SubId> {
        self.iter()
            .filter(|(_, e)| e.sub.filter.overlaps(filter))
            .map(|(id, _)| *id)
            .collect()
    }

    /// Ids of subscriptions whose filter *covers* `filter` (the
    /// subscription-quench test). Served by the dual-endpoint
    /// containment structure of the counting index.
    pub fn covering(&self, filter: &Filter) -> Vec<SubId> {
        let out = self.ids_of(self.index.covering(filter));
        #[cfg(any(test, debug_assertions))]
        assert_eq!(
            out,
            self.covering_linear(filter),
            "match index diverged from the linear covering scan"
        );
        out
    }

    /// Reference implementation of [`Prt::covering`]: the full linear
    /// scan. The differential oracle for the index, compiled into
    /// test and debug builds only.
    #[cfg(any(test, debug_assertions))]
    pub fn covering_linear(&self, filter: &Filter) -> Vec<SubId> {
        self.iter()
            .filter(|(_, e)| e.sub.filter.covers(filter))
            .map(|(id, _)| *id)
            .collect()
    }

    /// Ids of subscriptions `filter` covers (the active-retraction /
    /// covering-release candidate set that dominates the paper's
    /// mobility unsubscribe bursts). Served by the dual-endpoint
    /// containment structure of the counting index.
    pub fn covered_by(&self, filter: &Filter) -> Vec<SubId> {
        let out = self.ids_of(self.index.covered_by(filter));
        #[cfg(any(test, debug_assertions))]
        assert_eq!(
            out,
            self.covered_by_linear(filter),
            "match index diverged from the linear covered-by scan"
        );
        out
    }

    /// Reference implementation of [`Prt::covered_by`]: the full
    /// linear scan.
    #[cfg(any(test, debug_assertions))]
    pub fn covered_by_linear(&self, filter: &Filter) -> Vec<SubId> {
        self.iter()
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

    /// Ids of rows with a pending configuration for `move_id`, by
    /// scanning the table; see [`Srt::pending_for`].
    #[cfg(any(test, debug_assertions))]
    pub fn pending_for(&self, move_id: MoveId) -> Vec<SubId> {
        self.iter()
            .filter(|(_, e)| e.pending.as_ref().is_some_and(|p| p.move_id == move_id))
            .map(|(id, _)| *id)
            .collect()
    }

    /// Asserts the derived state against the rows: row numbers and ids
    /// map onto each other one to one (live and free numbers partition
    /// the column), every live cell holds the census ids of its entry's
    /// hops, every live hop's id names it back, the mention counts are
    /// the ones counted from the entries and the free ids are exactly
    /// the unmentioned ones, and the index holds every row's filter
    /// under its number and nothing else, its own slot table
    /// consistent. Test support.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let Column {
            ids,
            cells,
            free,
            census,
        } = &self.column;
        assert_eq!(ids.len(), cells.len(), "column halves differ in length");
        assert_eq!(
            self.entries.len() + free.len(),
            ids.len(),
            "live and free row numbers do not partition the column"
        );
        let mut seen: BTreeSet<u32> = free.iter().copied().collect();
        assert_eq!(seen.len(), free.len(), "a row number is free twice");
        let mut recount: BTreeMap<Hop, u32> = BTreeMap::new();
        for (id, row) in &self.entries {
            assert!(seen.insert(row.n), "row number {} held twice", row.n);
            assert_eq!(ids[row.n as usize], *id, "row {} names another id", row.n);
            let derived: Vec<u32> = row
                .entry
                .hops()
                .map(|hop| {
                    *recount.entry(hop).or_insert(0) += 1;
                    *census.ids.get(&hop).expect("a live row's hop has an id")
                })
                .collect();
            let cell = &cells[row.n as usize];
            let mut held = Vec::new();
            cell.for_each_id(|id| held.push(id));
            assert_eq!(held, derived, "forwarding cell of {id} is stale");
            assert!(
                census.names(cell, &row.entry),
                "forwarding cell of {id} is stale"
            );
            assert_eq!(
                self.index.get(&row.n),
                Some(&row.entry.sub.filter),
                "index filter of {id} differs from the row's"
            );
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
        assert_eq!(self.index.len(), self.entries.len(), "index size mismatch");
        self.index.check_slot_invariants();
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
    fn rows_and_index_share_the_callers_filter_body() {
        let s = sub(1, 0, 0, 10);
        let a = adv(2, 0, 0, 10);
        let mut prt = Prt::new();
        let mut srt = Srt::new();
        prt.insert(s.clone(), Hop::Client(ClientId(1)));
        srt.insert(a.clone(), Hop::Client(ClientId(2)));
        let row = prt.entries.get(&s.id).unwrap();
        assert!(Filter::ptr_eq(&row.entry.sub.filter, &s.filter));
        assert!(Filter::ptr_eq(prt.index.get(&row.n).unwrap(), &s.filter));
        assert!(Filter::ptr_eq(
            &srt.get(a.id).unwrap().adv.filter,
            &a.filter
        ));
        assert!(Filter::ptr_eq(srt.index.get(&a.id).unwrap(), &a.filter));
        // A row handed back by `remove` is still the caller's body.
        assert!(Filter::ptr_eq(
            &prt.remove(s.id).unwrap().sub.filter,
            &s.filter
        ));
        // An equal filter built apart is a duplicate, not a conflict.
        prt.insert(s.clone(), Hop::Client(ClientId(1)));
        assert!(!prt.insert(sub(1, 0, 0, 10), Hop::Broker(BrokerId(3))));
        assert!(Filter::ptr_eq(
            &prt.get(s.id).unwrap().sub.filter,
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
        let v0 = prt.routing_version();
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
        assert!(prt.routing_version() > v0);
        prt.check_invariants();
        // An absent id is left alone, closure unrun.
        let v = prt.routing_version();
        assert_eq!(prt.update(SubId::new(ClientId(8), 0), |_| ()), None);
        assert_eq!(prt.routing_version(), v);
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
        assert_eq!(prt.column.ids.len(), 5);
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
        assert_ne!(prt.column.ids, prt2.column.ids);
        assert_eq!(serde_json::to_string(&prt2).unwrap(), json);
        // The rebuilt indexes answer queries (the debug oracle inside
        // matching/overlapping cross-checks them against the scan).
        for x in [7i64, 15, 25, 40] {
            let p = Publication::new().with("x", x);
            assert_eq!(prt2.matching(&p), prt.matching(&p));
            assert_eq!(prt2.destinations(&p), prt.destinations(&p));
        }
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
        pend(&mut prt, s1.id, 9, Hop::Broker(BrokerId(3)));
        assert_eq!(prt.pending_for(MoveId(9)), vec![s1.id]);
        assert!(prt.pending_for(MoveId(8)).is_empty());
    }
}
