//! The broker routing state machine.
//!
//! [`BrokerCore`] is a *pure, synchronous* state machine: it owns the
//! SRT/PRT routing tables and writes the [`BrokerOutput`] effects of
//! one input message, in emission order, into the [`Effects`] sink its
//! caller hands it. Every rule, down to the deepest cascade step,
//! writes into that one sink; only [`BrokerCore::handle`] collects
//! effects into a `Vec` of its own. It performs no I/O and holds no
//! clock, so the same implementation is hosted unchanged by the
//! discrete-event simulator (`transmob-sim`) and by the threaded
//! runtime (`transmob-runtime`).
//!
//! The routing semantics are the paper's (Sec. 2):
//!
//! - **Advertisements flood** the acyclic overlay: an advertisement is
//!   inserted into the SRT as an `{adv, lasthop}` pair and forwarded to
//!   all other neighbours.
//! - **Subscriptions route toward advertisements**: a subscription that
//!   intersects an advertisement is forwarded to that advertisement's
//!   lasthop and inserted into the PRT as a `{sub, lasthop}` pair.
//! - **Publications route toward subscribers**: a publication matching
//!   a PRT subscription is forwarded to the subscription's lasthop,
//!   hop-by-hop to the subscriber.
//!
//! The **covering optimization** (configurable per broker via
//! [`CoveringMode`]) quenches a subscription on links where a covering
//! subscription was already forwarded, and — in
//! [`CoveringMode::Active`], the behaviour the paper analyzes —
//! retracts previously-forwarded covered subscriptions when a covering
//! one is forwarded. Unsubscribing a covering subscription re-issues
//! the subscriptions it quenched; this is exactly the cascade that
//! makes the traditional covering-based movement protocol pathological
//! for mobile clients (paper Sec. 4.4 and Fig. 9/11).
//!
//! Two consistency-maintenance rules keep the tables minimal:
//!
//! - **pull**: inserting an advertisement forwards the already-known
//!   intersecting subscriptions toward it;
//! - **prune**: removing an advertisement retracts subscriptions from
//!   links where no other intersecting advertisement remains.
//!
//! Mobility support: entries can carry a *pending* configuration (the
//! shadow `rc(adv′)` of the paper's Sec. 4.4) installed under a
//! [`MoveId`]; publication forwarding honours both the active and the
//! pending lasthop during the prepare–commit window, and
//! [`BrokerCore::commit_move`] / [`BrokerCore::abort_move`] finish or
//! roll back the transaction. The movement *protocol* itself lives in
//! `transmob-core`.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::ControlFlow;
use std::thread::LocalKey;

use serde::{Deserialize, Serialize};
use transmob_pubsub::fasthash::FastSet;
use transmob_pubsub::{
    AdvId, Advertisement, BrokerId, ClientId, Filter, MoveId, PubId, PublicationMsg, SubId,
    Subscription,
};

use crate::messages::{BrokerOutput, Effects, Hop, MsgKind, PubSubMsg};
use crate::routing::{Destinations, Entry, HopSet, PendingRoute, Prt, Routed, Srt, Table, Visit};

/// How aggressively a broker applies the covering optimization to
/// subscription (or advertisement) propagation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum CoveringMode {
    /// No covering: every subscription propagates toward every
    /// intersecting advertisement. This is the mode the reconfiguration
    /// protocol is evaluated with.
    #[default]
    Off,
    /// Quench new subscriptions covered by already-forwarded ones, but
    /// never retract previously-forwarded subscriptions.
    Lazy,
    /// Full covering as described in the paper: quench covered
    /// subscriptions *and* retract previously-forwarded subscriptions
    /// when a covering one is forwarded (and re-issue them when the
    /// covering one is removed).
    Active,
}

impl CoveringMode {
    /// Whether any quenching is performed.
    pub fn enabled(self) -> bool {
        !matches!(self, CoveringMode::Off)
    }
}

/// Static configuration of a broker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct BrokerConfig {
    /// Covering mode for subscription propagation.
    pub sub_covering: CoveringMode,
    /// Covering mode for advertisement propagation.
    pub adv_covering: CoveringMode,
    /// Release behaviour when a covering subscription (or
    /// advertisement) is withdrawn. The paper's PADRES-era behaviour —
    /// "unsubscriptions of the root subscription induce subscriptions
    /// of the non-root subscriptions" — re-forwards everything the
    /// withdrawn entry covered, leaving any re-quenching to the
    /// downstream broker (`true`, the default for covering
    /// deployments). The precise variant (`false`) first checks
    /// whether another already-forwarded entry still covers the
    /// candidate; it is cheaper but requires a full table scan per
    /// candidate and is evaluated as an ablation.
    pub conservative_release: bool,
    /// Multi-path forwarding for cyclic overlays: duplicate
    /// advertisement/subscription arrivals are recorded as redundant
    /// routes (`alt_lasthops`), publications fan out along every known
    /// route, and a bounded [`DedupWindow`] keeps delivery exactly
    /// once. Off (the default) on trees, where the single-path
    /// behaviour is bit-identical to previous releases; drivers turn
    /// it on automatically when the topology contains a cycle.
    #[serde(default)]
    pub multipath: bool,
}

impl BrokerConfig {
    /// Configuration with all covering disabled (reconfiguration
    /// protocol deployments).
    pub fn plain() -> Self {
        BrokerConfig::default()
    }

    /// Configuration with full covering enabled for both subscriptions
    /// and advertisements (traditional covering deployments), with the
    /// paper's conservative release behaviour.
    pub fn covering() -> Self {
        BrokerConfig {
            sub_covering: CoveringMode::Active,
            adv_covering: CoveringMode::Active,
            conservative_release: true,
            ..BrokerConfig::default()
        }
    }

    /// Full covering with the precise release ablation.
    pub fn covering_precise_release() -> Self {
        BrokerConfig {
            conservative_release: false,
            ..BrokerConfig::covering()
        }
    }

    /// The same configuration with multi-path forwarding enabled (for
    /// cyclic overlays).
    pub fn with_multipath(mut self) -> Self {
        self.multipath = true;
        self
    }
}

/// Number of publication ids each broker remembers for exactly-once
/// multi-path dedup. See [`DedupWindow`] for the sizing rationale.
pub const DEDUP_WINDOW_CAP: usize = 2048;

/// Hard upper bound on broker-to-broker hops a publication may travel
/// under multi-path forwarding. The dedup window terminates cycles in
/// every expected execution; the hop bound is the backstop that keeps
/// a publication finite even if the window were to thrash, at which
/// point the drop is counted as an anomaly.
pub const MAX_PUB_HOPS: u32 = 64;

/// Bounded exactly-once window over recently seen publication ids,
/// with generational eviction.
///
/// On a cyclic overlay a publication can reach a broker over more than
/// one path; the first arrival is forwarded/delivered and its id
/// recorded, later arrivals are dropped. The window keeps two
/// generations of `cap / 2` ids each: inserts fill the current
/// generation, and when it is full the older generation is forgotten
/// wholesale and the roles swap. The window therefore remembers
/// between `cap / 2` and `cap` ids, and an id is guaranteed
/// remembered for at least the next `cap / 2 - 1` *distinct*
/// publications traversing the broker — with [`DEDUP_WINDOW_CAP`] =
/// 2048, a duplicate only slips through if over 1023 distinct
/// publications pass between the two arrivals of one id. Duplicate
/// copies of one publication are separated by at most the overlay's
/// in-flight capacity (the publications admitted while the slower
/// copy finishes its alternate path), so the window only has to
/// out-last that interval, not the full history (DESIGN.md §15
/// documents the contract).
///
/// Sizing and layout are performance-critical: the insert sits on the
/// per-publication forwarding path of every multipath broker. The
/// generational design keeps it at two hashed probes with no
/// per-insert eviction bookkeeping (a strict FIFO pays probe + queue
/// traffic + per-insert removal for no protocol-level gain), and the
/// capacity keeps both generations' tables cache-resident — the probes
/// are random-access, so an oversized window turns every forward into
/// a cache miss, which is what the `dedup_gate` bench gate in
/// scripts/bench_check.sh would catch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DedupWindow {
    // Serialized sorted so the hash sets' iteration order never leaks
    // into checkpoint bytes.
    #[serde(with = "serde_sorted_ids")]
    cur: FastSet<PubId>,
    #[serde(with = "serde_sorted_ids")]
    old: FastSet<PubId>,
    cap: usize,
}

/// Serializes the dedup membership set in sorted order: the hash
/// set's iteration order must not leak into checkpoint bytes.
mod serde_sorted_ids {
    use serde::de::Deserializer;
    use serde::ser::Serializer;
    use serde::{Deserialize, Serialize};
    use transmob_pubsub::fasthash::FastSet;
    use transmob_pubsub::PubId;

    pub fn serialize<S: Serializer>(set: &FastSet<PubId>, ser: S) -> Result<S::Ok, S::Error> {
        let mut ids: Vec<PubId> = set.iter().copied().collect();
        ids.sort_unstable();
        ids.serialize(ser)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(de: D) -> Result<FastSet<PubId>, D::Error> {
        let ids: Vec<PubId> = Vec::deserialize(de)?;
        Ok(ids.into_iter().collect())
    }
}

impl Default for DedupWindow {
    fn default() -> Self {
        DedupWindow::with_capacity(DEDUP_WINDOW_CAP)
    }
}

impl DedupWindow {
    /// A window remembering at most `cap` ids, at least the most
    /// recent `cap / 2` (`cap >= 2`).
    pub fn with_capacity(cap: usize) -> Self {
        assert!(cap >= 2, "dedup window needs capacity for a generation");
        DedupWindow {
            cur: FastSet::default(),
            old: FastSet::default(),
            cap,
        }
    }

    /// Records `id`, rotating the older generation out if the current
    /// one is full. Returns `true` when `id` was fresh (not currently
    /// in the window) — i.e. when the caller should process the
    /// publication rather than drop it as a duplicate.
    pub fn insert(&mut self, id: PubId) -> bool {
        if self.old.contains(&id) {
            return false;
        }
        if !self.cur.insert(id) {
            return false;
        }
        if self.cur.len() >= self.cap / 2 {
            std::mem::swap(&mut self.cur, &mut self.old);
            // clear() keeps the allocation, so after warm-up the
            // rotation allocates nothing.
            self.cur.clear();
        }
        true
    }

    /// Whether `id` is currently remembered.
    pub fn contains(&self, id: PubId) -> bool {
        self.cur.contains(&id) || self.old.contains(&id)
    }

    /// Number of ids currently remembered (at most the capacity).
    /// The generations are disjoint: an id remembered in the older one
    /// is never re-inserted into the current one.
    pub fn len(&self) -> usize {
        self.cur.len() + self.old.len()
    }

    /// Whether the window has seen nothing yet.
    pub fn is_empty(&self) -> bool {
        self.cur.is_empty() && self.old.is_empty()
    }

    /// The eviction capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }
}

/// Counters a broker keeps about its own processing, for metrics and
/// anomaly detection in tests.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BrokerStats {
    /// Messages handled, by kind.
    pub handled: BTreeMap<MsgKind, u64>,
    /// Messages that referenced unknown ids (tolerated, but counted;
    /// zero on healthy runs of the reconfiguration protocol).
    pub anomalies: u64,
    /// Transient re-route events: an entry adopted a new lasthop, or a
    /// retraction arrived from a stale direction. Expected while the
    /// make-before-break covering variant overlaps the old and new
    /// subscription trees; zero otherwise.
    pub reroutes: u64,
}

/// The broker routing state machine. See the module docs for the
/// semantics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BrokerCore {
    id: BrokerId,
    neighbors: BTreeSet<BrokerId>,
    srt: Srt,
    prt: Prt,
    clients: BTreeSet<ClientId>,
    config: BrokerConfig,
    stats: BrokerStats,
    /// The pending (shadow) configurations, indexed by movement: one
    /// entry per row whose `pending` is set, keyed by the movement that
    /// set it, so [`BrokerCore::commit_move`] and
    /// [`BrokerCore::abort_move`] take their movement's range instead
    /// of scanning the tables. The value is what the row cannot hold:
    /// the forwarding-set addition to apply at commit, and whether the
    /// transaction created the row (so abort removes it). Written only
    /// by `install_pending_*`, `take_pending` and the two row-removal
    /// sites (`drop_pending`).
    #[serde(with = "crate::routing::serde_pairs")]
    pending_meta: BTreeMap<(MoveId, PendingEntry), PendingMeta>,
    /// Exactly-once window for multi-path forwarding; only consulted
    /// when [`BrokerConfig::multipath`] is set, so tree deployments
    /// pay nothing for it.
    #[serde(default)]
    dedup: DedupWindow,
}

thread_local! {
    /// The destination lists of the publication being routed, handed
    /// from one publication to the next so that, once they have grown,
    /// routing one allocates none for them. A broker that finds them
    /// taken starts empty ones.
    static DESTS: Cell<Destinations> = const {
        Cell::new(Destinations {
            brokers: Vec::new(),
            clients: Vec::new(),
        })
    };

    /// Spare id lists of each kind for [`with_ids`]: a stack, since a
    /// rule's loop over its list may run another such rule.
    static SPARE_ADVS: RefCell<Vec<Vec<AdvId>>> = const { RefCell::new(Vec::new()) };
    static SPARE_SUBS: RefCell<Vec<Vec<SubId>>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on an empty list of ids of kind `T` taken from the
/// per-thread spares, and returns the list to them, emptied: a rule
/// collects the rows a table query visits into it, then writes the
/// table, and once the lists have grown neither allocates.
fn with_ids<T: Kind>(f: impl FnOnce(&mut Vec<T::Id>)) {
    let mut ids = T::SPARE.with_borrow_mut(Vec::pop).unwrap_or_default();
    f(&mut ids);
    ids.clear();
    T::SPARE.with_borrow_mut(|spare| spare.push(ids));
}

/// What a visitor that looks for one row answers: stop at a `hit`.
fn stop_if(hit: bool) -> ControlFlow<()> {
    if hit {
        ControlFlow::Break(())
    } else {
        ControlFlow::Continue(())
    }
}

/// The quench test's visitor: breaks at the first row, other than
/// `id`, that was forwarded on link `n` and did not come from there.
fn quencher<T: Routed>(id: T::Id, n: BrokerId) -> impl Visit<T> {
    move |oid, e| stop_if(oid != id && e.sent_to.contains(&n) && e.lasthop != Hop::Broker(n))
}

/// The row a pending configuration sits on. Advertisements order
/// before subscriptions and each kind by id: the order in which a
/// commit rewrites a movement's rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
enum PendingEntry {
    Adv(AdvId),
    Sub(SubId),
}

impl PendingEntry {
    /// The smallest value: where a movement's key range starts.
    const FIRST: PendingEntry = PendingEntry::Adv(AdvId {
        client: ClientId(0),
        seq: 0,
    });
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct PendingMeta {
    /// Neighbour to add to `sent_to` at commit (the old subscriber /
    /// publisher direction, over which later retractions travel).
    commit_sent_add: Option<BrokerId>,
    /// The entry did not exist before the transaction installed it, or
    /// lost its active route while the transaction was pending.
    created: bool,
}

impl BrokerCore {
    /// Creates a broker with the given overlay neighbours.
    pub fn new(
        id: BrokerId,
        neighbors: impl IntoIterator<Item = BrokerId>,
        config: BrokerConfig,
    ) -> Self {
        BrokerCore {
            id,
            neighbors: neighbors.into_iter().collect(),
            srt: Srt::new(),
            prt: Prt::new(),
            clients: BTreeSet::new(),
            config,
            stats: BrokerStats::default(),
            pending_meta: BTreeMap::new(),
            dedup: DedupWindow::default(),
        }
    }

    /// This broker's id.
    pub fn id(&self) -> BrokerId {
        self.id
    }

    /// The overlay neighbours.
    pub fn neighbors(&self) -> &BTreeSet<BrokerId> {
        &self.neighbors
    }

    /// The broker configuration.
    pub fn config(&self) -> BrokerConfig {
        self.config
    }

    /// Read access to the SRT (tests and property checkers).
    pub fn srt(&self) -> &Srt {
        &self.srt
    }

    /// Read access to the PRT (tests and property checkers).
    pub fn prt(&self) -> &Prt {
        &self.prt
    }

    /// Processing statistics.
    pub fn stats(&self) -> &BrokerStats {
        &self.stats
    }

    /// Read access to the multi-path dedup window (tests and property
    /// checkers).
    pub fn dedup_window(&self) -> &DedupWindow {
        &self.dedup
    }

    /// The movements with a pending (shadow) configuration installed
    /// here, ascending. Empty once every movement through this broker
    /// has committed or aborted.
    pub fn pending_moves(&self) -> Vec<MoveId> {
        let mut moves: Vec<MoveId> = self.pending_meta.keys().map(|(m, _)| *m).collect();
        moves.dedup();
        moves
    }

    /// Asserts the derived state against the rows: each table's own
    /// invariants ([`Table::check_invariants`]), and the per-move
    /// pending index naming exactly the rows whose `pending` is set,
    /// under the movement that set it. Test support.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        self.srt.check_invariants();
        self.prt.check_invariants();
        let advs = self.srt.iter().filter_map(|(id, e)| {
            let p = e.pending.as_ref()?;
            Some((p.move_id, PendingEntry::Adv(*id)))
        });
        let subs = self.prt.iter().filter_map(|(id, e)| {
            let p = e.pending.as_ref()?;
            Some((p.move_id, PendingEntry::Sub(*id)))
        });
        let on_rows: BTreeSet<(MoveId, PendingEntry)> = advs.chain(subs).collect();
        let indexed: BTreeSet<(MoveId, PendingEntry)> = self.pending_meta.keys().copied().collect();
        assert_eq!(
            indexed, on_rows,
            "pending index differs from the rows' pending configurations"
        );
    }

    /// Registers a locally attached client.
    pub fn attach_client(&mut self, c: ClientId) {
        self.clients.insert(c);
    }

    /// Unregisters a locally attached client. Routing entries issued by
    /// the client are *not* removed; the mobility protocols manage
    /// them explicitly.
    pub fn detach_client(&mut self, c: ClientId) {
        self.clients.remove(&c);
    }

    /// The attached clients.
    pub fn clients(&self) -> &BTreeSet<ClientId> {
        &self.clients
    }

    /// Handles one routing-layer message arriving from `from`,
    /// collecting its effects in emission order.
    ///
    /// The one `Vec`-collecting convenience, for tests and benches:
    /// [`BrokerCore::handle_into`] into a fresh vector. A batch is the
    /// fold of [`BrokerCore::handle_into`] over its messages.
    pub fn handle(&mut self, from: Hop, msg: PubSubMsg) -> Vec<BrokerOutput> {
        let mut out = Vec::new();
        self.handle_into(from, msg, &mut out);
        out
    }

    /// Handles one routing-layer message arriving from `from`, writing
    /// its effects into `effects`, which the caller owns and may keep
    /// from one step to the next: the one ingestion path. A
    /// publication is matched here, against the routing state as this
    /// message finds it.
    pub fn handle_into(&mut self, from: Hop, msg: PubSubMsg, effects: &mut impl Effects) {
        *self.stats.handled.entry(msg.kind()).or_insert(0) += 1;
        match msg {
            PubSubMsg::Publish(p) => self.route_publication(from, p, effects),
            PubSubMsg::Advertise(a) => self.handle_add(from, a, effects),
            PubSubMsg::Unadvertise(id) => self.handle_retract::<Advertisement>(from, id, effects),
            PubSubMsg::Subscribe(s) => self.handle_add(from, s, effects),
            PubSubMsg::Unsubscribe(id) => self.handle_retract::<Subscription>(from, id, effects),
            PubSubMsg::RepairAdv(a) => self.handle_repair(from, a, effects),
            PubSubMsg::RepairSub(s) => self.handle_repair(from, s, effects),
        }
    }

    /// Routes one publication through a fresh match
    /// ([`Prt::destinations_into`]) into the reused lists of `DESTS`.
    fn route_publication(&mut self, from: Hop, p: PublicationMsg, effects: &mut impl Effects) {
        if self.config.multipath && !self.dedup.insert(p.id) {
            // A publication already forwarded and delivered here via
            // another path of the cyclic overlay is dropped before it
            // costs a match.
            return;
        }
        let mut dests = DESTS.take();
        self.prt.destinations_into(&p.content, &mut dests);
        self.emit_publish(from, p, &dests, effects);
        DESTS.set(dests);
    }

    // ----- routing rules, one copy for both tables ---------------------

    /// An advertisement or subscription arriving from `from`: inserted,
    /// or, if its row exists, the new direction adopted; then forwarded
    /// on ([`Kind::propagate`]).
    fn handle_add<T: Kind>(&mut self, from: Hop, item: T, effects: &mut impl Effects) {
        let id = item.id();
        if !T::table_mut(self).insert(item, from) {
            self.adopt_route::<T>(id, from);
        }
        T::propagate(self, id, from, effects);
    }

    /// Row `id` arrived again, from `from`.
    fn adopt_route<T: Kind>(&mut self, id: T::Id, from: Hop) {
        let lasthop = T::table(self).get(id).expect("the row is present").lasthop;
        if lasthop == from {
            return;
        }
        if self.anchored_here(lasthop) {
            // The client is attached HERE: the entry is authoritative
            // and only a movement commit may re-point it. Adopting an
            // overlay direction would let a later retraction on that
            // link (e.g. an overlay-repair purge racing this
            // re-propagation) annihilate the client's own entry.
            self.stats.reroutes += 1;
        } else if let (true, Hop::Broker(nb)) = (self.config.multipath, from) {
            // Cyclic overlay: the item reached this broker over a
            // second path. Keep the first-arrival parent as the primary
            // route and record the new direction as a redundant one
            // (an advertisement's routing "tree" becomes a DAG rooted
            // at the advertiser); traffic follows both.
            T::table_mut(self).update(id, |e| e.alt_lasthops.insert(nb));
        } else {
            // A re-route while the old and new trees overlap
            // (make-before-break, overlay repair): adopt the newest
            // direction.
            T::table_mut(self).update(id, |e| e.lasthop = from);
            self.stats.reroutes += 1;
        }
    }

    /// Whether `hop` is a client currently attached to this broker —
    /// the one case where a routing entry's lasthop is ground truth
    /// rather than learned overlay state.
    fn anchored_here(&self, hop: Hop) -> bool {
        matches!(hop, Hop::Client(c) if self.clients.contains(&c))
    }

    /// Forwards row `id` to neighbour `n` unless it came from there,
    /// was already sent there, or is quenched by covering; in active
    /// covering mode, retracts the rows it covers on that link.
    /// Returns whether it forwarded.
    fn forward_to<T: Kind>(&mut self, id: T::Id, n: BrokerId, effects: &mut impl Effects) -> bool {
        let Some(entry) = T::table(self).get(id) else {
            return false;
        };
        if entry.lasthop == Hop::Broker(n)
            || entry.sent_to.contains(&n)
            || entry.alt_lasthops.contains(&n)
        {
            return false;
        }
        let filter = entry.item.filter().clone();
        let covering = T::covering(&self.config);
        if covering.enabled() && self.quenched_on::<T>(n, id, &filter) {
            return false;
        }
        let Some(msg) = entry.item.forward_msg() else {
            return false;
        };
        T::table_mut(self).update(id, |e| e.sent_to.insert(n));
        effects.emit(BrokerOutput::ToBroker(n, msg));
        if covering == CoveringMode::Active {
            // Retract previously-forwarded rows now covered on this
            // link. The containment index enumerates the covered
            // candidates; the hop conditions are checked per survivor.
            with_ids::<T>(|retract| {
                let _ = T::table(self).covered_by(&filter, |oid, e| {
                    if oid != id && e.sent_to.contains(&n) && !e.item.filter().covers(&filter) {
                        retract.push(oid);
                    }
                    ControlFlow::Continue(())
                });
                for &oid in retract.iter() {
                    T::table_mut(self).update(oid, |e| e.sent_to.remove(&n));
                    effects.emit(BrokerOutput::ToBroker(n, T::retract_msg(oid)));
                }
            });
        }
        true
    }

    /// Whether row `id` with `filter` is quenched on link `n` by some
    /// covering row already forwarded there: the first such row ends
    /// the query.
    fn quenched_on<T: Kind>(&self, n: BrokerId, id: T::Id, filter: &Filter) -> bool {
        T::table(self).covering(filter, quencher(id, n)).is_break()
    }

    /// A retraction of row `id` arriving from `from`.
    fn handle_retract<T: Kind>(&mut self, from: Hop, id: T::Id, effects: &mut impl Effects) {
        let Some(entry) = T::table(self).get(id) else {
            // Stale retraction: the entry was already removed by a
            // crossing retraction (idempotent outcome).
            self.stats.reroutes += 1;
            return;
        };
        if entry.lasthop != from {
            if let (true, Hop::Broker(nb)) = (self.config.multipath, from) {
                if entry.alt_lasthops.contains(&nb) {
                    // One of several redundant routes retracted; the
                    // entry stays, justified by the primary route.
                    T::table_mut(self).update(id, |e| e.alt_lasthops.remove(&nb));
                    return T::route_withdrawn(self, nb, effects);
                }
            }
            // Retractions travel the reverse of the forwarding path; a
            // mismatch means the entry was re-routed while the
            // retraction was in flight — ignore the stale retraction.
            self.stats.reroutes += 1;
            return;
        }
        if self.config.multipath {
            if let Some(&next) = entry.alt_lasthops.first() {
                // The primary route retracted but redundant routes
                // survive: promote the smallest one instead of removing
                // the entry. The other arms of the retraction will
                // strip the remaining routes; only the last one removes
                // the entry and cascades.
                let old = entry.lasthop;
                T::table_mut(self).update(id, |e| {
                    e.alt_lasthops.remove(&next);
                    e.lasthop = Hop::Broker(next);
                });
                if let Hop::Broker(old) = old {
                    T::route_withdrawn(self, old, effects);
                }
                return;
            }
        }
        T::last_route_retracted(self, id, effects);
    }

    /// Removes row `id`, retracts it on every link it was forwarded
    /// over, withdraws its route ([`Kind::route_withdrawn`]), and
    /// releases what it quenched.
    fn remove_row<T: Kind>(&mut self, id: T::Id, effects: &mut impl Effects) {
        let Some(entry) = T::table_mut(self).remove(id) else {
            return;
        };
        self.drop_pending(T::pending_key(id), &entry.pending);
        for n in &entry.sent_to {
            effects.emit(BrokerOutput::ToBroker(*n, T::retract_msg(id)));
        }
        if let Hop::Broker(n) = entry.lasthop {
            T::route_withdrawn(self, n, effects);
        }
        if T::covering(&self.config).enabled() {
            for n in &entry.sent_to {
                self.release_quenched::<T>(*n, entry.item.filter(), effects);
            }
        }
    }

    /// Re-evaluates link `n` after `removed` was withdrawn from it: any
    /// row it covered that the link needs ([`Kind::needed_on`]) and
    /// that has not been sent there is forwarded now. This implements
    /// the covering-release cascade of the paper's pathological case.
    ///
    /// With `conservative_release` (the paper's behaviour) every such
    /// candidate is re-forwarded, even if another covering row is still
    /// forwarded on the link — re-quenching is left to the downstream
    /// broker. The precise variant suppresses candidates still covered
    /// locally (the quench check inside `forward_to`).
    fn release_quenched<T: Kind>(
        &mut self,
        n: BrokerId,
        removed: &Filter,
        effects: &mut impl Effects,
    ) {
        with_ids::<T>(|candidates| {
            let _ = T::table(self).covered_by(removed, |id, e| {
                if e.lasthop != Hop::Broker(n) && !e.sent_to.contains(&n) {
                    candidates.push(id);
                }
                ControlFlow::Continue(())
            });
            for &id in candidates.iter() {
                if !T::needed_on(self, id, n) {
                    continue;
                }
                if self.config.conservative_release {
                    self.forward_unchecked::<T>(id, n, effects);
                } else {
                    self.forward_to::<T>(id, n, effects);
                }
            }
        });
    }

    /// Forwards row `id` to `n` bypassing the quench check
    /// (conservative covering release).
    fn forward_unchecked<T: Kind>(&mut self, id: T::Id, n: BrokerId, effects: &mut impl Effects) {
        let msg = T::table_mut(self).update(id, |e| {
            if e.lasthop == Hop::Broker(n) || e.alt_lasthops.contains(&n) || e.sent_to.contains(&n)
            {
                return None;
            }
            let msg = e.item.forward_msg()?;
            e.sent_to.insert(n);
            Some(msg)
        });
        if let Some(msg) = msg.flatten() {
            effects.emit(BrokerOutput::ToBroker(n, msg));
        }
    }

    /// An advertisement or subscription re-propagated by an overlay
    /// repair: the insert-or-adopt of a plain one, whose lasthop
    /// adoption is exactly what makes a repair flood converge
    /// regardless of whether it arrives before or after this broker ran
    /// its own purge. The onward flood and the pulled subscriptions
    /// keep the repair tag ([`RepairTag`]) so repair traffic stays
    /// identifiable across the overlay.
    fn handle_repair<T: Kind>(&mut self, from: Hop, item: T, effects: &mut impl Effects) {
        if let Some(entry) = T::table(self).get(item.id()) {
            if !entry.alt_lasthops.is_empty() {
                // The entry already holds multiple routes, so "adopt
                // the new unique route" has no well-defined target and
                // would silently pick one. Traffic already fans out
                // along every surviving route under the multi-path
                // forwarder, so the re-propagation is a no-op here.
                debug_assert!(
                    self.config.multipath,
                    "{} {} holds multiple routes but multi-path forwarding is \
                     disabled; repair re-propagation would silently pick one of them",
                    T::NOUN,
                    item.id()
                );
                return;
            }
        }
        self.handle_add(from, item, &mut RepairTag(effects));
    }

    // ----- rules of one kind -----------------------------------------

    /// The neighbours toward the advertisements overlapping `filter`,
    /// ascending: each one's active, pending and redundant directions.
    /// A subscription is forwarded toward them, and is needed on no
    /// other link.
    fn adv_directions(&self, filter: &Filter) -> HopSet {
        let mut dirs = HopSet::new();
        let _ = self.srt.overlapping(filter, |_, entry| {
            for hop in entry.hops() {
                if let Hop::Broker(n) = hop {
                    dirs.insert(n);
                }
            }
            ControlFlow::Continue(())
        });
        dirs
    }

    /// Whether one of [`BrokerCore::adv_directions`] of `filter` is
    /// `n`: the first advertisement that lies that way ends the query.
    fn adv_toward(&self, filter: &Filter, n: BrokerId) -> bool {
        let toward =
            |_, e: &Entry<Advertisement>| stop_if(e.hops().any(|hop| hop == Hop::Broker(n)));
        self.srt.overlapping(filter, toward).is_break()
    }

    /// The flood copy of an advertisement: its residual TTL budget
    /// decremented by the hop about to be taken, or `None` when the
    /// budget is exhausted and the flood must stop here.
    fn flood_copy(adv: &Advertisement) -> Option<Advertisement> {
        let mut a = adv.clone();
        match &mut a.ttl {
            Some(0) => return None,
            Some(t) => *t -= 1,
            None => {}
        }
        Some(a)
    }

    /// Retracts subscriptions from link `n` when no intersecting
    /// advertisement (active or pending) remains in that direction.
    fn prune_subs_on_link(&mut self, n: BrokerId, effects: &mut impl Effects) {
        let candidates: Vec<SubId> = (self.prt.iter())
            .filter(|(_, e)| e.sent_to.contains(&n))
            .map(|(id, _)| *id)
            .collect();
        for id in candidates {
            self.prune_sub_link(id, n, effects);
        }
    }

    /// Retracts subscription `id` from link `n` if no intersecting
    /// advertisement (active or pending) lies that way. Used by the
    /// prune rule and by movement-transaction rollback.
    pub fn prune_sub_link(&mut self, id: SubId, n: BrokerId, effects: &mut impl Effects) {
        let Some(entry) = self.prt.get(id) else {
            return;
        };
        if !entry.sent_to.contains(&n) || self.adv_toward(&entry.item.filter, n) {
            return;
        }
        self.prt.update(id, |e| e.sent_to.remove(&n));
        effects.emit(BrokerOutput::ToBroker(n, PubSubMsg::Unsubscribe(id)));
    }

    /// Pull rule: forwards every intersecting subscription toward
    /// neighbour `nf`, where advertisement `id` arrived from. The
    /// reconfiguration protocol runs it (paper Sec. 4.4, PRT cases 1
    /// and 3) against a pending advertisement configuration.
    ///
    /// Returns the subscriptions the pull put on the link (ascending;
    /// covering may quench a candidate, or retract it again in favour
    /// of a later one), which is what a movement records to undo on
    /// abort.
    pub fn pull_subs_toward(
        &mut self,
        id: AdvId,
        nf: BrokerId,
        effects: &mut impl Effects,
    ) -> Vec<SubId> {
        let mut pulled = Vec::new();
        self.pull(id, nf, effects, |sid| pulled.push(sid));
        pulled.retain(|sid| self.prt.get(*sid).is_some_and(|e| e.sent_to.contains(&nf)));
        pulled
    }

    /// The pull rule of [`BrokerCore::pull_subs_toward`], handing each
    /// subscription it forwarded to `forwarded`. The advertisement
    /// flood records nothing; a movement records what to undo.
    fn pull(
        &mut self,
        id: AdvId,
        nf: BrokerId,
        effects: &mut impl Effects,
        mut forwarded: impl FnMut(SubId),
    ) {
        with_ids::<Subscription>(|candidates| {
            let Some(entry) = self.srt.get(id) else {
                return;
            };
            let _ = self.prt.overlapping(&entry.item.filter, |sid, e| {
                if e.lasthop != Hop::Broker(nf) && !e.sent_to.contains(&nf) {
                    candidates.push(sid);
                }
                ControlFlow::Continue(())
            });
            for &sid in candidates.iter() {
                if self.forward_to::<Subscription>(sid, nf, effects) {
                    forwarded(sid);
                }
            }
        });
    }

    // ----- overlay repair --------------------------------------------

    /// Applies an overlay repair at this broker after `dead` was
    /// declared dead: mutates the neighbour set (`new_peers` are the
    /// repair edges incident to this broker), purges every routing
    /// entry learned through the dead link *as a retraction cascade*
    /// (so prune and covering release propagate the cleanup through
    /// the whole surviving subtree), and pushes the surviving
    /// advertisements over each new edge as [`PubSubMsg::RepairAdv`].
    /// The receiving side pulls its matching subscriptions back as
    /// [`PubSubMsg::RepairSub`], so both directions converge once both
    /// endpoints of a new edge have run their repair — no handshake
    /// round-trip is needed.
    ///
    /// In covering modes the push deliberately skips the quench check:
    /// over-propagating across a repair edge is always safe (the
    /// downstream broker re-quenches), whereas quenching against
    /// not-yet-repaired state could suppress a needed route.
    ///
    /// Returns the ids of movement transactions whose pending (shadow)
    /// configuration references the dead broker — those can no longer
    /// commit toward it and must be aborted by the movement layer.
    pub fn repair_neighbors(
        &mut self,
        dead: BrokerId,
        new_peers: &[BrokerId],
        effects: &mut impl Effects,
    ) -> Vec<MoveId> {
        self.neighbors.remove(&dead);
        for p in new_peers {
            if *p != self.id {
                self.neighbors.insert(*p);
            }
        }
        let mut doomed: BTreeSet<MoveId> = BTreeSet::new();
        self.forget_link::<Advertisement>(dead, &mut doomed);
        self.forget_link::<Subscription>(dead, &mut doomed);
        // Purge: withdraw every entry learned over the dead link
        // exactly as if the dead broker had retracted it. The
        // `lasthop == from` check of the retraction holds by
        // construction, and the resulting cascade cleans the entry
        // from every surviving broker downstream.
        self.purge::<Advertisement>(dead, effects);
        self.purge::<Subscription>(dead, effects);
        // Re-propagate the surviving advertisements over each new
        // edge.
        for &p in new_peers {
            if p == self.id {
                continue;
            }
            let push: Vec<AdvId> = (self.srt.iter())
                .filter(|(_, e)| e.lasthop != Hop::Broker(p) && !e.sent_to.contains(&p))
                .map(|(id, _)| *id)
                .collect();
            for id in push {
                let copy = self.srt.update(id, |e| {
                    let adv = Self::flood_copy(&e.item)?;
                    e.sent_to.insert(p);
                    Some(adv)
                });
                if let Some(adv) = copy.flatten() {
                    effects.emit(BrokerOutput::ToBroker(p, PubSubMsg::RepairAdv(adv)));
                }
            }
        }
        doomed.into_iter().collect()
    }

    /// The first half of a repair, per table: collects the movements
    /// whose shadow configuration routes via the dead broker (before
    /// the purge, which may remove the very entries holding them), and
    /// forgets the dead link as a redundant route and as a forwarding
    /// target, so the purge promotes only *surviving* alternates and
    /// addresses no retraction to the dead link.
    fn forget_link<T: Kind>(&mut self, dead: BrokerId, doomed: &mut BTreeSet<MoveId>) {
        let table = T::table(self);
        for (_, e) in table.iter() {
            match &e.pending {
                Some(p) if p.lasthop == Hop::Broker(dead) => doomed.insert(p.move_id),
                _ => false,
            };
        }
        let touched: Vec<T::Id> = (table.iter())
            .filter(|(_, e)| e.alt_lasthops.contains(&dead) || e.sent_to.contains(&dead))
            .map(|(id, _)| *id)
            .collect();
        for id in touched {
            T::table_mut(self).update(id, |e| {
                e.alt_lasthops.remove(&dead);
                e.sent_to.remove(&dead);
            });
        }
    }

    /// Retracts every row of the table learned over the dead link, as
    /// if the dead broker had.
    fn purge<T: Kind>(&mut self, dead: BrokerId, effects: &mut impl Effects) {
        let learned: Vec<T::Id> = (T::table(self).iter())
            .filter(|(_, e)| e.lasthop == Hop::Broker(dead))
            .map(|(id, _)| *id)
            .collect();
        for id in learned {
            self.handle_retract::<T>(Hop::Broker(dead), id, effects);
        }
    }

    // ----- publications ----------------------------------------------

    /// Turns one publication's destination set (active, pending and,
    /// on cyclic overlays, redundant hops of every matching row,
    /// already merged by [`Prt::destinations_into`]) into forwarding
    /// effects: brokers ascending, then clients ascending, the arrival
    /// direction suppressed.
    fn emit_publish(
        &mut self,
        from: Hop,
        p: PublicationMsg,
        dests: &Destinations,
        effects: &mut impl Effects,
    ) {
        let multipath = self.config.multipath;
        let brokers = (dests.brokers.iter().copied()).filter(|&b| Hop::Broker(b) != from);
        let clients = (dests.clients.iter().copied()).filter(|&c| Hop::Client(c) != from);
        let mut forward = brokers.clone().next().is_some();
        if multipath && p.hops >= MAX_PUB_HOPS && forward {
            // Backstop bound: the dedup window should have terminated
            // any cycle long before this; count the drop so tests see
            // it.
            self.stats.anomalies += 1;
            forward = false;
        }
        if forward {
            // The hop count only moves on cyclic overlays, keeping
            // acyclic forwarding byte-identical to previous releases.
            let mut fwd = p.clone();
            if multipath {
                fwd.hops += 1;
            }
            for n in brokers {
                effects.emit(BrokerOutput::ToBroker(n, PubSubMsg::Publish(fwd.clone())));
            }
        }
        for c in clients {
            effects.emit(BrokerOutput::Deliver(c, p.clone()));
        }
    }

    // ----- movement-transaction support ------------------------------

    /// Installs the pending (shadow) configuration for a moving
    /// subscription at this broker: the paper's `rc(adv′)` copy,
    /// applied to a subscription. `new_lasthop` is the post-commit
    /// direction of the subscriber (`RouteS2T.suc(B)`, or the client at
    /// the target broker); `commit_sent_add` is the post-commit
    /// addition to the forwarding set (`RouteS2T.pre(B)` — the old
    /// subscriber direction, over which retractions must later travel).
    ///
    /// If the broker has no entry for the subscription (it was never
    /// propagated through here), a fresh entry is created and flagged
    /// so that [`BrokerCore::abort_move`] removes it entirely.
    pub fn install_pending_sub(
        &mut self,
        sub: &Subscription,
        move_id: MoveId,
        new_lasthop: Hop,
        commit_sent_add: Option<BrokerId>,
    ) {
        self.install_pending(sub, move_id, new_lasthop, commit_sent_add);
    }

    /// Installs the pending configuration for a moving advertisement;
    /// see [`BrokerCore::install_pending_sub`] for the parameters.
    pub fn install_pending_adv(
        &mut self,
        adv: &Advertisement,
        move_id: MoveId,
        new_lasthop: Hop,
        commit_sent_add: Option<BrokerId>,
    ) {
        self.install_pending(adv, move_id, new_lasthop, commit_sent_add);
    }

    fn install_pending<T: Kind>(
        &mut self,
        item: &T,
        move_id: MoveId,
        new_lasthop: Hop,
        commit_sent_add: Option<BrokerId>,
    ) {
        let (id, table) = (item.id(), T::table_mut(self));
        let created = table.get(id).is_none();
        if created {
            table.insert(item.clone(), new_lasthop);
        }
        let displaced = table.update(id, |entry| {
            entry.pending.replace(PendingRoute {
                move_id,
                lasthop: new_lasthop,
            })
        });
        // flatten: the row exists (pre-existing or just inserted)
        self.drop_pending(T::pending_key(id), &displaced.flatten());
        self.pending_meta.insert(
            (move_id, T::pending_key(id)),
            PendingMeta {
                commit_sent_add,
                created,
            },
        );
    }

    /// Forgets the index entry of a pending configuration that just
    /// left its row (the row was removed, or another movement's
    /// configuration displaced it), keeping `pending_meta` equal to
    /// the set of rows whose `pending` is set.
    fn drop_pending(&mut self, entry: PendingEntry, pending: &Option<PendingRoute>) {
        if let Some(p) = pending {
            self.pending_meta.remove(&(p.move_id, entry));
        }
    }

    /// Removes and returns the index entries of `move_id`:
    /// advertisements first, then subscriptions, each ascending by id.
    fn take_pending(&mut self, move_id: MoveId) -> Vec<(PendingEntry, PendingMeta)> {
        let taken: Vec<(PendingEntry, PendingMeta)> = self
            .pending_meta
            .range((move_id, PendingEntry::FIRST)..)
            .take_while(|((m, _), _)| *m == move_id)
            .map(|((_, entry), meta)| (*entry, *meta))
            .collect();
        #[cfg(any(test, debug_assertions))]
        assert_eq!(
            taken.iter().map(|(entry, _)| *entry).collect::<Vec<_>>(),
            (self.srt.pending_for(move_id).into_iter())
                .map(PendingEntry::Adv)
                .chain((self.prt.pending_for(move_id).into_iter()).map(PendingEntry::Sub))
                .collect::<Vec<_>>(),
            "pending index of {move_id:?} diverged from the table scans"
        );
        for (entry, _) in &taken {
            self.pending_meta.remove(&(move_id, *entry));
        }
        taken
    }

    /// Commits every pending configuration installed under `move_id`:
    /// the old routing configuration is replaced by the shadow one, the
    /// forwarding sets are re-oriented, and (for advertisement moves)
    /// subscriptions whose justification disappeared are pruned (the
    /// paper's PRT case 2).
    pub fn commit_move(&mut self, move_id: MoveId, effects: &mut impl Effects) {
        let mut prune_links: BTreeSet<BrokerId> = BTreeSet::new();
        for (entry, meta) in self.take_pending(move_id) {
            // An overlay repair may have removed the old direction;
            // never resurrect a link to a dead broker.
            let sent_add = meta
                .commit_sent_add
                .filter(|add| self.neighbors.contains(add));
            match entry {
                PendingEntry::Adv(id) => {
                    let old = self.commit_row::<Advertisement>(id, sent_add);
                    if let (false, Hop::Broker(old)) = (meta.created, old) {
                        prune_links.insert(old);
                    }
                }
                PendingEntry::Sub(id) => {
                    self.commit_row::<Subscription>(id, sent_add);
                }
            }
        }
        // Prune subscriptions that pointed at the old advertisement
        // location (paper PRT case 2, realized as the generic prune).
        for n in prune_links {
            self.prune_subs_on_link(n, effects);
        }
    }

    /// Commits row `id`'s pending configuration, adding `sent_add` to
    /// its forwarding set, and returns the lasthop it replaced.
    fn commit_row<T: Kind>(&mut self, id: T::Id, sent_add: Option<BrokerId>) -> Hop {
        let commit = |entry: &mut Entry<T>| {
            let pending =
                (entry.pending.take()).expect("an indexed pending configuration is set on its row");
            let old = std::mem::replace(&mut entry.lasthop, pending.lasthop);
            if let Hop::Broker(nb) = pending.lasthop {
                entry.sent_to.remove(&nb);
                // The committed primary can no longer also be a
                // redundant route.
                entry.alt_lasthops.remove(&nb);
            }
            entry.sent_to.extend(sent_add);
            old
        };
        (T::table_mut(self).update(id, commit))
            .expect("an indexed pending configuration names a live row")
    }

    /// Rolls back every pending configuration installed under
    /// `move_id`: shadow configurations are dropped and entries created
    /// by the transaction are removed, a subscription's retracted on the
    /// links it was forwarded over.
    pub fn abort_move(&mut self, move_id: MoveId, effects: &mut impl Effects) {
        for (entry, meta) in self.take_pending(move_id) {
            match entry {
                PendingEntry::Adv(id) => self.abort_row::<Advertisement>(id, meta.created, effects),
                PendingEntry::Sub(id) => self.abort_row::<Subscription>(id, meta.created, effects),
            }
        }
    }

    fn abort_row<T: Kind>(&mut self, id: T::Id, created: bool, effects: &mut impl Effects) {
        if created {
            return T::drop_created(self, id, effects);
        }
        T::table_mut(self).update(id, |entry| entry.pending = None);
    }
}

/// What the routing rules of [`BrokerCore`] need to know about a kind
/// of routed item beyond its table: the messages that carry it, the
/// covering mode it is forwarded under, the key of its pending
/// configurations, and the rules that hold for one kind only. The
/// rules themselves (`handle_add`, `forward_to`, `handle_retract`,
/// `release_quenched`, `install_pending`, …) are written once, over
/// this trait.
trait Kind: Routed<Id: 'static> {
    /// The kind's spare id lists ([`with_ids`]).
    const SPARE: &'static LocalKey<RefCell<Vec<Vec<Self::Id>>>>;
    fn table(core: &BrokerCore) -> &Table<Self>;
    fn table_mut(core: &mut BrokerCore) -> &mut Table<Self>;
    fn covering(config: &BrokerConfig) -> CoveringMode;
    fn pending_key(id: Self::Id) -> PendingEntry;
    /// The message that forwards the item one hop, or `None` when it
    /// must stop here.
    fn forward_msg(&self) -> Option<PubSubMsg>;
    /// The message that retracts row `id`.
    fn retract_msg(id: Self::Id) -> PubSubMsg;
    /// Forwards row `id`, just inserted or re-routed from `from`.
    fn propagate(core: &mut BrokerCore, id: Self::Id, from: Hop, effects: &mut impl Effects);
    /// Whether covering release forwards row `id` to link `n`.
    fn needed_on(core: &BrokerCore, id: Self::Id, n: BrokerId) -> bool;
    /// A route of this kind toward neighbour `n` was withdrawn.
    fn route_withdrawn(core: &mut BrokerCore, n: BrokerId, effects: &mut impl Effects);
    /// The last route of row `id` was retracted.
    fn last_route_retracted(core: &mut BrokerCore, id: Self::Id, effects: &mut impl Effects);
    /// A movement that created row `id` aborted.
    fn drop_created(core: &mut BrokerCore, id: Self::Id, effects: &mut impl Effects);
}

impl Kind for Advertisement {
    const SPARE: &'static LocalKey<RefCell<Vec<Vec<AdvId>>>> = &SPARE_ADVS;
    fn table(core: &BrokerCore) -> &Srt {
        &core.srt
    }
    fn table_mut(core: &mut BrokerCore) -> &mut Srt {
        &mut core.srt
    }
    fn covering(config: &BrokerConfig) -> CoveringMode {
        config.adv_covering
    }
    fn pending_key(id: AdvId) -> PendingEntry {
        PendingEntry::Adv(id)
    }
    /// The flood copy, while the TTL lasts.
    fn forward_msg(&self) -> Option<PubSubMsg> {
        BrokerCore::flood_copy(self).map(PubSubMsg::Advertise)
    }
    fn retract_msg(id: AdvId) -> PubSubMsg {
        PubSubMsg::Unadvertise(id)
    }
    /// Floods to every neighbour; then the pull rule forwards the known
    /// intersecting subscriptions toward the advertisement.
    fn propagate(core: &mut BrokerCore, id: AdvId, from: Hop, effects: &mut impl Effects) {
        let neighbors: Vec<BrokerId> = core.neighbors.iter().copied().collect();
        for n in neighbors {
            core.forward_to::<Self>(id, n, effects);
        }
        if let Hop::Broker(nf) = from {
            core.pull(id, nf, effects, |_| {});
        }
    }
    /// An advertisement floods everywhere.
    fn needed_on(_: &BrokerCore, _: AdvId, _: BrokerId) -> bool {
        true
    }
    /// The prune rule: subscriptions forwarded toward the withdrawn
    /// direction are retracted from that link when no other
    /// intersecting advertisement remains there.
    fn route_withdrawn(core: &mut BrokerCore, n: BrokerId, effects: &mut impl Effects) {
        core.prune_subs_on_link(n, effects);
    }
    fn last_route_retracted(core: &mut BrokerCore, id: AdvId, effects: &mut impl Effects) {
        core.remove_row::<Self>(id, effects);
    }
    /// Dropped, with no retraction.
    fn drop_created(core: &mut BrokerCore, id: AdvId, _: &mut impl Effects) {
        core.srt.remove(id);
    }
}

impl Kind for Subscription {
    const SPARE: &'static LocalKey<RefCell<Vec<Vec<SubId>>>> = &SPARE_SUBS;
    fn table(core: &BrokerCore) -> &Prt {
        &core.prt
    }
    fn table_mut(core: &mut BrokerCore) -> &mut Prt {
        &mut core.prt
    }
    fn covering(config: &BrokerConfig) -> CoveringMode {
        config.sub_covering
    }
    fn pending_key(id: SubId) -> PendingEntry {
        PendingEntry::Sub(id)
    }
    fn forward_msg(&self) -> Option<PubSubMsg> {
        Some(PubSubMsg::Subscribe(self.clone()))
    }
    fn retract_msg(id: SubId) -> PubSubMsg {
        PubSubMsg::Unsubscribe(id)
    }
    /// Forwards toward every intersecting advertisement, honouring
    /// covering.
    fn propagate(core: &mut BrokerCore, id: SubId, _: Hop, effects: &mut impl Effects) {
        let Some(entry) = core.prt.get(id) else {
            return;
        };
        let dirs = core.adv_directions(&entry.item.filter);
        for &n in dirs.iter() {
            core.forward_to::<Self>(id, n, effects);
        }
    }
    /// Only where an intersecting advertisement lies.
    fn needed_on(core: &BrokerCore, id: SubId, n: BrokerId) -> bool {
        let entry = core.prt.get(id).expect("release candidates are live rows");
        core.adv_toward(&entry.item.filter, n)
    }
    fn route_withdrawn(_: &mut BrokerCore, _: BrokerId, _: &mut impl Effects) {}
    fn last_route_retracted(core: &mut BrokerCore, id: SubId, effects: &mut impl Effects) {
        let pending = core.prt.get(id).and_then(|e| e.pending.as_ref());
        if let Some(p) = pending {
            // The subscriber is moving and the row already holds its
            // post-commit route: the retraction withdraws only the
            // route the commit replaces. The row now stands on the
            // movement alone, as if the movement had created it: a
            // commit keeps it, an abort removes it (and retracts it
            // downstream, as this retraction would have).
            let key = (p.move_id, PendingEntry::Sub(id));
            if let Some(meta) = core.pending_meta.get_mut(&key) {
                meta.created = true;
            }
            return;
        }
        core.remove_row::<Self>(id, effects);
    }
    /// Removed and retracted downstream.
    fn drop_created(core: &mut BrokerCore, id: SubId, effects: &mut impl Effects) {
        core.remove_row::<Self>(id, effects);
    }
}

/// The sink a repair message's own effects pass through: the
/// forward-direction propagation it triggers (advertise / subscribe)
/// goes on as its repair variant; retractions pass through untouched.
struct RepairTag<'a, E>(&'a mut E);

impl<E: Effects> Effects for RepairTag<'_, E> {
    fn emit(&mut self, effect: BrokerOutput) {
        self.0.emit(match effect {
            BrokerOutput::ToBroker(n, PubSubMsg::Advertise(a)) => {
                BrokerOutput::ToBroker(n, PubSubMsg::RepairAdv(a))
            }
            BrokerOutput::ToBroker(n, PubSubMsg::Subscribe(s)) => {
                BrokerOutput::ToBroker(n, PubSubMsg::RepairSub(s))
            }
            other => other,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_quench_test_stops_at_its_first_hit() {
        let (n, other) = (BrokerId(2), BrokerId(3));
        let band = |c: u64, lo: i64, hi: i64| {
            Subscription::new(
                SubId::new(ClientId(c), 0),
                Filter::builder().ge("x", lo).le("x", hi).build(),
            )
        };
        let leaf = band(1, 40, 60);
        let mut prt = Prt::new();
        prt.insert(leaf.clone(), Hop::Client(ClientId(1)));
        // Four rows cover the leaf. Row 2 came from `n` and row 3 went
        // elsewhere, so neither quenches it there; rows 4 and 5 were
        // forwarded on `n`, and the first of them ends the query.
        prt.insert(band(2, 0, 100), Hop::Broker(n));
        for (c, to) in [(3, other), (4, n), (5, n)] {
            let row = band(c, 10 * c as i64, 100 - 10 * c as i64);
            prt.insert(row.clone(), Hop::Client(ClientId(c)));
            prt.update(row.id, |e| e.sent_to.insert(to));
        }
        let mut seen = Vec::new();
        let mut quench = quencher(leaf.id, n);
        let flow = prt.covering(&leaf.filter, |id, e| {
            seen.push(id.client.0);
            quench(id, e)
        });
        assert!(flow.is_break());
        assert_eq!(seen, [1, 2, 3, 4]);
        let mut core = BrokerCore::new(BrokerId(1), [n, other], BrokerConfig::covering());
        core.prt = prt;
        assert!(core.quenched_on::<Subscription>(n, leaf.id, &leaf.filter));
        assert!(core.quenched_on::<Subscription>(other, leaf.id, &leaf.filter));
        assert!(!core.quenched_on::<Subscription>(BrokerId(9), leaf.id, &leaf.filter));
    }
}
