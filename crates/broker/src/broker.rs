//! The broker routing state machine.
//!
//! [`BrokerCore`] is a *pure, synchronous* state machine: it owns the
//! SRT/PRT routing tables and maps one input message to a list of
//! [`BrokerOutput`] effects. It performs no I/O and holds no clock, so
//! the same implementation is hosted unchanged by the discrete-event
//! simulator (`transmob-sim`) and by the threaded runtime
//! (`transmob-runtime`).
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

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};
use transmob_pubsub::fasthash::FastSet;
use transmob_pubsub::{
    AdvId, Advertisement, BrokerId, ClientId, Filter, MoveId, PubId, Publication, PublicationMsg,
    SubId, Subscription,
};

use crate::messages::{BrokerOutput, Hop, MsgKind, PubSubMsg};
use crate::routing::{Destinations, PendingRoute, Prt, Srt};

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

/// Destination sets pre-computed by [`BrokerCore::prematch`] for the
/// publish messages of one batch, in batch order, stamped with the
/// routing version they were matched under. The *match* stage of a
/// pipelined broker loop produces one of these under a read lock; the
/// *apply* stage consumes it under the write lock, falling back to
/// fresh matching if the stamp has gone stale. No driver of this
/// workspace pipelines since the threaded runtimes went back to one
/// thread a broker (DESIGN.md §12); the end-to-end benchmark's replay
/// is the remaining caller.
#[derive(Debug, Clone)]
pub struct PrematchedRoutes {
    version: u64,
    /// Publish runs of the batch take their sets off the front, in
    /// order, across multiple flushes.
    routes: std::vec::IntoIter<Destinations>,
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
    /// The entry did not exist before the transaction installed it.
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

    /// Asserts the derived state against the rows: the PRT's own
    /// invariants ([`Prt::check_invariants`]), and the per-move pending
    /// index naming exactly the rows whose `pending` is set, under the
    /// movement that set it. Test support.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
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

    /// Handles one routing-layer message arriving from `from`.
    ///
    /// Thin wrapper over [`BrokerCore::handle_batch`] — the batch call
    /// is the one ingestion path.
    pub fn handle(&mut self, from: Hop, msg: PubSubMsg) -> Vec<BrokerOutput> {
        self.handle_batch(from, vec![msg])
    }

    /// Handles a batch of routing-layer messages that arrived from
    /// `from` in order, returning the combined effects in emission
    /// order (per-destination send order is the per-link FIFO the
    /// consistency argument relies on).
    ///
    /// Semantically equivalent to folding [`BrokerCore::handle`] over
    /// the batch and concatenating the outputs (publications do not
    /// mutate routing state, so a run of them commutes with nothing in
    /// between), but maximal runs of consecutive publications are
    /// resolved to their destinations through one batch call
    /// ([`Prt::destinations_batch`]).
    pub fn handle_batch(&mut self, from: Hop, msgs: Vec<PubSubMsg>) -> Vec<BrokerOutput> {
        self.handle_batch_prematched(from, msgs, None)
    }

    /// The routing-state version stamp guarding pre-computed routes
    /// (see [`Prt::routing_version`]).
    pub fn routing_version(&self) -> u64 {
        self.prt.routing_version()
    }

    /// Matches a batch's publications against the *current* routing
    /// state without mutating anything: the read-locked *match* stage
    /// of a pipelined broker loop. The result is stamped with
    /// [`BrokerCore::routing_version`]; the write-locked *apply* stage
    /// ([`BrokerCore::handle_batch_prematched`]) consumes the routes
    /// only while the stamp still matches, so a movement commit or
    /// subscription churn sneaking in between simply invalidates the
    /// pre-computation instead of corrupting routing.
    pub fn prematch(&self, contents: &[&Publication]) -> PrematchedRoutes {
        PrematchedRoutes {
            version: self.prt.routing_version(),
            routes: self.prt.destinations_batch(contents).into_iter(),
        }
    }

    /// [`BrokerCore::handle_batch`], optionally consuming routes
    /// pre-computed by [`BrokerCore::prematch`] on the same
    /// publication sequence. Stale pre-computations (version stamp
    /// mismatch — the routing state mutated since the match stage,
    /// including *mid-batch* by a subscription in this very batch) are
    /// discarded and the affected runs re-matched; results are
    /// identical either way (asserted in debug builds).
    pub fn handle_batch_prematched(
        &mut self,
        from: Hop,
        msgs: Vec<PubSubMsg>,
        mut pre: Option<&mut PrematchedRoutes>,
    ) -> Vec<BrokerOutput> {
        let mut batch = Vec::new();
        let mut run: Vec<PublicationMsg> = Vec::new();
        for msg in msgs {
            *self.stats.handled.entry(msg.kind()).or_insert(0) += 1;
            match msg {
                PubSubMsg::Publish(p) => run.push(p),
                other => {
                    self.flush_publish_run(from, &mut run, &mut pre, &mut batch);
                    batch.extend(match other {
                        PubSubMsg::Advertise(a) => self.handle_advertise(from, a),
                        PubSubMsg::Unadvertise(id) => self.handle_unadvertise(from, id),
                        PubSubMsg::Subscribe(s) => self.handle_subscribe(from, s),
                        PubSubMsg::Unsubscribe(id) => self.handle_unsubscribe(from, id),
                        PubSubMsg::RepairAdv(a) => self.handle_repair_adv(from, a),
                        PubSubMsg::RepairSub(s) => self.handle_repair_sub(from, s),
                        PubSubMsg::Publish(_) => unreachable!("publications batched above"),
                    });
                }
            }
        }
        self.flush_publish_run(from, &mut run, &mut pre, &mut batch);
        batch
    }

    /// Routes an accumulated run of publications through one batch
    /// match — or through still-fresh pre-computed routes — emitting
    /// the same effects, in the same order, as routing them one by
    /// one.
    fn flush_publish_run(
        &mut self,
        from: Hop,
        run: &mut Vec<PublicationMsg>,
        pre: &mut Option<&mut PrematchedRoutes>,
        batch: &mut Vec<BrokerOutput>,
    ) {
        if run.is_empty() {
            return;
        }
        // Take the run's pre-computed routes if the stamp is still
        // current; drop the whole pre-computation the moment it goes
        // stale (the version only moves forward, so it cannot become
        // valid again).
        let mut routes = match pre {
            Some(p) if p.version == self.prt.routing_version() => {
                Some(p.routes.by_ref().take(run.len()).collect::<Vec<_>>())
            }
            _ => {
                *pre = None;
                None
            }
        };
        if self.config.multipath {
            // A publication already forwarded and delivered here via
            // another path of the cyclic overlay is dropped before it
            // costs a match. (Its pre-computed set was taken above,
            // keeping the cursor aligned, and goes with it.)
            let fresh: Vec<bool> = run.iter().map(|p| self.dedup.insert(p.id)).collect();
            let mut keep = fresh.iter();
            run.retain(|_| *keep.next().expect("one flag per publication"));
            if let Some(rows) = &mut routes {
                let mut keep = fresh.iter();
                rows.retain(|_| *keep.next().expect("one flag per publication"));
            }
        }
        let fresh = || {
            let contents: Vec<&Publication> = run.iter().map(|p| &p.content).collect();
            self.prt.destinations_batch(&contents)
        };
        let routes = routes.unwrap_or_else(fresh);
        debug_assert_eq!(
            routes,
            fresh(),
            "pre-computed destinations diverged from the current routing state"
        );
        for (p, dests) in run.drain(..).zip(routes) {
            batch.extend(self.emit_publish(from, p, dests));
        }
    }

    // ----- subscriptions ---------------------------------------------

    fn handle_subscribe(&mut self, from: Hop, sub: Subscription) -> Vec<BrokerOutput> {
        let id = sub.id;
        let (clients, multipath) = (&self.clients, self.config.multipath);
        let reroutes = &mut self.stats.reroutes;
        let known = self.prt.update(id, |entry| {
            if entry.sub.filter != sub.filter {
                debug_assert!(
                    false,
                    "subscription {id} re-issued with a different filter (kept {}, ignored {})",
                    entry.sub.filter, sub.filter
                );
                eprintln!(
                    "transmob-broker: ignoring re-subscription of {id} with a different filter; the original row is kept"
                );
            }
            if entry.lasthop != from {
                if Self::anchored_here(clients, entry.lasthop) {
                    // The subscriber is attached HERE: the entry is
                    // authoritative and only a movement commit may
                    // re-point it. Adopting an overlay direction would
                    // let a later retraction on that link (e.g. an
                    // overlay-repair purge racing this re-propagation)
                    // annihilate the client's own subscription.
                    *reroutes += 1;
                } else if let (true, Hop::Broker(nb)) = (multipath, from) {
                    // Cyclic overlay: the subscription reached this
                    // broker over a second path. Keep the
                    // first-arrival parent as the primary route and
                    // record the new direction as a redundant one;
                    // publications fan out along both.
                    entry.alt_lasthops.insert(nb);
                } else {
                    // A re-route while the old and new subscription
                    // trees overlap (make-before-break, overlay
                    // repair): adopt the newest direction.
                    entry.lasthop = from;
                    *reroutes += 1;
                }
            }
        });
        if known.is_none() {
            self.prt.insert(sub, from);
        }
        self.propagate_sub(id)
    }

    /// Forwards subscription `id` toward every intersecting
    /// advertisement it has not reached yet, honouring covering.
    fn propagate_sub(&mut self, id: SubId) -> Vec<BrokerOutput> {
        let mut out = Vec::new();
        let Some(entry) = self.prt.get(id) else {
            return out;
        };
        let own_hop = entry.lasthop;
        let filter = entry.sub.filter.clone();
        // Collect the neighbours hosting (the direction of) intersecting
        // advertisements, in the active, any pending, and (under
        // multi-path forwarding) every redundant configuration.
        let mut targets: BTreeSet<BrokerId> = BTreeSet::new();
        for (aid, active, pending) in self.srt.overlapping_routes(&filter) {
            for hop in [Some(active), pending].into_iter().flatten() {
                if let Hop::Broker(n) = hop {
                    if Hop::Broker(n) != own_hop {
                        targets.insert(n);
                    }
                }
            }
            if self.config.multipath {
                if let Some(e) = self.srt.get(aid) {
                    for n in &e.alt_lasthops {
                        if Hop::Broker(*n) != own_hop {
                            targets.insert(*n);
                        }
                    }
                }
            }
        }
        for n in targets {
            out.extend(self.forward_sub_to(id, n));
        }
        out
    }

    /// Forwards subscription `id` to neighbour `n` unless it was
    /// already sent or is quenched by covering; in active covering
    /// mode, retracts subscriptions it covers on that link.
    fn forward_sub_to(&mut self, id: SubId, n: BrokerId) -> Vec<BrokerOutput> {
        let mut out = Vec::new();
        let Some(entry) = self.prt.get(id) else {
            return out;
        };
        if entry.lasthop == Hop::Broker(n)
            || entry.sent_to.contains(&n)
            || entry.alt_lasthops.contains(&n)
        {
            return out;
        }
        let filter = entry.sub.filter.clone();
        if self.config.sub_covering.enabled() && self.sub_quenched_on(n, id, &filter) {
            return out;
        }
        let sub = entry.sub.clone();
        self.prt.update(id, |e| e.sent_to.insert(n));
        out.push(BrokerOutput::ToBroker(n, PubSubMsg::Subscribe(sub)));
        if self.config.sub_covering == CoveringMode::Active {
            // Retract previously-forwarded subscriptions now covered on
            // this link. The containment index enumerates the covered
            // candidates; the hop conditions are checked per survivor.
            let retract: Vec<SubId> = self
                .prt
                .covered_by(&filter)
                .into_iter()
                .filter(|oid| {
                    // unwrap: ids come straight out of the table's index
                    let e = self.prt.get(*oid).unwrap();
                    *oid != id && e.sent_to.contains(&n) && !e.sub.filter.covers(&filter)
                })
                .collect();
            for oid in retract {
                self.prt.update(oid, |e| e.sent_to.remove(&n));
                out.push(BrokerOutput::ToBroker(n, PubSubMsg::Unsubscribe(oid)));
            }
        }
        out
    }

    /// Whether subscription `id` with `filter` is quenched on link `n`
    /// by some covering subscription already forwarded there.
    fn sub_quenched_on(&self, n: BrokerId, id: SubId, filter: &Filter) -> bool {
        self.prt.covering(filter).into_iter().any(|oid| {
            // unwrap: ids come straight out of the table's index
            let e = self.prt.get(oid).unwrap();
            oid != id && e.sent_to.contains(&n) && e.lasthop != Hop::Broker(n)
        })
    }

    /// Whether `hop` is a client currently attached to this broker —
    /// the one case where a routing entry's lasthop is ground truth
    /// rather than learned overlay state.
    fn anchored_here(clients: &BTreeSet<ClientId>, hop: Hop) -> bool {
        matches!(hop, Hop::Client(c) if clients.contains(&c))
    }

    fn handle_unsubscribe(&mut self, from: Hop, id: SubId) -> Vec<BrokerOutput> {
        let Some(entry) = self.prt.get(id) else {
            // Stale retraction: the entry was already removed by a
            // crossing retraction (idempotent outcome).
            self.stats.reroutes += 1;
            return Vec::new();
        };
        if entry.lasthop != from {
            if let (true, Hop::Broker(nb)) = (self.config.multipath, from) {
                if entry.alt_lasthops.contains(&nb) {
                    // One of several redundant routes retracted; the
                    // entry stays, justified by the primary route.
                    self.prt.update(id, |e| e.alt_lasthops.remove(&nb));
                    return Vec::new();
                }
            }
            // Unsubscriptions travel the reverse of the subscription
            // path; a mismatch means the entry was re-routed while the
            // retraction was in flight — ignore the stale retraction.
            self.stats.reroutes += 1;
            return Vec::new();
        }
        if self.config.multipath {
            if let Some(&next) = entry.alt_lasthops.iter().next() {
                // The primary route retracted but redundant routes
                // survive: promote the smallest one instead of
                // removing the entry. The other arms of the
                // retraction will strip the remaining routes; only
                // the last one removes the entry and cascades.
                self.prt.update(id, |e| {
                    e.alt_lasthops.remove(&next);
                    e.lasthop = Hop::Broker(next);
                });
                return Vec::new();
            }
        }
        // unwrap: presence checked above
        let entry = self.prt.remove(id).unwrap();
        self.drop_pending(PendingEntry::Sub(id), &entry.pending);
        let mut out = Vec::new();
        for n in &entry.sent_to {
            out.push(BrokerOutput::ToBroker(*n, PubSubMsg::Unsubscribe(id)));
        }
        // Covering release: subscriptions quenched by the removed one
        // must now be forwarded.
        if self.config.sub_covering.enabled() {
            for n in &entry.sent_to {
                out.extend(self.release_quenched_subs(*n, Some(&entry.sub.filter)));
            }
        }
        out
    }

    /// Re-evaluates link `n` after `removed` was withdrawn from it: any
    /// subscription that needs the link (an intersecting advertisement
    /// lies that way) and has not been sent is forwarded now. This
    /// implements the covering-release cascade of the paper's
    /// pathological case.
    ///
    /// With `conservative_release` (the paper's behaviour) every
    /// candidate the withdrawn filter covered is re-forwarded, even if
    /// another covering subscription is still forwarded on the link —
    /// re-quenching is left to the downstream broker. The precise
    /// variant suppresses candidates still covered locally (the quench
    /// check inside `forward_sub_to`).
    fn release_quenched_subs(
        &mut self,
        n: BrokerId,
        removed: Option<&Filter>,
    ) -> Vec<BrokerOutput> {
        let mut out = Vec::new();
        let conservative = self.config.conservative_release && removed.is_some();
        // The containment index enumerates what the withdrawn filter
        // covered; without one, every row is a candidate.
        let covered: Vec<SubId> = match removed {
            Some(r) => self.prt.covered_by(r),
            None => self.prt.iter().map(|(id, _)| *id).collect(),
        };
        let candidates: Vec<SubId> = covered
            .into_iter()
            .filter(|id| {
                // unwrap: ids come straight out of the table's index
                let e = self.prt.get(*id).unwrap();
                e.lasthop != Hop::Broker(n) && !e.sent_to.contains(&n)
            })
            .collect();
        for id in candidates {
            // unwrap: candidate ids drawn from the table and the only
            // mutation below is forwarding on the same id
            let filter = self.prt.get(id).unwrap().sub.filter.clone();
            let needed =
                self.srt
                    .overlapping_routes(&filter)
                    .iter()
                    .any(|(aid, active, pending)| {
                        *active == Hop::Broker(n)
                            || *pending == Some(Hop::Broker(n))
                            || (self.config.multipath
                                && self
                                    .srt
                                    .get(*aid)
                                    .is_some_and(|e| e.alt_lasthops.contains(&n)))
                    });
            if !needed {
                continue;
            }
            if conservative {
                out.extend(self.forward_sub_unchecked(id, n));
            } else {
                out.extend(self.forward_sub_to(id, n));
            }
        }
        out
    }

    /// Forwards subscription `id` to `n` bypassing the quench check
    /// (conservative covering release).
    fn forward_sub_unchecked(&mut self, id: SubId, n: BrokerId) -> Vec<BrokerOutput> {
        let sub = self.prt.update(id, |entry| {
            let skip = entry.lasthop == Hop::Broker(n)
                || entry.alt_lasthops.contains(&n)
                || !entry.sent_to.insert(n);
            (!skip).then(|| entry.sub.clone())
        });
        match sub.flatten() {
            Some(sub) => vec![BrokerOutput::ToBroker(n, PubSubMsg::Subscribe(sub))],
            None => Vec::new(),
        }
    }

    // ----- advertisements --------------------------------------------

    fn handle_advertise(&mut self, from: Hop, adv: Advertisement) -> Vec<BrokerOutput> {
        let id = adv.id;
        if let Some(entry) = self.srt.get_mut(id) {
            if entry.adv.filter != adv.filter {
                debug_assert!(
                    false,
                    "advertisement {id} re-issued with a different filter (kept {}, ignored {})",
                    entry.adv.filter, adv.filter
                );
                eprintln!(
                    "transmob-broker: ignoring re-advertisement of {id} with a different filter; the original row is kept"
                );
            }
            if entry.lasthop != from {
                if Self::anchored_here(&self.clients, entry.lasthop) {
                    // Locally-anchored advertisement: authoritative,
                    // see the matching guard in `handle_subscribe`.
                    self.stats.reroutes += 1;
                } else if let (true, Hop::Broker(nb)) = (self.config.multipath, from) {
                    // Second arm of the advertisement flood on a
                    // cyclic overlay: record the redundant direction
                    // (the per-advertisement routing "tree" becomes a
                    // DAG rooted at the advertiser); the pull below
                    // extends known subscriptions along it.
                    entry.alt_lasthops.insert(nb);
                } else {
                    entry.lasthop = from;
                    self.stats.reroutes += 1;
                }
            }
        } else {
            self.srt.insert(adv, from);
        }
        let mut out = self.propagate_adv(id);
        // Pull rule: forward known intersecting subscriptions toward
        // the new advertisement.
        if let Hop::Broker(nf) = from {
            out.extend(self.pull_subs_toward(id, nf).0);
        }
        out
    }

    /// Floods advertisement `id` to every neighbour it has not reached,
    /// honouring advertisement covering.
    fn propagate_adv(&mut self, id: AdvId) -> Vec<BrokerOutput> {
        let mut out = Vec::new();
        let Some(entry) = self.srt.get(id) else {
            return out;
        };
        let own_hop = entry.lasthop;
        let targets: Vec<BrokerId> = self
            .neighbors
            .iter()
            .copied()
            .filter(|n| {
                Hop::Broker(*n) != own_hop
                    && !entry.sent_to.contains(n)
                    && !entry.alt_lasthops.contains(n)
            })
            .collect();
        for n in targets {
            out.extend(self.forward_adv_to(id, n));
        }
        out
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

    fn forward_adv_to(&mut self, id: AdvId, n: BrokerId) -> Vec<BrokerOutput> {
        let mut out = Vec::new();
        let Some(entry) = self.srt.get(id) else {
            return out;
        };
        if entry.lasthop == Hop::Broker(n)
            || entry.sent_to.contains(&n)
            || entry.alt_lasthops.contains(&n)
        {
            return out;
        }
        let filter = entry.adv.filter.clone();
        if self.config.adv_covering.enabled() && self.adv_quenched_on(n, id, &filter) {
            return out;
        }
        let Some(adv) = Self::flood_copy(&entry.adv) else {
            return out;
        };
        // unwrap: entry existence checked above
        self.srt.get_mut(id).unwrap().sent_to.insert(n);
        out.push(BrokerOutput::ToBroker(n, PubSubMsg::Advertise(adv)));
        if self.config.adv_covering == CoveringMode::Active {
            let retract: Vec<AdvId> = self
                .srt
                .covered_by(&filter)
                .into_iter()
                .filter(|oid| {
                    // unwrap: ids come straight out of the table's index
                    let e = self.srt.get(*oid).unwrap();
                    *oid != id && e.sent_to.contains(&n) && !e.adv.filter.covers(&filter)
                })
                .collect();
            for oid in retract {
                // unwrap: ids were just drawn from the table
                self.srt.get_mut(oid).unwrap().sent_to.remove(&n);
                out.push(BrokerOutput::ToBroker(n, PubSubMsg::Unadvertise(oid)));
            }
        }
        out
    }

    fn adv_quenched_on(&self, n: BrokerId, id: AdvId, filter: &Filter) -> bool {
        self.srt.covering(filter).into_iter().any(|oid| {
            // unwrap: ids come straight out of the table's index
            let e = self.srt.get(oid).unwrap();
            oid != id && e.sent_to.contains(&n) && e.lasthop != Hop::Broker(n)
        })
    }

    fn handle_unadvertise(&mut self, from: Hop, id: AdvId) -> Vec<BrokerOutput> {
        let Some(entry) = self.srt.get(id) else {
            self.stats.reroutes += 1;
            return Vec::new();
        };
        if entry.lasthop != from {
            if let (true, Hop::Broker(nb)) = (self.config.multipath, from) {
                if entry.alt_lasthops.contains(&nb) {
                    // A redundant route retracted; the entry stays,
                    // but subscriptions forwarded toward the vanished
                    // direction may have lost their justification.
                    // unwrap: presence checked above
                    self.srt.get_mut(id).unwrap().alt_lasthops.remove(&nb);
                    return self.prune_subs_on_link(nb);
                }
            }
            self.stats.reroutes += 1;
            return Vec::new();
        }
        if self.config.multipath {
            if let Some(&next) = entry.alt_lasthops.iter().next() {
                // Primary route retracted, redundant routes survive:
                // promote the smallest one; the retraction's other
                // arms strip the rest. Subscriptions pulled toward
                // the old primary direction are re-examined.
                let old = entry.lasthop;
                // unwrap: presence checked above
                let e = self.srt.get_mut(id).unwrap();
                e.alt_lasthops.remove(&next);
                e.lasthop = Hop::Broker(next);
                if let Hop::Broker(old_n) = old {
                    return self.prune_subs_on_link(old_n);
                }
                return Vec::new();
            }
        }
        // unwrap: presence checked above
        let entry = self.srt.remove(id).unwrap();
        self.drop_pending(PendingEntry::Adv(id), &entry.pending);
        let mut out = Vec::new();
        for n in &entry.sent_to {
            out.push(BrokerOutput::ToBroker(*n, PubSubMsg::Unadvertise(id)));
        }
        // Prune rule: subscriptions forwarded toward the removed
        // advertisement are retracted from that link when no other
        // intersecting advertisement remains there.
        if let Hop::Broker(nl) = entry.lasthop {
            out.extend(self.prune_subs_on_link(nl));
        }
        // Covering release for advertisements: previously-quenched
        // advertisements must now flood.
        if self.config.adv_covering.enabled() {
            let release_links: Vec<BrokerId> = entry.sent_to.iter().copied().collect();
            for n in release_links {
                out.extend(self.release_quenched_advs(n, Some(&entry.adv.filter)));
            }
        }
        out
    }

    /// Retracts subscriptions from link `n` when no intersecting
    /// advertisement (active or pending) remains in that direction.
    fn prune_subs_on_link(&mut self, n: BrokerId) -> Vec<BrokerOutput> {
        let mut out = Vec::new();
        let candidates: Vec<SubId> = self
            .prt
            .iter()
            .filter(|(_, e)| e.sent_to.contains(&n))
            .map(|(id, _)| *id)
            .collect();
        for id in candidates {
            out.extend(self.prune_sub_link(id, n));
        }
        out
    }

    /// Retracts subscription `id` from link `n` if no intersecting
    /// advertisement (active or pending) lies that way. Used by the
    /// prune rule and by movement-transaction rollback.
    pub fn prune_sub_link(&mut self, id: SubId, n: BrokerId) -> Vec<BrokerOutput> {
        let Some(entry) = self.prt.get(id) else {
            return Vec::new();
        };
        if !entry.sent_to.contains(&n) {
            return Vec::new();
        }
        let filter = entry.sub.filter.clone();
        let still_needed =
            self.srt
                .overlapping_routes(&filter)
                .iter()
                .any(|(aid, active, pending)| {
                    *active == Hop::Broker(n)
                        || *pending == Some(Hop::Broker(n))
                        || (self.config.multipath
                            && self
                                .srt
                                .get(*aid)
                                .is_some_and(|e| e.alt_lasthops.contains(&n)))
                });
        if still_needed {
            return Vec::new();
        }
        self.prt.update(id, |e| e.sent_to.remove(&n));
        vec![BrokerOutput::ToBroker(n, PubSubMsg::Unsubscribe(id))]
    }

    fn release_quenched_advs(
        &mut self,
        n: BrokerId,
        removed: Option<&Filter>,
    ) -> Vec<BrokerOutput> {
        let mut out = Vec::new();
        let conservative = self.config.conservative_release && removed.is_some();
        let covered: Vec<AdvId> = match removed {
            Some(r) => self.srt.covered_by(r),
            None => self.srt.iter().map(|(id, _)| *id).collect(),
        };
        let candidates: Vec<AdvId> = covered
            .into_iter()
            .filter(|id| {
                // unwrap: ids come straight out of the table's index
                let e = self.srt.get(*id).unwrap();
                e.lasthop != Hop::Broker(n) && !e.sent_to.contains(&n)
            })
            .collect();
        for id in candidates {
            if conservative {
                out.extend(self.forward_adv_unchecked(id, n));
            } else {
                out.extend(self.forward_adv_to(id, n));
            }
        }
        out
    }

    /// Floods advertisement `id` to `n` bypassing the quench check
    /// (conservative covering release).
    fn forward_adv_unchecked(&mut self, id: AdvId, n: BrokerId) -> Vec<BrokerOutput> {
        let Some(entry) = self.srt.get_mut(id) else {
            return Vec::new();
        };
        if entry.lasthop == Hop::Broker(n) || entry.alt_lasthops.contains(&n) {
            return Vec::new();
        }
        let Some(adv) = Self::flood_copy(&entry.adv) else {
            return Vec::new();
        };
        if !entry.sent_to.insert(n) {
            return Vec::new();
        }
        vec![BrokerOutput::ToBroker(n, PubSubMsg::Advertise(adv))]
    }

    /// Pull rule: forwards every intersecting subscription toward
    /// neighbour `nf`, where advertisement `id` arrived from. Also used
    /// by the reconfiguration protocol (paper Sec. 4.4, PRT cases 1
    /// and 3) against a pending advertisement configuration.
    ///
    /// Returns the effects and the subscriptions the pull put on the
    /// link (ascending; covering may quench a candidate, or retract it
    /// again in favour of a later one), which is what a movement
    /// records to undo on abort.
    pub fn pull_subs_toward(&mut self, id: AdvId, nf: BrokerId) -> (Vec<BrokerOutput>, Vec<SubId>) {
        let Some(entry) = self.srt.get(id) else {
            return (Vec::new(), Vec::new());
        };
        let filter = entry.adv.filter.clone();
        let mut out = Vec::new();
        let candidates: Vec<SubId> = self
            .prt
            .overlapping(&filter)
            .into_iter()
            .filter(|sid| {
                // unwrap: ids come straight out of the table's index
                let e = self.prt.get(*sid).unwrap();
                e.lasthop != Hop::Broker(nf) && !e.sent_to.contains(&nf)
            })
            .collect();
        let mut pulled = Vec::new();
        for sid in candidates {
            let forwarded = self.forward_sub_to(sid, nf);
            if !forwarded.is_empty() {
                pulled.push(sid);
            }
            out.extend(forwarded);
        }
        pulled.retain(|sid| self.prt.get(*sid).is_some_and(|e| e.sent_to.contains(&nf)));
        (out, pulled)
    }

    // ----- overlay repair --------------------------------------------

    fn handle_repair_adv(&mut self, from: Hop, adv: Advertisement) -> Vec<BrokerOutput> {
        if let Some(entry) = self.srt.get(adv.id) {
            if !entry.alt_lasthops.is_empty() {
                // The entry already holds multiple routes, so "adopt
                // the new unique route" — the tree-repair semantics
                // below — has no well-defined target and would
                // silently pick one. Publications already fan out
                // along every surviving route under the multi-path
                // forwarder, so the re-propagation is a no-op here.
                debug_assert!(
                    self.config.multipath,
                    "advertisement {} holds multiple routes but multi-path \
                     forwarding is disabled; repair re-propagation would \
                     silently pick one of them",
                    adv.id
                );
                return Vec::new();
            }
        }
        // Same idempotent insert-or-adopt semantics as a plain
        // advertisement — the lasthop adoption in `handle_advertise`
        // is exactly what makes a repair flood converge regardless of
        // whether it arrives before or after this broker ran its own
        // purge. The onward flood and the pulled subscriptions keep
        // the repair tag so repair traffic stays identifiable across
        // the overlay.
        Self::tag_repair(self.handle_advertise(from, adv))
    }

    fn handle_repair_sub(&mut self, from: Hop, sub: Subscription) -> Vec<BrokerOutput> {
        if let Some(entry) = self.prt.get(sub.id) {
            if !entry.alt_lasthops.is_empty() {
                // See `handle_repair_adv`: with multiple routes on
                // the entry there is no unique route to re-point, and
                // the multi-path forwarder already covers delivery.
                debug_assert!(
                    self.config.multipath,
                    "subscription {} holds multiple routes but multi-path \
                     forwarding is disabled; repair re-propagation would \
                     silently pick one of them",
                    sub.id
                );
                return Vec::new();
            }
        }
        Self::tag_repair(self.handle_subscribe(from, sub))
    }

    /// Rewrites forward-direction propagation (advertise / subscribe)
    /// triggered by a repair message as repair variants; retractions
    /// pass through untouched.
    fn tag_repair(outputs: Vec<BrokerOutput>) -> Vec<BrokerOutput> {
        outputs
            .into_iter()
            .map(|o| match o {
                BrokerOutput::ToBroker(n, PubSubMsg::Advertise(a)) => {
                    BrokerOutput::ToBroker(n, PubSubMsg::RepairAdv(a))
                }
                BrokerOutput::ToBroker(n, PubSubMsg::Subscribe(s)) => {
                    BrokerOutput::ToBroker(n, PubSubMsg::RepairSub(s))
                }
                other => other,
            })
            .collect()
    }

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
    /// Returns the effects plus the ids of movement transactions whose
    /// pending (shadow) configuration references the dead broker —
    /// those can no longer commit toward it and must be aborted by the
    /// movement layer.
    pub fn repair_neighbors(
        &mut self,
        dead: BrokerId,
        new_peers: &[BrokerId],
    ) -> (Vec<BrokerOutput>, Vec<MoveId>) {
        self.neighbors.remove(&dead);
        for p in new_peers {
            if *p != self.id {
                self.neighbors.insert(*p);
            }
        }
        // Movements whose shadow configuration routes via the dead
        // broker: collected before the purge, which may remove the
        // very entries holding them.
        let mut doomed: BTreeSet<MoveId> = BTreeSet::new();
        for (_, e) in self.srt.iter() {
            if let Some(p) = &e.pending {
                if p.lasthop == Hop::Broker(dead) {
                    doomed.insert(p.move_id);
                }
            }
        }
        for (_, e) in self.prt.iter() {
            if let Some(p) = &e.pending {
                if p.lasthop == Hop::Broker(dead) {
                    doomed.insert(p.move_id);
                }
            }
        }
        // Redundant multi-path routes through the dead broker are
        // gone; strip them first so the purge below promotes only
        // *surviving* alternates when a primary route dies.
        let alt_advs: Vec<AdvId> = self
            .srt
            .iter()
            .filter(|(_, e)| e.alt_lasthops.contains(&dead))
            .map(|(id, _)| *id)
            .collect();
        for id in alt_advs {
            // unwrap: ids drawn from the table just above
            self.srt.get_mut(id).unwrap().alt_lasthops.remove(&dead);
        }
        let alt_subs: Vec<SubId> = self
            .prt
            .iter()
            .filter(|(_, e)| e.alt_lasthops.contains(&dead))
            .map(|(id, _)| *id)
            .collect();
        for id in alt_subs {
            self.prt.update(id, |e| e.alt_lasthops.remove(&dead));
        }
        // Forwarding sets must stop referencing the dead link before
        // the purge cascades, so no retraction is addressed to it.
        let stale_advs: Vec<AdvId> = self
            .srt
            .iter()
            .filter(|(_, e)| e.sent_to.contains(&dead))
            .map(|(id, _)| *id)
            .collect();
        for id in stale_advs {
            // unwrap: ids drawn from the table just above
            self.srt.get_mut(id).unwrap().sent_to.remove(&dead);
        }
        let stale_subs: Vec<SubId> = self
            .prt
            .iter()
            .filter(|(_, e)| e.sent_to.contains(&dead))
            .map(|(id, _)| *id)
            .collect();
        for id in stale_subs {
            self.prt.update(id, |e| e.sent_to.remove(&dead));
        }
        // Purge: withdraw every entry learned over the dead link
        // exactly as if the dead broker had retracted it. The
        // `lasthop == from` check in the retraction handlers holds by
        // construction, and the resulting cascade cleans the entry
        // from every surviving broker downstream.
        let mut out = Vec::new();
        let purge_advs: Vec<AdvId> = self
            .srt
            .iter()
            .filter(|(_, e)| e.lasthop == Hop::Broker(dead))
            .map(|(id, _)| *id)
            .collect();
        for id in purge_advs {
            out.extend(self.handle_unadvertise(Hop::Broker(dead), id));
        }
        let purge_subs: Vec<SubId> = self
            .prt
            .iter()
            .filter(|(_, e)| e.lasthop == Hop::Broker(dead))
            .map(|(id, _)| *id)
            .collect();
        for id in purge_subs {
            out.extend(self.handle_unsubscribe(Hop::Broker(dead), id));
        }
        // Re-propagate the surviving advertisements over each new
        // edge.
        for &p in new_peers {
            if p == self.id {
                continue;
            }
            let push: Vec<AdvId> = self
                .srt
                .iter()
                .filter(|(_, e)| e.lasthop != Hop::Broker(p) && !e.sent_to.contains(&p))
                .map(|(id, _)| *id)
                .collect();
            for id in push {
                // unwrap: ids drawn from the table just above
                let entry = self.srt.get_mut(id).unwrap();
                let Some(adv) = Self::flood_copy(&entry.adv) else {
                    continue;
                };
                entry.sent_to.insert(p);
                out.push(BrokerOutput::ToBroker(p, PubSubMsg::RepairAdv(adv)));
            }
        }
        (out, doomed.into_iter().collect())
    }

    // ----- publications ----------------------------------------------

    /// Turns one publication's destination set (active, pending and,
    /// on cyclic overlays, redundant hops of every matching row,
    /// already merged by [`Prt::destinations_batch`]) into forwarding
    /// effects: brokers ascending, then clients ascending, the arrival
    /// direction suppressed.
    fn emit_publish(
        &mut self,
        from: Hop,
        p: PublicationMsg,
        dests: Destinations,
    ) -> Vec<BrokerOutput> {
        let multipath = self.config.multipath;
        let Destinations {
            mut brokers,
            mut clients,
        } = dests;
        match from {
            Hop::Broker(n) => brokers.retain(|b| *b != n),
            Hop::Client(c) => clients.retain(|d| *d != c),
        }
        if multipath && p.hops >= MAX_PUB_HOPS && !brokers.is_empty() {
            // Backstop bound: the dedup window should have terminated
            // any cycle long before this; count the drop so tests see
            // it.
            self.stats.anomalies += 1;
            brokers.clear();
        }
        let mut out = Vec::with_capacity(brokers.len() + clients.len());
        if !brokers.is_empty() {
            // The hop count only moves on cyclic overlays, keeping
            // acyclic forwarding byte-identical to previous releases.
            let mut fwd = p.clone();
            if multipath {
                fwd.hops += 1;
            }
            for n in brokers {
                out.push(BrokerOutput::ToBroker(n, PubSubMsg::Publish(fwd.clone())));
            }
        }
        for c in clients {
            out.push(BrokerOutput::Deliver(c, p.clone()));
        }
        out
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
        let created = self.prt.get(sub.id).is_none();
        if created {
            self.prt.insert(sub.clone(), new_lasthop);
        }
        let displaced = self.prt.update(sub.id, |entry| {
            entry.pending.replace(PendingRoute {
                move_id,
                lasthop: new_lasthop,
            })
        });
        // flatten: the row exists (pre-existing or just inserted)
        self.drop_pending(PendingEntry::Sub(sub.id), &displaced.flatten());
        self.pending_meta.insert(
            (move_id, PendingEntry::Sub(sub.id)),
            PendingMeta {
                commit_sent_add,
                created,
            },
        );
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
        let created = self.srt.get(adv.id).is_none();
        if created {
            self.srt.insert(adv.clone(), new_lasthop);
        }
        // unwrap: entry exists (pre-existing or just inserted)
        let entry = self.srt.get_mut(adv.id).unwrap();
        let displaced = entry.pending.replace(PendingRoute {
            move_id,
            lasthop: new_lasthop,
        });
        self.drop_pending(PendingEntry::Adv(adv.id), &displaced);
        self.pending_meta.insert(
            (move_id, PendingEntry::Adv(adv.id)),
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
    pub fn commit_move(&mut self, move_id: MoveId) -> Vec<BrokerOutput> {
        let mut out = Vec::new();
        let mut prune_links: BTreeSet<BrokerId> = BTreeSet::new();
        for (entry, meta) in self.take_pending(move_id) {
            // An overlay repair may have removed the old direction;
            // never resurrect a link to a dead broker.
            let sent_add = meta
                .commit_sent_add
                .filter(|add| self.neighbors.contains(add));
            match entry {
                PendingEntry::Adv(id) => {
                    let entry = self
                        .srt
                        .get_mut(id)
                        .expect("an indexed pending configuration names a live row");
                    let pending = (entry.pending.take())
                        .expect("an indexed pending configuration is set on its row");
                    let old_lasthop = entry.lasthop;
                    entry.lasthop = pending.lasthop;
                    if let Hop::Broker(nb) = pending.lasthop {
                        entry.sent_to.remove(&nb);
                        // The committed primary can no longer also be
                        // a redundant route.
                        entry.alt_lasthops.remove(&nb);
                    }
                    entry.sent_to.extend(sent_add);
                    if !meta.created {
                        if let Hop::Broker(old_n) = old_lasthop {
                            prune_links.insert(old_n);
                        }
                    }
                }
                PendingEntry::Sub(id) => {
                    self.prt.update(id, |entry| {
                        let pending = (entry.pending.take())
                            .expect("an indexed pending configuration is set on its row");
                        entry.lasthop = pending.lasthop;
                        if let Hop::Broker(nb) = pending.lasthop {
                            entry.sent_to.remove(&nb);
                            // As for the SRT above.
                            entry.alt_lasthops.remove(&nb);
                        }
                        entry.sent_to.extend(sent_add);
                    });
                }
            }
        }
        // Prune subscriptions that pointed at the old advertisement
        // location (paper PRT case 2, realized as the generic prune).
        for n in prune_links {
            out.extend(self.prune_subs_on_link(n));
        }
        out
    }

    /// Rolls back every pending configuration installed under
    /// `move_id`: shadow configurations are dropped and entries created
    /// by the transaction are removed.
    pub fn abort_move(&mut self, move_id: MoveId) -> Vec<BrokerOutput> {
        for (entry, meta) in self.take_pending(move_id) {
            match (entry, meta.created) {
                (PendingEntry::Adv(id), true) => {
                    self.srt.remove(id);
                }
                (PendingEntry::Adv(id), false) => {
                    if let Some(entry) = self.srt.get_mut(id) {
                        entry.pending = None;
                    }
                }
                (PendingEntry::Sub(id), true) => {
                    self.prt.remove(id);
                }
                (PendingEntry::Sub(id), false) => {
                    self.prt.update(id, |entry| entry.pending = None);
                }
            }
        }
        Vec::new()
    }
}
