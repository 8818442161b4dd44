//! The pub/sub stub layer of a client (paper Sec. 3.2), hosted inside
//! a broker's *mobile container*.
//!
//! The stub tracks the client's state-machine state (Fig. 4), its
//! pub/sub profile, the notifications buffered while it is not
//! running, the exactly-once dedup window, and the application
//! commands queued during movement. A notification handed to the
//! application is kept nowhere: the stub remembers its id for the next
//! [`SEEN_WINDOW_CAP`] notifications and nothing else, so neither the
//! stub nor the state transfer of a movement grows with the client's
//! age. The stub is pure data + transitions; the protocol logic that
//! drives it lives in [`crate::MobileBroker`].

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use serde::{Deserialize, Deserializer, Serialize, Serializer};
use transmob_pubsub::fasthash::FastSet;
use transmob_pubsub::{
    AdvId, Advertisement, ClientId, Filter, PubId, PublicationMsg, SubId, Subscription,
};

use crate::messages::{ClientOp, ClientProfile, ClientSnapshot};
use crate::states::ClientState;

/// What happened to a notification handed to the stub.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliverOutcome {
    /// Surfaced to the application (first delivery, client running).
    Surfaced,
    /// Buffered (client paused/created); will be surfaced on start.
    Buffered,
    /// Dropped as a duplicate (already surfaced or already buffered).
    Duplicate,
}

/// Number of surfaced publication ids a stub remembers for
/// exactly-once delivery: a duplicate of any of the last
/// `SEEN_WINDOW_CAP` notifications handed to the application is
/// suppressed; an older one surfaces again.
///
/// A stub meets a duplicate only of a notification that was surfaced
/// at a movement's source while the target copy already buffered (the
/// merge drops it) or whose second copy was still in flight to the
/// target (the delivery after the merge drops it), so the window has
/// to out-last the notifications one client receives during one
/// movement, not its history (DESIGN.md §17).
pub const SEEN_WINDOW_CAP: usize = 1024;

/// The last [`SEEN_WINDOW_CAP`] ids surfaced to the application: a
/// ring in surfacing order beside a hash set of the same ids.
/// Serialized as the ring alone, oldest first.
#[derive(Debug, Clone, Default, PartialEq)]
struct SeenWindow {
    ring: VecDeque<PubId>,
    ids: FastSet<PubId>,
}

impl SeenWindow {
    /// The window holding the last [`SEEN_WINDOW_CAP`] of `ids`
    /// (oldest first, as [`SeenWindow::recent`] lists them).
    fn from_recent(recent: &[PubId]) -> Self {
        let recent = &recent[recent.len().saturating_sub(SEEN_WINDOW_CAP)..];
        let mut ids = FastSet::with_capacity_and_hasher(recent.len(), Default::default());
        let mut ring = VecDeque::with_capacity(recent.len());
        // Only a decoded snapshot can name an id twice: its first
        // mention keeps its place.
        ring.extend(recent.iter().copied().filter(|id| ids.insert(*id)));
        SeenWindow { ring, ids }
    }

    fn contains(&self, id: PubId) -> bool {
        self.ids.contains(&id)
    }

    /// Remembers `id`, forgetting the oldest id if the window is
    /// full; `false` if it was already remembered.
    fn insert(&mut self, id: PubId) -> bool {
        if !self.ids.insert(id) {
            return false;
        }
        if self.ring.len() == SEEN_WINDOW_CAP {
            // unwrap: the ring is full, so it has a front
            let oldest = self.ring.pop_front().unwrap();
            self.ids.remove(&oldest);
        }
        self.ring.push_back(id);
        true
    }

    fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The remembered ids, oldest first.
    fn recent(&self) -> Vec<PubId> {
        self.ring.iter().copied().collect()
    }
}

impl Serialize for SeenWindow {
    fn serialize<S: Serializer>(&self, ser: S) -> Result<S::Ok, S::Error> {
        ser.collect_seq(self.ring.iter())
    }
}

impl<'de> Deserialize<'de> for SeenWindow {
    fn deserialize<D: Deserializer<'de>>(de: D) -> Result<Self, D::Error> {
        Ok(SeenWindow::from_recent(&Vec::deserialize(de)?))
    }
}

/// A client's pub/sub stub as hosted by a broker's mobile container.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostedClient {
    id: ClientId,
    state: ClientState,
    subs: BTreeMap<u32, Subscription>,
    advs: BTreeMap<u32, Advertisement>,
    next_sub_seq: u32,
    next_adv_seq: u32,
    next_pub_seq: u32,
    buffered: Vec<PublicationMsg>,
    buffered_ids: BTreeSet<PubId>,
    seen: SeenWindow,
    queued_ops: VecDeque<ClientOp>,
}

impl HostedClient {
    /// Creates a fresh, running client (attach-and-start).
    pub fn started(id: ClientId) -> Self {
        HostedClient {
            id,
            state: ClientState::Started,
            subs: BTreeMap::new(),
            advs: BTreeMap::new(),
            next_sub_seq: 0,
            next_adv_seq: 0,
            next_pub_seq: 0,
            buffered: Vec::new(),
            buffered_ids: BTreeSet::new(),
            seen: SeenWindow::default(),
            queued_ops: VecDeque::new(),
        }
    }

    /// Creates the *target copy* of a moving client from its routing
    /// profile (state `Created`; execution state arrives later with
    /// the snapshot).
    pub fn created_from_profile(id: ClientId, profile: &ClientProfile) -> Self {
        let mut c = HostedClient::started(id);
        c.state = ClientState::Created;
        for s in &profile.subs {
            c.subs.insert(s.id.seq, s.clone());
        }
        for a in &profile.advs {
            c.advs.insert(a.id.seq, a.clone());
        }
        c
    }

    /// The client id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Current state-machine state.
    pub fn state(&self) -> ClientState {
        self.state
    }

    /// Forces a state transition (protocol driver use).
    pub fn set_state(&mut self, s: ClientState) {
        self.state = s;
    }

    /// The client's current routing profile.
    pub fn profile(&self) -> ClientProfile {
        ClientProfile {
            subs: self.subs.values().cloned().collect(),
            advs: self.advs.values().cloned().collect(),
        }
    }

    /// Captures the transferable execution state (paper message (4)),
    /// draining the buffer. `seen` carries the dedup window, at most
    /// [`SEEN_WINDOW_CAP`] ids, oldest first.
    pub fn take_snapshot(&mut self) -> ClientSnapshot {
        let buffered = std::mem::take(&mut self.buffered);
        self.buffered_ids.clear();
        ClientSnapshot {
            buffered,
            seen: self.seen.recent(),
            queued_ops: std::mem::take(&mut self.queued_ops).into(),
            next_seq: (self.next_sub_seq, self.next_adv_seq, self.next_pub_seq),
        }
    }

    /// Merges a transferred snapshot into this (target) copy: the
    /// source-buffered notifications go *before* locally buffered
    /// ones, both de-duplicated by publication id. The copy has
    /// surfaced nothing yet, so its dedup window is the snapshot's: no
    /// id of its own competes with the transferred ones for a place.
    pub fn merge_snapshot(&mut self, snap: ClientSnapshot) {
        assert!(
            self.seen.is_empty(),
            "a snapshot is merged into a copy that has not started"
        );
        let local = std::mem::take(&mut self.buffered);
        self.buffered_ids.clear();
        self.seen = SeenWindow::from_recent(&snap.seen);
        for p in snap.buffered.into_iter().chain(local) {
            if !self.seen.contains(p.id) && self.buffered_ids.insert(p.id) {
                self.buffered.push(p);
            }
        }
        let mut ops: VecDeque<ClientOp> = snap.queued_ops.into();
        ops.extend(std::mem::take(&mut self.queued_ops));
        self.queued_ops = ops;
        self.next_sub_seq = self.next_sub_seq.max(snap.next_seq.0);
        self.next_adv_seq = self.next_adv_seq.max(snap.next_seq.1);
        self.next_pub_seq = self.next_pub_seq.max(snap.next_seq.2);
    }

    /// Hands a notification to the stub; see [`DeliverOutcome`]. The
    /// stub keeps (a shared handle on) the publication only while it
    /// buffers it.
    pub fn deliver(&mut self, p: &PublicationMsg) -> DeliverOutcome {
        match self.state {
            ClientState::Started => {
                if self.seen.insert(p.id) {
                    DeliverOutcome::Surfaced
                } else {
                    DeliverOutcome::Duplicate
                }
            }
            s if s.buffers_notifications() => {
                if !self.seen.contains(p.id) && self.buffered_ids.insert(p.id) {
                    self.buffered.push(p.clone());
                    DeliverOutcome::Buffered
                } else {
                    DeliverOutcome::Duplicate
                }
            }
            _ => DeliverOutcome::Duplicate,
        }
    }

    /// Surfaces all buffered notifications (on start/resume); returns
    /// the newly surfaced ones in order.
    pub fn flush_buffered(&mut self) -> Vec<PublicationMsg> {
        self.buffered_ids.clear();
        let mut out = std::mem::take(&mut self.buffered);
        out.retain(|p| self.seen.insert(p.id));
        out
    }

    /// Queues an application command for execution after the movement
    /// completes.
    pub fn queue_op(&mut self, op: ClientOp) {
        self.queued_ops.push_back(op);
    }

    /// Drains the queued application commands.
    pub fn drain_ops(&mut self) -> Vec<ClientOp> {
        std::mem::take(&mut self.queued_ops).into()
    }

    /// Registers a new subscription, assigning its id.
    pub fn new_subscription(&mut self, filter: Filter) -> Subscription {
        let id = SubId::new(self.id, self.next_sub_seq);
        self.next_sub_seq += 1;
        let s = Subscription::new(id, filter);
        self.subs.insert(id.seq, s.clone());
        s
    }

    /// Removes a subscription by client-local sequence number.
    pub fn remove_subscription(&mut self, seq: u32) -> Option<Subscription> {
        self.subs.remove(&seq)
    }

    /// Registers a new advertisement, assigning its id.
    pub fn new_advertisement(&mut self, filter: Filter) -> Advertisement {
        let id = AdvId::new(self.id, self.next_adv_seq);
        self.next_adv_seq += 1;
        let a = Advertisement::new(id, filter);
        self.advs.insert(id.seq, a.clone());
        a
    }

    /// Removes an advertisement by client-local sequence number.
    pub fn remove_advertisement(&mut self, seq: u32) -> Option<Advertisement> {
        self.advs.remove(&seq)
    }

    /// Allocates the next publication id. Client ids are assumed to
    /// fit in 32 bits (they do throughout this workspace), keeping
    /// publication ids globally unique.
    pub fn next_pub_id(&mut self) -> PubId {
        let id = PubId((self.id.0 << 32) | u64::from(self.next_pub_seq));
        self.next_pub_seq += 1;
        id
    }

    /// Number of notifications currently buffered.
    pub fn buffered_len(&self) -> usize {
        self.buffered.len()
    }

    /// Number of queued application commands.
    pub fn queued_len(&self) -> usize {
        self.queued_ops.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transmob_pubsub::Publication;

    fn pubmsg(id: u64, x: i64) -> PublicationMsg {
        PublicationMsg::new(PubId(id), ClientId(99), Publication::new().with("x", x))
    }

    #[test]
    fn started_client_surfaces_and_dedupes() {
        let mut c = HostedClient::started(ClientId(1));
        assert_eq!(c.deliver(&pubmsg(1, 5)), DeliverOutcome::Surfaced);
        assert_eq!(c.deliver(&pubmsg(1, 5)), DeliverOutcome::Duplicate);
        assert_eq!(c.deliver(&pubmsg(2, 5)), DeliverOutcome::Surfaced);
        // Nothing was buffered on the way.
        assert_eq!(c.buffered_len(), 0);
        assert!(c.flush_buffered().is_empty());
    }

    #[test]
    fn paused_client_buffers_then_flushes_in_order() {
        let mut c = HostedClient::started(ClientId(1));
        c.set_state(ClientState::PauseMove);
        assert_eq!(c.deliver(&pubmsg(1, 5)), DeliverOutcome::Buffered);
        assert_eq!(c.deliver(&pubmsg(2, 6)), DeliverOutcome::Buffered);
        assert_eq!(c.deliver(&pubmsg(1, 5)), DeliverOutcome::Duplicate);
        c.set_state(ClientState::Started);
        assert_eq!(c.flush_buffered(), vec![pubmsg(1, 5), pubmsg(2, 6)]);
        // The flush handed them over: a second one returns nothing…
        assert_eq!(c.buffered_len(), 0);
        assert!(c.flush_buffered().is_empty());
        // …and a replay of either is a duplicate.
        assert_eq!(c.deliver(&pubmsg(1, 5)), DeliverOutcome::Duplicate);
        assert_eq!(c.deliver(&pubmsg(2, 6)), DeliverOutcome::Duplicate);
    }

    #[test]
    fn snapshot_merge_dedupes_and_orders_source_first() {
        // Source copy buffers pubs 1,2; target copy buffers 2,3.
        let mut src = HostedClient::started(ClientId(1));
        src.set_state(ClientState::PauseMove);
        src.deliver(&pubmsg(1, 0));
        src.deliver(&pubmsg(2, 0));
        let snap = src.take_snapshot();
        assert_eq!(src.buffered_len(), 0);

        let mut tgt = HostedClient::created_from_profile(ClientId(1), &ClientProfile::default());
        tgt.deliver(&pubmsg(2, 0));
        tgt.deliver(&pubmsg(3, 0));
        tgt.merge_snapshot(snap);
        tgt.set_state(ClientState::Started);
        let flushed = tgt.flush_buffered();
        let ids: Vec<u64> = flushed.iter().map(|p| p.id.0).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn snapshot_carries_seen_set() {
        let mut src = HostedClient::started(ClientId(1));
        src.deliver(&pubmsg(7, 0)); // surfaced at source
        src.set_state(ClientState::PauseMove);
        let snap = src.take_snapshot();
        let mut tgt = HostedClient::created_from_profile(ClientId(1), &ClientProfile::default());
        // In-flight duplicate arrives at the target before the merge…
        tgt.deliver(&pubmsg(7, 0));
        tgt.merge_snapshot(snap);
        tgt.set_state(ClientState::Started);
        // …and is suppressed by the transferred seen set.
        assert!(tgt.flush_buffered().is_empty());
    }

    /// A started stub delivered ids `0..n`, in order.
    fn started_after(n: u64) -> HostedClient {
        let mut c = HostedClient::started(ClientId(1));
        for id in 0..n {
            assert_eq!(c.deliver(&pubmsg(id, 0)), DeliverOutcome::Surfaced);
        }
        c
    }

    #[test]
    fn seen_window_is_bounded_and_so_is_the_snapshot() {
        let cap = SEEN_WINDOW_CAP as u64;
        let mut c = started_after(10 * cap);
        assert_eq!(c.seen.ring.len(), SEEN_WINDOW_CAP);
        assert_eq!(c.seen.ids.len(), SEEN_WINDOW_CAP);
        let snap = c.take_snapshot();
        // The window travels whole, oldest first.
        let expect: Vec<PubId> = (9 * cap..10 * cap).map(PubId).collect();
        assert_eq!(snap.seen, expect);
        // The source keeps its window (an aborted movement resumes here).
        assert_eq!(
            c.deliver(&pubmsg(10 * cap - 1, 0)),
            DeliverOutcome::Duplicate
        );
    }

    #[test]
    fn full_window_survives_a_movement_round_trip() {
        let cap = SEEN_WINDOW_CAP as u64;
        let mut src = started_after(3 * cap);
        src.set_state(ClientState::PauseMove);
        let snap = src.take_snapshot();
        let mut tgt = HostedClient::created_from_profile(ClientId(1), &src.profile());
        // Copies of the newest and the oldest remembered id reach the
        // target before the state does.
        assert_eq!(
            tgt.deliver(&pubmsg(3 * cap - 1, 0)),
            DeliverOutcome::Buffered
        );
        assert_eq!(tgt.deliver(&pubmsg(2 * cap, 0)), DeliverOutcome::Buffered);
        tgt.merge_snapshot(snap);
        tgt.set_state(ClientState::Started);
        assert!(tgt.flush_buffered().is_empty());
        for id in 2 * cap..3 * cap {
            assert_eq!(tgt.deliver(&pubmsg(id, 0)), DeliverOutcome::Duplicate);
        }
        // The merge kept the recency order: the next new id evicts the
        // oldest one and no other.
        assert_eq!(tgt.deliver(&pubmsg(3 * cap, 0)), DeliverOutcome::Surfaced);
        assert_eq!(
            tgt.deliver(&pubmsg(2 * cap + 1, 0)),
            DeliverOutcome::Duplicate
        );
        assert_eq!(tgt.deliver(&pubmsg(2 * cap, 0)), DeliverOutcome::Surfaced);
    }

    /// The documented limit: the stub forgets what left the window.
    #[test]
    fn duplicate_older_than_the_window_surfaces_again() {
        let cap = SEEN_WINDOW_CAP as u64;
        let mut c = started_after(cap + 1);
        assert_eq!(c.deliver(&pubmsg(1, 0)), DeliverOutcome::Duplicate);
        assert_eq!(c.deliver(&pubmsg(0, 0)), DeliverOutcome::Surfaced);
    }

    #[test]
    fn oversized_snapshot_keeps_the_newest_ids() {
        let cap = SEEN_WINDOW_CAP as u64;
        let snap = ClientSnapshot {
            seen: (0..2 * cap).map(PubId).collect(),
            ..ClientSnapshot::default()
        };
        let mut tgt = HostedClient::created_from_profile(ClientId(1), &ClientProfile::default());
        tgt.merge_snapshot(snap);
        tgt.set_state(ClientState::Started);
        assert_eq!(tgt.take_snapshot().seen.len(), SEEN_WINDOW_CAP);
        assert_eq!(
            tgt.deliver(&pubmsg(2 * cap - 1, 0)),
            DeliverOutcome::Duplicate
        );
        assert_eq!(tgt.deliver(&pubmsg(cap - 1, 0)), DeliverOutcome::Surfaced);
    }

    #[test]
    fn snapshot_naming_an_id_twice_keeps_its_first_mention() {
        let recent = [PubId(3), PubId(1), PubId(3), PubId(2), PubId(1)];
        let built = SeenWindow::from_recent(&recent);
        let mut inserted = SeenWindow::default();
        for id in recent {
            inserted.insert(id);
        }
        assert_eq!(built, inserted);
        assert_eq!(built.recent(), vec![PubId(3), PubId(1), PubId(2)]);
    }

    #[test]
    #[should_panic(expected = "has not started")]
    fn merging_into_a_copy_that_surfaced_something_is_a_bug() {
        let mut c = started_after(1);
        c.merge_snapshot(ClientSnapshot::default());
    }

    #[test]
    fn stub_round_trips_through_serde_with_its_window_order() {
        let cap = SEEN_WINDOW_CAP as u64;
        let c = started_after(cap + 5);
        let json = serde_json::to_string(&c).unwrap();
        let mut back: HostedClient = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
        assert_eq!(back.take_snapshot().seen[0], PubId(5));
    }

    #[test]
    fn queued_ops_transfer_source_first() {
        let mut src = HostedClient::started(ClientId(1));
        src.set_state(ClientState::PauseMove);
        src.queue_op(ClientOp::Publish(Publication::new().with("o", 1)));
        let snap = src.take_snapshot();
        let mut tgt = HostedClient::created_from_profile(ClientId(1), &ClientProfile::default());
        tgt.queue_op(ClientOp::Publish(Publication::new().with("o", 2)));
        tgt.merge_snapshot(snap);
        let ops = tgt.drain_ops();
        assert_eq!(ops.len(), 2);
        assert!(
            matches!(&ops[0], ClientOp::Publish(p) if p.get("o") == Some(&transmob_pubsub::Value::Int(1)))
        );
    }

    #[test]
    fn id_sequences_survive_moves() {
        let mut src = HostedClient::started(ClientId(1));
        let s0 = src.new_subscription(Filter::builder().any("x").build());
        assert_eq!(s0.id.seq, 0);
        let _ = src.new_advertisement(Filter::builder().any("x").build());
        let _ = src.next_pub_id();
        src.set_state(ClientState::PauseMove);
        let snap = src.take_snapshot();
        let mut tgt = HostedClient::created_from_profile(ClientId(1), &src.profile());
        tgt.merge_snapshot(snap);
        let s1 = tgt.new_subscription(Filter::builder().any("y").build());
        assert_eq!(s1.id.seq, 1, "sequence must continue after a move");
        assert_eq!(tgt.next_pub_id(), PubId((1u64 << 32) | 1));
    }

    #[test]
    fn profile_round_trip() {
        let mut c = HostedClient::started(ClientId(4));
        c.new_subscription(Filter::builder().ge("x", 1).build());
        c.new_advertisement(Filter::builder().le("x", 9).build());
        let p = c.profile();
        assert_eq!(p.subs.len(), 1);
        assert_eq!(p.advs.len(), 1);
        let copy = HostedClient::created_from_profile(ClientId(4), &p);
        assert_eq!(copy.profile(), p);
        assert_eq!(copy.state(), ClientState::Created);
    }

    #[test]
    fn clean_client_drops_notifications() {
        let mut c = HostedClient::started(ClientId(1));
        c.set_state(ClientState::Clean);
        assert_eq!(c.deliver(&pubmsg(1, 0)), DeliverOutcome::Duplicate);
        assert_eq!(c.buffered_len(), 0);
    }

    #[test]
    fn unsubscribe_removes_from_profile() {
        let mut c = HostedClient::started(ClientId(1));
        let s = c.new_subscription(Filter::builder().any("x").build());
        assert!(c.remove_subscription(s.id.seq).is_some());
        assert!(c.profile().subs.is_empty());
        assert!(c.remove_subscription(s.id.seq).is_none());
    }
}
