//! The pub/sub stub layer of a client (paper Sec. 3.2), hosted inside
//! a broker's *mobile container*.
//!
//! The stub tracks the client's state-machine state (Fig. 4), its
//! pub/sub profile, the notifications buffered while it is not
//! running, the exactly-once dedup set, and the application commands
//! queued during movement. The stub is pure data + transitions; the
//! protocol logic that drives it lives in [`crate::MobileBroker`].

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use serde::{Deserialize, Serialize};
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
    seen: BTreeSet<PubId>,
    queued_ops: VecDeque<ClientOp>,
    /// Notifications surfaced to the application, in order (the
    /// N_i(·) streams of the paper's Sec. 3.4; consumed by the
    /// property checkers and by `take_app_inbox`).
    app_inbox: Vec<PublicationMsg>,
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
            seen: BTreeSet::new(),
            queued_ops: VecDeque::new(),
            app_inbox: Vec::new(),
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
    /// draining the buffer.
    pub fn take_snapshot(&mut self) -> ClientSnapshot {
        let buffered = std::mem::take(&mut self.buffered);
        self.buffered_ids.clear();
        ClientSnapshot {
            buffered,
            seen: self.seen.iter().copied().collect(),
            queued_ops: std::mem::take(&mut self.queued_ops).into(),
            next_seq: (self.next_sub_seq, self.next_adv_seq, self.next_pub_seq),
        }
    }

    /// Merges a transferred snapshot into this (target) copy: the
    /// source-buffered notifications go *before* locally buffered
    /// ones, both de-duplicated by publication id.
    pub fn merge_snapshot(&mut self, snap: ClientSnapshot) {
        let local = std::mem::take(&mut self.buffered);
        self.buffered_ids.clear();
        self.seen.extend(snap.seen.iter().copied());
        for p in snap.buffered.into_iter().chain(local) {
            if !self.seen.contains(&p.id) && self.buffered_ids.insert(p.id) {
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
    /// publication is cloned only where the stub keeps it.
    pub fn deliver(&mut self, p: &PublicationMsg) -> DeliverOutcome {
        if self.seen.contains(&p.id) {
            return DeliverOutcome::Duplicate;
        }
        match self.state {
            ClientState::Started => {
                self.seen.insert(p.id);
                self.app_inbox.push(p.clone());
                DeliverOutcome::Surfaced
            }
            s if s.buffers_notifications() => {
                if self.buffered_ids.insert(p.id) {
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
        let mut out = Vec::new();
        self.buffered_ids.clear();
        for p in std::mem::take(&mut self.buffered) {
            if self.seen.insert(p.id) {
                self.app_inbox.push(p.clone());
                out.push(p);
            }
        }
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

    /// Notifications surfaced to the application so far, in order.
    pub fn app_inbox(&self) -> &[PublicationMsg] {
        &self.app_inbox
    }

    /// Drains the surfaced-notification log.
    pub fn take_app_inbox(&mut self) -> Vec<PublicationMsg> {
        std::mem::take(&mut self.app_inbox)
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
        assert_eq!(c.app_inbox().len(), 1);
    }

    #[test]
    fn paused_client_buffers_then_flushes_in_order() {
        let mut c = HostedClient::started(ClientId(1));
        c.set_state(ClientState::PauseMove);
        assert_eq!(c.deliver(&pubmsg(1, 5)), DeliverOutcome::Buffered);
        assert_eq!(c.deliver(&pubmsg(2, 6)), DeliverOutcome::Buffered);
        assert_eq!(c.deliver(&pubmsg(1, 5)), DeliverOutcome::Duplicate);
        c.set_state(ClientState::Started);
        let flushed = c.flush_buffered();
        assert_eq!(flushed.len(), 2);
        assert_eq!(flushed[0].id, PubId(1));
        assert_eq!(c.app_inbox().len(), 2);
        // A replay after flush is a duplicate.
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
