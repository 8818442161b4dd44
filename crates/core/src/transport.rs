//! The driver-side transport abstraction: how a batch of broker
//! effects reaches the wire.
//!
//! Every driver (the discrete-event simulator, the threaded channel
//! and TCP runtimes) ends each broker step with the same chore: walk
//! the [`Output`] list, group consecutive sends sharing a destination
//! into one frame, surface client deliveries, and apply the control
//! effects (timers, movement events). [`Transport`] is the three-verb
//! interface a driver implements; [`flush_outputs`] is the one shared
//! coalescing walk, so the grouping policy — and its ordering
//! guarantees — live in exactly one place.
//!
//! # Ordering contract
//!
//! Coalescing is *conservative*: only **consecutive** effects sharing
//! a destination merge into one batch. The sequence of
//! [`Transport`] calls therefore preserves the exact total order of
//! the effect list — per-link FIFO (which the paper's movement
//! consistency argument relies on) and the relative order of sends,
//! deliveries and control effects all survive verbatim. A transport
//! may ship one batch as one frame, but must hand its contents to the
//! receiver in order.
//!
//! [`TimerTable`] is what a driver's [`Transport::control`] arms and
//! cancels: the one place a timer's deadline is kept.

use std::collections::{BTreeMap, BTreeSet};

use transmob_pubsub::{BrokerId, ClientId, MoveId, PublicationMsg};

use crate::messages::{Message, Output};

/// A driver's shipping layer for one broker's effects.
///
/// Implementations typically wrap the driver plus the per-step context
/// (source broker, movement-cause attribution) in a short-lived struct
/// and pass it to [`flush_outputs`].
pub trait Transport {
    /// Ships a coalesced run of messages to one neighbouring broker —
    /// one frame / one queue entry, contents in order.
    fn send_batch(&mut self, to: BrokerId, msgs: Vec<Message>);

    /// Surfaces a coalesced run of notifications to one client's
    /// application layer, in order.
    fn deliver_batch(&mut self, client: ClientId, publications: Vec<PublicationMsg>);

    /// Surfaces one notification that is not followed by another to
    /// the same client: a run of one, which needs no vector. The
    /// default makes the batch call.
    fn deliver(&mut self, client: ClientId, publication: PublicationMsg) {
        self.deliver_batch(client, vec![publication]);
    }

    /// Applies a control effect (timers, movement lifecycle events).
    /// Never receives [`Output::Send`] or [`Output::DeliverToApp`] —
    /// [`flush_outputs`] routes those through the batch verbs.
    fn control(&mut self, output: Output);
}

/// Walks one effect list, merging maximal runs of consecutive
/// same-destination sends (and consecutive same-client deliveries)
/// into single [`Transport::send_batch`] / [`Transport::deliver_batch`]
/// calls; a delivery with no same-client neighbour goes through
/// [`Transport::deliver`]. Everything else goes through
/// [`Transport::control`], so the call sequence replays the effect
/// list's total order exactly. A driver that keeps one effect buffer
/// across steps passes `buffer.drain(..)`.
pub fn flush_outputs<T: Transport + ?Sized>(
    transport: &mut T,
    outputs: impl IntoIterator<Item = Output>,
) {
    let mut outputs = outputs.into_iter().peekable();
    while let Some(o) = outputs.next() {
        match o {
            Output::Send { to, msg } => {
                let mut msgs = vec![msg];
                let same = |o: &Output| matches!(o, Output::Send { to: t, .. } if *t == to);
                while let Some(Output::Send { msg, .. }) = outputs.next_if(same) {
                    msgs.push(msg);
                }
                transport.send_batch(to, msgs);
            }
            Output::DeliverToApp {
                client,
                publication,
            } => {
                let same = |o: &Output| matches!(o, Output::DeliverToApp { client: c, .. } if *c == client);
                if !outputs.peek().is_some_and(same) {
                    transport.deliver(client, publication);
                    continue;
                }
                let mut pubs = vec![publication];
                while let Some(Output::DeliverToApp { publication, .. }) = outputs.next_if(same) {
                    pubs.push(publication);
                }
                transport.deliver_batch(client, pubs);
            }
            other => transport.control(other),
        }
    }
}

/// Splits one received batch, whose sender's step was charged to
/// `inherited`, into maximal runs of consecutive messages charged to
/// the same movement ([`Message::effective_cause`]) and hands each run
/// to `apply` in order. A driver that attributes traffic to movements
/// applies each run as one batch, so the attribution of the outputs
/// matches unbatched processing. A batch with one cause throughout is
/// handed on as it came, without a copy.
pub fn for_each_cause_run(
    mut msgs: Vec<Message>,
    inherited: Option<MoveId>,
    mut apply: impl FnMut(Option<MoveId>, Vec<Message>),
) {
    while let Some(first) = msgs.first() {
        let cause = first.effective_cause(inherited);
        let end = (msgs.iter())
            .position(|m| m.effective_cause(inherited) != cause)
            .unwrap_or(msgs.len());
        // Splitting at the end allocates nothing.
        let rest = msgs.split_off(end);
        apply(cause, std::mem::replace(&mut msgs, rest));
    }
}

/// A driver's armed protocol timers: a key has at most one deadline,
/// and every entry of `queue` is the current deadline of some key. So a
/// cancel leaves nothing behind, a cancel of a key that was never armed
/// stores nothing, and a re-arm fires at the new deadline only. The
/// threaded loop keeps one per broker at `<TimerToken, Instant>`, the
/// simulator one for all at `<(broker, token), (virtual time, seq)>`.
#[derive(Debug)]
pub struct TimerTable<K, D> {
    deadlines: BTreeMap<K, D>,
    queue: BTreeSet<(D, K)>,
}

impl<K, D> Default for TimerTable<K, D> {
    fn default() -> Self {
        TimerTable {
            deadlines: BTreeMap::new(),
            queue: BTreeSet::new(),
        }
    }
}

impl<K: Ord + Copy, D: Ord + Copy> TimerTable<K, D> {
    /// Arms `key` to fire at `at`, replacing any earlier deadline.
    pub fn arm(&mut self, key: K, at: D) {
        self.cancel(key);
        self.deadlines.insert(key, at);
        self.queue.insert((at, key));
    }

    /// Disarms `key`; a no-op if it is not armed.
    pub fn cancel(&mut self, key: K) {
        if let Some(at) = self.deadlines.remove(&key) {
            self.queue.remove(&(at, key));
        }
    }

    /// Whether `key` is armed.
    pub fn is_armed(&self, key: K) -> bool {
        self.deadlines.contains_key(&key)
    }

    /// The armed keys, in key order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.deadlines.keys().copied()
    }

    /// The armed timers, earliest deadline first.
    pub fn by_deadline(&self) -> impl Iterator<Item = (D, K)> + '_ {
        self.queue.iter().copied()
    }

    /// Removes and returns the earliest timer due at `now`.
    pub fn pop_due(&mut self, now: D) -> Option<K> {
        let &(_, key) = self.queue.first().filter(|(at, _)| *at <= now)?;
        self.cancel(key);
        Some(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::TimerToken;
    use transmob_broker::PubSubMsg;
    use transmob_pubsub::{PubId, Publication};

    #[derive(Debug, PartialEq)]
    enum Call {
        Send(BrokerId, usize),
        Deliver(ClientId, usize),
        DeliverOne(ClientId, PubId),
        Control(Output),
    }

    #[derive(Default)]
    struct Recorder {
        calls: Vec<Call>,
        shipped: Vec<Message>,
        delivered: Vec<PubId>,
    }

    impl Transport for Recorder {
        fn send_batch(&mut self, to: BrokerId, msgs: Vec<Message>) {
            self.calls.push(Call::Send(to, msgs.len()));
            self.shipped.extend(msgs);
        }
        fn deliver_batch(&mut self, client: ClientId, publications: Vec<PublicationMsg>) {
            self.calls.push(Call::Deliver(client, publications.len()));
            self.delivered.extend(publications.iter().map(|p| p.id));
        }
        fn deliver(&mut self, client: ClientId, publication: PublicationMsg) {
            self.calls.push(Call::DeliverOne(client, publication.id));
            self.delivered.push(publication.id);
        }
        fn control(&mut self, output: Output) {
            self.calls.push(Call::Control(output));
        }
    }

    /// A transport with the batch verbs only: single deliveries reach
    /// it through the provided [`Transport::deliver`].
    #[derive(Default)]
    struct BatchesOnly {
        delivered: Vec<(ClientId, usize)>,
    }

    impl Transport for BatchesOnly {
        fn send_batch(&mut self, _: BrokerId, _: Vec<Message>) {}
        fn deliver_batch(&mut self, client: ClientId, publications: Vec<PublicationMsg>) {
            self.delivered.push((client, publications.len()));
        }
        fn control(&mut self, _: Output) {}
    }

    fn publish(i: u64) -> Message {
        Message::PubSub(PubSubMsg::Publish(pmsg(i)))
    }

    fn pmsg(i: u64) -> PublicationMsg {
        PublicationMsg::new(
            PubId(i),
            ClientId(1),
            Publication::new().with("x", i as i64),
        )
    }

    fn send(to: u32, i: u64) -> Output {
        Output::Send {
            to: BrokerId(to),
            msg: publish(i),
        }
    }

    fn deliver(client: u64, i: u64) -> Output {
        Output::DeliverToApp {
            client: ClientId(client),
            publication: pmsg(i),
        }
    }

    #[test]
    fn consecutive_runs_coalesce_and_order_is_preserved() {
        let cancel = Output::CancelTimer {
            token: TimerToken::Negotiate(MoveId(0)),
        };
        let outs = vec![
            send(2, 1),
            send(2, 2),
            send(3, 3),
            deliver(9, 1),
            deliver(9, 2),
            // Interleaved destination: must NOT merge with the earlier
            // BrokerId(2) run (that would reorder across destinations).
            send(2, 4),
            cancel.clone(),
            send(2, 5),
            // Single deliveries, each to another client, then a run
            // of three to one client.
            deliver(7, 3),
            deliver(8, 3),
            deliver(7, 4),
            deliver(7, 5),
            deliver(7, 6),
            // A delivery between two sends to one broker splits them.
            send(4, 6),
            deliver(8, 7),
            send(4, 7),
            // A single delivery last: nothing follows to peek at.
            deliver(9, 8),
        ];
        let mut rec = Recorder::default();
        flush_outputs(&mut rec, outs);
        assert_eq!(
            rec.calls,
            vec![
                Call::Send(BrokerId(2), 2),
                Call::Send(BrokerId(3), 1),
                Call::Deliver(ClientId(9), 2),
                Call::Send(BrokerId(2), 1),
                Call::Control(cancel),
                Call::Send(BrokerId(2), 1),
                Call::DeliverOne(ClientId(7), PubId(3)),
                Call::DeliverOne(ClientId(8), PubId(3)),
                Call::Deliver(ClientId(7), 3),
                Call::Send(BrokerId(4), 1),
                Call::DeliverOne(ClientId(8), PubId(7)),
                Call::Send(BrokerId(4), 1),
                Call::DeliverOne(ClientId(9), PubId(8)),
            ]
        );
        // Flattening the shipped batches recovers the send order, and
        // the delivered ones the delivery order.
        let sent = [1, 2, 3, 4, 5, 6, 7].map(publish);
        assert_eq!(rec.shipped, sent);
        let delivered = [1, 2, 3, 3, 4, 5, 6, 7, 8].map(PubId);
        assert_eq!(rec.delivered, delivered);
    }

    #[test]
    fn a_single_delivery_defaults_to_a_batch_of_one() {
        let mut rec = BatchesOnly::default();
        flush_outputs(&mut rec, vec![deliver(7, 1), deliver(8, 2), deliver(8, 3)]);
        assert_eq!(rec.delivered, [(ClientId(7), 1), (ClientId(8), 2)]);
    }

    fn ack(m: u64) -> Message {
        Message::from(crate::messages::MoveMsg::Ack {
            m: MoveId(m),
            source: BrokerId(1),
            target: BrokerId(2),
        })
    }

    #[test]
    fn cause_runs_are_maximal_and_in_order() {
        let msgs = vec![publish(1), ack(1), ack(1), publish(2), publish(3), ack(2)];
        let mut runs = Vec::new();
        for_each_cause_run(msgs.clone(), Some(MoveId(9)), |cause, run| {
            runs.push((cause.map(|m| m.0), run));
        });
        let lens: Vec<_> = runs.iter().map(|(c, run)| (*c, run.len())).collect();
        assert_eq!(
            lens,
            vec![(Some(9), 1), (Some(1), 2), (Some(9), 2), (Some(2), 1)]
        );
        let flat: Vec<Message> = runs.into_iter().flat_map(|(_, run)| run).collect();
        assert_eq!(flat, msgs, "the runs, joined, are the frame");
        for_each_cause_run(Vec::new(), None, |_, _| panic!("empty batch has no runs"));
    }

    #[test]
    fn a_single_cause_frame_passes_through_uncopied() {
        for msgs in [vec![publish(1), publish(2)], vec![ack(3), ack(3), ack(3)]] {
            let mut msgs = msgs;
            msgs.reserve(5);
            let (ptr, cap, len) = (msgs.as_ptr(), msgs.capacity(), msgs.len());
            let mut calls = 0;
            for_each_cause_run(msgs, None, |_, run| {
                calls += 1;
                assert_eq!((run.as_ptr(), run.capacity(), run.len()), (ptr, cap, len));
            });
            assert_eq!(calls, 1);
        }
    }

    #[test]
    fn empty_output_list_makes_no_calls() {
        let mut rec = Recorder::default();
        flush_outputs(&mut rec, Vec::new());
        assert!(rec.calls.is_empty());
    }
}
