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

    /// Applies a control effect (timers, movement lifecycle events).
    /// Never receives [`Output::Send`] or [`Output::DeliverToApp`] —
    /// [`flush_outputs`] routes those through the batch verbs.
    fn control(&mut self, output: Output);
}

/// An in-progress coalescing run.
enum Run {
    Send(BrokerId, Vec<Message>),
    Deliver(ClientId, Vec<PublicationMsg>),
}

fn flush_run<T: Transport + ?Sized>(transport: &mut T, run: &mut Option<Run>) {
    match run.take() {
        Some(Run::Send(to, msgs)) => transport.send_batch(to, msgs),
        Some(Run::Deliver(client, pubs)) => transport.deliver_batch(client, pubs),
        None => {}
    }
}

/// Walks one effect list, merging maximal runs of consecutive
/// same-destination sends (and consecutive same-client deliveries)
/// into single [`Transport::send_batch`] / [`Transport::deliver_batch`]
/// calls. Everything else flushes the current run and goes through
/// [`Transport::control`], so the call sequence replays the effect
/// list's total order exactly.
pub fn flush_outputs<T: Transport + ?Sized>(transport: &mut T, outputs: Vec<Output>) {
    let mut run: Option<Run> = None;
    for o in outputs {
        match o {
            Output::Send { to, msg } => match &mut run {
                Some(Run::Send(dest, msgs)) if *dest == to => msgs.push(msg),
                _ => {
                    flush_run(transport, &mut run);
                    run = Some(Run::Send(to, vec![msg]));
                }
            },
            Output::DeliverToApp {
                client,
                publication,
            } => match &mut run {
                Some(Run::Deliver(c, pubs)) if *c == client => pubs.push(publication),
                _ => {
                    flush_run(transport, &mut run);
                    run = Some(Run::Deliver(client, vec![publication]));
                }
            },
            other => {
                flush_run(transport, &mut run);
                transport.control(other);
            }
        }
    }
    flush_run(transport, &mut run);
}

/// Splits one received batch, whose sender's step was charged to
/// `inherited`, into maximal runs of consecutive messages charged to
/// the same movement ([`Message::effective_cause`]) and hands each run
/// to `apply` in order. A driver that attributes traffic to movements
/// applies each run as one batch, so the attribution of the outputs
/// matches unbatched processing.
pub fn for_each_cause_run(
    msgs: Vec<Message>,
    inherited: Option<MoveId>,
    mut apply: impl FnMut(Option<MoveId>, Vec<Message>),
) {
    let mut run: Vec<Message> = Vec::new();
    let mut run_cause = None;
    for msg in msgs {
        let cause = msg.effective_cause(inherited);
        if !run.is_empty() && cause != run_cause {
            apply(run_cause, std::mem::take(&mut run));
        }
        run_cause = cause;
        run.push(msg);
    }
    if !run.is_empty() {
        apply(run_cause, run);
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
        Control(Output),
    }

    #[derive(Default)]
    struct Recorder {
        calls: Vec<Call>,
        shipped: Vec<Message>,
    }

    impl Transport for Recorder {
        fn send_batch(&mut self, to: BrokerId, msgs: Vec<Message>) {
            self.calls.push(Call::Send(to, msgs.len()));
            self.shipped.extend(msgs);
        }
        fn deliver_batch(&mut self, client: ClientId, publications: Vec<PublicationMsg>) {
            self.calls.push(Call::Deliver(client, publications.len()));
        }
        fn control(&mut self, output: Output) {
            self.calls.push(Call::Control(output));
        }
    }

    fn publish(i: u64) -> Message {
        Message::PubSub(PubSubMsg::Publish(PublicationMsg::new(
            PubId(i),
            ClientId(1),
            Publication::new().with("x", i as i64),
        )))
    }

    fn pmsg(i: u64) -> PublicationMsg {
        PublicationMsg::new(
            PubId(i),
            ClientId(1),
            Publication::new().with("x", i as i64),
        )
    }

    #[test]
    fn consecutive_runs_coalesce_and_order_is_preserved() {
        let outs = vec![
            Output::Send {
                to: BrokerId(2),
                msg: publish(1),
            },
            Output::Send {
                to: BrokerId(2),
                msg: publish(2),
            },
            Output::Send {
                to: BrokerId(3),
                msg: publish(3),
            },
            Output::DeliverToApp {
                client: ClientId(9),
                publication: pmsg(1),
            },
            Output::DeliverToApp {
                client: ClientId(9),
                publication: pmsg(2),
            },
            // Interleaved destination: must NOT merge with the earlier
            // BrokerId(2) run (that would reorder across destinations).
            Output::Send {
                to: BrokerId(2),
                msg: publish(4),
            },
            Output::CancelTimer {
                token: TimerToken::Negotiate(MoveId(0)),
            },
            Output::Send {
                to: BrokerId(2),
                msg: publish(5),
            },
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
                Call::Control(Output::CancelTimer {
                    token: TimerToken::Negotiate(MoveId(0)),
                }),
                Call::Send(BrokerId(2), 1),
            ]
        );
        // Flattening the shipped batches recovers the send order.
        assert_eq!(
            rec.shipped,
            vec![publish(1), publish(2), publish(3), publish(4), publish(5)]
        );
    }

    #[test]
    fn cause_runs_are_maximal_and_in_order() {
        let ack = |m| {
            Message::Move(crate::messages::MoveMsg::Ack {
                m: MoveId(m),
                source: BrokerId(1),
                target: BrokerId(2),
            })
        };
        let msgs = vec![publish(1), ack(1), ack(1), publish(2), publish(3), ack(2)];
        let mut runs = Vec::new();
        for_each_cause_run(msgs, Some(MoveId(9)), |cause, run| {
            runs.push((cause.map(|m| m.0), run.len()));
        });
        assert_eq!(
            runs,
            vec![(Some(9), 1), (Some(1), 2), (Some(9), 2), (Some(2), 1)]
        );
        for_each_cause_run(Vec::new(), None, |_, _| panic!("empty batch has no runs"));
    }

    #[test]
    fn empty_output_list_makes_no_calls() {
        let mut rec = Recorder::default();
        flush_outputs(&mut rec, Vec::new());
        assert!(rec.calls.is_empty());
    }
}
