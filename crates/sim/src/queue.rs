//! The simulator's pending events, earliest `(time, seq)` first, in two
//! tiers.
//!
//! Most of what a timed run has pending at any instant is scheduled
//! far ahead of the clock: the next movement of every planned client,
//! the publications of the coming slice, the set-up subscriptions.
//! What the run itself keeps producing (a frame on a link, its
//! execution at the receiver, a link report) comes due within a few
//! service times, and only a handful of those are pending at once. So
//! the far events wait in one heap, the agenda, and the near ones in
//! another; a pop compares the two heads. An event that is pushed and
//! popped near the clock then sifts through a heap of a few keys, not
//! through every command of the run.
//!
//! Both heaps hold 24-byte `(time, seq, slot)` keys over one shared
//! slab of event bodies, so a sift moves a key and never an event. A
//! popped or dropped event's slot goes on the free list and is the next
//! one filled, so the slab is as long as the most events ever pending
//! at once. The sequence number is unique among pending events, so
//! neither the slot nor the tier ever decides the order: the two tiers
//! pop exactly what one heap of all the keys would.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// The heap an event waits in. Only the cost of a sift depends on it,
/// never the order events pop in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tier {
    /// Events scheduled ahead of the clock from outside the run.
    Agenda,
    /// Events the run produced, due within a few service times.
    Near,
}

type Heap = BinaryHeap<Reverse<(SimTime, u64, u32)>>;

/// The most keys a tier's buffer keeps room for once the tier drains.
/// A burst can fill both tiers in turn: `sim-match`'s set-up schedules
/// 10 000 subscriptions on the agenda, then piles up to 9 000 of their
/// executions in the near heap while the agenda empties. A drained
/// tier gives a larger buffer back, so a burst does not leave two
/// heap-sized buffers behind.
const KEEP: usize = 1024;

/// The `(time, seq)` of a heap's earliest key.
fn head(heap: &Heap) -> Option<(SimTime, u64)> {
    heap.peek().map(|&Reverse((time, seq, _))| (time, seq))
}

/// The pending events of a [`crate::Sim`] (see the module docs).
#[derive(Debug)]
pub(crate) struct EventQueue<T> {
    agenda: Heap,
    near: Heap,
    slab: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue {
            agenda: Heap::new(),
            near: Heap::new(),
            slab: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> EventQueue<T> {
    /// Queues `body` under `(time, seq)` in `tier`.
    pub(crate) fn push(&mut self, time: SimTime, seq: u64, tier: Tier, body: T) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(body);
                slot
            }
            None => {
                self.slab.push(Some(body));
                u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 pending events")
            }
        };
        let heap = match tier {
            Tier::Agenda => &mut self.agenda,
            Tier::Near => &mut self.near,
        };
        heap.push(Reverse((time, seq, slot)));
    }

    /// The heap whose head is the earliest event.
    fn first(&mut self) -> Option<&mut Heap> {
        match (head(&self.near), head(&self.agenda)) {
            (Some(near), Some(agenda)) if agenda < near => Some(&mut self.agenda),
            (Some(_), _) => Some(&mut self.near),
            (None, Some(_)) => Some(&mut self.agenda),
            (None, None) => None,
        }
    }

    /// The `(time, seq)` of the earliest event.
    pub(crate) fn peek(&self) -> Option<(SimTime, u64)> {
        match (head(&self.near), head(&self.agenda)) {
            (Some(near), Some(agenda)) => Some(near.min(agenda)),
            (near, agenda) => near.or(agenda),
        }
    }

    /// Removes the earliest event: its sequence number and body.
    pub(crate) fn pop(&mut self) -> Option<(u64, T)> {
        let heap = self.first()?;
        let Reverse((_, seq, slot)) = heap.pop().expect("the first heap has a head");
        if heap.is_empty() && heap.capacity() > KEEP {
            *heap = Heap::new();
        }
        Some((seq, self.take(slot)))
    }

    /// Frees `slot` and hands back the body it held.
    fn take(&mut self, slot: u32) -> T {
        self.free.push(slot);
        self.slab[slot as usize]
            .take()
            .expect("a keyed slot holds its event")
    }

    /// The pending events as `(time, seq, body)`, in no particular
    /// order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (SimTime, u64, &T)> {
        (self.near.iter().chain(&self.agenda)).map(|&Reverse((time, seq, slot))| {
            let body = self.slab[slot as usize].as_ref();
            (time, seq, body.expect("a keyed slot holds its event"))
        })
    }

    /// Removes the pending event `seq`, wherever it sorts: its time and
    /// body.
    pub(crate) fn remove(&mut self, seq: u64) -> Option<(SimTime, T)> {
        let mut found = None;
        for heap in [&mut self.near, &mut self.agenda] {
            if let Some(&Reverse((time, _, slot))) = heap.iter().find(|key| key.0 .1 == seq) {
                heap.retain(|key| key.0 .1 != seq);
                found = Some((time, slot));
                break;
            }
        }
        let (time, slot) = found?;
        Some((time, self.take(slot)))
    }

    /// Drops every event `lose` picks; returns how many.
    pub(crate) fn discard(&mut self, lose: impl Fn(&T) -> bool) -> usize {
        let before = self.len();
        let (slab, free) = (&mut self.slab, &mut self.free);
        for heap in [&mut self.near, &mut self.agenda] {
            heap.retain(|&Reverse((_, _, slot))| {
                let body = &mut slab[slot as usize];
                let keep = !body.as_ref().is_some_and(&lose);
                if !keep {
                    *body = None;
                    free.push(slot);
                }
                keep
            });
        }
        before - self.len()
    }

    /// How many events are pending, in both tiers.
    pub(crate) fn len(&self) -> usize {
        self.near.len() + self.agenda.len()
    }

    /// How many events are pending in `tier`.
    #[cfg(test)]
    pub(crate) fn tier_len(&self, tier: Tier) -> usize {
        match tier {
            Tier::Agenda => self.agenda.len(),
            Tier::Near => self.near.len(),
        }
    }

    /// The slab's length: the most events ever pending at once.
    #[cfg(test)]
    pub(crate) fn slots(&self) -> usize {
        self.slab.len()
    }

    /// The slots on the free list.
    #[cfg(test)]
    pub(crate) fn free_slots(&self) -> usize {
        self.free.len()
    }

    /// The slots that hold an event.
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.slab.iter().filter(|body| body.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    //! The two tiers against one ordered set of every pending key: the
    //! same operations, the same pop sequence. The case count honours
    //! `CHAOS_CASES` (default 96).

    use std::collections::{BTreeMap, BTreeSet};

    use proptest::prelude::*;

    use super::*;

    fn cases() -> u32 {
        std::env::var("CHAOS_CASES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(96)
    }

    /// One operation: its kind, and two numbers it reads as it needs
    /// (a delay, a pick among the pending or held events).
    type Op = (u8, u64, u64);

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec((0u8..10, 0u64..64, 0u64..1_000), 1..300)
    }

    /// The queue under test and the reference it must agree with. A
    /// body is the sequence number it was pushed under the first time,
    /// so a pop can be checked against its key.
    #[derive(Default)]
    struct Pair {
        queue: EventQueue<u64>,
        reference: BTreeSet<(SimTime, u64)>,
        bodies: BTreeMap<u64, (Tier, u64)>,
        /// The clock: the time of the last pop.
        now: SimTime,
        next_seq: u64,
        /// Events taken out for a while, as a crashed broker holds
        /// them, to be replayed at the current instant under their
        /// old sequence numbers.
        held: Vec<(u64, Tier, u64)>,
    }

    impl Pair {
        fn push(&mut self, time: SimTime, seq: u64, tier: Tier, body: u64) {
            self.queue.push(time, seq, tier, body);
            assert!(self.reference.insert((time, seq)), "a pending seq reused");
            self.bodies.insert(seq, (tier, body));
        }

        fn after(&self, ns: u64) -> SimTime {
            SimTime(self.now.0 + ns)
        }

        fn fresh(&mut self) -> u64 {
            self.next_seq += 1;
            self.next_seq
        }

        /// Pops both and checks they agree; returns what popped.
        fn pop(&mut self) -> Result<Option<(u64, Tier, u64)>, TestCaseError> {
            prop_assert_eq!(self.queue.peek(), self.reference.first().copied());
            let got = self.queue.pop();
            let want = self.reference.pop_first();
            prop_assert_eq!(got.map(|(seq, _)| seq), want.map(|(_, seq)| seq));
            let (Some((seq, body)), Some((time, _))) = (got, want) else {
                return Ok(None);
            };
            let (tier, first) = self.bodies.remove(&seq).expect("a pending seq");
            prop_assert_eq!(body, first);
            self.now = time;
            Ok(Some((seq, tier, body)))
        }

        /// The `pick`-th pending sequence number, if any is pending.
        fn pending(&self, pick: u64) -> Option<u64> {
            let n = self.reference.len();
            let i = usize::try_from(pick).unwrap() % n.max(1);
            self.reference.iter().nth(i).map(|&(_, seq)| seq)
        }

        fn apply(&mut self, (kind, a, b): Op) -> Result<(), TestCaseError> {
            match kind {
                // A frame or a report a few service times out.
                0..=2 => {
                    let seq = self.fresh();
                    self.push(self.after(a), seq, Tier::Near, seq);
                }
                // A command far ahead, or due now.
                3 => {
                    let seq = self.fresh();
                    let at = self.after(if a % 4 == 0 { 0 } else { 1_000 * b });
                    self.push(at, seq, Tier::Agenda, seq);
                }
                // The next event runs; an arrival or a command may go
                // on as its execution under the same sequence number.
                4 | 5 => {
                    if let Some((seq, _, body)) = self.pop()? {
                        if a % 2 == 0 {
                            self.push(self.after(b % 8), seq, Tier::Near, body);
                        }
                    }
                }
                // The next event goes to a crashed broker's held queue.
                6 => {
                    if let Some(event) = self.pop()? {
                        self.held.push(event);
                    }
                }
                // A restart replays the held queue now, in order.
                7 => {
                    for (seq, tier, body) in std::mem::take(&mut self.held) {
                        self.push(self.now, seq, tier, body);
                    }
                }
                // One pending event is run out of order, or one that is
                // not pending is asked for.
                8 => {
                    let seq = match a % 4 {
                        0 => self.next_seq + 1,
                        _ => self.pending(b).unwrap_or(0),
                    };
                    let got = self.queue.remove(seq);
                    let want = self.reference.iter().find(|key| key.1 == seq).copied();
                    prop_assert_eq!(got.map(|(time, _)| (time, seq)), want);
                    if let (Some((_, body)), Some(key)) = (got, want) {
                        self.reference.remove(&key);
                        let (_, first) = self.bodies.remove(&seq).expect("a pending seq");
                        prop_assert_eq!(body, first);
                    }
                }
                // Frames are lost: every body with this residue.
                _ => {
                    let (m, r) = (2 + a % 4, b % 6);
                    let lose = |body: &u64| body % m == r;
                    let lost = self.queue.discard(lose);
                    let before = self.reference.len();
                    let bodies = &self.bodies;
                    self.reference.retain(|(_, seq)| !lose(&bodies[seq].1));
                    self.bodies.retain(|_, (_, body)| !lose(body));
                    prop_assert_eq!(lost, before - self.reference.len());
                }
            }
            prop_assert_eq!(self.queue.len(), self.reference.len());
            prop_assert_eq!(self.queue.live(), self.reference.len());
            prop_assert_eq!(
                self.queue.slots(),
                self.queue.live() + self.queue.free_slots()
            );
            Ok(())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(cases()))]

        /// Any mix of pushes to either tier, pops, continuations,
        /// held replays, removals and discards pops what one ordered
        /// set of all the keys pops.
        #[test]
        fn two_tiers_pop_what_one_ordered_set_pops(ops in ops()) {
            let mut pair = Pair::default();
            for op in ops {
                pair.apply(op)?;
            }
            while pair.pop()?.is_some() {}
            prop_assert_eq!(pair.queue.len(), 0);
            prop_assert_eq!(pair.queue.free_slots(), pair.queue.slots());
        }
    }

    #[test]
    fn a_command_far_ahead_waits_on_the_agenda() {
        let mut q = EventQueue::default();
        q.push(SimTime(1_000_000), 0, Tier::Agenda, 'c');
        q.push(SimTime(5), 1, Tier::Near, 'f');
        q.push(SimTime(5), 2, Tier::Agenda, 'g');
        assert_eq!((q.tier_len(Tier::Agenda), q.tier_len(Tier::Near)), (2, 1));
        assert_eq!(q.pop(), Some((1, 'f')));
        assert_eq!(q.pop(), Some((2, 'g')));
        assert_eq!(q.peek(), Some((SimTime(1_000_000), 0)));
        assert_eq!(q.remove(0), Some((SimTime(1_000_000), 'c')));
        assert_eq!(q.pop(), None);
        assert_eq!(q.slots(), 3);
        assert_eq!(q.free_slots(), 3);
    }
}
