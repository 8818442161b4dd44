//! The delivery oracle: who must be notified of each publication,
//! computed with `Filter::matches` alone (never with the match index
//! under test), and a tracker that checks every notification a driver
//! surfaces against it.

use std::collections::HashMap;

use transmob_pubsub::{Filter, Publication};

/// A set of subscriber indices (positions in the workload's
/// subscriber list).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientSet(Vec<u64>);

impl ClientSet {
    pub fn new(clients: usize) -> Self {
        ClientSet(vec![0; clients.div_ceil(64)])
    }

    pub fn insert(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    /// Removes `i`; `false` if it was not in the set.
    pub fn remove(&mut self, i: usize) -> bool {
        let Some(word) = self.0.get_mut(i / 64) else {
            return false;
        };
        let had = *word & (1 << (i % 64)) != 0;
        *word &= !(1 << (i % 64));
        had
    }

    pub fn is_empty(&self) -> bool {
        self.0.iter().all(|w| *w == 0)
    }

    pub fn len(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// The expected notification set of every publication content of a
/// workload's content cycle.
#[derive(Debug)]
pub struct Oracle {
    expected: Vec<ClientSet>,
}

impl Oracle {
    /// `filters[i]` are the subscriptions subscriber `i` holds; a
    /// subscriber is notified once per publication matching any.
    pub fn build(filters: &[Vec<Filter>], contents: &[Publication]) -> Self {
        let expected = contents
            .iter()
            .map(|p| {
                let mut set = ClientSet::new(filters.len());
                for (i, fs) in filters.iter().enumerate() {
                    if fs.iter().any(|f| f.matches(p)) {
                        set.insert(i);
                    }
                }
                set
            })
            .collect();
        Oracle { expected }
    }

    pub fn expected(&self, content: usize) -> &ClientSet {
        &self.expected[content % self.expected.len()]
    }

    /// Mean notifications per publication over the content cycle.
    pub fn fanout(&self) -> f64 {
        let total: usize = self.expected.iter().map(ClientSet::len).sum();
        total as f64 / self.expected.len().max(1) as f64
    }
}

/// Checks a driver's notification stream against the oracle: every
/// publication completes exactly when its last expected subscriber is
/// notified, and a notification that no pending publication still
/// expects (a duplicate, a wrong subscriber, an unknown publication)
/// is counted, never ignored. `T` is the driver's timestamp type.
#[derive(Debug)]
pub struct Tracker<T> {
    pending: HashMap<u64, (ClientSet, T)>,
    /// Publications whose full expected set arrived.
    pub completed: u64,
    /// Notifications nothing was waiting for.
    pub unexpected: u64,
}

impl<T: Copy> Tracker<T> {
    pub fn new() -> Self {
        Tracker {
            pending: HashMap::new(),
            completed: 0,
            unexpected: 0,
        }
    }

    /// Registers publication `key`, published at `at`. Returns `true`
    /// if nobody is expected, i.e. it is complete already.
    pub fn on_publish(&mut self, key: u64, expected: &ClientSet, at: T) -> bool {
        if expected.is_empty() {
            self.completed += 1;
            return true;
        }
        self.pending.insert(key, (expected.clone(), at));
        false
    }

    /// Records that subscriber `client` was notified of `key`. Returns
    /// the publish timestamp if that completed the publication.
    pub fn on_notify(&mut self, key: u64, client: usize) -> Option<T> {
        let Some((remaining, at)) = self.pending.get_mut(&key) else {
            self.unexpected += 1;
            return None;
        };
        if !remaining.remove(client) {
            self.unexpected += 1;
            return None;
        }
        if !remaining.is_empty() {
            return None;
        }
        let at = *at;
        self.pending.remove(&key);
        self.completed += 1;
        Some(at)
    }

    /// Publications still waiting for a notification.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn range(lo: i64, hi: i64) -> Filter {
        Filter::builder().ge("x", lo).le("x", hi).build()
    }

    /// A hand-built table of three subscriptions on two subscribers.
    fn table() -> Vec<Vec<Filter>> {
        vec![vec![range(0, 10), range(20, 30)], vec![range(5, 25)]]
    }

    #[test]
    fn oracle_matches_hand_computed_sets() {
        let contents: Vec<Publication> = [3, 7, 15, 22, 40]
            .iter()
            .map(|x| Publication::new().with("x", *x))
            .collect();
        let o = Oracle::build(&table(), &contents);
        let members = |c: usize| -> Vec<usize> {
            (0..2)
                .filter(|i| o.expected(c).clone().remove(*i))
                .collect()
        };
        assert_eq!(members(0), vec![0]); // 3: only [0,10]
        assert_eq!(members(1), vec![0, 1]); // 7: [0,10] and [5,25]
        assert_eq!(members(2), vec![1]); // 15: only [5,25]
        assert_eq!(members(3), vec![0, 1]); // 22: [20,30] and [5,25]
        assert_eq!(members(4), Vec::<usize>::new());
        assert_eq!(members(6), members(1), "content index wraps");
        assert!((o.fanout() - 6.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn tracker_flags_duplicates_strangers_and_missing() {
        let contents = vec![
            Publication::new().with("x", 7),
            Publication::new().with("x", 40),
        ];
        let o = Oracle::build(&table(), &contents);
        let mut t: Tracker<u32> = Tracker::new();
        assert!(!t.on_publish(100, o.expected(0), 1));
        assert!(t.on_publish(101, o.expected(1), 2), "nobody expected");
        assert_eq!(t.on_notify(100, 0), None);
        assert_eq!(t.on_notify(100, 0), None, "duplicate");
        assert_eq!(t.unexpected, 1);
        assert_eq!(t.on_notify(100, 1), Some(1));
        assert_eq!(t.on_notify(100, 1), None, "duplicate after completion");
        assert_eq!(t.on_notify(101, 0), None, "stranger");
        assert_eq!((t.completed, t.unexpected, t.in_flight()), (2, 3, 0));
        t.on_publish(102, o.expected(0), 3);
        t.on_notify(102, 1);
        assert_eq!(t.in_flight(), 1, "subscriber 0 still missing");
    }

    #[test]
    fn client_set_spans_words() {
        let mut s = ClientSet::new(130);
        s.insert(0);
        s.insert(64);
        s.insert(129);
        assert_eq!(s.len(), 3);
        assert!(s.remove(64) && !s.remove(64) && !s.remove(4000));
        assert_eq!(s.len(), 2);
    }
}
