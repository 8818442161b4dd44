//! The contract of [`TimerTable`], the one timer bookkeeping of every
//! driver, checked at both instantiations the drivers use: the threaded
//! loop's `<TimerToken, Instant>` and the shape of the simulator's
//! `<(BrokerId, TimerToken), (SimTime, seq)>` (`SimTime` is a `u64`
//! newtype defined downstream). Each check takes `key(i)`, distinct
//! keys, and `ms(i)`, the deadline `i` milliseconds away.

use std::fmt::Debug;
use std::time::{Duration, Instant};

use transmob_core::{TimerKind, TimerTable, TimerToken};
use transmob_pubsub::{BrokerId, MoveId};

fn token(m: u64) -> TimerToken {
    TimerToken {
        m: MoveId(m),
        kind: TimerKind::Negotiate,
    }
}

fn instant_ms() -> impl Fn(u64) -> Instant {
    let t0 = Instant::now();
    move |ms| t0 + Duration::from_millis(ms)
}

fn sim_key(m: u64) -> (BrokerId, TimerToken) {
    (BrokerId(3), token(m))
}

fn sim_ms(ms: u64) -> (u64, u64) {
    (ms * 1_000_000, 7)
}

/// Neither half of the table holds anything.
fn is_empty<K: Ord + Copy, D: Ord + Copy>(t: &TimerTable<K, D>) -> bool {
    t.keys().next().is_none() && t.by_deadline().next().is_none()
}

#[test]
fn cancel_of_a_never_armed_token_leaves_the_table_empty() {
    fn check<K: Ord + Copy + Debug, D: Ord + Copy>(key: impl Fn(u64) -> K, ms: impl Fn(u64) -> D) {
        let mut t = TimerTable::default();
        t.cancel(key(1));
        assert!(is_empty(&t));
        assert!(!t.is_armed(key(1)));
        assert_eq!(t.pop_due(ms(0)), None);
    }
    check(token, instant_ms());
    check(sim_key, sim_ms);
}

#[test]
fn rearmed_token_fires_once_at_the_second_deadline() {
    fn check<K, D>(key: impl Fn(u64) -> K, ms: impl Fn(u64) -> D)
    where
        K: Ord + Copy + Debug,
        D: Ord + Copy + Debug,
    {
        let mut t = TimerTable::default();
        t.arm(key(1), ms(10));
        t.cancel(key(1));
        t.arm(key(1), ms(50));
        assert!(t.is_armed(key(1)));
        assert_eq!(t.keys().collect::<Vec<_>>(), [key(1)]);
        assert_eq!(t.by_deadline().collect::<Vec<_>>(), [(ms(50), key(1))]);
        assert_eq!(t.pop_due(ms(20)), None, "fired at the old deadline");
        assert_eq!(t.pop_due(ms(60)), Some(key(1)));
        assert_eq!(t.pop_due(ms(60)), None, "fired twice");
        assert!(is_empty(&t));
    }
    check(token, instant_ms());
    check(sim_key, sim_ms);
}

#[test]
fn arm_cancel_pairs_leave_the_table_empty() {
    fn check<K: Ord + Copy + Debug, D: Ord + Copy>(key: impl Fn(u64) -> K, ms: impl Fn(u64) -> D) {
        let mut t = TimerTable::default();
        for m in 0..10_000 {
            t.arm(key(m), ms(30_000));
            t.cancel(key(m));
        }
        assert!(is_empty(&t));
        assert_eq!(t.pop_due(ms(30_000)), None);
    }
    check(token, instant_ms());
    check(sim_key, sim_ms);
}

/// What the simulator relies on beyond the loop's use: deadlines that
/// share an instant pop in sequence order, and `by_deadline` lists what
/// `pop_due` would not yet return.
#[test]
fn same_instant_deadlines_pop_in_sequence_order() {
    let mut t = TimerTable::default();
    t.arm(sim_key(1), (5, 9));
    t.arm(sim_key(2), (5, 4));
    t.arm(sim_key(3), (6, 1));
    let order: Vec<_> = t.by_deadline().map(|(_, key)| key).collect();
    assert_eq!(order, [sim_key(2), sim_key(1), sim_key(3)]);
    assert_eq!(t.pop_due((5, u64::MAX)), Some(sim_key(2)));
    assert_eq!(t.pop_due((5, u64::MAX)), Some(sim_key(1)));
    assert_eq!(t.pop_due((5, u64::MAX)), None);
    assert_eq!(t.keys().collect::<Vec<_>>(), [sim_key(3)]);
}
