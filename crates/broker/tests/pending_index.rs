//! Property test for the broker core's per-move pending index: under
//! any interleaving of shadow-configuration installs (including one
//! movement displacing another's configuration on the same row),
//! commits, aborts, retractions of rows that still carry a pending
//! configuration, overlay-repair purges and serde round trips taken
//! mid-movement, the index names exactly the rows whose `pending` is
//! set — what `Srt::pending_for` / `Prt::pending_for` find by scanning —
//! and holds nothing once every movement has committed or aborted.
//!
//! `BrokerCore::check_invariants` is the all-movements form of that
//! comparison; `commit_move` and `abort_move` additionally assert their
//! own range against the two scans in debug builds, so every commit and
//! abort below is a differential check too.

use proptest::prelude::*;
use transmob_broker::{BrokerConfig, BrokerCore, Hop, PubSubMsg};
use transmob_pubsub::{
    AdvId, Advertisement, BrokerId, ClientId, Filter, MoveId, SubId, Subscription,
};

const ROWS: u64 = 6;
const MOVES: u64 = 4;
const NEIGHBORS: [BrokerId; 3] = [BrokerId(2), BrokerId(3), BrokerId(4)];

fn sub(k: u64) -> Subscription {
    let lo = 10 * k as i64;
    Subscription::new(
        SubId::new(ClientId(100 + k), 0),
        Filter::builder().ge("x", lo).le("x", lo + 25).build(),
    )
}

fn adv(k: u64) -> Advertisement {
    let lo = 10 * k as i64;
    Advertisement::new(
        AdvId::new(ClientId(200 + k), 0),
        Filter::builder().ge("x", lo - 5).le("x", lo + 40).build(),
    )
}

fn hop(h: usize) -> Hop {
    match h % 4 {
        3 => Hop::Client(ClientId(7)),
        i => Hop::Broker(NEIGHBORS[i]),
    }
}

#[derive(Debug, Clone)]
enum Op {
    Subscribe(u64, usize),
    Advertise(u64, usize),
    /// Retracts from the row's own lasthop, so the row really goes,
    /// pending configuration and all.
    Unsubscribe(u64),
    Unadvertise(u64),
    InstallSub(u64, u64, usize),
    InstallAdv(u64, u64, usize),
    Commit(u64),
    Abort(u64),
    /// `repair_neighbors` after the death of one neighbour: purges
    /// every row learned over that link.
    Repair(usize),
    RoundTrip,
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..16, 0..ROWS, 0..MOVES, 0usize..4).prop_map(|(kind, k, m, h)| match kind {
        0 | 1 => Op::Subscribe(k, h),
        2 => Op::Advertise(k, h),
        3 => Op::Unsubscribe(k),
        4 => Op::Unadvertise(k),
        5..=7 => Op::InstallSub(k, m, h),
        8 | 9 => Op::InstallAdv(k, m, h),
        10 | 11 => Op::Commit(m),
        12 | 13 => Op::Abort(m),
        14 => Op::Repair(h % NEIGHBORS.len()),
        _ => Op::RoundTrip,
    })
}

/// The movements the table scans find a pending configuration for
/// (the scans are compiled into debug builds only).
#[cfg(debug_assertions)]
fn scanned_moves(core: &BrokerCore) -> Vec<MoveId> {
    (0..MOVES)
        .map(MoveId)
        .filter(|m| {
            !core.srt().pending_for(*m).is_empty() || !core.prt().pending_for(*m).is_empty()
        })
        .collect()
}

fn apply(core: &mut BrokerCore, op: &Op) {
    match *op {
        Op::Subscribe(k, h) => {
            core.handle(hop(h), PubSubMsg::Subscribe(sub(k)));
        }
        Op::Advertise(k, h) => {
            core.handle(hop(h), PubSubMsg::Advertise(adv(k)));
        }
        Op::Unsubscribe(k) => {
            if let Some(from) = core.prt().get(sub(k).id).map(|e| e.lasthop) {
                core.handle(from, PubSubMsg::Unsubscribe(sub(k).id));
            }
        }
        Op::Unadvertise(k) => {
            if let Some(from) = core.srt().get(adv(k).id).map(|e| e.lasthop) {
                core.handle(from, PubSubMsg::Unadvertise(adv(k).id));
            }
        }
        Op::InstallSub(k, m, h) => {
            core.install_pending_sub(&sub(k), MoveId(m), hop(h), Some(NEIGHBORS[h % 3]));
        }
        Op::InstallAdv(k, m, h) => {
            core.install_pending_adv(&adv(k), MoveId(m), hop(h), None);
        }
        Op::Commit(m) => {
            core.commit_move(MoveId(m));
        }
        Op::Abort(m) => {
            core.abort_move(MoveId(m));
        }
        Op::Repair(i) => {
            // A link dies once; later draws of the same neighbour
            // would purge through a link the core no longer has.
            if core.neighbors().contains(&NEIGHBORS[i]) && core.neighbors().len() > 1 {
                core.repair_neighbors(NEIGHBORS[i], &[]);
            }
        }
        Op::RoundTrip => {
            let json = serde_json::to_string(&*core).expect("broker state serializes");
            *core = serde_json::from_str(&json).expect("broker state deserializes");
        }
    }
}

proptest! {
    #[test]
    fn pending_index_equals_the_table_scans(
        ops in proptest::collection::vec(arb_op(), 0..60),
        covering in any::<bool>(),
    ) {
        let config = if covering { BrokerConfig::covering() } else { BrokerConfig::plain() };
        let mut core = BrokerCore::new(BrokerId(1), NEIGHBORS, config);
        core.attach_client(ClientId(7));
        for op in &ops {
            apply(&mut core, op);
            core.check_invariants();
            #[cfg(debug_assertions)]
            prop_assert_eq!(core.pending_moves(), scanned_moves(&core), "after {:?}", op);
        }
        // Quiescence: every movement resolves one way or the other.
        for m in 0..MOVES {
            if m % 2 == 0 {
                core.commit_move(MoveId(m));
            } else {
                core.abort_move(MoveId(m));
            }
            core.check_invariants();
        }
        // With the index equal to the rows (just checked), an empty
        // index also means no row is still shadowed.
        prop_assert_eq!(core.pending_moves(), Vec::new());
    }
}
