//! What a routing row costs to hold, and what a copy of a subscription
//! costs to make, counted in bytes by an allocator that counts
//! (DESIGN.md §18): no clock, so the numbers repeat exactly and the
//! bounds can be tight.
//!
//! Measured with this file at the commit before filters were shared
//! (a `Filter` owned a `Vec` of predicates and a `BTreeMap` of 160-byte
//! constraints; rows, index and messages each held a deep copy): a
//! subscription copy allocated 2 282 bytes, and a row of the table
//! below held 6 833 bytes at 10 000 rows, 6 861 at 1 000. With the
//! shared body, the compact constraint slice and an index of handles a
//! copy allocates nothing and a row held 1 380 bytes (1 374 at 1 000).
//! With one record per constrained attribute and the endpoint maps left
//! unbuilt until a containment query asks (none does here), a row holds
//! 1 077 bytes (1 052 at 1 000); the budget is that plus under 10 %.
//! A row forwarded to one neighbour then held 1 131, a B-tree leaf
//! more for its one-element `sent_to`; with the neighbours inline in
//! the row it holds no more than a local one (1 075). With the entries
//! in a vector by row number and the id map holding numbers only, a row
//! holds 1 047 (950 at 1 000), and a forwarded one 1 045.

use transmob_broker::{Hop, Prt};
use transmob_core::ClientProfile;
use transmob_pubsub::{AdvId, Advertisement, BrokerId, ClientId, Publication, SubId, Subscription};
use transmob_workloads::footprint::{measure, CountingAlloc};
use transmob_workloads::{wide_publication, wide_sub_filter};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn wide_sub(i: usize) -> Subscription {
    Subscription::new(SubId::new(ClientId(7), i as u32), wide_sub_filter(i))
}

#[test]
fn copying_a_subscription_copies_no_filter() {
    let sub = wide_sub(1);
    let (copy, heap) = measure(|| sub.clone());
    assert_eq!(heap.allocated, 0, "a subscription is an id and a handle");
    assert_eq!(copy, sub);

    // A movement's profile: the two vectors are copied, the hundred
    // filters they name are not.
    let profile = ClientProfile {
        subs: (0..100).map(wide_sub).collect(),
        advs: vec![Advertisement::new(
            AdvId::new(ClientId(7), 0),
            wide_sub_filter(0),
        )],
    };
    let (copy, heap) = measure(|| profile.clone());
    assert_eq!(
        heap.allocated,
        100 * size_of::<Subscription>() + size_of::<Advertisement>(),
        "a profile copy allocates its two vectors and nothing else"
    );
    assert_eq!(copy, profile);
}

/// Live heap bytes a row of an `n`-row PRT, filters included, once a
/// publication has been matched (so the packed snapshot of the index
/// is part of the bill); with `forward`, every row has been forwarded
/// to that neighbour.
fn bytes_per_row(n: usize, forward: Option<BrokerId>) -> usize {
    let probe: Publication = wide_publication(0);
    let (prt, heap) = measure(|| {
        let mut prt = Prt::new();
        for i in 0..n {
            let sub = wide_sub(i);
            let id = sub.id;
            prt.insert(sub, Hop::Client(ClientId(7)));
            if let Some(b) = forward {
                prt.update(id, |e| e.sent_to.insert(b));
            }
        }
        std::hint::black_box(prt.destinations(&probe));
        prt
    });
    assert_eq!(prt.len(), n);
    usize::try_from(heap.live).expect("a table holds memory") / n
}

#[test]
fn a_routing_row_stays_under_its_byte_budget() {
    const BUDGET: usize = 1_180;
    let per_row = bytes_per_row(10_000, None);
    println!("table_footprint: {per_row} bytes a row at 10 000 rows");
    assert!(
        per_row < BUDGET,
        "{per_row} bytes a row at 10 000 rows (budget {BUDGET})"
    );
    // The forwarding column and the slot table are the only parts
    // that grow by doubling; nothing else may depend on table size.
    let small = bytes_per_row(1_000, None);
    println!("table_footprint: {small} bytes a row at 1 000 rows");
    assert!(small < BUDGET, "{small} bytes a row at 1 000 rows");
}

#[test]
fn a_forwarded_row_costs_no_more_than_a_local_one() {
    // A row's forwarding set holds its few neighbours inline.
    let local = bytes_per_row(10_000, None);
    let forwarded = bytes_per_row(10_000, Some(BrokerId(3)));
    println!("table_footprint: {forwarded} bytes a forwarded row at 10 000 rows");
    assert!(
        forwarded <= local,
        "{forwarded} bytes a forwarded row, {local} a local one"
    );
}
