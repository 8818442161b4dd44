//! What a publication costs to hold, counted in bytes by an allocator
//! that counts (DESIGN.md §17): no clock, so the numbers repeat exactly
//! and the bounds can be tight.
//!
//! Measured with this file at the commit before publications were one
//! block (a shared `BTreeMap<String, Value>`): a one-attribute
//! publication held 585 bytes, 544 of them one map leaf, and a wide
//! one (12 integer attributes) 1 804. As a block, sorted entries and
//! one string of names behind one shared header, they hold 81 and 468.

use transmob_pubsub::{Publication, StrDecTable, StrEncTable, Wire, WireReader, WireWriter};
use transmob_workloads::footprint::{measure, CountingAlloc};
use transmob_workloads::wide_publication;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Live heap bytes `build` leaves behind in what it returns.
fn held(build: impl FnOnce() -> Publication) -> (Publication, usize) {
    let (p, heap) = measure(build);
    (
        p,
        usize::try_from(heap.live).expect("a publication holds memory"),
    )
}

#[test]
fn a_one_attribute_publication_stays_under_its_byte_budget() {
    const BUDGET: usize = 96;
    let (p, bytes) = held(|| Publication::new().with("x", 1));
    println!("publication_footprint: {bytes} bytes for one attribute");
    assert_eq!(p.len(), 1);
    assert!(bytes <= BUDGET, "{bytes} bytes (budget {BUDGET})");
}

#[test]
fn a_wide_publication_stays_under_its_byte_budget() {
    const BUDGET: usize = 600;
    let (p, bytes) = held(|| wide_publication(3));
    println!("publication_footprint: {bytes} bytes for 12 attributes");
    assert_eq!(p.len(), 12);
    assert!(bytes <= BUDGET, "{bytes} bytes (budget {BUDGET})");

    // Off the wire, on a connection that has interned the names: the
    // decoder copies each name once, into the block, and keeps nothing
    // else.
    let (mut enc, mut dec) = (StrEncTable::new(), StrDecTable::new());
    let mut frames = [Vec::new(), Vec::new()];
    for frame in &mut frames {
        p.enc(&mut WireWriter::new(frame, &mut enc));
    }
    let first = Publication::dec(&mut WireReader::new(&frames[0], &mut dec)).unwrap();
    assert_eq!(first, p);
    let (decoded, bytes) =
        held(|| Publication::dec(&mut WireReader::new(&frames[1], &mut dec)).unwrap());
    println!("publication_footprint: {bytes} bytes for 12 attributes off the wire");
    assert_eq!(decoded, p);
    assert!(bytes <= BUDGET, "{bytes} bytes decoded (budget {BUDGET})");
}

#[test]
fn a_clone_allocates_nothing() {
    let p = wide_publication(5).with("name", "alpha");
    let (copy, heap) = measure(|| p.clone());
    assert_eq!(heap.allocated, 0, "a publication is one shared block");
    assert_eq!(copy, p);
}
