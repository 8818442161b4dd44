//! Heap accounting for footprint tests and benches: what a table of
//! these workloads' rows costs to hold is a count of bytes, which
//! repeats exactly where a clock would not.
//!
//! A test or bench binary installs [`CountingAlloc`] as its global
//! allocator and brackets the code it measures with [`measure`]:
//!
//! ```
//! use transmob_workloads::footprint::{measure, CountingAlloc};
//!
//! #[global_allocator]
//! static ALLOC: CountingAlloc = CountingAlloc;
//!
//! let (v, heap) = measure(|| vec![0u8; 100]);
//! assert_eq!(heap.allocated, 100);
//! assert_eq!(heap.live, 100);
//! assert_eq!(heap.allocs, 1);
//! drop(v);
//! ```
//!
//! The counters are per thread, so tests of one binary that run side
//! by side do not see each other; a block freed by another thread than
//! the one that allocated it is charged to the wrong one, so measure
//! single-threaded code.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread has allocated and not freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// Bytes this thread has ever asked for.
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
    /// Calls this thread has made to `alloc`, `alloc_zeroed` and
    /// `realloc`.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting the bytes that pass through it.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingAlloc;

/// Charges `size` fresh bytes to the calling thread. The counters have
/// no destructor and a constant initializer, so touching them never
/// allocates; a thread past its teardown is not counted.
fn charge(size: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get() + size as isize));
    let _ = ALLOCATED.try_with(|total| total.set(total.get() + size));
    let _ = ALLOCS.try_with(|calls| calls.set(calls.get() + 1));
}

fn release(size: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get() - size as isize));
}

// SAFETY: every request is passed to `System` unchanged and its answer
// returned unchanged, so `System`'s guarantees are this allocator's;
// the bookkeeping touches only thread-local counters and never the
// blocks.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            charge(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            charge(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(p, layout) };
        release(layout.size());
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            release(layout.size());
            charge(new_size);
        }
        q
    }
}

/// What a measured piece of code did to the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Heap {
    /// Bytes allocated and still held when the code returned, minus
    /// bytes it freed that were allocated before it ran.
    pub live: isize,
    /// Bytes asked of the allocator, freed again or not (a grown
    /// block counts its new size).
    pub allocated: usize,
    /// Calls to `alloc`, `alloc_zeroed` and `realloc` (a grown block
    /// is one more).
    pub allocs: usize,
}

/// Runs `f` and reports what it did to the calling thread's heap,
/// beside its result (which is alive, and counted, when the report is
/// taken). All zero unless [`CountingAlloc`] is the global allocator.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, Heap) {
    let (live, allocated, allocs) = (LIVE.get(), ALLOCATED.get(), ALLOCS.get());
    let out = f();
    let heap = Heap {
        live: LIVE.get() - live,
        allocated: ALLOCATED.get() - allocated,
        allocs: ALLOCS.get() - allocs,
    };
    (out, heap)
}
