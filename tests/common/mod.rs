//! A counting global allocator for the tests that pin a cost as a count
//! instead of a time: how many allocation requests a piece of code makes,
//! for how many bytes, and how many blocks it frees. Counts are per
//! thread, so the test harness's other threads do not leak into a
//! measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// What the calling thread asked the allocator for during a [`tally`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Allocation requests (`alloc`, `alloc_zeroed`, `realloc`).
    pub calls: usize,
    /// Bytes requested (a `realloc` counts its new size).
    pub bytes: usize,
    /// Blocks freed (`dealloc`; a `realloc` frees none).
    pub frees: usize,
}

struct CountingAlloc;

thread_local! {
    static TALLY: Cell<Tally> = const { Cell::new(Tally { calls: 0, bytes: 0, frees: 0 }) };
}

fn update(f: impl FnOnce(&mut Tally)) {
    // `try_with`: the allocator also runs during thread teardown, after
    // the thread-local is gone.
    let _ = TALLY.try_with(|t| {
        let mut tally = t.get();
        f(&mut tally);
        t.set(tally);
    });
}

fn record(bytes: usize) {
    update(|t| {
        t.calls += 1;
        t.bytes += bytes;
    });
}

// SAFETY: every call is forwarded unchanged to `System`; `update` only
// touches a const-initialized `Cell` and never allocates or unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        update(|t| t.frees += 1);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Run `f`, returning its result and what the calling thread requested
/// from the allocator while it ran.
pub fn tally<T>(f: impl FnOnce() -> T) -> (T, Tally) {
    TALLY.with(|t| t.set(Tally::default()));
    let out = f();
    (out, TALLY.with(Cell::get))
}
