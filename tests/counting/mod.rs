//! A counting `#[global_allocator]`: allocator calls and peak live bytes,
//! per thread. `mod counting;`-included by the test binaries that state
//! cost contracts in those units — never by one that does not, since
//! every allocation of the binary goes through it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and destructor-free, so touching them from
    // inside the allocator cannot itself allocate.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

fn grew(bytes: usize) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    let live = LIVE.with(|c| {
        c.set(c.get() + bytes as i64);
        c.get()
    });
    PEAK.with(|c| c.set(c.get().max(live)));
}

fn shrank(bytes: usize) {
    LIVE.with(|c| c.set(c.get() - bytes as i64));
}

// SAFETY: every call forwards to `System` with the caller's own layout
// and pointer; the bookkeeping around it touches only thread-local
// `Cell`s.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrank(layout.size());
        grew(new_size);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Runs `f` and returns its result with the number of allocator calls it
/// made and the most bytes it held live beyond what was live before.
pub fn measured<R>(f: impl FnOnce() -> R) -> (R, u64, i64) {
    let calls = ALLOCS.with(Cell::get);
    let live = LIVE.with(Cell::get);
    PEAK.with(|c| c.set(live));
    let out = f();
    (
        out,
        ALLOCS.with(Cell::get) - calls,
        PEAK.with(Cell::get) - live,
    )
}
