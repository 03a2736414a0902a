//! A counting global allocator behind a relaxed flag.
//!
//! The flag is off while slices are timed (the hot path then pays one
//! relaxed load per allocation) and on for the separate count pass, whose
//! work is fixed so the count repeats exactly from run to run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

// Statistics only: neither value publishes other data, so Relaxed suffices.
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting `alloc`/`alloc_zeroed`/`realloc` calls
/// while counting is on.
pub struct Counting;

fn note() {
    if COUNTING.load(Relaxed) {
        ALLOCATIONS.fetch_add(1, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract the caller already upholds; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: forwarded verbatim; see the impl comment.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: forwarded verbatim; see the impl comment.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: forwarded verbatim; see the impl comment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; see the impl comment.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Turns counting on or off.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Relaxed);
}

/// Heap allocations counted so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_while_on() {
        // The test binary installs `Counting` too (see main.rs), and this is
        // the only test that flips the flag. Other test threads allocate
        // concurrently: while off nobody's allocations count, while on
        // theirs only add to ours.
        let off = allocations();
        let unseen: Vec<u64> = Vec::with_capacity(32);
        assert_eq!(allocations(), off, "counted while off");
        set_counting(true);
        let seen: Vec<u64> = Vec::with_capacity(32);
        let on = allocations();
        set_counting(false);
        assert!(on > off, "an allocation went uncounted");
        drop((unseen, seen));
    }
}
