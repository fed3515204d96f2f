//! A counting global allocator: every `alloc`, `alloc_zeroed` and
//! `realloc` call is counted before it is forwarded to the system
//! allocator.
//!
//! Two views are kept. The process-wide total is striped over
//! cache-padded slots (one per thread, by a thread index taken on first
//! use), so two benchmark threads never bounce one counter line between
//! cores. The per-thread count is a plain thread-local cell, read before
//! and after a single queue call by the traced run to attribute
//! allocations to `insert` or `extract_max`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

const STRIPES: usize = 64;

#[repr(align(128))]
struct Padded(AtomicU64);

static TOTAL: [Padded; STRIPES] = [const { Padded(AtomicU64::new(0)) }; STRIPES];
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // `usize::MAX` until the thread's first allocation picks a stripe.
    static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
    static THREAD_CALLS: Cell<u64> = const { Cell::new(0) };
}

/// The counting allocator; install with `#[global_allocator]`.
pub struct Counting;

#[inline]
fn count() {
    // `try_with`: the allocator can run while thread-locals are being torn
    // down; such late calls still reach the process-wide total.
    let stripe = STRIPE
        .try_with(|s| {
            let mut i = s.get();
            if i == usize::MAX {
                i = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
                s.set(i);
            }
            i
        })
        .unwrap_or(0);
    // Relaxed: a statistic that publishes no other data.
    TOTAL[stripe].0.fetch_add(1, Ordering::Relaxed);
    let _ = THREAD_CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; counting touches only
// atomics and const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded contract of `GlobalAlloc::alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded contract of `GlobalAlloc::alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded contract of `GlobalAlloc::dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded contract of `GlobalAlloc::realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocator calls made so far by all threads of the process.
pub fn process_calls() -> u64 {
    TOTAL.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
}

/// Allocator calls made so far by the calling thread.
pub fn thread_calls() -> u64 {
    THREAD_CALLS.try_with(Cell::get).unwrap_or(0)
}
