//! A counting global allocator for the deterministic memory and
//! allocation gates: counts, not clocks.
//!
//! Including this module (`#[path = "common/counting_alloc.rs"] mod
//! counting_alloc;`) installs the allocator for the whole test binary. It
//! tracks the live heap bytes of the process, their high-water mark, and
//! the number of allocation calls. For a fixed input each figure is exact
//! and repeats from run to run, so a gate built on them needs no headroom
//! for host load. A binary that gates on these counters holds a single
//! test, so no other test allocates while it measures. The one per-thread
//! figure, [`thread_net`], is left alone by other threads, so a binary of
//! several tests can check single-threaded work with it.

// Each binary reads a subset of the counters.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Bytes this thread allocated less the bytes it freed. A const
    /// initializer with no destructor, so reading it never allocates.
    static THREAD_NET: Cell<isize> = const { Cell::new(0) };
}

/// Bytes the calling thread has allocated less those it has freed. Over a
/// span of work that frees only what it allocated itself, the change is
/// the heap it still holds.
pub fn thread_net() -> isize {
    THREAD_NET.with(Cell::get)
}

/// Adds `delta` to the calling thread's net bytes, unless the thread is
/// past tearing down its locals.
fn thread_add(delta: isize) {
    let _ = THREAD_NET.try_with(|net| net.set(net.get() + delta));
}

/// Live heap bytes of the process.
pub fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// High-water mark of [`live`] since the last [`reset_peak`].
pub fn peak() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Restarts the high-water mark at the current live heap.
pub fn reset_peak() {
    PEAK.store(live(), Ordering::Relaxed);
}

/// Allocation calls so far: `alloc`, `alloc_zeroed` and `realloc` each
/// count one.
pub fn allocs() -> usize {
    ALLOCS.load(Ordering::Relaxed)
}

/// Counts `size` new live bytes and raises the high-water mark.
fn grow(size: usize) {
    thread_add(size as isize);
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// A global allocator can only be written as an `unsafe impl`; this is the
// one place the test suite needs it.
// SAFETY: every method forwards to `System` unchanged and only updates the
// counters.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        thread_add(-(layout.size() as isize));
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    /// Counts the old and the new block as both live at the peak, as a
    /// moving reallocation has them.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            grow(new_size);
            thread_add(-(layout.size() as isize));
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;
