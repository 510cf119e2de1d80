//! Deterministic memory gate for `CorpusIndex::build`: counts, not clocks.
//!
//! A counting global allocator tracks the live heap bytes of this process
//! and their high-water mark. For a fixed corpus both figures are exact and
//! repeat from run to run, so the gate needs no headroom for host noise:
//! the peak live heap during the build, and the index's footprint after it,
//! each per text position. This binary holds a single test, so no other
//! test allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use dp_substring_counting::textindex::CorpusIndex;
use dp_substring_counting::workloads::markov_corpus;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Peak live heap during the build, in bytes per text position: 27.04
/// measured on this corpus (the finished index is the peak; every step's
/// scratch is freed before the hash tables are built), bound with 14.6%
/// headroom.
const PEAK_BYTES_PER_POSITION: f64 = 31.0;
/// Heap held by the finished index, in bytes per text position: 27.04
/// measured, bound with 3.6% headroom.
const HELD_BYTES_PER_POSITION: f64 = 28.0;

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Counts `size` new live bytes and raises the high-water mark.
fn grow(size: usize) {
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
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    /// Counts the old and the new block as both live at the peak, as a
    /// moving reallocation has them.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            grow(new_size);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn corpus_index_build_stays_within_its_byte_budget() {
    let db = markov_corpus(3200, 64, 4, 0.6, &mut StdRng::seed_from_u64(7));
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let idx = CorpusIndex::build(&db);
    let peak = PEAK.load(Ordering::Relaxed) - before;
    let held = LIVE.load(Ordering::Relaxed) - before;

    let n = idx.text_len();
    assert!(n >= 200_000, "corpus has only {n} text positions");
    // `heap_bytes` accounts for every byte the index holds.
    assert_eq!(idx.heap_bytes(), held);
    let peak_per_position = peak as f64 / n as f64;
    let held_per_position = held as f64 / n as f64;
    println!("N = {n}: peak {peak_per_position:.2} B/position, held {held_per_position:.2}");
    assert!(
        peak_per_position <= PEAK_BYTES_PER_POSITION,
        "build peaked at {peak_per_position:.2} B per position"
    );
    assert!(
        held_per_position <= HELD_BYTES_PER_POSITION,
        "index holds {held_per_position:.2} B per position"
    );
}
