//! Deterministic memory gate for `CorpusIndex::build`: counts, not clocks.
//!
//! The counting allocator (`common/counting_alloc.rs`) tracks the live heap
//! bytes of this process and their high-water mark. For a fixed corpus
//! both figures are exact and repeat from run to run, so the gate needs no
//! headroom for host noise: the peak live heap during the build, and the
//! index's footprint after it, each per text position. This binary holds a
//! single test, so no other test allocates while it measures.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use dp_substring_counting::textindex::CorpusIndex;
use dp_substring_counting::workloads::markov_corpus;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Peak live heap during the build, in bytes per text position: 13.44
/// measured on this corpus, bound with 14.5% headroom. The peak is the
/// document counter step: its one-byte depth keys and the wavelet-matrix
/// scratch and levels are live beside the byte text, the suffix array,
/// the inverse suffix array and the one-byte LCP array. SA-IS's `u32`
/// input and type bytes are freed before the inverse is built.
const PEAK_BYTES_PER_POSITION: f64 = 15.4;
/// Heap held by the finished index, in bytes per text position: 11.31
/// measured, bound at 11.5 (1.7% headroom; the figure is exact).
const HELD_BYTES_PER_POSITION: f64 = 11.5;

#[test]
fn corpus_index_build_stays_within_its_byte_budget() {
    let db = markov_corpus(3200, 64, 4, 0.6, &mut StdRng::seed_from_u64(7));
    let before = counting_alloc::live();
    counting_alloc::reset_peak();
    let idx = CorpusIndex::build(&db);
    let peak = counting_alloc::peak() - before;
    let held = counting_alloc::live() - before;

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
