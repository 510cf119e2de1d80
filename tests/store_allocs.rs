//! Heap cost of a store reopen, as exact counts: recovery reads each
//! payload once, straight into the buffer the recovered synopsis serves
//! from, so reopening a store that holds one snapshot of `L` bytes peaks
//! below `2L` above its baseline (a read into a `Vec` followed by a copy
//! into an `Arc` would hold `2L` at once).
//!
//! Uses the counting allocator (`common/counting_alloc.rs`); this binary
//! holds a single test, so no other test allocates while it measures.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use std::sync::Arc;

use dp_substring_counting::prelude::*;

/// A synopsis over every string of length 1..=5 over `acgt` (1,365 nodes,
/// root included), each with its own count.
fn synopsis() -> FrozenSynopsis {
    let mut entries: Vec<(Vec<u8>, f64)> = vec![(Vec::new(), 1e6)];
    let mut level: Vec<Vec<u8>> = vec![Vec::new()];
    for _ in 0..5 {
        level = level
            .iter()
            .flat_map(|p| b"acgt".iter().map(move |&c| [p.as_slice(), &[c]].concat()))
            .collect();
        for p in &level {
            entries.push((p.clone(), entries.len() as f64));
        }
    }
    let privacy = PrivacyParams::pure(1.0);
    PrivateCountStructure::from_entries(entries, CountMode::Substring, privacy, 2.0, 3.0, 10, 5)
        .expect("distinct keys")
        .freeze()
}

#[test]
fn reopen_reads_each_payload_once_into_the_buffer_it_serves_from() {
    let dir = std::env::temp_dir().join(format!("dpsc-store-allocs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let frozen = synopsis();
    let len = frozen.serialized_len();
    SnapshotStore::open(&dir, 2).expect("store opens").persist(0, frozen.shared_bytes()).unwrap();

    let baseline = counting_alloc::live();
    counting_alloc::reset_peak();
    let store = SnapshotStore::open(&dir, 2).expect("store reopens");
    let mut recovered = store.take_recovered();
    let peak = counting_alloc::peak() - baseline;
    println!("reopen peak: {peak} bytes above baseline for a {len}-byte snapshot");
    assert!(peak >= len, "the recovered payload is held ({peak} < {len})");
    assert!(peak < 2 * len, "reopen peaked at {peak} bytes, a second copy of {len}");

    let rec = recovered.pop().expect("the snapshot recovers");
    assert!(Arc::ptr_eq(rec.synopsis.shared_bytes(), &rec.bytes), "recovery copied the payload");
    assert_eq!(rec.synopsis, frozen, "recovered bit-identical");
    drop((rec, store));
    let _ = std::fs::remove_dir_all(&dir);
}
