//! Heap work of Steps 3–6, as an exact count: `run_pipeline_on_trie`
//! makes a fixed number of heap allocations, however many heavy paths the
//! count trie splits into and however many nodes the prune keeps.
//!
//! The heavy-path decomposition, the noisy values, the pruning pass and
//! the released pre-order trie each live in a few flat arrays, and the
//! noise pass reuses one set of scratch buffers across all paths. Two
//! count tries whose path counts differ several-fold must therefore cost
//! the same number of allocations, both at a `+∞` threshold (the root
//! alone is released) and at `−∞` (every node is, the threshold both
//! perfbench workloads build with).
//!
//! The counting allocator (`common/counting_alloc.rs`) counts every
//! allocation call of the process, so this binary holds a single test.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use std::collections::BTreeSet;

use dp_substring_counting::dpcore::budget::PrivacyParams;
use dp_substring_counting::hierarchy::HeavyPathDecomposition;
use dp_substring_counting::private_count::pipeline::{
    build_count_trie, run_pipeline_on_trie, CountTrie, PipelineParams,
};
use dp_substring_counting::textindex::CorpusIndex;
use dp_substring_counting::workloads::markov_corpus;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The count trie of every distinct substring of length ≤ 6 of a Markov
/// corpus of `docs` documents, with its number of heavy paths.
fn count_trie(docs: usize, seed: u64) -> (CountTrie, usize, usize) {
    let db = markov_corpus(docs, 24, 4, 0.5, &mut StdRng::seed_from_u64(seed));
    let idx = CorpusIndex::build(&db);
    let mut cands = BTreeSet::new();
    for doc in db.documents() {
        for i in 0..doc.len() {
            for j in i + 1..=doc.len().min(i + 6) {
                cands.insert(doc[i..j].to_vec());
            }
        }
    }
    let cands: Vec<Vec<u8>> = cands.into_iter().collect();
    let trie = build_count_trie(&idx, &cands, 1);
    let paths = HeavyPathDecomposition::from_preorder(trie.parents()).num_paths();
    (trie, paths, db.max_len())
}

/// Allocation calls of one Steps 3–6 run over `trie` at `threshold`.
fn allocs_of(trie: &CountTrie, ell: usize, threshold: f64) -> usize {
    let params = PipelineParams {
        delta_clip: 1,
        privacy_roots: PrivacyParams::pure(1.0),
        privacy_diffs: PrivacyParams::pure(1.0),
        beta: 0.1,
        gaussian: false,
        prune_override: Some(threshold),
    };
    let mut rng = StdRng::seed_from_u64(5);
    let before = counting_alloc::allocs();
    let out = run_pipeline_on_trie(trie, ell, &params, &mut rng);
    let allocs = counting_alloc::allocs() - before;
    let kept = if threshold == f64::INFINITY { 1 } else { trie.len() };
    assert_eq!(out.trie.len(), kept, "threshold {threshold} keeps {kept} node(s)");
    assert_eq!(out.nodes_before_prune, trie.len());
    allocs
}

#[test]
fn steps_3_to_6_allocate_the_same_blocks_for_any_number_of_paths() {
    let (small, small_paths, small_ell) = count_trie(12, 1);
    let (large, large_paths, large_ell) = count_trie(200, 2);
    assert!(
        large_paths > 4 * small_paths,
        "path counts {small_paths} and {large_paths} are too close to tell"
    );
    for threshold in [f64::INFINITY, f64::NEG_INFINITY] {
        let a = allocs_of(&small, small_ell, threshold);
        let b = allocs_of(&large, large_ell, threshold);
        println!(
            "threshold {threshold}: {a} allocations over {small_paths} paths, \
             {b} over {large_paths}"
        );
        assert_eq!(a, b, "allocations grow with the trie at {threshold}");
    }
}
