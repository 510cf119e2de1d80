//! Differential tests for the snapshot walk.
//!
//! The SWAR label probe and the wide tier (lane tables for nodes of
//! degree above 32) must be *behaviorally invisible*: for every trie
//! shape and every probe byte, [`FrozenSynopsis::query`] /
//! [`FrozenSynopsis::contains`] must be bit-identical to the naive
//! binary-search walk ([`FrozenSynopsis::query_naive`] /
//! [`FrozenSynopsis::contains_naive`]) and to the arena-trie walk in
//! [`PrivateCountStructure::query`]. The suite sweeps random tries
//! (including full degree-256 nodes and adversarial label sets near the
//! SWAR borrow boundaries), degenerate patterns (empty / absent /
//! over-long), every batch entry point, and a proptest sweep through the
//! frozen ↔ decoded round trip, copied and shared.

use std::sync::Arc;

use dpsc_dpcore::budget::PrivacyParams;
use dpsc_private_count::{CountMode, FrozenSynopsis, PrivateCountStructure};
use dpsc_strkit::trie::Trie;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Wraps a hand-built trie in the paper structure so it can be frozen.
fn structure_of(trie: Trie<f64>) -> PrivateCountStructure {
    PrivateCountStructure::new(
        trie,
        CountMode::Substring,
        PrivacyParams::pure(1.0),
        1.5,
        2.5,
        64,
        64,
    )
}

/// Builds a random trie over the given label set: `n_paths` random paths of
/// length up to `max_len`, each node carrying a distinct count value.
fn random_trie(labels: &[u8], n_paths: usize, max_len: usize, rng: &mut StdRng) -> Trie<f64> {
    let mut trie: Trie<f64> = Trie::new(1000.0);
    let mut next_val = 0.0f64;
    for _ in 0..n_paths {
        let len = rng.gen_range(1..=max_len);
        let path: Vec<u8> = (0..len).map(|_| labels[rng.gen_range(0..labels.len())]).collect();
        let node = trie.insert_path(&path, |_| 0.0);
        next_val += 0.37;
        *trie.value_mut(node) = next_val;
    }
    trie
}

/// Asserts all query entry points agree bit-for-bit on `patterns`, for the
/// frozen synopsis, the decoded round trip, and the arena-trie oracle.
fn assert_differential(s: &PrivateCountStructure, patterns: &[Vec<u8>]) {
    let f = s.freeze();
    let bytes = f.to_bytes();
    assert_eq!(bytes.len(), f.serialized_len(), "serialized_len must match to_bytes");
    let decoded = FrozenSynopsis::from_bytes(&bytes).expect("roundtrip parses");
    assert_eq!(decoded, f, "decoded synopsis must equal original");
    let shared = FrozenSynopsis::from_bytes_shared(Arc::from(bytes)).expect("shared parses");
    assert_eq!(shared.accel_memory_bytes(), f.accel_memory_bytes(), "wide tier rebuilt alike");

    let refs: Vec<&[u8]> = patterns.iter().map(|p| p.as_slice()).collect();
    let fast: Vec<f64> = refs.iter().map(|p| f.query(p)).collect();
    for (p, &got) in refs.iter().zip(&fast) {
        let oracle = s.query(p);
        assert_eq!(got.to_bits(), oracle.to_bits(), "fast vs trie walk, pattern {p:?}");
        assert_eq!(got.to_bits(), f.query_naive(p).to_bits(), "fast vs naive, pattern {p:?}");
        assert_eq!(
            got.to_bits(),
            decoded.query(p).to_bits(),
            "fast vs decoded fast, pattern {p:?}"
        );
        assert_eq!(got.to_bits(), shared.query(p).to_bits(), "fast vs shared, pattern {p:?}");
        assert_eq!(f.contains(p), f.contains_naive(p), "contains vs naive, pattern {p:?}");
        assert_eq!(f.contains(p), s.contains(p), "contains vs trie walk, pattern {p:?}");
    }
    assert_eq!(f.query_batch(&refs), fast, "query_batch must equal per-pattern queries");
    for threads in [1usize, 2, 3, 8] {
        assert_eq!(
            f.query_batch_parallel(&refs, threads),
            fast,
            "query_batch_parallel(threads={threads})"
        );
    }
}

/// Patterns exercising hits, misses, prefixes, over-long extensions and the
/// empty pattern, derived from the trie's own label set.
fn probe_patterns(labels: &[u8], max_len: usize, rng: &mut StdRng) -> Vec<Vec<u8>> {
    let mut pats: Vec<Vec<u8>> = vec![Vec::new()];
    for _ in 0..200 {
        let len = rng.gen_range(1..=max_len + 2); // over-long included
        pats.push((0..len).map(|_| labels[rng.gen_range(0..labels.len())]).collect());
    }
    // Bytes *outside* the label set probe the miss path of every tier.
    for &b in &[0u8, 1, 127, 128, 255] {
        pats.push(vec![b]);
        pats.push(vec![labels[0], b]);
    }
    pats
}

#[test]
fn small_alphabet_tries_match_naive_walk() {
    // Degrees ≤ 8: one label word per probe.
    let mut rng = StdRng::seed_from_u64(0xFA57_0001);
    for labels in [&b"ab"[..], b"abcdefgh", b"\x00\x01\x02"] {
        let trie = random_trie(labels, 40, 6, &mut rng);
        let pats = probe_patterns(labels, 6, &mut rng);
        assert_differential(&structure_of(trie), &pats);
    }
}

#[test]
fn mid_fanout_tries_match_naive_walk() {
    // Degrees 9..=32: several label words per probe, including partial
    // final words of every residue mod 8; 33 and 64 cross into the wide
    // tier.
    let mut rng = StdRng::seed_from_u64(0xFA57_0002);
    for sigma in [9usize, 15, 16, 17, 24, 31, 32, 33, 64] {
        let labels: Vec<u8> = (0..sigma as u8).map(|i| b'a'.wrapping_add(i)).collect();
        let trie = random_trie(&labels, 120, 5, &mut rng);
        let pats = probe_patterns(&labels, 5, &mut rng);
        assert_differential(&structure_of(trie), &pats);
    }
}

#[test]
fn degree_256_root_uses_the_wide_tier_and_matches() {
    // A full-fanout root (all 256 labels) exercises the wide tier;
    // children keep mixed small/mid degrees.
    let mut rng = StdRng::seed_from_u64(0xFA57_0003);
    let mut trie: Trie<f64> = Trie::new(500.0);
    for b in 0..=255u8 {
        let child = trie.insert_path(&[b], |_| 0.0);
        *trie.value_mut(child) = f64::from(b) + 0.5;
        // Random sub-paths below some children.
        if b % 3 == 0 {
            for _ in 0..4 {
                let tail: Vec<u8> = (0..rng.gen_range(1..4)).map(|_| rng.gen::<u8>()).collect();
                let mut path = vec![b];
                path.extend_from_slice(&tail);
                let node = trie.insert_path(&path, |_| 0.25);
                *trie.value_mut(node) = f64::from(b) * 2.0 + 0.125;
            }
        }
    }
    let all: Vec<u8> = (0..=255u8).collect();
    let mut pats = probe_patterns(&all, 4, &mut rng);
    pats.extend((0..=255u8).map(|b| vec![b]));
    let s = structure_of(trie);
    assert!(s.freeze().accel_memory_bytes() >= 260, "the root must be in the wide tier");
    assert_differential(&s, &pats);
}

#[test]
fn adversarial_labels_near_borrow_boundaries_match() {
    // Labels straddling 0x00/0x7F/0x80/0xFF stress the SWAR zero-detect:
    // the subtraction borrow can set high-lane bits, and only the
    // lowest-matching-lane contract keeps lookups exact.
    let mut rng = StdRng::seed_from_u64(0xFA57_0004);
    let sets: [&[u8]; 4] = [
        &[0x00, 0x01, 0x7F, 0x80, 0x81, 0xFE, 0xFF],
        &[0x00, 0xFF],
        &[0x7E, 0x7F, 0x80, 0x81],
        &[0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80],
    ];
    for labels in sets {
        let trie = random_trie(labels, 60, 5, &mut rng);
        let mut pats = probe_patterns(labels, 5, &mut rng);
        // Dense two-byte probes over the adversarial set.
        for &a in labels {
            for &b in labels {
                pats.push(vec![a, b]);
            }
        }
        assert_differential(&structure_of(trie), &pats);
    }
}

#[test]
fn root_only_and_single_chain_edge_cases() {
    // Leaf-only root: no edges, every probe is a miss.
    assert_differential(&structure_of(Trie::new(3.25)), &[vec![], vec![0], vec![97], vec![255]]);
    // Single chain: every node has degree exactly 1.
    let mut trie: Trie<f64> = Trie::new(9.0);
    let node = trie.insert_path(b"chain", |d| d as f64);
    *trie.value_mut(node) = 42.0;
    let pats: Vec<Vec<u8>> = vec![
        vec![],
        b"c".to_vec(),
        b"ch".to_vec(),
        b"chain".to_vec(),
        b"chains".to_vec(), // over-long
        b"x".to_vec(),
        b"cx".to_vec(),
    ];
    assert_differential(&structure_of(trie), &pats);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random tries over a byte-select alphabet: the snapshot walk, the
    /// naive walk, the arena walk, and the decoded round trip agree on
    /// random and planted patterns alike.
    #[test]
    fn snapshot_walk_is_behaviorally_invisible(
        paths in proptest::collection::vec(
            proptest::collection::vec(
                proptest::sample::select(vec![0u8, 1, 9, 64, 65, 127, 128, 200, 255]),
                1..7,
            ),
            1..25,
        ),
        seed in 0u64..1024,
    ) {
        let mut trie: Trie<f64> = Trie::new(77.0);
        for (i, p) in paths.iter().enumerate() {
            let node = trie.insert_path(p, |_| 0.0);
            *trie.value_mut(node) = i as f64 + 0.5;
        }
        let s = structure_of(trie);
        let mut rng = StdRng::seed_from_u64(seed);
        let labels = [0u8, 1, 2, 9, 64, 65, 127, 128, 200, 254, 255];
        let mut pats = probe_patterns(&labels, 7, &mut rng);
        pats.extend(paths); // every inserted path is probed verbatim
        assert_differential(&s, &pats);
    }
}
