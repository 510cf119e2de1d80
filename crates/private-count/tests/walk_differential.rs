//! Differential tests for the snapshot walk and the release layout.
//!
//! The SWAR label probe must be *behaviorally invisible*: for every trie
//! shape and every probe byte, [`FrozenSynopsis::query`] /
//! [`FrozenSynopsis::contains`] must be bit-identical to the naive
//! binary-search walk ([`FrozenSynopsis::query_naive`] /
//! [`FrozenSynopsis::contains_naive`]) and to a `BTreeMap` model of the
//! release, which applies [`PrivateCountStructure::from_entries`]'s rule
//! for prefixes without an entry of their own. The suite sweeps random
//! tries (including full degree-256 nodes and adversarial label sets near
//! the SWAR borrow boundaries), degenerate patterns (empty / absent /
//! over-long), the batch entry point, and proptest sweeps through the
//! frozen ↔ decoded round trip, copied and shared, and through the
//! layout: the snapshot's breadth-first numbering, `edge_start` and labels
//! against a queue-built reference, and the mining view against the
//! model's lexicographic order.

use std::collections::BTreeMap;
use std::sync::Arc;

use dpsc_dpcore::budget::PrivacyParams;
use dpsc_private_count::{CountMode, FrozenSynopsis, PrivateCountStructure};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

type Entries = BTreeMap<Vec<u8>, f64>;

/// The release of `entries`.
fn structure_of(entries: &Entries) -> PrivateCountStructure {
    PrivateCountStructure::from_entries(
        entries.iter().map(|(p, &v)| (p.clone(), v)).collect(),
        CountMode::Substring,
        PrivacyParams::pure(1.0),
        1.5,
        2.5,
        64,
        64,
    )
    .expect("distinct entries with finite counts")
}

/// The model of the release of `entries`: every prefix of every entry,
/// the root included. A prefix without an entry of its own takes the
/// maximum of its children (0 with none); reverse lexicographic order
/// settles every child before its parent.
fn model(entries: &Entries) -> Entries {
    let mut prefixes: Vec<Vec<u8>> = vec![Vec::new()];
    for p in entries.keys() {
        prefixes.extend((1..=p.len()).map(|cut| p[..cut].to_vec()));
    }
    prefixes.sort();
    prefixes.dedup();
    let mut child_max: Entries = BTreeMap::new();
    let mut out = BTreeMap::new();
    for p in prefixes.into_iter().rev() {
        let v = entries.get(&p).copied().unwrap_or_else(|| child_max.get(&p).map_or(0.0, |&m| m));
        if let Some((_, parent)) = p.split_last() {
            let m = child_max.entry(parent.to_vec()).or_insert(f64::NEG_INFINITY);
            *m = m.max(v);
        }
        out.insert(p, v);
    }
    out
}

/// Builds random entries over the given label set: `n_paths` random paths
/// of length up to `max_len`, each carrying a distinct count value (a
/// repeated path keeps its last value).
fn random_entries(labels: &[u8], n_paths: usize, max_len: usize, rng: &mut StdRng) -> Entries {
    let mut entries = BTreeMap::from([(Vec::new(), 1000.0)]);
    let mut next_val = 0.0f64;
    for _ in 0..n_paths {
        let len = rng.gen_range(1..=max_len);
        let path: Vec<u8> = (0..len).map(|_| labels[rng.gen_range(0..labels.len())]).collect();
        next_val += 0.37;
        entries.insert(path, next_val);
    }
    entries
}

/// Asserts all query entry points agree bit-for-bit on `patterns`, for the
/// frozen synopsis, the decoded round trip, and the model.
fn assert_differential(entries: &Entries, patterns: &[Vec<u8>]) {
    let s = structure_of(entries);
    let oracle = model(entries);
    let f = s.freeze();
    let bytes = f.to_bytes();
    assert_eq!(bytes.len(), f.serialized_len(), "serialized_len must match to_bytes");
    let decoded = FrozenSynopsis::from_bytes(&bytes).expect("roundtrip parses");
    assert_eq!(decoded, f, "decoded synopsis must equal original");
    let shared = FrozenSynopsis::from_bytes_shared(Arc::from(bytes)).expect("shared parses");
    assert_eq!(f.node_count(), oracle.len(), "one node per model string");

    let refs: Vec<&[u8]> = patterns.iter().map(|p| p.as_slice()).collect();
    let fast: Vec<f64> = refs.iter().map(|p| f.query(p)).collect();
    for (p, &got) in refs.iter().zip(&fast) {
        let want = oracle.get(*p).copied().unwrap_or(0.0);
        assert_eq!(got.to_bits(), want.to_bits(), "fast vs model, pattern {p:?}");
        assert_eq!(got.to_bits(), s.query(p).to_bits(), "fast vs structure, pattern {p:?}");
        assert_eq!(got.to_bits(), f.query_naive(p).to_bits(), "fast vs naive, pattern {p:?}");
        assert_eq!(
            got.to_bits(),
            decoded.query(p).to_bits(),
            "fast vs decoded fast, pattern {p:?}"
        );
        assert_eq!(got.to_bits(), shared.query(p).to_bits(), "fast vs shared, pattern {p:?}");
        assert_eq!(f.contains(p), f.contains_naive(p), "contains vs naive, pattern {p:?}");
        assert_eq!(f.contains(p), oracle.contains_key(*p), "contains vs model, pattern {p:?}");
    }
    assert_eq!(f.query_batch(&refs), fast, "query_batch must equal per-pattern queries");
}

/// Patterns exercising hits, misses, prefixes, over-long extensions and the
/// empty pattern, derived from the trie's own label set.
fn probe_patterns(labels: &[u8], max_len: usize, rng: &mut StdRng) -> Vec<Vec<u8>> {
    let mut pats: Vec<Vec<u8>> = vec![Vec::new()];
    for _ in 0..200 {
        let len = rng.gen_range(1..=max_len + 2); // over-long included
        pats.push((0..len).map(|_| labels[rng.gen_range(0..labels.len())]).collect());
    }
    // Bytes *outside* the label set probe the miss path.
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
        let entries = random_entries(labels, 40, 6, &mut rng);
        let pats = probe_patterns(labels, 6, &mut rng);
        assert_differential(&entries, &pats);
    }
}

#[test]
fn mid_fanout_tries_match_naive_walk() {
    // Degrees 9..=64: several label words per probe, including partial
    // final words of every residue mod 8.
    let mut rng = StdRng::seed_from_u64(0xFA57_0002);
    for sigma in [9usize, 15, 16, 17, 24, 31, 32, 33, 64] {
        let labels: Vec<u8> = (0..sigma as u8).map(|i| b'a'.wrapping_add(i)).collect();
        let entries = random_entries(&labels, 120, 5, &mut rng);
        let pats = probe_patterns(&labels, 5, &mut rng);
        assert_differential(&entries, &pats);
    }
}

#[test]
fn degree_256_root_uses_the_wide_tier_and_matches() {
    // A full-fanout root (all 256 labels) makes the SWAR scan read all 32
    // label words; children keep mixed small/mid degrees. (The name
    // predates the removal of the lane-table tier for such nodes.)
    let mut rng = StdRng::seed_from_u64(0xFA57_0003);
    let mut entries = BTreeMap::from([(Vec::new(), 500.0)]);
    for b in 0..=255u8 {
        entries.insert(vec![b], f64::from(b) + 0.5);
        // Random sub-paths below some children.
        if b % 3 == 0 {
            for _ in 0..4 {
                let tail: Vec<u8> = (0..rng.gen_range(1..4)).map(|_| rng.gen::<u8>()).collect();
                let mut path = vec![b];
                path.extend_from_slice(&tail);
                entries.insert(path, f64::from(b) * 2.0 + 0.125);
            }
        }
    }
    let all: Vec<u8> = (0..=255u8).collect();
    let mut pats = probe_patterns(&all, 4, &mut rng);
    pats.extend((0..=255u8).map(|b| vec![b]));
    assert_differential(&entries, &pats);
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
        let entries = random_entries(labels, 60, 5, &mut rng);
        let mut pats = probe_patterns(labels, 5, &mut rng);
        // Dense two-byte probes over the adversarial set.
        for &a in labels {
            for &b in labels {
                pats.push(vec![a, b]);
            }
        }
        assert_differential(&entries, &pats);
    }
}

#[test]
fn root_only_and_single_chain_edge_cases() {
    // Leaf-only root: no edges, every probe is a miss.
    let root_only = BTreeMap::from([(Vec::new(), 3.25)]);
    assert_differential(&root_only, &[vec![], vec![0], vec![97], vec![255]]);
    // Single chain: every node has degree exactly 1.
    let mut entries: Entries = (0..=5).map(|d| (b"chain"[..d].to_vec(), d as f64)).collect();
    entries.insert(b"chain".to_vec(), 42.0);
    let pats: Vec<Vec<u8>> = vec![
        vec![],
        b"c".to_vec(),
        b"ch".to_vec(),
        b"chain".to_vec(),
        b"chains".to_vec(), // over-long
        b"x".to_vec(),
        b"cx".to_vec(),
    ];
    assert_differential(&entries, &pats);
}

/// The snapshot sections `(counts, edge_start, edge_label)` of `f`, found
/// through the header's section table (three `{offset, len, checksum}`
/// `u64` triples at byte 88, per the `DPSF` v3 layout).
fn sections(f: &FrozenSynopsis) -> (Vec<f64>, Vec<u32>, Vec<u8>) {
    let buf = f.shared_bytes();
    let word = |at: usize| u64::from_le_bytes(buf[at..at + 8].try_into().unwrap()) as usize;
    let section = |i: usize| &buf[word(88 + 24 * i)..word(88 + 24 * i) + word(96 + 24 * i)];
    let counts = section(0).chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().unwrap()));
    let edge_start = section(1).chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().unwrap()));
    (counts.collect(), edge_start.collect(), section(2).to_vec())
}

/// The reference layout of a model: a breadth-first queue from the root,
/// each node's children taken in label order. Returns the counts in
/// visiting order, the CSR offsets and the edge labels.
fn reference_layout(model: &Entries) -> (Vec<f64>, Vec<u32>, Vec<u8>) {
    let mut order: Vec<&[u8]> = vec![b""];
    let (mut counts, mut edge_start, mut labels) = (Vec::new(), vec![0u32], Vec::new());
    let mut head = 0;
    while head < order.len() {
        let p = order[head];
        head += 1;
        counts.push(model[p]);
        // The strings extending `p` follow it directly in sorted order.
        for (k, _) in model.range(p.to_vec()..).take_while(|(k, _)| k.starts_with(p)) {
            if k.len() == p.len() + 1 {
                labels.push(k[p.len()]);
                order.push(k);
            }
        }
        edge_start.push(labels.len() as u32);
    }
    (counts, edge_start, labels)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random tries over a byte-select alphabet: the snapshot walk, the
    /// naive walk, the model, and the decoded round trip agree on random
    /// and planted patterns alike.
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
        let mut entries = BTreeMap::from([(Vec::new(), 77.0)]);
        for (i, p) in paths.iter().enumerate() {
            entries.insert(p.clone(), i as f64 + 0.5);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let labels = [0u8, 1, 2, 9, 64, 65, 127, 128, 200, 254, 255];
        let mut pats = probe_patterns(&labels, 7, &mut rng);
        pats.extend(paths); // every inserted path is probed verbatim
        assert_differential(&entries, &pats);
    }

    /// Random entry sets, with and without a root entry: the layout of
    /// the release is the breadth-first numbering of the model, mining
    /// lists the model's strings in its order, and the snapshot reloads.
    #[test]
    fn layout_is_the_breadth_first_numbering_of_the_model(
        picks in proptest::collection::vec(
            (
                proptest::collection::vec(proptest::sample::select(vec![0u8, 7, 97, 98, 255]), 0..6),
                -40i32..40,
            ),
            0..30,
        ),
        root in 0i32..3,
    ) {
        let mut entries: Entries =
            picks.into_iter().map(|(p, v)| (p, f64::from(v) + 0.25)).collect();
        if root == 0 {
            entries.remove(&Vec::new());
        }
        let oracle = model(&entries);
        let s = structure_of(&entries);
        let (counts, edge_start, labels) = sections(&s.freeze());
        let (want_counts, want_edge_start, want_labels) = reference_layout(&oracle);
        let bits = |c: &[f64]| c.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        prop_assert_eq!(bits(&counts), bits(&want_counts));
        prop_assert_eq!(edge_start, want_edge_start);
        prop_assert_eq!(labels, want_labels);

        let mined: Vec<(Vec<u8>, f64)> = s.mine(f64::NEG_INFINITY);
        let want: Vec<(Vec<u8>, f64)> =
            oracle.iter().skip(1).map(|(p, &v)| (p.clone(), v)).collect();
        prop_assert_eq!(mined, want);
        let back = FrozenSynopsis::from_bytes(&s.freeze().to_bytes()).expect("snapshot reloads");
        prop_assert_eq!(back, s.freeze());
    }
}
