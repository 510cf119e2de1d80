//! Robustness of the `DPSF` v3 snapshot codec on a *real* DP-built
//! structure: exact round-trips, `Err` (never a panic) on truncations,
//! version/magic damage (including a v2 buffer), bit flips, splices, and
//! noise, forged-but-restamped header fields, flag words and arrays (one
//! forgery per structural rule), and a differential sweep asserting that
//! copied and shared decodes answer bit-identically. (The file and several
//! tests keep their `v2` names so the test ids stay stable across
//! formats.)

mod common;

use std::sync::Arc;

use dp_substring_counting::prelude::*;
use dp_substring_counting::private_count::codec::fnv1a;
use dp_substring_counting::workloads::markov_corpus;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// v3 header layout landmarks (see DESIGN.md §13): the section table
// starts at 88 with three 24-byte entries {offset, len, checksum}, the
// header checksum sits at 160, and sections begin at 168.
const FLAGS_OFF: usize = 6;
const CLIP_OFF: usize = 16;
const DELTA_OFF: usize = 32;
const ALPHA_COUNTS_OFF: usize = 40;
const ALPHA_ABSENT_OFF: usize = 48;
const N_NODES_OFF: usize = 72;
const TABLE_OFF: usize = 88;
const TABLE_ENTRY_LEN: usize = 24;
const HEADER_SUM_OFF: usize = 160;
const HEADER_LEN: usize = 168;
const SECTIONS: usize = 3;

/// A genuinely constructed (Theorem 1) synopsis plus its corpus.
fn built() -> (PrivateCountStructure, FrozenSynopsis, Vec<Vec<u8>>) {
    built_in(CountMode::Substring)
}

fn built_in(mode: CountMode) -> (PrivateCountStructure, FrozenSynopsis, Vec<Vec<u8>>) {
    let mut rng = StdRng::seed_from_u64(11);
    let db = markov_corpus(60, 16, 4, 0.6, &mut rng);
    let idx = CorpusIndex::build(&db);
    let params = BuildParams::new(mode, PrivacyParams::pure(1e4), 0.1).with_thresholds(1.5, 1.5);
    let s = build_pure(&idx, &params, &mut rng).expect("construction succeeds");
    let f = s.freeze();
    (s, f, db.documents().to_vec())
}

fn le_u64(bytes: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap())
}

/// `(offset, len)` of section `i` read straight from the wire table.
fn section(bytes: &[u8], i: usize) -> (usize, usize) {
    let entry = TABLE_OFF + TABLE_ENTRY_LEN * i;
    (le_u64(bytes, entry) as usize, le_u64(bytes, entry + 8) as usize)
}

/// Applies `patch`, then recomputes every section checksum and the header
/// checksum so the damage is *only* the patched field — exactly what a
/// forging adversary who controls the whole byte string can do.
fn patch_and_restamp_v2(bytes: &[u8], at: usize, patch: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[at..at + patch.len()].copy_from_slice(patch);
    for i in 0..SECTIONS {
        let (off, len) = section(&out, i);
        let sum = fnv1a(&out[off..off + len]).to_le_bytes();
        let entry = TABLE_OFF + TABLE_ENTRY_LEN * i;
        out[entry + 16..entry + 24].copy_from_slice(&sum);
    }
    let header_sum = fnv1a(&out[..HEADER_SUM_OFF]).to_le_bytes();
    out[HEADER_SUM_OFF..HEADER_SUM_OFF + 8].copy_from_slice(&header_sum);
    out
}

#[test]
fn v2_roundtrip_preserves_queries_exactly() {
    let (structure, frozen, docs) = built();
    let bytes = frozen.to_bytes();
    let back = FrozenSynopsis::from_bytes(&bytes).expect("round-trip parses");
    assert_eq!(back, frozen);
    for doc in &docs {
        for i in 0..doc.len() {
            for j in i + 1..=doc.len() {
                let pat = &doc[i..j];
                assert_eq!(back.query(pat).to_bits(), structure.query(pat).to_bits());
            }
        }
    }
    // Serializing the decoded synopsis reproduces the identical bytes.
    assert_eq!(back.to_bytes(), bytes, "not canonical");
    assert_eq!(frozen.serialized_len(), bytes.len());
}

#[test]
fn v2_truncations_and_extensions_error() {
    let (_, frozen, _) = built();
    let bytes = frozen.to_bytes();
    // Every strict prefix fails — the whole 192-byte header territory is
    // covered exhaustively, the sections by stride.
    for len in (0..bytes.len()).filter(|&l| l < 200 || l % 37 == 0) {
        assert!(FrozenSynopsis::from_bytes(&bytes[..len]).is_err(), "prefix {len} parsed");
    }
    for extra in [1usize, 8, 1024] {
        let mut e = bytes.clone();
        e.extend(std::iter::repeat_n(0xAB, extra));
        assert!(FrozenSynopsis::from_bytes(&e).is_err(), "extension {extra} parsed");
    }
}

#[test]
fn v2_bit_flip_corpus_errors() {
    let (_, frozen, _) = built();
    let bytes = frozen.to_bytes();
    // Strided single-bit flips across header, section table, section
    // payloads, alignment padding, and checksums; the stride is coprime to
    // 8 so every bit index is exercised.
    for pos in (0..bytes.len()).step_by(13) {
        for bit in 0..8 {
            let mut m = bytes.clone();
            m[pos] ^= 1 << bit;
            assert!(
                FrozenSynopsis::from_bytes(&m).is_err(),
                "bit {bit} of byte {pos}/{} flipped silently",
                bytes.len()
            );
        }
    }
}

#[test]
fn v2_alignment_padding_is_validated() {
    // `edge_start` holds `n_nodes + 1` four-byte offsets, so with an even
    // node count it ends 4 bytes short of an 8-byte boundary: the only gap
    // between sections. The label section is always followed by a zeroed
    // tail. Corrupt every padding byte in turn: it is outside all section
    // checksums, so only an explicit zero-check can reject it.
    let (_, frozen, _) = built_in(CountMode::Document);
    assert_eq!(frozen.node_count() % 2, 0, "the gap after edge_start needs an even node count");
    let bytes = frozen.to_bytes();
    let mut padded = [0usize; SECTIONS];
    for i in 0..SECTIONS {
        let (off, len) = section(&bytes, i);
        let next_off = if i + 1 < SECTIONS { section(&bytes, i + 1).0 } else { bytes.len() };
        for pad in off + len..next_off {
            padded[i] += 1;
            let forged = patch_and_restamp_v2(&bytes, pad, &[0x5A]);
            let err =
                FrozenSynopsis::from_bytes(&forged).expect_err("nonzero alignment padding parsed");
            assert!(format!("{err}").contains("padding"), "unexpected error: {err}");
        }
    }
    assert_eq!(padded[..2], [0, 4], "padding after counts and after edge_start");
    assert!(padded[2] >= 7, "label tail of {} bytes", padded[2]);
}

#[test]
fn v2_random_mutation_corpus_never_panics() {
    let (_, frozen, _) = built();
    let mut rng = StdRng::seed_from_u64(0xD0C2);
    let bytes = frozen.to_bytes();
    for _ in 0..500 {
        let mut m = bytes.clone();
        match rng.gen_range(0..4u32) {
            0 => {
                let start = rng.gen_range(0..m.len());
                let len = rng.gen_range(1..64usize).min(m.len() - start);
                for b in &mut m[start..start + len] {
                    *b = rng.gen();
                }
            }
            1 => {
                let start = rng.gen_range(0..m.len());
                let len = rng.gen_range(1..64usize).min(m.len() - start);
                m.drain(start..start + len);
            }
            2 => {
                let start = rng.gen_range(0..m.len());
                let len = rng.gen_range(1..64usize).min(m.len() - start);
                let window: Vec<u8> = m[start..start + len].to_vec();
                let at = rng.gen_range(0..m.len());
                m.splice(at..at, window);
            }
            _ => {
                let len = rng.gen_range(0..2048usize);
                m = (0..len).map(|_| rng.gen()).collect();
            }
        }
        if let Ok(parsed) = FrozenSynopsis::from_bytes(&m) {
            assert_eq!(parsed.to_bytes(), m, "accepted a non-canonical encoding");
            assert_eq!(parsed, frozen, "accepted a mutated synopsis as different content");
        }
    }
}

#[test]
fn v2_borrowed_and_owned_answer_bit_identically() {
    let (structure, frozen, docs) = built();
    let v2u: Arc<[u8]> = frozen.to_bytes().into();
    let borrowed = FrozenSynopsis::from_bytes_shared(Arc::clone(&v2u)).expect("shared decode");
    assert!(Arc::ptr_eq(borrowed.shared_bytes(), &v2u), "a shared Arc must not be copied");
    let owned = FrozenSynopsis::from_bytes(&v2u).expect("owned decode");
    assert!(!Arc::ptr_eq(owned.shared_bytes(), &v2u));

    for syn in [&borrowed, &owned] {
        assert_eq!(*syn, frozen);
    }
    for doc in &docs {
        for i in 0..doc.len() {
            for j in i + 1..=doc.len() {
                let pat = &doc[i..j];
                let want = structure.query(pat).to_bits();
                for (label, syn) in [("borrowed", &borrowed), ("owned", &owned)] {
                    assert_eq!(syn.query(pat).to_bits(), want, "{label} disagrees on {pat:?}");
                    assert_eq!(
                        syn.query_naive(pat).to_bits(),
                        want,
                        "{label} naive path disagrees on {pat:?}"
                    );
                }
            }
        }
    }
    // The shared synopsis re-encodes canonically from its own buffer.
    assert_eq!(borrowed.to_bytes(), v2u.as_ref());
}

#[test]
fn v2_forged_non_finite_fields_error() {
    let (_, frozen, _) = built();
    let bytes = frozen.to_bytes();
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let le = bad.to_le_bytes();
        for (field, at) in [("alpha_counts", ALPHA_COUNTS_OFF), ("alpha_absent", ALPHA_ABSENT_OFF)]
        {
            let forged = patch_and_restamp_v2(&bytes, at, &le);
            let err =
                FrozenSynopsis::from_bytes(&forged).expect_err("restamped non-finite alpha parsed");
            assert!(format!("{err}").contains(field), "wrong error for {field}: {err}");
        }
        let (counts_off, _) = section(&bytes, 0);
        let forged = patch_and_restamp_v2(&bytes, counts_off, &le);
        let err =
            FrozenSynopsis::from_bytes(&forged).expect_err("restamped non-finite count parsed");
        assert!(format!("{err}").contains("count"), "wrong error: {err}");
        // The borrowed path must reject it too — validation runs before
        // any query can touch the bytes.
        let shared: Arc<[u8]> = forged.into();
        assert!(FrozenSynopsis::from_bytes_shared(shared).is_err());
    }
}

#[test]
fn v2_forged_oversized_edge_start_is_an_error_not_a_panic() {
    let (_, frozen, _) = built();
    let bytes = frozen.to_bytes();
    // Point node 0's CSR end past every edge array; with all checksums
    // restamped, only the structural range check stands between this and
    // an out-of-bounds index.
    let (edge_start_off, _) = section(&bytes, 1);
    let forged = patch_and_restamp_v2(&bytes, edge_start_off + 4, &u32::MAX.to_le_bytes());
    let err = FrozenSynopsis::from_bytes(&forged).expect_err("oversized CSR offset parsed");
    assert!(format!("{err}").contains("CSR"), "unexpected error: {err}");
}

/// The `edge_start` section as CSR offsets.
fn edge_starts(bytes: &[u8]) -> Vec<u32> {
    let (off, len) = section(bytes, 1);
    bytes[off..off + len]
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

/// Overwrites the `edge_start` section with `starts` and
/// restamps every checksum, so only the structural sweep can object.
fn forge_edge_starts(bytes: &[u8], starts: &[u32]) -> Vec<u8> {
    let raw: Vec<u8> = starts.iter().flat_map(|s| s.to_le_bytes()).collect();
    patch_and_restamp_v2(bytes, section(bytes, 1).0, &raw)
}

fn structural_error(forged: &[u8]) -> String {
    let err = FrozenSynopsis::from_bytes(forged).expect_err("forged snapshot parsed");
    assert!(FrozenSynopsis::from_bytes_shared(forged.into()).is_err(), "shared path parsed");
    err.to_string()
}

#[test]
fn forged_decreasing_edge_start_is_rejected() {
    // Rule 1: offsets never decrease.
    let bytes = built().1.to_bytes();
    let mut starts = edge_starts(&bytes);
    let k = (1..starts.len()).find(|&k| starts[k - 1] > 0).expect("a node with edges");
    starts[k] = starts[k - 1] - 1;
    let err = structural_error(&forge_edge_starts(&bytes, &starts));
    assert!(err.contains("decrease"), "unexpected error: {err}");
}

#[test]
fn forged_edge_start_must_end_at_the_edge_count() {
    // Rule 1: the last offset is n_nodes − 1. Drop the last edge from
    // every offset that reached it, which keeps the offsets monotone.
    let (_, frozen, _) = built();
    let bytes = frozen.to_bytes();
    let mut starts = edge_starts(&bytes);
    let n_edges = (frozen.node_count() - 1) as u32;
    assert_eq!(*starts.last().unwrap(), n_edges);
    for s in starts.iter_mut().filter(|s| **s == n_edges) {
        *s = n_edges - 1;
    }
    let err = structural_error(&forge_edge_starts(&bytes, &starts));
    assert!(err.contains("span"), "unexpected error: {err}");
}

#[test]
fn forged_backward_child_is_rejected() {
    // Rule 2: edge_start[v] ≥ v for every node with edges. Handing the
    // root's edges to node 1 makes edge 0 lead from node 1 to itself — a
    // cycle that leaves the root childless — while the offsets stay
    // monotone and still span the edges.
    let bytes = built().1.to_bytes();
    let mut starts = edge_starts(&bytes);
    assert!(starts[2] > starts[1], "node 1 has children");
    starts[1] = 0;
    let forged = forge_edge_starts(&bytes, &starts);
    // Relabel node 1's merged run in order, so rule 3 holds and only
    // rule 2 is left to object.
    let run: Vec<u8> = (0..starts[2] as u8).collect();
    let forged = patch_and_restamp_v2(&forged, section(&forged, 2).0, &run);
    let err = structural_error(&forged);
    assert!(err.contains("backward"), "unexpected error: {err}");
}

#[test]
fn forged_unsorted_labels_are_rejected() {
    // Rule 3: labels strictly increase within a node.
    let bytes = built().1.to_bytes();
    let starts = edge_starts(&bytes);
    let v = (0..starts.len() - 1).find(|&v| starts[v + 1] - starts[v] >= 2).expect("degree ≥ 2");
    let (label_off, _) = section(&bytes, 2);
    let at = label_off + starts[v] as usize;
    let swapped = [bytes[at + 1], bytes[at]];
    let err = structural_error(&patch_and_restamp_v2(&bytes, at, &swapped));
    assert!(err.contains("not strictly sorted"), "unexpected error: {err}");
}

#[test]
fn unrestamped_section_damage_is_named_by_its_section() {
    // Damage that is *not* restamped must be reported as the damaged
    // section's checksum mismatch, even where it also breaks a structural
    // rule: the section sums are compared before any structural error.
    let bytes = built().1.to_bytes();
    let names = ["counts", "edge_start", "edge_label"];
    let starts = edge_starts(&bytes);
    let v = (0..starts.len() - 1).find(|&v| starts[v + 1] - starts[v] >= 2).expect("degree ≥ 2");
    let (counts_off, _) = section(&bytes, 0);
    let (edge_start_off, _) = section(&bytes, 1);
    let (label_off, _) = section(&bytes, 2);
    let at = label_off + starts[v] as usize;
    // (section, byte offset, replacement bytes): a NaN count, a u32::MAX
    // CSR offset and a swapped label pair, each a structural defect too.
    let mut cases = vec![
        (0, counts_off, f64::NAN.to_le_bytes().to_vec()),
        (1, edge_start_off + 4, u32::MAX.to_le_bytes().to_vec()),
        (2, at, vec![bytes[at + 1], bytes[at]]),
    ];
    // One-bit flips at the first, a middle and the last byte of each
    // section, cycling through the bit index.
    for (i, name) in names.iter().enumerate() {
        let (off, len) = section(&bytes, i);
        assert!(len > 0, "section {name} is empty");
        for (k, pos) in [off, off + len / 2, off + len - 1].into_iter().enumerate() {
            cases.push((i, pos, vec![bytes[pos] ^ (1 << ((3 * k + i) % 8))]));
        }
    }
    for (i, at, patch) in cases {
        let mut damaged = bytes.clone();
        damaged[at..at + patch.len()].copy_from_slice(&patch);
        assert_ne!(damaged, bytes, "the patch at {at} changed nothing");
        for err in [
            FrozenSynopsis::from_bytes(&damaged).unwrap_err(),
            FrozenSynopsis::from_bytes_shared(damaged.into()).unwrap_err(),
        ] {
            assert!(
                matches!(err, DecodeError::SectionChecksumMismatch { section, .. } if section == names[i]),
                "damage at byte {at} of section {}: unexpected error {err}",
                names[i]
            );
        }
    }
}

#[test]
fn v2_snapshot_is_refused_by_version() {
    // A well-formed buffer labelled with the retired v2 tag is refused
    // before any layout is trusted.
    let (_, frozen, _) = built();
    let bytes = frozen.to_bytes();
    let v2 = patch_and_restamp_v2(&bytes, 4, &2u16.to_le_bytes());
    assert_eq!(
        FrozenSynopsis::from_bytes(&v2).unwrap_err(),
        DecodeError::UnsupportedVersion { found: 2, expected: 3 }
    );
    assert!(FrozenSynopsis::from_bytes_shared(v2.into()).is_err());
    // So is any flag bit, bit 0 (the retired compressed dialect)
    // included. The restamped header checksum leaves the flags check as
    // the only objection.
    for flags in [0x0001u16, 0x0002, 0x8000, 0xFFFF] {
        let forged = patch_and_restamp_v2(&bytes, FLAGS_OFF, &flags.to_le_bytes());
        let err = FrozenSynopsis::from_bytes(&forged).expect_err("flagged snapshot parsed");
        assert!(
            matches!(err, DecodeError::BadField { field: "flags", .. }),
            "flags {flags:#06x}: unexpected error {err}"
        );
        assert!(FrozenSynopsis::from_bytes_shared(forged.into()).is_err());
    }
}

#[test]
fn version_and_magic_damage_errors() {
    let (_, frozen, _) = built();
    let bytes = frozen.to_bytes();
    for pos in 0..6 {
        for val in [0u8, 1, 2, 7, 0xFF] {
            let mut m = bytes.clone();
            if m[pos] == val {
                continue;
            }
            m[pos] = val;
            assert!(FrozenSynopsis::from_bytes(&m).is_err(), "byte {pos} := {val} parsed");
        }
    }
    // A buffer claiming the retired v1 format is refused by version,
    // before any v1 layout is assumed.
    let mut v1 = bytes.clone();
    v1[4..6].copy_from_slice(&1u16.to_le_bytes());
    assert_eq!(
        FrozenSynopsis::from_bytes(&v1).unwrap_err(),
        DecodeError::UnsupportedVersion { found: 1, expected: 3 }
    );
}

#[test]
fn empty_and_tiny_inputs_error() {
    assert!(FrozenSynopsis::from_bytes(&[]).is_err());
    for len in 1..16 {
        assert!(FrozenSynopsis::from_bytes(&vec![0u8; len]).is_err());
        assert!(FrozenSynopsis::from_bytes(&vec![0xFFu8; len]).is_err());
    }
    // A bare valid header with nothing after it is still truncated.
    let bytes = built().1.to_bytes();
    assert!(FrozenSynopsis::from_bytes(&bytes[..16]).is_err());
    assert!(FrozenSynopsis::from_bytes(&bytes[..HEADER_LEN]).is_err());
}

#[test]
fn v2_forged_clip_level_must_match_the_mode_tag() {
    // `built()` is Substring mode (clip field 0): a nonzero clip level
    // under that tag is non-canonical, so even a restamped forgery fails.
    let (_, frozen, _) = built();
    let forged = patch_and_restamp_v2(&frozen.to_bytes(), CLIP_OFF, &5u64.to_le_bytes());
    let err = FrozenSynopsis::from_bytes(&forged).expect_err("clip under Substring parsed");
    assert!(format!("{err}").contains("clip"), "unexpected error: {err}");
    // The same patch on a Clipped-mode synopsis is meaningful and fine.
    let (_, clipped, _) = built_in(CountMode::Clipped(7));
    let reclipped = patch_and_restamp_v2(&clipped.to_bytes(), CLIP_OFF, &5u64.to_le_bytes());
    let parsed = FrozenSynopsis::from_bytes(&reclipped).expect("valid clipped encoding");
    assert_eq!(parsed.mode(), CountMode::Clipped(5));
    assert_eq!(parsed.to_bytes(), reclipped, "canonical re-serialization");
}

#[test]
fn v2_forged_negative_zero_delta_errors() {
    // `built()` is pure DP (δ = +0.0). `-0.0` passes a plain range check
    // but would re-serialize as `+0.0`, so the decoder must refuse it.
    let bytes = built().1.to_bytes();
    let forged = patch_and_restamp_v2(&bytes, DELTA_OFF, &(-0.0f64).to_le_bytes());
    let err = FrozenSynopsis::from_bytes(&forged).expect_err("-0.0 delta parsed");
    assert!(format!("{err}").contains("delta"), "unexpected error: {err}");
}

#[test]
fn v2_forged_node_count_overflow_is_an_error_not_a_panic() {
    // A restamped header declaring 2^62 + 5 nodes (and a matching edge
    // count, so the tree-shape check passes): every section size derived
    // from it overflows, which must surface as `SizeOverflow`.
    let (_, frozen, _) = built();
    let n_nodes = (1u64 << 62) + 5;
    let mut counts = [0u8; 16];
    counts[..8].copy_from_slice(&n_nodes.to_le_bytes());
    counts[8..].copy_from_slice(&(n_nodes - 1).to_le_bytes());
    let forged = patch_and_restamp_v2(&frozen.to_bytes(), N_NODES_OFF, &counts);
    assert_eq!(FrozenSynopsis::from_bytes(&forged).unwrap_err(), DecodeError::SizeOverflow);
    assert!(FrozenSynopsis::from_bytes_shared(forged.into()).is_err());
}

/// Builds a real structure on tiny random corpora, retrying the
/// legitimate FAIL branch on derived seeds.
fn build_small(docs: Vec<Vec<u8>>, seed: u64) -> Option<(PrivateCountStructure, Vec<Vec<u8>>)> {
    let db = Database::from_documents(Alphabet::lowercase(26), docs.clone()).expect("valid docs");
    let idx = CorpusIndex::build(&db);
    let mut rng = StdRng::seed_from_u64(seed);
    let params = BuildParams::new(CountMode::Substring, PrivacyParams::pure(1e4), 0.1)
        .with_thresholds(1.0, 1.0);
    build_pure(&idx, &params, &mut rng).ok().map(|s| (s, docs))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The owned and borrowed decodes answer bit-identically to the
    /// frozen original. (The id predates the retired compressed dialect.)
    #[test]
    fn owned_compressed_and_borrowed_decode_bit_identically(
        docs in proptest::collection::vec(
            proptest::collection::vec(proptest::sample::select(vec![b'a', b'b', b'c']), 1..12),
            1..10,
        ),
        seed in 0u64..1 << 40,
    ) {
        let (structure, docs) = common::with_retry_seeds(seed, 6, |s| build_small(docs.clone(), s));
        let frozen = structure.freeze();
        let v2_owned = FrozenSynopsis::from_bytes(&frozen.to_bytes()).expect("v2 decodes");
        let shared: Arc<[u8]> = frozen.to_bytes().into();
        let v2_borrowed =
            FrozenSynopsis::from_bytes_shared(Arc::clone(&shared)).expect("borrowed decodes");
        prop_assert!(Arc::ptr_eq(v2_borrowed.shared_bytes(), &shared));
        for doc in &docs {
            for i in 0..doc.len() {
                for j in i + 1..=doc.len() {
                    let pat = &doc[i..j];
                    let want = frozen.query(pat).to_bits();
                    prop_assert_eq!(v2_owned.query(pat).to_bits(), want);
                    prop_assert_eq!(v2_borrowed.query(pat).to_bits(), want);
                }
            }
        }
        // Absent patterns exercise the early-exit paths of both decodes.
        for pat in [b"zz".as_slice(), b"xyzw", b"qqqqqqqq"] {
            let want = frozen.query(pat).to_bits();
            prop_assert_eq!(v2_owned.query(pat).to_bits(), want);
            prop_assert_eq!(v2_borrowed.query(pat).to_bits(), want);
        }
    }
}
