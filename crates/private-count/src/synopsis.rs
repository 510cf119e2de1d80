//! Frozen serving-layer synopsis: the published trie as one immutable,
//! checksummed byte buffer that answers queries in place.
//!
//! The released trie is pure post-processing, so it can be re-shaped
//! freely with no privacy cost. Step 6 emits it in pre-order (a
//! [`PreorderTrie`]), and one `O(nodes)` pass writes it straight into the
//! canonical `DPSF` v3 snapshot (`codec_v3`): breadth-first node
//! numbering, one noisy count per node, CSR edge offsets and per-node
//! sorted edge labels. Edges are stored in node order, so the child of
//! edge `e` is node `e + 1` and no child ids are stored at all. There is
//! no other form of the release: a
//! [`PrivateCountStructure`](crate::PrivateCountStructure) wraps this
//! snapshot and mines it by one pre-order walk over the same sections.
//!
//! That one buffer is the synopsis. Queries walk its sections in place;
//! [`FrozenSynopsis::to_bytes`] copies it out; and
//! [`FrozenSynopsis::from_bytes_shared`] adopts a received `Arc<[u8]>`
//! after validation with zero copies. A walk step probes the node's label
//! run with a SWAR compare — one unaligned 8-byte load per eight edges, so
//! a step scans at most 32 label words (a node with all 256 labels). No
//! data is derived beside the buffer.

use std::sync::Arc;

use dpsc_dpcore::budget::PrivacyParams;
use dpsc_hierarchy::tree::NodeId;

use crate::codec::{le_f64, DecodeError};
use crate::codec_v3::{self, Canonical, Meta};
use crate::pipeline::PreorderTrie;
use crate::structure::CountMode;

/// Low bit of every SWAR lane.
const LANES_LO: u64 = 0x0101_0101_0101_0101;
/// High bit of every SWAR lane.
const LANES_HI: u64 = 0x8080_8080_8080_8080;

/// SWAR lane mask of labels equal to `probe`: broadcast-XOR, then the
/// classic zero-byte detect `(x − 0x01…) & !x & 0x80…`. A borrow can only
/// start at a true match and only propagate upward, so higher lanes may
/// carry artifacts but the **lowest** set lane is always a true match.
#[inline]
fn swar_eq_mask(labels: u64, probe: u8) -> u64 {
    let x = labels ^ (LANES_LO.wrapping_mul(probe as u64));
    x.wrapping_sub(LANES_LO) & !x & LANES_HI
}

/// The sections of a synopsis's buffer, bound once per query so the walk
/// does not re-slice the `Arc` per byte.
#[derive(Clone, Copy)]
struct Sections<'a> {
    counts: &'a [u8],
    edge_start: &'a [u8],
    /// The label section through the end of the buffer: the layout's
    /// zeroed tail keeps an 8-byte load from any edge offset in bounds.
    labels: &'a [u8],
}

impl Sections<'_> {
    /// Edge range `edge_start[v]..edge_start[v + 1]` of node `v`, read
    /// with one 8-byte load.
    #[inline]
    fn span(&self, v: usize) -> (usize, usize) {
        let w = u64::from_le_bytes(self.edge_start[4 * v..4 * v + 8].try_into().expect("8 bytes"));
        (w as u32 as usize, (w >> 32) as usize)
    }

    /// The child of node `v` along `byte`, if any. Edge `e` leads to node
    /// `e + 1`; the label run is probed eight lanes per load. Lanes past
    /// the node's last edge (the next node's labels, or the zeroed tail)
    /// sit above every real lane, so a lowest match among them means no
    /// real lane matched and is discarded. The layout's tail keeps the
    /// last word inside the buffer.
    #[inline]
    fn step(&self, v: usize, byte: u8) -> Option<usize> {
        let (lo, hi) = self.span(v);
        let words = &self.labels[lo..lo + 8 * (hi - lo).div_ceil(8)];
        for (i, word) in words.chunks_exact(8).enumerate() {
            let mask = swar_eq_mask(u64::from_le_bytes(word.try_into().expect("8 bytes")), byte);
            if mask != 0 {
                let e = lo + 8 * i + (mask.trailing_zeros() >> 3) as usize;
                return (e < hi).then_some(e + 1);
            }
        }
        None
    }

    /// Reference step: binary search over the node's label run.
    #[inline]
    fn step_naive(&self, v: usize, byte: u8) -> Option<usize> {
        let (lo, hi) = self.span(v);
        let i = self.labels[lo..hi].binary_search(&byte).ok()?;
        Some(lo + i + 1)
    }

    /// The node spelling `pattern`, if present.
    #[inline]
    fn locate(&self, pattern: &[u8]) -> Option<usize> {
        pattern.iter().try_fold(0, |v, &b| self.step(v, b))
    }

    /// [`Self::locate`] through [`Self::step_naive`].
    #[inline]
    fn locate_naive(&self, pattern: &[u8]) -> Option<usize> {
        pattern.iter().try_fold(0, |v, &b| self.step_naive(v, b))
    }

    /// Noisy count of `node`, 0 for an absent pattern.
    #[inline]
    fn answer(&self, node: Option<usize>) -> f64 {
        node.map_or(0.0, |v| le_f64(self.counts, 8 * v))
    }
}

/// An immutable, flat, serializable `count_Δ` synopsis: a validated
/// canonical `DPSF` v3 snapshot that answers queries from its own bytes.
///
/// Node `0` is the root (the empty string); nodes are numbered in
/// breadth-first order with children in label order. For node `v`, the
/// outgoing edges are `edge_start[v]..edge_start[v+1]` with strictly
/// increasing labels, edge `e` leads to node `e + 1`, and the noisy count
/// is `counts[v]`.
#[derive(Debug, Clone)]
pub struct FrozenSynopsis(Canonical);

/// Equality is byte equality of the snapshots, which is exact: the
/// encoding is canonical, so equal synopses have one byte representation.
impl PartialEq for FrozenSynopsis {
    fn eq(&self, other: &Self) -> bool {
        *self.0.buf == *other.0.buf
    }
}

impl FrozenSynopsis {
    /// Lays a released trie out as its snapshot in one `O(nodes)` pass.
    ///
    /// Breadth-first order is a stable counting sort of pre-order by
    /// depth: within one depth both orders are lexicographic. So a node's
    /// depth (`depth[parent] + 1`) gives its breadth-first id, its count
    /// and label go to that id, and `edge_start` is the prefix sum of the
    /// degrees in breadth-first order. The trie is freed before encoding.
    pub(crate) fn lay_out(trie: PreorderTrie<f64>, meta: Meta) -> Self {
        let n = trie.len();
        // ids[v] holds v's depth, then its breadth-first id; at_depth[d]
        // holds the number of depth-d nodes, then the next free id there.
        let mut ids: Vec<u32> = Vec::with_capacity(n);
        let mut at_depth: Vec<u32> = Vec::new();
        for v in 0..n as NodeId {
            let d = if v == 0 { 0 } else { ids[trie.parent(v) as usize] as usize + 1 };
            if d == at_depth.len() {
                at_depth.push(0);
            }
            at_depth[d] += 1;
            ids.push(d as u32);
        }
        let mut first = 0;
        for slot in &mut at_depth {
            first += std::mem::replace(slot, first);
        }
        for id in &mut ids {
            let d = *id as usize;
            *id = at_depth[d];
            at_depth[d] += 1;
        }
        let mut counts = vec![0u8; 8 * n];
        let mut edge_label = vec![0u8; n - 1];
        // degree[i + 1] is the out-degree of breadth-first node i.
        let mut degree = vec![0u32; n + 1];
        for v in 0..n as NodeId {
            let id = ids[v as usize] as usize;
            counts[8 * id..8 * id + 8].copy_from_slice(&trie.value(v).to_bits().to_le_bytes());
            if v != 0 {
                edge_label[id - 1] = trie.symbol(v);
                degree[ids[trie.parent(v) as usize] as usize + 1] += 1;
            }
        }
        drop((trie, ids));
        let mut edge_start = Vec::with_capacity(4 * (n + 1));
        let mut edges = 0u32;
        for d in degree {
            edges += d;
            edge_start.extend_from_slice(&edges.to_le_bytes());
        }
        Self(
            codec_v3::encode(meta, [&counts, &edge_start, &edge_label])
                .expect("the layout writes a valid snapshot"),
        )
    }

    /// Visits every node in pre-order, children in label order (so the
    /// strings come in lexicographic order), with its string and noisy
    /// count. One explicit stack of pending nodes and one path buffer.
    pub(crate) fn for_each_preorder(&self, mut visit: impl FnMut(&[u8], f64)) {
        let s = self.sections();
        let mut path = Vec::new();
        // (node, depth); children go on in reverse, so the lowest label
        // comes off first.
        let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
        while let Some((v, depth)) = stack.pop() {
            if v != 0 {
                path.truncate(depth - 1);
                path.push(s.labels[v - 1]);
            }
            visit(&path, s.answer(Some(v)));
            let (lo, hi) = s.span(v);
            stack.extend((lo..hi).rev().map(|e| (e + 1, depth + 1)));
        }
    }

    /// The query view of the buffer.
    #[inline]
    fn sections(&self) -> Sections<'_> {
        let [counts, edge_start, edge_label] = self.0.offsets;
        Sections {
            counts: &self.0.buf[counts..edge_start],
            edge_start: &self.0.buf[edge_start..edge_label],
            labels: &self.0.buf[edge_label..],
        }
    }

    /// Noisy `count_Δ(P, D)`; absent patterns return 0. Allocation-free;
    /// one SWAR probe per eight edges of each visited node.
    #[inline]
    pub fn query(&self, pattern: &[u8]) -> f64 {
        let s = self.sections();
        s.answer(s.locate(pattern))
    }

    /// [`Self::query`] through the reference binary-search walk
    /// (`O(|P| log σ)`). Exists so tests, benchmarks and the serving load
    /// generator can assert, at runtime, that the SWAR walk is
    /// behaviorally invisible (bit-identical answers).
    #[inline]
    pub fn query_naive(&self, pattern: &[u8]) -> f64 {
        let s = self.sections();
        s.answer(s.locate_naive(pattern))
    }

    /// Whether the pattern is represented in the synopsis.
    #[inline]
    pub fn contains(&self, pattern: &[u8]) -> bool {
        self.sections().locate(pattern).is_some()
    }

    /// [`Self::contains`] through the reference binary-search walk.
    #[inline]
    pub fn contains_naive(&self, pattern: &[u8]) -> bool {
        self.sections().locate_naive(pattern).is_some()
    }

    /// Answers a batch of queries in order: one output allocation, then
    /// one allocation-free walk per pattern.
    pub fn query_batch(&self, patterns: &[&[u8]]) -> Vec<f64> {
        let s = self.sections();
        patterns.iter().map(|p| s.answer(s.locate(p))).collect()
    }

    /// The count mode (`Δ`).
    #[inline]
    pub fn mode(&self) -> CountMode {
        self.0.meta.mode
    }

    /// The privacy guarantee of the construction that produced this synopsis.
    #[inline]
    pub fn privacy(&self) -> PrivacyParams {
        self.0.meta.privacy
    }

    /// Error bound on stored noisy counts (high probability).
    #[inline]
    pub fn alpha_counts(&self) -> f64 {
        self.0.meta.alpha_counts
    }

    /// True-count bound for strings not present in the synopsis.
    #[inline]
    pub fn alpha_absent(&self) -> f64 {
        self.0.meta.alpha_absent
    }

    /// Overall additive error `α` (present or absent patterns).
    pub fn alpha(&self) -> f64 {
        self.0.meta.alpha_counts.max(self.0.meta.alpha_absent)
    }

    /// Number of nodes, root included.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.0.n_nodes
    }

    /// Database size parameters `(n, ℓ)` the synopsis was built from.
    pub fn db_params(&self) -> (usize, usize) {
        (self.0.meta.n_docs, self.0.meta.max_len)
    }

    /// The snapshot buffer the synopsis answers from: [`Self::to_bytes`]
    /// without the copy. After [`Self::from_bytes_shared`] it is the
    /// caller's buffer itself (`Arc::ptr_eq` holds).
    #[inline]
    pub fn shared_bytes(&self) -> &Arc<[u8]> {
        &self.0.buf
    }

    /// The snapshot's digest: its verified `DPSF` header checksum, which
    /// covers every section checksum, so it stands for the whole
    /// snapshot with 64-bit FNV-1a strength. `O(1)`; equals
    /// [`codec::snapshot_digest`](crate::codec::snapshot_digest) of
    /// [`Self::to_bytes`].
    #[inline]
    pub fn digest(&self) -> u64 {
        crate::codec::snapshot_digest(&self.0.buf).expect("a decoded snapshot holds a header")
    }

    /// Size of [`Self::to_bytes`] in bytes.
    pub fn serialized_len(&self) -> usize {
        self.0.buf.len()
    }

    /// Bytes of derived acceleration data held beside the snapshot: always
    /// 0, since the walk reads only the snapshot. Kept only because the
    /// benchmark reports it as `synopsis.accel_bytes`.
    pub fn accel_memory_bytes(&self) -> usize {
        0
    }

    /// Serializes to the `DPSF` v3 snapshot (see `codec_v3` for the
    /// layout): a copy of the buffer the synopsis answers from.
    /// Canonical: `from_bytes(b)?.to_bytes() == b`.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.0.buf.to_vec()
    }

    /// [`Self::to_bytes`] under its pre-v3 name, kept only because the
    /// benchmark still calls it as `to_bytes_v2(false)`.
    ///
    /// # Panics
    /// If `compressed` is true: the compressed dialect is retired.
    #[doc(hidden)]
    pub fn to_bytes_v2(&self, compressed: bool) -> Vec<u8> {
        assert!(!compressed, "the compressed DPSF dialect is retired");
        self.to_bytes()
    }

    /// Parses a snapshot written by [`Self::to_bytes`], copying it into
    /// one new buffer.
    ///
    /// Decoding is defensive: every read is length-checked, declared
    /// sizes are validated against the actual input length *before* any
    /// allocation, the checksums and zero padding must hold, and the
    /// arrays must pass the three-rule tree check (monotone offsets
    /// spanning the edges, children after their parent, sorted labels)
    /// and carry only finite counts. Truncated, version-mismatched or
    /// corrupted inputs return `Err`, never panic, and accepted encodings
    /// are canonical.
    ///
    /// # Errors
    /// A [`DecodeError`] describing the first defect found.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        Self::from_bytes_shared(Arc::from(bytes))
    }

    /// Like [`Self::from_bytes`], but takes shared ownership of the
    /// input and copies nothing: the synopsis answers from `buf` itself
    /// and keeps it alive.
    ///
    /// # Errors
    /// A [`DecodeError`] describing the first defect found.
    pub fn from_bytes_shared(buf: Arc<[u8]>) -> Result<Self, DecodeError> {
        codec_v3::decode(buf).map(Self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::PrivateCountStructure;
    use std::collections::BTreeMap;

    fn synopsis_of(entries: &BTreeMap<Vec<u8>, f64>) -> FrozenSynopsis {
        let entries = entries.iter().map(|(p, &v)| (p.clone(), v)).collect();
        let mode = CountMode::Substring;
        PrivateCountStructure::from_entries(entries, mode, PrivacyParams::pure(1.0), 1.5, 2.5, 6, 5)
            .expect("valid entries")
            .freeze()
    }

    /// The toy release: every node has its own entry.
    fn toy_entries() -> BTreeMap<Vec<u8>, f64> {
        [(&b""[..], 20.0), (b"a", 8.25), (b"ab", 4.125), (b"ac", 3.5), (b"b", 6.0)]
            .into_iter()
            .map(|(p, v)| (p.to_vec(), v))
            .collect()
    }

    fn toy_synopsis() -> FrozenSynopsis {
        synopsis_of(&toy_entries())
    }

    /// A root with children `labels` (value = label + 0.5); the first
    /// child gets children `next` (value = label + 0.25), so the root's
    /// label run is directly followed by bytes the root must not match.
    fn star(labels: &[u8], next: &[u8]) -> BTreeMap<Vec<u8>, f64> {
        let mut entries = BTreeMap::from([(Vec::new(), 100.0)]);
        entries.extend(labels.iter().map(|&b| (vec![b], f64::from(b) + 0.5)));
        entries.extend(next.iter().map(|&b| (vec![labels[0], b], f64::from(b) + 0.25)));
        entries
    }

    /// Every one-byte probe of the root and of its first child agrees
    /// across the SWAR walk, the binary-search walk and the entry map.
    fn assert_all_probes_agree(labels: &[u8], next: &[u8]) {
        let entries = star(labels, next);
        let f = synopsis_of(&entries);
        for probe in 0..=255u8 {
            for pat in [vec![probe], vec![labels[0], probe]] {
                let want = entries.get(&pat).copied().unwrap_or(0.0).to_bits();
                assert_eq!(f.query(&pat).to_bits(), want, "labels {labels:?}, pattern {pat:?}");
                assert_eq!(f.query_naive(&pat).to_bits(), want, "labels {labels:?} {pat:?}");
                assert_eq!(
                    f.contains(&pat),
                    entries.contains_key(&pat),
                    "labels {labels:?} {pat:?}"
                );
            }
        }
    }

    #[test]
    fn swar_mask_finds_lowest_matching_lane() {
        let word = u64::from_le_bytes([3, 7, 7, 9, 0x80, 0xFF, 0, 1]);
        for (lane, byte) in [(0u32, 3u8), (1, 7), (3, 9), (4, 0x80), (5, 0xFF), (6, 0)] {
            let mask = swar_eq_mask(word, byte);
            assert_ne!(mask, 0, "byte {byte:#04x} must match");
            assert_eq!(mask.trailing_zeros() >> 3, lane, "byte {byte:#04x}");
        }
        assert_eq!(swar_eq_mask(word, 5), 0);
        assert_eq!(swar_eq_mask(word, 2), 0);
    }

    #[test]
    fn every_degree_agrees_with_binary_search() {
        // Degrees crossing every boundary: one partial label word, exactly
        // one word, several words, up to a full-fanout node's 32 words.
        let next = [0x00, 0x01, 0x7F, 0x80, 0xFE, 0xFF];
        for degree in [1usize, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 200, 256] {
            let labels: Vec<u8> = (0..degree).map(|i| (i * 256 / degree) as u8).collect();
            assert_all_probes_agree(&labels, &next);
        }
    }

    #[test]
    fn wide_node_below_a_narrow_root_agrees() {
        // Node 1 has degree 40 (five label words) and sits below a
        // degree-2 root, so its run starts mid-word.
        let next: Vec<u8> = (0..40u8).map(|i| i * 6).collect();
        assert_all_probes_agree(b"ab", &next);
    }

    #[test]
    fn swar_borrow_corners_agree() {
        // Labels at the zero-detect's borrow and sign corners, clustered
        // runs, and a root run followed by the child's labels.
        let cases: &[(&[u8], &[u8])] = &[
            (&[0x00], &[0x00, 0xFF]),
            (&[0xFF], &[0x00]),
            (&[0x00, 0x01, 0x7F, 0x80, 0x81, 0xFE, 0xFF], &[0x02, 0x7E]),
            (&[0x7F, 0x80], &[0x00, 0x01, 0x7F, 0x80]),
            (&[0x40, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48], &[0x49, 0x4A]),
            (&[0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0A], &[0x00, 0x0B]),
        ];
        for (labels, next) in cases {
            assert_all_probes_agree(labels, next);
        }
    }

    #[test]
    fn leaf_nodes_miss_every_probe() {
        let f = synopsis_of(&star(b"a", b""));
        for probe in 0..=255u8 {
            assert_eq!(f.query(&[b'a', probe]), 0.0, "leaf must have no children");
            assert!(!f.contains(&[b'a', probe]));
        }
        assert_eq!(f.query(b"a"), f64::from(b'a') + 0.5);
    }

    #[test]
    fn layout_preserves_queries_and_metadata() {
        let entries = toy_entries();
        let f = toy_synopsis();
        for pat in [&b""[..], b"a", b"ab", b"ac", b"b", b"ba", b"abc", b"zz"] {
            let want = entries.get(pat).copied().unwrap_or(0.0);
            assert_eq!(f.query(pat).to_bits(), want.to_bits(), "pattern {pat:?}");
            assert_eq!(f.contains(pat), entries.contains_key(pat), "pattern {pat:?}");
        }
        assert_eq!(f.node_count(), entries.len());
        assert_eq!(f.mode(), CountMode::Substring);
        assert_eq!(f.privacy(), PrivacyParams::pure(1.0));
        assert_eq!((f.alpha_counts(), f.alpha_absent(), f.alpha()), (1.5, 2.5, 2.5));
        assert_eq!(f.db_params(), (6, 5));
    }

    #[test]
    fn layout_numbers_nodes_breadth_first() {
        // Pre-order ε, a, ab, ac, b is breadth-first ε, a, b, ab, ac.
        let f = toy_synopsis();
        let s = f.sections();
        let spans: Vec<(usize, usize)> = (0..5).map(|v| s.span(v)).collect();
        assert_eq!(spans, [(0, 2), (2, 4), (4, 4), (4, 4), (4, 4)]);
        assert_eq!(&s.labels[..4], b"abbc");
        let counts: Vec<f64> = (0..5).map(|v| s.answer(Some(v))).collect();
        assert_eq!(counts, [20.0, 8.25, 6.0, 4.125, 3.5]);
        let mut visited = Vec::new();
        f.for_each_preorder(|p, v| visited.push((p.to_vec(), v)));
        assert!(visited.into_iter().eq(toy_entries()), "pre-order walk is lexicographic");
    }

    #[test]
    fn query_batch_agrees_with_single_queries() {
        let f = toy_synopsis();
        let patterns: Vec<&[u8]> = vec![b"", b"a", b"ab", b"ac", b"b", b"zz", b"abc"];
        let single: Vec<f64> = patterns.iter().map(|p| f.query(p)).collect();
        assert_eq!(f.query_batch(&patterns), single);
        assert!(f.query_batch(&[]).is_empty());
    }

    #[test]
    fn binary_roundtrip_is_exact() {
        let f = toy_synopsis();
        let bytes = f.to_bytes();
        assert_eq!(bytes, f.to_bytes_v2(false), "to_bytes_v2(false) is to_bytes");
        assert_eq!(bytes[..], f.shared_bytes()[..], "to_bytes copies the served buffer");
        assert_eq!(bytes.len(), f.serialized_len());
        let back = FrozenSynopsis::from_bytes(&bytes).expect("roundtrip parses");
        assert_eq!(back, f);
        assert_eq!(back.to_bytes(), bytes, "canonical");
    }

    #[test]
    fn digest_is_the_header_checksum_and_tells_releases_apart() {
        let f = toy_synopsis();
        let bytes = f.to_bytes();
        let stored = u64::from_le_bytes(bytes[160..168].try_into().unwrap());
        assert_eq!(f.digest(), stored);
        assert_eq!(crate::codec::snapshot_digest(&bytes), Some(stored));
        assert_eq!(crate::codec::snapshot_digest(&bytes[..167]), None, "shorter than a header");
        let mut other = toy_entries();
        other.insert(b"a".to_vec(), 8.5);
        assert_ne!(synopsis_of(&other).digest(), f.digest(), "one count apart");
    }

    #[test]
    fn shared_decode_answers_from_the_callers_buffer() {
        let f = toy_synopsis();
        let shared: Arc<[u8]> = f.to_bytes().into();
        let adopted = FrozenSynopsis::from_bytes_shared(Arc::clone(&shared)).expect("parses");
        assert!(Arc::ptr_eq(adopted.shared_bytes(), &shared), "a shared decode must not copy");
        assert_eq!(Arc::strong_count(&shared), 2);
        assert_eq!(adopted, f);
        for pat in [&b""[..], b"a", b"ab", b"ac", b"b", b"ba", b"abc", b"zz"] {
            assert_eq!(adopted.query(pat).to_bits(), f.query(pat).to_bits(), "pattern {pat:?}");
            assert_eq!(adopted.query_naive(pat).to_bits(), f.query_naive(pat).to_bits());
        }
        drop(adopted);
        assert_eq!(Arc::strong_count(&shared), 1, "the synopsis released the buffer");
    }

    #[test]
    fn root_only_synopsis_works() {
        let privacy = PrivacyParams::approx(0.5, 1e-8);
        let entries = vec![(Vec::new(), 7.5)];
        let f = PrivateCountStructure::from_entries(
            entries,
            CountMode::Document,
            privacy,
            1.0,
            2.0,
            3,
            4,
        )
        .expect("valid entries")
        .freeze();
        assert_eq!(f.node_count(), 1);
        assert_eq!(f.query(b""), 7.5);
        assert_eq!(f.query(b"a"), 0.0);
        assert_eq!(f.query_naive(b"a"), 0.0);
        let bytes = f.to_bytes();
        let back = FrozenSynopsis::from_bytes(&bytes).expect("snapshot parses");
        assert_eq!(back, f);
        assert_eq!(back.to_bytes(), bytes);
        let shared: Arc<[u8]> = f.to_bytes().into();
        let adopted = FrozenSynopsis::from_bytes_shared(Arc::clone(&shared)).expect("parses");
        assert!(Arc::ptr_eq(adopted.shared_bytes(), &shared));
        assert_eq!(adopted.query(b""), 7.5);
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = toy_synopsis().to_bytes();
        for len in 0..bytes.len() {
            assert!(
                FrozenSynopsis::from_bytes(&bytes[..len]).is_err(),
                "prefix of length {len} must not parse"
            );
        }
        // Trailing garbage is rejected too.
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(FrozenSynopsis::from_bytes(&extended).is_err());
    }

    #[test]
    fn version_and_magic_mismatches_are_rejected() {
        let bytes = toy_synopsis().to_bytes();
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(FrozenSynopsis::from_bytes(&wrong_magic)
            .unwrap_err()
            .to_string()
            .contains("magic"));
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 99;
        assert!(FrozenSynopsis::from_bytes(&wrong_version)
            .unwrap_err()
            .to_string()
            .contains("version"));
    }

    #[test]
    fn single_bit_flips_are_rejected() {
        let bytes = toy_synopsis().to_bytes();
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[pos] ^= 1 << bit;
                assert!(
                    FrozenSynopsis::from_bytes(&corrupt).is_err(),
                    "bit {bit} of byte {pos} flipped silently"
                );
            }
        }
    }
}
