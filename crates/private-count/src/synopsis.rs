//! Frozen serving-layer synopsis: the published trie as one immutable,
//! checksummed byte buffer that answers queries in place.
//!
//! [`PrivateCountStructure`] is the *construction-time* artifact: an
//! arena trie whose node-by-node pointer chasing is convenient while the
//! pipeline inserts, prunes and re-counts, but wasteful once the synopsis
//! is released and only ever *read*. Because the released structure is
//! pure post-processing, it can be re-shaped freely with no privacy cost —
//! so [`FrozenSynopsis::freeze`] writes it straight into the canonical
//! uncompressed `DPSF` v3 snapshot (`codec_v3`): breadth-first node
//! numbering, one noisy count per node, CSR edge offsets and per-node
//! sorted edge labels. Edges are stored in node order, so the child of
//! edge `e` is node `e + 1` and no child ids are stored at all.
//!
//! That one buffer is the synopsis. Queries walk its sections in place;
//! [`FrozenSynopsis::to_bytes`] copies it out; and
//! [`FrozenSynopsis::from_bytes_shared`] adopts a received `Arc<[u8]>`
//! after validation with zero copies. A walk step probes the node's label
//! run with a SWAR compare — one unaligned 8-byte load per eight edges —
//! and nodes of degree above 32 answer
//! from a 256-byte lane table (the wide tier, derived while validating),
//! so no step scans more than four label words.

use std::sync::Arc;

use dpsc_dpcore::budget::PrivacyParams;
use dpsc_strkit::trie::Trie;

use crate::codec::{le_f64, le_u32, DecodeError};
use crate::codec_v3::{self, Meta};
use crate::structure::{CountMode, PrivateCountStructure};

/// Degree above which a node's child lookup goes through the wide tier
/// instead of the SWAR scan, which reads at most four label words at
/// this degree.
const WIDE_DEGREE: usize = 32;

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

/// Child lookup for the nodes of degree above [`WIDE_DEGREE`]: per wide
/// node, the lane of every byte in its label run, 0 for absent bytes (the
/// caller confirms a hit against the label itself, so no sentinel is
/// needed and a degree-256 node still fits a `u8` lane). Wide nodes are
/// few and, in breadth-first order, near the root — so the id → table
/// index map only runs up to the last wide node. Derived data: rebuilt
/// by the validation sweep, never serialized.
#[derive(Debug, Clone, Default)]
struct WideTier {
    /// Per node id up to the last wide node: its index in `lanes`, or
    /// `u32::MAX` for a narrow node.
    slot: Vec<u32>,
    lanes: Vec<[u8; 256]>,
}

impl WideTier {
    fn push(&mut self, v: usize, labels: &[u8]) {
        let mut lanes = [0u8; 256];
        for (lane, &b) in labels.iter().enumerate() {
            lanes[b as usize] = lane as u8;
        }
        self.slot.resize(v, u32::MAX);
        self.slot.push(self.lanes.len() as u32);
        self.lanes.push(lanes);
    }

    /// Lane of `byte` in wide node `v`'s label run, or 0 if absent.
    #[inline]
    fn lane(&self, v: usize, byte: u8) -> usize {
        self.lanes[self.slot[v] as usize][byte as usize] as usize
    }

    fn memory_bytes(&self) -> usize {
        self.slot.len() * std::mem::size_of::<u32>() + self.lanes.len() * 256
    }
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
    wide: &'a WideTier,
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
        if hi - lo > WIDE_DEGREE {
            let e = lo + self.wide.lane(v, byte);
            return (self.labels[e] == byte).then_some(e + 1);
        }
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

    /// Walks four patterns in lockstep, one byte per pattern per
    /// iteration: the four child steps are independent, so the CPU
    /// overlaps their load latencies instead of serializing one walk at
    /// a time. A finished pattern (exhausted or missed) keeps its state.
    #[inline]
    fn locate4(&self, pats: [&[u8]; 4]) -> [Option<usize>; 4] {
        let mut cur = [Some(0usize); 4];
        let max_len = pats.iter().map(|p| p.len()).max().unwrap_or(0);
        for d in 0..max_len {
            for i in 0..4 {
                if let (Some(v), Some(&b)) = (cur[i], pats[i].get(d)) {
                    cur[i] = self.step(v, b);
                }
            }
        }
        cur
    }

    /// Noisy count of `node`, 0 for an absent pattern.
    #[inline]
    fn answer(&self, node: Option<usize>) -> f64 {
        node.map_or(0.0, |v| le_f64(self.counts, 8 * v))
    }
}

/// The structural sweep every snapshot passes before it answers a query:
/// one sequential pass checking three rules.
///
/// 1. `edge_start` starts at 0, never decreases, and ends at
///    `n_nodes − 1` (the edge count);
/// 2. every node `v` with edges has `edge_start[v] ≥ v`, so its children
///    (nodes `edge_start[v] + 1 …`) come after it;
/// 3. each node's labels are strictly increasing.
///
/// A tree follows: edge `e` leads to node `e + 1`, so every node `c ≥ 1`
/// has exactly one parent (the node whose edge range holds `c − 1`), and
/// by rule 2 that parent is numbered below `c`. Following parents
/// strictly decreases the id until it reaches the root, so cycles and
/// detached components cannot exist, and rule 3 makes each child step
/// unique. The same pass rejects non-finite counts and builds the wide
/// tier. Offsets are range-checked before anything indexes with them.
fn validate(buf: &[u8], n_nodes: usize, offsets: [usize; 3]) -> Result<WideTier, DecodeError> {
    let [counts_off, edge_start_off, label_off] = offsets;
    let n_edges = n_nodes - 1;
    let labels = &buf[label_off..label_off + n_edges];
    let counts = buf[counts_off..counts_off + 8 * n_nodes].chunks_exact(8);
    let ends = buf[edge_start_off + 4..edge_start_off + 4 * (n_nodes + 1)].chunks_exact(4);
    let span_error = || DecodeError::Structural("CSR offsets do not span the edge array".into());
    if le_u32(buf, edge_start_off) != 0 {
        return Err(span_error());
    }
    let mut wide = WideTier::default();
    let mut lo = 0usize;
    for (v, (end, count)) in ends.zip(counts).enumerate() {
        let hi = le_u32(end, 0) as usize;
        if hi < lo {
            return Err(DecodeError::Structural(format!("CSR offsets decrease at node {v}")));
        }
        if hi > n_edges {
            return Err(DecodeError::Structural(format!(
                "CSR offsets exceed the edge array at node {v}"
            )));
        }
        if hi > lo {
            if lo < v {
                return Err(DecodeError::Structural(format!(
                    "edge_start[{v}] = {lo} < {v}: node {v} has a backward edge to node {}",
                    lo + 1
                )));
            }
            let run = &labels[lo..hi];
            if run.windows(2).any(|w| w[0] >= w[1]) {
                return Err(DecodeError::Structural(format!(
                    "edge labels of node {v} are not strictly sorted"
                )));
            }
            if run.len() > WIDE_DEGREE {
                wide.push(v, run);
            }
        }
        let c = le_f64(count, 0);
        if !c.is_finite() {
            return Err(DecodeError::BadField {
                field: "counts",
                detail: format!("non-finite count {c} at node {v}"),
            });
        }
        lo = hi;
    }
    if lo != n_edges {
        return Err(span_error());
    }
    Ok(wide)
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
pub struct FrozenSynopsis {
    /// The canonical uncompressed snapshot — owned alone or shared with
    /// whoever handed it to [`Self::from_bytes_shared`].
    buf: Arc<[u8]>,
    meta: Meta,
    n_nodes: usize,
    /// Section offsets `[counts, edge_start, edge_label]` in `buf`.
    offsets: [usize; 3],
    wide: WideTier,
}

/// Equality is byte equality of the snapshots, which is exact: the
/// encoding is canonical, so equal synopses have one byte representation.
impl PartialEq for FrozenSynopsis {
    fn eq(&self, other: &Self) -> bool {
        *self.buf == *other.buf
    }
}

impl FrozenSynopsis {
    /// Flattens a built structure into its snapshot. One breadth-first
    /// pass of `O(nodes)` work; the input is unchanged (post-processing).
    pub fn freeze(structure: &PrivateCountStructure) -> Self {
        let trie = structure.trie();
        let n = trie.len();
        // The queue receives children in edge order, so the child of the
        // `e`-th emitted edge is queue entry `e + 1`.
        let mut order: Vec<u32> = Vec::with_capacity(n);
        order.push(Trie::<f64>::ROOT);
        let mut counts = Vec::with_capacity(8 * n);
        let mut edge_start = Vec::with_capacity(4 * (n + 1));
        let mut edge_label = Vec::with_capacity(n - 1);
        edge_start.extend_from_slice(&0u32.to_le_bytes());
        let mut head = 0usize;
        while head < order.len() {
            let u = order[head];
            head += 1;
            counts.extend_from_slice(&trie.value(u).to_bits().to_le_bytes());
            for &(sym, child) in trie.edges(u) {
                edge_label.push(sym);
                order.push(child);
            }
            edge_start.extend_from_slice(&(edge_label.len() as u32).to_le_bytes());
        }
        debug_assert_eq!(order.len(), n);
        let (n_docs, max_len) = structure.db_params();
        let meta = Meta {
            mode: structure.mode(),
            privacy: structure.privacy(),
            alpha_counts: structure.alpha_counts(),
            alpha_absent: structure.alpha_absent(),
            n_docs,
            max_len,
        };
        let buf = codec_v3::encode(&meta, &counts, &edge_start, &edge_label, false);
        Self::adopt(codec_v3::Canonical { buf: buf.into(), meta, n_nodes: n })
            .expect("freeze writes a valid snapshot")
    }

    /// Validates a canonical snapshot's structure and wraps it.
    fn adopt(canonical: codec_v3::Canonical) -> Result<Self, DecodeError> {
        let codec_v3::Canonical { buf, meta, n_nodes } = canonical;
        let offsets = codec_v3::uncompressed_offsets(n_nodes);
        let wide = validate(&buf, n_nodes, offsets)?;
        Ok(Self { buf, meta, n_nodes, offsets, wide })
    }

    /// The query view of the buffer.
    #[inline]
    fn sections(&self) -> Sections<'_> {
        let [counts, edge_start, edge_label] = self.offsets;
        Sections {
            counts: &self.buf[counts..edge_start],
            edge_start: &self.buf[edge_start..edge_label],
            labels: &self.buf[edge_label..],
            wide: &self.wide,
        }
    }

    /// Noisy `count_Δ(P, D)`; absent patterns return 0, exactly as
    /// [`PrivateCountStructure::query`]. Allocation-free; one SWAR probe
    /// per eight edges of each visited node, or one lane-table load for
    /// a wide node.
    #[inline]
    pub fn query(&self, pattern: &[u8]) -> f64 {
        let s = self.sections();
        s.answer(s.locate(pattern))
    }

    /// [`Self::query`] through the reference binary-search walk
    /// (`O(|P| log σ)`). Exists so tests, benchmarks and the serving load
    /// generator can assert, at runtime, that the SWAR walk and the wide
    /// tier are behaviorally invisible (bit-identical answers).
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

    /// The lockstep batch kernel: answers `patterns` into `out`
    /// (equal lengths), four patterns per iteration.
    fn query_batch_into(&self, patterns: &[&[u8]], out: &mut [f64]) {
        debug_assert_eq!(patterns.len(), out.len());
        let s = self.sections();
        let mut quads = patterns.chunks_exact(4);
        let mut outs = out.chunks_exact_mut(4);
        for (quad, o) in quads.by_ref().zip(outs.by_ref()) {
            let located = s.locate4([quad[0], quad[1], quad[2], quad[3]]);
            for (slot, node) in o.iter_mut().zip(located) {
                *slot = s.answer(node);
            }
        }
        for (p, slot) in quads.remainder().iter().zip(outs.into_remainder()) {
            *slot = s.answer(s.locate(p));
        }
    }

    /// Answers a batch of queries in order. One output allocation; the
    /// per-pattern lookups are allocation-free and advance four patterns
    /// per iteration (`locate4`) to hide load latency.
    pub fn query_batch(&self, patterns: &[&[u8]]) -> Vec<f64> {
        let mut out = vec![0.0f64; patterns.len()];
        self.query_batch_into(patterns, &mut out);
        out
    }

    /// Answers a batch of queries across `threads` scoped worker threads
    /// (clamped to the batch size; `0` means one thread). Same output as
    /// [`Self::query_batch`] — the synopsis is immutable, so workers share
    /// it by reference. A single-threaded call (or a batch that fits one
    /// chunk) takes a direct sequential path: no scope, no spawn.
    pub fn query_batch_parallel(&self, patterns: &[&[u8]], threads: usize) -> Vec<f64> {
        if patterns.is_empty() {
            return Vec::new();
        }
        let threads = threads.clamp(1, patterns.len());
        let chunk = patterns.len().div_ceil(threads);
        if threads == 1 || chunk >= patterns.len() {
            return self.query_batch(patterns);
        }
        let mut out = vec![0.0f64; patterns.len()];
        std::thread::scope(|scope| {
            for (pats, outs) in patterns.chunks(chunk).zip(out.chunks_mut(chunk)) {
                scope.spawn(move || self.query_batch_into(pats, outs));
            }
        });
        out
    }

    /// The count mode (`Δ`).
    #[inline]
    pub fn mode(&self) -> CountMode {
        self.meta.mode
    }

    /// The privacy guarantee of the construction that produced this synopsis.
    #[inline]
    pub fn privacy(&self) -> PrivacyParams {
        self.meta.privacy
    }

    /// Error bound on stored noisy counts (high probability).
    #[inline]
    pub fn alpha_counts(&self) -> f64 {
        self.meta.alpha_counts
    }

    /// True-count bound for strings not present in the synopsis.
    #[inline]
    pub fn alpha_absent(&self) -> f64 {
        self.meta.alpha_absent
    }

    /// Overall additive error `α` (present or absent patterns).
    pub fn alpha(&self) -> f64 {
        self.meta.alpha_counts.max(self.meta.alpha_absent)
    }

    /// Number of nodes, root included.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n_nodes
    }

    /// Database size parameters `(n, ℓ)` the synopsis was built from.
    pub fn db_params(&self) -> (usize, usize) {
        (self.meta.n_docs, self.meta.max_len)
    }

    /// The snapshot buffer the synopsis answers from: the canonical
    /// uncompressed encoding, [`Self::to_bytes`] without the copy. After
    /// [`Self::from_bytes_shared`] of an uncompressed snapshot it is the
    /// caller's buffer itself (`Arc::ptr_eq` holds).
    #[inline]
    pub fn shared_bytes(&self) -> &Arc<[u8]> {
        &self.buf
    }

    /// Size of [`Self::to_bytes`] in bytes.
    pub fn serialized_len(&self) -> usize {
        self.buf.len()
    }

    /// Bytes of derived acceleration data held beside the snapshot: the
    /// wide tier's lane tables (256 bytes per node of degree above 32,
    /// plus 4 bytes per node id up to the last such node),
    /// zero when no node is that wide. Never shipped: rebuilt by the
    /// validation sweep on every decode.
    pub fn accel_memory_bytes(&self) -> usize {
        self.wide.memory_bytes()
    }

    /// Serializes to the uncompressed `DPSF` v3 snapshot (see `codec_v3`
    /// for the layout): a copy of the buffer the synopsis answers from.
    /// Canonical: `from_bytes(b)?.to_bytes() == b`.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.buf.to_vec()
    }

    /// Serializes to an explicit dialect of the current format.
    /// `to_bytes_v2(false)` is [`Self::to_bytes`]; with `compressed`,
    /// `edge_start` is written as degree varints (smaller; decoding
    /// re-encodes the uncompressed form). Both are canonical:
    /// `from_bytes(b)?.to_bytes_v2(compressed) == b`. (The name predates
    /// format v3 and is kept for existing callers.)
    pub fn to_bytes_v2(&self, compressed: bool) -> Vec<u8> {
        if !compressed {
            return self.to_bytes();
        }
        let [counts, edge_start, edge_label] = self.offsets;
        let n = self.n_nodes;
        codec_v3::encode(
            &self.meta,
            &self.buf[counts..counts + 8 * n],
            &self.buf[edge_start..edge_start + 4 * (n + 1)],
            &self.buf[edge_label..edge_label + n - 1],
            true,
        )
    }

    /// Parses a snapshot written by [`Self::to_bytes`] or
    /// [`Self::to_bytes_v2`] (either dialect), copying it into one new
    /// buffer (a compressed input is re-encoded uncompressed).
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
        Self::adopt(codec_v3::decode(bytes, None)?)
    }

    /// Like [`Self::from_bytes`], but takes shared ownership of the
    /// input. An uncompressed snapshot is adopted with zero copies: the
    /// synopsis answers from `buf` itself and keeps it alive. A
    /// compressed input is re-encoded into a new buffer. Validation is
    /// identical to [`Self::from_bytes`] in every case.
    pub fn from_bytes_shared(buf: Arc<[u8]>) -> Result<Self, DecodeError> {
        Self::adopt(codec_v3::decode(&buf, Some(&buf))?)
    }
}

impl PrivateCountStructure {
    /// Freezes this structure into the flat serving layout
    /// ([`FrozenSynopsis`]). Post-processing: no privacy cost.
    pub fn freeze(&self) -> FrozenSynopsis {
        FrozenSynopsis::freeze(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn structure_of(trie: Trie<f64>, mode: CountMode) -> PrivateCountStructure {
        PrivateCountStructure::new(trie, mode, PrivacyParams::pure(1.0), 1.5, 2.5, 6, 5)
    }

    fn toy_structure() -> PrivateCountStructure {
        let mut trie: Trie<f64> = Trie::new(20.0);
        let a = trie.insert_path(b"a", |_| 0.0);
        let ab = trie.insert_path(b"ab", |_| 0.0);
        let ac = trie.insert_path(b"ac", |_| 0.0);
        let b = trie.insert_path(b"b", |_| 0.0);
        *trie.value_mut(a) = 8.25;
        *trie.value_mut(ab) = 4.125;
        *trie.value_mut(ac) = 3.5;
        *trie.value_mut(b) = 6.0;
        structure_of(trie, CountMode::Substring)
    }

    /// A root with children `labels` (value = label + 0.5); the first
    /// child gets children `next` (value = label + 0.25), so the root's
    /// label run is directly followed by bytes the root must not match.
    fn star(labels: &[u8], next: &[u8]) -> PrivateCountStructure {
        let mut trie: Trie<f64> = Trie::new(100.0);
        for &b in labels {
            let id = trie.insert_path(&[b], |_| 0.0);
            *trie.value_mut(id) = f64::from(b) + 0.5;
        }
        for &b in next {
            let id = trie.insert_path(&[labels[0], b], |_| 0.0);
            *trie.value_mut(id) = f64::from(b) + 0.25;
        }
        structure_of(trie, CountMode::Substring)
    }

    /// Every one-byte probe of the root and of its first child agrees
    /// across the SWAR walk, the binary-search walk and the arena trie.
    fn assert_all_probes_agree(labels: &[u8], next: &[u8]) {
        let s = star(labels, next);
        let f = s.freeze();
        for probe in 0..=255u8 {
            for pat in [vec![probe], vec![labels[0], probe]] {
                let want = s.query(&pat).to_bits();
                assert_eq!(f.query(&pat).to_bits(), want, "labels {labels:?}, pattern {pat:?}");
                assert_eq!(f.query_naive(&pat).to_bits(), want, "labels {labels:?} {pat:?}");
                assert_eq!(f.contains(&pat), s.contains(&pat), "labels {labels:?} {pat:?}");
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
        // one word, several words, the widest scanned node, the wide tier.
        let next = [0x00, 0x01, 0x7F, 0x80, 0xFE, 0xFF];
        for degree in [1usize, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 200, 256] {
            let labels: Vec<u8> = (0..degree).map(|i| (i * 256 / degree) as u8).collect();
            assert_all_probes_agree(&labels, &next);
            let f = star(&labels, &next).freeze();
            let wide = usize::from(degree > WIDE_DEGREE);
            assert_eq!(f.accel_memory_bytes(), wide * 260, "degree {degree}");
        }
    }

    #[test]
    fn wide_node_below_a_narrow_root_agrees() {
        // Node 1 is the only wide node, so the tier's id map has a narrow
        // entry for the root before it.
        let next: Vec<u8> = (0..40u8).map(|i| i * 6).collect();
        assert_all_probes_agree(b"ab", &next);
        let f = star(b"ab", &next).freeze();
        assert_eq!(f.accel_memory_bytes(), 2 * 4 + 256);
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
        let f = star(b"a", b"").freeze();
        for probe in 0..=255u8 {
            assert_eq!(f.query(&[b'a', probe]), 0.0, "leaf must have no children");
            assert!(!f.contains(&[b'a', probe]));
        }
        assert_eq!(f.query(b"a"), f64::from(b'a') + 0.5);
    }

    #[test]
    fn freeze_preserves_queries_and_metadata() {
        let s = toy_structure();
        let f = s.freeze();
        for pat in [&b""[..], b"a", b"ab", b"ac", b"b", b"ba", b"abc", b"zz"] {
            assert_eq!(f.query(pat).to_bits(), s.query(pat).to_bits(), "pattern {pat:?}");
            assert_eq!(f.contains(pat), s.contains(pat), "pattern {pat:?}");
        }
        assert_eq!(f.node_count(), s.node_count());
        assert_eq!(f.mode(), s.mode());
        assert_eq!(f.privacy(), s.privacy());
        assert_eq!(f.alpha_counts(), s.alpha_counts());
        assert_eq!(f.alpha_absent(), s.alpha_absent());
        assert_eq!(f.alpha(), s.alpha());
        assert_eq!(f.db_params(), s.db_params());
        assert_eq!(f.accel_memory_bytes(), 0);
    }

    #[test]
    fn batch_paths_agree_with_single_queries() {
        let s = toy_structure();
        let f = s.freeze();
        let patterns: Vec<&[u8]> = vec![b"", b"a", b"ab", b"ac", b"b", b"zz", b"abc"];
        let single: Vec<f64> = patterns.iter().map(|p| f.query(p)).collect();
        assert_eq!(f.query_batch(&patterns), single);
        for threads in [0usize, 1, 2, 7, 64] {
            assert_eq!(f.query_batch_parallel(&patterns, threads), single, "threads={threads}");
        }
        assert!(f.query_batch_parallel(&[], 4).is_empty());
    }

    #[test]
    fn binary_roundtrip_is_exact() {
        let s = toy_structure();
        let f = s.freeze();
        let bytes = f.to_bytes();
        assert_eq!(bytes, f.to_bytes_v2(false), "to_bytes is the uncompressed dialect");
        assert_eq!(bytes[..], f.shared_bytes()[..], "to_bytes copies the served buffer");
        assert_eq!(bytes.len(), f.serialized_len());
        let back = FrozenSynopsis::from_bytes(&bytes).expect("roundtrip parses");
        assert_eq!(back, f);
        assert_eq!(back.to_bytes(), bytes, "canonical");
    }

    #[test]
    fn both_dialects_roundtrip_canonically() {
        let f = toy_structure().freeze();
        for compressed in [false, true] {
            let bytes = f.to_bytes_v2(compressed);
            let back = FrozenSynopsis::from_bytes(&bytes).expect("snapshot parses");
            assert_eq!(back, f, "compressed={compressed}");
            // Canonical: re-serializing in the same dialect reproduces
            // the input bytes.
            assert_eq!(back.to_bytes_v2(compressed), bytes, "compressed={compressed}");
        }
    }

    #[test]
    fn shared_decode_answers_from_the_callers_buffer() {
        let f = toy_structure().freeze();
        let shared: Arc<[u8]> = f.to_bytes().into();
        let adopted = FrozenSynopsis::from_bytes_shared(Arc::clone(&shared)).expect("parses");
        assert!(Arc::ptr_eq(adopted.shared_bytes(), &shared), "uncompressed must not copy");
        assert_eq!(Arc::strong_count(&shared), 2);
        assert_eq!(adopted, f);
        for pat in [&b""[..], b"a", b"ab", b"ac", b"b", b"ba", b"abc", b"zz"] {
            assert_eq!(adopted.query(pat).to_bits(), f.query(pat).to_bits(), "pattern {pat:?}");
            assert_eq!(adopted.query_naive(pat).to_bits(), f.query_naive(pat).to_bits());
        }
        drop(adopted);
        assert_eq!(Arc::strong_count(&shared), 1, "the synopsis released the buffer");
        // A compressed input is re-encoded into a buffer of its own.
        let compressed: Arc<[u8]> = f.to_bytes_v2(true).into();
        let expanded = FrozenSynopsis::from_bytes_shared(Arc::clone(&compressed)).unwrap();
        assert!(!Arc::ptr_eq(expanded.shared_bytes(), &compressed));
        assert_eq!(expanded.shared_bytes()[..], shared[..]);
    }

    #[test]
    fn compressed_dialect_is_smaller() {
        // The 168-byte header only amortizes on realistic sizes, so
        // build a few hundred nodes (all strings of length ≤ 3 over a
        // 6-letter alphabet) rather than the 5-node toy.
        let mut trie: Trie<f64> = Trie::new(100.0);
        let sigma = b"abcdef";
        for (i, &a) in sigma.iter().enumerate() {
            for (j, &b) in sigma.iter().enumerate() {
                for (k, &c) in sigma.iter().enumerate() {
                    let id = trie.insert_path(&[a, b, c], |_| 0.0);
                    *trie.value_mut(id) = (i * 36 + j * 6 + k) as f64;
                }
            }
        }
        let f = structure_of(trie, CountMode::Substring).freeze();
        let plain = f.to_bytes().len();
        let packed = f.to_bytes_v2(true).len();
        assert!(packed < plain, "compressed ({packed}) must undercut uncompressed ({plain})");
        // And the compressed dialect still roundtrips bit-exactly.
        let back = FrozenSynopsis::from_bytes(&f.to_bytes_v2(true)).expect("parses");
        assert_eq!(back, f);
    }

    #[test]
    fn root_only_synopsis_works() {
        let trie: Trie<f64> = Trie::new(7.5);
        let s = PrivateCountStructure::new(
            trie,
            CountMode::Document,
            PrivacyParams::approx(0.5, 1e-8),
            1.0,
            2.0,
            3,
            4,
        );
        let f = s.freeze();
        assert_eq!(f.node_count(), 1);
        assert_eq!(f.query(b""), 7.5);
        assert_eq!(f.query(b"a"), 0.0);
        assert_eq!(f.query_naive(b"a"), 0.0);
        for compressed in [false, true] {
            let bytes = f.to_bytes_v2(compressed);
            let back = FrozenSynopsis::from_bytes(&bytes).expect("snapshot parses");
            assert_eq!(back, f);
            assert_eq!(back.to_bytes_v2(compressed), bytes);
        }
        let shared: Arc<[u8]> = f.to_bytes().into();
        let adopted = FrozenSynopsis::from_bytes_shared(Arc::clone(&shared)).expect("parses");
        assert!(Arc::ptr_eq(adopted.shared_bytes(), &shared));
        assert_eq!(adopted.query(b""), 7.5);
    }

    #[test]
    fn every_truncation_is_rejected() {
        for compressed in [false, true] {
            let bytes = toy_structure().freeze().to_bytes_v2(compressed);
            for len in 0..bytes.len() {
                assert!(
                    FrozenSynopsis::from_bytes(&bytes[..len]).is_err(),
                    "prefix of length {len} must not parse (compressed={compressed})"
                );
            }
            // Trailing garbage is rejected too.
            let mut extended = bytes.clone();
            extended.push(0);
            assert!(FrozenSynopsis::from_bytes(&extended).is_err());
        }
    }

    #[test]
    fn version_and_magic_mismatches_are_rejected() {
        let bytes = toy_structure().freeze().to_bytes();
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
        for compressed in [false, true] {
            let bytes = toy_structure().freeze().to_bytes_v2(compressed);
            for pos in 0..bytes.len() {
                for bit in 0..8 {
                    let mut corrupt = bytes.clone();
                    corrupt[pos] ^= 1 << bit;
                    assert!(
                        FrozenSynopsis::from_bytes(&corrupt).is_err(),
                        "bit {bit} of byte {pos} flipped silently (compressed={compressed})"
                    );
                }
            }
        }
    }
}
