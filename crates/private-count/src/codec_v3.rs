//! `DPSF` v3: the snapshot codec, and the only format a
//! [`FrozenSynopsis`](crate::synopsis::FrozenSynopsis) writes and reads.
//! Its one encoding *is* the query structure: a synopsis holds exactly
//! these bytes and walks them in place. Three arrays sit in
//! 8-byte-aligned sections, each with its own checksum, so a corrupt byte
//! is reported by section:
//!
//! ```text
//! off   size  field
//!   0      4  magic "DPSF"
//!   4      2  version = 3 (u16 LE)
//!   6      2  flags (all 16 bits reserved = 0)
//!   8      4  mode tag (u32 LE)
//!  12      4  section count = 3 (u32 LE)
//!  16      8  clip level (u64 LE)
//!  24     32  ε, δ, α_counts, α_absent (f64 bit patterns, LE)
//!  56     32  n_docs, ℓ, n_nodes, n_edges (u64 LE)
//!  88     72  section table: 3 × { offset u64, len u64, fnv1a u64 }
//! 160      8  header checksum = fnv1a(bytes[0..160])
//! 168      …  sections, fixed order counts / edge_start / edge_label,
//!             each starting on an 8-byte boundary; zeroed padding
//!             between them, and after edge_label up to the first
//!             multiple of 8 at least 7 bytes past its end (padding is
//!             validated, so the encoding stays canonical)
//! ```
//!
//! **Implicit children.** Nodes are numbered breadth-first and edges are
//! stored in that same order, so the child of edge `e` is node `e + 1`
//! and no child ids are stored. `counts` holds one `f64` per node,
//! `edge_start` the `n_nodes + 1` CSR offsets (`u32`), and `edge_label`
//! one byte per edge, strictly increasing within each node.
//!
//! **In-place reads.** Every section offset is a multiple of 8 and the
//! sections are raw little-endian arrays, so the synopsis reads its
//! fields with `from_le_bytes` on fixed-size ranges (safe code; a plain
//! load on little-endian targets), which keeps the workspace's
//! `unsafe_code = "deny"` intact. The tail padding guarantees 8 readable
//! bytes from every label offset, so the query walk's 8-byte label loads
//! never need a bounds fallback.
//!
//! **One encoding.** Section offsets and lengths follow from the node
//! count, padding must be zero, and every header field has one accepted
//! spelling, so each synopsis has exactly one encoding:
//! `from_bytes(b)?.to_bytes() == b`.
//!
//! **One pass.** [`sweep`] hashes the three sections interleaved, one
//! node per iteration, and checks the tree rules in the same loop;
//! [`decode`] compares its sums with the section table and [`encode`]
//! writes them there.

use std::sync::Arc;

use dpsc_dpcore::budget::PrivacyParams;

use crate::codec::{fnv1a, fnv1a_extend, le_f64, le_u32, require_finite, Cursor, DecodeError};
use crate::structure::CountMode;

/// Magic bytes opening the binary format ("DP Synopsis, Frozen").
const MAGIC: [u8; 4] = *b"DPSF";
/// Version tag of the format.
const VERSION: u16 = 3;
/// The three sections, in their fixed on-wire order.
const SECTION_NAMES: [&str; 3] = ["counts", "edge_start", "edge_label"];
/// Bytes of fixed header fields before the section table.
const TABLE_OFF: usize = 88;
/// One section-table entry: offset, length, checksum.
const TABLE_ENTRY_LEN: usize = 24;
/// Offset of the header checksum (it covers everything before itself).
const HEADER_SUM_OFF: usize = TABLE_OFF + 3 * TABLE_ENTRY_LEN;
/// Total header size; the first section starts here (8-byte aligned).
const HEADER_LEN: usize = HEADER_SUM_OFF + 8;
/// Readable bytes the layout guarantees past the last label, so an
/// 8-byte label load from any edge offset stays inside the buffer.
const LABEL_TAIL: usize = 7;

/// Next multiple of 8 at or above `x`.
#[inline]
fn align8(x: usize) -> usize {
    (x + 7) & !7
}

/// Everything a snapshot header records besides the arrays.
#[derive(Debug, Clone)]
pub(crate) struct Meta {
    pub(crate) mode: CountMode,
    pub(crate) privacy: PrivacyParams,
    pub(crate) alpha_counts: f64,
    pub(crate) alpha_absent: f64,
    pub(crate) n_docs: usize,
    pub(crate) max_len: usize,
}

/// A canonical snapshot whose checksums and tree structure hold.
#[derive(Debug, Clone)]
pub(crate) struct Canonical {
    /// Owned alone, or shared with whoever handed it to `from_bytes_shared`.
    pub(crate) buf: Arc<[u8]>,
    pub(crate) meta: Meta,
    pub(crate) n_nodes: usize,
    /// Section offsets `[counts, edge_start, edge_label]` in `buf`.
    pub(crate) offsets: [usize; 3],
}

/// Section offsets for the given section lengths (first at
/// [`HEADER_LEN`], each aligned to 8) and the total encoded size, which
/// leaves [`LABEL_TAIL`] bytes after the labels.
fn layout(lens: [usize; 3]) -> ([usize; 3], usize) {
    let mut offsets = [0usize; 3];
    let mut off = HEADER_LEN;
    for (slot, len) in offsets.iter_mut().zip(lens) {
        *slot = off;
        off = align8(off + len);
    }
    (offsets, align8(offsets[2] + lens[2] + LABEL_TAIL))
}

/// Encodes a snapshot from its three sections: `counts` (one
/// little-endian `f64` per node), `edge_start` (`n_nodes + 1`
/// little-endian `u32` CSR offsets) and `edge_label`. The section
/// checksums come from [`sweep`], which also returns its error for
/// sections that are not a valid tree.
pub(crate) fn encode(meta: Meta, sections: [&[u8]; 3]) -> Result<Canonical, DecodeError> {
    let n_nodes = sections[0].len() / 8;
    let section_sums = sweep(sections, n_nodes)?;
    let (offsets, total) = layout(sections.map(<[u8]>::len));

    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes()); // flags
    let (tag, clip) = mode_wire(meta.mode);
    out.extend_from_slice(&(tag as u32).to_le_bytes());
    out.extend_from_slice(&(SECTION_NAMES.len() as u32).to_le_bytes());
    out.extend_from_slice(&clip.to_le_bytes());
    out.extend_from_slice(&meta.privacy.epsilon.to_bits().to_le_bytes());
    out.extend_from_slice(&meta.privacy.delta.to_bits().to_le_bytes());
    out.extend_from_slice(&meta.alpha_counts.to_bits().to_le_bytes());
    out.extend_from_slice(&meta.alpha_absent.to_bits().to_le_bytes());
    out.extend_from_slice(&(meta.n_docs as u64).to_le_bytes());
    out.extend_from_slice(&(meta.max_len as u64).to_le_bytes());
    out.extend_from_slice(&(n_nodes as u64).to_le_bytes());
    out.extend_from_slice(&(n_nodes as u64 - 1).to_le_bytes());
    debug_assert_eq!(out.len(), TABLE_OFF);
    for ((offset, section), sum) in offsets.iter().zip(sections).zip(section_sums) {
        out.extend_from_slice(&(*offset as u64).to_le_bytes());
        out.extend_from_slice(&(section.len() as u64).to_le_bytes());
        out.extend_from_slice(&sum.to_le_bytes());
    }
    debug_assert_eq!(out.len(), HEADER_SUM_OFF);
    let header_sum = fnv1a(&out);
    out.extend_from_slice(&header_sum.to_le_bytes());
    debug_assert_eq!(out.len(), HEADER_LEN);
    for (offset, section) in offsets.iter().zip(sections) {
        out.resize(*offset, 0); // zeroed alignment padding
        out.extend_from_slice(section);
    }
    out.resize(total, 0); // zeroed label tail
    Ok(Canonical { buf: out.into(), meta, n_nodes, offsets })
}

/// The header checksum field of a snapshot (`bytes[160..168]`), read
/// without checking anything; `None` when `bytes` is too short to hold a
/// header. The header checksum covers the section table, which holds
/// every section's checksum, and the decoder requires zero padding, so
/// once a decode of `bytes` succeeds this one field is a verified digest
/// of the whole snapshot.
pub fn snapshot_digest(bytes: &[u8]) -> Option<u64> {
    let field = bytes.get(HEADER_SUM_OFF..HEADER_LEN)?;
    Some(u64::from_le_bytes(field.try_into().expect("8-byte field")))
}

/// Checks a snapshot's header, layout, padding, checksums and tree
/// structure, and adopts the buffer as is: no copy.
pub(crate) fn decode(buf: Arc<[u8]>) -> Result<Canonical, DecodeError> {
    let bytes = &buf[..];
    let mut cur = Cursor::new(bytes);
    let magic: [u8; 4] = cur.take(4)?.try_into().expect("4-byte magic");
    if magic != MAGIC {
        return Err(DecodeError::BadMagic { found: magic, expected: MAGIC });
    }
    let version = cur.u16()?;
    if version != VERSION {
        return Err(DecodeError::UnsupportedVersion { found: version, expected: VERSION });
    }
    let flags = cur.u16()?;
    if flags != 0 {
        return Err(DecodeError::BadField {
            field: "flags",
            detail: format!("reserved flag bits set: {flags:#06x}"),
        });
    }
    let tag = cur.u32()?;
    let tag = u8::try_from(tag).map_err(|_| DecodeError::BadField {
        field: "mode tag",
        detail: format!("unknown tag {tag}"),
    })?;
    let section_count = cur.u32()?;
    if section_count as usize != SECTION_NAMES.len() {
        return Err(DecodeError::BadField {
            field: "section count",
            detail: format!("{section_count} != {}", SECTION_NAMES.len()),
        });
    }
    let clip = cur.u64()?;
    let mode = mode_from_wire(tag, clip)?;
    let epsilon = cur.f64()?;
    let delta = cur.f64()?;
    check_privacy_fields(epsilon, delta)?;
    let alpha_counts = cur.f64()?;
    let alpha_absent = cur.f64()?;
    require_finite("alpha_counts", alpha_counts)?;
    require_finite("alpha_absent", alpha_absent)?;
    let n_docs = cur.usize64()?;
    let max_len = cur.usize64()?;
    let n_nodes = cur.usize64()?;
    let n_edges = cur.usize64()?;
    check_tree_shape(n_nodes, n_edges)?;
    debug_assert_eq!(cur.pos(), TABLE_OFF);
    // Section table entries: (offset, length, checksum).
    let mut table = [(0usize, 0usize, 0u64); 3];
    for entry in &mut table {
        *entry = (cur.usize64()?, cur.usize64()?, cur.u64()?);
    }
    // Authenticate the header (including the section table) before
    // trusting any offset in it.
    let stored = cur.u64()?;
    debug_assert_eq!(cur.pos(), HEADER_LEN);
    let computed = fnv1a(&bytes[..HEADER_SUM_OFF]);
    if stored != computed {
        return Err(DecodeError::ChecksumMismatch { stored, computed });
    }
    // The layout is fully determined by the header counts: each section
    // must sit at the next 8-aligned offset and have exactly its computed
    // size. Anything else is non-canonical and rejected.
    let lens = [8 * n_nodes, 4 * (n_nodes + 1), n_edges];
    let (offsets, total) = layout(lens);
    for (i, name) in SECTION_NAMES.into_iter().enumerate() {
        let (offset, len, _) = table[i];
        if offset != offsets[i] {
            return Err(DecodeError::Structural(format!(
                "section {name} at offset {offset}, layout requires {}",
                offsets[i]
            )));
        }
        if len != lens[i] {
            return Err(DecodeError::BadField {
                field: "section length",
                detail: format!("section {name} is {len} bytes, layout requires {}", lens[i]),
            });
        }
    }
    if bytes.len() < total {
        return Err(DecodeError::Truncated {
            offset: bytes.len(),
            need: total - bytes.len(),
            have: 0,
        });
    }
    if bytes.len() > total {
        return Err(DecodeError::TrailingGarbage { extra: bytes.len() - total });
    }
    // Padding must be zero (canonicality: exactly one encoding per
    // synopsis).
    for (i, name) in SECTION_NAMES.into_iter().enumerate() {
        let next = offsets.get(i + 1).copied().unwrap_or(total);
        if bytes[offsets[i] + lens[i]..next].iter().any(|&b| b != 0) {
            return Err(DecodeError::Structural(format!(
                "nonzero alignment padding after section {name}"
            )));
        }
    }
    // Section sums are compared first, so a corrupt byte is named by its
    // section and only a restamped forgery reaches the sweep's error. The
    // sweep stops at a defect, so only that path hashes the sections again.
    let payload = table.map(|(offset, len, _)| &bytes[offset..offset + len]);
    let swept = sweep(payload, n_nodes);
    let sums = swept.as_ref().map_or_else(|_| payload.map(fnv1a), |&sums| sums);
    for ((section, (_, _, stored)), computed) in SECTION_NAMES.into_iter().zip(table).zip(sums) {
        if computed != stored {
            return Err(DecodeError::SectionChecksumMismatch { section, stored, computed });
        }
    }
    swept?;

    let meta = Meta {
        mode,
        privacy: privacy_from_wire(epsilon, delta),
        alpha_counts,
        alpha_absent,
        n_docs,
        max_len,
    };
    Ok(Canonical { buf, meta, n_nodes, offsets })
}

/// The one pass over a snapshot's sections `[counts, edge_start,
/// labels]` (`8 · n_nodes`, `4 · (n_nodes + 1)` and `n_nodes − 1`
/// bytes): their FNV-1a checksums, in that order, computed while checking
/// three rules.
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
/// unique. The same pass rejects non-finite counts. Offsets are
/// range-checked before anything indexes with them.
///
/// Node `v`'s iteration feeds its count, `edge_start[v + 1]` and label `v`
/// into three independent chains, so the CPU overlaps their multiply
/// latencies: the counts chain (8 of every 13 bytes) is the critical path.
///
/// # Errors
/// The first rule violation in node order (the sums are then abandoned).
pub(crate) fn sweep(sections: [&[u8]; 3], n_nodes: usize) -> Result<[u64; 3], DecodeError> {
    let [counts, edge_start, labels] = sections;
    let n_edges = n_nodes - 1;
    let structural = |what: String| Err(DecodeError::Structural(what));
    let span_error = || structural("CSR offsets do not span the edge array".into());
    if le_u32(edge_start, 0) != 0 {
        return span_error();
    }
    let (mut h_counts, mut h_starts, mut h_labels) =
        (fnv1a(&[]), fnv1a(&edge_start[..4]), fnv1a(&[]));
    let mut next_label = labels.iter();
    let ends = edge_start[4..].chunks_exact(4);
    let mut lo = 0usize;
    for (v, (count, end)) in counts.chunks_exact(8).zip(ends).enumerate() {
        h_counts = fnv1a_extend(h_counts, count);
        h_starts = fnv1a_extend(h_starts, end);
        if let Some(label) = next_label.next() {
            h_labels = fnv1a_extend(h_labels, std::slice::from_ref(label));
        }
        let hi = le_u32(end, 0) as usize;
        if hi < lo {
            return structural(format!("CSR offsets decrease at node {v}"));
        }
        if hi > n_edges {
            return structural(format!("CSR offsets exceed the edge array at node {v}"));
        }
        if hi > lo && lo < v {
            let child = lo + 1;
            return structural(format!(
                "edge_start[{v}] = {lo} < {v}: node {v} has a backward edge to node {child}"
            ));
        }
        if hi > lo && labels[lo..hi].windows(2).any(|w| w[0] >= w[1]) {
            return structural(format!("edge labels of node {v} are not strictly sorted"));
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
        return span_error();
    }
    Ok([h_counts, h_starts, h_labels])
}

/// Wire encoding of a [`CountMode`]: `(tag, clip level)`.
fn mode_wire(mode: CountMode) -> (u8, u64) {
    match mode {
        CountMode::Document => (0, 0),
        CountMode::Substring => (1, 0),
        CountMode::Clipped(d) => (2, d as u64),
    }
}

/// Decodes and canonicality-checks a mode tag + clip level pair.
fn mode_from_wire(tag: u8, clip: u64) -> Result<CountMode, DecodeError> {
    match tag {
        // Canonicality: the clip field carries information only for
        // tag 2; any other encoding must use zero so that equal
        // synopses have exactly one byte representation.
        0 | 1 if clip != 0 => Err(DecodeError::BadField {
            field: "clip level",
            detail: format!("nonzero clip level {clip} with mode tag {tag}"),
        }),
        0 => Ok(CountMode::Document),
        1 => Ok(CountMode::Substring),
        2 => {
            let d = usize::try_from(clip).map_err(|_| DecodeError::SizeOverflow)?;
            Ok(CountMode::Clipped(d))
        }
        other => {
            Err(DecodeError::BadField { field: "mode tag", detail: format!("unknown tag {other}") })
        }
    }
}

/// Domain checks for the decoded privacy parameters.
pub(crate) fn check_privacy_fields(epsilon: f64, delta: f64) -> Result<(), DecodeError> {
    if !(epsilon.is_finite() && epsilon > 0.0) {
        return Err(DecodeError::BadField { field: "epsilon", detail: epsilon.to_string() });
    }
    // `-0.0` would satisfy a plain range check but re-serialize as
    // `+0.0` (PrivacyParams::pure normalizes it), breaking
    // canonicality — reject the sign bit explicitly.
    if delta.is_sign_negative() || !((0.0..1.0).contains(&delta)) {
        return Err(DecodeError::BadField { field: "delta", detail: delta.to_string() });
    }
    Ok(())
}

/// Rebuilds [`PrivacyParams`] from validated wire floats.
fn privacy_from_wire(epsilon: f64, delta: f64) -> PrivacyParams {
    if delta == 0.0 {
        PrivacyParams::pure(epsilon)
    } else {
        PrivacyParams::approx(epsilon, delta)
    }
}

/// Node/edge count sanity of a decoded header. CSR offsets are `u32`, so
/// more edges than that cannot be addressed, and a header passing these
/// checks has a layout whose size arithmetic cannot overflow.
fn check_tree_shape(n_nodes: usize, n_edges: usize) -> Result<(), DecodeError> {
    if n_nodes == 0 {
        return Err(DecodeError::BadField {
            field: "node count",
            detail: "zero (the root is mandatory)".to_string(),
        });
    }
    if n_edges != n_nodes - 1 {
        return Err(DecodeError::BadField {
            field: "edge count",
            detail: format!("{n_edges} != node count {n_nodes} - 1"),
        });
    }
    if n_edges > u32::MAX as usize || n_nodes > (usize::MAX - HEADER_LEN) / 16 {
        return Err(DecodeError::SizeOverflow);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn align8_is_the_next_multiple() {
        for (x, want) in [(0usize, 0usize), (1, 8), (7, 8), (8, 8), (9, 16), (192, 192)] {
            assert_eq!(align8(x), want, "align8({x})");
        }
    }

    #[test]
    fn layout_leaves_an_8_byte_read_after_every_label() {
        for n_nodes in 1..40usize {
            let (offsets, total) = layout([8 * n_nodes, 4 * (n_nodes + 1), n_nodes - 1]);
            assert!(offsets.iter().all(|o| o % 8 == 0), "n_nodes {n_nodes}");
            assert!(offsets[2] + n_nodes - 1 + LABEL_TAIL <= total, "n_nodes {n_nodes}");
            assert_eq!(total % 8, 0);
        }
    }

    /// `[counts, edge_start, edge_label]`.
    type Sections = [Vec<u8>; 3];

    /// The sections of an `n`-node tree in which node `v`'s children are
    /// `k·v + 1 ..= k·v + k` (those below `n`), so edge `e` belongs to
    /// node `e / k` and carries label `(e % k) · 40 + 3`.
    fn k_ary(n: usize, k: usize) -> Sections {
        let counts = (0..n).flat_map(|v| (v as f64 * 1.5 - 3.0).to_le_bytes()).collect();
        let starts = (0..=n).flat_map(|v| ((k * v).min(n - 1) as u32).to_le_bytes()).collect();
        let labels = (0..n - 1).map(|e| (e % k) as u8 * 40 + 3).collect();
        [counts, starts, labels]
    }

    fn sweep_of(sections: &Sections, n: usize) -> Result<[u64; 3], DecodeError> {
        sweep(sections.each_ref().map(Vec::as_slice), n)
    }

    #[test]
    fn sweep_sums_equal_each_sections_fnv1a() {
        // n = 1 has no labels; odd and even n cover both edge_start
        // lengths modulo 8.
        for n in 1..40usize {
            for k in 1..=3 {
                let sections = k_ary(n, k);
                let want = sections.each_ref().map(|s| fnv1a(s));
                assert_eq!(sweep_of(&sections, n), Ok(want), "n {n}, k {k}");
            }
        }
    }

    #[test]
    fn sweep_reports_the_first_violation_of_each_rule() {
        // 10 nodes, binary: edge_start = [0, 2, 4, 6, 8, 9, 9, 9, 9, 9, 9].
        let n = 10;
        let structural = |s: &str| DecodeError::Structural(s.to_string());
        let span = structural("CSR offsets do not span the edge array");
        fn set(sections: &mut Sections, v: usize, x: u32) {
            sections[1][4 * v..4 * v + 4].copy_from_slice(&x.to_le_bytes());
        }
        let forged = |forge: fn(&mut Sections)| {
            let mut sections = k_ary(n, 2);
            forge(&mut sections);
            sections
        };
        let cases = [
            (forged(|s| set(s, 0, 1)), span.clone()),
            (forged(|s| set(s, 2, 1)), structural("CSR offsets decrease at node 1")),
            (forged(|s| set(s, 3, 10)), structural("CSR offsets exceed the edge array at node 2")),
            (forged(|s| (5..=10).for_each(|v| set(s, v, 8))), span),
            (
                forged(|s| set(s, 1, 0)),
                structural("edge_start[1] = 0 < 1: node 1 has a backward edge to node 1"),
            ),
            (
                forged(|s| s[2].swap(2, 3)),
                structural("edge labels of node 1 are not strictly sorted"),
            ),
            (
                forged(|s| s[0][24..32].copy_from_slice(&f64::NAN.to_le_bytes())),
                DecodeError::BadField {
                    field: "counts",
                    detail: "non-finite count NaN at node 3".to_string(),
                },
            ),
        ];
        assert!(sweep_of(&k_ary(n, 2), n).is_ok());
        for (i, (sections, want)) in cases.into_iter().enumerate() {
            assert_eq!(sweep_of(&sections, n), Err(want), "forgery {i}");
        }
    }
}
