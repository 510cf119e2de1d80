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

use std::sync::Arc;

use dpsc_dpcore::budget::PrivacyParams;

use crate::codec::{fnv1a, require_finite, Cursor, DecodeError};
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

/// A checksum-verified canonical snapshot. Its structure is validated by
/// the synopsis that adopts it.
pub(crate) struct Canonical {
    pub(crate) buf: Arc<[u8]>,
    pub(crate) meta: Meta,
    pub(crate) n_nodes: usize,
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

/// Section offsets `[counts, edge_start, edge_label]` of the snapshot of
/// an `n_nodes`-node synopsis.
pub(crate) fn section_offsets(n_nodes: usize) -> [usize; 3] {
    layout([8 * n_nodes, 4 * (n_nodes + 1), n_nodes - 1]).0
}

/// Encodes a snapshot from its three sections: `counts` (one
/// little-endian `f64` per node), `edge_start` (`n_nodes + 1`
/// little-endian `u32` CSR offsets) and `edge_label`.
pub(crate) fn encode(meta: &Meta, counts: &[u8], edge_start: &[u8], edge_label: &[u8]) -> Vec<u8> {
    let sections = [counts, edge_start, edge_label];
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
    out.extend_from_slice(&((counts.len() / 8) as u64).to_le_bytes());
    out.extend_from_slice(&(edge_label.len() as u64).to_le_bytes());
    debug_assert_eq!(out.len(), TABLE_OFF);
    for (offset, section) in offsets.iter().zip(sections) {
        out.extend_from_slice(&(*offset as u64).to_le_bytes());
        out.extend_from_slice(&(section.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a(section).to_le_bytes());
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
    out
}

/// Checks a snapshot's header, layout, padding and checksums, and adopts
/// the buffer as is: no copy.
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
    let mut sections = [(0usize, 0usize); 3];
    let mut section_sums = [0u64; 3];
    for i in 0..SECTION_NAMES.len() {
        let offset = cur.usize64()?;
        let len = cur.usize64()?;
        section_sums[i] = cur.u64()?;
        sections[i] = (offset, len);
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
    // size. Anything else is non-canonical and rejected. A checksummed
    // header can still be forged, so the size arithmetic must not overflow
    // on adversarial counts.
    let counts_len = n_nodes.checked_mul(8).ok_or(DecodeError::SizeOverflow)?;
    let edge_start_len =
        n_nodes.checked_add(1).and_then(|n| n.checked_mul(4)).ok_or(DecodeError::SizeOverflow)?;
    let want_lens = [counts_len, edge_start_len, n_edges];
    let mut expect_off = HEADER_LEN;
    for (i, &(offset, len)) in sections.iter().enumerate() {
        let name = SECTION_NAMES[i];
        if offset != expect_off {
            return Err(DecodeError::Structural(format!(
                "section {name} at offset {offset}, layout requires {expect_off}"
            )));
        }
        if len != want_lens[i] {
            return Err(DecodeError::BadField {
                field: "section length",
                detail: format!("section {name} is {len} bytes, layout requires {}", want_lens[i]),
            });
        }
        let tail = if i + 1 == SECTION_NAMES.len() { LABEL_TAIL } else { 0 };
        let end = offset
            .checked_add(len)
            .and_then(|end| end.checked_add(tail))
            .ok_or(DecodeError::SizeOverflow)?;
        expect_off = end.checked_add(7).ok_or(DecodeError::SizeOverflow)? & !7;
    }
    let total = expect_off;
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
    // synopsis) and the per-section checksums must hold, so a corrupt
    // byte anywhere in the payload is caught and *named*.
    for i in 0..SECTION_NAMES.len() {
        let next = sections.get(i + 1).map_or(total, |s| s.0);
        if bytes[sections[i].0 + sections[i].1..next].iter().any(|&b| b != 0) {
            return Err(DecodeError::Structural(format!(
                "nonzero alignment padding after section {}",
                SECTION_NAMES[i]
            )));
        }
    }
    for (i, name) in SECTION_NAMES.into_iter().enumerate() {
        let computed = fnv1a(&bytes[sections[i].0..sections[i].0 + sections[i].1]);
        if computed != section_sums[i] {
            return Err(DecodeError::SectionChecksumMismatch {
                section: name,
                stored: section_sums[i],
                computed,
            });
        }
    }

    let meta = Meta {
        mode,
        privacy: privacy_from_wire(epsilon, delta),
        alpha_counts,
        alpha_absent,
        n_docs,
        max_len,
    };
    Ok(Canonical { buf, meta, n_nodes })
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
fn check_privacy_fields(epsilon: f64, delta: f64) -> Result<(), DecodeError> {
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
/// more edges than that cannot be addressed.
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
    if n_edges > u32::MAX as usize {
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
            let offsets = section_offsets(n_nodes);
            let (_, total) = layout([8 * n_nodes, 4 * (n_nodes + 1), n_nodes - 1]);
            assert!(offsets.iter().all(|o| o % 8 == 0), "n_nodes {n_nodes}");
            assert!(offsets[2] + n_nodes - 1 + LABEL_TAIL <= total, "n_nodes {n_nodes}");
            assert_eq!(total % 8, 0);
        }
    }
}
