//! Shared binary-codec substrate: the typed decode error and the
//! length-checked cursor used by every `DPSF`-discipline format in the
//! workspace.
//!
//! Two decoders follow the same defensive discipline — magic, version,
//! little-endian framing, FNV-1a checksums, every read length-checked so
//! corrupt input is an `Err` and never a panic:
//! [`crate::synopsis::FrozenSynopsis::from_bytes`] (the `DPSF` v3
//! snapshot codec, one checksum per section) and the `dpsc-serve` wire
//! protocol (the request/response frames that carry those snapshots). Both report defects through [`DecodeError`]
//! so callers can branch on the *kind* of damage (truncation vs checksum
//! vs structural) instead of grepping strings; `Display` keeps the old
//! human-readable messages, so stringly call sites just
//! `.map_err(|e| e.to_string())`.

use std::fmt;

pub use crate::codec_v3::snapshot_digest;

/// The first defect found while decoding a binary artifact (snapshot
/// bytes or a wire frame). Decoders stop at the first problem, so one
/// value describes one concrete, located defect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer bytes than the format requires at `offset`.
    Truncated {
        /// Byte offset at which the read was attempted.
        offset: usize,
        /// Bytes the read needed.
        need: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// Input continues past the end of the declared payload.
    TrailingGarbage {
        /// Number of surplus bytes.
        extra: usize,
    },
    /// The leading magic does not identify this format.
    BadMagic {
        /// The bytes found where the magic belongs.
        found: [u8; 4],
        /// The magic this decoder accepts.
        expected: [u8; 4],
    },
    /// The format version is not one this decoder understands.
    UnsupportedVersion {
        /// Version tag in the input.
        found: u16,
        /// Version this decoder implements.
        expected: u16,
    },
    /// Stored and recomputed FNV-1a checksums disagree.
    ChecksumMismatch {
        /// Checksum carried by the input.
        stored: u64,
        /// Checksum of the bytes actually received.
        computed: u64,
    },
    /// Stored and recomputed FNV-1a checksums of one named section
    /// disagree (the snapshot codec carries a checksum per section so a
    /// corrupt section can be named instead of just "the payload").
    SectionChecksumMismatch {
        /// Which section is damaged (`"counts"`, `"edge_start"`, …).
        section: &'static str,
        /// Checksum carried by the section table.
        stored: u64,
        /// Checksum of the section bytes actually received.
        computed: u64,
    },
    /// Declared array sizes overflow the platform's address arithmetic.
    SizeOverflow,
    /// A header field holds a value outside its domain (bad mode tag,
    /// non-finite ε, nonzero clip level for a clip-free mode, …).
    BadField {
        /// Which field is malformed.
        field: &'static str,
        /// What is wrong with it.
        detail: String,
    },
    /// The arrays parse individually but do not describe a well-formed
    /// structure (non-monotone CSR offsets, unsorted labels, cycles, …).
    Structural(String),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated { offset, need, have } => {
                write!(f, "truncated input: need {need} bytes at offset {offset}, have {have}")
            }
            Self::TrailingGarbage { extra } => {
                write!(f, "trailing garbage: {extra} extra bytes")
            }
            Self::BadMagic { found, expected } => {
                write!(f, "bad magic {found:02x?} (expected {expected:02x?})")
            }
            Self::UnsupportedVersion { found, expected } => {
                write!(f, "unsupported format version {found} (expected {expected})")
            }
            Self::ChecksumMismatch { stored, computed } => {
                write!(f, "checksum mismatch: stored {stored:016x}, computed {computed:016x}")
            }
            Self::SectionChecksumMismatch { section, stored, computed } => {
                write!(
                    f,
                    "checksum mismatch in section {section}: \
                     stored {stored:016x}, computed {computed:016x}"
                )
            }
            Self::SizeOverflow => write!(f, "declared sizes overflow"),
            Self::BadField { field, detail } => write!(f, "bad {field}: {detail}"),
            Self::Structural(what) => write!(f, "{what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// FNV-1a 64-bit over `bytes` — the integrity checksum shared by the
/// snapshot codec and the wire protocol. Not cryptographic; it detects
/// accidental corruption (the synopsis is public data, so tampering is
/// not in the threat model).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues the FNV-1a chain `h` over `bytes`.
#[inline(always)]
pub(crate) fn fnv1a_extend(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Rejects NaN/±∞ in a decoded float field. Non-finite values poison
/// every downstream aggregate (and NaN breaks `PartialEq`, turning
/// round-trip assertions vacuous), so decoders refuse them up front.
pub(crate) fn require_finite(field: &'static str, value: f64) -> Result<(), DecodeError> {
    if value.is_finite() {
        Ok(())
    } else {
        Err(DecodeError::BadField { field, detail: format!("non-finite value {value}") })
    }
}

/// Little-endian `u32` at `bytes[off..off + 4]` (caller guarantees range).
#[inline]
pub(crate) fn le_u32(bytes: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4-byte read"))
}

/// Little-endian IEEE-754 `f64` at `bytes[off..off + 8]`.
#[inline]
pub(crate) fn le_f64(bytes: &[u8], off: usize) -> f64 {
    f64::from_bits(u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8-byte read")))
}

/// Length-checked reader over an input buffer. Every accessor returns
/// [`DecodeError::Truncated`] instead of slicing out of bounds.
#[derive(Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Starts reading `buf` from the beginning.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Current read offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated {
                offset: self.pos,
                need: n,
                have: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Next byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Next little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2-byte read")))
    }

    /// Next little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4-byte read")))
    }

    /// Next little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8-byte read")))
    }

    /// Next `f64`, read as its IEEE-754 bit pattern (exact round-trip).
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Next `u64` narrowed to `usize`, rejecting values that do not fit.
    pub fn usize64(&mut self) -> Result<usize, DecodeError> {
        usize::try_from(self.u64()?).map_err(|_| DecodeError::SizeOverflow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_reads_are_length_checked() {
        let buf = [1u8, 2, 3];
        let mut cur = Cursor::new(&buf);
        assert_eq!(cur.u8().unwrap(), 1);
        assert_eq!(cur.u16().unwrap(), u16::from_le_bytes([2, 3]));
        assert_eq!(cur.u8().unwrap_err(), DecodeError::Truncated { offset: 3, need: 1, have: 0 });
    }

    #[test]
    fn display_messages_keep_the_legacy_keywords() {
        // Stringly call sites (and older tests) grep for these substrings.
        let cases: Vec<(DecodeError, &str)> = vec![
            (DecodeError::Truncated { offset: 0, need: 4, have: 1 }, "truncated"),
            (DecodeError::TrailingGarbage { extra: 3 }, "trailing garbage"),
            (DecodeError::BadMagic { found: [0; 4], expected: *b"DPSF" }, "magic"),
            (DecodeError::UnsupportedVersion { found: 9, expected: 1 }, "version"),
            (DecodeError::ChecksumMismatch { stored: 1, computed: 2 }, "checksum mismatch"),
            (
                DecodeError::SectionChecksumMismatch { section: "counts", stored: 1, computed: 2 },
                "checksum mismatch in section counts",
            ),
            (DecodeError::SizeOverflow, "overflow"),
            (DecodeError::BadField { field: "delta", detail: "-0".into() }, "delta"),
            (DecodeError::Structural("nodes unreachable from the root".into()), "unreachable"),
        ];
        for (err, needle) in cases {
            assert!(err.to_string().contains(needle), "{err} lacks {needle:?}");
        }
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
