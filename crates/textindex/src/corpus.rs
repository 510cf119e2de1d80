//! Generalized suffix index over a document corpus.
//!
//! Implements the paper's indexing substrate (proof of Lemma 7): the suffix
//! structure of `S = S_1 $_1 S_2 $_2 … S_n $_n` where the `$_i` are `n`
//! distinct sentinels outside `Σ`. The index holds the concatenation with
//! one shared separator code, 0, below every letter (letter `b` is
//! `b − base + 1`), in one byte per symbol (two for an alphabet of all 256
//! bytes). Only SA-IS needs the sentinels distinct: its `u32` input maps
//! sentinel `i` to `i` and letters above them, and is scratch. A rank
//! bitvector marks the separators, and no common prefix read from the
//! index crosses one, so the suffix and LCP arrays are those of `S`.
//!
//! Every count the paper's mechanisms privatize reduces to a suffix-array
//! interval over this text:
//!
//! * `count(P, D)` = interval width ([`CorpusIndex::count`]);
//! * `count_Δ(P, D)` = per-document clipped sum over the interval
//!   ([`CorpusIndex::count_clipped`]);
//! * `count_1(P, D)` (Document Count) = number of distinct documents in the
//!   interval ([`CorpusIndex::document_count`]);
//! * `count_Δ(P, D)` for `1 < Δ < ℓ` = the same count over the `Δ`-th
//!   previous same-document rank ([`ClippedCounter`]), derived once per
//!   clip level. Both are depth-keyed counters ([`crate::doc_counter`]).
//!
//! The index exists only while a private synopsis is built, so it is kept
//! lean: per text position it holds the text (1 byte), the suffix array
//! and the inverse suffix array (4 bytes each), the LCP array (1 byte, plus
//! an exception table that is empty for `ℓ < 255`), the document counter
//! (about `⌈log₂(ℓ+2)⌉ · 1.25` bits) and a rank bitvector over the
//! sentinels (1.25 bits) that maps a position to its document.
//! [`CorpusIndex::build`] runs the steps in the order text → suffix array
//! → inverse suffix array → LCP → document counter. SA-IS's input and type
//! bytes are freed before the inverse is allocated, so it can take their
//! place; Kasai reads that inverse instead of building its own, and the
//! counter's one-byte depth keys are handed to the wavelet-matrix build
//! as its scratch. The peak is the counter step. DESIGN.md §10 ("Index
//! diet") has the per-step byte counts.
//!
//! The inverse suffix array names substrings exactly: the length-`d`
//! substring at text position `p` is the one whose interval contains rank
//! [`CorpusIndex::rank_of`]`(p)`, and distinct length-`d` substrings have
//! disjoint intervals (Karp–Miller–Rosenberg naming on the suffix array).

use std::borrow::Cow;

use dpsc_strkit::alphabet::{Alphabet, Database};
use dpsc_strkit::lcp::LcpArray;
use dpsc_strkit::search::SaInterval;
use dpsc_strkit::suffix_array::SuffixArray;

use crate::doc_counter::DocDistinctCounter;
use crate::range_count::RankBits;
use crate::Narrow;

/// Immutable index over a [`Database`].
#[derive(Debug, Clone)]
pub struct CorpusIndex {
    /// Concatenated text with one separator per document ([`Text`]).
    text: Text,
    /// One bit per text position, set at the sentinels: the document owning
    /// a position (sentinels belong to their document) is the number of
    /// sentinels before it.
    sentinels: RankBits,
    /// Start offset of each document in `text`.
    doc_start: Vec<u32>,
    sa: SuffixArray,
    lcp: LcpArray,
    /// Inverse suffix array: `isa[p]` is the rank of the suffix at `p`.
    isa: Vec<u32>,
    n_docs: usize,
    max_len: usize,
    alphabet: Alphabet,
    doc_counter: DocDistinctCounter,
}

/// The concatenated text `S_1 $ … S_n $`: letter `b` is held as
/// `b − base + 1` and the separator `$` as 0, which sorts below every
/// letter as the sentinels `$_i` do. One byte per symbol, or two for an
/// alphabet of all 256 bytes, which leaves no code free for the separator.
#[derive(Debug, Clone)]
enum Text {
    Bytes(Vec<u8>),
    Wide(Vec<u16>),
}

/// The separator's code in [`Text`].
const SEPARATOR: u32 = 0;

impl Text {
    fn len(&self) -> usize {
        match self {
            Text::Bytes(t) => t.len(),
            Text::Wide(t) => t.len(),
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            Text::Bytes(t) => t.capacity(),
            Text::Wide(t) => 2 * t.capacity(),
        }
    }

    /// The code at `pos`.
    fn code(&self, pos: usize) -> u32 {
        match self {
            Text::Bytes(t) => t[pos].into(),
            Text::Wide(t) => t[pos].into(),
        }
    }
}

impl CorpusIndex {
    /// Builds the index in `O(N log ℓ)` time for `N = Σ|S_i| + n`: the
    /// suffix array, its inverse and the LCP array are linear, and the
    /// document counter takes one pass with a binary search over at most
    /// `ℓ + 1` stack entries per rank, then `⌈log₂(ℓ+2)⌉` linear matrix
    /// levels.
    pub fn build(db: &Database) -> Self {
        if db.alphabet().size() < 256 {
            Self::build_with(db, Text::Bytes)
        } else {
            Self::build_with(db, Text::Wide)
        }
    }

    /// The build over a text of `T` symbols, which `wrap` stores. Text →
    /// suffix array → inverse → LCP → document counter, each step's
    /// scratch freed before the next allocates. SA-IS needs distinct
    /// sentinels, so its `u32` input (sentinel `$_i` as `i`, letters above
    /// them) is written once beside the text and consumed by the
    /// construction.
    fn build_with<T: Narrow>(db: &Database, wrap: fn(Vec<T>) -> Text) -> Self {
        let n_docs = db.n();
        let total = db.total_len() + n_docs;
        let base = u32::from(db.alphabet().base());
        let mut text = Vec::with_capacity(total);
        // One more slot for the sentinel SA-IS appends.
        let mut ints = Vec::with_capacity(total + 1);
        let mut doc_start = Vec::with_capacity(n_docs);
        let mut sentinel_words = vec![0u64; total.div_ceil(64)];
        for (i, doc) in db.documents().iter().enumerate() {
            doc_start.push(text.len() as u32);
            for &b in doc {
                let code = u32::from(b) - base + 1;
                text.push(T::narrow(code));
                ints.push(n_docs as u32 + code - 1);
            }
            sentinel_words[text.len() / 64] |= 1 << (text.len() % 64);
            text.push(T::narrow(SEPARATOR));
            ints.push(i as u32);
        }
        let sentinels = RankBits::new(&sentinel_words);
        drop(sentinel_words);
        let sa = SuffixArray::from_int_vec(ints, n_docs + db.alphabet().size());
        let isa = sa.inverse();
        let lcp = LcpArray::build_separated(&text, &sa, &isa, T::narrow(SEPARATOR));
        let doc_counter = DocDistinctCounter::from_lcp(
            sa.sa(),
            &lcp,
            |pos| sentinels.rank1(pos),
            n_docs,
            db.max_len(),
            1,
        );
        Self {
            text: wrap(text),
            sentinels,
            doc_start,
            sa,
            lcp,
            isa,
            n_docs,
            max_len: db.max_len(),
            alphabet: db.alphabet(),
            doc_counter,
        }
    }

    /// Heap memory held by the index, in bytes: the capacities of all its
    /// components.
    pub fn heap_bytes(&self) -> usize {
        self.text.heap_bytes()
            + 4 * (self.doc_start.capacity() + self.isa.capacity())
            + self.sentinels.heap_bytes()
            + self.sa.heap_bytes()
            + self.lcp.heap_bytes()
            + self.doc_counter.heap_bytes()
    }

    /// Number of documents `n`.
    #[inline]
    pub fn n_docs(&self) -> usize {
        self.n_docs
    }

    /// Declared maximum document length `ℓ`.
    #[inline]
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// Alphabet size `|Σ|` of the underlying database.
    #[inline]
    pub fn alphabet_size(&self) -> usize {
        self.alphabet.size()
    }

    /// The database alphabet.
    #[inline]
    pub fn alphabet(&self) -> Alphabet {
        self.alphabet
    }

    /// Smallest byte value of the alphabet (the alphabet is a contiguous
    /// byte range; see [`Alphabet`]).
    #[inline]
    pub fn alphabet_base(&self) -> u8 {
        self.alphabet.base()
    }

    /// Length of the concatenated text (including sentinels).
    #[inline]
    pub fn text_len(&self) -> usize {
        self.text.len()
    }

    /// The underlying suffix array.
    #[inline]
    pub fn suffix_array(&self) -> &SuffixArray {
        &self.sa
    }

    /// The LCP array companion.
    #[inline]
    pub fn lcp(&self) -> &LcpArray {
        &self.lcp
    }

    /// Rank of the suffix starting at text position `pos` (the inverse
    /// suffix array): `suffix_array().sa()[rank_of(pos)] == pos`. It lies
    /// in the interval of every substring that starts at `pos`.
    #[inline]
    pub fn rank_of(&self, pos: usize) -> u32 {
        self.isa[pos]
    }

    /// The text codes `[lo, hi)` that spell pattern byte `b`: the one
    /// code `b − base + 1` for a letter. A byte outside the alphabet gets
    /// an empty range where it sorts: above the separator and below every
    /// letter for `b < base`, above every letter past the alphabet.
    #[inline]
    fn codes_of(&self, b: u8) -> (u32, u32) {
        match u32::from(b).checked_sub(self.alphabet.base().into()) {
            Some(c) => (c + 1, c + 2),
            None => (SEPARATOR + 1, SEPARATOR + 1),
        }
    }

    /// Suffix-array interval of `pattern` (as raw bytes over `Σ`).
    ///
    /// `O(|P| log N)`: one [`CorpusIndex::extend_interval`] per pattern
    /// byte. Patterns never contain sentinels, so an interval position
    /// always corresponds to an occurrence fully inside one document. An
    /// absent pattern gets the empty interval at the rank where it would
    /// start.
    pub fn interval(&self, pattern: &[u8]) -> SaInterval {
        let mut iv = self.full_interval();
        for (depth, &b) in pattern.iter().enumerate() {
            if iv.is_empty() {
                break;
            }
            iv = self.extend_interval(iv, depth, b, iv.lo);
        }
        iv
    }

    /// Narrows a suffix-array interval by one more pattern symbol: given
    /// the interval `iv` of suffixes starting with some `P` of length
    /// `depth`, returns the interval of suffixes starting with `P·b`. For a
    /// non-empty `iv` an absent `P·b` gives the empty interval at the rank
    /// where it would start.
    ///
    /// `from` is a rank in `iv` where the search starts: every suffix of
    /// `iv` before it must continue `P` with a symbol smaller than `b`. The
    /// children of `P` tile `iv` in label order, so `iv.lo` always works,
    /// and the end of a smaller sibling's interval works too. The search
    /// gallops from `from` to the start of `P·b`, then from there to its
    /// end: `O(log(start − from) + log(count))` probes, each reading
    /// `sa[r]` and `text[sa[r] + depth]`.
    ///
    /// This is the incremental form of [`CorpusIndex::interval`]; walking a
    /// pattern symbol by symbol lets trie construction share work across
    /// candidates with common prefixes. It is the innermost operation of
    /// Step 2 (exact-count trie), so it is inlined and allocation-free.
    #[inline]
    pub fn extend_interval(&self, iv: SaInterval, depth: usize, b: u8, from: u32) -> SaInterval {
        if iv.is_empty() {
            return SaInterval::EMPTY;
        }
        debug_assert!(iv.lo <= from && from <= iv.hi, "start {from} outside {iv:?}");
        let codes = self.codes_of(b);
        match &self.text {
            Text::Bytes(t) => extend_over(t, self.sa.sa(), iv, depth, codes, from),
            Text::Wide(t) => extend_over(t, self.sa.sa(), iv, depth, codes, from),
        }
    }

    /// The full interval `[0, N)` (every suffix matches the empty pattern).
    pub fn full_interval(&self) -> SaInterval {
        SaInterval { lo: 0, hi: self.text.len() as u32 }
    }

    /// `count(P, D)`: total occurrences of `pattern` across all documents.
    ///
    /// For the empty pattern the paper defines `count(ε, S) = |S|`, so the
    /// database-level count is the total symbol count.
    pub fn count(&self, pattern: &[u8]) -> usize {
        if pattern.is_empty() {
            return self.text.len() - self.n_docs;
        }
        self.interval(pattern).count()
    }

    /// `count_Δ(P, D) = Σ_S min(Δ, count(P, S))` (paper §1.1).
    ///
    /// `O(|P| log N + log ℓ)` for `Δ = 1` and `O(|P| log N)` for `Δ ≥ ℓ`.
    /// For `1 < Δ < ℓ` it derives the `Δ` counter first, `O(N log ℓ)`:
    /// hold a [`CorpusIndex::clipped_counter`] to count many patterns.
    pub fn count_clipped(&self, pattern: &[u8], delta: usize) -> u64 {
        if pattern.is_empty() {
            assert!(delta >= 1, "Δ must be at least 1");
            return self.count_clipped_empty(delta);
        }
        self.clipped_counter(delta).count(pattern)
    }

    /// `count_Δ(ε, D)`: `count(ε, S) = |S|`, clipped at `Δ` per document.
    fn count_clipped_empty(&self, delta: usize) -> u64 {
        self.doc_lengths().map(|len| len.min(delta) as u64).sum()
    }

    /// The `count_Δ` counter at clip level `delta`: the index's document
    /// counter for `Δ = 1`, the interval width for `Δ ≥ ℓ` (where
    /// `min(Δ, count(P, S)) = count(P, S)`), and otherwise a `Δ` counter
    /// derived here in one `O(N log ℓ)` pass over the suffix and LCP
    /// arrays, `N·⌈log₂(ℓ+2)⌉ · 1.25` bits.
    pub fn clipped_counter(&self, delta: usize) -> ClippedCounter<'_> {
        assert!(delta >= 1, "Δ must be at least 1");
        let docs = if delta == 1 {
            Some(Cow::Borrowed(&self.doc_counter))
        } else if delta >= self.max_len {
            None
        } else {
            Some(Cow::Owned(DocDistinctCounter::from_lcp(
                self.sa.sa(),
                &self.lcp,
                |pos| self.sentinels.rank1(pos),
                self.n_docs,
                self.max_len,
                delta,
            )))
        };
        ClippedCounter { idx: self, docs, delta }
    }

    /// `count_1(P, D)` (Document Count): number of documents containing
    /// `pattern`. `O(|P| log N + log ℓ)`: the interval search, then
    /// `⌈log₂(ℓ+2)⌉` rank steps in the wavelet matrix.
    pub fn document_count(&self, pattern: &[u8]) -> usize {
        if pattern.is_empty() {
            return self.n_docs;
        }
        let iv = self.interval(pattern);
        self.document_count_in_interval(iv, pattern.len())
    }

    /// Distinct documents in the interval of a length-`depth` pattern.
    pub fn document_count_in_interval(&self, iv: SaInterval, depth: usize) -> usize {
        self.debug_check_depth(iv, depth);
        self.doc_counter.count(iv, depth)
    }

    /// A non-empty interval of a length-`depth` pattern starts where the
    /// LCP drops below `depth`; so `1 + lcp[lo]` is always a valid depth.
    #[inline]
    fn debug_check_depth(&self, iv: SaInterval, depth: usize) {
        debug_assert!(
            iv.is_empty() || self.lcp.get(iv.lo as usize) < depth,
            "depth {depth} is not the pattern length of interval {iv:?}"
        );
    }

    /// All occurrences of `pattern` as `(document, offset_in_document)`
    /// pairs, unordered.
    pub fn occurrences(&self, pattern: &[u8]) -> Vec<(usize, usize)> {
        let iv = self.interval(pattern);
        (iv.lo..iv.hi)
            .map(|r| {
                let pos = self.sa.sa()[r as usize] as usize;
                let doc = self.doc_of(pos);
                (doc, pos - self.doc_start[doc] as usize)
            })
            .collect()
    }

    /// Length of each document.
    pub fn doc_lengths(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.n_docs).map(move |i| {
            let start = self.doc_start[i] as usize;
            let end = if i + 1 < self.n_docs {
                self.doc_start[i + 1] as usize - 1 // exclude sentinel
            } else {
                self.text.len() - 1
            };
            end - start
        })
    }

    /// Number of symbols of position `pos`'s document that remain at and
    /// after `pos` (i.e. before its sentinel). Occurrence starts with
    /// `remaining ≥ |P|` are exactly the valid in-document matches.
    pub fn remaining_in_doc(&self, pos: usize) -> usize {
        let doc = self.doc_of(pos);
        let sentinel = if doc + 1 < self.n_docs {
            self.doc_start[doc + 1] as usize - 1
        } else {
            self.text.len() - 1
        };
        sentinel - pos
    }

    /// Document id owning text position `pos`: one rank query, `O(1)`.
    #[inline]
    pub fn doc_of(&self, pos: usize) -> usize {
        assert!(pos < self.text.len(), "position out of bounds");
        self.sentinels.rank1(pos)
    }

    /// Decodes `text[pos .. pos+len)` back to raw bytes.
    ///
    /// # Panics
    /// Panics if the range crosses a sentinel.
    pub fn decode_substring(&self, pos: usize, len: usize) -> Vec<u8> {
        assert!(pos + len <= self.text.len(), "range out of bounds");
        let base = u32::from(self.alphabet.base());
        (pos..pos + len)
            .map(|p| {
                let c = self.text.code(p);
                assert!(c != SEPARATOR, "range crosses a sentinel");
                (base + c - 1) as u8
            })
            .collect()
    }
}

/// [`CorpusIndex::extend_interval`] over the text's symbols: the ranks of
/// `iv` from `from` on whose suffix has a code in `[lo_code, hi_code)` at
/// offset `depth`.
#[inline]
fn extend_over<T: Narrow>(
    text: &[T],
    sa: &[u32],
    iv: SaInterval,
    depth: usize,
    (lo_code, hi_code): (u32, u32),
    from: u32,
) -> SaInterval {
    // Code of rank r at offset `depth`. Every suffix of a non-empty
    // interval of a sentinel-free `P` reaches offset `depth` (the text ends
    // with a separator); a shorter one would count as minimal.
    let code = |r: u32| text.get(sa[r as usize] as usize + depth).map_or(SEPARATOR, |&c| c.into());
    let lo = gallop(from, iv.hi, |r| code(r) < lo_code);
    let hi = gallop(lo, iv.hi, |r| code(r) < hi_code);
    SaInterval { lo, hi }
}

/// First `r ∈ [start, end)` where `pred` flips from true to false (`end`
/// if it never does), for `pred` true on a prefix of the range. Probes
/// `start + 2^k − 1` for growing `k` until `pred` fails, then binary
/// searches the last gap: `O(log(r − start))` probes.
#[inline]
fn gallop(start: u32, end: u32, pred: impl Fn(u32) -> bool) -> u32 {
    let (mut lo, mut hi) = (start, end);
    let mut step = 1u32;
    while lo < hi {
        let probe = lo + step.min(hi - lo) - 1;
        if pred(probe) {
            lo = probe + 1;
            step = step.saturating_mul(2);
        } else {
            hi = probe;
            break;
        }
    }
    // pred holds on [start, lo) and fails at hi (or hi == end).
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// `count_Δ` over suffix-array intervals at one clip level `Δ`
/// ([`CorpusIndex::clipped_counter`]).
#[derive(Debug, Clone)]
pub struct ClippedCounter<'a> {
    idx: &'a CorpusIndex,
    /// `None` for `Δ ≥ ℓ`, where `count_Δ` is the interval width.
    docs: Option<Cow<'a, DocDistinctCounter>>,
    delta: usize,
}

impl<'a> ClippedCounter<'a> {
    /// The index the counter counts over.
    #[inline]
    pub fn index(&self) -> &'a CorpusIndex {
        self.idx
    }

    /// The clip level `Δ`.
    #[inline]
    pub fn delta(&self) -> usize {
        self.delta
    }

    /// `count_Δ` of the length-`depth` pattern whose interval is `iv`, in
    /// `O(log ℓ)`. Allocation-free: one call per candidate pair in Step 1
    /// and per new trie node in Step 2.
    #[inline]
    pub fn count_in_interval(&self, iv: SaInterval, depth: usize) -> u64 {
        self.idx.debug_check_depth(iv, depth);
        match &self.docs {
            Some(docs) => docs.count(iv, depth) as u64,
            None => iv.count() as u64,
        }
    }

    /// `count_Δ(P, D)`, `O(|P| log N + log ℓ)`.
    pub fn count(&self, pattern: &[u8]) -> u64 {
        if pattern.is_empty() {
            return self.idx.count_clipped_empty(self.delta);
        }
        self.count_in_interval(self.idx.interval(pattern), pattern.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsc_strkit::alphabet::{Alphabet, Database};
    use dpsc_strkit::{naive_contains, naive_count};

    fn paper_db() -> Database {
        Database::paper_example()
    }

    #[test]
    fn counts_match_example_1() {
        let idx = CorpusIndex::build(&paper_db());
        assert_eq!(idx.document_count(b"ab"), 3);
        assert_eq!(idx.count(b"ab"), 4);
        // count_Δ interpolates.
        assert_eq!(idx.count_clipped(b"ab", 1), 3);
        assert_eq!(idx.count_clipped(b"ab", 5), 4);
        // "a" appears 4+1+2+1+0+0 = 8 times.
        assert_eq!(idx.count(b"a"), 8);
        assert_eq!(idx.count_clipped(b"a", 2), 2 + 1 + 2 + 1);
    }

    #[test]
    fn counts_match_naive_on_all_substrings() {
        let db = paper_db();
        let idx = CorpusIndex::build(&db);
        for doc in db.documents() {
            for i in 0..doc.len() {
                for j in i + 1..=doc.len() {
                    let p = &doc[i..j];
                    let want_count: usize = db.documents().iter().map(|d| naive_count(p, d)).sum();
                    let want_docs = db.documents().iter().filter(|d| naive_contains(p, d)).count();
                    assert_eq!(idx.count(p), want_count, "count of {:?}", p);
                    assert_eq!(idx.document_count(p), want_docs, "doc count of {:?}", p);
                    for delta in 1..=db.max_len() {
                        let want: u64 = db
                            .documents()
                            .iter()
                            .map(|d| naive_count(p, d).min(delta) as u64)
                            .sum();
                        assert_eq!(idx.count_clipped(p, delta), want);
                    }
                }
            }
        }
    }

    #[test]
    fn absent_pattern_counts_zero() {
        let idx = CorpusIndex::build(&paper_db());
        assert_eq!(idx.count(b"zz"), 0);
        assert_eq!(idx.document_count(b"zz"), 0);
        assert_eq!(idx.count_clipped(b"zz", 3), 0);
    }

    #[test]
    fn empty_pattern_conventions() {
        let db = paper_db();
        let idx = CorpusIndex::build(&db);
        let total: usize = db.documents().iter().map(|d| d.len()).sum();
        assert_eq!(idx.count(b""), total);
        assert_eq!(idx.document_count(b""), db.n());
        let want: u64 = db.documents().iter().map(|d| d.len().min(2) as u64).sum();
        assert_eq!(idx.count_clipped(b"", 2), want);
    }

    #[test]
    fn occurrences_positions() {
        let idx = CorpusIndex::build(&paper_db());
        let mut occ = idx.occurrences(b"ab");
        occ.sort_unstable();
        // aaaa:none, abe:0, absab:0 and 3, babe:1.
        assert_eq!(occ, vec![(1, 0), (2, 0), (2, 3), (3, 1)]);
    }

    #[test]
    fn doc_lengths_and_remaining() {
        let db = paper_db();
        let idx = CorpusIndex::build(&db);
        let lens: Vec<usize> = idx.doc_lengths().collect();
        assert_eq!(lens, vec![4, 3, 5, 4, 3, 4]);
        // First doc "aaaa": position 0 has 4 symbols remaining.
        assert_eq!(idx.remaining_in_doc(0), 4);
        assert_eq!(idx.remaining_in_doc(3), 1);
        assert_eq!(idx.remaining_in_doc(4), 0); // sentinel position
    }

    #[test]
    fn single_document_corpus() {
        let db = Database::new(Alphabet::lowercase(26), 6, vec![b"banana".to_vec()]).unwrap();
        let idx = CorpusIndex::build(&db);
        assert_eq!(idx.count(b"an"), 2);
        assert_eq!(idx.document_count(b"an"), 1);
        assert_eq!(idx.count_clipped(b"an", 1), 1);
    }

    #[test]
    fn extend_interval_matches_direct_lookup() {
        let db = paper_db();
        let idx = CorpusIndex::build(&db);
        for pat in [&b"a"[..], b"ab", b"abs", b"absab", b"be", b"bees", b"zz", b"az"] {
            let mut iv = idx.full_interval();
            for (depth, &b) in pat.iter().enumerate() {
                iv = idx.extend_interval(iv, depth, b, iv.lo);
            }
            let direct = idx.interval(pat);
            if direct.is_empty() {
                // Empty intervals may differ in position, never in content.
                assert!(iv.is_empty(), "pattern {:?}", pat);
            } else {
                assert_eq!(iv, direct, "pattern {:?}", pat);
            }
        }
    }

    /// Galloping from each smaller sibling's end finds the same children as
    /// starting at the parent's start, present or absent, at every node of
    /// every depth up to 4 of a Markov corpus.
    #[test]
    fn extend_interval_from_a_sibling_matches_from_the_start() {
        use dpsc_workloads::markov_corpus;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let db = markov_corpus(60, 40, 4, 0.6, &mut StdRng::seed_from_u64(23));
        let idx = CorpusIndex::build(&db);
        let symbols: Vec<u8> = (0..=idx.alphabet_size() as u8).map(|i| b'a' + i).collect();
        let mut level = vec![(Vec::new(), idx.full_interval())];
        for depth in 0..4 {
            let mut next = Vec::new();
            for (pat, iv) in &level {
                let mut from = iv.lo;
                for &b in &symbols {
                    let child = idx.extend_interval(*iv, depth, b, from);
                    assert_eq!(child, idx.extend_interval(*iv, depth, b, iv.lo), "{pat:?}+{b}");
                    let p = [pat.as_slice(), &[b]].concat();
                    let direct = idx.interval(&p);
                    assert!(child.count() == direct.count(), "{p:?}");
                    if !direct.is_empty() {
                        assert_eq!(child, direct, "{p:?}");
                        next.push((p, child));
                    }
                    from = child.hi;
                }
            }
            level = next;
        }
        assert!(level.len() > 10, "the corpus branches");
    }

    #[test]
    fn rank_of_inverts_the_suffix_array_and_substrings_decode() {
        let db = paper_db();
        let idx = CorpusIndex::build(&db);
        for (r, &pos) in idx.suffix_array().sa().iter().enumerate() {
            assert_eq!(idx.rank_of(pos as usize), r as u32, "rank of position {pos}");
        }
        let mut pos = 0;
        for doc in db.documents() {
            for i in 0..doc.len() {
                for j in i..=doc.len() {
                    assert_eq!(idx.decode_substring(pos + i, j - i), doc[i..j].to_vec());
                }
            }
            pos += doc.len() + 1;
        }
    }

    /// A corpus over "ab" whose first sentinel sits at text position `bit`,
    /// followed by enough documents to span the next rank block.
    fn corpus_with_sentinel_at(bit: usize) -> Database {
        let letters = |len: usize, seed: usize| -> Vec<u8> {
            (0..len).map(|k| b"ab"[(seed * 7 + k * k + k / 3) % 2]).collect()
        };
        let mut docs = vec![letters(bit, bit)];
        let mut len = bit + 1;
        while len < bit + 700 {
            let doc_len = 1 + (docs.len() * 37) % 90;
            docs.push(letters(doc_len, docs.len()));
            len += doc_len + 1;
        }
        Database::from_documents(Alphabet::lowercase(2), docs).unwrap()
    }

    #[test]
    fn doc_lookups_match_naive_at_rank_word_and_block_edges() {
        for bit in [63usize, 64, 511, 512] {
            let db = corpus_with_sentinel_at(bit);
            let idx = CorpusIndex::build(&db);
            let mut naive_doc = Vec::new();
            let mut naive_remaining = Vec::new();
            for (d, doc) in db.documents().iter().enumerate() {
                naive_doc.extend(std::iter::repeat_n(d, doc.len() + 1));
                naive_remaining.extend((0..=doc.len()).rev());
            }
            assert_eq!(naive_doc[bit], 0);
            assert_eq!(naive_doc[bit + 1], 1);
            for pos in 0..idx.text_len() {
                assert_eq!(idx.doc_of(pos), naive_doc[pos], "bit {bit} pos {pos}");
                assert_eq!(idx.remaining_in_doc(pos), naive_remaining[pos], "bit {bit} pos {pos}");
            }
            for pat in [&b"a"[..], b"ab", b"bba", b"abab", b"aabb"] {
                let mut got = idx.occurrences(pat);
                got.sort_unstable();
                let mut want = Vec::new();
                for (d, doc) in db.documents().iter().enumerate() {
                    for (off, w) in doc.windows(pat.len()).enumerate() {
                        if w == pat {
                            want.push((d, off));
                        }
                    }
                }
                assert_eq!(got, want, "bit {bit} pattern {pat:?}");
            }
        }
    }

    /// The derived clipped counters (`1 < Δ < ℓ`) on a corpus that spans
    /// hundreds of rank blocks.
    #[test]
    fn clipped_counts_match_naive_on_a_markov_corpus() {
        use dpsc_workloads::markov_corpus;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let db = markov_corpus(400, 48, 4, 0.6, &mut StdRng::seed_from_u64(21));
        let idx = CorpusIndex::build(&db);
        let counters = [idx.clipped_counter(2), idx.clipped_counter(db.max_len() - 1)];
        let docs = db.documents();
        let mut rng = StdRng::seed_from_u64(22);
        for _ in 0..300 {
            let doc = &docs[rng.gen_range(0..docs.len())];
            let start = rng.gen_range(0..doc.len());
            let len = rng.gen_range(1..=6usize).min(doc.len() - start);
            let p = &doc[start..start + len];
            for counter in &counters {
                let delta = counter.delta();
                let want: u64 = docs.iter().map(|d| naive_count(p, d).min(delta) as u64).sum();
                assert_eq!(counter.count(p), want, "{p:?} at Δ = {delta}");
            }
        }
    }
}
