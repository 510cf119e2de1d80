//! Suffix array construction (SA-IS) over byte and small-integer texts.
//!
//! The paper builds the suffix tree of `S = S_1 $_1 S_2 $_2 … S_n $_n` (proof
//! of Lemma 7). We build the equivalent suffix *array* in linear time with
//! SA-IS (Nong–Zhang–Chan), plus the LCP array ([`crate::lcp`]); together
//! they expose the same interface (pattern intervals, node frequencies,
//! string depths) as the suffix tree of Farach-Colton et al. \[29, 30\] used by
//! the paper — see DESIGN.md §2 for the substitution table.
//!
//! Two text forms are supported:
//! * plain byte texts ([`SuffixArray::from_bytes`]);
//! * integer texts with alphabets larger than 256
//!   ([`SuffixArray::from_ints`], or [`SuffixArray::from_int_vec`] over an
//!   owned text) — needed for the generalized text with `n` distinct
//!   sentinels `$_1 < … < $_n < Σ`.
//!
//! Construction runs on `u32` arrays, with `u32::MAX` marking an empty slot.
//! Its input is the text shifted up by one with a 0 sentinel appended:
//! `from_bytes` and `from_ints` write it as a copy of the text, while
//! `from_int_vec` consumes its text and shifts it in place. Besides the
//! input and the output it allocates one type byte per position and the
//! bucket arrays: the sorted LMS suffixes, their names and the reduced
//! string of each recursion level all live in the output array, as in
//! Nong's reference implementation. The input is freed before the
//! constructor returns, and only the suffix array is kept; the inverse
//! permutation is computed on demand ([`SuffixArray::inverse`]).

/// Marks an unfilled slot of the suffix array under construction.
const EMPTY: u32 = u32::MAX;

/// A suffix array over a text.
///
/// Invariant: `sa` is a permutation of `0..n` such that
/// `text[sa[i]..] < text[sa[i+1]..]` lexicographically.
#[derive(Debug, Clone)]
pub struct SuffixArray {
    sa: Vec<u32>,
}

impl SuffixArray {
    /// Builds the suffix array of a byte text in `O(n)` time.
    ///
    /// Specialized byte path: bytes always fit the `σ = 256` alphabet, so
    /// this skips both the per-symbol alphabet check and the intermediate
    /// `Vec<u32>` copy that routing through [`Self::from_ints`] would cost,
    /// building the shifted SA-IS input directly.
    pub fn from_bytes(text: &[u8]) -> Self {
        let mut s = shifted_input(text.len());
        s.extend(text.iter().map(|&b| u32::from(b) + 1));
        Self::from_shifted(s, 257)
    }

    /// Builds the suffix array of an integer text whose symbols lie in
    /// `[0, sigma)` in `O(n + sigma)` time.
    ///
    /// # Panics
    /// Panics if any symbol is `>= sigma`, if `sigma >= u32::MAX`, or if the
    /// text plus its sentinel does not fit `u32` positions.
    pub fn from_ints(text: &[u32], sigma: usize) -> Self {
        assert_in_alphabet(text, sigma);
        // Shift symbols by +1 so SA-IS can append a unique smallest
        // sentinel 0; its suffix is stripped from the result.
        let mut s = shifted_input(text.len());
        s.extend(text.iter().map(|&c| c + 1));
        Self::from_shifted(s, sigma + 1)
    }

    /// [`Self::from_ints`] over an owned text, which becomes SA-IS's input:
    /// its symbols are shifted in place and it is freed before this
    /// returns, so no second copy of the text is made. Give it room for one
    /// more symbol (the appended sentinel), or appending it reallocates.
    ///
    /// # Panics
    /// As [`Self::from_ints`].
    pub fn from_int_vec(mut text: Vec<u32>, sigma: usize) -> Self {
        assert_in_alphabet(&text, sigma);
        assert!(text.len() + 1 < EMPTY as usize, "text too long for u32 indexing");
        for c in &mut text {
            *c += 1;
        }
        Self::from_shifted(text, sigma + 1)
    }

    /// Shared tail of the constructors: appends the sentinel to the shifted
    /// input `s`, runs SA-IS and strips the sentinel suffix in place.
    fn from_shifted(mut s: Vec<u32>, sigma: usize) -> Self {
        let n = s.len();
        if n == 0 {
            return Self { sa: Vec::new() };
        }
        s.push(0);
        let mut sa = vec![EMPTY; n + 1];
        sais(&s, sigma, &mut sa);
        drop(s);
        // The sentinel suffix (position n) is the smallest.
        debug_assert_eq!(sa[0] as usize, n);
        sa.remove(0);
        Self { sa }
    }

    /// The suffix array: `self.sa()[i]` is the start of the `i`-th smallest
    /// suffix.
    #[inline]
    pub fn sa(&self) -> &[u32] {
        &self.sa
    }

    /// The inverse permutation, computed in `O(n)`: `self.inverse()[p]` is
    /// the lexicographic rank of the suffix starting at `p`.
    pub fn inverse(&self) -> Vec<u32> {
        let mut inv = vec![0u32; self.sa.len()];
        for (r, &p) in self.sa.iter().enumerate() {
            inv[p as usize] = r as u32;
        }
        inv
    }

    /// Heap memory held by the array, in bytes.
    pub fn heap_bytes(&self) -> usize {
        4 * self.sa.capacity()
    }

    /// Text length.
    #[inline]
    pub fn len(&self) -> usize {
        self.sa.len()
    }

    /// Whether the text is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.sa.is_empty()
    }
}

/// Checks that every symbol of `text` lies in `[0, sigma)` and that the
/// shifted alphabet fits SA-IS's `u32` buckets.
fn assert_in_alphabet(text: &[u32], sigma: usize) {
    assert!(sigma < EMPTY as usize, "alphabet too large for u32 buckets");
    assert!(text.iter().all(|&c| (c as usize) < sigma), "text symbol outside declared alphabet");
}

/// An empty SA-IS input with room for `n` symbols and the sentinel.
///
/// # Panics
/// Panics unless `n + 1 < u32::MAX`: every position, the sentinel's
/// included, must differ from the [`EMPTY`] marker.
fn shifted_input(n: usize) -> Vec<u32> {
    assert!(n + 1 < EMPTY as usize, "text too long for u32 indexing");
    Vec::with_capacity(n + 1)
}

/// Naive `O(n² log n)` suffix array used as ground truth in tests.
pub fn naive_suffix_array(text: &[u8]) -> Vec<u32> {
    let mut sa: Vec<u32> = (0..text.len() as u32).collect();
    sa.sort_by(|&a, &b| text[a as usize..].cmp(&text[b as usize..]));
    sa
}

/// Type of each suffix: S-type (`true`) or L-type (`false`).
fn classify(s: &[u32]) -> Vec<bool> {
    let n = s.len();
    let mut is_s = vec![false; n];
    is_s[n - 1] = true;
    for i in (0..n - 1).rev() {
        is_s[i] = s[i] < s[i + 1] || (s[i] == s[i + 1] && is_s[i + 1]);
    }
    is_s
}

#[inline]
fn is_lms(is_s: &[bool], i: usize) -> bool {
    i > 0 && is_s[i] && !is_s[i - 1]
}

/// Computes, for each symbol, the exclusive end of its bucket (`tails=true`)
/// or the inclusive start (`tails=false`).
fn buckets(s: &[u32], sigma: usize, tails: bool) -> Vec<u32> {
    let mut count = vec![0u32; sigma];
    for &c in s {
        count[c as usize] += 1;
    }
    let mut sum = 0u32;
    for c in count.iter_mut() {
        let size = *c;
        if tails {
            sum += size;
            *c = sum; // exclusive end
        } else {
            *c = sum; // inclusive start
            sum += size;
        }
    }
    count
}

/// Induced sorting: given LMS suffixes already placed in `sa` (everything
/// else [`EMPTY`]), fill in L-type then S-type suffixes.
fn induce(s: &[u32], sigma: usize, is_s: &[bool], sa: &mut [u32]) {
    let n = s.len();
    // Left-to-right pass placing L-type suffixes at bucket heads.
    let mut heads = buckets(s, sigma, false);
    for i in 0..n {
        let p = sa[i];
        if p == EMPTY || p == 0 {
            continue;
        }
        let j = p as usize - 1;
        if !is_s[j] {
            let c = s[j] as usize;
            sa[heads[c] as usize] = j as u32;
            heads[c] += 1;
        }
    }
    // Right-to-left pass placing S-type suffixes at bucket tails.
    let mut tails = buckets(s, sigma, true);
    for i in (0..n).rev() {
        let p = sa[i];
        if p == EMPTY || p == 0 {
            continue;
        }
        let j = p as usize - 1;
        if is_s[j] {
            let c = s[j] as usize;
            tails[c] -= 1;
            sa[tails[c] as usize] = j as u32;
        }
    }
}

/// SA-IS over `s` with symbols in `[0, sigma)` into `sa` (`sa.len() ==
/// s.len()`); `s` must end with a unique smallest sentinel (value 0
/// appearing exactly once, at the end).
fn sais(s: &[u32], sigma: usize, sa: &mut [u32]) {
    let n = s.len();
    debug_assert_eq!(sa.len(), n);
    debug_assert_eq!(s[n - 1], 0);
    if n == 1 {
        sa[0] = 0;
        return;
    }
    let is_s = classify(s);

    // Step 1: place LMS suffixes at the ends of their buckets (arbitrary
    // order) and induce to approximately sort them.
    sa.fill(EMPTY);
    let mut tails = buckets(s, sigma, true);
    for i in (1..n).rev() {
        if is_lms(&is_s, i) {
            let c = s[i] as usize;
            tails[c] -= 1;
            sa[tails[c] as usize] = i as u32;
        }
    }
    induce(s, sigma, &is_s, sa);

    // Step 2: compact the (now sorted) LMS suffixes into `sa[..m]`. There
    // are `m ≤ n / 2` of them, since no two LMS positions are adjacent.
    let mut m = 0usize;
    for i in 0..n {
        let p = sa[i];
        if p != EMPTY && is_lms(&is_s, p as usize) {
            sa[m] = p;
            m += 1;
        }
    }
    // Name LMS substrings in sorted order (equal adjacent substrings share
    // a name). Position `p`'s name goes to `sa[m + p / 2]`: the halves of
    // non-adjacent positions are distinct and land past the sorted prefix.
    sa[m..].fill(EMPTY);
    let mut name = 0u32;
    for k in 0..m {
        let p = sa[k] as usize;
        if k > 0 && !lms_substrings_equal(s, &is_s, sa[k - 1] as usize, p) {
            name += 1;
        }
        sa[m + p / 2] = name;
    }
    let num_names = name as usize + 1;
    // Gather the names in text order into the tail `sa[n - m..]`: the
    // reduced string. Scanning right to left never overwrites an unread
    // name.
    let mut j = n;
    for i in (m..n).rev() {
        if sa[i] != EMPTY {
            j -= 1;
            sa[j] = sa[i];
        }
    }

    // Step 3: sort the reduced string into `sa[..m]` (recursing while
    // names repeat), then map its indices back to LMS positions, reusing
    // the tail for the LMS positions in text order.
    let (head, tail) = sa.split_at_mut(n - m);
    let sorted = &mut head[..m];
    if num_names < m {
        sais(tail, num_names, sorted);
    } else {
        for (i, &name) in tail.iter().enumerate() {
            sorted[name as usize] = i as u32;
        }
    }
    let mut j = 0;
    for i in 1..n {
        if is_lms(&is_s, i) {
            tail[j] = i as u32;
            j += 1;
        }
    }
    for r in sorted.iter_mut() {
        *r = tail[*r as usize];
    }

    // Step 4: final induced sort from the exactly-sorted LMS suffixes,
    // moved from `sa[..m]` to their bucket tails largest first. The `k`-th
    // smallest lands at a slot `≥ k`, so no unread entry is overwritten.
    sa[m..].fill(EMPTY);
    let mut tails = buckets(s, sigma, true);
    for k in (0..m).rev() {
        let p = std::mem::replace(&mut sa[k], EMPTY);
        let c = s[p as usize] as usize;
        tails[c] -= 1;
        sa[tails[c] as usize] = p;
    }
    induce(s, sigma, &is_s, sa);
}

/// Compares the LMS substrings starting at `a` and `b` for equality.
///
/// An LMS substring runs from an LMS position to the next LMS position
/// (inclusive); the sentinel's LMS substring is just the sentinel.
fn lms_substrings_equal(s: &[u32], is_s: &[bool], a: usize, b: usize) -> bool {
    let n = s.len();
    if a == n - 1 || b == n - 1 {
        return a == b;
    }
    let mut i = 0usize;
    loop {
        let pa = a + i;
        let pb = b + i;
        let a_end = i > 0 && is_lms(is_s, pa);
        let b_end = i > 0 && is_lms(is_s, pb);
        if a_end && b_end {
            return true;
        }
        if a_end != b_end || s[pa] != s[pb] || is_s[pa] != is_s[pb] {
            return false;
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Checks `sa` against a naive sort of the suffixes of `text`, and its
    /// inverse against the definition.
    fn check_ints(text: &[u32], sa: &SuffixArray) {
        let mut expected: Vec<u32> = (0..text.len() as u32).collect();
        expected.sort_by(|&a, &b| text[a as usize..].cmp(&text[b as usize..]));
        assert_eq!(sa.sa(), expected.as_slice(), "text={text:?}");
        let inv = sa.inverse();
        for (r, &p) in sa.sa().iter().enumerate() {
            assert_eq!(inv[p as usize] as usize, r);
        }
    }

    fn check(text: &[u8]) {
        let sa = SuffixArray::from_bytes(text);
        assert_eq!(sa.sa(), naive_suffix_array(text).as_slice(), "text={:?}", text);
        let ints: Vec<u32> = text.iter().map(|&b| b as u32).collect();
        check_ints(&ints, &sa);
    }

    /// Number of SA-IS levels `text` needs: one more for every level whose
    /// LMS substrings still repeat. Names come from a naive sort of the LMS
    /// suffixes, so this mirrors the construction without running it.
    fn recursion_depth(text: &[u32]) -> usize {
        let mut s: Vec<u32> = text.iter().map(|&c| c + 1).collect();
        s.push(0);
        for depth in 1.. {
            let is_s = classify(&s);
            let mut lms: Vec<usize> = (1..s.len()).filter(|&i| is_lms(&is_s, i)).collect();
            let text_order = lms.clone();
            lms.sort_by(|&a, &b| s[a..].cmp(&s[b..]));
            let mut name_of = vec![0u32; s.len()];
            for k in 1..lms.len() {
                let same = lms_substrings_equal(&s, &is_s, lms[k - 1], lms[k]);
                name_of[lms[k]] = name_of[lms[k - 1]] + u32::from(!same);
            }
            if name_of[lms[lms.len() - 1]] as usize + 1 == lms.len() {
                return depth;
            }
            s = text_order.iter().map(|&p| name_of[p]).collect();
        }
        unreachable!()
    }

    #[test]
    fn empty_and_tiny() {
        check(b"");
        check(b"a");
        check(b"aa");
        check(b"ab");
        check(b"ba");
    }

    #[test]
    fn classic_examples() {
        check(b"banana");
        check(b"mississippi");
        check(b"abracadabra");
        check(b"aaaaaaaaaa");
        check(b"abababab");
        check(b"cabbage");
    }

    #[test]
    fn paper_concatenation() {
        // S = S_1 $_1 ... S_n $_n with sentinels encoded as ints below Σ.
        let docs: [&[u8]; 3] = [b"aaaa", b"abe", b"absab"];
        let mut ints = Vec::new();
        let n_docs = docs.len() as u32;
        for (i, d) in docs.iter().enumerate() {
            ints.extend(d.iter().map(|&b| b as u32 + n_docs));
            ints.push(i as u32); // sentinel $_i, all distinct and < letters
        }
        let sa = SuffixArray::from_ints(&ints, 256 + n_docs as usize);
        check_ints(&ints, &sa);
    }

    #[test]
    fn byte_and_int_constructors_agree() {
        // The specialized byte path must produce bit-identical output to
        // routing the same text through the generic integer path.
        let mut state = 0x9E37_79B9_7F4A_7C15u64; // splitmix64
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for trial in 0..40 {
            let len = (next() % 200) as usize;
            // Mix narrow and full-byte alphabets across trials.
            let sigma = if trial % 2 == 0 { 3 } else { 256 };
            let text: Vec<u8> = (0..len).map(|_| (next() % sigma) as u8).collect();
            let by_bytes = SuffixArray::from_bytes(&text);
            let ints: Vec<u32> = text.iter().map(|&b| b as u32).collect();
            let by_ints = SuffixArray::from_ints(&ints, 256);
            assert_eq!(by_bytes.sa(), by_ints.sa(), "trial {trial}, text={text:?}");
            assert_eq!(by_bytes.inverse(), by_ints.inverse(), "trial {trial}");
        }
    }

    /// The consuming constructor sorts as the borrowing one does, with and
    /// without room for the sentinel.
    #[test]
    fn owned_and_borrowed_int_constructors_agree() {
        let docs: [&[u8]; 4] = [b"abab", b"", b"ba", b"abba"];
        let mut ints = Vec::new();
        for (i, d) in docs.iter().enumerate() {
            ints.extend(d.iter().map(|&b| u32::from(b - b'a') + 4));
            ints.push(i as u32);
        }
        let want = SuffixArray::from_ints(&ints, 6);
        check_ints(&ints, &want);
        let mut roomy = Vec::with_capacity(ints.len() + 1);
        roomy.extend_from_slice(&ints);
        assert_eq!(SuffixArray::from_int_vec(roomy, 6).sa(), want.sa());
        assert_eq!(SuffixArray::from_int_vec(ints.clone(), 6).sa(), want.sa());
        assert!(SuffixArray::from_int_vec(Vec::new(), 1).is_empty());
    }

    #[test]
    fn all_distinct_symbols() {
        check(b"zyxwvutsrq");
        check(b"abcdefghij");
    }

    #[test]
    fn repetitive_blocks() {
        check(b"aabaabaabaab");
        check(b"abaababaabaababaababa");
    }

    /// Generalized texts with thousands of distinct sentinels, the shape
    /// `CorpusIndex` builds: many tiny documents over a two-letter alphabet.
    #[test]
    fn thousands_of_sentinels() {
        for n_docs in [1000u32, 3000] {
            let mut ints = Vec::new();
            for i in 0..n_docs {
                let len = (i * 7 + 3) % 6;
                ints.extend((0..len).map(|k| n_docs + (i * i + k) % 2));
                ints.push(i);
            }
            let sa = SuffixArray::from_ints(&ints, n_docs as usize + 2);
            check_ints(&ints, &sa);
        }
    }

    /// Texts that keep SA-IS recursing sort correctly: a Fibonacci word,
    /// the Thue–Morse word and a nested period-3 word (`w ← w·w·b`) each
    /// need at least three levels. A unary run (one level: its only LMS
    /// suffix is the sentinel) and a flat period-3 text (two levels: one
    /// repeated LMS substring) are the degenerate ends.
    #[test]
    fn deep_recursion() {
        let (mut fib, mut prev) = (b"ab".to_vec(), b"a".to_vec());
        while fib.len() < 2000 {
            let next = [fib.as_slice(), prev.as_slice()].concat();
            prev = std::mem::replace(&mut fib, next);
        }
        let thue_morse: Vec<u8> = (0..2048u32).map(|i| b'a' + (i.count_ones() % 2) as u8).collect();
        let mut nested = b"a".to_vec();
        while nested.len() < 1500 {
            nested = [nested.as_slice(), nested.as_slice(), b"b"].concat();
        }
        let unary = vec![b'a'; 1500];
        let period3: Vec<u8> = (0..1800).map(|i| b"abc"[i % 3]).collect();
        let depth =
            |text: &[u8]| recursion_depth(&text.iter().map(|&c| c as u32).collect::<Vec<_>>());
        for text in [fib, thue_morse, nested] {
            assert!(depth(&text) >= 3, "depth {} for {:?}…", depth(&text), &text[..12]);
            check(&text);
        }
        for (text, levels) in [(unary, 1), (period3, 2)] {
            assert_eq!(depth(&text), levels);
            check(&text);
        }
    }
}
