//! Step 1: differentially private candidate-set construction
//! (Lemma 6 for ε-DP, Lemma 15 for (ε,δ)-DP).
//!
//! The candidate set `C ⊆ Σ^[1,ℓ]` shrinks the universe from `|Σ|^ℓ` to
//! `≤ n²ℓ³` while guaranteeing (w.h.p.) that every string *not* in `C` has
//! a small true count. Construction is by length doubling:
//!
//! 1. `P_1` = letters with noisy `count_Δ ≥ τ`;
//! 2. `P_{2^k}` = concatenations of two `P_{2^{k-1}}` strings with noisy
//!    `count_Δ ≥ τ` (noise added to *every* pair, including pairs whose true
//!    count is 0 — required for privacy);
//! 3. for every non-power length `m ∈ (2^k, 2^{k+1})`, `C_m` = strings whose
//!    length-`2^k` prefix **and** suffix are both in `P_{2^k}` (pure
//!    post-processing: the overlap test never touches the database).
//!
//! Each doubling level spends `ε/(⌊log ℓ⌋+1)` (and `δ/(⌊log ℓ⌋+1)`) of the
//! step's budget; per-level sensitivity is `2ℓ` in L1 (Corollary 3) and
//! `√(2ℓΔ)` in L2 (Corollary 6, via Hölder).
//!
//! ## Lookup engineering
//! The paper asks substring-concatenation queries against the suffix tree
//! (\[7,8\]); we answer them from the text instead of probing every pair.
//! Every candidate carries its suffix-array interval, so the concatenations
//! `q1 · q2` that occur are exactly the depth-`2^k` runs inside `q1`'s
//! interval: one LCP walk over that interval splits it into runs, and each
//! run's second half is resolved to its row exactly by its suffix-array
//! rank (`CorpusIndex::rank_of`): a level is sorted and its rows have one
//! length, so their non-empty intervals are disjoint and ascending, and a
//! search over their starts finds the row whose interval holds the rank.
//! The runs of one walk have ascending ranks, so that search gallops
//! forward from the previous run's row. The pair scan then walks all `|P|`
//! columns, draws the noise of every pair, and counts only the occurring
//! ones. A pair that does not occur has count 0, and its decision
//! `0 + noise ≥ τ` is read off its uniform draw by the level's
//! [`dpsc_dpcore::NoiseCut`], in `O(1)` with no logarithm; the draws and
//! decisions are those of computing the sample. The walks of a level cover
//! disjoint intervals, so they read the SA and LCP arrays at most once; on
//! sparse levels they touch a small part of them. Suffix/prefix overlaps
//! for `C_m` join candidates on their overlapping bytes. The output goes
//! into one byte arena ([`CandidateStrings`]). See DESIGN.md §2 for the
//! substitution rationale.
//!
//! The scan's running time depends on the data (which pairs occur, and
//! how many), a timing channel outside the DP model; DESIGN.md §7
//! "Timing" has the details. No count of it goes into spans, the trace
//! ring or metrics.
//!
//! ## Noise streams
//! The pair scan of each doubling level carries almost all of Step 1's
//! noise draws (`|P|²` per level, one per pair — absent pairs included, as
//! privacy requires). It walks the `Q_1` rows in **fixed-size chunks**;
//! each chunk draws its noise from its own RNG stream, derived
//! SplitMix64-style from a single base draw off the caller's RNG (the same
//! derivation pattern as `dpsc_audit::matrix`) and keyed by the level and
//! chunk index. These streams are part of the release's definition: the
//! golden digests pin the candidate sets they produce.

use std::collections::HashMap;
use std::ops::ControlFlow;

use dpsc_dpcore::budget::PrivacyParams;
use dpsc_dpcore::noise::Noise;
use dpsc_strkit::search::SaInterval;
use dpsc_textindex::{ClippedCounter, CorpusIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for candidate construction.
#[derive(Debug, Clone, Copy)]
pub struct CandidateParams {
    /// The clip level `Δ ∈ [1, ℓ]` of `count_Δ`.
    pub delta_clip: usize,
    /// Privacy budget for the whole of Step 1.
    pub privacy: PrivacyParams,
    /// Failure probability for the whole of Step 1.
    pub beta: f64,
    /// Threshold override: if set, use this `τ` instead of the analytic
    /// `2α`. Privacy is unaffected (thresholding noisy counts is
    /// post-processing); only the accuracy guarantee changes.
    pub tau_override: Option<f64>,
    /// Maximum candidate-set size per level before aborting (paper: `nℓ`).
    /// `None` uses `nℓ`.
    pub level_cap_override: Option<usize>,
}

/// Error: a level exceeded the `nℓ` cap (the paper's FAIL outcome, which
/// happens with probability ≤ β under the analysis).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateOverflow {
    /// The level (string length `2^level`) that overflowed.
    pub level: usize,
    /// Number of strings that passed the threshold.
    pub size: usize,
    /// The cap that was exceeded.
    pub cap: usize,
}

impl std::fmt::Display for CandidateOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "candidate level 2^{} overflowed: {} strings > cap {}",
            self.level, self.size, self.cap
        )
    }
}

impl std::error::Error for CandidateOverflow {}

/// The output of Step 1.
#[derive(Debug, Clone)]
pub struct CandidateSet {
    /// All candidate strings (the union of the `P_{2^k}` and the `C_m`),
    /// deduplicated by construction, in one byte arena.
    pub strings: CandidateStrings,
    /// Analytic error bound `α`: strings outside the set have
    /// `count_Δ < 3α` w.p. ≥ 1−β.
    pub alpha: f64,
    /// The threshold used.
    pub tau: f64,
    /// Sizes of `P_{2^k}` per level (diagnostics).
    pub level_sizes: Vec<usize>,
}

/// Strings stored end to end in one byte arena, with the end offset of
/// each: Step 1's output, which Step 2 sorts as slices of the arena and
/// then frees. One arena instead of one heap block per string keeps the
/// sort's comparisons in one allocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CandidateStrings {
    bytes: Vec<u8>,
    /// String `i` is `bytes[ends[i - 1]..ends[i]]` (from 0 for `i = 0`).
    ends: Vec<usize>,
}

impl CandidateStrings {
    /// Number of strings.
    #[inline]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether there are no strings.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The strings in the order they were pushed.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[u8]> + '_ {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let s = &self.bytes[start..end];
            start = end;
            s
        })
    }

    /// Appends `s`.
    fn push(&mut self, s: &[u8]) {
        self.push_concat(s, b"");
    }

    /// Appends the concatenation `a · b`.
    fn push_concat(&mut self, a: &[u8], b: &[u8]) {
        self.bytes.extend_from_slice(a);
        self.bytes.extend_from_slice(b);
        self.ends.push(self.bytes.len());
    }
}

impl<S: AsRef<[u8]>> FromIterator<S> for CandidateStrings {
    fn from_iter<I: IntoIterator<Item = S>>(iter: I) -> Self {
        let mut out = Self::default();
        for s in iter {
            out.push(s.as_ref());
        }
        out
    }
}

/// Memory safety valve for the overlap extension: at 2^22 strings per
/// length the construction is already far past any useful regime (the
/// paper's bound is |C_m| ≤ (nℓ)²), so we stop materializing rather than
/// exhaust memory.
pub const OVERLAP_SAFETY_CAP: usize = 1 << 22;

/// One candidate string with its suffix-array interval (empty for
/// candidates absent from the corpus). Carrying the interval lets the next
/// level's pair scan find the occurring concatenations by walking it.
#[derive(Debug, Clone)]
pub(crate) struct Cand {
    pub(crate) bytes: Vec<u8>,
    pub(crate) iv: SaInterval,
}

pub(crate) use dpsc_dpcore::stream::derive_stream;

/// Stream tag for chunk `chunk` of level `level` (level 0 = the letter
/// scan, which is chunk 0 of level 0).
#[inline]
fn stream_tag(level: usize, chunk: usize) -> u64 {
    ((level as u64) << 40) | chunk as u64
}

/// `Q_1` rows per pair-scan chunk: each chunk draws from its own stream, so
/// this constant is part of the release's definition.
const PAIR_CHUNK_ROWS: usize = 16;

/// The rows of one level that occur in the text, by interval. A level is
/// sorted and its strings have one length, so their non-empty intervals
/// are disjoint and ascend with the row; absent rows (empty intervals) can
/// never match.
struct RowIntervals<'a> {
    cands: &'a [Cand],
    /// Interval starts of the occurring rows, ascending.
    starts: Vec<u32>,
    /// The row of each start.
    rows: Vec<u32>,
}

impl<'a> RowIntervals<'a> {
    fn new(cands: &'a [Cand]) -> Self {
        let (starts, rows) = cands
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.iv.is_empty())
            .map(|(row, c)| (c.iv.lo, row as u32))
            .unzip();
        let table = Self { cands, starts, rows };
        debug_assert!(table.starts.is_sorted_by(|a, b| a < b));
        table
    }

    /// The row whose interval holds `rank`: the last start `≤ rank`, if
    /// its interval reaches past `rank`.
    ///
    /// `seen` counts the starts `≤` the previous rank asked for, and must
    /// not exceed the count for `rank` (start it at 0 and ask for ascending
    /// ranks). The search gallops forward from it and updates it, so a
    /// walk's ascending ranks cost `O(log gap)` each, not `O(log |P|)`.
    #[inline]
    fn get(&self, rank: u32, seen: &mut usize) -> Option<u32> {
        let rest = &self.starts[*seen..];
        let mut bound = 1;
        while bound < rest.len() && rest[bound] <= rank {
            bound *= 2;
        }
        let window = &rest[bound / 2..bound.min(rest.len())];
        *seen += bound / 2 + window.partition_point(|&lo| lo <= rank);
        let row = self.rows[seen.checked_sub(1)?];
        (rank < self.cands[row as usize].iv.hi).then_some(row)
    }
}

/// Output of the doubling phase: the sets `P_{2^0} … P_{2^max_power}` with
/// the per-level accuracy parameters.
pub(crate) struct DoublingLevels {
    pub(crate) levels: Vec<Vec<Cand>>,
    pub(crate) alpha: f64,
    pub(crate) tau: f64,
}

/// Runs the doubling construction `P_{2^0} … P_{2^max_power}`, spending
/// `privacy` split evenly over the `max_power + 1` levels. Used by the
/// full candidate construction (`max_power = ⌊log ℓ⌋`) and by the q-gram
/// algorithm of Theorem 3 (`max_power = ⌊log q⌋`).
///
/// All noise flows from chunk streams derived off a single base draw from
/// `rng` (see the module docs). `counts` gives the index and `Δ`.
#[allow(clippy::too_many_arguments)] // crate-internal; parameters are the paper's own knobs
pub(crate) fn doubling_levels<R: Rng + ?Sized>(
    counts: &ClippedCounter<'_>,
    privacy: PrivacyParams,
    beta: f64,
    gaussian: bool,
    tau_override: Option<f64>,
    cap: usize,
    max_power: usize,
    rng: &mut R,
) -> Result<DoublingLevels, CandidateOverflow> {
    let idx = counts.index();
    let delta_clip = counts.delta();
    let ell = idx.max_len();
    let n = idx.n_docs();
    let sigma = idx.alphabet_size();
    let num_levels = max_power + 1;
    let level_privacy = privacy.split_even(num_levels);
    let beta_level = beta / num_levels as f64;
    let k_counts = ((ell * ell) as f64 * (n * n) as f64).max(sigma as f64);
    let (noise, alpha) =
        level_noise(gaussian, level_privacy, ell, delta_clip, k_counts, beta_level);
    let tau = tau_override.unwrap_or(2.0 * alpha);
    let stream_base: u64 = rng.gen();

    // Level 0: all letters of Σ (absent letters included, with noise on 0 —
    // required for privacy). |Σ| draws: sequential, own stream.
    let mut rng0 = StdRng::seed_from_u64(derive_stream(stream_base, stream_tag(0, 0)));
    let mut current: Vec<Cand> = Vec::new();
    for sym_idx in 0..sigma {
        let letter = idx.alphabet_base() + sym_idx as u8;
        let iv = idx.interval(&[letter]);
        let c = counts.count_in_interval(iv, 1) as f64;
        if c + noise.sample(&mut rng0) >= tau {
            current.push(Cand { bytes: vec![letter], iv });
        }
    }
    if current.len() > cap {
        return Err(CandidateOverflow { level: 0, size: current.len(), cap });
    }
    let mut levels = vec![current];

    for k in 1..=max_power {
        let len = 1usize << k;
        if len > ell {
            break;
        }
        let current = levels.last().expect("at least level 0");
        let next = scan_level_pairs(counts, current, noise, tau, cap, len, k, stream_base)
            .map_err(|size| CandidateOverflow { level: k, size, cap })?;
        levels.push(next);
    }
    Ok(DoublingLevels { levels, alpha, tau })
}

/// The concatenations `q1 · P[j]` of length `2·half` that occur in the
/// text, as `(j, interval)` in ascending `j`, for the `Q_1` row whose
/// depth-`half` interval is `iv`. Written to `out`.
///
/// Walks `iv` once, splitting it into depth-`2·half` runs with the LCP
/// array (as [`dpsc_textindex::depth_groups`] does, but only inside `iv`),
/// and resolves each run's second half by its rank in `rows`; the ranks of
/// one walk ascend, so `rows` is searched forward from the previous one.
/// No run needs a check that `2·half` symbols are left in its document:
/// every suffix in `iv` starts with `q1`, so `pos + half` is a text
/// position, and its rank lies in a row's interval only if the `half`
/// symbols there spell that row, with no sentinel. A suffix that meets a
/// sentinel within `2·half` symbols is a run of its own (sentinels are
/// unique, so no LCP reaches past one) and resolves to no row.
fn occurring_pairs(
    idx: &CorpusIndex,
    iv: SaInterval,
    rows: &RowIntervals<'_>,
    half: usize,
    out: &mut Vec<(u32, SaInterval)>,
) {
    out.clear();
    let sa = idx.suffix_array().sa();
    let lcp = idx.lcp().values();
    let len = 2 * half;
    let hi = iv.hi as usize;
    let mut r = iv.lo as usize;
    let mut seen = 0;
    while r < hi {
        let mut end = r + 1;
        while end < hi && lcp[end] as usize >= len {
            end += 1;
        }
        if let Some(j) = rows.get(idx.rank_of(sa[r] as usize + half), &mut seen) {
            out.push((j, SaInterval { lo: r as u32, hi: end as u32 }));
        }
        r = end;
    }
    // Runs come in lexicographic order of their second halves, and a level
    // is itself sorted (letters in order, then pairs in `(q1, q2)` order),
    // so the rows arrive ascending.
    debug_assert!(out.is_sorted_by_key(|&(j, _)| j));
}

/// Scans all `|P|²` concatenation pairs of one doubling level, adding noise
/// to every pair's clipped count and keeping those that clear `tau`.
/// Only the pairs that occur in the text are counted
/// ([`occurring_pairs`]); every other pair has count 0 but still draws its
/// noise, in `(q1, q2)` order. Its decision `0 + noise ≥ τ` is made by the
/// level's [`dpsc_dpcore::NoiseCut`] from where the draw falls, with the
/// same draws and outcome as computing the sample.
///
/// Row chunk `c` of `current` draws from the stream of `(level, c)`.
/// Returns `Err(cap + 1)` at the first survivor past `cap`: the level's
/// outcome is then FAIL, whatever the rest of the scan would find.
#[allow(clippy::too_many_arguments)] // crate-internal hot path
fn scan_level_pairs(
    counts: &ClippedCounter<'_>,
    current: &[Cand],
    noise: Noise,
    tau: f64,
    cap: usize,
    len: usize,
    level: usize,
    stream_base: u64,
) -> Result<Vec<Cand>, usize> {
    let idx = counts.index();
    let half = len / 2;
    let row_index = RowIntervals::new(current);
    let absent_cut = noise.cut(tau);
    let mut hits = Vec::new();
    let mut next = Vec::new();
    for (chunk, q1s) in current.chunks(PAIR_CHUNK_ROWS).enumerate() {
        let mut rng = StdRng::seed_from_u64(derive_stream(stream_base, stream_tag(level, chunk)));
        for q1 in q1s {
            occurring_pairs(idx, q1.iv, &row_index, half, &mut hits);
            let mut next_hit = hits.iter().peekable();
            for (j, q2) in current.iter().enumerate() {
                let (iv, passes) = match next_hit.next_if(|&&(hit, _)| hit as usize == j) {
                    Some(&(_, iv)) => {
                        let true_count = counts.count_in_interval(iv, len) as f64;
                        (iv, true_count + noise.sample(&mut rng) >= tau)
                    }
                    None => (SaInterval::EMPTY, absent_cut.passes(&mut rng)),
                };
                if passes {
                    if next.len() == cap {
                        return Err(cap + 1);
                    }
                    let mut bytes = Vec::with_capacity(len);
                    bytes.extend_from_slice(&q1.bytes);
                    bytes.extend_from_slice(&q2.bytes);
                    next.push(Cand { bytes, iv });
                }
            }
        }
    }
    Ok(next)
}

/// Builds the candidate set with Laplace noise (Lemma 6, pure ε-DP).
pub fn build_candidates_pure<R: Rng + ?Sized>(
    idx: &CorpusIndex,
    params: &CandidateParams,
    rng: &mut R,
) -> Result<CandidateSet, CandidateOverflow> {
    assert!(params.privacy.is_pure(), "Lemma 6 requires δ = 0");
    build_candidates_with(&idx.clipped_counter(params.delta_clip), params, false, rng)
}

/// Builds the candidate set with Gaussian noise (Lemma 15, (ε,δ)-DP).
pub fn build_candidates_approx<R: Rng + ?Sized>(
    idx: &CorpusIndex,
    params: &CandidateParams,
    rng: &mut R,
) -> Result<CandidateSet, CandidateOverflow> {
    assert!(params.privacy.delta > 0.0, "Lemma 15 requires δ > 0");
    build_candidates_with(&idx.clipped_counter(params.delta_clip), params, true, rng)
}

/// Per-level noise and the analytic sup-error `α` over `K` counts.
fn level_noise(
    gaussian: bool,
    level_privacy: PrivacyParams,
    ell: usize,
    delta_clip: usize,
    k_counts: f64,
    beta_level: f64,
) -> (Noise, f64) {
    if gaussian {
        // Corollary 6: L2 ≤ √(2ℓΔ); Corollary 2 sup error.
        let l2 = (2.0 * ell as f64 * delta_clip as f64).sqrt();
        let noise = Noise::gaussian_for(level_privacy.epsilon, level_privacy.delta, l2);
        let alpha = 2.0 * l2 / level_privacy.epsilon
            * ((2.0 / level_privacy.delta).ln() * (2.0 * k_counts / beta_level).ln()).sqrt();
        (noise, alpha)
    } else {
        // Corollary 3: L1 ≤ 2ℓ; Corollary 1 sup error.
        let l1 = 2.0 * ell as f64;
        let noise = Noise::laplace_for(level_privacy.epsilon, l1);
        let alpha = l1 / level_privacy.epsilon * (k_counts / beta_level).ln();
        (noise, alpha)
    }
}

/// Step 1 with Laplace or, if `gaussian`, Gaussian noise, counting with
/// `counts` (whose clip level is `params.delta_clip`).
pub(crate) fn build_candidates_with<R: Rng + ?Sized>(
    counts: &ClippedCounter<'_>,
    params: &CandidateParams,
    gaussian: bool,
    rng: &mut R,
) -> Result<CandidateSet, CandidateOverflow> {
    debug_assert_eq!(counts.delta(), params.delta_clip);
    let idx = counts.index();
    let ell = idx.max_len();
    let n = idx.n_docs();
    let max_power = (ell as f64).log2().floor() as usize; // ⌊log ℓ⌋
    let cap = params.level_cap_override.unwrap_or(n * ell);

    let doubling = doubling_levels(
        counts,
        params.privacy,
        params.beta,
        gaussian,
        params.tau_override,
        cap,
        max_power,
        rng,
    )?;

    let mut strings = CandidateStrings::default();
    let mut level_sizes = Vec::with_capacity(doubling.levels.len());
    for (k, level) in doubling.levels.iter().enumerate() {
        level_sizes.push(level.len());
        for c in level {
            strings.push(&c.bytes);
        }
        // C_m for 2^k < m < 2^{k+1}: post-processing of P_{2^k} (no
        // database access, no privacy cost).
        extend_with_overlaps(level, 1 << k, ell, OVERLAP_SAFETY_CAP, &mut strings);
    }

    Ok(CandidateSet { strings, alpha: doubling.alpha, tau: doubling.tau, level_sizes })
}

/// Adds to `out` every string of length `m ∈ (L, 2L)` (`L` = `len`, capped
/// at ℓ) whose length-`L` prefix and suffix are both in `cands`:
/// `Q1[0..L] · Q2[2L−m..L]` for every pair with a suffix/prefix overlap of
/// length `2L − m`, found by [`for_each_overlap`] in `(Q1, Q2)` order.
///
/// `per_length_cap` is a far-away safety valve (callers pass
/// [`OVERLAP_SAFETY_CAP`]) bounding memory if a noise-flooded candidate
/// level produces quadratically many overlaps; it binds only in regimes
/// that are already headed for the paper's FAIL outcome. It must NOT be
/// used as a tight budget: truncation is arbitrary and could drop frequent
/// strings. The cap decision never touches the database.
fn extend_with_overlaps(
    cands: &[Cand],
    len: usize,
    ell: usize,
    per_length_cap: usize,
    out: &mut CandidateStrings,
) {
    if cands.is_empty() || len == 0 {
        return;
    }
    let max_m = (2 * len - 1).min(ell);
    for m in len + 1..=max_m {
        let o = 2 * len - m;
        let mut emitted = 0usize;
        for_each_overlap(cands, len, o, |q1, q2| {
            out.push_concat(&q1.bytes, &q2.bytes[o..]);
            emitted += 1;
            if emitted >= per_length_cap {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
    }
}

/// Calls `visit(Q1, Q2)` for every ordered pair of `cands` (all of length
/// `len`) where the last `o` bytes of `Q1` equal the first `o` bytes of
/// `Q2`, in `(Q1, Q2)` order of position in `cands`, until `visit` breaks.
///
/// Matching is indexed: candidates are bucketed by their length-`o` prefix
/// and joined against their length-`o` suffixes, so the cost is
/// `O(|P|·L + matches)` expected instead of the naive `O(|P|²·L)` — the
/// practical stand-in for the paper's LCE-based overlap detection (proof
/// of Lemma 7, Step 2). Buckets hold rows in ascending order, which gives
/// the `(Q1, Q2)` order.
pub(crate) fn for_each_overlap(
    cands: &[Cand],
    len: usize,
    o: usize,
    mut visit: impl FnMut(&Cand, &Cand) -> ControlFlow<()>,
) {
    let mut by_prefix: HashMap<&[u8], Vec<u32>> = HashMap::new();
    for (j, q2) in cands.iter().enumerate() {
        by_prefix.entry(&q2.bytes[..o]).or_default().push(j as u32);
    }
    for q1 in cands {
        let Some(js) = by_prefix.get(&q1.bytes[len - o..]) else {
            continue;
        };
        for &j in js {
            if visit(q1, &cands[j as usize]).is_break() {
                return;
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dpsc_strkit::alphabet::{Alphabet, Database};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params_with_tau(tau: f64) -> CandidateParams {
        CandidateParams {
            delta_clip: usize::MAX / 2,        // effectively Δ = ℓ clamp below
            privacy: PrivacyParams::pure(1e9), // noise ≈ 0
            beta: 0.1,
            tau_override: Some(tau),
            level_cap_override: None,
        }
    }

    #[test]
    fn noiseless_candidates_match_example_2() {
        // Example 2 of the paper: exact sets with threshold τ = 1.
        let db = Database::paper_example();
        let idx = CorpusIndex::build(&db);
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = params_with_tau(0.9);
        p.delta_clip = db.max_len();
        let set = build_candidates_pure(&idx, &p, &mut rng).unwrap();

        let has = |s: &str| set.strings.iter().any(|x| x == s.as_bytes());
        // P_1 = {a, b, e, s}
        for s in ["a", "b", "e", "s"] {
            assert!(has(s), "missing {s}");
        }
        assert!(!has("c"));
        // P_2 = {aa, ab, ba, be, bs, ee, es, sa}
        for s in ["aa", "ab", "ba", "be", "bs", "ee", "es", "sa"] {
            assert!(has(s), "missing {s}");
        }
        assert!(!has("bb"));
        // P_4 = {aaaa, absa, babe, bees, bsab}
        for s in ["aaaa", "absa", "babe", "bees", "bsab"] {
            assert!(has(s), "missing {s}");
        }
        // C_3 per Example 3 (built from P_2 overlaps).
        for s in
            ["aaa", "aab", "aba", "abe", "abs", "baa", "bab", "bee", "bsa", "eee", "saa", "sab"]
        {
            assert!(has(s), "missing C_3 string {s}");
        }
        // C_5: Example 3 lists {aaaaa, aaaab, absab}, but that example is
        // derived from the *noisy* P_4 (which spuriously contains "aaab");
        // the exact sets yield C_5 = {aaaaa, absab}.
        for s in ["aaaaa", "absab"] {
            assert!(has(s), "missing C_5 string {s}");
        }
        assert!(!has("aaaab"));
        assert!(!has("abeab"));
        assert_eq!(set.level_sizes[0], 4);
        assert_eq!(set.level_sizes[1], 8);
        assert_eq!(set.level_sizes[2], 5);
    }

    #[test]
    fn every_frequent_string_is_covered_noiselessly() {
        // With τ = 1 and zero noise, C must contain every substring of the
        // database (Lemma 6's completeness direction in the exact regime).
        let db = Database::paper_example();
        let idx = CorpusIndex::build(&db);
        let mut rng = StdRng::seed_from_u64(2);
        let mut p = params_with_tau(0.9);
        p.delta_clip = db.max_len();
        let set = build_candidates_pure(&idx, &p, &mut rng).unwrap();
        use std::collections::HashSet;
        let have: HashSet<&[u8]> = set.strings.iter().collect();
        for doc in db.documents() {
            for i in 0..doc.len() {
                for j in i + 1..=doc.len() {
                    assert!(
                        have.contains(&doc[i..j]),
                        "substring {:?} of {:?} missing",
                        std::str::from_utf8(&doc[i..j]).unwrap(),
                        std::str::from_utf8(doc).unwrap()
                    );
                }
            }
        }
    }

    #[test]
    fn no_duplicates() {
        let db = Database::paper_example();
        let idx = CorpusIndex::build(&db);
        let mut rng = StdRng::seed_from_u64(3);
        let mut p = params_with_tau(0.9);
        p.delta_clip = db.max_len();
        let set = build_candidates_pure(&idx, &p, &mut rng).unwrap();
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for s in set.strings.iter() {
            assert!(seen.insert(s), "duplicate candidate {:?}", s);
        }
    }

    #[test]
    fn high_threshold_prunes_rare_strings() {
        let db = Database::paper_example();
        let idx = CorpusIndex::build(&db);
        let mut rng = StdRng::seed_from_u64(4);
        let mut p = params_with_tau(3.0);
        p.delta_clip = db.max_len();
        let set = build_candidates_pure(&idx, &p, &mut rng).unwrap();
        let has = |s: &str| set.strings.iter().any(|x| x == s.as_bytes());
        // count(a) = 8, count(b) = 6, count(e) = 5, count(s) = 2 < 3.
        assert!(has("a") && has("b") && has("e"));
        assert!(!has("s"));
    }

    #[test]
    fn gaussian_variant_runs_and_covers_noiselessly() {
        let db = Database::paper_example();
        let idx = CorpusIndex::build(&db);
        let mut rng = StdRng::seed_from_u64(5);
        let p = CandidateParams {
            delta_clip: db.max_len(),
            privacy: PrivacyParams::approx(1e9, 1e-9),
            beta: 0.1,
            tau_override: Some(0.9),
            level_cap_override: None,
        };
        let set = build_candidates_approx(&idx, &p, &mut rng).unwrap();
        assert!(set.strings.iter().any(|s| s == b"absab"));
    }

    /// The oracle for [`occurring_pairs`]: `idx.interval(q1 ‖ q2)` over
    /// every `q2` of the level, nonempty results only.
    fn naive_occurring_pairs(
        idx: &CorpusIndex,
        q1: &Cand,
        level: &[Cand],
    ) -> Vec<(u32, SaInterval)> {
        level
            .iter()
            .enumerate()
            .filter_map(|(j, q2)| {
                let iv = idx.interval(&[q1.bytes.as_slice(), &q2.bytes].concat());
                (!iv.is_empty()).then_some((j as u32, iv))
            })
            .collect()
    }

    /// Runs the doubling levels over `docs` (alphabet `a..=d`, so `d` never
    /// occurs) and checks every row's occurring pairs at every level
    /// against the oracle. `flooded` uses a tiny ε (Laplace scale 192 at
    /// ℓ = 12) and τ = −100, so about 70% of all pairs pass, occurring or
    /// not. Returns how many strings of the scanned levels are absent
    /// from the text: each is an absent row and an absent second half of
    /// every pair it ends.
    fn check_occurring_pairs(
        docs: Vec<Vec<u8>>,
        flooded: bool,
        seed: u64,
    ) -> Result<usize, String> {
        let db = Database::from_documents(Alphabet::lowercase(4), docs).unwrap();
        let idx = CorpusIndex::build(&db);
        let (privacy, tau) = if flooded {
            (PrivacyParams::pure(0.5), -100.0)
        } else {
            (PrivacyParams::pure(1e9), 0.9)
        };
        let max_power = (db.max_len() as f64).log2().floor() as usize;
        let doubling = doubling_levels(
            &idx.clipped_counter(db.max_len()),
            privacy,
            0.1,
            false,
            Some(tau),
            usize::MAX,
            max_power,
            &mut StdRng::seed_from_u64(seed),
        )
        .map_err(|e| e.to_string())?;
        let mut absent = 0;
        let mut got = Vec::new();
        for (k, level) in doubling.levels.iter().enumerate().skip(1) {
            let current = &doubling.levels[k - 1];
            let rows = RowIntervals::new(current);
            absent += current.iter().filter(|c| c.iv.is_empty()).count();
            for q1 in current {
                occurring_pairs(&idx, q1.iv, &rows, 1 << (k - 1), &mut got);
                let want = naive_occurring_pairs(&idx, q1, current);
                if got != want {
                    return Err(format!("level {k} row {:?}: {got:?} != {want:?}", q1.bytes));
                }
            }
            // Released pairs carry the oracle's interval (empty if absent).
            for c in level {
                let want = idx.interval(&c.bytes);
                if c.iv.is_empty() != want.is_empty() || (!want.is_empty() && c.iv != want) {
                    return Err(format!("level {k} survivor {:?}: {:?}", c.bytes, c.iv));
                }
            }
        }
        Ok(absent)
    }

    /// One to six documents of 1–12 symbols over `abc`.
    pub(crate) fn small_docs() -> impl proptest::Strategy<Value = Vec<Vec<u8>>> {
        proptest::collection::vec(
            proptest::collection::vec(proptest::sample::select(b"abc".to_vec()), 1..13),
            1..7,
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        #[test]
        fn occurring_pairs_match_naive_oracle(
            docs in small_docs(),
            flooded in 0u8..2,
            seed in 0u64..1 << 20,
        ) {
            let outcome = check_occurring_pairs(docs, flooded == 1, seed);
            proptest::prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }
    }

    #[test]
    fn occurring_pairs_cover_short_docs_single_docs_and_absent_strings() {
        // Documents shorter than every doubled length, and a lone document.
        let multi = ["a", "ab", "abc", "abcabcab", "cabbac", "bbbbbbbbbbbb"];
        let single = ["abcabcaabbcc"];
        for docs in [&multi[..], &single[..]] {
            let docs: Vec<Vec<u8>> = docs.iter().map(|d| d.as_bytes().to_vec()).collect();
            let mut flooded_absent = 0;
            for seed in 0..4 {
                let absent = check_occurring_pairs(docs.clone(), false, seed).unwrap();
                assert_eq!(absent, 0, "noiseless levels hold only occurring strings");
                flooded_absent += check_occurring_pairs(docs.clone(), true, seed).unwrap();
            }
            assert!(flooded_absent > 0, "flooded levels hold absent strings");
        }
    }

    #[test]
    fn overflow_is_reported() {
        let db = Database::paper_example();
        let idx = CorpusIndex::build(&db);
        let mut rng = StdRng::seed_from_u64(6);
        let p = CandidateParams {
            delta_clip: db.max_len(),
            privacy: PrivacyParams::pure(1e9),
            beta: 0.1,
            tau_override: Some(0.9),
            level_cap_override: Some(2),
        };
        let err = build_candidates_pure(&idx, &p, &mut rng).unwrap_err();
        assert_eq!(err.level, 0);
        assert!(err.size > 2);

        // Past the letters: a flooded regime over 20 letters (Laplace scale
        // 32, τ = −100), where nearly every pair passes, so level 1 spans
        // two row chunks.
        let docs = (0..6u8).map(|i| (0..4u8).map(|j| b'a' + (i * 7 + j * 3) % 20).collect());
        let db = Database::from_documents(Alphabet::lowercase(20), docs.collect()).unwrap();
        let idx = CorpusIndex::build(&db);
        let build = |cap| {
            let p = CandidateParams {
                delta_clip: db.max_len(),
                privacy: PrivacyParams::pure(0.5),
                beta: 0.1,
                tau_override: Some(-100.0),
                level_cap_override: Some(cap),
            };
            build_candidates_pure(&idx, &p, &mut StdRng::seed_from_u64(7))
        };
        let sizes = build(usize::MAX).unwrap().level_sizes;
        assert!(sizes[0] > PAIR_CHUNK_ROWS && sizes[1] > sizes[0], "{sizes:?}");
        assert!(sizes[2] > sizes[1], "{sizes:?}");
        // The first level past `cap` fails, at its first survivor past it:
        // early in level 1, at level 1's last survivor (in its last chunk),
        // and at level 2's last survivor.
        for (level, cap) in [(1, sizes[0]), (1, sizes[1] - 1), (2, sizes[1]), (2, sizes[2] - 1)] {
            let err = build(cap).unwrap_err();
            assert_eq!(err, CandidateOverflow { level, size: cap + 1, cap }, "{sizes:?}");
        }
        assert_eq!(build(sizes[2]).unwrap().level_sizes, sizes);
    }
}
