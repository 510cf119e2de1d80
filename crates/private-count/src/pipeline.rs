//! Steps 2–6 of the main construction: trie, heavy paths, noisy root
//! counts, difference-sequence prefix sums, and pruning.
//!
//! Shared by Theorem 1 (Laplace) and Theorem 2 (Gaussian); the two differ
//! only in the noise calibration:
//!
//! | quantity | ε-DP (Thm 1) | (ε,δ)-DP (Thm 2) |
//! |---|---|---|
//! | root counts | `Lap` on L1 ≤ `2ℓ(⌊log|T_C|⌋+1)` (Obs. 2 + Lemma 10) | `N(0,σ²)` on L2 ≤ `√(L1·Δ)` (Lemma 14/16/17) |
//! | diff prefix sums | Lemma 11 with `L = 2ℓ(⌊log|T_C|⌋+1)` | Lemma 18 with the same `L`, per-path `≤ 2Δ` |
//!
//! The pruning threshold is `2α` where `α` sums the two error bounds — so
//! surviving nodes have true count ≥ `α` w.h.p., which bounds the pruned
//! trie by `O(nℓ²)` nodes (each document contributes ≤ `ℓ²` substrings of
//! count ≥ 1).

use dpsc_dpcore::budget::PrivacyParams;
use dpsc_dpcore::mechanism::{gaussian_sup_error, l2_from_l1_linf, laplace_sup_error};
use dpsc_dpcore::noise::Noise;
use dpsc_dpcore::tree_mechanism::{
    lemma11_error_bound, lemma11_noise, lemma18_error_bound, lemma18_noise, BinaryTreeMechanism,
};
use dpsc_hierarchy::heavy_path::HeavyPathDecomposition;
use dpsc_hierarchy::tree::NodeId;

use crate::candidates::CandidateStrings;
use crate::spans::SpanRecorder;
use dpsc_textindex::{ClippedCounter, CorpusIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters for Steps 2–6.
#[derive(Debug, Clone, Copy)]
pub struct PipelineParams {
    /// The clip level `Δ`.
    pub delta_clip: usize,
    /// Budget for Step 3 (root counts).
    pub privacy_roots: PrivacyParams,
    /// Budget for Step 4 (difference-sequence prefix sums).
    pub privacy_diffs: PrivacyParams,
    /// Failure probability for Steps 3+4 combined (split evenly).
    pub beta: f64,
    /// Gaussian (Theorem 2) vs Laplace (Theorem 1) calibration.
    pub gaussian: bool,
    /// Pruning threshold override (default: analytic `2α`). Post-processing
    /// only — privacy is unaffected.
    pub prune_override: Option<f64>,
}

/// Output of Steps 2–6.
#[derive(Debug, Clone)]
pub struct PipelineOutput {
    /// Pruned trie of noisy counts in pre-order (root = empty string): a
    /// subsequence of the count trie's nodes, in the same order.
    pub trie: PreorderTrie<f64>,
    /// Sup-error bound `α` for the noisy counts of surviving nodes
    /// (w.p. ≥ 1−β over Steps 3–4).
    pub alpha: f64,
    /// Threshold used for pruning (`2α` unless overridden).
    pub prune_threshold: f64,
    /// Trie size before pruning.
    pub nodes_before_prune: usize,
}

/// A trie as three arrays indexed by node id: parent, edge label from the
/// parent, and one value per node.
///
/// Ids are in pre-order with children in label order: the root is `0` (its
/// own parent) and `parent[v] < v` for every other node, so a forward scan
/// visits parents before children and a reverse scan children before
/// parents, and node strings come out in lexicographic order. No node owns
/// a heap block.
#[derive(Debug, Clone)]
pub struct PreorderTrie<V> {
    parent: Vec<NodeId>,
    symbol: Vec<u8>,
    value: Vec<V>,
}

/// The exact-count trie `T_C` of Step 2: each node holds the true clipped
/// count of its string.
pub type CountTrie = PreorderTrie<u64>;

impl<V: Copy> PreorderTrie<V> {
    /// The root node id (the empty string).
    pub const ROOT: NodeId = 0;

    /// A trie holding only the root, with room for `capacity` nodes.
    pub(crate) fn with_root(value: V, capacity: usize) -> Self {
        let mut trie = Self {
            parent: Vec::with_capacity(capacity),
            symbol: Vec::with_capacity(capacity),
            value: Vec::with_capacity(capacity),
        };
        trie.parent.push(Self::ROOT);
        trie.symbol.push(0);
        trie.value.push(value);
        trie
    }

    /// Appends a child of `parent` and returns its id. Keeping pre-order
    /// is the caller's job: `parent` must be the last node or one of its
    /// ancestors, and `symbol` must follow the labels of `parent`'s
    /// earlier children.
    pub(crate) fn push(&mut self, parent: NodeId, symbol: u8, value: V) -> NodeId {
        self.parent.push(parent);
        self.symbol.push(symbol);
        self.value.push(value);
        (self.parent.len() - 1) as NodeId
    }

    /// Number of nodes (including the root).
    #[inline]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the trie has only the root.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 1
    }

    /// Parent of `v` (the root is its own parent).
    #[inline]
    pub fn parent(&self, v: NodeId) -> NodeId {
        self.parent[v as usize]
    }

    /// The parent array, indexed by node id.
    #[inline]
    pub fn parents(&self) -> &[NodeId] {
        &self.parent
    }

    /// Edge label from the parent to `v`. Meaningless for the root.
    #[inline]
    pub fn symbol(&self, v: NodeId) -> u8 {
        self.symbol[v as usize]
    }

    /// The value of `v`.
    #[inline]
    pub fn value(&self, v: NodeId) -> V {
        self.value[v as usize]
    }

    /// Mutable value of `v`.
    #[inline]
    pub(crate) fn value_mut(&mut self, v: NodeId) -> &mut V {
        &mut self.value[v as usize]
    }

    /// Reconstructs `str(v)` by walking parent pointers (`O(depth)`).
    pub fn string_of(&self, v: NodeId) -> Vec<u8> {
        let mut out = Vec::new();
        let mut cur = v;
        while cur != Self::ROOT {
            out.push(self.symbol(cur));
            cur = self.parent(cur);
        }
        out.reverse();
        out
    }

    /// For each node of `self`, the node of `sub` spelling the same string,
    /// if any. `sub` must hold a prefix-closed subset of `self`'s strings
    /// (a pruned copy, like Step 6's output), so its pre-order is a
    /// subsequence of `self`'s and one merge of the two lists finds every
    /// match: node `v` matches the next unmatched node of `sub` iff that
    /// node hangs off the match of `v`'s parent under `v`'s label.
    pub fn matches<W: Copy>(&self, sub: &PreorderTrie<W>) -> Vec<Option<NodeId>> {
        let mut out = Vec::with_capacity(self.len());
        out.push(Some(Self::ROOT));
        let mut next: NodeId = 1;
        for v in 1..self.len() as NodeId {
            let hit = match out[self.parent(v) as usize] {
                Some(p)
                    if (next as usize) < sub.len()
                        && sub.parent(next) == p
                        && sub.symbol(next) == self.symbol(v) =>
                {
                    next += 1;
                    Some(next - 1)
                }
                _ => None,
            };
            out.push(hit);
        }
        out
    }
}

/// Builds the exact-count trie `T_C` of the candidate set: one node per
/// distinct prefix of a candidate, each holding its true `count_Δ`.
///
/// Candidates are sorted once and inserted in lexicographic order, which
/// makes the walk LCP-aware: in sorted order the longest common prefix of a
/// candidate with *any* earlier candidate equals its LCP with the previous
/// one, so the insertion resumes from a stack of `(node, SA interval)`
/// frames at the shared-prefix depth instead of re-extending from the root.
/// Only the clipped counts of *new* nodes are evaluated — on overlap-heavy
/// candidate sets (the `C_m` families share all but one symbol) this
/// removes most of Step 2's interval work. Every prefix longer than the LCP
/// is new, so nodes are appended in pre-order with no child lookup.
///
/// Nodes are also created in label order among siblings, and siblings tile
/// their parent's interval in that order, so each new node's interval
/// search starts at the end of its previous sibling's interval (or at its
/// parent's start) and gallops ([`CorpusIndex::extend_interval`]). A node
/// whose interval equals its parent's has the same occurrences, hence the
/// same `count_Δ`, and takes its parent's count without evaluating it.
pub fn build_count_trie(
    idx: &CorpusIndex,
    candidates: &[impl AsRef<[u8]>],
    delta_clip: usize,
) -> CountTrie {
    count_trie(&idx.clipped_counter(delta_clip), candidates.iter().map(AsRef::as_ref).collect())
}

/// Length of the longest common prefix of `a` and `b`.
pub(crate) fn lcp(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// [`build_count_trie`] over the (unsorted) `candidates`, counting with
/// `counts`.
fn count_trie(counts: &ClippedCounter<'_>, mut sorted: Vec<&[u8]>) -> CountTrie {
    let idx = counts.index();
    // Step 1 emits one sorted run per candidate length; the stable sort
    // merges runs instead of re-sorting them.
    sorted.sort();
    sorted.dedup();
    // Each candidate adds one node per symbol past its LCP with the
    // previous one, so the arrays are sized exactly up front.
    let mut n = 1;
    let mut prev: &[u8] = b"";
    for &cand in &sorted {
        n += cand.len() - lcp(prev, cand);
        prev = cand;
    }
    let mut trie = CountTrie::with_root(counts.count(b""), n);
    // stack[d] = (node, interval) of the current candidate's prefix of
    // length d + 1; truncated to the LCP with the next candidate.
    let mut stack: Vec<(NodeId, dpsc_strkit::search::SaInterval)> = Vec::new();
    let mut prev: &[u8] = b"";
    for cand in sorted {
        let shared = lcp(prev, cand);
        // The previous candidate's prefix of length shared + 1, if it has
        // one, is the new node's previous sibling.
        let sibling_end = stack.get(shared).map(|&(_, iv)| iv.hi);
        stack.truncate(shared);
        let (mut cur, mut iv) = match stack.last() {
            Some(&frame) => frame,
            None => (CountTrie::ROOT, idx.full_interval()),
        };
        let mut from = sibling_end.unwrap_or(iv.lo);
        for (depth, &b) in cand.iter().enumerate().skip(shared) {
            let child = idx.extend_interval(iv, depth, b, from);
            let count = if depth > 0 && child == iv {
                trie.value(cur)
            } else {
                counts.count_in_interval(child, depth + 1)
            };
            cur = trie.push(cur, b, count);
            iv = child;
            from = iv.lo;
            stack.push((cur, iv));
        }
        prev = cand;
    }
    debug_assert_eq!(trie.len(), n);
    trie
}

/// Runs Steps 2–6 over a candidate set. `candidates` come from
/// [`crate::candidates`]; their counts are recomputed exactly here (Step 2)
/// and only released through noise (Steps 3–5). They are copied into one
/// [`CandidateStrings`] arena first, as Step 1 hands them over.
pub fn run_pipeline<R: Rng + ?Sized>(
    idx: &CorpusIndex,
    candidates: &[Vec<u8>],
    params: &PipelineParams,
    rng: &mut R,
) -> PipelineOutput {
    let delta_clip = params.delta_clip.clamp(1, idx.max_len());
    let candidates = candidates.iter().collect();
    run_pipeline_with(&idx.clipped_counter(delta_clip), candidates, params, rng, None, |out| out)
}

/// [`run_pipeline`] counting Step 2 with `counts`, whose clip level is
/// `params.delta_clip` clamped to `[1, ℓ]`, with optional phase spans
/// (`"count_trie"`, `"noise"`, `"prune"`) recorded into `rec`. Timing is
/// observation only: the released structure is identical with or without
/// a recorder. The candidates are freed once Step 2 has read them. Step 6
/// ends by handing its output to `release`, inside the `"prune"` span and
/// after the count trie is freed.
pub(crate) fn run_pipeline_with<R: Rng + ?Sized, T>(
    counts: &ClippedCounter<'_>,
    candidates: CandidateStrings,
    params: &PipelineParams,
    rng: &mut R,
    rec: Option<&SpanRecorder>,
    release: impl FnOnce(PipelineOutput) -> T,
) -> T {
    let ell = counts.index().max_len();
    debug_assert_eq!(counts.delta(), params.delta_clip.clamp(1, ell));
    let started = rec.map(|r| r.mark());
    let counts_trie = count_trie(counts, candidates.iter().collect());
    drop(candidates);
    if let (Some(r), Some(s)) = (rec, started) {
        r.close("count_trie", s, counts_trie.len() as u64);
    }
    let (out, prune_started) = steps_3_to_6(&counts_trie, ell, params, rng, rec);
    drop(counts_trie);
    finish_prune(rec, prune_started, out, release)
}

/// Steps 3–6 over a prebuilt exact-count trie. Exposed so the experiment
/// harness can amortize Step 2 (exact counting) across noise trials; the
/// privacy guarantee is identical — the trie is exactly what Step 2 would
/// have produced.
pub fn run_pipeline_on_trie<R: Rng + ?Sized>(
    counts_trie: &CountTrie,
    ell: usize,
    params: &PipelineParams,
    rng: &mut R,
) -> PipelineOutput {
    steps_3_to_6(counts_trie, ell, params, rng, None).0
}

/// Runs `release` on Step 6's output, then closes the `"prune"` span
/// opened at `started`, so the span covers whatever `release` lays out.
fn finish_prune<T>(
    rec: Option<&SpanRecorder>,
    started: Option<u64>,
    out: PipelineOutput,
    release: impl FnOnce(PipelineOutput) -> T,
) -> T {
    let kept = out.trie.len() as u64;
    let released = release(out);
    if let (Some(r), Some(s)) = (rec, started) {
        r.close("prune", s, kept);
    }
    released
}

/// Steps 3–6 over `counts_trie`, recording the `"noise"` span into `rec`.
/// Also returns the start of the `"prune"` span, left open for
/// [`finish_prune`].
fn steps_3_to_6<R: Rng + ?Sized>(
    counts_trie: &CountTrie,
    ell: usize,
    params: &PipelineParams,
    rng: &mut R,
    rec: Option<&SpanRecorder>,
) -> (PipelineOutput, Option<u64>) {
    assert!(params.beta > 0.0 && params.beta < 1.0);
    let noise_started = rec.map(|r| r.mark());
    let delta_clip = params.delta_clip.clamp(1, ell);
    let n_nodes = counts_trie.len();
    let hpd = HeavyPathDecomposition::from_preorder(counts_trie.parents());
    let k_paths = hpd.num_paths();
    let levels = (usize::BITS - n_nodes.leading_zeros()) as f64; // ⌊log|T_C|⌋+1

    // Sensitivities (Observation 2, Lemmas 8/10 and 16/17): replacing one
    // document S → S' moves root counts by ≤ ℓ·levels for each of S, S'.
    let l1_roots = 2.0 * ell as f64 * levels;
    let l1_diffs = 2.0 * ell as f64 * levels;
    let beta_half = params.beta / 2.0;

    // Step 3: noisy counts of heavy-path roots.
    let (root_noise, root_error) = if params.gaussian {
        let l2 = l2_from_l1_linf(l1_roots, delta_clip as f64);
        (
            Noise::gaussian_for(params.privacy_roots.epsilon, params.privacy_roots.delta, l2),
            gaussian_sup_error(
                params.privacy_roots.epsilon,
                params.privacy_roots.delta,
                l2,
                k_paths,
                beta_half,
            ),
        )
    } else {
        (
            Noise::laplace_for(params.privacy_roots.epsilon, l1_roots),
            laplace_sup_error(params.privacy_roots.epsilon, l1_roots, k_paths, beta_half),
        )
    };

    // Step 4: noisy prefix sums of difference sequences (binary tree
    // mechanism). T = longest difference sequence ≤ ℓ.
    let max_diff_len = hpd.paths().map(|p| p.len() - 1).max().unwrap_or(0).max(1);
    let (diff_noise, diff_error) = if params.gaussian {
        let per_path = 2.0 * delta_clip as f64; // Lemma 16.2
        (
            lemma18_noise(
                params.privacy_diffs.epsilon,
                params.privacy_diffs.delta,
                l1_diffs,
                per_path,
                max_diff_len,
            ),
            lemma18_error_bound(
                params.privacy_diffs.epsilon,
                params.privacy_diffs.delta,
                l1_diffs,
                per_path,
                max_diff_len,
                k_paths,
                beta_half,
            ),
        )
    } else {
        (
            lemma11_noise(params.privacy_diffs.epsilon, l1_diffs, max_diff_len),
            lemma11_error_bound(
                params.privacy_diffs.epsilon,
                l1_diffs,
                max_diff_len,
                k_paths,
                beta_half,
            ),
        )
    };

    // Steps 3–5: per-node noisy counts, one derived RNG stream per heavy
    // path. The base is a single draw off the caller's RNG; each path's
    // draws (root noise, then its tree mechanism) come from its own stream
    // keyed by the path index. These streams are part of the release's
    // definition: the golden digests pin the values they produce.
    let stream_base: u64 = rng.gen();
    let offsets = hpd.path_offsets();
    // noisy[i] is the noisy count of hpd.nodes()[i]: each path's values are
    // contiguous.
    let mut noisy = vec![0.0f64; n_nodes];
    let mut diff: Vec<f64> = Vec::with_capacity(max_diff_len);
    let mut mech = BinaryTreeMechanism::with_capacity(max_diff_len);
    for pi in 0..k_paths {
        let path = hpd.path(pi);
        let vals = &mut noisy[offsets[pi] as usize..offsets[pi + 1] as usize];
        let mut prng =
            StdRng::seed_from_u64(crate::candidates::derive_stream(stream_base, pi as u64));
        let root_est = counts_trie.value(path[0]) as f64 + root_noise.sample(&mut prng);
        vals[0] = root_est;
        if path.len() > 1 {
            diff.clear();
            diff.extend(
                path.windows(2)
                    .map(|w| counts_trie.value(w[1]) as f64 - counts_trie.value(w[0]) as f64),
            );
            mech.rebuild(&diff, diff_noise, &mut prng);
            for (i, v) in vals.iter_mut().enumerate().skip(1) {
                *v = root_est + mech.prefix(i);
            }
        }
    }

    if let (Some(r), Some(s)) = (rec, noise_started) {
        r.close("noise", s, n_nodes as u64);
    }

    // Step 6: prune subtrees with noisy count below the threshold.
    let alpha = root_error + diff_error;
    let prune_threshold = params.prune_override.unwrap_or(2.0 * alpha);
    let prune_started = rec.map(|r| r.mark());
    let pruned = prune(counts_trie, |v| noisy[hpd.slot(v)], prune_threshold, ell);
    (
        PipelineOutput { trie: pruned, alpha, prune_threshold, nodes_before_prune: n_nodes },
        prune_started,
    )
}

/// Step 6 in one forward pass over `trie`'s pre-order: a node is kept iff
/// its parent is kept and `value(node) ≥ threshold`; the root always is.
/// Kept nodes carry `value(node)` into the released trie, which is built
/// in the same pre-order, each node's children in label order, with room
/// for every node of `trie`. `depth` is the trie's height or an estimate
/// of it (it sizes a stack).
fn prune(
    trie: &CountTrie,
    value: impl Fn(NodeId) -> f64,
    threshold: f64,
    depth: usize,
) -> PreorderTrie<f64> {
    let mut out = PreorderTrie::with_root(value(CountTrie::ROOT), trie.len());
    // (id in `trie`, id in `out`) of each kept ancestor of the last kept
    // node, root first. Ids grow along it, and a node's parent is on it iff
    // the parent was kept.
    let mut kept: Vec<(NodeId, NodeId)> = Vec::with_capacity(depth + 1);
    kept.push((CountTrie::ROOT, CountTrie::ROOT));
    for v in 1..trie.len() as NodeId {
        let p = trie.parent(v);
        while kept.last().is_some_and(|&(old, _)| old > p) {
            kept.pop();
        }
        let &(top, new_parent) = kept.last().expect("the root is never popped");
        if top == p {
            let x = value(v);
            if x >= threshold {
                kept.push((v, out.push(new_parent, trie.symbol(v), x)));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsc_strkit::alphabet::Database;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeMap;

    fn all_substrings(db: &Database) -> Vec<Vec<u8>> {
        let mut set = std::collections::BTreeSet::new();
        for doc in db.documents() {
            for i in 0..doc.len() {
                for j in i + 1..=doc.len() {
                    set.insert(doc[i..j].to_vec());
                }
            }
        }
        set.into_iter().collect()
    }

    /// The released strings of `trie` with their values.
    fn entries(trie: &PreorderTrie<f64>) -> BTreeMap<Vec<u8>, f64> {
        (0..trie.len() as NodeId).map(|v| (trie.string_of(v), trie.value(v))).collect()
    }

    #[test]
    fn count_trie_stores_exact_clipped_counts() {
        let db = Database::paper_example();
        let idx = CorpusIndex::build(&db);
        let cands = all_substrings(&db);
        for delta in [1usize, 2, 5] {
            let trie = build_count_trie(&idx, &cands, delta);
            // One node per candidate plus the root (the candidates are all
            // substrings, so prefix-closed), in sorted pre-order.
            let strings: Vec<Vec<u8>> =
                (0..trie.len() as NodeId).map(|v| trie.string_of(v)).collect();
            assert_eq!(strings[0], b"");
            assert_eq!(strings[1..], cands[..]);
            for (v, s) in strings.iter().enumerate() {
                assert_eq!(
                    trie.value(v as NodeId),
                    idx.count_clipped(s, delta),
                    "count of {s:?} at Δ={delta}"
                );
            }
        }
        check_count_trie_of_markov_candidates();
    }

    /// Step 1's arena on a Markov corpus, some of its candidates absent
    /// from the text, through Step 2 at `Δ ∈ {1, 3, ℓ}`: the nodes are the
    /// prefixes of the candidates sorted and deduplicated as owned strings,
    /// in that order, and each holds `count_clipped` of its string.
    fn check_count_trie_of_markov_candidates() {
        use crate::candidates::{build_candidates_pure, CandidateParams};
        use dpsc_workloads::markov_corpus;
        let db = markov_corpus(40, 24, 3, 0.6, &mut StdRng::seed_from_u64(55));
        let idx = CorpusIndex::build(&db);
        for delta in [1, 3, db.max_len()] {
            let params = CandidateParams {
                delta_clip: delta,
                privacy: PrivacyParams::pure(200.0),
                beta: 0.1,
                tau_override: Some(5.0),
                level_cap_override: Some(usize::MAX),
            };
            let mut rng = StdRng::seed_from_u64(56);
            let set = build_candidates_pure(&idx, &params, &mut rng).unwrap();
            let mut owned: Vec<Vec<u8>> = set.strings.iter().map(<[u8]>::to_vec).collect();
            owned.sort();
            owned.dedup();
            let trie = count_trie(&idx.clipped_counter(delta), set.strings.iter().collect());
            let mut want = vec![Vec::new()];
            let mut prev: &[u8] = b"";
            for c in &owned {
                want.extend((lcp(prev, c) + 1..=c.len()).map(|d| c[..d].to_vec()));
                prev = c;
            }
            let got: Vec<Vec<u8>> = (0..trie.len() as NodeId).map(|v| trie.string_of(v)).collect();
            assert_eq!(got, want, "Δ={delta}");
            let (mut absent, mut same_as_parent) = (0, 0);
            for (v, s) in got.iter().enumerate().skip(1) {
                assert_eq!(trie.value(v as NodeId), idx.count_clipped(s, delta), "{s:?} Δ={delta}");
                let iv = idx.interval(s);
                absent += iv.is_empty() as usize;
                same_as_parent +=
                    (!iv.is_empty() && iv == idx.interval(&s[..s.len() - 1])) as usize;
            }
            assert!(absent > 0 && same_as_parent > 0, "Δ={delta}: {absent}, {same_as_parent}");
        }
    }

    #[test]
    fn counts_monotone_along_paths() {
        // Lemma 8's premise: counts are non-increasing down any trie path.
        let db = Database::paper_example();
        let idx = CorpusIndex::build(&db);
        let trie = build_count_trie(&idx, &all_substrings(&db), 5);
        for v in 1..trie.len() as NodeId {
            assert!(trie.parent(v) < v, "ids not in pre-order at {v}");
            assert!(
                trie.value(v) <= trie.value(trie.parent(v)),
                "count increased along path at {:?}",
                trie.string_of(v)
            );
        }
    }

    #[test]
    fn prune_drops_every_node_under_a_failing_ancestor() {
        // Trie of "absa" and "ba". Thresholds cut mid-path: "ab" fails
        // while its descendants "abs" and "absa" pass on their own.
        let db = Database::paper_example();
        let idx = CorpusIndex::build(&db);
        let cands: Vec<Vec<u8>> = ["absa", "ba"].iter().map(|s| s.as_bytes().to_vec()).collect();
        let trie = build_count_trie(&idx, &cands, 5);
        let names: Vec<Vec<u8>> = (0..trie.len() as NodeId).map(|v| trie.string_of(v)).collect();
        let value = |v: NodeId| match names[v as usize].as_slice() {
            b"" => 100.0,
            b"a" | b"b" | b"abs" | b"absa" => 10.0,
            b"ab" => 1.0,
            b"ba" => 5.0,
            other => panic!("unexpected node {other:?}"),
        };
        let pruned = prune(&trie, value, 5.0, 4);
        let kept: Vec<(&[u8], f64)> = vec![(b"", 100.0), (b"a", 10.0), (b"b", 10.0), (b"ba", 5.0)];
        let got: Vec<(Vec<u8>, f64)> =
            (0..pruned.len() as NodeId).map(|v| (pruned.string_of(v), pruned.value(v))).collect();
        assert!(got.iter().map(|(s, v)| (s.as_slice(), *v)).eq(kept), "{got:?}");
        // Each released node matches the count-trie node of its string.
        let matches = trie.matches(&pruned);
        for (v, name) in names.iter().enumerate() {
            let want = got.iter().position(|(s, _)| s == name).map(|u| u as NodeId);
            assert_eq!(matches[v], want, "{name:?}");
        }
        // Every node passes: the released trie keeps the shape and order.
        let all = prune(&trie, |_| 0.0, 0.0, 4);
        assert_eq!(all.parents(), trie.parents());
        assert!((0..all.len() as NodeId).all(|v| all.symbol(v) == trie.symbol(v)));
        assert!(trie.matches(&all).iter().enumerate().all(|(v, &u)| u == Some(v as NodeId)));
    }

    fn tiny_noise_params(gaussian: bool) -> PipelineParams {
        PipelineParams {
            delta_clip: 5,
            privacy_roots: if gaussian {
                PrivacyParams::approx(1e9, 1e-9)
            } else {
                PrivacyParams::pure(1e9)
            },
            privacy_diffs: if gaussian {
                PrivacyParams::approx(1e9, 1e-9)
            } else {
                PrivacyParams::pure(1e9)
            },
            beta: 0.1,
            gaussian,
            prune_override: Some(0.5),
        }
    }

    #[test]
    fn near_zero_noise_reproduces_exact_counts() {
        let db = Database::paper_example();
        let idx = CorpusIndex::build(&db);
        let cands = all_substrings(&db);
        for gaussian in [false, true] {
            let mut rng = StdRng::seed_from_u64(51);
            let out =
                entries(&run_pipeline(&idx, &cands, &tiny_noise_params(gaussian), &mut rng).trie);
            for c in &cands {
                let got = *out.get(c).expect("present with threshold 0.5");
                let exact = idx.count_clipped(c, 5) as f64;
                assert!((got - exact).abs() < 1e-3, "{c:?}: {got} vs {exact}");
            }
        }
    }

    #[test]
    fn error_bound_holds_with_high_probability() {
        let db = Database::paper_example();
        let idx = CorpusIndex::build(&db);
        let cands = all_substrings(&db);
        let params = PipelineParams {
            delta_clip: 5,
            privacy_roots: PrivacyParams::pure(1.0),
            privacy_diffs: PrivacyParams::pure(1.0),
            beta: 0.2,
            gaussian: false,
            prune_override: Some(f64::NEG_INFINITY), // keep everything
        };
        let mut rng = StdRng::seed_from_u64(52);
        let trials = 25;
        let mut violations = 0;
        for _ in 0..trials {
            let out = run_pipeline(&idx, &cands, &params, &mut rng);
            let released = entries(&out.trie);
            let worst = cands
                .iter()
                .filter_map(|c| released.get(c).map(|x| (x - idx.count_clipped(c, 5) as f64).abs()))
                .fold(0.0f64, f64::max);
            if worst > out.alpha {
                violations += 1;
            }
        }
        assert!((violations as f64 / trials as f64) <= 0.2, "violations {violations}/{trials}");
    }

    #[test]
    fn pruning_drops_low_count_subtrees() {
        let db = Database::paper_example();
        let idx = CorpusIndex::build(&db);
        let cands = all_substrings(&db);
        let mut params = tiny_noise_params(false);
        params.prune_override = Some(3.0);
        let mut rng = StdRng::seed_from_u64(53);
        let out = run_pipeline(&idx, &cands, &params, &mut rng);
        // "ab" has count 4 ≥ 3 → kept; "abs" has count 1 < 3 → pruned.
        let released = entries(&out.trie);
        assert!(released.contains_key(&b"ab"[..]));
        assert!(!released.contains_key(&b"abs"[..]));
        assert!(out.nodes_before_prune > out.trie.len());
    }

    #[test]
    fn gaussian_beats_laplace_for_document_counts() {
        // Theorem 2's √(ℓΔ) improvement: at Δ=1 the Gaussian pipeline's
        // analytic α should be well below the Laplace pipeline's for large ℓ.
        // Compare the *bounds* (the measured gap is experiment T2).
        let docs: Vec<Vec<u8>> = (0..8)
            .map(|i| (0..64u8).map(|j| b'a' + ((i * 7 + j as usize) % 4) as u8).collect())
            .collect();
        let db = Database::new(dpsc_strkit::alphabet::Alphabet::lowercase(4), 64, docs).unwrap();
        let idx = CorpusIndex::build(&db);
        let cands = all_substrings(&db);
        let mut rng = StdRng::seed_from_u64(54);
        let lap = run_pipeline(
            &idx,
            &cands,
            &PipelineParams {
                delta_clip: 1,
                privacy_roots: PrivacyParams::pure(0.5),
                privacy_diffs: PrivacyParams::pure(0.5),
                beta: 0.1,
                gaussian: false,
                prune_override: Some(f64::NEG_INFINITY),
            },
            &mut rng,
        );
        let gauss = run_pipeline(
            &idx,
            &cands,
            &PipelineParams {
                delta_clip: 1,
                privacy_roots: PrivacyParams::approx(0.5, 1e-6),
                privacy_diffs: PrivacyParams::approx(0.5, 1e-6),
                beta: 0.1,
                gaussian: true,
                prune_override: Some(f64::NEG_INFINITY),
            },
            &mut rng,
        );
        assert!(
            gauss.alpha < lap.alpha,
            "Gaussian α {} should beat Laplace α {} at Δ=1, ℓ=64",
            gauss.alpha,
            lap.alpha
        );
    }
}
