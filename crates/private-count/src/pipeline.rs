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
use dpsc_hierarchy::tree::Tree;

use crate::spans::SpanRecorder;
use dpsc_strkit::trie::Trie;
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
    /// Worker threads for the per-heavy-path noise pass of Steps 3–5. `0`
    /// and `1` both mean sequential; the released structure is identical
    /// for every setting (per-path derived RNG streams).
    pub threads: usize,
}

/// Output of Steps 2–6.
#[derive(Debug, Clone)]
pub struct PipelineOutput {
    /// Pruned trie of noisy counts (root = empty string).
    pub trie: Trie<f64>,
    /// Sup-error bound `α` for the noisy counts of surviving nodes
    /// (w.p. ≥ 1−β over Steps 3–4).
    pub alpha: f64,
    /// Threshold used for pruning (`2α` unless overridden).
    pub prune_threshold: f64,
    /// Trie size before pruning.
    pub nodes_before_prune: usize,
}

/// Builds the exact-count trie `T_C` of the candidate set: one node per
/// distinct prefix of a candidate, each holding its true `count_Δ`.
///
/// Candidates are sorted once and inserted in lexicographic order, which
/// makes the walk LCP-aware: in sorted order the longest common prefix of a
/// candidate with *any* earlier candidate equals its LCP with the previous
/// one, so the insertion resumes from a stack of `(node, SA interval)`
/// frames at the shared-prefix depth instead of re-extending from the root.
/// Inserting a candidate of length `m` then costs `O((m − lcp) log N)` plus
/// the clipped-count evaluation of its *new* nodes only — on overlap-heavy
/// candidate sets (the `C_m` families share all but one symbol) this
/// removes most of Step 2's interval work. Sorting also means every new
/// child label arrives in increasing order, so the arena append fast path
/// applies throughout.
pub fn build_count_trie(idx: &CorpusIndex, candidates: &[Vec<u8>], delta_clip: usize) -> Trie<u64> {
    count_trie(&idx.clipped_counter(delta_clip), candidates)
}

/// [`build_count_trie`] counting with `counts`.
fn count_trie(counts: &ClippedCounter<'_>, candidates: &[Vec<u8>]) -> Trie<u64> {
    let idx = counts.index();
    let root_count = counts.count(b"");
    let mut trie: Trie<u64> = Trie::new(root_count);
    let mut sorted: Vec<&[u8]> = candidates.iter().map(|c| c.as_slice()).collect();
    // Step 1 emits one sorted run per candidate length; the stable sort
    // merges runs instead of re-sorting them.
    sorted.sort();
    sorted.dedup();
    // stack[d] = (node, interval) of the current candidate's prefix of
    // length d + 1; truncated to the LCP with the next candidate.
    let mut stack: Vec<(u32, dpsc_strkit::search::SaInterval)> = Vec::new();
    let mut prev: &[u8] = b"";
    for cand in sorted {
        let lcp = prev.iter().zip(cand.iter()).take_while(|(a, b)| a == b).count();
        stack.truncate(lcp);
        let (mut cur, mut iv) = match stack.last() {
            Some(&frame) => frame,
            None => (Trie::<u64>::ROOT, idx.full_interval()),
        };
        for (depth, &b) in cand.iter().enumerate().skip(lcp) {
            iv = idx.extend_interval(iv, depth, b);
            let before = trie.len();
            cur = trie.ensure_child(cur, b, 0);
            if trie.len() > before {
                // Newly created node: compute its true clipped count once.
                *trie.value_mut(cur) = counts.count_in_interval(iv, depth + 1);
            }
            stack.push((cur, iv));
        }
        prev = cand;
    }
    trie
}

/// Runs Steps 2–6 over a candidate set. `candidates` come from
/// [`crate::candidates`]; their counts are recomputed exactly here (Step 2)
/// and only released through noise (Steps 3–5).
pub fn run_pipeline<R: Rng + ?Sized>(
    idx: &CorpusIndex,
    candidates: &[Vec<u8>],
    params: &PipelineParams,
    rng: &mut R,
) -> PipelineOutput {
    run_pipeline_traced(idx, candidates, params, rng, None)
}

/// [`run_pipeline`] with optional phase spans (`"count_trie"`, `"noise"`,
/// `"prune"`) recorded into `rec`. Timing is observation only — the
/// released structure is identical with or without a recorder.
pub fn run_pipeline_traced<R: Rng + ?Sized>(
    idx: &CorpusIndex,
    candidates: &[Vec<u8>],
    params: &PipelineParams,
    rng: &mut R,
    rec: Option<&SpanRecorder>,
) -> PipelineOutput {
    let delta_clip = params.delta_clip.clamp(1, idx.max_len());
    run_pipeline_with(&idx.clipped_counter(delta_clip), candidates, params, rng, rec)
}

/// [`run_pipeline_traced`] counting Step 2 with `counts`, whose clip level
/// is `params.delta_clip` clamped to `[1, ℓ]`.
pub(crate) fn run_pipeline_with<R: Rng + ?Sized>(
    counts: &ClippedCounter<'_>,
    candidates: &[Vec<u8>],
    params: &PipelineParams,
    rng: &mut R,
    rec: Option<&SpanRecorder>,
) -> PipelineOutput {
    let ell = counts.index().max_len();
    debug_assert_eq!(counts.delta(), params.delta_clip.clamp(1, ell));
    let started = rec.map(|r| r.mark());
    let counts_trie = count_trie(counts, candidates);
    if let (Some(r), Some(s)) = (rec, started) {
        r.close("count_trie", s, counts_trie.len() as u64);
    }
    run_pipeline_on_trie_traced(&counts_trie, ell, params, rng, rec)
}

/// Steps 3–6 over a prebuilt exact-count trie. Exposed so the experiment
/// harness can amortize Step 2 (exact counting) across noise trials; the
/// privacy guarantee is identical — the trie is exactly what Step 2 would
/// have produced.
pub fn run_pipeline_on_trie<R: Rng + ?Sized>(
    counts_trie: &Trie<u64>,
    ell: usize,
    params: &PipelineParams,
    rng: &mut R,
) -> PipelineOutput {
    run_pipeline_on_trie_traced(counts_trie, ell, params, rng, None)
}

/// [`run_pipeline_on_trie`] with optional `"noise"` / `"prune"` phase
/// spans recorded into `rec`.
pub fn run_pipeline_on_trie_traced<R: Rng + ?Sized>(
    counts_trie: &Trie<u64>,
    ell: usize,
    params: &PipelineParams,
    rng: &mut R,
    rec: Option<&SpanRecorder>,
) -> PipelineOutput {
    assert!(params.beta > 0.0 && params.beta < 1.0);
    let noise_started = rec.map(|r| r.mark());
    let delta_clip = params.delta_clip.clamp(1, ell);
    let n_nodes = counts_trie.len();
    let tree = trie_topology(counts_trie);
    let hpd = HeavyPathDecomposition::new(&tree);
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
    let max_diff_len =
        hpd.paths().iter().map(|p| p.len().saturating_sub(1)).max().unwrap_or(0).max(1);
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
    // keyed by the path index, so the released structure is identical for
    // every thread count — chunking below is purely a scheduling concern.
    let stream_base: u64 = rng.gen();
    let paths = hpd.paths();
    let mut noisy = vec![0.0f64; n_nodes];
    const PATH_CHUNK: usize = 64;
    let n_chunks = paths.len().div_ceil(PATH_CHUNK);

    // Noisy values of every path in one chunk, each aligned with its path.
    type ChunkValues = Vec<(usize, Vec<f64>)>;
    let process_chunk = |chunk: usize| -> ChunkValues {
        let start = chunk * PATH_CHUNK;
        let end = paths.len().min(start + PATH_CHUNK);
        let mut out = Vec::with_capacity(end - start);
        let mut diff: Vec<f64> = Vec::new();
        for (pi, path) in paths[start..end].iter().enumerate() {
            let mut prng = StdRng::seed_from_u64(crate::candidates::derive_stream(
                stream_base,
                (start + pi) as u64,
            ));
            let root_est = *counts_trie.value(path[0]) as f64 + root_noise.sample(&mut prng);
            let mut vals = Vec::with_capacity(path.len());
            vals.push(root_est);
            if path.len() > 1 {
                diff.clear();
                diff.extend(
                    path.windows(2)
                        .map(|w| *counts_trie.value(w[1]) as f64 - *counts_trie.value(w[0]) as f64),
                );
                let mech = BinaryTreeMechanism::build(&diff, diff_noise, &mut prng);
                for i in 1..path.len() {
                    vals.push(root_est + mech.prefix(i));
                }
            }
            out.push((start + pi, vals));
        }
        out
    };

    let workers = params.threads.max(1).min(n_chunks);
    if workers <= 1 {
        for chunk in 0..n_chunks {
            for (pi, vals) in process_chunk(chunk) {
                for (&v, &x) in paths[pi].iter().zip(vals.iter()) {
                    noisy[v as usize] = x;
                }
            }
        }
    } else {
        let results: Vec<std::sync::Mutex<ChunkValues>> =
            (0..n_chunks).map(|_| std::sync::Mutex::new(Vec::new())).collect();
        let next_chunk = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let chunk = next_chunk.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if chunk >= n_chunks {
                        break;
                    }
                    *results[chunk].lock().expect("chunk mutex not poisoned") =
                        process_chunk(chunk);
                });
            }
        });
        for m in results {
            for (pi, vals) in m.into_inner().expect("chunk mutex poisoned") {
                for (&v, &x) in paths[pi].iter().zip(vals.iter()) {
                    noisy[v as usize] = x;
                }
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
    let pruned = counts_trie.prune_map(
        |node, _| noisy[node as usize] >= prune_threshold,
        |node, _| noisy[node as usize],
    );
    if let (Some(r), Some(s)) = (rec, prune_started) {
        r.close("prune", s, pruned.len() as u64);
    }

    PipelineOutput { trie: pruned, alpha, prune_threshold, nodes_before_prune: n_nodes }
}

/// Converts the trie's parent pointers into a [`Tree`] (ids align).
pub fn trie_topology<V>(trie: &Trie<V>) -> Tree {
    let parents: Vec<Option<u32>> = (0..trie.len() as u32)
        .map(|v| if v == Trie::<V>::ROOT { None } else { Some(trie.parent(v)) })
        .collect();
    Tree::from_parents(&parents)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsc_strkit::alphabet::Database;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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

    #[test]
    fn count_trie_stores_exact_clipped_counts() {
        let db = Database::paper_example();
        let idx = CorpusIndex::build(&db);
        let cands = all_substrings(&db);
        for delta in [1usize, 2, 5] {
            let trie = build_count_trie(&idx, &cands, delta);
            for c in &cands {
                let node = trie.walk(c).expect("candidate in trie");
                assert_eq!(
                    *trie.value(node),
                    idx.count_clipped(c, delta),
                    "count of {:?} at Δ={delta}",
                    c
                );
            }
            // Root holds count_Δ of the empty string.
            assert_eq!(*trie.value(Trie::<u64>::ROOT), idx.count_clipped(b"", delta));
        }
    }

    #[test]
    fn counts_monotone_along_paths() {
        // Lemma 8's premise: counts are non-increasing down any trie path.
        let db = Database::paper_example();
        let idx = CorpusIndex::build(&db);
        let trie = build_count_trie(&idx, &all_substrings(&db), 5);
        for node in trie.dfs() {
            if node != Trie::<u64>::ROOT {
                assert!(
                    trie.value(node) <= trie.value(trie.parent(node)),
                    "count increased along path at {:?}",
                    trie.string_of(node)
                );
            }
        }
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
            threads: 1,
        }
    }

    #[test]
    fn near_zero_noise_reproduces_exact_counts() {
        let db = Database::paper_example();
        let idx = CorpusIndex::build(&db);
        let cands = all_substrings(&db);
        for gaussian in [false, true] {
            let mut rng = StdRng::seed_from_u64(51);
            let out = run_pipeline(&idx, &cands, &tiny_noise_params(gaussian), &mut rng);
            for c in &cands {
                let node = out.trie.walk(c).expect("present with threshold 0.5");
                let exact = idx.count_clipped(c, 5) as f64;
                assert!(
                    (*out.trie.value(node) - exact).abs() < 1e-3,
                    "{:?}: {} vs {}",
                    c,
                    out.trie.value(node),
                    exact
                );
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
            threads: 1,
        };
        let mut rng = StdRng::seed_from_u64(52);
        let trials = 25;
        let mut violations = 0;
        for _ in 0..trials {
            let out = run_pipeline(&idx, &cands, &params, &mut rng);
            let worst = cands
                .iter()
                .filter_map(|c| {
                    out.trie
                        .walk(c)
                        .map(|n| (*out.trie.value(n) - idx.count_clipped(c, 5) as f64).abs())
                })
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
        assert!(out.trie.walk(b"ab").is_some());
        assert!(out.trie.walk(b"abs").is_none());
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
                threads: 1,
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
                threads: 1,
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
