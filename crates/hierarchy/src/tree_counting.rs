//! Differentially private counting functions on trees (Theorems 8 and 9).
//!
//! Given a tree `T` and a count `c(v)` per node that is
//! (i) *monotone* — `c(v) ≤ Σ_{u child of v} c(u)` for internal `v` — and
//! (ii) has summed leaf sensitivity `d` on neighboring databases, the
//! algorithm releases estimates `ĉ(v)` for **all** nodes with sup error
//! `O(ε⁻¹ d log|V| log h log(hk/β))` (Theorem 8, Laplace) or
//! `O(ε⁻¹ √(dΔ) · polylog)` when each node additionally moves by at most
//! `Δ` (Theorem 9, Gaussian).
//!
//! The algorithm is the paper's heavy-path strategy in its generic form:
//! 1. decompose `T` into heavy paths;
//! 2. privately estimate `c` at every heavy-path root (half the budget);
//! 3. privately estimate all prefix sums of the *difference sequence* along
//!    every heavy path with the binary-tree mechanism (other half);
//! 4. `ĉ(v) = ĉ(path root) + noisy prefix sum up to v`.
//!
//! Why this wins: a change at one leaf `l` moves `c` only on the
//! root-to-`l` path, which crosses ≤ `⌊log|V|⌋ + 1` heavy paths (Lemma 9),
//! so both the root vector and the concatenated difference sequences have
//! sensitivity `O(d log|V|)` instead of `O(d · h)`.

use dpsc_dpcore::budget::PrivacyParams;
use dpsc_dpcore::mechanism::{gaussian_sup_error, l2_from_l1_linf, laplace_sup_error};
use dpsc_dpcore::noise::Noise;
use dpsc_dpcore::tree_mechanism::{
    lemma11_error_bound, lemma11_noise, lemma18_error_bound, lemma18_noise, BinaryTreeMechanism,
};
use rand::Rng;

use crate::heavy_path::HeavyPathDecomposition;
use crate::tree::Tree;

/// Sensitivity bounds of the count function `c` (Theorem 8/9 hypotheses).
#[derive(Debug, Clone, Copy)]
pub struct TreeSensitivity {
    /// `d`: bound on `Σ_leaves |c(l, D) − c(l, D')|` over neighbors.
    pub leaf_l1: f64,
    /// `Δ`: bound on `|c(v, D) − c(v, D')|` per node (needed for the
    /// Gaussian variant of Theorem 9; for Theorem 8 it is unused and may be
    /// set to `leaf_l1`).
    pub per_node: f64,
}

/// Result of the private tree-counting algorithm.
#[derive(Debug, Clone)]
pub struct TreeCountEstimate {
    /// `ĉ(v)` per node id.
    pub values: Vec<f64>,
    /// High-probability sup-error bound `α` (holds with prob. ≥ 1−β).
    pub error_bound: f64,
}

impl TreeCountEstimate {
    /// Maximum absolute deviation from the exact counts.
    pub fn max_error(&self, exact: &[u64]) -> f64 {
        self.values.iter().zip(exact).map(|(&v, &e)| (v - e as f64).abs()).fold(0.0, f64::max)
    }
}

/// Checks the monotonicity hypothesis of Theorems 8/9:
/// `c(v) ≤ Σ_{u child of v} c(u)` for every internal node.
pub fn validate_monotone(tree: &Tree, counts: &[u64]) -> bool {
    assert_eq!(tree.n(), counts.len());
    (0..tree.n() as u32).all(|v| {
        tree.is_leaf(v) || {
            let child_sum: u64 = tree.children(v).iter().map(|&c| counts[c as usize]).sum();
            counts[v as usize] <= child_sum
        }
    })
}

/// Theorem 8: ε-differentially private tree counting with Laplace noise.
///
/// `counts[v]` must be the exact `c(v, D)`; `sens.leaf_l1` is `d`.
/// The released estimates satisfy
/// `max_v |ĉ(v) − c(v)| = O(ε⁻¹ d log|V| log h log(hk/β))` w.p. ≥ 1−β.
pub fn private_tree_counts_pure<R: Rng + ?Sized>(
    tree: &Tree,
    counts: &[u64],
    sens: TreeSensitivity,
    privacy: PrivacyParams,
    beta: f64,
    rng: &mut R,
) -> TreeCountEstimate {
    assert!(privacy.is_pure(), "use private_tree_counts_approx for δ > 0");
    run_pipeline(tree, counts, sens, privacy, beta, false, rng)
}

/// Theorem 9: (ε,δ)-differentially private tree counting with Gaussian
/// noise, error `O(ε⁻¹ √(dΔ) log|V| √(log(1/δ)) log(hk/β) log h)`.
pub fn private_tree_counts_approx<R: Rng + ?Sized>(
    tree: &Tree,
    counts: &[u64],
    sens: TreeSensitivity,
    privacy: PrivacyParams,
    beta: f64,
    rng: &mut R,
) -> TreeCountEstimate {
    assert!(privacy.delta > 0.0, "Theorem 9 requires δ > 0");
    run_pipeline(tree, counts, sens, privacy, beta, true, rng)
}

fn run_pipeline<R: Rng + ?Sized>(
    tree: &Tree,
    counts: &[u64],
    sens: TreeSensitivity,
    privacy: PrivacyParams,
    beta: f64,
    gaussian: bool,
    rng: &mut R,
) -> TreeCountEstimate {
    assert_eq!(tree.n(), counts.len(), "one count per node required");
    assert!(beta > 0.0 && beta < 1.0);
    debug_assert!(validate_monotone(tree, counts), "count function not monotone");

    let n = tree.n();
    let hpd = HeavyPathDecomposition::new(tree);
    let k = hpd.num_paths();
    // ⌊log n⌋ + 1
    let levels = (usize::BITS - n.leading_zeros()) as f64;
    // Sensitivity across all heavy-path roots: each unit of leaf change hits
    // ≤ `levels` roots (Lemma 9).
    let roots_l1 = sens.leaf_l1 * levels;
    // Concatenated difference sequences: each unit of leaf change perturbs a
    // contiguous run on ≤ `levels` paths, moving the difference sequence at
    // two positions per path (Lemma 8 generalized).
    let diffs_l1 = 2.0 * sens.leaf_l1 * levels;
    let max_path_len = hpd.paths().map(|p| p.len()).max().unwrap_or(1);
    let t = max_path_len.saturating_sub(1).max(1); // difference sequences have |p|−1 entries

    let half = privacy.split_even(2);
    let beta_half = beta / 2.0;

    // Step 2: noisy root counts.
    let (root_noise, root_error) = if gaussian {
        let l2 = l2_from_l1_linf(roots_l1, sens.per_node);
        (
            Noise::gaussian_for(half.epsilon, half.delta, l2),
            gaussian_sup_error(half.epsilon, half.delta, l2, k, beta_half),
        )
    } else {
        (
            Noise::laplace_for(half.epsilon, roots_l1),
            laplace_sup_error(half.epsilon, roots_l1, k, beta_half),
        )
    };
    let mut values = vec![0.0f64; n];
    let mut root_estimates = Vec::with_capacity(k);
    for path in hpd.paths() {
        let r = path[0];
        root_estimates.push(counts[r as usize] as f64 + root_noise.sample(rng));
    }

    // Steps 3–4: binary-tree mechanism over every difference sequence.
    let (diff_noise, diff_error) = if gaussian {
        // Per-path L1 sensitivity ≤ 2Δ (two ±Δ moves), per Lemma 16.2.
        let per_path = 2.0 * sens.per_node;
        (
            lemma18_noise(half.epsilon, half.delta, diffs_l1, per_path, t),
            lemma18_error_bound(half.epsilon, half.delta, diffs_l1, per_path, t, k, beta_half),
        )
    } else {
        (
            lemma11_noise(half.epsilon, diffs_l1, t),
            lemma11_error_bound(half.epsilon, diffs_l1, t, k, beta_half),
        )
    };
    let mut diff: Vec<f64> = Vec::with_capacity(t);
    let mut mech = BinaryTreeMechanism::with_capacity(t);
    for (pid, path) in hpd.paths().enumerate() {
        let root_est = root_estimates[pid];
        values[path[0] as usize] = root_est;
        if path.len() == 1 {
            continue;
        }
        diff.clear();
        diff.extend(
            path.windows(2).map(|w| counts[w[1] as usize] as f64 - counts[w[0] as usize] as f64),
        );
        mech.rebuild(&diff, diff_noise, rng);
        for (i, &v) in path.iter().enumerate().skip(1) {
            values[v as usize] = root_est + mech.prefix(i);
        }
    }

    TreeCountEstimate { values, error_bound: root_error + diff_error }
}

/// Baseline of Zhang et al. \[72\] style: add Laplace noise to every *leaf*
/// (scale `d/ε`) and sum noisy leaves upward. Internal-node errors grow
/// with subtree leaf counts — the failure mode the paper's related-work
/// section calls out.
pub fn baseline_noisy_leaf_sum<R: Rng + ?Sized>(
    tree: &Tree,
    counts: &[u64],
    leaf_l1: f64,
    epsilon: f64,
    rng: &mut R,
) -> Vec<f64> {
    let n = tree.n();
    let noise = Noise::laplace_for(epsilon, leaf_l1);
    let mut values = vec![0.0f64; n];
    let order = tree.dfs_preorder();
    for &v in order.iter().rev() {
        if tree.is_leaf(v) {
            values[v as usize] = counts[v as usize] as f64 + noise.sample(rng);
        } else {
            values[v as usize] = tree.children(v).iter().map(|&c| values[c as usize]).sum();
        }
    }
    values
}

/// Baseline: independent Laplace noise on *every* node, calibrated to the
/// full per-node L1 sensitivity `d·(h+1)` (a leaf change moves all its
/// ancestors). Error `O(ε⁻¹ d h log|V|)` — worse than Theorem 8 by `~h/log h`.
pub fn baseline_per_node_laplace<R: Rng + ?Sized>(
    tree: &Tree,
    counts: &[u64],
    leaf_l1: f64,
    epsilon: f64,
    rng: &mut R,
) -> Vec<f64> {
    let h = tree.height();
    let noise = Noise::laplace_for(epsilon, leaf_l1 * (h as f64 + 1.0));
    counts.iter().map(|&c| c as f64 + noise.sample(rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Builds a hierarchical histogram: items are leaf indices; c(v) = number
    /// of items in leaves below v.
    fn histogram_counts(tree: &Tree, items: &[u32]) -> Vec<u64> {
        let mut counts = vec![0u64; tree.n()];
        for &leaf in items {
            let mut v = leaf;
            loop {
                counts[v as usize] += 1;
                if v == tree.root() {
                    break;
                }
                v = tree.parent(v);
            }
        }
        counts
    }

    #[test]
    fn zero_noise_reproduces_exact_counts() {
        let tree = Tree::complete_kary(2, 4);
        let leaves = tree.leaves();
        let mut rng = StdRng::seed_from_u64(31);
        let items: Vec<u32> = (0..100).map(|i| leaves[i % leaves.len()]).collect();
        let counts = histogram_counts(&tree, &items);
        assert!(validate_monotone(&tree, &counts));
        // Mirror the pipeline with Noise::None by passing a huge ε (noise
        // scale → 0 is not reachable through the public API, so check via a
        // very large ε giving tiny noise).
        let est = private_tree_counts_pure(
            &tree,
            &counts,
            TreeSensitivity { leaf_l1: 2.0, per_node: 1.0 },
            PrivacyParams::pure(1e9),
            0.1,
            &mut rng,
        );
        assert!(est.max_error(&counts) < 1e-3);
    }

    #[test]
    fn error_within_bound_with_high_probability() {
        let tree = Tree::complete_kary(2, 6);
        let leaves = tree.leaves();
        let mut rng = StdRng::seed_from_u64(32);
        let items: Vec<u32> = (0..500).map(|i| leaves[(i * 7) % leaves.len()]).collect();
        let counts = histogram_counts(&tree, &items);
        let sens = TreeSensitivity { leaf_l1: 2.0, per_node: 1.0 };
        let beta = 0.1;
        let trials = 40;
        let mut violations = 0;
        for _ in 0..trials {
            let est = private_tree_counts_pure(
                &tree,
                &counts,
                sens,
                PrivacyParams::pure(1.0),
                beta,
                &mut rng,
            );
            if est.max_error(&counts) > est.error_bound {
                violations += 1;
            }
        }
        assert!((violations as f64 / trials as f64) <= beta, "violations {violations}/{trials}");
    }

    #[test]
    fn gaussian_variant_within_bound() {
        let tree = Tree::complete_kary(2, 6);
        let leaves = tree.leaves();
        let mut rng = StdRng::seed_from_u64(33);
        let items: Vec<u32> = (0..500).map(|i| leaves[(i * 13) % leaves.len()]).collect();
        let counts = histogram_counts(&tree, &items);
        let sens = TreeSensitivity { leaf_l1: 2.0, per_node: 1.0 };
        let est = private_tree_counts_approx(
            &tree,
            &counts,
            sens,
            PrivacyParams::approx(1.0, 1e-6),
            0.1,
            &mut rng,
        );
        // Single-shot check against the analytic bound (holds w.p. 0.9).
        assert!(est.max_error(&counts) <= est.error_bound);
    }

    #[test]
    fn heavy_path_beats_per_node_laplace_on_deep_trees() {
        // Theorem 8's win over per-node noise is the `h` → `polylog`
        // improvement: on a deep path-shaped tree the per-node baseline must
        // scale noise with the height (a leaf change moves every ancestor),
        // while the heavy-path mechanism pays only log factors. At depth
        // 2^15 the gap is decisive even with worst-case constants.
        let n = 1 << 15;
        let tree = Tree::path(n);
        // c(v) = number of items at-or-below v: item at depth i contributes
        // to all ancestors. Use items at the single leaf so counts are
        // constant along the path (monotone holds trivially).
        let counts: Vec<u64> = vec![100u64; n];
        let sens = TreeSensitivity { leaf_l1: 2.0, per_node: 1.0 };
        let mut rng = StdRng::seed_from_u64(34);
        let trials = 3;
        let mut hp_avg = 0.0;
        let mut pn_avg = 0.0;
        for _ in 0..trials {
            let est = private_tree_counts_pure(
                &tree,
                &counts,
                sens,
                PrivacyParams::pure(1.0),
                0.1,
                &mut rng,
            );
            let bl = baseline_per_node_laplace(&tree, &counts, 2.0, 1.0, &mut rng);
            for v in 0..n {
                hp_avg += (est.values[v] - counts[v] as f64).abs();
                pn_avg += (bl[v] - counts[v] as f64).abs();
            }
        }
        assert!(
            hp_avg * 2.0 < pn_avg,
            "expected ≥2x win on depth-32768 path: hp {hp_avg} vs per-node {pn_avg}"
        );
    }

    #[test]
    fn monotone_validation_rejects_bad_counts() {
        let tree = Tree::complete_kary(2, 1);
        // Root count exceeds child sum.
        let counts = vec![10u64, 3, 3];
        assert!(!validate_monotone(&tree, &counts));
        let good = vec![6u64, 3, 3];
        assert!(validate_monotone(&tree, &good));
    }

    #[test]
    fn single_node_tree() {
        let tree = Tree::from_parents(&[None]);
        let mut rng = StdRng::seed_from_u64(35);
        let est = private_tree_counts_pure(
            &tree,
            &[42],
            TreeSensitivity { leaf_l1: 1.0, per_node: 1.0 },
            PrivacyParams::pure(1e9),
            0.1,
            &mut rng,
        );
        assert!((est.values[0] - 42.0).abs() < 1e-3);
    }
}
