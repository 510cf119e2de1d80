//! Vector-valued Laplace and Gaussian mechanisms with sup-error bounds.
//!
//! Implements Lemma 3 / Lemma 5 (add calibrated iid noise to a vector-valued
//! function) and their high-probability sup-norm corollaries (Corollary 1 /
//! Corollary 2), which the paper uses to set every pruning threshold.

use rand::Rng;

use crate::noise::Noise;

/// Adds iid noise to integer counts (the common case: counts are `u64`).
pub fn randomize_counts<R: Rng + ?Sized>(counts: &[u64], noise: Noise, rng: &mut R) -> Vec<f64> {
    counts.iter().map(|&v| v as f64 + noise.sample(rng)).collect()
}

/// Corollary 1: with probability ≥ 1−β, the Laplace mechanism with scale
/// `b = Δ₁/ε` over `k` coordinates has sup error ≤ `b·ln(k/β)`.
pub fn laplace_sup_error(epsilon: f64, l1_sensitivity: f64, k: usize, beta: f64) -> f64 {
    assert!(epsilon > 0.0 && beta > 0.0 && beta < 1.0);
    let k = k.max(1) as f64;
    (l1_sensitivity / epsilon) * (k / beta).ln().max(0.0)
}

/// Corollary 2: with probability ≥ 1−β, the Gaussian mechanism calibrated to
/// `(ε, δ, Δ₂)` over `k` coordinates has sup error ≤
/// `2·ε⁻¹·Δ₂·√(ln(2/δ)·ln(2k/β))`.
pub fn gaussian_sup_error(
    epsilon: f64,
    delta: f64,
    l2_sensitivity: f64,
    k: usize,
    beta: f64,
) -> f64 {
    assert!(epsilon > 0.0 && delta > 0.0 && beta > 0.0 && beta < 1.0);
    let k = k.max(1) as f64;
    2.0 * l2_sensitivity / epsilon * ((2.0 / delta).ln() * (2.0 * k / beta).ln()).sqrt()
}

/// Hölder bound (Lemma 14): a vector with `‖v‖₁ ≤ M` and `‖v‖_∞ ≤ Δ` has
/// `‖v‖₂ ≤ √(MΔ)`. The paper uses this to convert L1 sensitivity bounds
/// into the L2 bounds the Gaussian mechanism needs.
pub fn l2_from_l1_linf(l1: f64, linf: f64) -> f64 {
    assert!(l1 >= 0.0 && linf >= 0.0);
    (l1 * linf).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sup_error_bound_holds_with_high_probability() {
        let mut rng = StdRng::seed_from_u64(42);
        let (eps, sens, k, beta) = (1.0, 2.0, 64usize, 0.05);
        let bound = laplace_sup_error(eps, sens, k, beta);
        let noise = Noise::laplace_for(eps, sens);
        let counts = vec![100u64; k];
        let mut violations = 0usize;
        let trials = 2_000;
        for _ in 0..trials {
            let noisy = randomize_counts(&counts, noise, &mut rng);
            let sup = noisy.iter().map(|&v| (v - 100.0).abs()).fold(0.0f64, f64::max);
            if sup > bound {
                violations += 1;
            }
        }
        // Union bound guarantees ≤ β; empirically it is β-ish (tight for
        // Laplace), so allow some sampling slack.
        assert!((violations as f64 / trials as f64) < beta * 1.5, "violations {violations}");
    }

    #[test]
    fn gaussian_sup_error_bound_holds() {
        let mut rng = StdRng::seed_from_u64(43);
        let (eps, delta, sens, k, beta) = (1.0, 1e-6, 2.0, 64usize, 0.05);
        let bound = gaussian_sup_error(eps, delta, sens, k, beta);
        let noise = Noise::gaussian_for(eps, delta, sens);
        let counts = vec![0u64; k];
        let trials = 500;
        let violations = (0..trials)
            .filter(|_| {
                let noisy = randomize_counts(&counts, noise, &mut rng);
                noisy.iter().map(|&v| v.abs()).fold(0.0f64, f64::max) > bound
            })
            .count();
        assert!((violations as f64 / trials as f64) <= beta);
    }

    #[test]
    fn hoelder_bound() {
        // v = (Δ, Δ, ..., Δ) with M = kΔ: ‖v‖₂ = Δ√k = √(MΔ). Tight.
        let (m, d) = (16.0, 4.0);
        assert!((l2_from_l1_linf(m, d) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn randomize_none_is_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let counts = vec![3u64, 1, 4];
        let out = randomize_counts(&counts, Noise::None, &mut rng);
        assert_eq!(out, vec![3.0, 1.0, 4.0]);
    }
}
