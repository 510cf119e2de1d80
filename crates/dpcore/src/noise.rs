//! Noise distributions for differential privacy.
//!
//! Self-contained samplers built from `rand` uniforms: inverse-CDF Laplace
//! (Definition 4) and Box–Muller Gaussian (Definition 5). Keeping the
//! samplers in-repo makes the mechanism code auditable end to end and avoids
//! any dependency beyond `rand`.
//!
//! `Noise::None` disables noise entirely; the pipelines use it in tests to
//! verify that with zero noise they reproduce exact counts (a correctness
//! smoke test the paper's analysis implicitly relies on).

use rand::Rng;

/// A centered noise distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Noise {
    /// Degenerate zero noise (testing only — *not* private).
    None,
    /// Laplace with scale `b` (density `(1/2b)·exp(-|x|/b)`).
    Laplace {
        /// Scale parameter `b > 0`.
        b: f64,
    },
    /// Gaussian with standard deviation `sigma`.
    Gaussian {
        /// Standard deviation `σ > 0`.
        sigma: f64,
    },
}

impl Noise {
    /// Laplace noise calibrated to `L1` sensitivity and ε (Lemma 3):
    /// `b = Δ₁/ε`.
    pub fn laplace_for(epsilon: f64, l1_sensitivity: f64) -> Self {
        assert!(epsilon > 0.0, "ε must be positive");
        assert!(l1_sensitivity >= 0.0, "sensitivity must be non-negative");
        Self::Laplace { b: l1_sensitivity / epsilon }
    }

    /// Gaussian noise calibrated to `L2` sensitivity and (ε, δ) (Lemma 5):
    /// `σ = √(2 ln(1.25/δ)) · Δ₂ / ε`. The classical analysis proves this
    /// σ only for `ε ∈ (0, 1]`. Larger ε is accepted with the same formula,
    /// which is *not* conservative: above 1 it can under-noise, so the
    /// (ε, δ) guarantee is not established there. Two callers reach that
    /// range: approx builds calibrate each step at ε/3
    /// (`private_count::builder`, `split_even(3)`), so any total ε > 3
    /// does; and the audit matrix's sampler rows call this at every
    /// configured ε, up to 4. The analytic Gaussian mechanism, valid for
    /// every ε, is the planned fix (ROADMAP.md item 4(a)).
    pub fn gaussian_for(epsilon: f64, delta: f64, l2_sensitivity: f64) -> Self {
        assert!(epsilon > 0.0, "ε must be positive");
        assert!(delta > 0.0 && delta < 1.0, "δ must be in (0,1)");
        assert!(l2_sensitivity >= 0.0, "sensitivity must be non-negative");
        let c = (2.0 * (1.25 / delta).ln()).sqrt();
        Self::Gaussian { sigma: c * l2_sensitivity / epsilon }
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            Noise::None => 0.0,
            Noise::Laplace { b } => sample_laplace(b, rng),
            Noise::Gaussian { sigma } => sample_gaussian(sigma, rng),
        }
    }

    /// Fills `out` with independent samples.
    ///
    /// Semantically `for x in out { *x = self.sample(rng) }`, but batched:
    /// the calibration checks run once per call instead of once per draw,
    /// and the Gaussian path uses both Box–Muller coordinates (sine and
    /// cosine), halving the uniform draws and transcendental evaluations.
    /// The stream differs from repeated [`Noise::sample`] calls; it is
    /// deterministic for a given RNG state.
    pub fn sample_many<R: Rng + ?Sized>(&self, out: &mut [f64], rng: &mut R) {
        match *self {
            Noise::None => out.fill(0.0),
            Noise::Laplace { b } => {
                assert!(b >= 0.0);
                if b == 0.0 {
                    out.fill(0.0);
                    return;
                }
                for x in out.iter_mut() {
                    let u: f64 = rng.gen::<f64>() - 0.5;
                    let u = u.clamp(-0.499_999_999_999, 0.499_999_999_999);
                    *x = -b * u.signum() * (1.0 - 2.0 * u.abs()).ln();
                }
            }
            Noise::Gaussian { sigma } => {
                assert!(sigma >= 0.0);
                if sigma == 0.0 {
                    out.fill(0.0);
                    return;
                }
                let mut i = 0;
                while i < out.len() {
                    let u1: f64 = 1.0 - rng.gen::<f64>();
                    let u2: f64 = rng.gen();
                    let r = sigma * (-2.0 * u1.ln()).sqrt();
                    let theta = 2.0 * std::f64::consts::PI * u2;
                    out[i] = r * theta.cos();
                    i += 1;
                    if i < out.len() {
                        out[i] = r * theta.sin();
                        i += 1;
                    }
                }
            }
        }
    }

    /// A bound `t` such that `Pr[|Y| > t] ≤ beta` for a single draw.
    ///
    /// Laplace: `t = b·ln(1/β)` (Lemma 2). Gaussian: `t = σ·√(2 ln(2/β))`
    /// (Lemma 4). Zero noise: `0`.
    pub fn tail_bound(&self, beta: f64) -> f64 {
        assert!(beta > 0.0 && beta < 1.0, "β must be in (0,1)");
        match *self {
            Noise::None => 0.0,
            Noise::Laplace { b } => b * (1.0 / beta).ln(),
            Noise::Gaussian { sigma } => sigma * (2.0 * (2.0 / beta).ln()).sqrt(),
        }
    }

    /// Standard deviation of the distribution.
    pub fn std_dev(&self) -> f64 {
        match *self {
            Noise::None => 0.0,
            Noise::Laplace { b } => b * std::f64::consts::SQRT_2,
            Noise::Gaussian { sigma } => sigma,
        }
    }
}

/// Laplace(0, b) via inverse CDF: `X = -b·sgn(u)·ln(1-2|u|)`, `u ~ U(-1/2, 1/2)`.
pub fn sample_laplace<R: Rng + ?Sized>(b: f64, rng: &mut R) -> f64 {
    assert!(b >= 0.0);
    if b == 0.0 {
        return 0.0;
    }
    // u ∈ (-0.5, 0.5); guard the open bounds.
    let u: f64 = rng.gen::<f64>() - 0.5;
    let u = u.clamp(-0.499_999_999_999, 0.499_999_999_999);
    -b * u.signum() * (1.0 - 2.0 * u.abs()).ln()
}

/// N(0, σ²) via Box–Muller.
pub fn sample_gaussian<R: Rng + ?Sized>(sigma: f64, rng: &mut R) -> f64 {
    assert!(sigma >= 0.0);
    if sigma == 0.0 {
        return 0.0;
    }
    // Draw u1 ∈ (0, 1] to keep ln finite.
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    sigma * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn laplace_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let b = 3.0;
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_laplace(b, &mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        // Var(Lap(b)) = 2b² = 18.
        assert!((var - 18.0).abs() < 0.6, "var {var}");
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(8);
        let sigma = 2.0;
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_gaussian(sigma, &mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn laplace_tail_bound_holds_empirically() {
        let mut rng = StdRng::seed_from_u64(9);
        let noise = Noise::Laplace { b: 1.5 };
        let beta = 0.05;
        let t = noise.tail_bound(beta);
        let n = 100_000;
        let exceed = (0..n).filter(|_| noise.sample(&mut rng).abs() > t).count();
        // Exceedance probability should be ≈ β (= e^{-t/b} exactly here).
        let rate = exceed as f64 / n as f64;
        assert!(rate < beta * 1.2, "rate {rate} vs β {beta}");
        assert!(rate > beta * 0.8, "Laplace tail bound is tight; rate {rate}");
    }

    #[test]
    fn gaussian_tail_bound_holds_empirically() {
        let mut rng = StdRng::seed_from_u64(10);
        let noise = Noise::Gaussian { sigma: 2.0 };
        let beta = 0.05;
        let t = noise.tail_bound(beta);
        let n = 100_000;
        let exceed = (0..n).filter(|_| noise.sample(&mut rng).abs() > t).count();
        // The bound 2e^{-t²/2σ²} is conservative; exceedance must be ≤ β.
        assert!((exceed as f64 / n as f64) <= beta);
    }

    #[test]
    fn calibration_formulas() {
        let lap = Noise::laplace_for(0.5, 4.0);
        assert_eq!(lap, Noise::Laplace { b: 8.0 });
        let gauss = Noise::gaussian_for(1.0, 1e-6, 2.0);
        if let Noise::Gaussian { sigma } = gauss {
            let expect = (2.0f64 * (1.25e6f64).ln()).sqrt() * 2.0;
            assert!((sigma - expect).abs() < 1e-9);
        } else {
            panic!("expected gaussian");
        }
    }

    #[test]
    fn sample_many_laplace_moments() {
        let mut rng = StdRng::seed_from_u64(11);
        let noise = Noise::Laplace { b: 3.0 };
        let mut samples = vec![0.0f64; 200_000];
        noise.sample_many(&mut samples, &mut rng);
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        assert!(mean.abs() < 0.05, "mean {mean}");
        // Var(Lap(3)) = 2·9 = 18, matching the per-sample test's tolerance.
        assert!((var - 18.0).abs() < 0.6, "var {var}");
    }

    #[test]
    fn sample_many_gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(12);
        let noise = Noise::Gaussian { sigma: 2.0 };
        // Odd length exercises the unpaired Box–Muller tail draw.
        let mut samples = vec![0.0f64; 200_001];
        noise.sample_many(&mut samples, &mut rng);
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
        // Pairwise Box–Muller must not correlate adjacent samples.
        let cov =
            samples.windows(2).map(|w| (w[0] - mean) * (w[1] - mean)).sum::<f64>() / (n - 1.0);
        assert!(cov.abs() < 0.05, "lag-1 covariance {cov}");
    }

    #[test]
    fn sample_many_matches_laplace_stream() {
        // The Laplace batch path consumes uniforms exactly like repeated
        // sample() calls, so the streams agree draw for draw.
        let noise = Noise::Laplace { b: 1.5 };
        let mut a = StdRng::seed_from_u64(13);
        let mut b = StdRng::seed_from_u64(13);
        let mut batch = vec![0.0f64; 64];
        noise.sample_many(&mut batch, &mut a);
        for (i, &x) in batch.iter().enumerate() {
            assert_eq!(x, noise.sample(&mut b), "draw {i}");
        }
    }

    #[test]
    fn sample_many_zero_and_none() {
        let mut rng = StdRng::seed_from_u64(14);
        let mut buf = [1.0f64; 7];
        Noise::None.sample_many(&mut buf, &mut rng);
        assert!(buf.iter().all(|&x| x == 0.0));
        let mut buf = [1.0f64; 7];
        Noise::Laplace { b: 0.0 }.sample_many(&mut buf, &mut rng);
        assert!(buf.iter().all(|&x| x == 0.0));
        let mut buf = [1.0f64; 7];
        Noise::Gaussian { sigma: 0.0 }.sample_many(&mut buf, &mut rng);
        assert!(buf.iter().all(|&x| x == 0.0));
        // Empty slice is a no-op, not a panic.
        Noise::Gaussian { sigma: 1.0 }.sample_many(&mut [], &mut rng);
    }

    #[test]
    fn zero_noise_is_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(Noise::None.sample(&mut rng), 0.0);
        assert_eq!(Noise::None.tail_bound(0.1), 0.0);
    }
}
