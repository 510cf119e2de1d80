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
                    *x = laplace_from_uniform(b, rng.gen());
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

    /// Precomputes the decision `self.sample(rng) >= t` for many draws
    /// ([`NoiseCut::passes`]), so a draw far from the threshold costs a
    /// comparison instead of a logarithm. Panics on a negative scale, as
    /// [`Noise::sample`] does.
    pub fn cut(&self, t: f64) -> NoiseCut {
        let fixed = NoiseCut { noise: Noise::None, t, lo: 0.0, hi: 0.0 };
        match *self {
            Noise::None => fixed,
            Noise::Laplace { b } => {
                assert!(b >= 0.0);
                if b == 0.0 {
                    return fixed;
                }
                // Lap(b) ≥ t ⟺ u ≥ −sgn(t)·expm1(−|t|/b)/2 in real
                // arithmetic (±1/2 at t = ±∞, NaN at NaN, which no
                // comparison passes, so the exact path decides).
                let cut = -0.5 * t.signum() * (-t.abs() / b).exp_m1();
                NoiseCut { noise: *self, t, lo: cut - CUT_GUARD, hi: cut + CUT_GUARD }
            }
            Noise::Gaussian { sigma } => {
                assert!(sigma >= 0.0);
                if sigma == 0.0 {
                    return fixed;
                }
                // √(−2 ln u1)·σ < |t| ⟺ u1 > exp(−(t/σ)²/2). At t = 0 the
                // cut is 1, so every draw takes the exact path.
                let z = t / sigma;
                let cut = (-0.5 * z * z).exp();
                NoiseCut { noise: *self, t, lo: 0.0, hi: cut + CUT_GUARD }
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
    laplace_from_uniform(b, rng.gen())
}

/// Largest `|u|` the Laplace transform takes: `u ∈ (-1/2, 1/2)` is clamped
/// off its open bounds, so `|Lap(b)| ≤ b·ln(1/(1 − 2·LAPLACE_CLAMP))`.
const LAPLACE_CLAMP: f64 = 0.499_999_999_999;

/// A `U[0, 1)` draw centered to `u ∈ (-1/2, 1/2)` and clamped off the open
/// bounds. Non-decreasing in `unit`.
#[inline]
fn centered(unit: f64) -> f64 {
    (unit - 0.5).clamp(-LAPLACE_CLAMP, LAPLACE_CLAMP)
}

/// The uniform→Laplace transform: `-b·sgn(u)·ln(1-2|u|)` at
/// `u = centered(unit)`. Every Laplace draw goes through it.
#[inline]
fn laplace_from_uniform(b: f64, unit: f64) -> f64 {
    let u = centered(unit);
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
    gaussian_from_uniforms(sigma, u1, u2)
}

/// One Box–Muller coordinate: `σ·√(−2 ln u1)·cos(2π·u2)`, `u1 ∈ (0, 1]`.
#[inline]
fn gaussian_from_uniforms(sigma: f64, u1: f64, u2: f64) -> f64 {
    sigma * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Half-width of a [`NoiseCut`]'s guard band, in units of the uniform the
/// cut is placed on. Rounding moves a computed sample by a few ulps, which
/// is less than `1e-15` of a uniform anywhere on `[0, 1]`; the band is far
/// wider, so outside it the decision is the one the exact sample makes.
/// A Laplace draw lands in the band with probability `2^-19`; a Gaussian
/// one whenever its radius can reach `|t|`, with probability
/// `exp(−t²/2σ²) + 2^-20`.
const CUT_GUARD: f64 = 1.0 / (1u64 << 20) as f64;

/// The decision `noise.sample(rng) >= t` for one fixed `(noise, t)`, made
/// from where the uniform draw falls ([`Noise::cut`]).
///
/// A Laplace sample is a monotone function of its uniform (the inverse
/// CDF), so in real arithmetic it crosses `t` at one point of that
/// uniform: the *cut*, found once in [`Noise::cut`]. A Box–Muller sample
/// is bounded in magnitude by its radius `σ·√(−2 ln u1)`, a decreasing
/// function of `u1`, so its cut is where the radius crosses `|t|`; past it
/// the outcome does not depend on `u2`. A draw more than `2^-20` from the
/// cut is decided by comparing the uniform; one inside that guard band is
/// decided by computing the sample exactly as [`Noise::sample`] does.
/// Either way [`NoiseCut::passes`] consumes the same RNG words as `sample`
/// and returns what `sample(..) >= t` returns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseCut {
    /// The distribution; `Noise::None` for every zero-scale one, which
    /// draws nothing.
    noise: Noise,
    t: f64,
    /// Laplace: the centered uniform fails below `lo` and passes above
    /// `hi`. Gaussian: `u1` above `hi` puts the radius below `|t|`, so the
    /// sample passes iff `t < 0`; `lo` is unused.
    lo: f64,
    hi: f64,
}

impl NoiseCut {
    /// `noise.sample(rng) >= t`, drawing exactly the words `sample` draws.
    #[inline]
    pub fn passes<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        match self.noise {
            Noise::None => 0.0 >= self.t,
            Noise::Laplace { b } => {
                let unit: f64 = rng.gen();
                let u = centered(unit);
                if u < self.lo {
                    false
                } else if u > self.hi {
                    true
                } else {
                    laplace_from_uniform(b, unit) >= self.t
                }
            }
            Noise::Gaussian { sigma } => {
                let u1: f64 = 1.0 - rng.gen::<f64>();
                let u2: f64 = rng.gen();
                if u1 > self.hi {
                    self.t < 0.0
                } else {
                    gaussian_from_uniforms(sigma, u1, u2) >= self.t
                }
            }
        }
    }
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

    /// Scales of the cut tests, and thresholds in units of the scale:
    /// both infinities, zeros of both signs, the body and both tails,
    /// Laplace's largest sample (`26.94·b`) and beyond it, and NaN.
    const CUT_SCALES: [f64; 2] = [0.5, 3.0];
    const CUT_THRESHOLDS: [f64; 14] = [
        f64::NEG_INFINITY,
        -40.0,
        -2.0,
        -1e-9,
        -0.0,
        0.0,
        1e-9,
        0.3,
        2.0,
        7.5,
        26.9,
        28.0,
        f64::INFINITY,
        f64::NAN,
    ];

    /// Each noise of the cut tests with its scale (`b` or `σ`).
    fn cut_noises() -> Vec<(Noise, f64)> {
        CUT_SCALES
            .iter()
            .flat_map(|&s| [(Noise::Laplace { b: s }, s), (Noise::Gaussian { sigma: s }, s)])
            .collect()
    }

    #[test]
    fn cut_matches_sample_over_a_million_draws() {
        for (i, (noise, scale)) in cut_noises().into_iter().enumerate() {
            let cuts: Vec<(f64, NoiseCut)> =
                CUT_THRESHOLDS.iter().map(|&z| (z * scale, noise.cut(z * scale))).collect();
            let mut rng = StdRng::seed_from_u64(100 + i as u64);
            let mut passed = vec![0usize; cuts.len()];
            for _ in 0..1_000_000 {
                let mut sampled = rng.clone();
                let x = noise.sample(&mut sampled);
                for (k, &(t, cut)) in cuts.iter().enumerate() {
                    let mut decided = rng.clone();
                    let pass = cut.passes(&mut decided);
                    assert_eq!(pass, x >= t, "{noise:?} t={t} sample {x}");
                    assert_eq!(decided, sampled, "{noise:?} t={t}: different words drawn");
                    passed[k] += pass as usize;
                }
                rng = sampled;
            }
            // Both outcomes occur at the thresholds inside the body.
            for (k, &z) in CUT_THRESHOLDS.iter().enumerate() {
                if (-2.0..=2.0).contains(&z) {
                    assert!(0 < passed[k] && passed[k] < 1_000_000, "{noise:?} z={z}");
                }
            }
        }
    }

    /// An RNG that returns scripted words, then panics.
    struct Script(std::vec::IntoIter<u64>);

    impl rand::RngCore for Script {
        fn next_u64(&mut self) -> u64 {
            self.0.next().expect("script exhausted")
        }
    }

    /// The word whose uniform is `k·2^-53`.
    fn word(k: u64) -> u64 {
        k << 11
    }

    /// The first `k` whose uniform `k·2^-53` maps, by `f` (non-decreasing),
    /// to at least `edge`.
    fn first_at_least(f: impl Fn(f64) -> f64, edge: f64) -> u64 {
        let (mut lo, mut hi) = (0u64, 1u64 << 53);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if f(mid as f64 / (1u64 << 53) as f64) < edge {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    #[test]
    fn cut_matches_sample_at_the_guard_band_edges() {
        let u2_words =
            [0, word(1 << 51), word(1 << 52), word(3 << 51), u64::MAX, 0x9E37_79B9_7F4A_7C15];
        let mut band_draws = 0;
        for (noise, scale) in cut_noises() {
            for &z in &CUT_THRESHOLDS {
                let t = z * scale;
                let cut = noise.cut(t);
                if !(cut.lo.is_finite() && cut.hi.is_finite()) {
                    continue;
                }
                // Each band edge as the first word at or past it, with its
                // neighbours on both sides.
                let ks: Vec<u64> = match noise {
                    Noise::Laplace { .. } => {
                        [cut.lo, cut.hi].iter().map(|&e| first_at_least(centered, e)).collect()
                    }
                    _ => vec![first_at_least(|u| -(1.0 - u), -cut.hi)],
                };
                for k in ks {
                    for k in k.saturating_sub(1)..=(k + 1).min((1 << 53) - 1) {
                        for &w2 in &u2_words {
                            let script = vec![word(k), w2];
                            let want = noise.sample(&mut Script(script.clone().into_iter())) >= t;
                            let mut rng = Script(script.into_iter());
                            assert_eq!(cut.passes(&mut rng), want, "{noise:?} t={t} k={k}");
                            let left = if let Noise::Laplace { .. } = noise { 1 } else { 0 };
                            assert_eq!(rng.0.len(), left, "{noise:?} t={t}: words drawn");
                            let unit = k as f64 / (1u64 << 53) as f64;
                            band_draws += match noise {
                                Noise::Laplace { .. } => {
                                    (cut.lo..=cut.hi).contains(&centered(unit)) as usize
                                }
                                _ => (1.0 - unit <= cut.hi) as usize,
                            };
                        }
                    }
                }
            }
        }
        assert!(band_draws > 0, "the exact path ran");
    }

    #[test]
    fn cut_of_zero_noise_draws_nothing() {
        for noise in [Noise::None, Noise::Laplace { b: 0.0 }, Noise::Gaussian { sigma: 0.0 }] {
            for t in [-1.0, 0.0, 1.0] {
                let mut rng = Script(Vec::new().into_iter());
                assert_eq!(noise.cut(t).passes(&mut rng), 0.0 >= t, "{noise:?} t={t}");
            }
        }
    }

    #[test]
    fn cut_at_the_largest_laplace_sample_passes_the_clamped_draws() {
        let b = 1.5;
        let noise = Noise::Laplace { b };
        let top = laplace_from_uniform(b, 1.0);
        let clamped = first_at_least(centered, LAPLACE_CLAMP);
        for t in [top, top.next_up()] {
            for k in [clamped - 1, clamped, (1 << 53) - 1] {
                let want = noise.sample(&mut Script(vec![word(k)].into_iter())) >= t;
                assert_eq!(want, t == top && k >= clamped, "k={k} t={t}");
                let passes = noise.cut(t).passes(&mut Script(vec![word(k)].into_iter()));
                assert_eq!(passes, want, "k={k} t={t}");
            }
        }
    }

    #[test]
    fn zero_noise_is_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(Noise::None.sample(&mut rng), 0.0);
        assert_eq!(Noise::None.tail_bound(0.1), 0.0);
    }
}
