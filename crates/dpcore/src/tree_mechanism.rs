//! The binary-tree (dyadic) mechanism for private prefix sums.
//!
//! Implements the mechanism of Dwork–Naor–Pitassi–Rothblum \[27\] in the
//! multi-sequence form the paper needs (Lemma 11 for ε-DP with Laplace
//! noise, Lemma 18 for (ε,δ)-DP with Gaussian noise): to release all prefix
//! sums of a length-`T` sequence, add noise to the partial sum of every
//! dyadic interval of `[1, T]`; a prefix `[1, m]` is then the sum of at most
//! `⌊log T⌋ + 1` noisy dyadic sums.
//!
//! Calibration is the caller's job (the sensitivity `L` is summed across all
//! `k` sequences — a key point of the paper's heavy-path analysis); the
//! helpers [`lemma11_noise`]/[`lemma18_noise`] encode the paper's exact
//! scales and [`lemma11_error_bound`]/[`lemma18_error_bound`] the resulting
//! high-probability sup errors.

use rand::Rng;

use crate::noise::Noise;

/// `⌊log₂ t⌋ + 1` for `t ≥ 1` — the maximum number of dyadic intervals
/// covering any prefix of `[1, t]`, and the maximum number of intervals any
/// single index belongs to.
pub fn dyadic_levels(t: usize) -> usize {
    assert!(t >= 1);
    (usize::BITS - t.leading_zeros()) as usize
}

/// The binary-tree mechanism over one sequence.
///
/// Stores the noisy dyadic partial sums; queries return noisy prefix sums.
/// [`rebuild`](Self::rebuild) releases a new sequence into the same
/// buffers, so one mechanism serves many sequences without allocating.
#[derive(Debug, Clone)]
pub struct BinaryTreeMechanism {
    /// The dyadic levels in one array: level `l` starts at
    /// `level_start[l]` and its `j`-th entry is the noisy sum of
    /// `seq[j·2^l .. (j+1)·2^l)` (0-indexed), present only for intervals
    /// fully inside the sequence.
    noisy: Vec<f64>,
    level_start: Vec<usize>,
    /// Prefix sums of the last sequence, for `O(1)` interval sums.
    pre: Vec<f64>,
    t: usize,
}

impl BinaryTreeMechanism {
    /// An empty mechanism whose buffers hold sequences of up to `t`
    /// elements without growing.
    pub fn with_capacity(t: usize) -> Self {
        Self {
            noisy: Vec::with_capacity(2 * t.max(1)),
            level_start: Vec::with_capacity(dyadic_levels(t.max(1))),
            pre: Vec::with_capacity(t + 1),
            t: 0,
        }
    }

    /// Builds the mechanism: one noise draw per dyadic interval.
    ///
    /// `O(T)` intervals in total, `O(T)` time. Noise is drawn per level via
    /// [`Noise::sample_many`], so calibration checks run once per level and
    /// the Gaussian path amortizes its Box–Muller pairs.
    pub fn build<R: Rng + ?Sized>(seq: &[f64], noise: Noise, rng: &mut R) -> Self {
        let mut mech = Self::with_capacity(seq.len());
        mech.rebuild(seq, noise, rng);
        mech
    }

    /// Replaces the released sequence by `seq`, drawing exactly what
    /// [`build`](Self::build) would from the same RNG state and reusing
    /// the buffers.
    pub fn rebuild<R: Rng + ?Sized>(&mut self, seq: &[f64], noise: Noise, rng: &mut R) {
        let t = seq.len();
        self.t = t;
        self.pre.clear();
        self.pre.push(0.0);
        for &v in seq {
            let last = self.pre[self.pre.len() - 1];
            self.pre.push(last + v);
        }
        self.noisy.clear();
        self.level_start.clear();
        let mut size = 1usize;
        while size <= t.max(1) {
            let start = self.noisy.len();
            self.level_start.push(start);
            self.noisy.resize(start + t / size, 0.0);
            // Draw first, then add each interval sum (addition commutes).
            let level = &mut self.noisy[start..];
            noise.sample_many(level, rng);
            for (j, s) in level.iter_mut().enumerate() {
                *s += self.pre[(j + 1) * size] - self.pre[j * size];
            }
            if size > t / 2 {
                break;
            }
            size *= 2;
        }
    }

    /// Noisy prefix sum of the first `m` elements (`m ∈ [0, T]`).
    ///
    /// The prefix `[1, m]` splits into one aligned dyadic interval per set
    /// bit of `m`, at most [`dyadic_levels`]`(m)` of them. They are added
    /// largest first, without allocating.
    pub fn prefix(&self, m: usize) -> f64 {
        assert!(m <= self.t, "prefix length out of range");
        let mut sum = 0.0;
        let mut covered = 0usize;
        let mut rest = m;
        while rest > 0 {
            let level = (usize::BITS - 1 - rest.leading_zeros()) as usize;
            sum += self.noisy[self.level_start[level] + (covered >> level)];
            covered += 1 << level;
            rest -= 1 << level;
        }
        sum
    }

    /// All noisy prefix sums `[1..=T]` as a vector (index `i` holds the
    /// prefix of length `i + 1`).
    pub fn all_prefixes(&self) -> Vec<f64> {
        (1..=self.t).map(|m| self.prefix(m)).collect()
    }

    /// Sequence length.
    #[inline]
    pub fn len(&self) -> usize {
        self.t
    }

    /// Whether the sequence is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.t == 0
    }
}

/// Lemma 11 noise scale: `Lap(ε⁻¹ · L · (⌊log T⌋ + 1))` per dyadic interval,
/// where `L` is the *summed* L1 sensitivity across all `k` sequences.
pub fn lemma11_noise(epsilon: f64, l_total: f64, t: usize) -> Noise {
    assert!(epsilon > 0.0);
    let levels = dyadic_levels(t.max(1)) as f64;
    Noise::Laplace { b: l_total * levels / epsilon }
}

/// Lemma 11 error bound: with probability ≥ 1−β, every prefix sum of every
/// one of the `k` sequences (lengths ≤ `t`) errs by at most this.
///
/// From Lemma 12 with `b = ε⁻¹L(⌊log T⌋+1)`:
/// `2b·√(2 ln(2kT/β))·max(√(⌊log T⌋+1), √(ln(2kT/β)))`.
pub fn lemma11_error_bound(epsilon: f64, l_total: f64, t: usize, k: usize, beta: f64) -> f64 {
    assert!(epsilon > 0.0 && beta > 0.0 && beta < 1.0);
    let levels = dyadic_levels(t.max(1)) as f64;
    let b = l_total * levels / epsilon;
    let log_term = (2.0 * (k.max(1) * t.max(1)) as f64 / beta).ln();
    2.0 * b * (2.0 * log_term).sqrt() * levels.sqrt().max(log_term.sqrt())
}

/// Lemma 18 noise scale:
/// `N(0, σ²)` with `σ = ε⁻¹·√(2·L·Δ·(⌊log T⌋+1)·ln(2/δ))`, where `L` is the
/// summed L1 sensitivity and `Δ` the per-sequence L1 (hence L∞-per-interval)
/// sensitivity — the Hölder step of the paper.
pub fn lemma18_noise(epsilon: f64, delta: f64, l_total: f64, delta_inf: f64, t: usize) -> Noise {
    assert!(epsilon > 0.0 && delta > 0.0);
    let levels = dyadic_levels(t.max(1)) as f64;
    let sigma = (2.0 * l_total * delta_inf * levels * (2.0 / delta).ln()).sqrt() / epsilon;
    Noise::Gaussian { sigma }
}

/// Lemma 18 error bound: `σ·√((⌊log T⌋+1)·ln(Tk/β))` with σ from
/// [`lemma18_noise`] — with probability ≥ 1−β over all prefix sums of all
/// `k` sequences.
pub fn lemma18_error_bound(
    epsilon: f64,
    delta: f64,
    l_total: f64,
    delta_inf: f64,
    t: usize,
    k: usize,
    beta: f64,
) -> f64 {
    let Noise::Gaussian { sigma } = lemma18_noise(epsilon, delta, l_total, delta_inf, t) else {
        unreachable!("lemma18_noise always returns Gaussian");
    };
    let levels = dyadic_levels(t.max(1)) as f64;
    // Gaussian tail (Lemma 4) with variance (⌊log T⌋+1)σ², union over kT
    // prefix sums: t = σ₁·√(2 ln(2kT/β)).
    let sigma1 = sigma * levels.sqrt();
    sigma1 * (2.0 * (2.0 * (k.max(1) * t.max(1)) as f64 / beta).ln()).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn zero_noise_gives_exact_prefix_sums() {
        let mut rng = StdRng::seed_from_u64(3);
        for t in [1usize, 2, 3, 7, 8, 9, 31, 64, 100] {
            let seq: Vec<f64> = (0..t).map(|i| (i as f64 * 1.5) - 3.0).collect();
            let mech = BinaryTreeMechanism::build(&seq, Noise::None, &mut rng);
            let mut acc = 0.0;
            for (i, &v) in seq.iter().enumerate() {
                acc += v;
                assert!((mech.prefix(i + 1) - acc).abs() < 1e-9, "t={t} m={}", i + 1);
            }
            assert_eq!(mech.prefix(0), 0.0);
        }
    }

    #[test]
    fn noisy_prefix_error_within_lemma11_bound() {
        let mut rng = StdRng::seed_from_u64(4);
        let t = 128usize;
        let seq: Vec<f64> = (0..t).map(|i| (i % 5) as f64).collect();
        let exact: Vec<f64> = {
            let mut acc = 0.0;
            seq.iter()
                .map(|&v| {
                    acc += v;
                    acc
                })
                .collect()
        };
        let (eps, l, k, beta) = (1.0, 1.0, 1usize, 0.05);
        let noise = lemma11_noise(eps, l, t);
        let bound = lemma11_error_bound(eps, l, t, k, beta);
        let trials = 300;
        let violations = (0..trials)
            .filter(|_| {
                let mech = BinaryTreeMechanism::build(&seq, noise, &mut rng);
                (0..t).any(|m| (mech.prefix(m + 1) - exact[m]).abs() > bound)
            })
            .count();
        assert!(
            (violations as f64 / trials as f64) <= beta,
            "violations {violations}/{trials} vs β={beta}"
        );
    }

    #[test]
    fn noisy_prefix_error_within_lemma18_bound() {
        let mut rng = StdRng::seed_from_u64(5);
        let t = 64usize;
        let seq: Vec<f64> = (0..t).map(|i| ((i * 7) % 3) as f64).collect();
        let exact: Vec<f64> = {
            let mut acc = 0.0;
            seq.iter()
                .map(|&v| {
                    acc += v;
                    acc
                })
                .collect()
        };
        let (eps, delta, l, dinf, k, beta) = (1.0, 1e-6, 4.0, 2.0, 1usize, 0.05);
        let noise = lemma18_noise(eps, delta, l, dinf, t);
        let bound = lemma18_error_bound(eps, delta, l, dinf, t, k, beta);
        let trials = 300;
        let violations = (0..trials)
            .filter(|_| {
                let mech = BinaryTreeMechanism::build(&seq, noise, &mut rng);
                (0..t).any(|m| (mech.prefix(m + 1) - exact[m]).abs() > bound)
            })
            .count();
        assert!((violations as f64 / trials as f64) <= beta);
    }

    #[test]
    fn per_element_interval_membership_is_logarithmic() {
        // Every index belongs to at most ⌊log T⌋+1 dyadic intervals — the
        // crux of the sensitivity argument in Lemma 11's privacy proof.
        for t in [1usize, 5, 16, 33, 100] {
            let levels = dyadic_levels(t);
            for idx in 0..t {
                let mut membership = 0usize;
                let mut size = 1usize;
                while size <= t {
                    if (idx / size) * size + size <= t {
                        membership += 1;
                    }
                    size *= 2;
                }
                assert!(membership <= levels, "t={t} idx={idx}");
            }
        }
    }

    #[test]
    fn rebuild_matches_a_fresh_build() {
        // One mechanism reused over sequences of varying lengths releases
        // bit for bit what a fresh build does from the same RNG state.
        let noise = Noise::Laplace { b: 2.5 };
        let mut reused = BinaryTreeMechanism::with_capacity(8);
        let mut rng = StdRng::seed_from_u64(7);
        for t in [33usize, 1, 7, 64, 2] {
            let seq: Vec<f64> = (0..t).map(|i| ((i * 5) % 7) as f64 - 2.0).collect();
            let mut fresh_rng = rng.clone();
            let fresh = BinaryTreeMechanism::build(&seq, noise, &mut fresh_rng);
            reused.rebuild(&seq, noise, &mut rng);
            assert_eq!(reused.len(), t);
            for m in 0..=t {
                assert_eq!(reused.prefix(m).to_bits(), fresh.prefix(m).to_bits(), "t={t} m={m}");
            }
            // Both consumed the same draws.
            assert_eq!(rng.gen::<u64>(), fresh_rng.gen::<u64>());
        }
    }

    #[test]
    fn empty_sequence() {
        let mut rng = StdRng::seed_from_u64(6);
        let mech = BinaryTreeMechanism::build(&[], Noise::Laplace { b: 1.0 }, &mut rng);
        assert_eq!(mech.prefix(0), 0.0);
        assert!(mech.is_empty());
        assert!(mech.all_prefixes().is_empty());
    }
}
