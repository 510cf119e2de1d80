//! Order statistics over measured samples.

/// Median of integer samples, as the lower middle; sorts `v`.
pub fn median_u64(v: &mut [u64]) -> u64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_unstable();
    v[(v.len() - 1) / 2]
}

/// The `q`-quantile of `v` by nearest rank; sorts `v`. 0 when empty.
pub fn quantile(v: &mut [u64], q: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    v[((v.len() - 1) as f64 * q).round() as usize]
}
