//! Order statistics over timing samples.

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// [`median`], or 0 when there are no samples (a layer the workload does
/// not exercise).
pub fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`.
///
/// Returns `None` when fewer than ten samples lie beyond the percentile's
/// rank: a p95 of 100 samples is decided by five of them, and one slow
/// sample moves it. The median (`p = 50`) is subject to the same rule, so
/// it needs at least 20 samples; use [`median`] for small sets.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    let beyond = v.len() - rank;
    (beyond >= 10).then(|| v[rank - 1])
}

/// Geometric mean of strictly positive values; `None` for an empty slice.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}
