//! Order statistics the benchmark reports: medians over reps, nearest-rank
//! percentiles over request latencies, and the quartile spread the
//! repeatability rule is stated in.

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller reports at least one rep.
pub fn median(values: &[f64]) -> f64 {
    rn_tensor::percentile(values, 50.0)
}

/// The value a share `q` (0..=1) of the way up the sorted `values`, linear
/// between neighbours. Panics on an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    rn_tensor::percentile(values, q * 100.0)
}

/// Smallest and largest value.
pub fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

/// Inclusive nearest-rank percentile (`p` in 0..=100) of an ascending
/// slice — the workspace's one percentile convention (`rn_trace`).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    let idx = rn_trace::nearest_rank(sorted.len(), p).expect("percentile of no values");
    sorted[idx]
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// (the exclusive method) gives them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median: the spread the
/// benchmark's bounds are judged against.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}
