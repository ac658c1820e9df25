//! Order statistics over timings.

/// The `q`-quantile (nearest rank) of `values`, reordering them; 0 when
/// empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let rank = ((values.len() - 1) as f64 * q).round() as usize;
    *values.select_nth_unstable_by(rank, |a, b| a.total_cmp(b)).1
}

/// The median of `values` (the mean of the middle two when their count
/// is even), reordering them; 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    let n = values.len();
    if n % 2 == 1 || n == 0 {
        return quantile(values, 0.5);
    }
    let upper = *values
        .select_nth_unstable_by(n / 2, |a, b| a.total_cmp(b))
        .1;
    let lower = values[..n / 2].iter().copied().fold(f64::MIN, f64::max);
    (lower + upper) / 2.0
}
