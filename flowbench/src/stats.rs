//! Order statistics for run samples: medians, quartiles and the tail
//! percentile rule.

/// Median of `values` (mean of the middle pair for even counts); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some(0.5 * (v[n / 2 - 1] + v[n / 2])),
    }
}

/// First quartile, median and third quartile by the same rule as
/// Python's `statistics.quantiles(values, n=4)` (the default
/// `exclusive` method), so spreads computed here match the ones any
/// external check computes from the same runs. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let n = 4;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        // `i * m - j * n` can be negative after the clamp at the low
        // end; the interpolation weights stay exact in signed math.
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

/// Nearest-rank rank (1-based) of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0) * n as f64).ceil().max(1.0) as usize
}

/// Nearest-rank percentile `p` (0–100] of `values`; `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    (!v.is_empty()).then(|| v[rank(p, v.len()).min(v.len()) - 1])
}

/// Percentiles the tail rule may report, highest last.
const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 80.0, 90.0, 95.0, 99.0];

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten
/// samples above it, with its nearest-rank value: `(percentile, value)`.
/// `None` when even the median has fewer than ten samples beyond it.
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    let p = *TAIL_LADDER
        .iter()
        .rev()
        .find(|&&p| n - rank(p, n).min(n) >= 10)?;
    Some((p, percentile(values, p)?))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([5, 1, 3, 2, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0, 2.0, 4.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(percentile(&v, 25.0), Some(2.0));
        assert_eq!(percentile(&v, 50.0), Some(4.0));
        assert_eq!(percentile(&v, 100.0), Some(8.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 25.0), Some(1.0));
        assert_eq!(percentile(&[], 25.0), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let v = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // n = 60: p90 leaves 6 beyond, p80 leaves 12.
        assert_eq!(tail_percentile(&v(60)), Some((80.0, 48.0)));
        // n = 20: only the median leaves 10 beyond.
        assert_eq!(tail_percentile(&v(20)), Some((50.0, 10.0)));
        // n = 1000: p99 leaves exactly 10 beyond.
        assert_eq!(tail_percentile(&v(1000)), Some((99.0, 990.0)));
        // n = 19: not even the median has 10 samples beyond it.
        assert_eq!(tail_percentile(&v(19)), None);
    }
}
