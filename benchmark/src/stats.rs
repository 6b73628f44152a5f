//! Order statistics over timing samples.

/// Sorted copy of `xs` (total order, NaN last).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle values for an even count. `NaN` for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method) gives
/// them, so a spread computed here matches the one the driver computes.
/// Needs at least two values; `(NaN, NaN)` otherwise.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let m = v.len();
    if m < 2 {
        return (f64::NAN, f64::NAN);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// First quartile; the single value of a one-element slice.
pub fn lower_quartile(xs: &[f64]) -> f64 {
    match xs {
        [x] => *x,
        _ => quartiles(xs).0,
    }
}

/// The typical `y` at `x = 0`, from a robust line through the points
/// `(xs[i], ys[i])`: the Theil–Sen slope (median of the slopes between
/// every two points with different `x`) clamped to `[0, 1]`, then the
/// median of `y − slope·x`. With every `x` equal — no CPU stolen anywhere
/// — this is `median(ys)`.
///
/// `x` is the CPU time the hypervisor took from the guest while the sample
/// ran: a stolen second delays a sample, and is charged to its CPU time,
/// by between nothing and a second, which is the clamp.
pub fn at_zero(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "one x per y");
    let mut slopes = Vec::new();
    for i in 0..xs.len() {
        for j in i + 1..xs.len() {
            if xs[i] != xs[j] {
                slopes.push((ys[j] - ys[i]) / (xs[j] - xs[i]));
            }
        }
    }
    let slope = if slopes.is_empty() {
        0.0
    } else {
        median(&slopes).clamp(0.0, 1.0)
    };
    let at_zero: Vec<f64> = xs.iter().zip(ys).map(|(x, y)| y - slope * x).collect();
    median(&at_zero)
}

/// Nearest-rank percentile `p` in `[0, 100]`. `NaN` for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Whether the lower quartiles of the first and second half of a sample
/// sequence agree within `tol` of the overall one — the stationarity
/// check (a drifting workload cannot be summarised by one number).
pub fn stationary(xs: &[f64], tol: f64) -> bool {
    if xs.len() < 4 {
        return true;
    }
    let (a, b) = xs.split_at(xs.len() / 2);
    (lower_quartile(a) - lower_quartile(b)).abs() <= tol * lower_quartile(xs).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[30.0, 10.0, 20.0]), (10.0, 30.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!(quartiles(&[1.0]).0.is_nan());
    }

    #[test]
    fn lower_quartile_handles_short_slices() {
        assert_eq!(lower_quartile(&[3.0]), 3.0);
        assert_eq!(lower_quartile(&[1.0, 2.0]), 0.75);
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(lower_quartile(&xs), 2.75);
    }

    #[test]
    fn at_zero_is_the_median_without_steal_and_the_intercept_with() {
        // No steal anywhere: the plain median.
        assert_eq!(at_zero(&[0.0; 5], &[3.0, 1.0, 2.0, 5.0, 4.0]), 3.0);
        assert!(at_zero(&[], &[]).is_nan());
        // y = 2 + 0.5 x exactly, plus one wild sample the medians ignore.
        let xs = [0.0, 0.2, 0.4, 1.0, 2.0, 0.1];
        let ys = [2.0, 2.1, 2.2, 2.5, 3.0, 9.0];
        assert!((at_zero(&xs, &ys) - 2.0).abs() < 0.06);
        // Every sample stolen from: still the intercept, not the smallest.
        let xs = [1.0, 2.0, 3.0];
        let ys = [3.0, 4.0, 5.0];
        assert!((at_zero(&xs, &ys) - 2.0).abs() < 1e-12);
        // The slope is clamped to [0, 1]: steal cannot speed a sample up,
        // nor delay it by more than itself.
        assert_eq!(at_zero(&[0.0, 1.0, 2.0], &[5.0, 4.0, 3.0]), 4.0);
        assert_eq!(at_zero(&[0.0, 1.0, 2.0], &[1.0, 4.0, 7.0]), 3.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[5.0], 90.0), 5.0);
    }

    #[test]
    fn stationarity_flags_drift() {
        assert!(stationary(&[1.0, 1.02, 0.99, 1.01, 1.0, 0.98], 0.10));
        assert!(!stationary(&[1.0, 1.0, 1.0, 0.5, 0.5, 0.5], 0.10));
    }
}
