//! Summary statistics used by the benchmark's reports.

/// Median of `v` (mean of the two middle values for an even count).
/// Returns `None` for an empty slice.
pub fn median(v: &[f64]) -> Option<f64> {
    let s = sorted(v);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartile, computed exactly like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method,
/// which extrapolates for tiny samples), so the numbers this program prints
/// agree with the comparator's. Needs at least two samples.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64)> {
    let n = v.len();
    if n < 2 {
        return None;
    }
    let s = sorted(v);
    let at = |i: usize| {
        let m = i * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Nearest-rank `p`-th percentile (`0 < p <= 100`) of `v`, together with
/// the number of samples strictly beyond it. A tail percentile is only
/// worth reporting when at least ten samples lie beyond it; callers check
/// the returned count.
pub fn percentile(v: &[f64], p: f64) -> Option<(f64, usize)> {
    if v.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let s = sorted(v);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, s.len()) - 1;
    Some((s[idx], s.len() - 1 - idx))
}

/// Geometric mean of strictly positive values; `None` if `v` is empty or
/// holds a value that is not positive and finite.
pub fn geomean(v: &[f64]) -> Option<f64> {
    if v.is_empty() || v.iter().any(|&x| !(x.is_finite() && x > 0.0)) {
        return None;
    }
    Some((v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp())
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([3, 1, 4, 1, 5, 9, 2], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(
            quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]),
            Some((1.0, 5.0))
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_reports_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 1..=100 is 90 with exactly ten samples beyond it.
        assert_eq!(percentile(&v, 90.0), Some((90.0, 10)));
        assert_eq!(percentile(&v, 50.0), Some((50.0, 50)));
        // p99 leaves one sample beyond: too few for a reported tail.
        assert_eq!(percentile(&v, 99.0), Some((99.0, 1)));
        // With 99 samples p90 has only nine beyond it.
        let (_, beyond) = percentile(&v[..99], 90.0).unwrap();
        assert!(beyond < 10);
        assert_eq!(percentile(&v, 100.0), Some((100.0, 0)));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&v, 0.0), None);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.7]).unwrap() - 1.7).abs() < 1e-12);
        // Equal weight per value: one large ratio cannot hide a small one.
        let g = geomean(&[100.0, 0.01]).unwrap();
        assert!((g - 1.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, f64::NAN]), None);
    }
}
