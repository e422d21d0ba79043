//! Order statistics over timing samples.

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; `None` for no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First, second and third quartile, computed like Python's
/// `statistics.quantiles(xs, n=4)` (the "exclusive" method), so the
/// spreads printed here match the ones a comparison script computes.
/// `None` for no samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        1 => Some([v[0]; 3]),
        _ => {
            let m = n + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            Some([q(1), q(2), q(3)])
        }
    }
}

/// Interquartile range as a share of the median.
pub fn iqr_share(xs: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(xs)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2)
}

/// The highest percentile that still has at least ten samples beyond it,
/// as `(percentile, value)`: the sample of rank `n - 10` (nearest rank).
/// With ten samples or fewer no percentile qualifies, and the maximum is
/// reported as percentile 100.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n <= 10 => Some((100.0, v[n - 1])),
        _ => {
            let rank = n - 10;
            Some((100.0 * rank as f64 / n as f64, v[rank - 1]))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[7.0]), Some([7.0; 3]));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let share = iqr_share(&xs).expect("samples");
        assert!((share - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[0.0, 0.0]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let (pct, value) = tail(&xs).expect("samples");
        assert_eq!(pct, 95.0);
        assert_eq!(value, 190.0);
        assert_eq!(xs.iter().filter(|&&x| x > value).count(), 10);

        let xs: Vec<f64> = (1..=600).map(f64::from).collect();
        let (pct, value) = tail(&xs).expect("samples");
        assert!((pct - 98.333).abs() < 1e-3);
        assert_eq!(xs.iter().filter(|&&x| x > value).count(), 10);
    }

    #[test]
    fn tail_of_few_samples_is_the_maximum() {
        assert_eq!(tail(&[3.0, 9.0, 1.0]), Some((100.0, 9.0)));
        assert_eq!(tail(&[1.0; 10]), Some((100.0, 1.0)));
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((100.0 / 11.0, 1.0)));
        assert_eq!(tail(&[]), None);
    }
}
