//! Order statistics of a handful of repetitions.
//!
//! The quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (the default "exclusive" method), because that is the rule the
//! run-to-run spread of this benchmark is judged by: a spread printed here
//! and one computed over ten runs by an outside script mean the same thing.

/// Median of `values` (mean of the two middle elements for an even count).
/// Panics on an empty slice — a metric with no sample is a bug in the caller.
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

/// First and third quartile, `statistics.quantiles(values, n=4)[0]` and
/// `[2]`. Needs at least two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median; `0` for fewer than two
/// samples (one sample has no spread to report).
pub fn iqr_frac(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7], n=4) == [2.0, 4.0, 6.0]
        let seven: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(quartiles(&seven), (2.0, 6.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), (7.5, 22.5));
    }

    #[test]
    fn iqr_frac_is_spread_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(iqr_frac(&ten), 5.5 / 5.5);
        assert_eq!(iqr_frac(&[2.0, 2.0, 2.0]), 0.0);
        assert_eq!(iqr_frac(&[2.0]), 0.0);
    }
}
