//! Order statistics over small samples of measurements.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; the mean of the two middle values for an even count, and
/// zero for no values at all (a layer that did not run).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// which is what the driver applies across runs. Fewer than two values
/// have no spread: both quartiles are the value itself.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// A percentile of pooled samples together with how many samples lie
/// beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub beyond: usize,
}

/// A tail percentile is supported by its sample only when at least this
/// many samples lie beyond it; with fewer it is printed as indicative.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` in `(0, 1]` of `values`; rank `ceil(p·n)`,
/// so p95 of 200 samples has exactly ten samples beyond it. Zero for an
/// empty sample.
pub fn percentile(values: &[f64], p: f64) -> Percentile {
    let v = sorted(values);
    if v.is_empty() {
        return Percentile {
            value: 0.0,
            beyond: 0,
        };
    }
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Percentile {
        value: v[rank - 1],
        beyond: v.len() - rank,
    }
}

/// The upper median: the element at index `n / 2` of the sorted samples.
///
/// A pass of a cold workload has one latency per model, far apart (12 ms
/// to 250 ms). The conventional median of an even count would be the mean
/// of two unrelated models' latencies; the upper median is one model's,
/// which is a quantity a change can be traced to.
pub fn upper_median(values: &[f64]) -> f64 {
    let v = sorted(values);
    v.get(v.len() / 2).copied().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn p95_needs_two_hundred_samples_for_ten_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let p = percentile(&v, 0.95);
        assert_eq!(p.value, 190.0);
        assert_eq!(p.beyond, MIN_BEYOND);
        assert_eq!(percentile(&v[..199], 0.95).beyond, MIN_BEYOND - 1);
        // One pass of `warm_serve`: 108 requests, five beyond its p95.
        assert_eq!(percentile(&v[..108], 0.95).beyond, 5);
        assert_eq!(percentile(&[], 0.95).value, 0.0);
        assert_eq!(percentile(&[5.0], 0.5).value, 5.0);
    }

    #[test]
    fn upper_median_lands_on_the_upper_cluster() {
        // Two clusters of two: the conventional median would average
        // across the gap; the upper median is the upper cluster's minimum.
        assert_eq!(upper_median(&[10.0, 11.5, 20.0, 20.1]), 20.0);
        assert_eq!(upper_median(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(upper_median(&[]), 0.0);
    }
}
