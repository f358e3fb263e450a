//! Exact-sample statistics: every percentile here is read off the sorted
//! samples themselves, never off histogram buckets.

/// Sorts in place and returns the slice (NaN-free inputs only: every sample
/// is a measured duration or a ratio of two of them).
pub fn sorted(xs: &mut [f64]) -> &[f64] {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    xs
}

/// Nearest-rank percentile of an ascending slice; `0.0` when empty.
pub fn percentile(sorted: &[f64], pct: usize) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => sorted[rank(n, pct)],
    }
}

/// Zero-based index of the `pct`-th percentile among `n` samples, in whole
/// numbers so that p99 of 1000 is the 990th sample on every platform.
fn rank(n: usize, pct: usize) -> usize {
    (pct * n).div_ceil(100).clamp(1, n) - 1
}

pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    let s = sorted(&mut v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The shorth: median of the shortest half, the `n/2 + 1` adjacent sorted
/// values that span the least. A median follows whichever side the outliers
/// are on; this stays with the densest cluster until outliers are half the
/// set, which is what values from a host with a usual state and a few
/// disturbed ones need. `0.0` when empty.
pub fn shorth(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    let s = sorted(&mut v);
    let half = s.len() / 2 + 1;
    match (0..=s.len().saturating_sub(half)).min_by(|&a, &b| {
        let width = |i: usize| s[i + half - 1] - s[i];
        width(a).partial_cmp(&width(b)).expect("never NaN")
    }) {
        Some(start) if !s.is_empty() => median(&s[start..start + half]),
        _ => 0.0,
    }
}

/// The tail percentile a sample set can support: the highest of
/// p99/p95/p90/p75/p50, none above `top`, that still has at least ten
/// samples beyond it. Returns its label and value; an empty set reads
/// `("p50", 0.0)`.
pub fn tail(sorted: &[f64], top: usize) -> (&'static str, f64) {
    const LADDER: [(&str, usize); 5] = [
        ("p99", 99),
        ("p95", 95),
        ("p90", 90),
        ("p75", 75),
        ("p50", 50),
    ];
    let n = sorted.len();
    for (label, pct) in LADDER {
        if pct <= top && n > 0 && n - 1 - rank(n, pct) >= 10 {
            return (label, sorted[rank(n, pct)]);
        }
    }
    ("p50", percentile(sorted, 50))
}

/// Median with the spread of the values it summarises.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    /// Distance between the first and third quartile.
    pub iqr: f64,
}

impl Spread {
    pub fn of(xs: &[f64]) -> Spread {
        let mut v = xs.to_vec();
        let s = sorted(&mut v);
        Spread {
            median: median(s),
            min: s.first().copied().unwrap_or(0.0),
            max: s.last().copied().unwrap_or(0.0),
            iqr: percentile(s, 75) - percentile(s, 25),
        }
    }
}

/// Geometric mean of strictly positive values; `0` for an empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// `num / den`, reading 0 where nothing was attempted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn shorth_stays_with_the_densest_half() {
        assert_eq!(shorth(&[]), 0.0);
        assert_eq!(shorth(&[7.0]), 7.0);
        assert_eq!(shorth(&[1.0, 3.0]), 2.0);
        // Six values near 10, four disturbed ones far above: the median
        // sits at the cluster's upper edge, the shorth at its centre.
        let xs = [10.0, 10.25, 10.5, 10.75, 11.0, 11.25, 14.0, 15.0, 17.0, 19.0];
        assert_eq!(median(&xs), 11.125);
        assert_eq!(shorth(&xs), 10.625);
        // The same cluster with the outliers below it.
        let ys = [1.0, 2.0, 4.0, 6.0, 10.0, 10.25, 10.5, 10.75, 11.0, 11.25];
        assert_eq!(shorth(&ys), 10.625);
        // Order does not matter; ties go to the lower half.
        assert_eq!(shorth(&[3.0, 1.0, 2.0, 4.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_the_percentile() {
        // p99 of 1000 samples is the 990th: exactly ten lie beyond it.
        assert_eq!(tail(&ramp(1000), 99), ("p99", 990.0));
        // One sample fewer leaves nine beyond p99, so the rule falls to p95.
        assert_eq!(tail(&ramp(999), 99).0, "p95");
        assert_eq!(tail(&ramp(200), 99), ("p95", 190.0));
        assert_eq!(tail(&ramp(199), 99).0, "p90");
        assert_eq!(tail(&ramp(100), 99), ("p90", 90.0));
        assert_eq!(tail(&ramp(40), 99), ("p75", 30.0));
        assert_eq!(tail(&ramp(39), 99).0, "p50");
        // Too few samples for any tail: the median is all there is.
        assert_eq!(tail(&ramp(12), 99), ("p50", 6.0));
        assert_eq!(tail(&[], 99), ("p50", 0.0));
        // A metric may start the walk lower than p99.
        assert_eq!(tail(&ramp(1000), 95), ("p95", 950.0));
        assert_eq!(tail(&ramp(100), 95), ("p90", 90.0));
    }

    #[test]
    fn spread_reports_quartile_distance() {
        let s = Spread::of(&ramp(8));
        assert_eq!((s.min, s.max, s.median), (1.0, 8.0, 4.5));
        assert_eq!(s.iqr, 6.0 - 2.0);
    }

    #[test]
    fn geomean_and_ratio() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(ratio(1, 0), 0.0);
        assert_eq!(ratio(1, 4), 0.25);
    }
}
