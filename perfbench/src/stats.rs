//! Order statistics: nearest-rank percentiles, the "at least ten
//! samples beyond" rule for tail percentiles, and medians of repeats.

/// A tail percentile is reported only when at least this many samples
/// lie beyond it; otherwise the next lower rung of [`LADDER`] is used.
pub const MIN_BEYOND: usize = 10;

/// The percentiles a metric may fall back to, highest first. The median
/// is the floor: it is reported whenever there is at least one sample.
pub const LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the `p`-th percentile's rank.
#[must_use]
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Nearest-rank percentile of ascending `sorted` samples.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// A percentile as reported: which rung was used and on how many
/// samples, so a fallback is visible in the output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile actually reported.
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples it was taken over.
    pub n: usize,
    /// Samples beyond it.
    pub beyond: usize,
}

/// The `named` percentile if [`MIN_BEYOND`] samples lie beyond it, else
/// the highest lower rung of [`LADDER`] that has them (the median if
/// none does). `None` only for an empty sample.
#[must_use]
pub fn supported(sorted: &[f64], named: f64) -> Option<Tail> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let pct = LADDER
        .iter()
        .copied()
        .filter(|&p| p <= named)
        .find(|&p| p <= 50.0 || beyond(n, p) >= MIN_BEYOND)
        .unwrap_or(50.0);
    Some(Tail {
        pct,
        value: percentile(sorted, pct),
        n,
        beyond: beyond(n, pct),
    })
}

/// Median of unsorted values (mean of the middle two for an even count).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Sort samples ascending in place and return them.
#[must_use]
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(beyond(100, 99.0), 1);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(0, 99.0), 0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: exactly 10 lie beyond p99, so p99 stands.
        let t = supported(&ramp(1000), 99.0).unwrap();
        assert_eq!((t.pct, t.value, t.n, t.beyond), (99.0, 990.0, 1000, 10));
        // 999 samples: only 9 beyond p99, so it falls back to p95.
        let t = supported(&ramp(999), 99.0).unwrap();
        assert_eq!((t.pct, t.n), (95.0, 999));
        assert!(t.beyond >= MIN_BEYOND);
        // 220 samples (a 10 s serial run at the delayed-ACK floor):
        // p95 has 11 beyond and is kept.
        let t = supported(&ramp(220), 95.0).unwrap();
        assert_eq!((t.pct, t.beyond), (95.0, 11));
        // 199 samples: p95 has 9 beyond, p90 has 19.
        let t = supported(&ramp(199), 95.0).unwrap();
        assert_eq!((t.pct, t.beyond), (90.0, 19));
        // Tiny samples fall all the way to the median.
        let t = supported(&ramp(5), 99.0).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (50.0, 3.0, 2));
        assert!(supported(&[], 99.0).is_none());
    }

    #[test]
    fn a_lower_named_percentile_never_climbs() {
        let t = supported(&ramp(100_000), 50.0).unwrap();
        assert_eq!(t.pct, 50.0);
        let t = supported(&ramp(100_000), 95.0).unwrap();
        assert_eq!(t.pct, 95.0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(sorted(vec![2.0, 1.0]), vec![1.0, 2.0]);
    }
}
