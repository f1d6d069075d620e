//! Sample statistics: nearest-rank percentiles, the tail-percentile
//! rule, and the metric-name grammar.

/// Percentiles the tail report may pick, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending sample set: the smallest
/// sample such that at least `pct`% of the samples are `<=` it.
pub fn nearest_rank(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample set");
    sorted[rank(sorted.len(), pct) - 1]
}

/// One-based nearest rank of `pct` among `n` samples.
fn rank(n: usize, pct: f64) -> usize {
    // The epsilon keeps binary rounding of `pct` from pushing an exact
    // rank (99.9% of 10 000 = 9990) up by one.
    (pct * n as f64 / 100.0 - 1e-9).ceil().clamp(1.0, n as f64) as usize
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
/// samples strictly above its rank, or `None` when `n` is too small.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n >= 1 && n - rank(n, p) >= TAIL_MIN_BEYOND)
}

/// `v` in ascending order.
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Nearest-rank median of `v` (any order); the lower middle value of an
/// even count.
pub fn median(v: &[f64]) -> f64 {
    nearest_rank(&sorted(v), 50.0)
}

/// Median, tail percentile and count of one timing.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Samples.
    pub n: usize,
    /// Nearest-rank median.
    pub median: f64,
    /// The tail percentile reported, and its value.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarises `samples` (any order).
    pub fn of(samples: &[f64]) -> Summary {
        let sorted = sorted(samples);
        Summary {
            n: sorted.len(),
            median: nearest_rank(&sorted, 50.0),
            tail: tail_percentile(sorted.len()).map(|p| (p, nearest_rank(&sorted, p))),
        }
    }

    /// `median 1.23 | p99 4.56 | n=1510`, for the human-readable report.
    pub fn describe(&self) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!("p{p} {v:.4}"),
            None => format!("no tail (fewer than {} samples)", 2 * TAIL_MIN_BEYOND),
        };
        format!("median {:.4} | {tail} | n={}", self.median, self.n)
    }
}

/// Whether `name` is a valid metric name: one or more of
/// `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Geometric mean of positive ratios; `1.0` for an empty set.
pub fn geomean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return 1.0;
    }
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ascending(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_the_covering_sample() {
        let s = ascending(10);
        assert_eq!(nearest_rank(&s, 50.0), 5.0);
        assert_eq!(nearest_rank(&s, 51.0), 6.0);
        assert_eq!(nearest_rank(&s, 90.0), 9.0);
        assert_eq!(nearest_rank(&s, 99.0), 10.0);
        assert_eq!(nearest_rank(&s, 0.0), 1.0);
        assert_eq!(nearest_rank(&[7.0], 99.9), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 samples is rank 990: exactly 10 beyond.
        assert_eq!(tail_percentile(1000), Some(99.0));
        // One fewer sample leaves only 9 beyond p99, so p95 is reported.
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        for n in 1..3000 {
            if let Some(p) = tail_percentile(n) {
                assert!(n - rank(n, p) >= TAIL_MIN_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn summary_reports_median_tail_and_count() {
        let s = Summary::of(&ascending(1000).into_iter().rev().collect::<Vec<_>>());
        assert_eq!(s.n, 1000);
        assert_eq!(s.median, 500.0);
        assert_eq!(s.tail, Some((99.0, 990.0)));
        assert!(s.describe().contains("n=1000"));
    }

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "setup_s",
            "rolag.schedule_ms",
            "latency_p99_ms",
            "a-b.c_9",
            "9",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "a b", "x/y", "lat%", "é", "a,b", "q\""] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[9.0]), 9.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert_eq!(geomean(&[]), 1.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
