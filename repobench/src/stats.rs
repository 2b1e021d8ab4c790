//! Order statistics over the distributions the benchmark records.
//!
//! Percentiles are exact nearest-rank values over every recorded sample; a
//! run holds at most a few hundred thousand latencies, so sorting them is
//! cheaper than reasoning about histogram error.

/// A percentile as a fraction `num / PPM_DEN`, so ranks are computed in
/// integers and `0.99 * 1000` can never round to 991.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Quantile {
    /// Parts per `PPM_DEN`.
    pub num: u64,
    /// Printed name, e.g. `p99.9`.
    pub label: &'static str,
}

const PPM_DEN: u64 = 1_000_000;

/// The median.
pub const P50: Quantile = Quantile {
    num: 500_000,
    label: "p50",
};
/// The gated tail.
pub const P90: Quantile = Quantile {
    num: 900_000,
    label: "p90",
};
/// Diagnostic tails.
pub const P99: Quantile = Quantile {
    num: 990_000,
    label: "p99",
};
/// Diagnostic tails.
pub const P999: Quantile = Quantile {
    num: 999_000,
    label: "p99.9",
};
const P9999: Quantile = Quantile {
    num: 999_900,
    label: "p99.99",
};

/// Candidate tails, lowest first.
const TAIL_LADDER: [Quantile; 4] = [P90, P99, P999, P9999];

/// 1-based nearest rank of `q` among `n` samples: the smallest rank whose
/// share of samples at or below it is at least `q`.
#[must_use]
pub fn rank(n: usize, q: Quantile) -> usize {
    let n = n as u64;
    (n * q.num).div_ceil(PPM_DEN).clamp(1, n.max(1)) as usize
}

/// Samples strictly beyond the rank of `q`.
#[must_use]
pub fn beyond(n: usize, q: Quantile) -> usize {
    n - rank(n, q)
}

/// The highest tail percentile that still has at least ten samples beyond
/// it, or `None` when even p90 has fewer.
#[must_use]
pub fn tail_quantile(n: usize) -> Option<Quantile> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&q| n > 0 && beyond(n, q) >= 10)
}

/// Nearest-rank percentile of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], q: Quantile) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), q) - 1]
}

/// Sorts a sample in place (NaN-free by construction: every value is a
/// measured duration or count).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median of an unsorted sample; 0 when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    percentile(&v, P50)
}

/// Items per window [`window_median`] aims for: enough that a window's
/// p90 has 20 samples beyond it.
const WINDOW_ITEMS: usize = 200;
/// Bounds on the number of windows a timed phase is split into.
const MIN_WINDOWS: usize = 10;
const MAX_WINDOWS: usize = 100;

/// Median over equal windows of `span_s` seconds of a per-window
/// statistic: about [`WINDOW_ITEMS`] items per window, 10 to 100 windows.
/// Items fall into windows by `offset_s` (seconds into the timed phase);
/// windows where `stat` returns `None` are skipped, and the result is 0
/// when none qualifies.
pub fn window_median<T>(
    items: &[T],
    span_s: f64,
    offset_s: impl Fn(&T) -> f64,
    stat: impl Fn(&[&T]) -> Option<f64>,
) -> f64 {
    let n = (items.len() / WINDOW_ITEMS).clamp(MIN_WINDOWS, MAX_WINDOWS);
    let mut windows: Vec<Vec<&T>> = (0..n).map(|_| Vec::new()).collect();
    for item in items {
        let w = (offset_s(item) / span_s * n as f64).max(0.0) as usize;
        windows[w.min(n - 1)].push(item);
    }
    let values: Vec<f64> = windows.iter().filter_map(|w| stat(w)).collect();
    median(&values)
}

/// A distribution reduced to what the report prints: count, median, the
/// gated p90, and the diagnostic tails with their sample support.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Summary {
    /// Samples recorded.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarizes `values` (sorted in place). An empty sample summarizes
    /// to all zeros.
    pub fn of(values: &mut [f64]) -> Self {
        if values.is_empty() {
            return Self::default();
        }
        sort(values);
        Self {
            n: values.len(),
            p50: percentile(values, P50),
            p90: percentile(values, P90),
            p99: percentile(values, P99),
            p999: percentile(values, P999),
            max: values[values.len() - 1],
        }
    }

    /// One diagnostic line: every tail with the samples beyond it, and the
    /// highest tail the sample supports.
    #[must_use]
    pub fn describe(&self, unit: &str) -> String {
        let tail = tail_quantile(self.n).map_or("none", |q| q.label);
        format!(
            "n={} p50={:.1}{unit} p90={:.1}{unit} (beyond {}) p99={:.1}{unit} (beyond {}) \
             p99.9={:.1}{unit} (beyond {}) max={:.1}{unit}; highest supported tail: {tail}",
            self.n,
            self.p50,
            self.p90,
            beyond(self.n, P90),
            self.p99,
            beyond(self.n, P99),
            self.p999,
            beyond(self.n, P999),
            self.max,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_quantile(0), None);
        assert_eq!(tail_quantile(99), None);
        assert_eq!(tail_quantile(100), Some(P90));
        assert_eq!(tail_quantile(999), Some(P90));
        assert_eq!(tail_quantile(1000), Some(P99));
        assert_eq!(tail_quantile(9_999), Some(P99));
        assert_eq!(tail_quantile(10_000), Some(P999));
        assert_eq!(tail_quantile(100_000), Some(P9999));
        // Every answer really has ten beyond it, and the next rung up
        // would not.
        for n in [100usize, 137, 999, 1000, 1001, 5_000, 10_000, 123_456] {
            let q = tail_quantile(n).expect("n >= 100");
            assert!(beyond(n, q) >= 10, "n={n} {}", q.label);
            if let Some(next) = TAIL_LADDER.iter().find(|next| next.num > q.num) {
                assert!(beyond(n, *next) < 10, "n={n} {} also qualifies", next.label);
            }
        }
    }

    #[test]
    fn window_median_ignores_a_bad_window() {
        // 10 s of one value per 0.1 s: 10 windows of 10, all 1.0 except a
        // stall that makes one whole window read 100.
        let items: Vec<(f64, f64)> = (0..100)
            .map(|i| (f64::from(i) / 10.0, if i < 10 { 100.0 } else { 1.0 }))
            .collect();
        let mean = |w: &[&(f64, f64)]| {
            (!w.is_empty()).then(|| w.iter().map(|x| x.1).sum::<f64>() / w.len() as f64)
        };
        assert_eq!(window_median(&items, 10.0, |x| x.0, mean), 1.0);
        assert_eq!(window_median::<(f64, f64)>(&[], 10.0, |x| x.0, mean), 0.0);
        // More items make more, shorter windows: 20 000 items give 100, so
        // 30 bad items out of 200 spoil only the window they fall in.
        let items: Vec<(f64, f64)> = (0..20_000)
            .map(|i| (f64::from(i) / 2_000.0, if i < 30 { 100.0 } else { 1.0 }))
            .collect();
        let count = |w: &[&(f64, f64)]| Some(w.len() as f64);
        assert_eq!(window_median(&items, 10.0, |x| x.0, count), 200.0);
        assert_eq!(window_median(&items, 10.0, |x| x.0, mean), 1.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&mut v);
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.p90, 900.0);
        assert_eq!(s.p99, 990.0);
        assert_eq!(s.p999, 999.0);
        assert_eq!(s.max, 1000.0);
        assert_eq!(percentile(&[7.0], P99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
