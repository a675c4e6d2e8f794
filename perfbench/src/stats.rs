//! Order statistics: percentiles, the tail-percentile choice, and the
//! min/median/max summary the traced run reports per metric.

/// The percentiles a timing may be reported at, in per-mille (`900` =
/// p90), ascending.
pub const PERCENTILE_LADDER: [u32; 6] = [500, 750, 900, 950, 990, 999];

/// A tail percentile is only reported when at least this many samples lie
/// beyond it.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// How many of `n` samples lie strictly beyond the `per_mille` percentile:
/// `⌊n · (1000 − per_mille) / 1000⌋`, in integers so that p99.9 of 10 000
/// samples is exactly 10 and not 9.999….
pub fn samples_beyond(n: usize, per_mille: u32) -> usize {
    assert!(per_mille <= 1000, "percentile above p100");
    n * (1000 - per_mille as usize) / 1000
}

/// The highest percentile of [`PERCENTILE_LADDER`] with at least
/// [`MIN_TAIL_SAMPLES`] samples beyond it, or `None` when even the median
/// is not supported.
pub fn tail_percentile(n: usize) -> Option<u32> {
    PERCENTILE_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| samples_beyond(n, p) >= MIN_TAIL_SAMPLES)
}

/// [`tail_percentile`] of `n` samples, in percent, checked to reach the
/// `per_mille` percentile a metric is named after.
///
/// # Panics
///
/// Panics when `n` samples cannot support `per_mille`: the run was sized
/// too small, a bug in the benchmark.
pub fn supported_tail(n: usize, per_mille: u32) -> f64 {
    let tail = tail_percentile(n).unwrap_or(0);
    assert!(
        tail >= per_mille,
        "{n} samples cannot support p{}",
        f64::from(per_mille) / 10.0
    );
    f64::from(tail) / 10.0
}

/// The fewest samples for which `per_mille` is supported.
pub fn min_samples_for(per_mille: u32) -> usize {
    let beyond_share = 1000 - per_mille as usize;
    assert!(beyond_share > 0, "p100 has no samples beyond it");
    (MIN_TAIL_SAMPLES * 1000).div_ceil(beyond_share)
}

/// Linearly interpolated percentile of an ascending slice (`per_mille` in
/// `0..=1000`).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], per_mille: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = f64::from(per_mille) / 1000.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// An ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of unsorted samples.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 500)
}

/// The mean, over the most contiguous windows of time-ordered `samples`
/// that each support a median, of each window's median. When a run's
/// samples come from a fast and a slow host state in changing proportions,
/// the median of all of them jumps from one state to the other as the
/// proportions cross one half; this moves in proportion instead.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn windowed_median(samples: &[f64]) -> f64 {
    let n = samples.len();
    let windows = (n / min_samples_for(500)).max(1);
    (0..windows)
        .map(|i| median(&samples[i * n / windows..(i + 1) * n / windows]))
        .sum::<f64>()
        / windows as f64
}

/// Min, median and max of one metric over the traced run's rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub min: f64,
    pub median: f64,
    pub max: f64,
}

impl Spread {
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn of(values: &[f64]) -> Self {
        let s = sorted(values);
        Self {
            min: s[0],
            median: percentile(&s, 500),
            max: s[s.len() - 1],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_choice_is_the_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(500));
        assert_eq!(tail_percentile(39), Some(500));
        assert_eq!(tail_percentile(40), Some(750));
        assert_eq!(tail_percentile(99), Some(750));
        assert_eq!(tail_percentile(100), Some(900));
        assert_eq!(tail_percentile(199), Some(900));
        assert_eq!(tail_percentile(200), Some(950));
        assert_eq!(tail_percentile(999), Some(950));
        assert_eq!(tail_percentile(1000), Some(990));
        assert_eq!(tail_percentile(9_999), Some(990));
        assert_eq!(tail_percentile(10_000), Some(999));
        assert_eq!(tail_percentile(1_000_000), Some(999));
    }

    #[test]
    fn min_samples_inverts_the_choice() {
        for &p in &PERCENTILE_LADDER {
            let n = min_samples_for(p);
            assert!(samples_beyond(n, p) >= MIN_TAIL_SAMPLES, "p{p} at {n}");
            assert!(
                samples_beyond(n - 1, p) < MIN_TAIL_SAMPLES,
                "p{p} at {}",
                n - 1
            );
            assert!(tail_percentile(n).unwrap() >= p);
        }
        assert_eq!(min_samples_for(900), 100);
        assert_eq!(min_samples_for(990), 1000);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&s, 0), 1.0);
        assert_eq!(percentile(&s, 500), 3.0);
        assert_eq!(percentile(&s, 1000), 5.0);
        assert_eq!(percentile(&s, 250), 2.0);
        assert!((percentile(&s, 900) - 4.6).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn windowed_median_averages_each_windows_median() {
        // One fast window and two slow ones: the median of all samples is
        // the slow value; the windowed median weighs both states.
        let mut samples = vec![1.0; 20];
        samples.extend([3.0; 40]);
        assert_eq!(median(&samples), 3.0);
        assert!((windowed_median(&samples) - 7.0 / 3.0).abs() < 1e-12);
        // 59 samples make two windows (29 and 30), not three.
        assert_eq!(windowed_median(&samples[1..]), 2.0);
        // Too few for two windows: the plain median.
        assert_eq!(windowed_median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn spread_orders_rounds() {
        let s = Spread::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.min, s.median, s.max), (1.0, 2.0, 3.0));
    }
}
