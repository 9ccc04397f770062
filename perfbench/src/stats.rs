//! Summary statistics the benchmark reports: medians, the supported tail
//! percentile, open-loop latency from due time, Little's law, and output
//! fingerprints.

/// Percentiles the benchmark may report for a tail, lowest first.
pub const TAIL_LADDER: [f64; 5] = [90.0, 95.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` in `[0, 100]` of unsorted `values`
/// (`None` when empty).
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank(v.len(), p).clamp(1, v.len()) - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples; the epsilon
/// keeps `99.9% of 10000` at 9990 despite binary rounding.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0) * n as f64 - 1e-9).ceil().max(0.0) as usize
}

/// Median of `values` (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p).min(n)
}

/// The highest percentile of [`TAIL_LADDER`] that `n` samples support,
/// i.e. with at least [`MIN_BEYOND`] samples beyond it.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_LADDER.iter().rev().copied().find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Samples per window of [`windowed_percentile`]: the fewest that leave
/// [`MIN_BEYOND`] samples beyond p95.
pub const WINDOW: usize = 200;

/// Percentile `p` of each run of [`WINDOW`] consecutive samples (the
/// remainder spread over the windows), then the median across windows,
/// with the window count. One stall of the host moves one window's tail,
/// not the figure. Fewer than `WINDOW` samples form a single window.
pub fn windowed_percentile(values: &[f64], p: f64) -> Option<(f64, usize)> {
    let windows = (values.len() / WINDOW).max(1);
    let tails: Vec<f64> = (0..windows)
        .filter_map(|i| {
            let (a, b) = (i * values.len() / windows, (i + 1) * values.len() / windows);
            percentile(&values[a..b], p)
        })
        .collect();
    Some((median(&tails)?, tails.len()))
}

/// Open-loop latency of CPI `k`: from its due time `t0 + k / rate` to the
/// sink's finish. `finish` is measured on the pipeline's clock, whose
/// epoch lies `epoch_minus_t0` seconds after the generator's `t0` (negative
/// when the pipeline started first). Generator lateness is included: a
/// late push delays the finish, not the due time.
pub fn latency_from_due(finish: f64, epoch_minus_t0: f64, k: u64, rate: f64) -> f64 {
    finish + epoch_minus_t0 - k as f64 / rate
}

/// Little's law: mean CPIs in flight = throughput × mean latency.
pub fn inflight(throughput: f64, mean_latency: f64) -> f64 {
    throughput * mean_latency
}

/// 64-bit FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// Compares observed fingerprints against the expected one, returning how
/// many differ.
pub fn mismatches(expected: u64, observed: &[u64]) -> usize {
    observed.iter().filter(|&&f| f != expected).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 95.0), Some(95.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(200, 95.0), 10);
        assert_eq!(beyond(199, 95.0), 9);
        assert_eq!(supported_tail(99), None);
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(199), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(999), Some(95.0));
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn windowed_tail_takes_the_median_window() {
        // Three windows of 200; the middle one holds a stall.
        let mut v: Vec<f64> = (0..600).map(|i| (i % 200) as f64).collect();
        for x in &mut v[200..400] {
            *x += 1000.0;
        }
        assert_eq!(windowed_percentile(&v, 95.0), Some((189.0, 3)));
        // 450 samples make two windows of 225; 150 make one.
        assert_eq!(windowed_percentile(&v[..450], 95.0).map(|w| w.1), Some(2));
        assert_eq!(windowed_percentile(&v[..150], 95.0), Some((142.0, 1)));
        assert_eq!(windowed_percentile(&[], 95.0), None);
    }

    #[test]
    fn latency_counts_from_due_time_including_generator_lateness() {
        // CPI 3 of a 50 CPI/s stream is due 60 ms after t0. The pipeline
        // epoch began 5 ms before t0 and the sink finished 100 ms after the
        // epoch, i.e. 95 ms after t0.
        let l = latency_from_due(0.100, -0.005, 3, 50.0);
        assert!((l - 0.035).abs() < 1e-12);
        // A generator that pushed 20 ms late delays the finish by as much;
        // the due time does not move, so the lateness is charged.
        let late = latency_from_due(0.120, -0.005, 3, 50.0);
        assert!((late - l - 0.020).abs() < 1e-12);
    }

    #[test]
    fn littles_law_multiplies_rate_by_latency() {
        assert!((inflight(60.0, 0.050) - 3.0).abs() < 1e-12);
        assert_eq!(inflight(0.0, 1.0), 0.0);
    }

    #[test]
    fn fingerprints_detect_any_difference() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"front a"), fnv1a(b"front b"));
        let f = fnv1a(b"front a");
        assert_eq!(mismatches(f, &[f, f]), 0);
        assert_eq!(mismatches(f, &[f, fnv1a(b"front b"), 0]), 2);
    }
}
