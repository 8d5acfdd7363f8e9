//! Summary statistics over raw samples.
//!
//! Percentiles are read from the sorted raw samples (nearest rank), never
//! from bucketed histograms, and a percentile is only reported when at
//! least [`MIN_TAIL`] samples lie beyond it.

/// Samples that must lie strictly above a reported percentile.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile `q` (0 < q < 1) of `sorted` (ascending), or
/// `None` when fewer than [`MIN_TAIL`] samples lie beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() || !(0.0..1.0).contains(&q) {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    if sorted.len() - rank < MIN_TAIL {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of `values` (any order); the mean of the two middle values for
/// an even count. `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Arithmetic mean, 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `part / whole` as a fraction, 0 when `whole` is 0.
pub fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Groups samples tagged with their 1-second window (`(window, value)`).
fn by_window(samples: &[(u32, f64)]) -> Vec<Vec<f64>> {
    let windows = samples.iter().map(|&(w, _)| w).max().map_or(0, |w| w + 1) as usize;
    let mut per = vec![Vec::new(); windows];
    for &(w, v) in samples {
        per[w as usize].push(v);
    }
    per
}

/// Completions per second: the median over 1-second windows of the
/// samples each window holds.
pub fn window_rate(samples: &[(u32, f64)]) -> f64 {
    let counts: Vec<f64> = by_window(samples).iter().map(|v| v.len() as f64).collect();
    median(&counts).unwrap_or(0.0)
}

/// The median, over 1-second windows, of each window's median and 99th
/// percentile. Every non-empty window must hold enough samples for its
/// 99th percentile (see [`percentile`]). Taking the median over windows
/// keeps a burst of outside noise in one second from moving the figure.
pub fn window_percentiles(samples: &[(u32, f64)]) -> Result<(f64, f64), String> {
    let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
    for mut v in by_window(samples).into_iter().filter(|v| !v.is_empty()) {
        v.sort_by(f64::total_cmp);
        match (percentile(&v, 0.5), percentile(&v, 0.99)) {
            (Some(a), Some(b)) => {
                p50s.push(a);
                p99s.push(b);
            }
            _ => return Err(format!("a 1 s window held only {} samples", v.len())),
        }
    }
    match (median(&p50s), median(&p99s)) {
        (Some(a), Some(b)) => Ok((a, b)),
        _ => Err("no latency samples".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_is_nearest_rank_on_raw_samples() {
        let v = ramp(1000);
        assert_eq!(percentile(&v, 0.5), Some(500.0));
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&v, 0.001), Some(1.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // 0.99 of 1010 is rank 1000: exactly 10 samples beyond.
        assert_eq!(percentile(&ramp(1010), 0.99), Some(1000.0));
        // 0.99 of 1009 is rank 999: also 10 beyond.
        assert_eq!(percentile(&ramp(1009), 0.99), Some(999.0));
        // 0.99 of 999 is rank 990: only 9 beyond.
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&ramp(15), 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn share_and_mean_guard_empty_inputs() {
        assert_eq!(share(1, 4), 0.25);
        assert_eq!(share(3, 0), 0.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn windowed_figures_take_the_median_window() {
        // Three windows of 2000 samples; the middle one is slow.
        let mut samples = Vec::new();
        for (w, scale) in [(0u32, 1.0), (1, 10.0), (2, 2.0)] {
            samples.extend((1..=2000).map(|i| (w, i as f64 * scale)));
        }
        samples.push((2, 1.0));
        assert_eq!(window_rate(&samples), 2000.0);
        let (p50, p99) = window_percentiles(&samples).unwrap();
        assert_eq!(p50, 2000.0); // window 2's median
        assert_eq!(p99, 3960.0); // window 2's 99th percentile
        assert!(window_percentiles(&[(0, 1.0)]).is_err());
    }
}
