//! Order statistics shared by the workloads and `compare`.

pub use accmos_bench::geo_mean;

/// Median of `xs` (mean of the middle pair for even counts); NaN when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The three quartile cut points, computed exactly like Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// `compare` reports the spreads an outside check recomputes. With fewer
/// than two samples every cut point is that sample (NaN when empty).
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return [x; 3];
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (i, slot) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    out
}

/// Interquartile range as a share of the median.
pub fn relative_spread(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    (q3 - q1) / q2.abs()
}

/// The highest of the percentiles 99.9, 99, 95, 90, 75 and 50 that has at
/// least ten samples beyond it, with its nearest-rank value:
/// `(percentile, value)`. `None` with fewer than 20 samples.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    // Percentiles in tenths, so the nearest rank is exact integer math.
    [999usize, 990, 950, 900, 750, 500]
        .into_iter()
        .find_map(|p| {
            let rank = (p * n).div_ceil(1000);
            (rank >= 1 && n - rank >= 10).then(|| (p as f64 / 10.0, v[rank - 1]))
        })
}

/// Throughput as the median over `windows` equal sub-windows of
/// `[start, end)`: completions per second in each. Whole-run throughput
/// of a short closed loop swings with one slow stretch; the median of
/// sub-windows does not.
pub fn subwindow_throughput(done_at: &[f64], start: f64, end: f64, windows: usize) -> f64 {
    let len = (end - start) / windows as f64;
    if len <= 0.0 || windows == 0 {
        return f64::NAN;
    }
    let mut counts = vec![0usize; windows];
    for &t in done_at {
        if t >= start && t < end {
            let w = (((t - start) / len) as usize).min(windows - 1);
            counts[w] += 1;
        }
    }
    let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / len).collect();
    median(&rates)
}

/// SplitMix64 finalizer: derives independent seeds (stimulus, order,
/// sampling) from the run seed and a stream tag.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[7.0, 5.0]), [4.5, 6.0, 7.5]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
        assert!((relative_spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99.9 has one sample beyond it, p99 has ten.
        assert_eq!(tail(&xs), Some((99.0, 990.0)));
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((75.0, 30.0)));
        assert_eq!(tail(&[1.0; 19]), None);
    }

    #[test]
    fn geomean_and_subwindows() {
        assert!((geo_mean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        // 10 completions in the first second, 20 in each later one.
        let mut done: Vec<f64> = (0..10).map(|i| f64::from(i) / 10.0).collect();
        for s in 1..5 {
            done.extend((0..20).map(|i| f64::from(s) + f64::from(i) / 20.0));
        }
        assert_eq!(subwindow_throughput(&done, 0.0, 5.0, 5), 20.0);
        assert!(subwindow_throughput(&done, 1.0, 1.0, 5).is_nan());
    }

    #[test]
    fn mix_is_deterministic_and_tag_sensitive() {
        assert_eq!(mix(2024, 1), mix(2024, 1));
        assert_ne!(mix(2024, 1), mix(2024, 2));
        assert_ne!(mix(2024, 1), mix(2025, 1));
    }
}
