//! The benchmark's own arithmetic: order statistics over a handful of
//! repetitions and the set-to-set comparison of the `--aa` mode.

/// The smallest value. Every repetition of a workload executes the same
/// instructions (the fingerprint check asserts it), so spread between
/// repetitions is interference, and interference only ever slows: the
/// fastest repetition is the least disturbed estimate of the code's speed.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The least-disturbed time of a run that was repeated: every repetition is
/// cut at the same points (the controller's ticks) into segments, and the
/// segments' fastest times are summed. Segment `k` executes the same
/// instructions in every repetition, so this is what [`fastest`] estimates,
/// taken piece by piece: a burst of interference has to cover segment `k` of
/// *every* repetition to show, not merely some part of each repetition. On
/// this host a noisy minute moves it about half as far as the fastest whole
/// repetition. `None` when there is no repetition or the repetitions were
/// not cut alike.
pub fn least_disturbed(segments: &[Vec<f64>]) -> Option<f64> {
    let first = segments.first()?;
    if segments.iter().any(|s| s.len() != first.len()) {
        return None;
    }
    Some(
        (0..first.len())
            .map(|k| segments.iter().map(|s| s[k]).fold(f64::INFINITY, f64::min))
            .sum(),
    )
}

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `(median − fastest) ÷ fastest`, in percent: how disturbed this set of
/// repetitions was (`host.rep_spread_pct`).
pub fn spread_pct(values: &[f64]) -> f64 {
    let f = fastest(values);
    (median(values) - f) / f * 100.0
}

/// By what share of `first` the value `second` is *worse*, given the
/// metric's direction (negative = better). The `--aa` mode holds this
/// against the metric's bound.
pub fn worsening(first: f64, second: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        (first - second) / first
    } else {
        (second - first) / first
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_median_and_spread() {
        let v = [2.6, 2.5, 3.1, 2.7, 2.55];
        assert_eq!(fastest(&v), 2.5);
        assert_eq!(median(&v), 2.6);
        assert!((spread_pct(&v) - 4.0).abs() < 1e-9);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(spread_pct(&[3.0, 3.0, 3.0]), 0.0);
    }

    #[test]
    fn least_disturbed_sums_the_fastest_of_each_segment() {
        // Three repetitions cut into three segments; each was disturbed in
        // another segment, so no whole repetition is as fast as the sum.
        let reps = [
            vec![1.0, 2.0, 9.0],
            vec![1.5, 6.0, 3.0],
            vec![4.0, 2.5, 3.5],
        ];
        assert_eq!(least_disturbed(&reps), Some(1.0 + 2.0 + 3.0));
        let whole: Vec<f64> = reps.iter().map(|r| r.iter().sum()).collect();
        assert!(least_disturbed(&reps).unwrap() < fastest(&whole));
        // One repetition: its own time.
        assert_eq!(least_disturbed(&reps[..1]), Some(12.0));
        // Not cut alike, or nothing to cut.
        assert_eq!(least_disturbed(&[vec![1.0, 2.0], vec![3.0]]), None);
        assert_eq!(least_disturbed(&[]), None);
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        // Throughput falling 100 -> 90 is 10 % worse; rising is better.
        assert!((worsening(100.0, 90.0, true) - 0.10).abs() < 1e-12);
        assert!(worsening(100.0, 110.0, true) < 0.0);
        // Set-up time rising 0.20 -> 0.21 is 5 % worse.
        assert!((worsening(0.20, 0.21, false) - 0.05).abs() < 1e-12);
        assert!(worsening(0.20, 0.19, false) < 0.0);
    }
}
