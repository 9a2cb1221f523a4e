//! Order statistics over latency samples.

/// Percentiles the tail metric may use, highest first.
const TAIL_LADDER: [f64; 6] = [0.9999, 0.999, 0.99, 0.9, 0.75, 0.5];

/// The highest ladder quantile that leaves at least ten of `n` samples
/// beyond it. Workloads pass the sample count their design guarantees, so
/// the chosen percentile does not change from seed to seed.
pub fn tail_quantile(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|&q| beyond(n, q) >= 10)
        .unwrap_or(0.5)
}

/// 1-based nearest rank of quantile `q` among `n` samples. The slack keeps
/// products such as `0.99 * 1000` from rounding up a whole rank.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank quantile `q` of `samples` (sorted in place); `NaN` when
/// empty.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_by(f64::total_cmp);
    samples[rank(samples.len(), q) - 1]
}

/// Samples strictly above quantile `q` under the nearest-rank rule.
pub fn beyond(n: usize, q: f64) -> usize {
    n.saturating_sub(rank(n, q))
}

/// Arithmetic mean; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, 0 when the base is 0.
pub fn frac(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(100_000), 0.9999);
        assert_eq!(tail_quantile(1000), 0.99);
        assert_eq!(tail_quantile(45), 0.75);
        for n in [40, 45, 100, 1000, 1500, 100_000] {
            assert!(beyond(n, tail_quantile(n)) >= 10, "n={n}");
        }
    }

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=10).map(f64::from).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), 5.0);
        assert_eq!(quantile(&mut v, 0.9), 9.0);
        assert_eq!(quantile(&mut v, 1.0), 10.0);
        assert!(quantile(&mut [], 0.5).is_nan());
    }
}
