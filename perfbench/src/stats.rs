//! Order statistics over measured samples.

/// Sorts a copy of `samples` (NaNs are never produced by the benchmark).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The nearest-rank `q`-quantile (`0 < q ≤ 1`); 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let v = sorted(samples);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median (mean of the two middle samples for an even count); 0 for
/// no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let v = sorted(samples);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The cost of tracing from paired samples: the median over pairs of
/// `traced − untraced` as a share of the untraced median. `untraced[i]`
/// and `traced[i]` time the same operation; pairing keeps the spread
/// between operations, and a burst of machine noise on a few of them,
/// out of the figure. 0 for no pairs.
pub fn paired_overhead(untraced: &[f64], traced: &[f64]) -> f64 {
    let diffs: Vec<f64> = untraced.iter().zip(traced).map(|(u, t)| t - u).collect();
    ratio(median(&diffs), median(untraced))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn overhead_pairs_each_operation() {
        // Operations of very different lengths, each 10 % slower traced.
        let untraced = [1.0, 10.0, 100.0];
        let traced = [1.1, 11.0, 110.0];
        assert!((paired_overhead(&untraced, &traced) - 0.1).abs() < 1e-9);
        assert_eq!(paired_overhead(&[], &[]), 0.0);
    }
}
