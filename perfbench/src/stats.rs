//! Order statistics over latency samples.

/// The `p`-th percentile (0–100) of `samples` by linear interpolation
/// between closest ranks; `NaN` when there are no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The arithmetic mean of `samples`; `NaN` when there are none.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        f64::NAN
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// How many samples lie strictly above the `p`-th percentile — the
/// support a tail figure rests on.
pub fn beyond(samples: &[f64], p: f64) -> usize {
    let cut = percentile(samples, p);
    samples.iter().filter(|&&s| s > cut).count()
}

/// A one-line summary of the upper percentiles, for the human-readable
/// report.
pub fn tails(samples: &[f64]) -> String {
    let p = |q| percentile(samples, q);
    format!(
        "n {} p50 {:.3} p75 {:.3} p90 {:.3} p95 {:.3} p99 {:.3} p99.9 {:.3} ms",
        samples.len(),
        p(50.0),
        p(75.0),
        p(90.0),
        p(95.0),
        p(99.0),
        p(99.9)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let samples = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&samples), 3.0);
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&samples, 100.0), 5.0);
        assert_eq!(percentile(&samples, 87.5), 4.5);
        assert_eq!(beyond(&samples, 50.0), 2);
        assert!(median(&[]).is_nan());
        assert_eq!(mean(&samples), 3.0);
    }
}
