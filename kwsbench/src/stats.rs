//! Exact order statistics over every recorded sample.

/// One percentile read by nearest rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the nearest rank.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub n: usize,
    /// Samples ranked after it (`n - rank`): how many observations the
    /// reported value rests on in the tail.
    pub beyond: usize,
}

/// The `p`-th percentile (`0 < p <= 100`) of `samples` by the nearest-rank
/// rule: the smallest sample with at least `p` % of all samples at or
/// below it. `None` for an empty sample or `p` outside `(0, 100]`.
pub fn percentile(samples: &[f64], p: f64) -> Option<Percentile> {
    if samples.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // p * n first: integer p and n then give an exact product
    let rank = ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n);
    Some(Percentile {
        value: sorted[rank - 1],
        n,
        beyond: n - rank,
    })
}

/// Median of `samples` by nearest rank (the lower middle of an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0).map(|p| p.value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p50 = percentile(&v, 50.0).unwrap();
        assert_eq!((p50.value, p50.n, p50.beyond), (50.0, 100, 50));
        let p99 = percentile(&v, 99.0).unwrap();
        assert_eq!((p99.value, p99.beyond), (99.0, 1));
        assert_eq!(percentile(&v, 100.0).unwrap().value, 100.0);
        assert_eq!(percentile(&v, 0.5).unwrap().value, 1.0);
    }

    #[test]
    fn hand_computed_skewed_distribution() {
        // 7 samples: sorted [1, 2, 2, 3, 10, 40, 500]
        let v = [10.0, 2.0, 500.0, 1.0, 3.0, 40.0, 2.0];
        // p50: rank ceil(3.5) = 4 -> 3
        assert_eq!(percentile(&v, 50.0).unwrap().value, 3.0);
        // p90: rank ceil(6.3) = 7 -> 500, nothing beyond it
        let p90 = percentile(&v, 90.0).unwrap();
        assert_eq!((p90.value, p90.beyond), (500.0, 0));
        // p80: rank ceil(5.6) = 6 -> 40, one sample beyond
        let p80 = percentile(&v, 80.0).unwrap();
        assert_eq!((p80.value, p80.beyond), (40.0, 1));
        // p25: rank ceil(1.75) = 2 -> 2
        assert_eq!(percentile(&v, 25.0).unwrap().value, 2.0);
        assert_eq!(median(&[4.0, 1.0]), Some(1.0));
    }

    #[test]
    fn ten_samples_lie_beyond_p99_of_a_thousand() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        let p99 = percentile(&v, 99.0).unwrap();
        assert_eq!((p99.value, p99.beyond), (989.0, 10));
    }

    #[test]
    fn degenerate_inputs_have_no_percentile() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[1.0], 0.0), None);
        assert_eq!(percentile(&[1.0], 101.0), None);
        assert_eq!(percentile(&[1.0], f64::NAN), None);
    }
}
