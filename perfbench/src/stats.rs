//! Sample summaries: medians and the tail-percentile rule.

/// Median of `samples` (the mean of the two middle values for an even
/// count, as Python's `statistics.median`); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// The percentile ladder a tail is chosen from, in percent.
const LADDER: [f64; 7] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999, 99.9999];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// A tail latency: the value at `percentile` (nearest rank), with the
/// number of samples strictly beyond that rank and the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub beyond: usize,
    pub samples: usize,
}

/// The highest ladder percentile (50, 90, 99, 99.9, …) whose
/// nearest-rank value has at least [`TAIL_BEYOND`] samples beyond it;
/// `None` when even the median has fewer (under 20 samples).
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let mut best = None;
    for p in LADDER {
        // Nearest rank, 1-based; the integer form avoids float error at
        // exact ranks (e.g. p99 of 1000 samples is rank 990).
        let scaled = (p * 10_000.0).round() as u128;
        let rank = ((scaled * n as u128).div_ceil(1_000_000)).max(1) as usize;
        if rank > n || n - rank < TAIL_BEYOND {
            break;
        }
        best = Some(Tail {
            percentile: p,
            value: sorted[rank - 1],
            beyond: n - rank,
            samples: n,
        });
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the selection must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn no_tail_below_twenty_samples() {
        assert_eq!(tail(&ramp(19)), None);
        let t = tail(&ramp(20)).expect("20 samples give a median tail");
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 10.0, 10));
    }

    #[test]
    fn tail_climbs_the_ladder_with_sample_count() {
        // 100 samples: p90 is rank 90 with exactly 10 beyond; p99 would
        // leave only 1.
        let t = tail(&ramp(100)).expect("tail");
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 90.0, 10));
        // 99 samples: p90 is rank 90 (ceil 89.1) with 9 beyond, so the
        // median is the highest qualifying percentile.
        let t = tail(&ramp(99)).expect("tail");
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 50.0, 49));
        // 1000 samples: p99 is rank 990, exactly 10 beyond.
        let t = tail(&ramp(1000)).expect("tail");
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));
        // 10^5 samples reach p99.99.
        let t = tail(&ramp(100_000)).expect("tail");
        assert_eq!(t.percentile, 99.99);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 100_000);
    }

    #[test]
    fn tail_ignores_input_order_and_ties() {
        let mut v = vec![1.0; 50];
        v.extend(std::iter::repeat_n(7.0, 50));
        v.reverse();
        let t = tail(&v).expect("tail");
        assert_eq!((t.percentile, t.value), (90.0, 7.0));
    }
}
