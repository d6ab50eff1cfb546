//! The ledger's one percentile definition, and the small numeric helpers
//! every workload shares.

/// Sample count, median and 99th percentile of a set of measurements.
/// Percentiles use the nearest-rank definition: the `p`-th percentile of
/// `n` sorted samples is the sample at rank `ceil(p * n / 100)`, so it is
/// always a measured value, never an interpolation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
}

impl Summary {
    /// Summarize `values` (any order). An empty set summarizes to zeros.
    pub fn of(values: &[f64]) -> Summary {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary { n: sorted.len(), p50: nearest_rank(&sorted, 50), p99: nearest_rank(&sorted, 99) }
    }
}

/// The `pct`-th percentile of an ascending slice by nearest rank, in
/// integer arithmetic so that `99 * 100 / 100` is exactly rank 99.
fn nearest_rank(sorted: &[f64], pct: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (pct * sorted.len()).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// Median of a small set (setup repetitions); the lower middle for an even
/// count, consistent with [`Summary`].
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).p50
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// FNV-1a over a sequence of rendered outputs: the `output_digest` that
/// lets two runs show they produced the same bytes.
pub fn digest<'a>(outputs: impl IntoIterator<Item = &'a str>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for out in outputs {
        for b in out.bytes().chain(std::iter::once(0u8)) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the summary has to sort.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn one_sample_is_every_percentile() {
        assert_eq!(Summary::of(&[7.5]), Summary { n: 1, p50: 7.5, p99: 7.5 });
    }

    #[test]
    fn hundred_samples_use_nearest_rank() {
        assert_eq!(Summary::of(&ramp(100)), Summary { n: 100, p50: 50.0, p99: 99.0 });
    }

    #[test]
    fn thousand_samples_use_nearest_rank() {
        assert_eq!(Summary::of(&ramp(1000)), Summary { n: 1000, p50: 500.0, p99: 990.0 });
    }

    #[test]
    fn empty_and_even_sets() {
        assert_eq!(Summary::of(&[]), Summary { n: 0, p50: 0.0, p99: 0.0 });
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.0);
    }

    #[test]
    fn digest_separates_outputs() {
        assert_ne!(digest(["ab", "c"]), digest(["a", "bc"]));
        assert_eq!(digest(["x"]), digest(["x"]));
    }
}
