//! Order statistics, the tail-percentile rule and FNV-1a hashing.

/// Percentiles the report considers, lowest first.
pub const PERCENTILES: [u32; 5] = [50, 75, 90, 95, 99];

/// Samples a percentile must have strictly beyond it before the report
/// uses it.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `p`-th percentile among `n` samples:
/// the smallest rank with at least `p` % of the samples at or below it.
pub fn rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(100).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples ranked strictly above the `p`-th percentile.
pub fn beyond(n: usize, p: u32) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The highest of [`PERCENTILES`] with at least [`MIN_BEYOND`] samples
/// beyond it; the median when even that has fewer.
pub fn tail_percentile(n: usize) -> u32 {
    PERCENTILES
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
        .unwrap_or(50)
}

/// Ascending copy of nanosecond samples, in the unit `scale` divides by.
pub fn sorted_scaled(samples: &[u64], scale: f64) -> Vec<f64> {
    let mut v: Vec<f64> = samples.iter().map(|&s| s as f64 / scale).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Arithmetic mean (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median of an ascending slice, averaging the middle pair.
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartiles of an ascending slice, computed like
/// Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method), so spreads here match a script's.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let ld = sorted.len();
    if ld < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Inter-quartile distance as a share of the median.
pub fn spread(sorted: &[f64]) -> f64 {
    let (q1, q3) = quartiles(sorted);
    let med = median(sorted);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// 64-bit FNV-1a, for input fingerprints and output digests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// A string followed by a terminator, so adjacent strings cannot
    /// run together into the same byte stream.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 99), 99.0);
        let v = [3.0, 5.0, 7.0];
        assert_eq!(percentile(&v, 50), 5.0);
        assert_eq!(percentile(&v, 90), 7.0);
        assert_eq!(percentile(&[4.0], 99), 4.0);
        assert_eq!(percentile(&[], 50), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 samples is rank 990: exactly 10 beyond.
        assert_eq!(beyond(1000, 99), 10);
        assert_eq!(tail_percentile(1000), 99);
        assert_eq!(tail_percentile(999), 95);
        // p95 of 200 is rank 190; p90 of 100 is rank 90.
        assert_eq!(tail_percentile(200), 95);
        assert_eq!(tail_percentile(199), 90);
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(40), 75);
        assert_eq!(tail_percentile(20), 50);
        // Too few samples for any tail: the median, never a made-up rank.
        assert_eq!(tail_percentile(3), 50);
        assert_eq!(tail_percentile(0), 50);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 4.5));
        assert_eq!(median(&v), 5.5);
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn fnv_reference_values() {
        // FNV-1a 64 of "" and "a" (published test vectors).
        assert_eq!(Fnv::default().0, 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
    }
}
