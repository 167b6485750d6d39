//! Summary statistics and the run digest.

/// The `q`-quantile (0..=1) of an ascending slice, nearest-rank.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of unsorted samples (sorts a copy).
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// The median, or 0 for a layer the workload never entered.
pub fn median_or_zero(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(samples)
    }
}

/// An ascending copy; samples are finite timings, never NaN.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    v
}

/// The tail of a latency distribution: the highest of p99.9, p99, p95,
/// p90, p80 that still has at least ten samples beyond it, with the
/// percentile it is. Fewer than ~50 samples leave only the median.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    for per_mille in [999usize, 990, 950, 900, 800] {
        let beyond = sorted.len() * (1000 - per_mille) / 1000;
        if beyond >= 10 {
            let p = per_mille as f64 / 1000.0;
            return (p * 100.0, quantile(sorted, p));
        }
    }
    (50.0, quantile(sorted, 0.5))
}

/// FNV-1a, folded incrementally: the request-byte hash and the run
/// digest. Not a pinned value — printed so two runs can be compared.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, data: &[u8]) {
        for b in data {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 1000 samples: p99 leaves 10 beyond, p99.9 only one.
        assert_eq!(tail(&v), (99.0, 990.0));
        let v: Vec<f64> = (1..=20_000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.9, 19_980.0));
        let v: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(tail(&v), (80.0, 40.0));
        // Too few for any tail: the median stands in.
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&v), (50.0, 10.0));
    }

    #[test]
    fn digest_depends_on_every_byte_and_order() {
        let hash = |parts: &[&[u8]]| {
            let mut d = Digest::new();
            parts.iter().for_each(|p| d.bytes(p));
            d
        };
        assert_eq!(hash(&[b"ab", b"c"]), hash(&[b"abc"]));
        assert_ne!(hash(&[b"abc"]), hash(&[b"acb"]));
        assert_ne!(hash(&[b"abc"]), hash(&[b"abd"]));
    }
}
