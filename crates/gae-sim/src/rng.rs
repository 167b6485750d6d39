//! Seeded RNG helpers so every experiment is exactly reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic RNG from a 64-bit seed.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Samples log-uniformly from `[lo, hi]` — the distribution Downey
/// observed for supercomputer job runtimes (used by the Paragon trace
/// generator).
pub fn log_uniform<R: Rng>(rng: &mut R, lo: f64, hi: f64) -> f64 {
    assert!(lo > 0.0 && hi >= lo, "invariant: 0 < lo <= hi");
    let (ln_lo, ln_hi) = (lo.ln(), hi.ln());
    rng.gen_range(ln_lo..=ln_hi).exp()
}

/// Samples from a normal distribution via Box–Muller (keeps us off
/// `rand_distr`; two uniforms per call, second discarded).
pub fn normal<R: Rng>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    assert!(std_dev >= 0.0, "invariant: std_dev >= 0");
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    mean + std_dev * z
}

/// Samples a multiplicative noise factor `exp(N(0, sigma))`, i.e.
/// log-normal noise centred on 1.0 — used for run-to-run runtime
/// variation in the trace generator.
pub fn lognormal_noise<R: Rng>(rng: &mut R, sigma: f64) -> f64 {
    normal(rng, 0.0, sigma).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_is_deterministic() {
        let a: Vec<u32> = (0..8).map(|_| seeded_rng(1).gen()).collect();
        let b: Vec<u32> = (0..8).map(|_| seeded_rng(1).gen()).collect();
        assert_eq!(a, b);
        let mut r1 = seeded_rng(1);
        let mut r2 = seeded_rng(2);
        assert_ne!(r1.gen::<u64>(), r2.gen::<u64>());
    }

    #[test]
    fn log_uniform_in_range() {
        let mut rng = seeded_rng(3);
        for _ in 0..1000 {
            let v = log_uniform(&mut rng, 10.0, 10_000.0);
            assert!((10.0..=10_000.0).contains(&v));
        }
    }

    #[test]
    fn log_uniform_spreads_over_decades() {
        let mut rng = seeded_rng(4);
        let samples: Vec<f64> = (0..2000)
            .map(|_| log_uniform(&mut rng, 1.0, 1000.0))
            .collect();
        let below_10 = samples.iter().filter(|&&v| v < 10.0).count();
        let above_100 = samples.iter().filter(|&&v| v > 100.0).count();
        // Each decade should hold roughly a third of the mass.
        assert!(below_10 > 500 && below_10 < 830, "{below_10}");
        assert!(above_100 > 500 && above_100 < 830, "{above_100}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = seeded_rng(5);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut rng, 5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn lognormal_noise_centred_near_one() {
        let mut rng = seeded_rng(6);
        let n = 20_000;
        let geo_mean = ((0..n)
            .map(|_| lognormal_noise(&mut rng, 0.2).ln())
            .sum::<f64>()
            / n as f64)
            .exp();
        assert!((geo_mean - 1.0).abs() < 0.02, "geometric mean {geo_mean}");
    }

    #[test]
    fn zero_sigma_noise_is_one() {
        let mut rng = seeded_rng(7);
        assert_eq!(lognormal_noise(&mut rng, 0.0), 1.0);
    }
}
