//! Exact integer moments of `(t, y)` points — `t` a row's `site_seq`,
//! `y` its `runtime_us` — the sufficient statistics of the §6.1
//! estimate (mean, OLS trend, R², sample σ).
//!
//! Every sum is an unsigned integer, so folding the same points in
//! any order yields the same `Moments`, and the statistics derived
//! from them are computed from exact numerators with one rounding at
//! the final conversion to `f64`. That is what lets an incrementally
//! maintained view, a scan and the legacy ring agree to the last bit.
//!
//! **Headroom.** The sums are `u128`. With at most 2³² points per
//! key and runtimes up to 2⁴⁰ µs (≈ 12.7 days) the largest, `Σy²`,
//! stays below 2¹¹² — nothing can overflow. Past that bound a sum
//! saturates at `u128::MAX` and [`Moments::saturated`] latches; `n`
//! and `Σy` cannot overflow for any `u64` inputs, so the mean stays
//! exact and the estimator degrades to it.

/// 2¹²⁸ as an `f64` (exact: a power of two).
const TWO_POW_128: f64 = 340_282_366_920_938_463_463_374_607_431_768_211_456.0;

/// `n, Σy, Σy², Σt, Σt², Σty, max t` over a set of points.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Moments {
    /// Number of points.
    pub n: u64,
    /// `Σy`.
    pub sum_y: u128,
    /// `Σy²`.
    pub sum_yy: u128,
    /// `Σt`.
    pub sum_t: u128,
    /// `Σt²`.
    pub sum_tt: u128,
    /// `Σt·y`.
    pub sum_ty: u128,
    /// Largest `t` seen (0 when empty).
    pub max_t: u64,
    /// True once any second-order sum exceeded `u128` (see the module
    /// header); the first-order sums are still exact.
    pub saturated: bool,
}

impl Moments {
    /// Folds one point in.
    pub fn push(&mut self, t: u64, y: u64) {
        let (t128, y128) = (t as u128, y as u128);
        // u64::MAX points of u64::MAX each still fit a u128.
        self.n = self.n.saturating_add(1);
        self.sum_y = self.sum_y.saturating_add(y128);
        self.sum_t = self.sum_t.saturating_add(t128);
        self.max_t = self.max_t.max(t);
        for (sum, term) in [
            (&mut self.sum_yy, y128 * y128),
            (&mut self.sum_tt, t128 * t128),
            (&mut self.sum_ty, t128 * y128),
        ] {
            match sum.checked_add(term) {
                Some(s) => *sum = s,
                None => {
                    *sum = u128::MAX;
                    self.saturated = true;
                }
            }
        }
    }

    /// The moments of `points`, each a `(t, y)` pair.
    pub fn from_points<I: IntoIterator<Item = (u64, u64)>>(points: I) -> Self {
        let mut m = Moments::default();
        for (t, y) in points {
            m.push(t, y);
        }
        m
    }

    /// `n·Σt² − (Σt)²`: the centred sum of squares of `t`, times `n`.
    pub fn scaled_sxx(&self) -> f64 {
        diff_of_products(self.n as u128, self.sum_tt, self.sum_t, self.sum_t)
    }

    /// `n·Σty − Σt·Σy`: the centred cross sum, times `n`.
    pub fn scaled_sxy(&self) -> f64 {
        diff_of_products(self.n as u128, self.sum_ty, self.sum_t, self.sum_y)
    }

    /// `n·Σy² − (Σy)²`: the centred sum of squares of `y`, times `n`.
    pub fn scaled_syy(&self) -> f64 {
        diff_of_products(self.n as u128, self.sum_yy, self.sum_y, self.sum_y)
    }

    /// `n·(max t + 1) − Σt`: the distance from the mean `t` to the
    /// one-step-ahead forecast point, times `n`.
    pub fn scaled_forecast_offset(&self) -> f64 {
        diff_of_products(self.n as u128, self.max_t as u128 + 1, self.sum_t, 1)
    }
}

/// `a·b` as `(high, low)` 128-bit halves.
fn widening_mul(a: u128, b: u128) -> (u128, u128) {
    const LOW: u128 = u64::MAX as u128;
    let (a1, a0) = (a >> 64, a & LOW);
    let (b1, b0) = (b >> 64, b & LOW);
    let (p00, p01, p10, p11) = (a0 * b0, a0 * b1, a1 * b0, a1 * b1);
    let mid = (p00 >> 64) + (p01 & LOW) + (p10 & LOW);
    let low = (p00 & LOW) | (mid << 64);
    let high = p11 + (p01 >> 64) + (p10 >> 64) + (mid >> 64);
    (high, low)
}

/// `a·b − c·d` computed exactly in 256 bits, then converted to `f64`.
/// Below 2¹²⁸ in magnitude the conversion is the single correctly
/// rounded one; above, the two halves round separately (≤ 1 ulp off).
fn diff_of_products(a: u128, b: u128, c: u128, d: u128) -> f64 {
    let (x, y) = (widening_mul(a, b), widening_mul(c, d));
    let (negative, (big, small)) = if x >= y {
        (false, (x, y))
    } else {
        (true, (y, x))
    };
    let (low, borrow) = big.1.overflowing_sub(small.1);
    let high = big.0 - small.0 - borrow as u128;
    let magnitude = high as f64 * TWO_POW_128 + low as f64;
    if negative {
        -magnitude
    } else {
        magnitude
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_accumulates_and_is_order_independent() {
        let pts = [(0u64, 10u64), (1, 30), (5, 7), (2, 0)];
        let fwd = Moments::from_points(pts);
        let rev = Moments::from_points(pts.iter().rev().copied());
        assert_eq!(fwd, rev);
        assert_eq!(fwd.n, 4);
        assert_eq!(fwd.sum_y, 47);
        assert_eq!(fwd.sum_yy, 100 + 900 + 49);
        assert_eq!(fwd.sum_t, 8);
        assert_eq!(fwd.sum_tt, 1 + 25 + 4);
        assert_eq!(fwd.sum_ty, 30 + 35);
        assert_eq!(fwd.max_t, 5);
        assert!(!fwd.saturated);
        // 4·30 − 64, 4·65 − 8·47, 4·1049 − 47², 4·6 − 8.
        assert_eq!(fwd.scaled_sxx(), 56.0);
        assert_eq!(fwd.scaled_sxy(), -116.0);
        assert_eq!(fwd.scaled_syy(), 1987.0);
        assert_eq!(fwd.scaled_forecast_offset(), 16.0);
    }

    #[test]
    fn widening_mul_matches_small_and_carries_large() {
        assert_eq!(widening_mul(7, 6), (0, 42));
        assert_eq!(widening_mul(u128::MAX, 1), (0, u128::MAX));
        // (2¹²⁸ − 1)² = 2²⁵⁶ − 2¹²⁹ + 1.
        assert_eq!(widening_mul(u128::MAX, u128::MAX), (u128::MAX - 1, 1));
        assert_eq!(widening_mul(1 << 100, 1 << 100), (1 << 72, 0));
    }

    #[test]
    fn numerators_stay_exact_past_128_bits() {
        // n = 2³² points of y = 2⁴⁰ µs at t = 0..n: the documented
        // bound. Σy² = 2¹¹², and n·Σy² = (Σy)² = 2¹⁴⁴ — a naive u128
        // product would wrap; the exact difference is 0.
        let n: u128 = 1 << 32;
        let y: u128 = 1 << 40;
        let m = Moments {
            n: n as u64,
            sum_y: n * y,
            sum_yy: n * y * y,
            sum_t: n * (n - 1) / 2,
            sum_tt: (n - 1) * n * (2 * n - 1) / 6,
            sum_ty: y * (n * (n - 1) / 2),
            max_t: (n - 1) as u64,
            saturated: false,
        };
        assert_eq!(m.scaled_syy(), 0.0);
        assert_eq!(m.scaled_sxy(), 0.0);
        // n²(n² − 1)/12, within an ulp of 2¹²⁸/12.
        let sxx = m.scaled_sxx();
        assert!((sxx / (TWO_POW_128 / 12.0) - 1.0).abs() < 1e-9, "{sxx}");
        assert_eq!(
            m.scaled_forecast_offset(),
            ((n * n) - n * (n - 1) / 2) as f64
        );
    }

    #[test]
    fn overflow_saturates_and_latches_never_wraps() {
        let mut m = Moments {
            n: 1,
            sum_yy: u128::MAX - 10,
            ..Moments::default()
        };
        m.push(3, 2);
        assert!(!m.saturated, "4 more still fits");
        assert_eq!(m.sum_yy, u128::MAX - 6);
        m.push(4, 3);
        assert!(m.saturated);
        assert_eq!(m.sum_yy, u128::MAX);
        assert_eq!(
            (m.n, m.sum_y, m.sum_t),
            (3, 5, 7),
            "first-order sums stay exact"
        );
        m.push(5, 1);
        assert!(m.saturated, "the flag latches");
        assert_eq!(m.sum_yy, u128::MAX);
        // The extreme single point cannot overflow anything.
        let one = Moments::from_points([(u64::MAX, u64::MAX)]);
        assert!(!one.saturated);
    }
}
