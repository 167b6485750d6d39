//! The token bucket: the gate's per-principal rate-limiting primitive.
//!
//! Deterministic by construction — refill is computed from the
//! caller-supplied "now", never from the wall clock, so the admit/deny
//! sequence is a pure function of (config, arrival sequence). The
//! saturation proptest (`tests/gate_saturation.rs`) machine-checks
//! exactly that property.

use gae_types::SimDuration;
use gae_types::SimTime;

/// Shape of one token bucket.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TokenBucketConfig {
    /// Maximum burst: the bucket starts full at this many tokens.
    pub capacity: f64,
    /// Sustained rate: tokens accrued per second of clock time.
    pub refill_per_sec: f64,
}

impl TokenBucketConfig {
    /// A bucket allowing `burst` requests at once and `rate` per
    /// second sustained. Both are clamped to be at least slightly
    /// positive so a bucket can never deadlock at "retry never".
    pub fn new(burst: f64, rate: f64) -> Self {
        TokenBucketConfig {
            capacity: burst.max(1.0),
            refill_per_sec: rate.max(1e-6),
        }
    }
}

impl Default for TokenBucketConfig {
    /// 32-request burst, 64 requests/s sustained — roomy enough that
    /// a single well-behaved physicist never notices the gate.
    fn default() -> Self {
        TokenBucketConfig::new(32.0, 64.0)
    }
}

/// One principal's bucket.
#[derive(Clone, Debug)]
pub struct TokenBucket {
    config: TokenBucketConfig,
    tokens: f64,
    last_refill: SimTime,
}

impl TokenBucket {
    /// A full bucket whose refill timeline starts at `now`.
    pub fn new(config: TokenBucketConfig, now: SimTime) -> Self {
        TokenBucket {
            config,
            tokens: config.capacity,
            last_refill: now,
        }
    }

    /// Credits refill for the time since the last observation. Time
    /// moving backwards (clock skew between callers) is treated as no
    /// elapsed time, never as negative refill.
    fn refill(&mut self, now: SimTime) {
        if now > self.last_refill {
            let elapsed = (now - self.last_refill).as_secs_f64();
            self.tokens =
                (self.tokens + elapsed * self.config.refill_per_sec).min(self.config.capacity);
            self.last_refill = now;
        }
    }

    /// Takes one token at `now`, or reports how long until one will
    /// have accrued.
    pub fn try_take(&mut self, now: SimTime) -> Result<(), SimDuration> {
        self.refill(now);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            Ok(())
        } else {
            let deficit = 1.0 - self.tokens;
            Err(SimDuration::from_secs_f64(
                deficit / self.config.refill_per_sec,
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_then_deny() {
        let mut b = TokenBucket::new(TokenBucketConfig::new(3.0, 1.0), SimTime::ZERO);
        for _ in 0..3 {
            assert!(b.try_take(SimTime::ZERO).is_ok());
        }
        let retry = b.try_take(SimTime::ZERO).unwrap_err();
        assert_eq!(retry, SimDuration::from_secs(1), "one token at 1/s");
    }

    #[test]
    fn refill_restores_admission() {
        let cfg = TokenBucketConfig::new(1.0, 2.0); // token every 500 ms
        let mut b = TokenBucket::new(cfg, SimTime::ZERO);
        assert!(b.try_take(SimTime::ZERO).is_ok());
        assert!(b.try_take(SimTime::from_millis(100)).is_err());
        assert!(b.try_take(SimTime::from_millis(600)).is_ok());
    }

    #[test]
    fn refill_caps_at_capacity() {
        let mut b = TokenBucket::new(TokenBucketConfig::new(2.0, 1000.0), SimTime::ZERO);
        let late = SimTime::from_secs(100);
        assert!(b.try_take(late).is_ok() && b.try_take(late).is_ok());
        assert!(
            b.try_take(late).is_err(),
            "100 s of refill holds two tokens"
        );
    }

    #[test]
    fn clock_regression_is_not_negative_refill() {
        let mut b = TokenBucket::new(TokenBucketConfig::new(2.0, 1.0), SimTime::from_secs(10));
        assert!(b.try_take(SimTime::from_secs(10)).is_ok());
        // An earlier "now" must not mint or destroy tokens: one left.
        assert!(b.try_take(SimTime::from_secs(5)).is_ok());
        assert!(b.try_take(SimTime::from_secs(5)).is_err());
    }

    #[test]
    fn decisions_are_pure_function_of_arrivals() {
        let cfg = TokenBucketConfig::new(4.0, 3.0);
        let arrivals: Vec<SimTime> = (0..50).map(|i| SimTime::from_millis(i * 137)).collect();
        let run = || -> Vec<bool> {
            let mut b = TokenBucket::new(cfg, SimTime::ZERO);
            arrivals.iter().map(|t| b.try_take(*t).is_ok()).collect()
        };
        assert_eq!(run(), run());
    }
}
