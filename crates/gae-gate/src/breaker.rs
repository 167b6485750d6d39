//! Circuit breakers for downstream services.
//!
//! The Steering Service's Backup & Recovery module reacts to
//! execution-service failures by rescheduling (§4.2.4) — but during a
//! site outage, re-contacting the dead service on every poll just
//! burns scheduler cycles and floods the site the moment it returns.
//! A breaker per downstream dependency (one per execution site, one
//! for the scheduler) trips to **Open** after a run of consecutive
//! failures, refuses calls for a cooldown, then **Half-Open**s to let
//! exactly one probe through; the probe's outcome closes or re-opens
//! the circuit.

use gae_types::Clock;
use gae_types::{SimDuration, SimTime};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Breaker tuning.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker.
    pub failure_threshold: u32,
    /// How long an open breaker refuses before half-opening.
    pub cooldown: SimDuration,
}

impl BreakerConfig {
    /// A breaker tripping after `failure_threshold` consecutive
    /// failures and probing again after `cooldown`.
    pub fn new(failure_threshold: u32, cooldown: SimDuration) -> Self {
        BreakerConfig {
            failure_threshold: failure_threshold.max(1),
            cooldown,
        }
    }
}

impl Default for BreakerConfig {
    /// Trip after 3 consecutive failures, probe after 30 s.
    fn default() -> Self {
        BreakerConfig::new(3, SimDuration::from_secs(30))
    }
}

/// Observable breaker state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: calls flow.
    Closed,
    /// Tripped: calls are refused until the cooldown elapses.
    Open,
    /// Cooldown elapsed: one probe is in flight.
    HalfOpen,
}

impl BreakerState {
    /// Stable lower-case name (used in metric values: closed=0,
    /// open=1, half-open=2).
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }

    /// Numeric encoding for metric publication.
    pub fn as_metric(self) -> f64 {
        match self {
            BreakerState::Closed => 0.0,
            BreakerState::Open => 1.0,
            BreakerState::HalfOpen => 2.0,
        }
    }
}

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[derive(Clone, Copy, Debug)]
enum State {
    Closed { consecutive_failures: u32 },
    Open { since: SimTime },
    HalfOpen,
}

/// One downstream dependency's breaker.
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: State,
}

impl CircuitBreaker {
    /// A closed breaker.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            state: State::Closed {
                consecutive_failures: 0,
            },
        }
    }

    /// Whether a call may proceed at `now`. `Err(retry_after)` when
    /// the circuit refuses. Transitions Open → HalfOpen when the
    /// cooldown has elapsed (the allowed call is the probe).
    pub fn check(&mut self, now: SimTime) -> Result<(), SimDuration> {
        match self.state {
            State::Closed { .. } => Ok(()),
            State::Open { since } => {
                let reopens = since + self.config.cooldown;
                if now >= reopens {
                    self.state = State::HalfOpen;
                    Ok(())
                } else {
                    Err(reopens
                        .saturating_since(now)
                        .max(SimDuration::from_millis(1)))
                }
            }
            // A probe is already in flight; hold further calls for a
            // short beat rather than a full cooldown.
            State::HalfOpen => Err(self
                .config
                .cooldown
                .div_f64(4.0)
                .max(SimDuration::from_millis(1))),
        }
    }

    /// Reports a call outcome at `now`.
    pub fn record(&mut self, ok: bool, now: SimTime) {
        self.state = match (self.state, ok) {
            // Success closes from anywhere.
            (_, true) => State::Closed {
                consecutive_failures: 0,
            },
            // A failed probe re-opens for another full cooldown.
            (State::HalfOpen, false) | (State::Open { .. }, false) => State::Open { since: now },
            (
                State::Closed {
                    consecutive_failures,
                },
                false,
            ) => {
                let failures = consecutive_failures + 1;
                if failures >= self.config.failure_threshold {
                    State::Open { since: now }
                } else {
                    State::Closed {
                        consecutive_failures: failures,
                    }
                }
            }
        };
    }

    /// The externally visible state at `now` (an Open breaker whose
    /// cooldown elapsed reads as Half-Open-eligible but stays Open
    /// until a call actually probes).
    pub fn state(&self) -> BreakerState {
        match self.state {
            State::Closed { .. } => BreakerState::Closed,
            State::Open { .. } => BreakerState::Open,
            State::HalfOpen => BreakerState::HalfOpen,
        }
    }
}

/// A named collection of breakers sharing one configuration — keys
/// like `"exec-site-3"` or `"sched"`.
pub struct BreakerBank {
    config: BreakerConfig,
    clock: Arc<dyn Clock>,
    breakers: Mutex<BTreeMap<String, CircuitBreaker>>,
}

impl BreakerBank {
    /// An empty bank; breakers materialise closed on first use.
    pub fn new(config: BreakerConfig, clock: Arc<dyn Clock>) -> Self {
        BreakerBank {
            config,
            clock,
            breakers: Mutex::new(BTreeMap::new()),
        }
    }

    /// Whether a call to `key` may proceed now.
    pub fn check(&self, key: &str) -> Result<(), SimDuration> {
        let now = self.clock.now();
        let mut breakers = self.breakers.lock();
        breakers
            .entry(key.to_string())
            .or_insert_with(|| CircuitBreaker::new(self.config))
            .check(now)
    }

    /// Reports a call outcome for `key`.
    pub fn record(&self, key: &str, ok: bool) {
        let now = self.clock.now();
        let mut breakers = self.breakers.lock();
        breakers
            .entry(key.to_string())
            .or_insert_with(|| CircuitBreaker::new(self.config))
            .record(ok, now);
    }

    /// Every materialised breaker's state, key-sorted.
    pub fn states(&self) -> Vec<(String, BreakerState)> {
        self.breakers
            .lock()
            .iter()
            .map(|(k, b)| (k.clone(), b.state()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gae_types::ManualClock;

    fn breaker(threshold: u32, cooldown_s: u64) -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig::new(
            threshold,
            SimDuration::from_secs(cooldown_s),
        ))
    }

    #[test]
    fn trips_on_consecutive_failures_only() {
        let mut b = breaker(3, 30);
        let t = SimTime::ZERO;
        b.record(false, t);
        b.record(false, t);
        b.record(true, t); // success resets the run
        b.record(false, t);
        b.record(false, t);
        assert_eq!(b.state(), BreakerState::Closed);
        b.record(false, t);
        assert_eq!(b.state(), BreakerState::Open);
        let retry = b.check(t).unwrap_err();
        assert_eq!(retry, SimDuration::from_secs(30));
    }

    #[test]
    fn half_open_probe_closes_or_reopens() {
        let mut b = breaker(1, 10);
        b.record(false, SimTime::ZERO);
        assert_eq!(b.state(), BreakerState::Open);
        // Cooldown elapsed: the next check is the probe.
        assert!(b.check(SimTime::from_secs(10)).is_ok());
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // While probing, further calls are briefly refused.
        assert!(b.check(SimTime::from_secs(10)).is_err());
        // Failed probe: open again for a full cooldown.
        b.record(false, SimTime::from_secs(11));
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.check(SimTime::from_secs(12)).is_err());
        // Successful probe closes.
        assert!(b.check(SimTime::from_secs(21)).is_ok());
        b.record(true, SimTime::from_secs(21));
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.check(SimTime::from_secs(21)).is_ok());
    }

    #[test]
    fn bank_keys_are_independent() {
        let clock = Arc::new(ManualClock::new());
        let bank = BreakerBank::new(BreakerConfig::new(1, SimDuration::from_secs(5)), clock);
        bank.record("exec-site-1", false);
        assert!(bank.check("exec-site-1").is_err());
        assert!(bank.check("exec-site-2").is_ok());
        assert_eq!(
            bank.states(),
            [
                ("exec-site-1".to_string(), BreakerState::Open),
                ("exec-site-2".to_string(), BreakerState::Closed),
            ],
            "key-sorted, never-used keys absent"
        );
    }

    #[test]
    fn metric_encoding_is_stable() {
        assert_eq!(BreakerState::Closed.as_metric(), 0.0);
        assert_eq!(BreakerState::Open.as_metric(), 1.0);
        assert_eq!(BreakerState::HalfOpen.as_metric(), 2.0);
        assert_eq!(BreakerState::HalfOpen.name(), "half-open");
    }
}
