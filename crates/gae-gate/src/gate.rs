//! The [`Gate`]: policy composition for the RPC front door.
//!
//! One `Gate` bundles the per-principal rate limiter, the breaker
//! bank for downstream services, the shared metrics block and the
//! injected clock. The bounded admission queue composes *next to* it
//! (generic over the queued payload — the TCP transport queues its
//! work closures) and shares the same metrics and clock, so one
//! snapshot covers the whole admission pipeline.

use crate::breaker::{BreakerBank, BreakerConfig, BreakerState};
use crate::bucket::TokenBucketConfig;
use crate::limiter::{GateClass, Principal, RateLimiter};
use crate::metrics::{GateMetrics, GateStats};
use crate::queue::QueueConfig;
use gae_types::Clock;
use gae_types::{GaeError, GaeResult};
use parking_lot::RwLock;
use std::sync::Arc;

/// Maps a principal to its priority class. The wiring layer installs
/// one derived from the Quota & Accounting Service.
pub type ClassResolver = Box<dyn Fn(&Principal) -> GateClass + Send + Sync>;

/// Sink for per-disposition admission latency samples (`run`, `shed`,
/// `expired`, `refused`, `rate_limited`...). The wiring layer installs
/// one that feeds the observability hub's histograms; the gate itself
/// stays free of any dependency on the obs crate.
pub type DispositionObserver = Box<dyn Fn(&str, gae_types::SimDuration) + Send + Sync>;

/// Full gate policy.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct GateConfig {
    /// Per-principal token bucket shape.
    pub bucket: TokenBucketConfig,
    /// Admission queue shape (capacity, deadline).
    pub queue: QueueConfig,
    /// Downstream circuit-breaker tuning.
    pub breaker: BreakerConfig,
}

impl GateConfig {
    /// Config with an explicit queue capacity, defaults elsewhere.
    pub fn with_queue_capacity(capacity: usize) -> Self {
        GateConfig {
            queue: QueueConfig::new(capacity, QueueConfig::default().deadline),
            ..Self::default()
        }
    }
}

/// The admission-control and overload-protection service.
pub struct Gate {
    config: GateConfig,
    clock: Arc<dyn Clock>,
    limiter: RateLimiter,
    breakers: BreakerBank,
    metrics: Arc<GateMetrics>,
    class_resolver: RwLock<Option<ClassResolver>>,
    disposition_observer: RwLock<Option<DispositionObserver>>,
}

impl Gate {
    /// A gate enforcing `config` on `clock`'s timeline.
    pub fn new(config: GateConfig, clock: Arc<dyn Clock>) -> Arc<Gate> {
        Arc::new(Gate {
            config,
            limiter: RateLimiter::new(config.bucket),
            breakers: BreakerBank::new(config.breaker, clock.clone()),
            metrics: Arc::new(GateMetrics::new()),
            clock,
            class_resolver: RwLock::new(None),
            disposition_observer: RwLock::new(None),
        })
    }

    /// The gate's configuration.
    pub fn config(&self) -> GateConfig {
        self.config
    }

    /// The gate's clock (shared with the queue and breakers).
    pub fn clock(&self) -> Arc<dyn Clock> {
        self.clock.clone()
    }

    /// The shared metrics block (give this to the admission queue).
    pub fn metrics(&self) -> Arc<GateMetrics> {
        self.metrics.clone()
    }

    /// Installs the principal→class mapping (e.g. quota-derived:
    /// exhausted principals drop to [`GateClass::Scavenger`]).
    pub fn set_class_resolver<F>(&self, resolver: F)
    where
        F: Fn(&Principal) -> GateClass + Send + Sync + 'static,
    {
        *self.class_resolver.write() = Some(Box::new(resolver));
    }

    /// Installs the disposition latency sink (wiring: obs hub's
    /// per-disposition histograms).
    pub fn set_disposition_observer<F>(&self, observer: F)
    where
        F: Fn(&str, gae_types::SimDuration) + Send + Sync + 'static,
    {
        *self.disposition_observer.write() = Some(Box::new(observer));
    }

    /// Reports one admission outcome — the time a request spent in
    /// the gate before `disposition` was decided. No-op until an
    /// observer is installed.
    pub fn observe_disposition(&self, disposition: &str, latency: gae_types::SimDuration) {
        if let Some(observe) = &*self.disposition_observer.read() {
            observe(disposition, latency);
        }
    }

    /// The priority class of `principal` under the installed resolver
    /// (default [`GateClass::Production`]).
    pub fn classify(&self, principal: &Principal) -> GateClass {
        match &*self.class_resolver.read() {
            Some(resolve) => resolve(principal),
            None => GateClass::default(),
        }
    }

    /// Front-door admission: classifies the principal and draws one
    /// token from its bucket. Returns the class to enqueue at, or a
    /// typed [`GaeError::RateLimited`] with machine-readable
    /// retry-after.
    pub fn admit(&self, principal: &Principal) -> GaeResult<GateClass> {
        let class = self.classify(principal);
        match self.limiter.admit(principal, &*self.clock) {
            Ok(()) => {
                self.metrics.admitted.bump(class);
                Ok(class)
            }
            Err(retry_after) => {
                self.metrics.rate_limited.bump(class);
                Err(GaeError::RateLimited {
                    retry_after_us: retry_after.as_micros().max(1),
                })
            }
        }
    }

    /// Whether a call to downstream `key` may proceed, as a typed
    /// [`GaeError::Overloaded`] when the breaker refuses. `class` is
    /// only used for metric attribution.
    pub fn breaker_check(&self, key: &str, class: GateClass) -> GaeResult<()> {
        self.breakers.check(key).map_err(|retry_after| {
            self.metrics.breaker_denied.bump(class);
            GaeError::Overloaded {
                retry_after_us: retry_after.as_micros().max(1),
                shed_class: key.to_string(),
            }
        })
    }

    /// Reports a downstream call outcome to `key`'s breaker.
    pub fn breaker_record(&self, key: &str, ok: bool) {
        self.breakers.record(key, ok);
    }

    /// The state of one downstream breaker.
    pub fn breaker_state(&self, key: &str) -> BreakerState {
        self.breakers.state(key)
    }

    /// Every materialised breaker's state, key-sorted.
    pub fn breaker_states(&self) -> Vec<(String, BreakerState)> {
        self.breakers.states()
    }

    /// A point-in-time snapshot of every gate counter.
    pub fn stats(&self) -> GateStats {
        self.metrics.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gae_types::ManualClock;
    use gae_types::{SimDuration, UserId};

    fn gate(burst: f64, rate: f64) -> (Arc<Gate>, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        let config = GateConfig {
            bucket: TokenBucketConfig::new(burst, rate),
            ..GateConfig::default()
        };
        (Gate::new(config, clock.clone()), clock)
    }

    #[test]
    fn admit_draws_from_principal_bucket() {
        let (gate, _) = gate(2.0, 0.001);
        let p = Principal::user(UserId::new(1), "cms");
        assert_eq!(gate.admit(&p).unwrap(), GateClass::Production);
        assert_eq!(gate.admit(&p).unwrap(), GateClass::Production);
        match gate.admit(&p) {
            Err(GaeError::RateLimited { retry_after_us }) => assert!(retry_after_us > 0),
            other => panic!("expected RateLimited, got {other:?}"),
        }
        let stats = gate.stats();
        assert_eq!(stats.admitted[GateClass::Production as usize], 2);
        assert_eq!(stats.rate_limited[GateClass::Production as usize], 1);
    }

    #[test]
    fn class_resolver_reclassifies() {
        let (gate, _) = gate(10.0, 10.0);
        let broke = Principal::user(UserId::new(7), "cms");
        let rich = Principal::user(UserId::new(8), "cms");
        gate.set_class_resolver(move |p: &Principal| {
            if p.user == Some(UserId::new(7)) {
                GateClass::Scavenger
            } else {
                GateClass::Interactive
            }
        });
        assert_eq!(gate.admit(&broke).unwrap(), GateClass::Scavenger);
        assert_eq!(gate.admit(&rich).unwrap(), GateClass::Interactive);
    }

    #[test]
    fn breaker_round_trip_with_typed_fault() {
        let clock = Arc::new(ManualClock::new());
        let config = GateConfig {
            breaker: BreakerConfig::new(2, SimDuration::from_secs(10)),
            ..GateConfig::default()
        };
        let gate = Gate::new(config, clock.clone());
        let key = "exec-site-1";
        assert!(gate.breaker_check(key, GateClass::Production).is_ok());
        gate.breaker_record(key, false);
        gate.breaker_record(key, false);
        assert_eq!(gate.breaker_state(key), BreakerState::Open);
        match gate.breaker_check(key, GateClass::Production) {
            Err(GaeError::Overloaded {
                retry_after_us,
                shed_class,
            }) => {
                assert!(retry_after_us > 0);
                assert_eq!(shed_class, key);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(
            gate.stats().breaker_denied[GateClass::Production as usize],
            1
        );
        // Cooldown elapses: probe allowed, success closes.
        clock.advance_micros(10_000_000);
        assert!(gate.breaker_check(key, GateClass::Production).is_ok());
        gate.breaker_record(key, true);
        assert_eq!(gate.breaker_state(key), BreakerState::Closed);
    }
}
