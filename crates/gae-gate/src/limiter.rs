//! Per-principal rate limiting with priority classes.
//!
//! The paper puts a Session Manager and a Quota & Accounting Service
//! between "hundreds of physicists" and the scheduler (§4); this
//! module is the enforcement half of that tier. Every request is
//! attributed to a [`Principal`] — the (user, virtual organisation)
//! pair grids account by — and drawn against that principal's token
//! bucket. The principal's [`GateClass`] decides who is shed first
//! under overload; the wiring layer derives it from the Quota &
//! Accounting Service (quota-exhausted principals drop to
//! [`GateClass::Scavenger`]).

use crate::bucket::{TokenBucket, TokenBucketConfig};
use gae_types::Clock;
use gae_types::{SimDuration, SimTime, UserId};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt;

/// Priority class of a request. Lower value = higher priority; under
/// overload the gate sheds the *highest* value present first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum GateClass {
    /// A human waiting at a console (steering commands, monitors).
    Interactive = 0,
    /// Normal production analysis traffic.
    #[default]
    Production = 1,
    /// Quota-exhausted or best-effort traffic: first to be shed.
    Scavenger = 2,
}

impl GateClass {
    /// Every class, highest priority first.
    pub const ALL: [GateClass; 3] = [
        GateClass::Interactive,
        GateClass::Production,
        GateClass::Scavenger,
    ];

    /// Stable lower-case name (used in fault strings and metric keys).
    pub fn name(self) -> &'static str {
        match self {
            GateClass::Interactive => "interactive",
            GateClass::Production => "production",
            GateClass::Scavenger => "scavenger",
        }
    }
}

impl fmt::Display for GateClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Who a request is billed to: the (user, VO) pair. Anonymous
/// traffic (no session) shares one bucket per VO.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Principal {
    /// The authenticated user, if any.
    pub user: Option<UserId>,
    /// The virtual organisation the user belongs to.
    pub vo: String,
}

impl Principal {
    /// An authenticated principal.
    pub fn user(user: UserId, vo: impl Into<String>) -> Self {
        Principal {
            user: Some(user),
            vo: vo.into(),
        }
    }

    /// The shared anonymous principal of a VO.
    pub fn anonymous(vo: impl Into<String>) -> Self {
        Principal {
            user: None,
            vo: vo.into(),
        }
    }
}

impl fmt::Display for Principal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.user {
            Some(u) => write!(f, "{u}@{}", self.vo),
            None => write!(f, "anonymous@{}", self.vo),
        }
    }
}

/// Per-principal token buckets over one shared configuration.
pub struct RateLimiter {
    config: TokenBucketConfig,
    buckets: Mutex<BTreeMap<Principal, TokenBucket>>,
}

impl RateLimiter {
    /// A limiter handing every new principal a fresh full bucket.
    pub fn new(config: TokenBucketConfig) -> Self {
        RateLimiter {
            config,
            buckets: Mutex::new(BTreeMap::new()),
        }
    }

    /// The shared bucket configuration.
    pub fn config(&self) -> TokenBucketConfig {
        self.config
    }

    /// Draws one token from `principal`'s bucket at `now`.
    pub fn admit_at(&self, principal: &Principal, now: SimTime) -> Result<(), SimDuration> {
        let mut buckets = self.buckets.lock();
        let bucket = buckets
            .entry(principal.clone())
            .or_insert_with(|| TokenBucket::new(self.config, now));
        bucket.try_take(now)
    }

    /// Draws one token on the given clock.
    pub fn admit(&self, principal: &Principal, clock: &dyn Clock) -> Result<(), SimDuration> {
        self.admit_at(principal, clock.now())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_order_is_shed_order() {
        assert!(GateClass::Interactive < GateClass::Production);
        assert!(GateClass::Production < GateClass::Scavenger);
        assert_eq!(GateClass::Scavenger.name(), "scavenger");
    }

    #[test]
    fn principals_get_independent_buckets() {
        let limiter = RateLimiter::new(TokenBucketConfig::new(1.0, 0.001));
        let alice = Principal::user(UserId::new(1), "cms");
        let bob = Principal::user(UserId::new(2), "cms");
        assert!(limiter.admit_at(&alice, SimTime::ZERO).is_ok());
        assert!(limiter.admit_at(&alice, SimTime::ZERO).is_err());
        // Alice exhausting her bucket does not touch Bob's.
        assert!(limiter.admit_at(&bob, SimTime::ZERO).is_ok());
    }

    #[test]
    fn same_user_different_vo_is_a_different_principal() {
        let limiter = RateLimiter::new(TokenBucketConfig::new(1.0, 0.001));
        let cms = Principal::user(UserId::new(1), "cms");
        let atlas = Principal::user(UserId::new(1), "atlas");
        assert!(limiter.admit_at(&cms, SimTime::ZERO).is_ok());
        assert!(limiter.admit_at(&atlas, SimTime::ZERO).is_ok());
    }

    #[test]
    fn retry_after_is_reported() {
        let limiter = RateLimiter::new(TokenBucketConfig::new(1.0, 2.0));
        let p = Principal::anonymous("cms");
        assert!(limiter.admit_at(&p, SimTime::ZERO).is_ok());
        let retry = limiter.admit_at(&p, SimTime::ZERO).unwrap_err();
        assert_eq!(retry, SimDuration::from_millis(500));
    }
}
