//! `gae-gate` — admission control and overload protection for the
//! GAE RPC front door.
//!
//! The paper's Grid Analysis Environment fronts its resource-management
//! services with an XML-RPC facade that "hundreds of physicists" hit
//! concurrently (§3, Figure 6). This crate is the missing guard rail
//! between that crowd and the scheduler:
//!
//! * [`RateLimiter`] — per-principal token buckets keyed by
//!   (user, VO), with [`GateClass`] priority classes derived from the
//!   Quota & Accounting Service by the wiring layer;
//! * [`AdmissionQueue`] — a bounded, priority-aware queue with
//!   deadline expiry that replaces the unbounded worker hand-off;
//!   when full, the lowest class present is shed first with a typed
//!   fault carrying a machine-readable retry-after;
//! * [`BreakerBank`] — a circuit breaker per downstream service
//!   (execution sites, scheduler) that trips on consecutive failures
//!   and half-opens on a single probe;
//! * [`GateMetrics`] — admitted/shed/expired/queue-depth/breaker
//!   counters per class, snapshotted each tick for MonALISA
//!   publication and queryable over the existing RPC facade.
//!
//! Everything reads time through an injected [`gae_types::Clock`] —
//! never the wall clock — so every policy decision is a pure function of
//! (configuration, arrival sequence) and therefore property-testable
//! and replayable, in the same spirit as the crash-injection harness
//! in `gae-durable`.

#![warn(missing_docs)]

pub mod breaker;
pub mod bucket;
pub mod gate;
pub mod limiter;
pub mod metrics;
pub mod queue;

pub use breaker::{BreakerBank, BreakerConfig, BreakerState, CircuitBreaker};
pub use bucket::{TokenBucket, TokenBucketConfig};
pub use gae_types::{ManualClock, WallClock};
pub use gate::{ClassResolver, Gate, GateConfig};
pub use limiter::{GateClass, Principal, RateLimiter};
pub use metrics::{ClassCounters, GateMetrics, GateStats};
pub use queue::{AdmissionQueue, Popped, QueueConfig, RejectReason, Rejected};
