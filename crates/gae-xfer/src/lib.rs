//! gae-xfer: the managed data-movement subsystem.
//!
//! The paper's setting is a data grid where "large amounts of data
//! ... have to be stored and replicated to several geographically
//! distributed sites" (§2). This crate owns every byte moved between
//! sites:
//!
//! - **Per-link fair-share bandwidth.** Concurrent transfers draining
//!   over the same directed link split its capacity equally. Each busy
//!   link is anchored at its last membership change, and a transfer's
//!   bytes left and arrival are closed-form reads from that anchor; a
//!   transfer starting or finishing re-anchors the link, so a second
//!   transfer on a link roughly doubles the first one's remaining
//!   drain time.
//! - **Bounded retry with exponential backoff.** Link faults are
//!   injectable ([`XferScheduler::fail_link`]); a transfer that hits
//!   a dead link backs off `base · 2^(attempt-1)` and re-picks the
//!   best source replica before each retry. Exhausting
//!   [`RetryPolicy::max_attempts`] yields a typed
//!   `GaeError::Transfer`.
//! - **Per-site storage budgets.** Replicas are pinned while a task
//!   references them; unpinned replicas are evicted in LRU order
//!   when a landing file needs room. The last replica of a file is
//!   never evicted. A landing that cannot be admitted fails typed.
//! - **Input staging pipeline.** [`XferScheduler::plan_stage`]
//!   builds a sequential transfer chain for a task's missing inputs;
//!   the owning grid keeps the task `Pending` until the chain's
//!   *contended* completion, correcting the release instant with
//!   [`XferUpdate::Restage`] events as link load changes.
//!
//! The scheduler is a deterministic fluid model: all state lives in
//! ordered containers, events are fired in `(time, transfer-id)`
//! order, and no wall clock or RNG is consulted — the same workload
//! produces byte-identical schedules run to run.

#![warn(missing_docs)]

mod sched;
mod storage;

pub use sched::{EventSink, JournalSink, XferScheduler};

use gae_types::{SimDuration, SimTime, SiteId};
use std::collections::BTreeMap;

/// Retry policy applied to each transfer's link-level attempts.
#[derive(Clone, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total activation attempts allowed (first try + retries).
    pub max_attempts: u32,
    /// Backoff before retry `n` is `backoff_base · 2^(n-1)`.
    pub backoff_base: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            backoff_base: SimDuration::from_secs(5),
        }
    }
}

/// Configuration for the transfer scheduler.
#[derive(Clone, Debug, Default)]
pub struct XferConfig {
    /// Completed-transfer history ring capacity (0 keeps nothing).
    pub history_capacity: usize,
    /// Per-transfer retry policy.
    pub retry: RetryPolicy,
    /// Per-site storage budgets in bytes; absent sites are unbounded.
    pub site_budgets: BTreeMap<SiteId, u64>,
}

impl XferConfig {
    /// Defaults: 1024-entry history, 5 attempts with 5 s base
    /// backoff, unbounded storage everywhere.
    pub fn with_defaults() -> Self {
        XferConfig {
            history_capacity: 1024,
            retry: RetryPolicy::default(),
            site_budgets: BTreeMap::new(),
        }
    }

    /// Builder-style storage budget for one site.
    pub fn with_budget(mut self, site: SiteId, bytes: u64) -> Self {
        self.site_budgets.insert(site, bytes);
        self
    }
}

/// One completed (or, for the in-flight view, projected) transfer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransferRecord {
    /// Logical file name.
    pub lfn: String,
    /// Source site.
    pub from: SiteId,
    /// Destination site.
    pub to: SiteId,
    /// When the transfer first started draining.
    pub started: SimTime,
    /// When it landed (projected arrival for in-flight records).
    pub arrives: SimTime,
    /// Activation attempts consumed so far.
    pub attempts: u32,
}

/// Monotonic transfer-plane counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct XferCounters {
    /// Transfers that landed.
    pub completed: u64,
    /// Transfers that failed permanently.
    pub failed: u64,
    /// Retry backoffs entered.
    pub retried: u64,
    /// Replicas evicted to make room.
    pub evicted: u64,
    /// History records dropped off the bounded ring.
    pub history_dropped: u64,
}

/// Lifecycle events the composition root can observe (obs spans and
/// per-link histograms hang off these). Every event carries its own
/// instant; the observer must not read the grid clock.
#[derive(Clone, Debug)]
pub enum XferEvent {
    /// A transfer started draining for the first time.
    Started {
        /// Transfer id (stable, sequential).
        id: u64,
        /// Logical file name.
        lfn: String,
        /// Source site.
        from: SiteId,
        /// Destination site.
        to: SiteId,
        /// When.
        at: SimTime,
    },
    /// A transfer hit a dead link and entered backoff.
    Retried {
        /// Transfer id.
        id: u64,
        /// Attempt number that failed.
        attempt: u32,
        /// When the backoff expires.
        until: SimTime,
        /// When.
        at: SimTime,
    },
    /// A transfer switched to a different source replica.
    Resourced {
        /// Transfer id.
        id: u64,
        /// The new source site.
        from: SiteId,
        /// When.
        at: SimTime,
    },
    /// A transfer landed; the replica is now visible at `to`.
    Landed {
        /// Transfer id.
        id: u64,
        /// Logical file name.
        lfn: String,
        /// Source site.
        from: SiteId,
        /// Destination site.
        to: SiteId,
        /// When it was requested.
        requested: SimTime,
        /// When it landed.
        at: SimTime,
    },
    /// A transfer failed permanently.
    Failed {
        /// Transfer id.
        id: u64,
        /// Logical file name.
        lfn: String,
        /// Destination site.
        to: SiteId,
        /// Why.
        reason: String,
        /// When.
        at: SimTime,
    },
    /// An unpinned replica was evicted to make room.
    Evicted {
        /// Logical file name.
        lfn: String,
        /// Site it was evicted from.
        site: SiteId,
        /// When.
        at: SimTime,
    },
}

/// Durable journal operations. The composition root WAL-logs these
/// via gae-durable; replaying them through
/// [`XferScheduler::apply_journal`] reconstructs the replica map and
/// the outstanding-replication set exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalOp {
    /// A file was (re-)registered with the given replica set.
    Register {
        /// Logical file name.
        lfn: String,
        /// Size in bytes.
        size: u64,
        /// Replica sites.
        replicas: Vec<SiteId>,
    },
    /// An explicit replication to `to` was requested.
    Requested {
        /// Logical file name.
        lfn: String,
        /// Destination site.
        to: SiteId,
    },
    /// A transfer landed: the replica exists at `to`.
    Landed {
        /// Logical file name.
        lfn: String,
        /// Destination site.
        to: SiteId,
    },
    /// A transfer to `to` failed permanently.
    Failed {
        /// Logical file name.
        lfn: String,
        /// Destination site.
        to: SiteId,
    },
    /// A replica was explicitly deleted.
    Deleted {
        /// Logical file name.
        lfn: String,
        /// Site the replica was removed from.
        site: SiteId,
    },
    /// A replica was evicted by the storage manager.
    Evicted {
        /// Logical file name.
        lfn: String,
        /// Site the replica was evicted from.
        site: SiteId,
    },
}

impl JournalOp {
    /// The journal record tag this op serializes under — the single
    /// source of truth shared by the WAL codec and the replicated
    /// log's mutation language.
    pub fn kind(&self) -> &'static str {
        match self {
            JournalOp::Register { .. } => "register",
            JournalOp::Requested { .. } => "requested",
            JournalOp::Landed { .. } => "landed",
            JournalOp::Failed { .. } => "failed",
            JournalOp::Deleted { .. } => "deleted",
            JournalOp::Evicted { .. } => "evicted",
        }
    }
}

/// Side effects the owning grid must apply after any scheduler call
/// (drained via [`XferScheduler::drain_updates`]): staging
/// completions/corrections and staging failures addressed to the
/// execution services.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum XferUpdate {
    /// Correct (or finalize) a pending task's staging-release
    /// instant.
    Restage {
        /// Site the task is pending at.
        site: SiteId,
        /// Raw CondorId of the task.
        condor: u64,
        /// New release instant.
        until: SimTime,
    },
    /// The task's staging chain failed permanently; the task must be
    /// failed so Backup & Recovery can reschedule it.
    StagingFailed {
        /// Site the task is pending at.
        site: SiteId,
        /// Raw CondorId of the task.
        condor: u64,
        /// Why.
        reason: String,
    },
}

/// Live link-state view the TransferEstimator reads: dead links feed
/// its unreachable path, active-transfer counts degrade its
/// bandwidth estimates to the contended fair share.
pub trait LinkView: Send + Sync {
    /// True when the directed link is currently faulted.
    fn blocked(&self, from: SiteId, to: SiteId) -> bool;
    /// Number of transfers currently draining over the directed
    /// link.
    fn active(&self, from: SiteId, to: SiteId) -> usize;
}

/// Point-in-time metrics snapshot published to MonALISA under entity
/// `"xfer"`.
#[derive(Clone, Debug, Default)]
pub struct XferMetrics {
    /// Monotonic counters.
    pub counters: XferCounters,
    /// Transfers currently draining or in their latency tail.
    pub in_flight: usize,
    /// Transfers waiting (chained behind another or in backoff).
    pub waiting: usize,
    /// Active drains per directed link, link-sorted.
    pub links: Vec<(SiteId, SiteId, usize)>,
    /// Per-site `(site, used_bytes, pinned_replicas)`, site-sorted.
    pub sites: Vec<(SiteId, u64, u64)>,
}

/// Snapshot-restorable scheduler state: the replica map, the
/// outstanding replication requests, and the monotonic counters.
/// Transfer progress is intentionally *not* part of it — on recovery
/// outstanding replications restart from zero bytes (exactly once,
/// via [`XferScheduler::rearm_pending`]) and staged inputs re-arm
/// through task resubmission.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct XferExport {
    /// `(lfn, size_bytes, replica_sites)`, lfn-sorted.
    pub files: Vec<(String, u64, Vec<SiteId>)>,
    /// Outstanding `(lfn, to)` replication requests.
    pub pending: Vec<(String, SiteId)>,
    /// Monotonic counters at snapshot time.
    pub counters: XferCounters,
}
