//! The information surface the scheduler decides over.

use gae_types::{GaeResult, SimDuration, SiteId, TaskSpec};
use parking_lot::RwLock;
use std::collections::HashMap;

/// Everything the scheduler learns about running one task at one site.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SiteEstimate {
    /// Estimated runtime on a free CPU at the site (§6.1 steps a–c).
    pub runtime: SimDuration,
    /// Estimated time in the site queue before starting (§6.2).
    pub queue_time: SimDuration,
    /// Estimated input staging time (§6.3).
    pub transfer_time: SimDuration,
    /// Current external CPU load at the site (MonALISA, §6.1 step d).
    pub load: f64,
    /// Monetary cost the Quota and Accounting Service would charge.
    pub cost: f64,
}

impl SiteEstimate {
    /// Expected completion time: queue wait, staging, and the runtime
    /// stretched by the current load (processor sharing: a load of
    /// `L` competing units leaves the task `1/(1+L)` of a CPU).
    /// Saturates at [`SimDuration`]'s maximum: a runtime taken from a
    /// huge requested CPU time must score as the slowest bid, not wrap
    /// round to the fastest.
    pub fn expected_completion(&self) -> SimDuration {
        self.queue_time
            .saturating_add(self.transfer_time)
            .saturating_add(self.runtime.mul_f64(1.0 + self.load.max(0.0)))
    }
}

/// One site's bid for one task.
pub type Bid = (SiteId, SiteEstimate);

/// Source of per-site estimates and liveness.
///
/// `gae-core` implements this over the real estimator services; unit
/// tests and examples can use [`StaticSiteInfo`].
pub trait SiteInfoProvider: Send + Sync {
    /// Sites currently registered with the scheduler.
    fn sites(&self) -> Vec<SiteId>;

    /// Whether a site's execution service answers (Backup & Recovery
    /// feeds this).
    fn is_alive(&self, site: SiteId) -> bool;

    /// Full estimate for running `task` at `site`.
    fn estimate(&self, site: SiteId, task: &TaskSpec) -> GaeResult<SiteEstimate>;

    /// The bids for every task of one plan, in `tasks` order: one per
    /// site, in [`sites`](Self::sites) order, that `admissible` accepts,
    /// that is alive and whose [`estimate`](Self::estimate) succeeds (a
    /// site without a runtime estimator simply doesn't bid, §6.1a). A
    /// site's estimates do not depend on where the plan's other tasks
    /// go, so a provider whose estimate has task-independent parts
    /// (liveness, load, a queue scan) overrides this to read each site
    /// once per plan; this default is the oracle it must equal.
    fn score_plan(
        &self,
        tasks: &[&TaskSpec],
        admissible: &dyn Fn(SiteId) -> bool,
    ) -> Vec<Vec<Bid>> {
        let mut bids = vec![Vec::new(); tasks.len()];
        for site in self.sites() {
            if !admissible(site) || !self.is_alive(site) {
                continue;
            }
            for (bids, task) in bids.iter_mut().zip(tasks) {
                if let Ok(estimate) = self.estimate(site, task) {
                    bids.push((site, estimate));
                }
            }
        }
        bids
    }
}

/// A fixed estimate table (tests, examples, what-if studies).
pub struct StaticSiteInfo {
    estimates: RwLock<HashMap<SiteId, SiteEstimate>>,
    dead: RwLock<Vec<SiteId>>,
}

impl StaticSiteInfo {
    /// Creates an empty table.
    pub fn new() -> Self {
        StaticSiteInfo {
            estimates: RwLock::new(HashMap::new()),
            dead: RwLock::new(Vec::new()),
        }
    }

    /// Sets the estimate returned for a site (same for every task).
    pub fn set(&self, site: SiteId, estimate: SiteEstimate) {
        self.estimates.write().insert(site, estimate);
    }

    /// Marks a site dead or alive.
    pub fn set_alive(&self, site: SiteId, alive: bool) {
        let mut dead = self.dead.write();
        if alive {
            dead.retain(|s| *s != site);
        } else if !dead.contains(&site) {
            dead.push(site);
        }
    }
}

impl Default for StaticSiteInfo {
    fn default() -> Self {
        Self::new()
    }
}

impl SiteInfoProvider for StaticSiteInfo {
    fn sites(&self) -> Vec<SiteId> {
        let mut sites: Vec<SiteId> = self.estimates.read().keys().copied().collect();
        sites.sort();
        sites
    }

    fn is_alive(&self, site: SiteId) -> bool {
        !self.dead.read().contains(&site)
    }

    fn estimate(&self, site: SiteId, _task: &TaskSpec) -> GaeResult<SiteEstimate> {
        self.estimates
            .read()
            .get(&site)
            .copied()
            .ok_or_else(|| gae_types::GaeError::NotFound(format!("estimate for {site}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gae_types::TaskId;

    fn est(runtime: u64, queue: u64, transfer: u64, load: f64) -> SiteEstimate {
        SiteEstimate {
            runtime: SimDuration::from_secs(runtime),
            queue_time: SimDuration::from_secs(queue),
            transfer_time: SimDuration::from_secs(transfer),
            load,
            cost: 1.0,
        }
    }

    #[test]
    fn expected_completion_combines_terms() {
        let e = est(100, 20, 5, 1.0);
        // 20 + 5 + 100 * 2
        assert_eq!(e.expected_completion(), SimDuration::from_secs(225));
        let free = est(100, 0, 0, 0.0);
        assert_eq!(free.expected_completion(), SimDuration::from_secs(100));
        // Negative load (bad monitor data) clamps to zero.
        let weird = SiteEstimate { load: -3.0, ..free };
        assert_eq!(weird.expected_completion(), SimDuration::from_secs(100));
        // A saturated runtime stays the slowest bid behind a queue.
        let huge = SiteEstimate {
            runtime: SimDuration::from_secs_f64(1e300),
            ..est(0, 20, 5, 1.0)
        };
        assert_eq!(huge.expected_completion(), SimDuration::MAX);
    }

    #[test]
    fn static_table_roundtrip() {
        let info = StaticSiteInfo::new();
        info.set(SiteId::new(1), est(100, 0, 0, 0.0));
        info.set(SiteId::new(2), est(50, 0, 0, 0.0));
        assert_eq!(info.sites(), vec![SiteId::new(1), SiteId::new(2)]);
        let task = TaskSpec::new(TaskId::new(1), "t", "x");
        assert_eq!(
            info.estimate(SiteId::new(2), &task).unwrap().runtime,
            SimDuration::from_secs(50)
        );
        assert!(info.estimate(SiteId::new(3), &task).is_err());
    }

    #[test]
    fn liveness_toggles() {
        let info = StaticSiteInfo::new();
        let s = SiteId::new(1);
        assert!(info.is_alive(s));
        info.set_alive(s, false);
        assert!(!info.is_alive(s));
        info.set_alive(s, false); // idempotent
        info.set_alive(s, true);
        assert!(info.is_alive(s));
    }
}
