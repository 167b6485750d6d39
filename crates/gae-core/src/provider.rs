//! The estimator-backed site-information provider the scheduler
//! decides over — the glue of §6.1 steps a–d: ask each site's runtime
//! estimator, read MonALISA's load table, quote the cost.

use crate::estimator::EstimatorService;
use crate::grid::Grid;
use crate::quota::QuotaService;
use gae_sched::{SiteEstimate, SiteInfoProvider};
use gae_types::{FileRef, GaeResult, Priority, SimDuration, SiteId, TaskSpec};
use std::sync::Arc;

/// [`SiteInfoProvider`] over the live grid.
pub struct GridSiteInfo {
    grid: Arc<Grid>,
    estimators: Arc<EstimatorService>,
    quota: Arc<QuotaService>,
}

impl GridSiteInfo {
    /// Wires the provider.
    pub fn new(
        grid: Arc<Grid>,
        estimators: Arc<EstimatorService>,
        quota: Arc<QuotaService>,
    ) -> Self {
        GridSiteInfo {
            grid,
            estimators,
            quota,
        }
    }

    /// Runtime estimate with the deployment fallback: if the site's
    /// history cannot produce an estimate (empty history — the §6.1a
    /// "availability of the runtime estimator" caveat), fall back to
    /// the user's requested CPU hours scaled by the site's speed.
    fn runtime_estimate(&self, at: &SiteFacts, task: &TaskSpec) -> SimDuration {
        let base = match self.estimators.estimate_runtime(at.site, task) {
            Ok(est) => est.runtime,
            Err(_) => SimDuration::from_secs_f64(task.requested_cpu_hours * 3600.0),
        };
        // Express as wall time on this site's CPUs.
        match at.speed_factor {
            Some(speed) => base.div_f64(speed),
            None => base,
        }
    }

    /// Reads what an estimate needs of a site whatever the task.
    fn site_facts(&self, site: SiteId) -> SiteFacts {
        SiteFacts {
            site,
            speed_factor: self.grid.description(site).ok().map(|d| d.speed_factor),
            load: self.grid.monitor().site_load(site).unwrap_or_else(|| {
                self.grid
                    .exec(site)
                    .map(|e| e.lock().current_load())
                    .unwrap_or(0.0)
            }),
        }
    }
}

/// The task-independent inputs of a [`SiteEstimate`], read once per
/// site of a scheduling decision.
struct SiteFacts {
    site: SiteId,
    /// `None` for a site the grid does not describe.
    speed_factor: Option<f64>,
    /// MonALISA's load for the site, or the execution service's own
    /// reading before the first sample is published.
    load: f64,
}

impl SiteInfoProvider for GridSiteInfo {
    fn sites(&self) -> Vec<SiteId> {
        self.grid.site_ids()
    }

    fn is_alive(&self, site: SiteId) -> bool {
        self.grid.is_alive(site)
    }

    fn estimate(&self, site: SiteId, task: &TaskSpec) -> GaeResult<SiteEstimate> {
        let queue_time = self.estimators.estimate_queue_time_for_spec(site, task);
        self.estimate_given_queue(&self.site_facts(site), task, queue_time)
    }

    /// The queue wait depends on the task only through its priority:
    /// one backlog read per distinct priority in the plan. The site's
    /// load and speed do not depend on the task at all: one read each.
    fn estimate_all(&self, site: SiteId, tasks: &[&TaskSpec]) -> Vec<GaeResult<SiteEstimate>> {
        let at = self.site_facts(site);
        let mut scanned: Vec<(Priority, GaeResult<SimDuration>)> = Vec::new();
        tasks
            .iter()
            .map(|task| {
                let queue_time = match scanned.iter().find(|(p, _)| *p == task.priority) {
                    Some((_, queue_time)) => queue_time.clone(),
                    None => {
                        let queue_time = self.estimators.estimate_queue_time_for_spec(site, task);
                        scanned.push((task.priority, queue_time.clone()));
                        queue_time
                    }
                };
                self.estimate_given_queue(&at, task, queue_time)
            })
            .collect()
    }
}

impl GridSiteInfo {
    /// Everything of an estimate that does depend on the task, but
    /// the queue read.
    fn estimate_given_queue(
        &self,
        at: &SiteFacts,
        task: &TaskSpec,
        queue_time: GaeResult<SimDuration>,
    ) -> GaeResult<SiteEstimate> {
        let site = at.site;
        let runtime = self.runtime_estimate(at, task);
        let queue_time = queue_time?;
        // Files with no replica anywhere are produced by the job
        // itself; they cost nothing to stage.
        let stageable: Vec<FileRef> = task
            .input_files
            .iter()
            .filter(|f| !f.replicas.is_empty())
            .cloned()
            .collect();
        let transfer_time = self.estimators.estimate_transfer(&stageable, site)?;
        let cost = self.quota.quote(site, runtime).unwrap_or(f64::MAX / 4.0);
        Ok(SiteEstimate {
            runtime,
            queue_time,
            transfer_time,
            load: at.load,
            cost,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{GridBuilder, ServiceStack};
    use gae_types::{JobId, JobSpec, SiteDescription, TaskId, UserId};

    /// A plan's batched estimates equal the task-by-task ones when the
    /// sites hold running and queued work of several priorities and
    /// the plan's tasks differ in priority, demand and inputs.
    #[test]
    fn estimate_all_matches_estimate_per_task() {
        let grid = GridBuilder::new()
            .site_with_load(SiteDescription::new(SiteId::new(1), "busy", 1, 1), 1.5)
            .site(SiteDescription::new(SiteId::new(2), "free", 1, 2))
            .build();
        let stack = ServiceStack::over(grid);
        for i in 1..=12u64 {
            let mut job = JobSpec::new(JobId::new(i), "load", UserId::new(1));
            job.add_task(
                TaskSpec::new(TaskId::new(i), format!("t{i}"), "reco")
                    .with_cpu_demand(SimDuration::from_secs(50 + 10 * i))
                    .with_priority(Priority::new((i % 3) as i32)),
            );
            stack.submit_job(job).unwrap();
        }
        stack.run_until(gae_types::SimTime::from_secs(30));

        let info = GridSiteInfo::new(
            stack.grid.clone(),
            stack.estimators.clone(),
            stack.quota.clone(),
        );
        let plan_tasks: Vec<TaskSpec> = (0..5u64)
            .map(|i| {
                let mut t = TaskSpec::new(TaskId::new(100 + i), format!("p{i}"), "reco")
                    .with_cpu_demand(SimDuration::from_secs(40 * (i + 1)))
                    .with_priority(Priority::new([1, 0, 1, 2, 0][i as usize]));
                if i % 2 == 0 {
                    t.input_files = vec![FileRef::new(format!("lfn:/in{i}"), 1 << 20)
                        .with_replicas(vec![SiteId::new(1)])];
                }
                t
            })
            .collect();
        let tasks: Vec<&TaskSpec> = plan_tasks.iter().collect();
        for site in info.sites() {
            let one_by_one: Vec<_> = tasks.iter().map(|t| info.estimate(site, t)).collect();
            assert_eq!(info.estimate_all(site, &tasks), one_by_one);
            // The backlog is real and priority-dependent, so a shared
            // scan across priorities would show.
            let q = |i: usize| one_by_one[i].as_ref().unwrap().queue_time;
            assert!(q(0) > SimDuration::ZERO);
            assert_eq!(q(0), q(2));
        }
        let distinct = |site| {
            let all = info.estimate_all(site, &tasks);
            all[1].as_ref().unwrap().queue_time != all[3].as_ref().unwrap().queue_time
        };
        assert!(info.sites().into_iter().any(distinct));
        // An unknown site fails every task the same way on both paths.
        let nowhere = SiteId::new(9);
        assert!(info
            .estimate_all(nowhere, &tasks)
            .iter()
            .all(Result::is_err));
        assert!(info.estimate(nowhere, tasks[0]).is_err());
    }
}
