//! The estimator-backed site-information provider the scheduler
//! decides over — the glue of §6.1 steps a–d: ask each site's runtime
//! estimator, read MonALISA's load table, quote the cost.

use crate::estimator::queue_time::queue_time_for_new;
use crate::estimator::EstimatorService;
use crate::grid::Grid;
use crate::quota::{price, QuotaService};
use gae_sched::{Bid, SiteEstimate, SiteInfoProvider};
use gae_trace::TaskMeta;
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

    /// What a bid needs of a site whatever the task, but its load.
    fn site_facts(&self, site: SiteId, load: f64) -> SiteFacts {
        SiteFacts {
            site,
            speed_factor: self.grid.description(site).ok().map(|d| d.speed_factor),
            load,
            cpu_rate: self.quota.cpu_rate(site).ok(),
        }
    }

    /// One bid. The runtime is the site's estimate, or — if its history
    /// cannot produce one (empty history: the §6.1a "availability of
    /// the runtime estimator" caveat) — the user's requested CPU hours,
    /// either way expressed as wall time on the site's CPUs.
    fn bid(
        &self,
        at: &SiteFacts,
        task: &TaskFacts,
        estimated: Option<SimDuration>,
        queue_time: SimDuration,
    ) -> GaeResult<SiteEstimate> {
        let base = estimated.unwrap_or(task.requested);
        let runtime = at.speed_factor.map_or(base, |speed| base.div_f64(speed));
        let transfer_time = self
            .estimators
            .estimate_transfer(&task.stageable, at.site)?;
        Ok(SiteEstimate {
            runtime,
            queue_time,
            transfer_time,
            load: at.load,
            cost: at
                .cpu_rate
                .map_or(f64::MAX / 4.0, |rate| price(rate, runtime)),
        })
    }
}

/// The task-independent inputs of a [`SiteEstimate`].
struct SiteFacts {
    site: SiteId,
    /// `None` for a site the grid does not describe.
    speed_factor: Option<f64>,
    /// MonALISA's load for the site, or the execution service's own
    /// reading before the first sample is published.
    load: f64,
    /// `None` for a site without charge rates (it quotes as dear as
    /// can be).
    cpu_rate: Option<f64>,
}

/// The site-independent inputs of a [`SiteEstimate`].
struct TaskFacts {
    /// The user's requested CPU hours as a runtime.
    requested: SimDuration,
    /// Inputs with a replica somewhere; a file with none is produced
    /// by the job itself and costs nothing to stage.
    stageable: Vec<FileRef>,
}

impl TaskFacts {
    fn of(task: &TaskSpec) -> TaskFacts {
        TaskFacts {
            requested: SimDuration::from_secs_f64(task.requested_cpu_hours * 3600.0),
            stageable: (task.input_files.iter())
                .filter(|f| !f.replicas.is_empty())
                .cloned()
                .collect(),
        }
    }
}

impl SiteInfoProvider for GridSiteInfo {
    fn sites(&self) -> Vec<SiteId> {
        self.grid.site_ids()
    }

    fn is_alive(&self, site: SiteId) -> bool {
        self.grid.is_alive(site)
    }

    fn estimate(&self, site: SiteId, task: &TaskSpec) -> GaeResult<SiteEstimate> {
        let estimated = self
            .estimators
            .estimate_runtime(site, task)
            .ok()
            .map(|e| e.runtime);
        let queue_time = self.estimators.estimate_queue_time_for_spec(site, task)?;
        let load = self.grid.monitor().site_load(site).unwrap_or_else(|| {
            let exec = self.grid.exec(site);
            exec.map_or(0.0, |e| e.lock().current_load())
        });
        let at = self.site_facts(site, load);
        self.bid(&at, &TaskFacts::of(task), estimated, queue_time)
    }

    /// One pass over the grid. Per task: one [`TaskMeta`] and one
    /// `TaskFacts` for the whole plan. Per site: MonALISA's load,
    /// then one exec lock for liveness, the fallback load and one
    /// backlog read per distinct priority of the plan (lock order
    /// monitor → exec; no estimator or memo lock is taken under it),
    /// then one quota read and one `EstimatorService::estimate_metas`.
    fn score_plan(
        &self,
        tasks: &[&TaskSpec],
        admissible: &dyn Fn(SiteId) -> bool,
    ) -> Vec<Vec<Bid>> {
        let metas: Vec<TaskMeta> = tasks.iter().map(|t| TaskMeta::from_spec(t)).collect();
        let facts: Vec<TaskFacts> = tasks.iter().map(|t| TaskFacts::of(t)).collect();
        let mut priorities: Vec<Priority> = tasks.iter().map(|t| t.priority).collect();
        priorities.sort_unstable();
        priorities.dedup();
        let level: Vec<usize> = (tasks.iter())
            .map(|t| priorities.partition_point(|p| *p < t.priority))
            .collect();
        let mut queue_times: Vec<SimDuration> = Vec::with_capacity(priorities.len());
        let mut runtimes = Vec::with_capacity(tasks.len());
        let mut bids = vec![Vec::new(); tasks.len()];
        for (site, exec) in self.grid.sites() {
            if !admissible(site) {
                continue;
            }
            let published = self.grid.monitor().site_load(site);
            let load = {
                let exec = exec.lock();
                if !exec.is_alive() {
                    continue;
                }
                queue_times.clear();
                queue_times.extend(priorities.iter().map(|p| queue_time_for_new(&exec, *p)));
                published.unwrap_or_else(|| exec.current_load())
            };
            let at = self.site_facts(site, load);
            self.estimators.estimate_metas(site, &metas, &mut runtimes);
            for (i, bids) in bids.iter_mut().enumerate() {
                if let Ok(estimate) = self.bid(&at, &facts[i], runtimes[i], queue_times[level[i]]) {
                    bids.push((site, estimate));
                }
            }
        }
        bids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{GridBuilder, ServiceStack};
    use gae_types::{AbstractPlan, JobId, JobSpec, SimTime, SiteDescription, TaskId, UserId};

    /// The default [`SiteInfoProvider::score_plan`] — `sites()`,
    /// `is_alive()`, `estimate()` site by site, task by task — over a
    /// provider: the oracle its one-pass override must equal.
    struct PerTask<'a>(&'a GridSiteInfo);

    impl SiteInfoProvider for PerTask<'_> {
        fn sites(&self) -> Vec<SiteId> {
            self.0.sites()
        }
        fn is_alive(&self, site: SiteId) -> bool {
            self.0.is_alive(site)
        }
        fn estimate(&self, site: SiteId, task: &TaskSpec) -> GaeResult<SiteEstimate> {
            self.0.estimate(site, task)
        }
    }

    fn info(stack: &ServiceStack, estimators: &Arc<EstimatorService>) -> GridSiteInfo {
        GridSiteInfo::new(stack.grid.clone(), estimators.clone(), stack.quota.clone())
    }

    /// Sites 1 and 2 have run short `reco` tasks of user 1 to
    /// completion, so estimates there come from history; sites 3 and 4
    /// hold long queued work of three priorities and no history; site
    /// 5 is down. Two calls build two equal stacks.
    fn loaded_stack() -> Arc<ServiceStack> {
        let grid = GridBuilder::new()
            .site_with_load(SiteDescription::new(SiteId::new(1), "busy", 1, 1), 1.5)
            .site(SiteDescription::new(SiteId::new(2), "free", 1, 2))
            .site(SiteDescription::new(SiteId::new(3), "queued", 1, 1))
            .site_with_load(SiteDescription::new(SiteId::new(4), "loaded", 1, 1), 0.5)
            .site(SiteDescription::new(SiteId::new(5), "down", 1, 1))
            .build();
        let stack = ServiceStack::over(grid);
        let submit = |i: u64, secs: u64, sites: [u64; 2]| {
            let mut job = JobSpec::new(JobId::new(i), "load", UserId::new(1));
            job.add_task(
                TaskSpec::new(TaskId::new(i), format!("t{i}"), "reco")
                    .with_cpu_demand(SimDuration::from_secs(secs))
                    .with_priority(Priority::new((i % 3) as i32)),
            );
            let plan = AbstractPlan::new(job).restricted_to(sites.map(SiteId::new).to_vec());
            stack.submit_plan(&plan).unwrap();
        };
        for i in 1..=8 {
            submit(i, 5 + i, [1, 2]);
        }
        for i in 9..=20 {
            submit(i, 5_000 + 10 * i, [3, 4]);
        }
        stack.run_until(SimTime::from_secs(300));
        stack.grid.exec(SiteId::new(5)).unwrap().lock().fail_site();
        stack
    }

    /// A plan of mixed priorities, demands and inputs; tasks 0, 2 and
    /// 4 share the history's metadata (so repeats hit the memo), task
    /// 3 runs another executable.
    fn plan_tasks() -> Vec<TaskSpec> {
        (0..6u64)
            .map(|i| {
                let exe = if i == 3 { "other" } else { "reco" };
                let mut t = TaskSpec::new(TaskId::new(100 + i), format!("p{i}"), exe)
                    .with_owner(UserId::new(1))
                    .with_priority(Priority::new([1, 0, 1, 2, 0, 1][i as usize]));
                t.requested_cpu_hours = 0.01 * (i + 1) as f64;
                if i % 2 == 1 {
                    t.input_files = vec![
                        FileRef::new(format!("lfn:/in{i}"), 1 << 20)
                            .with_replicas(vec![SiteId::new(1)]),
                        FileRef::new(format!("lfn:/made{i}"), 1 << 20),
                    ];
                }
                t
            })
            .collect()
    }

    /// The one-pass `score_plan` bids what the per-task loop bids, bid
    /// for bid, and moves `memo_stats` by the same deltas — on sites
    /// with and without history, with queued work of several
    /// priorities, a dead site and a site restriction, over a stack's
    /// history and over a hand-fed one.
    #[test]
    fn score_plan_matches_estimate_per_task() {
        let plan_tasks = plan_tasks();
        let tasks: Vec<&TaskSpec> = plan_tasks.iter().collect();
        let restricted = |s: SiteId| s != SiteId::new(4);
        let everywhere = |_: SiteId| true;
        let check = |oracle: &GridSiteInfo, batched: &GridSiteInfo| {
            for admissible in [&restricted as &dyn Fn(SiteId) -> bool, &everywhere] {
                let before = (
                    oracle.estimators.memo_stats(),
                    batched.estimators.memo_stats(),
                );
                let want = PerTask(oracle).score_plan(&tasks, admissible);
                let got = batched.score_plan(&tasks, admissible);
                assert_eq!(got, want);
                let delta = |(h0, m0): (u64, u64), (h1, m1): (u64, u64)| (h1 - h0, m1 - m0);
                let oracle_delta = delta(before.0, oracle.estimators.memo_stats());
                assert_eq!(
                    delta(before.1, batched.estimators.memo_stats()),
                    oracle_delta
                );
                assert!(oracle_delta.0 > 0, "repeat metadata hits the memo");
                // Site 5 is down; site 4 bids only where admissible.
                let bidders = |t: usize| got[t].iter().map(|b| b.0.raw()).collect::<Vec<_>>();
                assert!(!bidders(0).contains(&5));
                assert_eq!(bidders(0).contains(&4), admissible(SiteId::new(4)));
            }
        };
        let (a, b) = (loaded_stack(), loaded_stack());
        let (oracle, batched) = (info(&a, &a.estimators), info(&b, &b.estimators));
        check(&oracle, &batched);
        // History gives sites 1 and 2 their own runtimes, and the
        // backlog at the queued sites depends on priority.
        let bids = batched.score_plan(&tasks, &everywhere);
        let at = |task: usize, site: u64| bids[task].iter().find(|b| b.0.raw() == site).unwrap().1;
        assert_ne!(at(0, 2).runtime, at(0, 3).runtime);
        assert!(at(0, 3).queue_time > SimDuration::ZERO);
        assert_ne!(at(1, 3).queue_time, at(3, 3).queue_time);

        // Another history: fresh estimators over a fresh funnel that
        // holds only three completions of task 0's metadata at sites 1
        // and 2.
        let fresh = || {
            let hist = crate::hist::HistFunnel::new(Default::default(), Default::default());
            let meta = TaskMeta::from_spec(tasks[0]);
            for site in [1, 2] {
                for secs in [40, 45, 50] {
                    hist.ingest(gae_hist::HistRecord {
                        task: 0,
                        site,
                        nodes: meta.nodes as u64,
                        submit_us: 0,
                        start_us: 0,
                        finish_us: 0,
                        runtime_us: secs * 1_000_000,
                        success: true,
                        account: meta.account.clone(),
                        login: meta.login.clone(),
                        executable: meta.executable.clone(),
                        queue: meta.queue.clone(),
                        partition: meta.partition.clone(),
                        job_type: meta.job_type.to_string(),
                    });
                }
            }
            Arc::new(EstimatorService::new(a.grid.clone(), hist))
        };
        check(&info(&a, &fresh()), &info(&a, &fresh()));
        // An unknown site fails the same way on the per-task path.
        assert!(oracle.estimate(SiteId::new(9), tasks[0]).is_err());
    }
}
