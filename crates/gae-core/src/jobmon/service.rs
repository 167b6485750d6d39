//! The Job Monitoring Service: the JMManager's routing (§5.3) and
//! the JMExecutable, its XML-RPC facade.

use crate::estimator::EstimatorService;
use crate::grid::{Grid, Plumbing};
use crate::jobmon::db::DbManager;
use crate::jobmon::info::JobMonitoringInfo;
use gae_rpc::{Method, Methods};
use gae_types::{CondorId, GaeResult, JobId, JobStatus, SiteId, TaskId, TaskStatus};
use gae_wire::Value;
use std::sync::Arc;

/// The deployable Job Monitoring Service (Figure 3 assembled): the
/// collector's reads of the grid (`collector.rs`) and the DBManager's
/// repository, routed by the one rule in `newest_incarnation`.
pub struct JobMonitoringService {
    pub(super) grid: Arc<Grid>,
    pub(super) estimators: Arc<EstimatorService>,
    pub(super) db: DbManager,
}

impl JobMonitoringService {
    /// Wires the service over the grid; the DBManager reports into the
    /// stack's hub, funnel and journal.
    pub(crate) fn new(
        grid: Arc<Grid>,
        estimators: Arc<EstimatorService>,
        plumbing: &Plumbing,
    ) -> Self {
        JobMonitoringService {
            grid,
            estimators,
            db: DbManager::new(plumbing),
        }
    }

    /// Full monitoring info for a task whose location the caller does
    /// not hold: resolved across every site by `locate`.
    pub fn job_info(&self, task: TaskId) -> GaeResult<JobMonitoringInfo> {
        match self.live_info(task) {
            Ok(live) => Ok(self.newest_incarnation(live)),
            // Task unknown to every site but we had *some* snapshot:
            // best effort, return it.
            Err(e) => self.db.get(task).ok_or(e),
        }
    }

    /// [`Self::job_info`] for a caller that tracks the task at `(site,
    /// condor)`: one site lock instead of a sweep of the grid. A stale
    /// hint (the execution layer moved the task without telling the
    /// caller) resolves through [`Self::job_info`], so the answer is
    /// the same either way.
    pub fn job_info_at(
        &self,
        task: TaskId,
        site: SiteId,
        condor: CondorId,
    ) -> GaeResult<JobMonitoringInfo> {
        match self.live_info_at(task, site, condor) {
            Some(live) => Ok(self.newest_incarnation(live)),
            None => self.job_info(task),
        }
    }

    /// The JMManager's routing: the DB snapshot answers for settled
    /// tasks, but a task that was resubmitted by Backup & Recovery is
    /// *live again* — a stored terminal snapshot from its previous
    /// incarnation must not shadow it. So: a live execution-service
    /// record always wins; among terminal sources, the newer
    /// incarnation wins. The repository is read only once the record
    /// turns out terminal.
    fn newest_incarnation(&self, live: JobMonitoringInfo) -> JobMonitoringInfo {
        if live.status.is_live() {
            return live;
        }
        match self.db.get(live.task) {
            Some(snap) if snap.submitted_at > live.submitted_at => snap,
            _ => live,
        }
    }

    /// Just the status of one task.
    pub fn task_status(&self, task: TaskId) -> GaeResult<TaskStatus> {
        self.job_info(task).map(|i| i.status)
    }

    /// Info for every known task of a job: tasks with stored
    /// snapshots plus tasks found live on the execution services,
    /// each resolved through [`Self::job_info`], in task-id order.
    pub fn job_tasks(&self, job: JobId) -> Vec<JobMonitoringInfo> {
        let mut task_ids = self.db.job_task_ids(job);
        task_ids.extend(self.live_job_tasks(job));
        task_ids.sort();
        task_ids.dedup();
        task_ids
            .into_iter()
            .filter_map(|t| self.job_info(t).ok())
            .collect()
    }

    /// Aggregate status of a job derived from its tasks' statuses.
    pub fn job_status(&self, job: JobId) -> JobStatus {
        JobStatus::derive(self.job_tasks(job).iter().map(|i| i.status))
    }

    /// All tasks currently live on any execution service, in task-id
    /// order — the "what is my grid doing right now" view.
    pub fn list_active(&self) -> Vec<JobMonitoringInfo> {
        let mut out = Vec::new();
        for (site, exec) in self.grid.sites() {
            let active: Vec<(TaskId, CondorId)> = exec
                .lock()
                .records()
                .filter(|r| {
                    matches!(
                        r.status(),
                        TaskStatus::Queued | TaskStatus::Running | TaskStatus::Suspended
                    )
                })
                .map(|r| (r.spec.id, r.condor))
                .collect();
            out.extend(
                active
                    .into_iter()
                    .filter_map(|(task, condor)| self.job_info_at(task, site, condor).ok()),
            );
        }
        // One entry per task: should a task be active at two sites,
        // the most recently submitted record answers for it (earliest
        // site on a tie), as it does for `job_info`.
        out.sort_by_key(|i| (i.task, std::cmp::Reverse(i.submitted_at)));
        out.dedup_by_key(|i| i.task);
        out
    }

    /// The DBManager: the repository the collector's poll fills (the
    /// stack's journaled machine, and tests).
    pub fn db(&self) -> &DbManager {
        &self.db
    }

    // ---- durability hooks ----

    /// Deterministic export of the whole repository: jobs id-sorted,
    /// tasks in insertion order (snapshot encoding + crash digests).
    pub fn db_snapshot(&self) -> Vec<JobMonitoringInfo> {
        self.db.export()
    }
}

/// The JMExecutable: "serves to forward requests by the Steering
/// Service to the JMManager" (§5.3) — our XML-RPC facade, registered
/// as the `jobmon` service. This is the service Figure 6 benchmarks.
pub struct JobMonitoringRpc {
    service: Arc<JobMonitoringService>,
}

impl JobMonitoringRpc {
    /// Wraps the service for RPC registration.
    pub fn new(service: Arc<JobMonitoringService>) -> Self {
        JobMonitoringRpc { service }
    }
}

impl Methods for JobMonitoringRpc {
    const NAME: &'static str = "jobmon";
    const METHODS: &'static [Method<Self>] = &[
        // The single-task reads (this and the next two) run inline: one
        // short lock per site to locate the task, one record read.
        Method {
            name: "job_status",
            help: "status string of one task",
            inline: true,
            handler: |s, _, p| {
                let task = TaskId::new(p.u64(0, "missing parameter 0")?);
                Ok(Value::from(s.service.task_status(task)?.to_string()))
            },
        },
        Method {
            name: "job_info",
            help: "full monitoring struct of one task",
            inline: true,
            handler: |s, _, p| {
                let task = TaskId::new(p.u64(0, "missing parameter 0")?);
                Ok(s.service.job_info(task)?.to_value())
            },
        },
        Method {
            name: "remaining_time",
            help: "estimated remaining seconds, or nil",
            inline: true,
            handler: |s, _, p| {
                let task = TaskId::new(p.u64(0, "missing parameter 0")?);
                let remaining = s.service.job_info(task)?.remaining_time;
                Ok(remaining.map(|d| d.as_secs_f64()).into())
            },
        },
        // This and the next two walk every record of every site
        // (`live_job_tasks`), so they stay on the pool.
        Method {
            name: "job_tasks",
            help: "monitoring structs of all tasks of a job",
            inline: false,
            handler: |s, _, p| {
                let job = JobId::new(p.u64(0, "missing parameter 0")?);
                let infos = s.service.job_tasks(job);
                Ok(Value::Array(infos.iter().map(|i| i.to_value()).collect()))
            },
        },
        Method {
            name: "job_aggregate_status",
            help: "aggregate job status derived from its tasks",
            inline: false,
            handler: |s, _, p| {
                let job = JobId::new(p.u64(0, "missing parameter 0")?);
                Ok(Value::from(s.service.job_status(job).to_string()))
            },
        },
        Method {
            name: "list_active",
            help: "monitoring structs of every live task on the grid",
            inline: false,
            handler: |s, _, _| {
                let infos = s.service.list_active();
                Ok(Value::Array(infos.iter().map(|i| i.to_value()).collect()))
            },
        },
    ];
}

#[cfg(test)]
mod tests {
    use crate::grid::{GridBuilder, ServiceStack};
    use gae_types::{SimDuration, SimTime, SiteDescription, SiteId, TaskId, TaskSpec};

    /// `newest_incarnation`'s two DB answers, through both reads. Its
    /// third case, a live record winning over an older stored terminal
    /// snapshot, is held by `tests/failure_recovery.rs` and by the
    /// steering oracle in `tests/steering_round.rs`.
    #[test]
    fn a_newer_snapshot_or_one_no_site_knows_answers_from_the_db() {
        let site = SiteId::new(1);
        let grid = GridBuilder::new()
            .site(SiteDescription::new(site, "solo", 2, 1))
            .build();
        let stack = ServiceStack::over(grid);
        let spec =
            TaskSpec::new(TaskId::new(1), "t1", "reco").with_cpu_demand(SimDuration::from_secs(30));
        let task = spec.id;
        let exec = stack.grid.exec(site).unwrap();
        let condor = exec.lock().submit(spec.into(), None).unwrap();
        stack.run_until(SimTime::from_secs(60));
        let jobmon = &stack.jobmon;
        let completed = jobmon.job_info(task).unwrap();

        // A stored snapshot newer than a terminal live record wins.
        let mut newer = completed.clone();
        (newer.site, newer.submitted_at) = (SiteId::new(7), SimTime::from_secs(50));
        jobmon.db().store(newer.clone());
        assert_ne!(newer, completed);
        assert_eq!(jobmon.job_info(task), Ok(newer.clone()));
        assert_eq!(jobmon.job_info_at(task, site, condor), Ok(newer));

        // A task that no site knows answers from the DB, or not at all.
        let mut gone = completed;
        gone.task = TaskId::new(2);
        jobmon.db().store(gone.clone());
        assert_eq!(jobmon.job_info(gone.task), Ok(gone));
        assert!(jobmon.job_info(TaskId::new(3)).is_err());
    }
}
