//! The Job Monitoring Service and its JMExecutable RPC facade.

use crate::estimator::EstimatorService;
use crate::grid::{Grid, Plumbing};
use crate::jobmon::collector::JobInformationCollector;
use crate::jobmon::db::DbManager;
use crate::jobmon::info::JobMonitoringInfo;
use crate::jobmon::manager::JmManager;
use gae_rpc::{Method, Methods};
use gae_types::{CondorId, GaeResult, JobId, JobStatus, SiteId, TaskId, TaskStatus};
use gae_wire::Value;
use std::sync::Arc;

/// The deployable Job Monitoring Service (Figure 3 assembled).
pub struct JobMonitoringService {
    manager: JmManager,
}

impl JobMonitoringService {
    /// Wires collector + DBManager + JMManager over the grid; the
    /// DBManager reports into the stack's hub, funnel and journal.
    pub(crate) fn new(
        grid: Arc<Grid>,
        estimators: Arc<EstimatorService>,
        plumbing: &Plumbing,
    ) -> Self {
        let db = DbManager::new(plumbing);
        let collector = JobInformationCollector::new(grid, estimators);
        JobMonitoringService {
            manager: JmManager::new(db, collector),
        }
    }

    /// One polling round (drains execution events into the DB).
    pub fn poll(&self) {
        self.manager.poll();
    }

    /// Full monitoring info for one task.
    pub fn job_info(&self, task: TaskId) -> GaeResult<JobMonitoringInfo> {
        self.manager.info(task)
    }

    /// [`Self::job_info`] for a caller that tracks where the task is:
    /// probes that one site instead of sweeping the grid, and falls
    /// back to the sweep when the location went stale.
    pub fn job_info_at(
        &self,
        task: TaskId,
        site: SiteId,
        condor: CondorId,
    ) -> GaeResult<JobMonitoringInfo> {
        self.manager.info_at(task, site, condor)
    }

    /// [`Self::job_info_at`] for a polling loop that acts only on
    /// tasks that are running or finished (the steering round's
    /// full-sweep oracle): `None`, with nothing built, while the task
    /// is pending, queued or suspended.
    pub fn job_info_unless_parked(
        &self,
        task: TaskId,
        site: SiteId,
        condor: CondorId,
    ) -> GaeResult<Option<JobMonitoringInfo>> {
        self.manager.info_unless_parked(task, site, condor)
    }

    /// Just the status of one task.
    pub fn task_status(&self, task: TaskId) -> GaeResult<TaskStatus> {
        self.manager.info(task).map(|i| i.status)
    }

    /// Info for every known task of a job.
    pub fn job_tasks(&self, job: JobId) -> Vec<JobMonitoringInfo> {
        self.manager.job_info(job)
    }

    /// Aggregate status of a job derived from its tasks' statuses.
    pub fn job_status(&self, job: JobId) -> JobStatus {
        JobStatus::derive(self.manager.job_info(job).iter().map(|i| i.status))
    }

    /// All tasks currently live on any execution service, in task-id
    /// order — the "what is my grid doing right now" view.
    pub fn list_active(&self) -> Vec<JobMonitoringInfo> {
        let mut out = Vec::new();
        for (site, exec) in self.manager.collector().grid().sites() {
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
                    .filter_map(|(task, condor)| self.manager.info_at(task, site, condor).ok()),
            );
        }
        // One entry per task: should a task be active at two sites,
        // the most recently submitted record answers for it (earliest
        // site on a tie), as it does for `job_info`.
        out.sort_by_key(|i| (i.task, std::cmp::Reverse(i.submitted_at)));
        out.dedup_by_key(|i| i.task);
        out
    }

    /// Access to the internals (integration tests).
    pub fn manager(&self) -> &JmManager {
        &self.manager
    }

    // ---- durability hooks ----

    /// Deterministic export of the whole repository: jobs id-sorted,
    /// tasks in insertion order (snapshot encoding + crash digests).
    pub fn db_snapshot(&self) -> Vec<JobMonitoringInfo> {
        self.manager.db().export()
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
