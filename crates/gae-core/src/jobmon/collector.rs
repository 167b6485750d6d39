//! The Job Information Collector (§5.2).
//!
//! "The Job Information Collector interacts with the Execution
//! Service to provide real-time job monitoring information. \[It\]
//! functions in two ways: it monitors the job execution and whenever
//! the job is completed or terminated due to an error, it sends an
//! update request to the DBManager ... \[and\] it provides the
//! monitoring information of the running jobs to the JMManager when
//! requested."

use crate::estimator::EstimatorService;
use crate::grid::Grid;
use crate::jobmon::db::DbManager;
use crate::jobmon::info::JobMonitoringInfo;
use gae_exec::TaskRecord;
use gae_trace::TaskMeta;
use gae_types::{CondorId, GaeError, GaeResult, SiteId, TaskId, TaskStatus};
use std::sync::Arc;

/// Polls execution services and answers live queries.
pub struct JobInformationCollector {
    grid: Arc<Grid>,
    estimators: Arc<EstimatorService>,
}

impl JobInformationCollector {
    /// Creates a collector over the grid.
    pub fn new(grid: Arc<Grid>, estimators: Arc<EstimatorService>) -> Self {
        JobInformationCollector { grid, estimators }
    }

    /// The grid this collector watches.
    pub fn grid(&self) -> &Arc<Grid> {
        &self.grid
    }

    /// Drains execution events; terminal transitions go to the
    /// DBManager, and completions feed the site's runtime history
    /// (that is how the decentralised histories of §6.1 grow).
    pub fn poll(&self, db: &DbManager) {
        for (site, event) in self.grid.drain_events() {
            if !event.is_terminal() {
                continue;
            }
            let Ok(exec) = self.grid.exec(site) else {
                continue;
            };
            let exec = exec.lock();
            let Ok(record) = exec.record(event.condor) else {
                continue;
            };
            let info = self.info_from_record(site, record, &exec);
            let meta = TaskMeta::from_spec(&record.spec);
            let completion = (event.status == TaskStatus::Completed)
                .then(|| (meta.clone(), record.total_accrued()));
            // Every terminal outcome — success or failure — becomes
            // one columnar history row (scans filter on the success
            // column when they want clean runtimes).
            let row = gae_hist::HistRecord {
                task: record.spec.id.raw(),
                site: site.raw(),
                nodes: meta.nodes as u64,
                submit_us: record.submitted_at.as_micros(),
                start_us: record.started_at.map(|t| t.as_micros()).unwrap_or(0),
                finish_us: record.finished_at.map(|t| t.as_micros()).unwrap_or(0),
                runtime_us: record.total_accrued().as_micros(),
                success: completion.is_some(),
                account: meta.account,
                login: meta.login,
                executable: meta.executable,
                queue: meta.queue,
                partition: meta.partition,
                job_type: meta.job_type.to_string(),
            };
            drop(exec);
            db.store_with_history(info, row);
            // Only after the row is in the store: observing drops the
            // site's memoised estimates, and one computed between an
            // early invalidation and the ingest would outlive it.
            if let Some((meta, runtime)) = completion {
                self.estimators.observe_completion(site, meta, runtime);
            }
            // The task left the queue: §6.2 never reads its
            // submission-time estimate again. Clearing it on the
            // terminal-event replay keeps the estimates a long-running
            // stack holds bounded to live CondorIds.
            self.estimators.evict_submission(site, event.condor);
        }
    }

    /// Builds a monitoring snapshot from an execution record.
    fn info_from_record(
        &self,
        site: SiteId,
        record: &TaskRecord,
        exec: &gae_exec::ExecutionService,
    ) -> JobMonitoringInfo {
        let estimated = record.estimated;
        let remaining = estimated.map(|e| e.saturating_sub(record.total_accrued()));
        JobMonitoringInfo {
            job: record.spec.job,
            task: record.spec.id,
            condor: record.condor,
            site,
            status: record.status,
            estimated_runtime: estimated,
            remaining_time: remaining,
            elapsed: record.elapsed(exec.now()),
            queue_position: exec.queue_position(record.condor),
            priority: record.priority,
            submitted_at: record.submitted_at,
            started_at: record.started_at,
            completed_at: record.finished_at,
            cpu_time: record.total_accrued(),
            input_io: record.input_io,
            output_io: record.output_io,
            owner: record.spec.owner,
            env: record.spec.env.clone(),
            progress: record.progress(),
        }
    }

    /// Locates a task across sites — the resolver for callers that
    /// hold no location (the RPC facade) and the fallback when a
    /// tracked location went stale; it locks every site. When a task
    /// has records at several sites (it migrated), the actively-hosted
    /// one wins — a `Migrating` husk left at the old site is *not*
    /// active — otherwise the most recently submitted record, a husk
    /// losing a same-instant tie to the record that replaced it.
    pub fn locate(&self, task: TaskId) -> GaeResult<(SiteId, CondorId)> {
        let mut best: Option<(SiteId, CondorId, (bool, gae_types::SimTime, bool))> = None;
        for (site, exec) in self.grid.sites() {
            let exec = exec.lock();
            if let Some(condor) = exec.condor_of(task) {
                if let Ok(rec) = exec.record(condor) {
                    let live = matches!(
                        rec.status,
                        TaskStatus::Pending
                            | TaskStatus::Queued
                            | TaskStatus::Running
                            | TaskStatus::Suspended
                    );
                    let key = (live, rec.submitted_at, rec.status != TaskStatus::Migrating);
                    if best.as_ref().is_none_or(|(_, _, b)| key > *b) {
                        best = Some((site, condor, key));
                    }
                }
            }
        }
        best.map(|(s, c, _)| (s, c))
            .ok_or_else(|| GaeError::NotFound(format!("{task} on any site")))
    }

    /// Task ids of a job found live on any site (running, queued, or
    /// settled but still in an execution service's records), sorted.
    pub fn live_job_tasks(&self, job: gae_types::JobId) -> Vec<TaskId> {
        let mut out = Vec::new();
        for (_, exec) in self.grid.sites() {
            let exec = exec.lock();
            out.extend(
                exec.records()
                    .filter(|rec| rec.spec.job == job)
                    .map(|rec| rec.spec.id),
            );
        }
        out.sort();
        out.dedup();
        out
    }

    /// Live monitoring info for a task, straight from its execution
    /// service.
    pub fn live_info(&self, task: TaskId) -> GaeResult<JobMonitoringInfo> {
        let (site, condor) = self.locate(task)?;
        let exec = self.grid.exec(site)?;
        let exec = exec.lock();
        let record = exec.record(condor)?;
        Ok(self.info_from_record(site, record, &exec))
    }

    /// Reads the record a caller believes is `task`'s, under that one
    /// site's lock. The location is a hint verified there — the record
    /// must still be the site's current one for the task and not a
    /// `Migrating` husk — so a caller whose bookkeeping lags the
    /// execution layer gets `None` (resolve through
    /// [`JobInformationCollector::locate`]), never a wrong answer.
    fn read_at<R>(
        &self,
        task: TaskId,
        site: SiteId,
        condor: CondorId,
        read: impl FnOnce(&TaskRecord, &gae_exec::ExecutionService) -> R,
    ) -> Option<R> {
        let exec = self.grid.exec(site).ok()?;
        let exec = exec.lock();
        if exec.condor_of(task) != Some(condor) {
            return None;
        }
        let record = exec.record(condor).ok()?;
        (record.status != TaskStatus::Migrating).then(|| read(record, &exec))
    }

    /// Live monitoring info from the hinted location; `None` when the
    /// hint is stale.
    pub(crate) fn live_info_at(
        &self,
        task: TaskId,
        site: SiteId,
        condor: CondorId,
    ) -> Option<JobMonitoringInfo> {
        self.read_at(task, site, condor, |record, exec| {
            self.info_from_record(site, record, exec)
        })
    }

    /// [`Self::live_info_at`] that looks before it builds: the inner
    /// `None` — decided from the record's status alone — while the
    /// task is pending, queued or suspended.
    pub(crate) fn live_info_unless_parked(
        &self,
        task: TaskId,
        site: SiteId,
        condor: CondorId,
    ) -> Option<Option<JobMonitoringInfo>> {
        self.read_at(task, site, condor, |record, exec| {
            let parked = matches!(
                record.status,
                TaskStatus::Pending | TaskStatus::Queued | TaskStatus::Suspended
            );
            (!parked).then(|| self.info_from_record(site, record, exec))
        })
    }
}
