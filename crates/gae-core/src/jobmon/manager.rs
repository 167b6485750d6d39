//! The JMManager (§5.3): query routing.
//!
//! "The JMManager gets the monitoring information either from the
//! DBManager or from the Job Information Collector. It first queries
//! the DBManager and if the information is not found in its
//! repository, the request is forwarded to the Job Information
//! Collector."

use crate::jobmon::collector::JobInformationCollector;
use crate::jobmon::db::DbManager;
use crate::jobmon::info::JobMonitoringInfo;
use gae_types::{CondorId, GaeResult, JobId, SiteId, TaskId};

/// Routes monitoring queries DB-first, collector-second.
pub struct JmManager {
    db: DbManager,
    collector: JobInformationCollector,
}

impl JmManager {
    /// Wires the manager over its two sources.
    pub fn new(db: DbManager, collector: JobInformationCollector) -> Self {
        JmManager { db, collector }
    }

    /// The repository (for the collector's poll loop and tests).
    pub fn db(&self) -> &DbManager {
        &self.db
    }

    /// The collector.
    pub fn collector(&self) -> &JobInformationCollector {
        &self.collector
    }

    /// One polling round: collector drains execution events into the
    /// repository.
    pub fn poll(&self) {
        self.collector.poll(&self.db);
    }

    /// Monitoring info for a task whose location the caller does not
    /// hold: resolved across every site by the collector's `locate`.
    pub fn info(&self, task: TaskId) -> GaeResult<JobMonitoringInfo> {
        match self.collector.live_info(task) {
            Ok(live) => Ok(self.newest_incarnation(live)),
            // Task unknown to every site but we had *some* snapshot:
            // best effort, return it.
            Err(e) => self.db.get(task).ok_or(e),
        }
    }

    /// Monitoring info for a task the caller tracks at `(site,
    /// condor)`: one site lock instead of a sweep of the grid. A stale
    /// hint (the execution layer moved the task without telling the
    /// caller) resolves through [`JmManager::info`], so the answer is
    /// the same either way.
    pub fn info_at(
        &self,
        task: TaskId,
        site: SiteId,
        condor: CondorId,
    ) -> GaeResult<JobMonitoringInfo> {
        match self.collector.live_info_at(task, site, condor) {
            Some(live) => Ok(self.newest_incarnation(live)),
            None => self.info(task),
        }
    }

    /// [`JmManager::info_at`] for a polling loop that only acts on
    /// tasks that are running or finished: `None` — decided from the
    /// record's status alone, nothing built — while the task is
    /// pending, queued or suspended.
    pub fn info_unless_parked(
        &self,
        task: TaskId,
        site: SiteId,
        condor: CondorId,
    ) -> GaeResult<Option<JobMonitoringInfo>> {
        match self.collector.live_info_unless_parked(task, site, condor) {
            Some(found) => Ok(found.map(|live| self.newest_incarnation(live))),
            None => self.info(task).map(Some),
        }
    }

    /// The DB snapshot answers for settled tasks, but a task that was
    /// resubmitted by Backup & Recovery is *live again* — a stored
    /// terminal snapshot from its previous incarnation must not shadow
    /// it. So: a live execution-service record always wins; among
    /// terminal sources, the newer incarnation wins. The repository is
    /// read only once the record turns out terminal.
    fn newest_incarnation(&self, live: JobMonitoringInfo) -> JobMonitoringInfo {
        if live.status.is_live() {
            return live;
        }
        match self.db.get(live.task) {
            Some(snap) if snap.submitted_at > live.submitted_at => snap,
            _ => live,
        }
    }

    /// Info for every known task of a job: tasks with stored
    /// snapshots plus tasks found live on the execution services,
    /// each resolved through [`JmManager::info`], in task-id order.
    pub fn job_info(&self, job: JobId) -> Vec<JobMonitoringInfo> {
        let mut task_ids = self.db.job_task_ids(job);
        task_ids.extend(self.collector.live_job_tasks(job));
        task_ids.sort();
        task_ids.dedup();
        task_ids
            .into_iter()
            .filter_map(|t| self.info(t).ok())
            .collect()
    }
}
