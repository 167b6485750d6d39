//! The DBManager: the Job Monitoring Service's repository.
//!
//! "Each Job Monitoring Service instance has a database repository.
//! The access to this repository is controlled by the DBManager. The
//! DBManager publishes the job monitoring information to MonALISA."
//! (§5.4)

use crate::hist::HistFunnel;
use crate::jobmon::info::JobMonitoringInfo;
use crate::persist::{
    array_of, section, Install, Journal, Machine, MemberWriter, Owns, Persistence,
};
use gae_hist::HistRecord;
use gae_monitor::{JobEvent, MonAlisaRepository};
use gae_types::{GaeResult, JobId, TaskId};
use gae_wire::Value;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::io;
use std::sync::Arc;

/// Snapshot store plus MonALISA publication.
pub struct DbManager {
    snapshots: RwLock<HashMap<TaskId, JobMonitoringInfo>>,
    by_job: RwLock<HashMap<JobId, Vec<TaskId>>>,
    monitor: Arc<MonAlisaRepository>,
    persist: RwLock<Option<Arc<Persistence>>>,
    obs: RwLock<Option<Arc<gae_obs::ObsHub>>>,
    hist: RwLock<Option<Arc<HistFunnel>>>,
}

impl DbManager {
    /// Creates a repository publishing to `monitor`.
    pub fn new(monitor: Arc<MonAlisaRepository>) -> Self {
        DbManager {
            snapshots: RwLock::new(HashMap::new()),
            by_job: RwLock::new(HashMap::new()),
            monitor,
            persist: RwLock::new(None),
            obs: RwLock::new(None),
            hist: RwLock::new(None),
        }
    }

    /// Routes lifecycle timelines and execution spans into the hub.
    pub(crate) fn attach_obs(&self, obs: Arc<gae_obs::ObsHub>) {
        *self.obs.write() = Some(obs);
    }

    /// Routes terminal task outcomes into the columnar history store.
    pub(crate) fn attach_history(&self, hist: Arc<HistFunnel>) {
        *self.hist.write() = Some(hist);
    }

    /// Stores the monitoring snapshot, then appends its columnar
    /// history row — in that order, so the WAL records land as
    /// `jobmon` then `hist` and replay applies them identically.
    pub fn store_with_history(&self, info: JobMonitoringInfo, row: HistRecord) {
        self.store(info);
        if let Some(hist) = self.hist.read().clone() {
            hist.ingest(row);
        }
    }

    /// Stores (or refreshes) a snapshot, logs it to the WAL when
    /// persistence is attached, and publishes the state change to
    /// MonALISA.
    pub fn store(&self, info: JobMonitoringInfo) {
        if let Some(p) = self.persist.read().as_ref() {
            p.log(&info);
        }
        self.replay(info);
    }

    /// Applies a logged store: publishes the MonALISA event and
    /// upserts, without re-logging. This is the WAL replay path —
    /// idempotent, since replayed upserts overwrite in place.
    pub(crate) fn replay(&self, info: JobMonitoringInfo) {
        self.monitor.publish_job_event(JobEvent {
            at: info.completed_at.unwrap_or(info.submitted_at),
            job: info.job,
            task: info.task,
            site: info.site,
            status: info.status,
        });
        self.observe(&info);
        self.restore(info);
    }

    /// Assembles the task's lifecycle timeline and execution span
    /// from the snapshot's own instants. Marks are first-write-wins
    /// and the instants ride in the logged info, so WAL replay
    /// rebuilds the identical timeline.
    fn observe(&self, info: &JobMonitoringInfo) {
        let Some(hub) = self.obs.read().clone() else {
            return;
        };
        let condor = info.condor.raw();
        hub.mark_at(condor, gae_obs::TimelineEvent::Submit, info.submitted_at);
        if let Some(started) = info.started_at {
            hub.mark_at(condor, gae_obs::TimelineEvent::Start, started);
            let root = hub.condor_trace(
                condor,
                &format!("task {}/{}", info.job, info.task),
                info.submitted_at,
            );
            hub.span(
                root,
                "exec.run",
                started,
                info.completed_at.unwrap_or(started),
            );
        }
        if let Some(completed) = info.completed_at {
            hub.mark_at(condor, gae_obs::TimelineEvent::Complete, completed);
        }
    }

    /// Upserts without publishing or logging — the snapshot-restore
    /// path, where the matching events are restored wholesale.
    pub(crate) fn restore(&self, info: JobMonitoringInfo) {
        let mut by_job = self.by_job.write();
        let tasks = by_job.entry(info.job).or_default();
        if !tasks.contains(&info.task) {
            tasks.push(info.task);
        }
        self.snapshots.write().insert(info.task, info);
    }

    /// Every stored snapshot, task-id-sorted. The sort key is total
    /// and independent of insertion order, so two runs of one
    /// workload — whose `HashMap`s iterate differently — export
    /// byte-identical documents, and so does a store rebuilt from a
    /// snapshot. It doubles as the snapshot export and the crash-test
    /// digest.
    pub fn export(&self) -> Vec<JobMonitoringInfo> {
        let mut out: Vec<JobMonitoringInfo> = self.snapshots.read().values().cloned().collect();
        out.sort_by_key(|i| i.task);
        out
    }

    /// The stored snapshot for a task, if any.
    pub fn get(&self, task: TaskId) -> Option<JobMonitoringInfo> {
        self.snapshots.read().get(&task).cloned()
    }

    /// Stored snapshots of all tasks of a job, in insertion order.
    pub fn job_tasks(&self, job: JobId) -> Vec<JobMonitoringInfo> {
        let by_job = self.by_job.read();
        let snapshots = self.snapshots.read();
        by_job
            .get(&job)
            .into_iter()
            .flatten()
            .filter_map(|t| snapshots.get(t).cloned())
            .collect()
    }

    /// Ids of the tasks of a job with stored snapshots, in insertion
    /// order.
    pub fn job_task_ids(&self, job: JobId) -> Vec<TaskId> {
        self.by_job.read().get(&job).cloned().unwrap_or_default()
    }

    /// Number of stored snapshots.
    pub fn len(&self) -> usize {
        self.snapshots.read().len()
    }

    /// True when the repository is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A stored snapshot is journaled whole, in its wire encoding.
impl Journal for JobMonitoringInfo {
    const KINDS: &'static [&'static str] = &["jobmon"];

    fn encode(&self) -> Value {
        self.to_value()
    }

    fn decode(_: &str, body: &Value) -> GaeResult<Self> {
        JobMonitoringInfo::from_value(body)
    }
}

impl Machine for DbManager {
    /// Routes every future [`DbManager::store`] through the WAL.
    fn attach(&self, persistence: &Arc<Persistence>) {
        *self.persist.write() = Some(persistence.clone());
    }

    fn owns(&self) -> Owns {
        (JobMonitoringInfo::KINDS, &["jobmon"])
    }

    fn apply(&self, kind: &str, body: &Value) -> GaeResult<()> {
        self.replay(JobMonitoringInfo::decode(kind, body)?);
        Ok(())
    }

    fn write_member(&self, name: &str, doc: &mut MemberWriter<'_>) -> io::Result<()> {
        doc.array(name, self.export().iter().map(JobMonitoringInfo::to_value))
    }

    fn decode<'a>(&'a self, doc: &'a Value) -> GaeResult<Install<'a>> {
        let infos = section(doc, "jobmon", |v| {
            array_of(v, JobMonitoringInfo::from_value)
        })?;
        Ok(Box::new(move || {
            infos.into_iter().for_each(|info| self.restore(info));
            Ok(())
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gae_types::{CondorId, Priority, SimDuration, SimTime, SiteId, TaskStatus, UserId};

    fn info(job: u64, task: u64, status: TaskStatus) -> JobMonitoringInfo {
        JobMonitoringInfo {
            job: JobId::new(job),
            task: TaskId::new(task),
            condor: CondorId::new(task),
            site: SiteId::new(1),
            status,
            estimated_runtime: None,
            remaining_time: None,
            elapsed: SimDuration::ZERO,
            queue_position: None,
            priority: Priority::NORMAL,
            submitted_at: SimTime::from_secs(1),
            started_at: None,
            completed_at: None,
            cpu_time: SimDuration::ZERO,
            input_io: 0,
            output_io: 0,
            owner: UserId::new(1),
            env: Vec::new(),
            progress: 0.0,
        }
    }

    #[test]
    fn store_and_get() {
        let db = DbManager::new(MonAlisaRepository::with_defaults());
        assert!(db.is_empty());
        db.store(info(1, 1, TaskStatus::Completed));
        assert_eq!(
            db.get(TaskId::new(1)).unwrap().status,
            TaskStatus::Completed
        );
        assert!(db.get(TaskId::new(2)).is_none());
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn refresh_replaces() {
        let db = DbManager::new(MonAlisaRepository::with_defaults());
        db.store(info(1, 1, TaskStatus::Running));
        db.store(info(1, 1, TaskStatus::Completed));
        assert_eq!(db.len(), 1);
        assert_eq!(
            db.get(TaskId::new(1)).unwrap().status,
            TaskStatus::Completed
        );
    }

    #[test]
    fn job_index() {
        let db = DbManager::new(MonAlisaRepository::with_defaults());
        db.store(info(1, 1, TaskStatus::Completed));
        db.store(info(1, 2, TaskStatus::Failed));
        db.store(info(2, 3, TaskStatus::Completed));
        assert_eq!(db.job_tasks(JobId::new(1)).len(), 2);
        assert_eq!(db.job_tasks(JobId::new(2)).len(), 1);
        assert!(db.job_tasks(JobId::new(3)).is_empty());
    }

    #[test]
    fn publishes_to_monalisa() {
        let monitor = MonAlisaRepository::with_defaults();
        let db = DbManager::new(monitor.clone());
        db.store(info(1, 1, TaskStatus::Completed));
        let history = monitor.job_history(JobId::new(1));
        assert_eq!(history.len(), 1);
        assert_eq!(history[0].status, TaskStatus::Completed);
    }
}
