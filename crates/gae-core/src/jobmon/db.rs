//! The DBManager: the Job Monitoring Service's repository.
//!
//! "Each Job Monitoring Service instance has a database repository.
//! The access to this repository is controlled by the DBManager. The
//! DBManager publishes the job monitoring information to MonALISA."
//! (§5.4)
//!
//! The stored [`JobMonitoringInfo`] is the one record of a task's
//! life: its status, site and instants answer `jobmon.job_info` and
//! `jobmon.job_tasks`, and MonALISA holds no copy of it.

use crate::grid::Plumbing;
use crate::hist::HistFunnel;
use crate::jobmon::info::JobMonitoringInfo;
use crate::persist::{
    array_of, section, Install, Journal, JournalSlot, Machine, MemberWriter, Owns,
};
use gae_hist::HistRecord;
use gae_types::{GaeResult, JobId, TaskId};
use gae_wire::Value;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::io;
use std::sync::Arc;

/// The per-task snapshot store.
pub struct DbManager {
    snapshots: RwLock<HashMap<TaskId, JobMonitoringInfo>>,
    by_job: RwLock<HashMap<JobId, Vec<TaskId>>>,
    journal: Arc<JournalSlot>,
    /// Where execution spans go.
    obs: Arc<gae_obs::ObsHub>,
    /// Where terminal task outcomes go, as columnar history rows.
    hist: Arc<HistFunnel>,
    /// Called inside [`Self::store`], before the snapshot lands and
    /// so before its history row does.
    #[cfg(test)]
    on_store: RwLock<Option<tests::StoreHook>>,
}

impl DbManager {
    /// An empty repository over the stack's hub, funnel and journal.
    pub(crate) fn new(plumbing: &Plumbing) -> Self {
        DbManager {
            snapshots: RwLock::default(),
            by_job: RwLock::default(),
            journal: plumbing.journal.clone(),
            obs: plumbing.obs.clone(),
            hist: plumbing.hist.clone(),
            #[cfg(test)]
            on_store: RwLock::default(),
        }
    }

    /// Stores the monitoring snapshot, then appends its columnar
    /// history row — in that order, so the WAL records land as
    /// `jobmon` then `hist` and replay applies them identically.
    pub fn store_with_history(&self, info: JobMonitoringInfo, row: HistRecord) {
        self.store(info);
        self.hist.ingest(row);
    }

    /// Stores (or refreshes) a snapshot and journals it.
    pub fn store(&self, info: JobMonitoringInfo) {
        self.journal.log(&info);
        #[cfg(test)]
        if let Some(hook) = self.on_store.read().as_ref() {
            hook(&info);
        }
        self.replay(info);
    }

    /// Installs the hook [`Self::store`] calls first.
    #[cfg(test)]
    pub(crate) fn on_store(&self, hook: impl Fn(&JobMonitoringInfo) + Send + Sync + 'static) {
        *self.on_store.write() = Some(Box::new(hook));
    }

    /// Applies a logged store: records the execution span and upserts,
    /// without re-logging. This is the WAL replay path — idempotent,
    /// since replayed upserts overwrite in place.
    pub(crate) fn replay(&self, info: JobMonitoringInfo) {
        self.observe(&info);
        self.restore(info);
    }

    /// Adds the run to the task's causal tree, from the snapshot's
    /// own instants.
    fn observe(&self, info: &JobMonitoringInfo) {
        if let Some(started) = info.started_at {
            let hub = &self.obs;
            let root = hub.task_trace(
                info.task.raw(),
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
    }

    /// Upserts without logging — the snapshot-restore path.
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

    /// Ids of the tasks of a job with stored snapshots, in insertion
    /// order.
    pub fn job_task_ids(&self, job: JobId) -> Vec<TaskId> {
        self.by_job.read().get(&job).cloned().unwrap_or_default()
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

    /// What [`DbManager::on_store`] installs.
    pub(super) type StoreHook = Box<dyn Fn(&JobMonitoringInfo) + Send + Sync>;

    fn db() -> DbManager {
        let clock: Arc<dyn gae_types::Clock> = Arc::new(gae_types::ManualClock::default());
        let journal = Arc::new(JournalSlot::default());
        DbManager::new(&Plumbing {
            hist: HistFunnel::new(gae_hist::HistConfig::default(), journal.clone()),
            journal,
            gate: gae_gate::Gate::new(Default::default(), clock.clone()),
            obs: gae_obs::ObsHub::new(clock),
        })
    }

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
        let db = db();
        assert!(db.export().is_empty());
        db.store(info(1, 1, TaskStatus::Completed));
        assert_eq!(
            db.get(TaskId::new(1)).unwrap().status,
            TaskStatus::Completed
        );
        assert!(db.get(TaskId::new(2)).is_none());
        assert_eq!(db.export().len(), 1);
    }

    #[test]
    fn refresh_replaces() {
        let db = db();
        db.store(info(1, 1, TaskStatus::Running));
        db.store(info(1, 1, TaskStatus::Completed));
        assert_eq!(db.export().len(), 1);
        assert_eq!(
            db.get(TaskId::new(1)).unwrap().status,
            TaskStatus::Completed
        );
    }

    #[test]
    fn job_index() {
        let db = db();
        db.store(info(1, 1, TaskStatus::Completed));
        db.store(info(1, 2, TaskStatus::Failed));
        db.store(info(2, 3, TaskStatus::Completed));
        let ids = |job| db.job_task_ids(JobId::new(job));
        assert_eq!(ids(1), vec![TaskId::new(1), TaskId::new(2)]);
        assert_eq!(ids(2), vec![TaskId::new(3)]);
        assert!(ids(3).is_empty());
    }
}
