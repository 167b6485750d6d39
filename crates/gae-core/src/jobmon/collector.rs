//! The Job Information Collector (§5.2).
//!
//! "The Job Information Collector interacts with the Execution
//! Service to provide real-time job monitoring information. \[It\]
//! functions in two ways: it monitors the job execution and whenever
//! the job is completed or terminated due to an error, it sends an
//! update request to the DBManager ... \[and\] it provides the
//! monitoring information of the running jobs to the JMManager when
//! requested."

use crate::jobmon::info::JobMonitoringInfo;
use crate::jobmon::service::JobMonitoringService;
use gae_exec::TaskRecord;
use gae_trace::TaskMeta;
use gae_types::{CondorId, GaeError, GaeResult, SiteId, TaskId, TaskStatus};

/// The collector's half of the service: it polls the execution
/// services and answers live queries.
impl JobMonitoringService {
    /// One polling round: drains execution events; terminal
    /// transitions go to the DBManager with their columnar history row
    /// (that is how the history of §6.1 grows).
    pub fn poll(&self) {
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
            let completed = event.status == TaskStatus::Completed;
            // Every terminal outcome — success or failure — becomes
            // one columnar history row (scans filter on the success
            // column when they want clean runtimes).
            let row = gae_hist::HistRecord {
                task: record.spec.id.raw(),
                site: site.raw(),
                nodes: meta.nodes as u64,
                submit_us: record.submitted_at.as_micros(),
                start_us: record.started_at.map(|t| t.as_micros()).unwrap_or(0),
                finish_us: record.finished_at().map(|t| t.as_micros()).unwrap_or(0),
                runtime_us: info.cpu_time.as_micros(),
                success: completed,
                account: meta.account,
                login: meta.login,
                executable: meta.executable,
                queue: meta.queue,
                partition: meta.partition,
                job_type: meta.job_type.to_string(),
            };
            drop(exec);
            self.db.store_with_history(info, row);
            // Only after the row is in the store: a completion drops
            // the site's memoised estimates, and one computed between
            // an early invalidation and the ingest would outlive it.
            if completed {
                self.estimators.invalidate_site(site);
            }
        }
    }

    /// Builds a monitoring snapshot from an execution record.
    fn info_from_record(
        &self,
        site: SiteId,
        record: &TaskRecord,
        exec: &gae_exec::ExecutionService,
    ) -> JobMonitoringInfo {
        let usage = exec.usage(record);
        let (cpu_time, (input_io, output_io)) = (usage.total_accrued(), usage.io());
        let remaining = record.estimated.map(|e| e.saturating_sub(cpu_time));
        JobMonitoringInfo {
            job: record.spec.job,
            task: record.spec.id,
            condor: record.condor,
            site,
            status: record.status(),
            estimated_runtime: record.estimated,
            remaining_time: remaining,
            elapsed: record.elapsed(exec.now()),
            queue_position: exec.queue_position(record.condor),
            priority: record.priority,
            submitted_at: record.submitted_at,
            started_at: record.started_at,
            completed_at: record.finished_at(),
            cpu_time,
            input_io,
            output_io,
            owner: record.spec.owner,
            env: record.spec.env.clone(),
            progress: usage.progress(),
        }
    }

    /// Locates a task across sites — the resolver for callers that
    /// hold no location (the RPC facade) and the fallback when a
    /// tracked location went stale; it locks every site. When a task
    /// has records at several sites (it migrated), the actively-hosted
    /// one wins — a `Migrating` husk left at the old site is *not*
    /// active — otherwise the most recently submitted record, a husk
    /// losing a same-instant tie to the record that replaced it.
    fn locate(&self, task: TaskId) -> GaeResult<(SiteId, CondorId)> {
        let mut best: Option<(SiteId, CondorId, (bool, gae_types::SimTime, bool))> = None;
        for (site, exec) in self.grid.sites() {
            let exec = exec.lock();
            if let Some(condor) = exec.condor_of(task) {
                if let Ok(rec) = exec.record(condor) {
                    let status = rec.status();
                    let here = status != TaskStatus::Migrating;
                    let key = (here && status.is_live(), rec.submitted_at, here);
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
    pub(crate) fn live_job_tasks(&self, job: gae_types::JobId) -> Vec<TaskId> {
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
    pub(crate) fn live_info(&self, task: TaskId) -> GaeResult<JobMonitoringInfo> {
        let (site, condor) = self.locate(task)?;
        let exec = self.grid.exec(site)?;
        let exec = exec.lock();
        let record = exec.record(condor)?;
        Ok(self.info_from_record(site, record, &exec))
    }

    /// Live monitoring info from the location a caller tracks for
    /// `task`, read under that one site's lock; `None` when the hint
    /// is stale ([`gae_exec::ExecutionService::hinted`]), so a caller
    /// whose bookkeeping lags the execution layer resolves through
    /// [`Self::locate`], never to a wrong answer.
    pub(crate) fn live_info_at(
        &self,
        task: TaskId,
        site: SiteId,
        condor: CondorId,
    ) -> Option<JobMonitoringInfo> {
        let exec = self.grid.exec(site).ok()?;
        let exec = exec.lock();
        let record = exec.hinted(task, condor)?;
        Some(self.info_from_record(site, record, &exec))
    }
}

#[cfg(test)]
mod tests {
    use crate::grid::{GridBuilder, ServiceStack};
    use gae_hist::HistRecord;
    use gae_trace::TaskMeta;
    use gae_types::{
        SimDuration, SimTime, SiteDescription, SiteId, TaskId, TaskSpec, TaskStatus, UserId,
    };
    use std::sync::{Arc, Mutex};

    /// A completion used to invalidate the site's memo *before* its
    /// row reached the history store. An `estimate_runtime` served
    /// between the two memoised the pre-completion value, and when
    /// nothing invalidated the site again — the task's submission
    /// estimate is not recorded under this site, as for a task that
    /// flocked in — the stale entry stayed. The store hook fires
    /// inside `DbManager::store`, exactly in that window.
    #[test]
    fn estimate_served_mid_completion_does_not_go_stale() {
        let grid = GridBuilder::new()
            .site(SiteDescription::new(SiteId::new(1), "solo", 2, 1))
            .build();
        let stack = ServiceStack::over(grid);
        let site = SiteId::new(1);
        let spec = TaskSpec::new(TaskId::new(1), "t1", "reco")
            .with_owner(UserId::new(5))
            .with_cpu_demand(SimDuration::from_secs(30));
        let m = TaskMeta::from_spec(&spec);
        for (task, secs) in [(100u64, 20u64), (101, 24)] {
            stack.hist.ingest(HistRecord {
                task,
                site: 1,
                nodes: m.nodes as u64,
                submit_us: task,
                start_us: task + 1,
                finish_us: task + 1 + secs * 1_000_000,
                runtime_us: secs * 1_000_000,
                success: true,
                account: m.account.clone(),
                login: m.login.clone(),
                executable: m.executable.clone(),
                queue: m.queue.clone(),
                partition: m.partition.clone(),
                job_type: m.job_type.to_string(),
            });
        }
        let samples = || {
            stack
                .estimators
                .estimate_runtime(site, &spec)
                .unwrap()
                .samples
        };
        assert_eq!(samples(), 2);

        let seen = Arc::new(Mutex::new(Vec::new()));
        let (estimators, probe, hook_seen) = (stack.estimators.clone(), spec.clone(), seen.clone());
        stack.jobmon.db().on_store(move |info| {
            if info.status == TaskStatus::Completed {
                let e = estimators.estimate_runtime(SiteId::new(1), &probe).unwrap();
                hook_seen.lock().unwrap().push(e.samples);
            }
        });
        // Straight into the execution service: no scheduler, so the
        // completion is the only thing that drops the site's memo.
        stack
            .grid
            .exec(site)
            .unwrap()
            .lock()
            .submit(spec.clone().into(), None)
            .unwrap();
        stack.run_until(SimTime::from_secs(120));
        assert_eq!(
            *seen.lock().unwrap(),
            vec![2],
            "the hook estimated once, before the row landed"
        );
        assert_eq!(stack.hist.store().site_successes(1), 3, "the row landed");
        assert_eq!(
            samples(),
            3,
            "a memo entry from inside the completion outlived it"
        );
    }
}
