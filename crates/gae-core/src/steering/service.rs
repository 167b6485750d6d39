//! The Steering Service proper: Command Processor, Optimizer, and
//! Backup & Recovery over the Subscriber's state.

use crate::estimator::EstimatorService;
use crate::grid::Grid;
use crate::jobmon::JobMonitoringInfo;
use crate::jobmon::JobMonitoringService;
use crate::persist::{
    array_of, section, Install, Journal, Machine, MemberWriter, Owns, Persistence,
};
use crate::quota::{ChargeRecord, QuotaService};
use crate::steering::round::{InFlight, RoundIndex};
use crate::steering::session::JobAuthorizer;
use crate::steering::state::{self, SteeringOp, TaskPhase, TrackedJob};
use crate::steering::SteeringPolicy;
use gae_exec::{Checkpoint, Progress, TaskProbe};
use gae_sched::Scheduler;
use gae_types::{
    ConcretePlan, CondorId, GaeError, GaeResult, JobId, OptimizationPreference, Priority,
    SimDuration, SimTime, SiteId, TaskId, TaskSpec, TaskStatus, UserId,
};
use gae_wire::Value;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A client-visible steering command (§4: "kill, pause, and resume,
/// change priority of the job or moving the job to some other
/// execution site").
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SteeringCommand {
    /// Terminate the task.
    Kill,
    /// Suspend execution (keeps the slot).
    Pause,
    /// Resume a paused task.
    Resume,
    /// Change the scheduling priority.
    SetPriority(Priority),
    /// Move to another site (`None` = let the Optimizer pick).
    Move(Option<SiteId>),
}

/// Why a task was moved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MoveReason {
    /// A user asked for it.
    Manual,
    /// The Optimizer judged progress too slow.
    SlowProgress,
    /// Backup & Recovery resubmitted after a failure.
    Recovery,
    /// The execution layer flocked the queued task to a partner pool.
    Flocked,
}

/// Client notifications ("the Steering Service notifies the client
/// about the failure ... \[and\] about the completion of the job",
/// §4.2.4). Drained by [`SteeringService::drain_notifications`].
#[derive(Clone, Debug, PartialEq)]
pub enum Notification {
    /// Every task of the job completed; the execution state was
    /// collected from the execution services.
    JobCompleted {
        /// The job.
        job: JobId,
        /// Completion time.
        at: SimTime,
    },
    /// The job can no longer complete.
    JobFailed {
        /// The job.
        job: JobId,
        /// Failure time.
        at: SimTime,
        /// Human-readable reason.
        reason: String,
    },
    /// A task failed (recovery may still be in progress).
    TaskFailed {
        /// The task.
        task: TaskId,
        /// Site it failed at.
        site: SiteId,
        /// Failure time.
        at: SimTime,
        /// Human-readable reason.
        reason: String,
    },
    /// A task was re-placed.
    TaskMoved {
        /// The task.
        task: TaskId,
        /// Old site.
        from: SiteId,
        /// New site.
        to: SiteId,
        /// When.
        at: SimTime,
        /// Why.
        reason: MoveReason,
    },
}

/// A log entry of one move decision (Figure 7 diagnostics).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MoveRecord {
    /// The task moved.
    pub task: TaskId,
    /// Old site.
    pub from: SiteId,
    /// New site.
    pub to: SiteId,
    /// Decision instant.
    pub at: SimTime,
    /// Why.
    pub reason: MoveReason,
}

/// The execution state the Backup & Recovery module collects from the
/// execution service when a task settles (§4.2.4: "gets the execution
/// state from the execution service. This execution state is made
/// available for download").
#[derive(Clone, Debug, PartialEq)]
pub struct ExecutionState {
    /// The task.
    pub task: TaskId,
    /// Site it settled at.
    pub site: SiteId,
    /// Terminal status.
    pub status: TaskStatus,
    /// CPU time consumed.
    pub cpu_time: SimDuration,
    /// Output bytes the task produced (all of them for completed
    /// tasks, the partial output "local files ... produced by the
    /// failed job" otherwise).
    pub output_bytes: u64,
    /// When the state was collected.
    pub collected_at: SimTime,
}

/// Owner and live (unsettled) tasks of a tracked job.
fn owner_and_live_tasks(tracked: &TrackedJob) -> (UserId, Vec<TaskId>) {
    let tasks = tracked
        .plan
        .job
        .task_ids()
        .into_iter()
        .filter(|t| !tracked.tasks[t].phase.is_settled())
        .collect();
    (tracked.owner(), tasks)
}

/// The Steering Service.
pub struct SteeringService {
    grid: Arc<Grid>,
    scheduler: Arc<Scheduler>,
    jobmon: Arc<JobMonitoringService>,
    estimators: Arc<EstimatorService>,
    quota: Arc<QuotaService>,
    policy: RwLock<SteeringPolicy>,
    jobs: RwLock<HashMap<JobId, TrackedJob>>,
    /// What a round walks: the jobs it still has work for — those
    /// whose `completion_notified` is false — each with its
    /// `Submitted` tasks. Derived from `jobs` (never journaled; every
    /// write to a tracked phase is followed by a `reindex`), so a
    /// round costs what is live and awake, not what was ever tracked,
    /// and reads no plan and no task map to find it. Lock order:
    /// `jobs`, then `round_index`.
    round_index: Mutex<RoundIndex>,
    task_index: RwLock<HashMap<TaskId, JobId>>,
    authorizer: JobAuthorizer,
    notifications: Mutex<Vec<Notification>>,
    moves: Mutex<Vec<MoveRecord>>,
    execution_states: Mutex<HashMap<TaskId, ExecutionState>>,
    persist: RwLock<Option<Arc<Persistence>>>,
    /// The gate whose circuit breakers guard downstream calls
    /// (execution sites and the scheduler). Installed by the
    /// composition root; absent in bare unit-test wirings.
    gate: RwLock<Option<Arc<gae_gate::Gate>>>,
    /// The observability hub spans and lifecycle marks go to.
    /// Installed by the composition root; absent in bare wirings.
    obs: RwLock<Option<Arc<gae_obs::ObsHub>>>,
    /// Site-lock probes the last round made (its cost, as a count).
    last_round_probes: AtomicU64,
}

/// One round's buffers, reused from job to job.
#[derive(Default)]
struct RoundScratch {
    /// The job's walk entries, copied out of the lock.
    in_flight: Vec<InFlight>,
    /// The probed entries whose stamp the probe changed: to the site
    /// epoch it saw when it found the task parked, to none otherwise.
    restamp: Vec<(InFlight, Option<u64>)>,
    /// Site-lock probes made so far this round.
    probes: u64,
}

impl SteeringService {
    /// Wires the service over its collaborators (Figure 1).
    pub fn new(
        grid: Arc<Grid>,
        scheduler: Arc<Scheduler>,
        jobmon: Arc<JobMonitoringService>,
        estimators: Arc<EstimatorService>,
        quota: Arc<QuotaService>,
        policy: SteeringPolicy,
    ) -> Self {
        SteeringService {
            grid,
            scheduler,
            jobmon,
            estimators,
            quota,
            policy: RwLock::new(policy),
            jobs: RwLock::new(HashMap::new()),
            round_index: Mutex::new(RoundIndex::default()),
            task_index: RwLock::new(HashMap::new()),
            authorizer: JobAuthorizer::new(),
            notifications: Mutex::new(Vec::new()),
            moves: Mutex::new(Vec::new()),
            execution_states: Mutex::new(HashMap::new()),
            persist: RwLock::new(None),
            gate: RwLock::new(None),
            obs: RwLock::new(None),
            last_round_probes: AtomicU64::new(0),
        }
    }

    /// Installs the gate whose breaker bank guards downstream calls.
    pub(crate) fn attach_gate(&self, gate: Arc<gae_gate::Gate>) {
        *self.gate.write() = Some(gate);
    }

    /// Installs the observability hub: every submission from here on
    /// roots (or extends) the task's CondorId-derived trace and marks
    /// its lifecycle timeline.
    pub(crate) fn attach_obs(&self, obs: Arc<gae_obs::ObsHub>) {
        *self.obs.write() = Some(obs);
    }

    /// The breaker key for an execution site.
    fn exec_breaker_key(site: SiteId) -> String {
        format!("exec-site-{}", site.raw())
    }

    // ---- durability (Backup & Recovery's persistent half) ----

    /// Journals the record `op` reads off a job's tracked state. Call
    /// *after* the mutation, with no job lock held; a job that is gone
    /// by then logs nothing.
    fn log(&self, job_id: JobId, op: impl FnOnce(&TrackedJob) -> Option<SteeringOp<'_>>) {
        let Some(p) = self.persist.read().clone() else {
            return;
        };
        if let Some(op) = self.jobs.read().get(&job_id).and_then(op) {
            p.log(&op);
        }
    }

    /// Deterministic export of the tracker: jobs id-sorted (snapshot
    /// encoding + crash digests).
    pub fn export_jobs(&self) -> Vec<TrackedJob> {
        let jobs = self.jobs.read();
        let mut ids: Vec<&JobId> = jobs.keys().collect();
        ids.sort();
        ids.into_iter().map(|id| jobs[id].clone()).collect()
    }

    /// Exactly-once re-arm after recovery: every task the log says was
    /// in flight at the crash is resubmitted to its planned site (the
    /// old Condor id died with the process), then ready successors are
    /// submitted. Returns the resubmitted tasks, deterministic order.
    pub(crate) fn rearm_submitted(&self) -> GaeResult<Vec<TaskId>> {
        let mut inflight: Vec<(JobId, TaskId, SiteId, TaskSpec)> = Vec::new();
        {
            // A notified job is settled: nothing in flight, nothing
            // ready. Only live jobs can need re-arming.
            let jobs = self.jobs.read();
            for job_id in self.live_job_ids() {
                let Some(tracked) = jobs.get(&job_id) else {
                    continue;
                };
                let mut tasks: Vec<&TaskId> = tracked.tasks.keys().collect();
                tasks.sort();
                for t in tasks {
                    if let TaskPhase::Submitted { site, .. } = tracked.tasks[t].phase {
                        let spec = tracked
                            .plan
                            .job
                            .task(*t)
                            .ok_or_else(|| GaeError::NotFound(t.to_string()))?
                            .clone();
                        inflight.push((job_id, *t, site, spec));
                    }
                }
            }
        }
        let mut resubmitted = Vec::with_capacity(inflight.len());
        for (job_id, task, site, spec) in inflight {
            // The checkpoint died with the process in this model;
            // restart from zero at the planned site.
            self.submit_task_to(job_id, task, site, spec, None)?;
            resubmitted.push(task);
        }
        // Jobs with no in-flight tasks may still have ready work
        // (e.g. crash landed between completion and resubmission).
        for job_id in self.live_job_ids() {
            self.submit_ready(job_id)?;
        }
        Ok(resubmitted)
    }

    /// The Session Manager.
    pub fn authorizer(&self) -> &JobAuthorizer {
        &self.authorizer
    }

    /// The current policy.
    pub fn policy(&self) -> SteeringPolicy {
        *self.policy.read()
    }

    /// Replaces the policy at runtime.
    pub fn set_policy(&self, policy: SteeringPolicy) {
        *self.policy.write() = policy;
    }

    // ---- Subscriber ----

    /// Accepts a concrete plan from the scheduler (§4.2.1) and
    /// submits every ready task.
    pub fn subscribe_plan(&self, plan: ConcretePlan) -> GaeResult<()> {
        let job_id = plan.job_id();
        let tracked = TrackedJob::subscribe(plan)?;
        self.track(&mut self.jobs.write(), tracked);
        self.log(job_id, SteeringOp::plan_of);
        self.submit_ready(job_id)
    }

    /// Files `tracked` under its job: the task index, the tracker
    /// `jobs` (locked by the caller) and the round's live set.
    fn track(&self, jobs: &mut HashMap<JobId, TrackedJob>, tracked: TrackedJob) {
        let job_id = tracked.plan.job_id();
        {
            let mut index = self.task_index.write();
            for t in tracked.plan.job.task_ids() {
                index.insert(t, job_id);
            }
        }
        let mut round = self.round_index.lock();
        if tracked.completion_notified {
            round.forget(job_id);
        } else {
            round.track(job_id, InFlight::all_of(&tracked));
        }
        jobs.insert(job_id, tracked);
    }

    /// Submits every ready task of a job to its planned site.
    fn submit_ready(&self, job_id: JobId) -> GaeResult<()> {
        loop {
            // Snapshot the ready set without holding the lock across
            // execution-service calls.
            let ready: Vec<(TaskId, SiteId, TaskSpec)> = {
                let jobs = self.jobs.read();
                let Some(tracked) = jobs.get(&job_id) else {
                    return Ok(());
                };
                tracked
                    .ready_tasks()
                    .into_iter()
                    .filter_map(|t| {
                        let site = tracked.plan.site_of(t)?;
                        let spec = tracked.plan.job.task(t)?.clone();
                        Some((t, site, spec))
                    })
                    .collect()
            };
            if ready.is_empty() {
                return Ok(());
            }
            for (task, site, spec) in ready {
                self.submit_task_to(job_id, task, site, spec, None)?;
            }
        }
    }

    /// Submits one task, recording its submission-time runtime
    /// estimate on its record at the site (§6.2c).
    fn submit_task_to(
        &self,
        job_id: JobId,
        task: TaskId,
        site: SiteId,
        spec: TaskSpec,
        checkpoint: Option<Checkpoint>,
    ) -> GaeResult<()> {
        let estimate = self
            .estimators
            .estimate_runtime(site, &spec)
            .map(|e| e.runtime)
            .unwrap_or_else(|_| SimDuration::from_secs_f64(spec.requested_cpu_hours * 3600.0));
        // The site's circuit breaker: a site that failed its last N
        // submissions is not re-contacted until its cooldown probe —
        // the typed Overloaded error routes recovery elsewhere.
        let gate = self.gate.read().clone();
        if let Some(gate) = &gate {
            match gate.breaker_check(
                &Self::exec_breaker_key(site),
                gae_gate::GateClass::Production,
            ) {
                Ok(()) => gate.observe_disposition("admit", SimDuration::ZERO),
                Err(e) => {
                    gate.observe_disposition("breaker_denied", SimDuration::ZERO);
                    return Err(e);
                }
            }
        }
        let submitted = self.grid.submit(site, spec, checkpoint);
        if let Some(gate) = &gate {
            gate.breaker_record(&Self::exec_breaker_key(site), submitted.is_ok());
        }
        let condor = submitted?;
        self.estimators.record_submission(site, condor, estimate);
        // Root the task's causal tree on its CondorId (both driver
        // modes derive the same trace id) and mark the lifecycle
        // instants decided at this point. Scheduling, admission and
        // hand-off all resolve within this one virtual instant.
        if let Some(hub) = self.obs.read().clone() {
            let now = self.grid.now();
            let root = hub.condor_trace(condor.raw(), &format!("task {job_id}/{task}"), now);
            hub.span_at(root, &format!("sched.place site-{}", site.raw()), now);
            if gate.is_some() {
                hub.span_at(root, "gate.admit", now);
            }
            hub.span_at(root, &format!("steer.submit site-{}", site.raw()), now);
            hub.mark_at(condor.raw(), gae_obs::TimelineEvent::Schedule, now);
            hub.mark_at(condor.raw(), gae_obs::TimelineEvent::Admit, now);
            hub.mark_at(condor.raw(), gae_obs::TimelineEvent::Submit, now);
        }
        self.set_phase(job_id, task, TaskPhase::Submitted { site, condor });
        self.log(job_id, |j| SteeringOp::task_of(j, task));
        Ok(())
    }

    // ---- Command Processor (§4.2.2) ----

    /// Executes a user command against a task, enforcing the Session
    /// Manager's authorization.
    pub fn command(&self, user: UserId, task: TaskId, cmd: SteeringCommand) -> GaeResult<()> {
        let job_id = self.job_of(task)?;
        let owner = {
            let jobs = self.jobs.read();
            jobs.get(&job_id)
                .ok_or_else(|| GaeError::NotFound(job_id.to_string()))?
                .owner()
        };
        self.authorizer.authorize(user, job_id, owner)?;
        match cmd {
            SteeringCommand::Kill => {
                let (site, condor) = self.location(job_id, task)?;
                self.grid.exec(site)?.lock().kill(condor)?;
                self.grid.release_task_data(site, condor);
                self.set_phase(job_id, task, TaskPhase::Killed);
                self.estimators.evict_submission(site, condor);
                self.log(job_id, |j| SteeringOp::task_of(j, task));
                Ok(())
            }
            SteeringCommand::Pause => {
                let (site, condor) = self.location(job_id, task)?;
                self.grid.exec(site)?.lock().suspend(condor)
            }
            SteeringCommand::Resume => {
                let (site, condor) = self.location(job_id, task)?;
                self.grid.exec(site)?.lock().resume(condor)
            }
            SteeringCommand::SetPriority(p) => {
                let (site, condor) = self.location(job_id, task)?;
                self.grid.exec(site)?.lock().set_priority(condor, p)
            }
            SteeringCommand::Move(target) => {
                self.move_task(job_id, task, target, MoveReason::Manual)
            }
        }
    }

    /// Applies a command to **every live task of a job** — the paper
    /// phrases the command set at job granularity ("kill, pause, and
    /// resume, change priority of the job or moving the job", §4).
    /// Returns how many tasks the command reached; per-task errors on
    /// settled tasks are skipped rather than aborting the sweep.
    pub fn command_job(
        &self,
        user: UserId,
        job_id: JobId,
        cmd: SteeringCommand,
    ) -> GaeResult<usize> {
        let (owner, tasks) = {
            let jobs = self.jobs.read();
            let tracked = jobs
                .get(&job_id)
                .ok_or_else(|| GaeError::NotFound(job_id.to_string()))?;
            owner_and_live_tasks(tracked)
        };
        self.authorizer.authorize(user, job_id, owner)?;
        let mut affected = 0;
        for task in tasks {
            if self.command(user, task, cmd).is_ok() {
                affected += 1;
            }
        }
        Ok(affected)
    }

    /// Jobs steered here that `user` owns, sorted by id.
    pub fn jobs_of(&self, user: UserId) -> Vec<JobId> {
        let mut out: Vec<JobId> = self
            .jobs
            .read()
            .iter()
            .filter(|(_, j)| j.owner() == user)
            .map(|(id, _)| *id)
            .collect();
        out.sort();
        out
    }

    fn job_of(&self, task: TaskId) -> GaeResult<JobId> {
        self.task_index
            .read()
            .get(&task)
            .copied()
            .ok_or_else(|| GaeError::NotFound(format!("{task} is not steered here")))
    }

    fn location(&self, job_id: JobId, task: TaskId) -> GaeResult<(SiteId, CondorId)> {
        let jobs = self.jobs.read();
        jobs.get(&job_id)
            .and_then(|j| j.location(task))
            .ok_or_else(|| GaeError::NotFound(format!("{task} is not on any site")))
    }

    // ---- Optimizer (§4.2.2) + move plumbing ----

    /// Moves a task to `target` (or the Optimizer's best site if
    /// `None`), carrying a checkpoint when the task supports it.
    /// "Requests for job redirection are sent to the scheduler."
    pub fn move_task(
        &self,
        job_id: JobId,
        task: TaskId,
        target: Option<SiteId>,
        reason: MoveReason,
    ) -> GaeResult<()> {
        let (from, condor) = self.location(job_id, task)?;
        let preference = self.policy.read().preference;
        let spec_for_scoring = {
            let jobs = self.jobs.read();
            jobs.get(&job_id)
                .and_then(|j| j.plan.job.task(task).cloned())
                .ok_or_else(|| GaeError::NotFound(task.to_string()))?
        };
        let to = match target {
            Some(site) => {
                if !self.grid.is_alive(site) {
                    return Err(GaeError::ExecutionFailure(format!("{site} is down")));
                }
                site
            }
            None => {
                self.scheduler
                    .best_site(&spec_for_scoring, |_| true, &[from], preference)?
                    .0
            }
        };
        if to == from {
            return Err(GaeError::InvalidPlan(format!("{task} is already at {to}")));
        }
        // Pull the task (with checkpoint if supported) and resubmit.
        let (spec, checkpoint) = self.grid.exec(from)?.lock().remove_for_migration(condor)?;
        // The old CondorId left the source queue with the migration.
        self.estimators.evict_submission(from, condor);
        self.grid.release_task_data(from, condor);
        self.submit_task_to(job_id, task, to, spec, checkpoint)?;
        let at = self.grid.now();
        {
            let mut jobs = self.jobs.write();
            if let Some(tracked) = jobs.get_mut(&job_id) {
                tracked.plan = tracked.plan.reassigned(task, to)?;
                if let Some(t) = tracked.tasks.get_mut(&task) {
                    t.moves += 1;
                }
            }
        }
        self.log(job_id, |j| SteeringOp::task_of(j, task));
        self.log(job_id, SteeringOp::plan_of);
        self.moves.lock().push(MoveRecord {
            task,
            from,
            to,
            at,
            reason,
        });
        self.notifications.lock().push(Notification::TaskMoved {
            task,
            from,
            to,
            at,
            reason,
        });
        Ok(())
    }

    // ---- Backup & Recovery + monitoring loop (§4.2.4) ----

    /// One steering round: track progress through the Job Monitoring
    /// Service, detect failures, recover, optimize, and notify.
    ///
    /// It costs what changed (DESIGN.md §7.1): every running task is
    /// probed, a parked one only if its site has been through a
    /// transition since a round last found it parked there.
    pub fn poll(&self) {
        // Live jobs only, in id order: a round is a deterministic
        // function of the tracked state (the run-to-run determinism
        // contract relies on this) and costs nothing for jobs that
        // already settled and told their client — or that sleep.
        let mut round = RoundScratch::default();
        let mut awake = self.awake_jobs_after(None);
        let mut next = 0;
        while let Some(&job_id) = awake.get(next) {
            next += 1;
            if self.process_job(job_id, &mut round) {
                // The round did something, which may have moved a
                // site on and a job further down out of its sleep.
                awake = self.awake_jobs_after(Some(job_id));
                next = 0;
            }
        }
        self.last_round_probes
            .store(round.probes, Ordering::Relaxed);
    }

    /// The jobs a round has yet to visit after `after`: the live jobs
    /// not asleep, once those parked at a site that has been through a
    /// transition are woken.
    fn awake_jobs_after(&self, after: Option<JobId>) -> Vec<JobId> {
        let mut index = self.round_index.lock();
        index.wake_transitioned(|site| self.grid.site_epoch(site));
        index.awake_after(after)
    }

    /// How many site-lock probes the last [`Self::poll`] made: the
    /// round's cost as a count, for the tests that hold it to "running
    /// tasks plus the parked ones at sites that transitioned".
    #[doc(hidden)]
    pub fn last_round_probes(&self) -> u64 {
        self.last_round_probes.load(Ordering::Relaxed)
    }

    /// The round as it was before parked stamps and the progress
    /// probe — a liveness check and a look-before-you-build snapshot
    /// of every `Submitted` task, a settled check of every live job —
    /// kept as the differential oracle of [`Self::poll`]: driven from
    /// the same state, both act on the same tasks in the same order.
    #[doc(hidden)]
    pub fn poll_full_sweep(&self) {
        for job_id in self.live_job_ids() {
            let submitted: Vec<(TaskId, SiteId, CondorId)> = {
                let jobs = self.jobs.read();
                let Some(tracked) = jobs.get(&job_id) else {
                    continue;
                };
                let tasks = tracked.plan.job.tasks.iter();
                tasks
                    .filter_map(|t| tracked.location(t.id).map(|(s, c)| (t.id, s, c)))
                    .collect()
            };
            for (task, site, condor) in submitted {
                if !self.grid.is_alive(site) {
                    self.recover_task(job_id, task, site, condor, "execution service failed");
                } else if let Ok(Some(info)) =
                    self.jobmon.job_info_unless_parked(task, site, condor)
                {
                    self.act_on(job_id, task, site, condor, &info);
                }
            }
            self.maybe_notify_settled(job_id);
        }
    }

    /// The jobs not yet notified as settled, id-sorted.
    fn live_job_ids(&self) -> Vec<JobId> {
        self.round_index.lock().live_jobs()
    }

    /// Sets one tracked task's phase; a task the tracker does not hold
    /// is skipped.
    fn set_phase(&self, job_id: JobId, task: TaskId, phase: TaskPhase) {
        let mut jobs = self.jobs.write();
        let Some(tracked) = jobs.get_mut(&job_id) else {
            return;
        };
        if let Some(t) = tracked.tasks.get_mut(&task) {
            t.phase = phase;
            self.round_index.lock().reindex(job_id, tracked, task);
        }
    }

    /// One job's turn in a round. True if the round did anything for
    /// it but probe.
    fn process_job(&self, job_id: JobId, round: &mut RoundScratch) -> bool {
        round.in_flight.clear();
        match self.round_index.lock().entries(job_id) {
            Some(walk) => round.in_flight.extend_from_slice(walk),
            None => return false,
        }
        // Whether the round did anything but probe: only then can a
        // task have left `Submitted` or a site have moved on.
        let mut disturbed = false;
        for entry in &round.in_flight {
            let InFlight {
                task, site, condor, ..
            } = *entry;
            // Parked when last probed and no transition at the site
            // since: still parked, the site still up — a probe would
            // answer `Parked` again.
            let stamp = entry.parked_epoch;
            if stamp.is_some() && stamp == self.grid.site_epoch(site) {
                continue;
            }
            round.probes += 1;
            // Backup & Recovery "continuously checks all the
            // Execution Services ... for failure": one probe of the
            // site the task is tracked at answers for both.
            let probe = self.grid.probe(site, task, condor);
            let parked_at = match probe {
                Some(TaskProbe::Parked { epoch }) => Some(epoch),
                _ => None,
            };
            if parked_at.is_some() || stamp.is_some() {
                round.restamp.push((*entry, parked_at));
            }
            match probe {
                // Still waiting there: nothing to do this round.
                Some(TaskProbe::Parked { .. }) => {}
                Some(TaskProbe::SiteDown) => {
                    disturbed = true;
                    self.recover_task(job_id, task, site, condor, "execution service failed");
                }
                Some(TaskProbe::Running(progress)) => {
                    disturbed |= self.maybe_optimize(job_id, task, site, progress);
                }
                // Settled there, or no longer there: the full snapshot
                // (resolved across the grid when the location is
                // stale) says what to do.
                Some(TaskProbe::Settled) | None => {
                    disturbed = true;
                    if let Ok(info) = self.jobmon.job_info_at(task, site, condor) {
                        self.act_on(job_id, task, site, condor, &info);
                    }
                }
            }
        }
        {
            let mut index = self.round_index.lock();
            for (probed, stamp) in round.restamp.drain(..) {
                index.restamp(job_id, &probed, stamp);
            }
            index.rest(job_id);
        }
        // A job with tasks in flight that the round left alone cannot
        // have settled.
        if disturbed || round.in_flight.is_empty() {
            self.maybe_notify_settled(job_id);
        }
        disturbed
    }

    /// What a round does about a task whose full snapshot it read.
    fn act_on(
        &self,
        job_id: JobId,
        task: TaskId,
        site: SiteId,
        condor: CondorId,
        info: &JobMonitoringInfo,
    ) {
        match info.status {
            TaskStatus::Completed => self.settle_completed(job_id, task, site, info),
            TaskStatus::Failed => self.recover_task(job_id, task, site, condor, "task failed"),
            TaskStatus::Killed => {
                self.set_phase(job_id, task, TaskPhase::Killed);
                self.estimators.evict_submission(site, info.condor);
                self.grid.release_task_data(site, info.condor);
                self.log(job_id, |j| SteeringOp::task_of(j, task));
            }
            TaskStatus::Running => {
                let progress = Progress {
                    elapsed: info.elapsed,
                    cpu_time: info.cpu_time,
                    remaining_time: info.remaining_time,
                };
                self.maybe_optimize(job_id, task, site, progress);
            }
            _ => {}
        }
    }

    fn settle_completed(
        &self,
        job_id: JobId,
        task: TaskId,
        site: SiteId,
        info: &JobMonitoringInfo,
    ) {
        {
            let mut jobs = self.jobs.write();
            let Some(tracked) = jobs.get_mut(&job_id) else {
                return;
            };
            let Some(t) = tracked.tasks.get_mut(&task) else {
                return;
            };
            if matches!(t.phase, TaskPhase::Done { .. }) {
                return;
            }
            t.phase = TaskPhase::Done { site };
            self.round_index.lock().reindex(job_id, tracked, task);
        }
        self.log(job_id, |j| SteeringOp::task_of(j, task));
        // Accounting: charge the owner for the CPU actually used. The
        // charged amount is logged verbatim so replay never re-quotes.
        if let Ok(amount) = self.quota.charge(info.owner, site, info.cpu_time) {
            if let Some(p) = self.persist.read().as_ref() {
                p.log(&ChargeRecord {
                    user: info.owner,
                    site,
                    cpu_time: info.cpu_time,
                    amount,
                });
            }
        }
        self.collect_execution_state(task, site, info);
        // Backup & Recovery collected the state: the submission-time
        // estimate for this CondorId can never be consulted again.
        self.estimators.evict_submission(site, info.condor);
        // The task is done with its inputs: release the data-plane
        // pins so the replicas become evictable.
        self.grid.release_task_data(site, info.condor);
        // Close the task's causal tree with the collection step.
        if let Some(hub) = self.obs.read().clone() {
            let now = self.grid.now();
            let root = hub.condor_trace(info.condor.raw(), &format!("task {job_id}/{task}"), now);
            hub.span_at(root, "steer.collect", now);
        }
        // Completion may unblock successors.
        let _ = self.submit_ready(job_id);
    }

    /// §4.2.4: pulls the execution state (including the output files
    /// produced so far) from the execution service and keeps it for
    /// download.
    fn collect_execution_state(&self, task: TaskId, site: SiteId, info: &JobMonitoringInfo) {
        self.execution_states.lock().insert(
            task,
            ExecutionState {
                task,
                site,
                status: info.status,
                cpu_time: info.cpu_time,
                output_bytes: info.output_io,
                collected_at: self.grid.now(),
            },
        );
    }

    /// The collected execution state of a settled task, if any.
    pub fn execution_state(&self, task: TaskId) -> Option<ExecutionState> {
        self.execution_states.lock().get(&task).cloned()
    }

    /// A Clarens web-interface handler serving `/state/<task-id>`
    /// downloads of collected execution state — "this execution state
    /// is made available for download on the web interface" (§4.2.4).
    /// Register with [`gae_rpc::ServiceHost::register_web`].
    pub fn web_handler(
        self: &std::sync::Arc<Self>,
    ) -> impl Fn(&str) -> Option<(String, Vec<u8>)> + Send + Sync + 'static {
        let service = std::sync::Arc::downgrade(self);
        move |path: &str| {
            let service = service.upgrade()?;
            let id = path.strip_prefix("/state/")?;
            let task: TaskId = id.parse().ok()?;
            let state = service.execution_state(task)?;
            let body = format!(
                "task: {}\nsite: {}\nstatus: {}\ncpu_time_s: {:.3}\n\
                 output_bytes: {}\ncollected_at_s: {:.3}\n",
                state.task,
                state.site,
                state.status,
                state.cpu_time.as_secs_f64(),
                state.output_bytes,
                state.collected_at.as_secs_f64(),
            );
            Some(("text/plain; charset=utf-8".to_string(), body.into_bytes()))
        }
    }

    /// Updates bookkeeping after an execution-layer migration the
    /// steering service did not itself initiate (flocking): the task
    /// is now at `to` under a new Condor id.
    pub fn note_external_move(&self, task: TaskId, from: SiteId, to: SiteId, condor: CondorId) {
        let Ok(job_id) = self.job_of(task) else {
            return;
        };
        let at = self.grid.now();
        {
            let mut jobs = self.jobs.write();
            let Some(tracked) = jobs.get_mut(&job_id) else {
                return;
            };
            if let Some(t) = tracked.tasks.get_mut(&task) {
                // The previous CondorId died with the flock; drop its
                // estimate so the §6.2 database tracks live ids only.
                if let TaskPhase::Submitted {
                    site: old_site,
                    condor: old_condor,
                } = t.phase
                {
                    self.estimators.evict_submission(old_site, old_condor);
                }
                t.phase = TaskPhase::Submitted { site: to, condor };
                t.moves += 1;
                self.round_index.lock().reindex(job_id, tracked, task);
            }
            if let Ok(replanned) = tracked.plan.reassigned(task, to) {
                tracked.plan = replanned;
            }
        }
        self.log(job_id, |j| SteeringOp::task_of(j, task));
        self.log(job_id, SteeringOp::plan_of);
        self.moves.lock().push(MoveRecord {
            task,
            from,
            to,
            at,
            reason: MoveReason::Flocked,
        });
    }

    /// Backup & Recovery: contact the scheduler for a new execution
    /// service and resubmit; give up after the policy's attempt cap.
    fn recover_task(
        &self,
        job_id: JobId,
        task: TaskId,
        failed_site: SiteId,
        condor: CondorId,
        reason: &str,
    ) {
        let at = self.grid.now();
        // "It then contacts the execution service to get all the
        // local files that were produced by the failed job" (§4.2.4).
        if let Ok(info) = self.jobmon.job_info_at(task, failed_site, condor) {
            self.collect_execution_state(task, failed_site, &info);
            self.estimators.evict_submission(failed_site, info.condor);
            self.grid.release_task_data(failed_site, info.condor);
        }
        self.notifications.lock().push(Notification::TaskFailed {
            task,
            site: failed_site,
            at,
            reason: reason.to_string(),
        });
        let (attempts_exceeded, plan) = {
            let mut jobs = self.jobs.write();
            let Some(tracked) = jobs.get_mut(&job_id) else {
                return;
            };
            let Some(t) = tracked.tasks.get_mut(&task) else {
                return;
            };
            t.recovery_attempts += 1;
            (
                t.recovery_attempts > self.policy.read().max_recovery_attempts,
                tracked.plan.clone(),
            )
        };
        self.log(job_id, |j| SteeringOp::task_of(j, task));
        if attempts_exceeded {
            self.fail_task(job_id, task, "recovery attempts exhausted");
            return;
        }
        let preference = self.policy.read().preference;
        // The scheduler's breaker: a scheduler failing every
        // reschedule in a row is left alone for a cooldown instead of
        // being hammered once per recovery.
        let gate = self.gate.read().clone();
        if let Some(gate) = &gate {
            if let Err(e) = gate.breaker_check("sched", gae_gate::GateClass::Production) {
                self.fail_task(job_id, task, &format!("scheduler breaker open: {e}"));
                return;
            }
        }
        let rescheduled = self
            .scheduler
            .reschedule_task(&plan, task, &[failed_site], preference);
        if let Some(gate) = &gate {
            gate.breaker_record("sched", rescheduled.is_ok());
        }
        match rescheduled {
            Ok(new_plan) => {
                // `reschedule_task` answers `plan.reassigned(task, ..)`, an
                // error unless the plan places the task and its job holds it.
                let new_site = new_plan.site_of(task).expect("invariant: placed");
                let spec = new_plan.job.task(task).expect("invariant: in job").clone();
                {
                    let mut jobs = self.jobs.write();
                    if let Some(tracked) = jobs.get_mut(&job_id) {
                        tracked.plan = new_plan;
                    }
                }
                self.log(job_id, SteeringOp::plan_of);
                // Failure lost the in-memory state; restart from zero
                // (a checkpointable task's checkpoint died with the
                // site in this model).
                if self
                    .submit_task_to(job_id, task, new_site, spec, None)
                    .is_ok()
                {
                    self.moves.lock().push(MoveRecord {
                        task,
                        from: failed_site,
                        to: new_site,
                        at,
                        reason: MoveReason::Recovery,
                    });
                    self.notifications.lock().push(Notification::TaskMoved {
                        task,
                        from: failed_site,
                        to: new_site,
                        at,
                        reason: MoveReason::Recovery,
                    });
                } else {
                    self.fail_task(job_id, task, "resubmission failed");
                }
            }
            Err(e) => {
                self.fail_task(job_id, task, &format!("no replacement site: {e}"));
            }
        }
    }

    fn fail_task(&self, job_id: JobId, task: TaskId, reason: &str) {
        let at = self.grid.now();
        self.set_phase(job_id, task, TaskPhase::Failed);
        self.log(job_id, |j| SteeringOp::task_of(j, task));
        self.notifications.lock().push(Notification::JobFailed {
            job: job_id,
            at,
            reason: format!("{task}: {reason}"),
        });
    }

    /// The Optimizer's autonomous decision (§7's Figure 7 behaviour):
    /// if a running task accrues CPU time much slower than wall time
    /// and a markedly better site exists, move it. True if it tried.
    fn maybe_optimize(&self, job_id: JobId, task: TaskId, site: SiteId, info: Progress) -> bool {
        let policy = *self.policy.read();
        if !policy.auto_move {
            return false;
        }
        if info.elapsed < policy.min_observation {
            return false;
        }
        let elapsed = info.elapsed.as_secs_f64();
        if elapsed <= 0.0 {
            return false;
        }
        let rate = info.cpu_time.as_secs_f64() / elapsed;
        if rate >= policy.slow_rate_threshold {
            return false;
        }
        let spec = {
            let jobs = self.jobs.read();
            let Some(s) = jobs
                .get(&job_id)
                .and_then(|j| j.plan.job.task(task).cloned())
            else {
                return false;
            };
            s
        };
        let Ok((candidate, est)) =
            self.scheduler
                .best_site(&spec, |_| true, &[site], policy.preference)
        else {
            return false;
        };
        // Only move if the candidate's effective rate beats the
        // observed one with margin (moving costs a restart unless the
        // task checkpoints).
        let candidate_rate = 1.0 / (1.0 + est.load.max(0.0));
        if candidate_rate <= rate * 1.5 {
            return false;
        }
        // Xfer-aware veto: a move re-stages the task's inputs at the
        // candidate, so price staying (finish at the observed rate)
        // against moving (queue + transfer over the live link
        // estimate + restarted execution under the candidate's load)
        // and only move when the candidate still wins by 20 %.
        if policy.xfer_aware && !spec.input_files.is_empty() {
            let remaining = info
                .remaining_time
                .map(|d| d.as_secs_f64())
                .unwrap_or_else(|| spec.requested_cpu_hours * 3600.0)
                .max(1.0);
            let stay_secs = remaining / rate.max(1e-6);
            let move_secs = est.queue_time.as_secs_f64()
                + est.transfer_time.as_secs_f64()
                + remaining / candidate_rate;
            if move_secs * 1.2 >= stay_secs {
                return false;
            }
        }
        let _ = self.move_task(job_id, task, Some(candidate), MoveReason::SlowProgress);
        true
    }

    fn maybe_notify_settled(&self, job_id: JobId) {
        let (completed, failed) = {
            let mut jobs = self.jobs.write();
            let Some(tracked) = jobs.get_mut(&job_id) else {
                return;
            };
            if tracked.completion_notified || !tracked.is_settled() {
                return;
            }
            tracked.completion_notified = true;
            self.round_index.lock().forget(job_id);
            (tracked.is_completed(), tracked.is_failed())
        };
        self.log(job_id, |_| Some(SteeringOp::Notified(job_id)));
        let at = self.grid.now();
        if completed {
            // "For completed jobs, the Backup and Recovery module
            // notifies the client about the completion of the job and
            // gets the execution state from the execution service."
            self.notifications
                .lock()
                .push(Notification::JobCompleted { job: job_id, at });
        } else if failed {
            self.notifications.lock().push(Notification::JobFailed {
                job: job_id,
                at,
                reason: "one or more tasks failed or were killed".into(),
            });
        }
    }

    // ---- introspection ----

    /// Steering-side snapshot of a job.
    pub fn tracked_job(&self, job: JobId) -> Option<TrackedJob> {
        self.jobs.read().get(&job).cloned()
    }

    /// Drains pending client notifications.
    pub fn drain_notifications(&self) -> Vec<Notification> {
        std::mem::take(&mut self.notifications.lock())
    }

    /// The move log (Figure 7 diagnostics).
    pub fn move_log(&self) -> Vec<MoveRecord> {
        self.moves.lock().clone()
    }

    /// Convenience for clients: (cpu time, elapsed, progress) of a
    /// task, via the Job Monitoring Service — the numbers the Figure 7
    /// chart plots.
    pub fn job_progress(&self, task: TaskId) -> GaeResult<(SimDuration, SimDuration, f64)> {
        let info = self.jobmon.job_info(task)?;
        Ok((info.cpu_time, info.elapsed, info.progress))
    }

    /// The optimizer's preference currently in force.
    pub fn preference(&self) -> OptimizationPreference {
        self.policy.read().preference
    }
}

/// The tracker's snapshot member: every tracked job, id-sorted.
/// Backup & Recovery's persistent half: the log replays without
/// submitting anything — submissions are re-armed explicitly, once,
/// after replay finishes (`rearm_submitted`).
impl Machine for SteeringService {
    fn attach(&self, persistence: &Arc<Persistence>) {
        *self.persist.write() = Some(persistence.clone());
    }

    fn owns(&self) -> Owns {
        (SteeringOp::KINDS, &["steering"])
    }

    fn apply(&self, kind: &str, body: &Value) -> GaeResult<()> {
        match SteeringOp::decode(kind, body)? {
            // Replaces (or installs) a job's plan.
            SteeringOp::Plan(plan) => {
                let plan = plan.into_owned();
                let job_id = plan.job_id();
                let mut jobs = self.jobs.write();
                match jobs.get_mut(&job_id) {
                    Some(tracked) => {
                        tracked.plan = plan;
                        self.round_index.lock().retrack(job_id, tracked);
                    }
                    None => self.track(&mut jobs, TrackedJob::subscribe(plan)?),
                }
            }
            // Overwrites one task's tracked state.
            SteeringOp::Task(job_id, task) => {
                self.task_index.write().insert(task.task, job_id);
                if let Some(tracked) = self.jobs.write().get_mut(&job_id) {
                    let id = task.task;
                    tracked.tasks.insert(id, task);
                    self.round_index.lock().reindex(job_id, tracked, id);
                }
            }
            // The completion notice was already delivered.
            SteeringOp::Notified(job_id) => {
                if let Some(tracked) = self.jobs.write().get_mut(&job_id) {
                    tracked.completion_notified = true;
                    self.round_index.lock().forget(job_id);
                }
            }
        }
        Ok(())
    }

    fn write_member(&self, name: &str, doc: &mut MemberWriter<'_>) -> io::Result<()> {
        doc.array(
            name,
            self.export_jobs().iter().map(state::tracked_job_to_value),
        )
    }

    fn decode<'a>(&'a self, doc: &'a Value) -> GaeResult<Install<'a>> {
        let jobs = section(doc, "steering", |v| {
            array_of(v, state::tracked_job_from_value)
        })?;
        Ok(Box::new(move || {
            let mut tracker = self.jobs.write();
            jobs.into_iter()
                .for_each(|job| self.track(&mut tracker, job));
            Ok(())
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{GridBuilder, ServiceStack};
    use crate::steering::state::TrackedTask;
    use gae_types::{JobSpec, PlanId, SiteDescription, TaskAssignment};

    fn stack() -> Arc<ServiceStack> {
        ServiceStack::over(
            GridBuilder::new()
                .site(SiteDescription::new(SiteId::new(1), "a", 1, 1))
                .build(),
        )
    }

    fn plan(job: u64, tasks: &[u64]) -> ConcretePlan {
        let mut spec = JobSpec::new(JobId::new(job), "j", UserId::new(1));
        for t in tasks {
            spec.add_task(TaskSpec::new(TaskId::new(*t), format!("t{t}"), "x"));
        }
        let assignments = tasks
            .iter()
            .map(|t| TaskAssignment {
                task: TaskId::new(*t),
                site: SiteId::new(1),
            })
            .collect();
        ConcretePlan::new(PlanId::new(job), spec, assignments).unwrap()
    }

    /// The live set follows `completion_notified` through every path
    /// that installs or settles a job, and a round walks nothing else.
    /// Replays `op` as its WAL record.
    fn replay(steering: &SteeringService, op: SteeringOp<'_>) {
        steering.apply(op.kind(), &op.encode()).unwrap();
    }

    fn replay_plan(steering: &SteeringService, plan: ConcretePlan) {
        replay(steering, SteeringOp::Plan(std::borrow::Cow::Owned(plan)));
    }

    #[test]
    fn live_set_tracks_unnotified_jobs() {
        let steering = &stack().steering;
        replay_plan(steering, plan(1, &[1]));
        replay_plan(steering, plan(2, &[2]));
        replay_plan(steering, plan(2, &[2]));
        replay(steering, SteeringOp::Notified(JobId::new(2)));
        replay(steering, SteeringOp::Notified(JobId::new(9)));
        let mut restored = TrackedJob::subscribe(plan(3, &[3])).unwrap();
        restored.completion_notified = true;
        let snapshot = Value::struct_of([(
            "steering",
            Value::Array(
                [restored, TrackedJob::subscribe(plan(4, &[4])).unwrap()]
                    .iter()
                    .map(state::tracked_job_to_value)
                    .collect(),
            ),
        )]);
        Machine::decode(&**steering, &snapshot).unwrap()().unwrap();
        assert_eq!(steering.live_job_ids(), vec![JobId::new(1), JobId::new(4)]);
        let unnotified: Vec<JobId> = steering
            .export_jobs()
            .iter()
            .filter(|j| !j.completion_notified)
            .map(|j| j.plan.job_id())
            .collect();
        assert_eq!(steering.live_job_ids(), unnotified);
    }

    /// A replayed log whose `task` records disagree with its plans (a
    /// task the plan does not hold; a job that was never planned) must
    /// come back as typed errors and skipped work, never a panic.
    #[test]
    fn inconsistent_replay_is_skipped_not_panicked() {
        let steering = &stack().steering;
        replay_plan(steering, plan(1, &[1]));
        let stray = |task: u64| TrackedTask {
            task: TaskId::new(task),
            phase: TaskPhase::Submitted {
                site: SiteId::new(1),
                condor: CondorId::new(77),
            },
            recovery_attempts: 0,
            moves: 0,
        };
        replay(steering, SteeringOp::Task(JobId::new(1), stray(5)));
        replay(steering, SteeringOp::Task(JobId::new(8), stray(6)));
        steering.poll();
        steering.set_phase(JobId::new(1), TaskId::new(99), TaskPhase::Killed);
        steering.fail_task(JobId::new(8), TaskId::new(6), "unplanned");
        let user = UserId::new(1);
        for task in [5, 6, 99] {
            for cmd in [SteeringCommand::Kill, SteeringCommand::Move(None)] {
                assert!(matches!(
                    steering.command(user, TaskId::new(task), cmd),
                    Err(GaeError::NotFound(_))
                ));
            }
        }
    }
}
