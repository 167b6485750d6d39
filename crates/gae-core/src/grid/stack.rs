//! The composition root: [`ServiceStack`] wires the paper's Figure 1
//! deployment over one [`Grid`] and drives it — the poll round,
//! `run_until`, checkpointing and crash recovery.

use super::Grid;
use crate::estimator::EstimatorService;
use crate::jobmon::JobMonitoringService;
use crate::persist::{self, Machine, Persistence, PersistenceConfig, RecoveryReport};
use crate::provider::GridSiteInfo;
use crate::quota::QuotaService;
use crate::steering::{SteeringPolicy, SteeringService};
use gae_durable::DurableStore;
use gae_gate::{Gate, GateClass, Principal};
use gae_sched::Scheduler;
use gae_types::{Clock, ConcretePlan, GaeError, GaeResult, JobSpec, SimDuration, SimTime};
use parking_lot::{Mutex, RwLock};
use std::sync::Arc;

/// Records one transfer-plane lifecycle event into the hub: a span in
/// the transfer's trace, plus the request→landing latency per link.
/// Every event carries its own instant (the observer runs under the
/// xfer lock and must not read the grid clock).
fn trace_xfer_event(hub: &gae_obs::ObsHub, ev: &gae_xfer::XferEvent) {
    use gae_xfer::XferEvent;
    match ev {
        XferEvent::Started {
            id,
            lfn,
            from,
            to,
            at,
        } => {
            let ctx = hub.xfer_trace(*id, &format!("xfer {lfn} {from}->{to}"), *at);
            hub.span_at(ctx, "xfer.start", *at);
        }
        XferEvent::Retried {
            id, attempt, at, ..
        } => {
            let ctx = hub.xfer_trace(*id, "xfer", *at);
            hub.span_at(ctx, &format!("xfer.retry#{attempt}"), *at);
        }
        XferEvent::Resourced { id, from, at } => {
            let ctx = hub.xfer_trace(*id, "xfer", *at);
            hub.span_at(ctx, &format!("xfer.resource {from}"), *at);
        }
        XferEvent::Landed {
            id,
            from,
            to,
            requested,
            at,
            ..
        } => {
            let ctx = hub.xfer_trace(*id, "xfer", *at);
            hub.span_at(ctx, "xfer.land", *at);
            hub.record_xfer(
                &format!("{}->{}", from.raw(), to.raw()),
                at.saturating_since(*requested),
            );
        }
        XferEvent::Failed { id, reason, at, .. } => {
            let ctx = hub.xfer_trace(*id, "xfer", *at);
            hub.span_at(ctx, &format!("xfer.fail: {reason}"), *at);
        }
        XferEvent::Evicted { .. } => {}
    }
}

/// The full Figure 1 deployment wired over one grid.
pub struct ServiceStack {
    /// The fabric.
    pub grid: Arc<Grid>,
    /// Quota and Accounting Service (§4.2.2).
    pub quota: Arc<QuotaService>,
    /// Estimator Service (§6).
    pub estimators: Arc<EstimatorService>,
    /// Job Monitoring Service (§5).
    pub jobmon: Arc<JobMonitoringService>,
    /// Sphinx-substitute scheduler.
    pub scheduler: Arc<Scheduler>,
    /// Steering Service (§4).
    pub steering: Arc<SteeringService>,
    /// Admission control & overload protection for the front door.
    pub gate: Arc<Gate>,
    /// Columnar job-history funnel: journals every terminal task
    /// outcome into the append-only [`gae_hist::HistStore`] the
    /// estimators scan.
    pub hist: Arc<crate::hist::HistFunnel>,
    /// Observability: request traces, latency histograms, per-CondorId
    /// lifecycle timelines — all on the grid's virtual clock.
    pub(super) obs: Arc<gae_obs::ObsHub>,
    /// How often the polling services run (collector + steering).
    poll_period: SimDuration,
    next_poll: Mutex<SimTime>,
    /// The durable store, when the grid was built with
    /// [`GridBuilder::persist`](super::GridBuilder::persist) or recovered from disk.
    persistence: RwLock<Option<Arc<Persistence>>>,
}

impl ServiceStack {
    /// Wires the whole architecture with default policies.
    ///
    /// Panics if the grid carries a persistence configuration whose
    /// directory cannot be initialised; use
    /// [`ServiceStack::try_with_policy`] to handle that as an error.
    pub fn over(grid: Arc<Grid>) -> Arc<ServiceStack> {
        Self::with_policy(grid, SteeringPolicy::default(), SimDuration::from_secs(5))
    }

    /// Wires the architecture with an explicit steering policy and
    /// polling period. Panics under the same conditions as
    /// [`ServiceStack::over`]; infallible for non-persistent grids.
    pub fn with_policy(
        grid: Arc<Grid>,
        policy: SteeringPolicy,
        poll_period: SimDuration,
    ) -> Arc<ServiceStack> {
        Self::try_with_policy(grid, policy, poll_period).expect("persistence initialisation failed")
    }

    /// Wires the architecture, initialising the durable store when the
    /// grid was built with [`GridBuilder::persist`](super::GridBuilder::persist). Fails if the
    /// persistence directory already holds a store (recover it with
    /// [`ServiceStack::recover_from_disk`] instead) or cannot be
    /// written.
    pub fn try_with_policy(
        grid: Arc<Grid>,
        policy: SteeringPolicy,
        poll_period: SimDuration,
    ) -> GaeResult<Arc<ServiceStack>> {
        let stack = Self::assemble(grid, policy, poll_period);
        if let Some(config) = stack.grid.persistence_config().cloned() {
            stack.attach_persistence(Persistence::create(&config)?);
        }
        Ok(stack)
    }

    /// Wires the services without touching any persistence.
    fn assemble(
        grid: Arc<Grid>,
        policy: SteeringPolicy,
        poll_period: SimDuration,
    ) -> Arc<ServiceStack> {
        let quota = Arc::new(QuotaService::new());
        for (_, exec) in grid.sites() {
            quota.register_site(exec.lock().site());
        }
        let estimators = Arc::new(EstimatorService::new(grid.clone()));
        let jobmon = Arc::new(JobMonitoringService::new(grid.clone(), estimators.clone()));
        let info = Arc::new(GridSiteInfo::new(
            grid.clone(),
            estimators.clone(),
            quota.clone(),
        ));
        let scheduler = Arc::new(Scheduler::new(info));
        let steering = Arc::new(SteeringService::new(
            grid.clone(),
            scheduler.clone(),
            jobmon.clone(),
            estimators.clone(),
            quota.clone(),
            policy,
        ));
        // The gate and the observability hub read the grid's virtual
        // clock, so admissions and trace trees replay byte-identically
        // run to run; served (`gae-ctl serve`), the pump that tracks
        // wall time advances it. They hold the clock cell, never the
        // grid: a gate or hub that outlives the stack (a served door,
        // an RPC host) must not keep the grid alive (DESIGN.md §17).
        // The gate also classifies by quota standing: a principal
        // billed into the red (grids bill after the fact) drops to
        // Scavenger — first shed, last run.
        let clock: Arc<dyn Clock> = grid.clock.clone();
        let gate = Gate::new(grid.gate_config().unwrap_or_default(), clock.clone());
        {
            let quota = quota.clone();
            gate.set_class_resolver(move |principal: &Principal| match principal.user {
                Some(user) if quota.balance(user) < 0.0 => GateClass::Scavenger,
                _ => GateClass::Production,
            });
        }
        steering.attach_gate(gate.clone());
        // The observability hub shares the grid's virtual clock and is
        // threaded into every layer that emits spans or instants. The
        // gate reports admission dispositions through its callback so
        // gae-gate never depends on the obs crate.
        let obs = gae_obs::ObsHub::new(clock);
        steering.attach_obs(obs.clone());
        jobmon.attach_obs(obs.clone());
        // The history funnel sits behind jobmon's DBManager: every
        // terminal task state the collector stores is also appended to
        // the columnar store, and the estimators retarget their
        // similar-task search onto its pushdown scans.
        let hist = crate::hist::HistFunnel::new(gae_hist::HistConfig::default());
        jobmon.attach_history(hist.clone());
        estimators.attach_history(hist.clone());
        {
            let hub = obs.clone();
            gate.set_disposition_observer(move |disposition, latency| {
                hub.record_gate(disposition, latency);
            });
        }
        // The transfer scheduler reports its lifecycle through a
        // callback so gae-xfer never depends on the obs crate.
        {
            let hub = obs.clone();
            grid.with_xfer(|x| x.set_observer(Box::new(move |ev| trace_xfer_event(&hub, ev))));
        }
        Arc::new(ServiceStack {
            grid,
            quota,
            estimators,
            jobmon,
            scheduler,
            steering,
            gate,
            hist,
            obs,
            poll_period,
            next_poll: Mutex::new(SimTime::ZERO + poll_period),
            persistence: RwLock::new(None),
        })
    }

    /// Every journaled subsystem, in restore order — the one list the
    /// durability loops (`persist::encode_snapshot`, and replay and
    /// restore in `replication.rs`) walk. A new journaled subsystem is
    /// its own `impl Machine` plus one entry here. The history store
    /// is first: its columnar blob is decoded by the store's own
    /// `restore`, the only install step that can fail, so a corrupt
    /// blob fails before any other machine installs anything.
    pub(crate) fn machines(&self) -> [&dyn Machine; 6] {
        [
            &*self.hist,
            &**self.grid.monitor(),
            self.jobmon.manager().db(),
            &*self.steering,
            &*self.quota,
            &*self.grid,
        ]
    }

    /// Routes every future mutation of every machine through the WAL.
    fn attach_persistence(&self, persistence: Arc<Persistence>) {
        for machine in self.machines() {
            machine.attach(&persistence);
        }
        *self.persistence.write() = Some(persistence);
    }

    /// The durable store, when one is attached.
    pub fn persistence(&self) -> Option<Arc<Persistence>> {
        self.persistence.read().clone()
    }

    /// Arms replication: every WAL commit and rotation this stack
    /// performs is teed to `sink` (typically a
    /// [`gae_repl::ReplicatedLog`] in attached mode), wrapped in
    /// `repl.*` span and commit-latency instrumentation. Requires an
    /// attached durable store whose commit index matches the sink's
    /// leader commit — replication must observe every commit from the
    /// point it is armed.
    pub fn attach_replication(&self, sink: Arc<dyn gae_repl::ReplicationSink>) -> GaeResult<()> {
        let Some(p) = self.persistence() else {
            return Err(GaeError::InvalidTransition {
                entity: "replication".to_string(),
                from: "no durable store attached".to_string(),
                attempted: "attach_replication".to_string(),
            });
        };
        let leader_commit = sink.stats().leader_commit;
        if p.commit_index() != leader_commit {
            return Err(GaeError::InvalidTransition {
                entity: "replication".to_string(),
                from: format!(
                    "store at commit {}, sink at {}",
                    p.commit_index(),
                    leader_commit
                ),
                attempted: "attach_replication".to_string(),
            });
        }
        p.set_replication_sink(Arc::new(crate::replication::ObsSink::new(
            sink,
            self.obs.clone(),
        )));
        Ok(())
    }

    /// The instrumented replication sink, when one is armed (the
    /// durable store holds it).
    pub fn replication(&self) -> Option<Arc<dyn gae_repl::ReplicationSink>> {
        self.persistence()?.replication_sink()
    }

    /// The observability hub: request traces, latency histograms, and
    /// per-CondorId lifecycle timelines, all on the grid's virtual
    /// clock. Attach it to an RPC host
    /// ([`gae_rpc::ServiceHost::attach_obs`]) to time every dispatched
    /// method into it.
    pub fn obs(&self) -> Arc<gae_obs::ObsHub> {
        self.obs.clone()
    }

    /// Schedules a job and registers the concrete plan with the
    /// steering service (the scheduler "sends a concrete job plan to
    /// the Steering Service", §4.2.1). Ready tasks are submitted
    /// immediately; successors follow as prerequisites complete.
    pub fn submit_job(&self, job: JobSpec) -> GaeResult<ConcretePlan> {
        let plan = self
            .scheduler
            .schedule(&gae_types::AbstractPlan::new(job))?;
        self.steering.subscribe_plan(plan.clone())?;
        Ok(plan)
    }

    /// Variant of [`ServiceStack::submit_job`] with an explicit
    /// abstract plan (preferences, site restrictions).
    pub fn submit_plan(&self, plan: &gae_types::AbstractPlan) -> GaeResult<ConcretePlan> {
        let concrete = self.scheduler.schedule(plan)?;
        self.steering.subscribe_plan(concrete.clone())?;
        Ok(concrete)
    }

    /// Runs one service polling round at the current grid time:
    /// flocking first (it changes placements), then monitoring, then
    /// steering, then history maintenance, and last one MonALISA batch
    /// with every [`MetricSource`](super::MetricSource)'s samples.
    pub fn poll(&self) {
        self.poll_steering_by(SteeringService::poll);
    }

    /// [`Self::poll`] with the steering round run by its full-sweep
    /// oracle — what `tests/steering_round.rs` drives a twin stack
    /// with.
    #[doc(hidden)]
    pub fn poll_full_sweep(&self) {
        self.poll_steering_by(SteeringService::poll_full_sweep);
    }

    fn poll_steering_by(&self, steering_round: fn(&SteeringService)) {
        for mv in self.grid.flock_pass() {
            let estimate = self
                .estimators
                .estimate_runtime(mv.to, &mv.spec)
                .map(|e| e.runtime)
                .unwrap_or_else(|_| {
                    SimDuration::from_secs_f64(mv.spec.requested_cpu_hours * 3600.0)
                });
            self.estimators
                .record_submission(mv.to, mv.condor, estimate);
            self.steering
                .note_external_move(mv.task, mv.from, mv.to, mv.condor);
        }
        self.jobmon.poll();
        steering_round(&self.steering);
        // History maintenance rides the poll loop: seal a lingering
        // tail and compact undersized segments on the virtual clock,
        // each decision journaled before it is applied.
        self.hist.maintain(self.grid.now());
        self.grid.monitor().publish_batch(self.metrics());
    }

    /// Durably commits everything logged since the last checkpoint
    /// (one group-commit batch), rotating to a fresh snapshot
    /// generation when the snapshot cadence has elapsed. Returns the
    /// new commit index; a no-op `Ok(0)` when no store is attached.
    ///
    /// [`ServiceStack::run_until`] checkpoints automatically at its
    /// horizon, so every `run_until` call is a recovery point.
    pub fn checkpoint(&self) -> GaeResult<u64> {
        let Some(p) = self.persistence() else {
            return Ok(0);
        };
        let index = p.commit()?;
        let now = self.grid.now();
        if p.snapshot_due(now) {
            p.rotate(now, |out| persist::encode_snapshot(&self.machines(), out))?;
        }
        Ok(index)
    }

    /// Drives the grid and the polling services to `t`.
    ///
    /// Interleaving: execution-service completions happen at exact
    /// instants; the collector and steering service poll every
    /// `poll_period`, which is how the paper's services actually
    /// observed the grid ("periodically monitor the performance of
    /// the job", §7).
    pub fn run_until(&self, t: SimTime) {
        loop {
            let now = self.grid.now();
            if now >= t {
                break;
            }
            // Events sitting exactly at `now` (zero-length tasks,
            // just-submitted work) are consumed without moving time.
            if self
                .grid
                .next_event_time()
                .map(|ev| ev <= now)
                .unwrap_or(false)
            {
                self.grid.advance_to(now);
                continue;
            }
            let next_poll = *self.next_poll.lock();
            if next_poll <= now {
                // The clock moved past one or more due polls (e.g.
                // the caller advanced the grid directly); catch up
                // once, then realign to the original cadence: the
                // next poll stays on the `poll_period` grid anchored
                // at stack construction, so the same workload polls
                // at the same instants no matter who moved the clock.
                self.poll();
                let period = self.poll_period.as_micros().max(1);
                let missed = now.saturating_since(next_poll).as_micros() / period + 1;
                *self.next_poll.lock() = next_poll + SimDuration::from_micros(missed * period);
                continue;
            }
            let mut target = t.min(next_poll);
            if let Some(ev) = self.grid.next_event_time() {
                target = target.min(ev);
            }
            self.grid.advance_to(target);
            if target >= next_poll {
                self.poll();
                *self.next_poll.lock() = next_poll + self.poll_period;
            }
        }
        // Final poll at the horizon so callers observe fresh state.
        self.poll();
        // Every run_until horizon is a durable commit point.
        self.checkpoint().expect("durable checkpoint failed");
    }

    /// Rebuilds a crashed stack from `config.dir`: recovers the
    /// newest intact snapshot plus the longest committed WAL prefix
    /// (falling back one generation if the newest snapshot is
    /// corrupt), replays every committed record, re-arms exactly-once
    /// resubmission of the tasks that were in flight, and resumes
    /// logging into a fresh generation.
    ///
    /// The rebuilt state is exactly the state at the reported
    /// [`RecoveryReport::commit_index`] — uncommitted work (anything
    /// after the last [`ServiceStack::checkpoint`]) is lost, never
    /// half-applied. The virtual clock restarts at zero; resubmitted
    /// tasks restart from scratch (their checkpoints died with the
    /// process in this model).
    pub fn recover_from_disk(
        grid: Arc<Grid>,
        policy: SteeringPolicy,
        poll_period: SimDuration,
        config: &PersistenceConfig,
    ) -> GaeResult<(Arc<ServiceStack>, RecoveryReport)> {
        use gae_repl::StateMachine;

        let stack = Self::assemble(grid, policy, poll_period);

        // 1–2. Snapshot restore plus committed-WAL replay, in log
        //    order — both through the [`gae_repl::StateMachine`]
        //    contract, the same path a replication follower applies
        //    mutations through. Each record is decoded, applied and
        //    dropped as the scan delivers it: the log is never held.
        let mut replayed = 0usize;
        let at = DurableStore::replay(
            &config.dir,
            |snapshot| stack.restore(&snapshot),
            |seq, record| {
                replayed += 1;
                let in_record = |what: &str, e: GaeError| {
                    GaeError::Parse(format!("wal record {seq} ({what}): {e}"))
                };
                let mutation = gae_repl::frame::decode_envelope(&record)
                    .map_err(|e| in_record("undecodable envelope", e))?;
                stack
                    .apply_mutation(&mutation)
                    .map_err(|e| in_record(&format!("kind {:?}", mutation.kind), e))
            },
        )?;

        // 3. Resume the store in a new generation anchored at a fresh
        //    snapshot of the rebuilt state, streamed into its file,
        //    and re-attach logging.
        let persistence = Persistence::resume(config, &at, stack.grid.now(), |out| {
            persist::encode_snapshot(&stack.machines(), out)
        })?;
        stack.attach_persistence(persistence);

        // 4. Re-arm, exactly once. First the explicit replications the
        //    log says were requested but never landed or failed — they
        //    restart from zero bytes. Then the in-flight tasks, whose
        //    resubmission rebuilds their input-staging chains through
        //    `Grid::submit` (staged inputs re-arm with the task, never
        //    through the transfer journal, so nothing runs twice).
        stack.grid.with_xfer(|x| x.rearm_pending());
        let report = RecoveryReport {
            generation: at.generation,
            commit_index: at.commit_index,
            replayed_records: replayed,
            tail_was_torn: !at.tail.is_clean(),
            used_fallback: at.used_fallback,
            resubmitted: stack.steering.rearm_submitted()?,
        };
        stack.checkpoint()?;
        Ok((stack, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::two_site_grid;
    use gae_types::{JobId, SiteId, TaskId, TaskSpec, TaskStatus, UserId};

    #[test]
    fn stack_runs_simple_job_to_completion() {
        let stack = ServiceStack::over(two_site_grid());
        let mut job = JobSpec::new(JobId::new(1), "demo", UserId::new(1));
        job.add_task(
            TaskSpec::new(TaskId::new(1), "t", "prime").with_cpu_demand(SimDuration::from_secs(60)),
        );
        let plan = stack.submit_job(job).unwrap();
        // The scheduler must have preferred the free site.
        assert_eq!(plan.site_of(TaskId::new(1)), Some(SiteId::new(2)));
        stack.run_until(SimTime::from_secs(120));
        let info = stack.jobmon.job_info(TaskId::new(1)).unwrap();
        assert_eq!(info.status, TaskStatus::Completed);
    }

    #[test]
    fn stack_executes_dag_in_order() {
        let stack = ServiceStack::over(two_site_grid());
        let mut job = JobSpec::new(JobId::new(1), "dag", UserId::new(1));
        for i in 1..=3 {
            job.add_task(
                TaskSpec::new(TaskId::new(i), format!("t{i}"), "step")
                    .with_cpu_demand(SimDuration::from_secs(20)),
            );
        }
        job.add_dependency(TaskId::new(1), TaskId::new(2));
        job.add_dependency(TaskId::new(2), TaskId::new(3));
        stack.submit_job(job).unwrap();
        stack.run_until(SimTime::from_secs(30));
        // Task 2 must not have finished before task 1.
        let t1 = stack.jobmon.job_info(TaskId::new(1)).unwrap();
        assert_eq!(t1.status, TaskStatus::Completed);
        // Task 3 is blocked on task 2: either not yet submitted
        // anywhere (unknown to monitoring) or not completed.
        match stack.jobmon.job_info(TaskId::new(3)) {
            Ok(info) => assert_ne!(info.status, TaskStatus::Completed),
            Err(e) => assert!(e.to_string().contains("not found"), "{e}"),
        }
        stack.run_until(SimTime::from_secs(200));
        let t3 = stack.jobmon.job_info(TaskId::new(3)).unwrap();
        assert_eq!(t3.status, TaskStatus::Completed);
    }

    #[test]
    fn run_until_is_idempotent_at_horizon() {
        let stack = ServiceStack::over(two_site_grid());
        stack.run_until(SimTime::from_secs(50));
        stack.run_until(SimTime::from_secs(50));
        assert_eq!(stack.grid.now(), SimTime::from_secs(50));
    }

    #[test]
    fn estimator_memo_caches_until_invalidated() {
        let stack = ServiceStack::over(two_site_grid());
        let site = SiteId::new(2);
        let spec =
            TaskSpec::new(TaskId::new(1), "t", "app").with_cpu_demand(SimDuration::from_secs(30));
        let meta = gae_trace::TaskMeta::from_spec(&spec);
        // Seed enough history for estimation to succeed. Stack-level
        // estimates read the columnar store, so the seed rows go
        // through the funnel; observe_completion still drives the
        // ring and the memo invalidation.
        let row = |m: &gae_trace::TaskMeta, secs: u64| gae_hist::HistRecord {
            task: 0,
            site: site.raw(),
            nodes: m.nodes as u64,
            submit_us: 0,
            start_us: 0,
            finish_us: 0,
            runtime_us: secs * 1_000_000,
            success: true,
            account: m.account.clone(),
            login: m.login.clone(),
            executable: m.executable.clone(),
            queue: m.queue.clone(),
            partition: m.partition.clone(),
            job_type: m.job_type.to_string(),
        };
        for secs in [20u64, 25, 30, 35] {
            stack
                .estimators
                .observe_completion(site, meta.clone(), SimDuration::from_secs(secs));
            stack.hist.ingest(row(&meta, secs));
        }
        let first = stack.estimators.estimate_runtime(site, &spec).unwrap();
        let (h0, m0) = stack.estimators.memo_stats();
        let second = stack.estimators.estimate_runtime(site, &spec).unwrap();
        let (h1, m1) = stack.estimators.memo_stats();
        assert_eq!(first, second);
        assert_eq!(h1, h0 + 1, "second identical estimate must hit the memo");
        assert_eq!(m1, m0);
        // A completion observation at the site invalidates its entries.
        stack.hist.ingest(row(&meta, 90));
        stack
            .estimators
            .observe_completion(site, meta, SimDuration::from_secs(90));
        let third = stack.estimators.estimate_runtime(site, &spec).unwrap();
        let (_, m2) = stack.estimators.memo_stats();
        assert_eq!(m2, m1 + 1, "post-invalidation estimate must recompute");
        // The recomputed estimate now reflects the observed history.
        assert_ne!(first, third);
    }
}
