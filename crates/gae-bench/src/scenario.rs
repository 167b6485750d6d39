//! The scenario runner: executes one named [`ScenarioSpec`] end to
//! end through the full service stack and machine-checks its declared
//! invariants.
//!
//! The runner plays the role of the paper's client community: each
//! scenario arrival knocks on the admission gate
//! ([`gae_gate::Gate::admit`]), queues in a bounded
//! [`AdmissionQueue`] (where flash crowds are shed by class), and is
//! pumped into [`ServiceStack::submit_job`] at a fixed service rate.
//! Fault events hit the fabric directly — site outages through the
//! execution services, link failures through the transfer scheduler —
//! and an optional crash tick drops the whole stack mid-scenario and
//! recovers it from the durable store. With
//! [`ScenarioOptions::replication`] set, the stack's WAL is mirrored
//! into an in-process follower cluster ([`gae_repl::ReplicatedLog`] in
//! attached mode) and a [`FaultKind::LeaderLoss`] event kills the
//! leader mid-schedule: a follower is promoted by deterministic
//! election and the run continues from its recovered state, checked
//! prefix-consistent against what the dead leader's own store would
//! have recovered to. After the drain horizon every declared
//! [`Invariant`] is evaluated; violations come back as strings in
//! [`ScenarioReport::invariant_failures`] (empty = the scenario kept
//! its promises), and per-scenario metrics are published to MonALISA
//! under entity `"scenario"`.

use gae_core::grid::{Grid, GridBuilder, ServiceStack};
use gae_core::persist::PersistenceConfig;
use gae_core::steering::SteeringPolicy;
use gae_gate::{
    AdmissionQueue, GateConfig, GateStats, Popped, Principal, QueueConfig, TokenBucketConfig,
};
use gae_monitor::MetricBatch;
use gae_trace::scenario::{FaultKind, Invariant, ScenarioSpec};
use gae_types::{
    FileRef, JobId, JobSpec, SimDuration, SimTime, SiteDescription, SiteId, TaskId, TaskSpec,
    TaskStatus, UserId,
};
use gae_xfer::XferCounters;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

/// Capacity of the front-door admission queue the runner builds.
pub const QUEUE_CAPACITY: usize = 12;
/// Queue deadline: a request unserved this long expires.
const QUEUE_DEADLINE_S: u64 = 600;
/// Jobs pumped from the queue into the scheduler per poll boundary.
const PUMP_PER_BOUNDARY: usize = 2;
/// Drain-phase chunk between settlement checks.
const DRAIN_CHUNK_S: u64 = 120;

/// How one scenario run is executed.
#[derive(Clone, Debug)]
pub struct ScenarioOptions {
    /// Autonomous steering migration (the Optimizer) on or off.
    pub migration: bool,
    /// Honour the spec's `crash_at_s` tick (needs `persist_dir`).
    pub crash: bool,
    /// Durable-store directory for the crash path.
    pub persist_dir: Option<std::path::PathBuf>,
    /// Followers mirroring the stack's WAL (0 = replication off;
    /// needs `persist_dir`). With followers attached, a
    /// [`FaultKind::LeaderLoss`] event in the spec kills the leader
    /// and promotes one of them.
    pub replication: usize,
    /// Service polling period in seconds.
    pub poll_secs: u64,
}

impl Default for ScenarioOptions {
    fn default() -> Self {
        ScenarioOptions {
            migration: true,
            crash: false,
            persist_dir: None,
            replication: 0,
            poll_secs: 15,
        }
    }
}

/// What one scenario run produced.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: &'static str,
    /// Arrivals offered to the gate.
    pub offered: usize,
    /// Jobs admitted (gate + queue) and scheduled.
    pub submitted: usize,
    /// Arrivals refused: rate-limited at the gate, displaced from or
    /// refused by the bounded queue, or expired unserved.
    pub shed: usize,
    /// Tasks completed.
    pub completed: usize,
    /// Tasks failed or killed.
    pub failed: usize,
    /// Steering moves (recovery + slow-progress).
    pub moves: usize,
    /// Tasks re-armed by crash recovery (empty without a crash).
    pub resubmitted: Vec<TaskId>,
    /// Latest task completion instant (seconds of the final clock).
    pub makespan_s: f64,
    /// Mean completion instant across completed tasks.
    pub mean_completion_s: f64,
    /// Gate counters at the end of the run.
    pub gate: GateStats,
    /// Transfer-plane counters at the end of the run.
    pub xfer: XferCounters,
    /// Violated invariants (empty = all promises kept).
    pub invariant_failures: Vec<String>,
    /// Canonical run digest: byte-identical run to run.
    pub digest: String,
    /// [`ServiceStack::query_state`] of the final stack: the
    /// CRC of its full snapshot, metric series included (the digest
    /// above covers task states and counters only).
    pub state_crc: String,
}

fn sid(index: usize) -> SiteId {
    SiteId::new(index as u64 + 1)
}

/// The runner's gate shape: a deliberately small per-VO token bucket
/// (a flash crowd must visibly overflow it) over the bounded queue.
fn gate_config() -> GateConfig {
    GateConfig {
        bucket: TokenBucketConfig::new(6.0, 0.04),
        queue: QueueConfig::new(QUEUE_CAPACITY, SimDuration::from_secs(QUEUE_DEADLINE_S)),
        ..GateConfig::default()
    }
}

/// The scenario's grid: its sites under the runner's gate shape.
pub fn build_grid(spec: &ScenarioSpec, opts: &ScenarioOptions) -> Arc<Grid> {
    let mut builder = GridBuilder::new().gate(gate_config());
    for (i, site) in spec.sites.iter().enumerate() {
        builder = builder.site_with_load(
            SiteDescription::new(sid(i), format!("site-{i}"), site.nodes, site.slots),
            site.load,
        );
    }
    if let Some(dir) = &opts.persist_dir {
        builder = builder.persist(
            PersistenceConfig::new(dir)
                .snapshot_every(SimDuration::from_secs(300))
                .fsync(false),
        );
    }
    builder.build()
}

fn policy_for(opts: &ScenarioOptions) -> SteeringPolicy {
    SteeringPolicy {
        auto_move: opts.migration,
        ..SteeringPolicy::default()
    }
}

/// Builds the `JobSpec` for one scenario arrival. Task ids are
/// allocated from a global counter so the job monitor can index them.
pub fn job_for(
    spec: &ScenarioSpec,
    arrival_index: usize,
    next_task: &mut u64,
) -> (JobSpec, Vec<TaskId>) {
    let arrival = &spec.arrivals[arrival_index];
    let mut job = JobSpec::new(
        JobId::new(arrival_index as u64 + 1),
        format!("{}-j{}", spec.name, arrival_index + 1),
        UserId::new(arrival.vo as u64),
    );
    let mut tasks = Vec::new();
    for shape in &arrival.tasks {
        let id = TaskId::new(*next_task);
        *next_task += 1;
        let inputs: Vec<FileRef> = shape
            .inputs
            .iter()
            .map(|f| {
                let file = &spec.files[*f];
                FileRef::new(&file.lfn, file.size_bytes)
                    .with_replicas(file.homes.iter().map(|h| sid(*h)).collect())
            })
            .collect();
        tasks.push(
            job.add_task(
                TaskSpec::new(id, format!("t{}", id), "analysis")
                    .with_cpu_demand(SimDuration::from_secs(shape.demand_s))
                    .with_inputs(inputs),
            ),
        );
    }
    (job, tasks)
}

/// Injects one fabric fault (site outage/heal, link failure/heal).
pub fn apply_fault(grid: &Grid, kind: FaultKind) {
    match kind {
        FaultKind::SiteDown(i) => {
            if let Ok(exec) = grid.exec(sid(i)) {
                exec.lock().fail_site();
            }
        }
        FaultKind::SiteUp(i) => {
            if let Ok(exec) = grid.exec(sid(i)) {
                exec.lock().recover_site();
            }
        }
        FaultKind::LinkDown(a, b) => grid.with_xfer(|x| x.fail_link(sid(a), sid(b))),
        FaultKind::LinkUp(a, b) => grid.with_xfer(|x| x.heal_link(sid(a), sid(b))),
        // A control-plane fault, not a fabric one: the runner handles
        // it at the boundary (see the failover block in
        // `run_scenario`); ignored when replication is off.
        FaultKind::LeaderLoss => {}
    }
}

/// Heal any Down fault among `injected` whose pairing Up was trimmed
/// from the timeline, so the drain phase after a crash or failover
/// can settle everything (specs pair every Down with an Up, but the
/// Ups may land after the interruption tick).
fn heal_unpaired(grid: &Grid, injected: &[gae_trace::scenario::FaultEvent]) {
    for f in injected {
        match f.kind {
            FaultKind::SiteDown(i)
                if !injected
                    .iter()
                    .any(|g| g.at_s > f.at_s && g.kind == FaultKind::SiteUp(i)) =>
            {
                apply_fault(grid, FaultKind::SiteUp(i))
            }
            FaultKind::LinkDown(a, b)
                if !injected
                    .iter()
                    .any(|g| g.at_s > f.at_s && g.kind == FaultKind::LinkUp(a, b)) =>
            {
                apply_fault(grid, FaultKind::LinkUp(a, b))
            }
            _ => {}
        }
    }
}

/// Executes `spec` under `opts`. Panics only on structural misuse
/// (crash requested without a persistence directory); scenario
/// misbehaviour is reported, not panicked.
pub fn run_scenario(spec: &ScenarioSpec, opts: &ScenarioOptions) -> ScenarioReport {
    assert!(
        !opts.crash || opts.persist_dir.is_some(),
        "crash runs need a persistence directory"
    );
    assert!(
        opts.replication == 0 || opts.persist_dir.is_some(),
        "replicated runs need a persistence directory"
    );
    let crash_at = opts.crash.then_some(spec.crash_at_s).flatten();
    let leader_loss_at = if opts.replication > 0 {
        spec.faults
            .iter()
            .find(|f| f.kind == FaultKind::LeaderLoss)
            .map(|f| f.at_s)
    } else {
        None
    };
    assert!(
        crash_at.is_none() || leader_loss_at.is_none(),
        "a run crashes or loses its leader, not both"
    );
    let mut stack = ServiceStack::with_policy(
        build_grid(spec, opts),
        policy_for(opts),
        SimDuration::from_secs(opts.poll_secs),
    );
    // Replication: mirror the leader's WAL into an in-process
    // follower cluster living beside the leader's store (the store
    // only reads `snapshot.*`/`wal.*` entries, so the subdirectory is
    // invisible to it).
    let cluster = if opts.replication > 0 {
        let cluster = gae_repl::ReplicatedLog::attached(
            &opts.persist_dir.as_ref().expect("checked").join("repl"),
            gae_repl::ReplConfig {
                followers: opts.replication,
                fsync: false,
            },
        )
        .expect("follower cluster creation failed");
        stack
            .attach_replication(cluster.clone())
            .expect("replication attach failed");
        Some(cluster)
    } else {
        None
    };
    // The front door: the stack's gate classifies and rate-limits,
    // this queue holds classified work until the pump serves it.
    // Sharing the gate's metrics sink makes queue depth and shedding
    // flow into `gate.stats()` (and MonALISA) like any other gate.
    let queue = AdmissionQueue::new(
        gate_config().queue,
        stack.gate.clock(),
        stack.gate.metrics(),
    );

    // Every instant something happens, plus a poll-aligned pump grid.
    let mut boundaries: BTreeSet<u64> = spec.arrivals.iter().map(|a| a.at_s).collect();
    boundaries.extend(spec.faults.iter().map(|f| f.at_s));
    boundaries.extend((1..=spec.horizon_s / opts.poll_secs).map(|k| k * opts.poll_secs));
    if let Some(c) = crash_at.or(leader_loss_at) {
        boundaries.retain(|b| *b <= c);
        boundaries.insert(c);
    } else {
        boundaries.insert(spec.horizon_s);
    }

    let mut next_arrival = 0usize;
    let mut next_fault = 0usize;
    let mut next_task = 1u64;
    let mut offered = 0usize;
    let mut shed = 0usize;
    let mut submitted_jobs: Vec<JobId> = Vec::new();
    let mut resubmitted: Vec<TaskId> = Vec::new();
    let mut recovered = false;
    let mut failover_failures: Vec<String> = Vec::new();

    // Single-node recovery against one store directory: the crash
    // path runs it on the leader's own store, the failover path on
    // the promoted follower's (and on the leader's, as the oracle).
    let recover = |dir: &std::path::Path| {
        let config = PersistenceConfig::new(dir)
            .snapshot_every(SimDuration::from_secs(300))
            .fsync(false);
        ServiceStack::recover_from_disk(
            build_grid(
                spec,
                &ScenarioOptions {
                    persist_dir: None, // the store is resumed, not re-created
                    ..opts.clone()
                },
            ),
            policy_for(opts),
            SimDuration::from_secs(opts.poll_secs),
            &config,
        )
    };

    let pump = |queue: &AdmissionQueue<JobSpec>,
                stack: &ServiceStack,
                shed: &mut usize,
                submitted: &mut Vec<JobId>,
                budget: usize| {
        for _ in 0..budget {
            match queue.pop_blocking(Duration::ZERO) {
                Some(Popped::Run(_, job)) => {
                    let id = job.id;
                    if stack.submit_job(job).is_ok() {
                        submitted.push(id);
                    } else {
                        *shed += 1;
                    }
                }
                Some(Popped::Expired(_, _)) => *shed += 1,
                None => break,
            }
        }
    };

    for &t in &boundaries {
        stack.run_until(SimTime::from_secs(t));
        while next_fault < spec.faults.len() && spec.faults[next_fault].at_s <= t {
            apply_fault(&stack.grid, spec.faults[next_fault].kind);
            next_fault += 1;
        }
        while next_arrival < spec.arrivals.len() && spec.arrivals[next_arrival].at_s <= t {
            offered += 1;
            let vo = spec.arrivals[next_arrival].vo;
            let principal = Principal::anonymous(format!("vo{vo}"));
            match stack.gate.admit(&principal) {
                Ok(class) => {
                    let (job, _) = job_for(spec, next_arrival, &mut next_task);
                    match queue.push(class, job) {
                        Ok(displaced) => shed += displaced.len(),
                        Err(_retry_after) => shed += 1,
                    }
                }
                Err(_) => shed += 1,
            }
            next_arrival += 1;
        }
        pump(
            &queue,
            &stack,
            &mut shed,
            &mut submitted_jobs,
            PUMP_PER_BOUNDARY,
        );
        if crash_at == Some(t) {
            // The process dies here: the stack (and its in-memory
            // state) is gone; only the durable store survives. The
            // front-door queue is client-side state, so it survives
            // the server crash and drains into the recovered stack.
            drop(stack);
            let (recovered_stack, report) = recover(opts.persist_dir.as_ref().expect("checked"))
                .expect("mid-scenario recovery failed");
            stack = recovered_stack;
            resubmitted = report.resubmitted.clone();
            recovered = true;
            // Faults already injected live in exec/xfer state that
            // the durable store restores; anything scheduled after
            // the crash was trimmed from `boundaries` above.
            heal_unpaired(&stack.grid, &spec.faults[..next_fault]);
        }
        if leader_loss_at == Some(t) {
            // The leader dies mid-schedule. First take the oracle:
            // ordinary single-node recovery of the dead leader's own
            // store — the state a correct failover must reproduce.
            // Then run the deterministic election and recover the
            // promoted follower's store instead; the run continues on
            // the promoted stack.
            drop(stack);
            let cluster = cluster.as_ref().expect("replication attached");
            let (oracle, oracle_report) = recover(opts.persist_dir.as_ref().expect("checked"))
                .expect("oracle recovery of the dead leader failed");
            let promotion = cluster.fail_leader().expect("election failed");
            let (promoted, report) =
                recover(&promotion.dir).expect("promoted-follower recovery failed");
            if report.commit_index != oracle_report.commit_index {
                failover_failures.push(format!(
                    "{} recovered commit {} != leader commit {}",
                    promotion.node, report.commit_index, oracle_report.commit_index
                ));
            }
            if promoted.query_state() != oracle.query_state() {
                failover_failures.push(format!(
                    "{} state digest {} != leader digest {} at commit {}",
                    promotion.node,
                    promoted.query_state(),
                    oracle.query_state(),
                    report.commit_index
                ));
            }
            drop(oracle);
            stack = promoted;
            resubmitted = report.resubmitted.clone();
            recovered = true;
            heal_unpaired(&stack.grid, &spec.faults[..next_fault]);
        }
    }

    // Drain: serve the queue's remainder, then run in chunks until
    // every submitted job settles (or the drain budget runs out —
    // which the starvation invariant will then report).
    let mut drained = stack.grid.now().as_secs_f64() as u64;
    let drain_deadline = drained + spec.drain_s;
    loop {
        pump(&queue, &stack, &mut shed, &mut submitted_jobs, usize::MAX);
        let all_settled = submitted_jobs.iter().all(|j| {
            stack
                .steering
                .tracked_job(*j)
                .map(|tj| tj.is_settled())
                .unwrap_or(true)
        });
        if (all_settled && queue.depth() == 0) || drained >= drain_deadline {
            break;
        }
        drained = (drained + DRAIN_CHUNK_S).min(drain_deadline);
        stack.run_until(SimTime::from_secs(drained));
    }

    finish(
        spec,
        opts,
        &stack,
        FinishState {
            offered,
            shed,
            submitted_jobs,
            resubmitted,
            recovered,
            expect_recovery: opts.crash || leader_loss_at.is_some(),
            failover_failures,
        },
    )
}

struct FinishState {
    offered: usize,
    shed: usize,
    submitted_jobs: Vec<JobId>,
    resubmitted: Vec<TaskId>,
    recovered: bool,
    /// A crash tick or leader loss was scheduled, so the run must
    /// have gone through recovery.
    expect_recovery: bool,
    /// Prefix-consistency violations recorded at the failover tick.
    failover_failures: Vec<String>,
}

fn finish(
    spec: &ScenarioSpec,
    opts: &ScenarioOptions,
    stack: &ServiceStack,
    state: FinishState,
) -> ScenarioReport {
    let snapshot = stack.jobmon.db_snapshot();
    let completed = snapshot
        .iter()
        .filter(|i| i.status == TaskStatus::Completed)
        .count();
    let failed = snapshot
        .iter()
        .filter(|i| matches!(i.status, TaskStatus::Failed | TaskStatus::Killed))
        .count();
    let completions: Vec<f64> = snapshot
        .iter()
        .filter(|i| i.status == TaskStatus::Completed)
        .filter_map(|i| i.completed_at.map(|t| t.as_secs_f64()))
        .collect();
    let makespan_s = completions.iter().cloned().fold(0.0, f64::max);
    let mean_completion_s = if completions.is_empty() {
        0.0
    } else {
        completions.iter().sum::<f64>() / completions.len() as f64
    };
    let gate = stack.gate.stats();
    let xfer = stack.grid.xfer_metrics().counters;
    let moves = stack.steering.move_log().len();
    let digest = digest(stack, &gate, &xfer);
    let invariant_failures = check_invariants(spec, opts, stack, &state, &gate, &snapshot);

    // Per-scenario metrics under entity "scenario" (site 0 = grid-
    // wide), parameters prefixed with the scenario name.
    let mut batch = MetricBatch::at(stack.grid.now());
    batch.gauges(
        "scenario",
        [
            ("offered", state.offered as f64),
            ("submitted", state.submitted_jobs.len() as f64),
            ("shed", state.shed as f64),
            ("completed", completed as f64),
            ("failed", failed as f64),
            ("moves", moves as f64),
            ("resubmitted", state.resubmitted.len() as f64),
            ("makespan_s", makespan_s),
            ("mean_completion_s", mean_completion_s),
            ("invariant_failures", invariant_failures.len() as f64),
        ]
        .map(|(param, value)| (format!("{}_{param}", spec.name), value)),
    );
    stack.grid.monitor().publish_batch(batch);

    ScenarioReport {
        name: spec.name,
        offered: state.offered,
        submitted: state.submitted_jobs.len(),
        shed: state.shed,
        completed,
        failed,
        moves,
        resubmitted: state.resubmitted,
        makespan_s,
        mean_completion_s,
        gate,
        xfer,
        invariant_failures,
        digest,
        state_crc: stack.query_state(),
    }
}

/// Canonical end-state digest: per-task terminal state (sorted), the
/// final clock, and the gate/xfer counters. Byte-identical digests
/// from two runs of one seed are the determinism contract.
fn digest(stack: &ServiceStack, gate: &GateStats, xfer: &XferCounters) -> String {
    let mut tasks: Vec<String> = stack
        .jobmon
        .db_snapshot()
        .iter()
        .map(|i| {
            format!(
                "{}:{:?}@{:?} s={:?} c={:?}",
                i.task, i.status, i.site, i.started_at, i.completed_at
            )
        })
        .collect();
    tasks.sort();
    format!(
        "now={} admitted={:?} shed={:?} xfer={}/{}/{} | {}",
        stack.grid.now(),
        gate.admitted,
        gate.shed,
        xfer.completed,
        xfer.failed,
        xfer.retried,
        tasks.join("; ")
    )
}

fn check_invariants(
    spec: &ScenarioSpec,
    opts: &ScenarioOptions,
    stack: &ServiceStack,
    state: &FinishState,
    gate: &GateStats,
    snapshot: &[gae_core::jobmon::JobMonitoringInfo],
) -> Vec<String> {
    let mut failures = Vec::new();
    for invariant in &spec.invariants {
        match invariant {
            Invariant::NoAdmittedStarvation => {
                let starved: Vec<JobId> = state
                    .submitted_jobs
                    .iter()
                    .filter(|j| {
                        stack
                            .steering
                            .tracked_job(**j)
                            .map(|tj| !tj.is_settled())
                            .unwrap_or(false)
                    })
                    .copied()
                    .collect();
                if !starved.is_empty() {
                    failures.push(format!(
                        "NoAdmittedStarvation: {} admitted jobs never settled: {:?}",
                        starved.len(),
                        starved
                    ));
                }
            }
            Invariant::BoundedQueueDepth => {
                if gate.peak_queue_depth > QUEUE_CAPACITY {
                    failures.push(format!(
                        "BoundedQueueDepth: peak depth {} exceeds capacity {}",
                        gate.peak_queue_depth, QUEUE_CAPACITY
                    ));
                }
            }
            Invariant::NoPermanentPending => {
                let stuck: Vec<String> = snapshot
                    .iter()
                    .filter(|i| i.status == TaskStatus::Pending)
                    .map(|i| format!("{}", i.task))
                    .collect();
                if !stuck.is_empty() {
                    failures.push(format!(
                        "NoPermanentPending: tasks left Pending at end: {stuck:?}"
                    ));
                }
            }
            Invariant::ExactlyOnceRearm => {
                if state.expect_recovery {
                    if !state.recovered {
                        failures
                            .push("ExactlyOnceRearm: crash/failover tick never recovered".into());
                    }
                    let mut seen = BTreeSet::new();
                    for t in &state.resubmitted {
                        if !seen.insert(format!("{t}")) {
                            failures.push(format!("ExactlyOnceRearm: {t} re-armed twice"));
                        }
                    }
                }
            }
            // Vacuous without replication attached (the named-fleet
            // default run); with it, the failover block compared the
            // promoted follower's recovery against the dead leader's
            // and recorded any divergence.
            Invariant::PrefixConsistentFailover => {
                if opts.replication > 0 {
                    if !state.recovered {
                        failures.push("PrefixConsistentFailover: leader never failed over".into());
                    }
                    for f in &state.failover_failures {
                        failures.push(format!("PrefixConsistentFailover: {f}"));
                    }
                }
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use gae_durable::fault::unique_temp_dir;

    #[test]
    fn smoke_flash_crowd_keeps_its_invariants() {
        let spec = ScenarioSpec::flash_crowd(42).smoke();
        let report = run_scenario(&spec, &ScenarioOptions::default());
        assert!(
            report.invariant_failures.is_empty(),
            "{:?}",
            report.invariant_failures
        );
        assert!(report.submitted > 0, "no jobs ran");
        assert!(report.completed > 0, "nothing completed");
    }

    #[test]
    fn crash_without_store_is_refused() {
        let spec = ScenarioSpec::chaos_grid(1).smoke();
        let result = std::panic::catch_unwind(|| {
            run_scenario(
                &spec,
                &ScenarioOptions {
                    crash: true,
                    ..ScenarioOptions::default()
                },
            )
        });
        assert!(result.is_err());
    }

    #[test]
    fn replication_without_store_is_refused() {
        let spec = ScenarioSpec::leader_loss(1).smoke();
        let result = std::panic::catch_unwind(|| {
            run_scenario(
                &spec,
                &ScenarioOptions {
                    replication: 2,
                    ..ScenarioOptions::default()
                },
            )
        });
        assert!(result.is_err());
    }

    #[test]
    fn leader_loss_fails_over_and_settles() {
        let dir = unique_temp_dir("scenario-leader-loss");
        let spec = ScenarioSpec::leader_loss(7).smoke();
        let report = run_scenario(
            &spec,
            &ScenarioOptions {
                replication: 2,
                persist_dir: Some(dir.clone()),
                ..ScenarioOptions::default()
            },
        );
        assert!(
            report.invariant_failures.is_empty(),
            "{:?}",
            report.invariant_failures
        );
        assert!(report.submitted > 0, "no jobs ran");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chaos_crash_recovers_and_settles() {
        let dir = unique_temp_dir("scenario-chaos");
        let spec = ScenarioSpec::chaos_grid(3).smoke();
        let report = run_scenario(
            &spec,
            &ScenarioOptions {
                crash: true,
                persist_dir: Some(dir.clone()),
                ..ScenarioOptions::default()
            },
        );
        assert!(
            report.invariant_failures.is_empty(),
            "{:?}",
            report.invariant_failures
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
