//! The steering round's cost contract (DESIGN.md §7.1): a round probes
//! each tracked task at the one site steering tracks it at, and that
//! hint is *verified* — whatever the execution layer did behind
//! steering's back, the hinted probe answers exactly what the
//! grid-wide sweep answers. Count- and equality-based throughout; no
//! wall-clock assertions.

use gae::core::steering::{MoveReason, TaskPhase};
use gae::durable::fault::unique_temp_dir;
use gae::prelude::*;
use gae::trace::ScenarioSpec;
use gae::types::{CondorId, TaskStatus};
use gae_bench::scenario::{apply_fault, build_grid, job_for, ScenarioOptions};
use proptest::prelude::*;
use std::sync::Arc;

/// Every `Submitted` task with the location steering tracks it at,
/// task-id-sorted.
fn tracked_locations(stack: &ServiceStack) -> Vec<(TaskId, SiteId, CondorId)> {
    let mut out: Vec<_> = stack
        .steering
        .export_jobs()
        .iter()
        .flat_map(|job| job.tasks.values())
        .filter_map(|t| match t.phase {
            TaskPhase::Submitted { site, condor } => Some((t.task, site, condor)),
            _ => None,
        })
        .collect();
    out.sort();
    out
}

/// The differential property: for every tracked task the hinted probe
/// equals the sweep, and the look-before-you-build variant either
/// equals it too or skipped a task the sweep also reads as parked.
/// Returns how many tasks were compared.
fn hinted_probe_equals_sweep(stack: &ServiceStack) -> usize {
    let tracked = tracked_locations(stack);
    for &(task, site, condor) in &tracked {
        let swept = stack.jobmon.job_info(task);
        assert_eq!(
            stack.jobmon.job_info_at(task, site, condor),
            swept,
            "{task} tracked at {site}/{condor}"
        );
        let parked = matches!(
            swept.as_ref().map(|i| i.status),
            Ok(TaskStatus::Pending | TaskStatus::Queued | TaskStatus::Suspended)
        );
        let peeked = stack.jobmon.job_info_unless_parked(task, site, condor);
        assert!(
            peeked == swept.clone().map(Some) || (parked && peeked == Ok(None)),
            "{task} tracked at {site}/{condor}: peek {peeked:?} vs sweep {swept:?}"
        );
    }
    tracked.len()
}

/// Advances the grid to `t` event by event, as `run_until` does
/// between polls.
fn advance(grid: &Grid, t: SimTime) {
    loop {
        let now = grid.now();
        match grid.next_event_time() {
            Some(ev) if ev <= now => grid.advance_to(now),
            Some(ev) if ev < t => grid.advance_to(ev),
            _ if now < t => grid.advance_to(t),
            _ => break,
        }
    }
}

/// Drives the chaos-grid smoke scenario (correlated site outage, link
/// flap, heal, Optimizer moves) with flocking switched on, calling
/// `check` on the state each poll is about to see and on the state it
/// leaves behind.
fn drive_chaos(seed: u64, mut check: impl FnMut(&ServiceStack)) -> Arc<ServiceStack> {
    const POLL_S: u64 = 15;
    let spec = ScenarioSpec::chaos_grid(seed).smoke();
    let grid = build_grid(&spec, &ScenarioOptions::default());
    // The loaded survivor (site 3) overflows to every other site and
    // the first two sites to each other, so husks are left at sites
    // both below and above the one a task lands on.
    for to in [1, 2, 4] {
        grid.enable_flocking(SiteId::new(3), SiteId::new(to));
    }
    grid.enable_flocking(SiteId::new(1), SiteId::new(2));
    grid.enable_flocking(SiteId::new(2), SiteId::new(1));
    let stack = ServiceStack::with_policy(
        grid,
        SteeringPolicy::default(),
        SimDuration::from_secs(POLL_S),
    );

    let end = spec.horizon_s + spec.drain_s;
    let mut instants: Vec<u64> = (0..=end / POLL_S).map(|k| k * POLL_S).collect();
    instants.extend(spec.faults.iter().map(|f| f.at_s));
    instants.extend(spec.arrivals.iter().map(|a| a.at_s));
    instants.sort();
    instants.dedup();

    let (mut next_fault, mut next_arrival, mut next_task) = (0, 0, 1);
    for t in instants {
        advance(&stack.grid, SimTime::from_secs(t));
        while next_fault < spec.faults.len() && spec.faults[next_fault].at_s <= t {
            apply_fault(&stack.grid, spec.faults[next_fault].kind);
            next_fault += 1;
        }
        while next_arrival < spec.arrivals.len() && spec.arrivals[next_arrival].at_s <= t {
            let (job, _) = job_for(&spec, next_arrival, &mut next_task);
            // Unschedulable during the outage is a legitimate answer.
            let _ = stack.submit_job(job);
            next_arrival += 1;
        }
        check(&stack);
        stack.poll();
        check(&stack);
    }
    stack
}

/// The fixed-seed run, with the evidence that it is not vacuous: tasks
/// were compared, every kind of relocation happened, and the work
/// settled.
#[test]
fn hinted_probe_equals_sweep_through_the_chaos_grid() {
    let mut compared = 0;
    let stack = drive_chaos(2005, |s| compared += hinted_probe_equals_sweep(s));
    assert!(compared > 0, "no tracked task was ever compared");
    let moves = stack.steering.move_log();
    for reason in [
        MoveReason::Recovery,
        MoveReason::Flocked,
        MoveReason::SlowProgress,
    ] {
        assert!(
            moves.iter().any(|m| m.reason == reason),
            "the scenario never exercised a {reason:?} move"
        );
    }
    let jobs = stack.steering.export_jobs();
    assert!(!jobs.is_empty());
    for job in &jobs {
        assert!(job.is_settled(), "{} never settled", job.plan.job_id());
        assert!(job.completion_notified);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(6)
    ))]

    /// Any seed: at every poll of the chaos grid, before and after,
    /// `job_info_at(tracked location) == job_info(task)`.
    #[test]
    fn hinted_probe_equals_sweep_for_any_seed(seed in 0u64..1_000_000) {
        drive_chaos(seed, |s| {
            hinted_probe_equals_sweep(s);
        });
    }
}

fn two_sites() -> Arc<Grid> {
    GridBuilder::new()
        .site(SiteDescription::new(SiteId::new(1), "a", 2, 1))
        .site(SiteDescription::new(SiteId::new(2), "b", 2, 1))
        .build()
}

fn one_task_job(demand_s: u64) -> JobSpec {
    let mut job = JobSpec::new(JobId::new(1), "solo", UserId::new(1));
    job.add_task(
        TaskSpec::new(TaskId::new(1), "t", "x").with_cpu_demand(SimDuration::from_secs(demand_s)),
    );
    job
}

/// The execution layer moves a task and tells nobody: steering's hint
/// names a `Migrating` husk. The probe must notice, resolve through
/// `locate`, and the job must still settle.
#[test]
fn stale_hint_still_settles_through_locate() {
    let grid = two_sites();
    let stack = ServiceStack::over(grid.clone());
    stack
        .submit_plan(&AbstractPlan::new(one_task_job(100)).restricted_to(vec![SiteId::new(1)]))
        .unwrap();
    stack.run_until(SimTime::from_secs(10));
    let (task, site, condor) = tracked_locations(&stack)[0];
    assert_eq!(site, SiteId::new(1));

    let (spec, checkpoint) = grid
        .exec(site)
        .unwrap()
        .lock()
        .remove_for_migration(condor)
        .unwrap();
    let moved = grid.submit(SiteId::new(2), spec, checkpoint).unwrap();

    // Steering was not told: it still tracks the husk.
    assert_eq!(tracked_locations(&stack), vec![(task, site, condor)]);
    let info = stack.jobmon.job_info_at(task, site, condor).unwrap();
    assert_eq!((info.site, info.condor), (SiteId::new(2), moved));
    assert_eq!(info.status, TaskStatus::Running);
    hinted_probe_equals_sweep(&stack);

    stack.run_until(SimTime::from_secs(300));
    let job = stack.steering.tracked_job(JobId::new(1)).unwrap();
    assert!(job.is_completed(), "{:?}", job.tasks);
    assert!(stack
        .steering
        .drain_notifications()
        .iter()
        .any(|n| matches!(n, Notification::JobCompleted { .. })));
}

/// Submit and move within one virtual instant: the husk at site 1 and
/// the record at site 2 carry the same `submitted_at`. Once site 2's
/// record turned terminal the sweep used to prefer the husk (earlier
/// site wins a tie) and the job never settled.
#[test]
fn same_instant_submit_then_move_settles() {
    let stack = ServiceStack::over(two_sites());
    stack
        .submit_plan(&AbstractPlan::new(one_task_job(60)).restricted_to(vec![SiteId::new(1)]))
        .unwrap();
    stack
        .steering
        .command(
            UserId::new(1),
            TaskId::new(1),
            SteeringCommand::Move(Some(SiteId::new(2))),
        )
        .unwrap();
    assert_eq!(stack.grid.now(), SimTime::ZERO);
    assert_eq!(tracked_locations(&stack)[0].1, SiteId::new(2));

    stack.run_until(SimTime::from_secs(200));
    assert!(stack
        .steering
        .tracked_job(JobId::new(1))
        .unwrap()
        .is_completed());
    // The unhinted RPC path agrees.
    let info = stack.jobmon.job_info(TaskId::new(1)).unwrap();
    assert_eq!(
        (info.status, info.site),
        (TaskStatus::Completed, SiteId::new(2))
    );
}

/// A workload that, at the crash point, holds jobs in every state the
/// live-job set must get right: settled and notified, in flight, and
/// part-way through a chain.
fn restart_workload(stack: &ServiceStack) {
    let mut next_task = 1;
    let mut job = |id: u64, demands: &[u64], chain: bool| {
        let mut job = JobSpec::new(JobId::new(id), format!("j{id}"), UserId::new(1));
        let mut previous = None;
        for demand in demands {
            let task = TaskId::new(next_task);
            next_task += 1;
            job.add_task(
                TaskSpec::new(task, format!("t{task}"), "x")
                    .with_cpu_demand(SimDuration::from_secs(*demand)),
            );
            if let (true, Some(before)) = (chain, previous) {
                job.add_dependency(before, task);
            }
            previous = Some(task);
        }
        stack.submit_job(job).unwrap();
    };
    job(1, &[10], false);
    job(2, &[20, 15], false);
    job(3, &[30, 400], true);
    job(4, &[500], false);
    job(5, &[25, 200, 600], true);
}

/// What the tracker holds, without the Condor ids a re-arm reissues.
fn tracker_summary(stack: &ServiceStack) -> Vec<String> {
    stack
        .steering
        .export_jobs()
        .iter()
        .map(|job| {
            let mut tasks: Vec<_> = job
                .tasks
                .values()
                .map(|t| {
                    let phase = match t.phase {
                        TaskPhase::Submitted { site, .. } => format!("submitted@{site}"),
                        other => format!("{other:?}"),
                    };
                    (t.task, phase)
                })
                .collect();
            tasks.sort();
            format!(
                "{} notified={} {tasks:?}",
                job.plan.job_id(),
                job.completion_notified
            )
        })
        .collect()
}

/// Polls `stack` to settlement and returns the jobs it reported
/// completed, sorted.
fn settle(stack: &ServiceStack, until_s: u64) -> Vec<JobId> {
    stack.run_until(SimTime::from_secs(until_s));
    let mut completed: Vec<JobId> = stack
        .steering
        .drain_notifications()
        .into_iter()
        .filter_map(|n| match n {
            Notification::JobCompleted { job, .. } => Some(job),
            _ => None,
        })
        .collect();
    completed.sort();
    completed
}

/// Crash at 120 s, recover, and compare with a twin that never
/// crashed: same tracker at the crash point, same jobs reported
/// completed afterwards, same tracker at the end. A job missing from
/// the rebuilt live set would never be polled again and never settle.
fn restart_rebuilds_the_live_set(tag: &str, snapshot_every_s: u64) -> RecoveryReport {
    const CRASH_S: u64 = 120;
    let build = |persist: Option<&PersistenceConfig>| {
        let mut builder = GridBuilder::new();
        for s in 1..=3 {
            builder = builder.site(SiteDescription::new(SiteId::new(s), format!("s{s}"), 2, 2));
        }
        if let Some(config) = persist {
            builder = builder.persist(config.clone());
        }
        builder.build()
    };
    let run_to_crash = |stack: &ServiceStack| {
        restart_workload(stack);
        for t in [CRASH_S / 2, CRASH_S] {
            stack.run_until(SimTime::from_secs(t));
        }
    };

    let dir = unique_temp_dir(tag);
    let config = PersistenceConfig::new(&dir)
        .snapshot_every(SimDuration::from_secs(snapshot_every_s))
        .fsync(false);
    run_to_crash(&ServiceStack::over(build(Some(&config))));
    let (recovered, report) = ServiceStack::recover_from_disk(
        build(None),
        SteeringPolicy::default(),
        SimDuration::from_secs(5),
        &config,
    )
    .unwrap();

    let online = ServiceStack::over(build(None));
    run_to_crash(&online);
    let at_crash = tracker_summary(&online);
    assert!(at_crash.iter().any(|j| j.contains("notified=true")));
    assert!(at_crash.iter().any(|j| j.contains("submitted@")));
    assert!(at_crash.iter().any(|j| j.contains("WaitingPrereqs")));
    assert_eq!(tracker_summary(&recovered), at_crash);
    online.steering.drain_notifications();

    // The recovered clock restarts at zero and re-armed tasks restart
    // from scratch; both horizons are far past the longest chain.
    let completed_online = settle(&online, CRASH_S + 2_000);
    let completed_recovered = settle(&recovered, 2_000);
    assert_eq!(completed_recovered, completed_online);
    assert_eq!(
        completed_online,
        vec![JobId::new(3), JobId::new(4), JobId::new(5)]
    );
    assert_eq!(tracker_summary(&recovered), tracker_summary(&online));
    std::fs::remove_dir_all(&dir).ok();
    report
}

#[test]
fn live_set_rebuilt_by_wal_replay_equals_online() {
    let report = restart_rebuilds_the_live_set("steering-round-wal", 1_000_000);
    assert!(report.replayed_records > 0, "{report:?}");
}

#[test]
fn live_set_rebuilt_by_snapshot_restore_equals_online() {
    let report = restart_rebuilds_the_live_set("steering-round-snap", 30);
    assert_eq!(report.replayed_records, 0, "{report:?}");
}

/// `list_active` as it was before the hinted probe: one sweep per
/// task and a quadratic dedupe.
fn list_active_by_sweep(stack: &ServiceStack) -> Vec<JobMonitoringInfo> {
    let mut out: Vec<JobMonitoringInfo> = Vec::new();
    for site in stack.grid.site_ids() {
        let tasks: Vec<TaskId> = stack
            .grid
            .exec(site)
            .unwrap()
            .lock()
            .records()
            .filter(|r| {
                matches!(
                    r.status,
                    TaskStatus::Queued | TaskStatus::Running | TaskStatus::Suspended
                )
            })
            .map(|r| r.spec.id)
            .collect();
        for task in tasks {
            if let Ok(info) = stack.jobmon.job_info(task) {
                if !out.iter().any(|i| i.task == info.task) {
                    out.push(info);
                }
            }
        }
    }
    out.sort_by_key(|i| i.task);
    out
}

/// `job_tasks` as it was: stored ids first, live ids appended unless
/// already `contains`ed, sorted, one sweep each.
fn job_tasks_by_sweep(stack: &ServiceStack, job: JobId) -> Vec<JobMonitoringInfo> {
    let mut ids: Vec<TaskId> = stack
        .jobmon
        .manager()
        .db()
        .job_tasks(job)
        .into_iter()
        .map(|i| i.task)
        .collect();
    let mut live: Vec<TaskId> = Vec::new();
    for site in stack.grid.site_ids() {
        for rec in stack.grid.exec(site).unwrap().lock().records() {
            if rec.spec.job == job && !live.contains(&rec.spec.id) {
                live.push(rec.spec.id);
            }
        }
    }
    live.sort();
    for task in live {
        if !ids.contains(&task) {
            ids.push(task);
        }
    }
    ids.sort();
    ids.into_iter()
        .filter_map(|t| stack.jobmon.job_info(t).ok())
        .collect()
}

/// 64 sites with flocking rings (husks), an outage (recovery moves,
/// stored failure snapshots), kills and pauses: the monitoring read
/// path must list exactly what the sweep-per-task version listed, in
/// the same order.
#[test]
fn list_active_and_job_tasks_match_the_sweep_on_64_sites() {
    const SITES: u64 = 64;
    const JOBS: u64 = 48;
    let mut builder = GridBuilder::new();
    for s in 1..=SITES {
        let site = SiteDescription::new(SiteId::new(s), format!("s{s}"), 1, 2);
        builder = if s % 4 == 0 {
            builder.site_with_load(site, 1.0)
        } else {
            builder.site(site)
        };
    }
    let grid = builder.build();
    for s in 1..=SITES {
        grid.enable_flocking(SiteId::new(s), SiteId::new(s % SITES + 1));
    }
    let stack = ServiceStack::over(grid.clone());
    let user = UserId::new(1);
    for j in 1..=JOBS {
        let mut job = JobSpec::new(JobId::new(j), format!("j{j}"), user);
        for k in 0..6 {
            job.add_task(
                TaskSpec::new(TaskId::new(j * 100 + k), format!("t{j}-{k}"), "x")
                    .with_cpu_demand(SimDuration::from_secs(20 + (j * 7 + k * 13) % 200)),
            );
        }
        job.add_dependency(TaskId::new(j * 100), TaskId::new(j * 100 + 5));
        // Crowd a quarter of the grid so queues form and flock.
        let sites = (1..=SITES / 4).map(SiteId::new).collect();
        stack
            .submit_plan(&AbstractPlan::new(job).restricted_to(sites))
            .unwrap();
    }

    let compare = |when: &str| {
        let active = stack.jobmon.list_active();
        assert_eq!(active, list_active_by_sweep(&stack), "list_active {when}");
        for j in 1..=JOBS {
            assert_eq!(
                stack.jobmon.job_tasks(JobId::new(j)),
                job_tasks_by_sweep(&stack, JobId::new(j)),
                "job_tasks({j}) {when}"
            );
        }
        active.len()
    };

    assert!(compare("at submission") > 0);
    stack.run_until(SimTime::from_secs(30));
    assert!(stack
        .steering
        .move_log()
        .iter()
        .any(|m| m.reason == MoveReason::Flocked));
    assert!(compare("after flocking") > 0);

    for s in [2, 3] {
        grid.exec(SiteId::new(s)).unwrap().lock().fail_site();
    }
    let tracked = tracked_locations(&stack);
    for (i, (task, _, _)) in tracked.iter().enumerate().take(12) {
        let cmd = if i % 2 == 0 {
            SteeringCommand::Pause
        } else {
            SteeringCommand::Kill
        };
        let _ = stack.steering.command(user, *task, cmd);
    }
    compare("after outage, kills and pauses, before the poll");
    stack.run_until(SimTime::from_secs(90));
    assert!(compare("after recovery") > 0);
    stack.run_until(SimTime::from_secs(2_000));
    compare("after settlement");
}
