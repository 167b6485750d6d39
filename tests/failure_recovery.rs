//! Backup & Recovery (§4.2.4) under every failure mode the substrate
//! can inject: node failure, execution-service failure, repeated
//! failure until the attempt budget runs out, and recovery of the
//! site itself.

use gae::core::steering::{MoveReason, MoveRecord, SteeringPolicy};
use gae::prelude::*;
use std::sync::Arc;

fn grid3() -> Arc<gae::core::Grid> {
    GridBuilder::new()
        .site(SiteDescription::new(SiteId::new(1), "alpha", 2, 1))
        .site(SiteDescription::new(SiteId::new(2), "beta", 2, 1))
        .site(SiteDescription::new(SiteId::new(3), "gamma", 2, 1))
        .build()
}

fn one_task_job(demand_s: u64) -> (JobSpec, TaskId) {
    let mut job = JobSpec::new(JobId::new(1), "fragile", UserId::new(1));
    let task = job.add_task(
        TaskSpec::new(TaskId::new(1), "t", "reco")
            .with_cpu_demand(SimDuration::from_secs(demand_s)),
    );
    (job, task)
}

#[test]
fn site_failure_triggers_rescheduling_and_completion() {
    let grid = grid3();
    let stack = ServiceStack::over(grid.clone());
    let (job, task) = one_task_job(300);
    let plan = stack.submit_job(job).unwrap();
    let first = plan.site_of(task).unwrap();

    stack.run_until(SimTime::from_secs(100));
    grid.exec(first).unwrap().lock().fail_site();
    stack.run_until(SimTime::from_secs(600));

    let info = stack.jobmon.job_info(task).unwrap();
    assert_eq!(info.status, TaskStatus::Completed);
    assert_ne!(info.site, first);
    // Restarted from scratch after ~105 s (first poll past the
    // failure): completion ≈ 405.
    let done = info.completed_at.unwrap().as_secs_f64();
    assert!((done - 405.0).abs() < 10.0, "completion {done}");

    let notes = stack.steering.drain_notifications();
    assert!(notes
        .iter()
        .any(|n| matches!(n, Notification::TaskFailed { .. })));
    assert!(notes.iter().any(|n| matches!(
        n,
        Notification::TaskMoved(MoveRecord {
            reason: MoveReason::Recovery,
            ..
        })
    )));
    assert!(notes
        .iter()
        .any(|n| matches!(n, Notification::JobCompleted { .. })));
}

#[test]
fn node_failure_fails_task_then_recovers_on_same_or_other_site() {
    let grid = grid3();
    let stack = ServiceStack::over(grid.clone());
    let (job, task) = one_task_job(300);
    let plan = stack.submit_job(job).unwrap();
    let first = plan.site_of(task).unwrap();
    stack.run_until(SimTime::from_secs(50));

    // Fail exactly the node hosting the task.
    let node = {
        let exec = grid.exec(first).unwrap();
        let guard = exec.lock();
        let condor = guard.condor_of(task).unwrap();
        guard.record(condor).unwrap().node().unwrap()
    };
    grid.exec(first).unwrap().lock().fail_node(node).unwrap();

    stack.run_until(SimTime::from_secs(600));
    let info = stack.jobmon.job_info(task).unwrap();
    assert_eq!(
        info.status,
        TaskStatus::Completed,
        "recovered after node failure"
    );
    // Recovery excluded the *site* of the failure, so it moved.
    assert_ne!(info.site, first);
}

#[test]
fn recovery_attempts_exhaust_into_job_failure() {
    // Two sites only; we keep killing whichever site hosts the task.
    let grid = GridBuilder::new()
        .site(SiteDescription::new(SiteId::new(1), "alpha", 1, 1))
        .site(SiteDescription::new(SiteId::new(2), "beta", 1, 1))
        .build();
    let policy = SteeringPolicy {
        max_recovery_attempts: 2,
        ..SteeringPolicy::default()
    };
    let stack = ServiceStack::with_policy(grid.clone(), policy, SimDuration::from_secs(5));
    let (job, task) = one_task_job(10_000);
    stack.submit_job(job).unwrap();

    for round in 0..4 {
        stack.run_until(SimTime::from_secs(20 * (round + 1)));
        if let Ok(info) = stack.jobmon.job_info(task) {
            if info.status.is_live() {
                // Revive the other site so the scheduler always has a
                // target, then kill the current host.
                for s in grid.site_ids() {
                    if s != info.site && !grid.is_alive(s) {
                        grid.exec(s).unwrap().lock().recover_site();
                    }
                }
                grid.exec(info.site).unwrap().lock().fail_site();
            }
        }
    }
    stack.run_until(SimTime::from_secs(200));
    let tracked = stack.steering.tracked_job(JobId::new(1)).unwrap();
    assert!(
        tracked.is_failed(),
        "task must be abandoned after 2 attempts"
    );
    assert_eq!(tracked.tasks[&task].recovery_attempts, 3);
    let notes = stack.steering.drain_notifications();
    assert!(notes
        .iter()
        .any(|n| matches!(n, Notification::JobFailed { .. })));
}

#[test]
fn failure_with_no_replacement_site_fails_the_job() {
    let grid = GridBuilder::new()
        .site(SiteDescription::new(SiteId::new(1), "only", 1, 1))
        .build();
    let stack = ServiceStack::over(grid.clone());
    let (job, task) = one_task_job(500);
    stack.submit_job(job).unwrap();
    stack.run_until(SimTime::from_secs(50));
    grid.exec(SiteId::new(1)).unwrap().lock().fail_site();
    stack.run_until(SimTime::from_secs(100));
    let tracked = stack.steering.tracked_job(JobId::new(1)).unwrap();
    assert!(tracked.is_failed());
    let notes = stack.steering.drain_notifications();
    assert!(
        notes.iter().any(|n| matches!(
            n,
            Notification::JobFailed { reason, .. } if reason.contains("no replacement site")
        )),
        "{notes:?}"
    );
    let _ = task;
}

#[test]
fn recovered_site_accepts_new_work() {
    let grid = grid3();
    let stack = ServiceStack::over(grid.clone());
    grid.exec(SiteId::new(1)).unwrap().lock().fail_site();
    assert!(!grid.is_alive(SiteId::new(1)));

    // Scheduling avoids the dead site.
    let (job, task) = one_task_job(50);
    let plan = stack.submit_job(job).unwrap();
    assert_ne!(plan.site_of(task).unwrap(), SiteId::new(1));

    grid.exec(SiteId::new(1)).unwrap().lock().recover_site();
    assert!(grid.is_alive(SiteId::new(1)));
    let mut job2 = JobSpec::new(JobId::new(2), "j2", UserId::new(1));
    let t2 = job2.add_task(
        TaskSpec::new(TaskId::new(2), "t2", "reco").with_cpu_demand(SimDuration::from_secs(50)),
    );
    let plan2 = stack
        .submit_plan(&AbstractPlan::new(job2).restricted_to(vec![SiteId::new(1)]))
        .unwrap();
    assert_eq!(plan2.site_of(t2).unwrap(), SiteId::new(1));
    stack.run_until(SimTime::from_secs(120));
    assert_eq!(
        stack.jobmon.job_info(t2).unwrap().status,
        TaskStatus::Completed
    );
}

#[test]
fn dag_job_survives_mid_pipeline_failure() {
    let grid = grid3();
    let stack = ServiceStack::over(grid.clone());
    let mut job = JobSpec::new(JobId::new(1), "pipeline", UserId::new(1));
    let a = job.add_task(
        TaskSpec::new(TaskId::new(1), "a", "step").with_cpu_demand(SimDuration::from_secs(60)),
    );
    let b = job.add_task(
        TaskSpec::new(TaskId::new(2), "b", "step").with_cpu_demand(SimDuration::from_secs(60)),
    );
    job.add_dependency(a, b);
    stack.submit_job(job).unwrap();

    // Let a finish, let b start, then kill b's site.
    stack.run_until(SimTime::from_secs(80));
    let b_site = stack.jobmon.job_info(b).unwrap().site;
    grid.exec(b_site).unwrap().lock().fail_site();
    stack.run_until(SimTime::from_secs(400));

    assert_eq!(
        stack.jobmon.job_info(a).unwrap().status,
        TaskStatus::Completed
    );
    let b_info = stack.jobmon.job_info(b).unwrap();
    assert_eq!(b_info.status, TaskStatus::Completed);
    assert_ne!(b_info.site, b_site);
    assert_eq!(stack.jobmon.job_status(JobId::new(1)), JobStatus::Completed);
}

/// A successor whose planned site refuses it when its predecessor
/// completes (the site's breaker is open) is placed elsewhere by
/// Backup & Recovery, and the job completes and tells its client.
/// Before, the refusal was dropped: the successor stayed
/// `WaitingPrereqs` and the job never settled.
#[test]
fn a_refused_successor_is_placed_elsewhere() {
    let grid = GridBuilder::new()
        .site(SiteDescription::new(SiteId::new(1), "alpha", 1, 1))
        .site(SiteDescription::new(SiteId::new(2), "beta", 1, 1))
        .build();
    let stack = ServiceStack::over(grid);
    let mut job = JobSpec::new(JobId::new(1), "pipeline", UserId::new(1));
    let demand = SimDuration::from_secs(20);
    let a = job.add_task(TaskSpec::new(TaskId::new(1), "a", "step").with_cpu_demand(demand));
    let b = job.add_task(TaskSpec::new(TaskId::new(2), "b", "step").with_cpu_demand(demand));
    job.add_dependency(a, b);
    stack
        .submit_plan(&AbstractPlan::new(job).restricted_to(vec![SiteId::new(1)]))
        .unwrap();
    stack.run_until(SimTime::from_secs(5));
    for _ in 0..3 {
        stack.gate.breaker_record("exec-site-1", false);
    }
    stack.run_until(SimTime::from_secs(5_000));

    let tracked = stack.steering.tracked_job(JobId::new(1)).unwrap();
    assert!(tracked.is_completed() && tracked.completion_notified);
    let info = stack.jobmon.job_info(b).unwrap();
    assert_eq!(info.status, TaskStatus::Completed);
    assert_eq!(info.site, SiteId::new(2));
    let notes = stack.steering.drain_notifications();
    assert!(
        notes.iter().any(|n| matches!(
            n,
            Notification::TaskMoved(MoveRecord {
                task,
                from,
                to,
                reason: MoveReason::Recovery,
                ..
            }) if *task == b && *from == SiteId::new(1) && *to == SiteId::new(2)
        )),
        "{notes:?}"
    );
    assert!(
        notes
            .iter()
            .any(|n| matches!(n, Notification::JobCompleted { .. })),
        "{notes:?}"
    );
}

#[test]
fn site_failure_recovers_each_stranded_task_exactly_once() {
    // Kill a site mid-run with a whole queue on it, then check every
    // stranded task is resubmitted exactly once (one Recovery move
    // each, one recovery_attempt each) and completes elsewhere.
    let grid = grid3();
    let stack = ServiceStack::over(grid.clone());
    let mut job = JobSpec::new(JobId::new(1), "wide", UserId::new(1));
    let tasks: Vec<TaskId> = (1..=4)
        .map(|i| {
            job.add_task(
                TaskSpec::new(TaskId::new(i), format!("t{i}"), "reco")
                    .with_cpu_demand(SimDuration::from_secs(300)),
            )
        })
        .collect();
    stack.submit_job(job).unwrap();

    stack.run_until(SimTime::from_secs(100));
    // Kill whichever site hosts task 1; its whole queue is stranded.
    let victim = stack.jobmon.job_info(tasks[0]).unwrap().site;
    let stranded: Vec<TaskId> = tasks
        .iter()
        .copied()
        .filter(|t| stack.jobmon.job_info(*t).unwrap().site == victim)
        .collect();
    assert!(!stranded.is_empty());
    grid.exec(victim).unwrap().lock().fail_site();
    stack.run_until(SimTime::from_secs(1200));

    let notes = stack.steering.drain_notifications();
    let tracked = stack.steering.tracked_job(JobId::new(1)).unwrap();
    for t in &tasks {
        let info = stack.jobmon.job_info(*t).unwrap();
        assert_eq!(info.status, TaskStatus::Completed, "task {t}");
        let recoveries = notes
            .iter()
            .filter(|n| {
                matches!(
                    n,
                    Notification::TaskMoved(MoveRecord {
                        task,
                        reason: MoveReason::Recovery,
                        ..
                    }) if task == t
                )
            })
            .count();
        let expected = usize::from(stranded.contains(t));
        assert_eq!(recoveries, expected, "recovery moves for task {t}");
        assert_eq!(
            tracked.tasks[t].recovery_attempts, expected as u32,
            "recovery attempts for task {t}"
        );
        if stranded.contains(t) {
            assert_ne!(info.site, victim, "task {t} must have left the dead site");
        }
    }
}
