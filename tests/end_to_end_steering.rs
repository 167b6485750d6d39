//! End-to-end steering scenarios through the public API: the
//! Figure 7 dynamics, manual job control, and authorization.

use gae::core::steering::{MoveReason, MoveRecord, SteeringCommand, SteeringPolicy};
use gae::prelude::*;
use std::sync::Arc;

fn fig7_grid() -> Arc<gae::core::Grid> {
    GridBuilder::new()
        .site_with_load(SiteDescription::new(SiteId::new(1), "site-a", 1, 1), 3.68)
        .site(SiteDescription::new(SiteId::new(2), "site-b", 1, 1))
        .build()
}

fn paper_policy(auto_move: bool) -> SteeringPolicy {
    SteeringPolicy {
        auto_move,
        min_observation: SimDuration::from_secs_f64(84.9),
        slow_rate_threshold: 0.5,
        ..SteeringPolicy::default()
    }
}

fn prime_job(owner: UserId) -> (JobSpec, TaskId) {
    let mut job = JobSpec::new(JobId::new(1), "prime", owner);
    let task = job.add_task(
        TaskSpec::new(TaskId::new(1), "primes", "prime")
            .with_cpu_demand(SimDuration::from_secs(283)),
    );
    (job, task)
}

#[test]
fn autonomous_steering_beats_staying_put() {
    let stack = ServiceStack::with_policy(
        fig7_grid(),
        paper_policy(true),
        SimDuration::from_secs_f64(28.3),
    );
    let (job, task) = prime_job(UserId::new(1));
    let plan = AbstractPlan::new(job).restricted_to(vec![SiteId::new(1)]);
    stack.submit_plan(&plan).unwrap();

    stack.run_until(SimTime::from_secs(500));
    let info = stack.jobmon.job_info(task).unwrap();
    assert_eq!(info.status, TaskStatus::Completed);
    assert_eq!(
        info.site,
        SiteId::new(2),
        "the job must have been moved to the free site"
    );
    let done = info.completed_at.unwrap().as_secs_f64();
    assert!(
        (done - 369.0).abs() < 10.0,
        "completion at {done}, paper ~369 s"
    );

    let moves = stack.steering.move_log();
    assert_eq!(moves.len(), 1);
    assert_eq!(moves[0].reason, MoveReason::SlowProgress);
    assert_eq!(moves[0].from, SiteId::new(1));
    assert_eq!(moves[0].to, SiteId::new(2));

    // The client got told about the move and the completion.
    let notes = stack.steering.drain_notifications();
    assert!(notes.iter().any(|n| matches!(
        n,
        Notification::TaskMoved(MoveRecord {
            reason: MoveReason::SlowProgress,
            ..
        })
    )));
    assert!(notes
        .iter()
        .any(|n| matches!(n, Notification::JobCompleted { .. })));
}

#[test]
fn manual_move_command_works_like_the_optimizer() {
    // Auto-steering off: "the user could have moved the job from
    // site A to site B manually as well" (§7).
    let stack =
        ServiceStack::with_policy(fig7_grid(), paper_policy(false), SimDuration::from_secs(5));
    let owner = UserId::new(1);
    let (job, task) = prime_job(owner);
    stack
        .submit_plan(&AbstractPlan::new(job).restricted_to(vec![SiteId::new(1)]))
        .unwrap();
    stack.run_until(SimTime::from_secs(85));

    // Explicit destination.
    stack
        .steering
        .command(owner, task, SteeringCommand::Move(Some(SiteId::new(2))))
        .unwrap();
    stack.run_until(SimTime::from_secs(380));
    let info = stack.jobmon.job_info(task).unwrap();
    assert_eq!(info.status, TaskStatus::Completed);
    assert_eq!(info.site, SiteId::new(2));
    let moves = stack.steering.move_log();
    assert_eq!(moves[0].reason, MoveReason::Manual);
}

#[test]
fn optimizer_chooses_destination_when_unspecified() {
    let stack =
        ServiceStack::with_policy(fig7_grid(), paper_policy(false), SimDuration::from_secs(5));
    let owner = UserId::new(1);
    let (job, task) = prime_job(owner);
    stack
        .submit_plan(&AbstractPlan::new(job).restricted_to(vec![SiteId::new(1)]))
        .unwrap();
    stack.run_until(SimTime::from_secs(50));
    stack
        .steering
        .command(owner, task, SteeringCommand::Move(None))
        .unwrap();
    let tracked = stack.steering.tracked_job(JobId::new(1)).unwrap();
    let (site, _) = tracked.location(task).unwrap();
    assert_eq!(
        site,
        SiteId::new(2),
        "the optimizer must pick the free site"
    );
}

/// A manual move to a site whose breaker is open is refused. The
/// caller hears so, and the task does not strand half-moved: Backup &
/// Recovery places it away from the refusing site (back at site 1,
/// from zero), the job completes and the client is told. Before, the
/// task stayed a `Migrating` husk that the tracker still placed at
/// site 1, and the job never settled.
#[test]
fn a_refused_move_is_placed_elsewhere_not_stranded() {
    let grid = GridBuilder::new()
        .site(SiteDescription::new(SiteId::new(1), "site-a", 1, 1))
        .site(SiteDescription::new(SiteId::new(2), "site-b", 1, 1))
        .build();
    let stack = ServiceStack::with_policy(grid, paper_policy(false), SimDuration::from_secs(5));
    let owner = UserId::new(1);
    let mut job = JobSpec::new(JobId::new(1), "short", owner);
    let task = job.add_task(
        TaskSpec::new(TaskId::new(1), "t", "x").with_cpu_demand(SimDuration::from_secs(100)),
    );
    stack
        .submit_plan(&AbstractPlan::new(job).restricted_to(vec![SiteId::new(1)]))
        .unwrap();
    stack.run_until(SimTime::from_secs(10));
    for _ in 0..3 {
        stack.gate.breaker_record("exec-site-2", false);
    }
    let moved = stack
        .steering
        .command(owner, task, SteeringCommand::Move(Some(SiteId::new(2))));
    assert!(moved.is_err(), "a refused move is an error to its caller");
    stack.run_until(SimTime::from_secs(5_000));

    let info = stack.jobmon.job_info(task).unwrap();
    assert_eq!(info.status, TaskStatus::Completed);
    assert_eq!(info.site, SiteId::new(1));
    let done = info.completed_at.unwrap().as_secs_f64();
    assert!((done - 110.0).abs() < 1.0, "completion at {done}");
    let tracked = stack.steering.tracked_job(JobId::new(1)).unwrap();
    assert!(tracked.completion_notified);
    let notes = stack.steering.drain_notifications();
    assert!(
        notes.iter().any(|n| matches!(
            n,
            Notification::TaskMoved(MoveRecord {
                from,
                to,
                reason: MoveReason::Recovery,
                ..
            }) if *from == SiteId::new(2) && *to == SiteId::new(1)
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
fn pause_resume_and_priority_commands() {
    let stack = ServiceStack::over(fig7_grid());
    let owner = UserId::new(1);
    let (job, task) = prime_job(owner);
    stack
        .submit_plan(&AbstractPlan::new(job).restricted_to(vec![SiteId::new(2)]))
        .unwrap();
    stack.run_until(SimTime::from_secs(50));

    stack
        .steering
        .command(owner, task, SteeringCommand::Pause)
        .unwrap();
    let paused_at_cpu = stack.jobmon.job_info(task).unwrap().cpu_time;
    stack.run_until(SimTime::from_secs(100));
    assert_eq!(
        stack.jobmon.job_info(task).unwrap().cpu_time,
        paused_at_cpu,
        "no accrual while paused"
    );
    assert_eq!(
        stack.jobmon.job_info(task).unwrap().status,
        TaskStatus::Suspended
    );

    stack
        .steering
        .command(owner, task, SteeringCommand::Resume)
        .unwrap();
    stack
        .steering
        .command(owner, task, SteeringCommand::SetPriority(Priority::HIGH))
        .unwrap();
    stack.run_until(SimTime::from_secs(400));
    let info = stack.jobmon.job_info(task).unwrap();
    assert_eq!(info.status, TaskStatus::Completed);
    assert_eq!(info.priority, Priority::HIGH);
    // Paused 50 s: completion shifted from 283 to ~333.
    let done = info.completed_at.unwrap().as_secs_f64();
    assert!((done - 333.0).abs() < 2.0, "completion {done}");
}

#[test]
fn kill_command_settles_the_job() {
    let stack = ServiceStack::over(fig7_grid());
    let owner = UserId::new(1);
    let (job, task) = prime_job(owner);
    stack.submit_job(job).unwrap();
    stack.run_until(SimTime::from_secs(10));
    stack
        .steering
        .command(owner, task, SteeringCommand::Kill)
        .unwrap();
    stack.run_until(SimTime::from_secs(30));
    assert_eq!(
        stack.jobmon.job_info(task).unwrap().status,
        TaskStatus::Killed
    );
    let notes = stack.steering.drain_notifications();
    assert!(notes
        .iter()
        .any(|n| matches!(n, Notification::JobFailed { .. })));
    // Further commands on the dead task fail cleanly.
    assert!(stack
        .steering
        .command(owner, task, SteeringCommand::Pause)
        .is_err());
}

#[test]
fn session_manager_blocks_strangers_but_not_operators() {
    let stack = ServiceStack::over(fig7_grid());
    let owner = UserId::new(1);
    let stranger = UserId::new(2);
    let operator = UserId::new(3);
    let (job, task) = prime_job(owner);
    stack.submit_job(job).unwrap();
    stack.run_until(SimTime::from_secs(10));

    let err = stack
        .steering
        .command(stranger, task, SteeringCommand::Pause)
        .unwrap_err();
    assert!(matches!(err, GaeError::Unauthorized(_)));

    stack.steering.authorizer().add_operator(operator);
    stack
        .steering
        .command(operator, task, SteeringCommand::Pause)
        .unwrap();
    stack
        .steering
        .command(owner, task, SteeringCommand::Resume)
        .unwrap();
}

#[test]
fn policy_can_be_changed_at_runtime() {
    // Start with auto-move off; flip it on mid-run and watch the
    // optimizer act on the next poll.
    let stack =
        ServiceStack::with_policy(fig7_grid(), paper_policy(false), SimDuration::from_secs(10));
    let (job, task) = prime_job(UserId::new(1));
    stack
        .submit_plan(&AbstractPlan::new(job).restricted_to(vec![SiteId::new(1)]))
        .unwrap();
    stack.run_until(SimTime::from_secs(200));
    assert!(
        stack.steering.move_log().is_empty(),
        "manual policy: no moves"
    );
    assert!(!stack.steering.policy().auto_move);

    stack.steering.set_policy(paper_policy(true));
    stack.run_until(SimTime::from_secs(250));
    assert_eq!(
        stack.steering.move_log().len(),
        1,
        "auto-move acted after the flip"
    );
    stack.run_until(SimTime::from_secs(600));
    assert_eq!(
        stack.jobmon.job_info(task).unwrap().status,
        TaskStatus::Completed
    );
}

#[test]
fn steering_policy_thresholds_control_the_move() {
    // Rate at site A is ~0.21. A threshold below that must not move.
    let policy = SteeringPolicy {
        auto_move: true,
        min_observation: SimDuration::from_secs(30),
        slow_rate_threshold: 0.1,
        ..SteeringPolicy::default()
    };
    let stack = ServiceStack::with_policy(fig7_grid(), policy, SimDuration::from_secs(10));
    let (job, _task) = prime_job(UserId::new(1));
    stack
        .submit_plan(&AbstractPlan::new(job).restricted_to(vec![SiteId::new(1)]))
        .unwrap();
    stack.run_until(SimTime::from_secs(400));
    assert!(
        stack.steering.move_log().is_empty(),
        "threshold 0.1 must keep the job at A"
    );
}
