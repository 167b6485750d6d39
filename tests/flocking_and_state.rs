//! Flocking between execution pools and execution-state collection —
//! the §7/§4.2.4 features beyond the headline figures.

use gae::core::steering::MoveReason;
use gae::prelude::*;
use gae::types::TaskStatus;

#[test]
fn queued_work_flocks_to_a_free_partner() {
    let grid = GridBuilder::new()
        .site(SiteDescription::new(SiteId::new(1), "overloaded", 1, 1))
        .site(SiteDescription::new(SiteId::new(2), "partner", 2, 1))
        .build();
    grid.enable_flocking(SiteId::new(1), SiteId::new(2));
    let stack = ServiceStack::over(grid.clone());

    // Three tasks forced onto the single-slot site: one runs, two
    // queue — and should flock to the partner on the next poll.
    let mut job = JobSpec::new(JobId::new(1), "flock", UserId::new(1));
    for i in 1..=3 {
        job.add_task(
            TaskSpec::new(TaskId::new(i), format!("t{i}"), "x")
                .with_cpu_demand(SimDuration::from_secs(300)),
        );
    }
    stack
        .submit_plan(&AbstractPlan::new(job).restricted_to(vec![SiteId::new(1)]))
        .unwrap();
    {
        let exec = grid.exec(SiteId::new(1)).unwrap();
        assert_eq!(exec.lock().queue_length(), 2);
    }
    stack.run_until(SimTime::from_secs(10));

    // Queue drained by flocking, not by completion.
    {
        let exec1 = grid.exec(SiteId::new(1)).unwrap();
        let exec2 = grid.exec(SiteId::new(2)).unwrap();
        assert_eq!(exec1.lock().queue_length(), 0, "queue flocked away");
        assert_eq!(exec1.lock().running_count(), 1);
        assert_eq!(exec2.lock().running_count(), 2);
    }
    let flocked: Vec<_> = stack
        .steering
        .move_log()
        .into_iter()
        .filter(|m| m.reason == MoveReason::Flocked)
        .collect();
    assert_eq!(flocked.len(), 2);

    // All three finish in parallel instead of serially: by ~310 s
    // everything is done (serial would need 900 s).
    stack.run_until(SimTime::from_secs(320));
    assert_eq!(stack.jobmon.job_status(JobId::new(1)), JobStatus::Completed);
    // Steering still addresses the flocked tasks correctly.
    for i in 1..=3 {
        let info = stack.jobmon.job_info(TaskId::new(i)).unwrap();
        assert_eq!(info.status, TaskStatus::Completed);
    }
}

#[test]
fn flocking_respects_partner_capacity_and_liveness() {
    let grid = GridBuilder::new()
        .site(SiteDescription::new(SiteId::new(1), "src", 1, 1))
        .site(SiteDescription::new(SiteId::new(2), "full", 1, 1))
        .build();
    grid.enable_flocking(SiteId::new(1), SiteId::new(2));
    let stack = ServiceStack::over(grid.clone());

    // Fill the partner first.
    let mut filler = JobSpec::new(JobId::new(1), "filler", UserId::new(1));
    filler.add_task(
        TaskSpec::new(TaskId::new(1), "f", "x").with_cpu_demand(SimDuration::from_secs(500)),
    );
    stack
        .submit_plan(&AbstractPlan::new(filler).restricted_to(vec![SiteId::new(2)]))
        .unwrap();

    // Now overload the source.
    let mut job = JobSpec::new(JobId::new(2), "stuck", UserId::new(1));
    for i in 2..=3 {
        job.add_task(
            TaskSpec::new(TaskId::new(i), format!("t{i}"), "x")
                .with_cpu_demand(SimDuration::from_secs(100)),
        );
    }
    stack
        .submit_plan(&AbstractPlan::new(job).restricted_to(vec![SiteId::new(1)]))
        .unwrap();
    stack.run_until(SimTime::from_secs(20));
    // The partner is full: nothing flocked.
    {
        let exec1 = grid.exec(SiteId::new(1)).unwrap();
        assert_eq!(
            exec1.lock().queue_length(),
            1,
            "no free partner slot, no flock"
        );
    }

    // Kill the partner entirely: dead pools receive no flocked work.
    // (Backup & Recovery will additionally re-queue the partner's
    // failed filler onto site 1 — that is the recovery path, not
    // flocking.)
    grid.exec(SiteId::new(2)).unwrap().lock().fail_site();
    stack.run_until(SimTime::from_secs(40));
    assert!(
        stack
            .steering
            .move_log()
            .iter()
            .all(|m| m.reason != MoveReason::Flocked),
        "nothing may flock to a dead pool"
    );
    {
        let exec2 = grid.exec(SiteId::new(2)).unwrap();
        let guard = exec2.lock();
        assert!(!guard.is_alive());
        assert_eq!(guard.running_count(), 0);
    }
}

#[test]
fn checkpointable_tasks_flock_warm() {
    // A checkpointable task suspended in a queue carries no work yet,
    // but a running task moved manually does; flocking moves only
    // queued tasks so the carried work is zero — verify the plumbing
    // still marks them checkpointed correctly end to end.
    let grid = GridBuilder::new()
        .site(SiteDescription::new(SiteId::new(1), "src", 1, 1))
        .site(SiteDescription::new(SiteId::new(2), "dst", 1, 1))
        .build();
    grid.enable_flocking(SiteId::new(1), SiteId::new(2));
    let stack = ServiceStack::over(grid.clone());
    let mut job = JobSpec::new(JobId::new(1), "warm", UserId::new(1));
    for i in 1..=2 {
        job.add_task(
            TaskSpec::new(TaskId::new(i), format!("t{i}"), "x")
                .with_cpu_demand(SimDuration::from_secs(100))
                .with_checkpointable(true),
        );
    }
    stack
        .submit_plan(&AbstractPlan::new(job).restricted_to(vec![SiteId::new(1)]))
        .unwrap();
    stack.run_until(SimTime::from_secs(150));
    assert_eq!(stack.jobmon.job_status(JobId::new(1)), JobStatus::Completed);
    let t2 = stack.jobmon.job_info(TaskId::new(2)).unwrap();
    assert_eq!(t2.site, SiteId::new(2), "task 2 flocked");
    // Completed in parallel: both done by 150 s.
    assert!(t2.completed_at.unwrap() <= SimTime::from_secs(110));
}

#[test]
fn execution_state_collected_on_completion_and_failure() {
    let grid = GridBuilder::new()
        .site(SiteDescription::new(SiteId::new(1), "a", 1, 1))
        .site(SiteDescription::new(SiteId::new(2), "b", 1, 1))
        .build();
    let stack = ServiceStack::over(grid.clone());
    let mut job = JobSpec::new(JobId::new(1), "stateful", UserId::new(1));
    let t1 = job.add_task({
        let mut t =
            TaskSpec::new(TaskId::new(1), "t1", "x").with_cpu_demand(SimDuration::from_secs(100));
        t.output_files = vec![FileRef::new("out1.root", 5_000)];
        t
    });
    stack
        .submit_plan(&AbstractPlan::new(job).restricted_to(vec![SiteId::new(1)]))
        .unwrap();
    stack.run_until(SimTime::from_secs(150));

    // Completed: full output collected.
    let state = stack.steering.execution_state(t1).expect("collected");
    assert_eq!(state.status, TaskStatus::Completed);
    assert_eq!(state.output_bytes, 5_000);
    assert_eq!(state.site, SiteId::new(1));
    assert_eq!(state.cpu_time, SimDuration::from_secs(100));

    // A failing task: partial output collected at failure time.
    let mut job2 = JobSpec::new(JobId::new(2), "doomed", UserId::new(1));
    let t2 = job2.add_task({
        let mut t =
            TaskSpec::new(TaskId::new(2), "t2", "x").with_cpu_demand(SimDuration::from_secs(1_000));
        t.output_files = vec![FileRef::new("out2.root", 10_000)];
        t
    });
    stack
        .submit_plan(&AbstractPlan::new(job2).restricted_to(vec![SiteId::new(2)]))
        .unwrap();
    stack.run_until(SimTime::from_secs(400));
    {
        let exec = grid.exec(SiteId::new(2)).unwrap();
        let node = {
            let guard = exec.lock();
            let condor = guard.condor_of(t2).unwrap();
            guard.record(condor).unwrap().node().unwrap()
        };
        exec.lock().fail_node(node).unwrap();
    }
    stack.run_until(SimTime::from_secs(420));
    let state = stack
        .steering
        .execution_state(t2)
        .expect("collected on failure");
    assert_eq!(state.status, TaskStatus::Failed);
    assert!(
        state.output_bytes > 0 && state.output_bytes < 10_000,
        "partial output: {}",
        state.output_bytes
    );
}
