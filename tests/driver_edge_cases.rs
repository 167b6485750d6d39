//! Regression tests for the `run_until` driver loop around its two
//! trickiest boundaries:
//!
//! 1. an execution event sitting at **exactly `now`** (a zero-length
//!    task, or freshly submitted work on an idle slot) must be
//!    consumed without moving time — and without starving the polling
//!    services or livelocking the loop;
//! 2. an **overdue `next_poll`** (the caller advanced the grid clock
//!    directly, past one or more due polls) must trigger a catch-up
//!    poll round, not silently skip it.

use gae::prelude::*;

fn one_site_stack() -> std::sync::Arc<ServiceStack> {
    let grid = GridBuilder::new()
        .site(SiteDescription::new(SiteId::new(1), "solo", 2, 1))
        .build();
    ServiceStack::over(grid)
}

fn zero_task(id: u64) -> TaskSpec {
    TaskSpec::new(TaskId::new(id), format!("z{id}"), "app")
        .with_cpu_demand(SimDuration::from_secs(0))
}

#[test]
fn zero_length_task_completes_without_livelock() {
    let stack = one_site_stack();
    let mut job = JobSpec::new(JobId::new(1), "instant", UserId::new(1));
    job.add_task(zero_task(1));
    stack.submit_job(job).unwrap();

    // If the `ev <= now` branch re-queued the event without
    // consuming it, this call would spin forever; the test harness
    // timeout is the livelock detector.
    stack.run_until(SimTime::from_secs(30));

    let info = stack.jobmon.job_info(TaskId::new(1)).unwrap();
    assert_eq!(info.status, TaskStatus::Completed);
    assert!(info.completed_at.is_some());
    assert_eq!(stack.grid.now(), SimTime::from_secs(30));
}

#[test]
fn zero_length_chain_still_gets_polled_forward() {
    // A → B → C, all zero-length. Successors are only submitted when a
    // steering poll observes the predecessor's completion, so if the
    // at-`now` event branch ever starved the poll rounds the chain
    // would stall at A.
    let stack = one_site_stack();
    let mut job = JobSpec::new(JobId::new(1), "chain", UserId::new(1));
    for id in 1..=3 {
        job.add_task(zero_task(id));
    }
    job.add_dependency(TaskId::new(1), TaskId::new(2));
    job.add_dependency(TaskId::new(2), TaskId::new(3));
    stack.submit_job(job).unwrap();

    stack.run_until(SimTime::from_secs(60));

    for id in 1..=3 {
        let info = stack.jobmon.job_info(TaskId::new(id)).unwrap();
        assert_eq!(info.status, TaskStatus::Completed, "task {id}");
    }
}

#[test]
fn overdue_poll_catches_up_after_direct_advance() {
    let stack = one_site_stack();
    let mut job = JobSpec::new(JobId::new(1), "direct", UserId::new(1));
    job.add_task(
        TaskSpec::new(TaskId::new(1), "short", "app").with_cpu_demand(SimDuration::from_secs(4)),
    );
    job.add_task(
        TaskSpec::new(TaskId::new(2), "successor", "app")
            .with_cpu_demand(SimDuration::from_secs(4)),
    );
    job.add_dependency(TaskId::new(1), TaskId::new(2));
    stack.submit_job(job).unwrap();

    // Drive the grid clock directly, far past several 5 s poll
    // periods: task 1 completes inside the gap but no service has
    // looked at the grid yet.
    stack.grid.advance_to(SimTime::from_secs(23));
    assert!(
        stack.jobmon.job_info(TaskId::new(2)).is_err(),
        "successor must not reach any site before a poll"
    );

    // run_until must first run the overdue poll round (submitting
    // task 2), then keep polling on-period so task 2 finishes too.
    stack.run_until(SimTime::from_secs(60));
    for id in 1..=2 {
        let info = stack.jobmon.job_info(TaskId::new(id)).unwrap();
        assert_eq!(info.status, TaskStatus::Completed, "task {id}");
    }
}

#[test]
fn poll_phase_survives_direct_advance() {
    // The poll schedule is anchored at stack construction: every 5 s,
    // at 5, 10, 15, ... A caller-driven `Grid::advance_to` used to
    // reset the anchor (`now + period`), so the same workload polled
    // at different instants depending on who moved the clock. The
    // memo-counter samples published by each poll round pin the
    // actual poll instants.
    let stack = one_site_stack();
    // Jump the grid clock straight past the 5 s and 10 s polls.
    stack.grid.advance_to(SimTime::from_secs(12));
    stack.run_until(SimTime::from_secs(30));

    let key = gae::monitor::MetricKey::new(SiteId::new(0), "estimator", "memo_hits");
    let mut poll_instants: Vec<u64> = stack
        .grid
        .monitor()
        .range(&key, SimTime::ZERO, SimTime::from_secs(1000))
        .iter()
        .map(|s| s.at.as_secs_f64() as u64)
        .collect();
    poll_instants.dedup();
    // Catch-up fires at 12, then the schedule realigns to the
    // original 5 s grid: 15, 20, 25, and the horizon poll at 30.
    // The buggy reset produced [12, 17, 22, 27, 30] instead.
    assert_eq!(
        poll_instants,
        vec![12, 15, 20, 25, 30],
        "poll phase shifted after a direct advance"
    );
}

#[test]
fn completion_exactly_on_poll_boundary_is_not_skipped() {
    // Demand tuned so the completion event lands exactly on the 5 s
    // poll instant: the loop must both consume the event and run the
    // poll at that instant (order: event first, then poll).
    let stack = one_site_stack();
    let mut job = JobSpec::new(JobId::new(1), "boundary", UserId::new(1));
    job.add_task(
        TaskSpec::new(TaskId::new(1), "five", "app").with_cpu_demand(SimDuration::from_secs(5)),
    );
    job.add_task(zero_task(2));
    job.add_dependency(TaskId::new(1), TaskId::new(2));
    stack.submit_job(job).unwrap();

    stack.run_until(SimTime::from_secs(40));

    for id in 1..=2 {
        let info = stack.jobmon.job_info(TaskId::new(id)).unwrap();
        assert_eq!(info.status, TaskStatus::Completed, "task {id}");
    }
}

#[test]
fn run_until_current_time_returns_and_still_polls() {
    let stack = one_site_stack();
    let mut job = JobSpec::new(JobId::new(1), "noop", UserId::new(1));
    job.add_task(zero_task(1));
    stack.submit_job(job).unwrap();

    stack.grid.advance_to(SimTime::from_secs(10));
    // Horizon == now: the loop body never runs, but the trailing
    // poll must still fire so callers observe fresh state.
    stack.run_until(SimTime::from_secs(10));

    assert_eq!(stack.grid.now(), SimTime::from_secs(10));
    assert_eq!(
        stack.jobmon.job_info(TaskId::new(1)).unwrap().status,
        TaskStatus::Completed
    );
}
