//! Queue-time estimation (§6.2).
//!
//! "The Condor ID of the task is provided as the input ... the Queue
//! Time Estimator then contacts the execution service and retrieves
//! from the queue Condor IDs and the elapsed runtime of all tasks
//! having a priority greater than the input task. \[It\] then retrieves
//! from the database the estimated run time of \[those\] tasks ... The
//! elapsed run time of retrieved tasks is then subtracted from their
//! estimated run time; this gives the remaining estimated run time
//! for each task. The sum ... is the estimated queue time for the
//! input task."
//!
//! Here the execution service holds both halves — the queue and, on
//! each task's record, the estimate made when it was submitted — and
//! keeps the sum indexed, so the estimator asks one question under
//! one lock instead of walking the queue against a database.

use gae_exec::ExecutionService;
use gae_types::{CondorId, GaeError, GaeResult, Priority, SimDuration};

/// Estimates how long the task `condor` will wait before starting at
/// the site served by `exec`, following §6.2 exactly. The runtimes
/// "estimated at the time of task submission" (step c) live on the
/// execution service's own records — the submitter stores one with
/// [`ExecutionService::set_estimate`] — and the sum over them is
/// [`ExecutionService::backlog_above`]: tasks with no stored estimate
/// contribute nothing, and one that has outrun its estimate
/// contributes zero.
pub fn estimate_queue_time(exec: &ExecutionService, condor: CondorId) -> GaeResult<SimDuration> {
    let record = exec.record(condor)?;
    if !record.status().is_live() {
        return Err(GaeError::InvalidTransition {
            entity: condor.to_string(),
            from: record.status().to_string(),
            attempted: "estimate queue time".into(),
        });
    }
    Ok(exec.backlog_above(record.priority))
}

/// How long a *new* task of `priority` would wait at the site served
/// by `exec` (what the scheduler asks before submission): the backlog
/// of live tasks above it. `lowered(1)`: a new equal-priority task
/// queues behind existing ones (FIFO), so equals count too.
pub(crate) fn queue_time_for_new(exec: &ExecutionService, priority: Priority) -> SimDuration {
    exec.backlog_above(priority.lowered(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gae_exec::SiteConfig;
    use gae_types::{Priority, SimTime, SiteDescription, SiteId, TaskId, TaskSpec};

    fn site() -> ExecutionService {
        ExecutionService::new(SiteConfig::free(SiteDescription::new(
            SiteId::new(1),
            "s",
            1,
            1,
        )))
    }

    fn task(id: u64, demand: u64, prio: i32) -> std::sync::Arc<TaskSpec> {
        TaskSpec::new(TaskId::new(id), format!("t{id}"), "x")
            .with_cpu_demand(SimDuration::from_secs(demand))
            .with_priority(Priority::new(prio))
            .into()
    }

    #[test]
    fn empty_queue_means_zero_wait() {
        let mut exec = site();
        let c = exec.submit(task(1, 100, 0), None).unwrap();
        exec.set_estimate(c, Some(SimDuration::from_secs(100)))
            .unwrap();
        assert_eq!(estimate_queue_time(&exec, c).unwrap(), SimDuration::ZERO);
    }

    #[test]
    fn sums_remaining_of_higher_priority() {
        let mut exec = site();
        let a = exec.submit(task(1, 100, 5), None).unwrap(); // running
        let b = exec.submit(task(2, 200, 5), None).unwrap(); // queued
        let c = exec.submit(task(3, 50, 0), None).unwrap(); // the probe
        exec.set_estimate(a, Some(SimDuration::from_secs(100)))
            .unwrap();
        exec.set_estimate(b, Some(SimDuration::from_secs(200)))
            .unwrap();
        exec.set_estimate(c, Some(SimDuration::from_secs(50)))
            .unwrap();
        // Nothing has run yet: wait = 100 + 200.
        assert_eq!(
            estimate_queue_time(&exec, c).unwrap(),
            SimDuration::from_secs(300)
        );
        // After 40 s, a has accrued 40: wait = 60 + 200.
        exec.advance_to(SimTime::from_secs(40));
        assert_eq!(
            estimate_queue_time(&exec, c).unwrap(),
            SimDuration::from_secs(260)
        );
    }

    #[test]
    fn equal_priority_does_not_count() {
        // The paper counts only *strictly greater* priority.
        let mut exec = site();
        let a = exec.submit(task(1, 100, 0), None).unwrap();
        let b = exec.submit(task(2, 50, 0), None).unwrap();
        exec.set_estimate(a, Some(SimDuration::from_secs(100)))
            .unwrap();
        exec.set_estimate(b, Some(SimDuration::from_secs(50)))
            .unwrap();
        assert_eq!(estimate_queue_time(&exec, b).unwrap(), SimDuration::ZERO);
    }

    #[test]
    fn elapsed_overrun_clamps_to_zero() {
        // A task that has run longer than its estimate contributes 0,
        // not a negative number.
        let mut exec = site();
        let a = exec.submit(task(1, 300, 5), None).unwrap();
        let probe = exec.submit(task(2, 50, 0), None).unwrap();
        exec.set_estimate(a, Some(SimDuration::from_secs(100)))
            .unwrap(); // underestimate
        exec.set_estimate(probe, Some(SimDuration::from_secs(50)))
            .unwrap();
        exec.advance_to(SimTime::from_secs(250)); // a still running
        assert_eq!(
            estimate_queue_time(&exec, probe).unwrap(),
            SimDuration::ZERO
        );
    }

    #[test]
    fn missing_estimates_contribute_nothing() {
        let mut exec = site();
        let _a = exec.submit(task(1, 100, 5), None).unwrap(); // no estimate stored
        let probe = exec.submit(task(2, 50, 0), None).unwrap();
        assert_eq!(
            estimate_queue_time(&exec, probe).unwrap(),
            SimDuration::ZERO
        );
    }

    #[test]
    fn unknown_or_finished_task_is_error() {
        let mut exec = site();
        assert!(estimate_queue_time(&exec, CondorId::new(9)).is_err());
        let c = exec.submit(task(1, 10, 0), None).unwrap();
        exec.advance_to(SimTime::from_secs(10));
        assert!(estimate_queue_time(&exec, c).is_err());
    }
}
