//! A campaign-scale system test: a day of physics analysis across
//! three sites with diurnal load, a mid-day site failure, flocking,
//! data staging and autonomous steering — asserting the aggregate
//! properties a production deployment must keep.

use gae::core::steering::SteeringPolicy;
use gae::prelude::*;
use gae::sim::LoadTrace;
use gae::types::CondorId;
use std::collections::HashSet;

const JOBS: u64 = 30;
const TASK_SECONDS: u64 = 1_800;

#[test]
fn a_day_of_analysis_survives_everything() {
    // Three sites: a diurnally-loaded university cluster, a steady
    // Tier-2, and a small opportunistic pool that will crash mid-day.
    let uni = gae::exec::SiteConfig::uniform_load(
        SiteDescription::new(SiteId::new(1), "uni", 4, 1),
        LoadTrace::diurnal(
            SimDuration::from_secs(24 * 3600),
            SimDuration::from_secs(9 * 3600),
            SimDuration::from_secs(18 * 3600),
            3.0,
            0.2,
            1,
        ),
    );
    let grid = GridBuilder::new()
        .site_with_config(uni)
        .site(SiteDescription::new(SiteId::new(2), "tier2", 6, 2).with_charge(2.0, 0.2))
        .site(SiteDescription::new(SiteId::new(3), "opportunistic", 2, 1).with_charge(0.2, 0.0))
        .monitor(gae::monitor::MonAlisaRepository::new(16_384))
        .build();
    grid.enable_flocking(SiteId::new(1), SiteId::new(2));
    let policy = SteeringPolicy {
        min_observation: SimDuration::from_secs(300),
        ..SteeringPolicy::default()
    };
    let stack = ServiceStack::with_policy(grid.clone(), policy, SimDuration::from_secs(60));
    let owner = UserId::new(1);
    stack.quota.grant(owner, 1_000.0);

    // 30 one-task jobs with a shared input dataset replicated at the
    // Tier-2, submitted through the morning.
    let dataset =
        FileRef::new("lfn:/cms/dataset.root", 50_000_000).with_replicas(vec![SiteId::new(2)]);
    let mut submitted_tasks = Vec::new();
    for i in 1..=JOBS {
        let mut job = JobSpec::new(JobId::new(i), format!("analysis-{i}"), owner);
        let t = job.add_task(
            TaskSpec::new(TaskId::new(i), format!("t{i}"), "reco")
                .with_cpu_demand(SimDuration::from_secs(TASK_SECONDS))
                .with_inputs(vec![dataset.clone()]),
        );
        submitted_tasks.push(t);
        stack.submit_job(job).expect("schedulable");
        stack.run_until(SimTime::from_secs(i * 600)); // one every 10 min
    }

    // Noon: the opportunistic pool dies with whatever it was running.
    grid.exec(SiteId::new(3)).unwrap().lock().fail_site();
    stack.run_until(SimTime::from_secs(13 * 3600));
    // Afternoon: it comes back.
    grid.exec(SiteId::new(3)).unwrap().lock().recover_site();

    // Run out the day and a bit of the night.
    stack.run_until(SimTime::from_secs(30 * 3600));

    // 1. Every job completed despite the failure.
    for i in 1..=JOBS {
        assert_eq!(
            stack.jobmon.job_status(JobId::new(i)),
            JobStatus::Completed,
            "job {i} did not complete"
        );
    }

    // 2. No task was lost or duplicated: each task id maps to exactly
    //    one live-or-better record chain, and its final info is
    //    Completed with full progress.
    let mut seen = HashSet::new();
    for &t in &submitted_tasks {
        let info = stack.jobmon.job_info(t).expect("tracked");
        assert_eq!(info.status, TaskStatus::Completed);
        assert!((info.progress - 1.0).abs() < 1e-9);
        assert!(seen.insert(t), "duplicate task {t}");
    }

    // 3. Conservation of work: every completed task accrued exactly
    //    its demand (checkpoint-free restarts may redo work, but the
    //    *final incarnation* reports the full demand).
    for &t in &submitted_tasks {
        let info = stack.jobmon.job_info(t).unwrap();
        assert_eq!(
            info.cpu_time,
            SimDuration::from_secs(TASK_SECONDS),
            "task {t} accrual mismatch"
        );
    }

    // 4. Accounting: the owner was charged for every completion, at
    //    least the work of 30 tasks at the cheapest conceivable rate.
    let charged = stack.quota.total_charged(owner);
    assert!(charged > 0.0);
    let ledger = stack.quota.ledger();
    assert_eq!(ledger.len() as u64, JOBS, "one charge per completed task");

    // 5. The job repository saw every lifecycle: every job has a
    //    completed task in `jobmon.job_tasks`.
    for i in 1..=JOBS {
        let tasks = stack.jobmon.job_tasks(JobId::new(i));
        assert!(
            tasks.iter().any(|t| t.status == TaskStatus::Completed),
            "job {i} has no completed task in the job repository"
        );
    }

    // 6. The failure left traces: tasks that were on site 3 at noon
    //    were recovered (moved) and the steering log shows it.
    let notes = stack.steering.drain_notifications();
    let failures = notes
        .iter()
        .filter(|n| matches!(n, Notification::TaskFailed { .. }))
        .count();
    let completions = notes
        .iter()
        .filter(|n| matches!(n, Notification::JobCompleted { .. }))
        .count();
    assert_eq!(completions as u64, JOBS);
    // The opportunistic pool ran something before dying (cheap rates
    // attract no fast-preference jobs, so failures may be zero — but
    // if anything failed, moves must match).
    let recovery_moves = stack
        .steering
        .move_log()
        .iter()
        .filter(|m| m.from == SiteId::new(3))
        .count();
    assert!(
        failures == 0 || recovery_moves > 0,
        "{failures} failures but no recovery moves"
    );

    // 7. No execution service is left holding live work.
    for site in grid.site_ids() {
        let exec = grid.exec(site).unwrap();
        let guard = exec.lock();
        assert_eq!(guard.running_count(), 0, "{site} still running tasks");
        assert_eq!(guard.queue_length(), 0, "{site} still queueing tasks");
    }

    // 8. Condor ids never collide within a site.
    for site in grid.site_ids() {
        let exec = grid.exec(site).unwrap();
        let guard = exec.lock();
        let ids: Vec<CondorId> = guard.records().map(|r| r.condor).collect();
        let unique: HashSet<_> = ids.iter().collect();
        assert_eq!(ids.len(), unique.len(), "condor id collision at {site}");
    }
}
