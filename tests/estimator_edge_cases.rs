//! Edge cases of the §6 estimators: partitioned links, orphaned
//! replicas, submission-estimate lifetime, and probe-cache concurrency.

use gae::core::estimator::TransferEstimator;
use gae::exec::{ExecutionService, SiteConfig};
use gae::prelude::*;
use gae::sim::{Link, NetworkModel};
use gae::types::GaeError;

fn sid(n: u64) -> SiteId {
    SiteId::new(n)
}

/// A partitioned link as an iperf run would report it: next to no
/// measured bandwidth. A `Link` cannot carry zero (`Link::new` rejects
/// it), so this is the smallest bandwidth one can carry.
fn dead_link() -> Link {
    Link::new(f64::MIN_POSITIVE, SimDuration::ZERO)
}

// ---- estimate_bytes on an unusable link ----

#[test]
fn zero_bandwidth_link_is_a_typed_error_not_a_panic() {
    let mut net = NetworkModel::wan_2005().with_probe_noise(0.0);
    net.set_link(sid(1), sid(2), dead_link());
    let est = TransferEstimator::new(net, 7);
    // Before the guard a zero-bandwidth link divided by zero, produced
    // `inf` seconds, and panicked inside SimDuration::from_secs_f64;
    // the dead link's transfer time overflows to the same `inf`.
    let err = est.estimate_bytes(sid(1), sid(2), 1 << 30).unwrap_err();
    assert!(matches!(err, GaeError::Estimator(_)), "{err:?}");
    // The healthy reverse direction still estimates.
    assert!(est.estimate_bytes(sid(2), sid(1), 1 << 20).is_ok());
}

#[test]
fn subnormal_bandwidth_overflow_is_a_typed_error() {
    let mut net = NetworkModel::wan_2005().with_probe_noise(0.0);
    net.set_link(sid(1), sid(2), dead_link());
    let est = TransferEstimator::new(net, 7);
    // bytes / f64::MIN_POSITIVE overflows to +inf: the estimator must
    // catch the non-finite estimate, not feed it to SimDuration.
    let err = est.estimate_bytes(sid(1), sid(2), 1 << 30).unwrap_err();
    assert!(matches!(err, GaeError::Estimator(_)), "{err:?}");
}

// ---- estimate_file across unreachable replicas ----

#[test]
fn unreachable_replicas_are_skipped_not_poisoning_the_minimum() {
    let mut net = NetworkModel::wan_2005().with_probe_noise(0.0);
    // Replica at site 1 is partitioned; replica at site 2 is healthy.
    net.set_link(sid(1), sid(3), dead_link());
    net.set_link(sid(2), sid(3), Link::new(100e6, SimDuration::ZERO));
    let est = TransferEstimator::new(net, 1);
    let f = FileRef::new("x", 100_000_000).with_replicas(vec![sid(1), sid(2)]);
    let t = est.estimate_file(&f, sid(3)).unwrap().as_secs_f64();
    assert!((t - 1.0).abs() < 1e-9, "staged from the live replica: {t}");
}

#[test]
fn all_replicas_unreachable_names_the_file() {
    let mut net = NetworkModel::wan_2005().with_probe_noise(0.0);
    for src in [1, 2] {
        net.set_link(sid(src), sid(3), dead_link());
    }
    let est = TransferEstimator::new(net, 1);
    let f = FileRef::new("lfn:/cms/dark.root", 1 << 20).with_replicas(vec![sid(1), sid(2)]);
    match est.estimate_file(&f, sid(3)) {
        Err(GaeError::Estimator(msg)) => {
            assert!(msg.contains("lfn:/cms/dark.root"), "{msg}");
        }
        other => panic!("expected Estimator error, got {other:?}"),
    }
}

// ---- a site the grid lacks ----

/// Site 9 is not in the grid: the runtime estimate and a history seed
/// there are `NotFound`, every estimate counts one memo miss, and no
/// row of the seed reaches the history.
#[test]
fn a_site_the_grid_lacks_is_not_found() {
    let grid = GridBuilder::new()
        .site(SiteDescription::new(sid(1), "a", 2, 1))
        .site(SiteDescription::new(sid(2), "b", 2, 1))
        .build();
    let stack = ServiceStack::over(grid);
    let spec = TaskSpec::new(TaskId::new(1), "t", "x");
    let (hits, misses) = stack.estimators.memo_stats();
    for _ in 0..2 {
        let err = stack
            .estimators
            .estimate_runtime(sid(9), &spec)
            .unwrap_err();
        assert!(matches!(err, GaeError::NotFound(_)), "{err:?}");
    }
    assert_eq!(stack.estimators.memo_stats(), (hits, misses + 2));
    let records = gae::trace::WorkloadModel::default().generate(20, 9);
    let rows = stack.hist.store().rows();
    let err = stack.estimators.seed_history(sid(9), &records).unwrap_err();
    assert!(matches!(err, GaeError::NotFound(_)), "{err:?}");
    assert_eq!(stack.hist.store().rows(), rows);
    // A site the grid has takes the same seed.
    let loaded = stack.estimators.seed_history(sid(1), &records).unwrap();
    assert_eq!(loaded, records.iter().filter(|r| r.success).count());
    assert_eq!(stack.hist.store().rows(), rows + records.len() as u64);
}

// ---- submission-estimate lifetime across a full job run ----

#[test]
fn estimate_db_is_emptied_once_tasks_settle() {
    let grid = GridBuilder::new()
        .site(SiteDescription::new(sid(1), "a", 2, 1))
        .site(SiteDescription::new(sid(2), "b", 2, 1))
        .build();
    let stack = ServiceStack::over(grid);
    let mut job = JobSpec::new(JobId::new(1), "bounded", UserId::new(1));
    for i in 1..=4u64 {
        job.add_task(
            TaskSpec::new(TaskId::new(i), format!("t{i}"), "x")
                .with_cpu_demand(SimDuration::from_secs(30 * i)),
        );
    }
    stack.submit_job(job).unwrap();
    assert!(
        stack.estimators.submission_estimate_count() > 0,
        "submissions recorded their estimates"
    );
    stack.run_until(SimTime::from_secs(600));
    for i in 1..=4u64 {
        assert_eq!(
            stack.jobmon.job_info(TaskId::new(i)).unwrap().status,
            TaskStatus::Completed
        );
    }
    // Every task settled, so every submission-time estimate must have
    // been evicted — §6.2 only consults live tasks, and before the
    // eviction fix these grew without bound.
    assert_eq!(
        stack.estimators.submission_estimate_count(),
        0,
        "estimates retained for settled tasks"
    );
}

// ---- §6.2's queue time over a deep backlog ----

/// A probe at `NORMAL` waits for every task that outranks it, each
/// counted at its whole estimate, at any depth; `cost_floors` holds the
/// cost flat from 100 to 10,000 queued.
#[test]
fn queue_time_counts_every_task_ahead_in_full() {
    for depth in [10u64, 100, 10_000] {
        let site = SiteDescription::new(sid(1), "s", 1, 1);
        let mut exec = ExecutionService::new(SiteConfig::free(site));
        for id in 1..=depth {
            let spec = TaskSpec::new(TaskId::new(id), "t", "x").with_priority(Priority::new(5));
            let condor = exec.submit(spec.into(), None).unwrap();
            exec.set_estimate(condor, Some(SimDuration::from_secs(100)))
                .unwrap();
        }
        let queue_time = exec.backlog_above(Priority::NORMAL);
        assert_eq!(queue_time, SimDuration::from_secs(100 * depth));
    }
}

// ---- a task and its estimate are one record under one lock ----

/// While the estimate lived in a database of its own, a reader holding
/// the execution service's lock could see a task's estimate in the one
/// and not the other. Now the record *is* the store: whatever a writer
/// is doing, the queue-time sum read under the lock is the one the
/// records read under the same lock add up to.
#[test]
fn a_reader_under_the_exec_lock_sees_task_and_estimate_agree() {
    let grid = GridBuilder::new()
        .site(SiteDescription::new(sid(1), "a", 1, 1))
        .build();
    let stack = ServiceStack::over(grid.clone());
    let exec = grid.exec(sid(1)).unwrap();
    let submit = |id: u64, priority: i32| {
        let spec = TaskSpec::new(TaskId::new(id), format!("t{id}"), "x")
            .with_cpu_demand(SimDuration::from_secs(1_000))
            .with_priority(Priority::new(priority));
        exec.lock().submit(spec.into(), None).unwrap()
    };
    let _running = submit(1, 0);
    let queued = submit(2, 5);
    let estimate = SimDuration::from_secs(700);
    std::thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..5_000 {
                stack.estimators.record_submission(sid(1), queued, estimate);
                stack.estimators.evict_submission(sid(1), queued);
            }
        });
        for _ in 0..5_000 {
            let guard = exec.lock();
            let on_record = guard.record(queued).unwrap().estimated;
            assert_eq!(
                guard.backlog_above(Priority::NORMAL),
                on_record.unwrap_or(SimDuration::ZERO)
            );
        }
    });
    assert_eq!(stack.estimators.submission_estimate(sid(1), queued), None);
    assert_eq!(stack.estimators.submission_estimate_count(), 0);
}

// ---- probe-cache concurrency ----

#[test]
fn concurrent_probes_agree_on_one_measurement() {
    // Noisy probes: a double-probe draws different rng noise, so any
    // check-then-insert race shows up as divergent cached bandwidths.
    let est = std::sync::Arc::new(TransferEstimator::new(NetworkModel::wan_2005(), 99));
    let mut measured: Vec<f64> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let est = est.clone();
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for _ in 0..200 {
                        out.push(est.measured_bandwidth(sid(1), sid(2)));
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            measured.extend(h.join().unwrap());
        }
    });
    let first = measured[0];
    assert!(
        measured.iter().all(|bw| *bw == first),
        "probe cache raced: multiple distinct measurements for one link"
    );
}
