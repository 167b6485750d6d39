//! Accuracy properties of the three estimators (§6), measured against
//! the simulator's ground truth.

use gae::core::estimator::{EstimationMethod, HistoryStore, RuntimeEstimator};
use gae::prelude::*;
use gae::trace::{TaskMeta, WorkloadModel};
use proptest::prelude::*;
use std::sync::Arc;

// ---- runtime estimator (Figure 5 regime) ----

fn mean_error(seed: u64, method: EstimationMethod) -> f64 {
    let model = WorkloadModel::default();
    let (history, probes) = model.figure5_split(seed);
    let store = HistoryStore::new(1_000);
    store.load_trace(&history);
    let est = RuntimeEstimator::new(store).with_method(method);
    let mut errs = Vec::new();
    for p in probes.iter().filter(|p| p.success) {
        let actual = p.runtime().as_secs_f64();
        if let Ok(e) = est.estimate(&TaskMeta::from_record(p)) {
            errs.push(((actual - e.runtime.as_secs_f64()) / actual).abs() * 100.0);
        }
    }
    errs.iter().sum::<f64>() / errs.len() as f64
}

#[test]
fn figure5_regime_holds_across_seeds() {
    let errors: Vec<f64> = (1..=12)
        .map(|s| mean_error(s, EstimationMethod::Hybrid))
        .collect();
    let mut sorted = errors.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = sorted[sorted.len() / 2];
    assert!(
        (8.0..20.0).contains(&median),
        "median error {median:.2}% outside the paper's 13.53% regime; all: {errors:?}"
    );
}

#[test]
fn history_depth_improves_or_holds_accuracy() {
    // With a tiny history the estimator falls back to coarse
    // templates; a full history must not be worse.
    let model = WorkloadModel::default();
    let (history, probes) = model.figure5_split(3);
    let err_with = |n: usize| {
        let store = HistoryStore::new(1_000);
        store.load_trace(&history[history.len() - n..]);
        let est = RuntimeEstimator::new(store);
        let mut errs = Vec::new();
        for p in probes.iter().filter(|p| p.success) {
            let actual = p.runtime().as_secs_f64();
            if let Ok(e) = est.estimate(&TaskMeta::from_record(p)) {
                errs.push(((actual - e.runtime.as_secs_f64()) / actual).abs());
            }
        }
        errs.iter().sum::<f64>() / errs.len().max(1) as f64
    };
    let shallow = err_with(10);
    let deep = err_with(100);
    assert!(
        deep <= shallow * 1.2,
        "deep history {deep:.3} should not be much worse than shallow {shallow:.3}"
    );
}

// ---- queue-time estimator vs actual waits ----

#[test]
fn queue_estimate_matches_actual_wait_with_good_runtime_estimates() {
    // One single-slot site; three 100 s high-priority tasks ahead of
    // a probe. With exact submission-time estimates the §6.2 estimate
    // equals the actual wait.
    let grid = GridBuilder::new()
        .site(SiteDescription::new(SiteId::new(1), "s", 1, 1))
        .build();
    let stack = ServiceStack::over(grid.clone());
    let mut job = JobSpec::new(JobId::new(1), "queued", UserId::new(1));
    for i in 1..=3 {
        job.add_task(
            TaskSpec::new(TaskId::new(i), format!("t{i}"), "x")
                .with_cpu_demand(SimDuration::from_secs(100))
                .with_priority(Priority::new(5)),
        );
    }
    let probe = job.add_task(
        TaskSpec::new(TaskId::new(4), "probe", "x").with_cpu_demand(SimDuration::from_secs(10)),
    );
    stack.submit_job(job).unwrap();

    // Overwrite the submission-time estimates with exact values (the
    // fallback used requested hours).
    let exec = grid.exec(SiteId::new(1)).unwrap();
    let condors: Vec<_> = {
        let guard = exec.lock();
        (1..=4)
            .map(|i| guard.condor_of(TaskId::new(i)).unwrap())
            .collect()
    };
    for (i, condor) in condors.iter().enumerate() {
        let demand = if i < 3 { 100 } else { 10 };
        stack
            .estimators
            .record_submission(SiteId::new(1), *condor, SimDuration::from_secs(demand));
    }

    let estimate = stack
        .estimators
        .estimate_queue_time(SiteId::new(1), condors[3])
        .unwrap();
    assert_eq!(estimate, SimDuration::from_secs(300), "3 × 100 s ahead");

    // Advance 150 s: one task done, one half-done. Estimate: 50 + 100.
    stack.run_until(SimTime::from_secs(150));
    let estimate = stack
        .estimators
        .estimate_queue_time(SiteId::new(1), condors[3])
        .unwrap();
    assert_eq!(estimate, SimDuration::from_secs(150));

    // Ground truth: the probe starts at exactly t = 300.
    stack.run_until(SimTime::from_secs(320));
    let info = stack.jobmon.job_info(probe).unwrap();
    assert_eq!(info.started_at, Some(SimTime::from_secs(300)));
}

// ---- transfer-time estimator vs network ground truth ----

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn transfer_estimates_within_probe_noise(
        bytes in 1_000_000u64..2_000_000_000,
        seed in 0u64..1_000,
    ) {
        use gae::core::estimator::TransferEstimator;
        use gae::sim::NetworkModel;
        let est = TransferEstimator::new(NetworkModel::wan_2005(), seed, None);
        let from = SiteId::new(1);
        let to = SiteId::new(2);
        let predicted = est.estimate_bytes(from, to, bytes).unwrap().as_secs_f64();
        let actual = est.true_transfer_time(from, to, bytes).as_secs_f64();
        let rel = (predicted - actual).abs() / actual;
        // ±5 % probe noise plus the ignored 30 ms latency term.
        prop_assert!(rel < 0.07, "relative error {rel} for {bytes} bytes");
    }
}

// ---- the learning loop ----

#[test]
fn completions_feed_the_decentralised_histories() {
    let grid = GridBuilder::new()
        .site(SiteDescription::new(SiteId::new(1), "a", 2, 1))
        .site(SiteDescription::new(SiteId::new(2), "b", 2, 1))
        .build();
    let stack = ServiceStack::over(grid);
    // Run the same executable several times at site 1.
    for i in 1..=4u64 {
        let mut job = JobSpec::new(JobId::new(i), format!("j{i}"), UserId::new(1));
        job.add_task(
            TaskSpec::new(TaskId::new(i), "t", "reco").with_cpu_demand(SimDuration::from_secs(200)),
        );
        stack
            .submit_plan(&AbstractPlan::new(job).restricted_to(vec![SiteId::new(1)]))
            .unwrap();
        stack.run_until(SimTime::from_secs(250 * i));
    }
    // Site 1's history now predicts ~200 s for this user+executable.
    let spec = {
        let mut job = JobSpec::new(JobId::new(99), "probe", UserId::new(1));
        let t = job.add_task(TaskSpec::new(TaskId::new(99), "t", "reco"));
        job.task(t).unwrap().clone()
    };
    let est = stack
        .estimators
        .estimate_runtime(SiteId::new(1), &spec)
        .unwrap();
    assert!(
        (est.runtime.as_secs_f64() - 200.0).abs() < 1.0,
        "learned estimate {}",
        est.runtime
    );
    assert!(est.samples >= 4);
    // Site 2 never saw the executable: decentralised histories mean
    // it still cannot estimate.
    assert!(stack
        .estimators
        .estimate_runtime(SiteId::new(2), &spec)
        .is_err());
}

#[test]
fn scheduler_uses_learned_estimates_for_placement() {
    // Site 1 is fast (speed 2), site 2 is reference speed; after the
    // system learns runtimes, a fast-preference job must go to site 1
    // even though both are free.
    let grid = GridBuilder::new()
        .site(SiteDescription::new(SiteId::new(1), "fast", 2, 1).with_speed(2.0))
        .site(SiteDescription::new(SiteId::new(2), "slow", 2, 1))
        .build();
    let stack = ServiceStack::over(grid);
    // Seed both sites' histories identically from a trace.
    let records = WorkloadModel::default().generate(50, 9);
    stack
        .estimators
        .seed_history(SiteId::new(1), &records)
        .unwrap();
    stack
        .estimators
        .seed_history(SiteId::new(2), &records)
        .unwrap();

    let rec = records.iter().find(|r| r.success).unwrap();
    let mut job = JobSpec::new(JobId::new(1), "placed", UserId::new(1));
    let task_id = job.add_task({
        let mut t = TaskSpec::new(TaskId::new(1), "t", rec.account.clone())
            .with_queue(rec.queue.clone())
            .with_nodes(rec.nodes)
            .with_cpu_demand(SimDuration::from_secs(100));
        t.partition = rec.partition.clone();
        t
    });
    let plan = stack.submit_job(job).unwrap();
    assert_eq!(
        plan.site_of(task_id),
        Some(SiteId::new(1)),
        "speed 2 wins under fast"
    );
    let _ = Arc::strong_count(&stack);
}
