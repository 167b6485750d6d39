//! Criterion benches for the Estimator Service (§6) — the machinery
//! behind Figure 5, measured as code rather than as an experiment:
//! prediction latency vs history size, queue-time estimation, and
//! transfer-time estimation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gae_core::estimator::{EstimationMethod, HistoryStore, RuntimeEstimator, TransferEstimator};
use gae_exec::{ExecutionService, SiteConfig};
use gae_sim::NetworkModel;
use gae_trace::{TaskMeta, WorkloadModel};
use gae_types::{Priority, SimDuration, SiteDescription, SiteId, TaskId, TaskSpec};
use std::hint::black_box;

fn estimator_with_history(jobs: usize) -> (RuntimeEstimator, TaskMeta) {
    let model = WorkloadModel::default();
    let records = model.generate(jobs + 1, 42);
    let store = HistoryStore::new(jobs.max(1));
    store.load_trace(&records[..jobs]);
    let probe = TaskMeta::from_record(&records[jobs]);
    (RuntimeEstimator::new(store), probe)
}

fn bench_runtime_estimation(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_estimate");
    for jobs in [100usize, 1_000, 10_000] {
        let (estimator, probe) = estimator_with_history(jobs);
        group.bench_with_input(BenchmarkId::new("history", jobs), &jobs, |b, _| {
            b.iter(|| black_box(estimator.estimate(black_box(&probe))))
        });
    }
    group.finish();
}

fn bench_estimation_methods(c: &mut Criterion) {
    let mut group = c.benchmark_group("estimate_method");
    for (name, method) in [
        ("mean", EstimationMethod::Mean),
        ("regression", EstimationMethod::Regression),
        ("hybrid", EstimationMethod::Hybrid),
    ] {
        let (est, probe) = estimator_with_history(1_000);
        let est = est.with_method(method);
        group.bench_function(name, |b| {
            b.iter(|| black_box(est.estimate(black_box(&probe))))
        });
    }
    group.finish();
}

/// A single-slot site with `depth` higher-priority tasks queued ahead
/// of a probe, every one with its submission-time estimate stored.
fn site_with_backlog(depth: usize) -> ExecutionService {
    let mut exec = ExecutionService::new(SiteConfig::free(SiteDescription::new(
        SiteId::new(1),
        "s",
        1,
        1,
    )));
    let mut submit = |id: u64, demand_s: u64, priority: Priority| {
        let spec = TaskSpec::new(TaskId::new(id), "t", "x")
            .with_cpu_demand(SimDuration::from_secs(demand_s))
            .with_priority(priority);
        let condor = exec.submit(spec, None).expect("submit");
        exec.set_estimate(condor, Some(SimDuration::from_secs(demand_s)))
            .expect("just submitted");
    };
    for i in 0..depth {
        submit(i as u64 + 1, 100, Priority::new(5));
    }
    submit(999_999, 10, Priority::NORMAL);
    exec
}

/// Wall time of `calls` runs of `f`, per call.
fn per_call<T>(calls: u32, mut f: impl FnMut() -> T) -> std::time::Duration {
    let started = std::time::Instant::now();
    for _ in 0..calls {
        black_box(f());
    }
    started.elapsed() / calls
}

fn bench_queue_time(c: &mut Criterion) {
    let mut group = c.benchmark_group("queue_time_estimate");
    let estimate = |exec: &ExecutionService| exec.backlog_above(black_box(Priority::NORMAL));
    let mut sites = Vec::new();
    for depth in [10usize, 100, 10_000] {
        let exec = site_with_backlog(depth);
        assert_eq!(
            estimate(&exec),
            SimDuration::from_secs(100 * depth as u64),
            "every task ahead of the probe counts in full"
        );
        group.bench_with_input(BenchmarkId::new("queue_depth", depth), &depth, |b, _| {
            b.iter(|| black_box(estimate(&exec)))
        });
        sites.push(exec);
    }
    group.finish();

    // The cost contract (DESIGN.md §15 "Backlog index"), measured
    // directly so it holds in `--test` smoke mode too: an estimate
    // over 10,000 queued tasks costs what one over 100 does (the
    // record walk it replaced: ~100×). Best of 5, taking turns.
    let (small, large) = (&sites[1], &sites[2]);
    let mut best = [std::time::Duration::MAX; 2];
    for _ in 0..5 {
        let round = [
            per_call(20_000, || estimate(small)),
            per_call(20_000, || estimate(large)),
        ];
        for (b, r) in best.iter_mut().zip(round) {
            *b = (*b).min(r);
        }
    }
    let growth = best[1].as_secs_f64().max(1e-12) / best[0].as_secs_f64().max(1e-12);
    println!(
        "queue-time estimate: {:?} over 100 queued tasks, {:?} over 10,000 ({growth:.2}x growth)",
        best[0], best[1]
    );
    assert!(
        growth <= 2.0,
        "queue-time estimate must not grow with the backlog: {:?} at 100, {:?} at 10,000",
        best[0],
        best[1]
    );
}

fn bench_transfer_estimate(c: &mut Criterion) {
    let est = TransferEstimator::new(NetworkModel::wan_2005(), 7);
    // Warm the probe cache, as a deployment would.
    est.measured_bandwidth(SiteId::new(1), SiteId::new(2));
    c.bench_function("transfer_estimate_cached", |b| {
        b.iter(|| {
            black_box(est.estimate_bytes(
                black_box(SiteId::new(1)),
                black_box(SiteId::new(2)),
                black_box(1 << 30),
            ))
        })
    });
}

fn bench_history_observe(c: &mut Criterion) {
    let store = HistoryStore::new(10_000);
    let model = WorkloadModel::default();
    let rec = &model.generate(1, 3)[0];
    let meta = TaskMeta::from_record(rec);
    c.bench_function("history_observe", |b| {
        b.iter(|| {
            store.observe(
                black_box(meta.clone()),
                black_box(SimDuration::from_secs(10)),
            )
        })
    });
}

criterion_group!(
    benches,
    bench_runtime_estimation,
    bench_estimation_methods,
    bench_queue_time,
    bench_transfer_estimate,
    bench_history_observe
);
criterion_main!(benches);
