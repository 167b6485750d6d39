//! Observability counters over the `monalisa.*` RPC facade: the
//! estimator memo-cache hit/miss counters published every poll.

use gae::core::monalisa::MonAlisaRpc;
use gae::prelude::*;
use gae::rpc::{CallContext, Service};
use gae::wire::Value;

fn ctx() -> CallContext {
    CallContext::anonymous("test")
}

fn latest(rpc: &MonAlisaRpc, site: u64, entity: &str, param: &str) -> Option<f64> {
    let out = rpc
        .call(
            &ctx(),
            "latest",
            &[Value::from(site), Value::from(entity), Value::from(param)],
        )
        .expect("latest call");
    match out {
        Value::Nil => None,
        v => Some(v.member("value").unwrap().as_f64().unwrap()),
    }
}

/// Repeated estimates for the same `(site, meta)` key must move both
/// memo counters, and the counters must be queryable over the
/// `monalisa` facade like any other metric.
#[test]
fn memo_counters_move_and_are_queryable_over_rpc() {
    let grid = GridBuilder::new()
        .site(SiteDescription::new(SiteId::new(1), "alpha", 2, 2))
        .site(SiteDescription::new(SiteId::new(2), "beta", 2, 2))
        .build();
    let stack = ServiceStack::over(grid);

    // Seed the history: one short job that completes quickly.
    let mut seed = JobSpec::new(JobId::new(1), "seed", UserId::new(1));
    for k in 0..3u64 {
        seed.add_task(
            TaskSpec::new(TaskId::new(100 + k), format!("seed-{k}"), "app")
                .with_cpu_demand(SimDuration::from_secs(5)),
        );
    }
    stack.submit_job(seed).unwrap();
    stack.run_until(SimTime::from_secs(60));

    let rpc = MonAlisaRpc::new(stack.grid.monitor().clone());
    let hits_before = latest(&rpc, 0, "estimator", "memo_hits").unwrap_or(0.0);

    // Repeated-estimate workload: the same metadata tuple over and
    // over, with no history change in between — pure memo hits after
    // the first computation.
    let spec =
        TaskSpec::new(TaskId::new(900), "probe", "app").with_cpu_demand(SimDuration::from_secs(5));
    for _ in 0..16 {
        stack
            .estimators
            .estimate_runtime(SiteId::new(1), &spec)
            .expect("history is non-empty");
    }
    let (hits, misses) = stack.estimators.memo_stats();
    assert!(misses >= 1, "first estimate is a miss (misses={misses})");
    assert!(hits >= 15, "repeats are memo hits (hits={hits})");

    // The next poll publishes the counters into the repository; they
    // must be visible through the RPC facade and have moved.
    stack.run_until(SimTime::from_secs(65));
    let hits_after = latest(&rpc, 0, "estimator", "memo_hits").expect("published");
    let misses_after = latest(&rpc, 0, "estimator", "memo_misses").expect("published");
    assert!(
        hits_after > hits_before,
        "memo_hits did not move over RPC: {hits_before} -> {hits_after}"
    );
    assert_eq!(misses_after as u64, misses);
    assert_eq!(hits_after as u64, hits);
}
