//! Golden full-state CRCs: the one digest that covers the MonALISA
//! metric *series* (every other digest in the suite — the scenario
//! report's, `tests/harness`, the perf ledger's run digests — hashes
//! task states and counters only).
//!
//! [`StateMachine::query_state`] is the CRC of the stack's canonical
//! snapshot: job repository, steering tracker, quota ledger, transfer
//! catalogue, history store, and every metric ring with its
//! `metrics_published` total. Any change to a published key string, a
//! value, or the order of samples inside one `publish_batch` moves it.
//! The constants below were generated at the commit *before* the
//! `MetricSource` refactor (PR 14) and must only ever be regenerated
//! by a PR that changes published metrics on purpose. (`leader-loss`
//! came out as either `38ef2332` or `8a14b075` there: a site outage
//! failed its tasks in `HashMap` order. The same commit that added
//! this file sorts the victims, which pins the first value.)
//!
//! On a mismatch the hand-built stack prints its sorted
//! `(site, entity, param) = last value` list; run the test with
//! `--nocapture` at both commits and diff the two lists to read off
//! the first differing key. (`run_scenario` does not hand its stack
//! out, so the fleet rows can only name the scenario that moved.)

use gae::core::jobmon::JobMonitoringRpc;
use gae::durable::fault::unique_temp_dir;
use gae::gate::{BreakerConfig, TokenBucketConfig};
use gae::prelude::*;
use gae::rpc::{InProcClient, Rpc, ServiceHost};
use gae::trace::ScenarioSpec;
use gae::wire::Value;
use gae_bench::scenario::{run_scenario, ScenarioOptions};
use std::sync::Arc;

/// The fleet seed (`tests/scenarios/fleet.rs` uses the same one).
const SEED: u64 = 2005;

/// `(scenario, state_crc)` for `ScenarioSpec::all(SEED)` in smoke
/// form under `ScenarioOptions::default()` — except `leader-loss`,
/// which runs with two followers so the failover path is live. (The
/// promoted stack carries no sink, so its final state holds no `repl`
/// series; [`gated_stack`] is the row that does.)
const FLEET_GOLDEN: [(&str, &str); 5] = [
    ("flash-crowd", "44fb5181"),
    ("diurnal", "2b53c0b8"),
    ("chaos-grid", "5614ea0d"),
    ("hot-replica-storm", "58684ced"),
    ("leader-loss", "38ef2332"),
];

/// `query_state` of [`gated_stack`].
const GATED_STACK_GOLDEN: &str = "128fd849";

#[test]
fn scenario_fleet_state_crcs_match_golden() {
    let mut moved = Vec::new();
    for (spec, (name, golden)) in ScenarioSpec::all(SEED).into_iter().zip(FLEET_GOLDEN) {
        let spec = spec.smoke();
        assert_eq!(spec.name, name, "fleet order changed");
        let mut opts = ScenarioOptions::default();
        let mut scratch = None;
        if name == "leader-loss" {
            let dir = unique_temp_dir("golden-state-leader-loss");
            opts.replication = 2;
            opts.persist_dir = Some(dir.clone());
            scratch = Some(dir);
        }
        let report = run_scenario(&spec, &opts);
        if let Some(dir) = scratch {
            std::fs::remove_dir_all(&dir).ok();
        }
        assert!(
            report.invariant_failures.is_empty(),
            "{name}: {:?}",
            report.invariant_failures
        );
        if report.state_crc != golden {
            moved.push(format!(
                "{name}: state crc {} != golden {golden}\n  run digest: {}",
                report.state_crc, report.digest
            ));
        }
    }
    assert!(
        moved.is_empty(),
        "full-state CRC moved (metric series included):\n{}",
        moved.join("\n")
    );
}

/// A gated, persisted, replicated two-site stack with every
/// publication source showing non-trivial values: a staged-input job
/// (xfer storage and link keys), admissions, one rate-limit and one
/// tripped breaker (non-zero `gate` keys plus `breaker_<key>`), a few
/// calls through a `ServiceHost` timed into the stack's hub
/// (per-method `obs` keys), and two followers mirroring the WAL
/// (entity `repl`).
fn gated_stack(dir: &std::path::Path) -> Arc<ServiceStack> {
    let grid = GridBuilder::new()
        .persist(PersistenceConfig::new(dir).fsync(false))
        .site_with_load(SiteDescription::new(SiteId::new(1), "busy", 2, 1), 2.0)
        .site(SiteDescription::new(SiteId::new(2), "free", 2, 2))
        .gate(GateConfig {
            bucket: TokenBucketConfig::new(2.0, 1e-3),
            breaker: BreakerConfig::new(2, SimDuration::from_secs(30)),
            ..GateConfig::default()
        })
        .build();
    let stack = ServiceStack::over(grid);
    let followers = ReplicatedLog::attached(
        &dir.join("repl"),
        ReplConfig {
            followers: 2,
            fsync: false,
        },
        |_| MirrorMachine::new(),
    )
    .unwrap();
    stack.attach_replication(followers).unwrap();

    let mut job = JobSpec::new(JobId::new(1), "golden", UserId::new(1));
    for i in 1..=3u64 {
        job.add_task(
            TaskSpec::new(TaskId::new(i), format!("t{i}"), "reco")
                .with_cpu_demand(SimDuration::from_secs(30 * i))
                .with_inputs(vec![FileRef::new(format!("raw-{i}.root"), 40_000_000)
                    .with_replicas(vec![SiteId::new(1)])]),
        );
    }
    stack.submit_job(job).unwrap();
    stack.run_until(SimTime::from_secs(60));

    // The front door: two admits drain alice's bucket, the third is
    // rate-limited; two failures trip site 1's breaker.
    let alice = Principal::user(UserId::new(1), "gae");
    let host = ServiceHost::open();
    host.attach_obs(stack.obs());
    host.register(Arc::new(JobMonitoringRpc::new(stack.jobmon.clone())));
    let mut client = InProcClient::new(host);
    for _ in 0..3 {
        if stack.gate.admit(&alice).is_ok() {
            client
                .call("jobmon.job_status", vec![Value::from(1u64)])
                .unwrap();
        }
    }
    stack.gate.breaker_record("exec-site-1", false);
    stack.gate.breaker_record("exec-site-1", false);
    assert!(stack
        .gate
        .breaker_check("exec-site-1", GateClass::Production)
        .is_err());

    stack.run_until(SimTime::from_secs(400));
    stack
}

/// Every series' newest sample, sorted by `(site, entity, param)`.
fn last_values(stack: &ServiceStack) -> Vec<String> {
    let (series, published) = stack.grid.monitor().metrics_snapshot();
    let mut rows: Vec<String> = series
        .iter()
        .map(|(key, samples)| {
            format!(
                "({:>2}, {}, {}) = {:?} [{} samples]",
                key.site.raw(),
                key.entity,
                key.param,
                samples.last().map(|s| s.value),
                samples.len()
            )
        })
        .collect();
    rows.sort();
    rows.push(format!("metrics_published = {published}"));
    rows
}

#[test]
fn gated_stack_state_crc_matches_golden() {
    let dir = unique_temp_dir("golden-state-gated");
    let stack = gated_stack(&dir);
    std::fs::remove_dir_all(&dir).ok();
    let rows = last_values(&stack);
    for source in ["estimator", "gate", "xfer", "obs", "hist", "repl"] {
        assert!(
            rows.iter().any(|r| r.contains(&format!(", {source}, "))),
            "entity {source} never published:\n{}",
            rows.join("\n")
        );
    }
    let crc = stack.query_state();
    assert_eq!(
        crc,
        GATED_STACK_GOLDEN,
        "full-state CRC moved; last value per published key:\n{}",
        rows.join("\n")
    );
}
