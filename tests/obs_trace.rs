//! End-to-end observability (DESIGN.md §10): each submitted task
//! yields one connected causal tree retrievable over RPC by its
//! TaskId — its own, however many sites hand out the same CondorId —
//! trace trees replay byte-identically run to run, latency
//! histograms publish under the MonALISA `obs` entity, and the
//! `X-GAE-Trace` header carries contexts across the TCP transport.

mod door;

use door::open_gate;
use gae::aio::ReactorRpcServer;
use gae::core::{StatsRpc, TraceRpc};
use gae::obs::{ObsHub, SpanId, TraceContext, TraceId};
use gae::prelude::*;
use gae::rpc::{InProcClient, Rpc, ServiceHost, TcpRpcClient};
use gae::types::WallClock;
use gae::wire::Value;
use std::sync::Arc;

fn one_job_stack() -> Arc<ServiceStack> {
    let grid = GridBuilder::new()
        .site_with_load(SiteDescription::new(SiteId::new(1), "busy", 2, 1), 2.0)
        .site(SiteDescription::new(SiteId::new(2), "free", 2, 1))
        .build();
    let stack = ServiceStack::over(grid);
    let mut job = JobSpec::new(JobId::new(1), "traced", UserId::new(1));
    for i in 1..=3u64 {
        job.add_task(
            TaskSpec::new(TaskId::new(i), format!("t{i}"), "reco")
                .with_cpu_demand(SimDuration::from_secs(40 * i)),
        );
    }
    stack.submit_job(job).unwrap();
    stack.run_until(SimTime::from_secs(300));
    stack
}

// ---- the single-job causal tree, over RPC ----

#[test]
fn submitted_job_yields_one_connected_trace_tree_over_rpc() {
    let stack = one_job_stack();
    let info = stack.jobmon.job_info(TaskId::new(1)).unwrap();
    assert_eq!(info.status, TaskStatus::Completed);

    let host = ServiceHost::open();
    host.register(Arc::new(TraceRpc::new(stack.obs())));
    let mut client = InProcClient::new(host);

    let tree = client
        .call("trace.get", vec![Value::from(1u64)])
        .expect("trace retrievable by TaskId");
    let spans = match tree.member("spans").unwrap() {
        Value::Array(spans) => spans.clone(),
        other => panic!("spans should be an array, got {other:?}"),
    };
    assert!(spans.len() >= 4, "root + submit + run + collect: {spans:?}");

    // Connectedness: exactly one root, every parent resolves to a
    // recorded span of the same tree.
    let ids: Vec<i64> = spans
        .iter()
        .map(|s| s.member("span").unwrap().as_i64().unwrap())
        .collect();
    let roots = spans
        .iter()
        .filter(|s| s.member("parent").unwrap().is_nil())
        .count();
    assert_eq!(roots, 1, "one root span");
    for s in &spans {
        let parent = s.member("parent").unwrap();
        if !parent.is_nil() {
            assert!(
                ids.contains(&parent.as_i64().unwrap()),
                "dangling parent in {s:?}"
            );
        }
    }

    // The lifecycle steps all appear in the one tree.
    let names: Vec<String> = spans
        .iter()
        .map(|s| s.member("name").unwrap().as_str().unwrap().to_string())
        .collect();
    for expected in ["steer.submit", "exec.run", "steer.collect"] {
        assert!(
            names.iter().any(|n| n.starts_with(expected)),
            "missing {expected} in {names:?}"
        );
    }

    // The lifecycle instants are the job record's, in order.
    let started = info.started_at.expect("started");
    assert!(info.submitted_at <= started);
    assert!(started < info.completed_at.expect("completed"));

    // And the text dump renders the tree.
    let text = client
        .call("trace.render", vec![Value::from(1u64)])
        .unwrap();
    let text = text.as_str().unwrap();
    assert!(text.contains("exec.run"), "{text}");
    assert!(text.contains("steer.collect"), "{text}");
}

// ---- one tree per task, across sites ----

/// Every site numbers its CondorIds from 1, so on two sites two tasks
/// share each CondorId. A task's tree is keyed by its TaskId: it holds
/// its own submission and its own run, equal to the job record's
/// instants, and nothing of the task that shares its CondorId.
#[test]
fn each_task_tree_holds_only_its_own_submit_and_run() {
    let grid = GridBuilder::new()
        .site(SiteDescription::new(SiteId::new(1), "one", 1, 1))
        .site(SiteDescription::new(SiteId::new(2), "two", 1, 1))
        .build();
    let stack = ServiceStack::over(grid);
    let mut job = JobSpec::new(JobId::new(1), "two sites", UserId::new(1));
    for i in 1..=4u64 {
        job.add_task(
            TaskSpec::new(TaskId::new(i), format!("t{i}"), "reco")
                .with_cpu_demand(SimDuration::from_secs(40)),
        );
    }
    stack.submit_job(job).unwrap();
    stack.run_until(SimTime::from_secs(600));

    let host = ServiceHost::open();
    host.register(Arc::new(TraceRpc::new(stack.obs())));
    let mut client = InProcClient::new(host);
    let mut sites = std::collections::BTreeSet::new();
    let mut condors = std::collections::BTreeSet::new();
    for i in 1..=4u64 {
        let info = stack.jobmon.job_info(TaskId::new(i)).unwrap();
        assert_eq!(info.status, TaskStatus::Completed, "task {i}");
        sites.insert(info.site);
        condors.insert(info.condor);
        let text = client.call("trace.render", vec![Value::from(i)]).unwrap();
        let text = text.as_str().unwrap();
        let lines: Vec<&str> = text.lines().map(str::trim).collect();
        let named = |prefix: &str| -> Vec<&str> {
            lines
                .iter()
                .copied()
                .filter(|l| l.starts_with(prefix))
                .collect()
        };
        let submit = format!("- steer.submit site-{} ", info.site.raw());
        let submits = named("- steer.submit");
        assert_eq!(submits.len(), 1, "task {i}: {text}");
        assert!(submits[0].starts_with(&submit), "task {i}: {text}");
        let run = format!(
            "- exec.run [{}us..{}us]",
            info.started_at.unwrap().as_micros(),
            info.completed_at.unwrap().as_micros()
        );
        assert_eq!(named("- exec.run"), [run.as_str()], "task {i}: {text}");
    }
    assert_eq!(sites.len(), 2, "both sites ran tasks");
    assert!(condors.len() < 4, "the sites reused CondorIds");
}

// ---- determinism run to run ----

#[test]
fn trace_trees_are_deterministic_run_to_run() {
    // Each call is a fresh stack: new `Grid`, new `HashMap` seeds.
    let render_all = || -> Vec<String> {
        let stack = one_job_stack();
        (1..=3u64)
            .map(|i| stack.obs().render_task(i).expect("traced"))
            .collect()
    };
    assert_eq!(render_all(), render_all(), "replayed trace trees diverged");
}

// ---- histogram publication under the `obs` entity ----

#[test]
fn latency_histograms_publish_under_the_obs_entity() {
    let stack = one_job_stack();

    // Drive some RPCs through a host wired to the stack's hub so
    // per-method histograms have samples.
    let host = ServiceHost::open();
    host.attach_obs(stack.obs());
    host.register(Arc::new(gae::core::jobmon::JobMonitoringRpc::new(
        stack.jobmon.clone(),
    )));
    let mut client = InProcClient::new(host);
    for _ in 0..5 {
        client
            .call("jobmon.job_status", vec![Value::from(1u64)])
            .unwrap();
    }

    // The next poll publishes the snapshots.
    stack.run_until(SimTime::from_secs(305));
    let monitor = stack.grid.monitor();
    let latest = |entity: &str, param: &str| -> Option<f64> {
        monitor
            .latest(&gae::monitor::MetricKey::new(SiteId::new(0), entity, param))
            .map(|s| s.value)
    };
    assert_eq!(
        latest("obs", "jobmon.job_status_count"),
        Some(5.0),
        "per-method count under the obs entity"
    );
    for q in ["p50_us", "p95_us", "p99_us"] {
        assert!(
            latest("obs", &format!("jobmon.job_status_{q}")).is_some(),
            "missing quantile {q}"
        );
    }
    // Gate dispositions from the steering breaker path publish too.
    assert!(
        latest("obs", "gate_admit_count").unwrap_or(0.0) >= 3.0,
        "three submissions passed the admission check"
    );

    // The same snapshot answers over the stats facade.
    let stats_host = ServiceHost::open();
    stats_host.register(Arc::new(StatsRpc::new(stack.obs())));
    let mut stats = InProcClient::new(stats_host);
    let snap = stats
        .call("stats.histogram", vec![Value::from("jobmon.job_status")])
        .unwrap();
    assert_eq!(snap.member("count").unwrap().as_i64().unwrap(), 5);
    let methods = stats.call("stats.methods", vec![]).unwrap();
    match methods {
        Value::Array(names) => assert!(names.iter().any(|n| n.as_str().unwrap() == "gate:admit")),
        other => panic!("methods should be an array, got {other:?}"),
    }
}

// ---- trace context over the TCP transport ----

#[test]
fn trace_context_propagates_over_the_wire() {
    let hub = ObsHub::new(Arc::new(WallClock::new()));
    let host = ServiceHost::open();
    host.attach_obs(hub.clone());
    let server = ReactorRpcServer::start_gated(host, 2, open_gate(2)).unwrap();
    let mut client = TcpRpcClient::connect(server.addr());

    // A client-chosen context rides the X-GAE-Trace header; the
    // server's dispatch span lands in that tree.
    let ctx = TraceContext {
        trace: TraceId::new(0x77),
        span: SpanId::ROOT,
    };
    client.set_trace(Some(ctx));
    client.call("system.ping", vec![]).unwrap();
    let spans = hub.traces().spans(TraceId::new(0x77)).expect("joined");
    assert!(
        spans.iter().any(|s| s.name == "rpc.system.ping"),
        "{spans:?}"
    );

    // Without an attached context the door mints a fresh trace.
    let before = hub.traces().len();
    client.set_trace(None);
    client.call("system.ping", vec![]).unwrap();
    assert_eq!(hub.traces().len(), before + 1, "door-minted trace");
}
