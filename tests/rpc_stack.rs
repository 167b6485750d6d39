//! The full GAE deployment over real XML-RPC/TCP: every service
//! registered on one Clarens host, exercised by genuine network
//! clients — sessions, faults, concurrency, and the steering flow.

mod door;

use door::open_gate;
use gae::aio::ReactorRpcServer;
use gae::core::jobmon::{JobMonitoringInfo, JobMonitoringRpc};
use gae::core::steering::SteeringRpc;
use gae::prelude::*;
use gae::rpc::{Credentials, Rpc, ServiceHost, TcpRpcClient};
use gae::wire::Value;
use std::sync::Arc;

struct Deployment {
    stack: Arc<ServiceStack>,
    host: Arc<ServiceHost>,
    server: ReactorRpcServer,
    owner: UserId,
    task: TaskId,
}

fn deploy() -> Deployment {
    let grid = GridBuilder::new()
        .site(SiteDescription::new(SiteId::new(1), "alpha", 4, 1))
        .site(SiteDescription::new(SiteId::new(2), "beta", 4, 1))
        .build();
    let stack = ServiceStack::over(grid);
    let host = ServiceHost::open();
    host.sessions()
        .register(&Credentials::new("alice", "pw"))
        .unwrap();
    host.sessions()
        .register(&Credentials::new("mallory", "pw"))
        .unwrap();
    let owner = host.sessions().user_id("alice").unwrap();
    host.register(Arc::new(JobMonitoringRpc::new(stack.jobmon.clone())));
    host.register(Arc::new(SteeringRpc::new(stack.steering.clone())));
    host.register(Arc::new(gae::core::estimator::service::EstimatorRpc::new(
        stack.estimators.clone(),
    )));
    let server = ReactorRpcServer::start_gated(host.clone(), 8, open_gate(8)).unwrap();

    let mut job = JobSpec::new(JobId::new(1), "wired", owner);
    let task = job.add_task(
        TaskSpec::new(TaskId::new(1), "t", "prime").with_cpu_demand(SimDuration::from_secs(1_000)),
    );
    stack.submit_job(job).unwrap();
    stack.run_until(SimTime::from_secs(100));
    Deployment {
        stack,
        host,
        server,
        owner,
        task,
    }
}

#[test]
fn job_info_roundtrips_over_the_wire() {
    let d = deploy();
    let mut client = TcpRpcClient::connect(d.server.addr());
    let raw = client
        .call("jobmon.job_info", vec![Value::from(d.task.raw())])
        .unwrap();
    let info = JobMonitoringInfo::from_value(&raw).unwrap();
    assert_eq!(info.task, d.task);
    assert_eq!(info.status, TaskStatus::Running);
    assert_eq!(info.owner, d.owner);
    assert!((info.cpu_time.as_secs_f64() - 100.0).abs() < 1e-6);
    // And it matches the in-process view exactly.
    let local = d.stack.jobmon.job_info(d.task).unwrap();
    assert_eq!(info, local);
    d.server.stop();
}

#[test]
fn steering_requires_a_session_over_tcp() {
    let d = deploy();
    let mut anon = TcpRpcClient::connect(d.server.addr());
    let err = anon
        .call("steering.pause", vec![Value::from(d.task.raw())])
        .unwrap_err();
    assert!(matches!(err, GaeError::Unauthorized(_)), "{err}");

    let mut alice = TcpRpcClient::connect(d.server.addr());
    alice.login("alice", "pw").unwrap();
    alice
        .call("steering.pause", vec![Value::from(d.task.raw())])
        .unwrap();
    assert_eq!(
        d.stack.jobmon.job_info(d.task).unwrap().status,
        TaskStatus::Suspended
    );
    alice
        .call("steering.resume", vec![Value::from(d.task.raw())])
        .unwrap();

    let mut mallory = TcpRpcClient::connect(d.server.addr());
    mallory.login("mallory", "pw").unwrap();
    let err = mallory
        .call("steering.kill", vec![Value::from(d.task.raw())])
        .unwrap_err();
    assert!(matches!(err, GaeError::Unauthorized(_)), "{err}");
    d.server.stop();
}

#[test]
fn steering_move_over_the_wire() {
    let d = deploy();
    let mut alice = TcpRpcClient::connect(d.server.addr());
    alice.login("alice", "pw").unwrap();
    let before = d.stack.jobmon.job_info(d.task).unwrap().site;
    let target = if before == SiteId::new(1) { 2u64 } else { 1u64 };
    alice
        .call(
            "steering.move",
            vec![Value::from(d.task.raw()), Value::from(target)],
        )
        .unwrap();
    let after = d.stack.jobmon.job_info(d.task).unwrap().site;
    assert_eq!(after, SiteId::new(target));
    assert_ne!(before, after);
    d.server.stop();
}

#[test]
fn estimator_service_over_the_wire() {
    let d = deploy();
    let mut client = TcpRpcClient::connect(d.server.addr());

    // Transfer-time estimate: 1 GB over the default 12.5 MB/s WAN is
    // around 86 s (± probe noise).
    let t = client
        .call(
            "estimator.transfer_time",
            vec![
                Value::from(1u64),
                Value::from(2u64),
                Value::from(1_000_000_000u64),
            ],
        )
        .unwrap()
        .as_f64()
        .unwrap();
    assert!((t - 80.0).abs() < 15.0, "transfer estimate {t}");

    // Queue-time estimate for the running task: nothing above its
    // priority, so zero.
    let q = client
        .call(
            "estimator.queue_time",
            vec![
                Value::from(d.stack.jobmon.job_info(d.task).unwrap().site.raw()),
                Value::from(d.stack.jobmon.job_info(d.task).unwrap().condor.raw()),
            ],
        )
        .unwrap()
        .as_f64()
        .unwrap();
    assert_eq!(q, 0.0);

    // Runtime estimation faults cleanly with an empty history.
    let err = client
        .call(
            "estimator.estimate_runtime",
            vec![
                Value::from(1u64),
                Value::from("user-1"),
                Value::from("prime"),
                Value::from("default"),
                Value::from("compute"),
                Value::from(1u64),
                Value::from("batch"),
            ],
        )
        .unwrap_err();
    assert!(matches!(err, GaeError::Estimator(_)), "{err}");
    d.server.stop();
}

#[test]
fn estimator_learns_from_completions_over_the_stack() {
    let d = deploy();
    // Finish the 1000 s task; the collector observes its completion
    // and the runtime estimator learns from it.
    d.stack.run_until(SimTime::from_secs(1_200));
    let site = d.stack.jobmon.job_info(d.task).unwrap().site;
    let mut client = TcpRpcClient::connect(d.server.addr());
    let est = client
        .call(
            "estimator.estimate_runtime",
            vec![
                Value::from(site.raw()),
                Value::from(d.owner.to_string()),
                Value::from("prime"),
                Value::from("default"),
                Value::from("compute"),
                Value::from(1u64),
                Value::from("batch"),
            ],
        )
        .unwrap();
    let runtime_s = est.member("runtime_s").unwrap().as_f64().unwrap();
    assert!(
        (runtime_s - 1_000.0).abs() < 1.0,
        "one observation of 1000 s should predict {runtime_s}"
    );
    d.server.stop();
}

#[test]
fn concurrent_monitoring_clients_see_consistent_state() {
    let d = deploy();
    let addr = d.server.addr();
    let task = d.task.raw();
    let mut handles = Vec::new();
    for _ in 0..8 {
        handles.push(std::thread::spawn(move || {
            let mut client = TcpRpcClient::connect(addr);
            for _ in 0..25 {
                let status = client
                    .call("jobmon.job_status", vec![Value::from(task)])
                    .unwrap();
                assert_eq!(status.as_str().unwrap(), "running");
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert!(d.server.requests_served() >= 200);
    d.server.stop();
}

#[test]
fn wire_faults_map_back_to_typed_errors() {
    let d = deploy();
    let mut client = TcpRpcClient::connect(d.server.addr());
    let err = client
        .call("jobmon.job_info", vec![Value::from(99_999u64)])
        .unwrap_err();
    assert!(matches!(err, GaeError::NotFound(_)), "{err}");
    let err = client.call("jobmon.job_info", vec![]).unwrap_err();
    assert!(matches!(err, GaeError::Parse(_)), "{err}");
    let err = client.call("jobmon.no_such_method", vec![]).unwrap_err();
    assert!(matches!(err, GaeError::Rpc { code: -32601, .. }), "{err}");
    d.server.stop();
}

#[test]
fn list_active_over_the_wire_and_in_process() {
    let d = deploy();
    // In-process: exactly the one running task.
    let active = d.stack.jobmon.list_active();
    assert_eq!(active.len(), 1);
    assert_eq!(active[0].task, d.task);
    assert_eq!(active[0].status, TaskStatus::Running);
    // Over the wire: the same view.
    let mut client = TcpRpcClient::connect(d.server.addr());
    let wire = client.call("jobmon.list_active", vec![]).unwrap();
    let wire = wire.as_array().unwrap();
    assert_eq!(wire.len(), 1);
    let info = JobMonitoringInfo::from_value(&wire[0]).unwrap();
    assert_eq!(info.task, d.task);
    // Finish the job: the active list empties.
    d.stack.run_until(SimTime::from_secs(1_200));
    assert!(d.stack.jobmon.list_active().is_empty());
    d.server.stop();
}

#[test]
fn per_node_metrics_published_to_monalisa() {
    use gae::monitor::MetricKey;
    let d = deploy();
    let site = d.stack.jobmon.job_info(d.task).unwrap().site;
    // The node hosting the task reports one busy slot.
    let busy: f64 = (1..=4)
        .filter_map(|n| {
            d.stack
                .grid
                .monitor()
                .latest(&MetricKey::new(site, format!("node-{n}"), "busy_slots"))
                .map(|s| s.value)
        })
        .sum();
    assert_eq!(busy, 1.0, "exactly one slot busy across the site");
    d.server.stop();
}

#[test]
fn aggregate_job_status_over_the_wire() {
    let d = deploy();
    let mut client = TcpRpcClient::connect(d.server.addr());
    let s = client
        .call("jobmon.job_aggregate_status", vec![Value::from(1u64)])
        .unwrap();
    assert_eq!(s.as_str().unwrap(), "active");
    let tasks = client
        .call("jobmon.job_tasks", vec![Value::from(1u64)])
        .unwrap();
    assert_eq!(tasks.as_array().unwrap().len(), 1);
    // The host keeps serving after all that.
    assert_eq!(
        client.call("system.ping", vec![]).unwrap(),
        Value::from("pong")
    );
    let _ = &d.host;
    d.server.stop();
}
