//! The full remote-client story: a physicist at a laptop submits a
//! DAG job over XML-RPC, watches it through the monitoring service,
//! steers it, and downloads the outcome — never touching an
//! in-process handle.

mod door;

use door::open_gate;
use gae::aio::ReactorRpcServer;
use gae::core::jobmon::JobMonitoringInfo;
use gae::core::submit::{job_to_value, SchedulerRpc};
use gae::prelude::*;
use gae::rpc::{Credentials, Rpc, ServiceHost, TcpRpcClient};
use gae::wire::Value;
use std::sync::Arc;

struct Deployment {
    stack: Arc<ServiceStack>,
    server: ReactorRpcServer,
}

fn deploy() -> Deployment {
    let grid = GridBuilder::new()
        .site(SiteDescription::new(SiteId::new(1), "alpha", 4, 1))
        .site(SiteDescription::new(SiteId::new(2), "beta", 4, 1).with_speed(2.0))
        .build();
    let stack = ServiceStack::over(grid);
    let host = ServiceHost::open();
    host.sessions()
        .register(&Credentials::new("alice", "pw"))
        .unwrap();
    host.register(Arc::new(SchedulerRpc::new(&stack)));
    host.register(Arc::new(gae::core::jobmon::JobMonitoringRpc::new(
        stack.jobmon.clone(),
    )));
    host.register(Arc::new(gae::core::steering::SteeringRpc::new(
        stack.steering.clone(),
    )));
    let server = ReactorRpcServer::start_gated(host, 4, open_gate(4)).unwrap();
    Deployment { stack, server }
}

fn demo_job() -> JobSpec {
    // Owner is overwritten by the session server-side.
    let mut job = JobSpec::new(JobId::new(1), "remote-analysis", UserId::new(0));
    let a = job.add_task(
        TaskSpec::new(TaskId::new(1), "gen", "gen").with_cpu_demand(SimDuration::from_secs(60)),
    );
    let b = job.add_task(
        TaskSpec::new(TaskId::new(2), "reco", "reco").with_cpu_demand(SimDuration::from_secs(120)),
    );
    job.add_dependency(a, b);
    job
}

#[test]
fn submit_requires_a_session() {
    let d = deploy();
    let mut anon = TcpRpcClient::connect(d.server.addr());
    let err = anon
        .call("scheduler.submit_job", vec![job_to_value(&demo_job())])
        .unwrap_err();
    assert!(matches!(err, GaeError::Unauthorized(_)));
    d.server.stop();
}

#[test]
fn full_remote_lifecycle() {
    let d = deploy();
    let mut client = TcpRpcClient::connect(d.server.addr());
    client.login("alice", "pw").unwrap();

    // Discover the grid.
    let sites = client.call("scheduler.sites", vec![]).unwrap();
    let sites = sites.as_array().unwrap();
    assert_eq!(sites.len(), 2);
    assert!(sites
        .iter()
        .all(|s| s.member("alive").unwrap().as_bool().unwrap()));

    // Submit the job; the fast site (beta, speed 2) must win.
    let plan = client
        .call("scheduler.submit_job", vec![job_to_value(&demo_job())])
        .unwrap();
    let assignments = plan.member("assignments").unwrap().as_array().unwrap();
    assert_eq!(assignments.len(), 2);
    for a in assignments {
        assert_eq!(
            a.member("site").unwrap().as_u64().unwrap(),
            2,
            "speed 2 wins"
        );
    }

    // The job is now steerable by its remote owner...
    client
        .call("steering.pause", vec![Value::from(1u64)])
        .unwrap();
    client
        .call("steering.resume", vec![Value::from(1u64)])
        .unwrap();

    // ...and observable. Drive the grid (the "server side" of the
    // deployment) and poll from the client.
    d.stack.run_until(SimTime::from_secs(400));
    let info = client
        .call("jobmon.job_info", vec![Value::from(2u64)])
        .unwrap();
    let info = JobMonitoringInfo::from_value(&info).unwrap();
    assert_eq!(info.status, TaskStatus::Completed);
    assert_eq!(info.job, JobId::new(1));

    // Ownership followed the session, not the payload.
    let owner = d.stack.steering.tracked_job(JobId::new(1)).unwrap().owner();
    assert!(owner.raw() > 0);
    assert_eq!(
        d.stack.steering.jobs_of(owner),
        vec![JobId::new(1)],
        "the session user owns the job"
    );
    d.server.stop();
}

#[test]
fn submit_with_preference_and_restriction() {
    let d = deploy();
    let mut client = TcpRpcClient::connect(d.server.addr());
    client.login("alice", "pw").unwrap();
    // Restrict to the slow site explicitly.
    let plan = client
        .call(
            "scheduler.submit_job",
            vec![
                job_to_value(&demo_job()),
                Value::from("fast"),
                Value::Array(vec![Value::from(1u64)]),
            ],
        )
        .unwrap();
    for a in plan.member("assignments").unwrap().as_array().unwrap() {
        assert_eq!(a.member("site").unwrap().as_u64().unwrap(), 1);
    }
    // Garbage preference faults.
    let err = client
        .call(
            "scheduler.submit_job",
            vec![job_to_value(&demo_job()), Value::from("warp-speed")],
        )
        .unwrap_err();
    assert!(matches!(err, GaeError::Parse(_)));
    // Invalid job (cycle) faults.
    let mut bad = demo_job();
    bad.add_dependency(TaskId::new(2), TaskId::new(1));
    let err = client
        .call("scheduler.submit_job", vec![job_to_value(&bad)])
        .unwrap_err();
    assert!(matches!(err, GaeError::InvalidPlan(_)), "{err}");
    d.server.stop();
}
