//! Job-granularity steering: "kill, pause, and resume, change
//! priority of the job" (§4) applied to whole jobs, in-process and
//! over the wire.

mod door;

use door::open_gate;
use gae::aio::ReactorRpcServer;
use gae::core::steering::{SteeringCommand, SteeringRpc};
use gae::prelude::*;
use gae::rpc::{Credentials, Rpc, ServiceHost, TcpRpcClient};
use gae::wire::Value;
use std::sync::Arc;

fn stack_with_job(tasks: u64, owner: UserId) -> (Arc<ServiceStack>, JobId) {
    let grid = GridBuilder::new()
        .site(SiteDescription::new(SiteId::new(1), "a", 4, 2))
        .site(SiteDescription::new(SiteId::new(2), "b", 4, 2))
        .build();
    let stack = ServiceStack::over(grid);
    let mut job = JobSpec::new(JobId::new(1), "bulk", owner);
    for i in 1..=tasks {
        job.add_task(
            TaskSpec::new(TaskId::new(i), format!("t{i}"), "x")
                .with_cpu_demand(SimDuration::from_secs(500)),
        );
    }
    stack.submit_job(job).unwrap();
    stack.run_until(SimTime::from_secs(20));
    (stack, JobId::new(1))
}

#[test]
fn pause_and_resume_whole_job() {
    let owner = UserId::new(1);
    let (stack, job) = stack_with_job(4, owner);
    let affected = stack
        .steering
        .command_job(owner, job, SteeringCommand::Pause)
        .unwrap();
    assert_eq!(affected, 4);
    for i in 1..=4 {
        assert_eq!(
            stack.jobmon.job_info(TaskId::new(i)).unwrap().status,
            TaskStatus::Suspended
        );
    }
    assert_eq!(stack.jobmon.job_status(job), JobStatus::Suspended);
    let affected = stack
        .steering
        .command_job(owner, job, SteeringCommand::Resume)
        .unwrap();
    assert_eq!(affected, 4);
    stack.run_until(SimTime::from_secs(600));
    assert_eq!(stack.jobmon.job_status(job), JobStatus::Completed);
}

#[test]
fn kill_whole_job_skips_settled_tasks() {
    let owner = UserId::new(1);
    let (stack, job) = stack_with_job(3, owner);
    // Settle one task first.
    stack
        .steering
        .command(owner, TaskId::new(1), SteeringCommand::Kill)
        .unwrap();
    let affected = stack
        .steering
        .command_job(owner, job, SteeringCommand::Kill)
        .unwrap();
    assert_eq!(affected, 2, "already-killed task skipped");
    assert_eq!(stack.jobmon.job_status(job), JobStatus::Killed);
}

#[test]
fn job_priority_sweep() {
    let owner = UserId::new(1);
    let (stack, job) = stack_with_job(3, owner);
    let affected = stack
        .steering
        .command_job(owner, job, SteeringCommand::SetPriority(Priority::HIGH))
        .unwrap();
    assert_eq!(affected, 3);
    for i in 1..=3 {
        assert_eq!(
            stack.jobmon.job_info(TaskId::new(i)).unwrap().priority,
            Priority::HIGH
        );
    }
}

#[test]
fn job_commands_enforce_ownership() {
    let owner = UserId::new(1);
    let (stack, job) = stack_with_job(2, owner);
    let err = stack
        .steering
        .command_job(UserId::new(2), job, SteeringCommand::Pause)
        .unwrap_err();
    assert!(matches!(err, GaeError::Unauthorized(_)));
    assert!(stack
        .steering
        .command_job(owner, JobId::new(99), SteeringCommand::Pause)
        .is_err());
}

#[test]
fn jobs_of_lists_only_the_owners_jobs() {
    let (stack, _job) = stack_with_job(1, UserId::new(1));
    let mut other = JobSpec::new(JobId::new(2), "other", UserId::new(2));
    other.add_task(
        TaskSpec::new(TaskId::new(50), "t", "x").with_cpu_demand(SimDuration::from_secs(10)),
    );
    stack.submit_job(other).unwrap();
    assert_eq!(stack.steering.jobs_of(UserId::new(1)), vec![JobId::new(1)]);
    assert_eq!(stack.steering.jobs_of(UserId::new(2)), vec![JobId::new(2)]);
    assert!(stack.steering.jobs_of(UserId::new(3)).is_empty());
}

#[test]
fn job_commands_over_the_wire() {
    let host = ServiceHost::open();
    host.sessions()
        .register(&Credentials::new("alice", "pw"))
        .unwrap();
    let owner = host.sessions().user_id("alice").unwrap();
    let (stack, job) = stack_with_job(3, owner);
    host.register(Arc::new(SteeringRpc::new(stack.steering.clone())));
    let server = ReactorRpcServer::start_gated(host, 4, open_gate(4)).unwrap();
    let mut client = TcpRpcClient::connect(server.addr());
    client.login("alice", "pw").unwrap();

    let mine = client.call("steering.my_jobs", vec![]).unwrap();
    assert_eq!(mine.as_array().unwrap().len(), 1);

    let paused = client
        .call("steering.pause_job", vec![Value::from(job.raw())])
        .unwrap();
    assert_eq!(paused, Value::Int64(3));
    assert_eq!(stack.jobmon.job_status(job), JobStatus::Suspended);

    let reprioritised = client
        .call(
            "steering.set_job_priority",
            vec![Value::from(job.raw()), Value::Int(7)],
        )
        .unwrap();
    assert_eq!(reprioritised, Value::Int64(3));

    let resumed = client
        .call("steering.resume_job", vec![Value::from(job.raw())])
        .unwrap();
    assert_eq!(resumed, Value::Int64(3));

    let killed = client
        .call("steering.kill_job", vec![Value::from(job.raw())])
        .unwrap();
    assert_eq!(killed, Value::Int64(3));
    assert_eq!(stack.jobmon.job_status(job), JobStatus::Killed);
    server.stop();
}
