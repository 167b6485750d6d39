//! A live Clarens host: serve the GAE services over real XML-RPC/TCP,
//! log in, discover methods, and watch a running job from a separate
//! client connection — the deployment Figure 6 measures.
//!
//! ```text
//! cargo run --example grid_monitor
//! ```

use gae::aio::ReactorRpcServer;
use gae::core::jobmon::JobMonitoringRpc;
use gae::core::steering::SteeringRpc;
use gae::prelude::*;
use gae::rpc::{Credentials, Rpc, ServiceHost, TcpRpcClient};
use gae::wire::Value;
use std::sync::Arc;

fn main() {
    // ---- server side: grid + service stack + Clarens host ----
    let grid = GridBuilder::new()
        .site_with_load(SiteDescription::new(SiteId::new(1), "busy", 2, 1), 4.0)
        .site(SiteDescription::new(SiteId::new(2), "free", 2, 1))
        .build();
    let stack = ServiceStack::over(grid);

    let host = ServiceHost::open();
    host.sessions()
        .register(&Credentials::new("alice", "hunter2"))
        .expect("fresh user");
    host.register(Arc::new(JobMonitoringRpc::new(stack.jobmon.clone())));
    host.register(Arc::new(SteeringRpc::new(stack.steering.clone())));
    let server = ReactorRpcServer::start_gated(host.clone(), 8, stack.gate.clone())
        .expect("bind ephemeral port");
    println!("Clarens host listening on {}", server.endpoint());

    // Submit a job server-side and advance the grid a little.
    let alice = host.sessions().user_id("alice").expect("registered");
    let mut job = JobSpec::new(JobId::new(1), "monitored", alice);
    let task = job.add_task(
        TaskSpec::new(TaskId::new(1), "t", "prime").with_cpu_demand(SimDuration::from_secs(500)),
    );
    stack.submit_job(job).expect("schedulable");
    stack.run_until(SimTime::from_secs(100));

    // ---- client side: a real TCP XML-RPC session ----
    let mut client = TcpRpcClient::connect(server.addr());

    println!("\nsystem.listMethods:");
    let methods = client
        .call("system.listMethods", vec![])
        .expect("listMethods");
    for m in methods.as_array().expect("array") {
        println!("  {}", m.as_str().expect("string"));
    }

    let sid = client.login("alice", "hunter2").expect("login");
    println!("\nlogged in as alice, session {sid}");

    let status = client
        .call("jobmon.job_status", vec![Value::from(task.raw())])
        .expect("job_status");
    println!("jobmon.job_status({task}) = {status}");

    let info = client
        .call("jobmon.job_info", vec![Value::from(task.raw())])
        .expect("job_info");
    let info = gae::core::jobmon::JobMonitoringInfo::from_value(&info).expect("decodable");
    println!(
        "jobmon.job_info: site={} cpu={} elapsed={} progress={:.1}%",
        info.site,
        info.cpu_time,
        info.elapsed,
        info.progress * 100.0
    );

    // Steer the job over the wire: pause, check, resume.
    client
        .call("steering.pause", vec![Value::from(task.raw())])
        .expect("pause");
    println!("paused via steering.pause");
    let status = client
        .call("jobmon.job_status", vec![Value::from(task.raw())])
        .expect("status");
    println!("status now: {status}");
    client
        .call("steering.resume", vec![Value::from(task.raw())])
        .expect("resume");
    println!("resumed via steering.resume");

    // An unauthorized user cannot steer alice's job.
    host.sessions()
        .register(&Credentials::new("mallory", "pw"))
        .expect("fresh user");
    let mut intruder = TcpRpcClient::connect(server.addr());
    intruder.login("mallory", "pw").expect("login");
    match intruder.call("steering.kill", vec![Value::from(task.raw())]) {
        Err(e) => println!("mallory's kill rejected: {e}"),
        Ok(_) => unreachable!("the session manager must reject this"),
    }

    client.logout().expect("logout");
    println!(
        "\nrequests served: {} ({} on the reactor thread)",
        server.requests_served(),
        server.inline_served()
    );
    server.stop();
}
