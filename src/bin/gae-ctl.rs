//! `gae-ctl` — command-line client (and demo server) for a GAE
//! deployment.
//!
//! ```text
//! gae-ctl serve [port]                    start a demo grid + all services
//! gae-ctl methods <addr>                  list service.method names
//! gae-ctl call <addr> <method> [args...]  invoke a method
//!     --user NAME --pass PW               log in first (steering needs it)
//! ```
//!
//! Argument literals: integers and floats are sent as numbers,
//! `true`/`false` as booleans, everything else as strings.
//!
//! Demo walk-through:
//!
//! ```text
//! $ gae-ctl serve 8042 &
//! $ gae-ctl methods 127.0.0.1:8042
//! $ gae-ctl call 127.0.0.1:8042 jobmon.job_info 1
//! $ gae-ctl call 127.0.0.1:8042 --user alice --pass analysis steering.pause 1
//! ```

use gae::core::jobmon::JobMonitoringRpc;
use gae::core::steering::SteeringRpc;
use gae::core::MonAlisaRpc;
use gae::prelude::*;
use gae::rpc::{Credentials, Rpc, ServiceHost, TcpRpcClient};
use gae::wire::Value;
use std::net::SocketAddr;
use std::sync::Arc;

fn parse_value(raw: &str) -> Value {
    if let Ok(i) = raw.parse::<i64>() {
        return Value::Int64(i);
    }
    if let Ok(f) = raw.parse::<f64>() {
        if f.is_finite() {
            return Value::Double(f);
        }
    }
    match raw {
        "true" => Value::Bool(true),
        "false" => Value::Bool(false),
        "nil" => Value::Nil,
        other => Value::from(other),
    }
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  gae-ctl serve [port]\n  gae-ctl methods <addr>\n  \
         gae-ctl call <addr> [--user U --pass P] <service.method> [args...]\n  \
         gae-ctl submit <addr> --user U --pass P --job-id N --name NAME \
         --tasks K --cpu SECONDS [--chain]"
    );
    std::process::exit(2);
}

fn resolve(addr: &str) -> SocketAddr {
    addr.parse().unwrap_or_else(|_| {
        eprintln!("gae-ctl: cannot parse address {addr:?} (expected host:port)");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => {
            let port = args
                .iter()
                .skip(1)
                .find_map(|p| p.parse::<u16>().ok())
                .unwrap_or(8042);
            serve(port);
        }
        Some("methods") => {
            let addr = resolve(args.get(1).unwrap_or_else(|| usage()));
            let mut client = TcpRpcClient::connect(addr);
            match client.call("system.listMethods", vec![]) {
                Ok(v) => {
                    for m in v.as_array().unwrap_or(&[]) {
                        println!("{}", m.as_str().unwrap_or("?"));
                    }
                }
                Err(e) => {
                    eprintln!("gae-ctl: {e}");
                    std::process::exit(1);
                }
            }
        }
        Some("call") => {
            let mut rest = args[1..].iter();
            let addr = resolve(rest.next().unwrap_or_else(|| usage()));
            let mut user = None;
            let mut pass = None;
            let mut method = None;
            let mut params = Vec::new();
            while let Some(a) = rest.next() {
                match a.as_str() {
                    "--user" => user = rest.next().cloned(),
                    "--pass" => pass = rest.next().cloned(),
                    _ if method.is_none() => method = Some(a.clone()),
                    _ => params.push(parse_value(a)),
                }
            }
            let method = method.unwrap_or_else(|| usage());
            let mut client = TcpRpcClient::connect(addr);
            if let (Some(u), Some(p)) = (user.as_deref(), pass.as_deref()) {
                if let Err(e) = client.login(u, p) {
                    eprintln!("gae-ctl: login failed: {e}");
                    std::process::exit(1);
                }
            }
            match client.call(&method, params) {
                Ok(v) => println!("{v}"),
                Err(e) => {
                    eprintln!("gae-ctl: {e}");
                    std::process::exit(1);
                }
            }
        }
        Some("submit") => {
            let mut rest = args[1..].iter();
            let addr = resolve(rest.next().unwrap_or_else(|| usage()));
            let (mut user, mut pass) = (None, None);
            let mut job_id = 1u64;
            let mut name = "cli-job".to_string();
            let mut tasks = 1u64;
            let mut cpu = 60.0f64;
            let mut chain = false;
            while let Some(a) = rest.next() {
                match a.as_str() {
                    "--user" => user = rest.next().cloned(),
                    "--pass" => pass = rest.next().cloned(),
                    "--job-id" => {
                        job_id = rest.next().and_then(|v| v.parse().ok()).unwrap_or(job_id)
                    }
                    "--name" => name = rest.next().cloned().unwrap_or(name),
                    "--tasks" => tasks = rest.next().and_then(|v| v.parse().ok()).unwrap_or(tasks),
                    "--cpu" => cpu = rest.next().and_then(|v| v.parse().ok()).unwrap_or(cpu),
                    "--chain" => chain = true,
                    other => {
                        eprintln!("gae-ctl: unknown flag {other:?}");
                        usage();
                    }
                }
            }
            let mut job = JobSpec::new(JobId::new(job_id), name, UserId::new(0));
            let base = job_id * 1_000;
            for i in 0..tasks {
                job.add_task(
                    TaskSpec::new(TaskId::new(base + i + 1), format!("task-{i}"), "analysis")
                        .with_cpu_demand(SimDuration::from_secs_f64(cpu)),
                );
            }
            if chain {
                for i in 1..tasks {
                    job.add_dependency(TaskId::new(base + i), TaskId::new(base + i + 1));
                }
            }
            let mut client = TcpRpcClient::connect(addr);
            match (user.as_deref(), pass.as_deref()) {
                (Some(u), Some(p)) => {
                    if let Err(e) = client.login(u, p) {
                        eprintln!("gae-ctl: login failed: {e}");
                        std::process::exit(1);
                    }
                }
                _ => {
                    eprintln!("gae-ctl: submit requires --user and --pass");
                    std::process::exit(2);
                }
            }
            match client.call(
                "scheduler.submit_job",
                vec![gae::core::submit::job_to_value(&job)],
            ) {
                Ok(plan) => println!("{plan}"),
                Err(e) => {
                    eprintln!("gae-ctl: {e}");
                    std::process::exit(1);
                }
            }
        }
        _ => usage(),
    }
}

/// Demo server: a two-site grid with a running analysis job, virtual
/// time pumped in step with the wall clock.
fn serve(port: u16) {
    let grid = GridBuilder::new()
        .site_with_load(
            SiteDescription::new(SiteId::new(1), "busy-cluster", 4, 1),
            3.0,
        )
        .site(SiteDescription::new(SiteId::new(2), "free-tier2", 4, 2))
        .build();
    let stack = ServiceStack::over(grid.clone());

    let host = ServiceHost::open();
    host.sessions()
        .register(&Credentials::new("alice", "analysis"))
        .expect("fresh session manager");
    let alice = host.sessions().user_id("alice").expect("registered");
    host.register(Arc::new(JobMonitoringRpc::new(stack.jobmon.clone())));
    host.register(Arc::new(SteeringRpc::new(stack.steering.clone())));
    host.register(Arc::new(MonAlisaRpc::new(grid.monitor().clone())));
    host.register(Arc::new(gae::core::estimator::service::EstimatorRpc::new(
        stack.estimators.clone(),
    )));
    host.register(Arc::new(gae::core::SchedulerRpc::new(&stack)));
    host.attach_obs(stack.obs());
    host.register(Arc::new(gae::core::TraceRpc::new(stack.obs())));
    host.register(Arc::new(gae::core::StatsRpc::new(stack.obs())));
    host.register(Arc::new(gae::core::HistoryRpc::new(
        stack.hist.clone(),
        stack.obs(),
    )));
    let catalog = gae::core::ReplicaCatalog::new(grid.clone());
    catalog.register(
        FileRef::new("lfn:/cms/demo-dataset.root", 250_000_000).with_replicas(vec![SiteId::new(2)]),
    );
    host.register(Arc::new(gae::core::ReplicaRpc::new(catalog.clone())));
    // §4.2.4's web interface: GET / for the index, /state/<task> for
    // execution-state downloads.
    host.register_web(stack.steering.web_handler());

    // A long-running demo job to monitor and steer.
    let mut job = JobSpec::new(JobId::new(1), "demo-analysis", alice);
    for i in 1..=3u64 {
        job.add_task(
            TaskSpec::new(TaskId::new(i), format!("step-{i}"), "reco")
                .with_cpu_demand(SimDuration::from_secs(1_800 * i)),
        );
    }
    stack.submit_job(job).expect("schedulable");

    let addr = format!("127.0.0.1:{port}");
    // Held, never stopped: it serves until the process dies. The
    // stack's own gate fronts the socket, so the quota-derived classes
    // and the published `gate` entity are about this traffic; its
    // clock is the virtual time the loop below pumps.
    let server = match gae::aio::ReactorRpcServer::bind_gated(host, 16, &addr, stack.gate.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("gae-ctl: cannot bind port {port}: {e}");
            std::process::exit(1);
        }
    };
    println!("gae-ctl: serving on {}", server.endpoint());
    println!("gae-ctl: demo user alice / analysis; tasks 1..3 of job 1 are live");
    println!("gae-ctl: virtual time tracks wall time; Ctrl-C to stop");

    // Pump virtual time 1:1 with real time; every ten seconds say what
    // the door did, if it did anything.
    let start = std::time::Instant::now();
    let mut reported = 0;
    for tick in 1u64.. {
        std::thread::sleep(std::time::Duration::from_millis(200));
        let now = SimTime::from_secs_f64(start.elapsed().as_secs_f64());
        stack.run_until(now);
        catalog.poll();
        let served = server.requests_served();
        if tick % 50 == 0 && served != reported {
            reported = served;
            println!(
                "gae-ctl: {served} requests served, {} of them on the reactor thread",
                server.inline_served()
            );
        }
    }
}
