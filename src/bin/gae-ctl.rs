//! `gae-ctl` — command-line client (and demo server) for a GAE
//! deployment.
//!
//! ```text
//! gae-ctl serve [port] [--store DIR]      serve the demo grid + all services
//! gae-ctl methods <addr>                  list service.method names
//! gae-ctl call <addr> <method> [args...]  invoke a method
//!     --user NAME --pass PW               log in first (steering needs it)
//! ```
//!
//! `serve` runs [`gae::server::Server`]. With `--store DIR` it persists
//! into `DIR`, recovering what is there first. SIGINT or SIGTERM stops
//! it: the door stops, a final checkpoint commits every acknowledged
//! request, and the process exits 0.
//!
//! Argument literals: integers and floats are sent as numbers,
//! `true`/`false` as booleans, everything else as strings.
//!
//! Demo walk-through:
//!
//! ```text
//! $ gae-ctl serve 8042 --store /tmp/gae-demo &
//! $ gae-ctl methods 127.0.0.1:8042
//! $ gae-ctl call 127.0.0.1:8042 jobmon.job_info 1
//! $ gae-ctl call 127.0.0.1:8042 --user alice --pass analysis steering.pause 1
//! ```

use gae::prelude::*;
use gae::rpc::{Rpc, TcpRpcClient};
use gae::server::Server;
use gae::wire::Value;
use std::net::SocketAddr;
use std::os::raw::c_int;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

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
        "usage:\n  gae-ctl serve [port] [--store DIR]\n  gae-ctl methods <addr>\n  \
         gae-ctl call <addr> [--user U --pass P] <service.method> [args...]\n  \
         gae-ctl submit <addr> --user U --pass P --job-id N --name NAME \
         --tasks K --cpu SECONDS [--chain]"
    );
    std::process::exit(2);
}

/// Reports `what` and exits 1.
fn fail(what: impl std::fmt::Display) -> ! {
    eprintln!("gae-ctl: {what}");
    std::process::exit(1);
}

fn login(client: &mut TcpRpcClient, user: &str, pass: &str) {
    if let Err(e) = client.login(user, pass) {
        fail(format_args!("login failed: {e}"));
    }
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
            let (mut port, mut store) = (None, None);
            let mut rest = args[1..].iter();
            while let Some(a) = rest.next() {
                match a.as_str() {
                    "--store" => store = Some(rest.next().unwrap_or_else(|| usage())),
                    p if port.is_none() => port = Some(p.parse().unwrap_or_else(|_| usage())),
                    _ => usage(),
                }
            }
            serve(port.unwrap_or(8042), store.map(Path::new));
        }
        Some("methods") => {
            let addr = resolve(args.get(1).unwrap_or_else(|| usage()));
            let mut client = TcpRpcClient::connect(addr);
            let methods = client.call("system.listMethods", vec![]);
            for m in methods
                .unwrap_or_else(|e| fail(e))
                .as_array()
                .unwrap_or(&[])
            {
                println!("{}", m.as_str().unwrap_or("?"));
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
                login(&mut client, u, p);
            }
            println!(
                "{}",
                client.call(&method, params).unwrap_or_else(|e| fail(e))
            );
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
                (Some(u), Some(p)) => login(&mut client, u, p),
                _ => {
                    eprintln!("gae-ctl: submit requires --user and --pass");
                    std::process::exit(2);
                }
            }
            let job = gae::core::submit::job_to_value(&job);
            let plan = client.call("scheduler.submit_job", vec![job]);
            println!("{}", plan.unwrap_or_else(|e| fail(e)));
        }
        _ => usage(),
    }
}

/// Set by SIGINT and SIGTERM; `serve`'s loop polls it.
static STOP: AtomicBool = AtomicBool::new(false);

extern "C" fn on_stop_signal(_: c_int) {
    STOP.store(true, Ordering::Release);
}

extern "C" {
    fn signal(signum: c_int, handler: extern "C" fn(c_int)) -> usize;
}

/// Serves the demo deployment until SIGINT or SIGTERM, then stops it.
fn serve(port: u16, store: Option<&Path>) {
    const SIGINT: c_int = 2;
    const SIGTERM: c_int = 15;
    // SAFETY: the handler only stores to an atomic, which is
    // async-signal-safe; it is installed before anything is printed.
    unsafe {
        signal(SIGINT, on_stop_signal);
        signal(SIGTERM, on_stop_signal);
    }
    let server = Server::start(&format!("127.0.0.1:{port}"), store)
        .unwrap_or_else(|e| fail(format_args!("cannot serve on port {port}: {e}")));
    let door = &server.door;
    println!("gae-ctl: serving on {}", door.endpoint());
    println!("gae-ctl: demo user alice / analysis; tasks 1..3 of job 1 are live");
    println!("gae-ctl: virtual time tracks wall time; Ctrl-C or SIGTERM to stop");

    // Every ten seconds say what the door did, if it did anything.
    let mut reported = 0;
    for tick in 1u64.. {
        if STOP.load(Ordering::Acquire) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(200));
        let served = door.requests_served();
        if tick % 50 == 0 && served != reported {
            reported = served;
            println!(
                "gae-ctl: {served} requests served, {} of them on the reactor thread",
                door.inline_served()
            );
        }
    }
    match server.stop() {
        Ok(index) => println!("gae-ctl: stopped at commit {index}"),
        Err(e) => fail(format_args!("final checkpoint failed: {e}")),
    }
}
