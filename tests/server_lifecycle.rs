//! The served host's lifecycle (`gae::server::Server`, what `gae-ctl
//! serve` runs): a server stopped on its store and started again serves
//! the same job table; a `gae-ctl serve --store` process stopped by
//! SIGTERM exits 0 and loses nothing it acknowledged; and `serve`
//! refuses flags it does not know instead of reading them as a port.

use gae::core::submit::job_to_value;
use gae::durable::fault::unique_temp_dir;
use gae::prelude::*;
use gae::rpc::{Rpc, TcpRpcClient};
use gae::server::{Server, PASSWORD, USER};
use gae::wire::Value;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

const GAE_CTL: &str = env!("CARGO_BIN_EXE_gae-ctl");

/// Job 2: two short tasks, 2001 and 2002.
fn job_two() -> JobSpec {
    let mut job = JobSpec::new(JobId::new(2), "second", UserId::new(0));
    for id in [2001, 2002] {
        job.add_task(
            TaskSpec::new(TaskId::new(id), format!("t{id}"), "analysis")
                .with_cpu_demand(SimDuration::from_secs(600)),
        );
    }
    job
}

fn submit_job_two(addr: SocketAddr) {
    let mut client = TcpRpcClient::connect(addr);
    client.login(USER, PASSWORD).expect("demo user logs in");
    client
        .call("scheduler.submit_job", vec![job_to_value(&job_two())])
        .expect("job 2 acknowledged");
}

/// Waits up to `limit` for `child` to exit; kills it and fails if it
/// is still running then.
fn exit_within(child: &mut Child, limit: Duration) -> ExitStatus {
    let start = Instant::now();
    loop {
        if let Some(status) = child.try_wait().expect("poll child") {
            return status;
        }
        if start.elapsed() > limit {
            let _ = child.kill();
            let _ = child.wait();
            panic!("still running after {limit:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn a_restarted_server_serves_the_same_job_table() {
    let dir = unique_temp_dir("server-restart");
    let server = Server::start("127.0.0.1:0", Some(&dir)).expect("start on a fresh store");
    submit_job_two(server.door.addr());
    assert!(server.stop().expect("final checkpoint") > 0);

    let server = Server::start("127.0.0.1:0", Some(&dir)).expect("restart on the same store");
    let mut client = TcpRpcClient::connect(server.door.addr());
    client.login(USER, PASSWORD).expect("demo user logs in");
    assert_eq!(
        client.call("steering.my_jobs", vec![]).expect("my_jobs"),
        Value::Array(vec![Value::from(1u64), Value::from(2u64)])
    );
    for task in [1u64, 2, 3, 2001, 2002] {
        client
            .call("jobmon.job_info", vec![Value::from(task)])
            .unwrap_or_else(|e| panic!("task {task} after the restart: {e}"));
    }
    // Job 1 was recovered, not submitted again: each of its tasks sits
    // in exactly one site's records.
    let copies: usize = server
        .stack
        .grid
        .sites()
        .map(|(_, exec)| {
            exec.lock()
                .records()
                .filter(|r| r.spec.job == JobId::new(1))
                .count()
        })
        .sum();
    assert_eq!(copies, 3, "job 1's tasks were submitted twice");
    server.stop().expect("second stop");
    std::fs::remove_dir_all(&dir).ok();
}

extern "C" {
    fn kill(pid: i32, signal: i32) -> i32;
}

#[test]
fn sigterm_stops_serve_and_loses_nothing_acknowledged() {
    const SIGTERM: i32 = 15;
    let dir = unique_temp_dir("serve-sigterm");
    let mut child = Command::new(GAE_CTL)
        .args(["serve", "0", "--store"])
        .arg(&dir)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn gae-ctl serve");
    // Kept open to the end: `serve` prints until it exits.
    let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut lines = stdout.lines().map_while(Result::ok);
    let endpoint = lines
        .find_map(|line| {
            let rest = line.strip_prefix("gae-ctl: serving on http://")?;
            rest.strip_suffix("/RPC2").map(str::to_owned)
        })
        .expect("endpoint line");
    submit_job_two(endpoint.parse().expect("endpoint address"));

    // SAFETY: `kill` is the libc call of that name; it takes two
    // integers and touches no memory of this process.
    assert_eq!(unsafe { kill(child.id() as i32, SIGTERM) }, 0);
    let status = exit_within(&mut child, Duration::from_secs(30));
    assert!(status.success(), "serve exited with {status}");
    let last = lines.last().unwrap_or_default();
    assert!(last.starts_with("gae-ctl: stopped at commit"), "{last}");

    let (stack, host) = gae::server::demo(Some(&dir)).expect("recover the store");
    let alice = host.sessions().user_id(USER).expect("demo user");
    assert_eq!(
        stack.steering.jobs_of(alice),
        vec![JobId::new(1), JobId::new(2)]
    );
    for task in [2001, 2002] {
        stack
            .jobmon
            .job_info(TaskId::new(task))
            .unwrap_or_else(|e| panic!("acknowledged task {task} lost: {e}"));
    }
    drop((stack, host));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_rejects_flags_it_does_not_know() {
    for args in [
        &["serve", "--store", "9000", "--verbose"][..],
        &["serve", "--port", "9000"],
        &["serve", "0", "9000"],
        &["serve", "--store"],
    ] {
        let mut child = Command::new(GAE_CTL)
            .args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn gae-ctl");
        let status = exit_within(&mut child, Duration::from_secs(10));
        assert_eq!(status.code(), Some(2), "gae-ctl {args:?}");
    }
}
