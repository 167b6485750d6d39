//! Figure 6: mean response time of the Job Monitoring Service as the
//! number of parallel clients grows (1, 2, 3, 5, 25, 50, 100).
//!
//! This experiment runs on **real sockets and real threads**: a
//! Clarens-substitute host serves `jobmon.*` over XML-RPC/HTTP on a
//! loopback TCP port, N client threads hammer it, and we report the
//! mean per-request wall time.
//!
//! The 2005 testbed (Windows-XP JClarens, Java XML parsing) had a
//! per-request service time near 10 ms; modern Rust parses the same
//! request in microseconds, which would flatten the curve into noise.
//! To preserve the phenomenon the figure is about — *queueing once
//! parallel clients exceed the server's service capacity* — the
//! harness wraps the service with a configurable 2005-calibrated
//! service delay (default 10 ms) and a worker pool of 16, mirroring a
//! servlet container of the era. Set `service_delay_ms: 0` to measure
//! the raw Rust stack instead.

use crate::paper::Page;
use gae_aio::ReactorRpcServer;
use gae_core::grid::{GridBuilder, ServiceStack};
use gae_core::jobmon::JobMonitoringRpc;
use gae_rpc::{CallContext, MethodInfo, Rpc, Service, ServiceHost, TcpRpcClient};
use gae_types::{
    GaeError, GaeResult, JobId, JobSpec, SimDuration, SimTime, SiteDescription, SiteId, TaskId,
    TaskSpec, UserId,
};
use gae_wire::Value;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Experiment parameters.
#[derive(Clone, Copy, Debug)]
pub struct Fig6Config {
    /// Requests each client issues.
    pub requests_per_client: usize,
    /// Server worker-pool size (service capacity).
    pub workers: usize,
    /// Emulated 2005 per-request service time, in milliseconds.
    pub service_delay_ms: u64,
    /// Number of tasks pre-loaded into the monitored grid.
    pub tasks: usize,
}

impl Default for Fig6Config {
    fn default() -> Self {
        Fig6Config {
            requests_per_client: 20,
            workers: 16,
            service_delay_ms: 10,
            tasks: 50,
        }
    }
}

/// One row of the figure.
#[derive(Clone, Copy, Debug)]
pub struct Fig6Row {
    /// Parallel clients.
    pub clients: usize,
    /// Mean per-request response time, milliseconds.
    pub mean_response_ms: f64,
    /// Aggregate request throughput, requests/second.
    pub throughput_rps: f64,
}

/// Wraps a service with an emulated per-request service time.
struct DelayedService {
    inner: Arc<dyn Service>,
    delay: Duration,
}

impl Service for DelayedService {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn call(&self, ctx: &CallContext, method: &str, params: &[Value]) -> GaeResult<Value> {
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        self.inner.call(ctx, method, params)
    }
    fn methods(&self) -> Vec<MethodInfo> {
        self.inner.methods()
    }
}

/// Builds the monitored grid: a service stack with `tasks` running
/// tasks, advanced into steady state.
fn monitored_stack(tasks: usize) -> Arc<ServiceStack> {
    let grid = GridBuilder::new()
        .site(SiteDescription::new(SiteId::new(1), "farm", 16, 4))
        .build();
    let stack = ServiceStack::over(grid);
    let mut job = JobSpec::new(JobId::new(1), "monitored", UserId::new(1));
    for i in 0..tasks {
        job.add_task(
            TaskSpec::new(TaskId::new(i as u64 + 1), format!("t{i}"), "reco")
                .with_cpu_demand(SimDuration::from_secs(100_000)),
        );
    }
    stack.submit_job(job).expect("schedulable");
    stack.run_until(SimTime::from_secs(60));
    stack
}

/// The longest a shed client waits before asking again: about one
/// 2005 request service time.
const SHED_BACKOFF: Duration = Duration::from_millis(10);

/// Runs the experiment for each client count.
pub fn figure6(client_counts: &[usize], config: Fig6Config) -> Vec<Fig6Row> {
    let stack = monitored_stack(config.tasks);
    let host = ServiceHost::open();
    host.register(Arc::new(DelayedService {
        inner: Arc::new(JobMonitoringRpc::new(stack.jobmon.clone())),
        delay: Duration::from_millis(config.service_delay_ms),
    }));
    // The era's servlet container: four queued requests per worker,
    // and a queued request waits as long as the sweep runs.
    let gate = crate::c10k::queue_only_gate(4 * config.workers, SimDuration::from_secs(3_600));
    let server = ReactorRpcServer::start_gated(host, config.workers, gate).expect("bind loopback");
    let addr = server.addr();

    let mut rows = Vec::new();
    for &clients in client_counts {
        let requests = config.requests_per_client;
        let tasks = config.tasks as u64;
        let start = Instant::now();
        let mut handles = Vec::new();
        for c in 0..clients {
            handles.push(std::thread::spawn(move || {
                let mut client = TcpRpcClient::connect(addr);
                let mut total = Duration::ZERO;
                for r in 0..requests {
                    let task = (c * requests + r) as u64 % tasks + 1;
                    let t0 = Instant::now();
                    // Past workers + backlog the door sheds with a
                    // typed retry-after where the 2005 server queued
                    // without bound: the era's client waits and asks
                    // again, inside the timed span. The hint is the
                    // time to the oldest queued deadline — here the
                    // whole sweep — so it is capped at a service time.
                    loop {
                        match client.call("jobmon.job_info", vec![Value::from(task)]) {
                            Ok(_) => break,
                            Err(GaeError::Overloaded { retry_after_us, .. }) => std::thread::sleep(
                                SHED_BACKOFF.min(Duration::from_micros(retry_after_us)),
                            ),
                            Err(e) => panic!("monitoring query: {e}"),
                        }
                    }
                    total += t0.elapsed();
                }
                total
            }));
        }
        let mut total_latency = Duration::ZERO;
        for h in handles {
            total_latency += h.join().expect("client thread");
        }
        let wall = start.elapsed();
        let n_requests = (clients * requests) as f64;
        rows.push(Fig6Row {
            clients,
            mean_response_ms: total_latency.as_secs_f64() * 1000.0 / n_requests,
            throughput_rps: n_requests / wall.as_secs_f64(),
        });
    }
    server.stop();
    rows
}

/// The paper's client counts.
pub const PAPER_CLIENT_COUNTS: [usize; 7] = [1, 2, 3, 5, 25, 50, 100];

/// `results/fig6.txt`: the paper's client counts at the default
/// configuration. It times real sockets, so no two renders agree.
pub fn render() -> String {
    let config = Fig6Config::default();
    let mut out = Page::default();
    out.line("== Figure 6: Job Monitoring Service response times ==");
    out.line(format!(
        "transport: XML-RPC over HTTP over loopback TCP; {} workers; {} requests/client; \
         emulated service time {} ms\n",
        config.workers, config.requests_per_client, config.service_delay_ms
    ));
    out.line("parallel clients  avg response time (ms)  throughput (req/s)");
    for row in figure6(&PAPER_CLIENT_COUNTS, config) {
        out.line(format!(
            "{:>16}  {:>22.2}  {:>18.0}",
            row.clients, row.mean_response_ms, row.throughput_rps
        ));
    }
    out.line(
        "\npaper's series (Windows-XP JClarens, 2005): \
         1→~10ms, 5→~15ms, 25→~30ms, 50→~40ms, 100→~65ms",
    );
    out.line(
        "expected shape: flat while clients ≤ workers, then a roughly \
         linear climb as requests queue.",
    );
    out.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_latency_rises_with_saturation() {
        // Quick shape check with tiny parameters: capacity 2, delay
        // 5 ms. 8 clients must see clearly higher latency than 1.
        let rows = figure6(
            &[1, 8],
            Fig6Config {
                requests_per_client: 5,
                workers: 2,
                service_delay_ms: 5,
                tasks: 4,
            },
        );
        assert_eq!(rows.len(), 2);
        let one = rows[0].mean_response_ms;
        let eight = rows[1].mean_response_ms;
        assert!(
            one >= 4.0,
            "one client should pay the service time, got {one:.2}ms"
        );
        assert!(
            eight > one * 2.0,
            "8 clients on 2 workers must queue: {one:.2}ms -> {eight:.2}ms"
        );
    }

    #[test]
    fn raw_stack_is_fast() {
        // Without the 2005 service-time emulation the Rust stack
        // answers in well under a millisecond on loopback.
        let rows = figure6(
            &[1],
            Fig6Config {
                requests_per_client: 50,
                workers: 4,
                service_delay_ms: 0,
                tasks: 4,
            },
        );
        assert!(
            rows[0].mean_response_ms < 5.0,
            "raw loopback latency {:.3}ms unexpectedly high",
            rows[0].mean_response_ms
        );
    }
}
