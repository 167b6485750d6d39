//! Overload sweep: Figure 6 re-run behind the admission gate.
//!
//! The original figure shows response time climbing without bound as
//! parallel clients exceed the Clarens server's capacity — every
//! request is eventually served, however stale. With `gae-gate` in
//! front the contract changes: the bounded admission queue keeps the
//! latency of *admitted* requests flat and converts the excess into
//! typed `Overloaded` faults carrying a retry-after. This harness
//! measures both halves — admitted latency and shed rate — per client
//! count.

use gae_aio::ReactorRpcServer;
use gae_gate::{Gate, GateConfig, QueueConfig, TokenBucketConfig, WallClock};
use gae_rpc::{CallContext, MethodInfo, Rpc, Service, ServiceHost, TcpRpcClient};
use gae_types::{GaeError, GaeResult, SimDuration};
use gae_wire::Value;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Experiment parameters.
#[derive(Clone, Copy, Debug)]
pub struct GateSweepConfig {
    /// Requests each client issues.
    pub requests_per_client: usize,
    /// Server worker-pool size (service capacity).
    pub workers: usize,
    /// Emulated 2005 per-request service time, in milliseconds.
    pub service_delay_ms: u64,
    /// Admission-queue capacity.
    pub queue_capacity: usize,
    /// Admission-queue deadline, in milliseconds.
    pub queue_deadline_ms: u64,
}

impl Default for GateSweepConfig {
    /// The Figure 6 testbed (16 workers, 10 ms service time) behind a
    /// one-service-interval queue: 32 slots, 2 s patience.
    fn default() -> Self {
        GateSweepConfig {
            requests_per_client: 20,
            workers: 16,
            service_delay_ms: 10,
            queue_capacity: 32,
            queue_deadline_ms: 2_000,
        }
    }
}

/// One row of the sweep.
#[derive(Clone, Copy, Debug)]
pub struct GateSweepRow {
    /// Parallel clients.
    pub clients: usize,
    /// Requests served to completion.
    pub admitted: u64,
    /// Requests refused with a typed `Overloaded`/`RateLimited` fault.
    pub shed: u64,
    /// Mean response time of *admitted* requests, milliseconds.
    pub admitted_mean_ms: f64,
    /// Worst response time of *admitted* requests, milliseconds.
    pub admitted_max_ms: f64,
    /// Mean turnaround of shed requests (fault delivery), milliseconds.
    pub shed_mean_ms: f64,
    /// Highest admission-queue depth the gate observed.
    pub peak_queue_depth: usize,
}

/// A fixed-cost method standing in for the 2005 monitoring service.
struct DelayRpc {
    delay: Duration,
}

impl Service for DelayRpc {
    fn name(&self) -> &'static str {
        "bench"
    }
    fn call(&self, _ctx: &CallContext, method: &str, _params: &[Value]) -> GaeResult<Value> {
        match method {
            "work" => {
                if !self.delay.is_zero() {
                    std::thread::sleep(self.delay);
                }
                Ok(Value::from(1u64))
            }
            other => Err(GaeError::NotFound(format!("bench.{other}"))),
        }
    }
    fn methods(&self) -> Vec<MethodInfo> {
        vec![MethodInfo {
            name: "work",
            help: "fixed-cost request",
        }]
    }
}

/// The fixed-cost `bench.work` service, shared with the C10k sweep
/// (same workload, different front door).
pub(crate) fn delay_service(delay: Duration) -> Arc<dyn Service> {
    Arc::new(DelayRpc { delay })
}

/// A gate whose bounded queue is its only shedding mechanism: every
/// bench client is the anonymous principal, and per-principal rate
/// limiting is not what these harnesses measure.
pub fn queue_only_gate(capacity: usize, deadline: SimDuration) -> Arc<Gate> {
    Gate::new(
        GateConfig {
            bucket: TokenBucketConfig::new(1e9, 1e9),
            queue: QueueConfig::new(capacity, deadline),
            ..GateConfig::default()
        },
        Arc::new(WallClock::new()),
    )
}

/// Runs the gated overload experiment for each client count.
pub fn gate_sweep(client_counts: &[usize], config: GateSweepConfig) -> Vec<GateSweepRow> {
    let mut rows = Vec::new();
    for &clients in client_counts {
        // Fresh server + gate per row so peak_queue_depth is per-row.
        let host = ServiceHost::open();
        host.register(Arc::new(DelayRpc {
            delay: Duration::from_millis(config.service_delay_ms),
        }));
        let gate = queue_only_gate(
            config.queue_capacity,
            SimDuration::from_millis(config.queue_deadline_ms),
        );
        let server = ReactorRpcServer::start_gated(host, config.workers, gate.clone())
            .expect("bind loopback");
        let addr = server.addr();

        let requests = config.requests_per_client;
        let mut handles = Vec::new();
        for _ in 0..clients {
            handles.push(std::thread::spawn(move || {
                let mut client = TcpRpcClient::connect(addr);
                let mut admitted = (0u64, Duration::ZERO, Duration::ZERO); // n, sum, max
                let mut shed = (0u64, Duration::ZERO);
                for _ in 0..requests {
                    let t0 = Instant::now();
                    match client.call("bench.work", vec![]) {
                        Ok(_) => {
                            let dt = t0.elapsed();
                            admitted.0 += 1;
                            admitted.1 += dt;
                            admitted.2 = admitted.2.max(dt);
                        }
                        Err(GaeError::Overloaded { .. }) | Err(GaeError::RateLimited { .. }) => {
                            shed.0 += 1;
                            shed.1 += t0.elapsed();
                        }
                        Err(e) => panic!("unexpected error under overload: {e}"),
                    }
                }
                (admitted, shed)
            }));
        }
        let mut admitted = (0u64, Duration::ZERO, Duration::ZERO);
        let mut shed = (0u64, Duration::ZERO);
        for h in handles {
            let (a, s) = h.join().expect("client thread");
            admitted.0 += a.0;
            admitted.1 += a.1;
            admitted.2 = admitted.2.max(a.2);
            shed.0 += s.0;
            shed.1 += s.1;
        }
        let stats = gate.stats();
        server.stop();

        let mean_ms = |sum: Duration, n: u64| {
            if n == 0 {
                0.0
            } else {
                sum.as_secs_f64() * 1000.0 / n as f64
            }
        };
        rows.push(GateSweepRow {
            clients,
            admitted: admitted.0,
            shed: shed.0,
            admitted_mean_ms: mean_ms(admitted.1, admitted.0),
            admitted_max_ms: admitted.2.as_secs_f64() * 1000.0,
            shed_mean_ms: mean_ms(shed.1, shed.0),
            peak_queue_depth: stats.peak_queue_depth,
        });
    }
    rows
}

/// The paper's client counts (Figure 6 x-axis).
pub const PAPER_CLIENT_COUNTS: [usize; 7] = [1, 2, 3, 5, 25, 50, 100];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overload_row_sheds_and_bounds_admitted_latency() {
        // 12 clients vs 2 workers × 5 ms with a 3-slot queue: heavy
        // shedding, but admitted latency stays near (queue+1) × 5 ms.
        let rows = gate_sweep(
            &[1, 12],
            GateSweepConfig {
                requests_per_client: 6,
                workers: 2,
                service_delay_ms: 5,
                queue_capacity: 3,
                queue_deadline_ms: 1_000,
            },
        );
        assert_eq!(rows.len(), 2);
        let calm = &rows[0];
        let storm = &rows[1];
        assert_eq!(calm.admitted, 6, "an unloaded client is never shed");
        assert_eq!(calm.shed, 0);
        assert_eq!(storm.admitted + storm.shed, 72, "every request accounted");
        assert!(storm.shed > 0, "12 clients on 2+3 capacity must shed");
        assert!(storm.peak_queue_depth <= 3, "queue depth bounded");
        assert!(
            storm.admitted_max_ms < 500.0,
            "admitted latency stays bounded under overload, got {:.1} ms",
            storm.admitted_max_ms
        );
    }
}
