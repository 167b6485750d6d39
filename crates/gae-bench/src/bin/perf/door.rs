//! The RPC front door as `gae-ctl serve` assembles it — one
//! `ServiceHost` with the jobmon, estimator and scheduler facades and
//! the obs hub attached — served by a gated `ReactorRpcServer` on
//! loopback with two workers.

use crate::harness::Report;
use crate::span::Tracer;
use gae_aio::ReactorRpcServer;
use gae_core::estimator::service::EstimatorRpc;
use gae_core::grid::ServiceStack;
use gae_core::jobmon::JobMonitoringRpc;
use gae_core::SchedulerRpc;
use gae_gate::{Gate, GateConfig, GateStats, QueueConfig, TokenBucketConfig, WallClock};
use gae_rpc::{CallContext, Credentials, MethodInfo, Rpc, Service, ServiceHost, TcpRpcClient};
use gae_types::{GaeResult, SimDuration};
use gae_wire::Value;
use std::net::SocketAddr;
use std::sync::Arc;

/// Request processors behind the door (`nproc` = 2).
pub const WORKERS: usize = 2;
/// The one registered user; `scheduler.submit_job` needs a session.
pub const USER: &str = "alice";
pub const PASSWORD: &str = "analysis";

/// Records a `body` span around the wrapped service's `call`, so the
/// replay can split `ServiceHost::handle` into dispatch and body.
struct Traced {
    inner: Arc<dyn Service>,
    tracer: Arc<Tracer>,
}

impl Service for Traced {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn call(&self, ctx: &CallContext, method: &str, params: &[Value]) -> GaeResult<Value> {
        self.tracer
            .span("body", || self.inner.call(ctx, method, params))
    }
    fn methods(&self) -> Vec<MethodInfo> {
        self.inner.methods()
    }
}

/// A host over `stack`. With a tracer every service body is spanned
/// (the replay's host); without, services are registered bare (the
/// host the sockets serve).
pub fn host_over(stack: &Arc<ServiceStack>, tracer: Option<&Arc<Tracer>>) -> Arc<ServiceHost> {
    let host = ServiceHost::open();
    host.sessions()
        .register(&Credentials::new(USER, PASSWORD))
        .expect("fresh session manager");
    let services: [Arc<dyn Service>; 3] = [
        Arc::new(JobMonitoringRpc::new(stack.jobmon.clone())),
        Arc::new(EstimatorRpc::new(stack.estimators.clone())),
        Arc::new(SchedulerRpc::new(stack)),
    ];
    for inner in services {
        host.register(match tracer {
            Some(tracer) => Arc::new(Traced {
                inner,
                tracer: tracer.clone(),
            }),
            None => inner,
        });
    }
    host.attach_obs(stack.obs());
    host
}

/// A gate that classifies and queues but never sheds: the bucket is
/// wide open and the queue far deeper than two closed-loop clients
/// can fill.
pub fn open_gate() -> Arc<Gate> {
    Gate::new(
        GateConfig {
            bucket: TokenBucketConfig::new(1e9, 1e9),
            queue: QueueConfig::new(1024, SimDuration::from_secs(60)),
            ..GateConfig::default()
        },
        Arc::new(WallClock::new()),
    )
}

/// The served door. Dropping it stops the reactor and joins it.
pub struct Door {
    gate: Arc<Gate>,
    server: ReactorRpcServer,
}

impl Door {
    pub fn open(stack: &Arc<ServiceStack>) -> Door {
        let gate = open_gate();
        let server = ReactorRpcServer::start_gated(host_over(stack, None), WORKERS, gate.clone())
            .expect("bind loopback");
        Door { gate, server }
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// A keep-alive client, logged in as [`USER`].
    pub fn client(&self) -> TcpRpcClient {
        let mut client = TcpRpcClient::connect(self.addr());
        client.login(USER, PASSWORD).expect("registered user");
        client
    }

    /// Stops the server (joins the reactor thread and its workers) and
    /// returns the gate's counters.
    pub fn close(self) -> GateStats {
        let stats = self.gate.stats();
        self.server.stop();
        stats
    }

    /// [`Door::close`], reporting the gate layer: anything the gate
    /// turned away counts as a failed op.
    pub fn close_into(self, report: &mut Report) {
        let stats = self.close();
        let shed: u64 = [stats.shed, stats.expired, stats.rate_limited]
            .iter()
            .flatten()
            .sum();
        report.metric(
            "gate.queue_peak_depth",
            stats.peak_queue_depth as f64,
            "count",
        );
        report.metric("gate.shed", shed as f64, "count");
        report.failed += shed;
    }
}

/// One closed-loop call, with the reply's fault (if any) as `Err`.
pub fn call(client: &mut TcpRpcClient, call: gae_wire::MethodCall) -> GaeResult<Value> {
    client.call(&call.name, call.params)
}
