//! `query_small`: the paper's Figure 6 call. Two keep-alive clients,
//! one thread each, ask `jobmon.job_info(task)` for tasks drawn from
//! 50 live ones on a static one-site stack — no pump, no emulated
//! service delay.
//!
//! Why: the smallest message and a trivial service body, so the
//! per-message cost of aio/rpc/wire/gate is nearly all the work;
//! hist, steering and durable do nothing.

use crate::door::{self, Door};
use crate::gen::{self, Requests};
use crate::harness::{timed_setup, Config, Recorder, Report, Samples, TRACE_DIVISOR};
use crate::replay::{DoorReplay, Path};
use crate::span::{median_ns, overhead_ratio, Tracer};
use gae_core::grid::{GridBuilder, ServiceStack};
use gae_rpc::TcpRpcClient;
use gae_types::{
    JobId, JobSpec, SimDuration, SimTime, SiteDescription, SiteId, TaskId, TaskSpec, UserId,
};
use gae_wire::Value;
use std::sync::{Arc, Barrier};

const CLIENTS: u64 = 2;
const LIVE_TASKS: u64 = 50;
const REQUESTS: Requests = Requests::JobInfo { live: LIVE_TASKS };
/// Calls before timing starts, all clients together.
const WARM_UP: u64 = 20_000;
/// Timed calls per second of `--seconds`, all clients together.
const CALLS_PER_SECOND: u64 = 10_000;
const SMOKE_CALLS: u64 = 4_000;

/// The Figure 6 grid: one 16×4 farm running one job of 50 long tasks,
/// advanced into steady state and then left alone.
fn monitored_stack() -> Arc<ServiceStack> {
    let grid = GridBuilder::new()
        .site(SiteDescription::new(SiteId::new(1), "farm", 16, 4))
        .build();
    let stack = ServiceStack::over(grid);
    let mut job = JobSpec::new(JobId::new(1), "monitored", UserId::new(1));
    for i in 1..=LIVE_TASKS {
        job.add_task(
            TaskSpec::new(TaskId::new(i), format!("t{i}"), "reco")
                .with_cpu_demand(SimDuration::from_secs(100_000)),
        );
    }
    stack.submit_job(job).expect("schedulable");
    stack.run_until(SimTime::from_secs(60));
    stack
}

struct Rig {
    stack: Arc<ServiceStack>,
    door: Door,
    clients: Vec<TcpRpcClient>,
}

/// `calls` closed-loop calls split over the clients, each on its own
/// thread with its own request stream. Every reply must name the task
/// that was asked for.
fn drive(clients: &mut [TcpRpcClient], seed: u64, stream: u64, calls: u64) -> Samples {
    let per_client = calls / clients.len() as u64;
    let barrier = Barrier::new(clients.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut rng = gen::rng(seed, stream + c as u64);
                    barrier.wait();
                    let mut rec = Recorder::start(per_client);
                    for i in 0..per_client {
                        let call = gen::request(REQUESTS, &mut rng, i);
                        let asked = call.params[0].as_u64().expect("task id");
                        let reply = rec.time(|| door::call(client, call));
                        match reply.as_ref().map(named_task) {
                            Ok(Some(task)) if task == asked => rec.digest.u64(task),
                            _ => rec.failed += 1,
                        }
                    }
                    rec.finish()
                })
            })
            .collect();
        Samples::merge(
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect(),
        )
    })
}

fn named_task(reply: &Value) -> Option<u64> {
    reply.member("task").ok()?.as_u64().ok()
}

fn warm_up(cfg: &Config) -> u64 {
    if cfg.smoke {
        WARM_UP / 10
    } else {
        WARM_UP
    }
}

fn setup(cfg: &Config) -> Rig {
    let stack = monitored_stack();
    let door = Door::open(&stack);
    let mut clients: Vec<_> = (0..CLIENTS).map(|_| door.client()).collect();
    let warm = drive(&mut clients, cfg.seed, 100, warm_up(cfg));
    assert_eq!(warm.failed, 0, "warm-up calls failed");
    Rig {
        stack,
        door,
        clients,
    }
}

pub fn run(cfg: &Config) -> Report {
    let calls = cfg.ops(CALLS_PER_SECOND, SMOKE_CALLS, TRACE_DIVISOR);
    let mut report = Report::default();
    let (mut rig, setup_s) = timed_setup(cfg, || setup(cfg));
    let samples = drive(&mut rig.clients, cfg.seed, 1, calls);
    report.note(format!(
        "{calls} timed calls after {} warm-up, {CLIENTS} closed-loop keep-alive clients, \
         {LIVE_TASKS} live tasks, request hash {:016x}",
        warm_up(cfg),
        gen::request_hash(REQUESTS, cfg.seed, 64).0
    ));

    if cfg.trace {
        samples.client_layer(&mut report);
        rig.door.close_into(&mut report);
        replay(cfg, &rig.stack, calls, &samples, &mut report);
    } else {
        samples.end_to_end(&mut report, setup_s);
        rig.door.close();
    }
    report
}

/// The same request streams, in-process, layer by layer.
fn replay(
    cfg: &Config,
    stack: &Arc<ServiceStack>,
    calls: u64,
    untraced: &Samples,
    report: &mut Report,
) {
    let tracer = Arc::new(Tracer::new());
    let mut door = DoorReplay::new(stack, &tracer);
    for c in 0..CLIENTS {
        let mut rng = gen::rng(cfg.seed, 1 + c);
        for i in 0..calls / CLIENTS {
            tracer.set_op(c * calls + i);
            let call = gen::request(REQUESTS, &mut rng, i);
            let asked = call.params[0].as_u64().expect("task id");
            let reply = tracer.span("op", || door.request(&call, Path::Both));
            report.attempted += 1;
            if reply.as_ref().ok().and_then(named_task) != Some(asked) {
                report.failed += 1;
            }
        }
    }
    let spans = tracer.spans();
    door.report(&spans, untraced.p50_us(), report);
    report.metric(
        "core.jobmon.body_us",
        median_ns(&spans, "body", false) / 1e3,
        "us",
    );
    report.metric(
        "client.trace_overhead_ratio",
        overhead_ratio(&spans, "op"),
        "ratio",
    );
    crate::write_trace(cfg, &spans, report);
}
