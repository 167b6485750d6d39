//! `submit_persist`: one client logs in and submits seeded 4-task
//! chain jobs through `scheduler.submit_job` to a 16-site stack built
//! with `GridBuilder::persist` (fsync on). The second load thread is
//! the pump: after every 64th completed submit it runs
//! `run_until(vt += 2 s)` — a poll round plus one group commit — so
//! tick and commit counts repeat while the tick still contends with
//! submits for the stack's locks, as in `gae-ctl serve`. Then the
//! stack is dropped, `recover_from_disk` is timed, and the recovered
//! job/task state is compared with the state before the drop.
//!
//! Why: the same door and codec as `query_small`, used differently —
//! large messages and writes beside small reads — plus sched, the
//! steering subscribe, the persist codecs and the WAL. A codec change
//! that helps small reads but hurts large writes shows here.

use crate::door::{self, Door};
use crate::gen::{self, Requests, TASKS_PER_JOB};
use crate::harness::{
    dir_bytes, timed_setup, Config, Recorder, Report, Samples, ScratchDir, TRACE_DIVISOR,
};
use crate::replay::{DoorReplay, Path};
use crate::span::{median_ns, overhead_ratio, per_op_totals, Tracer};
use crate::stats::median_or_zero;
use crate::tick::{PollAs, Pump, POLL_PERIOD};
use gae_core::grid::{Grid, GridBuilder, ServiceStack};
use gae_core::persist::PersistenceConfig;
use gae_core::steering::{SteeringPolicy, TaskPhase};
use gae_durable::DurableStore;
use gae_rpc::TcpRpcClient;
use gae_types::{
    AbstractPlan, GaeResult, SimDuration, SimTime, SiteDescription, SiteId, TaskId, UserId,
};
use gae_wire::Value;
use std::sync::{mpsc, Arc};
use std::time::Instant;

const SITES: u64 = 16;
/// Submits before timing starts (no pump).
const WARM_UP: u64 = 512;
/// Timed submits per second of `--seconds`.
const SUBMITS_PER_SECOND: u64 = 512;
const SMOKE_SUBMITS: u64 = 512;
/// The pump ticks once per this many completed submits...
const PUMP_EVERY: u64 = 64;
/// ...advancing virtual time by this much.
const PUMP_STEP: SimDuration = SimDuration::from_secs(2);

fn grid(persist: Option<&PersistenceConfig>) -> Arc<Grid> {
    let mut builder = GridBuilder::new();
    for s in 1..=SITES {
        builder = builder.site(SiteDescription::new(
            SiteId::new(s),
            format!("t2-{s}"),
            8,
            4,
        ));
    }
    if let Some(config) = persist {
        builder = builder.persist(config.clone());
    }
    builder.build()
}

/// A persisted stack in its own scratch directory. `scratch` is the
/// last field: the store is deleted after everything using it is gone,
/// whether the run ends, a check fails or a panic unwinds.
struct Persisted {
    stack: Arc<ServiceStack>,
    config: PersistenceConfig,
    scratch: ScratchDir,
}

impl Persisted {
    fn create(cfg: &Config) -> Persisted {
        let scratch = ScratchDir::create(cfg, "store");
        let config = PersistenceConfig::new(scratch.path()).fsync(true);
        let stack = ServiceStack::over(grid(Some(&config)));
        Persisted {
            stack,
            config,
            scratch,
        }
    }
}

struct Rig {
    door: Door,
    client: TcpRpcClient,
    jobs: rand::rngs::StdRng,
    store: Persisted,
}

fn setup(cfg: &Config) -> Rig {
    let store = Persisted::create(cfg);
    let door = Door::open(&store.stack);
    let mut client = door.client();
    let mut jobs = gen::rng(cfg.seed, 1);
    for i in 0..WARM_UP {
        let reply = door::call(&mut client, gen::request(Requests::Submit, &mut jobs, i));
        assert!(
            plan_covers_job(&reply, i + 1),
            "warm-up submit failed: {reply:?}"
        );
    }
    Rig {
        door,
        client,
        jobs,
        store,
    }
}

/// Whether a `submit_job` reply is a plan assigning every task of job
/// `job_no` to a site.
fn plan_covers_job(reply: &GaeResult<Value>, job_no: u64) -> bool {
    let Ok(plan) = reply else { return false };
    let Ok(assignments) = plan.member("assignments").and_then(Value::as_array) else {
        return false;
    };
    let mut tasks: Vec<u64> = assignments
        .iter()
        .filter(|a| {
            a.member("site")
                .and_then(Value::as_u64)
                .is_ok_and(|s| s > 0)
        })
        .filter_map(|a| a.member("task").ok()?.as_u64().ok())
        .collect();
    tasks.sort_unstable();
    let expected: Vec<u64> = (0..TASKS_PER_JOB)
        .map(|i| gen::task_id(job_no, i).raw())
        .collect();
    tasks == expected
}

/// Per job and task, the steering phase and the jobmon status — what
/// must survive a crash. Condor ids are left out: recovery re-arms
/// in-flight tasks under fresh ones.
fn status_table(stack: &ServiceStack) -> Vec<(u64, TaskId, String)> {
    let mut table = Vec::new();
    for job in stack.steering.export_jobs() {
        let mut tasks: Vec<_> = job.tasks.values().collect();
        tasks.sort_by_key(|t| t.task);
        for t in tasks {
            let phase = match t.phase {
                TaskPhase::Submitted { site, .. } => format!("submitted@{site}"),
                other => format!("{other:?}"),
            };
            table.push((job.plan.job_id().raw(), t.task, phase));
        }
    }
    for info in stack.jobmon.db_snapshot() {
        table.push((info.job.raw(), info.task, format!("jobmon:{}", info.status)));
    }
    table
}

/// What the durable write path left behind and what coming back cost.
struct Durability {
    commits: u64,
    records: u64,
    wal_bytes: u64,
    snapshot_bytes: u64,
    store_bytes: u64,
    recover_scan_s: f64,
    recover_s: f64,
    /// 1 if the recovered state differs from the state before the drop.
    diverged: u64,
    ticks_ms: Vec<f64>,
}

/// The timed phase and the crash/recover epilogue. Consumes the rig:
/// the stack must be gone before it is recovered from disk.
fn drive(cfg: &Config, mut rig: Rig, submits: u64) -> (Samples, Durability) {
    let stack = rig.store.stack.clone();
    let (tick, ticks) = mpsc::channel::<()>();
    let (samples, ticks_ms) = std::thread::scope(|scope| {
        let pump = scope.spawn(|| {
            let mut vt = SimTime::ZERO;
            let mut ticks_ms = Vec::new();
            for () in ticks {
                vt += PUMP_STEP;
                let t0 = Instant::now();
                stack.run_until(vt);
                ticks_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
            ticks_ms
        });
        let mut rec = Recorder::start(submits);
        for i in 0..submits {
            let job_no = WARM_UP + i + 1;
            let call = gen::request(Requests::Submit, &mut rig.jobs, job_no - 1);
            let reply = rec.time(|| door::call(&mut rig.client, call));
            if plan_covers_job(&reply, job_no) {
                rec.digest.u64(job_no);
            } else {
                rec.failed += 1;
            }
            if (i + 1) % PUMP_EVERY == 0 {
                tick.send(()).expect("pump is running");
            }
        }
        let samples = rec.finish();
        drop(tick);
        (samples, pump.join().expect("pump thread"))
    });

    // Make the last acknowledged submits durable, note what must
    // survive, then "crash": stop serving and drop the stack.
    stack.checkpoint().expect("durable checkpoint failed");
    let before = status_table(&stack);
    let io = stack.persistence().expect("persisted stack").stats();
    let dir = rig.store.scratch.path().to_path_buf();
    let mut durability = Durability {
        commits: io.commits,
        records: io.records_appended,
        wal_bytes: io.wal_bytes,
        snapshot_bytes: dir_bytes(&dir, "snapshot."),
        store_bytes: dir_bytes(&dir, ""),
        recover_scan_s: 0.0,
        recover_s: 0.0,
        diverged: 0,
        ticks_ms,
    };
    rig.door.close();
    drop(rig.client);
    drop(stack);
    let Persisted {
        stack,
        config,
        scratch,
    } = rig.store;
    assert_eq!(
        Arc::strong_count(&stack),
        1,
        "the stack must die with the crash"
    );
    drop(stack);

    if cfg.trace {
        // The scan on its own (read-only), so replay = recover − scan.
        let t0 = Instant::now();
        DurableStore::recover(&dir).expect("intact store");
        durability.recover_scan_s = t0.elapsed().as_secs_f64();
    }
    let t0 = Instant::now();
    let recovered = ServiceStack::recover_from_disk(
        grid(None),
        SteeringPolicy::default(),
        POLL_PERIOD,
        &config,
    );
    durability.recover_s = t0.elapsed().as_secs_f64();
    match recovered {
        Ok((stack, _)) if status_table(&stack) == before => {}
        _ => durability.diverged = 1,
    }
    drop(scratch);
    (samples, durability)
}

pub fn run(cfg: &Config) -> Report {
    let submits = cfg.ops(SUBMITS_PER_SECOND, SMOKE_SUBMITS, TRACE_DIVISOR);
    let mut report = Report::default();
    let (rig, setup_s) = timed_setup(cfg, || setup(cfg));
    report.note(format!(
        "{submits} timed submits after {WARM_UP} warm-up, 1 closed-loop keep-alive client + 1 pump \
         thread (tick per {PUMP_EVERY} submits), {SITES} sites, fsync on, store under {}, request \
         hash {:016x}",
        rig.store.scratch.path().display(),
        gen::request_hash(Requests::Submit, cfg.seed, 16).0
    ));
    let (mut samples, d) = drive(cfg, rig, submits);
    samples.failed += d.diverged;
    let acknowledged = (WARM_UP + submits - samples.failed) as f64;
    let ticks = crate::stats::sorted(&d.ticks_ms);
    report.note(format!(
        "recover_s {:.3} s, store_bytes_per_op {:.0} B ({} B on disk), {} pump ticks of median {:.1} ms, \
         recovered state {}",
        d.recover_s,
        d.store_bytes as f64 / acknowledged,
        d.store_bytes,
        ticks.len(),
        median_or_zero(&ticks),
        if d.diverged == 0 { "equal" } else { "DIVERGED" }
    ));

    if !cfg.trace {
        samples.end_to_end(&mut report, setup_s);
        return report;
    }
    samples.client_layer(&mut report);
    report.metric("core.persist.recover_s", d.recover_s, "s");
    report.metric(
        "durable.store_bytes_per_op",
        d.store_bytes as f64 / acknowledged,
        "B",
    );
    report.metric("core.persist.commits", d.commits as f64, "count");
    report.metric(
        "core.persist.records_per_commit",
        d.records as f64 / d.commits.max(1) as f64,
        "count",
    );
    report.metric(
        "durable.wal_bytes_per_op",
        d.wal_bytes as f64 / acknowledged,
        "B",
    );
    report.metric("durable.snapshot_bytes", d.snapshot_bytes as f64, "B");
    report.metric("durable.recover_scan_ms", d.recover_scan_s * 1e3, "ms");
    report.metric(
        "core.persist.replay_ms",
        (d.recover_s - d.recover_scan_s) * 1e3,
        "ms",
    );
    replay(cfg, submits, &samples, &mut report);
    report
}

/// The same jobs into a second persisted stack, in-process, rotating
/// over three paths (a job id is accepted once): the door's
/// `process_request` whole, its steps, and the scheduler and steering
/// calls the service body makes. The pump runs inline.
fn replay(cfg: &Config, submits: u64, untraced: &Samples, report: &mut Report) {
    let store = Persisted::create(cfg);
    let stack = &store.stack;
    let tracer = Arc::new(Tracer::new());
    let mut door = DoorReplay::new(stack, &tracer);
    let owner: UserId = door.user();
    let mut pump = Pump::new(stack, &tracer);
    let mut jobs = gen::rng(cfg.seed, 1);
    let mut vt = SimTime::ZERO;
    let check = |ok: bool, report: &mut Report| {
        report.attempted += 1;
        report.failed += u64::from(!ok);
    };
    for i in 0..submits {
        let job_no = i + 1;
        tracer.set_op(i);
        tracer.span("op", || match i % 3 {
            0 | 1 => {
                let call = gen::request(Requests::Submit, &mut jobs, i);
                let path = if i % 3 == 0 { Path::Whole } else { Path::Steps };
                let reply = door.request(&call, path);
                check(plan_covers_job(&reply, job_no), report);
            }
            _ => {
                let job = gen::chain_job(&mut jobs, job_no, owner);
                let plan = tracer.span("sched.schedule", || {
                    stack.scheduler.schedule(&AbstractPlan::new(job))
                });
                let subscribed = plan.and_then(|plan| {
                    tracer.span("core.steering.subscribe", || {
                        stack.steering.subscribe_plan(plan)
                    })
                });
                check(subscribed.is_ok(), report);
            }
        });
        if (i + 1) % PUMP_EVERY == 0 {
            vt += PUMP_STEP;
            let how = if ((i + 1) / PUMP_EVERY).is_multiple_of(2) {
                PollAs::Children
            } else {
                PollAs::Whole
            };
            pump.run_until(vt, how, how);
        }
    }

    let spans = tracer.spans();
    door.report(&spans, untraced.p50_us(), report);
    let us = |name: &str| median_ns(&spans, name, false) / 1e3;
    report.metric("sched.body_us", us("body"), "us");
    report.metric("sched.schedule_us", us("sched.schedule"), "us");
    report.metric(
        "core.steering.subscribe_us",
        us("core.steering.subscribe"),
        "us",
    );
    report.metric(
        "core.grid.advance_ms",
        median_or_zero(&per_op_totals(&spans, "core.grid.advance")) / 1e6,
        "ms",
    );
    report.metric("core.grid.poll_ms", us("core.grid.poll") / 1e3, "ms");
    report.metric("core.jobmon.poll_ms", us("core.jobmon.poll") / 1e3, "ms");
    report.metric(
        "core.steering.poll_ms",
        us("core.steering.poll") / 1e3,
        "ms",
    );
    report.metric(
        "core.persist.checkpoint_ms",
        us("core.persist.checkpoint") / 1e3,
        "ms",
    );
    report.metric(
        "client.trace_overhead_ratio",
        overhead_ratio(&spans, "op"),
        "ratio",
    );
    crate::write_trace(cfg, &spans, report);
}
