//! `history_estimate`: one client asks `estimator.estimate_runtime`
//! for tasks drawn from 4 sites × 4 logins × 8 node counts against a
//! history of 10⁶ finished tasks; after every 16th call one more
//! completion is ingested and observed, which drops that site's
//! memoised estimates.
//!
//! Why: a working set far beyond the memo and the CPU caches. The
//! gae-hist scan and the estimator do > 95 % of the work and the door
//! ~2 %; appends beside reads expose a scan speed-up that is paid for
//! at ingest, or a memo that never hits.

use crate::door::{self, Door};
use crate::gen::{self, EstimateQuery, Requests, HIST_SITES};
use crate::harness::{timed_setup, Config, Recorder, Report, Samples, TRACE_DIVISOR};
use crate::replay::{DoorReplay, Path};
use crate::span::{median_ns, overhead_ratio, Tracer};
use crate::stats::Digest;
use gae_core::estimator::{HistoryStore, RuntimeEstimator};
use gae_core::grid::{GridBuilder, ServiceStack};
use gae_rpc::TcpRpcClient;
use gae_trace::TaskMeta;
use gae_types::{GaeResult, JobType, SimDuration, SiteDescription, SiteId};
use gae_wire::{MethodCall, Value};
use rand::rngs::StdRng;
use std::sync::Arc;
use std::time::Instant;

const HISTORY_ROWS: u64 = 1_000_000;
const SMOKE_ROWS: u64 = 50_000;
/// Calls before timing starts.
const WARM_UP: u64 = 32;
/// Timed calls per second of `--seconds`.
const CALLS_PER_SECOND: u64 = 128;
const SMOKE_CALLS: u64 = 160;
/// One completion lands after every this many calls.
const INGEST_EVERY: u64 = 16;

struct Rig {
    stack: Arc<ServiceStack>,
    door: Door,
    client: TcpRpcClient,
    /// Set-up ingest cost, nanoseconds per row.
    ingest_ns: f64,
    rows: u64,
}

fn setup(cfg: &Config) -> Rig {
    let mut builder = GridBuilder::new();
    for s in 1..=HIST_SITES {
        builder = builder.site(SiteDescription::new(
            SiteId::new(s),
            format!("t2-{s}"),
            4,
            2,
        ));
    }
    let stack = ServiceStack::over(builder.build());
    let rows = if cfg.smoke { SMOKE_ROWS } else { HISTORY_ROWS };
    let mut rng = gen::rng(cfg.seed, 2);
    let t0 = Instant::now();
    for t in 0..rows {
        stack.hist.ingest(gen::hist_row(&mut rng, t));
    }
    let ingest_ns = t0.elapsed().as_nanos() as f64 / rows as f64;
    let door = Door::open(&stack);
    let mut client = door.client();
    let mut warm = Driver::new(cfg.seed, 100, rows);
    for i in 0..WARM_UP {
        let call = warm.next_call(&stack, i);
        let reply = door::call(&mut client, call);
        assert!(has_samples(&reply), "warm-up estimate failed: {reply:?}");
    }
    Rig {
        stack,
        door,
        client,
        ingest_ns,
        rows,
    }
}

/// The seeded sequence of queries and interleaved completions; the
/// untraced run and the replay walk it identically.
struct Driver {
    queries: StdRng,
    completions: StdRng,
    next_row: u64,
}

impl Driver {
    fn new(seed: u64, stream: u64, rows: u64) -> Driver {
        Driver {
            queries: gen::rng(seed, stream),
            completions: gen::rng(seed, stream + 1),
            next_row: rows,
        }
    }

    /// The `i`-th call; before every `INGEST_EVERY`-th, one completion
    /// is ingested and observed.
    fn next_call(&mut self, stack: &ServiceStack, i: u64) -> MethodCall {
        if i % INGEST_EVERY == INGEST_EVERY - 1 {
            let row = gen::hist_row(&mut self.completions, self.next_row);
            self.next_row += 1;
            let meta = task_meta(&row.login, row.nodes);
            let site = SiteId::new(row.site);
            let runtime = SimDuration::from_micros(row.runtime_us);
            stack.hist.ingest(row);
            stack.estimators.observe_completion(site, meta, runtime);
        }
        gen::request(Requests::Estimate, &mut self.queries, i)
    }
}

/// The metadata tuple the `estimator` facade builds from a query for
/// `login` on `nodes` nodes (the other attributes are fixed here).
fn task_meta(login: &str, nodes: u64) -> TaskMeta {
    TaskMeta {
        account: String::new(),
        login: login.to_string(),
        executable: "reco".to_string(),
        queue: "prod".to_string(),
        partition: "compute".to_string(),
        nodes: nodes as u32,
        job_type: JobType::Batch,
    }
}

fn has_samples(reply: &GaeResult<Value>) -> bool {
    reply
        .as_ref()
        .ok()
        .and_then(|v| v.member("samples").ok()?.as_i64().ok())
        .is_some_and(|n| n > 0)
}

fn fold_reply(digest: &mut Digest, reply: &GaeResult<Value>) {
    if let Ok(v) = reply {
        let field = |k: &str| v.member(k).ok().and_then(|x| x.as_i64().ok()).unwrap_or(-1);
        digest.u64(field("samples") as u64);
        digest.u64(field("template_tier") as u64);
    }
}

pub fn run(cfg: &Config) -> Report {
    let calls = cfg.ops(CALLS_PER_SECOND, SMOKE_CALLS, TRACE_DIVISOR);
    let mut report = Report::default();
    let (mut rig, setup_s) = timed_setup(cfg, || setup(cfg));
    let stack = rig.stack.clone();
    report.note(format!(
        "{calls} timed calls after {WARM_UP} warm-up, 1 closed-loop keep-alive client, {} history \
         rows, one completion per {INGEST_EVERY} calls, request hash {:016x}",
        rig.rows,
        gen::request_hash(Requests::Estimate, cfg.seed, 64).0
    ));

    let memo0 = stack.estimators.memo_stats();
    let scans0 = stack.hist.store().stats();
    let mut driver = Driver::new(cfg.seed, 1, rig.rows);
    let mut rec = Recorder::start(calls);
    for i in 0..calls {
        let call = driver.next_call(&stack, i);
        let reply = rec.time(|| door::call(&mut rig.client, call));
        if !has_samples(&reply) {
            rec.failed += 1;
        }
        fold_reply(&mut rec.digest, &reply);
    }
    let samples = rec.finish();

    if !cfg.trace {
        samples.end_to_end(&mut report, setup_s);
        rig.door.close();
        return report;
    }

    samples.client_layer(&mut report);
    let (hits, misses) = stack.estimators.memo_stats();
    let (hits, misses) = (hits - memo0.0, misses - memo0.1);
    report.metric(
        "core.estimator.memo_hit_ratio",
        hits as f64 / (hits + misses) as f64,
        "ratio",
    );
    report.note(format!("estimator memo: {hits} hits, {misses} misses"));
    let scans = stack.hist.store().stats();
    let n_scans = (scans.scans - scans0.scans).max(1) as f64;
    report.metric(
        "hist.rows_scanned_per_query",
        (scans.rows_scanned - scans0.rows_scanned) as f64 / n_scans,
        "count",
    );
    report.metric(
        "hist.segments_pruned_ratio",
        (scans.segments_pruned - scans0.segments_pruned) as f64
            / (n_scans * scans.sealed_segments.max(1) as f64),
        "ratio",
    );
    report.metric("hist.ingest_ns", rig.ingest_ns, "ns");
    rig.door.close_into(&mut report);
    replay(
        cfg,
        &stack,
        rig.rows + calls / INGEST_EVERY,
        calls,
        &samples,
        &mut report,
    );
    report
}

/// The same sequence in-process, layer by layer, plus the scan called
/// directly.
fn replay(
    cfg: &Config,
    stack: &Arc<ServiceStack>,
    rows: u64,
    calls: u64,
    untraced: &Samples,
    report: &mut Report,
) {
    let tracer = Arc::new(Tracer::new());
    let mut door = DoorReplay::new(stack, &tracer);
    // A stream of its own: repeating the untraced run's queries would
    // find them all memoised. Completions continue on fresh row numbers.
    let mut driver = Driver::new(cfg.seed, 10, rows);
    let estimator = RuntimeEstimator::new(HistoryStore::new(16));
    let mut probes = gen::rng(cfg.seed, 3);
    for i in 0..calls {
        tracer.set_op(i);
        let call = driver.next_call(stack, i);
        // A repeat of the same query would hit the memo, so the whole
        // path and the stepwise one take turns.
        let path = if i % 2 == 0 { Path::Whole } else { Path::Steps };
        let reply = tracer.span("op", || door.request(&call, path));
        report.attempted += 1;
        if !has_samples(&reply) {
            report.failed += 1;
        }
        // The scan below the estimator and its memo, on its own.
        let q = EstimateQuery::draw(&mut probes);
        let meta = task_meta(q.login, q.nodes);
        let estimate = tracer.span("hist.scan", || {
            estimator.estimate_columnar(stack.hist.store(), SiteId::new(q.site), &meta)
        });
        if !estimate.is_ok_and(|e| e.samples > 0) {
            report.failed += 1;
        }
    }
    let spans = tracer.spans();
    door.report(&spans, untraced.p50_us(), report);
    report.metric(
        "core.estimator.body_us",
        median_ns(&spans, "body", false) / 1e3,
        "us",
    );
    report.metric(
        "hist.scan_ms",
        median_ns(&spans, "hist.scan", false) / 1e6,
        "ms",
    );
    report.metric(
        "client.trace_overhead_ratio",
        overhead_ratio(&spans, "op"),
        "ratio",
    );
    crate::write_trace(cfg, &spans, report);
}
