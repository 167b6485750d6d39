//! `perf` — the perf ledger: four workloads, end-to-end and per-layer
//! metrics for the RPC door, the durable write path, the grid tick and
//! the history scan. README.md beside this file has the tables.
//!
//! ```text
//! perf <workload> [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
//! perf --workload <workload> --seed N --seconds S --trace 0|1     (the driver's form)
//! ```
//!
//! One run prints a header (what was measured, on what), every metric
//! by name with its unit, and as the last line one JSON object
//! `{correct, attempted, failed, metrics}`: the end-to-end metrics
//! without `--trace`, the per-layer metrics with it. It exits non-zero
//! on a failed output check and refuses to measure a debug build.
//!
//! Load comes from this one process, at most two load threads / two
//! connections, closed loop, loopback only; the program under test
//! receives only inputs generated from `--seed`.
//!
//! # API surface
//!
//! Everything called here is already called by `gae-ctl serve`,
//! `gae-bench`'s `fig6.rs` / `c10k.rs`, `tests/` or `benches/`, so a
//! refactor that keeps those compiling keeps this compiling:
//!
//! - gae-core: `GridBuilder::{new, site, site_with_load, driver,
//!   persist, build}`, `DriverMode::Sequential`, `ServiceStack::{over,
//!   submit_job, run_until, poll, checkpoint, persistence, obs,
//!   recover_from_disk}` and its `grid / jobmon / steering / scheduler
//!   / estimators / hist` fields, `Grid::{now, next_event_time,
//!   advance_to, flock_pass}`, `JobMonitoringService::{poll,
//!   job_tasks, db_snapshot}`, `SteeringService::{poll, subscribe_plan,
//!   export_jobs}`, `EstimatorService::{memo_stats,
//!   observe_completion}`, `RuntimeEstimator::{new,
//!   estimate_columnar}`, `HistoryStore::new`, `HistFunnel::{ingest,
//!   store}`, `PersistenceConfig::{new, fsync}`, `Persistence::stats`,
//!   `SteeringPolicy::default`, `TaskPhase`, `submit::job_to_value`,
//!   the `JobMonitoringRpc / EstimatorRpc / SchedulerRpc` facades;
//! - gae-rpc: `ServiceHost::{open, register, sessions, attach_obs,
//!   obs, resolve_session, handle}`, `SessionManager::{register,
//!   login, user_id}`, `Service`, `CallContext`, `TcpRpcClient::{
//!   connect, login, call}`, `process_request`, `http::{HttpRequest::{
//!   xmlrpc, write_to, session}, HttpResponse::{ok_xml, to_bytes},
//!   FrameParser::{new, feed, take_request}, FrameLimits::DEFAULT,
//!   read_response}`, `door::DEFAULT_VO`;
//! - gae-aio: `ReactorRpcServer::{start_gated, addr, stop}`;
//! - gae-gate: `Gate::{new, admit, stats}`, `GateConfig`,
//!   `TokenBucketConfig::new`, `QueueConfig::new`, `WallClock::new`,
//!   `Principal::user`;
//! - gae-wire: `write_call`, `parse_call`, `write_response`,
//!   `parse_response`, `MethodCall`, `Value`;
//! - gae-sched: `Scheduler::schedule`; gae-hist: `HistRecord`,
//!   `HistStore::stats`; gae-durable: `DurableStore::recover`;
//!   gae-obs (through gae-rpc): `ObsHub::mint_trace`;
//!   gae-trace: `TaskMeta`; gae-types: ids, specs, plans, time.

mod alloc;
mod door;
mod gen;
mod grid_tick;
mod harness;
mod history_estimate;
mod query_small;
mod replay;
mod span;
mod stats;
mod submit_persist;
mod tick;

use harness::{Config, Metric, Report};
use std::path::PathBuf;
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Name, one-line reason. `BENCHMARK.json` repeats these.
const WORKLOADS: [(&str, &str); 4] = [
    (
        "query_small",
        "smallest message, trivial body: per-message cost of aio/rpc/wire/gate is nearly all the work",
    ),
    (
        "submit_persist",
        "large messages and fsynced writes through the same door, plus sched, steering, persist, WAL, recovery",
    ),
    (
        "grid_tick",
        "the control loop with no door at all: steering/jobmon/exec/xfer/monitor do all the work",
    ),
    (
        "history_estimate",
        "working set beyond memo and caches: the hist scan and estimator do >95 %, appends beside reads",
    ),
];

/// End-to-end metrics (name, unit), printed by every untraced run.
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("lat_p50_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (name, unit), printed by every traced run; a
/// layer the workload never enters reads 0.
const PER_LAYER: [(&str, &str); 48] = [
    ("client.lat_p99_us", "us"),
    ("client.codec_us", "us"),
    ("client.req_bytes", "B"),
    ("client.resp_bytes", "B"),
    ("client.allocs_per_op", "count"),
    ("client.trace_overhead_ratio", "ratio"),
    ("rpc.frame_parse_us", "us"),
    ("rpc.session_us", "us"),
    ("rpc.dispatch_us", "us"),
    ("rpc.frame_write_us", "us"),
    ("rpc.process_request_us", "us"),
    ("rpc.allocs_per_op", "count"),
    ("wire.decode_us", "us"),
    ("wire.encode_us", "us"),
    ("wire.decode_allocs", "count"),
    ("wire.encode_allocs", "count"),
    ("gate.admit_ns", "ns"),
    ("gate.queue_peak_depth", "count"),
    ("gate.shed", "count"),
    ("aio.transport_us", "us"),
    ("core.jobmon.body_us", "us"),
    ("core.jobmon.poll_ms", "ms"),
    ("core.estimator.body_us", "us"),
    ("core.estimator.memo_hit_ratio", "ratio"),
    ("sched.body_us", "us"),
    ("sched.schedule_us", "us"),
    ("core.steering.subscribe_us", "us"),
    ("core.steering.poll_ms", "ms"),
    ("core.grid.advance_ms", "ms"),
    ("core.grid.flock_ms", "ms"),
    ("core.grid.tasks_completed", "count"),
    ("core.grid.poll_ms", "ms"),
    ("core.grid.poll_glue_ms", "ms"),
    ("core.persist.checkpoint_ms", "ms"),
    ("core.persist.commits", "count"),
    ("core.persist.records_per_commit", "count"),
    ("core.persist.replay_ms", "ms"),
    ("core.persist.recover_s", "s"),
    ("durable.wal_bytes_per_op", "B"),
    ("durable.snapshot_bytes", "B"),
    ("durable.recover_scan_ms", "ms"),
    ("durable.store_bytes_per_op", "B"),
    ("hist.ingest_ns", "ns"),
    ("hist.scan_ms", "ms"),
    ("hist.rows_scanned_per_query", "count"),
    ("hist.segments_pruned_ratio", "ratio"),
    ("client.lat_p50_us", "us"),
    ("client.ops_per_s", "1/s"),
];

fn usage() -> ! {
    eprintln!("usage: perf <workload> [--seed N] [--seconds S] [--trace [0|1]] [--smoke]");
    for (name, why) in WORKLOADS {
        eprintln!("  {name:<17} {why}");
    }
    std::process::exit(2);
}

fn parse_args(started: Instant) -> Config {
    let mut cfg = Config {
        workload: String::new(),
        seed: 2005,
        seconds: 10,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or("target".into()))
            .join("perf"),
        started,
    };
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        let mut number = |what: &str| -> u64 {
            args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("perf: {what} needs a whole number");
                usage()
            })
        };
        match arg.as_str() {
            "--seed" => cfg.seed = number("--seed"),
            "--seconds" => cfg.seconds = number("--seconds").max(1),
            "--smoke" => cfg.smoke = true,
            "--trace" => {
                // `--trace`, `--trace 1` and `--trace 0` are all accepted.
                cfg.trace = match args.peek().map(String::as_str) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                }
            }
            "--workload" => cfg.workload = args.next().unwrap_or_else(|| usage()),
            name if !name.starts_with('-') && cfg.workload.is_empty() => {
                cfg.workload = name.to_string()
            }
            _ => usage(),
        }
    }
    if !WORKLOADS.iter().any(|(name, _)| *name == cfg.workload) {
        usage();
    }
    cfg
}

/// The checked-out commit, read from `.git` in the working directory
/// (the driver's checkout has none).
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}")).unwrap_or_default(),
        None => head.to_string(),
    };
    match hash.trim() {
        "" => "unknown (no .git here)".to_string(),
        hash => hash.chars().take(12).collect(),
    }
}

/// Dumps the traced run's spans to `<out_dir>/trace_<workload>.json`.
fn write_trace(cfg: &Config, spans: &[span::Span], report: &mut Report) {
    let path = cfg.out_dir.join(format!("trace_{}.json", cfg.workload));
    match span::dump(&path, &cfg.workload, spans) {
        Ok(()) => report.note(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => report.note(format!("could not write {}: {e}", path.display())),
    }
}

/// Orders the report's metrics as `expected` lists them; a per-layer
/// metric the workload did not report reads 0. Reporting a name that
/// is not listed, or with another unit, is a bug in the workload.
fn ledger(report: &Report, expected: &[(&str, &'static str)]) -> Vec<Metric> {
    for m in &report.metrics {
        assert!(
            expected.contains(&(m.name.as_str(), m.unit)),
            "metric {} [{}] is not in the ledger",
            m.name,
            m.unit
        );
    }
    expected
        .iter()
        .map(|&(name, unit)| {
            let reported = report.metrics.iter().find(|m| m.name == name);
            Metric {
                name: name.to_string(),
                value: reported.map_or(0.0, |m| m.value),
                unit,
            }
        })
        .collect()
}

fn main() {
    let cfg = parse_args(Instant::now());
    if cfg!(debug_assertions) {
        eprintln!("perf: refusing to measure a debug build; build with --release");
        std::process::exit(2);
    }
    std::fs::create_dir_all(&cfg.out_dir).expect("create the scratch root inside the checkout");

    println!(
        "# perf {} — {}",
        cfg.workload,
        if cfg.trace {
            "per-layer (traced) run"
        } else {
            "end-to-end run"
        }
    );
    println!(
        "# nproc {} | commit {} | release build | seed {} | seconds {}{} | fsync on (submit_persist) \
         | loopback only, closed loop | scratch {}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        commit(),
        cfg.seed,
        cfg.seconds,
        if cfg.smoke { " (smoke sizes)" } else { "" },
        cfg.out_dir.display()
    );

    let report = match cfg.workload.as_str() {
        "query_small" => query_small::run(&cfg),
        "submit_persist" => submit_persist::run(&cfg),
        "grid_tick" => grid_tick::run(&cfg),
        _ => history_estimate::run(&cfg),
    };

    for note in &report.notes {
        println!("# {note}");
    }
    let metrics = if cfg.trace {
        ledger(&report, &PER_LAYER)
    } else {
        ledger(&report, &END_TO_END)
    };
    for m in &metrics {
        println!("{:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let correct = report.failed == 0 && finite;
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            // NaN is not JSON; such a run is already marked incorrect.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        fields.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
