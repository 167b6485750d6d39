//! The cost floors DESIGN.md states as ratios of timings: the steering
//! round (§7.1), the history scan and views (§14), the queue-time
//! estimate (§15) and the inline lane (§16). Each timing is a best of
//! several runs, and timings compared in one floor take turns, so a
//! change of the box's speed hits them alike. Release only, and one
//! `#[test]`, so no two timings share the CPU. The counted forms of the
//! same contracts run in every build: `steering_round`, `history_rpc`,
//! `runtime_views`, `estimator_edge_cases` and `reactor_transport`.

use gae::aio::ReactorRpcServer;
use gae::core::estimator::HistoryStore;
use gae::exec::{ExecutionService, SiteConfig};
use gae::hist::{naive_matches, ColumnPredicate, HistConfig, HistOp, HistRecord, HistStore};
use gae::prelude::*;
use gae::rpc::service::{CallContext, MethodInfo, Service};
use gae::rpc::{Rpc, ServiceHost, TcpRpcClient};
use gae::trace::TaskMeta;
use gae::wire::Value;
use gae_bench::c10k::queue_only_gate;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Per-call seconds of each `calls => expr`: the best of `runs` rounds,
/// in each of which every expression runs its `calls` in turn.
macro_rules! best_in_turns {
    ($runs:expr; $($calls:expr => $f:expr),+) => {
        (0..$runs).fold([f64::MAX; [$($calls),+].len()], |best, _| {
            let round = [$({
                let started = Instant::now();
                (0..$calls).for_each(|_| _ = black_box($f));
                started.elapsed().as_secs_f64().max(1e-12) / f64::from($calls)
            }),+];
            std::array::from_fn(|i| best[i].min(round[i]))
        })
    };
}

#[test]
fn cost_floors_hold_in_release() {
    if cfg!(debug_assertions) {
        return;
    }
    steering_round();
    history_scan_and_views();
    queue_time_estimate();
    inline_round_trip();
}

/// Prints a floor's ratio; fails the test unless it is at least `min`.
fn at_least(what: &str, ratio: f64, min: f64) {
    println!("{what}: {ratio:.2}x (floor ≥ {min}x)");
    assert!(ratio >= min, "{what}: {ratio:.2}x, floor ≥ {min}x");
}

/// Prints a floor's ratio; fails the test unless it is at most `max`.
fn at_most(what: &str, ratio: f64, max: f64) {
    println!("{what}: {ratio:.2}x (floor ≤ {max}x)");
    assert!(ratio <= max, "{what}: {ratio:.2}x, floor ≤ {max}x");
}

// ---- the steering round (DESIGN.md §7.1) ----

/// `tasks` long tasks in 4-task jobs over `sites` free sites sharing
/// 512 slots, polled into steady state: 512 run, the rest queue.
fn sweep_stack(sites: u64, tasks: u64) -> Arc<ServiceStack> {
    let mut builder = GridBuilder::new();
    for s in 1..=sites {
        let site = SiteDescription::new(SiteId::new(s), format!("s{s}"), (256 / sites) as u32, 2);
        builder = builder.site(site);
    }
    let stack = ServiceStack::over(builder.build());
    for j in 1..=tasks / 4 {
        let mut job = JobSpec::new(JobId::new(j), format!("j{j}"), UserId::new(1));
        for k in 0..4 {
            job.add_task(
                TaskSpec::new(TaskId::new(j * 4 + k), format!("t{j}-{k}"), "reco")
                    .with_cpu_demand(SimDuration::from_secs(50_000)),
            );
        }
        stack.submit_job(job).expect("schedulable");
    }
    stack.run_until(SimTime::from_secs(30));
    stack
}

/// A round's per-task cost at 256 sites is within 2× of its cost at 4;
/// at 256 sites it is ≥ 10× faster than probing every tracked task
/// through the grid-wide `locate`; and a round over 8,000 tracked tasks
/// of which 512 run costs ≤ 1.5× one over those 512 alone. Best of 25
/// rounds in turns (each takes tens of microseconds), best of 5 sweeps.
fn steering_round() {
    let narrow = sweep_stack(4, 8_000);
    let wide = sweep_stack(256, 8_000);
    let lean = sweep_stack(256, 512);
    let [narrow_s, wide_s, lean_s] = best_in_turns!(25;
        1 => narrow.steering.poll(), 1 => wide.steering.poll(), 1 => lean.steering.poll());
    assert_eq!(lean.steering.last_round_probes(), 512);
    // What a round cost before it used the locations it tracks: one
    // grid-wide `locate` sweep per tracked task, every one in flight.
    let through_locate = || {
        let found = (4..8_004).filter(|t| wide.jobmon.job_info(TaskId::new(*t)).is_ok());
        assert_eq!(found.count(), 8_000);
    };
    let swept = best_in_turns!(5; 1 => through_locate())[0];
    at_least("round over locate at 256 sites", swept / wide_s, 10.0);
    at_most("8,000 tracked over 512, 512 running", wide_s / lean_s, 1.5);
    at_most("round at 256 sites over 4 sites", wide_s / narrow_s, 2.0);
}

// ---- the history scan and runtime views (DESIGN.md §14) ----

/// Time-ordered submissions across four sites, ~90 % success, bounded
/// runtime spread: the shape the jobmon funnel produces.
fn record(t: u64) -> HistRecord {
    HistRecord {
        task: t,
        site: 1 + t % 4,
        nodes: 1 + t % 8,
        submit_us: t * 1_000,
        start_us: t * 1_000 + 40,
        finish_us: t * 1_000 + 900,
        runtime_us: 500 + (t % 1_000) * 37,
        success: !t.is_multiple_of(10),
        account: "cms".into(),
        login: ["amy", "bob", "cal", "dee"][(t % 4) as usize].into(),
        executable: "reco".into(),
        queue: "prod".into(),
        partition: "compute".into(),
        job_type: "batch".into(),
    }
}

fn store_with(rows: u64) -> HistStore {
    let store = HistStore::new(HistConfig::default());
    (0..rows).for_each(|t| store.apply(&HistOp::Append(record(t))));
    store
}

/// A recent-window pushdown over 200,000 rows is ≥ 10× faster than the
/// naive filter, answering the same count. After view ≡ scan at 10³ to
/// 10⁶ rows, a view estimate at 10⁶ is ≥ 100× faster than the scan and
/// ≤ 2× its own cost at 10³. Best of 5, taking turns.
fn history_scan_and_views() {
    let n = 200_000u64;
    let store = store_with(n);
    let rows: Vec<HistRecord> = (0..n).map(record).collect();
    let preds = [
        ColumnPredicate::ge("submit_us", (n - n / 100) * 1_000),
        ColumnPredicate::eq_num("success", 1),
    ];
    let pushdown = || store.scan(&preds, |_| {}).unwrap().rows_matched;
    let naive = || rows.iter().filter(|r| naive_matches(r, &preds)).count() as u64;
    assert_eq!(pushdown(), naive(), "scan semantics diverged");
    let best = best_in_turns!(5; 1 => pushdown(), 1 => naive());
    at_least("pushdown over the naive scan", best[1] / best[0], 10.0);
    drop((store, rows));

    let estimator = RuntimeEstimator::new(HistoryStore::new(16));
    let probe = TaskMeta {
        account: "cms".into(),
        login: "amy".into(),
        executable: "reco".into(),
        queue: "prod".into(),
        partition: "compute".into(),
        nodes: 1,
        job_type: JobType::Batch,
    };
    let site = SiteId::new(1);
    let scan = |store: &HistStore| estimator.estimate_columnar(store, site, &probe).unwrap();
    let view = |store: &HistStore| estimator.estimate_from_views(store, site, &probe).unwrap();
    let stores: Vec<HistStore> = [1_000, 10_000, 100_000, 1_000_000].map(store_with).into();
    for store in &stores {
        assert_eq!(view(store), scan(store), "at {} rows", store.rows());
    }
    let (small, large) = (&stores[0], &stores[3]);
    let best = best_in_turns!(5; 2_000 => view(small), 2_000 => view(large), 2 => scan(large));
    at_least("view over scan at 10^6 rows", best[2] / best[1], 100.0);
    at_most("view at 10^6 rows over 10^3 rows", best[1] / best[0], 2.0);
}

// ---- the queue-time estimate (DESIGN.md §15) ----

/// A one-slot site with `depth` higher-priority tasks queued ahead of
/// a probe, each with its submission-time estimate stored.
fn site_with_backlog(depth: u64) -> ExecutionService {
    let site = SiteDescription::new(SiteId::new(1), "s", 1, 1);
    let mut exec = ExecutionService::new(SiteConfig::free(site));
    for id in 1..=depth + 1 {
        let (demand, priority) = if id > depth {
            (10, Priority::NORMAL)
        } else {
            (100, Priority::new(5))
        };
        let spec = TaskSpec::new(TaskId::new(id), "t", "x")
            .with_cpu_demand(SimDuration::from_secs(demand))
            .with_priority(priority);
        let condor = exec.submit(spec, None).expect("submit");
        let estimate = Some(SimDuration::from_secs(demand));
        exec.set_estimate(condor, estimate).expect("just submitted");
    }
    exec
}

/// An estimate over 10,000 queued tasks costs ≤ 2× one over 100 (the
/// record walk the backlog index replaced: ~100×). Best of 5, taking
/// turns.
fn queue_time_estimate() {
    let (small, large) = (site_with_backlog(100), site_with_backlog(10_000));
    let estimate = |exec: &ExecutionService| exec.backlog_above(black_box(Priority::NORMAL));
    assert_eq!(estimate(&small), SimDuration::from_secs(100 * 100));
    assert_eq!(estimate(&large), SimDuration::from_secs(100 * 10_000));
    let best = best_in_turns!(5; 20_000 => estimate(&small), 20_000 => estimate(&large));
    at_most(
        "queue-time estimate, 10,000 over 100 queued",
        best[1] / best[0],
        2.0,
    );
}

// ---- the inline lane (DESIGN.md §16) ----

struct Echo;

impl Service for Echo {
    fn name(&self) -> &'static str {
        "bench"
    }
    /// `iecho` is `echo` marked to run on the reactor thread.
    fn inline(&self, method: &str) -> bool {
        method == "iecho"
    }
    fn call(&self, _ctx: &CallContext, _method: &str, params: &[Value]) -> GaeResult<Value> {
        Ok(params[0].clone())
    }
    fn methods(&self) -> Vec<MethodInfo> {
        ["echo", "iecho"]
            .map(|name| MethodInfo { name, help: "" })
            .into()
    }
}

/// The inline lane saves two of a round trip's four thread wake-ups,
/// so a keep-alive round trip on it costs ≤ 0.75× a pooled one. Best
/// of 5, taking turns, once both lanes are seen driven.
fn inline_round_trip() {
    let host = ServiceHost::open();
    host.register(Arc::new(Echo));
    let gate = queue_only_gate(16, SimDuration::from_secs(60));
    let reactor = ReactorRpcServer::start_gated(host, 4, gate).expect("bind");
    let mut client = TcpRpcClient::connect(reactor.addr());
    let mut call = |method: &str| client.call(method, vec![Value::Int(7)]).unwrap();
    call("bench.echo");
    call("bench.iecho");
    let lanes = (reactor.inline_served(), reactor.requests_served());
    assert_eq!(lanes, (1, 2), "both lanes driven");
    let best = best_in_turns!(5; 2_000 => call("bench.echo"), 2_000 => call("bench.iecho"));
    at_most("inline round trip over pooled", best[1] / best[0], 0.75);
    reactor.stop();
}
