//! The `history` RPC facade end to end: predicate round-trips over
//! real TCP sockets through a gated host, typed 400/404 faults on
//! malformed queries, trace propagation (`X-GAE-Trace` joins the
//! caller's tree, `hist.*` spans land under the deterministic query
//! trace), and a 128-case proptest holding `history.query` to the
//! naive reference filter on random predicates. Also home of the
//! jobmon export-determinism check (run to run) and the
//! scaled pushdown test over a 10⁵/10⁶-row store.

use gae::aio::ReactorRpcServer;
use gae::core::estimator::RuntimeEstimator;
use gae::core::HistoryRpc;
use gae::hist::{
    naive_matches, ColumnPredicate, HistConfig, HistRecord, HistStore, NUM_COLUMNS, STR_COLUMNS,
};
use gae::obs::{SpanId, TraceContext, TraceId};
use gae::prelude::*;
use gae::rpc::{CallContext, Rpc, Service, ServiceHost, TcpRpcClient};
use gae::wire::Value;
use proptest::prelude::*;
use std::sync::Arc;

#[path = "harness/mod.rs"]
mod harness;
use harness::{build_grid, submit_workload, Scenario};

/// A stack whose workload has fully settled, so the collector has
/// funnelled every terminal task into the columnar store, served over
/// a real TCP socket through a permissive gate (the facade is gated:
/// every admitted call crosses the admission queue).
struct Deployment {
    stack: Arc<ServiceStack>,
    gate: Arc<gae::gate::Gate>,
    server: ReactorRpcServer,
}

fn deploy() -> Deployment {
    let grid = GridBuilder::new()
        .site(SiteDescription::new(SiteId::new(1), "alpha", 4, 1))
        .site(SiteDescription::new(SiteId::new(2), "beta", 4, 1))
        .build();
    let stack = ServiceStack::over(grid);
    let mut job = JobSpec::new(JobId::new(1), "histwire", UserId::new(7));
    for i in 1..=4u64 {
        job.add_task(
            TaskSpec::new(TaskId::new(i), format!("t{i}"), "reco")
                .with_cpu_demand(SimDuration::from_secs(50 * i)),
        );
    }
    stack.submit_job(job).unwrap();
    stack.run_until(SimTime::from_secs(2_000));

    let host = ServiceHost::open();
    host.attach_obs(stack.obs());
    host.register(Arc::new(HistoryRpc::new(stack.hist.clone(), stack.obs())));
    let gate = Gate::new(GateConfig::default(), Arc::new(gae::gate::WallClock::new()));
    let server = ReactorRpcServer::start_gated(host, 2, gate.clone()).unwrap();
    Deployment {
        stack,
        gate,
        server,
    }
}

fn pred_value(column: &str, op: &str, value: Value) -> Value {
    Value::struct_of([
        ("column", Value::from(column)),
        ("op", Value::from(op)),
        ("value", value),
    ])
}

fn query_spec(preds: Vec<Value>, limit: Option<u64>) -> Value {
    let mut members = vec![("predicates", Value::Array(preds))];
    if let Some(l) = limit {
        members.push(("limit", Value::from(l)));
    }
    Value::struct_of(members)
}

/// Parses one `history.query` row struct back into the record it
/// round-tripped from.
fn row_to_record(v: &Value) -> HistRecord {
    let n = |m: &str| v.member(m).unwrap().as_u64().unwrap();
    let s = |m: &str| v.member(m).unwrap().as_str().unwrap().to_string();
    HistRecord {
        task: n("task"),
        site: n("site"),
        nodes: n("nodes"),
        submit_us: n("submit_us"),
        start_us: n("start_us"),
        finish_us: n("finish_us"),
        runtime_us: n("runtime_us"),
        success: v.member("success").unwrap().as_bool().unwrap(),
        account: s("account"),
        login: s("login"),
        executable: s("executable"),
        queue: s("queue"),
        partition: s("partition"),
        job_type: s("job_type"),
    }
}

// ---- wire round-trips ----

#[test]
fn query_round_trips_predicates_over_the_wire() {
    let d = deploy();
    let mut client = TcpRpcClient::connect(d.server.addr());

    // Everything the funnel stored, unfiltered.
    let all = client
        .call("history.query", vec![query_spec(vec![], None)])
        .unwrap();
    let matched = all.member("matched").unwrap().as_u64().unwrap();
    assert_eq!(matched, 4, "four terminal tasks funnelled");
    assert_eq!(all.member("rows").unwrap().as_array().unwrap().len(), 4);

    // A conjunction: successful runs of the job's owner with at least
    // 100 s of accrued runtime.
    let preds = vec![
        pred_value("login", "eq", Value::from("user-7")),
        pred_value("success", "eq", Value::from(1u64)),
        pred_value("runtime_us", "ge", Value::from(100_000_000u64)),
    ];
    let reply = client
        .call("history.query", vec![query_spec(preds.clone(), None)])
        .unwrap();
    let rows = reply.member("rows").unwrap().as_array().unwrap();
    assert_eq!(rows.len(), 3, "tasks 2..=4 ran ≥ 100 s");

    // The wire rows agree with an in-process scan and with the naive
    // reference semantics.
    let wanted: Vec<ColumnPredicate> = vec![
        ColumnPredicate::eq_str("login", "user-7"),
        ColumnPredicate::eq_num("success", 1),
        ColumnPredicate::ge("runtime_us", 100_000_000),
    ];
    let (local, stats) = d.stack.hist.store().query(&wanted, usize::MAX).unwrap();
    assert_eq!(
        rows.iter().map(row_to_record).collect::<Vec<_>>(),
        local,
        "wire rows diverge from the in-process scan"
    );
    assert_eq!(
        reply.member("matched").unwrap().as_u64().unwrap(),
        stats.rows_matched
    );
    for r in &local {
        assert!(naive_matches(r, &wanted));
    }

    // An explicit limit truncates rows but not the match cardinality.
    let limited = client
        .call("history.query", vec![query_spec(vec![], Some(2))])
        .unwrap();
    assert_eq!(limited.member("rows").unwrap().as_array().unwrap().len(), 2);
    assert_eq!(limited.member("matched").unwrap().as_u64().unwrap(), 4);

    // export and stats agree on the store identity.
    let export = client.call("history.export", vec![]).unwrap();
    let stats = client.call("history.stats", vec![]).unwrap();
    assert_eq!(
        export.member("digest").unwrap().as_str().unwrap(),
        d.stack.hist.store().digest()
    );
    assert_eq!(
        stats.member("digest").unwrap().as_str().unwrap(),
        export.member("digest").unwrap().as_str().unwrap()
    );
    assert_eq!(stats.member("rows").unwrap().as_u64().unwrap(), 4);

    // The exported bytes rebuild an identical store.
    let rebuilt = HistStore::new(HistConfig::default());
    rebuilt
        .restore(export.member("bytes").unwrap().as_bytes().unwrap())
        .unwrap();
    assert_eq!(rebuilt.digest(), d.stack.hist.store().digest());

    // All of it went through the gate.
    assert!(
        d.gate.stats().total_admitted() > 0,
        "facade calls are gated"
    );
    d.server.stop();
}

// ---- typed faults ----

#[test]
fn malformed_predicates_are_400_unknown_columns_404() {
    let d = deploy();
    let mut client = TcpRpcClient::connect(d.server.addr());

    // 400: unknown comparison op.
    let e = client
        .call(
            "history.query",
            vec![query_spec(
                vec![pred_value("site", "lt", Value::from(1u64))],
                None,
            )],
        )
        .unwrap_err();
    assert!(matches!(e, GaeError::Parse(_)), "{e}");

    // 400: string value against a numeric column.
    let e = client
        .call(
            "history.query",
            vec![query_spec(
                vec![pred_value("site", "eq", Value::from("cern"))],
                None,
            )],
        )
        .unwrap_err();
    assert!(matches!(e, GaeError::Parse(_)), "{e}");

    // 400: ordered compare on a string column.
    let e = client
        .call(
            "history.query",
            vec![query_spec(
                vec![pred_value("login", "ge", Value::from("alice"))],
                None,
            )],
        )
        .unwrap_err();
    assert!(matches!(e, GaeError::Parse(_)), "{e}");

    // 400: structurally broken specs.
    for bad in [
        Value::struct_of([("limit", Value::from(3u64))]), // no predicates
        Value::struct_of([("predicates", Value::from("nope"))]), // not an array
        Value::from(7u64),                                // not a struct
    ] {
        let e = client.call("history.query", vec![bad]).unwrap_err();
        assert!(matches!(e, GaeError::Parse(_)), "{e}");
    }
    // 400: no params at all, and params where none belong.
    let e = client.call("history.query", vec![]).unwrap_err();
    assert!(matches!(e, GaeError::Parse(_)), "{e}");
    for method in ["history.export", "history.stats"] {
        let e = client.call(method, vec![Value::from(1u64)]).unwrap_err();
        assert!(matches!(e, GaeError::Parse(_)), "{method}: {e}");
    }

    // 404: a well-formed predicate over a column that does not exist.
    let e = client
        .call(
            "history.query",
            vec![query_spec(
                vec![pred_value("walltime", "eq", Value::from(1u64))],
                None,
            )],
        )
        .unwrap_err();
    assert!(matches!(e, GaeError::NotFound(_)), "{e}");

    // -32601: unknown method on the service.
    let e = client.call("history.truncate", vec![]).unwrap_err();
    assert!(matches!(e, GaeError::Rpc { code: -32601, .. }), "{e}");
    d.server.stop();
}

// ---- trace headers and hist.* spans ----

#[test]
fn queries_join_the_wire_trace_and_emit_hist_spans() {
    let d = deploy();
    let mut client = TcpRpcClient::connect(d.server.addr());

    // The client-chosen X-GAE-Trace context captures the dispatch
    // span on the server side.
    client.set_trace(Some(TraceContext {
        trace: TraceId::new(0x5151),
        span: SpanId::ROOT,
    }));
    client
        .call("history.query", vec![query_spec(vec![], None)])
        .unwrap();
    let hub = d.stack.obs();
    let spans = hub.traces().spans(TraceId::new(0x5151)).expect("joined");
    assert!(
        spans.iter().any(|s| s.name == "rpc.history.query"),
        "{spans:?}"
    );

    // The query itself spans its scan shape under the deterministic
    // hist trace for query id 1: segments pruned, rows scanned, rows
    // matched.
    let spans = hub
        .traces()
        .spans(TraceId::for_hist(1))
        .expect("hist trace rooted");
    for prefix in ["hist.prune#", "hist.scan#", "hist.match#"] {
        assert!(
            spans.iter().any(|s| s.name.starts_with(prefix)),
            "missing {prefix} in {spans:?}"
        );
    }
    assert!(spans.iter().any(|s| s.name == "hist.match#4"), "{spans:?}");

    // And the wall-clock latency histogram saw the call.
    let snap = hub.hist_snapshot();
    let query = snap
        .iter()
        .find(|(m, _)| m == "query")
        .expect("query histogram");
    assert!(query.1.count >= 1);
    d.server.stop();
}

// ---- fuzzed queries never panic ----

fn arb_junk_value() -> impl Strategy<Value = Value> {
    (any::<u8>(), any::<u64>(), "[a-z#]{0,8}").prop_map(|(kind, n, s)| match kind % 5 {
        0 => Value::from(n),
        1 => Value::from(s.as_str()),
        2 => Value::Nil,
        3 => Value::Array(vec![]),
        _ => Value::Bool(n % 2 == 0),
    })
}

fn arb_junk_predicate() -> impl Strategy<Value = Value> {
    // Column/op/value drawn from valid and invalid spellings alike,
    // with members randomly missing.
    (
        (any::<u8>(), "[a-z_]{0,10}"),
        any::<u8>(),
        arb_junk_value(),
        any::<u8>(),
    )
        .prop_map(|((csel, junk_col), osel, value, drop)| {
            let known: Vec<&str> = NUM_COLUMNS
                .iter()
                .chain(STR_COLUMNS.iter())
                .copied()
                .collect();
            let column = if csel % 4 == 0 {
                junk_col
            } else {
                known[csel as usize % known.len()].to_string()
            };
            let op = ["eq", "ge", "le", "lt", "", "EQ"][osel as usize % 6];
            let mut members = Vec::new();
            if drop & 1 == 0 {
                members.push(("column", Value::from(column.as_str())));
            }
            if drop & 2 == 0 {
                members.push(("op", Value::from(op)));
            }
            if drop & 4 == 0 {
                members.push(("value", value));
            }
            Value::struct_of(members)
        })
}

/// Small values, values up to and past `u32::MAX`, arbitrary ones and
/// the top of the range: the span inside one segment then needs every
/// lane width a sealed column can take.
fn arb_wide() -> impl Strategy<Value = u64> {
    prop_oneof![
        0..256u64,
        0..(1u64 << 32),
        (1u64 << 32)..(1u64 << 32) + 70_000,
        any::<u64>(),
        Just(u64::MAX),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary wire shapes — valid predicates, half-formed ones,
    /// and outright junk — against the live facade: every call
    /// returns Ok or a typed error, never a panic.
    #[test]
    fn fuzzed_queries_never_panic(
        preds in proptest::collection::vec(arb_junk_predicate(), 0..5),
        wrap_in_array in any::<bool>(),
        limit in (any::<bool>(), any::<u64>()).prop_map(|(some, v)| some.then_some(v)),
    ) {
        let funnel = gae::core::HistFunnel::new(HistConfig { segment_rows: 8 });
        for t in 0..20u64 {
            funnel.ingest(HistRecord {
                task: t,
                site: 1 + t % 3,
                nodes: 1,
                submit_us: t * 1_000,
                start_us: t * 1_000 + 5,
                finish_us: t * 2_000,
                runtime_us: t * 500,
                success: t % 4 != 0,
                account: format!("acct{}", t % 2),
                login: format!("user{}", t % 5),
                executable: "reco".into(),
                queue: "default".into(),
                partition: "compute".into(),
                job_type: "batch".into(),
            });
        }
        let hub = gae::obs::ObsHub::new(Arc::new(gae::types::WallClock::new()));
        let svc = HistoryRpc::new(funnel, hub);
        let spec = if wrap_in_array {
            query_spec(preds, limit)
        } else {
            Value::Array(preds)
        };
        let _ = svc.call(&CallContext::anonymous("fuzz"), "query", &[spec]);
    }

    /// The pushdown scan agrees with the naive reference filter on
    /// random stores and random valid predicate conjunctions — zone
    /// maps, packed lanes and dictionaries must never change the
    /// answer. Bounds fall at large, on a stored value or beside one, so
    /// they land inside, on the edge of and outside segment frames.
    #[test]
    fn scan_equals_naive_reference_through_the_facade(
        rows in proptest::collection::vec(
            (
                (arb_wide(), 1..4u64, 0..4u64),
                (arb_wide(), any::<bool>(), 0..3usize, 0..3usize),
            ),
            0..120,
        ),
        preds in proptest::collection::vec(
            (0..5usize, 0..3usize, arb_wide(), any::<usize>(), 0..4u64),
            0..4,
        ),
        segment_rows in 1..16usize,
    ) {
        let logins = ["amy", "bob", "cal"];
        let queues = ["short", "long", "gpu"];
        let records: Vec<HistRecord> = rows
            .iter()
            .map(|((task, site, nodes), (runtime, success, who, queue))| HistRecord {
                task: *task,
                site: *site,
                nodes: *nodes,
                submit_us: task.wrapping_mul(10),
                start_us: task.wrapping_mul(10).wrapping_add(1),
                finish_us: task.wrapping_mul(10).wrapping_add(2),
                runtime_us: *runtime,
                success: *success,
                account: format!("a{who}"),
                login: logins[*who].into(),
                executable: "x".into(),
                queue: queues[*queue].into(),
                partition: "p".into(),
                job_type: "batch".into(),
            })
            .collect();
        let funnel = gae::core::HistFunnel::new(HistConfig { segment_rows });
        for r in &records {
            funnel.ingest(r.clone());
        }
        let wanted: Vec<ColumnPredicate> = preds
            .iter()
            .map(|(kind, op, wide, pick, near)| {
                // `near` 0 keeps the drawn bound; 1..=3 put it one below,
                // on or one above a stored row's value.
                let bound = |value: fn(&HistRecord) -> u64| match records.len() {
                    len if len > 0 && *near > 0 => {
                        value(&records[pick % len]).wrapping_add(*near).wrapping_sub(2)
                    }
                    _ => *wide,
                };
                let ordered = |column, v| match op {
                    0 => ColumnPredicate::eq_num(column, v),
                    1 => ColumnPredicate::ge(column, v),
                    _ => ColumnPredicate::le(column, v),
                };
                match kind {
                    0 => ordered("runtime_us", bound(|r| r.runtime_us)),
                    1 => ColumnPredicate::eq_num("site", wide % 5),
                    2 => ColumnPredicate::eq_str("login", logins[pick % 3]),
                    3 => ColumnPredicate::eq_str("queue", queues[pick % 3]),
                    _ => ordered("task", bound(|r| r.task)),
                }
            })
            .collect();
        let expected: Vec<HistRecord> = records
            .iter()
            .filter(|r| naive_matches(r, &wanted))
            .cloned()
            .collect();

        // Through the facade (wire shapes) ...
        let hub = gae::obs::ObsHub::new(Arc::new(gae::types::WallClock::new()));
        let svc = HistoryRpc::new(funnel.clone(), hub);
        let wire_preds = wanted
            .iter()
            .map(|p| {
                let value = match &p.value {
                    gae::hist::PredValue::Num(n) => Value::from(*n),
                    gae::hist::PredValue::Str(s) => Value::from(s.as_str()),
                };
                pred_value(&p.column, p.op.as_str(), value)
            })
            .collect();
        let reply = svc
            .call(
                &CallContext::anonymous("prop"),
                "query",
                &[query_spec(wire_preds, Some(u64::MAX))],
            )
            .unwrap();
        let got: Vec<HistRecord> = reply
            .member("rows")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(row_to_record)
            .collect();
        // Wire integers are signed 64-bit: a `u64` past `i64::MAX`
        // saturates there, in a predicate bound and in a returned row.
        let saturate = |v: u64| v.min(i64::MAX as u64);
        let sent: Vec<ColumnPredicate> = wanted
            .iter()
            .cloned()
            .map(|mut p| {
                if let gae::hist::PredValue::Num(v) = &mut p.value {
                    *v = saturate(*v);
                }
                p
            })
            .collect();
        let over_wire: Vec<HistRecord> = records
            .iter()
            .filter(|r| naive_matches(r, &sent))
            .map(|r| HistRecord {
                task: saturate(r.task),
                site: saturate(r.site),
                nodes: saturate(r.nodes),
                submit_us: saturate(r.submit_us),
                start_us: saturate(r.start_us),
                finish_us: saturate(r.finish_us),
                runtime_us: saturate(r.runtime_us),
                ..r.clone()
            })
            .collect();
        prop_assert_eq!(&got, &over_wire, "facade scan diverged from naive filter");
        prop_assert_eq!(
            reply.member("matched").unwrap().as_u64().unwrap(),
            over_wire.len() as u64
        );

        // ... and directly against the store, after a seal+compact
        // pass reshapes the segments.
        funnel.store().apply(&gae::hist::HistOp::Seal);
        if funnel.store().compactable() {
            funnel.store().apply(&gae::hist::HistOp::Compact);
        }
        let (direct, _) = funnel.store().query(&wanted, usize::MAX).unwrap();
        prop_assert_eq!(&direct, &expected, "post-maintenance scan diverged");
    }
}

// ---- jobmon export determinism (run to run) ----

#[test]
fn jobmon_export_is_deterministic_run_to_run() {
    let scenario = Scenario {
        sites: vec![(2, 2, 0), (3, 1, 1), (2, 1, 0)],
        flock_edges: vec![(0, 1)],
        jobs: vec![
            (vec![45, 30, 25, 10], vec![(0, 2), (1, 3)]),
            (vec![20, 35], vec![(0, 1)]),
            (vec![50], vec![]),
        ],
        steps: 6,
        step_secs: 30,
        snapshot_steps: 2,
        victim: 0,
        kind: 0,
        extent: 0,
        bit: 0,
    };
    // Two runs in fresh state: new `Grid`, new `HashMap` seeds.
    let run = || {
        let stack = ServiceStack::over(build_grid(&scenario, None));
        submit_workload(&scenario, &stack);
        stack.run_until(SimTime::from_secs(
            scenario.steps as u64 * scenario.step_secs,
        ));
        (stack.jobmon.db_snapshot(), stack.hist.store().digest())
    };
    let (infos, hist) = run();
    let (infos_again, hist_again) = run();
    assert_eq!(
        infos, infos_again,
        "DBManager::export() order diverged run to run"
    );
    assert_eq!(hist, hist_again, "hist store diverged run to run");
    // The export is TaskId-sorted, so it is deterministic by
    // construction, not by accident of hash order.
    let mut sorted = infos.clone();
    sorted.sort_by_key(|i| i.task);
    assert_eq!(infos, sorted, "export is not TaskId-sorted");
}

// ---- the collector funnel fills the store ----

#[test]
fn terminal_tasks_land_in_the_columnar_store_exactly_once() {
    let d = deploy();
    let store = d.stack.hist.store();
    assert_eq!(store.rows(), 4, "one row per terminal task");
    let (rows, _) = store
        .query(&[ColumnPredicate::eq_num("success", 1)], usize::MAX)
        .unwrap();
    assert_eq!(rows.len(), 4, "all four completed successfully");
    for r in &rows {
        assert_eq!(r.login, "user-7");
        assert_eq!(r.executable, "reco");
        assert_eq!(r.job_type, "batch");
        assert!(r.runtime_us >= 50_000_000);
    }
    // Re-running the clock past settlement adds nothing: terminal
    // states are funnelled once.
    d.stack.run_until(SimTime::from_secs(3_000));
    assert_eq!(store.rows(), 4);
    d.server.stop();
}

// ---- scale: pushdown over 10⁵ (debug) / 10⁶ (release) rows ----

#[test]
fn pushdown_prunes_and_estimates_stay_fast_at_scale() {
    let n: u64 = if cfg!(debug_assertions) {
        100_000
    } else {
        1_000_000
    };
    let store = HistStore::new(HistConfig::default());
    let logins = ["amy", "bob", "cal", "dee"];
    for t in 0..n {
        store.apply(&gae::hist::HistOp::Append(HistRecord {
            task: t,
            site: 1 + t % 4,
            nodes: 1 + t % 8,
            submit_us: t * 1_000, // time-ordered, so zone maps prune
            start_us: t * 1_000 + 40,
            finish_us: t * 1_000 + 900,
            runtime_us: 500 + (t % 1_000) * 37,
            success: t % 10 != 0,
            account: "cms".into(),
            login: logins[(t % 4) as usize].into(),
            executable: "reco".into(),
            queue: "prod".into(),
            partition: "compute".into(),
            job_type: "batch".into(),
        }));
    }
    assert_eq!(store.rows(), n);

    // A recent-window scan: submit_us zone maps prune every old
    // segment, so the scan touches well under a tenth of the rows.
    let window = [
        ColumnPredicate::ge("submit_us", (n - n / 100) * 1_000),
        ColumnPredicate::eq_num("success", 1),
    ];
    let (_, stats) = store.query(&window, usize::MAX).unwrap();
    assert!(
        stats.rows_scanned * 10 <= n,
        "pruning failed: scanned {} of {} rows",
        stats.rows_scanned,
        n
    );
    assert!(stats.segments_pruned * 10 >= stats.segments * 9);

    // The retargeted estimator answers over the full store; in
    // release this must stay in the low-millisecond range.
    let estimator = RuntimeEstimator::new(gae::core::estimator::HistoryStore::new(16));
    let meta = gae::trace::TaskMeta {
        account: "cms".into(),
        login: "amy".into(),
        executable: "reco".into(),
        queue: "prod".into(),
        partition: "compute".into(),
        nodes: 1,
        job_type: JobType::Batch,
    };
    let started = std::time::Instant::now();
    let est = estimator
        .estimate_columnar(&store, SiteId::new(1), &meta)
        .expect("similar tasks exist at scale");
    let elapsed = started.elapsed();
    assert!(est.runtime > SimDuration::ZERO);
    if !cfg!(debug_assertions) {
        assert!(
            elapsed.as_millis() < 50,
            "estimate took {elapsed:?} over {n} rows"
        );
    }
}
