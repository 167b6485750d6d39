//! The served host's method tables under hostile callers (ISSUE 26):
//! every listed method answers random parameters with a reply that
//! survives the wire, names a client makes up cost the host nothing to
//! keep, and wire integers past `u32` are refused instead of wrapped.

mod served;

use gae::rpc::{CallContext, ServiceHost};
use gae::types::{GaeError, GaeResult};
use gae::wire::datetime::DateTime;
use gae::wire::{parse_response, write_response, MethodCall, Value};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn listed(host: &ServiceHost) -> Vec<String> {
    let anon = CallContext::anonymous("fuzz");
    let names = host.dispatch(&anon, "system.listMethods", &[]).unwrap();
    let names = names.as_array().unwrap().iter();
    names.map(|n| n.as_str().unwrap().to_string()).collect()
}

/// Words the handlers look for — struct members, enum spellings,
/// method names for `system.multicall` — beside arbitrary ones.
fn word() -> impl Strategy<Value = String> {
    let known = [
        "methodName",
        "params",
        "id",
        "name",
        "tasks",
        "dependencies",
        "predicates",
        "limit",
        "column",
        "op",
        "value",
        "site",
        "entity",
        "param",
        "at_us",
        "fast",
        "cheap",
        "batch",
        "eq",
        "system.ping",
        "system.multicall",
        "jobmon.job_info",
        "steering.kill",
    ];
    prop_oneof![
        (0..known.len()).prop_map(move |i| known[i].to_string()),
        "[a-z_.]{0,12}",
    ]
}

/// Every `Value` variant, nested, with the ids the demo grid knows and
/// the integers a `u32` or `i32` field cannot hold weighted in.
fn value() -> BoxedStrategy<Value> {
    let edges = [
        -1,
        0,
        1,
        i64::from(u32::MAX),
        i64::from(u32::MAX) + 1,
        i64::from(i32::MIN),
        i64::MAX,
        i64::MIN,
    ];
    let leaf = prop_oneof![
        any::<i32>().prop_map(Value::Int),
        // The demo's task, job, site and Condor ids.
        (0i32..8).prop_map(Value::Int),
        any::<i64>().prop_map(Value::Int64),
        (0..edges.len()).prop_map(move |i| Value::Int64(edges[i])),
        any::<bool>().prop_map(Value::Bool),
        word().prop_map(Value::String),
        prop::num::f64::NORMAL.prop_map(Value::Double),
        Just(Value::Double(0.0)),
        prop::collection::vec(any::<u8>(), 0..16).prop_map(Value::Base64),
        (0i64..253_402_300_799i64).prop_map(|s| Value::DateTime(DateTime::from_unix_seconds(s))),
        Just(Value::Nil),
    ];
    leaf.prop_recursive(3, 32, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
            prop::collection::btree_map(word(), inner, 0..4).prop_map(Value::Struct),
        ]
    })
}

/// One call through `ServiceHost::handle`, which must neither panic nor
/// write a reply that does not parse back.
fn answer(host: &ServiceHost, ctx: &CallContext, name: &str, params: Vec<Value>) {
    let call = MethodCall::new(name, params);
    let reply = catch_unwind(AssertUnwindSafe(|| host.handle(ctx, &call)))
        .unwrap_or_else(|_| panic!("{name} panicked on {:?}", call.params));
    let body = write_response(&reply);
    if let Err(e) = parse_response(body.as_bytes()) {
        panic!(
            "{name}{:?}: reply does not parse back ({e}): {body}",
            call.params
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every method `system.listMethods` names, logged in, with 0–8
    /// random parameters: a success or a typed fault, never a panic.
    #[test]
    fn every_listed_method_answers_random_params(
        calls in prop::collection::vec(prop::collection::vec(value(), 0..9), 96),
    ) {
        let (_stack, host) = served::served_host();
        let user = served::logged_in(&host);
        let names = listed(&host);
        prop_assert!(names.len() <= calls.len(), "{} methods", names.len());
        for (name, params) in names.iter().zip(calls) {
            answer(&host, &user, name, params);
        }
    }
}

/// Names that resolve to no method record no histogram: 5,000 of them
/// leave the per-method histograms and the published `obs` series as
/// they were (before ISSUE 26 each made a ~7.8 KB histogram and four
/// MonALISA series, forever).
#[test]
fn unknown_names_cost_nothing_to_keep() {
    use gae::types::SimTime;
    let (stack, host) = served::served_host();
    let user = served::logged_in(&host);
    let obs_series = || {
        let (series, _) = stack.grid.monitor().metrics_snapshot();
        series.iter().filter(|(k, _)| &*k.entity == "obs").count()
    };
    for name in ["system.ping", "jobmon.job_info", "steering.my_jobs"] {
        answer(&host, &user, name, vec![Value::from(1u64)]);
    }
    stack.run_until(SimTime::from_secs(10));
    let histograms = stack.obs().rpc_snapshot().len();
    let series = obs_series();
    assert!(histograms >= 3 && series >= 12, "{histograms} / {series}");

    let services = ["jobmon", "steering", "system", "nosuch"];
    for i in 0..5_000 {
        let name = match i % 5 {
            4 => format!("nodots{i}"),
            k => format!("{}.bogus{i}", services[k]),
        };
        let reply = host.dispatch(&user, &name, &[]);
        assert!(
            matches!(reply, Err(GaeError::Rpc { code: -32601, .. })),
            "{name}: {reply:?}"
        );
    }
    stack.run_until(SimTime::from_secs(20));
    assert_eq!(stack.obs().rpc_snapshot().len(), histograms);
    assert_eq!(obs_series(), series);
}

fn parse_fault(reply: GaeResult<Value>) -> String {
    match reply {
        Err(GaeError::Parse(why)) => why,
        other => panic!("expected a parse fault, got {other:?}"),
    }
}

/// `estimator.estimate_runtime`'s `nodes` past `u32::MAX` is refused,
/// not wrapped to a small node count.
#[test]
fn estimate_runtime_refuses_nodes_past_u32() {
    let (_stack, host) = served::served_host();
    let user = served::logged_in(&host);
    let call = |nodes: u64| {
        let params = [
            Value::from(1u64),
            Value::from("alice"),
            Value::from("reco"),
            Value::from("q"),
            Value::from("p"),
            Value::from(nodes),
            Value::from("batch"),
        ];
        host.dispatch(&user, "estimator.estimate_runtime", &params)
    };
    assert!(!matches!(
        call(u64::from(u32::MAX)),
        Err(GaeError::Parse(_))
    ));
    let why = parse_fault(call(u64::from(u32::MAX) + 1));
    assert_eq!(why, "nodes out of range");
}

/// `scheduler.submit_job`'s `requested_nodes` past `u32::MAX` is
/// refused, not wrapped.
#[test]
fn submit_job_refuses_requested_nodes_past_u32() {
    use gae::core::submit::job_to_value;
    use gae::prelude::*;
    let (_stack, host) = served::served_host();
    let user = served::logged_in(&host);
    let mut job = JobSpec::new(JobId::new(7), "wide", UserId::new(0));
    job.add_task(TaskSpec::new(TaskId::new(70), "t", "reco").with_nodes(1));
    let mut wire = job_to_value(&job);
    let Value::Struct(members) = &mut wire else {
        unreachable!("a job is a struct")
    };
    let Some(Value::Array(tasks)) = members.get_mut("tasks") else {
        unreachable!("a job has tasks")
    };
    let Value::Struct(task) = &mut tasks[0] else {
        unreachable!("a task is a struct")
    };
    task.insert(
        "requested_nodes".into(),
        Value::from(u64::from(u32::MAX) + 1),
    );
    let why = parse_fault(host.dispatch(&user, "scheduler.submit_job", &[wire]));
    assert_eq!(why, "requested_nodes out of range");
}
