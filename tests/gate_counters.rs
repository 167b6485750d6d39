//! Gate counters over the `monalisa.*` RPC facade (ISSUE 3
//! satellite): every admission outcome — admitted, rate-limited,
//! breaker-denied — and the breaker states themselves must be
//! published on the stack's poll tick and be queryable like any other
//! MonALISA metric, mirroring `monitor_counters.rs`.

use gae::aio::ReactorRpcServer;
use gae::core::monalisa::MonAlisaRpc;
use gae::gate::{BreakerConfig, GateClass, GateConfig, Principal, TokenBucketConfig};
use gae::prelude::*;
use gae::rpc::{CallContext, Rpc, Service, ServiceHost, TcpRpcClient};
use gae::wire::Value;
use std::sync::Arc;

fn ctx() -> CallContext {
    CallContext::anonymous("test")
}

fn latest(rpc: &MonAlisaRpc, site: u64, entity: &str, param: &str) -> Option<f64> {
    let out = rpc
        .call(
            &ctx(),
            "latest",
            &[Value::from(site), Value::from(entity), Value::from(param)],
        )
        .expect("latest call");
    match out {
        Value::Nil => None,
        v => Some(v.member("value").unwrap().as_f64().unwrap()),
    }
}

/// Admission decisions made against the stack's gate must land in the
/// repository on the next poll, with one `gate.*` parameter per
/// counter and class.
#[test]
fn gate_counters_publish_and_are_queryable_over_rpc() {
    let grid = GridBuilder::new()
        .site(SiteDescription::new(SiteId::new(1), "alpha", 2, 2))
        .gate(GateConfig {
            // Burst of 2 per principal; refill so slow the third
            // request inside one virtual tick is always limited.
            bucket: TokenBucketConfig::new(2.0, 1e-3),
            breaker: BreakerConfig::new(2, SimDuration::from_secs(30)),
            ..GateConfig::default()
        })
        .build();
    let stack = ServiceStack::over(grid);
    let rpc = MonAlisaRpc::new(stack.grid.monitor().clone());

    // Two admits drain alice's bucket; the third is rate-limited.
    let alice = Principal::user(UserId::new(1), "gae");
    assert_eq!(stack.gate.admit(&alice).unwrap(), GateClass::Production);
    assert_eq!(stack.gate.admit(&alice).unwrap(), GateClass::Production);
    let limited = stack.gate.admit(&alice).unwrap_err();
    assert!(limited.retry_after_us().unwrap() > 0);

    // Two consecutive failures trip site 1's breaker; the next check
    // is a typed breaker denial.
    stack.gate.breaker_record("exec-site-1", false);
    stack.gate.breaker_record("exec-site-1", false);
    assert!(stack
        .gate
        .breaker_check("exec-site-1", GateClass::Production)
        .is_err());

    // The poll tick publishes the snapshot.
    stack.run_until(SimTime::from_secs(10));

    assert_eq!(
        latest(&rpc, 0, "gate", "admitted_production").expect("published"),
        2.0
    );
    assert_eq!(
        latest(&rpc, 0, "gate", "rate_limited_production").expect("published"),
        1.0
    );
    assert_eq!(
        latest(&rpc, 0, "gate", "breaker_denied_production").expect("published"),
        1.0
    );
    assert_eq!(
        latest(&rpc, 0, "gate", "shed_production").expect("published"),
        0.0
    );
    // Breaker state sample: open = 1.0.
    assert_eq!(
        latest(&rpc, 0, "gate", "breaker_exec-site-1").expect("published"),
        1.0
    );
    // Queue gauges exist even when idle.
    assert_eq!(
        latest(&rpc, 0, "gate", "queue_depth").expect("published"),
        0.0
    );
}

/// The class resolver wired by the composition root derives priority
/// from quota standing: principals billed into the red drop to
/// Scavenger (first shed), everyone else runs at Production.
#[test]
fn quota_exhausted_principals_drop_to_scavenger() {
    let grid = GridBuilder::new()
        .site(SiteDescription::new(SiteId::new(1), "alpha", 2, 2))
        .build();
    let stack = ServiceStack::over(grid);

    let broke = Principal::user(UserId::new(7), "gae");
    let solvent = Principal::user(UserId::new(8), "gae");
    let anon = Principal::anonymous("gae");

    // Everyone starts at Production (balance 0 = never granted).
    assert_eq!(stack.gate.classify(&broke), GateClass::Production);

    // Drive user 7 into the red, as after-the-fact billing does.
    stack.quota.grant(UserId::new(7), -5.0);
    stack.quota.grant(UserId::new(8), 100.0);

    assert_eq!(stack.gate.classify(&broke), GateClass::Scavenger);
    assert_eq!(stack.gate.classify(&solvent), GateClass::Production);
    assert_eq!(stack.gate.classify(&anon), GateClass::Production);

    // The class is live: paying the debt restores Production.
    stack.quota.grant(UserId::new(7), 10.0);
    assert_eq!(stack.gate.classify(&broke), GateClass::Production);

    // And admissions are attributed to the class of record.
    stack.quota.grant(UserId::new(7), -100.0);
    stack.gate.admit(&broke).unwrap();
    assert_eq!(
        stack.gate.stats().admitted[GateClass::Scavenger as usize],
        1
    );
}

/// `gae-ctl serve`'s wiring: the stack's own gate fronts the socket,
/// so what the `gate` entity and the `gate:run` histogram publish is
/// the served traffic — on both lanes.
#[test]
fn served_traffic_moves_the_published_gate_entity() {
    const EACH: u64 = 5;
    let grid = GridBuilder::new()
        .site(SiteDescription::new(SiteId::new(1), "alpha", 2, 2))
        .build();
    let stack = ServiceStack::over(grid);
    let host = ServiceHost::open();
    host.register(Arc::new(MonAlisaRpc::new(stack.grid.monitor().clone())));
    let server = ReactorRpcServer::start_gated(host, 2, stack.gate.clone()).unwrap();
    let mut client = TcpRpcClient::connect(server.addr());
    let mut wire_latest = |entity: &str, param: &str| {
        let args = vec![Value::from(0u64), Value::from(entity), Value::from(param)];
        match client.call("monalisa.latest", args).expect("latest call") {
            Value::Nil => None,
            v => Some(v.member("value").unwrap().as_f64().unwrap()),
        }
    };
    // Nothing is published before the first poll, so these pooled
    // calls only count; the pings run on the reactor thread.
    for _ in 0..EACH {
        assert_eq!(wire_latest("gate", "admitted_production"), None);
    }
    let mut pinger = TcpRpcClient::connect(server.addr());
    for _ in 0..EACH {
        assert_eq!(
            pinger.call("system.ping", vec![]).unwrap(),
            Value::from("pong")
        );
    }
    assert_eq!(server.inline_served(), EACH);

    stack.run_until(SimTime::from_secs(10));

    let served = (2 * EACH) as f64;
    assert_eq!(wire_latest("gate", "admitted_production"), Some(served));
    assert_eq!(wire_latest("obs", "gate_run_count"), Some(served));
    assert_eq!(wire_latest("gate", "rate_limited_production"), Some(0.0));
    server.stop();
}
