//! Front-door microbenchmarks: one keep-alive roundtrip through the
//! reactor on each lane (pooled, and inline on the reactor thread).
//!
//! Run with `cargo bench -p gae-bench --bench reactor`; CI runs
//! `-- --test` as a smoke pass.

use criterion::{criterion_group, criterion_main, Criterion};
use gae_aio::ReactorRpcServer;
use gae_bench::gate::queue_only_gate;
use gae_rpc::service::{CallContext, MethodInfo, Rpc, Service};
use gae_rpc::{ServiceHost, TcpRpcClient};
use gae_types::{GaeResult, SimDuration};
use gae_wire::Value;
use std::hint::black_box;
use std::sync::Arc;

struct Echo;

impl Service for Echo {
    fn name(&self) -> &'static str {
        "bench"
    }
    /// `iecho` is `echo` marked to run on the reactor thread.
    fn inline(&self, method: &str) -> bool {
        method == "iecho"
    }
    fn call(&self, _ctx: &CallContext, method: &str, params: &[Value]) -> GaeResult<Value> {
        match method {
            "echo" | "iecho" => Ok(params.first().cloned().unwrap_or(Value::Int(0))),
            other => Err(gae_rpc::service::unknown_method("bench", other)),
        }
    }
    /// The host answers only the methods a service lists.
    fn methods(&self) -> Vec<MethodInfo> {
        ["echo", "iecho"]
            .map(|name| MethodInfo { name, help: "" })
            .into()
    }
}

fn host() -> Arc<ServiceHost> {
    let host = ServiceHost::open();
    host.register(Arc::new(Echo));
    host
}

/// One keep-alive XML-RPC roundtrip through the front door, on each
/// lane of the same service.
fn bench_roundtrip(c: &mut Criterion) {
    let reactor =
        ReactorRpcServer::start_gated(host(), 4, queue_only_gate(16, SimDuration::from_secs(60)))
            .expect("bind");
    let mut client = TcpRpcClient::connect(reactor.addr());
    for (name, method) in [
        ("roundtrip/reactor", "bench.echo"),
        ("roundtrip/reactor-inline", "bench.iecho"),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| {
                black_box(client.call(method, vec![Value::Int(7)]).unwrap());
            })
        });
    }

    // The cost contract (DESIGN.md §16 "Run to completion"), measured
    // directly so it holds in `--test` smoke mode too: the inline lane
    // saves two of the four thread wake-ups of a round trip, so it
    // must come in at ≤ 0.75× the pooled one. A ratio of two numbers
    // taken in turns, so the box's speed state cancels. Best of 5.
    let mut per_call = |method: &str| {
        const CALLS: u32 = 2_000;
        let started = std::time::Instant::now();
        for _ in 0..CALLS {
            black_box(client.call(method, vec![Value::Int(7)]).unwrap());
        }
        started.elapsed() / CALLS
    };
    let mut best = [std::time::Duration::MAX; 2];
    for _ in 0..5 {
        let round = [per_call("bench.echo"), per_call("bench.iecho")];
        for (b, r) in best.iter_mut().zip(round) {
            *b = (*b).min(r);
        }
    }
    let ratio = best[1].as_secs_f64() / best[0].as_secs_f64().max(1e-12);
    println!(
        "keep-alive round trip: {:?} pooled, {:?} inline ({ratio:.2}x)",
        best[0], best[1]
    );
    assert!(
        reactor.inline_served() > 0 && reactor.inline_served() < reactor.requests_served(),
        "both lanes must have been driven"
    );
    assert!(
        ratio <= 0.75,
        "an inline round trip must cost <= 0.75x a pooled one: {:?} pooled, {:?} inline",
        best[0],
        best[1]
    );
    drop(client);
    reactor.stop();
}

criterion_group!(benches, bench_roundtrip);
criterion_main!(benches);
