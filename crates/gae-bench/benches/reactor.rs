//! Front-door microbenchmarks: one keep-alive roundtrip through the
//! reactor, plus the reuse-vs-reconnect cost on the client side.
//!
//! Run with `cargo bench -p gae-bench --bench reactor`; CI runs
//! `-- --test` as a smoke pass.

use criterion::{criterion_group, criterion_main, Criterion};
use gae_aio::ReactorRpcServer;
use gae_rpc::service::{CallContext, MethodInfo, Rpc, Service};
use gae_rpc::{ServiceHost, TcpRpcClient};
use gae_types::GaeResult;
use gae_wire::Value;
use std::hint::black_box;
use std::sync::Arc;

struct Echo;

impl Service for Echo {
    fn name(&self) -> &'static str {
        "bench"
    }
    fn call(&self, _ctx: &CallContext, method: &str, params: &[Value]) -> GaeResult<Value> {
        match method {
            "echo" => Ok(params.first().cloned().unwrap_or(Value::Int(0))),
            other => Err(gae_rpc::service::unknown_method("bench", other)),
        }
    }
    fn methods(&self) -> Vec<MethodInfo> {
        vec![]
    }
}

fn host() -> Arc<ServiceHost> {
    let host = ServiceHost::open();
    host.register(Arc::new(Echo));
    host
}

/// One keep-alive XML-RPC roundtrip through the front door.
fn bench_roundtrip(c: &mut Criterion) {
    let reactor = ReactorRpcServer::start(host(), 4).expect("bind");
    let mut client = TcpRpcClient::connect(reactor.addr());
    c.bench_function("roundtrip/reactor", |b| {
        b.iter(|| {
            black_box(client.call("bench.echo", vec![Value::Int(7)]).unwrap());
        })
    });
    drop(client);
    reactor.stop();
}

/// Client connection reuse vs a fresh TCP connect per call — the
/// number that justifies keep-alive in `TcpRpcClient`.
fn bench_client_reuse(c: &mut Criterion) {
    let server = ReactorRpcServer::start(host(), 4).expect("bind");
    let addr = server.addr();

    let mut reused = TcpRpcClient::connect(addr);
    c.bench_function("client/keep-alive-reuse", |b| {
        b.iter(|| {
            black_box(reused.call("bench.echo", vec![Value::Int(1)]).unwrap());
        })
    });

    let mut fresh = TcpRpcClient::connect(addr).with_keep_alive(false);
    c.bench_function("client/reconnect-per-call", |b| {
        b.iter(|| {
            black_box(fresh.call("bench.echo", vec![Value::Int(1)]).unwrap());
        })
    });
    server.stop();
}

criterion_group!(benches, bench_roundtrip, bench_client_reuse);
criterion_main!(benches);
