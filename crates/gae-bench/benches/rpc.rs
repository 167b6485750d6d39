//! Criterion benches for the Clarens-substitute RPC stack — the
//! machinery behind Figure 6: XML-RPC encode/parse, in-process
//! dispatch (with and without the codec), and real TCP round trips.

use criterion::{criterion_group, criterion_main, Criterion};
use gae_aio::ReactorRpcServer;
use gae_bench::gate::queue_only_gate;
use gae_rpc::{InProcClient, Rpc, ServiceHost, TcpRpcClient};
use gae_types::SimDuration;
use gae_wire::{
    parse_call, parse_response, write_call, write_response, MethodCall, Response, Value,
};
use std::hint::black_box;

fn small_call() -> MethodCall {
    MethodCall::new("jobmon.job_status", vec![Value::Int64(42)])
}

fn big_value() -> Value {
    // Shaped like a jobmon.job_info response struct.
    Value::struct_of([
        ("job", Value::Int64(1)),
        ("task", Value::Int64(2)),
        ("condor", Value::Int64(3)),
        ("site", Value::Int64(4)),
        ("status", Value::from("running")),
        ("estimated_runtime_s", Value::Double(283.0)),
        ("remaining_time_s", Value::Double(100.5)),
        ("elapsed_s", Value::Double(182.5)),
        ("queue_position", Value::Nil),
        ("priority", Value::Int(0)),
        ("submitted_us", Value::Int64(1_000_000)),
        ("started_us", Value::Int64(2_000_000)),
        ("completed_us", Value::Nil),
        ("cpu_time_s", Value::Double(182.5)),
        ("input_io", Value::Int64(1 << 30)),
        ("output_io", Value::Int64(1 << 20)),
        ("owner", Value::Int64(7)),
        (
            "env",
            Value::Array(
                (0..16)
                    .map(|i| {
                        Value::struct_of([
                            ("name", Value::from(format!("VAR_{i}"))),
                            ("value", Value::from(format!("value &<> {i}"))),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("progress", Value::Double(0.645)),
    ])
}

fn bench_wire(c: &mut Criterion) {
    let call = small_call();
    let call_xml = write_call(&call);
    c.bench_function("wire_write_small_call", |b| {
        b.iter(|| black_box(write_call(black_box(&call))))
    });
    c.bench_function("wire_parse_small_call", |b| {
        b.iter(|| black_box(parse_call(black_box(call_xml.as_bytes()))))
    });

    let resp = Response::Success(big_value());
    let resp_xml = write_response(&resp);
    c.bench_function("wire_write_jobinfo_response", |b| {
        b.iter(|| black_box(write_response(black_box(&resp))))
    });
    c.bench_function("wire_parse_jobinfo_response", |b| {
        b.iter(|| black_box(parse_response(black_box(resp_xml.as_bytes()))))
    });
}

fn bench_inproc(c: &mut Criterion) {
    let host = ServiceHost::open();
    let mut fast = InProcClient::new(host.clone());
    c.bench_function("inproc_dispatch", |b| {
        b.iter(|| black_box(fast.call("system.ping", vec![])))
    });
    let mut codec = InProcClient::with_codec(host);
    c.bench_function("inproc_full_codec", |b| {
        b.iter(|| black_box(codec.call("system.ping", vec![])))
    });
}

fn bench_tcp_roundtrip(c: &mut Criterion) {
    let host = ServiceHost::open();
    let server =
        ReactorRpcServer::start_gated(host, 4, queue_only_gate(16, SimDuration::from_secs(60)))
            .expect("bind");
    let mut client = TcpRpcClient::connect(server.addr());
    // Warm the connection.
    client.call("system.ping", vec![]).expect("ping");
    c.bench_function("tcp_roundtrip_ping", |b| {
        b.iter(|| black_box(client.call("system.ping", vec![]).expect("ping")))
    });
    c.bench_function("tcp_roundtrip_echo_struct", |b| {
        let payload = big_value();
        b.iter(|| {
            black_box(
                client
                    .call("system.echo", vec![payload.clone()])
                    .expect("echo"),
            )
        })
    });
    drop(client);
    server.stop();
}

criterion_group!(benches, bench_wire, bench_inproc, bench_tcp_roundtrip);
criterion_main!(benches);
