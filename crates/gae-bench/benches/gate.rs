//! Criterion benches for the admission gate (DESIGN.md §9): the
//! per-request hot path every server pays — token-bucket admit,
//! breaker check, bounded-queue hand-off. The full round trip through
//! the gate is `tcp_roundtrip_ping` in `rpc.rs`.

use criterion::{criterion_group, criterion_main, Criterion};
use gae_gate::{
    AdmissionQueue, Gate, GateClass, GateConfig, ManualClock, Popped, Principal, QueueConfig,
    TokenBucketConfig,
};
use gae_types::{SimDuration, UserId};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

/// A gate that never refuses: measures pure bookkeeping cost.
fn roomy_gate() -> Arc<Gate> {
    Gate::new(
        GateConfig {
            bucket: TokenBucketConfig::new(1e12, 1e12),
            ..GateConfig::default()
        },
        Arc::new(ManualClock::new()),
    )
}

fn bench_admit(c: &mut Criterion) {
    let gate = roomy_gate();
    let alice = Principal::user(UserId::new(1), "cms");
    c.bench_function("gate_admit_granted", |b| {
        b.iter(|| black_box(gate.admit(black_box(&alice))))
    });

    // A drained one-token bucket: every admit is the denial path.
    let stingy = Gate::new(
        GateConfig {
            bucket: TokenBucketConfig::new(1.0, 1e-6),
            ..GateConfig::default()
        },
        Arc::new(ManualClock::new()),
    );
    let bob = Principal::user(UserId::new(2), "cms");
    let _ = stingy.admit(&bob);
    c.bench_function("gate_admit_rate_limited", |b| {
        b.iter(|| black_box(stingy.admit(black_box(&bob))))
    });
}

fn bench_breaker(c: &mut Criterion) {
    let gate = roomy_gate();
    c.bench_function("gate_breaker_check_closed", |b| {
        b.iter(|| black_box(gate.breaker_check(black_box("exec-site-1"), GateClass::Production)))
    });
}

fn bench_queue(c: &mut Criterion) {
    let gate = roomy_gate();
    let queue = AdmissionQueue::<u64>::new(
        QueueConfig::new(64, SimDuration::from_secs(10)),
        gate.clock(),
        gate.metrics(),
    );
    c.bench_function("gate_queue_push_pop", |b| {
        b.iter(|| {
            queue.push(GateClass::Production, black_box(7)).unwrap();
            match queue.pop_blocking(Duration::from_millis(10)) {
                Some(Popped::Run(_, v)) => black_box(v),
                other => panic!("expected a live entry, got {other:?}"),
            }
        })
    });
}

criterion_group!(benches, bench_admit, bench_breaker, bench_queue);
criterion_main!(benches);
