//! Criterion benches for the observability layer (DESIGN.md §10):
//! the histogram record hot path (budget: well under 100 ns/record —
//! it sits on every RPC dispatch), snapshot assembly, and span
//! recording through the hub.

use criterion::{criterion_group, criterion_main, Criterion};
use gae_obs::{Histogram, HistogramSet, ObsHub, TimelineEvent};
use gae_types::{ManualClock, SimDuration, SimTime};
use std::hint::black_box;
use std::sync::Arc;

fn bench_histogram_record(c: &mut Criterion) {
    let h = Histogram::new();
    let mut us = 0u64;
    c.bench_function("obs_histogram_record", |b| {
        b.iter(|| {
            us = us.wrapping_add(37) & 0xFFFF;
            h.record(black_box(SimDuration::from_micros(us)));
        })
    });

    let set = HistogramSet::new();
    set.record("steer.submit", SimDuration::from_micros(1));
    c.bench_function("obs_histogram_set_record_hit", |b| {
        b.iter(|| set.record(black_box("steer.submit"), SimDuration::from_micros(42)))
    });
}

fn bench_snapshot(c: &mut Criterion) {
    let h = Histogram::new();
    for us in 0..100_000u64 {
        h.record(SimDuration::from_micros(us % 50_000));
    }
    c.bench_function("obs_histogram_snapshot", |b| {
        b.iter(|| black_box(h.snapshot()))
    });
}

fn bench_hub(c: &mut Criterion) {
    let hub = ObsHub::new(Arc::new(ManualClock::new()));
    c.bench_function("obs_hub_record_rpc", |b| {
        b.iter(|| {
            hub.record_rpc(
                black_box("jobmon.job_status"),
                SimDuration::from_micros(120),
            )
        })
    });

    let root = hub.condor_trace(1, "task 1/1", SimTime::ZERO);
    c.bench_function("obs_hub_span", |b| {
        b.iter(|| {
            black_box(hub.span(
                black_box(root),
                "steer.submit",
                SimTime::ZERO,
                SimTime::from_micros(5),
            ))
        })
    });

    let mut condor = 0u64;
    c.bench_function("obs_hub_timeline_mark", |b| {
        b.iter(|| {
            condor = condor.wrapping_add(1) & 0x3FF;
            hub.mark_at(black_box(condor), TimelineEvent::Submit, SimTime::ZERO);
        })
    });
}

criterion_group!(benches, bench_histogram_record, bench_snapshot, bench_hub);
criterion_main!(benches);
