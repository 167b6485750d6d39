//! Criterion benches for the substrates: execution-service queue,
//! load-trace math, monitoring store, and the trace generator.

use criterion::{criterion_group, criterion_main, Criterion};
use gae_exec::PriorityQueue;
use gae_monitor::{MetricKey, Sample, SeriesId, TimeSeriesStore};
use gae_sim::LoadTrace;
use gae_trace::WorkloadModel;
use gae_types::{CondorId, Priority, SimDuration, SimTime, SiteId};
use std::hint::black_box;

fn bench_priority_queue(c: &mut Criterion) {
    c.bench_function("exec_queue_push_pop_1k", |b| {
        b.iter(|| {
            let mut q = PriorityQueue::new();
            for i in 0..1_000u64 {
                q.push(CondorId::new(i), Priority::new((i % 7) as i32 - 3));
            }
            while let Some(e) = q.pop() {
                black_box(e);
            }
        })
    });
}

fn bench_load_trace(c: &mut Criterion) {
    // A trace with 1000 steps, queried mid-way.
    let steps: Vec<(SimTime, f64)> = (0..1_000)
        .map(|i| (SimTime::from_secs(i * 60), (i % 5) as f64))
        .collect();
    let trace = LoadTrace::from_steps(steps);
    c.bench_function("load_trace_finish_time", |b| {
        b.iter(|| {
            black_box(trace.finish_time(
                black_box(SimTime::from_secs(123)),
                black_box(SimDuration::from_secs(50_000)),
                1.0,
            ))
        })
    });
    c.bench_function("load_trace_accrued_between", |b| {
        b.iter(|| {
            black_box(trace.accrued_between(
                black_box(SimTime::from_secs(123)),
                black_box(SimTime::from_secs(50_000)),
                1.0,
            ))
        })
    });
}

fn bench_monitor_store(c: &mut Criterion) {
    c.bench_function("monitor_publish", |b| {
        let mut store = TimeSeriesStore::new(4_096);
        let key = MetricKey::site_wide(SiteId::new(1), "cpu_load");
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            store.publish(
                key.clone(),
                Sample {
                    at: SimTime::from_secs(t),
                    value: t as f64,
                },
            )
        })
    });
    // One grid tick's farm publication — 256 sites × (2 + 4 nodes × 2)
    // series — by key and by interned handle.
    let keys: Vec<MetricKey> = (1..=256u64)
        .flat_map(|site| {
            let farm =
                ["cpu_load", "queue_length"].map(|p| MetricKey::site_wide(SiteId::new(site), p));
            let nodes = (1..=4).flat_map(move |n| {
                ["cpu_load", "busy_slots"]
                    .map(|p| MetricKey::new(SiteId::new(site), format!("node-{n}"), p))
            });
            farm.into_iter().chain(nodes)
        })
        .collect();
    assert_eq!(keys.len(), 2_560);
    let values = vec![0.5; keys.len()];
    c.bench_function("monitor_publish_batch_2560_keyed", |b| {
        let mut store = TimeSeriesStore::new(4_096);
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            let at = SimTime::from_secs(t);
            store.publish_batch(keys.iter().map(|k| (k.clone(), Sample { at, value: 0.5 })))
        })
    });
    c.bench_function("monitor_publish_ids_2560", |b| {
        let mut store = TimeSeriesStore::new(4_096);
        let ids: Vec<SeriesId> = keys.iter().map(|k| store.intern(k.clone())).collect();
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            store.publish_ids(SimTime::from_secs(t), &ids, &values)
        })
    });
    let mut store = TimeSeriesStore::new(4_096);
    let key = MetricKey::site_wide(SiteId::new(1), "cpu_load");
    for t in 0..4_096u64 {
        store.publish(
            key.clone(),
            Sample {
                at: SimTime::from_secs(t),
                value: t as f64,
            },
        );
    }
    c.bench_function("monitor_range_query", |b| {
        b.iter(|| {
            black_box(store.range(
                black_box(&key),
                SimTime::from_secs(1_000),
                SimTime::from_secs(3_000),
            ))
        })
    });
}

fn bench_trace_generator(c: &mut Criterion) {
    let model = WorkloadModel::default();
    c.bench_function("paragon_generate_120_jobs", |b| {
        b.iter(|| black_box(model.generate(120, black_box(42))))
    });
}

criterion_group!(
    benches,
    bench_priority_queue,
    bench_load_trace,
    bench_monitor_store,
    bench_trace_generator
);
criterion_main!(benches);
