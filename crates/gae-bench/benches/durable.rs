//! Durability-layer benches (DESIGN.md §8): WAL append throughput
//! under group-commit batching, recovery scan cost vs grid size, and
//! the full `recover_from_disk` rebuild path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gae_core::grid::{Grid, GridBuilder, ServiceStack};
use gae_core::persist::PersistenceConfig;
use gae_core::steering::SteeringPolicy;
use gae_durable::fault::unique_temp_dir;
use gae_durable::DurableStore;
use gae_types::{
    JobId, JobSpec, SimDuration, SimTime, SiteDescription, SiteId, TaskId, TaskSpec, UserId,
};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Appends `batch` records per commit; throughput scales with the
/// batch because every commit is one write (+ optional fsync) however
/// many records it carries.
fn wal_append(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal_append");
    let record = vec![0xA5u8; 128];
    for batch in [1usize, 8, 64, 256] {
        group.bench_with_input(BenchmarkId::from_parameter(batch), &batch, |b, &batch| {
            let dir = unique_temp_dir("bench-wal");
            let mut store = DurableStore::create(&dir, true).expect("create");
            b.iter(|| {
                for _ in 0..batch {
                    store.append(record.clone());
                }
                black_box(store.commit().expect("commit"))
            });
            drop(store);
            std::fs::remove_dir_all(&dir).ok();
        });
    }
    group.finish();
}

fn grid_of(sites: u64, persist: Option<&PersistenceConfig>) -> Arc<Grid> {
    let mut builder = GridBuilder::new();
    for i in 1..=sites {
        builder = builder.site(SiteDescription::new(SiteId::new(i), format!("s{i}"), 4, 2));
    }
    if let Some(config) = persist {
        builder = builder.persist(config.clone());
    }
    builder.build()
}

/// Runs a persisted workload sized to the site count, leaving a
/// realistic store (several generations of snapshot + WAL) behind.
fn seed_store(sites: u64, dir: &Path) {
    let config = PersistenceConfig::new(dir)
        .snapshot_every(SimDuration::from_secs(40))
        .fsync(false);
    let stack = ServiceStack::over(grid_of(sites, Some(&config)));
    for j in 1..=sites {
        let mut job = JobSpec::new(JobId::new(j), format!("job{j}"), UserId::new(1));
        for k in 0..6u64 {
            job.add_task(
                TaskSpec::new(TaskId::new(j * 1000 + k), format!("t{j}-{k}"), "app")
                    .with_cpu_demand(SimDuration::from_secs(5 + 7 * k)),
            );
        }
        stack.submit_job(job).expect("submit");
    }
    for step in 1..=6u64 {
        stack.run_until(SimTime::from_secs(step * 20));
    }
}

/// Read-only recovery scan (snapshot decode + WAL replay walk) as the
/// log grows with the grid: 4 / 16 / 64 sites.
fn recover_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("recover_scan");
    for sites in [4u64, 16, 64] {
        let dir = unique_temp_dir(&format!("bench-scan-{sites}"));
        seed_store(sites, &dir);
        group.bench_with_input(BenchmarkId::from_parameter(sites), &dir, |b, dir| {
            b.iter(|| black_box(DurableStore::recover(dir).expect("recover")));
        });
        std::fs::remove_dir_all(&dir).ok();
    }
    group.finish();
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("mkdir");
    for entry in std::fs::read_dir(from).expect("read_dir") {
        let entry = entry.expect("entry");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy");
    }
}

/// The full service-stack rebuild: scan, snapshot restore, WAL
/// replay, resume, re-arm, checkpoint. Each iteration recovers from a
/// fresh copy of the seeded store (recovery advances the generation).
fn recover_full(c: &mut Criterion) {
    let template = unique_temp_dir("bench-full-template");
    seed_store(16, &template);
    let mut scratch: Vec<PathBuf> = Vec::new();
    c.bench_function("recover_from_disk/16_sites", |b| {
        b.iter_with_setup(
            || {
                let dir = unique_temp_dir("bench-full");
                copy_dir(&template, &dir);
                scratch.push(dir.clone());
                dir
            },
            |dir| {
                let config = PersistenceConfig::new(&dir).fsync(false);
                let grid = grid_of(16, None);
                black_box(
                    ServiceStack::recover_from_disk(
                        grid,
                        SteeringPolicy::default(),
                        SimDuration::from_secs(5),
                        &config,
                    )
                    .expect("recover"),
                )
            },
        );
    });
    for dir in scratch {
        std::fs::remove_dir_all(dir).ok();
    }
    std::fs::remove_dir_all(&template).ok();
}

criterion_group!(benches, wal_append, recover_scan, recover_full);
criterion_main!(benches);
