//! The recovery memory contract (DESIGN.md §8): coming back from a
//! crash must not need several times the memory of running.
//!
//! `recover_from_disk` streams — the WAL is read frame by frame and
//! each record is applied and dropped, the resume snapshot is encoded
//! section by section straight into its file — so its peak live heap
//! is the rebuilt state plus one commit batch plus one service's
//! export, not the state plus the log plus a `Value` tree plus a
//! document. And before it starts, the crashed stack must have given
//! its own heap back (DESIGN.md §17 "Who may hold whom"), or recovery
//! runs beside a ghost of the state it rebuilds. This binary installs a
//! counting allocator (test-local: an integration test is its own
//! process) and holds recovery to both — and, with the same counter,
//! the history store to its packed per-row footprint.

use gae::durable::fault::unique_temp_dir;
use gae::durable::DurableStore;
use gae::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Live heap bytes, and their high-water mark since the last reset.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The counters are process-wide, so this binary's tests run one at a
/// time.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

struct Counting;

impl Counting {
    fn grew(bytes: usize) {
        let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are plain statistics and
// never influence what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations are `System`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`
        // above with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            Self::grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const SITES: u64 = 4;
const JOBS: u64 = 240;
const TASKS_PER_JOB: u64 = 8;
/// A checkpoint (one commit batch) after every this many submits, and
/// once after a longer stretch so one batch stands out as the largest.
const JOBS_PER_COMMIT: u64 = 12;
const LONG_STRETCH: u64 = 30;

fn grid(persist: Option<&PersistenceConfig>) -> std::sync::Arc<Grid> {
    let mut b = GridBuilder::new();
    for s in 1..=SITES {
        b = b.site(SiteDescription::new(
            SiteId::new(s),
            format!("site-{s}"),
            64,
            1,
        ));
    }
    if let Some(config) = persist {
        b = b.persist(config.clone());
    }
    b.build()
}

/// A job the size of an analysis submission: independent tasks (all
/// submitted, and journaled, at once), each with an environment and
/// staged inputs, so one record is kilobytes.
fn job(j: u64) -> JobSpec {
    let mut job = JobSpec::new(
        JobId::new(j),
        format!("analysis-{j}"),
        UserId::new(j % 5 + 1),
    );
    for i in 0..TASKS_PER_JOB {
        let mut spec = TaskSpec::new(TaskId::new(j * 100 + i), format!("step-{i}"), "cmsRun")
            .with_cpu_demand(SimDuration::from_secs(3_600 + 60 * i))
            .with_inputs(
                (0..4)
                    .map(|f| {
                        FileRef::new(format!("/store/run-{j}/raw-{i}-{f}.root"), 200_000_000)
                            .with_replicas(vec![SiteId::new(f % SITES + 1)])
                    })
                    .collect(),
            );
        spec.env = (0..6)
            .map(|v| {
                (
                    format!("ANALYSIS_PARAM_{v}"),
                    format!("value-{v}-of-task-{i}-of-job-{j}-{}", "x".repeat(40)),
                )
            })
            .collect();
        job.add_task(spec);
    }
    job
}

#[test]
fn recovery_peak_heap_is_the_rebuilt_state_plus_one_batch() {
    let _serial = serial();
    let dir = unique_temp_dir("recovery-memory");
    // No rotation: like a long-lived server between snapshots, the
    // whole history is in the log.
    let config = PersistenceConfig::new(&dir)
        .fsync(false)
        .snapshot_every(SimDuration::from_secs(1 << 40));

    let stack = ServiceStack::over(grid(Some(&config)));
    let persistence = stack.persistence().expect("persisted stack");
    let mut largest_batch = 0;
    let mut committed = 0;
    for j in 1..=JOBS {
        stack.submit_job(job(j)).expect("submit");
        if j % JOBS_PER_COMMIT == 0 && !(JOBS / 2..JOBS / 2 + LONG_STRETCH).contains(&j) {
            stack.checkpoint().expect("checkpoint");
            let appended = persistence.stats().records_appended;
            largest_batch = largest_batch.max(appended - committed);
            committed = appended;
        }
    }
    assert!(committed >= 2_000, "only {committed} records in the store");
    let log_bytes = persistence.stats().wal_bytes as usize;
    drop(persistence);
    drop(stack);

    // The scanner holds back exactly one commit batch: the most
    // records it ever had undelivered is the largest batch written.
    let mut delivered = 0u64;
    let scanned = DurableStore::replay(
        &dir,
        |snapshot| {
            assert!(snapshot.is_empty(), "generation 0 anchors the empty state");
            Ok(())
        },
        |_, _| {
            delivered += 1;
            Ok(())
        },
    )
    .expect("intact store");
    assert_eq!(delivered, committed);
    assert_eq!(scanned.max_batch_records as u64, largest_batch);
    assert!(
        largest_batch * 4 < committed,
        "the largest batch ({largest_batch}) is not small beside the log ({committed})"
    );

    let fresh = grid(None);
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let (recovered, report) = ServiceStack::recover_from_disk(
        fresh,
        SteeringPolicy::default(),
        SimDuration::from_secs(5),
        &config,
    )
    .expect("recovery");
    let after = LIVE.load(Ordering::Relaxed);
    let peak = PEAK.load(Ordering::Relaxed);
    assert_eq!(report.replayed_records as u64, committed);

    // Heap recovery added, at its worst and when it returned.
    let (peak, kept) = (peak - before, after - before);
    println!(
        "recovery of {committed} records ({log_bytes} log bytes, largest batch {largest_batch}): \
         peak +{peak} B, kept +{kept} B, ratio {:.2}",
        peak as f64 / kept as f64
    );
    assert!(
        kept > log_bytes / 8,
        "the rebuilt state ({kept} B) is too small beside the log ({log_bytes} B) to measure against"
    );
    assert!(
        peak * 2 <= kept * 3,
        "recovery peaked at {peak} B over a rebuilt state of {kept} B (> 1.5×): something holds \
         the log, the whole-state image or the snapshot document again"
    );
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_crashed_stack_returns_its_heap_before_recovery() {
    let _serial = serial();
    let dir = unique_temp_dir("recovery-memory-crashed");
    let config = PersistenceConfig::new(&dir).fsync(false);
    let repl = dir.join("repl");

    let before = LIVE.load(Ordering::Relaxed);
    {
        let stack = ServiceStack::over(grid(Some(&config)));
        let followers = ReplicatedLog::attached(
            &repl,
            ReplConfig {
                followers: 2,
                fsync: false,
            },
            |_| MirrorMachine::new(),
        )
        .expect("follower cluster");
        stack
            .attach_replication(followers)
            .expect("replication attach");
        for j in 1..=JOBS / 4 {
            stack.submit_job(job(j)).expect("submit");
        }
        stack.run_until(SimTime::from_secs(600));
    }
    // The process "crashed" here: what the stack built must be gone.
    let held = LIVE.load(Ordering::Relaxed) as i64 - before as i64;
    println!("a dropped stack with two followers left {held} B live");
    assert!(
        held < 64 << 10,
        "the crashed stack still holds {held} B: something it owns holds it back"
    );

    let (recovered, report) = ServiceStack::recover_from_disk(
        grid(None),
        SteeringPolicy::default(),
        SimDuration::from_secs(5),
        &config,
    )
    .expect("recovery");
    assert!(report.commit_index > 0, "the crashed stack committed");
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();
}

/// The history store's footprint (DESIGN.md §14 "Layout"): a sealed
/// segment packs each column at its zone minimum, so a row shaped like
/// the perf ledger's — 4 sites, 4 logins, 8 node counts, monotone
/// timestamps, five constant string columns — costs at most 32 B of
/// live heap, not the 96 B of nine `u64` and six `u32` buffers.
#[test]
fn a_sealed_history_row_costs_at_most_32_bytes() {
    use gae::hist::{HistConfig, HistOp, HistRecord, HistStore};
    const ROWS: u64 = 65_536;
    let _serial = serial();
    let logins = ["amy", "bob", "cal", "dee"];
    let before = LIVE.load(Ordering::Relaxed);
    let store = HistStore::new(HistConfig::default());
    for t in 0..ROWS {
        let mix = t.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        let nodes = 1 + mix % 8;
        let runtime_us = nodes * 1_000_000 + mix % 900_000_000;
        store.apply(&HistOp::Append(HistRecord {
            task: t,
            site: 1 + (mix >> 3) % 4,
            nodes,
            submit_us: t * 1_000,
            start_us: t * 1_000 + 40,
            finish_us: t * 1_000 + 40 + runtime_us,
            runtime_us,
            success: (mix >> 5) % 10 != 0,
            account: "cms".into(),
            login: logins[((mix >> 7) % 4) as usize].into(),
            executable: "reco".into(),
            queue: "prod".into(),
            partition: "compute".into(),
            job_type: "batch".into(),
        }));
    }
    assert_eq!(store.tail_rows(), 0, "every row is in a sealed segment");
    let held = LIVE.load(Ordering::Relaxed) - before;
    let per_row = held as f64 / ROWS as f64;
    println!("{ROWS} sealed history rows hold {held} B: {per_row:.1} B a row");
    assert!(
        per_row <= 32.0,
        "a sealed history row costs {per_row:.1} B of heap (> 32 B): segments are not packed"
    );
    drop(store);
}
