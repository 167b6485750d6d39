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
//! the history store to its packed per-row footprint and a submitted
//! job to one shared copy of each task spec.

use gae::core::steering::TaskPhase;
use gae::durable::fault::unique_temp_dir;
use gae::durable::DurableStore;
use gae::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

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

/// A `submit_persist` job (the perf ledger's `gen::chain_job`): a
/// 4-task chain, each task with three arguments and three environment
/// pairs, drawn from `j` alone.
fn chain_job(j: u64) -> JobSpec {
    let mut job = JobSpec::new(JobId::new(j), format!("analysis-{j}"), UserId::new(1));
    for i in 0..4 {
        let draw = (j * 4 + i).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20;
        let mut task = TaskSpec::new(TaskId::new(j * 10 + i + 1), format!("step-{i}"), "reco")
            .with_cpu_demand(SimDuration::from_millis(3_000 + draw % 6_000));
        task.args = vec![
            format!("--run={}", 100_000 + draw % 900_000),
            format!("--events={}", 1_000 + draw % 49_000),
            "--config=/cms/conf/reco_v7.py".to_string(),
        ];
        task.env = vec![
            ("CMS_PATH".to_string(), "/opt/cms/sw".to_string()),
            ("SCRAM_ARCH".to_string(), "slc3_ia32_gcc323".to_string()),
            ("JOB_SEED".to_string(), (draw as u32).to_string()),
        ];
        job.add_task(task);
    }
    for i in 1..4 {
        job.add_dependency(TaskId::new(j * 10 + i), TaskId::new(j * 10 + i + 1));
    }
    job
}

/// How many submitted tasks `stack` holds, after asserting that each
/// one's execution record shares its spec with steering's plan.
fn submitted_specs_shared(stack: &ServiceStack, jobs: u64) -> usize {
    let mut submitted = 0;
    for j in 1..=jobs {
        let tracked = stack.steering.tracked_job(JobId::new(j)).expect("tracked");
        for (task, t) in &tracked.tasks {
            let TaskPhase::Submitted { site, condor } = t.phase else {
                continue;
            };
            let planned = tracked.plan.job.task(*task).expect("in the plan");
            let exec = stack.grid.exec(site).expect("planned site");
            let exec = exec.lock();
            let record = exec.record(condor).expect("submitted record");
            assert!(
                Arc::ptr_eq(&record.spec, planned),
                "{task} at {site} holds its own copy of the spec"
            );
            submitted += 1;
        }
    }
    submitted
}

/// One `TaskSpec` per task (DESIGN.md §17 "Who may hold whom"): the
/// job the door decodes is the one steering's plan, every execution
/// record and a recovery re-arm point at, and a job costs the heap of
/// that one copy.
#[test]
fn a_task_spec_is_held_once() {
    const JOBS: u64 = 256;
    /// Live heap a submitted job may add: 5,536 B while the plan and
    /// every execution record held a copy of each spec, 4,811 B once
    /// they share it.
    const COPIED_PER_JOB: usize = 5_536;
    const BOUND_PER_JOB: usize = 5_200;
    let _serial = serial();
    let dir = unique_temp_dir("recovery-memory-specs");
    let config = PersistenceConfig::new(&dir).fsync(false);
    // The ledger's `submit_persist` grid: 16 sites of 8 nodes × 4 slots.
    let ledger_grid = |persist: Option<&PersistenceConfig>| {
        let mut b = GridBuilder::new();
        for s in 1..=16 {
            b = b.site(SiteDescription::new(
                SiteId::new(s),
                format!("t2-{s}"),
                8,
                4,
            ));
        }
        if let Some(config) = persist {
            b = b.persist(config.clone());
        }
        b.build()
    };

    let stack = ServiceStack::over(ledger_grid(Some(&config)));
    let before = LIVE.load(Ordering::Relaxed);
    for j in 1..=JOBS {
        let plan = AbstractPlan::new(chain_job(j));
        stack.submit_plan(&plan).expect("submit");
    }
    stack.run_until(stack.grid.now() + SimDuration::from_secs(2));
    let per_job = (LIVE.load(Ordering::Relaxed) - before) / JOBS as usize;
    println!(
        "{JOBS} submitted chain jobs hold {per_job} B of live heap each (bound {BOUND_PER_JOB} B, \
         {COPIED_PER_JOB} B when each spec was copied)"
    );
    assert_eq!(submitted_specs_shared(&stack, JOBS), JOBS as usize);
    assert!(
        per_job <= BOUND_PER_JOB,
        "a submitted job holds {per_job} B (> {BOUND_PER_JOB} B): a spec is copied again"
    );
    stack.checkpoint().expect("checkpoint");
    drop(stack);

    let (recovered, report) = ServiceStack::recover_from_disk(
        ledger_grid(None),
        SteeringPolicy::default(),
        SimDuration::from_secs(5),
        &config,
    )
    .expect("recovery");
    assert_eq!(report.resubmitted.len(), JOBS as usize);
    assert_eq!(submitted_specs_shared(&recovered, JOBS), JOBS as usize);
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
