//! Shared crash/failover test harness: randomly generated grid +
//! workload scenarios in plain data form, the canonical persisted-
//! state digest, and the reference-run machinery that makes prefix-
//! consistency checkable. Used by `tests/crash_recovery.rs`
//! (single-node recovery under corruption) and
//! `tests/repl_failover.rs` (replicated failover), each of which
//! includes this module via `#[path]`.
#![allow(dead_code)]

use gae::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// Per job: task demands in seconds and raw dependency index pairs.
pub type JobShape = (Vec<u64>, Vec<(usize, usize)>);

/// One generated grid + workload + crash point, in plain data form so
/// the same scenario can be materialised several times.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Per site: (nodes, slots per node, external load in quarters).
    pub sites: Vec<(u32, u32, u64)>,
    /// Flocking edges as site-index pairs (self-edges skipped).
    pub flock_edges: Vec<(usize, usize)>,
    /// Per job: task demands and dependency edges (applied low → high).
    pub jobs: Vec<JobShape>,
    /// run_until steps to drive before the crash (= commit points).
    pub steps: usize,
    /// Seconds of virtual time per step.
    pub step_secs: u64,
    /// Snapshot cadence in steps (1 = rotate at every checkpoint).
    pub snapshot_steps: u64,
    /// Which store file the corruption lands in (modulo file count).
    /// The failover tests reuse it as the kill-step selector.
    pub victim: u64,
    /// Corruption kind selector (0 truncate, 1 bit flip, 2 duplicate).
    pub kind: u8,
    /// Byte length / offset raw material (modulo file length).
    pub extent: u64,
    /// Bit to flip within the victim byte.
    pub bit: u8,
}

pub fn arb_scenario() -> impl Strategy<Value = Scenario> {
    let site = (1u32..4, 1u32..3, 0u64..4);
    let edge = (any::<prop::sample::Index>(), any::<prop::sample::Index>());
    let job = (
        prop::collection::vec(0u64..60, 1..6),
        prop::collection::vec(edge, 0..4),
    );
    (
        (
            prop::collection::vec(site, 1..9),
            prop::collection::vec(edge, 0..4),
            prop::collection::vec(job, 1..4),
            1usize..6,
            5u64..40,
            1u64..4,
        ),
        (0u64..1_000_000, 0u8..3, 0u64..1_000_000, 0u8..8),
    )
        .prop_map(
            |(
                (sites, raw_flocks, raw_jobs, steps, step_secs, snapshot_steps),
                (victim, kind, extent, bit),
            )| {
                let n = sites.len();
                let flock_edges = raw_flocks
                    .into_iter()
                    .map(|(a, b)| (a.index(n), b.index(n)))
                    .collect();
                let jobs = raw_jobs
                    .into_iter()
                    .map(|(demands, raw_deps)| {
                        let t = demands.len();
                        let deps = raw_deps
                            .into_iter()
                            .map(|(a, b)| (a.index(t), b.index(t)))
                            .collect();
                        (demands, deps)
                    })
                    .collect();
                Scenario {
                    sites,
                    flock_edges,
                    jobs,
                    steps,
                    step_secs,
                    snapshot_steps,
                    victim,
                    kind,
                    extent,
                    bit,
                }
            },
        )
}

pub fn build_grid(scenario: &Scenario, persist: Option<&PersistenceConfig>) -> Arc<Grid> {
    let mut builder = GridBuilder::new();
    for (i, (nodes, slots, load_quarters)) in scenario.sites.iter().enumerate() {
        let desc = SiteDescription::new(SiteId::new(i as u64 + 1), format!("s{i}"), *nodes, *slots);
        builder = if *load_quarters == 0 {
            builder.site(desc)
        } else {
            builder.site_with_load(desc, *load_quarters as f64 * 0.25)
        };
    }
    if let Some(config) = persist {
        builder = builder.persist(config.clone());
    }
    let grid = builder.build();
    for (a, b) in &scenario.flock_edges {
        if a != b {
            grid.enable_flocking(SiteId::new(*a as u64 + 1), SiteId::new(*b as u64 + 1));
        }
    }
    grid
}

pub fn submit_workload(scenario: &Scenario, stack: &ServiceStack) {
    for (j, (demands, deps)) in scenario.jobs.iter().enumerate() {
        let job_no = j as u64 + 1;
        let mut job = JobSpec::new(JobId::new(job_no), format!("job{job_no}"), UserId::new(1));
        let mut ids = Vec::new();
        for (k, demand) in demands.iter().enumerate() {
            let id = TaskId::new(job_no * 1000 + k as u64);
            job.add_task(
                TaskSpec::new(id, format!("t{job_no}-{k}"), "app")
                    .with_cpu_demand(SimDuration::from_secs(*demand)),
            );
            ids.push(id);
        }
        for (a, b) in deps {
            let (lo, hi) = (a.min(b), a.max(b));
            if lo != hi {
                job.add_dependency(ids[*lo], ids[*hi]);
            }
        }
        // Scheduling can legitimately fail; both runs see the same
        // spec, so failures are equivalence-preserving.
        let _ = stack.submit_job(job);
    }
}

/// A deterministic digest of everything the durability contract
/// promises to reconstruct: the job repository, the steering tracker (minus Condor
/// ids, which are legitimately reissued on re-arm), accounting, and
/// the columnar job history (store digest plus per-segment digests).
/// Metric *series* are snapshot-only by contract and excluded.
pub fn digest(stack: &ServiceStack) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for info in stack.jobmon.db_snapshot() {
        writeln!(out, "jobmon {info:?}").unwrap();
    }
    for job in stack.steering.export_jobs() {
        writeln!(
            out,
            "job {} rev={} notified={}",
            job.plan.job_id(),
            job.plan.revision,
            job.completion_notified
        )
        .unwrap();
        for a in &job.plan.assignments {
            writeln!(out, "  assign {} -> {}", a.task, a.site).unwrap();
        }
        let mut task_ids: Vec<_> = job.tasks.keys().copied().collect();
        task_ids.sort();
        for t in task_ids {
            let tracked = &job.tasks[&t];
            let phase = match tracked.phase {
                gae::core::steering::TaskPhase::WaitingPrereqs => "waiting".to_string(),
                gae::core::steering::TaskPhase::Submitted { site, .. } => {
                    format!("submitted@{site}")
                }
                gae::core::steering::TaskPhase::Done { site } => format!("done@{site}"),
                gae::core::steering::TaskPhase::Failed => "failed".to_string(),
                gae::core::steering::TaskPhase::Killed => "killed".to_string(),
            };
            writeln!(
                out,
                "  task {t} {phase} attempts={} moves={}",
                tracked.recovery_attempts, tracked.moves
            )
            .unwrap();
        }
    }
    for (user, balance) in stack.quota.balances_snapshot() {
        writeln!(out, "balance {user} {balance:?}").unwrap();
    }
    for c in stack.quota.ledger() {
        writeln!(out, "charge {c:?}").unwrap();
    }
    let hist = stack.hist.store();
    writeln!(out, "hist rows={} digest={}", hist.rows(), hist.digest()).unwrap();
    for (i, seg) in hist.segment_digests().iter().enumerate() {
        writeln!(out, "hist seg {i} {seg}").unwrap();
    }
    writeln!(out, "hist tail {}", hist.tail_digest()).unwrap();
    out
}

/// Reference stack (no persistence) driven to the
/// given commit point — for comparing *derived* state, like runtime
/// estimates, against a recovered or promoted stack at that commit.
pub fn reference_stack_at(scenario: &Scenario, steps: u64) -> Arc<ServiceStack> {
    let stack = ServiceStack::over(build_grid(scenario, None));
    submit_workload(scenario, &stack);
    for step in 1..=steps {
        stack.run_until(SimTime::from_secs(step * scenario.step_secs));
    }
    stack
}

/// The runtime estimate each site gives for a fixed probe task,
/// Debug-formatted with errors included — sites with no history must
/// agree on the error too. Estimates are a pure function of the
/// columnar history store, so two stacks whose digests match must
/// also agree here.
pub fn estimate_probe(stack: &ServiceStack) -> Vec<String> {
    let spec = TaskSpec::new(TaskId::new(999_999), "probe", "app")
        .with_cpu_demand(SimDuration::from_secs(30));
    stack
        .grid
        .site_ids()
        .into_iter()
        .map(|site| {
            format!(
                "{site} {:?}",
                stack.estimators.estimate_runtime(site, &spec)
            )
        })
        .collect()
}

/// Reference run (no persistence): the digest at every commit point
/// `0..=steps`.
pub fn reference_digests(scenario: &Scenario) -> Vec<String> {
    let grid = build_grid(scenario, None);
    let stack = ServiceStack::over(grid);
    // Commit 0 is the state before anything was committed: empty.
    let mut digests = vec![digest(&stack)];
    submit_workload(scenario, &stack);
    for step in 1..=scenario.steps {
        stack.run_until(SimTime::from_secs(step as u64 * scenario.step_secs));
        digests.push(digest(&stack));
    }
    digests
}

/// Runs the persisted stack to the crash horizon and drops it.
pub fn persisted_run(scenario: &Scenario, config: &PersistenceConfig) {
    let grid = build_grid(scenario, Some(config));
    let stack = ServiceStack::over(grid);
    submit_workload(scenario, &stack);
    for step in 1..=scenario.steps {
        stack.run_until(SimTime::from_secs(step as u64 * scenario.step_secs));
    }
    // Process death: the stack is dropped with no orderly shutdown.
}

/// Applies the scenario's corruption to one on-disk store file.
/// Returns a description of what was done (for failure messages).
pub fn corrupt_store(scenario: &Scenario, dir: &std::path::Path) -> String {
    use gae::durable::fault::{inject, store_files};
    use gae::durable::Corruption;

    let files = store_files(dir).expect("list store files");
    assert!(!files.is_empty(), "persisted run left no store files");
    let victim = &files[scenario.victim as usize % files.len()];
    let len = std::fs::metadata(victim)
        .map(|m| m.len() as usize)
        .unwrap_or(0)
        .max(1);
    let extent = scenario.extent as usize % len;
    let corruption = match scenario.kind {
        0 => Corruption::TruncateTail {
            bytes: extent as u64 + 1,
        },
        1 => Corruption::FlipBit {
            offset: extent as u64,
            bit: scenario.bit,
        },
        _ => Corruption::DuplicateTail {
            bytes: extent as u64 + 1,
        },
    };
    let applied = inject(victim, &corruption).expect("inject corruption");
    format!("{corruption:?} applied={applied} to {}", victim.display())
}
