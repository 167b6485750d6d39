//! Crash-injection recovery, property-tested (DESIGN.md §8).
//!
//! Each case runs the same randomly generated workload twice: a
//! reference stack that records a digest of all persisted state at
//! every commit point, and a persisted stack that writes a WAL and
//! snapshots while running. The persisted stack is then "killed"
//! (dropped mid-history), its on-disk store is corrupted at a random
//! point — torn tail, flipped bit, or duplicated tail — and a fresh
//! stack is rebuilt with `recover_from_disk`. Recovery must always
//! succeed, and the rebuilt state must be *prefix-consistent*: exactly
//! equal to the reference digest at the reported commit index.

use gae::durable::fault::unique_temp_dir;
use gae::prelude::*;
use proptest::prelude::*;

#[path = "harness/mod.rs"]
mod harness;
use harness::{
    arb_scenario, build_grid, corrupt_store, digest, estimate_probe, persisted_run,
    reference_digests, reference_stack_at, Scenario,
};

proptest! {
    // 128 cases by default (CI raises this via PROPTEST_CASES).
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn recovery_is_prefix_consistent_with_uncrashed_run(scenario in arb_scenario()) {
        let dir = unique_temp_dir("crash-recovery");
        let config = PersistenceConfig::new(&dir)
            .snapshot_every(SimDuration::from_secs(
                scenario.snapshot_steps * scenario.step_secs,
            ))
            .fsync(false);
        let digests = reference_digests(&scenario);
        persisted_run(&scenario, &config);
        let what = corrupt_store(&scenario, &dir);

        // Recovery must always succeed under a single fault.
        let grid = build_grid(&scenario, None);
        let (stack, report) = ServiceStack::recover_from_disk(
            grid,
            SteeringPolicy::default(),
            SimDuration::from_secs(5),
            &config,
        )
        .unwrap_or_else(|e| panic!("recovery failed after {what}: {e}"));

        let j = report.commit_index as usize;
        prop_assert!(
            j < digests.len(),
            "recovered commit index {j} beyond {} reference commits ({what})",
            digests.len() - 1
        );
        prop_assert_eq!(
            digest(&stack),
            digests[j].clone(),
            "state diverged at commit {} ({}) scenario={:?}",
            j,
            what,
            scenario
        );
        // Every resubmitted task must have been in the Submitted phase
        // of the recovered tracker.
        for t in &report.resubmitted {
            let job = stack.steering.export_jobs()
                .into_iter()
                .find(|jb| jb.tasks.contains_key(t))
                .expect("resubmitted task is tracked");
            prop_assert!(matches!(
                job.tasks[t].phase,
                gae::core::steering::TaskPhase::Submitted { .. }
            ));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Crash recovery under *scenario* load (DESIGN.md §12): instead of
/// the uniform proptest workload, the submissions follow the chaos-
/// grid scenario's non-uniform arrival pattern — heavy-tailed task
/// demands at bursty instants, staggered across step boundaries. The
/// persisted run crashes at the scenario's own crash tick; recovery
/// must land exactly on the reference run's digest at that commit
/// point and then drive the remaining work to settlement.
#[test]
fn recovery_is_prefix_consistent_under_scenario_load() {
    use gae::trace::ScenarioSpec;

    let spec = ScenarioSpec::chaos_grid(7).smoke();
    let crash_at = spec.crash_at_s.expect("chaos grid declares a crash tick");

    // One commit point (run_until) per 60 s boundary; the crash tick
    // itself is always a boundary so the persisted run dies exactly
    // on a commit the reference also recorded.
    let step = 60u64;
    let mut boundaries: Vec<u64> = (1..)
        .map(|k| k * step)
        .take_while(|t| *t < crash_at)
        .collect();
    boundaries.push(crash_at);

    let build = |persist: Option<&PersistenceConfig>| {
        let mut builder = GridBuilder::new();
        for (i, site) in spec.sites.iter().enumerate() {
            let desc = SiteDescription::new(
                SiteId::new(i as u64 + 1),
                format!("s{i}"),
                site.nodes,
                site.slots,
            );
            builder = if site.load > 0.0 {
                builder.site_with_load(desc, site.load)
            } else {
                builder.site(desc)
            };
        }
        if let Some(config) = persist {
            builder = builder.persist(config.clone());
        }
        builder.build()
    };

    // Submit every arrival with `at_s` in [from, to) — plain compute
    // jobs shaped by the scenario's heavy-tailed demands. Both runs
    // see the identical sequence, so scheduling refusals (if any) are
    // equivalence-preserving.
    let submit_window = |stack: &ServiceStack, from: u64, to: u64| {
        for (n, arrival) in spec.arrivals.iter().enumerate() {
            if arrival.at_s < from || arrival.at_s >= to {
                continue;
            }
            let job_no = n as u64 + 1;
            let mut job = JobSpec::new(
                JobId::new(job_no),
                format!("chaos{job_no}"),
                UserId::new(arrival.vo as u64),
            );
            let mut prev = None;
            for (k, shape) in arrival.tasks.iter().enumerate() {
                let id = TaskId::new(job_no * 1000 + k as u64);
                job.add_task(
                    TaskSpec::new(id, format!("c{job_no}-{k}"), "analysis")
                        .with_cpu_demand(SimDuration::from_secs(shape.demand_s)),
                );
                if let Some(p) = prev {
                    job.add_dependency(p, id);
                }
                prev = Some(id);
            }
            let _ = stack.submit_job(job);
        }
    };

    // Reference: no persistence, digest at every commit.
    let reference = {
        let stack = ServiceStack::over(build(None));
        let mut digests = vec![digest(&stack)];
        let mut from = 0;
        for &t in &boundaries {
            submit_window(&stack, from, t);
            stack.run_until(SimTime::from_secs(t));
            digests.push(digest(&stack));
            from = t;
        }
        digests
    };

    // Persisted run, killed right after the crash-tick commit
    // (dropped before any further submission).
    let dir = unique_temp_dir("crash-scenario-load");
    let config = PersistenceConfig::new(&dir)
        .snapshot_every(SimDuration::from_secs(3 * step))
        .fsync(false);
    {
        let stack = ServiceStack::over(build(Some(&config)));
        let mut from = 0;
        for &t in &boundaries {
            submit_window(&stack, from, t);
            stack.run_until(SimTime::from_secs(t));
            from = t;
        }
    }

    let (stack, report) = ServiceStack::recover_from_disk(
        build(None),
        SteeringPolicy::default(),
        SimDuration::from_secs(5),
        &config,
    )
    .expect("uncorrupted recovery under scenario load");
    let j = report.commit_index as usize;
    assert_eq!(j, boundaries.len(), "recovered the full commit history");
    assert_eq!(
        digest(&stack),
        reference[j],
        "scenario-load recovery diverged from the reference at commit {j}"
    );

    // The continuation is live: submit the post-crash tail of the
    // scenario (virtual time restarts at zero after recovery, so the
    // remaining arrivals are re-anchored there) and settle everything.
    submit_window(&stack, crash_at, u64::MAX);
    stack.run_until(SimTime::from_secs(spec.drain_s));
    for job in &stack.steering.export_jobs() {
        for (t, tracked) in &job.tasks {
            assert!(
                tracked.phase.is_settled(),
                "{t} did not settle after scenario-load recovery: {:?}",
                tracked.phase
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// After recovery the stack is live: driving it onwards settles every
/// recovered task exactly once (no duplicate submissions, no losses).
#[test]
fn recovered_stack_runs_to_completion() {
    let dir = unique_temp_dir("crash-continue");
    let config = PersistenceConfig::new(&dir)
        .snapshot_every(SimDuration::from_secs(30))
        .fsync(false);
    let scenario = Scenario {
        sites: vec![(2, 2, 0), (1, 1, 2), (2, 1, 0)],
        flock_edges: vec![],
        jobs: vec![
            (vec![40, 25, 30], vec![(0, 1), (1, 2)]),
            (vec![15, 0], vec![]),
        ],
        steps: 3,
        step_secs: 20,
        snapshot_steps: 1,
        victim: 0,
        kind: 0,
        extent: 0,
        bit: 0,
    };
    persisted_run(&scenario, &config);

    let grid = build_grid(&scenario, None);
    let (stack, report) = ServiceStack::recover_from_disk(
        grid,
        SteeringPolicy::default(),
        SimDuration::from_secs(5),
        &config,
    )
    .expect("uncorrupted recovery");
    assert_eq!(report.commit_index, 3, "three run_until commit points");
    assert!(!report.tail_was_torn);
    assert!(!report.used_fallback);

    // The recovered columnar history drives the same estimates as the
    // uncrashed reference at the same commit point — segment digests
    // match (via `digest`), and so do the estimates derived from them.
    let reference = reference_stack_at(&scenario, 3);
    assert_eq!(digest(&stack), digest(&reference));
    assert_eq!(
        estimate_probe(&stack),
        estimate_probe(&reference),
        "recovered history store produced different estimates"
    );

    // Finish the work: every tracked task must settle.
    stack.run_until(SimTime::from_secs(400));
    let jobs = stack.steering.export_jobs();
    assert!(!jobs.is_empty(), "recovered tracker lost the jobs");
    for job in &jobs {
        for (t, tracked) in &job.tasks {
            assert!(
                tracked.phase.is_settled(),
                "{t} did not settle after recovery: {:?}",
                tracked.phase
            );
        }
    }
    // Exactly-once accounting: one completion charge per task, spread
    // over the pre-crash ledger (restored) and the post-crash run.
    let total_tasks: usize = jobs.iter().map(|j| j.tasks.len()).sum();
    assert!(stack.quota.ledger().len() <= total_tasks);
    std::fs::remove_dir_all(&dir).ok();
}
