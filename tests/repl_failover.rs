//! Replicated failover, property-tested (DESIGN.md §13).
//!
//! Each case runs the same randomly generated workload twice: an
//! unreplicated reference stack that records a digest of all
//! persisted state at every commit point, and a replicated leader —
//! the persisted stack with its WAL mirrored into two in-process
//! followers — that is killed after a random number of commits. A
//! deterministic election promotes a follower; ordinary single-node
//! recovery of the promoted follower's store must land *exactly* on
//! the reference digest at the recovered commit index (the failover
//! continuation is a prefix-consistent extension of the dead leader's
//! schedule, never a divergent one), and every re-armed task must be
//! back in the Submitted phase.

use gae::durable::fault::unique_temp_dir;
use gae::prelude::*;
use proptest::prelude::*;

#[path = "harness/mod.rs"]
mod harness;
use harness::{
    arb_scenario, build_grid, digest, estimate_probe, reference_digests, reference_stack_at,
    submit_workload, Scenario,
};

/// Runs the replicated leader for `kill_after` commit points, kills
/// it, and returns the election result.
fn replicated_run(scenario: &Scenario, dir: &std::path::Path, kill_after: usize) -> Promotion {
    let config = PersistenceConfig::new(dir.join("leader"))
        .snapshot_every(SimDuration::from_secs(
            scenario.snapshot_steps * scenario.step_secs,
        ))
        .fsync(false);
    let grid = build_grid(scenario, Some(&config));
    let stack = ServiceStack::over(grid);
    let cluster = ReplicatedLog::attached(
        &dir.join("repl"),
        ReplConfig {
            followers: 2,
            fsync: false,
        },
    )
    .expect("follower cluster");
    stack
        .attach_replication(cluster.clone())
        .expect("replication attach");
    submit_workload(scenario, &stack);
    for step in 1..=kill_after {
        stack.run_until(SimTime::from_secs(step as u64 * scenario.step_secs));
    }
    // Leader death: no orderly shutdown, then the election.
    drop(stack);
    cluster.fail_leader().expect("election")
}

proptest! {
    // 128 cases in CI (the replication job sets PROPTEST_CASES).
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(32)
    ))]

    #[test]
    fn failover_is_prefix_consistent_with_uncrashed_run(scenario in arb_scenario()) {
        let dir = unique_temp_dir("repl-failover");
        let digests = reference_digests(&scenario);
        // Kill the leader at a random commit point in [1, steps].
        let kill_after = 1 + scenario.victim as usize % scenario.steps;
        let promotion = replicated_run(&scenario, &dir, kill_after);

        // Ordinary single-node recovery against the promoted
        // follower's store — exactly what the scenario runner does.
        let config = PersistenceConfig::new(&promotion.dir).fsync(false);
        let (stack, report) = ServiceStack::recover_from_disk(
            build_grid(&scenario, None),
            SteeringPolicy::default(),
            SimDuration::from_secs(5),
            &config,
        )
        .unwrap_or_else(|e| panic!("promoted-follower recovery failed: {e}"));

        // Synchronous streaming keeps live followers in lockstep, so
        // the promoted node recovered the leader's full history.
        prop_assert_eq!(
            report.commit_index,
            promotion.commit_index,
            "store commit diverged from the follower's ack index"
        );
        let j = report.commit_index as usize;
        prop_assert!(
            j < digests.len(),
            "recovered commit index {} beyond {} reference commits",
            j,
            digests.len() - 1
        );
        prop_assert_eq!(
            digest(&stack),
            digests[j].clone(),
            "failover diverged at commit {} (killed after {} steps, {}) scenario={:?}",
            j,
            kill_after,
            promotion.node,
            scenario
        );
        // The promoted follower's history store is byte-identical to
        // the reference (checked via the segment digests in `digest`),
        // so the estimates it derives must be identical too.
        let reference = reference_stack_at(&scenario, j as u64);
        prop_assert_eq!(
            estimate_probe(&stack),
            estimate_probe(&reference),
            "promoted follower produced different estimates at commit {}",
            j
        );
        // Every resubmitted task must have been re-armed into the
        // Submitted phase of the recovered tracker, exactly once.
        let mut seen = std::collections::BTreeSet::new();
        for t in &report.resubmitted {
            prop_assert!(seen.insert(*t), "{} re-armed twice", t);
            let job = stack.steering.export_jobs()
                .into_iter()
                .find(|jb| jb.tasks.contains_key(t))
                .expect("resubmitted task is tracked");
            prop_assert!(matches!(
                job.tasks[t].phase,
                gae::core::steering::TaskPhase::Submitted { .. }
            ));
        }
        // The continuation is live: drive the promoted stack onward
        // and every tracked task settles.
        stack.run_until(SimTime::from_secs(
            (scenario.steps as u64 + 20) * scenario.step_secs.max(30),
        ));
        for job in &stack.steering.export_jobs() {
            for (t, tracked) in &job.tasks {
                prop_assert!(
                    tracked.phase.is_settled(),
                    "{} did not settle after failover: {:?}",
                    t,
                    tracked.phase
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
