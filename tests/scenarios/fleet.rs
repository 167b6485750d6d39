//! The fleet itself: every named scenario end to end, invariants
//! asserted; run-to-run determinism under scenario load;
//! the chaos-grid adaptive-loop payoff.

use crate::maybe_smoke;
use gae::durable::fault::unique_temp_dir;
use gae::trace::ScenarioSpec;
use gae_bench::scenario::{run_scenario, ScenarioOptions};
use proptest::prelude::*;

/// The fleet seed: every deterministic scenario artifact in this file
/// derives from it.
const SEED: u64 = 2005;

/// Each named scenario runs end to end through gate, scheduler,
/// xfer, steering and (for chaos) recovery — and must keep every
/// invariant it declares.
#[test]
fn every_named_scenario_keeps_its_invariants() {
    for spec in ScenarioSpec::all(SEED) {
        let spec = maybe_smoke(spec);
        let report = run_scenario(&spec, &ScenarioOptions::default());
        assert!(
            report.invariant_failures.is_empty(),
            "{}: {:?}",
            spec.name,
            report.invariant_failures
        );
        assert!(report.submitted > 0, "{}: no jobs admitted", spec.name);
        assert!(report.completed > 0, "{}: nothing completed", spec.name);
        assert_eq!(
            report.submitted + report.shed,
            report.offered,
            "{}: arrivals neither admitted nor shed",
            spec.name
        );
    }
}

/// The flash crowd must actually stress the front door: the gate
/// sheds some of the burst while baseline traffic still gets through.
#[test]
fn flash_crowd_sheds_under_burst_but_serves_baseline() {
    let spec = ScenarioSpec::flash_crowd(SEED);
    let report = run_scenario(&spec, &ScenarioOptions::default());
    assert!(
        report.shed > 0,
        "a 12x flash crowd should overflow the admission gate"
    );
    assert!(
        report.submitted > report.shed,
        "shedding ({}) must not drown service ({})",
        report.shed,
        report.submitted
    );
}

/// Chaos grid with the durability path armed: the scenario's own
/// crash tick drops the stack mid-run, recovery re-arms exactly once
/// (the ExactlyOnceRearm invariant), and the continuation settles
/// every admitted job.
#[test]
fn chaos_grid_crash_recovers_exactly_once() {
    let dir = unique_temp_dir("scenario-fleet-chaos");
    let spec = maybe_smoke(ScenarioSpec::chaos_grid(SEED));
    assert!(
        spec.crash_at_s.is_some(),
        "chaos grid declares a crash tick"
    );
    let report = run_scenario(
        &spec,
        &ScenarioOptions {
            crash: true,
            persist_dir: Some(dir.clone()),
            ..ScenarioOptions::default()
        },
    );
    assert!(
        report.invariant_failures.is_empty(),
        "{:?}",
        report.invariant_failures
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Leader loss with replication armed: the scenario's `LeaderLoss`
/// fault kills the leader mid-schedule, a follower is promoted by
/// deterministic election, and the run continues prefix-consistently
/// (the PrefixConsistentFailover invariant compares the promoted
/// follower's recovery against the dead leader's own) while re-arming
/// in-flight tasks exactly once.
#[test]
fn leader_loss_fails_over_prefix_consistently() {
    let dir = unique_temp_dir("scenario-fleet-leader-loss");
    let spec = maybe_smoke(ScenarioSpec::leader_loss(SEED));
    let report = run_scenario(
        &spec,
        &ScenarioOptions {
            replication: 2,
            persist_dir: Some(dir.clone()),
            ..ScenarioOptions::default()
        },
    );
    assert!(
        report.invariant_failures.is_empty(),
        "{:?}",
        report.invariant_failures
    );
    assert!(report.submitted > 0, "no jobs admitted");
    assert!(report.completed > 0, "nothing completed");
    std::fs::remove_dir_all(&dir).ok();
}

/// Determinism must survive a failover: running the leader-loss
/// scenario twice (replication on for each, separate stores, fresh
/// `Grid` and `HashMap` seeds) yields byte-identical end-state digests.
#[test]
fn leader_loss_is_deterministic_run_to_run() {
    let spec = maybe_smoke(ScenarioSpec::leader_loss(SEED));
    let run = |tag: &str| {
        let dir = unique_temp_dir(&format!("scenario-fleet-ll-{tag}"));
        let report = run_scenario(
            &spec,
            &ScenarioOptions {
                replication: 2,
                persist_dir: Some(dir.clone()),
                ..ScenarioOptions::default()
            },
        );
        std::fs::remove_dir_all(&dir).ok();
        report
    };
    assert_eq!(
        run("first").digest,
        run("second").digest,
        "two runs diverged across the failover"
    );
}

/// The adaptive loop pays: with the xfer-aware Optimizer migrating
/// work off the loaded survivor after the heal, the chaos grid
/// finishes sooner than with migration off. (The EXPERIMENTS.md
/// numbers come from `cargo run -p gae-bench --bin scenario --
/// chaos-grid --compare`.)
#[test]
fn chaos_grid_migration_beats_migration_off() {
    let spec = ScenarioSpec::chaos_grid(SEED);
    let on = run_scenario(&spec, &ScenarioOptions::default());
    let off = run_scenario(
        &spec,
        &ScenarioOptions {
            migration: false,
            ..ScenarioOptions::default()
        },
    );
    assert!(
        on.invariant_failures.is_empty(),
        "{:?}",
        on.invariant_failures
    );
    assert!(
        on.makespan_s < off.makespan_s,
        "migration-on makespan {:.0} s must beat migration-off {:.0} s",
        on.makespan_s,
        off.makespan_s
    );
    assert!(
        on.moves > off.moves,
        "the Optimizer must actually move work ({} vs {} moves)",
        on.moves,
        off.moves
    );
}

proptest! {
    // The determinism contract under adversarial load: for any seed
    // and any named scenario (reduced horizon), two runs in fresh state
    // (new `Grid`, new `HashMap` seeds) must produce byte-identical run
    // digests — task terminal states, placements, instants, gate and
    // xfer counters.
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(4)
    ))]

    #[test]
    fn scenario_schedules_are_deterministic_run_to_run(
        seed in 0u64..1_000_000,
        which in 0usize..5,
    ) {
        let spec = ScenarioSpec::all(seed).swap_remove(which).smoke();
        let first = run_scenario(&spec, &ScenarioOptions::default());
        let second = run_scenario(&spec, &ScenarioOptions::default());
        prop_assert_eq!(
            first.digest,
            second.digest,
            "two runs diverged on {} (seed {})",
            spec.name,
            seed
        );
    }
}
