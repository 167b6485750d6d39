//! The steering round's cost contract (DESIGN.md §7.1): a round probes
//! each tracked task at the one site steering tracks it at, and that
//! hint is *verified* — whatever the execution layer did behind
//! steering's back, the hinted probe answers exactly what the
//! grid-wide sweep answers. And it probes only what can have changed:
//! driven from one seed, the indexed round (parked stamps, sleeping
//! jobs, progress probes) and the full-sweep round it replaced leave
//! the same state after every poll, while the indexed one probes the
//! running tasks plus the parked ones at sites that transitioned.
//! Count- and equality-based throughout; no wall-clock assertions.

use gae::core::steering::{MoveReason, MoveRecord, TaskPhase};
use gae::durable::fault::unique_temp_dir;
use gae::prelude::*;
use gae::trace::ScenarioSpec;
use gae::types::{CondorId, TaskStatus};
use gae_bench::scenario::{apply_fault, build_grid, job_for, ScenarioOptions};
use proptest::prelude::*;
use std::sync::Arc;

/// Every `Submitted` task with the location steering tracks it at,
/// task-id-sorted.
fn tracked_locations(stack: &ServiceStack) -> Vec<(TaskId, SiteId, CondorId)> {
    let mut out: Vec<_> = stack
        .steering
        .export_jobs()
        .iter()
        .flat_map(|job| job.tasks.values())
        .filter_map(|t| match t.phase {
            TaskPhase::Submitted { site, condor } => Some((t.task, site, condor)),
            _ => None,
        })
        .collect();
    out.sort();
    out
}

/// The differential property: for every tracked task the hinted probe
/// equals the sweep. Returns how many tasks were compared.
fn hinted_probe_equals_sweep(stack: &ServiceStack) -> usize {
    let tracked = tracked_locations(stack);
    for &(task, site, condor) in &tracked {
        assert_eq!(
            stack.jobmon.job_info_at(task, site, condor),
            stack.jobmon.job_info(task),
            "{task} tracked at {site}/{condor}"
        );
    }
    tracked.len()
}

/// Advances the grid to `t` event by event, as `run_until` does
/// between polls.
fn advance(grid: &Grid, t: SimTime) {
    loop {
        let now = grid.now();
        match grid.next_event_time() {
            Some(ev) if ev <= now => grid.advance_to(now),
            Some(ev) if ev < t => grid.advance_to(ev),
            _ if now < t => grid.advance_to(t),
            _ => break,
        }
    }
}

/// Drives the chaos-grid smoke scenario (correlated site outage, link
/// flap, heal, Optimizer moves) with flocking switched on, calling
/// `check` on the state each poll is about to see and on the state it
/// leaves behind.
fn drive_chaos(seed: u64, check: impl FnMut(&ServiceStack)) -> Arc<ServiceStack> {
    drive_chaos_by(seed, ServiceStack::poll, None, check)
}

/// [`drive_chaos`] with the poll round of the caller's choice. With
/// `meddle`, every third job has its first task moved in the instant
/// it was submitted, and every fourth poll is preceded by the
/// execution layer moving the first tracked task of a live site
/// behind steering's back (its hint goes stale; the counter says how
/// often) — both picked from the state alone, so two runs of one seed
/// meddle alike.
fn drive_chaos_by(
    seed: u64,
    poll: fn(&ServiceStack),
    mut meddle: Option<&mut usize>,
    mut check: impl FnMut(&ServiceStack),
) -> Arc<ServiceStack> {
    const POLL_S: u64 = 15;
    let spec = ScenarioSpec::chaos_grid(seed).smoke();
    let grid = build_grid(&spec, &ScenarioOptions::default());
    // The loaded survivor (site 3) overflows to every other site and
    // the first two sites to each other, so husks are left at sites
    // both below and above the one a task lands on.
    for to in [1, 2, 4] {
        grid.enable_flocking(SiteId::new(3), SiteId::new(to));
    }
    grid.enable_flocking(SiteId::new(1), SiteId::new(2));
    grid.enable_flocking(SiteId::new(2), SiteId::new(1));
    let stack = ServiceStack::with_policy(
        grid,
        SteeringPolicy::default(),
        SimDuration::from_secs(POLL_S),
    );
    let other_live_site = |not: SiteId| {
        let sites = stack.grid.site_ids().into_iter();
        sites.rev().find(|s| *s != not && stack.grid.is_alive(*s))
    };

    let end = spec.horizon_s + spec.drain_s;
    let mut instants: Vec<u64> = (0..=end / POLL_S).map(|k| k * POLL_S).collect();
    instants.extend(spec.faults.iter().map(|f| f.at_s));
    instants.extend(spec.arrivals.iter().map(|a| a.at_s));
    instants.sort();
    instants.dedup();

    let (mut next_fault, mut next_arrival, mut next_task) = (0, 0, 1);
    for (step, t) in instants.into_iter().enumerate() {
        advance(&stack.grid, SimTime::from_secs(t));
        while next_fault < spec.faults.len() && spec.faults[next_fault].at_s <= t {
            apply_fault(&stack.grid, spec.faults[next_fault].kind);
            next_fault += 1;
        }
        while next_arrival < spec.arrivals.len() && spec.arrivals[next_arrival].at_s <= t {
            let (job, tasks) = job_for(&spec, next_arrival, &mut next_task);
            let owner = job.owner;
            // Unschedulable during the outage is a legitimate answer.
            let plan = stack.submit_job(job);
            if let (true, Ok(plan)) = (meddle.is_some() && next_arrival % 3 == 0, plan) {
                let target = plan.site_of(tasks[0]).and_then(other_live_site);
                let _ = stack
                    .steering
                    .command(owner, tasks[0], SteeringCommand::Move(target));
            }
            next_arrival += 1;
        }
        if let (Some(stale_hints), 3) = (meddle.as_deref_mut(), step % 4) {
            let tracked = tracked_locations(&stack);
            let live = tracked.iter().find(|(_, s, _)| stack.grid.is_alive(*s));
            if let Some(&(_, site, condor)) = live {
                let exec = stack.grid.exec(site).unwrap();
                let removed = exec.lock().remove_for_migration(condor);
                if let (Ok((spec, checkpoint)), Some(to)) = (removed, other_live_site(site)) {
                    let _ = stack.grid.submit(to, spec, checkpoint);
                    *stale_hints += 1;
                }
            }
        }
        check(&stack);
        poll(&stack);
        check(&stack);
    }
    stack
}

/// The fixed-seed run, with the evidence that it is not vacuous: tasks
/// were compared, every kind of relocation happened, and the work
/// settled.
#[test]
fn hinted_probe_equals_sweep_through_the_chaos_grid() {
    let mut compared = 0;
    let stack = drive_chaos(2005, |s| compared += hinted_probe_equals_sweep(s));
    assert!(compared > 0, "no tracked task was ever compared");
    let moves = stack.steering.move_log();
    for reason in [
        MoveReason::Recovery,
        MoveReason::Flocked,
        MoveReason::SlowProgress,
    ] {
        assert!(
            moves.iter().any(|m| m.reason == reason),
            "the scenario never exercised a {reason:?} move"
        );
    }
    let jobs = stack.steering.export_jobs();
    assert!(!jobs.is_empty());
    for job in &jobs {
        assert!(job.is_settled(), "{} never settled", job.plan.job_id());
        assert!(job.completion_notified);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(6)
    ))]

    /// Any seed: at every poll of the chaos grid, before and after,
    /// `job_info_at(tracked location) == job_info(task)`.
    #[test]
    fn hinted_probe_equals_sweep_for_any_seed(seed in 0u64..1_000_000) {
        drive_chaos(seed, |s| {
            hinted_probe_equals_sweep(s);
        });
    }
}

/// Everything a round can leave behind, in a comparable form: the
/// move log, the notifications (drained — both twins drain alike), the
/// tracker, the quota ledger and balances, and the CRC of the whole
/// canonical snapshot (metric series included).
fn round_outcome(stack: &ServiceStack) -> Vec<String> {
    let mut out = vec![
        format!("moves {:?}", stack.steering.move_log()),
        format!("notified {:?}", stack.steering.drain_notifications()),
        format!("ledger {:?}", stack.quota.ledger()),
        format!("balances {:?}", stack.quota.balances_snapshot()),
        format!("state {}", stack.query_state()),
    ];
    for job in stack.steering.export_jobs() {
        let mut tasks: Vec<_> = job.tasks.values().collect();
        tasks.sort_by_key(|t| t.task);
        out.push(format!(
            "{} rev {} notified {} {:?} {tasks:?}",
            job.plan.job_id(),
            job.plan.revision,
            job.completion_notified,
            job.plan.assignments
        ));
    }
    out
}

/// The chaos grid polled by `poll`: the outcome after every poll, and
/// the stack it ended in.
fn chaos_transcript(
    seed: u64,
    poll: fn(&ServiceStack),
    meddle: Option<&mut usize>,
) -> (Vec<Vec<String>>, Arc<ServiceStack>) {
    let mut transcript = Vec::new();
    let mut polled = false;
    let stack = drive_chaos_by(seed, poll, meddle, |s| {
        // `check` runs before and after each poll; record the afters.
        if polled {
            transcript.push(round_outcome(s));
        }
        polled = !polled;
    });
    (transcript, stack)
}

/// One seed, two twins: polled by the indexed round and by the
/// full-sweep oracle they must be indistinguishable after every poll.
/// Returns the moves made and the hints the meddling left stale.
fn indexed_round_equals_full_sweep(seed: u64, meddle: bool) -> (Vec<MoveRecord>, usize) {
    let (mut stale_hints, mut twin_hints) = (0, 0);
    let (indexed, stack) =
        chaos_transcript(seed, ServiceStack::poll, meddle.then_some(&mut stale_hints));
    let (swept, _) = chaos_transcript(
        seed,
        ServiceStack::poll_full_sweep,
        meddle.then_some(&mut twin_hints),
    );
    assert_eq!(indexed.len(), swept.len());
    for (poll, (indexed, swept)) in indexed.iter().zip(&swept).enumerate() {
        assert_eq!(indexed, swept, "seed {seed}: diverged at poll {poll}");
    }
    assert_eq!(stale_hints, twin_hints);
    (stack.steering.move_log(), stale_hints)
}

/// The fixed seed, left alone and meddled with, with the evidence
/// that the comparison had something to bite on: between them the two
/// runs made every kind of move and left hints stale.
#[test]
fn indexed_round_equals_full_sweep_through_the_chaos_grid() {
    let (mut moves, _) = indexed_round_equals_full_sweep(2005, false);
    let (meddled, stale_hints) = indexed_round_equals_full_sweep(2005, true);
    assert!(stale_hints > 0, "no hint was ever left stale");
    moves.extend(meddled);
    for reason in [
        MoveReason::Manual,
        MoveReason::Recovery,
        MoveReason::Flocked,
        MoveReason::SlowProgress,
    ] {
        assert!(
            moves.iter().any(|m| m.reason == reason),
            "the scenario never exercised a {reason:?} move"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(6)
    ))]

    /// Any seed — the odd ones meddled with.
    #[test]
    fn indexed_round_equals_full_sweep_for_any_seed(seed in 0u64..1_000_000) {
        indexed_round_equals_full_sweep(seed, seed % 2 == 1);
    }
}

/// `tasks` long single-task jobs' worth of work over `sites` free
/// sites of `slots` slots each — the shape of the `cost_floors` sweep
/// stack: what fits runs, the rest queues, nothing to move.
/// Task 1 alone is short (100 s) and first in, so it runs.
fn queued_up_stack(sites: u64, slots: u32, tasks: u64) -> Arc<ServiceStack> {
    let mut builder = GridBuilder::new();
    for s in 1..=sites {
        builder = builder.site(SiteDescription::new(
            SiteId::new(s),
            format!("s{s}"),
            slots / 2,
            2,
        ));
    }
    let stack = ServiceStack::over(builder.build());
    for j in 1..=tasks / 4 {
        let mut job = JobSpec::new(JobId::new(j), format!("j{j}"), UserId::new(1));
        for k in 0..4 {
            let task = TaskId::new((j - 1) * 4 + k + 1);
            let demand = if task == TaskId::new(1) { 100 } else { 50_000 };
            job.add_task(
                TaskSpec::new(task, format!("t{task}"), "reco")
                    .with_cpu_demand(SimDuration::from_secs(demand)),
            );
        }
        stack.submit_job(job).unwrap();
    }
    stack
}

/// The tracked tasks in `status`, as the execution layer reads them.
fn tracked_in(stack: &ServiceStack, status: TaskStatus) -> Vec<(TaskId, SiteId, CondorId)> {
    let mut tracked = tracked_locations(stack);
    tracked.retain(|(_, site, condor)| {
        stack.grid.exec(*site).unwrap().lock().status(*condor) == Ok(status)
    });
    tracked
}

/// The cost contract as counts: a round probes the running tasks, and
/// of the parked ones only those at a site that has been through a
/// transition since a round last looked.
#[test]
fn a_round_probes_running_tasks_and_parked_ones_at_transitioned_sites() {
    let stack = queued_up_stack(8, 8, 400);
    let steering = &stack.steering;
    stack.run_until(SimTime::from_secs(30));
    let running = tracked_in(&stack, TaskStatus::Running);
    let queued = tracked_in(&stack, TaskStatus::Queued);
    assert_eq!((running.len(), queued.len()), (64, 336));

    // Nothing moved since the last poll of `run_until`.
    steering.poll();
    assert_eq!(steering.last_round_probes(), 64);
    steering.poll();
    assert_eq!(steering.last_round_probes(), 64);

    // One completion, at one site: the short task finishes and a
    // queued one takes its slot.
    let site = running
        .iter()
        .find(|(t, ..)| *t == TaskId::new(1))
        .unwrap()
        .1;
    let parked_there = queued.iter().filter(|(_, s, _)| *s == site).count();
    assert!(parked_there > 0 && parked_there < queued.len() / 2);
    advance(&stack.grid, SimTime::from_secs(101));
    assert_eq!(tracked_in(&stack, TaskStatus::Completed).len(), 1);
    stack.jobmon.poll();
    steering.poll();
    assert_eq!(steering.last_round_probes(), (64 + parked_there) as u64);
    assert_eq!(tracked_in(&stack, TaskStatus::Running).len(), 64);
    steering.poll();
    assert_eq!(steering.last_round_probes(), 64);

    // An outage is a transition too: everything tracked there is
    // probed and recovered — onto sites that thereby transition, so
    // the parked tasks there are looked at once more, and then the
    // round is back to the running tasks alone.
    let other = SiteId::new(site.raw() % 8 + 1);
    let tracked_there = || {
        tracked_locations(&stack)
            .iter()
            .filter(|t| t.1 == other)
            .count()
    };
    let at_other = tracked_there();
    stack.grid.exec(other).unwrap().lock().fail_site();
    steering.poll();
    assert!(steering.last_round_probes() >= (64 - 8 + at_other) as u64);
    assert_eq!(
        tracked_there(),
        0,
        "everything at the failed site was recovered"
    );
    steering.poll();
    steering.poll();
    assert_eq!(tracked_in(&stack, TaskStatus::Running).len(), 64 - 8);
    assert_eq!(steering.last_round_probes(), 64 - 8);
}

/// The floors `cost_floors` times, as counts at its sizes: a round over
/// 8,000 tracked tasks probes the 512 that run, at 4 sites as at 256 —
/// flat in the sites, parked tasks free, and under 1/15 of the probes
/// of a round through `locate`, which looks up every tracked task.
#[test]
fn a_round_over_8000_tracked_probes_the_512_running_at_any_site_count() {
    for sites in [4, 256] {
        let stack = queued_up_stack(sites, (512 / sites) as u32, 8_000);
        stack.run_until(SimTime::from_secs(30));
        stack.steering.poll();
        assert_eq!(tracked_locations(&stack).len(), 8_000);
        assert_eq!(stack.steering.last_round_probes(), 512, "{sites} sites");
    }
}

/// A sleeping job — everything it has in flight parked — is woken by
/// a write to one of its phases, not only by its site: killed, it
/// must be told failed by the next round although no probe was due.
#[test]
fn a_command_wakes_a_sleeping_job() {
    let grid = GridBuilder::new()
        .site(SiteDescription::new(SiteId::new(1), "solo", 1, 1))
        .build();
    let stack = ServiceStack::over(grid);
    for (j, demand) in [(1, 1_000), (2, 10)] {
        let mut job = JobSpec::new(JobId::new(j), format!("j{j}"), UserId::new(1));
        job.add_task(
            TaskSpec::new(TaskId::new(j), "t", "x").with_cpu_demand(SimDuration::from_secs(demand)),
        );
        stack.submit_job(job).unwrap();
    }
    stack.run_until(SimTime::from_secs(20));
    stack.steering.poll();
    assert_eq!(
        stack.steering.last_round_probes(),
        1,
        "the queued task's job sleeps"
    );
    stack.steering.drain_notifications();

    let kill = SteeringCommand::Kill;
    stack
        .steering
        .command(UserId::new(1), TaskId::new(2), kill)
        .unwrap();
    stack.steering.poll();
    let told = stack.steering.drain_notifications();
    assert!(
        matches!(told[..], [Notification::JobFailed { job, .. }] if job == JobId::new(2)),
        "{told:?}"
    );
}

/// The round's own actions are transitions too: a recovery that lands
/// a task on a site moves that site on, and a job further down the
/// round that sleeps there is looked at in this round, not the next —
/// as the full sweep, which looks at everything, would have.
#[test]
fn a_round_wakes_the_jobs_it_disturbs_itself() {
    let stack = ServiceStack::over(two_sites());
    // Site 2 (two slots): jobs 3 and 4 run, job 2 queues and sleeps.
    // Site 1: job 1 runs, and is first in the round.
    for (j, site) in [(3, 2), (4, 2), (2, 2), (1, 1), (5, 1)] {
        let mut job = JobSpec::new(JobId::new(j), format!("j{j}"), UserId::new(1));
        job.add_task(
            TaskSpec::new(TaskId::new(j), "t", "x").with_cpu_demand(SimDuration::from_secs(5_000)),
        );
        let plan = AbstractPlan::new(job).restricted_to(vec![SiteId::new(site)]);
        stack.submit_plan(&plan).unwrap();
    }
    stack.run_until(SimTime::from_secs(20));
    stack.steering.poll();
    assert_eq!(
        tracked_in(&stack, TaskStatus::Queued),
        [(TaskId::new(2), SiteId::new(2), CondorId::new(3))]
    );
    assert_eq!(
        stack.steering.last_round_probes(),
        4,
        "jobs 1, 3, 4, 5 run; job 2 sleeps"
    );

    stack.grid.exec(SiteId::new(1)).unwrap().lock().fail_site();
    stack.steering.poll();
    let queued_at_2 = tracked_in(&stack, TaskStatus::Queued);
    assert_eq!(
        queued_at_2.len(),
        3,
        "jobs 1 and 5 recovered onto site 2's queue"
    );
    assert_eq!(
        stack.steering.last_round_probes(),
        5,
        "job 2 was woken by job 1's recovery"
    );
}

/// Copies a persistence directory (flat files and one level of
/// subdirectories are all a store has).
fn copy_dir(from: &std::path::Path, to: &std::path::Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), target).unwrap();
        }
    }
}

/// Stamps are derived state: a stack rebuilt by `recover_from_disk` —
/// from the snapshot or from the log — has none, so its first round
/// probes every task in flight, and from there on it equals a twin
/// recovered from the same bytes and polled by the full-sweep oracle.
#[test]
fn a_recovered_stack_has_no_stamps_and_equals_the_oracle() {
    for (tag, snapshot_every_s) in [
        ("steering-stamps-wal", 1_000_000),
        ("steering-stamps-snap", 20),
    ] {
        let build = |persist: Option<&PersistenceConfig>| {
            let mut builder = GridBuilder::new();
            for s in 1..=2 {
                builder = builder.site(SiteDescription::new(SiteId::new(s), format!("s{s}"), 1, 2));
            }
            match persist {
                Some(config) => builder.persist(config.clone()).build(),
                None => builder.build(),
            }
        };
        let dir = unique_temp_dir(tag);
        let config = PersistenceConfig::new(dir.join("live"))
            .snapshot_every(SimDuration::from_secs(snapshot_every_s))
            .fsync(false);
        {
            let stack = ServiceStack::over(build(Some(&config)));
            for j in 1..=10 {
                let mut job = JobSpec::new(JobId::new(j), format!("j{j}"), UserId::new(1));
                job.add_task(
                    TaskSpec::new(TaskId::new(j), format!("t{j}"), "x")
                        .with_cpu_demand(SimDuration::from_secs(40 + 15 * j)),
                );
                stack.submit_job(job).unwrap();
            }
            for t in [30, 60] {
                stack.run_until(SimTime::from_secs(t));
            }
            // The crashing stack had its parked tasks stamped.
            stack.steering.poll();
            assert_eq!(stack.steering.last_round_probes(), 4);
            assert_eq!(tracked_locations(&stack).len(), 9);
        }
        let recover = |copy: &str| {
            let config = PersistenceConfig::new(dir.join(copy)).fsync(false);
            copy_dir(&dir.join("live"), &config.dir);
            let (stack, report) = ServiceStack::recover_from_disk(
                build(None),
                SteeringPolicy::default(),
                SimDuration::from_secs(5),
                &config,
            )
            .unwrap();
            assert_eq!(report.resubmitted.len(), 9);
            stack
        };
        let (indexed, swept) = (recover("indexed"), recover("swept"));
        indexed.poll();
        swept.poll_full_sweep();
        assert_eq!(
            indexed.steering.last_round_probes(),
            9,
            "{tag}: a stamp survived"
        );
        assert_eq!(
            round_outcome(&indexed),
            round_outcome(&swept),
            "{tag}: first round"
        );
        for t in (10..=400).step_by(10) {
            advance(&indexed.grid, SimTime::from_secs(t));
            advance(&swept.grid, SimTime::from_secs(t));
            indexed.poll();
            swept.poll_full_sweep();
            assert_eq!(
                round_outcome(&indexed),
                round_outcome(&swept),
                "{tag}: at {t} s"
            );
        }
        assert!(indexed
            .steering
            .export_jobs()
            .iter()
            .all(|j| j.completion_notified));
        std::fs::remove_dir_all(&dir).ok();
    }
}

fn two_sites() -> Arc<Grid> {
    GridBuilder::new()
        .site(SiteDescription::new(SiteId::new(1), "a", 2, 1))
        .site(SiteDescription::new(SiteId::new(2), "b", 2, 1))
        .build()
}

fn one_task_job(demand_s: u64) -> JobSpec {
    let mut job = JobSpec::new(JobId::new(1), "solo", UserId::new(1));
    job.add_task(
        TaskSpec::new(TaskId::new(1), "t", "x").with_cpu_demand(SimDuration::from_secs(demand_s)),
    );
    job
}

/// The execution layer moves a task and tells nobody: steering's hint
/// names a `Migrating` husk. The probe must notice, resolve through
/// `locate`, and the job must still settle.
#[test]
fn stale_hint_still_settles_through_locate() {
    let grid = two_sites();
    let stack = ServiceStack::over(grid.clone());
    stack
        .submit_plan(&AbstractPlan::new(one_task_job(100)).restricted_to(vec![SiteId::new(1)]))
        .unwrap();
    stack.run_until(SimTime::from_secs(10));
    let (task, site, condor) = tracked_locations(&stack)[0];
    assert_eq!(site, SiteId::new(1));

    let (spec, checkpoint) = grid
        .exec(site)
        .unwrap()
        .lock()
        .remove_for_migration(condor)
        .unwrap();
    let moved = grid.submit(SiteId::new(2), spec, checkpoint).unwrap();

    // Steering was not told: it still tracks the husk.
    assert_eq!(tracked_locations(&stack), vec![(task, site, condor)]);
    let info = stack.jobmon.job_info_at(task, site, condor).unwrap();
    assert_eq!((info.site, info.condor), (SiteId::new(2), moved));
    assert_eq!(info.status, TaskStatus::Running);
    hinted_probe_equals_sweep(&stack);

    stack.run_until(SimTime::from_secs(300));
    let job = stack.steering.tracked_job(JobId::new(1)).unwrap();
    assert!(job.is_completed(), "{:?}", job.tasks);
    assert!(stack
        .steering
        .drain_notifications()
        .iter()
        .any(|n| matches!(n, Notification::JobCompleted { .. })));
}

/// Submit and move within one virtual instant: the husk at site 1 and
/// the record at site 2 carry the same `submitted_at`. Once site 2's
/// record turned terminal the sweep used to prefer the husk (earlier
/// site wins a tie) and the job never settled.
#[test]
fn same_instant_submit_then_move_settles() {
    let stack = ServiceStack::over(two_sites());
    stack
        .submit_plan(&AbstractPlan::new(one_task_job(60)).restricted_to(vec![SiteId::new(1)]))
        .unwrap();
    stack
        .steering
        .command(
            UserId::new(1),
            TaskId::new(1),
            SteeringCommand::Move(Some(SiteId::new(2))),
        )
        .unwrap();
    assert_eq!(stack.grid.now(), SimTime::ZERO);
    assert_eq!(tracked_locations(&stack)[0].1, SiteId::new(2));

    stack.run_until(SimTime::from_secs(200));
    assert!(stack
        .steering
        .tracked_job(JobId::new(1))
        .unwrap()
        .is_completed());
    // The unhinted RPC path agrees.
    let info = stack.jobmon.job_info(TaskId::new(1)).unwrap();
    assert_eq!(
        (info.status, info.site),
        (TaskStatus::Completed, SiteId::new(2))
    );
}

/// A workload that, at the crash point, holds jobs in every state the
/// live-job set must get right: settled and notified, in flight, and
/// part-way through a chain.
fn restart_workload(stack: &ServiceStack) {
    let mut next_task = 1;
    let mut job = |id: u64, demands: &[u64], chain: bool| {
        let mut job = JobSpec::new(JobId::new(id), format!("j{id}"), UserId::new(1));
        let mut previous = None;
        for demand in demands {
            let task = TaskId::new(next_task);
            next_task += 1;
            job.add_task(
                TaskSpec::new(task, format!("t{task}"), "x")
                    .with_cpu_demand(SimDuration::from_secs(*demand)),
            );
            if let (true, Some(before)) = (chain, previous) {
                job.add_dependency(before, task);
            }
            previous = Some(task);
        }
        stack.submit_job(job).unwrap();
    };
    job(1, &[10], false);
    job(2, &[20, 15], false);
    job(3, &[30, 400], true);
    job(4, &[500], false);
    job(5, &[25, 200, 600], true);
}

/// What the tracker holds, without the Condor ids a re-arm reissues.
fn tracker_summary(stack: &ServiceStack) -> Vec<String> {
    stack
        .steering
        .export_jobs()
        .iter()
        .map(|job| {
            let mut tasks: Vec<_> = job
                .tasks
                .values()
                .map(|t| {
                    let phase = match t.phase {
                        TaskPhase::Submitted { site, .. } => format!("submitted@{site}"),
                        other => format!("{other:?}"),
                    };
                    (t.task, phase)
                })
                .collect();
            tasks.sort();
            format!(
                "{} notified={} {tasks:?}",
                job.plan.job_id(),
                job.completion_notified
            )
        })
        .collect()
}

/// Polls `stack` to settlement and returns the jobs it reported
/// completed, sorted.
fn settle(stack: &ServiceStack, until_s: u64) -> Vec<JobId> {
    stack.run_until(SimTime::from_secs(until_s));
    let mut completed: Vec<JobId> = stack
        .steering
        .drain_notifications()
        .into_iter()
        .filter_map(|n| match n {
            Notification::JobCompleted { job, .. } => Some(job),
            _ => None,
        })
        .collect();
    completed.sort();
    completed
}

/// Crash at 120 s, recover, and compare with a twin that never
/// crashed: same tracker at the crash point, same jobs reported
/// completed afterwards, same tracker at the end. A job missing from
/// the rebuilt live set would never be polled again and never settle.
fn restart_rebuilds_the_live_set(tag: &str, snapshot_every_s: u64) -> RecoveryReport {
    const CRASH_S: u64 = 120;
    let build = |persist: Option<&PersistenceConfig>| {
        let mut builder = GridBuilder::new();
        for s in 1..=3 {
            builder = builder.site(SiteDescription::new(SiteId::new(s), format!("s{s}"), 2, 2));
        }
        if let Some(config) = persist {
            builder = builder.persist(config.clone());
        }
        builder.build()
    };
    let run_to_crash = |stack: &ServiceStack| {
        restart_workload(stack);
        for t in [CRASH_S / 2, CRASH_S] {
            stack.run_until(SimTime::from_secs(t));
        }
    };

    let dir = unique_temp_dir(tag);
    let config = PersistenceConfig::new(&dir)
        .snapshot_every(SimDuration::from_secs(snapshot_every_s))
        .fsync(false);
    run_to_crash(&ServiceStack::over(build(Some(&config))));
    let (recovered, report) = ServiceStack::recover_from_disk(
        build(None),
        SteeringPolicy::default(),
        SimDuration::from_secs(5),
        &config,
    )
    .unwrap();

    let online = ServiceStack::over(build(None));
    run_to_crash(&online);
    let at_crash = tracker_summary(&online);
    assert!(at_crash.iter().any(|j| j.contains("notified=true")));
    assert!(at_crash.iter().any(|j| j.contains("submitted@")));
    assert!(at_crash.iter().any(|j| j.contains("WaitingPrereqs")));
    assert_eq!(tracker_summary(&recovered), at_crash);
    online.steering.drain_notifications();

    // The recovered clock restarts at zero and re-armed tasks restart
    // from scratch; both horizons are far past the longest chain.
    let completed_online = settle(&online, CRASH_S + 2_000);
    let completed_recovered = settle(&recovered, 2_000);
    assert_eq!(completed_recovered, completed_online);
    assert_eq!(
        completed_online,
        vec![JobId::new(3), JobId::new(4), JobId::new(5)]
    );
    assert_eq!(tracker_summary(&recovered), tracker_summary(&online));
    std::fs::remove_dir_all(&dir).ok();
    report
}

#[test]
fn live_set_rebuilt_by_wal_replay_equals_online() {
    let report = restart_rebuilds_the_live_set("steering-round-wal", 1_000_000);
    assert!(report.replayed_records > 0, "{report:?}");
}

#[test]
fn live_set_rebuilt_by_snapshot_restore_equals_online() {
    let report = restart_rebuilds_the_live_set("steering-round-snap", 30);
    assert_eq!(report.replayed_records, 0, "{report:?}");
}

/// `list_active` as it was before the hinted probe: one sweep per
/// task and a quadratic dedupe.
fn list_active_by_sweep(stack: &ServiceStack) -> Vec<JobMonitoringInfo> {
    let mut out: Vec<JobMonitoringInfo> = Vec::new();
    for site in stack.grid.site_ids() {
        let tasks: Vec<TaskId> = stack
            .grid
            .exec(site)
            .unwrap()
            .lock()
            .records()
            .filter(|r| {
                matches!(
                    r.status(),
                    TaskStatus::Queued | TaskStatus::Running | TaskStatus::Suspended
                )
            })
            .map(|r| r.spec.id)
            .collect();
        for task in tasks {
            if let Ok(info) = stack.jobmon.job_info(task) {
                if !out.iter().any(|i| i.task == info.task) {
                    out.push(info);
                }
            }
        }
    }
    out.sort_by_key(|i| i.task);
    out
}

/// `job_tasks` as it was: stored ids first, live ids appended unless
/// already `contains`ed, sorted, one sweep each.
fn job_tasks_by_sweep(stack: &ServiceStack, job: JobId) -> Vec<JobMonitoringInfo> {
    let mut ids: Vec<TaskId> = stack.jobmon.db().job_task_ids(job);
    let mut live: Vec<TaskId> = Vec::new();
    for site in stack.grid.site_ids() {
        for rec in stack.grid.exec(site).unwrap().lock().records() {
            if rec.spec.job == job && !live.contains(&rec.spec.id) {
                live.push(rec.spec.id);
            }
        }
    }
    live.sort();
    for task in live {
        if !ids.contains(&task) {
            ids.push(task);
        }
    }
    ids.sort();
    ids.into_iter()
        .filter_map(|t| stack.jobmon.job_info(t).ok())
        .collect()
}

/// 64 sites with flocking rings (husks), an outage (recovery moves,
/// stored failure snapshots), kills and pauses: the monitoring read
/// path must list exactly what the sweep-per-task version listed, in
/// the same order.
#[test]
fn list_active_and_job_tasks_match_the_sweep_on_64_sites() {
    const SITES: u64 = 64;
    const JOBS: u64 = 48;
    let mut builder = GridBuilder::new();
    for s in 1..=SITES {
        let site = SiteDescription::new(SiteId::new(s), format!("s{s}"), 1, 2);
        builder = if s % 4 == 0 {
            builder.site_with_load(site, 1.0)
        } else {
            builder.site(site)
        };
    }
    let grid = builder.build();
    for s in 1..=SITES {
        grid.enable_flocking(SiteId::new(s), SiteId::new(s % SITES + 1));
    }
    let stack = ServiceStack::over(grid.clone());
    let user = UserId::new(1);
    for j in 1..=JOBS {
        let mut job = JobSpec::new(JobId::new(j), format!("j{j}"), user);
        for k in 0..6 {
            job.add_task(
                TaskSpec::new(TaskId::new(j * 100 + k), format!("t{j}-{k}"), "x")
                    .with_cpu_demand(SimDuration::from_secs(20 + (j * 7 + k * 13) % 200)),
            );
        }
        job.add_dependency(TaskId::new(j * 100), TaskId::new(j * 100 + 5));
        // Crowd a quarter of the grid so queues form and flock.
        let sites = (1..=SITES / 4).map(SiteId::new).collect();
        stack
            .submit_plan(&AbstractPlan::new(job).restricted_to(sites))
            .unwrap();
    }

    let compare = |when: &str| {
        let active = stack.jobmon.list_active();
        assert_eq!(active, list_active_by_sweep(&stack), "list_active {when}");
        for j in 1..=JOBS {
            assert_eq!(
                stack.jobmon.job_tasks(JobId::new(j)),
                job_tasks_by_sweep(&stack, JobId::new(j)),
                "job_tasks({j}) {when}"
            );
        }
        active.len()
    };

    assert!(compare("at submission") > 0);
    stack.run_until(SimTime::from_secs(30));
    assert!(stack
        .steering
        .move_log()
        .iter()
        .any(|m| m.reason == MoveReason::Flocked));
    assert!(compare("after flocking") > 0);

    for s in [2, 3] {
        grid.exec(SiteId::new(s)).unwrap().lock().fail_site();
    }
    let tracked = tracked_locations(&stack);
    for (i, (task, _, _)) in tracked.iter().enumerate().take(12) {
        let cmd = if i % 2 == 0 {
            SteeringCommand::Pause
        } else {
            SteeringCommand::Kill
        };
        let _ = stack.steering.command(user, *task, cmd);
    }
    compare("after outage, kills and pauses, before the poll");
    stack.run_until(SimTime::from_secs(90));
    assert!(compare("after recovery") > 0);
    stack.run_until(SimTime::from_secs(2_000));
    compare("after settlement");
}
