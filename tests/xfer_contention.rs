//! The managed transfer plane, end to end (DESIGN.md §11).
//!
//! The paper's data grid moves "large amounts of data ... replicated
//! to several geographically distributed sites" (§2) over shared
//! wide-area links. These tests pin the data-plane contract: per-link
//! fair-share bandwidth (two equal transfers on one link each take
//! ~2x their solo time), bounded retry with exponential backoff
//! against injected link faults, LRU eviction under per-site storage
//! budgets with pin-while-referenced protection, the delete-race fix
//! (an in-flight transfer never materializes data from a deleted
//! source), staging that keeps tasks `Pending` until the *contended*
//! completion, run-to-run schedule determinism, and
//! crash-recovery that re-arms in-flight transfers exactly once.

use gae::core::replica::ReplicaCatalog;
use gae::core::Grid;
use gae::durable::fault::unique_temp_dir;
use gae::prelude::*;
use gae::sim::{Link, NetworkModel};
use proptest::prelude::*;
use std::sync::Arc;

fn s(n: u64) -> SiteId {
    SiteId::new(n)
}

/// Three sites joined by 1 MB/s zero-latency links.
fn lan(config: XferConfig) -> Arc<Grid> {
    let net = NetworkModel::new(Link::new(1e6, SimDuration::ZERO));
    GridBuilder::new()
        .site(SiteDescription::new(s(1), "a", 1, 1))
        .site(SiteDescription::new(s(2), "b", 1, 1))
        .site(SiteDescription::new(s(3), "c", 1, 1))
        .network(net)
        .xfer(config)
        .build()
}

fn mb(n: u64) -> u64 {
    n * 1_000_000
}

// ---- fair-share bandwidth ----

#[test]
fn two_equal_transfers_each_take_twice_solo() {
    let g = lan(XferConfig::with_defaults());
    let catalog = ReplicaCatalog::new(g.clone());
    catalog.register(FileRef::new("lfn:/solo", mb(10)).with_replicas(vec![s(1)]));
    // Solo baseline: 10 MB at 1 MB/s = 10 s exactly.
    let solo = catalog.replicate("lfn:/solo", s(2)).unwrap();
    assert_eq!(solo, SimTime::from_secs(10));
    g.advance_to(SimTime::from_secs(10));
    assert_eq!(catalog.poll(), 1);

    // Two equal transfers sharing the same directed link: each gets
    // half the capacity, so each takes ~2x its solo time.
    let g = lan(XferConfig::with_defaults());
    let catalog = ReplicaCatalog::new(g.clone());
    catalog.register(FileRef::new("lfn:/f1", mb(10)).with_replicas(vec![s(1)]));
    catalog.register(FileRef::new("lfn:/f2", mb(10)).with_replicas(vec![s(1)]));
    catalog.replicate("lfn:/f1", s(2)).unwrap();
    let second = catalog.replicate("lfn:/f2", s(2)).unwrap();
    assert_eq!(second, SimTime::from_secs(20), "halved bandwidth");
    for r in catalog.in_flight() {
        assert_eq!(r.arrives, SimTime::from_secs(20), "{}", r.lfn);
    }
    g.advance_to(SimTime::from_micros(19_999_999));
    assert_eq!(catalog.poll(), 0, "neither done before 20 s");
    g.advance_to(SimTime::from_secs(20));
    assert_eq!(catalog.poll(), 2, "both land together at 20 s");
}

#[test]
fn bandwidth_reintegrates_when_load_changes() {
    let g = lan(XferConfig::with_defaults());
    let catalog = ReplicaCatalog::new(g.clone());
    catalog.register(FileRef::new("lfn:/f1", mb(10)).with_replicas(vec![s(1)]));
    catalog.register(FileRef::new("lfn:/f2", mb(10)).with_replicas(vec![s(1)]));
    // f1 runs solo for 4 s (4 MB drained), then f2 joins: f1's
    // remaining 6 MB drains at 0.5 MB/s -> lands at 4 + 12 = 16 s.
    // f2 drains 6 MB by then, finishes its last 4 MB solo -> 20 s.
    catalog.replicate("lfn:/f1", s(2)).unwrap();
    g.advance_to(SimTime::from_secs(4));
    catalog.replicate("lfn:/f2", s(2)).unwrap();
    g.advance_to(SimTime::from_secs(30));
    let hist = catalog.transfer_history();
    assert_eq!(hist.len(), 2);
    assert_eq!(hist[0].lfn, "lfn:/f1");
    assert_eq!(hist[0].arrives, SimTime::from_secs(16));
    assert_eq!(hist[1].lfn, "lfn:/f2");
    assert_eq!(hist[1].arrives, SimTime::from_secs(20));
}

// ---- retry and backoff against link faults ----

#[test]
fn dead_link_backs_off_then_retries_after_heal() {
    let g = lan(XferConfig::with_defaults());
    let catalog = ReplicaCatalog::new(g.clone());
    catalog.register(FileRef::new("lfn:/r", mb(1)).with_replicas(vec![s(1)]));
    g.with_xfer(|x| x.fail_link(s(1), s(2)));
    // First attempt hits the dead link and enters a 5 s backoff.
    catalog.replicate("lfn:/r", s(2)).unwrap();
    assert_eq!(g.xfer_metrics().waiting, 1);
    assert_eq!(g.with_xfer(|x| x.counters().retried), 1);
    // Estimator sees the fault as a typed unreachable error.
    g.with_xfer(|x| assert!(x.link_blocked(s(1), s(2))));
    g.with_xfer(|x| x.heal_link(s(1), s(2)));
    // Backoff expires at 5 s, the retry drains 1 MB in 1 s.
    g.advance_to(SimTime::from_secs(6));
    assert_eq!(catalog.poll(), 1);
    let hist = catalog.transfer_history();
    assert_eq!(hist.len(), 1);
    assert_eq!(hist[0].attempts, 2, "one failed attempt, one retry");
    assert_eq!(hist[0].arrives, SimTime::from_secs(6));
    assert!(catalog.lookup("lfn:/r").unwrap().available_at(s(2)));
}

#[test]
fn retries_exhaust_into_typed_failure() {
    let config = XferConfig {
        retry: RetryPolicy {
            max_attempts: 3,
            backoff_base: SimDuration::from_secs(1),
        },
        ..XferConfig::with_defaults()
    };
    let g = lan(config);
    let catalog = ReplicaCatalog::new(g.clone());
    catalog.register(FileRef::new("lfn:/doomed", mb(1)).with_replicas(vec![s(1)]));
    g.with_xfer(|x| x.fail_link(s(1), s(2)));
    catalog.replicate("lfn:/doomed", s(2)).unwrap();
    // Backoffs at 1 s and 2 s, then attempt 3 finds the link still
    // dead and the transfer fails permanently.
    g.advance_to(SimTime::from_secs(10));
    let counters = g.with_xfer(|x| x.counters());
    assert_eq!(counters.failed, 1);
    assert_eq!(counters.retried, 2);
    assert_eq!(counters.completed, 0);
    assert!(catalog.in_flight().is_empty());
    assert!(!catalog.lookup("lfn:/doomed").unwrap().available_at(s(2)));
}

// ---- storage budgets, eviction, pinning ----

#[test]
fn lru_eviction_respects_pins_and_last_replicas() {
    let config = XferConfig::with_defaults().with_budget(s(2), mb(25));
    let g = lan(config);
    let catalog = ReplicaCatalog::new(g.clone());
    for lfn in ["lfn:/a", "lfn:/b", "lfn:/c", "lfn:/d"] {
        catalog.register(FileRef::new(lfn, mb(10)).with_replicas(vec![s(1)]));
    }
    // a then b land (20 MB used); c's landing must evict the coldest
    // unpinned replica, which is a.
    catalog.replicate("lfn:/a", s(2)).unwrap();
    g.advance_to(SimTime::from_secs(10));
    catalog.replicate("lfn:/b", s(2)).unwrap();
    g.advance_to(SimTime::from_secs(20));
    catalog.replicate("lfn:/c", s(2)).unwrap();
    g.advance_to(SimTime::from_secs(30));
    assert!(!catalog.lookup("lfn:/a").unwrap().available_at(s(2)));
    assert!(
        catalog.lookup("lfn:/a").unwrap().available_at(s(1)),
        "origin survives"
    );
    assert!(catalog.lookup("lfn:/b").unwrap().available_at(s(2)));
    assert!(catalog.lookup("lfn:/c").unwrap().available_at(s(2)));
    assert_eq!(g.with_xfer(|x| x.counters().evicted), 1);

    // Pin b (a staging chain references it): d's landing must skip
    // the pinned b and evict c instead.
    let (token, _) = g
        .with_xfer(|x| x.plan_stage(s(2), &[FileRef::new("lfn:/b", 0)]))
        .expect("local input still plans a pin");
    catalog.replicate("lfn:/d", s(2)).unwrap();
    g.advance_to(SimTime::from_secs(40));
    assert!(
        catalog.lookup("lfn:/b").unwrap().available_at(s(2)),
        "pinned"
    );
    assert!(
        !catalog.lookup("lfn:/c").unwrap().available_at(s(2)),
        "evicted"
    );
    assert!(catalog.lookup("lfn:/d").unwrap().available_at(s(2)));
    assert_eq!(g.with_xfer(|x| x.counters().evicted), 2);
    g.with_xfer(|x| x.cancel_chain(token));
}

#[test]
fn over_budget_landing_fails_typed() {
    let config = XferConfig::with_defaults().with_budget(s(2), mb(5));
    let g = lan(config);
    let catalog = ReplicaCatalog::new(g.clone());
    catalog.register(FileRef::new("lfn:/big", mb(10)).with_replicas(vec![s(1)]));
    catalog.replicate("lfn:/big", s(2)).unwrap();
    g.advance_to(SimTime::from_secs(20));
    assert_eq!(g.with_xfer(|x| x.counters().failed), 1);
    assert!(!catalog.lookup("lfn:/big").unwrap().available_at(s(2)));
}

// ---- the delete race ----

#[test]
fn deleting_the_source_mid_transfer_repoints_to_another_replica() {
    let g = lan(XferConfig::with_defaults());
    let catalog = ReplicaCatalog::new(g.clone());
    catalog.register(FileRef::new("lfn:/twin", mb(10)).with_replicas(vec![s(1), s(3)]));
    catalog.replicate("lfn:/twin", s(2)).unwrap();
    g.advance_to(SimTime::from_secs(3));
    // The source it was draining from disappears: the transfer must
    // restart from the surviving replica, not keep "copying" from the
    // deleted one.
    catalog.delete_replica("lfn:/twin", s(1)).unwrap();
    let inf = catalog.in_flight();
    assert_eq!(inf.len(), 1);
    assert_eq!(inf[0].from, s(3), "re-pointed at the survivor");
    assert_eq!(
        inf[0].arrives,
        SimTime::from_secs(13),
        "restarted from zero bytes"
    );
    g.advance_to(SimTime::from_secs(13));
    assert_eq!(catalog.poll(), 1);
    let f = catalog.lookup("lfn:/twin").unwrap();
    assert!(f.available_at(s(2)));
    assert!(!f.available_at(s(1)));
}

#[test]
fn deleting_the_only_source_mid_transfer_fails_typed() {
    let g = lan(XferConfig::with_defaults());
    let catalog = ReplicaCatalog::new(g.clone());
    catalog.register(FileRef::new("lfn:/only", mb(10)).with_replicas(vec![s(1)]));
    catalog.replicate("lfn:/only", s(2)).unwrap();
    g.advance_to(SimTime::from_secs(3));
    catalog.delete_replica("lfn:/only", s(1)).unwrap();
    assert!(catalog.in_flight().is_empty(), "transfer cannot continue");
    assert_eq!(g.with_xfer(|x| x.counters().failed), 1);
    g.advance_to(SimTime::from_secs(30));
    let f = catalog.lookup("lfn:/only").unwrap();
    assert!(!f.available_at(s(2)), "never silently materialized");
    assert!(f.replicas.is_empty());
}

// ---- staging under contention ----

#[test]
fn contended_staging_keeps_the_task_pending_until_actual_completion() {
    // 10 MB input at site 1, task forced to site 2: solo staging is
    // 10 s. A competing 10 MB catalog replication on the same link
    // halves the bandwidth, so staging really completes at ~20 s; the
    // task must stay Pending until then even though the original
    // projection said 10 s.
    let g = lan(XferConfig::with_defaults());
    let stack = ServiceStack::over(g);
    let catalog = ReplicaCatalog::new(stack.grid.clone());
    catalog.register(FileRef::new("lfn:/rival", mb(10)).with_replicas(vec![s(1)]));

    let mut job = JobSpec::new(JobId::new(1), "staged", UserId::new(1));
    let task = job.add_task(
        TaskSpec::new(TaskId::new(1), "t", "reco")
            .with_cpu_demand(SimDuration::from_secs(5))
            .with_inputs(vec![
                FileRef::new("lfn:/input", mb(10)).with_replicas(vec![s(1)])
            ]),
    );
    stack
        .submit_plan(&AbstractPlan::new(job).restricted_to(vec![s(2)]))
        .unwrap();
    catalog.replicate("lfn:/rival", s(2)).unwrap();

    stack.run_until(SimTime::from_secs(15));
    let info = stack.jobmon.job_info(task).unwrap();
    assert_eq!(
        info.status,
        TaskStatus::Pending,
        "still staging at 15 s: contention stretched the 10 s projection"
    );
    stack.run_until(SimTime::from_secs(40));
    let info = stack.jobmon.job_info(task).unwrap();
    assert_eq!(info.status, TaskStatus::Completed);
    let started = info.started_at.unwrap().as_secs_f64();
    assert!(
        (started - 20.0).abs() < 1.0,
        "dispatch tracks the contended staging completion: {started}"
    );
}

// ---- run-to-run schedule determinism ----

/// One generated data-grid workload in plain data form.
#[derive(Clone, Debug)]
struct Scenario {
    /// Number of sites (ids 1..=n).
    sites: usize,
    /// Per file: (size in MB, home site index).
    files: Vec<(u64, usize)>,
    /// Replication requests as (file index, destination site index,
    /// step at which the request is issued).
    requests: Vec<(usize, usize, usize)>,
    /// Per task: (cpu seconds, input file indexes).
    tasks: Vec<(u64, Vec<usize>)>,
    /// run_until steps to drive.
    steps: usize,
    /// Seconds of virtual time per step.
    step_secs: u64,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    let file = (1u64..30, any::<prop::sample::Index>());
    let request = (
        any::<prop::sample::Index>(),
        any::<prop::sample::Index>(),
        any::<prop::sample::Index>(),
    );
    let task = (
        0u64..60,
        prop::collection::vec(any::<prop::sample::Index>(), 0..3),
    );
    (
        (
            2usize..6,
            prop::collection::vec(file, 1..6),
            prop::collection::vec(request, 0..8),
            prop::collection::vec(task, 1..5),
        ),
        (1usize..6, 5u64..40),
    )
        .prop_map(
            |((sites, raw_files, raw_requests, raw_tasks), (steps, step_secs))| {
                let nf = raw_files.len();
                let files = raw_files
                    .into_iter()
                    .map(|(mb, home)| (mb, home.index(sites)))
                    .collect();
                let requests = raw_requests
                    .into_iter()
                    .map(|(f, to, at)| (f.index(nf), to.index(sites), at.index(steps)))
                    .collect();
                let tasks = raw_tasks
                    .into_iter()
                    .map(|(cpu, inputs)| (cpu, inputs.into_iter().map(|i| i.index(nf)).collect()))
                    .collect();
                Scenario {
                    sites,
                    files,
                    requests,
                    tasks,
                    steps,
                    step_secs,
                }
            },
        )
}

/// Everything observable about the transfer plane after one run.
#[derive(Debug, PartialEq)]
struct XferOutcome {
    counters: gae::xfer::XferCounters,
    history: Vec<(String, SiteId, SiteId, SimTime, SimTime, u32)>,
    in_flight: Vec<(String, SiteId, SiteId, SimTime)>,
    replicas: Vec<(String, Vec<SiteId>)>,
    tasks: Vec<Option<(TaskStatus, SiteId, Option<SimTime>)>>,
}

fn run(scenario: &Scenario) -> XferOutcome {
    let net = NetworkModel::new(Link::new(1e6, SimDuration::ZERO));
    let mut builder = GridBuilder::new().network(net);
    for i in 1..=scenario.sites as u64 {
        builder = builder.site(SiteDescription::new(s(i), format!("s{i}"), 2, 1));
    }
    let stack = ServiceStack::over(builder.build());
    let catalog = ReplicaCatalog::new(stack.grid.clone());
    let lfns: Vec<String> = scenario
        .files
        .iter()
        .enumerate()
        .map(|(i, (size, home))| {
            let lfn = format!("lfn:/f{i}");
            catalog
                .register(FileRef::new(&lfn, mb(*size)).with_replicas(vec![s(*home as u64 + 1)]));
            lfn
        })
        .collect();

    let mut job = JobSpec::new(JobId::new(1), "campaign", UserId::new(1));
    let mut task_ids = Vec::new();
    for (k, (cpu, inputs)) in scenario.tasks.iter().enumerate() {
        let id = TaskId::new(k as u64 + 1);
        // Inputs are resolved through the catalog (fills sizes and
        // replica locations) before submission, as gae-ctl does.
        let spec = catalog.resolve_inputs(
            TaskSpec::new(id, format!("t{k}"), "app")
                .with_cpu_demand(SimDuration::from_secs(*cpu))
                .with_inputs(inputs.iter().map(|i| FileRef::new(&lfns[*i], 0)).collect()),
        );
        job.add_task(spec);
        task_ids.push(id);
    }
    // Scheduling can legitimately fail, identically in both runs.
    let _ = stack.submit_job(job);

    for step in 0..scenario.steps {
        for (f, to, at) in &scenario.requests {
            if *at == step {
                let _ = catalog.replicate(&lfns[*f], s(*to as u64 + 1));
            }
        }
        stack.run_until(SimTime::from_secs((step as u64 + 1) * scenario.step_secs));
    }

    XferOutcome {
        counters: stack.grid.with_xfer(|x| x.counters()),
        history: catalog
            .transfer_history()
            .into_iter()
            .map(|r| (r.lfn, r.from, r.to, r.started, r.arrives, r.attempts))
            .collect(),
        in_flight: catalog
            .in_flight()
            .into_iter()
            .map(|r| (r.lfn, r.from, r.to, r.arrives))
            .collect(),
        replicas: lfns
            .iter()
            .map(|l| {
                let mut reps = catalog.lookup(l).map(|f| f.replicas).unwrap_or_default();
                reps.sort();
                (l.clone(), reps)
            })
            .collect(),
        tasks: task_ids
            .iter()
            .map(|t| {
                stack
                    .jobmon
                    .job_info(*t)
                    .ok()
                    .map(|i| (i.status, i.site, i.started_at))
            })
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transfer_schedule_is_deterministic_run_to_run(scenario in arb_scenario()) {
        // Each run is a fresh stack: new `Grid`, new `HashMap` seeds.
        prop_assert_eq!(run(&scenario), run(&scenario));
    }
}

// ---- crash recovery ----

#[test]
fn recovery_rearms_in_flight_transfers_exactly_once() {
    let dir = unique_temp_dir("xfer-crash");
    let config = PersistenceConfig::new(&dir)
        .snapshot_every(SimDuration::from_secs(1_000))
        .fsync(false);
    let builder = || {
        GridBuilder::new()
            .site(SiteDescription::new(s(1), "a", 1, 1))
            .site(SiteDescription::new(s(2), "b", 1, 1))
            .network(NetworkModel::new(Link::new(1e6, SimDuration::ZERO)))
    };
    {
        let stack = ServiceStack::over(builder().persist(config.clone()).build());
        let catalog = ReplicaCatalog::new(stack.grid.clone());
        // One transfer lands before the crash, one is mid-flight.
        catalog.register(FileRef::new("lfn:/done", mb(5)).with_replicas(vec![s(1)]));
        catalog.register(FileRef::new("lfn:/inflight", mb(50)).with_replicas(vec![s(1)]));
        catalog.replicate("lfn:/done", s(2)).unwrap();
        stack.run_until(SimTime::from_secs(8));
        catalog.replicate("lfn:/inflight", s(2)).unwrap();
        stack.run_until(SimTime::from_secs(18));
        assert_eq!(catalog.in_flight().len(), 1, "50 MB still draining");
        // Process death: dropped with no orderly shutdown.
    }

    let (stack, _report) = ServiceStack::recover_from_disk(
        builder().build(),
        SteeringPolicy::default(),
        SimDuration::from_secs(5),
        &config,
    )
    .expect("clean store recovers");
    let catalog = ReplicaCatalog::new(stack.grid.clone());

    // The landed transfer is not re-armed: its replica is back and no
    // new transfer exists for it. The in-flight one is re-armed
    // exactly once, restarting from zero bytes.
    assert!(catalog.lookup("lfn:/done").unwrap().available_at(s(2)));
    let inf = catalog.in_flight();
    assert_eq!(inf.len(), 1, "exactly one re-armed transfer");
    assert_eq!(inf[0].lfn, "lfn:/inflight");
    let counters = stack.grid.with_xfer(|x| x.counters());
    assert_eq!(counters.completed, 1, "pre-crash landing survived, once");

    // Drive to completion: the re-armed transfer lands exactly once.
    stack.run_until(SimTime::from_secs(120));
    assert!(catalog.lookup("lfn:/inflight").unwrap().available_at(s(2)));
    let counters = stack.grid.with_xfer(|x| x.counters());
    assert_eq!(counters.completed, 2, "one landing per transfer, ever");
    assert!(catalog.in_flight().is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_restages_a_mid_staging_task_through_resubmission() {
    let dir = unique_temp_dir("xfer-crash-staging");
    let config = PersistenceConfig::new(&dir)
        .snapshot_every(SimDuration::from_secs(1_000))
        .fsync(false);
    let builder = || {
        GridBuilder::new()
            .site(SiteDescription::new(s(1), "a", 1, 1))
            .site(SiteDescription::new(s(2), "b", 1, 1))
            .network(NetworkModel::new(Link::new(1e6, SimDuration::ZERO)))
    };
    let task = TaskId::new(1);
    {
        let stack = ServiceStack::over(builder().persist(config.clone()).build());
        let mut job = JobSpec::new(JobId::new(1), "staged", UserId::new(1));
        job.add_task(
            TaskSpec::new(task, "t", "reco")
                .with_cpu_demand(SimDuration::from_secs(5))
                .with_inputs(vec![
                    FileRef::new("lfn:/in", mb(20)).with_replicas(vec![s(1)])
                ]),
        );
        stack
            .submit_plan(&AbstractPlan::new(job).restricted_to(vec![s(2)]))
            .unwrap();
        // Crash at 8 s: staging (20 s solo) is mid-flight.
        stack.run_until(SimTime::from_secs(8));
    }

    let (stack, report) = ServiceStack::recover_from_disk(
        builder().build(),
        SteeringPolicy::default(),
        SimDuration::from_secs(5),
        &config,
    )
    .expect("clean store recovers");
    assert!(!report.resubmitted.is_empty(), "mid-staging task re-armed");
    // The resubmission replans the chain; staging restarts from zero
    // and the task settles exactly once.
    stack.run_until(SimTime::from_secs(120));
    let info = stack.jobmon.job_info(task).unwrap();
    assert_eq!(info.status, TaskStatus::Completed);
    let catalog = ReplicaCatalog::new(stack.grid.clone());
    assert!(catalog.lookup("lfn:/in").unwrap().available_at(s(2)));
    assert_eq!(
        stack.grid.with_xfer(|x| x.counters().completed),
        1,
        "the staged input landed exactly once"
    );
    std::fs::remove_dir_all(&dir).ok();
}
