//! Runtime views (DESIGN.md §14 "Runtime views"): the estimator's
//! O(template tiers) read path held to the scan it replaced.
//!
//! * A differential proptest: random `HistOp` sequences × random
//!   template hierarchies × every estimation method, views created at
//!   a random point — ring ≡ scan ≡ view on every estimate field (to
//!   the bit) and every error string, a view built late ≡ one built
//!   first and maintained, and no store byte ever depends on a view.
//! * Recovery and failover: a recovered stack and a promoted follower
//!   estimate what the leader estimated, from a store with the
//!   leader's digest.
//! * The cost contract as counts: warm service estimates scan nothing.
//!
//! The regression for the stale-memo race a completion used to open
//! is a unit test beside the collector that opened it
//! (`jobmon::collector`): it needs a hook inside `DbManager::store`.

use gae::core::estimator::{HistoryStore, RuntimeEstimate};
use gae::durable::fault::unique_temp_dir;
use gae::hist::{HistConfig, HistOp, HistRecord, HistStore};
use gae::prelude::*;
use gae::trace::{Feature, SimilarityTemplate, TaskMeta, TemplateHierarchy};
use proptest::prelude::*;

#[path = "harness/mod.rs"]
mod harness;
use harness::{build_grid, estimate_probe, submit_workload, Scenario};

const FEATURES: [Feature; 7] = [
    Feature::Account,
    Feature::Login,
    Feature::Executable,
    Feature::Queue,
    Feature::Partition,
    Feature::Nodes,
    Feature::JobType,
];
/// The last word of each list is never appended: probes naming it hit
/// the unknown-dictionary-word path.
const LOGINS: [&str; 4] = ["amy", "bob", "cal", "nobody"];
const QUEUES: [&str; 3] = ["short", "long", "nowhere"];
const SITES: u64 = 3;

/// One step of a generated history.
#[derive(Clone, Debug)]
enum Step {
    Append {
        site: u64,
        who: usize,
        queue: usize,
        nodes: u32,
        interactive: bool,
        runtime_us: u64,
        success: bool,
    },
    Seal,
    Compact,
    /// `restore(encode())`: what a snapshot install does to the store.
    RoundTrip,
}

fn arb_step() -> impl Strategy<Value = Step> {
    let runtime = prop_oneof![
        (1u64..600).prop_map(|s| s * 1_000_000),
        1u64..5_000_000_000,
        // Near the documented 2⁴⁰ µs headroom.
        (0u64..1_000).prop_map(|d| (1 << 40) - d),
    ];
    // Three steps in four append; the rest reshape the store.
    (
        (0..12u8, 1..=SITES, 0..3usize, 0..2usize, 1..3u32),
        (any::<bool>(), runtime, 0..10u8),
    )
        .prop_map(
            |((kind, site, who, queue, nodes), (interactive, runtime_us, fail))| match kind {
                0 => Step::Seal,
                1 => Step::Compact,
                2 => Step::RoundTrip,
                _ => Step::Append {
                    site,
                    who,
                    queue,
                    nodes,
                    interactive,
                    runtime_us,
                    success: fail != 0,
                },
            },
        )
}

fn meta(who: usize, queue: usize, nodes: u32, interactive: bool) -> TaskMeta {
    TaskMeta {
        account: format!("acct-{}", LOGINS[who]),
        login: LOGINS[who].into(),
        executable: "reco".into(),
        queue: QUEUES[queue].into(),
        partition: "compute".into(),
        nodes,
        job_type: if interactive {
            JobType::Interactive
        } else {
            JobType::Batch
        },
    }
}

fn record(task: u64, site: u64, m: &TaskMeta, runtime_us: u64, success: bool) -> HistRecord {
    HistRecord {
        task,
        site,
        nodes: m.nodes as u64,
        submit_us: task,
        start_us: task + 1,
        finish_us: task + 1 + runtime_us,
        runtime_us,
        success,
        account: m.account.clone(),
        login: m.login.clone(),
        executable: m.executable.clone(),
        queue: m.queue.clone(),
        partition: m.partition.clone(),
        job_type: m.job_type.to_string(),
    }
}

/// Every field to the bit, or the error verbatim.
fn bits(r: GaeResult<RuntimeEstimate>) -> String {
    match r {
        Ok(e) => format!(
            "{}us tier{} n{} reg:{} sd:{:016x} {:?}",
            e.runtime.as_micros(),
            e.template_tier,
            e.samples,
            e.used_regression,
            e.std_dev_s.to_bits(),
            e.note
        ),
        Err(e) => format!("error: {e}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ring_scan_and_views_agree_to_the_bit(
        steps in proptest::collection::vec(arb_step(), 0..80),
        templates in proptest::collection::vec(0u8..128, 1..5),
        method in 0..3usize,
        build_at in any::<prop::sample::Index>(),
        segment_rows in 1..12usize,
    ) {
        let hierarchy = TemplateHierarchy::new(
            templates
                .iter()
                .map(|mask| {
                    SimilarityTemplate::new(
                        FEATURES
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| mask & (1 << i) != 0)
                            .map(|(_, f)| *f)
                            .collect(),
                    )
                })
                .collect(),
        );
        let method = [
            EstimationMethod::Mean,
            EstimationMethod::Regression,
            EstimationMethod::Hybrid,
        ][method];
        let estimator = |ring: HistoryStore| {
            RuntimeEstimator::new(ring)
                .with_hierarchy(hierarchy.clone())
                .with_method(method)
        };
        // One ring per site (§6.1 keeps histories per site); the rings'
        // estimators double as the scan and view estimators.
        let rings: Vec<RuntimeEstimator> =
            (0..=SITES).map(|_| estimator(HistoryStore::new(10_000))).collect();
        // `early` has its views built before the first row and keeps
        // them maintained; `late` builds them at a random step; `never`
        // is only ever scanned.
        let config = HistConfig { segment_rows };
        let (early, late, never) =
            (HistStore::new(config), HistStore::new(config), HistStore::new(config));
        let build_at = build_at.index(steps.len() + 1);

        let probes: Vec<TaskMeta> = (0..LOGINS.len())
            .flat_map(|who| (0..QUEUES.len()).map(move |q| meta(who, q, 1 + (who + q) as u32 % 2, q == 1)))
            .collect();
        let check = |views_on_late: bool| -> Result<(), String> {
            for site in 0..=SITES + 1 {
                let est = &rings[(site as usize).min(SITES as usize)];
                for probe in &probes {
                    let at = SiteId::new(site);
                    let scan = bits(est.estimate_columnar(&never, at, probe));
                    let view = bits(est.estimate_from_views(&early, at, probe));
                    if view != scan {
                        return Err(format!("site {site} {probe:?}: view {view} ≠ scan {scan}"));
                    }
                    if views_on_late {
                        let built_late = bits(est.estimate_from_views(&late, at, probe));
                        if built_late != scan {
                            return Err(format!("site {site} {probe:?}: late view {built_late} ≠ scan {scan}"));
                        }
                    }
                    if (1..=SITES).contains(&site) {
                        let ring = bits(est.estimate(probe));
                        if ring != scan {
                            return Err(format!("site {site} {probe:?}: ring {ring} ≠ scan {scan}"));
                        }
                    }
                }
            }
            Ok(())
        };

        prop_assert_eq!(check(false), Ok(()), "before any row");
        for (i, step) in steps.iter().enumerate() {
            if i == build_at {
                prop_assert_eq!(check(true), Ok(()), "at the late build, step {}", i);
            }
            match step {
                Step::Append { site, who, queue, nodes, interactive, runtime_us, success } => {
                    let m = meta(*who, *queue, *nodes, *interactive);
                    let op = HistOp::Append(record(i as u64, *site, &m, *runtime_us, *success));
                    for s in [&early, &late, &never] {
                        s.apply(&op);
                    }
                    if *success {
                        rings[*site as usize]
                            .history()
                            .observe(m, SimDuration::from_micros(*runtime_us));
                    }
                }
                Step::Seal => for s in [&early, &late, &never] { s.apply(&HistOp::Seal) },
                Step::Compact => for s in [&early, &late, &never] { s.apply(&HistOp::Compact) },
                Step::RoundTrip => for s in [&early, &late, &never] {
                    s.restore(&s.encode()).unwrap();
                    prop_assert_eq!(s.stats().views, 0, "restore drops views");
                },
            }
        }
        prop_assert_eq!(check(true), Ok(()), "at the end");
        // Views cost no bytes: the viewed stores encode, digest and
        // segment exactly like the one that never built a view.
        prop_assert_eq!(never.stats().views, 0);
        for viewed in [&early, &late] {
            prop_assert_eq!(viewed.encode(), never.encode());
            prop_assert_eq!(viewed.digest(), never.digest());
            prop_assert_eq!(viewed.segment_digests(), never.segment_digests());
            prop_assert_eq!(viewed.tail_digest(), never.tail_digest());
        }
    }
}

// ---- recovery and failover ----

fn fleet() -> Scenario {
    Scenario {
        sites: vec![(2, 2, 0), (2, 1, 0), (1, 2, 1)],
        flock_edges: vec![(0, 1)],
        jobs: vec![
            (vec![10, 20, 30, 15, 40], vec![]),
            (vec![5, 25, 12, 33], vec![(0, 2)]),
            (vec![18, 22, 9], vec![]),
        ],
        steps: 6,
        step_secs: 30,
        snapshot_steps: 2,
        victim: 0,
        kind: 0,
        extent: 0,
        bit: 0,
    }
}

#[test]
fn recovered_and_promoted_stacks_estimate_like_the_leader() {
    let scenario = fleet();
    let dir = unique_temp_dir("runtime-views");
    let config = PersistenceConfig::new(dir.join("leader"))
        .snapshot_every(SimDuration::from_secs(
            scenario.snapshot_steps * scenario.step_secs,
        ))
        .fsync(false);
    let leader = ServiceStack::over(build_grid(&scenario, Some(&config)));
    let cluster = ReplicatedLog::attached(
        &dir.join("repl"),
        ReplConfig {
            followers: 2,
            fsync: false,
        },
    )
    .expect("follower cluster");
    leader
        .attach_replication(cluster.clone())
        .expect("replication attach");
    submit_workload(&scenario, &leader);
    for step in 1..=scenario.steps {
        leader.run_until(SimTime::from_secs(step as u64 * scenario.step_secs));
        // Estimating mid-run builds the leader's views early, so the
        // later completions maintain them through `apply`.
        estimate_probe(&leader);
    }
    let leader_probe = estimate_probe(&leader);
    assert!(
        leader_probe.iter().any(|p| p.contains("Ok(")),
        "no site produced an estimate: {leader_probe:?}"
    );
    let leader_stats = leader.hist.store().stats();
    assert!(leader_stats.views > 0 && leader_stats.view_builds > 0);
    let leader_digest = leader.hist.store().digest();
    let leader_segments = leader.hist.store().segment_digests();

    // The same workload on a stack that never estimated anything:
    // building and maintaining views changed no store byte.
    let unviewed = harness::reference_stack_at(&scenario, scenario.steps as u64);
    assert_eq!(unviewed.hist.store().digest(), leader_digest);

    drop(leader);
    let promotion = cluster.fail_leader().expect("election");
    for (who, from) in [
        ("recovered leader", dir.join("leader")),
        ("promoted follower", promotion.dir),
    ] {
        let (stack, _report) = ServiceStack::recover_from_disk(
            build_grid(&scenario, None),
            SteeringPolicy::default(),
            SimDuration::from_secs(5),
            &PersistenceConfig::new(&from).fsync(false),
        )
        .unwrap_or_else(|e| panic!("{who}: recovery failed: {e}"));
        let store = stack.hist.store();
        assert_eq!(
            store.stats().views,
            0,
            "{who}: views are rebuilt on demand, not restored"
        );
        assert_eq!(store.digest(), leader_digest, "{who}");
        assert_eq!(store.segment_digests(), leader_segments, "{who}");
        assert_eq!(estimate_probe(&stack), leader_probe, "{who}");
        assert!(store.stats().views > 0, "{who}: the probe rebuilt them");
        assert_eq!(
            store.digest(),
            leader_digest,
            "{who}: and that cost no bytes"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ---- cost contract ----

fn spec_for(task: u64, owner: u64, nodes: u32) -> TaskSpec {
    TaskSpec::new(TaskId::new(task), format!("t{task}"), "reco")
        .with_owner(UserId::new(owner))
        .with_nodes(nodes)
        .with_cpu_demand(SimDuration::from_secs(30))
}

#[test]
fn warm_service_estimates_scan_nothing() {
    let grid = GridBuilder::new()
        .site(SiteDescription::new(SiteId::new(1), "alpha", 4, 2))
        .site(SiteDescription::new(SiteId::new(2), "beta", 4, 2))
        .build();
    let stack = ServiceStack::over(grid);
    // Six distinct metadata tuples: 3 owners × 2 node counts.
    let specs: Vec<TaskSpec> = (0..6)
        .map(|i| spec_for(100 + i, 1 + i % 3, 1 + (i / 3) as u32))
        .collect();
    for (i, spec) in specs.iter().enumerate() {
        for rep in 0..3u64 {
            let m = TaskMeta::from_spec(spec);
            let row = record(
                i as u64 * 10 + rep,
                1 + i as u64 % 2,
                &m,
                (20 + rep) * 1_000_000,
                true,
            );
            stack.hist.ingest(row);
        }
    }
    let sites = [SiteId::new(1), SiteId::new(2)];
    let ask_all = || {
        for spec in &specs {
            for site in sites {
                stack.estimators.estimate_runtime(site, spec).unwrap();
            }
        }
    };
    // Warm-up builds at most one view per template of the hierarchy.
    ask_all();
    let warm = stack.hist.store().stats();
    let tiers = TemplateHierarchy::paragon_default().templates().len() as u64;
    assert!((1..=tiers).contains(&warm.view_builds), "{warm:?}");
    assert_eq!(warm.scans, warm.view_builds, "only the builds scanned");
    let (_, warm_misses) = stack.estimators.memo_stats();

    // From here on estimates are hash probes — even with the memo
    // dropped between rounds so every call reaches the store.
    for round in 0..5u64 {
        for site in sites {
            stack.estimators.observe_completion(
                site,
                TaskMeta::from_spec(&specs[0]),
                SimDuration::from_secs(1),
            );
        }
        ask_all();
        let now = stack.hist.store().stats();
        assert_eq!(
            (now.scans, now.rows_scanned, now.view_builds),
            (warm.scans, warm.rows_scanned, warm.view_builds),
            "round {round}"
        );
    }
    let misses = stack.estimators.memo_stats().1 - warm_misses;
    assert_eq!(
        misses,
        5 * 6 * 2,
        "every call of every round reached the store"
    );
    let served = stack.hist.store().stats().view_lookups - warm.view_lookups;
    assert!(served >= misses, "{served} lookups for {misses} misses");

    // One completion touches exactly one key per view.
    let before = stack.hist.store().stats();
    let newcomer = TaskMeta::from_spec(&spec_for(999, 77, 9).with_queue("brand-new"));
    stack
        .hist
        .ingest(record(9_999, 2, &newcomer, 5_000_000, true));
    let after = stack.hist.store().stats();
    assert_eq!(after.views, before.views);
    assert_eq!(after.view_keys - before.view_keys, before.views);
    assert_eq!(
        (after.scans, after.view_builds),
        (before.scans, before.view_builds)
    );
}

/// The view floors `cost_floors` times at 10⁶ rows, as counts: a warm
/// view estimate reads no row at any size, where the scan it equals
/// reads them all. (The pushdown floor's counts are `history_rpc`'s
/// `pushdown_prunes_and_estimates_stay_fast_at_scale`.)
#[test]
fn warm_view_estimates_read_no_rows_at_any_size() {
    let (m, site) = (meta(0, 0, 1, false), SiteId::new(1));
    let estimator = RuntimeEstimator::new(HistoryStore::new(16));
    for n in [1_000u64, 100_000] {
        let store = HistStore::new(HistConfig::default());
        for t in 0..n {
            let row = record(t, 1 + t % SITES, &m, 500 + t % 1_000 * 37, t % 10 != 0);
            store.apply(&HistOp::Append(row));
        }
        let view = bits(estimator.estimate_from_views(&store, site, &m));
        let before = store.stats();
        assert_eq!(bits(estimator.estimate_columnar(&store, site, &m)), view);
        let scanned = store.stats();
        assert!(scanned.rows_scanned - before.rows_scanned >= n);
        assert_eq!(bits(estimator.estimate_from_views(&store, site, &m)), view);
        let after = store.stats();
        assert_eq!(
            (after.rows_scanned, after.scans),
            (scanned.rows_scanned, scanned.scans)
        );
    }
}
