//! Property tests: the execution service's invariants hold under
//! arbitrary interleavings of submissions, time advancement, steering
//! commands, migrations and failures.

use gae_exec::{Checkpoint, ExecutionService, SiteConfig};
use gae_sim::LoadTrace;
use gae_types::{
    CondorId, Priority, SimDuration, SimTime, SiteDescription, SiteId, TaskId, TaskSpec, TaskStatus,
};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    Submit {
        demand_s: u64,
        priority: i32,
        checkpointable: bool,
    },
    Advance {
        secs: u64,
    },
    Suspend(usize),
    Resume(usize),
    Kill(usize),
    SetPriority(usize, i32),
    Migrate(usize),
    FailNode(u64),
    RecoverNode(u64),
    SetPreemptive(bool),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..2_000, -5i32..5, any::<bool>()).prop_map(|(demand_s, priority, checkpointable)| {
            Op::Submit {
                demand_s,
                priority,
                checkpointable,
            }
        }),
        (0u64..500).prop_map(|secs| Op::Advance { secs }),
        (0usize..32).prop_map(Op::Suspend),
        (0usize..32).prop_map(Op::Resume),
        (0usize..32).prop_map(Op::Kill),
        ((0usize..32), -5i32..5).prop_map(|(i, p)| Op::SetPriority(i, p)),
        (0usize..32).prop_map(Op::Migrate),
        (1u64..4).prop_map(Op::FailNode),
        (1u64..4).prop_map(Op::RecoverNode),
        any::<bool>().prop_map(Op::SetPreemptive),
    ]
}

fn check_invariants(svc: &ExecutionService, submitted: &[CondorId]) {
    // Running tasks never exceed total slots.
    let slots = svc.site().total_slots() as usize;
    assert!(
        svc.running_count() <= slots,
        "{} running > {} slots",
        svc.running_count(),
        slots
    );
    // Queue holds only queued records; queue positions are dense.
    for (pos, entry) in svc.queue_snapshot().iter().enumerate() {
        let rec = svc.record(entry.condor).expect("queued record exists");
        assert_eq!(
            rec.status(),
            TaskStatus::Queued,
            "queue holds non-queued {rec:?}"
        );
        assert_eq!(svc.queue_position(entry.condor), Some(pos));
    }
    let queue = svc.queue_snapshot();
    for &condor in submitted {
        // Asked only of a queued record, the position is the scan's.
        let scanned = queue.iter().position(|e| e.condor == condor);
        assert_eq!(svc.queue_position(condor), scanned);
        let rec = svc.record(condor).expect("every submission has a record");
        let usage = svc.usage(rec);
        // Accrual never exceeds the demand at this site.
        assert!(
            usage.accrued() <= rec.demand + SimDuration::from_millis(1),
            "over-accrual: {rec:?}"
        );
        // Progress is a valid fraction.
        let p = usage.progress();
        assert!((0.0..=1.0).contains(&p), "progress {p}");
        // Terminal records have a finish time; running ones a node.
        match rec.status() {
            TaskStatus::Completed | TaskStatus::Failed | TaskStatus::Killed => {
                assert!(rec.finished_at().is_some(), "{rec:?}");
            }
            TaskStatus::Running => {
                assert!(rec.node().is_some(), "{rec:?}");
                assert!(rec.started_at.is_some(), "{rec:?}");
            }
            _ => {}
        }
        // Completed means all work done.
        if rec.status() == TaskStatus::Completed {
            assert_eq!(usage.accrued(), rec.demand, "incomplete completion {rec:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn invariants_hold_under_arbitrary_ops(ops in prop::collection::vec(arb_op(), 1..80)) {
        let cfg = SiteConfig {
            description: SiteDescription::new(SiteId::new(1), "prop", 3, 1),
            node_traces: vec![
                LoadTrace::free(),
                LoadTrace::constant(1.0),
                LoadTrace::constant(3.0),
            ],
        };
        let mut svc = ExecutionService::new(cfg);
        let mut partner = ExecutionService::new(SiteConfig::free(
            SiteDescription::new(SiteId::new(2), "partner", 2, 1),
        ));
        let mut submitted: Vec<CondorId> = Vec::new();
        let mut migrated: Vec<CondorId> = Vec::new();
        let mut next_task = 1u64;

        for op in ops {
            match op {
                Op::Submit { demand_s, priority, checkpointable } => {
                    let spec = TaskSpec::new(TaskId::new(next_task), "t", "x")
                        .with_cpu_demand(SimDuration::from_secs(demand_s))
                        .with_priority(Priority::new(priority))
                        .with_checkpointable(checkpointable);
                    next_task += 1;
                    if let Ok(c) = svc.submit(spec.into(), None) {
                        submitted.push(c);
                    }
                }
                Op::Advance { secs } => {
                    let target = svc.now() + SimDuration::from_secs(secs);
                    svc.advance_to(target);
                    partner.advance_to(partner.now().max(target));
                }
                Op::Suspend(i) => {
                    if let Some(&c) = submitted.get(i) {
                        let _ = svc.suspend(c);
                    }
                }
                Op::Resume(i) => {
                    if let Some(&c) = submitted.get(i) {
                        let _ = svc.resume(c);
                    }
                }
                Op::Kill(i) => {
                    if let Some(&c) = submitted.get(i) {
                        let _ = svc.kill(c);
                    }
                }
                Op::SetPriority(i, p) => {
                    if let Some(&c) = submitted.get(i) {
                        let _ = svc.set_priority(c, Priority::new(p));
                    }
                }
                Op::Migrate(i) => {
                    if let Some(&c) = submitted.get(i) {
                        if let Ok((spec, ck)) = svc.remove_for_migration(c) {
                            // Conservation: the checkpoint never
                            // carries more than the full demand.
                            if let (Some(ck), Some(full)) = (ck, spec.true_cpu_demand) {
                                prop_assert!(ck.accrued <= full + SimDuration::from_millis(1));
                            }
                            if let Ok(c2) = partner.submit(
                                spec,
                                ck.map(|c| Checkpoint { accrued: c.accrued }),
                            ) {
                                migrated.push(c2);
                            }
                        }
                    }
                }
                Op::FailNode(n) => {
                    let _ = svc.fail_node(gae_types::NodeId::new(n));
                }
                Op::RecoverNode(n) => {
                    let _ = svc.recover_node(gae_types::NodeId::new(n));
                }
                Op::SetPreemptive(on) => svc.set_preemptive(on),
            }
            check_invariants(&svc, &submitted);
            check_invariants(&partner, &migrated);
        }

        // Drain to quiescence: every live task eventually settles or
        // keeps running under suspended/queued-on-dead-nodes states.
        let horizon = svc.now() + SimDuration::from_secs(1_000_000);
        svc.advance_to(horizon);
        partner.advance_to(partner.now() + SimDuration::from_secs(1_000_000));
        check_invariants(&svc, &submitted);
        check_invariants(&partner, &migrated);
        // After an enormous advance, no task is still Running unless
        // its node is down... which cannot happen: failing a node
        // fails its tasks. So: no Running tasks remain anywhere.
        for &c in submitted.iter() {
            let rec = svc.record(c).expect("record");
            prop_assert_ne!(rec.status(), TaskStatus::Running, "{:?}", rec);
        }
    }

    /// Events are emitted in non-decreasing time order and every
    /// terminal event matches the record's final state.
    #[test]
    fn event_stream_is_ordered_and_consistent(
        demands in prop::collection::vec(1u64..500, 1..20),
        advance in 1u64..100_000,
    ) {
        let mut svc = ExecutionService::new(SiteConfig::free(
            SiteDescription::new(SiteId::new(1), "s", 2, 1),
        ));
        for (i, d) in demands.iter().enumerate() {
            svc.submit(
                TaskSpec::new(TaskId::new(i as u64 + 1), "t", "x")
                    .with_cpu_demand(SimDuration::from_secs(*d))
                    .into(),
                None,
            ).expect("alive site accepts work");
        }
        svc.advance_to(SimTime::from_secs(advance));
        let events = svc.drain_events();
        for w in events.windows(2) {
            prop_assert!(w[0].at <= w[1].at, "events out of order");
        }
        for e in events.iter().filter(|e| e.is_terminal()) {
            let rec = svc.record(e.condor).expect("record");
            prop_assert_eq!(rec.status(), e.status);
            prop_assert_eq!(rec.finished_at(), Some(e.at));
        }
    }

    /// Work conservation on a free site: total accrued CPU time never
    /// exceeds slots × elapsed time.
    #[test]
    fn work_conservation(
        demands in prop::collection::vec(1u64..2_000, 1..24),
        advance in 1u64..5_000,
    ) {
        let mut svc = ExecutionService::new(SiteConfig::free(
            SiteDescription::new(SiteId::new(1), "s", 2, 2),
        ));
        for (i, d) in demands.iter().enumerate() {
            svc.submit(
                TaskSpec::new(TaskId::new(i as u64 + 1), "t", "x")
                    .with_cpu_demand(SimDuration::from_secs(*d))
                    .into(),
                None,
            ).expect("accepts");
        }
        svc.advance_to(SimTime::from_secs(advance));
        let total_accrued: f64 = svc
            .records()
            .map(|r| svc.usage(r).accrued().as_secs_f64())
            .sum();
        let capacity = 4.0 * advance as f64;
        prop_assert!(
            total_accrued <= capacity + 1e-3,
            "accrued {total_accrued} exceeds capacity {capacity}"
        );
    }
}

/// One step of the twin run behind
/// `one_advance_equals_any_chain_of_advances`.
#[derive(Clone, Debug)]
enum Step {
    Submit {
        demand_ms: u64,
        priority: i32,
        checkpointable: bool,
        stage_in_ms: u64,
    },
    Restage(usize, u64),
    Suspend(usize),
    Resume(usize),
    Kill(usize),
    SetPriority(usize, i32),
    Migrate(usize),
    FailNode(u64),
    /// Advances by `span_ms`: one call on one twin, and on the other
    /// a call at each of `cuts` (offsets into the span) first.
    Advance {
        span_ms: u64,
        cuts: Vec<u64>,
    },
}

fn arb_submit_step() -> impl Strategy<Value = Step> {
    (
        1u64..900_000,
        -3i32..3,
        any::<bool>(),
        prop_oneof![Just(0u64), 1u64..60_000],
    )
        .prop_map(
            |(demand_ms, priority, checkpointable, stage_in_ms)| Step::Submit {
                demand_ms,
                priority,
                checkpointable,
                stage_in_ms,
            },
        )
}

fn arb_advance_step() -> impl Strategy<Value = Step> {
    (0u64..300_000, prop::collection::vec(0u64..300_000, 0..6)).prop_map(|(span_ms, cuts)| {
        Step::Advance {
            span_ms,
            cuts: cuts.into_iter().map(|c| c % (span_ms + 1)).collect(),
        }
    })
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        arb_submit_step(),
        arb_submit_step(),
        arb_advance_step(),
        arb_advance_step(),
        arb_advance_step(),
        ((0usize..24), 0u64..120_000).prop_map(|(i, ms)| Step::Restage(i, ms)),
        (0usize..24).prop_map(Step::Suspend),
        (0usize..24).prop_map(Step::Resume),
        (0usize..24).prop_map(Step::Kill),
        ((0usize..24), -3i32..3).prop_map(|(i, p)| Step::SetPriority(i, p)),
        (0usize..24).prop_map(Step::Migrate),
        (1u64..4).prop_map(Step::FailNode),
    ]
}

/// Everything a twin exposes: its clock, next event, records (with
/// their closed-form reads at the clock), in Condor-id order.
fn observe(svc: &ExecutionService) -> (SimTime, Option<SimTime>, Vec<String>) {
    let mut records: Vec<_> = svc.records().collect();
    records.sort_by_key(|r| r.condor);
    let records = records
        .into_iter()
        .map(|r| {
            let u = svc.usage(r);
            format!("{r:?} {:?} {:?} {}", u.accrued(), u.io(), u.progress())
        })
        .collect();
    (svc.now(), svc.next_event_time(), records)
}

proptest! {
    /// Advancing in one call is advancing through any intermediate
    /// instants: running tasks accrue in closed form from their
    /// phase's anchor, so where the clock stops on the way to `t`
    /// moves no event, record, checkpoint or next-event instant.
    #[test]
    fn one_advance_equals_any_chain_of_advances(
        loads in prop::collection::vec(prop::collection::vec(0.0f64..4.0, 1..6), 3),
        steps in prop::collection::vec(arb_step(), 1..60),
    ) {
        // Stepped traces at uneven instants, a non-reference speed.
        let node_traces = loads
            .iter()
            .enumerate()
            .map(|(n, levels)| {
                let at = |i: usize| SimTime::from_micros((i as u64 * 17_333 + n as u64 * 5_101) * 1_000 + 7);
                LoadTrace::from_steps(levels.iter().enumerate().map(|(i, &l)| (at(i), l)).collect())
            })
            .collect();
        let cfg = SiteConfig {
            description: SiteDescription::new(SiteId::new(1), "twin", 3, 2).with_speed(1.37),
            node_traces,
        };
        let mut one = ExecutionService::new(cfg.clone());
        let mut chain = ExecutionService::new(cfg);
        one.set_preemptive(true);
        chain.set_preemptive(true);
        let mut submitted: Vec<CondorId> = Vec::new();
        for (n, step) in steps.into_iter().enumerate() {
            let nth = |i: usize| submitted.get(i).copied();
            match step {
                Step::Submit { demand_ms, priority, checkpointable, stage_in_ms } => {
                    let spec: std::sync::Arc<TaskSpec> = TaskSpec::new(TaskId::new(n as u64 + 1), "t", "x")
                        .with_cpu_demand(SimDuration::from_millis(demand_ms))
                        .with_priority(Priority::new(priority))
                        .with_checkpointable(checkpointable)
                        .into();
                    let stage_in = SimDuration::from_millis(stage_in_ms);
                    let a = one.submit_staged(spec.clone(), None, stage_in);
                    let b = chain.submit_staged(spec, None, stage_in);
                    prop_assert_eq!(a.as_ref().ok(), b.as_ref().ok());
                    submitted.extend(a.ok());
                }
                Step::Restage(i, ms) => {
                    if let Some(c) = nth(i) {
                        let until = SimTime::from_micros((one.now().as_micros() + ms * 1_000).saturating_sub(30_000_000));
                        prop_assert_eq!(one.restage(c, until).is_ok(), chain.restage(c, until).is_ok());
                    }
                }
                Step::Suspend(i) => {
                    if let Some(c) = nth(i) {
                        prop_assert_eq!(one.suspend(c).is_ok(), chain.suspend(c).is_ok());
                    }
                }
                Step::Resume(i) => {
                    if let Some(c) = nth(i) {
                        prop_assert_eq!(one.resume(c).is_ok(), chain.resume(c).is_ok());
                    }
                }
                Step::Kill(i) => {
                    if let Some(c) = nth(i) {
                        prop_assert_eq!(one.kill(c).is_ok(), chain.kill(c).is_ok());
                    }
                }
                Step::SetPriority(i, p) => {
                    if let Some(c) = nth(i) {
                        let p = Priority::new(p);
                        prop_assert_eq!(one.set_priority(c, p).is_ok(), chain.set_priority(c, p).is_ok());
                    }
                }
                Step::Migrate(i) => {
                    if let Some(c) = nth(i) {
                        let a = one.remove_for_migration(c).map(|(_, ck)| ck).ok();
                        let b = chain.remove_for_migration(c).map(|(_, ck)| ck).ok();
                        prop_assert_eq!(a, b, "checkpoints");
                    }
                }
                Step::FailNode(id) => {
                    let node = gae_types::NodeId::new(id);
                    prop_assert_eq!(one.fail_node(node).is_ok(), chain.fail_node(node).is_ok());
                }
                Step::Advance { span_ms, mut cuts } => {
                    let from = one.now();
                    let at = |ms: u64| from + SimDuration::from_millis(ms);
                    one.advance_to(at(span_ms));
                    cuts.sort_unstable();
                    for cut in cuts {
                        chain.advance_to(at(cut));
                    }
                    chain.advance_to(at(span_ms));
                }
            }
            prop_assert_eq!(one.drain_events(), chain.drain_events());
            prop_assert_eq!(observe(&one), observe(&chain));
        }
    }
}
