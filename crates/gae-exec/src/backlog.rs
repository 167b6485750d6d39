//! The backlog index: the §6.2 sum kept ready instead of walked.
//!
//! The queue-time estimate is "the sum of the estimated remaining
//! runtimes of the queued higher-priority tasks" (§6.2), and the
//! scheduler reads it for every site on every decision (§6.1). This
//! index holds what that sum needs so a read costs O(priorities +
//! slots) however many records the site has accumulated:
//!
//! * the set of *running* tasks — at most one per slot; their
//!   remaining time shrinks as they accrue, so it is read from the
//!   records at query time;
//! * per priority, the count and summed remaining estimate of the
//!   *queued* tasks that carry a submission-time estimate — a queued
//!   task accrues nothing, so its contribution is fixed while it
//!   queues.
//!
//! It is derived state: rebuilt from nothing by the transitions that
//! feed it, never encoded, journaled or digested. The service makes
//! every change of a record's status, priority or estimate through
//! [`BacklogIndex::update`].

use crate::task::TaskRecord;
use gae_types::{CondorId, Priority, SimDuration, TaskStatus};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

#[derive(Default)]
pub(crate) struct BacklogIndex {
    running: BTreeSet<CondorId>,
    queued: BTreeMap<Priority, (usize, SimDuration)>,
}

impl BacklogIndex {
    /// Applies `change` — the only way a record's status, priority or
    /// estimate may change — and re-indexes the record around it. A
    /// queued record's `accrued` must not move while it is indexed.
    pub(crate) fn update<R>(
        &mut self,
        rec: &mut TaskRecord,
        change: impl FnOnce(&mut TaskRecord) -> R,
    ) -> R {
        self.leave(rec);
        let out = change(rec);
        self.enter(rec);
        out
    }

    /// Indexes `rec` as its status, priority and estimate stand now.
    fn enter(&mut self, rec: &TaskRecord) {
        match (rec.status(), rec.estimated_remaining(rec.accrued)) {
            (TaskStatus::Running, _) => {
                self.running.insert(rec.condor);
            }
            (TaskStatus::Queued, Some(remaining)) => {
                let (count, sum) = self
                    .queued
                    .entry(rec.priority)
                    .or_insert((0, SimDuration::ZERO));
                *count += 1;
                *sum += remaining;
            }
            _ => {}
        }
    }

    /// Undoes [`BacklogIndex::enter`]; `rec` must be unchanged since.
    fn leave(&mut self, rec: &TaskRecord) {
        match (rec.status(), rec.estimated_remaining(rec.accrued)) {
            (TaskStatus::Running, _) => {
                self.running.remove(&rec.condor);
            }
            (TaskStatus::Queued, Some(remaining)) => {
                if let Some((count, sum)) = self.queued.get_mut(&rec.priority) {
                    *count -= 1;
                    *sum -= remaining;
                    if *count == 0 {
                        self.queued.remove(&rec.priority);
                    }
                }
            }
            _ => {}
        }
    }

    /// The running tasks, in Condor-id order.
    pub(crate) fn running(&self) -> &BTreeSet<CondorId> {
        &self.running
    }

    /// Summed remaining estimates of queued tasks strictly above `p`.
    pub(crate) fn queued_above(&self, p: Priority) -> SimDuration {
        self.queued
            .range((Bound::Excluded(p), Bound::Unbounded))
            .map(|(_, (_, sum))| *sum)
            .sum()
    }

    /// `(priority, tasks, summed remaining estimate)` per indexed
    /// priority level, ascending.
    #[cfg(test)]
    pub(crate) fn queued_levels(&self) -> Vec<(Priority, usize, SimDuration)> {
        self.queued
            .iter()
            .map(|(p, (count, sum))| (*p, *count, *sum))
            .collect()
    }
}

/// The differential suite: after every operation of a random sequence
/// the index answers exactly what a walk of the records answers, and
/// the cached next-event instant what a scan of the pending work does.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecutionService, SiteConfig};
    use gae_sim::LoadTrace;
    use gae_types::{NodeId, SimTime, SiteDescription, SiteId, TaskId, TaskSpec};
    use proptest::prelude::*;

    #[derive(Clone, Debug)]
    enum Op {
        Submit {
            demand_s: u64,
            priority: i32,
            checkpointable: bool,
            stage_in_s: u64,
            /// Estimate recorded right after the submit, as a
            /// percentage of the demand; `None` = never (or late).
            estimate_pct: Option<u64>,
        },
        Advance(u64),
        Suspend(usize),
        Resume(usize),
        Kill(usize),
        SetPriority(usize, i32),
        Migrate(usize),
        FailStaging(usize),
        Restage(usize, u64),
        SetEstimate(usize, Option<u64>),
        FailNode(u64),
        RecoverNode(u64),
        FailSite,
        RecoverSite,
        Preemptive(bool),
    }

    fn arb_estimate() -> impl Strategy<Value = Option<u64>> {
        prop_oneof![Just(None), (0u64..300).prop_map(Some)]
    }

    fn arb_submit() -> impl Strategy<Value = Op> {
        (
            1u64..2_000,
            -10i32..=10,
            any::<bool>(),
            prop_oneof![Just(0u64), Just(0u64), 1u64..200],
            arb_estimate(),
        )
            .prop_map(
                |(demand_s, priority, checkpointable, stage_in_s, estimate_pct)| Op::Submit {
                    demand_s,
                    priority,
                    checkpointable,
                    stage_in_s,
                    estimate_pct,
                },
            )
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            arb_submit(),
            arb_submit(),
            arb_submit(),
            (0u64..400).prop_map(Op::Advance),
            (0u64..400).prop_map(Op::Advance),
            (0usize..40).prop_map(Op::Suspend),
            (0usize..40).prop_map(Op::Resume),
            (0usize..40).prop_map(Op::Kill),
            ((0usize..40), -10i32..=10).prop_map(|(i, p)| Op::SetPriority(i, p)),
            (0usize..40).prop_map(Op::Migrate),
            (0usize..40).prop_map(Op::FailStaging),
            ((0usize..40), 0u64..600).prop_map(|(i, s)| Op::Restage(i, s)),
            ((0usize..40), arb_estimate()).prop_map(|(i, e)| Op::SetEstimate(i, e)),
            (1u64..4).prop_map(Op::FailNode),
            (1u64..4).prop_map(Op::RecoverNode),
            Just(Op::FailSite),
            Just(Op::RecoverSite),
            any::<bool>().prop_map(Op::Preemptive),
        ]
    }

    /// §6.2 by the walk it was specified as: every running or queued
    /// record above `p`, its estimate less its elapsed runtime.
    fn backlog_by_walk(svc: &ExecutionService, p: Priority) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for (condor, _task, elapsed) in svc.tasks_above_priority(p) {
            if let Some(estimated) = svc.record(condor).expect("walked record").estimated {
                total += estimated.saturating_sub(elapsed);
            }
        }
        total
    }

    fn assert_index_matches_records(svc: &ExecutionService) {
        for level in -11..=11 {
            let p = Priority::new(level);
            assert_eq!(svc.backlog_above(p), backlog_by_walk(svc, p), "above {p}");
        }
        let index = svc.backlog_index();
        let running: BTreeSet<CondorId> = svc
            .records()
            .filter(|r| r.status() == TaskStatus::Running)
            .map(|r| r.condor)
            .collect();
        assert_eq!(index.running(), &running);
        assert_eq!(svc.running_count(), running.len());
        let mut queued: BTreeMap<Priority, (usize, SimDuration)> = BTreeMap::new();
        for r in svc.records().filter(|r| r.status() == TaskStatus::Queued) {
            if let Some(remaining) = r.estimated_remaining(svc.usage(r).accrued()) {
                let (count, sum) = queued.entry(r.priority).or_default();
                *count += 1;
                *sum += remaining;
            }
        }
        let queued: Vec<_> = queued.into_iter().map(|(p, (n, s))| (p, n, s)).collect();
        assert_eq!(index.queued_levels(), queued);
    }

    fn estimate_of(demand_s: u64, pct: u64) -> SimDuration {
        SimDuration::from_millis(demand_s * pct * 10)
    }

    proptest! {
        #[test]
        fn backlog_index_equals_the_record_walk(ops in prop::collection::vec(arb_op(), 1..120)) {
            let mut svc = ExecutionService::new(SiteConfig {
                description: SiteDescription::new(SiteId::new(1), "prop", 3, 1),
                node_traces: vec![
                    LoadTrace::free(),
                    LoadTrace::constant(1.0),
                    LoadTrace::constant(3.0),
                ],
            });
            let mut submitted: Vec<(CondorId, u64)> = Vec::new();
            for op in ops {
                let nth = |i: usize| submitted.get(i).copied();
                match op {
                    Op::Submit { demand_s, priority, checkpointable, stage_in_s, estimate_pct } => {
                        let spec = TaskSpec::new(TaskId::new(submitted.len() as u64 + 1), "t", "x")
                            .with_cpu_demand(SimDuration::from_secs(demand_s))
                            .with_priority(Priority::new(priority))
                            .with_checkpointable(checkpointable);
                        let stage_in = SimDuration::from_secs(stage_in_s);
                        if let Ok(c) = svc.submit_staged(spec.into(), None, stage_in) {
                            submitted.push((c, demand_s));
                            if let Some(pct) = estimate_pct {
                                svc.set_estimate(c, Some(estimate_of(demand_s, pct))).unwrap();
                            }
                        }
                    }
                    Op::Advance(secs) => svc.advance_to(svc.now() + SimDuration::from_secs(secs)),
                    Op::Suspend(i) => {
                        if let Some((c, _)) = nth(i) {
                            let _ = svc.suspend(c);
                        }
                    }
                    Op::Resume(i) => {
                        if let Some((c, _)) = nth(i) {
                            let _ = svc.resume(c);
                        }
                    }
                    Op::Kill(i) => {
                        if let Some((c, _)) = nth(i) {
                            let _ = svc.kill(c);
                        }
                    }
                    Op::SetPriority(i, p) => {
                        if let Some((c, _)) = nth(i) {
                            let _ = svc.set_priority(c, Priority::new(p));
                        }
                    }
                    Op::Migrate(i) => {
                        if let Some((c, _)) = nth(i) {
                            let _ = svc.remove_for_migration(c);
                        }
                    }
                    Op::FailStaging(i) => {
                        if let Some((c, _)) = nth(i) {
                            let _ = svc.fail_staging(c, "link down");
                        }
                    }
                    Op::Restage(i, secs) => {
                        if let Some((c, _)) = nth(i) {
                            // −300 s ..= +300 s around the clock.
                            let us = svc.now().as_micros() + secs * 1_000_000;
                            let until = SimTime::from_micros(us.saturating_sub(300_000_000));
                            let _ = svc.restage(c, until);
                        }
                    }
                    Op::SetEstimate(i, pct) => {
                        if let Some((c, demand_s)) = nth(i) {
                            let estimate = pct.map(|pct| estimate_of(demand_s, pct));
                            let before = svc.record(c).unwrap().estimated;
                            prop_assert_eq!(svc.set_estimate(c, estimate).unwrap(), before);
                        }
                    }
                    Op::FailNode(n) => svc.fail_node(NodeId::new(n)).unwrap(),
                    Op::RecoverNode(n) => svc.recover_node(NodeId::new(n)).unwrap(),
                    Op::FailSite => svc.fail_site(),
                    Op::RecoverSite => svc.recover_site(),
                    Op::Preemptive(on) => svc.set_preemptive(on),
                }
                assert_index_matches_records(&svc);
                prop_assert_eq!(svc.next_event_time(), svc.naive_next_event_time());
            }

            // Settle everything: nothing may stay indexed behind a
            // task that no longer runs or queues.
            svc.recover_site();
            for &(c, _) in &submitted {
                let _ = svc.resume(c);
            }
            svc.advance_to(svc.now() + SimDuration::from_secs(10_000_000));
            assert_index_matches_records(&svc);
            prop_assert_eq!(svc.next_event_time(), svc.naive_next_event_time());
            prop_assert!(svc.records().all(|r| !matches!(
                r.status(),
                TaskStatus::Pending
                    | TaskStatus::Queued
                    | TaskStatus::Running
                    | TaskStatus::Suspended
            )));
            prop_assert!(svc.backlog_index().running().is_empty());
            prop_assert_eq!(svc.backlog_index().queued_levels(), vec![]);
            prop_assert_eq!(svc.backlog_above(Priority::new(i32::MIN)), SimDuration::ZERO);
        }
    }

    #[test]
    fn unknown_task_takes_no_estimate() {
        let mut svc = ExecutionService::new(SiteConfig::free(SiteDescription::new(
            SiteId::new(1),
            "s",
            1,
            1,
        )));
        assert!(svc
            .set_estimate(CondorId::new(7), Some(SimDuration::from_secs(1)))
            .is_err());
        assert_eq!(svc.now(), SimTime::ZERO);
    }
}
