//! Site selection and concrete-plan construction.

use crate::provider::{Bid, SiteInfoProvider};
use gae_types::{
    AbstractPlan, ConcretePlan, GaeError, GaeResult, IdAllocator, OptimizationPreference, PlanId,
    SiteId, TaskAssignment, TaskId, TaskSpec,
};
use std::cmp::Ordering;
use std::sync::Arc;

/// Dependent-task colocation: a task with prerequisites prefers its
/// first prerequisite's site when that site's expected completion is
/// within this fraction of the best candidate's, so a pipeline keeps
/// its intermediate files off the WAN unless another site is more than
/// 25 % faster end to end.
const COLOCATION_TOLERANCE: f64 = 0.25;

/// The Sphinx-substitute scheduler.
pub struct Scheduler {
    info: Arc<dyn SiteInfoProvider>,
    plan_ids: IdAllocator,
}

/// The bid with the least `key` under `order`, ties going to the lower
/// site id: one pass, each key computed once. `f64::total_cmp` orders
/// every finite key as `partial_cmp` does, and a NaN cannot panic it.
fn least<K>(
    bids: &[Bid],
    key: impl Fn(&Bid) -> K,
    order: impl Fn(&K, &K) -> Ordering,
) -> Option<Bid> {
    bids.iter()
        .map(|bid| (key(bid), bid))
        .min_by(|(ka, a), (kb, b)| order(ka, kb).then(a.0.cmp(&b.0)))
        .map(|(_, bid)| *bid)
}

impl Scheduler {
    /// Creates a scheduler over an information provider.
    pub fn new(info: Arc<dyn SiteInfoProvider>) -> Self {
        Scheduler {
            info,
            plan_ids: IdAllocator::new(),
        }
    }

    /// Picks the best site for a task — the least expected completion
    /// (Fast) or cost (Cheap) among the live sites `allowed` accepts
    /// and `exclude` does not name — or an error if no site bids.
    pub fn best_site(
        &self,
        task: &TaskSpec,
        allowed: impl Fn(SiteId) -> bool,
        exclude: &[SiteId],
        preference: OptimizationPreference,
    ) -> GaeResult<Bid> {
        let bids = self
            .info
            .score_plan(&[task], &|s| allowed(s) && !exclude.contains(&s));
        let bids = bids.first().map_or(&[][..], Vec::as_slice);
        let best = match preference {
            OptimizationPreference::Fast => least(bids, |b| b.1.expected_completion(), Ord::cmp),
            OptimizationPreference::Cheap => least(bids, |b| b.1.cost, f64::total_cmp),
        };
        best.ok_or_else(|| {
            GaeError::ResourceExhausted(format!(
                "no admissible site for {} ({} excluded)",
                task.id,
                exclude.len()
            ))
        })
    }

    /// Produces a concrete plan for an abstract one: every task gets
    /// the best site under the plan's preference (§6.1 step e), with
    /// two plan-level refinements:
    ///
    /// * **intra-plan queueing** (fast preference): tasks already
    ///   placed at a site by *this* plan add their runtime as a queue
    ///   penalty there, so wide fan-outs spread across comparable
    ///   sites instead of piling onto whichever looked free first
    ///   (the external queue estimate cannot see them — none are
    ///   submitted yet);
    /// * **colocation**: dependent tasks prefer their prerequisites'
    ///   sites within `COLOCATION_TOLERANCE`.
    pub fn schedule(&self, plan: &AbstractPlan) -> GaeResult<ConcretePlan> {
        plan.job.validate()?;
        let order = plan.job.topological_order()?;
        let mut assignments: Vec<TaskAssignment> = Vec::with_capacity(order.len());
        let mut planned_load: std::collections::HashMap<SiteId, f64> =
            std::collections::HashMap::new();
        // Per-task placement + runtime, to discount ancestors below.
        let mut placed: std::collections::HashMap<TaskId, (SiteId, f64)> =
            std::collections::HashMap::new();
        let tasks = order
            .iter()
            .map(|t| {
                plan.job
                    .task(*t)
                    .map(Arc::as_ref)
                    .ok_or_else(|| GaeError::InvalidPlan(format!("{t} is not in {}", plan.job.id)))
            })
            .collect::<GaeResult<Vec<&TaskSpec>>>()?;
        let scored = self.info.score_plan(&tasks, &|s| plan.site_allowed(s));
        for (task_id, scored) in order.into_iter().zip(scored) {
            // Ancestors serialize with this task anyway (it starts
            // after they finish), so their planned load must not be
            // counted as queueing against it.
            let mut ancestor_load: std::collections::HashMap<SiteId, f64> =
                std::collections::HashMap::new();
            {
                let mut frontier = vec![task_id];
                let mut seen = std::collections::HashSet::new();
                while let Some(t) = frontier.pop() {
                    for p in plan.job.prerequisites(t) {
                        if seen.insert(p) {
                            if let Some((site, runtime)) = placed.get(&p) {
                                *ancestor_load.entry(*site).or_insert(0.0) += runtime;
                            }
                            frontier.push(p);
                        }
                    }
                }
            }
            // Fast preference: completion adjusted by this plan's own
            // earlier *parallel* placements (pessimistic serial
            // estimate). Cheap preference: cost does not change with
            // queueing.
            let adjusted = |(site, estimate): &Bid| {
                let queued = planned_load.get(site).copied().unwrap_or(0.0)
                    - ancestor_load.get(site).copied().unwrap_or(0.0);
                estimate.expected_completion().as_secs_f64() + queued.max(0.0)
            };
            let best = match plan.preference {
                OptimizationPreference::Fast => least(&scored, adjusted, f64::total_cmp),
                OptimizationPreference::Cheap => least(&scored, |b| b.1.cost, f64::total_cmp),
            };
            let Some(best) = best else {
                return Err(GaeError::ResourceExhausted(format!(
                    "no admissible site for {task_id}"
                )));
            };
            let mut chosen = best;
            // Prefer the first prerequisite's site within tolerance.
            let prereq_site = plan
                .job
                .prerequisites(task_id)
                .first()
                .and_then(|p| assignments.iter().find(|a| a.task == *p))
                .map(|a| a.site);
            if let Some(local) = prereq_site.and_then(|site| scored.iter().find(|b| b.0 == site)) {
                if adjusted(local) <= adjusted(&best) * (1.0 + COLOCATION_TOLERANCE) {
                    chosen = *local;
                }
            }
            let (site, estimate) = chosen;
            let runtime_s = estimate.runtime.as_secs_f64();
            *planned_load.entry(site).or_insert(0.0) += runtime_s;
            placed.insert(task_id, (site, runtime_s));
            assignments.push(TaskAssignment {
                task: task_id,
                site,
            });
        }
        ConcretePlan::new(
            self.plan_ids.next::<PlanId>(),
            plan.job.clone(),
            assignments,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::{SiteEstimate, StaticSiteInfo};
    use gae_types::{JobId, JobSpec, SimDuration, UserId};

    fn est(runtime: u64, queue: u64, transfer: u64, load: f64, cost: f64) -> SiteEstimate {
        SiteEstimate {
            runtime: SimDuration::from_secs(runtime),
            queue_time: SimDuration::from_secs(queue),
            transfer_time: SimDuration::from_secs(transfer),
            load,
            cost,
        }
    }

    fn three_sites() -> Arc<StaticSiteInfo> {
        let info = Arc::new(StaticSiteInfo::new());
        // Site 1: fast CPU, loaded. Site 2: free, slower. Site 3:
        // cheap, long queue.
        info.set(SiteId::new(1), est(100, 0, 0, 3.0, 10.0)); // completion 400
        info.set(SiteId::new(2), est(150, 0, 10, 0.0, 8.0)); // completion 160
        info.set(SiteId::new(3), est(120, 500, 0, 0.0, 1.0)); // completion 620
        info
    }

    fn job(tasks: u64) -> AbstractPlan {
        let mut j = JobSpec::new(JobId::new(1), "j", UserId::new(1));
        for i in 1..=tasks {
            j.add_task(TaskSpec::new(TaskId::new(i), format!("t{i}"), "reco"));
        }
        AbstractPlan::new(j)
    }

    #[test]
    fn fast_preference_minimises_completion() {
        let sched = Scheduler::new(three_sites());
        let plan = sched.schedule(&job(1)).unwrap();
        assert_eq!(plan.site_of(TaskId::new(1)), Some(SiteId::new(2)));
    }

    #[test]
    fn cheap_preference_minimises_cost() {
        let sched = Scheduler::new(three_sites());
        let plan = sched
            .schedule(&job(1).with_preference(OptimizationPreference::Cheap))
            .unwrap();
        assert_eq!(plan.site_of(TaskId::new(1)), Some(SiteId::new(3)));
    }

    #[test]
    fn site_restriction_honoured() {
        let sched = Scheduler::new(three_sites());
        let plan = sched
            .schedule(&job(1).restricted_to(vec![SiteId::new(1)]))
            .unwrap();
        assert_eq!(plan.site_of(TaskId::new(1)), Some(SiteId::new(1)));
    }

    #[test]
    fn dead_sites_do_not_bid() {
        let info = three_sites();
        info.set_alive(SiteId::new(2), false);
        let sched = Scheduler::new(info);
        let plan = sched.schedule(&job(1)).unwrap();
        // Next-best by completion is site 1 (400 < 620).
        assert_eq!(plan.site_of(TaskId::new(1)), Some(SiteId::new(1)));
    }

    #[test]
    fn no_sites_is_resource_exhausted() {
        let sched = Scheduler::new(Arc::new(StaticSiteInfo::new()));
        assert!(matches!(
            sched.schedule(&job(1)),
            Err(GaeError::ResourceExhausted(_))
        ));
    }

    #[test]
    fn multi_task_plans_assign_every_task() {
        let sched = Scheduler::new(three_sites());
        let plan = sched.schedule(&job(5)).unwrap();
        assert_eq!(plan.assignments.len(), 5);
        for i in 1..=5 {
            assert!(plan.site_of(TaskId::new(i)).is_some());
        }
        assert_eq!(plan.revision, 0);
    }

    /// A provider whose estimates depend on the task: the root task
    /// runs best at site 1, the dependent slightly better at site 2.
    struct PipelineInfo {
        /// Relative gap of site 1 vs site 2 for the dependent task.
        dependent_gap: f64,
    }

    impl SiteInfoProvider for PipelineInfo {
        fn sites(&self) -> Vec<SiteId> {
            vec![SiteId::new(1), SiteId::new(2)]
        }
        fn is_alive(&self, _site: SiteId) -> bool {
            true
        }
        fn estimate(&self, site: SiteId, task: &TaskSpec) -> gae_types::GaeResult<SiteEstimate> {
            let runtime = if task.id == TaskId::new(1) {
                // Root: site 1 clearly best.
                if site == SiteId::new(1) {
                    80.0
                } else {
                    120.0
                }
            } else {
                // Dependent: site 2 best by `dependent_gap`.
                if site == SiteId::new(1) {
                    100.0 * (1.0 + self.dependent_gap)
                } else {
                    100.0
                }
            };
            Ok(SiteEstimate {
                runtime: SimDuration::from_secs_f64(runtime),
                queue_time: SimDuration::ZERO,
                transfer_time: SimDuration::ZERO,
                load: 0.0,
                cost: 1.0,
            })
        }
    }

    fn pipeline_job() -> AbstractPlan {
        let mut j = JobSpec::new(JobId::new(1), "pipe", UserId::new(1));
        j.add_task(TaskSpec::new(TaskId::new(1), "a", "x"));
        j.add_task(TaskSpec::new(TaskId::new(2), "b", "x"));
        j.add_dependency(TaskId::new(1), TaskId::new(2));
        AbstractPlan::new(j)
    }

    #[test]
    fn colocation_keeps_pipelines_together_within_tolerance() {
        // Dependent is 10 % slower at the prerequisite's site: inside
        // the 25 % tolerance, so it stays.
        let sched = Scheduler::new(Arc::new(PipelineInfo {
            dependent_gap: 0.10,
        }));
        let plan = sched.schedule(&pipeline_job()).unwrap();
        assert_eq!(plan.site_of(TaskId::new(1)), Some(SiteId::new(1)));
        assert_eq!(
            plan.site_of(TaskId::new(2)),
            Some(SiteId::new(1)),
            "colocated"
        );
    }

    #[test]
    fn colocation_yields_when_the_gap_is_large() {
        // 60 % slower at the prerequisite's site: beyond tolerance,
        // the dependent moves to its own best site.
        let sched = Scheduler::new(Arc::new(PipelineInfo {
            dependent_gap: 0.60,
        }));
        let plan = sched.schedule(&pipeline_job()).unwrap();
        assert_eq!(plan.site_of(TaskId::new(1)), Some(SiteId::new(1)));
        assert_eq!(plan.site_of(TaskId::new(2)), Some(SiteId::new(2)), "split");
    }

    #[test]
    fn wide_fanout_spreads_over_equal_sites() {
        // Two identical sites; eight independent equal tasks must
        // split 4/4, not 8/0 (the intra-plan queue penalty at work).
        let info = Arc::new(StaticSiteInfo::new());
        info.set(SiteId::new(1), est(100, 0, 0, 0.0, 1.0));
        info.set(SiteId::new(2), est(100, 0, 0, 0.0, 1.0));
        let sched = Scheduler::new(info);
        let mut j = JobSpec::new(JobId::new(1), "fanout", UserId::new(1));
        for i in 1..=8 {
            j.add_task(TaskSpec::new(TaskId::new(i), format!("t{i}"), "x"));
        }
        let plan = sched.schedule(&AbstractPlan::new(j)).unwrap();
        let on_site1 = plan
            .assignments
            .iter()
            .filter(|a| a.site == SiteId::new(1))
            .count();
        assert_eq!(
            on_site1, 4,
            "8 equal tasks over 2 equal sites must split evenly"
        );
    }

    #[test]
    fn cheap_preference_ignores_intra_plan_queueing() {
        // Cheap preference stacks everything on the cheapest site no
        // matter the queue it builds — cost is cost.
        let sched = Scheduler::new(three_sites());
        let mut j = JobSpec::new(JobId::new(1), "fanout", UserId::new(1));
        for i in 1..=4 {
            j.add_task(TaskSpec::new(TaskId::new(i), format!("t{i}"), "x"));
        }
        let plan = sched
            .schedule(&AbstractPlan::new(j).with_preference(OptimizationPreference::Cheap))
            .unwrap();
        assert!(plan.assignments.iter().all(|a| a.site == SiteId::new(3)));
    }

    #[test]
    fn plan_ids_are_unique() {
        let sched = Scheduler::new(three_sites());
        let a = sched.schedule(&job(1)).unwrap();
        let b = sched.schedule(&job(1)).unwrap();
        assert_ne!(a.id, b.id);
    }

    #[test]
    fn best_site_takes_the_least_completion_or_cost() {
        let sched = Scheduler::new(three_sites());
        let task = TaskSpec::new(TaskId::new(1), "t", "x");
        let best = |exclude: &[SiteId], preference| {
            sched
                .best_site(&task, |_| true, exclude, preference)
                .unwrap()
                .0
                .raw()
        };
        assert_eq!(best(&[], OptimizationPreference::Fast), 2);
        assert_eq!(best(&[SiteId::new(2)], OptimizationPreference::Fast), 1);
        assert_eq!(best(&[], OptimizationPreference::Cheap), 3);
        assert_eq!(best(&[SiteId::new(3)], OptimizationPreference::Cheap), 2);
        // Excluding every site leaves no bid.
        let all = [SiteId::new(1), SiteId::new(2), SiteId::new(3)];
        let none = sched.best_site(&task, |_| true, &all, OptimizationPreference::Fast);
        assert!(matches!(none, Err(GaeError::ResourceExhausted(_))));
        // Equal bids go to the lower site id under both preferences.
        let info = Arc::new(StaticSiteInfo::new());
        for site in [3, 1, 2] {
            info.set(SiteId::new(site), est(100, 0, 0, 0.0, 1.0));
        }
        let sched = Scheduler::new(info);
        for preference in [OptimizationPreference::Fast, OptimizationPreference::Cheap] {
            let (site, _) = sched.best_site(&task, |_| true, &[], preference).unwrap();
            assert_eq!(site, SiteId::new(1));
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use std::collections::HashMap;

        /// A provider with an estimate per (site, task), absent where
        /// the site cannot estimate the task.
        struct TableInfo {
            sites: Vec<SiteId>,
            dead: Vec<SiteId>,
            table: HashMap<(SiteId, TaskId), SiteEstimate>,
        }

        impl SiteInfoProvider for TableInfo {
            fn sites(&self) -> Vec<SiteId> {
                self.sites.clone()
            }
            fn is_alive(&self, site: SiteId) -> bool {
                !self.dead.contains(&site)
            }
            fn estimate(&self, site: SiteId, task: &TaskSpec) -> GaeResult<SiteEstimate> {
                self.table
                    .get(&(site, task.id))
                    .copied()
                    .ok_or_else(|| GaeError::NotFound(format!("{} at {site}", task.id)))
            }
        }

        /// `schedule` as it was before it picked in one pass: each
        /// task's candidates asked for one by one and sorted under the
        /// preference (Fast by completion, Cheap by cost, ties by site
        /// id); Fast then takes the least adjusted completion, Cheap
        /// the head of the list.
        fn schedule_by_sorting(
            info: &dyn SiteInfoProvider,
            plan: &AbstractPlan,
        ) -> GaeResult<Vec<TaskAssignment>> {
            let mut assignments: Vec<TaskAssignment> = Vec::new();
            let mut planned_load: HashMap<SiteId, f64> = HashMap::new();
            let mut placed: HashMap<TaskId, (SiteId, f64)> = HashMap::new();
            for task_id in plan.job.topological_order()? {
                let task = plan.job.task(task_id).unwrap();
                let mut scored: Vec<Bid> = info
                    .sites()
                    .into_iter()
                    .filter(|s| plan.site_allowed(*s) && info.is_alive(*s))
                    .filter_map(|s| info.estimate(s, task).ok().map(|e| (s, e)))
                    .collect();
                scored.sort_by(|a, b| match plan.preference {
                    OptimizationPreference::Fast => {
                        a.1.expected_completion()
                            .cmp(&b.1.expected_completion())
                            .then(a.0.cmp(&b.0))
                    }
                    OptimizationPreference::Cheap => {
                        a.1.cost.partial_cmp(&b.1.cost).unwrap().then(a.0.cmp(&b.0))
                    }
                });
                if scored.is_empty() {
                    return Err(GaeError::ResourceExhausted(task_id.to_string()));
                }
                let mut ancestor_load: HashMap<SiteId, f64> = HashMap::new();
                let mut frontier = vec![task_id];
                let mut seen = std::collections::HashSet::new();
                while let Some(t) = frontier.pop() {
                    for p in plan.job.prerequisites(t) {
                        if seen.insert(p) {
                            if let Some((site, runtime)) = placed.get(&p) {
                                *ancestor_load.entry(*site).or_insert(0.0) += runtime;
                            }
                            frontier.push(p);
                        }
                    }
                }
                let adjusted = |b: &Bid| {
                    let queued = planned_load.get(&b.0).copied().unwrap_or(0.0)
                        - ancestor_load.get(&b.0).copied().unwrap_or(0.0);
                    b.1.expected_completion().as_secs_f64() + queued.max(0.0)
                };
                let best = match plan.preference {
                    OptimizationPreference::Fast => *scored
                        .iter()
                        .min_by(|a, b| {
                            adjusted(a)
                                .partial_cmp(&adjusted(b))
                                .unwrap()
                                .then(a.0.cmp(&b.0))
                        })
                        .unwrap(),
                    OptimizationPreference::Cheap => scored[0],
                };
                let mut chosen = best;
                let prereq_site = plan
                    .job
                    .prerequisites(task_id)
                    .first()
                    .and_then(|p| assignments.iter().find(|a| a.task == *p))
                    .map(|a| a.site);
                if let Some(local) = prereq_site.and_then(|s| scored.iter().find(|b| b.0 == s)) {
                    if adjusted(local) <= adjusted(&best) * (1.0 + COLOCATION_TOLERANCE) {
                        chosen = *local;
                    }
                }
                let runtime_s = chosen.1.runtime.as_secs_f64();
                *planned_load.entry(chosen.0).or_insert(0.0) += runtime_s;
                placed.insert(task_id, (chosen.0, runtime_s));
                assignments.push(TaskAssignment {
                    task: task_id,
                    site: chosen.0,
                });
            }
            Ok(assignments)
        }

        /// One (site, task) estimate from a few values each, so equal
        /// completions and equal costs are common; `None` = no bid.
        fn table_entry() -> impl Strategy<Value = Option<SiteEstimate>> {
            (0u64..7, 0u64..3, 0u64..2, 0u64..2, 0u64..2, 0u64..3).prop_map(
                |(absent, runtime, queue, transfer, load, cost)| {
                    (absent > 0).then(|| SiteEstimate {
                        runtime: SimDuration::from_secs(50 + 50 * runtime),
                        queue_time: SimDuration::from_secs(50 * queue),
                        transfer_time: SimDuration::from_secs(50 * transfer),
                        load: load as f64,
                        cost: 1.0 + cost as f64,
                    })
                },
            )
        }

        proptest! {
            /// Picking in one pass places every task where sorting each
            /// task's candidates first did, under both preferences,
            /// with ties in completion and cost, dead sites, sites that
            /// cannot estimate a task and a site restriction.
            #[test]
            fn schedule_equals_the_sorted_candidate_oracle(
                task_count in 1u64..9,
                edges in prop::collection::vec((0u64..9, 0u64..9), 0..12),
                table in prop::collection::vec(table_entry(), 6 * 9),
                site_count in 1u64..7,
                dead_mask in prop::collection::vec(any::<bool>(), 6),
                allowed_mask in prop::collection::vec(any::<bool>(), 6),
                restrict in any::<bool>(),
                cheap in any::<bool>(),
            ) {
                let sites: Vec<SiteId> = (1..=site_count).map(SiteId::new).collect();
                let mut info = TableInfo {
                    dead: sites.iter().copied().filter(|s| dead_mask[s.raw() as usize - 1]).collect(),
                    sites: sites.clone(),
                    table: HashMap::new(),
                };
                let mut job = JobSpec::new(JobId::new(1), "prop", UserId::new(1));
                for i in 1..=task_count {
                    job.add_task(TaskSpec::new(TaskId::new(i), format!("t{i}"), "x"));
                    for site in &sites {
                        if let Some(e) = table[((site.raw() - 1) * 9 + i - 1) as usize] {
                            info.table.insert((*site, TaskId::new(i)), e);
                        }
                    }
                }
                for (a, b) in edges {
                    let (a, b) = (a % task_count + 1, b % task_count + 1);
                    if a < b {
                        job.add_dependency(TaskId::new(a), TaskId::new(b));
                    }
                }
                let mut plan = AbstractPlan::new(job);
                if cheap {
                    plan.preference = OptimizationPreference::Cheap;
                }
                if restrict {
                    plan.allowed_sites =
                        sites.iter().copied().filter(|s| allowed_mask[s.raw() as usize - 1]).collect();
                }
                let info = Arc::new(info);
                let picked = Scheduler::new(info.clone()).schedule(&plan).map(|p| p.assignments);
                let sorted = schedule_by_sorting(info.as_ref(), &plan);
                match (picked, sorted) {
                    (Ok(picked), Ok(sorted)) => {
                        prop_assert_eq!(format!("{picked:?}"), format!("{sorted:?}"))
                    }
                    (Err(GaeError::ResourceExhausted(_)), Err(GaeError::ResourceExhausted(_))) => {}
                    (picked, sorted) => prop_assert!(false, "{picked:?} vs {sorted:?}"),
                }
            }

            /// Any random DAG over random sites schedules into a plan
            /// that (a) validates, (b) honours site restrictions, and
            /// (c) never places on dead sites.
            #[test]
            fn plans_are_always_well_formed(
                task_count in 1u64..12,
                edges in prop::collection::vec((0u64..12, 0u64..12), 0..16),
                site_runtimes in prop::collection::vec(1u64..1_000, 1..5),
                dead_mask in prop::collection::vec(any::<bool>(), 1..5),
                restrict in any::<bool>(),
            ) {
                let info = Arc::new(StaticSiteInfo::new());
                let mut alive = Vec::new();
                for (i, rt) in site_runtimes.iter().enumerate() {
                    let site = SiteId::new(i as u64 + 1);
                    info.set(site, est(*rt, 0, 0, 0.0, *rt as f64));
                    let dead = dead_mask.get(i).copied().unwrap_or(false);
                    info.set_alive(site, !dead);
                    if !dead {
                        alive.push(site);
                    }
                }
                let mut job = JobSpec::new(JobId::new(1), "prop", UserId::new(1));
                for i in 1..=task_count {
                    job.add_task(TaskSpec::new(TaskId::new(i), format!("t{i}"), "x"));
                }
                // Forward-only edges keep the DAG acyclic.
                for (a, b) in edges {
                    let (a, b) = (a % task_count + 1, b % task_count + 1);
                    if a < b {
                        job.add_dependency(TaskId::new(a), TaskId::new(b));
                    }
                }
                let mut abstract_plan = AbstractPlan::new(job);
                let allowed: Vec<SiteId> = if restrict && alive.len() > 1 {
                    alive[..1].to_vec()
                } else {
                    Vec::new()
                };
                abstract_plan.allowed_sites = allowed.clone();
                match Scheduler::new(info).schedule(&abstract_plan) {
                    Ok(plan) => {
                        // (a) every task assigned exactly once is
                        // enforced by ConcretePlan::new; re-validate.
                        prop_assert_eq!(plan.assignments.len(), task_count as usize);
                        for a in &plan.assignments {
                            // (b) restrictions honoured.
                            if !allowed.is_empty() {
                                prop_assert!(allowed.contains(&a.site));
                            }
                            // (c) never a dead site.
                            prop_assert!(alive.contains(&a.site), "dead site {:?}", a.site);
                        }
                    }
                    Err(e) => {
                        // Only legitimate when no site can bid.
                        let no_candidates = alive.is_empty()
                            || (!allowed.is_empty()
                                && !allowed.iter().any(|s| alive.contains(s)));
                        prop_assert!(no_candidates, "unexpected failure: {e}");
                    }
                }
            }
        }
    }

    #[test]
    fn invalid_job_rejected_before_scoring() {
        let sched = Scheduler::new(three_sites());
        let mut j = JobSpec::new(JobId::new(1), "j", UserId::new(1));
        j.add_task(TaskSpec::new(TaskId::new(1), "a", "x"));
        j.add_dependency(TaskId::new(1), TaskId::new(1));
        assert!(sched.schedule(&AbstractPlan::new(j)).is_err());
    }
}
