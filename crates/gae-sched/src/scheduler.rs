//! Site selection and concrete-plan construction.

use crate::provider::{SiteEstimate, SiteInfoProvider};
use gae_types::{
    AbstractPlan, ConcretePlan, GaeError, GaeResult, IdAllocator, OptimizationPreference, PlanId,
    SiteId, TaskAssignment, TaskId, TaskSpec,
};
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

/// One scored candidate, exposed for diagnostics and the ablation
/// benches.
#[derive(Clone, Copy, Debug)]
pub struct ScoredSite {
    /// The candidate site.
    pub site: SiteId,
    /// Its estimate.
    pub estimate: SiteEstimate,
}

impl Scheduler {
    /// Creates a scheduler over an information provider.
    pub fn new(info: Arc<dyn SiteInfoProvider>) -> Self {
        Scheduler {
            info,
            plan_ids: IdAllocator::new(),
        }
    }

    /// Scores all admissible sites for one task, cheapest-to-run
    /// first under the given preference. Excluded and dead sites are
    /// dropped; sites whose estimator fails are skipped (a site
    /// without a runtime estimator simply doesn't bid, §6.1a: "this
    /// depends on the availability of the runtime estimator at each
    /// of the sites").
    pub fn score_sites(
        &self,
        task: &TaskSpec,
        allowed: impl Fn(SiteId) -> bool,
        exclude: &[SiteId],
        preference: OptimizationPreference,
    ) -> Vec<ScoredSite> {
        self.score_tasks(&[task], |s| allowed(s) && !exclude.contains(&s), preference)
            .pop()
            .expect("one task, one candidate list")
    }

    /// The candidate list of each of `tasks`, in `tasks` order. A
    /// site's estimates do not depend on where the other tasks go, so
    /// each admissible live site is read once for all of them
    /// ([`SiteInfoProvider::estimate_all`]) rather than once per task.
    fn score_tasks(
        &self,
        tasks: &[&TaskSpec],
        admissible: impl Fn(SiteId) -> bool,
        preference: OptimizationPreference,
    ) -> Vec<Vec<ScoredSite>> {
        let mut scored: Vec<Vec<ScoredSite>> = vec![Vec::new(); tasks.len()];
        for site in self.info.sites() {
            if !admissible(site) || !self.info.is_alive(site) {
                continue;
            }
            for (bids, estimate) in scored.iter_mut().zip(self.info.estimate_all(site, tasks)) {
                if let Ok(estimate) = estimate {
                    bids.push(ScoredSite { site, estimate });
                }
            }
        }
        for bids in &mut scored {
            match preference {
                OptimizationPreference::Fast => bids.sort_by(|a, b| {
                    a.estimate
                        .expected_completion()
                        .cmp(&b.estimate.expected_completion())
                        .then(a.site.cmp(&b.site))
                }),
                OptimizationPreference::Cheap => bids.sort_by(|a, b| {
                    a.estimate
                        .cost
                        .partial_cmp(&b.estimate.cost)
                        .expect("costs are finite")
                        .then(a.site.cmp(&b.site))
                }),
            }
        }
        scored
    }

    /// Picks the best site for a task, or an error if no site bids.
    pub fn best_site(
        &self,
        task: &TaskSpec,
        allowed: impl Fn(SiteId) -> bool,
        exclude: &[SiteId],
        preference: OptimizationPreference,
    ) -> GaeResult<ScoredSite> {
        self.score_sites(task, allowed, exclude, preference)
            .into_iter()
            .next()
            .ok_or_else(|| {
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
    ///   sites within [`COLOCATION_TOLERANCE`].
    pub fn schedule(&self, plan: &AbstractPlan) -> GaeResult<ConcretePlan> {
        plan.job.validate()?;
        let order = plan.job.topological_order()?;
        let mut assignments: Vec<TaskAssignment> = Vec::with_capacity(order.len());
        let mut planned_load: std::collections::HashMap<SiteId, f64> =
            std::collections::HashMap::new();
        // Per-task placement + runtime, to discount ancestors below.
        let mut placed: std::collections::HashMap<TaskId, (SiteId, f64)> =
            std::collections::HashMap::new();
        let tasks: Vec<&TaskSpec> = order
            .iter()
            .map(|t| plan.job.task(*t).expect("validated task"))
            .collect();
        let scored = self.score_tasks(&tasks, |s| plan.site_allowed(s), plan.preference);
        for (task_id, scored) in order.into_iter().zip(scored) {
            if scored.is_empty() {
                return Err(GaeError::ResourceExhausted(format!(
                    "no admissible site for {task_id}"
                )));
            }
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
            let adjusted = |s: &ScoredSite| {
                let queued = planned_load.get(&s.site).copied().unwrap_or(0.0)
                    - ancestor_load.get(&s.site).copied().unwrap_or(0.0);
                s.estimate.expected_completion().as_secs_f64() + queued.max(0.0)
            };
            let best = match plan.preference {
                OptimizationPreference::Fast => *scored
                    .iter()
                    .min_by(|a, b| {
                        adjusted(a)
                            .partial_cmp(&adjusted(b))
                            .expect("finite")
                            .then(a.site.cmp(&b.site))
                    })
                    .expect("non-empty"),
                OptimizationPreference::Cheap => scored[0],
            };
            let mut chosen = best;
            // Prefer the first prerequisite's site within tolerance.
            let prereq_site = plan
                .job
                .prerequisites(task_id)
                .first()
                .and_then(|p| assignments.iter().find(|a| a.task == *p))
                .map(|a| a.site);
            if let Some(local) = prereq_site.and_then(|site| scored.iter().find(|s| s.site == site))
            {
                if adjusted(local) <= adjusted(&best) * (1.0 + COLOCATION_TOLERANCE) {
                    chosen = *local;
                }
            }
            let runtime_s = chosen.estimate.runtime.as_secs_f64();
            *planned_load.entry(chosen.site).or_insert(0.0) += runtime_s;
            placed.insert(task_id, (chosen.site, runtime_s));
            assignments.push(TaskAssignment {
                task: task_id,
                site: chosen.site,
            });
        }
        ConcretePlan::new(
            self.plan_ids.next::<PlanId>(),
            plan.job.clone(),
            assignments,
        )
    }

    /// Re-places one task of an existing plan, excluding given sites
    /// (the failed one, or the site the user is steering away from).
    /// Returns the revised plan with a bumped revision counter.
    pub fn reschedule_task(
        &self,
        plan: &ConcretePlan,
        task_id: TaskId,
        exclude: &[SiteId],
        preference: OptimizationPreference,
    ) -> GaeResult<ConcretePlan> {
        let task = plan
            .job
            .task(task_id)
            .ok_or_else(|| GaeError::NotFound(format!("{task_id} in {}", plan.id)))?;
        let choice = self.best_site(task, |_| true, exclude, preference)?;
        plan.reassigned(task_id, choice.site)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::StaticSiteInfo;
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

    /// Scoring a plan's tasks together gives each task the candidates,
    /// estimates and order that asking every site about it alone
    /// does — under both preferences, with a site restriction and
    /// with a dead site.
    #[test]
    fn tasks_scored_together_match_tasks_scored_alone() {
        fn alone(
            info: &dyn SiteInfoProvider,
            task: &TaskSpec,
            plan: &AbstractPlan,
        ) -> Vec<(SiteId, SiteEstimate)> {
            let mut bids: Vec<(SiteId, SiteEstimate)> = info
                .sites()
                .into_iter()
                .filter(|s| plan.site_allowed(*s) && info.is_alive(*s))
                .filter_map(|s| info.estimate(s, task).ok().map(|e| (s, e)))
                .collect();
            bids.sort_by(|a, b| match plan.preference {
                OptimizationPreference::Fast => {
                    a.1.expected_completion()
                        .cmp(&b.1.expected_completion())
                        .then(a.0.cmp(&b.0))
                }
                OptimizationPreference::Cheap => {
                    a.1.cost.partial_cmp(&b.1.cost).unwrap().then(a.0.cmp(&b.0))
                }
            });
            bids
        }
        let check = |info: Arc<dyn SiteInfoProvider>, plan: &AbstractPlan, bidders: usize| {
            let sched = Scheduler::new(info.clone());
            let tasks: Vec<&TaskSpec> = plan.job.tasks.iter().collect();
            let together = sched.score_tasks(&tasks, |s| plan.site_allowed(s), plan.preference);
            assert_eq!(together.len(), tasks.len());
            for (task, scored) in tasks.iter().zip(&together) {
                let scored: Vec<_> = scored.iter().map(|s| (s.site, s.estimate)).collect();
                assert_eq!(scored, alone(info.as_ref(), task, plan));
                assert_eq!(scored.len(), bidders);
            }
        };
        // Task-dependent estimates, both preferences.
        let mut plan = pipeline_job();
        for preference in [OptimizationPreference::Fast, OptimizationPreference::Cheap] {
            plan.preference = preference;
            check(
                Arc::new(PipelineInfo {
                    dependent_gap: 0.10,
                }),
                &plan,
                2,
            );
        }
        // Restricted and dead sites bid for no task.
        let info = three_sites();
        info.set_alive(SiteId::new(2), false);
        let mut plan = pipeline_job();
        plan.allowed_sites = vec![SiteId::new(1), SiteId::new(2)];
        check(info, &plan, 1);
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
    fn reschedule_excludes_failed_site() {
        let sched = Scheduler::new(three_sites());
        let plan = sched.schedule(&job(1)).unwrap();
        assert_eq!(plan.site_of(TaskId::new(1)), Some(SiteId::new(2)));
        let moved = sched
            .reschedule_task(
                &plan,
                TaskId::new(1),
                &[SiteId::new(2)],
                OptimizationPreference::Fast,
            )
            .unwrap();
        assert_eq!(moved.site_of(TaskId::new(1)), Some(SiteId::new(1)));
        assert_eq!(moved.revision, 1);
        // Excluding everything fails.
        let all = [SiteId::new(1), SiteId::new(2), SiteId::new(3)];
        assert!(sched
            .reschedule_task(&plan, TaskId::new(1), &all, OptimizationPreference::Fast)
            .is_err());
        // Unknown task fails.
        assert!(sched
            .reschedule_task(&plan, TaskId::new(9), &[], OptimizationPreference::Fast)
            .is_err());
    }

    #[test]
    fn score_sites_orders_candidates() {
        let sched = Scheduler::new(three_sites());
        let task = TaskSpec::new(TaskId::new(1), "t", "x");
        let scored = sched.score_sites(&task, |_| true, &[], OptimizationPreference::Fast);
        let order: Vec<u64> = scored.iter().map(|s| s.site.raw()).collect();
        assert_eq!(order, vec![2, 1, 3]);
        let cheap = sched.score_sites(&task, |_| true, &[], OptimizationPreference::Cheap);
        let order: Vec<u64> = cheap.iter().map(|s| s.site.raw()).collect();
        assert_eq!(order, vec![3, 2, 1]);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
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
