//! The Subscriber's bookkeeping (§4.2.1).
//!
//! "A scheduler sends a 'concrete job plan' to the Steering Service.
//! The Subscriber analyzes the received job plan to get the list of
//! Execution Services to be used for the execution of the job."
//!
//! The bookkeeping is journaled: [`SteeringOp`] is its WAL language,
//! and its codecs — a plan with its job spec, a task's phase and
//! counters, a whole tracked job for the snapshot — live here.

use crate::persist::{array_of, Journal};
use crate::submit::{job_from_value, job_to_value};
use gae_types::{
    ConcretePlan, CondorId, GaeError, GaeResult, JobId, PlanId, SiteId, TaskAssignment, TaskId,
    UserId,
};
use gae_wire::Value;
use std::borrow::Cow;
use std::collections::HashMap;

/// Where one task currently is in its steering lifecycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TaskPhase {
    /// Prerequisites not yet complete; not submitted anywhere.
    WaitingPrereqs,
    /// Submitted to a site's execution service.
    Submitted {
        /// Hosting site.
        site: SiteId,
        /// Site-local id.
        condor: CondorId,
    },
    /// Completed successfully at `site`.
    Done {
        /// Where it completed.
        site: SiteId,
    },
    /// Permanently failed (recovery exhausted).
    Failed,
    /// Killed by a steering command.
    Killed,
}

impl TaskPhase {
    /// True once the task needs no further steering.
    pub fn is_settled(self) -> bool {
        matches!(
            self,
            TaskPhase::Done { .. } | TaskPhase::Failed | TaskPhase::Killed
        )
    }
}

/// Steering-side record of one task.
#[derive(Clone, Debug)]
pub struct TrackedTask {
    /// The task.
    pub task: TaskId,
    /// Current phase.
    pub phase: TaskPhase,
    /// Recovery resubmissions so far.
    pub recovery_attempts: u32,
    /// Autonomous/manual moves so far.
    pub moves: u32,
}

/// Steering-side record of one job (the subscribed plan plus task
/// phases).
#[derive(Clone, Debug)]
pub struct TrackedJob {
    /// The concrete plan, kept current across reschedules.
    pub plan: ConcretePlan,
    /// Per-task steering state.
    pub tasks: HashMap<TaskId, TrackedTask>,
    /// Whether the client was already told the job finished.
    pub completion_notified: bool,
}

impl TrackedJob {
    /// Subscribes a plan: every task starts unsubmitted.
    pub fn subscribe(plan: ConcretePlan) -> GaeResult<TrackedJob> {
        plan.job.validate()?;
        let tasks = plan
            .job
            .task_ids()
            .into_iter()
            .map(|t| {
                (
                    t,
                    TrackedTask {
                        task: t,
                        phase: TaskPhase::WaitingPrereqs,
                        recovery_attempts: 0,
                        moves: 0,
                    },
                )
            })
            .collect();
        Ok(TrackedJob {
            plan,
            tasks,
            completion_notified: false,
        })
    }

    /// The job's owner (for the Session Manager).
    pub fn owner(&self) -> UserId {
        self.plan.job.owner
    }

    /// The execution services the plan uses — what the paper's
    /// Subscriber extracts.
    pub fn sites(&self) -> Vec<SiteId> {
        self.plan.sites()
    }

    /// Tasks whose prerequisites are all done and which are still
    /// waiting — ready for submission.
    pub fn ready_tasks(&self) -> Vec<TaskId> {
        self.plan
            .job
            .task_ids()
            .into_iter()
            .filter(|t| {
                matches!(self.tasks[t].phase, TaskPhase::WaitingPrereqs)
                    && self
                        .plan
                        .job
                        .prerequisites(*t)
                        .iter()
                        .all(|p| matches!(self.tasks[p].phase, TaskPhase::Done { .. }))
            })
            .collect()
    }

    /// True once every task reached a settled phase.
    pub fn is_settled(&self) -> bool {
        self.tasks.values().all(|t| t.phase.is_settled())
    }

    /// True if every task completed successfully.
    pub fn is_completed(&self) -> bool {
        self.tasks
            .values()
            .all(|t| matches!(t.phase, TaskPhase::Done { .. }))
    }

    /// True if any task permanently failed or was killed.
    pub fn is_failed(&self) -> bool {
        self.tasks
            .values()
            .any(|t| matches!(t.phase, TaskPhase::Failed | TaskPhase::Killed))
    }

    /// Where a task currently runs, if submitted.
    pub fn location(&self, task: TaskId) -> Option<(SiteId, CondorId)> {
        match self.tasks.get(&task)?.phase {
            TaskPhase::Submitted { site, condor } => Some((site, condor)),
            _ => None,
        }
    }
}

/// The Subscriber's journal: every change to the tracker, as one WAL
/// record.
#[derive(Debug)]
pub(crate) enum SteeringOp<'a> {
    /// A job's current plan — job spec and owner included, so a plan is
    /// reconstructible from the log alone.
    Plan(Cow<'a, ConcretePlan>),
    /// One task's tracked state.
    Task(JobId, TrackedTask),
    /// The job's completion notice went out.
    Notified(JobId),
}

impl SteeringOp<'_> {
    /// The current plan of `job`.
    pub(crate) fn plan_of(job: &TrackedJob) -> Option<SteeringOp<'_>> {
        Some(SteeringOp::Plan(Cow::Borrowed(&job.plan)))
    }

    /// The tracked state of `task` in `job`, if `job` tracks it.
    pub(crate) fn task_of(job: &TrackedJob, task: TaskId) -> Option<SteeringOp<'_>> {
        let tracked = job.tasks.get(&task)?.clone();
        Some(SteeringOp::Task(job.plan.job_id(), tracked))
    }
}

impl Journal for SteeringOp<'_> {
    const KINDS: &'static [&'static str] = &["plan", "task", "notified"];

    fn kind(&self) -> &'static str {
        match self {
            SteeringOp::Plan(_) => "plan",
            SteeringOp::Task(..) => "task",
            SteeringOp::Notified(_) => "notified",
        }
    }

    fn encode(&self) -> Value {
        match self {
            SteeringOp::Plan(plan) => plan_to_record(plan),
            SteeringOp::Task(job, task) => task_to_record(*job, task),
            SteeringOp::Notified(job) => Value::struct_of([("job", Value::from(job.raw()))]),
        }
    }

    fn decode(kind: &str, v: &Value) -> GaeResult<Self> {
        Ok(match kind {
            "plan" => SteeringOp::Plan(Cow::Owned(plan_from_record(v)?)),
            "task" => task_from_record(v).map(|(job, task)| SteeringOp::Task(job, task))?,
            _ => SteeringOp::Notified(JobId::new(v.member("job")?.as_u64()?)),
        })
    }
}

/// Full plan record: unlike the RPC `plan_to_value`, this embeds the
/// job spec and owner so a plan is reconstructible from the log alone.
pub(crate) fn plan_to_record(plan: &ConcretePlan) -> Value {
    Value::struct_of([
        ("id", Value::from(plan.id.raw())),
        ("revision", Value::from(u64::from(plan.revision))),
        ("owner", Value::from(plan.job.owner.raw())),
        ("job", job_to_value(&plan.job)),
        (
            "assignments",
            Value::Array(
                plan.assignments
                    .iter()
                    .map(|a| {
                        Value::struct_of([
                            ("task", Value::from(a.task.raw())),
                            ("site", Value::from(a.site.raw())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

pub(crate) fn plan_from_record(v: &Value) -> GaeResult<ConcretePlan> {
    let owner = UserId::new(v.member("owner")?.as_u64()?);
    let job = job_from_value(v.member("job")?, owner)?;
    let assignments = array_of(v.member("assignments")?, |a| {
        Ok(TaskAssignment {
            task: TaskId::new(a.member("task")?.as_u64()?),
            site: SiteId::new(a.member("site")?.as_u64()?),
        })
    })?;
    let mut plan = ConcretePlan::new(PlanId::new(v.member("id")?.as_u64()?), job, assignments)?;
    plan.revision = u32::try_from(v.member("revision")?.as_u64()?)
        .map_err(|_| GaeError::Parse("plan revision out of range".into()))?;
    Ok(plan)
}

fn phase_to_value(phase: TaskPhase) -> Value {
    match phase {
        TaskPhase::WaitingPrereqs => Value::struct_of([("kind", Value::from("waiting"))]),
        TaskPhase::Submitted { site, condor } => Value::struct_of([
            ("kind", Value::from("submitted")),
            ("site", Value::from(site.raw())),
            ("condor", Value::from(condor.raw())),
        ]),
        TaskPhase::Done { site } => Value::struct_of([
            ("kind", Value::from("done")),
            ("site", Value::from(site.raw())),
        ]),
        TaskPhase::Failed => Value::struct_of([("kind", Value::from("failed"))]),
        TaskPhase::Killed => Value::struct_of([("kind", Value::from("killed"))]),
    }
}

fn phase_from_value(v: &Value) -> GaeResult<TaskPhase> {
    Ok(match v.member("kind")?.as_str()? {
        "waiting" => TaskPhase::WaitingPrereqs,
        "submitted" => TaskPhase::Submitted {
            site: SiteId::new(v.member("site")?.as_u64()?),
            condor: CondorId::new(v.member("condor")?.as_u64()?),
        },
        "done" => TaskPhase::Done {
            site: SiteId::new(v.member("site")?.as_u64()?),
        },
        "failed" => TaskPhase::Failed,
        "killed" => TaskPhase::Killed,
        other => return Err(GaeError::Parse(format!("unknown task phase {other:?}"))),
    })
}

pub(crate) fn task_to_record(job: JobId, t: &TrackedTask) -> Value {
    Value::struct_of([
        ("job", Value::from(job.raw())),
        ("task", Value::from(t.task.raw())),
        ("phase", phase_to_value(t.phase)),
        (
            "recovery_attempts",
            Value::from(u64::from(t.recovery_attempts)),
        ),
        ("moves", Value::from(u64::from(t.moves))),
    ])
}

/// Decodes one task record. A counter past `u32` is refused, not
/// truncated: `2³² + 1` recovery attempts read as 1 would re-arm a task
/// whose recovery budget is spent.
pub(crate) fn task_from_record(v: &Value) -> GaeResult<(JobId, TrackedTask)> {
    let counter = |name: &str| {
        u32::try_from(v.member(name)?.as_u64()?)
            .map_err(|_| GaeError::Parse(format!("task {name} out of range")))
    };
    let job = JobId::new(v.member("job")?.as_u64()?);
    let task = TaskId::new(v.member("task")?.as_u64()?);
    Ok((
        job,
        TrackedTask {
            task,
            phase: phase_from_value(v.member("phase")?)?,
            recovery_attempts: counter("recovery_attempts")?,
            moves: counter("moves")?,
        },
    ))
}

/// One tracked job as a snapshot element: its plan, its notice, and
/// its task records in task-id order.
pub(crate) fn tracked_job_to_value(j: &TrackedJob) -> Value {
    let mut task_ids: Vec<&TaskId> = j.tasks.keys().collect();
    task_ids.sort();
    Value::struct_of([
        ("plan", plan_to_record(&j.plan)),
        ("notified", Value::Bool(j.completion_notified)),
        (
            "tasks",
            Value::Array(
                task_ids
                    .into_iter()
                    .map(|t| task_to_record(j.plan.job_id(), &j.tasks[t]))
                    .collect(),
            ),
        ),
    ])
}

/// Decodes one tracked job. The steering round indexes `tasks` by
/// every id of the plan, so a snapshot whose records do not cover the
/// plan exactly (missing, extra or duplicate ids) is refused here
/// instead of panicking on the next poll.
pub(crate) fn tracked_job_from_value(v: &Value) -> GaeResult<TrackedJob> {
    let plan = plan_from_record(v.member("plan")?)?;
    let mut tasks = HashMap::new();
    for t in v.member("tasks")?.as_array()? {
        let (_, tracked) = task_from_record(t)?;
        if let Some(twice) = tasks.insert(tracked.task, tracked) {
            return Err(GaeError::Parse(format!(
                "snapshot of {} tracks {} twice",
                plan.job_id(),
                twice.task
            )));
        }
    }
    let planned = plan.job.task_ids();
    if tasks.len() != planned.len() || !planned.iter().all(|t| tasks.contains_key(t)) {
        return Err(GaeError::Parse(format!(
            "snapshot of {} tracks {} task records, not exactly its plan's {} tasks",
            plan.job_id(),
            tasks.len(),
            planned.len()
        )));
    }
    Ok(TrackedJob {
        plan,
        tasks,
        completion_notified: v.member("notified")?.as_bool()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gae_types::{JobSpec, TaskSpec};

    fn plan() -> ConcretePlan {
        let mut job = JobSpec::new(JobId::new(1), "j", UserId::new(9));
        for i in 1..=3 {
            job.add_task(TaskSpec::new(TaskId::new(i), format!("t{i}"), "x"));
        }
        job.add_dependency(TaskId::new(1), TaskId::new(3));
        job.add_dependency(TaskId::new(2), TaskId::new(3));
        ConcretePlan::new(
            PlanId::new(1),
            job,
            vec![
                TaskAssignment {
                    task: TaskId::new(1),
                    site: SiteId::new(1),
                },
                TaskAssignment {
                    task: TaskId::new(2),
                    site: SiteId::new(2),
                },
                TaskAssignment {
                    task: TaskId::new(3),
                    site: SiteId::new(1),
                },
            ],
        )
        .unwrap()
    }

    /// `op` through its record and back.
    fn roundtrip(op: &SteeringOp<'_>) -> SteeringOp<'static> {
        SteeringOp::decode(op.kind(), &op.encode()).unwrap()
    }

    #[test]
    fn plan_record_roundtrip() {
        let mut plan = plan();
        plan.revision = 4;
        let SteeringOp::Plan(decoded) = roundtrip(&SteeringOp::Plan(Cow::Borrowed(&plan))) else {
            panic!("a plan record decodes to a plan")
        };
        assert_eq!(decoded.id, plan.id);
        assert_eq!(decoded.revision, 4);
        assert_eq!(decoded.job.owner, UserId::new(9));
        assert_eq!(decoded.job.task_ids(), plan.job.task_ids());
        assert_eq!(decoded.assignments, plan.assignments);
    }

    #[test]
    fn task_record_roundtrip_all_phases() {
        for phase in [
            TaskPhase::WaitingPrereqs,
            TaskPhase::Submitted {
                site: SiteId::new(2),
                condor: CondorId::new(19),
            },
            TaskPhase::Done {
                site: SiteId::new(5),
            },
            TaskPhase::Failed,
            TaskPhase::Killed,
        ] {
            let t = TrackedTask {
                task: TaskId::new(9),
                phase,
                recovery_attempts: 2,
                moves: 1,
            };
            let SteeringOp::Task(job, decoded) = roundtrip(&SteeringOp::Task(JobId::new(4), t))
            else {
                panic!("a task record decodes to a task")
            };
            assert_eq!(job, JobId::new(4));
            assert_eq!(decoded.task, TaskId::new(9));
            assert_eq!(decoded.phase, phase);
            assert_eq!(decoded.recovery_attempts, 2);
            assert_eq!(decoded.moves, 1);
        }
        let SteeringOp::Notified(job) = roundtrip(&SteeringOp::Notified(JobId::new(3))) else {
            panic!("a notice decodes to a notice")
        };
        assert_eq!(job, JobId::new(3));
    }

    /// A counter past `u32` is a typed parse error, never a truncation:
    /// `2³² + 1` recovery attempts must not read as 1 and re-arm a task
    /// whose recovery budget is spent.
    #[test]
    fn task_record_counters_past_u32_are_refused() {
        let record = |attempts: u64, moves: u64| {
            let mut v = task_to_record(
                JobId::new(4),
                &TrackedTask {
                    task: TaskId::new(9),
                    phase: TaskPhase::Failed,
                    recovery_attempts: 0,
                    moves: 0,
                },
            );
            if let Value::Struct(members) = &mut v {
                members.insert("recovery_attempts".into(), Value::from(attempts));
                members.insert("moves".into(), Value::from(moves));
            }
            v
        };
        let max = u64::from(u32::MAX);
        let (_, at_max) = task_from_record(&record(max, max)).unwrap();
        assert_eq!(
            (at_max.recovery_attempts, at_max.moves),
            (u32::MAX, u32::MAX)
        );
        for (what, v) in [
            ("recovery_attempts", record((1 << 32) + 1, 0)),
            ("moves", record(0, max + 1)),
        ] {
            let err = task_from_record(&v).unwrap_err();
            assert!(
                matches!(&err, GaeError::Parse(m) if *m == format!("task {what} out of range")),
                "{what}: {err}"
            );
        }
    }

    #[test]
    fn subscribe_extracts_sites_and_owner() {
        let tracked = TrackedJob::subscribe(plan()).unwrap();
        assert_eq!(tracked.sites(), vec![SiteId::new(1), SiteId::new(2)]);
        assert_eq!(tracked.owner(), UserId::new(9));
        assert!(!tracked.is_settled());
        assert!(!tracked.is_completed());
    }

    #[test]
    fn ready_tasks_respect_dag() {
        let mut tracked = TrackedJob::subscribe(plan()).unwrap();
        assert_eq!(tracked.ready_tasks(), vec![TaskId::new(1), TaskId::new(2)]);
        tracked.tasks.get_mut(&TaskId::new(1)).unwrap().phase = TaskPhase::Done {
            site: SiteId::new(1),
        };
        // Task 3 still blocked on task 2.
        assert_eq!(tracked.ready_tasks(), vec![TaskId::new(2)]);
        tracked.tasks.get_mut(&TaskId::new(2)).unwrap().phase = TaskPhase::Done {
            site: SiteId::new(2),
        };
        assert_eq!(tracked.ready_tasks(), vec![TaskId::new(3)]);
    }

    #[test]
    fn completion_and_failure_predicates() {
        let mut tracked = TrackedJob::subscribe(plan()).unwrap();
        for t in tracked.plan.job.task_ids() {
            tracked.tasks.get_mut(&t).unwrap().phase = TaskPhase::Done {
                site: SiteId::new(1),
            };
        }
        assert!(tracked.is_settled());
        assert!(tracked.is_completed());
        assert!(!tracked.is_failed());
        tracked.tasks.get_mut(&TaskId::new(2)).unwrap().phase = TaskPhase::Failed;
        assert!(tracked.is_failed());
        assert!(!tracked.is_completed());
    }

    #[test]
    fn location_only_for_submitted() {
        let mut tracked = TrackedJob::subscribe(plan()).unwrap();
        assert!(tracked.location(TaskId::new(1)).is_none());
        tracked.tasks.get_mut(&TaskId::new(1)).unwrap().phase = TaskPhase::Submitted {
            site: SiteId::new(1),
            condor: CondorId::new(5),
        };
        assert_eq!(
            tracked.location(TaskId::new(1)),
            Some((SiteId::new(1), CondorId::new(5)))
        );
        assert!(tracked.location(TaskId::new(99)).is_none());
    }

    #[test]
    fn phase_settlement() {
        assert!(TaskPhase::Done {
            site: SiteId::new(1)
        }
        .is_settled());
        assert!(TaskPhase::Failed.is_settled());
        assert!(TaskPhase::Killed.is_settled());
        assert!(!TaskPhase::WaitingPrereqs.is_settled());
        assert!(!TaskPhase::Submitted {
            site: SiteId::new(1),
            condor: CondorId::new(1)
        }
        .is_settled());
    }
}
