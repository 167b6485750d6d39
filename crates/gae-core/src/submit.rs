//! Remote job submission: the wire codec for job specifications and
//! concrete plans, plus the `scheduler` RPC facade.
//!
//! The paper's clients are remote (Figure 1: "Client" talks to every
//! service over SOAP/XML-RPC); this module lets them hand a whole job
//! — tasks, DAG edges, file lists, preferences — to the scheduler in
//! one `scheduler.submit_job` call and receive the concrete plan
//! back.

use crate::grid::ServiceStack;
use crate::persist::array_of;
use crate::replica::{file_from_value, file_to_value};
use gae_rpc::{Method, Methods};
use gae_types::{
    AbstractPlan, ConcretePlan, FileRef, GaeError, GaeResult, JobId, JobSpec,
    OptimizationPreference, Priority, SimDuration, SiteId, TaskId, TaskSpec,
};
use gae_wire::Value;
use std::sync::{Arc, Weak};

// ---- wire codecs ----

/// Encodes a task specification.
pub fn task_to_value(t: &TaskSpec) -> Value {
    let file = |f: &FileRef| file_to_value(&f.logical_name, f.size_bytes, &f.replicas);
    Value::struct_of([
        ("id", Value::from(t.id.raw())),
        ("name", Value::from(t.name.as_str())),
        ("executable", Value::from(t.executable.as_str())),
        (
            "args",
            Value::Array(t.args.iter().map(|a| Value::from(a.as_str())).collect()),
        ),
        ("priority", Value::Int(t.priority.level())),
        ("requested_nodes", Value::from(t.requested_nodes)),
        ("requested_cpu_hours", Value::from(t.requested_cpu_hours)),
        ("queue", Value::from(t.queue.as_str())),
        ("partition", Value::from(t.partition.as_str())),
        ("job_type", Value::from(t.job_type.to_string())),
        (
            "input_files",
            Value::Array(t.input_files.iter().map(file).collect()),
        ),
        (
            "output_files",
            Value::Array(t.output_files.iter().map(file).collect()),
        ),
        (
            "env",
            Value::Array(
                t.env
                    .iter()
                    .map(|(k, v)| {
                        Value::struct_of([
                            ("name", Value::from(k.as_str())),
                            ("value", Value::from(v.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "cpu_demand_s",
            t.true_cpu_demand.map(|d| d.as_secs_f64()).into(),
        ),
        ("checkpointable", Value::Bool(t.checkpointable)),
    ])
}

/// Decodes a task specification.
pub fn task_from_value(v: &Value) -> GaeResult<TaskSpec> {
    let mut t = TaskSpec::new(
        TaskId::new(v.member("id")?.as_u64()?),
        v.member("name")?.as_str()?,
        v.member("executable")?.as_str()?,
    );
    for a in v.member("args")?.as_array()? {
        t.args.push(a.as_str()?.to_string());
    }
    t.priority = Priority::new(v.member("priority")?.as_i32()?);
    t.requested_nodes = u32::try_from(v.member("requested_nodes")?.as_u64()?)
        .map_err(|_| GaeError::Parse("requested_nodes out of range".into()))?;
    t.requested_cpu_hours = v.member("requested_cpu_hours")?.as_f64()?;
    t.queue = v.member("queue")?.as_str()?.to_string();
    t.partition = v.member("partition")?.as_str()?.to_string();
    t.job_type = v.member("job_type")?.as_str()?.parse()?;
    let files = |key: &str| {
        array_of(v.member(key)?, |f| {
            let (logical_name, size_bytes, replicas) = file_from_value(f)?;
            Ok(FileRef {
                logical_name,
                size_bytes,
                replicas,
            })
        })
    };
    t.input_files = files("input_files")?;
    t.output_files = files("output_files")?;
    for e in v.member("env")?.as_array()? {
        t.env.push((
            e.member("name")?.as_str()?.to_string(),
            e.member("value")?.as_str()?.to_string(),
        ));
    }
    if let Some(d) = v.member_opt("cpu_demand_s")? {
        t.true_cpu_demand = Some(SimDuration::from_secs_f64(d.as_f64()?));
    }
    t.checkpointable = v.member("checkpointable")?.as_bool()?;
    Ok(t)
}

/// Encodes a whole job (the caller's identity provides the owner).
pub fn job_to_value(job: &JobSpec) -> Value {
    Value::struct_of([
        ("id", Value::from(job.id.raw())),
        ("name", Value::from(job.name.as_str())),
        (
            "tasks",
            Value::Array(job.tasks.iter().map(|t| task_to_value(t)).collect()),
        ),
        (
            "dependencies",
            Value::Array(
                job.dependencies
                    .iter()
                    .map(|(a, b)| {
                        Value::struct_of([
                            ("before", Value::from(a.raw())),
                            ("after", Value::from(b.raw())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Decodes a job, assigning `owner` (remote clients cannot submit on
/// someone else's behalf).
pub fn job_from_value(v: &Value, owner: gae_types::UserId) -> GaeResult<JobSpec> {
    let mut job = JobSpec::new(
        JobId::new(v.member("id")?.as_u64()?),
        v.member("name")?.as_str()?,
        owner,
    );
    for t in v.member("tasks")?.as_array()? {
        job.add_task(task_from_value(t)?);
    }
    for d in v.member("dependencies")?.as_array()? {
        job.add_dependency(
            TaskId::new(d.member("before")?.as_u64()?),
            TaskId::new(d.member("after")?.as_u64()?),
        );
    }
    Ok(job)
}

/// Encodes a concrete plan for the response.
pub fn plan_to_value(plan: &ConcretePlan) -> Value {
    Value::struct_of([
        ("plan", Value::from(plan.id.raw())),
        ("job", Value::from(plan.job_id().raw())),
        ("revision", Value::from(u64::from(plan.revision))),
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

// ---- the RPC facade ----

/// The `scheduler` RPC service: remote job submission.
pub struct SchedulerRpc {
    stack: Weak<ServiceStack>,
}

impl SchedulerRpc {
    /// Wraps the service stack for RPC registration (weak: the host
    /// must not keep the stack alive).
    pub fn new(stack: &Arc<ServiceStack>) -> Self {
        SchedulerRpc {
            stack: Arc::downgrade(stack),
        }
    }

    fn stack(&self) -> GaeResult<Arc<ServiceStack>> {
        self.stack
            .upgrade()
            .ok_or_else(|| GaeError::ExecutionFailure("service stack shut down".into()))
    }
}

impl Methods for SchedulerRpc {
    const NAME: &'static str = "scheduler";
    const METHODS: &'static [Method<Self>] = &[
        // submit_job(job_struct [, preference [, allowed_sites]])
        Method {
            name: "submit_job",
            help: "schedule a job (struct) and subscribe it for steering; returns the plan",
            inline: false,
            handler: |s, ctx, p| {
                let owner = ctx.require_user()?;
                let job = job_from_value(p.get(0, "submit_job(job, ...)")?, owner)?;
                let mut plan = AbstractPlan::new(job);
                if let Some(pref) = p.opt(1) {
                    plan.preference = match pref.as_str()? {
                        "fast" => OptimizationPreference::Fast,
                        "cheap" => OptimizationPreference::Cheap,
                        other => {
                            return Err(GaeError::Parse(format!("unknown preference {other:?}")))
                        }
                    };
                }
                if let Some(sites) = p.opt(2) {
                    for site in sites.as_array()? {
                        plan.allowed_sites.push(SiteId::new(site.as_u64()?));
                    }
                }
                let concrete = s.stack()?.submit_plan(&plan)?;
                Ok(plan_to_value(&concrete))
            },
        },
        Method {
            name: "sites",
            help: "descriptions and liveness of every site",
            inline: false,
            handler: |s, _, _| {
                let stack = s.stack()?;
                let sites = stack.grid.sites().map(|(id, exec)| {
                    let exec = exec.lock();
                    let d = exec.site();
                    Value::struct_of([
                        ("id", Value::from(id.raw())),
                        ("name", Value::from(d.name.as_str())),
                        ("nodes", Value::from(d.nodes)),
                        ("slots_per_node", Value::from(d.slots_per_node)),
                        ("speed_factor", Value::from(d.speed_factor)),
                        ("charge_per_cpu_hour", Value::from(d.charge_per_cpu_hour)),
                        ("alive", Value::Bool(exec.is_alive())),
                    ])
                });
                Ok(Value::Array(sites.collect()))
            },
        },
    ];
}

#[cfg(test)]
mod tests {
    use super::*;
    use gae_types::{JobType, UserId};

    fn sample_job() -> JobSpec {
        let mut job = JobSpec::new(JobId::new(9), "remote", UserId::new(3));
        let mut t1 = TaskSpec::new(TaskId::new(1), "gen", "generator")
            .with_cpu_demand(SimDuration::from_secs(120))
            .with_priority(Priority::new(2))
            .with_nodes(4)
            .with_queue("q_short")
            .with_checkpointable(true);
        t1.args = vec!["--events".into(), "1000".into()];
        t1.env = vec![("CMS_CONFIG".into(), "/etc/cms".into())];
        t1.input_files = vec![FileRef::new("lfn:/in", 1024).with_replicas(vec![SiteId::new(1)])];
        t1.output_files = vec![FileRef::new("lfn:/out", 2048)];
        t1.job_type = JobType::Interactive;
        job.add_task(t1);
        job.add_task(TaskSpec::new(TaskId::new(2), "reco", "reco"));
        job.add_dependency(TaskId::new(1), TaskId::new(2));
        job
    }

    #[test]
    fn job_roundtrips_through_the_wire_codec() {
        let job = sample_job();
        let v = job_to_value(&job);
        let back = job_from_value(&v, UserId::new(3)).unwrap();
        assert_eq!(back, job);
    }

    #[test]
    fn owner_comes_from_the_session_not_the_payload() {
        let job = sample_job();
        let v = job_to_value(&job);
        let back = job_from_value(&v, UserId::new(42)).unwrap();
        assert_eq!(back.owner, UserId::new(42));
        assert!(back.tasks.iter().all(|t| t.owner == UserId::new(42)));
    }

    #[test]
    fn task_codec_rejects_garbage() {
        assert!(task_from_value(&Value::Int(1)).is_err());
        assert!(task_from_value(&Value::empty_struct()).is_err());
        let mut v = task_to_value(&sample_job().tasks[0]);
        if let Value::Struct(m) = &mut v {
            m.insert("job_type".into(), Value::from("weird"));
        }
        assert!(task_from_value(&v).is_err());
    }

    #[test]
    fn plan_encoding_shape() {
        use gae_types::{PlanId, TaskAssignment};
        let job = {
            let mut j = JobSpec::new(JobId::new(1), "j", UserId::new(1));
            j.add_task(TaskSpec::new(TaskId::new(1), "t", "x"));
            j
        };
        let plan = ConcretePlan::new(
            PlanId::new(7),
            job,
            vec![TaskAssignment {
                task: TaskId::new(1),
                site: SiteId::new(2),
            }],
        )
        .unwrap();
        let v = plan_to_value(&plan);
        assert_eq!(v.member("plan").unwrap().as_u64().unwrap(), 7);
        let assignments = v.member("assignments").unwrap().as_array().unwrap();
        assert_eq!(assignments[0].member("site").unwrap().as_u64().unwrap(), 2);
    }
}
