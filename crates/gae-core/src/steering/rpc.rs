//! The steering XML-RPC facade, registered as the `steering` service.
//!
//! Every method requires an authenticated session; the Session
//! Manager then checks the caller owns the job (or is an operator).

use crate::steering::service::{SteeringCommand, SteeringService};
use gae_rpc::{CallContext, Method, Methods, Params};
use gae_types::{GaeResult, JobId, Priority, SiteId, TaskId};
use gae_wire::Value;
use std::sync::Arc;

/// XML-RPC wrapper over [`SteeringService`].
pub struct SteeringRpc {
    service: Arc<SteeringService>,
}

impl SteeringRpc {
    /// Wraps the service for RPC registration.
    pub fn new(service: Arc<SteeringService>) -> Self {
        SteeringRpc { service }
    }

    /// The caller's `command` (read after the task id) on the task in
    /// parameter 0.
    fn task_command(
        &self,
        ctx: &CallContext,
        p: Params<'_>,
        command: impl FnOnce() -> GaeResult<SteeringCommand>,
    ) -> GaeResult<Value> {
        let user = ctx.require_user()?;
        let task = TaskId::new(p.u64(0, "missing parameter 0")?);
        self.service.command(user, task, command()?)?;
        Ok(Value::Bool(true))
    }

    /// The caller's `command` (read after the job id) on every live
    /// task of the job in parameter 0; answers how many it reached.
    fn job_command(
        &self,
        ctx: &CallContext,
        p: Params<'_>,
        command: impl FnOnce() -> GaeResult<SteeringCommand>,
    ) -> GaeResult<Value> {
        let user = ctx.require_user()?;
        let job = JobId::new(p.u64(0, "missing job id")?);
        let affected = self.service.command_job(user, job, command()?)?;
        Ok(Value::Int64(affected as i64))
    }
}

impl Methods for SteeringRpc {
    const NAME: &'static str = "steering";
    const METHODS: &'static [Method<Self>] = &[
        Method {
            name: "kill",
            help: "kill a task (owner or operator only)",
            inline: false,
            handler: |s, ctx, p| s.task_command(ctx, p, || Ok(SteeringCommand::Kill)),
        },
        Method {
            name: "pause",
            help: "suspend a running task",
            inline: false,
            handler: |s, ctx, p| s.task_command(ctx, p, || Ok(SteeringCommand::Pause)),
        },
        Method {
            name: "resume",
            help: "resume a suspended task",
            inline: false,
            handler: |s, ctx, p| s.task_command(ctx, p, || Ok(SteeringCommand::Resume)),
        },
        Method {
            name: "set_priority",
            help: "change a task's priority",
            inline: false,
            handler: |s, ctx, p| {
                s.task_command(ctx, p, || {
                    let level = p.i32(1, "missing priority")?;
                    Ok(SteeringCommand::SetPriority(Priority::new(level)))
                })
            },
        },
        // Second parameter: target site id, or 0/nil/absent for "let
        // the Optimizer choose".
        Method {
            name: "move",
            help: "move a task to a site (0 = let the optimizer choose)",
            inline: false,
            handler: |s, ctx, p| {
                s.task_command(ctx, p, || {
                    let target = p.opt(1).map(Value::as_u64).transpose()?;
                    let target = target.filter(|&raw| raw != 0).map(SiteId::new);
                    Ok(SteeringCommand::Move(target))
                })
            },
        },
        Method {
            name: "job_progress",
            help: "cpu time, elapsed time and progress fraction of a task",
            inline: false,
            handler: |s, ctx, p| {
                ctx.require_user()?;
                let task = TaskId::new(p.u64(0, "missing parameter 0")?);
                let (cpu, elapsed, progress) = s.service.job_progress(task)?;
                Ok(Value::struct_of([
                    ("cpu_time_s", Value::from(cpu.as_secs_f64())),
                    ("elapsed_s", Value::from(elapsed.as_secs_f64())),
                    ("progress", Value::from(progress)),
                ]))
            },
        },
        Method {
            name: "execution_state",
            help: "collected execution state of a settled task, or nil",
            inline: false,
            handler: |s, ctx, p| {
                ctx.require_user()?;
                let task = TaskId::new(p.u64(0, "missing parameter 0")?);
                let Some(state) = s.service.execution_state(task) else {
                    return Ok(Value::Nil);
                };
                Ok(Value::struct_of([
                    ("task", Value::from(state.task.raw())),
                    ("site", Value::from(state.site.raw())),
                    ("status", Value::from(state.status.to_string())),
                    ("cpu_time_s", Value::from(state.cpu_time.as_secs_f64())),
                    ("output_bytes", Value::from(state.output_bytes)),
                    ("collected_us", Value::from(state.collected_at.as_micros())),
                ]))
            },
        },
        Method {
            name: "kill_job",
            help: "kill every live task of a job",
            inline: false,
            handler: |s, ctx, p| s.job_command(ctx, p, || Ok(SteeringCommand::Kill)),
        },
        Method {
            name: "pause_job",
            help: "suspend every live task of a job",
            inline: false,
            handler: |s, ctx, p| s.job_command(ctx, p, || Ok(SteeringCommand::Pause)),
        },
        Method {
            name: "resume_job",
            help: "resume every live task of a job",
            inline: false,
            handler: |s, ctx, p| s.job_command(ctx, p, || Ok(SteeringCommand::Resume)),
        },
        Method {
            name: "set_job_priority",
            help: "change the priority of every live task of a job",
            inline: false,
            handler: |s, ctx, p| {
                s.job_command(ctx, p, || {
                    let level = p.i32(1, "missing priority")?;
                    Ok(SteeringCommand::SetPriority(Priority::new(level)))
                })
            },
        },
        Method {
            name: "my_jobs",
            help: "job ids owned by the calling session",
            inline: false,
            handler: |s, ctx, _| {
                let jobs = s.service.jobs_of(ctx.require_user()?);
                Ok(Value::Array(
                    jobs.into_iter().map(|j| Value::from(j.raw())).collect(),
                ))
            },
        },
    ];
}
