//! `grid_tick`: no sockets, no persistence. 256 sites (4 nodes × 2
//! slots, every third at 0.5 external load) carry 2,000 jobs × 4
//! tasks submitted through `ServiceStack::submit_job` during set-up;
//! the op is one `run_until(+5 s)` under `DriverMode::Sequential`.
//!
//! Why: the control loop operators wait on. Steering, jobmon, exec,
//! xfer and monitor do all the work and the door none, so a door
//! optimisation must read "no change" here and a tick optimisation
//! "no change" on `query_small`.

use crate::gen::{self, TASKS_PER_JOB};
use crate::harness::{timed_setup, Config, Recorder, Report};
use crate::span::{median_ns, overhead_ratio, per_op_totals, Span, Tracer};
use crate::stats::{median_or_zero, Digest};
use crate::tick::{PollAs, Pump};
use gae_core::grid::{DriverMode, GridBuilder, ServiceStack};
use gae_types::{JobId, SimDuration, SimTime, SiteDescription, SiteId, UserId};
use std::sync::Arc;

const SITES: u64 = 256;
const JOBS: u64 = 2_000;
const SMOKE_SITES: u64 = 32;
const SMOKE_JOBS: u64 = 250;
/// Virtual time one op advances.
const STEP: SimDuration = SimDuration::from_secs(5);
/// Timed ticks per second of `--seconds`.
const TICKS_PER_SECOND: u64 = 5;
const SMOKE_TICKS: u64 = 24;
/// An eighth of ~50 ticks is too few to take a median over.
const TRACE_DIVISOR: u64 = 2;

fn sizes(cfg: &Config) -> (u64, u64) {
    if cfg.smoke {
        (SMOKE_SITES, SMOKE_JOBS)
    } else {
        (SITES, JOBS)
    }
}

/// The loaded grid with every job submitted, at virtual time zero.
fn setup(cfg: &Config) -> Arc<ServiceStack> {
    let (sites, jobs) = sizes(cfg);
    let mut builder = GridBuilder::new().driver(DriverMode::Sequential);
    for s in 1..=sites {
        let site = SiteDescription::new(SiteId::new(s), format!("site-{s}"), 4, 2);
        builder = if s % 3 == 0 {
            builder.site_with_load(site, 0.5)
        } else {
            builder.site(site)
        };
    }
    let stack = ServiceStack::over(builder.build());
    let mut rng = gen::rng(cfg.seed, 1);
    for job_no in 1..=jobs {
        let job = gen::batch_job(&mut rng, job_no, UserId::new(1));
        let plan = stack.submit_job(job).expect("schedulable");
        assert_eq!(plan.assignments.len() as u64, TASKS_PER_JOB);
    }
    stack
}

/// Where a run ended: jobs jobmon does not know with all their tasks,
/// tasks in a terminal state, and a digest of every task's status.
fn end_state(stack: &ServiceStack, jobs: u64) -> (u64, u64, Digest) {
    let mut digest = Digest::new();
    let (mut unknown, mut terminal) = (0, 0);
    for job_no in 1..=jobs {
        let tasks = stack.jobmon.job_tasks(JobId::new(job_no));
        if tasks.len() as u64 != TASKS_PER_JOB {
            unknown += 1;
        }
        for info in tasks {
            digest.u64(info.task.raw());
            digest.bytes(info.status.to_string().as_bytes());
            if info.completed_at.is_some() {
                terminal += 1;
            }
        }
    }
    (unknown, terminal, digest)
}

pub fn run(cfg: &Config) -> Report {
    let ticks = cfg.ops(TICKS_PER_SECOND, SMOKE_TICKS, TRACE_DIVISOR);
    let (sites, jobs) = sizes(cfg);
    let mut report = Report::default();
    let (stack, setup_s) = timed_setup(cfg, || setup(cfg));
    report.note(format!(
        "{ticks} timed run_until(+{} s) calls, {sites} sites, {jobs} jobs x {TASKS_PER_JOB} tasks, \
         sequential driver, no sockets",
        STEP.as_secs_f64()
    ));

    let mut rec = Recorder::start(ticks);
    let mut t = SimTime::ZERO;
    for _ in 0..ticks {
        t += STEP;
        rec.time(|| stack.run_until(t));
    }
    let mut samples = rec.finish();
    let (unknown, terminal, digest) = end_state(&stack, jobs);
    samples.failed = unknown;
    samples.digest = digest;

    if !cfg.trace {
        samples.end_to_end(&mut report, setup_s);
        return report;
    }
    samples.client_layer(&mut report);
    report.note(format!(
        "{} allocations in {ticks} ticks",
        samples.allocs.calls
    ));
    report.metric("core.grid.tasks_completed", terminal as f64, "count");
    drop(stack);
    replay(cfg, ticks, jobs, digest, &mut report);
    report
}

/// A second stack from the same seed, pumped through `tick::Pump`.
/// `run_until(+5 s)` polls twice at its horizon — once on the poll
/// grid, once more as the final poll — so each tick runs one of the
/// two whole and the other child by child, swapping roles every tick.
/// The pair sees the same grid state back to back; whole minus
/// children is the poll's glue, and the swap cancels what the first
/// poll of a pair does that the second need not.
fn replay(cfg: &Config, ticks: u64, jobs: u64, expected: Digest, report: &mut Report) {
    let stack = setup(cfg);
    let tracer = Tracer::new();
    let mut pump = Pump::new(&stack, &tracer);
    let mut t = SimTime::ZERO;
    for op in 0..ticks {
        t += STEP;
        tracer.set_op(op);
        if op % 2 == 0 {
            pump.run_until(t, PollAs::Whole, PollAs::Children);
        } else {
            pump.run_until(t, PollAs::Children, PollAs::Whole);
        }
    }
    report.attempted += 1;
    let (unknown, _, digest) = end_state(&stack, jobs);
    if unknown > 0 || digest != expected {
        report.failed += 1;
        report.note("the pumped stack diverged from run_until's end state".to_string());
    }

    let spans = tracer.spans();
    let ms = |name: &str| median_ns(&spans, name, false) / 1e6;
    // A tick makes several advance_to calls: sum them per tick.
    report.metric(
        "core.grid.advance_ms",
        median_or_zero(&per_op_totals(&spans, "core.grid.advance")) / 1e6,
        "ms",
    );
    report.metric("core.grid.poll_ms", ms("core.grid.poll"), "ms");
    report.metric("core.grid.flock_ms", ms("core.grid.flock"), "ms");
    report.metric("core.jobmon.poll_ms", ms("core.jobmon.poll"), "ms");
    report.metric("core.steering.poll_ms", ms("core.steering.poll"), "ms");
    let (whole_first, children_first) = glue_by_order(&spans);
    let glue = (median_or_zero(&whole_first) + median_or_zero(&children_first)) / 2.0;
    report.metric("core.grid.poll_glue_ms", glue, "ms");
    report.note(format!(
        "poll glue: whole-then-children pairs median {:.3} ms, children-then-whole {:.3} ms",
        median_or_zero(&whole_first),
        median_or_zero(&children_first)
    ));
    report.metric(
        "client.trace_overhead_ratio",
        overhead_ratio(&spans, "tick"),
        "ratio",
    );
    crate::write_trace(cfg, &spans, report);
}

/// Per tick, its whole poll minus its child-by-child poll (ms), split
/// by which of the two ran first.
fn glue_by_order(spans: &[Span]) -> (Vec<f64>, Vec<f64>) {
    let whole = per_op_totals(spans, "core.grid.poll");
    let children = per_op_totals(spans, "core.grid.poll.children");
    let (mut whole_first, mut children_first) = (Vec::new(), Vec::new());
    for (op, (w, c)) in whole.iter().zip(&children).enumerate() {
        let glue_ms = (w - c) / 1e6;
        if op % 2 == 0 {
            whole_first.push(glue_ms);
        } else {
            children_first.push(glue_ms);
        }
    }
    (whole_first, children_first)
}
