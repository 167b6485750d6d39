//! The three studies beyond the paper's figures, each with the
//! simulation it runs and the `render_*` that returns its
//! `results/ablation_*.txt`:
//!
//! * **interactive** — the paper's motivation (§1–2): "Current Grid
//!   tools used by high-energy physics are geared towards batch
//!   analysis", while the GAE exists to serve *interactive*
//!   physicists. A physicist fires a sequence of short analysis tasks
//!   (with think time in between) at a site saturated with batch work,
//!   with and without an interactive priority boost and preemption.
//! * **optimizer** — the Optimizer's *cheap* vs *fast* preference
//!   (§4.2.2: "the meaning of 'Best Site' depends on the optimization
//!   preference chosen"). A three-site grid with a price/performance
//!   spread runs the same workload under both; we report makespan and
//!   the owner's bill from the Quota and Accounting Service.
//! * **queue** — §6.2 queue-time accuracy against how good the stored
//!   runtime estimates are. The §6.2 algorithm sums `estimated_runtime
//!   − elapsed` over all higher-priority tasks, so its error is exactly
//!   the accumulated runtime-estimation error of the queue ahead.

use crate::paper::Page;
use gae_core::grid::{GridBuilder, ServiceStack};
use gae_exec::{ExecutionService, SiteConfig};
use gae_sim::rng::{lognormal_noise, seeded_rng};
use gae_types::{
    AbstractPlan, JobId, JobSpec, JobType, OptimizationPreference, Priority, SimDuration, SimTime,
    SiteDescription, SiteId, TaskId, TaskSpec, TaskStatus, UserId,
};
use rand::Rng;
use std::collections::BTreeMap;

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

const INTERACTIONS: u64 = 8;
/// CPU seconds of one interactive task.
pub const INTERACTION_CPU_S: u64 = 30;
const THINK_TIME_S: u64 = 120;
const BATCH_TASKS: u64 = 24;
const BATCH_CPU_S: u64 = 600;

/// Runs one interactive session on a 2-slot farm saturated with batch
/// work; returns each interaction's response time (submit →
/// completion, seconds).
fn interactive_session(priority: Priority, preemptive: bool) -> Vec<f64> {
    let farm = SiteDescription::new(SiteId::new(1), "farm", 2, 1);
    let grid = GridBuilder::new().site(farm).build();
    let site = grid.exec(SiteId::new(1)).expect("site exists");
    site.lock().set_preemptive(preemptive);
    let stack = ServiceStack::over(grid);
    let mut batch = JobSpec::new(JobId::new(1000), "batch-production", UserId::new(99));
    for i in 0..BATCH_TASKS {
        batch.add_task(
            TaskSpec::new(TaskId::new(1000 + i), format!("batch-{i}"), "production")
                .with_cpu_demand(SimDuration::from_secs(BATCH_CPU_S)),
        );
    }
    stack.submit_job(batch).expect("schedulable");
    let mut responses = Vec::new();
    let mut clock = SimTime::from_secs(60); // the user sits down at t=60
    for i in 1..=INTERACTIONS {
        stack.run_until(clock);
        let mut job = JobSpec::new(JobId::new(i), format!("plot-{i}"), UserId::new(1));
        let mut spec = TaskSpec::new(TaskId::new(i), format!("plot-{i}"), "analysis")
            .with_cpu_demand(SimDuration::from_secs(INTERACTION_CPU_S))
            .with_priority(priority);
        spec.job_type = JobType::Interactive;
        let task = job.add_task(spec);
        let submitted_at = stack.grid.now();
        let plan = AbstractPlan::new(job);
        stack.submit_plan(&plan).expect("schedulable");
        // Wait (in virtual time) until the plot is ready.
        let mut horizon = submitted_at;
        let completed_at = loop {
            horizon += SimDuration::from_secs(60);
            stack.run_until(horizon);
            if let Ok(Some(done)) = stack.jobmon.job_info(task).map(|i| i.completed_at) {
                break done;
            }
        };
        responses.push(completed_at.saturating_since(submitted_at).as_secs_f64());
        // The physicist looks at the plot, then asks the next question.
        clock = completed_at + SimDuration::from_secs(THINK_TIME_S);
    }
    responses
}

/// The interactive study's three policies in table order — same
/// priority as batch, priority boost, boost + preemption — each with
/// its session's response times.
pub fn interactive_sessions() -> [(&'static str, Vec<f64>); 3] {
    [
        ("same priority", Priority::NORMAL, false),
        ("interactive boost", Priority::HIGH, false),
        ("boost + preemption", Priority::HIGH, true),
    ]
    .map(|(label, priority, preemptive)| (label, interactive_session(priority, preemptive)))
}

/// `results/ablation_interactive.txt`.
pub fn render_interactive() -> String {
    let mut out = Page::default();
    out.line("== Ablation: interactive analysis on a batch-saturated farm ==");
    out.line(format!(
        "farm: 2 slots, {BATCH_TASKS} batch tasks of {BATCH_CPU_S} s queued; the physicist \
         runs {INTERACTIONS} × {INTERACTION_CPU_S} s tasks with {THINK_TIME_S} s think time\n"
    ));
    let sessions = interactive_sessions();
    for (label, responses) in &sessions {
        let (avg, n) = (mean(responses), responses.len());
        let max = responses.iter().cloned().fold(0.0, f64::max);
        out.line(format!(
            "{label:>22}: mean {avg:>7.1} s   worst {max:>7.1} s   ({n} interactions)"
        ));
    }
    let [same, boosted, preemptive] = sessions.map(|(_, responses)| mean(&responses));
    out.line(format!(
        "\nspeed-up from priority boost: {:.1}x; from boost + preemption: {:.1}x",
        same / boosted,
        same / preemptive
    ));
    out.line(
        "(without preemption the boosted interaction still waits for one batch\n\
         remnant to free a slot; with Condor-style vacating it starts at once)",
    );
    out.0
}

/// One optimizer run: 8 independent 1,800 CPU-second jobs on the
/// premium / standard / economy grid under one preference.
pub struct OptimizerRun {
    /// When the last job completed (seconds).
    pub makespan_s: f64,
    /// What the Quota and Accounting Service charged the owner.
    pub bill: f64,
    /// Jobs placed, by site name.
    pub placements: BTreeMap<String, usize>,
}

/// Runs the optimizer study under `preference`.
pub fn optimizer_run(preference: OptimizationPreference) -> OptimizerRun {
    // Premium: twice the speed, ten times the price; economy: slow and
    // almost free.
    let mut grid = GridBuilder::new();
    for (id, name, speed, cpu_hour, idle_hour) in [
        (1, "premium", 2.0, 10.0, 1.0),
        (2, "standard", 1.0, 3.0, 0.3),
        (3, "economy", 0.5, 0.5, 0.05),
    ] {
        let site = SiteDescription::new(SiteId::new(id), name, 4, 1).with_speed(speed);
        grid = grid.site(site.with_charge(cpu_hour, idle_hour));
    }
    let stack = ServiceStack::over(grid.build());
    let owner = UserId::new(1);
    stack.quota.grant(owner, 1_000.0);
    let mut placements = BTreeMap::new();
    for i in 1..=8u64 {
        let mut job = JobSpec::new(JobId::new(i), format!("j{i}"), owner);
        job.add_task(
            TaskSpec::new(TaskId::new(i), format!("t{i}"), "reco")
                .with_cpu_demand(SimDuration::from_secs(1_800)),
        );
        let plan = AbstractPlan::new(job).with_preference(preference);
        let plan = stack.submit_plan(&plan).expect("schedulable");
        let site = plan.site_of(TaskId::new(i)).expect("assigned");
        let name = stack.grid.description(site).expect("site").name.clone();
        *placements.entry(name).or_insert(0) += 1;
    }
    // Run to completion.
    let mut horizon = 1_000u64;
    loop {
        stack.run_until(SimTime::from_secs(horizon));
        let all_done = (1..=8u64).all(|i| stack.jobmon.job_status(JobId::new(i)).is_terminal());
        if all_done || horizon > 200_000 {
            break;
        }
        horizon *= 2;
    }
    let makespan_s = (1..=8u64)
        .filter_map(|i| stack.jobmon.job_tasks(JobId::new(i)).first()?.completed_at)
        .map(|t| t.as_secs_f64())
        .fold(0.0, f64::max);
    OptimizerRun {
        makespan_s,
        bill: stack.quota.total_charged(owner),
        placements,
    }
}

/// `results/ablation_optimizer.txt`.
pub fn render_optimizer() -> String {
    let mut out = Page::default();
    out.line("== Ablation: Optimizer preference (cheap vs fast) ==");
    out.line("workload: 8 independent 1800-CPU-second jobs; three sites:");
    out.line("  premium  (speed 2.0, 10.0/cpu-h)");
    out.line("  standard (speed 1.0,  3.0/cpu-h)");
    out.line("  economy  (speed 0.5,  0.5/cpu-h)\n");
    out.line("preference  makespan (s)        bill  placements");
    for (name, preference) in [
        ("fast", OptimizationPreference::Fast),
        ("cheap", OptimizationPreference::Cheap),
    ] {
        let run = optimizer_run(preference);
        let placed: Vec<String> = run
            .placements
            .iter()
            .map(|(s, n)| format!("{s}:{n}"))
            .collect();
        let (makespan, bill, placed) = (run.makespan_s, run.bill, placed.join(", "));
        out.line(format!(
            "{name:>10}  {makespan:>12.0}  {bill:>10.2}  {placed}"
        ));
    }
    out.line(
        "\nfast should buy time with money (premium placements, shorter \
         makespan,\nhigher bill); cheap should do the reverse.",
    );
    out.0
}

/// Queue depths the queue study sweeps.
pub const QUEUE_DEPTHS: [usize; 4] = [2, 5, 10, 20];
/// σ of the log-normal error on the stored runtime estimates.
pub const QUEUE_SIGMAS: [f64; 3] = [0.0, 0.13, 0.3];

/// Builds a single-slot site with `depth` high-priority tasks ahead of
/// a probe; returns (estimate at submission, actual wait).
fn queue_run_once(depth: usize, estimate_noise_sigma: f64, seed: u64) -> (f64, f64) {
    let mut rng = seeded_rng(seed);
    let site = SiteDescription::new(SiteId::new(1), "q", 1, 1);
    let mut exec = ExecutionService::new(SiteConfig::free(site));
    for i in 0..depth {
        let demand = rng.gen_range(60.0..1_800.0);
        let spec = TaskSpec::new(TaskId::new(i as u64 + 1), format!("t{i}"), "x")
            .with_cpu_demand(SimDuration::from_secs_f64(demand))
            .with_priority(Priority::new(5));
        let condor = exec.submit(spec.into(), None).expect("submit");
        // The stored estimate is the true runtime distorted by the
        // runtime estimator's characteristic error.
        let estimate = demand * lognormal_noise(&mut rng, estimate_noise_sigma);
        exec.set_estimate(condor, Some(SimDuration::from_secs_f64(estimate)))
            .expect("just submitted");
    }
    let probe =
        TaskSpec::new(TaskId::new(9_999), "probe", "x").with_cpu_demand(SimDuration::from_secs(10));
    let probe = exec.submit(probe.into(), None).expect("probe");
    exec.set_estimate(probe, Some(SimDuration::from_secs(10)))
        .expect("just submitted");
    let estimated = exec.backlog_above(Priority::NORMAL).as_secs_f64();
    // Ground truth: run until the probe starts.
    let mut horizon = 600u64;
    let actual = loop {
        exec.advance_to(SimTime::from_secs(horizon));
        let rec = exec.record(probe).expect("probe record");
        if rec.status() != TaskStatus::Queued {
            break rec.started_at.expect("started").as_secs_f64();
        }
        horizon *= 2;
    };
    (estimated, actual)
}

/// The §6.2 estimate's mean absolute (seconds) and relative (%) error
/// over 20 seeded queues of `depth` tasks whose stored estimates carry
/// log-normal error of `sigma`.
pub fn queue_error(depth: usize, sigma: f64) -> (f64, f64) {
    let mut abs_errors = Vec::new();
    let mut rel_errors = Vec::new();
    for seed in 0..20u64 {
        let (est, actual) = queue_run_once(depth, sigma, seed * 31 + depth as u64);
        abs_errors.push((est - actual).abs());
        if actual > 0.0 {
            rel_errors.push((est - actual).abs() / actual * 100.0);
        }
    }
    (mean(&abs_errors), mean(&rel_errors))
}

/// `results/ablation_queue.txt`.
pub fn render_queue() -> String {
    let mut out = Page::default();
    out.line("== Ablation: queue-time estimator accuracy (§6.2) ==");
    out.line("single-slot site; N higher-priority tasks (60–1800 s) ahead of a probe;");
    out.line("stored runtime estimates carry log-normal error of the given σ\n");
    out.line(" queue depth         estimate σ       mean |error| (s)       mean |error| (%)");
    for depth in QUEUE_DEPTHS {
        for sigma in QUEUE_SIGMAS {
            let (mean_abs, mean_rel) = queue_error(depth, sigma);
            out.line(format!(
                "{depth:>12} {sigma:>18.2} {mean_abs:>22.1} {mean_rel:>22.2}"
            ));
        }
    }
    out.line(
        "\nσ=0 must give (near-)zero error: the §6.2 algorithm is exact when the\n\
         runtime estimates are; its error grows with both queue depth and the\n\
         underlying runtime-estimation error — the paper's implicit dependency.",
    );
    out.0
}
