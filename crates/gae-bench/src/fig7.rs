//! Figure 7: job completion at different sites — the steering payoff.
//!
//! The paper's setup: a prime-number job measured at 283 s on a free
//! CPU is running on site A under significant CPU load; the steering
//! service watches its progress through the job monitoring service,
//! decides it is slow, and reschedules it to a free site B, where it
//! completes at ≈369 s — while the copy left on A is still far from
//! done at the right edge of the chart (453 s). Progress is charted
//! exactly as the paper computes it: accumulated Condor wall-clock
//! time divided by the 283 s free-CPU estimate.

use crate::paper::Page;
use gae_core::grid::{GridBuilder, ServiceStack};
use gae_core::steering::SteeringPolicy;
use gae_types::{
    AbstractPlan, JobId, JobSpec, SimDuration, SimTime, SiteDescription, SiteId, TaskId, TaskSpec,
    UserId,
};
use std::sync::Arc;

/// Experiment parameters.
#[derive(Clone, Copy, Debug)]
pub struct Fig7Config {
    /// Free-CPU estimate of the job (the paper's 283 s).
    pub job_seconds: f64,
    /// External load on site A (3.68 ⇒ accrual rate ≈ 0.214).
    pub site_a_load: f64,
    /// Chart sampling step (the paper's x-axis uses 28.3 s).
    pub step_seconds: f64,
    /// Number of chart steps (paper: 16 ⇒ 453 s window).
    pub steps: usize,
    /// Observation the steering service requires before judging the
    /// job slow (the paper's decision fell at ≈ 84.9 s).
    pub min_observation_s: f64,
    /// Whether the job writes checkpoints (the paper: "the job can be
    /// completed even quicker ... if it is checkpoint-able").
    pub checkpointable: bool,
}

impl Default for Fig7Config {
    fn default() -> Self {
        Fig7Config {
            job_seconds: 283.0,
            site_a_load: 3.68,
            step_seconds: 28.3,
            steps: 16,
            min_observation_s: 84.9,
            checkpointable: false,
        }
    }
}

/// One chart sample.
#[derive(Clone, Copy, Debug)]
pub struct Fig7Point {
    /// Elapsed time since submission (seconds).
    pub elapsed_s: f64,
    /// Progress (%) of the steered job.
    pub steered_pct: f64,
    /// Progress (%) of the control job left at site A.
    pub unsteered_pct: f64,
}

/// The whole experiment.
#[derive(Clone, Debug)]
pub struct Fig7Result {
    /// The sampled curves.
    pub points: Vec<Fig7Point>,
    /// When the steering service decided to move (seconds), if it did.
    pub move_at_s: Option<f64>,
    /// Completion time of the steered job (seconds), if within the
    /// simulated horizon.
    pub steered_completion_s: Option<f64>,
    /// Completion time of the control job, if within the horizon.
    pub unsteered_completion_s: Option<f64>,
    /// The free-CPU estimate (the chart's dashed line).
    pub free_cpu_estimate_s: f64,
}

fn build(config: &Fig7Config, auto_move: bool) -> (Arc<ServiceStack>, TaskId) {
    let grid = GridBuilder::new()
        .site_with_load(
            SiteDescription::new(SiteId::new(1), "site-a", 1, 1),
            config.site_a_load,
        )
        .site(SiteDescription::new(SiteId::new(2), "site-b", 1, 1))
        .build();
    let policy = SteeringPolicy {
        auto_move,
        min_observation: SimDuration::from_secs_f64(config.min_observation_s),
        slow_rate_threshold: 0.5,
        ..SteeringPolicy::default()
    };
    let stack = ServiceStack::with_policy(
        grid,
        policy,
        SimDuration::from_secs_f64(config.step_seconds),
    );
    let mut job = JobSpec::new(JobId::new(1), "prime-search", UserId::new(1));
    let task = job.add_task(
        TaskSpec::new(TaskId::new(1), "primes", "prime")
            .with_cpu_demand(SimDuration::from_secs_f64(config.job_seconds))
            .with_checkpointable(config.checkpointable),
    );
    let plan = AbstractPlan::new(job).restricted_to(vec![SiteId::new(1)]);
    stack.submit_plan(&plan).expect("schedulable");
    (stack, task)
}

/// Runs the experiment: one steered run, one control run.
pub fn figure7(config: Fig7Config) -> Fig7Result {
    let (steered, task) = build(&config, true);
    let (control, control_task) = build(&config, false);
    let mut points = Vec::with_capacity(config.steps + 1);
    // Simulate past the chart window so completion times are exact.
    let horizon_steps = config.steps + 16;
    for step in 1..=horizon_steps {
        let elapsed = config.step_seconds * step as f64;
        let t = SimTime::from_secs_f64(elapsed);
        steered.run_until(t);
        control.run_until(t);
        if step <= config.steps {
            let pct = |stack: &ServiceStack, task: TaskId| {
                stack
                    .steering
                    .job_progress(task)
                    .map(|(cpu, _, _)| cpu.as_secs_f64() / config.job_seconds * 100.0)
                    .unwrap_or(0.0)
                    .min(100.0)
            };
            points.push(Fig7Point {
                elapsed_s: elapsed,
                steered_pct: pct(&steered, task),
                unsteered_pct: pct(&control, control_task),
            });
        }
    }
    let completion = |stack: &ServiceStack, task: TaskId| {
        stack
            .jobmon
            .job_info(task)
            .ok()
            .and_then(|i| i.completed_at)
            .map(|t| t.as_secs_f64())
    };
    Fig7Result {
        points,
        move_at_s: steered
            .steering
            .move_log()
            .first()
            .map(|m| m.at.as_secs_f64()),
        steered_completion_s: completion(&steered, task),
        unsteered_completion_s: completion(&control, control_task),
        free_cpu_estimate_s: config.job_seconds,
    }
}

/// `results/fig7.txt`: the paper's run, the checkpointed ablation and
/// the decision-time sweep.
pub fn render() -> String {
    let mut out = Page::default();
    out.line("== Figure 7: Job Completion at different sites ==");
    out.line("job: 283 s of CPU on a free node; site A load 3.68 (rate ≈ 0.21); site B free\n");
    let paper = Fig7Config::default();
    write_run(&mut out, "paper configuration (restart migration)", paper);
    out.line("paper's numbers: decision ≈ 84.9 s, steered completion ≈ 369 s,");
    out.line("unsteered job far below 100% at the 453 s chart edge.\n");
    let checkpointed = Fig7Config {
        checkpointable: true,
        ..Fig7Config::default()
    };
    let label = "ablation: checkpointable job (\"completed even quicker\", §7)";
    write_run(&mut out, label, checkpointed);

    out.line("-- ablation: how the decision time changes completion --");
    out.line("   min observation (s)       move at (s)        completion (s)");
    let or_dash = |t: Option<f64>| t.map_or_else(|| "-".into(), |t| format!("{t:.1}"));
    for obs in [28.3, 56.6, 84.9, 113.2, 141.5, 198.1] {
        let r = figure7(Fig7Config {
            min_observation_s: obs,
            ..Fig7Config::default()
        });
        let (moved, done) = (or_dash(r.move_at_s), or_dash(r.steered_completion_s));
        out.line(format!("{obs:>22.1}  {moved:>16}  {done:>20}"));
    }
    out.line("\n\"A critical factor ... is the time at which the decision to move the job");
    out.line("is taken. The quicker the decision is taken, the better the chance that it");
    out.line("will complete quicker.\" (§7)");
    out.0
}

fn write_run(out: &mut Page, label: &str, config: Fig7Config) {
    let r = figure7(config);
    out.line(format!("-- {label} --"));
    out.line("elapsed(s)  steered progress %  unsteered progress %");
    for p in &r.points {
        out.line(format!(
            "{:>10.1}  {:>18.1}  {:>20.1}",
            p.elapsed_s, p.steered_pct, p.unsteered_pct
        ));
    }
    out.line(format!(
        "free-CPU estimate (dashed line): {:.0} s",
        r.free_cpu_estimate_s
    ));
    out.line(match r.move_at_s {
        Some(t) => format!("steering decision (move A→B) at: {t:.1} s"),
        None => "steering never moved the job".into(),
    });
    out.line(match r.steered_completion_s {
        Some(t) => format!("steered job completed at: {t:.1} s"),
        None => "steered job did not complete in the horizon".into(),
    });
    let last = r.points.last().expect("points");
    out.line(match r.unsteered_completion_s {
        Some(t) => format!("unsteered job completed at: {t:.1} s"),
        None => format!(
            "unsteered job still at {:.1}% at the {:.0} s chart edge",
            last.unsteered_pct, last.elapsed_s
        ),
    });
    out.line("");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_steering_means_no_move() {
        // With a huge observation window the decision never fires
        // inside the horizon.
        let r = figure7(Fig7Config {
            min_observation_s: 1e7,
            ..Fig7Config::default()
        });
        assert!(r.move_at_s.is_none());
        assert!(r.steered_completion_s.is_none());
    }

    #[test]
    fn progress_is_monotone_between_moves() {
        let r = figure7(Fig7Config::default());
        let move_at = r.move_at_s.expect("moves");
        let mut dips = 0;
        for w in r.points.windows(2) {
            // The control never dips.
            assert!(w[1].unsteered_pct >= w[0].unsteered_pct - 1e-9);
            // The steered job restarts from zero at the move (no
            // checkpoint), so exactly one dip is allowed, at the
            // sample straddling the decision.
            if w[1].steered_pct < w[0].steered_pct - 1e-9 {
                dips += 1;
                assert!(
                    w[0].elapsed_s < move_at + 30.0 && w[1].elapsed_s > move_at - 1.0,
                    "dip away from the move: {:?} -> {:?}",
                    w[0],
                    w[1]
                );
            }
        }
        assert!(dips <= 1, "{dips} dips");
    }

    #[test]
    fn checkpointed_migration_never_dips() {
        let r = figure7(Fig7Config {
            checkpointable: true,
            ..Fig7Config::default()
        });
        for w in r.points.windows(2) {
            assert!(
                w[1].steered_pct >= w[0].steered_pct - 1e-9,
                "checkpointed progress must be monotone: {:?} -> {:?}",
                w[0],
                w[1]
            );
        }
    }
}
