//! Ablation: queue-time estimator accuracy (§6.2) as a function of
//! how good the stored runtime estimates are.
//!
//! The §6.2 algorithm sums `estimated_runtime − elapsed` over all
//! higher-priority tasks. Its error is therefore exactly the
//! accumulated runtime-estimation error of the queue ahead. We build
//! queues of varying depth, store submission-time estimates that are
//! either exact or history-based, and compare the §6.2 estimate with
//! the probe task's actual queue wait.
//!
//! ```text
//! cargo run -p gae-bench --bin ablation_queue --release
//! ```

use gae_exec::{ExecutionService, SiteConfig};
use gae_sim::rng::{lognormal_noise, seeded_rng};
use gae_types::{
    Priority, SimDuration, SimTime, SiteDescription, SiteId, TaskId, TaskSpec, TaskStatus,
};
use rand::Rng;

/// Builds a single-slot site with `depth` high-priority tasks ahead of
/// a probe; returns (estimate at submission, actual wait).
fn run_once(depth: usize, estimate_noise_sigma: f64, seed: u64) -> (f64, f64) {
    let mut rng = seeded_rng(seed);
    let mut exec = ExecutionService::new(SiteConfig::free(SiteDescription::new(
        SiteId::new(1),
        "q",
        1,
        1,
    )));
    for i in 0..depth {
        let demand = rng.gen_range(60.0..1_800.0);
        let spec = TaskSpec::new(TaskId::new(i as u64 + 1), format!("t{i}"), "x")
            .with_cpu_demand(SimDuration::from_secs_f64(demand))
            .with_priority(Priority::new(5));
        let condor = exec.submit(spec, None).expect("submit");
        // The stored estimate is the true runtime distorted by the
        // runtime estimator's characteristic error.
        let estimate = demand * lognormal_noise(&mut rng, estimate_noise_sigma);
        exec.set_estimate(condor, Some(SimDuration::from_secs_f64(estimate)))
            .expect("just submitted");
    }
    let probe = exec
        .submit(
            TaskSpec::new(TaskId::new(9_999), "probe", "x")
                .with_cpu_demand(SimDuration::from_secs(10)),
            None,
        )
        .expect("probe");
    exec.set_estimate(probe, Some(SimDuration::from_secs(10)))
        .expect("just submitted");
    let estimated = exec.backlog_above(Priority::NORMAL).as_secs_f64();
    // Ground truth: run until the probe starts.
    let mut horizon = 600u64;
    let actual = loop {
        exec.advance_to(SimTime::from_secs(horizon));
        let rec = exec.record(probe).expect("probe record");
        if rec.status != TaskStatus::Queued {
            break rec.started_at.expect("started").as_secs_f64();
        }
        horizon *= 2;
    };
    (estimated, actual)
}

fn main() {
    println!("== Ablation: queue-time estimator accuracy (§6.2) ==");
    println!("single-slot site; N higher-priority tasks (60–1800 s) ahead of a probe;");
    println!("stored runtime estimates carry log-normal error of the given σ\n");
    println!(
        "{:>12} {:>18} {:>22} {:>22}",
        "queue depth", "estimate σ", "mean |error| (s)", "mean |error| (%)"
    );
    for depth in [2usize, 5, 10, 20] {
        for sigma in [0.0, 0.13, 0.3] {
            let mut abs_errors = Vec::new();
            let mut rel_errors = Vec::new();
            for seed in 0..20u64 {
                let (est, actual) = run_once(depth, sigma, seed * 31 + depth as u64);
                abs_errors.push((est - actual).abs());
                if actual > 0.0 {
                    rel_errors.push((est - actual).abs() / actual * 100.0);
                }
            }
            let mean_abs = abs_errors.iter().sum::<f64>() / abs_errors.len() as f64;
            let mean_rel = rel_errors.iter().sum::<f64>() / rel_errors.len() as f64;
            println!("{depth:>12} {sigma:>18.2} {mean_abs:>22.1} {mean_rel:>22.2}");
        }
    }
    println!(
        "\nσ=0 must give (near-)zero error: the §6.2 algorithm is exact when the\n\
         runtime estimates are; its error grows with both queue depth and the\n\
         underlying runtime-estimation error — the paper's implicit dependency."
    );
}
