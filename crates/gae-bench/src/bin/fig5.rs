//! Regenerates **Figure 5**: actual and estimated runtimes for those
//! of 20 test cases that succeeded, plus the mean percentage error
//! (paper: 13.53 %).
//!
//! ```text
//! cargo run -p gae-bench --bin fig5 --release
//! ```

use gae_bench::fig5::{figure5, HEADLINE_SEED};
use gae_core::estimator::EstimationMethod;

fn main() {
    // `figure5` keeps only the probes that succeeded, as the paper does.
    let result = figure5(HEADLINE_SEED, EstimationMethod::Hybrid);
    let kept = result.rows.len();
    println!("== Figure 5: Actual & Estimated Runtimes for {kept} of 20 test cases ==");
    println!("history: 100 jobs (Downey-style synthetic Paragon trace)");
    println!("probes:  the next 20 jobs, {kept} succeeded; seed {HEADLINE_SEED}\n");
    println!(
        "{:>4}  {:>14}  {:>16}  {:>8}",
        "job", "actual (s)", "estimated (s)", "err %"
    );
    for row in &result.rows {
        println!(
            "{:>4}  {:>14.0}  {:>16.0}  {:>8.2}",
            row.job, row.actual_s, row.estimated_s, row.error_pct
        );
    }
    println!(
        "\nmean percentage error: {:.2}%   (paper reports 13.53%)",
        result.mean_error_pct
    );

    println!("\n-- calibration transparency: mean error across seeds --");
    let mut errors: Vec<(u64, f64)> = (1..=20)
        .map(|seed| (seed, figure5(seed, EstimationMethod::Hybrid).mean_error_pct))
        .collect();
    for (seed, err) in &errors {
        println!("  seed {seed:>2}: {err:>6.2}%");
    }
    errors.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
    let median = errors[errors.len() / 2].1;
    println!("  median across 20 seeds: {median:.2}%");

    println!("\n-- ablation: the statistical estimate of §6.1 --");
    for (name, method) in [
        ("mean only", EstimationMethod::Mean),
        ("regression only", EstimationMethod::Regression),
        ("hybrid (mean + regression)", EstimationMethod::Hybrid),
    ] {
        let mut errs: Vec<f64> = (1..=20)
            .map(|s| figure5(s, method).mean_error_pct)
            .collect();
        errs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        println!(
            "  {:<27} median {:>6.2}%   worst {:>6.2}%",
            name,
            errs[errs.len() / 2],
            errs.last().expect("non-empty")
        );
    }
}
