//! The reproduction's output (§7) pinned: every deterministic file
//! under `results/` is what its `render` returns, byte for byte, and
//! each figure and ablation keeps the shape the paper's claim rests on.
//! `cargo run --release -p gae-bench --bin paper` regenerates the files.

use gae_bench::paper::FIGURES;
use std::path::Path;

fn results_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/results"))
}

#[test]
fn every_deterministic_results_file_is_what_its_render_returns() {
    let mut stale = Vec::new();
    for (name, render, deterministic) in FIGURES {
        if !deterministic {
            continue;
        }
        let path = results_dir().join(format!("{name}.txt"));
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
        let rendered = render();
        if rendered != committed {
            let (line, (now, was)) = rendered
                .lines()
                .chain(std::iter::repeat("<end of file>"))
                .zip(committed.lines().chain(std::iter::repeat("<end of file>")))
                .enumerate()
                .find(|(_, (now, was))| now != was)
                .expect("texts that differ differ on some line");
            stale.push(format!(
                "results/{name}.txt line {}:\n  committed: {was}\n  rendered:  {now}",
                line + 1
            ));
        }
    }
    assert!(
        stale.is_empty(),
        "stale results (regenerate with `cargo run --release -p gae-bench --bin paper`):\n{}",
        stale.join("\n")
    );
}

#[test]
fn the_table_lists_every_results_file_and_only_fig6_is_timed() {
    let mut on_disk: Vec<String> = std::fs::read_dir(results_dir())
        .expect("results/ exists")
        .map(|entry| {
            let name = entry.expect("readable entry").file_name();
            let name = name.to_str().expect("utf-8 file name");
            name.strip_suffix(".txt").expect(".txt file").to_owned()
        })
        .collect();
    on_disk.sort();
    let listed: Vec<&str> = FIGURES.iter().map(|(name, _, _)| *name).collect();
    assert_eq!(on_disk, listed);
    let timed: Vec<&str> = FIGURES
        .iter()
        .filter(|(_, _, deterministic)| !deterministic)
        .map(|(name, _, _)| *name)
        .collect();
    assert_eq!(timed, ["fig6"]);
}

mod fig5 {
    use gae::core::estimator::EstimationMethod;
    use gae_bench::fig5::{figure5, HEADLINE_SEED};

    #[test]
    fn headline_seed_matches_paper_regime() {
        let result = figure5(HEADLINE_SEED, EstimationMethod::Hybrid);
        assert!(result.rows.len() >= 15, "most probes succeed");
        assert!(
            (result.mean_error_pct - 13.53).abs() < 3.0,
            "mean error {:.2}% should sit near the paper's 13.53%",
            result.mean_error_pct
        );
        // The probe count `results/fig5.txt` and `HEADLINE_SEED`'s doc state.
        assert_eq!(result.rows.len(), 18, "seed 2 keeps 18 of 20 probes");
    }
}

mod fig7 {
    use gae_bench::fig7::{figure7, Fig7Config};

    #[test]
    fn reproduces_the_paper_numbers() {
        let r = figure7(Fig7Config::default());
        // The move decision lands at the paper's ≈ 84.9 s.
        let move_at = r.move_at_s.expect("steering must move the job");
        assert!((move_at - 84.9).abs() < 1.0, "move at {move_at}");
        // The steered job completes near the paper's 369 s.
        let done = r.steered_completion_s.expect("steered job completes");
        assert!((done - 369.0).abs() < 10.0, "steered completion {done}");
        // The control job is far from done at the chart edge.
        let last = r.points.last().expect("points");
        assert!(
            last.unsteered_pct < 45.0,
            "unsteered at {}%",
            last.unsteered_pct
        );
        assert!((last.steered_pct - 100.0).abs() < 1e-9);
    }

    #[test]
    fn checkpointing_completes_even_quicker() {
        let restart = figure7(Fig7Config::default());
        let warm = figure7(Fig7Config {
            checkpointable: true,
            ..Fig7Config::default()
        });
        let t_restart = restart.steered_completion_s.expect("completes");
        let t_warm = warm.steered_completion_s.expect("completes");
        assert!(
            t_warm < t_restart - 10.0,
            "checkpointed migration ({t_warm}s) must beat restart ({t_restart}s)"
        );
    }

    #[test]
    fn earlier_decisions_complete_earlier() {
        let early = figure7(Fig7Config {
            min_observation_s: 28.3,
            ..Fig7Config::default()
        });
        let late = figure7(Fig7Config {
            min_observation_s: 141.5,
            ..Fig7Config::default()
        });
        let t_early = early.steered_completion_s.expect("completes");
        let t_late = late.steered_completion_s.expect("completes");
        assert!(
            t_early < t_late,
            "the paper: 'the quicker the decision is taken, the better' ({t_early} vs {t_late})"
        );
    }
}

mod ablation {
    use gae::types::OptimizationPreference;
    use gae_bench::ablation::{
        interactive_sessions, optimizer_run, queue_error, INTERACTION_CPU_S, QUEUE_DEPTHS,
        QUEUE_SIGMAS,
    };
    use std::collections::BTreeMap;

    fn rises(v: &[f64]) -> bool {
        v.windows(2).all(|w| w[0] < w[1])
    }

    #[test]
    fn interactive_response_falls_with_boost_then_preemption() {
        let [same, boosted, preemptive] = interactive_sessions().map(|(_, r)| r);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let means = [mean(&same), mean(&boosted), mean(&preemptive)];
        assert!(
            means[0] > means[1] && means[1] > means[2],
            "same priority > boost > boost + preemption: {means:?}"
        );
        // Vacating a batch task starts every interaction at once.
        let worst = preemptive.iter().cloned().fold(0.0, f64::max);
        assert_eq!(worst, INTERACTION_CPU_S as f64);
    }

    #[test]
    fn optimizer_fast_buys_time_with_money_and_cheap_takes_economy() {
        let fast = optimizer_run(OptimizationPreference::Fast);
        let cheap = optimizer_run(OptimizationPreference::Cheap);
        assert!(
            fast.makespan_s < cheap.makespan_s,
            "makespan fast {} vs cheap {}",
            fast.makespan_s,
            cheap.makespan_s
        );
        assert!(
            fast.bill > cheap.bill,
            "bill fast {} vs cheap {}",
            fast.bill,
            cheap.bill
        );
        assert_eq!(cheap.placements, BTreeMap::from([("economy".into(), 8)]));
    }

    #[test]
    fn queue_error_is_exact_at_sigma_zero_and_rises_with_sigma_and_depth() {
        assert_eq!(QUEUE_SIGMAS[0], 0.0);
        let table: Vec<Vec<f64>> = QUEUE_DEPTHS
            .iter()
            .map(|&depth| {
                QUEUE_SIGMAS
                    .iter()
                    .map(|&s| queue_error(depth, s).0)
                    .collect()
            })
            .collect();
        for (depth, row) in QUEUE_DEPTHS.iter().zip(&table) {
            assert_eq!(row[0], 0.0, "depth {depth}: exact estimates, exact wait");
            assert!(
                rises(row),
                "depth {depth}: |error| must rise with σ: {row:?}"
            );
        }
        for (i, sigma) in QUEUE_SIGMAS.iter().enumerate().skip(1) {
            let column: Vec<f64> = table.iter().map(|row| row[i]).collect();
            assert!(
                rises(&column),
                "σ {sigma}: |error| must rise with depth: {column:?}"
            );
        }
    }
}
