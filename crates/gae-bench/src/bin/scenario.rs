//! Runs the named end-to-end scenarios and prints their reports.
//!
//! ```text
//! cargo run -p gae-bench --bin scenario --release            # full fleet
//! cargo run -p gae-bench --bin scenario --release -- --smoke # CI horizons
//! cargo run -p gae-bench --bin scenario --release -- chaos-grid --compare
//! ```
//!
//! `--compare` runs the scenario twice — Optimizer migration on and
//! off — and prints the completion-time delta (the adaptive-loop
//! payoff recorded in EXPERIMENTS.md). `--replicate <n>` attaches a
//! persisted WAL mirrored into `n` followers, arming any
//! `LeaderLoss` fault the scenario declares (see `leader-loss`).

use gae_bench::scenario::{run_scenario, ScenarioOptions, ScenarioReport};
use gae_durable::fault::unique_temp_dir;
use gae_trace::scenario::ScenarioSpec;

fn print_report(r: &ScenarioReport) {
    println!("-- {} --", r.name);
    println!(
        "  offered {}  submitted {}  shed {}  completed {}  failed {}  moves {}",
        r.offered, r.submitted, r.shed, r.completed, r.failed, r.moves
    );
    println!(
        "  makespan {:.0} s   mean completion {:.0} s   peak queue depth {}",
        r.makespan_s, r.mean_completion_s, r.gate.peak_queue_depth
    );
    println!(
        "  xfer: {} completed, {} failed, {} retried",
        r.xfer.completed, r.xfer.failed, r.xfer.retried
    );
    println!("  state crc {}", r.state_crc);
    if r.invariant_failures.is_empty() {
        println!("  invariants: all held");
    } else {
        for f in &r.invariant_failures {
            println!("  INVARIANT VIOLATED: {f}");
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let compare = args.iter().any(|a| a == "--compare");
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(2005u64);
    let replicate = args
        .iter()
        .position(|a| a == "--replicate")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0usize);
    let mut named: Vec<&str> = Vec::new();
    let mut skip_next = false;
    for a in args.iter() {
        if skip_next {
            skip_next = false;
            continue;
        }
        if a == "--seed" || a == "--replicate" {
            skip_next = true;
        } else if !a.starts_with("--") {
            named.push(a.as_str());
        }
    }
    if named.is_empty() {
        named = vec![
            "flash-crowd",
            "diurnal",
            "chaos-grid",
            "hot-replica-storm",
            "leader-loss",
        ];
    }

    let mut violated = false;
    for name in named {
        let Some(mut spec) = ScenarioSpec::by_name(name, seed) else {
            eprintln!("unknown scenario {name:?}");
            std::process::exit(2);
        };
        if smoke {
            spec = spec.smoke();
        }
        if compare {
            let on = run_scenario(&spec, &ScenarioOptions::default());
            let off = run_scenario(
                &spec,
                &ScenarioOptions {
                    migration: false,
                    ..ScenarioOptions::default()
                },
            );
            println!("== {} · migration ON ==", spec.name);
            print_report(&on);
            println!("== {} · migration OFF ==", spec.name);
            print_report(&off);
            println!(
                "== payoff: mean completion {:.0} s (on) vs {:.0} s (off), makespan {:.0} s vs {:.0} s ==",
                on.mean_completion_s, off.mean_completion_s, on.makespan_s, off.makespan_s
            );
            violated |= !on.invariant_failures.is_empty();
        } else {
            let mut opts = ScenarioOptions::default();
            let mut scratch = None;
            if replicate > 0 {
                let dir = unique_temp_dir(&format!("scenario-bin-{name}"));
                opts.replication = replicate;
                opts.persist_dir = Some(dir.clone());
                scratch = Some(dir);
            }
            let report = run_scenario(&spec, &opts);
            print_report(&report);
            violated |= !report.invariant_failures.is_empty();
            if let Some(dir) = scratch {
                std::fs::remove_dir_all(&dir).ok();
            }
        }
    }
    if violated {
        std::process::exit(1);
    }
}
