//! Regenerates every file under `results/`: Figures 5–7 and the three
//! ablations, as listed in `gae_bench::paper::FIGURES`. Takes no
//! arguments.
//!
//! ```text
//! cargo run --release -p gae-bench --bin paper
//! ```

use gae_bench::paper::FIGURES;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    if std::env::args().len() > 1 {
        eprintln!("usage: paper (takes no arguments; writes every results/<name>.txt)");
        return ExitCode::from(2);
    }
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    for (name, render, _) in FIGURES {
        let path = results.join(format!("{name}.txt"));
        if let Err(e) = std::fs::write(&path, render()) {
            eprintln!("paper: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote results/{name}.txt");
    }
    ExitCode::SUCCESS
}
