//! Benchmark harnesses that regenerate the paper's evaluation (§7).
//!
//! One module per figure (`fig5`, `fig6`, `fig7`) and one for the three
//! extra studies (`ablation`). Each has a `render` that returns its
//! `results/` file, and `paper::FIGURES` lists them all: the `paper`
//! binary writes them, and the root package's tests hold the
//! deterministic ones to the committed bytes. Everything is seeded and
//! deterministic except Figure 6, which measures real wall-clock
//! latency over real TCP sockets.

#![warn(missing_docs)]

pub mod ablation;
pub mod c10k;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod paper;
pub mod scenario;
