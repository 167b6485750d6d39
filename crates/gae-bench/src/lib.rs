//! Benchmark harnesses that regenerate the paper's evaluation (§7).
//!
//! One module per figure, shared between the `fig5`/`fig6`/`fig7`
//! binaries (which print the paper-style tables) and the tests that
//! use the same set-ups. Everything is seeded and deterministic except
//! Figure 6, which measures real wall-clock latency over real TCP
//! sockets.

#![warn(missing_docs)]

pub mod c10k;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod scenario;

pub use c10k::{
    c10k_in_process, c10k_with_fleet, drive_clients, C10kConfig, C10kRow, ClientTotals,
};
pub use fig5::{figure5, Fig5Result, Fig5Row};
pub use fig6::{figure6, Fig6Config, Fig6Row};
pub use fig7::{figure7, Fig7Config, Fig7Result};
pub use scenario::{run_scenario, ScenarioOptions, ScenarioReport};
