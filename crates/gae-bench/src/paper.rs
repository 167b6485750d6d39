//! The reproduction's output as one table: every file under `results/`
//! and the function that renders it. `cargo run --release -p gae-bench
//! --bin paper` writes them all; the root package's
//! `tests/paper_figures.rs` holds each deterministic one to the
//! committed bytes.

use crate::{ablation, fig5, fig6, fig7};

/// Renders one results file.
pub type Render = fn() -> String;

/// Every results file as `(name, render, deterministic)`:
/// `results/<name>.txt` holds what `render` returns, byte for byte
/// when `deterministic`.
pub const FIGURES: [(&str, Render, bool); 6] = [
    ("ablation_interactive", ablation::render_interactive, true),
    ("ablation_optimizer", ablation::render_optimizer, true),
    ("ablation_queue", ablation::render_queue, true),
    ("fig5", fig5::render, true),
    // Times real sockets and threads: no two renders agree.
    ("fig6", fig6::render, false),
    ("fig7", fig7::render, true),
];

/// A results file being rendered.
#[derive(Default)]
pub(crate) struct Page(pub(crate) String);

impl Page {
    /// Appends `text` and a newline, as `println!` prints it.
    pub(crate) fn line(&mut self, text: impl AsRef<str>) {
        self.0.push_str(text.as_ref());
        self.0.push('\n');
    }
}
