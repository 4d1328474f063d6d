//! Experiment harness: regenerates every table and figure of the paper.
//!
//! `cargo run -p smooth-bench --release --bin experiments -- <id|all>`
//! where `<id>` is one of {fig1, fig4 (includes Table II), fig5a, fig5b,
//! fig6, fig7a, fig7b, fig8, fig9, fig10, fig11, table1, costmodel, cr,
//! columnar, parallel, join, serve, spill, faults} (`--list` prints
//! [`experiments::ALL`]).
//!
//! Every experiment prints the paper's rows/series to stdout and writes a
//! CSV under `results/`. Scales default to the values in the experiment
//! index (`docs/ARCHITECTURE.md`) and can be lowered for smoke runs via
//! the environment variables `MICRO_ROWS`, `SKEW_ROWS` and `TPCH_SF`.

pub mod experiments;
pub mod report;
pub mod setup;

pub use report::Report;
