//! Optimizer statistics.
//!
//! The paper's villain is *statistics going stale or missing*: "in many
//! cases statistics are outdated or non-existent ... this results in
//! suboptimal plans that severely hurt performance" (Section I). This crate
//! supplies both sides of that story:
//!
//! * honest statistics — equi-depth [`histogram`]s,
//!   per-column and per-table summaries ([`mod@column`], [`mod@table`]) and the
//!   selectivity arithmetic ([`estimate`]) a textbook optimizer uses;
//! * controlled damage — [`staleness`] wraps a catalog and injects the
//!   exact classes of error the paper's experiments rely on: frozen
//!   (outdated) snapshots, correlation-blind under/over-estimation factors,
//!   and hard-coded guesses (the "optimizer estimated 15 K tuples" of
//!   Figs. 7b and 11).

pub mod column;
pub mod estimate;
pub mod histogram;
pub mod staleness;
pub mod table;

pub use column::ColumnStats;
pub use estimate::{range_fraction, RangePredicate};
pub use histogram::EquiDepthHistogram;
pub use staleness::{StaleCatalog, StatsQuality};
pub use table::TableStats;
