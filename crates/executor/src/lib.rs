//! Volcano-style query executor with the traditional access path that
//! reads no index.
//!
//! Implements the PostgreSQL operator repertoire the paper measures against
//! (Section II and VI) — all but the index-driven access paths, which are
//! Smooth Scan configurations (`smooth-core`): Index Scan is its Mode 0
//! under a trigger that never fires, Sort Scan (a.k.a. Bitmap Heap Scan)
//! and Switch Scan are triggers of their own:
//!
//! * **Full Table Scan** — sequential page runs with readahead;
//! * Filter / Project / Sort;
//! * Index-Nested-Loop and Hash joins (the planner runs a merge join as a
//!   hash join under a sort);
//! * hash and scalar aggregation.
//!
//! Every operator charges CPU per tuple touched and performs all I/O
//! through [`smooth_storage::Storage`], so the virtual clock and I/O
//! counters measure real executed access patterns. The Smooth Scan operator
//! itself lives in `smooth-core` and plugs into the same [`Operator`]
//! protocol.
//!
//! Operators speak one protocol, the columnar `next_columns()`
//! ([`smooth_types::ColumnBatch`]: typed column vectors plus a selection
//! vector); the classic Volcano `next()` is its provided one-row view.
//! The scans push predicate evaluation down onto the encoded tuples via
//! [`ScanFilter`] — probing only predicate columns into reused typed
//! vectors, evaluating range/comparison predicates as branch-light
//! kernels, and decoding qualifiers straight into column vectors with no
//! per-row allocation. [`collect_batches`] drives a plan and keeps the
//! result columnar; [`collect_rows`] is its row-materializing
//! convenience, and [`collect_rows_volcano`] drains the root a row at a
//! time — the `max = 1` leg of batch-size invariance.
//!
//! The [`parallel`] module adds morsel-driven parallel pipeline
//! execution (HyPer-style worker pool over [`smooth_types::ColumnBatch`]
//! morsels) that is byte-identical to [`collect_rows`] and charges the
//! exact same virtual clock totals.
//!
//! The [`spill`] module owns larger-than-memory execution's accounting:
//! the per-operator memory budget (`SMOOTH_MEM_BYTES`) and the one
//! charged overflow-file I/O formula behind the grace hash join's
//! partition spills ([`JoinBuildTable`]), the external merge sort
//! ([`extsort`]) and the Smooth Scan Result Cache in `smooth-core`. See
//! `docs/larger_than_memory.md`.

pub mod agg;
pub mod expr;
pub mod extsort;
pub mod filter;
pub mod hashtable;
pub mod join;
pub mod operator;
pub mod parallel;
pub mod scan;
pub mod schedule;
pub mod sort;
pub mod spill;

pub use agg::{AggFunc, HashAggregate};
pub use expr::{Predicate, ScanFilter};
pub use extsort::ExternalSorter;
pub use filter::{Filter, Project};
pub use hashtable::KeyTable;
pub use join::{
    HashJoin, IndexNestedLoopJoin, InnerPath, JoinBuildTable, JoinType, BUILD_PARTITIONS,
};
pub use operator::{
    batch_size, collect_batches, collect_rows, collect_rows_volcano, BoxedOperator, Operator,
};
pub use parallel::{
    multi_query_makespan_ns, run_pipeline, run_pipeline_traced, LedgerPhase, ParallelPipeline,
    ParallelSource, PhaseBuild, PhaseSpec, ScalingLedger, SinkSpec, StageSpec,
};
pub use scan::{fill_from, slot_tuples, FullTableScan, PageQueue};
pub use schedule::{QueryHandle, QueryOutput, Scheduler};
pub use sort::Sort;
pub use spill::{
    charge_spill_io, charge_spill_write, mem_budget_bytes, spill_io_ns, spill_write, SpillFile,
};
