//! Cost-based planner and database facade.
//!
//! The smallest planner that can reproduce the paper's failure mode: it
//! estimates selectivities from (possibly stale — [`smooth_stats`])
//! statistics, prices the access paths with the Section-V cost model, and
//! picks the cheapest — so a wrong estimate flips a plan from Full Scan to
//! Index Scan exactly the way DBMS-X does in Fig. 1. The same machinery
//! then lets Smooth Scan replace the access-path decision altogether
//! ("the optimizer can always choose a Smooth Scan", Section IV-B).
//!
//! * [`catalog`] — tables, indexes, statistics, staleness injection;
//! * [`plan`] — logical plans (scan/join/aggregate/sort/project);
//! * [`optimizer`] — access-path and join-strategy selection;
//! * [`prune`](mod@prune) — column pruning: every scan and join narrowed to
//!   the columns the plan reads;
//! * [`db`] — the [`db::Database`] facade: load, index, analyze, run, and
//!   measure queries under a chosen execution discipline.

pub mod catalog;
pub mod db;
pub mod optimizer;
pub mod plan;
pub mod prune;

pub use catalog::{Catalog, IndexEntry, TableEntry};
pub use db::{BatchResult, Database, QueryResult, RunStats};
pub use optimizer::{AccessPathKind, Optimizer};
pub use plan::{AccessPathChoice, JoinSpec, JoinStrategy, LogicalPlan, ScanSpec};
pub use prune::prune;
