//! Smooth Scan: the paper's contribution.
//!
//! A *morphable* access path that continuously adjusts between an index
//! look-up and a full table scan as it learns the query's actual
//! selectivity (Section III). This crate contains:
//!
//! * [`operator`] — the Smooth Scan operator itself, driving the B+-tree
//!   cursor while morphing through Mode 0 (plain index scan), Mode 1
//!   (entire-page probe) and Mode 2(+) (flattening expansion);
//! * [`policy`] — the morphing policies: Greedy, Selectivity-Increase and
//!   Elastic (Section III-B);
//! * [`trigger`] — the morphing triggers: Eager, Optimizer-driven and
//!   SLA-driven (Section III-C); Never, under which Smooth Scan is the
//!   engine's Index Scan; Switch, under which it is Switch Scan, the
//!   binary-decision straw man; and Sort, under which it is Sort Scan,
//!   PostgreSQL's Bitmap Heap Scan (Sections II, III, VI-F);
//! * [`page_cache`] / [`tuple_cache`] — the Page-ID and Tuple-ID bitmap
//!   caches (Section IV-A);
//! * [`result_cache`] — the key-range-partitioned Result Cache with bulk
//!   eviction and spill accounting (Section IV-A);
//! * [`inner`] — Smooth Scan as a *parameterized inner path* for
//!   index-nested-loop joins, morphing toward a hash join (Section IV-B);
//! * [`cost_model`] — the analytical model, Eqs. (3)–(23), and the
//!   competitive-ratio analysis of Section V.

pub mod cost_model;
pub mod inner;
pub mod operator;
pub mod page_cache;
pub mod policy;
pub mod result_cache;
pub mod trigger;
pub mod tuple_cache;

pub use cost_model::{CostModel, TableGeometry};
pub use inner::{InnerPathMetrics, SmoothInnerPath};
pub use operator::{SmoothScan, SmoothScanConfig, SmoothScanMetrics};
pub use page_cache::PageIdCache;
pub use policy::{MorphPolicy, PolicyKind};
pub use result_cache::{ResultCache, ResultCacheStats};
pub use trigger::Trigger;
pub use tuple_cache::TupleIdCache;
