//! # smoothscan — statistics-oblivious access paths
//!
//! A from-scratch Rust reproduction of *Smooth Scan: Statistics-Oblivious
//! Access Paths* (Borovica-Gajic, Idreos, Ailamaki, Zukowski, Fraser —
//! ICDE 2015): a single-user analytical storage engine whose access-path
//! operator **morphs at run time** between an index look-up and a full
//! table scan, delivering near-optimal performance at *every* selectivity
//! without requiring accurate optimizer statistics.
//!
//! ## Quick start
//!
//! ```
//! use smoothscan::prelude::*;
//!
//! // A database on the paper's HDD model (random page = 10× sequential).
//! let mut db = Database::new(StorageConfig::default());
//!
//! // Load a table and index its second column.
//! let schema = Schema::new(vec![
//!     Column::new("id", DataType::Int64),
//!     Column::new("key", DataType::Int64),
//! ]).unwrap();
//! db.load_table("t", schema, (0..10_000i64).map(|i| {
//!     Row::new(vec![Value::Int(i), Value::Int(i % 100)])
//! })).unwrap();
//! db.create_index("t", 1, "t_key").unwrap();
//!
//! // Scan through Smooth Scan: no access-path decision needed up front.
//! let plan = LogicalPlan::scan(
//!     ScanSpec::new("t", Predicate::int_half_open(1, 0, 10))
//!         .with_access(AccessPathChoice::Smooth(SmoothScanConfig::eager_elastic())),
//! );
//! let result = db.run(&plan).unwrap();
//! assert_eq!(result.rows.len(), 1000);
//! assert!(result.stats.io.pages_read > 0);
//! ```
//!
//! ## Crate map
//!
//! | Re-export | Crate | Contents |
//! |---|---|---|
//! | [`types`] | `smooth-types` | values, schemas, rows, TIDs |
//! | [`storage`] | `smooth-storage` | slotted pages, heaps, buffer pool, device model |
//! | [`index`] | `smooth-index` | non-clustered B+-tree |
//! | [`stats`] | `smooth-stats` | histograms, estimation, staleness injection |
//! | [`executor`] | `smooth-executor` | Volcano operators, traditional access paths |
//! | [`core`] | `smooth-core` | **Smooth Scan** (Switch Scan is its Switch trigger), policies, triggers, cost model |
//! | [`planner`] | `smooth-planner` | optimizer, catalog, `Database` facade |
//! | [`workload`] | `smooth-workload` | micro/skew/TPC-H-style generators and queries |

pub use smooth_core as core;
pub use smooth_executor as executor;
pub use smooth_index as index;
pub use smooth_planner as planner;
pub use smooth_stats as stats;
pub use smooth_storage as storage;
pub use smooth_types as types;
pub use smooth_workload as workload;

/// Everything needed for typical use, one import away.
pub mod prelude {
    pub use smooth_core::{
        CostModel, PolicyKind, SmoothScan, SmoothScanConfig, SmoothScanMetrics, TableGeometry,
        Trigger,
    };
    pub use smooth_executor::sort::SortKey;
    pub use smooth_executor::{collect_rows, AggFunc, JoinType, Operator, Predicate};
    pub use smooth_planner::{
        AccessPathChoice, Database, JoinStrategy, LogicalPlan, QueryResult, RunStats, ScanSpec,
    };
    pub use smooth_stats::StatsQuality;
    pub use smooth_storage::{CpuCosts, DeviceProfile, FaultConfig, Storage, StorageConfig};
    pub use smooth_types::{Column, ColumnBatch, DataType, Error, Row, Schema, Value};
}
