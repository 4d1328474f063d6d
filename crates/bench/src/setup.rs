//! Shared experiment setup: databases at the experiment index's scales
//! (`docs/ARCHITECTURE.md`), the NVMe-like device profile, the
//! selectivity sweep behind every sweep figure ([`sweep`]) and the
//! worker-width invariance check ([`traced_reference`],
//! [`same_at_every_width`]).

use smooth_executor::{run_pipeline_traced, ScalingLedger};
use smooth_planner::{AccessPathChoice, Database, LogicalPlan, QueryResult};
use smooth_storage::{CpuCosts, DeviceProfile, IoStatsDelta, StorageConfig};
use smooth_types::env_knob;
use smooth_workload::tpch::{self, Scale};
use smooth_workload::{micro, skew};

use crate::report::{json_metric, sel_tag, Metric, Report};

/// The `MICRO_ROWS` / `SKEW_ROWS` syntax: a whole number, at least 1.
fn parse_rows(text: &str) -> Result<u64, String> {
    match text.parse() {
        Ok(0) => Err("expected at least one row".into()),
        Ok(rows) => Ok(rows),
        Err(e) => Err(format!("expected a whole number of rows ({e})")),
    }
}

/// The `TPCH_SF` syntax: a finite float above 0.
fn parse_scale_factor(text: &str) -> Result<f64, String> {
    let sf: f64 = text.parse().map_err(|e| format!("expected a scale factor ({e})"))?;
    if sf.is_finite() && sf > 0.0 {
        Ok(sf)
    } else {
        Err("expected a finite scale factor above 0".into())
    }
}

/// Micro-benchmark rows (override: `MICRO_ROWS`; a malformed value
/// aborts — [`env_knob`] — instead of running at paper scale).
pub fn micro_rows() -> u64 {
    env_knob("MICRO_ROWS", parse_rows).unwrap_or(micro::DEFAULT_ROWS)
}

/// Skew-table rows (override: `SKEW_ROWS`, read like `MICRO_ROWS`).
pub fn skew_rows() -> u64 {
    env_knob("SKEW_ROWS", parse_rows).unwrap_or(skew::DEFAULT_ROWS)
}

/// TPC-H scale factor (override: `TPCH_SF`, read like `MICRO_ROWS`).
pub fn tpch_sf() -> f64 {
    env_knob("TPCH_SF", parse_scale_factor).unwrap_or(0.02)
}

/// NVMe-like profile: ~2.7 GB/s sequential, random 2× — the fast-device
/// regime where a scan becomes CPU-bound and the worker pool matters.
pub fn nvme() -> DeviceProfile {
    DeviceProfile::custom("nvme", 3_000, 6_000)
}

/// Storage config for a table of `pages` pages: the pool holds 1/16 of the
/// heap, clamped to 64..8192 pages (the cold-run regime).
pub fn storage_config(device: DeviceProfile, pages: u64) -> StorageConfig {
    StorageConfig {
        device,
        cpu: CpuCosts::default(),
        pool_pages: ((pages / 16) as usize).clamp(64, 8192),
    }
}

/// A database holding the micro table, indexed on `c2`.
pub fn micro_db(device: DeviceProfile) -> Database {
    let rows = micro_rows();
    let pages = rows / 90; // ≈ 90 tuples/page
    let mut db = Database::new(storage_config(device, pages));
    micro::install(&mut db, rows, 0xC2).expect("micro install");
    db
}

/// Cold-run `plan` through the traced one-worker pipeline, returning
/// the row count, the clock delta in virtual ns and the scaling ledger.
pub fn traced_run(db: &Database, plan: &LogicalPlan) -> (usize, u64, ScalingLedger) {
    let pipeline = db.parallel_pipeline(plan).expect("plan builds").expect("plan parallelizes");
    db.storage().flush_pool();
    let clock0 = db.storage().clock().snapshot();
    let (rows, ledger) = run_pipeline_traced(pipeline).expect("traced run");
    let delta = db.storage().clock().snapshot().since(&clock0);
    (rows.len(), delta.total_ns(), ledger)
}

/// Run `plan` at one worker, then through the traced one-worker
/// pipeline, asserting both return the same rows and charge the same
/// clock: the reference [`same_at_every_width`] holds wider pools to,
/// and the ledger the closed-form scaling model reads.
pub fn traced_reference(db: &mut Database, plan: &LogicalPlan) -> (QueryResult, ScalingLedger) {
    db.set_workers(1);
    let reference = db.run(plan).expect("one-worker run");
    let (rows, traced_ns, ledger) = traced_run(db, plan);
    assert_eq!(rows as u64, reference.stats.rows, "traced row count");
    assert_eq!(
        traced_ns,
        reference.stats.clock.total_ns(),
        "the traced pipeline must charge exactly the one-worker clock"
    );
    (reference, ledger)
}

/// The per-run disk-arm counters (`distinct_pages` is cumulative over
/// the storage's lifetime, so successive runs on one database differ
/// there).
pub fn disk_arm(io: &IoStatsDelta) -> [u64; 5] {
    [io.io_requests, io.pages_read, io.seq_pages, io.rand_pages, io.buffer_hits]
}

/// Run `plan` at 2, 4 and 8 workers, asserting each run returns
/// `reference`'s rows and charges its clock and disk-arm counters
/// exactly: the worker pool changes who does the work, never what the
/// engine is charged for. Leaves the database at 8 workers.
pub fn same_at_every_width(db: &mut Database, plan: &LogicalPlan, reference: &QueryResult) {
    for workers in [2, 4, 8] {
        db.set_workers(workers);
        let got = db.run(plan).expect("N-worker run");
        assert_eq!(got.rows, reference.rows, "rows diverge at {workers} workers");
        assert_eq!(got.stats.clock, reference.stats.clock, "clock diverges at {workers} workers");
        assert_eq!(
            disk_arm(&got.stats.io),
            disk_arm(&reference.stats.io),
            "disk-arm counters diverge at {workers} workers"
        );
    }
}

/// A selectivity sweep over the micro table: at each point of `grid`, in
/// order, cold-run the micro query (ordered or not) through each
/// variant's access path. Prints one row of `report` per point — the
/// selectivity in %, one column per variant, then `constants` — and
/// publishes each run as the gated id
/// `virtual.<report id>.<sel>.<variant>.secs`. Returns each point's
/// seconds, in variant order, for the experiment's shape floors.
pub fn sweep<const N: usize>(
    db: &Database,
    mut report: Report,
    grid: &[f64],
    ordered: bool,
    variants: [(&str, AccessPathChoice); N],
    constants: &[f64],
) -> Vec<[f64; N]> {
    let id = report.id().to_string();
    let series = grid
        .iter()
        .map(|&sel| {
            let secs = variants.each_ref().map(|(name, access)| {
                let plan = micro::query(sel, ordered, access.clone());
                let secs = db.run(&plan).expect("sweep query").stats.secs();
                let point = format!("virtual.{id}.{}.{name}.secs", sel_tag(sel));
                json_metric(Metric::new(point, secs, "virtual_s", false));
                secs
            });
            let cells = secs.iter().chain(constants).map(|&s| Report::secs(s));
            report.row(std::iter::once(format!("{}", sel * 100.0)).chain(cells).collect());
            secs
        })
        .collect();
    report.finish();
    series
}

/// The share of traced runs' virtual time spent in serialized source
/// sections (Σ `src_ns` over the total): the input that caps the
/// closed-form scaling model's speedup.
pub fn serial_share(ledgers: &[ScalingLedger]) -> f64 {
    let src: u64 = ledgers.iter().flat_map(|l| &l.phases).map(|p| p.src_ns).sum();
    let total: u64 = ledgers.iter().map(ScalingLedger::total_ns).sum();
    src as f64 / total.max(1) as f64
}

/// A database holding the skewed table, indexed on `c2`.
pub fn skew_db(device: DeviceProfile) -> Database {
    let rows = skew_rows();
    let pages = rows / 90;
    let mut db = Database::new(storage_config(device, pages));
    skew::install(&mut db, rows, 0x5E).expect("skew install");
    db
}

/// The Fig. 1 pair: `(original, tuned)` TPC-H databases. `original` has
/// only PK indexes; `tuned` adds the advisor's secondary indexes.
pub fn tpch_pair(device: DeviceProfile) -> (Database, Database) {
    let scale = Scale { sf: tpch_sf(), seed: 2015 };
    let lineitem_pages = (scale.orders() * 4) / 70;
    let cfg = storage_config(device, lineitem_pages);
    let mut original = Database::new(cfg);
    tpch::install(&mut original, scale).expect("tpch install");
    let mut tuned = Database::new(cfg);
    tpch::install(&mut tuned, scale).expect("tpch install");
    tpch::gen::create_tuning_indexes(&mut tuned).expect("tuning indexes");
    (original, tuned)
}

/// The tuned TPC-H database alone (Fig. 4 / Table II run on the indexed
/// configuration, mirroring the paper: "we create the set of indices
/// proposed by the commercial system").
pub fn tpch_tuned(device: DeviceProfile) -> Database {
    tpch_pair(device).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_knobs_reject_what_would_silently_run_at_paper_scale() {
        assert_eq!(parse_rows("40000"), Ok(40_000));
        assert_eq!(parse_rows("1"), Ok(1));
        for bad in ["", "0", "40k", "6e4", "-5", "4.0", " 40000"] {
            assert!(parse_rows(bad).is_err(), "{bad:?}");
        }
        assert_eq!(parse_scale_factor("0.005"), Ok(0.005));
        assert_eq!(parse_scale_factor("1"), Ok(1.0));
        for bad in ["", "0", "-0.01", "0,005", "inf", "NaN", "sf1"] {
            assert!(parse_scale_factor(bad).is_err(), "{bad:?}");
        }
    }
}
