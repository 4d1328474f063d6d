//! Fault isolation on the shared engine.
//!
//! Not a paper figure: this experiment records what PR 8 buys — a
//! poisoned session cannot perturb its neighbors, and transient-fault
//! retries cost exactly the modeled backoff. Four deterministic
//! sessions share one engine: three "survivor" shapes from the `serve`
//! mixed set drive the micro table, while the fourth drives a dedicated
//! poison table whose heap file is the scope of a seeded
//! [`FaultConfig`] (see `docs/fault_model.md`).
//!
//! **Prediction.** Fault draws are stateless hashes of (seed, site,
//! file, page, attempt), so the experiment *predicts* the faulted run
//! before making it: replaying [`FaultInjector::page_read`] over every
//! poison page on a scratch [`VirtualClock`] yields the exact backoff
//! the engine must charge. A short seed search picks a config under
//! which every page survives its retry budget but at least one page
//! backs off.
//!
//! **Gates.** `faults.retry.backoff_ms` (floored) is that predicted
//! backoff — emitted only after hard-asserting the measured run matched
//! it bit-for-bit (`faults.retry.backoff_exact`): same rows as the
//! fault-free run, identical CPU lane, I/O lane higher by exactly the
//! prediction. `faults.mixed.rows_match` survives to the report only
//! after both concurrent legs held: beside a *degraded* session
//! (retries succeed) and beside a *failing* one (`io_err=1`,
//! [`Error::Faulted`]), every survivor's rows equal its solo run, and
//! the engine serves the poisoned plan again once faults clear.

use smooth_executor::{AggFunc, JoinType};
use smooth_planner::{AccessPathChoice, JoinStrategy, LogicalPlan, ScanSpec};
use smooth_storage::faults::RETRY_LIMIT;
use smooth_storage::{DeviceProfile, FaultConfig, FaultInjector, FileId, VirtualClock};
use smooth_types::{Column, DataType, Error, Row, Schema, Value};
use smooth_workload::micro;

use crate::report::{json_metric, json_scale, Metric, Report};
use crate::setup;

/// Concurrent sessions: three survivors plus the poisoned one.
pub const SESSIONS: usize = 4;
/// Worker-pool width both legs run at.
pub const WORKERS: usize = 4;
/// Floor on the modeled retry-backoff overhead of the degraded run.
pub const BACKOFF_MS_FLOOR: f64 = 0.05;

/// The dedicated poison table (faults are scoped to its heap file).
const POISON_TABLE: &str = "poison";
/// Poison-table rows: fixed (not `MICRO_ROWS`) so the fault surface is
/// scale-independent.
const POISON_ROWS: i64 = 20_000;
/// Transient page-read fault probability of the degraded leg.
const IO_ERR: f64 = 0.25;
/// Pads poison tuples to the micro table's ~90-byte geometry.
const PAD: &str = "................................................................";

/// NVMe-like profile (as `serve`): queries are CPU-bound enough for the
/// shared pool to matter, so isolation is actually exercised.
fn nvme() -> DeviceProfile {
    DeviceProfile::custom("nvme", 3_000, 6_000)
}

fn poison_schema() -> Schema {
    Schema::new(vec![
        Column::new("c1", DataType::Int64),
        Column::new("c2", DataType::Int64),
        Column::new("pad", DataType::Text),
    ])
    .expect("static schema")
}

/// Deterministic poison rows (`c1` = tuple order, `c2` ∈ [0, 1000)).
fn poison_rows(count: i64) -> impl Iterator<Item = Row> {
    (0..count).map(|i| {
        Row::new(vec![Value::Int(i), Value::Int(i.wrapping_mul(2_654_435_761) % 1_000), {
            Value::str(PAD)
        }])
    })
}

/// Full-scan + aggregate over `table`: one output row that depends on
/// every input row, so result equality proves the whole scan survived.
fn full_agg_plan(table: &str) -> LogicalPlan {
    LogicalPlan::Scan(
        ScanSpec::new(table, smooth_executor::Predicate::int_half_open(1, 0, 1_000))
            .with_access(AccessPathChoice::ForceFull),
    )
    .aggregate(vec![], vec![AggFunc::CountStar, AggFunc::Sum(0), AggFunc::Min(0), AggFunc::Max(0)])
}

fn poison_plan() -> LogicalPlan {
    full_agg_plan(POISON_TABLE)
}

/// The survivor shapes (a subset of the `serve` mixed set, all on the
/// micro table — disjoint from the poison file's fault scope).
fn survivor_plans() -> Vec<(&'static str, LogicalPlan)> {
    let scan = micro::query(0.1, false, AccessPathChoice::ForceFull);
    let group = micro::query(0.01, false, AccessPathChoice::ForceFull)
        .aggregate(vec![micro::C2], vec![AggFunc::Avg(2), AggFunc::CountStar]);
    let join = micro::query(1.0, false, AccessPathChoice::ForceFull)
        .join(
            LogicalPlan::scan(
                ScanSpec::new(micro::TABLE, micro::predicate(0.1))
                    .with_access(AccessPathChoice::ForceFull),
            ),
            micro::C2,
            micro::C2,
            JoinType::Inner,
            JoinStrategy::Hash,
        )
        .aggregate(vec![], vec![AggFunc::CountStar, AggFunc::Sum(0)]);
    vec![("scan", scan), ("group", group), ("join", join)]
}

/// Replay the injector over every poison page on a scratch clock: the
/// exact backoff a cold full scan will be charged, or `None` if any
/// page exhausts its retry budget. Also counts the pages that retried.
fn predicted_backoff(cfg: FaultConfig, file: FileId, pages: u32) -> Option<(u64, u32)> {
    let inj = FaultInjector::new(cfg);
    let clock = VirtualClock::new();
    let mut retried = 0u32;
    for page in 0..pages {
        let before = clock.snapshot().io_ns;
        inj.page_read(&clock, file, page).ok()?;
        if clock.snapshot().io_ns > before {
            retried += 1;
        }
    }
    Some((clock.snapshot().io_ns, retried))
}

/// Find a seed whose scoped `io_err` config lets every poison page
/// survive its retries while at least one page backs off — a degraded
/// (not failing) run with a non-zero, exactly-predictable overhead.
fn search_seed(file: FileId, pages: u32) -> (FaultConfig, u64, u32) {
    for seed in 1..=10_000u64 {
        let cfg = FaultConfig::new(seed).io_err(IO_ERR).scope_to_file(file);
        if let Some((backoff_ns, retried)) = predicted_backoff(cfg, file, pages) {
            if backoff_ns > 0 {
                return (cfg, backoff_ns, retried);
            }
        }
    }
    panic!("no survivable fault seed among 10k candidates (pages={pages})");
}

/// Run the fault-isolation experiment: the predicted-backoff gate and
/// the two concurrent blast-radius legs.
pub fn run() {
    let mut db = setup::micro_db(nvme());
    db.set_faults(None); // the experiment owns the fault config
    db.load_table(POISON_TABLE, poison_schema(), poison_rows(POISON_ROWS)).expect("poison load");
    db.set_workers(WORKERS);
    db.set_max_queries(SESSIONS);
    let (poison_file, poison_pages) = {
        let entry = db.table(POISON_TABLE).expect("poison table registered");
        (entry.heap.file_id(), entry.heap.page_count())
    };
    let (cfg, predicted_ns, retried_pages) = search_seed(poison_file, poison_pages);

    // Solo fault-free references for every session.
    let survivors = survivor_plans();
    let refs: Vec<Vec<Row>> = survivors
        .iter()
        .map(|(_, plan)| {
            db.storage().flush_pool();
            db.run(plan).expect("solo survivor run").rows
        })
        .collect();
    db.storage().flush_pool();
    let before = db.storage().clock().snapshot();
    let clean = db.run(&poison_plan()).expect("fault-free poison run");
    let clean_d = db.storage().clock().snapshot().since(&before);

    // The degraded solo run: same rows, same CPU lane, and an I/O lane
    // higher by exactly the replayed prediction.
    db.set_faults(Some(cfg));
    db.storage().flush_pool();
    let before = db.storage().clock().snapshot();
    let degraded = db.run(&poison_plan()).expect("degraded run survives its retries");
    let degraded_d = db.storage().clock().snapshot().since(&before);
    db.set_faults(None);
    assert_eq!(degraded.rows, clean.rows, "retried faults changed query results");
    assert_eq!(degraded_d.cpu_ns, clean_d.cpu_ns, "backoff leaked onto the CPU lane");
    assert_eq!(
        degraded_d.io_ns,
        clean_d.io_ns + predicted_ns,
        "measured backoff diverges from the stateless-draw prediction"
    );

    // Leg A — degraded neighbor: all four sessions run concurrently
    // under the survivable config; everyone's rows must equal solo.
    db.set_faults(Some(cfg));
    db.storage().flush_pool();
    std::thread::scope(|scope| {
        for ((shape, plan), rows) in survivors.iter().zip(&refs) {
            let db = &db;
            scope.spawn(move || {
                let got = db.run(plan).expect("survivor beside a degraded session");
                assert_eq!(&got.rows, rows, "{shape}: rows diverge beside a degraded session");
            });
        }
        let db = &db;
        let clean_rows = &clean.rows;
        scope.spawn(move || {
            let got = db.run(&poison_plan()).expect("degraded run under concurrency");
            assert_eq!(&got.rows, clean_rows, "poison session: retried rows diverge");
        });
    });

    // Leg B — failing neighbor: certain page faults exhaust the retry
    // budget, the poisoned query fails typed, the survivors don't care.
    db.set_faults(Some(cfg.io_err(1.0)));
    db.storage().flush_pool();
    std::thread::scope(|scope| {
        for ((shape, plan), rows) in survivors.iter().zip(&refs) {
            let db = &db;
            scope.spawn(move || {
                let got = db.run(plan).expect("survivor beside a failing session");
                assert_eq!(&got.rows, rows, "{shape}: rows diverge beside a failing session");
            });
        }
        let db = &db;
        scope.spawn(move || {
            let err = db.run(&poison_plan()).expect_err("certain faults must fail");
            assert_eq!(err, Error::Faulted { attempts: RETRY_LIMIT }, "wrong failure type");
        });
    });
    db.set_faults(None);

    // Recovery: once faults clear the same engine serves the poisoned
    // plan again.
    db.storage().flush_pool();
    let recovered = db.run(&poison_plan()).expect("engine survives the poisoned leg");
    assert_eq!(recovered.rows, clean.rows, "post-fault recovery returned different rows");

    let mut table = Report::new(
        "faults",
        "4 sessions, one poisoned (faults scoped to the poison heap file): survivor rows \
         vs solo, and the degraded run's exactly-predicted retry backoff",
        &["session", "plan", "rows", "degraded leg", "failing leg"],
    );
    for (i, ((shape, _), rows)) in survivors.iter().zip(&refs).enumerate() {
        table.row(vec![
            format!("s{i}"),
            format!("micro {shape}"),
            rows.len().to_string(),
            "rows = solo".into(),
            "rows = solo".into(),
        ]);
    }
    table.row(vec![
        "s3".into(),
        "poison full+agg".into(),
        clean.rows.len().to_string(),
        format!("ok, +{:.2} virtual_ms backoff", predicted_ns as f64 / 1e6),
        format!("Err(Faulted {{ attempts: {RETRY_LIMIT} }})"),
    ]);

    json_metric(Metric::new("faults.poison.pages", poison_pages as f64, "pages", false));
    json_metric(Metric::new("faults.poison.retried_pages", retried_pages as f64, "pages", false));
    // The searched seed decides every number above: a baseline taken
    // under another one is not comparable.
    json_scale("faults.seed", cfg.seed as f64);
    // Survive to the report only after the asserts above held.
    json_metric(
        Metric::new("faults.retry.backoff_ms", predicted_ns as f64 / 1e6, "virtual_ms", true)
            .with_floor(BACKOFF_MS_FLOOR),
    );
    json_metric(Metric::new("faults.retry.backoff_exact", 1.0, "bool", true).with_floor(1.0));
    json_metric(Metric::new("faults.mixed.rows_match", 1.0, "bool", true).with_floor(1.0));

    table.finish();
    println!(
        "  [{retried_pages}/{poison_pages} poison pages retried for +{:.2} virtual_ms \
         (seed {}); survivors byte-identical beside degraded and failing sessions]",
        predicted_ns as f64 / 1e6,
        cfg.seed
    );
}

#[cfg(test)]
mod tests {
    use smooth_planner::Database;

    use super::*;

    /// Smoke-scale gate invariants, relation-only (heap file ids are
    /// process-global, so absolute seeds and backoffs depend on test
    /// interleaving): the replayed prediction matches the measured
    /// clock exactly, retried rows equal fault-free rows, and a clean
    /// neighbor is untouched beside a permanently failing session.
    #[test]
    fn predicted_backoff_is_exact_and_neighbors_survive() {
        let mut db = Database::new(setup::storage_config(nvme(), 64));
        db.set_faults(None);
        db.load_table(POISON_TABLE, poison_schema(), poison_rows(4_000)).unwrap();
        db.load_table("clean", poison_schema(), poison_rows(4_000)).unwrap();
        db.set_workers(2);
        db.set_max_queries(2);
        let (file, pages) = {
            let entry = db.table(POISON_TABLE).unwrap();
            (entry.heap.file_id(), entry.heap.page_count())
        };
        let (cfg, predicted_ns, _) = search_seed(file, pages);

        db.storage().flush_pool();
        let clean_ref = db.run(&full_agg_plan("clean")).unwrap().rows;
        db.storage().flush_pool();
        let before = db.storage().clock().snapshot();
        let base = db.run(&poison_plan()).unwrap();
        let base_d = db.storage().clock().snapshot().since(&before);

        db.set_faults(Some(cfg));
        db.storage().flush_pool();
        let before = db.storage().clock().snapshot();
        let degraded = db.run(&poison_plan()).expect("survivable config");
        let degraded_d = db.storage().clock().snapshot().since(&before);
        assert_eq!(degraded.rows, base.rows);
        assert_eq!(degraded_d.cpu_ns, base_d.cpu_ns);
        assert_eq!(degraded_d.io_ns, base_d.io_ns + predicted_ns);

        db.set_faults(Some(cfg.io_err(1.0)));
        db.storage().flush_pool();
        std::thread::scope(|scope| {
            let db = &db;
            let clean_ref = &clean_ref;
            scope.spawn(move || {
                let got = db.run(&full_agg_plan("clean")).expect("clean neighbor");
                assert_eq!(&got.rows, clean_ref, "neighbor rows diverge beside a failing session");
            });
            scope.spawn(move || {
                let err = db.run(&poison_plan()).expect_err("certain faults fail");
                assert_eq!(err, Error::Faulted { attempts: RETRY_LIMIT });
            });
        });
        db.set_faults(None);
        let recovered = db.run(&poison_plan()).unwrap();
        assert_eq!(recovered.rows, base.rows);
    }
}
