//! Concurrent multi-session serving on the shared engine.
//!
//! Not a paper figure: this experiment records what PR 6 buys — one
//! engine-global worker pool serving several sessions at once instead
//! of executing queries one at a time. Four deterministic client
//! sessions each drive one shape of a mixed plan set (filtered scan,
//! scalar aggregate, grouped average, hash join) against a single
//! shared [`Database`] on the NVMe-like profile.
//!
//! **Gates.** As everywhere in this repo, only machine-comparable
//! numbers gate (see `report.rs`). The headline metric is the modeled
//! throughput ratio `serve.mixed.model_qps_ratio.w4`: the closed-form
//! makespan of all four queries' traced virtual-clock ledgers over one
//! shared 4-worker pool ([`smooth_executor::multi_query_makespan_ns`]:
//! the longest solo makespan, or the summed work spread over the pool),
//! compared against running the same four queries one at a time at the
//! same worker count. The ratio is > 1 exactly because cross-query
//! scheduling fills the stalls each query's serialized source chain
//! leaves on the pool with another query's decode work — and it is
//! bit-stable across machines. `serve.mixed.serial_share` reports the
//! four sources' share of the summed work.
//!
//! **Correctness leg.** The experiment also runs the four sessions for
//! real on `std::thread` and hard-asserts every session's rows — and
//! per-query [`smooth_planner::QueryResult::scan`] row attribution —
//! are identical to a solo run of the same plan. Rows must be
//! interleaving-invariant; virtual clock and I/O are legitimately *not*
//! (the sessions share one disk arm and one buffer pool), so they stay
//! unasserted here and byte-identical single-session elsewhere.
//!
//! [`Database`]: smooth_planner::Database

use smooth_executor::{multi_query_makespan_ns, AggFunc, ScalingLedger};
use smooth_planner::{AccessPathChoice, LogicalPlan};
use smooth_workload::micro;

use crate::experiments::{join, parallel};
use crate::report::{json_metric, Metric, Report};
use crate::setup;

/// Concurrent client sessions (one per mixed-set shape).
pub const SESSIONS: usize = 4;
/// Worker-pool width the gate models and the real leg runs.
pub const WORKERS: usize = 4;
/// Floor on the modeled 4-worker throughput ratio of serving the mixed
/// set concurrently vs one at a time.
pub const MODEL_QPS_RATIO_FLOOR: f64 = 1.05;
/// Times each real session repeats its plan (exercises steady-state
/// admission, not just a single burst).
const REPEATS: usize = 2;

/// The mixed plan set: one shape per session — the `parallel`
/// experiment's two shapes, a grouped average and the `join`
/// experiment's self-join.
fn plans() -> Vec<(&'static str, LogicalPlan)> {
    let group = micro::query(0.01, false, AccessPathChoice::ForceFull)
        .aggregate(vec![micro::C2], vec![AggFunc::Avg(2), AggFunc::CountStar]);
    vec![
        ("scan", parallel::scan_plan()),
        ("agg", parallel::agg_plan()),
        ("group", group),
        ("join", join::join_plan()),
    ]
}

/// Run the serving experiment: the modeled throughput gate and the real
/// concurrent-session correctness leg.
pub fn run() {
    let mut db = setup::micro_db(setup::nvme());
    let mixed = plans();
    let mut table = Report::new(
        "serve",
        "N concurrent sessions on one shared engine, mixed plan set (modeled qps ratio \
         from the per-query virtual-clock ledgers)",
        &["shape", "rows", "rows_processed", "pages_read", "virtual_ms_1w"],
    );

    // Solo references: per-plan rows + per-query scan statistics through
    // the shared scheduler (one session, nothing else running), and the
    // traced ledgers the multi-query model consumes.
    db.set_workers(WORKERS);
    db.set_max_queries(SESSIONS);
    let solo: Vec<_> = mixed
        .iter()
        .map(|(shape, plan)| {
            let got = db.run(plan).expect("solo run");
            let (n_traced, _, ledger) = setup::traced_run(&db, plan);
            assert_eq!(n_traced, got.rows.len(), "{shape}: traced row count");
            table.row(vec![
                (*shape).into(),
                got.rows.len().to_string(),
                got.scan.rows_processed.to_string(),
                got.scan.pages_read.to_string(),
                format!("{:.2}", ledger.total_ns() as f64 / 1e6),
            ]);
            // Per-query scan statistics, surfaced in the JSON report
            // (deterministic when the query runs alone).
            json_metric(Metric::new(
                format!("serve.{shape}.scan.rows_processed"),
                got.scan.rows_processed as f64,
                "rows",
                true,
            ));
            json_metric(Metric::new(
                format!("serve.{shape}.scan.pages_read"),
                got.scan.pages_read as f64,
                "pages",
                false,
            ));
            json_metric(Metric::new(
                format!("serve.{shape}.scan.mb_read"),
                got.scan.mb_read(),
                "mb",
                false,
            ));
            (got.rows, got.scan, ledger)
        })
        .collect();

    // The deterministic throughput model: four traced queries over one
    // shared pool vs the same four chained one at a time.
    let ledgers: Vec<ScalingLedger> = solo.iter().map(|(_, _, l)| l.clone()).collect();
    let chained: u64 = ledgers.iter().map(|l| l.makespan_ns(WORKERS)).sum();
    let served = multi_query_makespan_ns(&ledgers, WORKERS);
    let ratio = chained as f64 / served.max(1) as f64;
    json_metric(
        Metric::new(format!("serve.mixed.model_qps_ratio.w{WORKERS}"), ratio, "x", true)
            .with_floor(MODEL_QPS_RATIO_FLOOR),
    );
    json_metric(Metric::new(
        "serve.mixed.serial_share",
        setup::serial_share(&ledgers),
        "ratio",
        false,
    ));

    // The real concurrent leg: one thread per session, every run's rows
    // and scan attribution must equal the solo run exactly.
    std::thread::scope(|scope| {
        for ((shape, plan), (rows, scan, _)) in mixed.iter().zip(&solo) {
            let db = &db;
            scope.spawn(move || {
                for _ in 0..REPEATS {
                    let got = db.run(plan).expect("concurrent run");
                    assert_eq!(&got.rows, rows, "{shape}: concurrent rows diverge from solo");
                    assert_eq!(
                        got.scan.rows_processed, scan.rows_processed,
                        "{shape}: per-query row attribution diverges under concurrency"
                    );
                }
            });
        }
    });
    let queries = SESSIONS * REPEATS;

    table.finish();
    println!(
        "  [modeled qps ratio {ratio:.3}x over one-at-a-time at {WORKERS} workers; \
         {queries} concurrent queries row-identical to solo]"
    );

    // Survives to the report only after every concurrent-equality assert
    // held (the serve analogue of the clock_match gates).
    json_metric(Metric::new("serve.mixed.rows_match", 1.0, "bool", true).with_floor(1.0));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smoke-scale gate invariants: the modeled concurrent-serving
    /// ratio clears the committed floor, and real concurrent sessions
    /// return solo-identical rows.
    #[test]
    fn model_ratio_clears_floor_and_concurrent_rows_match() {
        let mut db = setup::micro_db(setup::nvme());
        db.set_workers(WORKERS);
        db.set_max_queries(SESSIONS);
        let mixed = plans();
        let solo: Vec<_> = mixed
            .iter()
            .map(|(_, plan)| {
                let rows = db.run(plan).expect("solo").rows;
                let (_, _, ledger) = setup::traced_run(&db, plan);
                (rows, ledger)
            })
            .collect();
        let ledgers: Vec<ScalingLedger> = solo.iter().map(|(_, l)| l.clone()).collect();
        let chained: u64 = ledgers.iter().map(|l| l.makespan_ns(WORKERS)).sum();
        let served = multi_query_makespan_ns(&ledgers, WORKERS);
        let ratio = chained as f64 / served.max(1) as f64;
        assert!(
            ratio >= MODEL_QPS_RATIO_FLOOR,
            "modeled serving ratio {ratio:.3} under the {MODEL_QPS_RATIO_FLOOR} floor"
        );
        std::thread::scope(|scope| {
            for ((shape, plan), (rows, _)) in mixed.iter().zip(&solo) {
                let db = &db;
                scope.spawn(move || {
                    let got = db.run(plan).expect("concurrent").rows;
                    assert_eq!(&got, rows, "{shape}: concurrent rows diverge");
                });
            }
        });
    }
}
