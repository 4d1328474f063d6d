//! Fig. 4 + Table II: improving TPC-H with Smooth Scan.
//!
//! For each of Q1 (98%), Q4 (65%), Q6 (2%), Q7 (30%) and Q14 (1%): run the
//! plan PostgreSQL 9.2.1 chose (Section VI-B), the same plan with Smooth
//! Scan as the LINEITEM access path, and — a third discipline — Smooth
//! Scan for LINEITEM *and* for every index join's inner side, where it is
//! the morphing inner path of Section IV-B. Reports execution time split
//! into CPU utilization and I/O wait (Fig. 4) plus the number of I/O
//! requests and data read (Table II), and asserts that every discipline
//! returns PostgreSQL's rows.
//!
//! Expected shape: large wins where PostgreSQL picked an index scan at
//! non-trivial selectivity (Q6 ~10×, Q7 ~7×, Q14 ~8×), near-parity with a
//! small Smooth overhead where the choice was already optimal (Q1 +14%,
//! Q4 < +1% in the paper). The morphing inner side fetches each inner heap
//! page at most once, so it can only help the index joins of Q4, Q7, Q14.

use smooth_core::SmoothScanConfig;
use smooth_planner::{AccessPathChoice, JoinStrategy, LogicalPlan, RunStats};
use smooth_storage::DeviceProfile;
use smooth_types::Row;
use smooth_workload::tpch::queries::Fig4Query;

use crate::report::Report;
use crate::setup;

/// `plan` with every index join's inner scan on `access`.
fn with_inner_access(plan: LogicalPlan, access: &AccessPathChoice) -> LogicalPlan {
    let with = |input: Box<LogicalPlan>| Box::new(with_inner_access(*input, access));
    match plan {
        LogicalPlan::Join(mut spec) => {
            spec.left = with_inner_access(spec.left, access);
            spec.right = match spec.right {
                LogicalPlan::Scan(inner) if spec.strategy == JoinStrategy::IndexNestedLoop => {
                    LogicalPlan::Scan(inner.with_access(access.clone()))
                }
                right => with_inner_access(right, access),
            };
            LogicalPlan::Join(spec)
        }
        LogicalPlan::Aggregate { input, group_cols, aggs } => {
            LogicalPlan::Aggregate { input: with(input), group_cols, aggs }
        }
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort { input: with(input), keys },
        LogicalPlan::Project { input, cols } => LogicalPlan::Project { input: with(input), cols },
        LogicalPlan::Filter { input, predicate } => {
            LogicalPlan::Filter { input: with(input), predicate }
        }
        scan @ LogicalPlan::Scan(_) => scan,
    }
}

/// The rows in a canonical order (aggregate groups may come in any).
fn canonical(rows: &[Row]) -> Vec<String> {
    let mut rows: Vec<String> = rows.iter().map(|r| format!("{:?}", r.values())).collect();
    rows.sort();
    rows
}

/// Run the five queries under the three disciplines.
pub fn run() {
    let db = setup::tpch_tuned(DeviceProfile::hdd());
    let mut fig = Report::new(
        "fig4",
        "TPC-H with Smooth Scan (virtual s; pSQL = PostgreSQL's plan; ss = Smooth for \
         LINEITEM; morph = Smooth for LINEITEM and every index-join inner)",
        &[
            "query",
            "psql_cpu_s",
            "psql_io_s",
            "psql_total_s",
            "ss_cpu_s",
            "ss_io_s",
            "ss_total_s",
            "speedup",
            "morph_cpu_s",
            "morph_io_s",
            "morph_total_s",
            "morph_speedup",
        ],
    );
    let mut table2 = Report::new(
        "table2",
        "I/O analysis (Table II)",
        &[
            "query",
            "psql_io_req_K",
            "ss_io_req_K",
            "morph_io_req_K",
            "psql_read_MB",
            "ss_read_MB",
            "morph_read_MB",
        ],
    );
    let smooth = AccessPathChoice::Smooth(SmoothScanConfig::eager_elastic());
    for q in Fig4Query::all() {
        let psql = db.run(&q.plan(q.psql_access())).expect("psql plan");
        let expected = canonical(&psql.rows);
        let run = |plan: &LogicalPlan, what: &str| -> RunStats {
            let got = db.run(plan).unwrap_or_else(|e| panic!("{what} plan: {e}"));
            assert_eq!(canonical(&got.rows), expected, "{}: {what} rows", q.label());
            got.stats
        };
        let ss = run(&q.plan(smooth.clone()), "smooth");
        let morph = run(&with_inner_access(q.plan(smooth.clone()), &smooth), "morphing");
        let psql = psql.stats;
        let secs = |s: &RunStats| {
            let (cpu, io) = (s.clock.cpu_ns as f64 / 1e9, s.clock.io_ns as f64 / 1e9);
            [Report::secs(cpu), Report::secs(io), Report::secs(s.secs())]
        };
        let speedup = |s: &RunStats| Report::factor(psql.secs() / s.secs().max(1e-9));
        let mut row = vec![q.label().to_string()];
        row.extend(secs(&psql));
        row.extend(secs(&ss));
        row.push(speedup(&ss));
        row.extend(secs(&morph));
        row.push(speedup(&morph));
        fig.row(row);
        let requests = |s: &RunStats| format!("{:.1}", s.io.io_requests as f64 / 1e3);
        let mb = |s: &RunStats| format!("{:.1}", s.io.mb_read());
        table2.row(vec![
            q.label().to_string(),
            requests(&psql),
            requests(&ss),
            requests(&morph),
            mb(&psql),
            mb(&ss),
            mb(&morph),
        ]);
    }
    fig.finish();
    table2.finish();
}
