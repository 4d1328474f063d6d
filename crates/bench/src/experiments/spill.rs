//! Larger-than-memory execution: grace hash join and external sort
//! under `SMOOTH_MEM_BYTES`.
//!
//! Not a paper figure: this experiment records what the spilling work
//! buys and pins its two invariants (see `docs/larger_than_memory.md`).
//! The join shape is the `join` experiment's self-join of the micro
//! table (full-scan probe, 10%-selectivity build side on `c2`), run
//! once unbudgeted and once under a budget far below the build side's
//! encoded size, so whole build partitions must spill to charged
//! overflow files and recurse. The sort shape is the same filtered scan
//! topped by an explicit `Sort`, which the budget forces to cut and
//! charge the external merge sort's spilled runs.
//!
//! **Gates.** Only deterministic modeled numbers gate:
//!
//! * `spill.join.modeled_spill_ms` — the virtual-clock I/O the grace
//!   join charges beyond the unbudgeted run (write + re-partition +
//!   re-read of build and probe overflow files). Floor-gated: the
//!   budget must actually force spilling at smoke scale.
//! * `spill.join.clock_match` — a hard equality bundle: the budgeted
//!   run's rows match the unbudgeted run's byte-for-byte; its CPU lane
//!   and disk-arm I/O counters are untouched (spill charges land on
//!   the I/O lane only); parallel budgeted runs at 2/4/8 workers are
//!   byte-identical to the budgeted serial run in rows, clock and I/O
//!   counters; and a huge (1 GiB) budget charges *exactly* the
//!   unbudgeted clock — the in-memory path's zero-spill assert.
//! * `spill.sort.modeled_spill_ms` — same floor for the external
//!   sort's run files, with the budgeted ordering asserted equal to
//!   the in-memory sort's.

use smooth_executor::sort::SortKey;
use smooth_planner::{AccessPathChoice, Database, LogicalPlan, QueryResult};
use smooth_workload::micro;

use crate::experiments::join::join_plan;
use crate::report::{json_metric, Metric, Report};
use crate::setup;

/// Memory budget (bytes) used for the spilling legs: far below the
/// smoke-scale build side's encoded size, so partitions must spill.
pub const TIGHT_BUDGET: usize = 16 << 10;
/// Budget for the zero-spill leg: larger than any experiment table.
pub const HUGE_BUDGET: usize = 1 << 30;
/// Floor (ms) on the modeled spill I/O of either budgeted leg.
pub const SPILL_MS_FLOOR: f64 = 0.05;

/// The filtered scan topped by an explicit sort on `c2` (the scan's
/// heap order is by `c0`, so the sort really reorders).
fn sort_plan() -> LogicalPlan {
    micro::query(0.1, false, AccessPathChoice::ForceFull).sort(vec![SortKey::asc(micro::C2)])
}

/// Cold-run `plan` at `workers` under `budget` bytes (0 = unlimited),
/// returning the full result for row and counter comparison.
fn run_budgeted(
    db: &mut Database,
    plan: &LogicalPlan,
    workers: usize,
    budget: usize,
) -> QueryResult {
    db.set_workers(workers);
    db.set_mem_bytes(budget);
    db.run(plan).expect("budgeted run")
}

/// Run the larger-than-memory experiment and its equality checks.
pub fn run() {
    let mut db = setup::micro_db(setup::nvme());
    let mut table = Report::new(
        "spill",
        "grace hash join and external sort under SMOOTH_MEM_BYTES (modeled spill I/O from \
         the virtual clock; rows are asserted byte-identical to the unbudgeted runs)",
        &["shape", "budget", "spill_ms", "rows"],
    );

    // ---- Grace hash join ------------------------------------------------
    let plan = join_plan();
    let free = run_budgeted(&mut db, &plan, 1, 0);
    let tight = run_budgeted(&mut db, &plan, 1, TIGHT_BUDGET);
    assert_eq!(tight.rows, free.rows, "spilling must not change join rows");
    assert_eq!(
        tight.stats.clock.cpu_ns, free.stats.clock.cpu_ns,
        "spill charges must land on the I/O lane only"
    );
    assert_eq!(
        setup::disk_arm(&tight.stats.io),
        setup::disk_arm(&free.stats.io),
        "overflow files are modeled transfers — disk-arm counters stay untouched"
    );
    let join_spill_ns = tight.stats.clock.io_ns - free.stats.clock.io_ns;
    assert!(join_spill_ns > 0, "tight budget must charge spill I/O");

    // Budgeted parallel runs must be byte-identical to the budgeted
    // serial run — worker interleavings cannot perturb spill charges.
    setup::same_at_every_width(&mut db, &plan, &tight);

    // Zero-spill assert: a budget the build fits charges *exactly* the
    // unbudgeted clock — the in-memory path is untouched.
    let huge = run_budgeted(&mut db, &plan, 1, HUGE_BUDGET);
    assert_eq!(huge.rows, free.rows, "huge-budget rows diverge");
    assert_eq!(huge.stats.clock, free.stats.clock, "a fitting budget must charge nothing");

    let join_ms = join_spill_ns as f64 / 1e6;
    table.row(vec![
        "join".into(),
        format!("{} KiB", TIGHT_BUDGET >> 10),
        format!("{join_ms:.3}"),
        tight.stats.rows.to_string(),
    ]);
    json_metric(
        Metric::new("spill.join.modeled_spill_ms", join_ms, "ms", false).with_floor(SPILL_MS_FLOOR),
    );

    // ---- External sort --------------------------------------------------
    let plan = sort_plan();
    let free = run_budgeted(&mut db, &plan, 1, 0);
    let tight = run_budgeted(&mut db, &plan, 1, TIGHT_BUDGET);
    assert_eq!(tight.rows, free.rows, "external sort must reproduce the in-memory order");
    // (CPU legitimately differs: the charged per-run sorts plus the
    // k-way merge replace one big n·log n; only the ordering is pinned.)
    let sort_spill_ns = tight.stats.clock.io_ns - free.stats.clock.io_ns;
    assert!(sort_spill_ns > 0, "tight budget must spill sorted runs");
    let sort_ms = sort_spill_ns as f64 / 1e6;
    table.row(vec![
        "sort".into(),
        format!("{} KiB", TIGHT_BUDGET >> 10),
        format!("{sort_ms:.3}"),
        tight.stats.rows.to_string(),
    ]);
    json_metric(
        Metric::new("spill.sort.modeled_spill_ms", sort_ms, "ms", false).with_floor(SPILL_MS_FLOOR),
    );

    table.finish();

    // Survives to the report only after every equality assert held.
    json_metric(Metric::new("spill.join.clock_match", 1.0, "bool", true).with_floor(1.0));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smoke-scale gate invariants: the tight budget forces real
    /// modeled spill I/O over the floor, rows stay byte-identical, and
    /// the huge budget charges exactly the unbudgeted clock.
    #[test]
    fn tight_budget_spills_and_huge_budget_is_exact() {
        let mut db = setup::micro_db(setup::nvme());
        let plan = join_plan();
        let free = run_budgeted(&mut db, &plan, 1, 0);
        let tight = run_budgeted(&mut db, &plan, 1, TIGHT_BUDGET);
        assert_eq!(tight.rows, free.rows);
        assert_eq!(tight.stats.clock.cpu_ns, free.stats.clock.cpu_ns);
        let spill_ms = (tight.stats.clock.io_ns - free.stats.clock.io_ns) as f64 / 1e6;
        assert!(
            spill_ms >= SPILL_MS_FLOOR,
            "modeled join spill {spill_ms:.4} ms under the {SPILL_MS_FLOOR} floor"
        );
        let huge = run_budgeted(&mut db, &plan, 1, HUGE_BUDGET);
        assert_eq!(huge.stats.clock, free.stats.clock);
        let plan = sort_plan();
        let free = run_budgeted(&mut db, &plan, 1, 0);
        let tight = run_budgeted(&mut db, &plan, 1, TIGHT_BUDGET);
        assert_eq!(tight.rows, free.rows);
        assert!(tight.stats.clock.io_ns > free.stats.clock.io_ns, "sort must spill runs");
    }
}
