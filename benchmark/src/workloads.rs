//! The four workloads: what each builds, which queries a round runs, and
//! under which engine settings. README.md records why each exists.

use smooth_workload::tpch::queries::Fig4Query;
use smooth_workload::{micro, tpch};
use smoothscan::prelude::*;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] =
    ["scan_sweep", "analytic_serial", "analytic_parallel", "analytic_spill"];

/// The selectivity grid of `scan_sweep` (and of the `core` layer sweep),
/// with the label each point carries in class names.
pub const SELECTIVITIES: [(f64, &str); 4] =
    [(0.001, "0.1"), (0.01, "1"), (0.1, "10"), (1.0, "100")];

/// Index Scan is capped here: past 10 % its random fetches only measure
/// the device model, at a cost of minutes of virtual time per round.
const INDEX_SCAN_CAP: f64 = 0.1;

/// NVMe-like device of the analytic workloads (the `parallel` / `join`
/// experiments' profile): the regime where scans are CPU-bound, so the
/// executor rather than the device model is what a round times.
fn nvme() -> DeviceProfile {
    DeviceProfile::custom("nvme", 3_000, 6_000)
}

/// Table sizes. Fixed per mode: a time cap cuts rounds, never rows.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub sweep_rows: u64,
    pub analytic_rows: u64,
    pub tpch_sf: f64,
    pub spill_budget: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        sweep_rows: 1_000_000,
        analytic_rows: 500_000,
        tpch_sf: 0.05,
        spill_budget: 64 << 10,
    };
    /// `--quick`: smoke scale, numbers not comparable with `FULL`. The
    /// budget shrinks with the tables so every spill class still spills.
    pub const QUICK: Sizes =
        Sizes { sweep_rows: 50_000, analytic_rows: 50_000, tpch_sf: 0.005, spill_budget: 4 << 10 };
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ScanSweep,
    Analytic,
}

/// One workload's fixed settings.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    /// Engine workers, set explicitly; never above 2 (the reference host
    /// has 2 cores).
    pub workers: usize,
    /// Per-operator memory budget; 0 = unlimited.
    pub mem_bytes: usize,
}

impl Spec {
    pub fn by_name(name: &str, sizes: &Sizes) -> Option<Spec> {
        let spec = |name, kind, workers, mem_bytes| Spec { name, kind, workers, mem_bytes };
        Some(match name {
            "scan_sweep" => spec("scan_sweep", Kind::ScanSweep, 1, 0),
            "analytic_serial" => spec("analytic_serial", Kind::Analytic, 1, 0),
            "analytic_parallel" => spec("analytic_parallel", Kind::Analytic, 2, 0),
            "analytic_spill" => spec("analytic_spill", Kind::Analytic, 1, sizes.spill_budget),
            _ => return None,
        })
    }
}

/// One query class of a round.
pub struct Class {
    pub name: String,
    pub plan: LogicalPlan,
    /// Result order is part of the contract (ordered scans, sorts).
    pub ordered: bool,
    /// Row count known from the data generator alone (micro scans).
    pub generator_rows: Option<u64>,
}

/// A built workload database plus the generator-side oracle.
pub struct Built {
    pub db: Database,
    /// Micro rows with `c2` under each [`SELECTIVITIES`] bound, counted
    /// while the generator streamed into the loader — before the engine
    /// ever saw a row.
    pub qualifiers: [u64; 4],
}

/// Upper `c2` bound of [`micro::predicate`] at `sel`.
fn c2_bound(sel: f64) -> i64 {
    (sel.clamp(0.0, 1.0) * micro::KEY_DOMAIN as f64).round() as i64
}

/// `micro::install`, with the generator tapped for the qualifier counts.
fn install_micro(db: &mut Database, rows: u64, seed: u64) -> Result<[u64; 4], Error> {
    let bounds = SELECTIVITIES.map(|(sel, _)| c2_bound(sel));
    let mut qualifiers = [0u64; 4];
    db.load_table(
        micro::TABLE,
        micro::schema(),
        micro::rows(rows, seed).inspect(|row| {
            let c2 = row.int(micro::C2).expect("micro c2 is an integer");
            for (count, bound) in qualifiers.iter_mut().zip(bounds) {
                *count += u64::from(c2 < bound);
            }
        }),
    )?;
    db.create_index(micro::TABLE, micro::C2, "micro_c2")?;
    Ok(qualifiers)
}

/// Build the workload's database: generate, load, analyze, index.
pub fn build(spec: &Spec, sizes: &Sizes, seed: u64) -> Result<Built, Error> {
    match spec.kind {
        Kind::ScanSweep => {
            // Pool = 1/16 of the heap (≈ 90 tuples/page): the table is 16×
            // the cache, the paper's cold regime.
            let pool_pages = ((sizes.sweep_rows / 90 / 16) as usize).max(64);
            let cfg = StorageConfig {
                device: DeviceProfile::hdd(),
                cpu: CpuCosts::default(),
                pool_pages,
            };
            let mut db = Database::new(cfg);
            let qualifiers = install_micro(&mut db, sizes.sweep_rows, seed)?;
            Ok(Built { db, qualifiers })
        }
        Kind::Analytic => {
            // Pool larger than every table together, so intra-query
            // re-reads (INLJ inner sides, morphing regions) hit.
            let cfg =
                StorageConfig { device: nvme(), cpu: CpuCosts::default(), pool_pages: 1 << 18 };
            let mut db = Database::new(cfg);
            let qualifiers = install_micro(&mut db, sizes.analytic_rows, seed)?;
            tpch::install(&mut db, tpch::Scale { sf: sizes.tpch_sf, seed })?;
            tpch::gen::create_tuning_indexes(&mut db)?;
            Ok(Built { db, qualifiers })
        }
    }
}

fn smooth() -> AccessPathChoice {
    AccessPathChoice::Smooth(SmoothScanConfig::eager_elastic())
}

/// Micro self-join on `c2`: full-scan probe side, 10 % build side.
pub fn join_sel10() -> LogicalPlan {
    let probe = micro::query(1.0, false, AccessPathChoice::ForceFull);
    let build = micro::query(0.1, false, AccessPathChoice::ForceFull);
    probe
        .join(build, micro::C2, micro::C2, JoinType::Inner, JoinStrategy::Hash)
        .aggregate(vec![], vec![AggFunc::CountStar, AggFunc::Sum(0)])
}

/// Scalar aggregate over the 10 % filtered scan.
pub fn agg_scalar_sel10() -> LogicalPlan {
    micro::query(0.1, false, AccessPathChoice::ForceFull).aggregate(
        vec![],
        vec![AggFunc::CountStar, AggFunc::Sum(2), AggFunc::Min(0), AggFunc::Max(0)],
    )
}

/// Filtered scan topped by a sort on `(c2, c1)` — `c1` is unique, so the
/// expected order is total and owes nothing to sort stability.
fn sort_sel(sel: f64) -> LogicalPlan {
    micro::query(sel, false, AccessPathChoice::ForceFull)
        .sort(vec![SortKey::asc(micro::C2), SortKey::asc(0)])
}

/// TPC-H Q4 with its join flipped from index-nested-loop to hash. As the
/// engine writes Q4 it probes `orders` through its primary-key index and
/// holds no state a budget could push out; the spill workload needs the
/// shape that does.
fn q4_hash() -> LogicalPlan {
    let mut plan = Fig4Query::Q4.plan(smooth());
    let LogicalPlan::Aggregate { input, .. } = &mut plan else {
        panic!("Q4 is no longer an aggregate over a join")
    };
    let LogicalPlan::Join(join) = input.as_mut() else {
        panic!("Q4 is no longer an aggregate over a join")
    };
    join.strategy = JoinStrategy::Hash;
    plan
}

/// The query list one round executes, in order.
pub fn classes(spec: &Spec, built: &Built) -> Vec<Class> {
    let class = |name: &str, plan, ordered| Class {
        name: name.into(),
        plan,
        ordered,
        generator_rows: None,
    };
    let tpch = |q: Fig4Query, name: &str| class(name, q.plan(smooth()), false);
    match (spec.kind, spec.mem_bytes) {
        (Kind::ScanSweep, _) => {
            let mut out = Vec::new();
            for (i, (sel, label)) in SELECTIVITIES.into_iter().enumerate() {
                let mut paths = vec![("full", AccessPathChoice::ForceFull)];
                if sel <= INDEX_SCAN_CAP {
                    paths.push(("index", AccessPathChoice::ForceIndex));
                }
                paths.push(("sort", AccessPathChoice::ForceSort));
                paths.push(("smooth", smooth()));
                for (path, access) in paths {
                    out.push(Class {
                        name: format!("{path}.sel{label}"),
                        plan: micro::query(sel, false, access),
                        ordered: false,
                        generator_rows: Some(built.qualifiers[i]),
                    });
                }
            }
            for i in [1, 2] {
                let (sel, label) = SELECTIVITIES[i];
                out.push(Class {
                    name: format!("ordered:smooth.sel{label}"),
                    plan: micro::query(sel, true, smooth()),
                    ordered: true,
                    generator_rows: Some(built.qualifiers[i]),
                });
            }
            out
        }
        (Kind::Analytic, 0) => vec![
            class("join_sel10", join_sel10(), false),
            class("agg_scalar_sel10", agg_scalar_sel10(), false),
            class(
                "agg_group",
                micro::query(1.0, false, AccessPathChoice::ForceFull)
                    .aggregate(vec![2], vec![AggFunc::CountStar, AggFunc::Sum(3)]),
                false,
            ),
            class("sort_sel10", sort_sel(0.1), true),
            tpch(Fig4Query::Q1, "tpch_q1"),
            tpch(Fig4Query::Q4, "tpch_q4"),
            tpch(Fig4Query::Q6, "tpch_q6"),
            tpch(Fig4Query::Q7, "tpch_q7"),
            tpch(Fig4Query::Q14, "tpch_q14"),
        ],
        (Kind::Analytic, _) => vec![
            class("join_sel10", join_sel10(), false),
            class("sort_sel10", sort_sel(0.1), true),
            class("sort_sel30", sort_sel(0.3), true),
            class("tpch_q4_hash", q4_hash(), false),
            tpch(Fig4Query::Q7, "tpch_q7"),
        ],
    }
}
