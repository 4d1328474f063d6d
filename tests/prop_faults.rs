//! Chaos differential property suite: proptest-generated plans run
//! under seeded deterministic fault injection (`SMOOTH_FAULTS` /
//! [`FaultConfig`]) and must obey the engine's fault contract:
//!
//! 1. **Faults never corrupt results.** A query that completes under
//!    injected faults (transient errors retried away) returns exactly
//!    the rows its fault-free run returns — byte for byte.
//! 2. **Outcomes are deterministic and replayable.** The same seed on
//!    the same database yields the same outcome — same rows or same
//!    error variant — at every worker count and across repeated runs,
//!    because every fault draw is a pure hash of the seed and the
//!    operation's stable coordinates (never wall clock or thread
//!    interleaving).
//! 3. **Failure is isolated.** With one session poisoned (faults scoped
//!    to its table's file), the other concurrent sessions' rows are
//!    byte-identical to their solo fault-free runs.
//! 4. **Failure is clean.** A failed query surfaces one typed error
//!    ([`Error::Faulted`], [`Error::Corrupt`], injected-panic
//!    [`Error::Exec`]) — it never hangs the pool.
//!
//! Worker-count equivalence holds for every fault kind at *every*
//! width, one worker included, because every `Database::run` is a
//! scheduled query on the pool whatever the plan's shape: page-run
//! draws happen at source-claim time, serialized in sequence order,
//! and morsel-panic draws key on `(file, phase-qualified seq)`, with
//! seqs claimed in serial source order however many workers claim
//! them.
//!
//! Every database built here installs its fault config explicitly
//! (including `None`), so a process-global `SMOOTH_FAULTS` (the CI
//! fault leg sets one) can never bleed into a reference run.

use std::mem::discriminant;

use proptest::prelude::*;
use smooth_planner::{AccessPathChoice, Database, JoinStrategy, LogicalPlan, ScanSpec};
use smooth_storage::{CpuCosts, DeviceProfile, FaultConfig, StorageConfig};
use smoothscan::prelude::{
    AggFunc, Column, DataType, Error, JoinType, PolicyKind, Predicate, Row, Schema,
    SmoothScanConfig, Value,
};

/// Deterministic pseudo-random column: spreads keys over [0, domain).
fn scramble(i: i64, domain: i64) -> i64 {
    ((i.wrapping_mul(2654435761)) % domain + domain) % domain
}

/// The `prop_concurrent` two-table database plus a third table `p` —
/// the poisoning target for the scoped-fault legs. Constructions are
/// deterministic, but file ids are process-global, so fault draws only
/// replay *within* one database instance; cross-instance comparisons
/// must be against fault-free references.
fn database(rows: i64) -> Database {
    let mut db = Database::new(StorageConfig {
        device: DeviceProfile::custom("t", 1, 10),
        cpu: CpuCosts::default(),
        pool_pages: 48,
    });
    // Whatever SMOOTH_FAULTS installed at construction, this suite
    // controls fault configs explicitly per test.
    db.set_faults(None);
    let schema = Schema::new(vec![
        Column::new("c0", DataType::Int64),
        Column::new("c1", DataType::Int64),
        Column::nullable("c2", DataType::Int64),
        Column::new("pad", DataType::Text),
    ])
    .unwrap();
    db.load_table(
        "t",
        schema.clone(),
        (0..rows).map(|i| {
            let c2 = if i % 11 == 0 { Value::Null } else { Value::Int(scramble(i * 7, 500)) };
            Row::new(vec![
                Value::Int(i),
                Value::Int(scramble(i, 300)),
                c2,
                Value::str("x".repeat(24)),
            ])
        }),
    )
    .unwrap();
    db.create_index("t", 1, "t_c1").unwrap();
    db.load_table(
        "r",
        schema.clone(),
        (0..rows / 3).map(|i| {
            Row::new(vec![
                Value::Int(scramble(i, 300)),
                Value::Int(scramble(i + 13, 300)),
                Value::Int(i),
                Value::str(format!("r{i}")),
            ])
        }),
    )
    .unwrap();
    db.create_index("r", 1, "r_c1").unwrap();
    db.load_table(
        "p",
        schema,
        (0..rows / 2).map(|i| {
            Row::new(vec![
                Value::Int(i),
                Value::Int(scramble(i + 7, 300)),
                Value::Int(scramble(i, 100)),
                Value::str("p".repeat(16)),
            ])
        }),
    )
    .unwrap();
    db.create_index("p", 1, "p_c1").unwrap();
    db
}

#[derive(Debug, Clone)]
struct PlanShape {
    access: AccessPathChoice,
    lo: i64,
    width: i64,
    join: bool,
    agg: bool,
}

fn shape_strategy() -> impl Strategy<Value = PlanShape> {
    (
        prop_oneof![
            3 => Just(AccessPathChoice::ForceFull),
            1 => Just(AccessPathChoice::ForceIndex),
            1 => Just(AccessPathChoice::ForceSort),
            1 => (0usize..3).prop_map(|i| {
                let policy =
                    [PolicyKind::Greedy, PolicyKind::SelectivityIncrease, PolicyKind::Elastic][i];
                AccessPathChoice::Smooth(SmoothScanConfig::default().with_policy(policy))
            }),
        ],
        0i64..300,
        1i64..330,
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(access, lo, width, join, agg)| PlanShape { access, lo, width, join, agg })
}

fn plan_for(shape: &PlanShape) -> LogicalPlan {
    let pred = Predicate::int_half_open(1, shape.lo, shape.lo + shape.width);
    let scan = LogicalPlan::scan(ScanSpec::new("t", pred).with_access(shape.access.clone()));
    let joined = if shape.join {
        scan.join(
            LogicalPlan::scan(ScanSpec::new("r", Predicate::True)),
            1,
            0,
            JoinType::Inner,
            JoinStrategy::Hash,
        )
    } else {
        scan
    };
    if shape.agg {
        joined.aggregate(vec![1], vec![AggFunc::CountStar, AggFunc::Min(0), AggFunc::Max(0)])
    } else {
        joined
    }
}

/// A deterministic fault mix. Probabilities are kept in a band where
/// both survivals (retried transients) and failures occur across seeds.
#[derive(Debug, Clone, Copy)]
struct FaultMix {
    seed: u64,
    io_err: f64,
    corrupt: f64,
    spill_err: f64,
    panic: f64,
}

impl FaultMix {
    fn config(&self) -> FaultConfig {
        FaultConfig::new(self.seed)
            .io_err(self.io_err)
            .corrupt(self.corrupt)
            .spill_err(self.spill_err)
            .panic(self.panic)
    }
}

fn mix_strategy() -> impl Strategy<Value = FaultMix> {
    (
        any::<u64>(),
        prop_oneof![2 => Just(0.0), 2 => Just(0.05), 1 => Just(0.4)],
        prop_oneof![3 => Just(0.0), 1 => Just(0.02)],
        prop_oneof![2 => Just(0.0), 1 => Just(0.3)],
        prop_oneof![2 => Just(0.0), 1 => Just(0.05)],
    )
        .prop_map(|(seed, io_err, corrupt, spill_err, panic)| FaultMix {
            seed,
            io_err,
            corrupt,
            spill_err,
            panic,
        })
}

/// One run's outcome, comparable across runs: the exact rows on
/// success, the error variant on failure (messages may embed morsel
/// keys, but the variant — and for `Faulted` the attempt count — must
/// replay).
#[derive(Debug)]
enum Outcome {
    Rows(Vec<Row>),
    Failed(Error),
}

impl PartialEq for Outcome {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Outcome::Rows(a), Outcome::Rows(b)) => a == b,
            (Outcome::Failed(a), Outcome::Failed(b)) => discriminant(a) == discriminant(b),
            _ => false,
        }
    }
}

fn outcome(db: &Database, plan: &LogicalPlan) -> Outcome {
    match db.run(plan) {
        Ok(out) => Outcome::Rows(out.rows),
        Err(e) => Outcome::Failed(e),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Properties 1 + 2: under a random seeded fault mix, every run of
    /// a plan either returns exactly its fault-free rows or fails with
    /// a typed error — and the outcome is identical across worker
    /// counts and repeated runs on the same database.
    #[test]
    fn fault_outcomes_replay_and_never_corrupt_rows(
        shape in shape_strategy(),
        mix in mix_strategy(),
    ) {
        let plan = plan_for(&shape);
        // Fault-free reference, one-worker pool, fresh database.
        let reference = {
            let mut db = database(900);
            db.set_workers(1);
            db.run(&plan).expect("fault-free reference").rows
        };
        let mut db = database(900);
        db.set_faults(Some(mix.config()));
        let mut first: Option<Outcome> = None;
        for workers in [1usize, 2, 4, 8] {
            db.set_workers(workers);
            let got = outcome(&db, &plan);
            if let Outcome::Rows(rows) = &got {
                prop_assert!(
                    rows == &reference,
                    "survived run diverged from fault-free rows at {workers} workers ({shape:?}, {mix:?})"
                );
            }
            if let Outcome::Failed(e) = &got {
                prop_assert!(
                    matches!(
                        e,
                        Error::Faulted { .. } | Error::Corrupt(_) | Error::Io(_) | Error::Exec(_)
                    ),
                    "fault surfaced as untyped error {e:?} ({shape:?}, {mix:?})"
                );
            }
            match &first {
                None => first = Some(got),
                Some(expected) => prop_assert!(
                    &got == expected,
                    "outcome changed across worker counts: {expected:?} vs {got:?} at {workers} workers ({shape:?}, {mix:?})"
                ),
            }
            // Replay: the same plan on the same database draws the same
            // faults — cold runs flush the pool, and draws are pure
            // functions of stable coordinates.
            let again = outcome(&db, &plan);
            prop_assert!(
                Some(&again) == first.as_ref(),
                "replay diverged at {workers} workers ({shape:?}, {mix:?})"
            );
        }
    }

    /// Property 3: four concurrent sessions, one poisoned via faults
    /// scoped to its table's heap file. The three clean sessions must
    /// return rows byte-identical to their solo fault-free runs; the
    /// poisoned one either survives (exact rows) or fails typed.
    #[test]
    fn poisoned_session_cannot_perturb_the_others(
        shapes in proptest::collection::vec(shape_strategy(), 3..4),
        seed in any::<u64>(),
        io_err in prop_oneof![Just(0.1), Just(1.0)],
        panic in prop_oneof![Just(0.0), Just(0.1)],
    ) {
        let poison_plan =
            LogicalPlan::scan(ScanSpec::new("p", Predicate::int_half_open(1, 0, 200)))
                .aggregate(vec![], vec![AggFunc::CountStar, AggFunc::Sum(0)]);
        // Solo fault-free references on fresh databases.
        let solo: Vec<Vec<Row>> = shapes
            .iter()
            .map(|shape| {
                let mut db = database(900);
                db.set_workers(1);
                db.run(&plan_for(shape)).expect("solo run").rows
            })
            .collect();
        let mut db = database(900);
        db.set_workers(4);
        let poison_reference = {
            db.set_workers(1);
            let rows = db.run(&poison_plan).expect("poison reference").rows;
            db.set_workers(4);
            rows
        };
        let poison_file = db.table("p").unwrap().heap.file_id();
        db.set_faults(Some(
            FaultConfig::new(seed).io_err(io_err).panic(panic).scope_to_file(poison_file),
        ));
        let (clean_results, poisoned) = std::thread::scope(|scope| {
            let clean: Vec<_> = shapes
                .iter()
                .map(|shape| {
                    let db = &db;
                    let plan = plan_for(shape);
                    scope.spawn(move || db.run(&plan).expect("clean session").rows)
                })
                .collect();
            let db = &db;
            let poison_plan = &poison_plan;
            let poisoned = scope.spawn(move || match db.run(poison_plan) {
                Ok(out) => Outcome::Rows(out.rows),
                Err(e) => Outcome::Failed(e),
            });
            (
                clean.into_iter().map(|h| h.join().expect("clean thread")).collect::<Vec<_>>(),
                poisoned.join().expect("poisoned thread"),
            )
        });
        for (i, rows) in clean_results.iter().enumerate() {
            prop_assert!(
                rows == &solo[i],
                "clean session {i} perturbed by the poisoned one ({:?})",
                shapes[i]
            );
        }
        match poisoned {
            Outcome::Rows(rows) => prop_assert!(
                rows == poison_reference,
                "poisoned session survived but with wrong rows"
            ),
            Outcome::Failed(e) => prop_assert!(
                matches!(e, Error::Faulted { .. } | Error::Corrupt(_) | Error::Exec(_)),
                "poisoned session failed untyped: {e:?}"
            ),
        }
        // The engine still serves queries after the poisoned failure.
        db.set_faults(None);
        prop_assert!(db.run(&poison_plan).is_ok());
    }
}

/// Panic containment at four workers: with panics injected on every
/// morsel of the scanned file, whichever worker processes a morsel
/// panics, while its peers claim and process the next ones. The query
/// must fail with the typed injected-panic error and leave the pool
/// serving clean queries — also when the panicking phase is an
/// intermediate one, ending in an aggregate a later phase reads.
#[test]
fn panics_on_four_workers_contain_and_clean_up() {
    let mut db = database(900);
    db.set_workers(4);
    let file = db.table("t").unwrap().heap.file_id();
    let plan = plan_for(&PlanShape {
        access: AccessPathChoice::ForceFull,
        lo: 0,
        width: 300,
        join: false,
        agg: true,
    });
    // An aggregate on a join's probe side: `t` feeds the aggregate's
    // phase, between the build of `r` and the probe of its groups.
    let scan = |table| LogicalPlan::scan(ScanSpec::new(table, Predicate::True));
    let counted = scan("t").aggregate(vec![1], vec![AggFunc::CountStar]);
    let nested = counted.join(scan("r"), 0, 0, JoinType::Inner, JoinStrategy::Hash);
    for plan in [plan, nested] {
        db.set_faults(Some(FaultConfig::new(31).panic(1.0).scope_to_file(file)));
        let err = db.run(&plan).unwrap_err();
        assert!(matches!(&err, Error::Exec(m) if m.contains("injected worker panic")), "{err}");
        db.set_faults(None);
        assert!(!db.run(&plan).unwrap().rows.is_empty(), "pool must survive contained panics");
    }
}

/// Property 4, deterministically: spill-write faults under a tiny
/// memory budget fail mid-spill with the typed variant, and a milder mix
/// either survives its retries with the exact rows or fails typed.
#[test]
fn spill_faults_fail_typed_or_return_exact_rows() {
    let join = LogicalPlan::scan(ScanSpec::new("t", Predicate::int_half_open(1, 0, 250)))
        .join(
            LogicalPlan::scan(ScanSpec::new("r", Predicate::True)),
            1,
            0,
            JoinType::Inner,
            JoinStrategy::Hash,
        )
        .sort(vec![smoothscan::prelude::SortKey::asc(0)]);
    let mut db = database(900);
    db.set_mem_bytes(4096);
    db.set_workers(1);
    let reference = db.run(&join).expect("budgeted fault-free run").rows;
    assert!(!reference.is_empty());
    for workers in [1usize, 4] {
        db.set_workers(workers);
        // Certain spill failure: the query dies with the typed variant.
        db.set_faults(Some(FaultConfig::new(17).spill_err(1.0)));
        let err = db.run(&join).unwrap_err();
        assert!(matches!(err, Error::Faulted { .. }), "{err}");
        // Sparse spill failure: deterministic per (seed, coordinates) —
        // it survives retries with exact rows or fails typed.
        db.set_faults(Some(FaultConfig::new(18).spill_err(0.3)));
        match db.run(&join) {
            Ok(out) => assert_eq!(out.rows, reference, "survived run must be exact"),
            Err(e) => assert!(matches!(e, Error::Faulted { .. }), "{e}"),
        }
        db.set_faults(None);
    }
}

/// The Result Cache's spill writes take the same fault gate: an
/// `ordered:` Smooth Scan under a small budget, with `spill_err`
/// injected, either fails with [`Error::Faulted`] or returns its
/// fault-free rows in order — at every seed drawn, one and four
/// workers. Certain failure must fail, and must fail only because the
/// budget made the cache spill.
#[test]
fn ordered_smooth_scan_spill_faults_fail_typed_or_return_exact_rows() {
    let access = AccessPathChoice::Smooth(SmoothScanConfig::eager_elastic());
    let plan = LogicalPlan::scan(
        ScanSpec::new("t", Predicate::int_half_open(1, 0, 200)).with_access(access).with_order(),
    );
    let mut db = database(900);
    db.set_mem_bytes(2048);
    db.set_workers(1);
    let reference = db.run(&plan).expect("budgeted fault-free run").rows;
    assert!(!reference.is_empty());
    for workers in [1usize, 4] {
        db.set_workers(workers);
        db.set_faults(Some(FaultConfig::new(23).spill_err(1.0)));
        let err = db.run(&plan).unwrap_err();
        assert!(matches!(err, Error::Faulted { .. }), "{err}");
        db.set_mem_bytes(0);
        assert_eq!(db.run(&plan).unwrap().rows, reference, "unbudgeted: no spill, no fault");
        db.set_mem_bytes(2048);
        let (mut survived, mut failed) = (0, 0);
        for seed in 0..16 {
            db.set_faults(Some(FaultConfig::new(seed).spill_err(0.05)));
            match db.run(&plan) {
                Ok(out) => {
                    assert_eq!(out.rows, reference, "seed {seed}: survived run must be exact");
                    survived += 1;
                }
                Err(e) => {
                    assert!(matches!(e, Error::Faulted { .. }), "seed {seed}: {e}");
                    failed += 1;
                }
            }
        }
        assert!(survived > 0, "{survived} survived, {failed} failed at {workers} workers");
        db.set_faults(None);
    }
}

/// The CI fault leg sets a process-global `SMOOTH_FAULTS`: assert it
/// latches into every new storage instance and that runs under it
/// replay exactly. A silent no-op when the variable is absent.
#[test]
fn env_faults_latch_and_replay() {
    let Some(cfg) = FaultConfig::from_env() else { return };
    assert!(cfg.is_active(), "SMOOTH_FAULTS set but inactive: {cfg:?}");
    // database() overrides the env config for isolation; build a raw
    // one here to see the auto-installed faults.
    let mut db = Database::new(StorageConfig {
        device: DeviceProfile::custom("t", 1, 10),
        cpu: CpuCosts::default(),
        pool_pages: 48,
    });
    let schema =
        Schema::new(vec![Column::new("c0", DataType::Int64), Column::new("c1", DataType::Int64)])
            .unwrap();
    db.load_table(
        "e",
        schema,
        (0..600).map(|i| Row::new(vec![Value::Int(i), Value::Int(scramble(i, 100))])),
    )
    .unwrap();
    let plan = LogicalPlan::scan(ScanSpec::new("e", Predicate::int_half_open(1, 0, 60)));
    let first = match db.run(&plan) {
        Ok(out) => Outcome::Rows(out.rows),
        Err(e) => Outcome::Failed(e),
    };
    for workers in [1usize, 4] {
        db.set_workers(workers);
        let again = match db.run(&plan) {
            Ok(out) => Outcome::Rows(out.rows),
            Err(e) => Outcome::Failed(e),
        };
        assert!(again == first, "env-seeded faults failed to replay: {first:?} vs {again:?}");
    }
}

/// Cancellation composes with fault injection: a cancelled faulted
/// query completes (typed) without hanging, and the engine serves
/// clean queries afterwards.
#[test]
fn cancel_under_faults_never_hangs() {
    let mut db = database(900);
    db.set_workers(2);
    db.set_faults(Some(FaultConfig::new(23).io_err(0.3).panic(0.05)));
    let plan = plan_for(&PlanShape {
        access: AccessPathChoice::ForceFull,
        lo: 0,
        width: 300,
        join: true,
        agg: false,
    });
    let handle = db.submit(&plan).unwrap();
    handle.cancel();
    match handle.wait() {
        Err(Error::Cancelled | Error::Faulted { .. } | Error::Corrupt(_) | Error::Exec(_)) => {}
        Ok(_) => {}
        Err(e) => panic!("unexpected error: {e}"),
    }
    db.set_faults(None);
    assert!(!db.run(&plan).unwrap().rows.is_empty());
}
