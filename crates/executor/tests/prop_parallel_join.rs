//! Property tests for the parallel hash-join build: for arbitrary data
//! (null keys, duplicate keys, `Text` payloads), morsel sizes and worker
//! counts, the pipeline's build phase must produce the **exact row
//! sequence** of the serial columnar [`HashJoin`] and charge the **exact
//! same virtual CPU/IO clock totals** and I/O counters. The build phase
//! — workers decode and hash its morsels, the ordered sink inserts them
//! into the table in morsel order — must be an execution-strategy
//! change only, like every other form of parallelism in this repo.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use smooth_executor::operator::ValuesOp;
use smooth_executor::parallel::{
    run_pipeline, ParallelPipeline, ParallelSource, PhaseBuild, PhaseSpec, SinkSpec, StageSpec,
};
use smooth_executor::sort::SortKey;
use smooth_executor::{
    collect_rows, AggFunc, BoxedOperator, FullTableScan, HashAggregate, HashJoin, JoinType,
    Operator, Predicate, Sort,
};
use smooth_storage::{CpuCosts, DeviceProfile, HeapFile, HeapLoader, Storage, StorageConfig};
use smooth_types::{Column, ColumnBatch, DataType, Row, Schema, Value};

const WORKER_GRID: [usize; 4] = [1, 2, 4, 8];

fn probe_table(keys: &[i64]) -> Arc<HeapFile> {
    let schema = Schema::new(vec![
        Column::new("c0", DataType::Int64),
        Column::new("c1", DataType::Int64),
        Column::new("pad", DataType::Text),
    ])
    .unwrap();
    let mut l = HeapLoader::new_mem("probe", schema);
    for (i, &k) in keys.iter().enumerate() {
        l.push(&Row::new(vec![Value::Int(i as i64), Value::Int(k), Value::str("p".repeat(40))]))
            .unwrap();
    }
    Arc::new(l.finish().unwrap())
}

/// Build-side rows with optional NULL keys and a Text payload.
fn build_rows(keys: &[Option<i64>]) -> (Schema, Vec<Row>) {
    let schema = Schema::new(vec![
        Column::nullable("rk", DataType::Int64),
        Column::new("rv", DataType::Int64),
        Column::new("rtxt", DataType::Text),
    ])
    .unwrap();
    let rows = keys
        .iter()
        .enumerate()
        .map(|(i, k)| {
            let key = match k {
                Some(v) => Value::Int(*v),
                None => Value::Null,
            };
            Row::new(vec![key, Value::Int(i as i64), Value::str(format!("t{i}"))])
        })
        .collect();
    (schema, rows)
}

fn storage(pool: usize) -> Storage {
    Storage::new(StorageConfig {
        device: DeviceProfile::custom("t", 1, 10),
        cpu: CpuCosts::default(),
        pool_pages: pool,
    })
}

fn heap_source(heap: &Arc<HeapFile>, s: &Storage, predicate: Predicate) -> ParallelSource {
    ParallelSource::Heap(Box::new(FullTableScan::new(Arc::clone(heap), s.clone(), predicate)))
}

/// One build phase keyed `right_col`, then a full scan of `probe`
/// probing it on `c1` into a collect sink.
fn join_pipeline(
    (source, stages): (ParallelSource, Vec<StageSpec>),
    (right_col, ty, mem_bytes): (usize, JoinType, usize),
    probe: &Arc<HeapFile>,
    (storage, morsel_rows): (&Storage, usize),
) -> ParallelPipeline {
    let sink = SinkSpec::Build(PhaseBuild { right_col, left_col: 1, ty, emit: None });
    ParallelPipeline {
        phases: vec![
            PhaseSpec { source, stages, sink },
            PhaseSpec {
                source: heap_source(probe, storage, Predicate::True),
                stages: vec![StageSpec::Probe(0)],
                sink: SinkSpec::Collect,
            },
        ],
        storage: storage.clone(),
        morsel_rows,
        mem_bytes,
    }
}

fn assert_equal_runs(
    serial: (&[Row], &Storage),
    parallel: (&[Row], &Storage),
    context: &str,
) -> std::result::Result<(), TestCaseError> {
    prop_assert!(parallel.0 == serial.0, "row sequence diverges: {context}");
    prop_assert!(
        parallel.1.clock().snapshot() == serial.1.clock().snapshot(),
        "virtual clock totals diverge: {context}"
    );
    prop_assert!(
        parallel.1.io_snapshot() == serial.1.io_snapshot(),
        "I/O counters diverge: {context}"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Shared-source build (a `ValuesOp` right side) across morsel
    /// sizes and worker counts ≡ the serial HashJoin —
    /// including NULL build keys, duplicate keys and Text payloads.
    #[test]
    fn partitioned_build_equals_serial_build(
        probe_keys in proptest::collection::vec(0i64..60, 1..500),
        build_keys in proptest::collection::vec(
            prop_oneof![3 => (0i64..60).prop_map(Some), 1 => Just(None)],
            0..150,
        ),
        semi in any::<bool>(),
        morsel_rows in 1usize..120,
    ) {
        let heap = probe_table(&probe_keys);
        let ty = if semi { JoinType::LeftSemi } else { JoinType::Inner };
        let (right_schema, right_rows) = build_rows(&build_keys);
        let s_serial = storage(32);
        let mut serial_op = HashJoin::new(
            Box::new(FullTableScan::new(Arc::clone(&heap), s_serial.clone(), Predicate::True)),
            Box::new(ValuesOp::new(right_schema.clone(), right_rows.clone())),
            1,
            0,
            ty,
            s_serial.clone(),
        );
        let expected = collect_rows(&mut serial_op).unwrap();
        for workers in WORKER_GRID {
            let s_par = storage(32);
            let values = ValuesOp::new(right_schema.clone(), right_rows.clone());
            let pipeline = join_pipeline(
                (ParallelSource::Shared { op: Box::new(values) }, Vec::new()),
                (0, ty, smooth_executor::mem_budget_bytes()),
                &heap,
                (&s_par, morsel_rows),
            );
            let got = run_pipeline(pipeline, workers).unwrap();
            assert_equal_runs(
                (&expected, &s_serial),
                (&got, &s_par),
                &format!("{ty:?}, {workers} workers, morsel {morsel_rows}"),
            )?;
        }
    }

    /// Heap-source build side (build input I/O serialized under the build
    /// lock, decode + filter + insert fanned out) ≡ the serial HashJoin
    /// over a pushed-down scan, across worker counts.
    #[test]
    fn heap_build_pipeline_equals_serial_build(
        probe_keys in proptest::collection::vec(0i64..80, 1..400),
        build_keys in proptest::collection::vec(0i64..80, 1..600),
        hi in 0i64..90,
        semi in any::<bool>(),
    ) {
        let probe = probe_table(&probe_keys);
        let build = probe_table(&build_keys);
        let ty = if semi { JoinType::LeftSemi } else { JoinType::Inner };
        let pred = Predicate::int_half_open(1, 0, hi);
        let mem_bytes = smooth_executor::mem_budget_bytes();
        let s_serial = storage(32);
        let mut serial_op = HashJoin::new(
            Box::new(FullTableScan::new(Arc::clone(&probe), s_serial.clone(), Predicate::True)),
            Box::new(FullTableScan::new(Arc::clone(&build), s_serial.clone(), pred.clone())),
            1,
            1,
            ty,
            s_serial.clone(),
        )
        .with_mem_budget(mem_bytes);
        let expected = collect_rows(&mut serial_op).unwrap();
        for workers in WORKER_GRID {
            let s_par = storage(32);
            let pipeline = join_pipeline(
                (heap_source(&build, &s_par, pred.clone()), Vec::new()),
                (1, ty, mem_bytes),
                &probe,
                (&s_par, smooth_executor::batch_size()),
            );
            let got = run_pipeline(pipeline, workers).unwrap();
            assert_equal_runs(
                (&expected, &s_serial),
                (&got, &s_par),
                &format!("{ty:?} heap build, {workers} workers"),
            )?;
        }
    }

    /// A filter stage on the build side behaves exactly like the serial
    /// Filter operator feeding the serial build.
    #[test]
    fn staged_build_side_equals_serial_filter_stack(
        probe_keys in proptest::collection::vec(0i64..50, 1..300),
        build_keys in proptest::collection::vec(0i64..50, 1..400),
        residual_hi in 0i64..400,
    ) {
        let probe = probe_table(&probe_keys);
        let build = probe_table(&build_keys);
        let residual = Predicate::int_lt(0, residual_hi);
        let s_serial = storage(32);
        let mut serial_op = HashJoin::new(
            Box::new(FullTableScan::new(Arc::clone(&probe), s_serial.clone(), Predicate::True)),
            Box::new(smooth_executor::Filter::new(
                Box::new(FullTableScan::new(Arc::clone(&build), s_serial.clone(), Predicate::True)),
                residual.clone(),
            )),
            1,
            1,
            JoinType::Inner,
            s_serial.clone(),
        );
        let expected = collect_rows(&mut serial_op).unwrap();
        for workers in [1usize, 4] {
            let s_par = storage(32);
            let pipeline = join_pipeline(
                (heap_source(&build, &s_par, Predicate::True), vec![StageSpec::Filter(residual.clone())]),
                (1, JoinType::Inner, smooth_executor::mem_budget_bytes()),
                &probe,
                (&s_par, smooth_executor::batch_size()),
            );
            let got = run_pipeline(pipeline, workers).unwrap();
            assert_equal_runs(
                (&expected, &s_serial),
                (&got, &s_par),
                &format!("staged build, {workers} workers"),
            )?;
        }
    }
}

/// Every `open` / `close` a query's sources see, in order.
type OpenLog = Arc<Mutex<Vec<String>>>;

/// A named `ValuesOp` that appends its `open` and `close` to a shared
/// log (a `close` only when it is open: the call is idempotent) and, if
/// `fails`, errors on its second morsel.
struct Logged {
    name: &'static str,
    inner: ValuesOp,
    log: OpenLog,
    is_open: bool,
    fails: bool,
    pulls: usize,
}

impl Operator for Logged {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn open(&mut self) -> smooth_types::Result<()> {
        self.log.lock().unwrap().push(format!("open {}", self.name));
        self.is_open = true;
        self.inner.open()
    }

    fn next_columns(&mut self, _max: usize) -> smooth_types::Result<Option<ColumnBatch>> {
        self.pulls += 1;
        if self.fails && self.pulls == 2 {
            return Err(smooth_types::Error::exec(format!("{} fails mid-drain", self.name)));
        }
        // Small morsels, so every source is pulled more than once.
        self.inner.next_columns(4)
    }

    fn close(&mut self) -> smooth_types::Result<()> {
        if std::mem::take(&mut self.is_open) {
            self.log.lock().unwrap().push(format!("close {}", self.name));
        }
        self.inner.close()
    }

    fn label(&self) -> String {
        self.name.into()
    }
}

/// The rule, on a left-deep and a bushy tree of hash joins: a source
/// opens when its phase starts. `HashJoin::open` builds before it opens
/// its probe side, so the operator tree and the pool open the same
/// leaves in the same order — phase order — with never two open at
/// once, and a build that fails opens nothing after it.
#[test]
fn sources_open_in_phase_order_one_at_a_time() {
    let schema =
        Schema::new(vec![Column::new("k", DataType::Int64), Column::new("v", DataType::Int64)])
            .unwrap();
    let join = |probe: BoxedOperator, build: BoxedOperator| -> BoxedOperator {
        Box::new(HashJoin::new(probe, build, 0, 0, JoinType::Inner, storage(8)))
    };
    let phase = |op: BoxedOperator, probes: &[usize], builds: bool| PhaseSpec {
        source: ParallelSource::Shared { op },
        stages: probes.iter().map(|&b| StageSpec::Probe(b)).collect(),
        sink: match builds {
            true => SinkSpec::Build(PhaseBuild {
                right_col: 0,
                left_col: 0,
                ty: JoinType::Inner,
                emit: None,
            }),
            false => SinkSpec::Collect,
        },
    };
    // One shape twice — the operator tree and its phases — over leaves
    // logging to one fresh log; `fails` names the leaf that errors.
    let shape = |left_deep: bool, fails: Option<&str>| {
        let log = OpenLog::default();
        let leaf = |name: &'static str, rows: i64| -> BoxedOperator {
            let rows =
                (0..rows).map(|i| Row::new(vec![Value::Int(i % 7), Value::Int(i)])).collect();
            Box::new(Logged {
                name,
                inner: ValuesOp::new(schema.clone(), rows),
                log: Arc::clone(&log),
                is_open: false,
                fails: fails == Some(name),
                pulls: 0,
            })
        };
        let (tree, phases) = if left_deep {
            // (p ⋈ a) ⋈ b: the outer join's build comes first.
            let tree = join(join(leaf("p", 40), leaf("a", 9)), leaf("b", 11));
            let builds = [phase(leaf("b", 11), &[], true), phase(leaf("a", 9), &[], true)];
            (tree, Vec::from(builds).into_iter().chain([phase(leaf("p", 40), &[1, 0], false)]))
        } else {
            // p ⋈ (x ⋈ y): the build side is itself a join.
            let tree = join(leaf("p", 40), join(leaf("x", 9), leaf("y", 11)));
            let builds = [phase(leaf("y", 11), &[], true), phase(leaf("x", 9), &[0], true)];
            (tree, Vec::from(builds).into_iter().chain([phase(leaf("p", 40), &[1], false)]))
        };
        (log, tree, phases.collect::<Vec<_>>())
    };
    let run_tree = |mut tree: BoxedOperator| {
        let rows = collect_rows(tree.as_mut());
        // The owner closes the root, whether or not `open` got through.
        tree.close().unwrap();
        rows
    };
    let run_pool = |phases: Vec<PhaseSpec>, workers: usize| {
        let storage = storage(8);
        run_pipeline(ParallelPipeline { phases, storage, morsel_rows: 4, mem_bytes: 0 }, workers)
    };
    let events = |log: OpenLog| log.lock().unwrap().clone();

    for (left_deep, order) in [(true, ["b", "a", "p"]), (false, ["y", "x", "p"])] {
        // (b) Phase order, each source closed before the next opens.
        let in_order: Vec<String> =
            order.iter().flat_map(|n| [format!("open {n}"), format!("close {n}")]).collect();
        // (c) The first build fails mid-drain: it is closed, and nothing
        // after it ever opens.
        let failed = &in_order[..2];
        let (log, tree, _) = shape(left_deep, None);
        let expected = run_tree(tree).unwrap();
        assert!(!expected.is_empty());
        assert_eq!(events(log), in_order, "tree, left_deep={left_deep}");
        let (log, tree, _) = shape(left_deep, Some(order[0]));
        assert!(run_tree(tree).is_err());
        assert_eq!(events(log), failed, "failed tree, left_deep={left_deep}");
        // (a) The pool sees what the tree sees, at every width.
        for workers in [1usize, 2, 4] {
            let context = format!("left_deep={left_deep}, {workers} workers");
            let (log, _, phases) = shape(left_deep, None);
            assert_eq!(run_pool(phases, workers).unwrap(), expected, "rows, {context}");
            assert_eq!(events(log), in_order, "{context}");
            let (log, _, phases) = shape(left_deep, Some(order[0]));
            assert!(run_pool(phases, workers).is_err(), "{context}");
            assert_eq!(events(log), failed, "failed build, {context}");
        }
    }
}

/// A blocking operator over a child that fails on its second morsel:
/// `open` fails mid-drain, and the operator's `close` must still close
/// the child it was draining.
fn assert_failed_open_closes_child(wrap: impl FnOnce(BoxedOperator) -> BoxedOperator) {
    let schema = Schema::new(vec![Column::new("k", DataType::Int64)]).unwrap();
    let log = OpenLog::default();
    let child = Logged {
        name: "child",
        inner: ValuesOp::new(schema, (0..9).map(|i| Row::new(vec![Value::Int(i)])).collect()),
        log: Arc::clone(&log),
        is_open: false,
        fails: true,
        pulls: 0,
    };
    let mut op = wrap(Box::new(child));
    assert!(op.open().is_err(), "{}", op.label());
    op.close().unwrap();
    assert_eq!(*log.lock().unwrap(), ["open child", "close child"], "{}", op.label());
}

#[test]
fn hash_join_closes_its_build_child_after_a_failed_open() {
    assert_failed_open_closes_child(|build| {
        let probe = Box::new(ValuesOp::new(build.schema().clone(), Vec::new()));
        Box::new(HashJoin::new(probe, build, 0, 0, JoinType::Inner, storage(8)))
    });
}

#[test]
fn sort_closes_its_child_after_a_failed_open() {
    assert_failed_open_closes_child(|child| {
        Box::new(Sort::new(child, storage(8), vec![SortKey::asc(0)]))
    });
}

#[test]
fn hash_aggregate_closes_its_child_after_a_failed_open() {
    assert_failed_open_closes_child(|child| {
        Box::new(HashAggregate::new(child, vec![0], vec![AggFunc::CountStar], storage(8)).unwrap())
    });
}
