//! A query whose source fails mid-drain must fail, however the failing
//! claim interleaves with the worker that lands the last morsel still
//! in flight. The claim that hits the error marks the source done; if a
//! finalizing worker could see "done, nothing in flight" before the
//! error is recorded, the query would complete `Ok` with the rows
//! delivered so far (or, in a build phase, open the next phase's
//! source). One-row morsels and many short queries make that window
//! land often enough to catch.

use smooth_executor::operator::ValuesOp;
use smooth_executor::parallel::{ParallelPipeline, ParallelSource, PhaseSpec, SinkSpec};
use smooth_executor::{Operator, Scheduler};
use smooth_storage::{CpuCosts, DeviceProfile, Storage, StorageConfig};
use smooth_types::{Column, ColumnBatch, DataType, Error, Result, Row, Schema, Value};

/// Rows in the source: one morsel each.
const ROWS: i64 = 64;
/// Queries per pool width.
const RUNS: usize = 3_400;

/// A source that fails at its `fail_at`-th pull.
struct FailsAt {
    inner: ValuesOp,
    pulls: usize,
    fail_at: usize,
}

impl Operator for FailsAt {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn open(&mut self) -> Result<()> {
        self.inner.open()
    }

    fn next_columns(&mut self, max: usize) -> Result<Option<ColumnBatch>> {
        self.pulls += 1;
        if self.pulls == self.fail_at {
            return Err(Error::exec("source fails mid-drain"));
        }
        self.inner.next_columns(max)
    }

    fn close(&mut self) -> Result<()> {
        self.inner.close()
    }

    fn label(&self) -> String {
        "FailsAt".into()
    }
}

#[test]
fn a_source_failing_mid_drain_never_completes_ok() {
    let schema = Schema::new(vec![Column::new("c0", DataType::Int64)]).unwrap();
    let rows: Vec<Row> = (0..ROWS).map(|i| Row::new(vec![Value::Int(i)])).collect();
    let storage = Storage::new(StorageConfig {
        device: DeviceProfile::custom("t", 1, 10),
        cpu: CpuCosts::default(),
        pool_pages: 16,
    });
    for workers in [2usize, 3, 4] {
        let scheduler = Scheduler::new(workers, 1);
        for run in 0..RUNS {
            let fail_at = 2 + run % 40;
            let inner = ValuesOp::new(schema.clone(), rows.clone());
            let op = Box::new(FailsAt { inner, pulls: 0, fail_at });
            let pipeline = ParallelPipeline {
                phases: vec![PhaseSpec {
                    source: ParallelSource::Shared { op },
                    stages: Vec::new(),
                    sink: SinkSpec::Collect,
                }],
                storage: storage.clone(),
                morsel_rows: 1,
                mem_bytes: 0,
            };
            let got = scheduler.submit(pipeline).unwrap().wait();
            assert!(
                got.is_err(),
                "{workers} workers, failing at pull {fail_at}: completed Ok with {} rows",
                got.map_or(0, |out| out.len())
            );
        }
    }
}
