//! `Scheduler::submit` does not block on admission. Admitting a query
//! opens its first phase's source, and a shared source's `open` can take
//! as long as the work under it (a Sort Scan walks its whole index range,
//! a `Sort` drains its input). That open runs on a pool worker, so
//! `submit` hands back the handle at once, and a `cancel` on that handle
//! while the open is still running fails the query `Cancelled`.
//!
//! Admission on a worker must not be lost either: a one-worker pool admits
//! every query a session submits back to back, and dropping the scheduler
//! fails the queries still waiting instead of running them.
//!
//! A query moving to its next phase opens that phase's source the same
//! way, on the worker that finished the last one, and outside the query's
//! source lock: the other workers keep serving the other queries.

use std::sync::mpsc::{self, Receiver, Sender};
use std::time::Duration;

use smooth_executor::operator::{BoxedOperator, ValuesOp};
use smooth_executor::parallel::{
    ParallelPipeline, ParallelSource, PhaseBuild, PhaseSpec, SinkSpec, StageSpec,
};
use smooth_executor::{JoinType, Operator, QueryHandle, Scheduler};
use smooth_storage::Storage;
use smooth_types::{Column, ColumnBatch, DataType, Error, Result, Row, Schema, Value};

/// How long a step may take before the test calls it blocked.
const WAIT: Duration = Duration::from_secs(5);

/// A source whose `open` reports on `opening`, then blocks until its gate
/// sends (or is dropped).
struct GatedOpen {
    inner: ValuesOp,
    opening: Sender<()>,
    gate: Receiver<()>,
}

impl Operator for GatedOpen {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn open(&mut self) -> Result<()> {
        let _ = self.opening.send(());
        let _ = self.gate.recv();
        self.inner.open()
    }

    fn next_columns(&mut self, max: usize) -> Result<Option<ColumnBatch>> {
        self.inner.next_columns(max)
    }

    fn close(&mut self) -> Result<()> {
        self.inner.close()
    }

    fn label(&self) -> String {
        "GatedOpen".into()
    }
}

fn rows() -> Vec<Row> {
    (0..100).map(|i| Row::new(vec![Value::Int(i)])).collect()
}

fn values() -> ValuesOp {
    ValuesOp::new(Schema::new(vec![Column::new("c0", DataType::Int64)]).unwrap(), rows())
}

/// A one-phase pipeline collecting what `op` emits.
fn pipeline(op: BoxedOperator) -> ParallelPipeline {
    ParallelPipeline {
        phases: vec![PhaseSpec {
            source: ParallelSource::Shared { op },
            stages: Vec::new(),
            sink: SinkSpec::Collect,
        }],
        storage: Storage::default_hdd(),
        morsel_rows: 16,
        mem_bytes: 0,
    }
}

/// A pipeline over [`rows`] whose source's open reports on the returned
/// receiver, then blocks until the returned sender sends (or is dropped).
fn gated() -> (ParallelPipeline, Receiver<()>, Sender<()>) {
    let (opening, opened) = mpsc::channel();
    let (gate, gate_rx) = mpsc::channel();
    (pipeline(Box::new(GatedOpen { inner: values(), opening, gate: gate_rx })), opened, gate)
}

/// Submit a gated query over [`rows`] from another thread. As soon as
/// `submit` returns with the source's open still blocked, hand the handle
/// to `while_blocked`; then open the gate. Panics, after opening the gate
/// so that nothing hangs, if `submit` waited for the open.
fn submit_gated(scheduler: &Scheduler, while_blocked: impl FnOnce(&QueryHandle)) -> QueryHandle {
    let (pipeline, opened, gate) = gated();
    let (submitted_tx, submitted) = mpsc::channel();
    std::thread::scope(|scope| {
        scope.spawn(move || submitted_tx.send(scheduler.submit(pipeline).unwrap()));
        let handle = submitted.recv_timeout(WAIT);
        if let Ok(handle) = &handle {
            opened.recv_timeout(WAIT).expect("a worker opens the admitted query's source");
            while_blocked(handle);
        }
        // A cancel may have dropped the query, and its gate, already.
        let _ = gate.send(());
        handle.unwrap_or_else(|_| {
            let _ = submitted.recv();
            panic!("submit did not return within {WAIT:?}: it waited for the source's open")
        })
    })
}

#[test]
fn submit_returns_while_the_first_source_opens() {
    let scheduler = Scheduler::new(1, 1);
    let handle = submit_gated(&scheduler, |_| {});
    assert_eq!(handle.wait().unwrap().into_rows(), rows());
}

#[test]
fn a_query_cancelled_while_its_source_opens_fails_cancelled() {
    let scheduler = Scheduler::new(1, 1);
    let handle = submit_gated(&scheduler, QueryHandle::cancel);
    assert!(matches!(handle.wait(), Err(Error::Cancelled)));
    // The pool survives: the next query runs to completion.
    let handle = submit_gated(&scheduler, |_| {});
    assert_eq!(handle.wait().unwrap().into_rows(), rows());
}

#[test]
fn a_one_worker_pool_admits_queries_submitted_back_to_back() {
    // A session submitting as soon as its last query finished races the
    // worker going idle; a lost wakeup leaves a query waiting forever, so
    // the loop runs on a thread the test gives up on after `WAIT`.
    let (done_tx, done) = mpsc::channel();
    std::thread::spawn(move || {
        let scheduler = Scheduler::new(1, 1);
        for _ in 0..2000 {
            let out = scheduler.submit(pipeline(Box::new(values())))?.wait()?;
            assert_eq!(out.len(), rows().len());
        }
        done_tx.send(()).map_err(|_| Error::exec("test gave up"))
    });
    done.recv_timeout(WAIT).expect("every back-to-back query was admitted");
}

#[test]
fn dropping_the_scheduler_fails_the_queries_still_waiting() {
    let scheduler = Scheduler::new(1, 1);
    let (first, opened, gate) = gated();
    let running = scheduler.submit(first).unwrap();
    opened.recv_timeout(WAIT).expect("the worker opens the first query's source");
    let waiting = scheduler.submit(pipeline(Box::new(values()))).unwrap();
    // The drop joins the worker, which is still opening the first query.
    let dropper = std::thread::spawn(move || drop(scheduler));
    let (failed_tx, failed) = mpsc::channel();
    std::thread::spawn(move || failed_tx.send(waiting.wait().is_err()));
    let failed = failed.recv_timeout(WAIT);
    let _ = gate.send(());
    assert_eq!(failed, Ok(true), "the waiting query fails as the scheduler drops");
    assert_eq!(running.wait().unwrap().into_rows(), rows());
    dropper.join().unwrap();
}

#[test]
fn a_query_opening_its_next_phase_does_not_stall_the_pool() {
    // The first query builds a hash table over [`rows`], then probes it
    // from a source whose open blocks; the second is 7 morsels the other
    // worker must serve while that open waits.
    let scheduler = Scheduler::new(2, 2);
    let (mut first, opened, gate) = gated();
    let build = PhaseBuild { right_col: 0, left_col: 0, ty: JoinType::Inner, emit: None };
    let mut probe = first.phases.remove(0);
    probe.stages.push(StageSpec::Probe(0));
    let source = ParallelSource::Shared { op: Box::new(values()) };
    first.phases =
        vec![PhaseSpec { source, stages: Vec::new(), sink: SinkSpec::Build(build) }, probe];
    let first = scheduler.submit(first).unwrap();
    opened.recv_timeout(WAIT).expect("a worker opens the probe phase's source");
    let second = scheduler.submit(pipeline(Box::new(values()))).unwrap();
    let (done_tx, done) = mpsc::channel();
    std::thread::spawn(move || done_tx.send(second.wait().map(|out| out.len())));
    let served = done.recv_timeout(WAIT).ok();
    let _ = gate.send(());
    assert_eq!(served.map(Result::ok), Some(Some(rows().len())), "served beside the blocked open");
    let joined: Vec<Row> = (0..100).map(|i| Row::new(vec![Value::Int(i), Value::Int(i)])).collect();
    assert_eq!(first.wait().unwrap().into_rows(), joined);
}
