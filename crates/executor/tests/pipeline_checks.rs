//! The phase-list rules `ParallelPipeline::staged_schemas` checks, each
//! a plan error `Scheduler::submit` returns before the query is queued:
//! an `Output` source follows a phase that does not build, a
//! probe stage probes an earlier build, a later stage probes every
//! build, and the last phase does not build.

use std::sync::Arc;

use smooth_executor::parallel::{
    ParallelPipeline, ParallelSource, PhaseBuild, PhaseSpec, SinkSpec, StageSpec,
};
use smooth_executor::sort::SortKey;
use smooth_executor::{FullTableScan, JoinType, Predicate, Scheduler};
use smooth_storage::{HeapLoader, Storage};
use smooth_types::{Column, DataType, Error, Row, Schema, Value};

/// The plan error `submit` returns for `phases`.
fn refused(phases: Vec<PhaseSpec>) -> String {
    let pipeline =
        ParallelPipeline { phases, storage: Storage::default_hdd(), morsel_rows: 64, mem_bytes: 0 };
    match Scheduler::new(1, 1).submit(pipeline).err() {
        Some(Error::Plan(m)) => m,
        other => panic!("expected a plan error, got {other:?}"),
    }
}

/// A full scan of a two-column table through `stages` into `sink`.
fn scan(stages: Vec<StageSpec>, sink: SinkSpec) -> PhaseSpec {
    let schema =
        Schema::new(vec![Column::new("c0", DataType::Int64), Column::new("c1", DataType::Int64)])
            .unwrap();
    let mut loader = HeapLoader::new_mem("t", schema);
    for i in 0..10 {
        loader.push(&Row::new(vec![Value::Int(i), Value::Int(i % 3)])).unwrap();
    }
    let heap = Arc::new(loader.finish().unwrap());
    let scan = FullTableScan::new(heap, Storage::default_hdd(), Predicate::True);
    PhaseSpec { source: ParallelSource::Heap(Box::new(scan)), stages, sink }
}

/// The previous phase's output into `sink`.
fn output(sink: SinkSpec) -> PhaseSpec {
    PhaseSpec { source: ParallelSource::Output, stages: Vec::new(), sink }
}

fn build() -> SinkSpec {
    SinkSpec::Build(PhaseBuild { right_col: 1, left_col: 1, ty: JoinType::Inner, emit: None })
}

fn sort() -> SinkSpec {
    SinkSpec::Sort { keys: vec![SortKey::asc(1)] }
}

#[test]
fn an_output_source_follows_a_phase_that_does_not_build() {
    let collect = || output(SinkSpec::Collect);
    for phases in [
        vec![collect()],
        vec![collect(), scan(Vec::new(), sort())],
        vec![scan(Vec::new(), build()), collect()],
        vec![scan(Vec::new(), sort()), output(build()), collect()],
    ] {
        assert!(refused(phases).contains("no output for phase"));
    }
}

#[test]
fn a_probe_reads_an_earlier_build() {
    let probe = |b| vec![StageSpec::Probe(b)];
    for phases in [
        vec![scan(probe(0), SinkSpec::Collect)],
        vec![scan(Vec::new(), sort()), scan(probe(0), SinkSpec::Collect)],
        vec![scan(probe(1), build()), scan(Vec::new(), SinkSpec::Collect)],
    ] {
        assert!(refused(phases).contains("not an earlier build"));
    }
}

#[test]
fn the_last_phase_does_not_build() {
    let built = || scan(Vec::new(), build());
    for phases in [vec![built()], vec![built(), built()]] {
        assert!(refused(phases).contains("cannot build"));
    }
}

#[test]
fn every_build_is_probed() {
    let built = || scan(Vec::new(), build());
    let probes = |b| scan(vec![StageSpec::Probe(b)], SinkSpec::Collect);
    for phases in [
        vec![built(), scan(Vec::new(), SinkSpec::Collect)],
        vec![built(), built(), probes(1)],
        vec![built(), built(), probes(0)],
    ] {
        assert!(refused(phases).contains("is never probed"));
    }
}
