//! The iterator protocol: columnar morsels, and a one-row view of them.
//!
//! `open → next* → close`, the pipeline model whose preservation is one of
//! Smooth Scan's selling points over Sort Scan ("Smooth Scan adheres to the
//! pipelining model, which is important since the access path operators are
//! executed first and can stall the rest of the stack", Section VI-C).
//!
//! There is one protocol. An operator implements
//! [`Operator::next_columns`]: a column-major [`ColumnBatch`] of up to
//! `max` rows per virtual call, with typed vectors and a selection vector,
//! so dynamic dispatch, `Result`/`Option` traffic and virtual-clock charges
//! amortize over a page or a morsel and no per-row `Vec<Value>` is built.
//! The classic Volcano [`Operator::next`] is *provided*: the same stream
//! asked for one row at a time. Operators that buffer their output in a
//! [`smooth_types::ColumnBuffer`] override it with a `pop_row` drain in
//! front of the fill `next_columns` uses, which spares a batch per row and
//! changes nothing else — no operator has a second decode, predicate or
//! join implementation. The two calls may be interleaved freely on one
//! operator: they consume one underlying stream. What the engine computes
//! is held to a reference evaluator outside it (`tests/common/reference.rs`);
//! `next()` is kept as the `max = 1` leg of batch-size invariance.

use smooth_types::{ColumnBatch, Error, Result, Row, Schema, DEFAULT_BATCH_SIZE};

/// A physical operator producing rows.
pub trait Operator {
    /// Output schema.
    fn schema(&self) -> &Schema;

    /// Prepare for production. Must be called before `next_columns`.
    fn open(&mut self) -> Result<()>;

    /// Produce up to `max` rows as a columnar batch, or `None` when
    /// exhausted.
    ///
    /// Contract: a returned batch holds between one and `max` live rows
    /// (`max = 0` asks for one); short batches do *not* signal exhaustion
    /// (operators emit at natural morsel boundaries such as a heap page
    /// run), only `None` does, and `None` is sticky. The live-row sequence
    /// across calls does not depend on the `max` of any call.
    fn next_columns(&mut self, max: usize) -> Result<Option<ColumnBatch>>;

    /// Produce the next row, or `None` when exhausted: the one-row view of
    /// [`Operator::next_columns`]. An override may only drain the
    /// operator's own output buffer a row at a time in front of the same
    /// fill.
    fn next(&mut self) -> Result<Option<Row>> {
        let Some(batch) = self.next_columns(1)? else { return Ok(None) };
        if batch.len() != 1 {
            return Err(Error::exec(format!(
                "{} returned {} rows to next_columns(1)",
                self.label(),
                batch.len()
            )));
        }
        Ok(Some(batch.row(0)))
    }

    /// Release resources. Idempotent.
    fn close(&mut self) -> Result<()>;

    /// Short label for plan explanation.
    fn label(&self) -> String;
}

/// Owned operator trees. The `Send` bound is what lets the parallel
/// pipeline driver hand an operator (a shared morsel source, a hash-join
/// build input) to a worker pool; every operator in the workspace is a
/// plain owned data structure, so the bound costs nothing.
pub type BoxedOperator = Box<dyn Operator + Send>;

/// Rows per `next_columns` request used by the pipeline drivers:
/// [`DEFAULT_BATCH_SIZE`]. Callers sweeping batch sizes pass `max` to
/// `next_columns` (or `morsel_rows` to the parallel pipeline) directly.
pub fn batch_size() -> usize {
    DEFAULT_BATCH_SIZE
}

/// Run an operator to completion through the *columnar* protocol and
/// collect its output as rows. This is the row-materializing convenience
/// over [`collect_batches`]: morsels cross operator boundaries as
/// [`ColumnBatch`]es and rows materialize only here, at the sink.
pub fn collect_rows(op: &mut dyn Operator) -> Result<Vec<Row>> {
    Ok(collect_batches(op)?.into_iter().flat_map(ColumnBatch::into_rows).collect())
}

/// Run an operator to completion through the columnar protocol and keep
/// the output *columnar* — no `Row` ever materializes. This is the
/// late-materialization pipeline driver (`Database::run` and the
/// experiment harness consume these batches and convert to rows only at
/// the final user-facing boundary, if at all).
pub fn collect_batches(op: &mut dyn Operator) -> Result<Vec<ColumnBatch>> {
    op.open()?;
    let mut batches = Vec::new();
    let max = batch_size();
    while let Some(batch) = op.next_columns(max)? {
        batches.push(batch);
    }
    op.close()?;
    Ok(batches)
}

/// Run an operator to completion one row at a time: the Volcano driver.
/// Only the root is drained by row — everything beneath it runs
/// `next_columns` — so this is the `max = 1` leg of batch-size invariance
/// (and what `benchmark/`'s reference pass calls), not a second engine.
pub fn collect_rows_volcano(op: &mut dyn Operator) -> Result<Vec<Row>> {
    op.open()?;
    let mut rows = Vec::new();
    while let Some(row) = op.next()? {
        rows.push(row);
    }
    op.close()?;
    Ok(rows)
}

/// A fixed-row operator, useful for tests and as a join build side.
pub struct ValuesOp {
    schema: Schema,
    rows: Vec<Row>,
    pos: usize,
}

impl ValuesOp {
    /// Wrap a batch of rows with their schema.
    pub fn new(schema: Schema, rows: Vec<Row>) -> Self {
        ValuesOp { schema, rows, pos: 0 }
    }
}

impl Operator for ValuesOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.pos = 0;
        Ok(())
    }

    fn next_columns(&mut self, max: usize) -> Result<Option<ColumnBatch>> {
        let end = self.pos.saturating_add(max.max(1)).min(self.rows.len());
        let rows = &self.rows[self.pos..end];
        self.pos = end;
        (!rows.is_empty()).then(|| ColumnBatch::from_rows(&self.schema, rows)).transpose()
    }

    fn close(&mut self) -> Result<()> {
        Ok(())
    }

    fn label(&self) -> String {
        format!("Values({} rows)", self.rows.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smooth_types::{Column, DataType, Value};

    #[test]
    fn values_op_roundtrip() {
        let schema = Schema::new(vec![Column::new("x", DataType::Int64)]).unwrap();
        let rows: Vec<Row> = (0..5).map(|i| Row::new(vec![Value::Int(i)])).collect();
        let mut op = ValuesOp::new(schema, rows.clone());
        assert_eq!(collect_rows(&mut op).unwrap(), rows);
        // reopening restarts
        assert_eq!(collect_rows(&mut op).unwrap(), rows);
        assert!(op.label().contains("5 rows"));
    }

    #[test]
    fn volcano_and_batch_drivers_agree() {
        let schema = Schema::new(vec![Column::new("x", DataType::Int64)]).unwrap();
        let rows: Vec<Row> = (0..17).map(|i| Row::new(vec![Value::Int(i)])).collect();
        let mut op = ValuesOp::new(schema, rows.clone());
        assert_eq!(collect_rows_volcano(&mut op).unwrap(), rows);
        assert_eq!(collect_rows(&mut op).unwrap(), rows);
    }

    #[test]
    fn batches_respect_max_and_signal_exhaustion() {
        let schema = Schema::new(vec![Column::new("x", DataType::Int64)]).unwrap();
        let rows: Vec<Row> = (0..7).map(|i| Row::new(vec![Value::Int(i)])).collect();
        let mut op = ValuesOp::new(schema, rows.clone());
        op.open().unwrap();
        let mut seen = Vec::new();
        while let Some(b) = op.next_columns(3).unwrap() {
            assert!(!b.is_empty() && b.len() <= 3);
            seen.extend(b.into_rows());
        }
        assert_eq!(seen, rows);
        assert!(op.next_columns(3).unwrap().is_none());
        op.close().unwrap();
    }

    #[test]
    fn protocols_interleave_on_one_stream() {
        let schema = Schema::new(vec![Column::new("x", DataType::Int64)]).unwrap();
        let rows: Vec<Row> = (0..10).map(|i| Row::new(vec![Value::Int(i)])).collect();
        let mut op = ValuesOp::new(schema, rows.clone());
        op.open().unwrap();
        let mut seen = Vec::new();
        seen.push(op.next().unwrap().unwrap());
        seen.extend(op.next_columns(4).unwrap().unwrap().into_rows());
        seen.push(op.next().unwrap().unwrap());
        while let Some(b) = op.next_columns(4).unwrap() {
            seen.extend(b.into_rows());
        }
        assert_eq!(seen, rows);
        op.close().unwrap();
    }

    #[test]
    fn columnar_driver_and_default_bridge_agree() {
        let schema =
            Schema::new(vec![Column::new("x", DataType::Int64), Column::new("s", DataType::Text)])
                .unwrap();
        let rows: Vec<Row> =
            (0..23).map(|i| Row::new(vec![Value::Int(i), Value::str(format!("r{i}"))])).collect();
        let mut op = ValuesOp::new(schema, rows.clone());
        assert_eq!(collect_rows(&mut op).unwrap(), rows, "columnar driver");
        // text survives the one-row view, interleaved with batches
        op.open().unwrap();
        let mut seen = Vec::new();
        seen.push(op.next().unwrap().unwrap());
        seen.extend(op.next_columns(4).unwrap().unwrap().into_rows());
        seen.push(op.next().unwrap().unwrap());
        while let Some(b) = op.next_columns(5).unwrap() {
            assert!(!b.is_empty() && b.len() <= 5);
            seen.extend(b.into_rows());
        }
        assert_eq!(seen, rows);
        assert!(op.next_columns(5).unwrap().is_none());
        op.close().unwrap();
    }
}
