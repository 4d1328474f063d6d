//! The iterator protocol: row-at-a-time and columnar.
//!
//! `open → next* → close`, the pipeline model whose preservation is one of
//! Smooth Scan's selling points over Sort Scan ("Smooth Scan adheres to the
//! pipelining model, which is important since the access path operators are
//! executed first and can stall the rest of the stack", Section VI-C).
//!
//! Beside the classic Volcano `next()` — the reference every driver is
//! property-tested against — the trait offers one vectorized protocol,
//! [`Operator::next_columns`]: a column-major [`ColumnBatch`] of up to
//! `max` rows per virtual call, with typed vectors and a selection vector.
//! Its default bridges down (loop `next()`, one row→column conversion), so
//! row-only operators keep working unchanged; hot operators override it to
//! amortize dynamic dispatch, per-tuple `Result`/`Option` traffic and
//! virtual-clock charges across a whole page or batch, and to skip per-row
//! `Vec<Value>` materialization entirely. The two protocols may be
//! interleaved freely on the same operator — they consume the same
//! underlying stream and together produce the exact row sequence either
//! would alone.

use smooth_types::{ColumnBatch, Result, Row, Schema, DEFAULT_BATCH_SIZE};

/// A physical operator producing rows.
pub trait Operator {
    /// Output schema.
    fn schema(&self) -> &Schema;

    /// Prepare for production. Must be called before `next`.
    fn open(&mut self) -> Result<()>;

    /// Produce the next row, or `None` when exhausted.
    fn next(&mut self) -> Result<Option<Row>>;

    /// Produce up to `max` rows as a columnar batch, or `None` when
    /// exhausted.
    ///
    /// Contract: a returned batch is non-empty and holds at most `max`
    /// live rows; short batches do *not* signal exhaustion (operators emit
    /// at natural morsel boundaries such as a heap page run), only `None`
    /// does. The live-row sequence across calls is identical to what
    /// repeated `next()` calls would produce, and the two protocols may be
    /// interleaved freely on one operator.
    ///
    /// The default implementation bridges from `next()` (up to `max` rows
    /// pushed into one fresh batch), so every operator works unchanged; hot
    /// operators override it to decode straight into column vectors and
    /// to filter via selection vectors instead of moving rows.
    fn next_columns(&mut self, max: usize) -> Result<Option<ColumnBatch>> {
        let max = max.max(1);
        let mut out = ColumnBatch::for_schema(self.schema());
        while out.physical_rows() < max {
            match self.next()? {
                Some(row) => out.push_owned_row(row)?,
                None => break,
            }
        }
        Ok((!out.is_empty()).then_some(out))
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

/// Run an operator to completion through the row-at-a-time protocol.
/// Kept as the Volcano reference driver (and the baseline the `columnar`
/// perf-smoke experiment measures the columnar path against).
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
    opened: bool,
}

impl ValuesOp {
    /// Wrap a batch of rows with their schema.
    pub fn new(schema: Schema, rows: Vec<Row>) -> Self {
        ValuesOp { schema, rows, pos: 0, opened: false }
    }
}

impl Operator for ValuesOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.pos = 0;
        self.opened = true;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Row>> {
        debug_assert!(self.opened, "next() before open()");
        if self.pos < self.rows.len() {
            let r = self.rows[self.pos].clone();
            self.pos += 1;
            Ok(Some(r))
        } else {
            Ok(None)
        }
    }

    fn close(&mut self) -> Result<()> {
        self.opened = false;
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
        // text survives the bridge with both protocols on one stream
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
