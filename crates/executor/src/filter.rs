//! Filter and Project operators.
//!
//! `Filter` refines the child batch's *selection vector* (no row is
//! materialized or moved — non-qualifiers simply drop out of the
//! selection), and `Project` is pure column pruning (vectors move by
//! ordinal; rows are never rebuilt). Neither buffers, so `next()` is the
//! provided one-row view.

use smooth_types::{ColumnBatch, Result, Schema};

use crate::expr::Predicate;
use crate::operator::{BoxedOperator, Operator};

/// Filters child rows by a predicate.
pub struct Filter {
    child: BoxedOperator,
    predicate: Predicate,
}

impl Filter {
    /// Wrap `child`, keeping rows where `predicate` holds.
    pub fn new(child: BoxedOperator, predicate: Predicate) -> Self {
        Filter { child, predicate }
    }
}

impl Operator for Filter {
    fn schema(&self) -> &Schema {
        self.child.schema()
    }

    fn open(&mut self) -> Result<()> {
        self.child.open()
    }

    /// Evaluate the predicate as a vectorized kernel and refine the child
    /// batch's selection vector in place.
    fn next_columns(&mut self, max: usize) -> Result<Option<ColumnBatch>> {
        loop {
            let Some(mut batch) = self.child.next_columns(max)? else { return Ok(None) };
            let selection = self.predicate.filter_batch(&batch)?;
            if !selection.is_empty() {
                batch.set_selection(selection);
                return Ok(Some(batch));
            }
        }
    }

    fn close(&mut self) -> Result<()> {
        self.child.close()
    }

    fn label(&self) -> String {
        format!("Filter → {}", self.child.label())
    }
}

/// Projects child rows to a subset (or reordering) of columns.
pub struct Project {
    child: BoxedOperator,
    columns: Vec<usize>,
    schema: Schema,
}

impl Project {
    /// Keep `columns` (by ordinal) of the child output.
    pub fn new(child: BoxedOperator, columns: Vec<usize>) -> Result<Self> {
        let schema = child.schema().project(&columns)?;
        Ok(Project { child, columns, schema })
    }
}

impl Operator for Project {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.child.open()
    }

    /// Move the kept column vectors, touch no row.
    fn next_columns(&mut self, max: usize) -> Result<Option<ColumnBatch>> {
        let Some(batch) = self.child.next_columns(max)? else { return Ok(None) };
        Ok(Some(batch.project(&self.columns)?))
    }

    fn close(&mut self) -> Result<()> {
        self.child.close()
    }

    fn label(&self) -> String {
        format!("Project{:?} → {}", self.columns, self.child.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{collect_rows, ValuesOp};
    use smooth_types::{Column, DataType, Row, Value};

    fn input() -> BoxedOperator {
        let schema =
            Schema::new(vec![Column::new("a", DataType::Int64), Column::new("b", DataType::Int64)])
                .unwrap();
        let rows = (0..10).map(|i| Row::new(vec![Value::Int(i), Value::Int(i * 10)])).collect();
        Box::new(ValuesOp::new(schema, rows))
    }

    #[test]
    fn filter_keeps_matching_rows() {
        let mut f = Filter::new(input(), Predicate::int_ge(0, 7));
        let rows = collect_rows(&mut f).unwrap();
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.int(0).unwrap() >= 7));
    }

    #[test]
    fn project_reorders_and_drops() {
        let mut p = Project::new(input(), vec![1, 0]).unwrap();
        assert_eq!(p.schema().column(0).name, "b");
        let rows = collect_rows(&mut p).unwrap();
        assert_eq!(rows[3].values(), &[Value::Int(30), Value::Int(3)]);
        assert!(Project::new(input(), vec![5]).is_err());
    }

    #[test]
    fn duplicated_projection_gets_fresh_schema_names_rejected() {
        // Projecting the same column twice duplicates names → schema error.
        assert!(Project::new(input(), vec![0, 0]).is_err());
    }
}
