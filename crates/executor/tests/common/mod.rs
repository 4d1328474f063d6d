//! Shared by the property suites: prepared morsels (selection vectors
//! included) and an operator that replays them.

use smooth_executor::Operator;
use smooth_types::{ColumnBatch, Result, Row, Schema};

/// One morsel: rows plus an optional selection vector (distinct
/// physical indices, arbitrary order).
#[derive(Debug, Clone)]
pub struct Morsel {
    pub rows: Vec<Row>,
    pub selection: Option<Vec<u32>>,
}

impl Morsel {
    /// `rows`, and when `selected` a selection keeping a seed-chosen
    /// subset of them, in rotated order.
    pub fn new(rows: Vec<Row>, selected: bool, seed: u64) -> Self {
        let selection = selected.then(|| {
            let n = rows.len() as u64;
            let mut sel: Vec<u32> =
                (0..n).filter(|i| (seed >> (i % 61)) & 1 == 1).map(|i| i as u32).collect();
            if !sel.is_empty() {
                let by = (seed % sel.len() as u64) as usize;
                sel.rotate_left(by);
            }
            sel
        });
        Morsel { rows, selection }
    }

    pub fn batch(&self, schema: &Schema) -> ColumnBatch {
        let mut batch = ColumnBatch::from_rows(schema, &self.rows).unwrap();
        if let Some(sel) = &self.selection {
            batch.set_selection(sel.clone());
        }
        batch
    }

    /// The live rows, in emission order.
    pub fn live(&self) -> Vec<Row> {
        match &self.selection {
            Some(sel) => sel.iter().map(|&i| self.rows[i as usize].clone()).collect(),
            None => self.rows.clone(),
        }
    }
}

/// An operator replaying prepared morsels, selection vectors included. A
/// morsel leaves whole when it fits `max`, otherwise `max` live rows at a
/// time under a selection vector naming them.
pub struct Replay {
    schema: Schema,
    morsels: Vec<Morsel>,
    at: usize,
    /// Live rows of morsel `at` already emitted.
    done: usize,
}

impl Replay {
    pub fn new(schema: Schema, morsels: Vec<Morsel>) -> Self {
        Replay { schema, morsels, at: 0, done: 0 }
    }
}

impl Operator for Replay {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        (self.at, self.done) = (0, 0);
        Ok(())
    }

    fn next_columns(&mut self, max: usize) -> Result<Option<ColumnBatch>> {
        while let Some(m) = self.morsels.get(self.at) {
            let mut batch = m.batch(&self.schema);
            let live: Vec<u32> =
                batch.live_rows().skip(self.done).take(max.max(1)).map(|i| i as u32).collect();
            if live.is_empty() {
                (self.at, self.done) = (self.at + 1, 0);
                continue;
            }
            self.done += live.len();
            if live.len() < batch.len() {
                batch.set_selection(live);
            }
            return Ok(Some(batch));
        }
        Ok(None)
    }

    fn close(&mut self) -> Result<()> {
        Ok(())
    }

    fn label(&self) -> String {
        "Replay".into()
    }
}
