//! Result oracle independent of the drivers under test.
//!
//! Two sources of truth, neither produced by the code a round times:
//! qualifier counts tapped off the data generator while it loaded (see
//! `workloads::install_micro`), and a reference execution of every class
//! through the row-at-a-time Volcano protocol — the semantics oracle the
//! engine's own property suites pin every other driver against — at one
//! worker and no memory budget. Results are compared as fingerprints
//! (row count + hash) folded a row at a time, so checking a million-row
//! result never holds a second copy of it: the harness must not be what
//! sets `peak_rss_mb`.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use smoothscan::planner::BatchResult;
use smoothscan::prelude::*;
use smoothscan::storage::{ClockSnapshot, IoSnapshot};

/// Row count plus content hash of one result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub rows: u64,
    pub hash: u64,
}

/// Streaming fingerprint: order-sensitive for classes whose order is part
/// of the contract, a commutative sum of row hashes otherwise.
pub struct RowHasher {
    ordered: bool,
    rows: u64,
    acc: u64,
}

impl RowHasher {
    pub fn new(ordered: bool) -> Self {
        RowHasher { ordered, rows: 0, acc: 0 }
    }

    pub fn add(&mut self, row: &Row) {
        // `DefaultHasher::new()` is SipHash with fixed keys: stable across
        // runs, which the cross-process self-check relies on.
        let mut h = DefaultHasher::new();
        row.values().hash(&mut h);
        let row_hash = h.finish();
        self.acc = if self.ordered {
            self.acc.wrapping_mul(0x0000_0100_0000_01B3) ^ row_hash
        } else {
            self.acc.wrapping_add(row_hash)
        };
        self.rows += 1;
    }

    pub fn finish(self) -> Fingerprint {
        Fingerprint { rows: self.rows, hash: self.acc }
    }
}

/// Fingerprint a columnar result, consuming it batch by batch.
pub fn fingerprint(result: BatchResult, ordered: bool) -> Fingerprint {
    let mut h = RowHasher::new(ordered);
    for batch in result.batches {
        for i in 0..batch.len() {
            h.add(&batch.row(i));
        }
    }
    for row in &result.rows {
        h.add(row);
    }
    h.finish()
}

/// The reference execution of one class.
pub struct Reference {
    pub fingerprint: Fingerprint,
    pub clock: ClockSnapshot,
    pub io: IoSnapshot,
}

/// Cold-run `plan` through the Volcano protocol, folding rows as they
/// appear. The caller has set the database to one worker and no budget.
pub fn reference(db: &Database, plan: &LogicalPlan, ordered: bool) -> Result<Reference, Error> {
    let mut op = db.build(plan)?;
    db.storage().flush_pool();
    let clock0 = db.storage().clock().snapshot();
    let io0 = db.storage().io_snapshot();
    let mut h = RowHasher::new(ordered);
    op.open()?;
    while let Some(row) = op.next()? {
        h.add(&row);
    }
    op.close()?;
    Ok(Reference {
        fingerprint: h.finish(),
        clock: db.storage().clock().snapshot().since(&clock0),
        io: db.storage().io_snapshot().since(&io0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(a: i64, s: &str) -> Row {
        Row::new(vec![Value::Int(a), Value::str(s)])
    }

    #[test]
    fn unordered_ignores_order_and_ordered_does_not() {
        let fp = |ordered, rows: &[Row]| {
            let mut h = RowHasher::new(ordered);
            rows.iter().for_each(|r| h.add(r));
            h.finish()
        };
        let (a, b) = (row(1, "x"), row(2, "y"));
        assert_eq!(fp(false, &[a.clone(), b.clone()]), fp(false, &[b.clone(), a.clone()]));
        assert_ne!(fp(true, &[a.clone(), b.clone()]), fp(true, &[b.clone(), a.clone()]));
        assert_ne!(fp(false, std::slice::from_ref(&a)), fp(false, &[a.clone(), a.clone()]));
    }
}
