//! The one hash-table kernel under hash join and hash aggregation.
//!
//! A [`KeyTable`] interns distinct keys and hands back dense **entry
//! ids** in insertion order (entry `0` is the first distinct key seen,
//! entry `1` the second, …). Callers hang their own per-entry state off
//! the id — accumulator vectors for aggregation, `head`/`tail` chain
//! ends for the join — so the table itself is only two things:
//!
//! * a **slot array** of `u32` entry ids: power-of-two capacity, linear
//!   probing, grown (doubled) at ½ load by re-seating the stored
//!   per-entry hashes — keys are never re-hashed;
//! * the **keys, columnar**: one dense [`ColumnVector`] per key column,
//!   entry id = row. Keys are hashed and compared straight off the typed
//!   vectors of the caller's batch ([`ColumnVector::slot_hash`] /
//!   [`ColumnVector::slot_eq`]) — no `Value`, no `Vec<Value>`, no
//!   per-row allocation, no SipHash.
//!
//! # Hash and equality per type
//!
//! | key slot | hashes as            | equals                          |
//! |----------|----------------------|---------------------------------|
//! | `Int`    | multiply-mix of `v`  | same integer                    |
//! | `Float`  | mix of the IEEE bits | **same bit pattern**            |
//! | `Text`   | mix over the bytes   | same bytes                      |
//! | NULL     | a fixed tag          | only another NULL               |
//!
//! Float equality is bitwise on purpose: `NaN == NaN` and
//! `0.0 != -0.0`. That is an equivalence relation consistent with the
//! hash, which IEEE `==` is not — under it every `NaN` row would open a
//! group of its own and `±0.0` would merge or not depending on where
//! they happened to land. Differently typed key columns never compare
//! equal. NULL is an ordinary key here (GROUP BY semantics); the join
//! drops NULL keys before they reach the table.
//!
//! A table over a single `Int` column takes a fast path that compares
//! the `i64` directly instead of walking the key columns.

use smooth_types::{ColumnValues, ColumnVector, DataType};

/// Slot sentinel: no entry seated here.
const EMPTY: u32 = u32::MAX;

/// Slots of a fresh table (8 entries before the first growth).
const INITIAL_SLOTS: usize = 16;

#[inline]
fn mix(h: u64, v: u64) -> u64 {
    let x = (h.rotate_left(23) ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^ (x >> 32)
}

/// Open-addressing table of distinct keys with columnar key storage;
/// see the module docs for the layout and the per-type rules.
#[derive(Debug, Clone)]
pub struct KeyTable {
    /// `slots[hash & mask ..]` (linear probing) → entry id or [`EMPTY`].
    slots: Vec<u32>,
    /// Full hash per entry, compared before the key and re-seated on
    /// growth.
    hashes: Vec<u64>,
    /// One dense vector per key column; entry id = slot index in each.
    keys: Vec<ColumnVector>,
    /// Every key hashes to 0 (collision-chain torture; tests only).
    degenerate: bool,
}

impl KeyTable {
    /// An empty table keyed on columns of the given types, in order.
    pub fn new(types: impl IntoIterator<Item = DataType>) -> Self {
        Self::with_slots(types, INITIAL_SLOTS, false)
    }

    /// A table that starts at two slots and hashes every key to the same
    /// value, so every insert walks one collision chain and growth fires
    /// from the second key on. Results must not depend on it.
    #[doc(hidden)]
    pub fn degenerate(types: impl IntoIterator<Item = DataType>) -> Self {
        Self::with_slots(types, 2, true)
    }

    fn with_slots(
        types: impl IntoIterator<Item = DataType>,
        slots: usize,
        degenerate: bool,
    ) -> Self {
        KeyTable {
            slots: vec![EMPTY; slots],
            hashes: Vec::new(),
            keys: types.into_iter().map(ColumnVector::for_type).collect(),
            degenerate,
        }
    }

    /// Distinct keys interned so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// `true` when no key is interned.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// The interned keys, one vector per key column, entry id = slot.
    pub fn keys(&self) -> &[ColumnVector] {
        &self.keys
    }

    /// Each entry's full [`KeyTable::hash`], entry id = slot.
    pub fn hashes(&self) -> &[u64] {
        &self.hashes
    }

    /// Consume into the key vectors (entry order).
    pub fn into_keys(self) -> Vec<ColumnVector> {
        self.keys
    }

    /// Forget every key, keeping the key typing.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.slots.resize(if self.degenerate { 2 } else { INITIAL_SLOTS }, EMPTY);
        self.hashes.clear();
        self.keys.iter_mut().for_each(ColumnVector::clear);
    }

    /// The entry id of the key held in row `row` of `cols` (one vector
    /// per key column), interning it first if it is new — in which case
    /// the returned id equals the previous [`KeyTable::len`].
    #[inline]
    pub fn intern(&mut self, cols: &[&ColumnVector], row: usize) -> u32 {
        self.intern_hashed(self.hash(cols, row), cols, row)
    }

    /// [`KeyTable::intern`] with the key's [`KeyTable::hash`] already
    /// computed: a caller routed the row on it, or another table stored
    /// it ([`KeyTable::hashes`]).
    #[inline]
    pub fn intern_hashed(&mut self, hash: u64, cols: &[&ColumnVector], row: usize) -> u32 {
        debug_assert_eq!(cols.len(), self.keys.len());
        match self.seek(hash, cols, row) {
            Ok(entry) => entry,
            Err(slot) => {
                let entry = self.hashes.len() as u32;
                assert!(entry < EMPTY, "hash table entry ids exhausted");
                self.slots[slot] = entry;
                self.hashes.push(hash);
                for (key, col) in self.keys.iter_mut().zip(cols) {
                    key.push_from(col, row);
                }
                if self.hashes.len() * 2 > self.slots.len() {
                    self.grow();
                }
                entry
            }
        }
    }

    /// The entry id of the key in row `row` of `cols`, if interned.
    #[inline]
    pub fn find(&self, cols: &[&ColumnVector], row: usize) -> Option<u32> {
        debug_assert_eq!(cols.len(), self.keys.len());
        self.seek(self.hash(cols, row), cols, row).ok()
    }

    /// The full hash of the key in row `row` of `cols`. Its low bits pick
    /// the slot; its high bits are free for a caller to partition on.
    #[inline]
    pub fn hash(&self, cols: &[&ColumnVector], row: usize) -> u64 {
        if self.degenerate {
            return 0;
        }
        cols.iter().fold(0, |h, col| mix(h, col.slot_hash(row)))
    }

    /// Walk the probe sequence of `hash`: `Ok(entry)` on a key match,
    /// `Err(slot)` at the first empty slot.
    #[inline]
    fn seek(&self, hash: u64, cols: &[&ColumnVector], row: usize) -> Result<u32, usize> {
        // Single non-null `Int` key against an `Int` key column: compare
        // the integers directly.
        if let ([key], [col]) = (self.keys.as_slice(), cols) {
            if let (ColumnValues::Int(have), ColumnValues::Int(want)) = (key.values(), col.values())
            {
                if !col.is_null(row) {
                    let (want, nulls) = (want[row], key.nulls());
                    return self.seek_by(hash, |e| have[e] == want && !nulls[e]);
                }
            }
        }
        self.seek_by(hash, |e| {
            self.keys.iter().zip(cols).all(|(key, col)| key.slot_eq(e, col, row))
        })
    }

    #[inline]
    fn seek_by(&self, hash: u64, same_key: impl Fn(usize) -> bool) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            let entry = self.slots[slot];
            if entry == EMPTY {
                return Err(slot);
            }
            if self.hashes[entry as usize] == hash && same_key(entry as usize) {
                return Ok(entry);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Double the slot array and re-seat every entry by its stored hash.
    fn grow(&mut self) {
        let slots = self.slots.len() * 2;
        let mask = slots - 1;
        self.slots.clear();
        self.slots.resize(slots, EMPTY);
        for (entry, &hash) in self.hashes.iter().enumerate() {
            let mut slot = hash as usize & mask;
            while self.slots[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = entry as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smooth_types::Value;

    fn vector(ty: DataType, values: &[Value]) -> ColumnVector {
        let mut v = ColumnVector::for_type(ty);
        values.iter().for_each(|x| v.push_value(x).unwrap());
        v
    }

    fn intern_all(table: &mut KeyTable, col: &ColumnVector) -> Vec<u32> {
        (0..col.len()).map(|i| table.intern(&[col], i)).collect()
    }

    #[test]
    fn entry_ids_are_first_seen_order_through_growth() {
        let keys: Vec<Value> = (0..500).map(|i| Value::Int((i * 7919) % 173)).collect();
        let col = vector(DataType::Int64, &keys);
        for mut table in [KeyTable::new([DataType::Int64]), KeyTable::degenerate([DataType::Int64])]
        {
            let ids = intern_all(&mut table, &col);
            let mut seen: Vec<i64> = Vec::new();
            for (key, id) in keys.iter().zip(&ids) {
                let k = key.as_int().unwrap();
                let at = seen.iter().position(|&s| s == k).unwrap_or_else(|| {
                    seen.push(k);
                    seen.len() - 1
                });
                assert_eq!(*id as usize, at);
            }
            assert_eq!(table.len(), 173);
            assert_eq!(table.keys()[0].len(), 173);
            for (i, id) in ids.iter().enumerate() {
                assert_eq!(table.find(&[&col], i), Some(*id));
            }
            let absent = vector(DataType::Int64, &[Value::Int(-1), Value::Null]);
            assert_eq!(table.find(&[&absent], 0), None);
            assert_eq!(table.find(&[&absent], 1), None);
            table.clear();
            assert!(table.is_empty());
            assert_eq!(table.intern(&[&col], 3), 0, "ids restart after clear");
        }
    }
}
