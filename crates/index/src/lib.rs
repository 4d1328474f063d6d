//! Non-clustered B+-tree secondary index.
//!
//! The equivalent of PostgreSQL's btree access method, scoped to what the
//! paper exercises: 64-bit integer keys (covering ints, dates and
//! fixed-point decimals) mapping to heap [`smooth_types::Tid`]s, with strict
//! `(key, tid)` entry ordering — the property Section IV-A highlights
//! because it lets the Eager strategy skip the Tuple-ID cache.
//!
//! Node *contents* live in memory (the index is rebuilt per experiment, as
//! `CREATE INDEX` is setup work), but node *residency* is tracked through
//! the shared buffer pool: every descent and every leaf crossing touches
//! virtual index pages via [`smooth_storage::Session::touch_index_page`]
//! (on the caller's storage session, one per operator call), so
//! tree I/O is charged with the same device model as heap I/O — `height`
//! random touches per cold descent plus sequential leaf walks, exactly the
//! structure of Eq. (11).

pub mod btree;
pub mod cursor;

pub use btree::BTreeIndex;
pub use cursor::IndexCursor;
