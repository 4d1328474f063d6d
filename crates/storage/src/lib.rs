//! Storage engine: slotted heap pages, buffer pool, and device-model I/O
//! accounting.
//!
//! This crate replaces the two pieces of the paper's experimental setup that
//! are not available here:
//!
//! * **PostgreSQL's storage layer** — re-implemented from scratch: 8 KB
//!   slotted pages ([`page`]), append-only heap files ([`heap`]), and a
//!   clock-eviction buffer pool ([`pool`]).
//! * **The physical disks** (2× SAS 15k RPM HDD, OCZ SATA SSD) — replaced by
//!   a *device model* ([`device`], [`tracker`]): every page transfer is
//!   classified as sequential or random based on the previously accessed
//!   physical position, coalesced into I/O requests, and charged to a
//!   [`clock::VirtualClock`] at the paper's measured cost ratios
//!   (HDD rand:seq = 10:1, SSD 2:1 — Sections V-A and VI-E).
//!
//! Execution time reported by the experiment harness is virtual-clock time:
//! `cpu_ns + io_ns`, mirroring the paper's single-threaded cold-run
//! methodology where blocking I/O sits on the critical path (Fig. 4 reports
//! exactly this CPU vs I/O-wait split).

pub mod backend;
pub mod clock;
pub mod costs;
pub mod device;
pub mod faults;
pub mod heap;
pub mod page;
pub mod pool;
pub mod scanstats;
pub mod session;
pub mod stats;
pub mod storage;
pub mod tracker;

pub use backend::{Backend, FileBackend, MemBackend};
pub use clock::{ClockSnapshot, VirtualClock};
pub use costs::CpuCosts;
pub use device::DeviceProfile;
pub use faults::{FaultConfig, FaultInjector, InjectedPanic};
pub use heap::{HeapFile, HeapLoader};
pub use page::{PageBuf, PageBuilder, PageView};
pub use pool::{BufferPool, PageKeyHasher};
pub use scanstats::{tap_mark, tap_rows, ScanStatistics, TapMark};
pub use session::Session;
pub use stats::{IoSnapshot, IoStatsDelta};
pub use storage::{FileId, Storage, StorageConfig};
pub use tracker::DiskTracker;
