//! Memory budgets and charged overflow-file I/O — the accounting layer
//! under larger-than-memory execution.
//!
//! The engine exposes one memory knob, `SMOOTH_MEM_BYTES`: the working
//! memory each *blocking operator instance* (a hash-join build, a sort,
//! an ordered Smooth Scan's Result Cache) of an active query may hold
//! before it must spill, in the spirit of PostgreSQL's `work_mem`. The
//! budget is per operator rather than a shared per-query pool on
//! purpose: operator open order differs between the serial and parallel
//! drivers, so a shared pool would make spill decisions — and therefore
//! the virtual clock — depend on the driver, breaking the engine-wide
//! byte-identical accounting invariant. `0` (the default) means
//! unlimited; see `docs/larger_than_memory.md` for the full ownership
//! story.
//!
//! Spilling in this engine is *modeled the way all I/O is modeled*: a
//! spill is its charge. When an operator's working set crosses its
//! budget it keeps its rows where they are — the grace join's build
//! batch, the external sort's accumulation batch, the Result Cache's partition
//! arenas in `smooth-core` — and pays, on the virtual clock, for the
//! overflow file those rows would fill: [`charge_spill_write`] fault-gates
//! the write and charges its encoded byte count, and every later re-read
//! is one more [`charge_spill_io`]. The byte counts are the ones the
//! operators already keep (the spill codec's
//! [`smooth_types::spill::batch_row_len`] for the join and the sort,
//! arena bytes for the Result Cache), so no row is encoded to spill it.
//! [`spill_io_ns`] is the one formula every overflow transfer pays: one
//! seek plus sequential page transfers of its byte length
//! (`ceil(bytes / PAGE_SIZE)` pages, minimum one) on the scan device,
//! charged to the clock's I/O lane and *never* to the disk-arm counters —
//! overflow files live beside the heap, not in it, so the buffer pool,
//! sequential/random classification and page counters are unperturbed.
//! The budget therefore bounds what an operator is *charged* for, not the
//! memory it holds.

use std::sync::OnceLock;

use smooth_storage::{DeviceProfile, Storage};
use smooth_types::{env_knob, Result, PAGE_SIZE};

/// Per-operator memory budget in bytes: the `SMOOTH_MEM_BYTES`
/// environment variable, read **once per process** and latched
/// ([`smooth_types::env_knob`]: a value that is not a plain byte count
/// aborts). `0` or unset means unlimited — no operator ever spills.
/// Tests and embedders override per instance via
/// `Database::set_mem_bytes` / the operators' `with_mem_budget`.
pub fn mem_budget_bytes() -> usize {
    static BYTES: OnceLock<usize> = OnceLock::new();
    *BYTES.get_or_init(|| env_knob("SMOOTH_MEM_BYTES", parse_mem_bytes).unwrap_or(0))
}

/// The `SMOOTH_MEM_BYTES` syntax: decimal digits, no `k` / `M` suffix.
fn parse_mem_bytes(text: &str) -> std::result::Result<usize, String> {
    text.parse().map_err(|e| format!("expected a byte count in decimal digits ({e})"))
}

/// Modeled cost of transferring one `bytes`-long overflow file (in
/// either direction): one seek plus sequential page transfers on
/// `device`. Zero bytes cost nothing — no file, no seek.
#[inline]
pub fn spill_io_ns(device: &DeviceProfile, bytes: u64) -> u64 {
    if bytes == 0 {
        return 0;
    }
    device.run_cost_ns(bytes.div_ceil(PAGE_SIZE as u64))
}

/// Charge one overflow-file transfer of `bytes` to the virtual clock's
/// I/O lane (never the disk-arm counters — see the module docs).
#[inline]
pub fn charge_spill_io(storage: &Storage, bytes: u64) {
    let ns = spill_io_ns(&storage.device(), bytes);
    if ns > 0 {
        storage.clock().charge_io(ns);
    }
}

/// Charge one overflow-file write of `bytes` encoded bytes holding
/// `rows` rows: fault-gate it (the storage instance's
/// [`smooth_storage::FaultInjector`], if any, may retry with backoff or
/// fail it), then charge the transfer on `device`. Every operator spill
/// routes through this, so injected `spill_err` faults cover all of
/// them. `device` is a parameter because the Result Cache prices its
/// spills from the device it captured at open: its calls run under a
/// storage session, whose lock [`Storage::device`] would wait on.
pub fn charge_spill_write(
    storage: &Storage,
    device: &DeviceProfile,
    bytes: u64,
    rows: u64,
) -> Result<()> {
    storage.spill_fault_check(bytes, rows)?;
    let ns = spill_io_ns(device, bytes);
    if ns > 0 {
        storage.clock().charge_io(ns);
    }
    Ok(())
}

/// [`charge_spill_write`] of already-encoded bytes, kept as one
/// overflow file. No operator holds one — a spill is its charge — but
/// `benchmark/`'s `executor.spill_write_ns_per_byte` kernel times the
/// encode-and-write path through it.
pub fn spill_write(storage: &Storage, data: Vec<u8>, rows: u64) -> Result<SpillFile> {
    charge_spill_write(storage, &storage.device(), data.len() as u64, rows)?;
    Ok(SpillFile { data })
}

/// Really-serialized tuple bytes (the [`smooth_types::spill`] codec)
/// whose write [`spill_write`] charged.
#[derive(Debug)]
pub struct SpillFile {
    data: Vec<u8>,
}

impl SpillFile {
    /// Serialized byte length.
    pub fn bytes_len(&self) -> u64 {
        self.data.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_bytes_knob_takes_plain_byte_counts_only() {
        assert_eq!(parse_mem_bytes("0"), Ok(0));
        assert_eq!(parse_mem_bytes("16384"), Ok(16384));
        for bad in ["", "abc", "16k", "-1", "1.5", " 64"] {
            assert!(parse_mem_bytes(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn spill_io_matches_result_cache_formula() {
        let dev = DeviceProfile::custom("t", 10, 1000);
        // The historical Result Cache formula: pages =
        // ceil(bytes / PAGE_SIZE).max(1), one seek + sequential run.
        for bytes in [1u64, 100, PAGE_SIZE as u64, PAGE_SIZE as u64 + 1, 10 * PAGE_SIZE as u64] {
            let pages = bytes.div_ceil(PAGE_SIZE as u64).max(1);
            assert_eq!(spill_io_ns(&dev, bytes), dev.run_cost_ns(pages));
        }
        assert_eq!(spill_io_ns(&dev, 0), 0);
    }

    #[test]
    fn charge_lands_on_io_not_disk_counters() {
        let storage = Storage::default_hdd();
        let clock0 = storage.clock().snapshot();
        let io0 = storage.io_snapshot();
        charge_spill_io(&storage, 3 * PAGE_SIZE as u64);
        let clock = storage.clock().snapshot().since(&clock0);
        assert_eq!(clock.io_ns, spill_io_ns(&storage.device(), 3 * PAGE_SIZE as u64));
        assert_eq!(clock.cpu_ns, 0);
        let io = storage.io_snapshot().since(&io0);
        assert_eq!(io.pages_read, 0);
        assert_eq!(io.io_requests, 0);
    }

    #[test]
    fn spill_write_charges_its_bytes() {
        let storage = Storage::default_hdd();
        let clock0 = storage.clock().snapshot();
        let f = spill_write(&storage, vec![0u8; 1000], 10).unwrap();
        assert_eq!(f.bytes_len(), 1000);
        let clock = storage.clock().snapshot().since(&clock0);
        assert_eq!(clock.io_ns, spill_io_ns(&storage.device(), 1000));
    }

    #[test]
    fn spill_write_surfaces_injected_faults() {
        use smooth_storage::FaultConfig;
        let storage = Storage::default_hdd();
        storage.set_faults(Some(FaultConfig::new(3).spill_err(1.0)));
        let clock0 = storage.clock().snapshot();
        let err = charge_spill_write(&storage, &storage.device(), 1000, 10).unwrap_err();
        assert!(matches!(err, smooth_types::Error::Faulted { .. }));
        // The failed write charged only its retry backoff, not the
        // transfer.
        let clock = storage.clock().snapshot().since(&clock0);
        assert_eq!(clock.io_ns, smooth_storage::faults::total_backoff_ns(3));
    }
}
