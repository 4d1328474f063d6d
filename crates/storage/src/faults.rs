//! Deterministic fault injection: seeded, replayable failures at the
//! engine's I/O and execution boundaries.
//!
//! Smooth Scan's thesis is graceful degradation when the world lies to
//! the engine; this module extends that story from *stale statistics*
//! to *faulty hardware and hostile queries*. A [`FaultInjector`]
//! decides — deterministically — whether a given operation fails:
//!
//! * **page reads** ([`Storage::read_heap_page`](crate::storage::Storage::read_heap_page) /
//!   [`Storage::read_heap_run`](crate::storage::Storage::read_heap_run) misses) can fail transiently
//!   (`io_err`) or permanently (`corrupt`). Buffer-pool hits never
//!   fault: a cached page needs no device.
//! * **spill writes** (the charged overflow-file writes of the grace
//!   join, the external sort and the Result Cache) can fail transiently
//!   (`spill_err`).
//! * **worker morsels** (the scheduler's execution boundary) can
//!   panic (`panic`), exercising the engine's panic containment.
//!
//! [`Storage::touch_index_page`](crate::storage::Storage::touch_index_page) is *not* an injection point: index
//! nodes are virtual pages (residency accounting only, no bytes move),
//! so there is no device operation to fail.
//!
//! # Determinism
//!
//! Every decision is a *stateless hash draw*: the configured seed and
//! the operation's stable coordinates (file id, page number, byte
//! size, attempt index, …) are mixed through SplitMix64 and compared
//! against the configured probability. No RNG state is consumed, so
//! the verdict for a given operation is independent of thread
//! interleaving, worker count, and which queries run concurrently —
//! a faulted run is replayable byte-for-byte, and a query's fault
//! pattern is identical solo or under concurrency.
//!
//! # Retry and backoff
//!
//! Transient faults (`io_err`, `spill_err`) are retried in place up to
//! [`RETRY_LIMIT`] total attempts. Each retry first charges
//! [`backoff_ns`] — bounded exponential backoff, doubling from
//! [`BACKOFF_BASE_NS`] — to the virtual clock's *I/O lane* (the failed
//! attempt's bus time is folded into this charge; the disk-arm
//! counters are never perturbed, so sequential/random classification
//! and page counts stay fault-independent). A draw keyed on the
//! attempt index means a retried operation can succeed; if all
//! [`RETRY_LIMIT`] attempts fail the fault is permanent for this query
//! and surfaces as [`Error::Faulted`]. `corrupt` faults are keyed
//! *without* the attempt index — a corrupt page stays corrupt — and
//! surface immediately as [`Error::Corrupt`].
//!
//! # Scope
//!
//! An optional `file=N` scope confines page-read and morsel-panic
//! faults to the heap file with [`FileId`] `N`, leaving every other
//! table clean — this is how the `faults` experiment poisons exactly
//! one of four concurrent sessions. Spill writes are not attributable
//! to a heap file, so a scoped config never injects `spill_err`.
//!
//! See `docs/fault_model.md` for the whole model.

use smooth_types::{Error, Result};

use crate::clock::VirtualClock;
use crate::storage::FileId;

/// Maximum total attempts for a transiently-faulting operation
/// (the first try plus `RETRY_LIMIT - 1` retries).
pub const RETRY_LIMIT: u32 = 4;

/// Backoff charged before the first retry; doubles per further retry.
pub const BACKOFF_BASE_NS: u64 = 50_000;

/// Backoff charged to the virtual clock before retry `retry`
/// (1-based): `BACKOFF_BASE_NS << (retry - 1)`.
#[inline]
pub fn backoff_ns(retry: u32) -> u64 {
    BACKOFF_BASE_NS << (retry.saturating_sub(1)).min(16)
}

/// Total backoff charged by an operation that fails `fails` times
/// before succeeding (or exhausting [`RETRY_LIMIT`]).
pub fn total_backoff_ns(fails: u32) -> u64 {
    (1..=fails.min(RETRY_LIMIT - 1)).map(backoff_ns).sum()
}

/// Panic payload used by injected worker panics, so the engine's panic
/// hook can tell deliberate chaos from a real bug (and keep the latter
/// loud).
#[derive(Debug)]
pub struct InjectedPanic {
    /// The stable morsel key the draw was made on.
    pub key: u64,
}

/// Configuration of one [`FaultInjector`]: a seed plus per-site fault
/// probabilities (clamped to `0.0..=1.0`), optionally scoped to one
/// heap file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed mixed into every draw.
    pub seed: u64,
    /// Probability a page-read attempt fails transiently.
    pub io_err: f64,
    /// Probability a page is (permanently) corrupt.
    pub corrupt: f64,
    /// Probability a spill-write attempt fails transiently.
    pub spill_err: f64,
    /// Probability a worker morsel panics.
    pub panic: f64,
    /// When set, confine faults to this heap file (and suppress
    /// `spill_err`, which has no file attribution).
    pub file: Option<u32>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig { seed: 0, io_err: 0.0, corrupt: 0.0, spill_err: 0.0, panic: 0.0, file: None }
    }
}

impl FaultConfig {
    /// A zero-probability config with the given seed; switch individual
    /// sites on with the builder methods.
    pub fn new(seed: u64) -> Self {
        FaultConfig { seed, ..FaultConfig::default() }
    }

    /// Set the transient page-read fault probability.
    pub fn io_err(mut self, p: f64) -> Self {
        self.io_err = p.clamp(0.0, 1.0);
        self
    }

    /// Set the corrupt-page probability.
    pub fn corrupt(mut self, p: f64) -> Self {
        self.corrupt = p.clamp(0.0, 1.0);
        self
    }

    /// Set the transient spill-write fault probability.
    pub fn spill_err(mut self, p: f64) -> Self {
        self.spill_err = p.clamp(0.0, 1.0);
        self
    }

    /// Set the worker-morsel panic probability.
    pub fn panic(mut self, p: f64) -> Self {
        self.panic = p.clamp(0.0, 1.0);
        self
    }

    /// Confine faults to one heap file (see the module docs).
    pub fn scope_to_file(mut self, file: FileId) -> Self {
        self.file = Some(file.0);
        self
    }

    /// Parse the `SMOOTH_FAULTS` syntax:
    /// `"seed=1,io_err=0.01,corrupt=0.001,spill_err=0.01,panic=0.005,file=3"`.
    /// Every key is optional (the empty string is the inactive default);
    /// an unknown key, a malformed value or a probability outside
    /// `[0, 1]` is an error naming the offending part — never a guess.
    pub fn parse(s: &str) -> std::result::Result<FaultConfig, String> {
        let mut cfg = FaultConfig::default();
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) =
                part.split_once('=').ok_or_else(|| format!("`{part}` is not key=value"))?;
            let value = value.trim();
            let bad = |what: &str| format!("`{part}`: {what}");
            let prob = || {
                let p = value.parse::<f64>().ok().filter(|p| (0.0..=1.0).contains(p));
                p.ok_or_else(|| bad("not a probability in [0, 1]"))
            };
            match key.trim() {
                "seed" => cfg.seed = value.parse().map_err(|_| bad("seed is not a u64"))?,
                "io_err" => cfg.io_err = prob()?,
                "corrupt" => cfg.corrupt = prob()?,
                "spill_err" => cfg.spill_err = prob()?,
                "panic" => cfg.panic = prob()?,
                "file" => cfg.file = Some(value.parse().map_err(|_| bad("file is not a u32"))?),
                _ => return Err(bad("unknown key")),
            }
        }
        Ok(cfg)
    }

    /// The process-wide `SMOOTH_FAULTS` config, if any — parsed once
    /// and latched, like every `SMOOTH_*` knob
    /// ([`smooth_types::env_knob`]: a value [`FaultConfig::parse`]
    /// rejects aborts, so a misspelt chaos leg cannot run fault-free).
    pub fn from_env() -> Option<FaultConfig> {
        static ENV: std::sync::OnceLock<Option<FaultConfig>> = std::sync::OnceLock::new();
        *ENV.get_or_init(|| smooth_types::env_knob("SMOOTH_FAULTS", Self::parse))
    }

    /// Whether any site has a non-zero probability.
    pub fn is_active(&self) -> bool {
        self.io_err > 0.0 || self.corrupt > 0.0 || self.spill_err > 0.0 || self.panic > 0.0
    }
}

/// Site discriminants mixed into every draw so distinct fault kinds at
/// the same coordinates draw independently.
const SITE_IO_ERR: u64 = 0x49;
const SITE_CORRUPT: u64 = 0xC0;
const SITE_SPILL: u64 = 0x5B;
const SITE_PANIC: u64 = 0xBA;

/// SplitMix64 finalizer — the same mixer seeding the vendored xoshiro
/// RNG, used here as a stateless hash.
#[inline]
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The injector: a [`FaultConfig`] plus the stateless draw machinery.
/// Cheap to share (`Copy` config behind an `Arc` in [`Storage`](crate::storage::Storage)).
#[derive(Debug)]
pub struct FaultInjector {
    cfg: FaultConfig,
}

impl FaultInjector {
    /// An injector for `cfg`.
    pub fn new(cfg: FaultConfig) -> Self {
        FaultInjector { cfg }
    }

    /// The configuration this injector draws from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// A unit-interval draw at `(site, a, b)` under this seed.
    #[inline]
    fn draw(&self, site: u64, a: u64, b: u64) -> f64 {
        let mut h = splitmix(self.cfg.seed ^ site.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        h = splitmix(h ^ a);
        h = splitmix(h ^ b);
        // 53 high bits → uniform in [0, 1).
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    #[inline]
    fn in_scope(&self, file: Option<FileId>) -> bool {
        match self.cfg.file {
            None => true,
            Some(scoped) => file.is_some_and(|f| f.0 == scoped),
        }
    }

    /// Gate one heap-page device read: retries transient `io_err`
    /// draws in place, charging [`backoff_ns`] per retry to `clock`'s
    /// I/O lane; a `corrupt` draw (attempt-independent) or an
    /// exhausted retry budget fails the read.
    pub fn page_read(&self, clock: &VirtualClock, file: FileId, page: u32) -> Result<()> {
        if !self.in_scope(Some(file)) {
            return Ok(());
        }
        if self.cfg.corrupt > 0.0
            && self.draw(SITE_CORRUPT, file.0 as u64, page as u64) < self.cfg.corrupt
        {
            return Err(Error::Corrupt(format!(
                "injected: page {page} of file {} failed validation",
                file.0
            )));
        }
        if self.cfg.io_err <= 0.0 {
            return Ok(());
        }
        let key = (file.0 as u64) << 32 | page as u64;
        for attempt in 0..RETRY_LIMIT {
            if self.draw(SITE_IO_ERR, key, attempt as u64) >= self.cfg.io_err {
                return Ok(());
            }
            if attempt + 1 == RETRY_LIMIT {
                return Err(Error::Faulted { attempts: RETRY_LIMIT });
            }
            clock.charge_io(backoff_ns(attempt + 1));
        }
        // invariant: the loop always returns — every iteration either
        // succeeds, exhausts the budget, or charges backoff and retries.
        unreachable!("retry loop returns within RETRY_LIMIT attempts")
    }

    /// Gate one spill-write of `bytes`/`rows`: same retry/backoff
    /// policy as page reads, keyed on the write's stable size
    /// coordinates. Never fires under a `file=` scope (spill writes
    /// have no file attribution).
    pub fn spill_write(&self, clock: &VirtualClock, bytes: u64, rows: u64) -> Result<()> {
        if self.cfg.spill_err <= 0.0 || self.cfg.file.is_some() {
            return Ok(());
        }
        for attempt in 0..RETRY_LIMIT {
            if self.draw(SITE_SPILL, bytes ^ rows.rotate_left(32), attempt as u64)
                >= self.cfg.spill_err
            {
                return Ok(());
            }
            if attempt + 1 == RETRY_LIMIT {
                return Err(Error::Faulted { attempts: RETRY_LIMIT });
            }
            clock.charge_io(backoff_ns(attempt + 1));
        }
        // invariant: as in `page_read` — the loop always returns.
        unreachable!("retry loop returns within RETRY_LIMIT attempts")
    }

    /// Whether the worker morsel identified by `(file, key)` should
    /// panic. `file` is the morsel's heap file when it has one
    /// (shared-source morsels pass `None` and only fire unscoped).
    pub fn morsel_panics(&self, file: Option<FileId>, key: u64) -> bool {
        self.cfg.panic > 0.0
            && self.in_scope(file)
            && self.draw(SITE_PANIC, file.map_or(u64::MAX, |f| f.0 as u64), key) < self.cfg.panic
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_every_key() {
        let cfg =
            FaultConfig::parse("seed=7, io_err=0.25, corrupt=0.5, spill_err=1, panic=0, file=3")
                .unwrap();
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.io_err, 0.25);
        assert_eq!(cfg.corrupt, 0.5);
        assert_eq!(cfg.spill_err, 1.0);
        assert_eq!(cfg.panic, 0.0);
        assert_eq!(cfg.file, Some(3));
        assert!(cfg.is_active());
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "seed",
            "bogus=1",
            "seed=2015,io_error=0.05", // one misspelt key fails the lot
            "io_err=NaN",
            "io_err=abc",
            "seed=x",
            "file=-1",
            "io_err=7", // out of range: rejected, not clamped
            "panic=-0.1",
        ] {
            let err = FaultConfig::parse(bad).unwrap_err();
            assert!(!err.is_empty(), "{bad:?}");
        }
        assert!(FaultConfig::parse("seed=1,bogus=1").unwrap_err().contains("bogus"));
        assert!(!FaultConfig::parse("").unwrap().is_active());
        // The CI chaos leg's own string parses.
        let ci = FaultConfig::parse("seed=2015,io_err=0.05,spill_err=0.05,panic=0.02").unwrap();
        assert!(ci.is_active());
        assert_eq!(ci.seed, 2015);
    }

    #[test]
    fn draws_are_deterministic_and_seed_sensitive() {
        let a = FaultInjector::new(FaultConfig::new(1).io_err(0.5));
        let b = FaultInjector::new(FaultConfig::new(1).io_err(0.5));
        let c = FaultInjector::new(FaultConfig::new(2).io_err(0.5));
        let clock = VirtualClock::new();
        let pattern = |inj: &FaultInjector| -> Vec<bool> {
            (0..64).map(|p| inj.page_read(&clock, FileId(9), p).is_err()).collect()
        };
        assert_eq!(pattern(&a), pattern(&b));
        assert_ne!(pattern(&a), pattern(&c));
    }

    #[test]
    fn certain_io_err_exhausts_retries_with_full_backoff() {
        let inj = FaultInjector::new(FaultConfig::new(1).io_err(1.0));
        let clock = VirtualClock::new();
        let err = inj.page_read(&clock, FileId(1), 0).unwrap_err();
        assert_eq!(err, Error::Faulted { attempts: RETRY_LIMIT });
        // Backoff 50k + 100k + 200k for the three retries.
        assert_eq!(clock.snapshot().io_ns, total_backoff_ns(RETRY_LIMIT - 1));
        assert_eq!(clock.snapshot().io_ns, 350_000);
    }

    #[test]
    fn corrupt_wins_over_io_err_and_skips_retries() {
        let inj = FaultInjector::new(FaultConfig::new(1).io_err(1.0).corrupt(1.0));
        let clock = VirtualClock::new();
        let err = inj.page_read(&clock, FileId(1), 5).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)));
        assert_eq!(clock.snapshot().io_ns, 0, "permanent faults never back off");
    }

    #[test]
    fn file_scope_confines_page_and_panic_faults() {
        let inj =
            FaultInjector::new(FaultConfig::new(1).io_err(1.0).panic(1.0).scope_to_file(FileId(7)));
        let clock = VirtualClock::new();
        assert!(inj.page_read(&clock, FileId(7), 0).is_err());
        assert!(inj.page_read(&clock, FileId(8), 0).is_ok());
        assert!(inj.morsel_panics(Some(FileId(7)), 0));
        assert!(!inj.morsel_panics(Some(FileId(8)), 0));
        assert!(!inj.morsel_panics(None, 0), "shared morsels are unattributed");
    }

    #[test]
    fn scoped_config_never_injects_spill_faults() {
        let clock = VirtualClock::new();
        let scoped =
            FaultInjector::new(FaultConfig::new(1).spill_err(1.0).scope_to_file(FileId(7)));
        assert!(scoped.spill_write(&clock, 4096, 10).is_ok());
        let unscoped = FaultInjector::new(FaultConfig::new(1).spill_err(1.0));
        assert!(unscoped.spill_write(&clock, 4096, 10).is_err());
    }

    #[test]
    fn transient_faults_can_succeed_on_retry() {
        // With p = 0.5 over many pages, some must fail the first
        // attempt and pass a later one — observable as Ok with a
        // non-zero backoff charge.
        let inj = FaultInjector::new(FaultConfig::new(42).io_err(0.5));
        let mut retried_ok = 0;
        for page in 0..256 {
            let clock = VirtualClock::new();
            if inj.page_read(&clock, FileId(3), page).is_ok() && clock.snapshot().io_ns > 0 {
                retried_ok += 1;
            }
        }
        assert!(retried_ok > 0, "some reads must succeed after backoff");
    }

    #[test]
    fn backoff_doubles_and_is_bounded() {
        assert_eq!(backoff_ns(1), BACKOFF_BASE_NS);
        assert_eq!(backoff_ns(2), 2 * BACKOFF_BASE_NS);
        assert_eq!(backoff_ns(3), 4 * BACKOFF_BASE_NS);
        assert_eq!(total_backoff_ns(0), 0);
        assert_eq!(total_backoff_ns(2), 3 * BACKOFF_BASE_NS);
        // Saturation backstop: huge retry indices don't overflow.
        assert!(backoff_ns(u32::MAX) > 0);
    }
}
