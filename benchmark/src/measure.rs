//! Measurement plumbing shared by the end-to-end run and the layer
//! kernels: order statistics, peak RSS, the counting allocator, the
//! kernel timing helper with its measurement-trap guards, and the
//! hand-written JSON the result files use (the build is offline and
//! vendors no serializer).

use std::alloc::{GlobalAlloc, Layout, System};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric { name: name.into(), unit, value }
    }
}

fn sorted(values: impl IntoIterator<Item = impl Borrow<f64>>) -> Vec<f64> {
    let mut v: Vec<f64> = values.into_iter().map(|x| *x.borrow()).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: impl IntoIterator<Item = impl Borrow<f64>>) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Inter-quartile range by linear interpolation between order statistics.
pub fn iqr(values: impl IntoIterator<Item = impl Borrow<f64>>) -> f64 {
    let v = sorted(values);
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    at(0.75) - at(0.25)
}

/// Geometric mean of strictly positive values (`NaN` of none).
pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `VmHWM` of this process in MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Reset the kernel's peak-RSS watermark of this process to its current
/// RSS, so the next [`peak_rss_mb`] reads the peak since now. Returns
/// whether the kernel accepted it (Linux ≥ 4.0 with a writable procfs).
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Pin glibc malloc's mmap threshold at its static default (128 KiB), which
/// also switches off its dynamic adjustment. Returns whether it took.
///
/// Left dynamic, the threshold climbs to the size of whichever large block
/// happens to be freed first, and from then on blocks under it are carved
/// from arena heaps that are not given back. Which block that is depends on
/// the data, so two seeds of `analytic_parallel` sat at 220 MB or at 290 MB
/// of RSS for a whole run. Pinned, large vectors are always mapped and
/// unmapped, RSS follows what the engine holds (261–270 MB over the same
/// seeds), and rounds cost ≈ 3 % more in page faults — on parent and change
/// alike.
pub fn pin_malloc_mmap_threshold() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::ffi::c_int;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        const M_MMAP_THRESHOLD: c_int = -3;
        // SAFETY: `mallopt` takes two plain integers and is safe to call at
        // any time from one thread; `main` calls this before it starts any.
        unsafe { mallopt(M_MMAP_THRESHOLD, 128 << 10) == 1 }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        false
    }
}

/// Stateless SplitMix64 draw: the harness's only randomness (probe keys),
/// a pure function of `(seed, i)` so inputs repeat exactly under a seed.
pub fn splitmix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---- host-speed probe -------------------------------------------------------

/// What [`SpeedProbe::sample`] reads on the reference host in its usual
/// state; normalized times are wall times scaled to a host on which the
/// probe takes exactly this long.
pub const PROBE_REFERENCE_MS: f64 = 3.0;

/// Tuples the probe's miniature query runs over, and their width.
const PROBE_TUPLES: u64 = 60_000;
const PROBE_COLUMNS: usize = 11;

/// A fixed, engine-independent miniature of what the engine does, timed
/// beside every query execution and every build: decode fixed-width
/// tuples from bytes, filter a tenth of them into column vectors, fold all
/// of them into a `HashMap` group-by, copy every tuple out as a row, sort
/// the qualifiers.
///
/// The reference host is a shared 2-vCPU VM. Its effective speed moves in
/// spells of one to tens of seconds, in more than one way: the clock itself
/// (a dependent multiply chain reads 3.0 or 3.8 ms for the same work), and
/// contention from neighbours that leaves such a chain alone but slows
/// cache-missing, high-IPC code — i.e. the engine — by 10–20 %, every
/// query class alike. Raw, the median round of one workload ranged over
/// 50 % across ten back-to-back runs. Of the probes tried (ALU chain,
/// 4-way ILP chain, memory stream, pointer chase, small allocations, this
/// miniature), the ones that look like the engine tracked it best, so that
/// is what the probe is. Every timed wall sample is scaled by the probe
/// readings taken right before and after it; raw wall numbers are always
/// reported beside the normalized ones.
pub struct SpeedProbe {
    tuples: Vec<u8>,
    // Working buffers, kept between samples: the probe allocates nothing
    // once warm, so it reads the same whatever state the process's
    // allocator is in (malloc gets slower for everyone once a process has
    // threads, and the probe must not mistake that for a slow host).
    columns: Vec<Vec<u64>>,
    groups: HashMap<u64, (u64, u64)>,
    rows: Vec<u64>,
    keys: Vec<(u64, u64)>,
}

impl SpeedProbe {
    pub fn new() -> Self {
        let mut tuples = Vec::with_capacity(PROBE_TUPLES as usize * PROBE_COLUMNS * 8);
        for row in 0..PROBE_TUPLES {
            for col in 0..PROBE_COLUMNS as u64 {
                tuples.extend_from_slice(&(splitmix(col, row) % 100_000).to_le_bytes());
            }
        }
        let mut probe = SpeedProbe {
            tuples,
            columns: vec![Vec::new(); PROBE_COLUMNS],
            groups: HashMap::new(),
            rows: Vec::new(),
            keys: Vec::new(),
        };
        probe.sample();
        probe
    }

    /// Milliseconds the fixed work takes right now.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        let SpeedProbe { tuples, columns, groups, rows, keys } = self;
        columns.iter_mut().for_each(Vec::clear);
        groups.clear();
        rows.clear();
        keys.clear();
        for tuple in black_box(&*tuples).chunks_exact(PROBE_COLUMNS * 8) {
            let mut fields = [0u64; PROBE_COLUMNS];
            for (field, bytes) in fields.iter_mut().zip(tuple.chunks_exact(8)) {
                *field = u64::from_le_bytes(bytes.try_into().expect("8-byte field"));
            }
            if fields[1] < 10_000 {
                columns.iter_mut().zip(&fields).for_each(|(column, &f)| column.push(f));
            }
            let group = groups.entry(fields[2] % 20_000).or_default();
            group.0 += 1;
            group.1 += fields[3];
            rows.extend_from_slice(&fields);
        }
        keys.extend(columns[1].iter().copied().zip(columns[0].iter().copied()));
        keys.sort_unstable();
        black_box((&*columns, &*groups, &*rows, &*keys));
        t.elapsed().as_secs_f64() * 1e3
    }

    /// Factor that scales a wall time measured between two probe readings
    /// to the reference host speed.
    pub fn factor(before_ms: f64, after_ms: f64) -> f64 {
        PROBE_REFERENCE_MS / ((before_ms + after_ms) / 2.0)
    }
}

// ---- counting allocator ---------------------------------------------------

/// System allocator that counts calls and bytes while [`AllocCount`] is
/// switched on (only the traced run does that; otherwise the cost is one
/// relaxed load per allocation).
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are side effects only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller's obligations for `alloc` are exactly `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(new_size.saturating_sub(layout.size()) as u64, Ordering::Relaxed);
        }
        // SAFETY: `ptr`/`layout` describe a live `System` block.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Scoped switch for the counting allocator: counts accumulate between
/// [`AllocCount::start`] and [`AllocCount::stop`].
pub struct AllocCount {
    calls0: u64,
    bytes0: u64,
}

impl AllocCount {
    pub fn start() -> Self {
        let c = AllocCount {
            calls0: ALLOC_CALLS.load(Ordering::Relaxed),
            bytes0: ALLOC_BYTES.load(Ordering::Relaxed),
        };
        COUNTING.store(true, Ordering::Relaxed);
        c
    }

    /// `(calls, bytes)` allocated by every thread since `start`.
    pub fn stop(self) -> (u64, u64) {
        COUNTING.store(false, Ordering::Relaxed);
        (
            ALLOC_CALLS.load(Ordering::Relaxed) - self.calls0,
            ALLOC_BYTES.load(Ordering::Relaxed) - self.bytes0,
        )
    }
}

// ---- kernel timing ----------------------------------------------------------

/// Shortest admissible kernel sample.
pub const MIN_SAMPLE: Duration = Duration::from_millis(20);
/// Admissible band for `time(2n) / time(n)`.
pub const SCALING_BAND: (f64, f64) = (1.6, 2.4);
/// Attempts at a clean n / 2n pair before the kernel is reported as failed
/// (noise produces the odd outlier; a kernel the compiler deleted fails
/// every attempt).
const SCALING_ATTEMPTS: usize = 6;

/// Outcome of one layer kernel.
#[derive(Debug, Clone)]
pub struct KernelSample {
    /// Median nanoseconds per unit over the samples.
    pub ns_per_unit: f64,
    /// Passes per sample at `n` (each pass repeats identical work).
    pub passes: u64,
    /// `time(2n) / time(n)` of the accepted pair.
    pub scaling: f64,
    /// Whether the pair landed inside [`SCALING_BAND`].
    pub scaling_ok: bool,
}

/// Time `pass`, which performs one fixed unit of prepared work and returns
/// `(elapsed, units)` — it owns its timer so per-pass preparation (cloning
/// a consumed input, flushing a pool) stays outside the measurement.
///
/// Guards against the usual traps: results go through `black_box` in the
/// closures; each sample runs at least [`MIN_SAMPLE`]; and total time must
/// grow with the iteration count — a pair at `n` and `2n` passes has to
/// land in [`SCALING_BAND`].
pub fn kernel(mut pass: impl FnMut() -> (Duration, u64)) -> KernelSample {
    let mut run = |passes: u64| -> (f64, f64) {
        let (mut ns, mut units) = (0f64, 0f64);
        for _ in 0..passes {
            let (dt, u) = pass();
            ns += dt.as_nanos() as f64;
            units += u as f64;
        }
        (ns, units.max(1.0))
    };
    // Warm caches and lazy state, then size `n` so one sample is long enough.
    run(1);
    let mut n = 1u64;
    loop {
        let (ns, _) = run(n);
        if ns >= MIN_SAMPLE.as_nanos() as f64 || n >= 1 << 24 {
            break;
        }
        let want = MIN_SAMPLE.as_nanos() as f64 * 1.25 / ns.max(1.0);
        n = (n as f64 * want.clamp(2.0, 64.0)).ceil() as u64;
    }
    let mut last = (f64::NAN, f64::NAN, false);
    for _ in 0..SCALING_ATTEMPTS {
        let (a_ns, a_units) = run(n);
        let (b_ns, b_units) = run(2 * n);
        let (c_ns, c_units) = run(n);
        let scaling = b_ns / ((a_ns + c_ns) / 2.0).max(1.0);
        let per_unit = median([a_ns / a_units, b_ns / b_units, c_ns / c_units]);
        let ok = (SCALING_BAND.0..=SCALING_BAND.1).contains(&scaling);
        last = (per_unit, scaling, ok);
        if ok {
            break;
        }
    }
    KernelSample { ns_per_unit: last.0, passes: n, scaling: last.1, scaling_ok: last.2 }
}

/// Time one closure call, passing its result through `black_box`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let t = Instant::now();
    let out = black_box(f());
    (t.elapsed(), out)
}

// ---- JSON -------------------------------------------------------------------

/// Append `s` as a JSON string literal.
pub fn json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append `v` as a JSON number with all its digits (`null` when not finite).
pub fn json_num(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Append `items`, each written by `each`, separated by commas and wrapped
/// in `open` … `close`.
pub fn json_list<T>(
    out: &mut String,
    (open, close): (char, char),
    items: impl IntoIterator<Item = T>,
    mut each: impl FnMut(&mut String, T),
) {
    out.push(open);
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        each(out, item);
    }
    out.push(close);
}

/// `{"name": {"value": v, "unit": "u"}, ...}` for a metric list.
pub fn json_metrics(out: &mut String, metrics: &[Metric]) {
    json_list(out, ('{', '}'), metrics, |out, m| {
        json_str(out, &m.name);
        out.push_str(": {\"value\": ");
        json_num(out, m.value);
        out.push_str(", \"unit\": ");
        json_str(out, m.unit);
        out.push('}');
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median([3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median([4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(iqr([1.0, 2.0, 3.0, 4.0, 5.0]), 2.0);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn json_escapes_and_numbers() {
        let mut s = String::new();
        json_str(&mut s, "a\"b\\c\n");
        assert_eq!(s, "\"a\\\"b\\\\c\\n\"");
        let mut s = String::new();
        json_num(&mut s, f64::NAN);
        json_num(&mut s, 1.5);
        assert_eq!(s, "null1.5");
    }

    #[test]
    fn kernel_accepts_work_that_scales_with_passes() {
        let data: Vec<u64> = (0..50_000).collect();
        let linear = kernel(|| {
            let (dt, sum) =
                timed(|| black_box(&data).iter().fold(0u64, |a, b| a ^ b.rotate_left(7)));
            black_box(sum);
            (dt, data.len() as u64)
        });
        assert!(linear.scaling_ok, "linear work scaled {:.2}", linear.scaling);
        assert!(linear.ns_per_unit > 0.0);
    }
}
