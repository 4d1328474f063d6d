//! Wall-clock benchmark of the engine: one named workload per process.
//!
//! ```text
//! smooth-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]
//! ```
//!
//! The run builds the workload's database (timed), takes a reference
//! result for every query class, warms up, runs timed rounds for
//! `--seconds`, re-checks the results, prints every metric by name with
//! its unit, writes `<out>/<workload>/result.json`, and ends with the
//! one-line JSON object `BENCHMARK.json`'s contract asks for. With
//! `--trace 1` it instead records spans around each layer, runs the
//! per-layer kernels and writes `<out>/<workload>/trace.json`. See
//! README.md for the workloads, the metric glossary and the sizing.

mod layers;
mod measure;
mod oracle;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use smoothscan::planner::BatchResult;
use smoothscan::prelude::*;
use smoothscan::storage::{ClockSnapshot, IoSnapshot, ScanStatistics};

use measure::{
    geomean, iqr, json_list, json_metrics, json_num, json_str, median, peak_rss_mb,
    pin_malloc_mmap_threshold, reset_peak_rss, AllocCount, Metric, SpeedProbe,
};
use oracle::{fingerprint, reference, Fingerprint, Reference};
use trace::Tracer;
use workloads::{Class, Sizes, Spec};

#[global_allocator]
static ALLOC: measure::CountingAlloc = measure::CountingAlloc;

/// Seed used when none is given.
const DEFAULT_SEED: u64 = 2015;
/// Timed-phase length when none is given (`run_seconds` in BENCHMARK.json).
const DEFAULT_SECONDS: f64 = 12.0;
/// Database builds behind `setup_s` (their median is reported).
const SETUP_BUILDS: usize = 3;
/// Fewest timed rounds a run reports on, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;
/// Timed rounds of a `--quick` run, and untraced / traced rounds of a
/// traced run.
const SHORT_ROUNDS: usize = 3;
/// Failure messages kept verbatim (the count is always exact).
const MAX_MESSAGES: usize = 12;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: PathBuf,
}

fn usage() -> String {
    format!(
        "usage: smooth-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]",
        workloads::NAMES.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        out: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value =
            |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}\n{}", usage()));
        match flag.as_str() {
            "--workload" => args.workload = value("a name")?,
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => args.quick = true,
            "--out" => args.out = PathBuf::from(value("a directory")?),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if args.workload.is_empty() {
        return Err(usage());
    }
    Ok(args)
}

/// What one query execution cost and returned.
#[derive(Debug, Clone, Copy, Default)]
struct Exec {
    wall_ns: u64,
    /// Host-speed factor from the probe readings either side of the
    /// execution (see [`SpeedProbe`]): `wall × speed` is its time at
    /// reference speed.
    speed: f64,
    rows: u64,
    clock: ClockSnapshot,
    io: IoSnapshot,
    scan: ScanStatistics,
}

/// One pass over the workload's query list.
#[derive(Default)]
struct Round {
    /// Peak RSS during this round alone, where the kernel lets the
    /// watermark be reset.
    peak_rss_mb: Option<f64>,
    /// One entry per class; `None` where the execution failed.
    execs: Vec<Option<Exec>>,
}

impl Round {
    /// Wall time of the round's executions (the probe readings between
    /// them are not part of it).
    fn wall_ms(&self) -> f64 {
        self.sum(|e| e.wall_ns) as f64 / 1e6
    }

    /// The round's time at reference host speed.
    fn norm_ms(&self) -> f64 {
        self.execs.iter().flatten().map(|e| e.wall_ns as f64 * e.speed).sum::<f64>() / 1e6
    }

    fn sum(&self, f: impl Fn(&Exec) -> u64) -> u64 {
        self.execs.iter().flatten().map(f).sum()
    }

    /// The counters that must repeat exactly: virtual ns, device pages,
    /// device requests.
    fn counters(&self) -> (u64, u64, u64) {
        (
            self.sum(|e| e.clock.total_ns()),
            self.sum(|e| e.io.pages_read),
            self.sum(|e| e.io.io_requests),
        )
    }
}

/// The workload under test plus the running tally of checks.
struct Harness {
    spec: Spec,
    db: Database,
    classes: Vec<Class>,
    refs: Vec<Reference>,
    probe: SpeedProbe,
    /// The latest probe reading, i.e. the one before whatever runs next.
    probed_ms: f64,
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Harness {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < MAX_MESSAGES {
            eprintln!("FAILED: {message}");
            self.messages.push(message);
        }
    }

    /// A broken invariant that is not one query execution's failure.
    fn violation(&mut self, message: String) {
        self.attempted += 1;
        self.fail(message);
    }

    /// Reference-run every class: Volcano protocol, one worker, no budget.
    fn take_references(&mut self) {
        self.db.set_workers(1);
        self.db.set_mem_bytes(0);
        for i in 0..self.classes.len() {
            self.attempted += 1;
            let class = &self.classes[i];
            match reference(&self.db, &class.plan, class.ordered) {
                Ok(r) => {
                    if class.generator_rows.is_some_and(|n| n != r.fingerprint.rows) {
                        let msg = format!(
                            "{}: reference returned {} rows, the generator produced {} qualifiers",
                            class.name,
                            r.fingerprint.rows,
                            class.generator_rows.unwrap_or(0)
                        );
                        self.fail(msg);
                    }
                    self.refs.push(r);
                }
                Err(e) => {
                    let msg = format!("{}: reference run failed: {e}", class.name);
                    self.fail(msg);
                    self.refs.push(Reference {
                        fingerprint: Fingerprint { rows: u64::MAX, hash: 0 },
                        clock: ClockSnapshot::default(),
                        io: IoSnapshot::default(),
                    });
                }
            }
        }
        self.db.set_workers(self.spec.workers);
        self.db.set_mem_bytes(self.spec.mem_bytes);
    }

    /// Check one finished execution against both oracles.
    fn check(&mut self, i: usize, exec: &Exec, hash: Option<Fingerprint>) {
        let (class, want) = (&self.classes[i], &self.refs[i]);
        let name = class.name.clone();
        if class.generator_rows.is_some_and(|n| n != exec.rows) {
            self.fail(format!(
                "{name}: {} rows, the generator produced {:?}",
                exec.rows, class.generator_rows
            ));
        } else if exec.rows != want.fingerprint.rows {
            self.fail(format!(
                "{name}: {} rows, the reference has {}",
                exec.rows, want.fingerprint.rows
            ));
        } else if hash.is_some_and(|h| h != want.fingerprint) {
            self.fail(format!("{name}: result hash differs from the reference"));
        } else if self.spec.mem_bytes == 0
            && (exec.clock, exec.io.pages_read, exec.io.io_requests)
                != (want.clock, want.io.pages_read, want.io.io_requests)
        {
            // Drivers and worker counts change who does the work, never
            // what work the cost model is charged for.
            self.fail(format!(
                "{name}: charged {:?} / {} pages / {} requests, the Volcano reference {:?} / {} / {}",
                exec.clock, exec.io.pages_read, exec.io.io_requests, want.clock, want.io.pages_read, want.io.io_requests
            ));
        } else if self.spec.mem_bytes > 0 && exec.clock.io_ns <= want.clock.io_ns {
            self.fail(format!(
                "{name}: budgeted run charged {} ns of virtual I/O, its unbudgeted twin {} — it did not spill",
                exec.clock.io_ns, want.clock.io_ns
            ));
        }
    }

    /// Execute class `i` the way a client would — `run_batches`, consume
    /// `len()`, drop the result — inside the timer. With `hash`, the
    /// result is also fingerprinted (that execution's time is not used).
    fn execute(&mut self, i: usize, hash: bool) -> Option<Exec> {
        self.attempted += 1;
        let t = Instant::now();
        let result = self.db.run_batches(&self.classes[i].plan);
        match result {
            Ok(result) => {
                let rows = black_box(result.len()) as u64;
                let (stats, scan) = (result.stats, result.scan);
                let print = if hash {
                    Some(fingerprint(result, self.classes[i].ordered))
                } else {
                    drop(result);
                    None
                };
                let wall_ns = t.elapsed().as_nanos() as u64;
                let speed = self.speed_since_probe();
                let exec = Exec { wall_ns, speed, rows, clock: stats.clock, io: stats.io, scan };
                self.check(i, &exec, print);
                Some(exec)
            }
            Err(e) => {
                let msg = format!("{}: {e}", self.classes[i].name);
                self.fail(msg);
                None
            }
        }
    }

    /// Probe the host again; the factor covers the work since the last probe.
    fn speed_since_probe(&mut self) -> f64 {
        let now = self.probe.sample();
        let factor = SpeedProbe::factor(self.probed_ms, now);
        self.probed_ms = now;
        factor
    }

    fn round(&mut self, hash: bool) -> Round {
        let watermark_reset = reset_peak_rss();
        let execs = (0..self.classes.len()).map(|i| self.execute(i, hash)).collect();
        let peak_rss_mb = if watermark_reset { peak_rss_mb() } else { None };
        Round { peak_rss_mb, execs }
    }

    /// Timed rounds: until `seconds` have passed (at least [`MIN_ROUNDS`]),
    /// or exactly `fixed` rounds when given.
    fn timed_rounds(&mut self, seconds: f64, fixed: Option<usize>) -> Vec<Round> {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut rounds = Vec::new();
        self.probed_ms = self.probe.sample();
        loop {
            let done = match fixed {
                Some(n) => rounds.len() >= n,
                None => rounds.len() >= MIN_ROUNDS && Instant::now() >= deadline,
            };
            if done {
                break;
            }
            rounds.push(self.round(false));
        }
        let first = rounds[0].counters();
        if let Some(k) = rounds.iter().position(|r| r.counters() != first) {
            self.violation(format!(
                "virtual counters moved between rounds: round 0 {:?}, round {k} {:?}",
                first,
                rounds[k].counters()
            ));
        }
        rounds
    }

    /// One traced round: each query driven as lowering + execution +
    /// materialization so a span can sit on each layer boundary.
    fn traced_round(
        &mut self,
        tracer: &mut Tracer,
        number: usize,
        next_query: &mut u32,
    ) -> TracedRound {
        let mut out = TracedRound::default();
        self.probed_ms = self.probe.sample();
        let root = tracer.begin("round", &number.to_string(), 0, 0);
        let io0 = self.db.storage().io_snapshot();
        for i in 0..self.classes.len() {
            self.attempted += 1;
            *next_query += 1;
            let qid = *next_query;
            let query = tracer.begin("query", &self.classes[i].name, root.id(), qid);
            let allocs = AllocCount::start();
            let t = Instant::now();
            let (db, plan) = (&self.db, &self.classes[i].plan);
            let result = traced_query(db, plan, tracer, query, qid);
            let wall_ns = t.elapsed().as_nanos() as u64;
            let (calls, bytes) = allocs.stop();
            out.alloc_calls += calls;
            out.alloc_bytes += bytes;
            match result {
                Ok(result) => {
                    let mut exec = Exec {
                        wall_ns,
                        speed: 0.0,
                        rows: result.len() as u64,
                        clock: result.stats.clock,
                        io: result.stats.io,
                        scan: result.scan,
                    };
                    // Rows are made and freed inside the span: the whole
                    // cost of crossing the row boundary.
                    tracer.span("types.materialize", query, qid, || {
                        black_box(result.into_rows().len())
                    });
                    tracer.end(query);
                    exec.speed = tracer.span("harness.probe", root, 0, || self.speed_since_probe());
                    self.check(i, &exec, None);
                    out.round.execs.push(Some(exec));
                }
                Err(e) => {
                    let msg = format!("{} (traced): {e}", self.classes[i].name);
                    self.fail(msg);
                    out.round.execs.push(None);
                    tracer.end(query);
                }
            }
        }
        out.io = self.db.storage().io_snapshot().since(&io0);
        tracer.end(root);
        out
    }
}

/// The `planner.lower` and `executor.run` spans of one query: the two
/// halves `Database::run_batches` fuses, driven apart from outside.
fn traced_query(
    db: &Database,
    plan: &LogicalPlan,
    tracer: &mut Tracer,
    query: trace::Open,
    qid: u32,
) -> Result<BatchResult, Error> {
    let pipeline = if db.workers() > 1 {
        tracer.span("planner.lower", query, qid, || db.parallel_pipeline(plan))?
    } else {
        None
    };
    match pipeline {
        Some(pipeline) => {
            tracer.span("executor.run", query, qid, || db.run_parallel_batches(pipeline))
        }
        None => {
            let mut op = tracer.span("planner.lower", query, qid, || db.build(plan))?;
            tracer.span("executor.run", query, qid, || db.run_operator_batches(op.as_mut()))
        }
    }
}

#[derive(Default)]
struct TracedRound {
    round: Round,
    io: IoSnapshot,
    alloc_calls: u64,
    alloc_bytes: u64,
}

/// Build the workload's database `builds` times, keeping the last; the
/// earlier ones are dropped first so `peak_rss_mb` never sees two.
///
/// Returns `(wall seconds, host-speed factor)` per build.
fn setup(
    spec: &Spec,
    sizes: &Sizes,
    seed: u64,
    builds: usize,
    probe: &mut SpeedProbe,
) -> Result<(workloads::Built, Vec<(f64, f64)>), Error> {
    let mut secs = Vec::with_capacity(builds);
    let mut built = None;
    // A build is one long call, so one stray reading on either side would
    // skew it (and the build sharing that reading): take each reading as the
    // median of three.
    let mut read = || median([probe.sample(), probe.sample(), probe.sample()]);
    let mut before = read();
    for _ in 0..builds {
        drop(built.take());
        let t = Instant::now();
        built = Some(workloads::build(spec, sizes, seed)?);
        let wall = t.elapsed().as_secs_f64();
        let after = read();
        secs.push((wall, SpeedProbe::factor(before, after)));
        before = after;
    }
    Ok((built.expect("at least one build"), secs))
}

/// Per-class medians over the timed rounds, as detail rows.
struct ClassDetail {
    name: String,
    /// Median latency at reference host speed.
    median_ms: f64,
    /// Median latency as the wall clock read it.
    raw_median_ms: f64,
    /// Wall time of each timed execution, in round order.
    ms: Vec<f64>,
    rows: u64,
    virtual_s: f64,
    pages_read: u64,
    io_requests: u64,
}

fn class_details(classes: &[Class], rounds: &[Round]) -> Vec<ClassDetail> {
    classes
        .iter()
        .enumerate()
        .map(|(i, class)| {
            let execs: Vec<&Exec> = rounds.iter().filter_map(|r| r.execs[i].as_ref()).collect();
            let ms: Vec<f64> = execs.iter().map(|e| e.wall_ns as f64 / 1e6).collect();
            let norm: Vec<f64> = execs.iter().map(|e| e.wall_ns as f64 / 1e6 * e.speed).collect();
            let first = execs.first().map(|e| **e).unwrap_or_default();
            ClassDetail {
                name: class.name.clone(),
                median_ms: if norm.is_empty() { f64::NAN } else { median(&norm) },
                raw_median_ms: if ms.is_empty() { f64::NAN } else { median(&ms) },
                ms,
                rows: first.rows,
                virtual_s: first.clock.total_secs(),
                pages_read: first.io.pages_read,
                io_requests: first.io.io_requests,
            }
        })
        .collect()
}

/// The eight end-to-end metrics, from the untraced timed rounds. The three
/// wall metrics are at reference host speed (see [`SpeedProbe`]).
fn end_to_end(
    setup: &[(f64, f64)],
    rounds: &[Round],
    details: &[ClassDetail],
    h: &Harness,
) -> Vec<Metric> {
    let setup_s: Vec<f64> = setup.iter().map(|(secs, speed)| secs * speed).collect();
    let round_ms: Vec<f64> = rounds.iter().map(Round::norm_ms).collect();
    let class_ms: Vec<f64> =
        details.iter().map(|d| d.median_ms).filter(|m| m.is_finite()).collect();
    let (virtual_ns, pages, requests) = rounds[0].counters();
    // Peak RSS of a round, where the kernel lets the watermark be reset
    // between rounds; of the whole process otherwise.
    let round_peaks: Vec<f64> = rounds.iter().filter_map(|r| r.peak_rss_mb).collect();
    let peak_rss = if round_peaks.is_empty() {
        peak_rss_mb().unwrap_or(f64::NAN)
    } else {
        median(&round_peaks)
    };
    vec![
        Metric::new("setup_s", "s", median(&setup_s)),
        Metric::new("round_ms_p50", "ms", median(&round_ms)),
        Metric::new("geomean_query_ms", "ms", geomean(&class_ms)),
        Metric::new("virtual_s", "s", virtual_ns as f64 / 1e9),
        Metric::new("pages_read", "pages", pages as f64),
        Metric::new("io_requests", "requests", requests as f64),
        Metric::new("peak_rss_mb", "MB", peak_rss),
        Metric::new("passed_share", "ratio", 1.0 - h.failed as f64 / h.attempted.max(1) as f64),
    ]
}

/// The wall metrics as the clock read them, before host-speed
/// normalization, and the factor that separates the two.
fn raw_wall(setup: &[(f64, f64)], rounds: &[Round], details: &[ClassDetail]) -> Vec<Metric> {
    let raw_class: Vec<f64> =
        details.iter().map(|d| d.raw_median_ms).filter(|m| m.is_finite()).collect();
    vec![
        Metric::new("raw.setup_s", "s", median(setup.iter().map(|(secs, _)| *secs))),
        Metric::new("raw.round_ms_p50", "ms", median(rounds.iter().map(Round::wall_ms))),
        Metric::new("raw.round_ms_iqr", "ms", iqr(rounds.iter().map(Round::wall_ms))),
        Metric::new("raw.geomean_query_ms", "ms", geomean(&raw_class)),
        Metric::new(
            "host_speed_p50",
            "ratio",
            median(rounds.iter().map(|r| r.norm_ms() / r.wall_ms())),
        ),
    ]
}

/// Per-layer metrics that come from whole rounds rather than kernels.
fn round_layer_metrics(
    h: &Harness,
    untraced: &[Round],
    traced: &[TracedRound],
    other_workers: &[Round],
    cores: usize,
) -> (Vec<Metric>, Vec<String>) {
    let n = traced.len() as f64;
    let per_round = |f: &dyn Fn(&TracedRound) -> u64| traced.iter().map(f).sum::<u64>() as f64 / n;
    let hits = per_round(&|t| t.io.buffer_hits);
    let reads = per_round(&|t| t.io.pages_read);
    let result_rows = per_round(&|t| t.round.sum(|e| e.rows));
    let scanned = per_round(&|t| t.round.sum(|e| e.scan.rows_scanned));
    let untraced_ms = median(untraced.iter().map(Round::norm_ms));
    // A traced execution's time covers lowering and running, like an
    // untraced one's; materialization has no untraced twin and is left out.
    let traced_ms = median(traced.iter().map(|t| t.round.norm_ms()));
    let other_ms = median(other_workers.iter().map(Round::norm_ms));
    let (serial_ms, parallel_ms, parallel_rounds) = if h.spec.workers > 1 {
        (other_ms, untraced_ms, untraced)
    } else {
        (untraced_ms, other_ms, other_workers)
    };
    let w2 = parallel_rounds.len() as f64;
    let spill_io_ns: i128 = untraced[0]
        .execs
        .iter()
        .zip(&h.refs)
        .filter_map(|(e, r)| e.as_ref().map(|e| e.clock.io_ns as i128 - r.clock.io_ns as i128))
        .sum();
    let mut unresolved = Vec::new();
    if cores < 2 {
        unresolved.push(format!(
            "executor.parallel_speedup_w2 and every *_w2 metric: only {cores} core(s) available, two workers share one"
        ));
    }
    let metrics = vec![
        Metric::new("types.alloc_calls_per_round", "count", per_round(&|t| t.alloc_calls)),
        Metric::new("types.alloc_bytes_per_round", "bytes", per_round(&|t| t.alloc_bytes)),
        Metric::new("storage.buffer_hit_ratio", "ratio", hits / (hits + reads).max(1.0)),
        Metric::new("storage.seq_pages", "pages", per_round(&|t| t.io.seq_pages)),
        Metric::new("storage.rand_pages", "pages", per_round(&|t| t.io.rand_pages)),
        Metric::new("executor.spill_virtual_io_s", "s", spill_io_ns as f64 / 1e9),
        Metric::new(
            "executor.morsels_per_round",
            "count",
            parallel_rounds.iter().map(|r| r.sum(|e| e.scan.morsels)).sum::<u64>() as f64 / w2,
        ),
        Metric::new(
            "executor.lock_wait_ms_per_round",
            "ms",
            parallel_rounds.iter().map(|r| r.sum(|e| e.scan.lock_wait_ns)).sum::<u64>() as f64
                / w2
                / 1e6,
        ),
        Metric::new("executor.parallel_speedup_w2", "ratio", serial_ms / parallel_ms),
        Metric::new("executor.parallel_speedup_w2.base_ms", "ms", serial_ms),
        Metric::new("planner.rows_scanned_per_result_row", "ratio", scanned / result_rows.max(1.0)),
        Metric::new("trace_overhead_pct", "%", (traced_ms / untraced_ms - 1.0) * 100.0),
    ];
    (metrics, unresolved)
}

/// Everything a run learned, for the result file.
struct Report<'a> {
    args: &'a Args,
    cores: usize,
    harness: &'a Harness,
    metrics: &'a [Metric],
    /// Wall numbers before normalization (not declared metrics).
    raw: &'a [Metric],
    rounds: &'a [Round],
    details: &'a [ClassDetail],
    kernels: &'a [(String, measure::KernelSample)],
    unresolved: &'a [String],
}

fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

impl Report<'_> {
    fn to_json(&self) -> String {
        let h = self.harness;
        let mut out = String::from("{\"workload\": ");
        json_str(&mut out, h.spec.name);
        let _ = write!(
            out,
            ", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"quick\": {}, \"comparable\": {}, \"profile\": \"{}\", \
             \"available_parallelism\": {}, \"workers\": {}, \"mem_bytes\": {}, \"attempted\": {}, \"failed\": {}",
            self.args.seed,
            self.args.seconds,
            self.args.trace,
            self.args.quick,
            !self.args.quick && profile() == "release",
            profile(),
            self.cores,
            h.spec.workers,
            h.spec.mem_bytes,
            h.attempted,
            h.failed
        );
        out.push_str(", \"failures\": ");
        json_list(&mut out, ('[', ']'), &h.messages, |out, m| json_str(out, m));
        out.push_str(", \"unresolved\": ");
        json_list(&mut out, ('[', ']'), self.unresolved, |out, m| json_str(out, m));
        out.push_str(", \"metrics\": ");
        json_metrics(&mut out, self.metrics);
        out.push_str(", \"raw_wall\": ");
        json_metrics(&mut out, self.raw);
        for (key, value) in [
            ("round_ms", Round::wall_ms as fn(&Round) -> f64),
            ("round_speed", |r| r.norm_ms() / r.wall_ms()),
            ("round_peak_rss_mb", |r| r.peak_rss_mb.unwrap_or(f64::NAN)),
        ] {
            let _ = write!(out, ", \"{key}\": ");
            json_list(&mut out, ('[', ']'), self.rounds, |out, r| json_num(out, value(r)));
        }
        out.push_str(", \"classes\": ");
        json_list(&mut out, ('[', ']'), self.details, |out, d| {
            out.push_str("{\"name\": ");
            json_str(out, &d.name);
            out.push_str(", \"median_ms\": ");
            json_num(out, d.median_ms);
            out.push_str(", \"raw_median_ms\": ");
            json_num(out, d.raw_median_ms);
            out.push_str(", \"ms\": ");
            json_list(out, ('[', ']'), &d.ms, |out, ms| json_num(out, *ms));
            let _ = write!(out, ", \"rows\": {}, \"virtual_s\": ", d.rows);
            json_num(out, d.virtual_s);
            let _ = write!(
                out,
                ", \"pages_read\": {}, \"io_requests\": {}}}",
                d.pages_read, d.io_requests
            );
        });
        out.push_str(", \"kernels\": ");
        json_list(&mut out, ('[', ']'), self.kernels, |out, (name, k)| {
            out.push_str("{\"name\": ");
            json_str(out, name);
            let _ = write!(
                out,
                ", \"passes\": {}, \"scaling_ok\": {}, \"scaling\": ",
                k.passes, k.scaling_ok
            );
            json_num(out, k.scaling);
            out.push('}');
        });
        out.push_str("}\n");
        out
    }

    fn print(&self) {
        for m in self.metrics {
            println!("{:<52} {:>16.6} {}", m.name, m.value, m.unit);
        }
        println!(
            "-- wall clock before host-speed normalization ({} timed rounds)",
            self.rounds.len()
        );
        for m in self.raw {
            println!("{:<52} {:>16.6} {}", m.name, m.value, m.unit);
        }
        println!("-- per-class detail (median over timed rounds, at reference host speed)");
        for d in self.details {
            println!(
                "   {:<24} {:>10.3} ms  n={:<3} rows={:<8} virtual_s={:<10.6} pages={:<7} requests={}",
                d.name, d.median_ms, d.ms.len(), d.rows, d.virtual_s, d.pages_read, d.io_requests
            );
        }
        for u in self.unresolved {
            println!("UNRESOLVED: {u}");
        }
    }
}

/// Write `<out>/<workload>/<file>`.
fn write_out(args: &Args, workload: &str, file: &str, content: &str) -> Result<PathBuf, String> {
    let dir = args.out.join(workload);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(file);
    std::fs::write(&path, content).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn run(args: &Args) -> Result<bool, String> {
    if let Some((key, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("SMOOTH_"))
    {
        return Err(format!(
            "{} is set: SMOOTH_* variables are latched once per process and would silently change the engine under test",
            key.to_string_lossy()
        ));
    }
    let sizes = if args.quick { Sizes::QUICK } else { Sizes::FULL };
    let spec = Spec::by_name(&args.workload, &sizes).ok_or_else(usage)?;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pinned = pin_malloc_mmap_threshold();
    println!(
        "# smooth-benchmark workload={} seed={} seconds={} trace={} quick={} profile={} available_parallelism={} workers={} \
         malloc_mmap_threshold={}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.quick,
        profile(),
        cores,
        spec.workers,
        if pinned { "128KiB(pinned)" } else { "default" }
    );
    if args.quick || profile() != "release" {
        println!("# NOT COMPARABLE: smoke scale or unoptimized build; numbers only show that every path and check runs");
    }
    let mut unresolved = Vec::new();
    if spec.workers > cores {
        unresolved.push(format!(
            "{}: {} workers on {cores} core(s); wall metrics are not a parallel run's",
            spec.name, spec.workers
        ));
    }

    let short = args.quick || args.trace;
    let builds = if short { 1 } else { SETUP_BUILDS };
    let mut probe = SpeedProbe::new();
    let (built, setup_secs) = setup(&spec, &sizes, args.seed, builds, &mut probe)
        .map_err(|e| format!("setup failed: {e}"))?;
    let classes = workloads::classes(&spec, &built);
    let mut h = Harness {
        spec,
        db: built.db,
        classes,
        refs: Vec::new(),
        probe,
        probed_ms: 0.0,
        attempted: 0,
        failed: 0,
        messages: Vec::new(),
    };
    h.take_references();

    // Warm-up, fingerprinted against the references, then a plain one.
    h.round(true);
    if !short {
        h.round(false);
    }
    let rounds = h.timed_rounds(args.seconds, short.then_some(SHORT_ROUNDS));
    let details = class_details(&h.classes, &rounds);
    let raw = raw_wall(&setup_secs, &rounds, &details);

    let (metrics, kernels) = if args.trace {
        let mut tracer = Tracer::new();
        let mut next_query = 0;
        let traced: Vec<TracedRound> =
            (0..SHORT_ROUNDS).map(|n| h.traced_round(&mut tracer, n, &mut next_query)).collect();
        // The same rounds at the other worker count give the measured
        // two-worker speedup with its base.
        h.db.set_workers(if h.spec.workers > 1 { 1 } else { 2 });
        let other = h.timed_rounds(0.0, Some(SHORT_ROUNDS));
        h.db.set_workers(h.spec.workers);
        let (mut metrics, mut more) = round_layer_metrics(&h, &rounds, &traced, &other, cores);
        unresolved.append(&mut more);
        let report = layers::run(&mut h.db, &h.classes, h.spec.workers, args.seed)
            .map_err(|e| format!("layer kernels failed: {e}"))?;
        for failure in report.scaling_failures() {
            h.violation(format!("kernel does not scale with its iteration count — {failure}"));
        }
        metrics.extend(report.metrics);
        metrics.sort_by(|a, b| a.name.cmp(&b.name));
        let path =
            write_out(args, h.spec.name, "trace.json", &tracer.to_json(h.spec.name, args.seed))?;
        println!("# trace: {} spans -> {}", tracer.spans().len(), path.display());
        (metrics, report.samples)
    } else {
        // The results once more, fingerprinted, after the timed phase.
        h.round(true);
        (end_to_end(&setup_secs, &rounds, &details, &h), Vec::new())
    };

    let report = Report {
        args,
        cores,
        harness: &h,
        metrics: &metrics,
        raw: &raw,
        rounds: &rounds,
        details: &details,
        kernels: &kernels,
        unresolved: &unresolved,
    };
    report.print();
    let file = if args.trace { "result.trace.json" } else { "result.json" };
    let path = write_out(args, h.spec.name, file, &report.to_json())?;
    println!("# result: {}", path.display());

    let correct = h.failed == 0;
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": ",
        h.attempted, h.failed
    );
    json_metrics(&mut line, &metrics);
    line.push('}');
    println!("{line}");
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("smooth-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
