//! Experiment driver: regenerate the paper's tables and figures, and
//! (optionally) emit/gate the machine-readable perf report.
//!
//! ```text
//! experiments <id>...                 run the listed experiments
//! experiments all                     run everything (experiment-index order)
//! experiments --list                  show known ids
//! experiments --json PATH <id>...     also write a JSON perf report
//! experiments --check BASE <id>...    fail (exit 1) when a metric of the
//!                                     baseline report BASE is missing or
//!                                     >25% worse, or a floor is missed
//! ```
//!
//! The CI `perf-smoke` job runs `--json BENCH_smoke.json --check
//! BENCH_smoke.json columnar ...` at smoke scale: the committed file is the
//! baseline, the fresh file is the next trajectory point.

use std::path::PathBuf;
use std::process::exit;

use smooth_bench::report::{json_begin, json_take, JsonReport};
use smooth_bench::{experiments, setup};

fn usage() -> ! {
    eprintln!("usage: experiments [--json PATH] [--check BASELINE] <id>... | all | --list");
    eprintln!("known ids: {}", experiments::ALL.join(", "));
    exit(2);
}

fn main() {
    let mut json_out: Option<PathBuf> = None;
    let mut check: Option<PathBuf> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut list = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => usage(),
            "--list" => list = true,
            "--json" => json_out = Some(args.next().map(PathBuf::from).unwrap_or_else(|| usage())),
            "--check" => check = Some(args.next().map(PathBuf::from).unwrap_or_else(|| usage())),
            other => ids.push(other.to_string()),
        }
    }
    if list {
        for id in experiments::ALL {
            println!("{id}");
        }
        return;
    }
    if ids.is_empty() {
        usage();
    }
    // Load the baseline before running: with `--json` pointing at the same
    // path, the fresh report overwrites the baseline file afterwards.
    let baseline = check.as_ref().map(|path| match JsonReport::load(path) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("cannot read baseline {}: {e}", path.display());
            exit(2);
        }
    });
    if json_out.is_some() || check.is_some() {
        let mut report = JsonReport::new("perf-smoke");
        report.scale("micro_rows", setup::micro_rows() as f64);
        report.scale("skew_rows", setup::skew_rows() as f64);
        report.scale("tpch_sf", setup::tpch_sf());
        json_begin(report);
    }
    let ids: Vec<&str> = if ids.iter().any(|a| a == "all") {
        experiments::ALL.to_vec()
    } else {
        ids.iter().map(String::as_str).collect()
    };
    let started = std::time::Instant::now();
    for id in ids {
        let t = std::time::Instant::now();
        if !experiments::run(id) {
            eprintln!("unknown experiment id '{id}' (try --list)");
            exit(2);
        }
        eprintln!("  [{id} took {:.1}s wall]", t.elapsed().as_secs_f64());
    }
    eprintln!("[all done in {:.1}s wall]", started.elapsed().as_secs_f64());
    let report = json_take();
    if let (Some(path), Some(report)) = (&json_out, &report) {
        match report.save(path) {
            Ok(()) => eprintln!("[perf report written to {}]", path.display()),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                exit(2);
            }
        }
    }
    if let (Some(baseline), Some(report)) = (baseline, report) {
        let failures = report.regressions(&baseline);
        if failures.is_empty() {
            eprintln!("[perf gate passed vs baseline]");
        } else {
            eprintln!("[perf gate FAILED vs baseline]");
            for f in &failures {
                eprintln!("  {f}");
            }
            exit(1);
        }
    }
}
