//! Aligned-table printing, CSV emission, and the machine-readable JSON
//! perf report (`BENCH_smoke.json`) that CI records and gates on.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// One experiment's tabular output.
pub struct Report {
    id: String,
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Report {
    /// Start a report for experiment `id`.
    pub fn new(id: impl Into<String>, title: impl Into<String>, headers: &[&str]) -> Self {
        Report {
            id: id.into(),
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// The experiment id the report was started for.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Append a data row (stringified by the caller).
    pub fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Format seconds with adaptive precision.
    pub fn secs(v: f64) -> String {
        if v >= 100.0 {
            format!("{v:.0}")
        } else if v >= 1.0 {
            format!("{v:.2}")
        } else {
            format!("{v:.4}")
        }
    }

    /// Format a ratio/factor.
    pub fn factor(v: f64) -> String {
        if v >= 100.0 {
            format!("{v:.0}")
        } else {
            format!("{v:.2}")
        }
    }

    /// Print as an aligned table to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        println!("\n== {} — {} ==", self.id, self.title);
        let line = |cells: &[String]| {
            let parts: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>width$}", width = widths[i]))
                .collect();
            println!("  {}", parts.join("  "));
        };
        line(&self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        println!("  {}", "-".repeat(total));
        for row in &self.rows {
            line(row);
        }
    }

    /// Write `results/<id>.csv` relative to the workspace root (or CWD).
    pub fn save_csv(&self) -> std::io::Result<PathBuf> {
        let dir = workspace_results_dir();
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.csv", self.id));
        let mut f = fs::File::create(&path)?;
        writeln!(f, "{}", self.headers.join(","))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join(","))?;
        }
        Ok(path)
    }

    /// Print and save; panics only on I/O failure writing results.
    pub fn finish(&self) {
        self.print();
        match self.save_csv() {
            Ok(path) => println!("  [written {}]", path.display()),
            Err(e) => eprintln!("  [csv write failed: {e}]"),
        }
    }
}

/// One measured quantity in the perf-smoke JSON report. Every metric
/// gates: the report carries only what is comparable across machines —
/// virtual-clock times, counters, ratios of them and booleans, all
/// deterministic at a given scale — never a host timing (`benchmark/`
/// measures the wall clock, with warm-up, repetition and a spread).
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable identifier, e.g. `parallel.agg.sel10.model_speedup.w4`.
    pub id: String,
    /// Measured value.
    pub value: f64,
    /// Unit label, e.g. `x`, `virtual_s`, `pages`, `bool`.
    pub unit: String,
    /// Direction of goodness.
    pub higher_is_better: bool,
    /// Optional absolute floor (higher-is-better metrics): the gate fails
    /// when `value < floor` even if no baseline entry exists.
    pub floor: Option<f64>,
}

impl Metric {
    /// A metric compared against the committed baseline.
    pub fn new(id: impl Into<String>, value: f64, unit: &str, higher_is_better: bool) -> Self {
        Metric { id: id.into(), value, unit: unit.into(), higher_is_better, floor: None }
    }

    /// Builder: add an absolute floor.
    pub fn with_floor(mut self, floor: f64) -> Self {
        self.floor = Some(floor);
        self
    }
}

/// The machine-readable perf report: the unit CI uploads as an artifact
/// and diffs against the committed `BENCH_smoke.json` trajectory point.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JsonReport {
    /// Suite label (e.g. `perf-smoke`).
    pub suite: String,
    /// Workload scale knobs the run used (`micro_rows`, `tpch_sf`, …).
    pub scales: Vec<(String, f64)>,
    /// The measurements.
    pub metrics: Vec<Metric>,
}

/// Relative slowdown tolerated by the baseline gate (25%).
pub const GATE_TOLERANCE: f64 = 1.25;

impl JsonReport {
    /// An empty report for `suite`.
    pub fn new(suite: impl Into<String>) -> Self {
        JsonReport { suite: suite.into(), scales: Vec::new(), metrics: Vec::new() }
    }

    /// Record one scale knob.
    pub fn scale(&mut self, key: &str, value: f64) {
        self.scales.push((key.to_string(), value));
    }

    /// Record one metric.
    pub fn push(&mut self, metric: Metric) {
        self.metrics.push(metric);
    }

    /// Serialize. One metric object per line, so the report diffs cleanly
    /// in git and parses with [`JsonReport::load`].
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema_version\": 1,\n");
        out.push_str(&format!("  \"suite\": \"{}\",\n", escape(&self.suite)));
        out.push_str("  \"scales\": {");
        let scales: Vec<String> =
            self.scales.iter().map(|(k, v)| format!("\"{}\": {}", escape(k), num(*v))).collect();
        out.push_str(&scales.join(", "));
        out.push_str("},\n");
        out.push_str("  \"metrics\": [\n");
        for (i, m) in self.metrics.iter().enumerate() {
            let floor = match m.floor {
                Some(f) => format!(", \"floor\": {}", num(f)),
                None => String::new(),
            };
            out.push_str(&format!(
                "    {{\"id\": \"{}\", \"value\": {}, \"unit\": \"{}\", \
                 \"higher_is_better\": {}{}}}{}\n",
                escape(&m.id),
                num(m.value),
                escape(&m.unit),
                m.higher_is_better,
                floor,
                if i + 1 < self.metrics.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Write the report to `path`.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        fs::write(path, self.to_json())
    }

    /// Read a report previously written by [`JsonReport::save`].
    pub fn load(path: &Path) -> std::io::Result<Self> {
        Ok(Self::parse(&fs::read_to_string(path)?))
    }

    /// Parse the text [`JsonReport::to_json`] writes (the
    /// one-metric-per-line shape; not a general JSON parser).
    pub fn parse(body: &str) -> Self {
        let mut report = JsonReport::default();
        for line in body.lines() {
            let line = line.trim();
            if let Some(suite) = line.strip_prefix("\"suite\":").map(str::trim) {
                report.suite = unquote(suite.trim_end_matches(','));
            }
            if line.starts_with("\"scales\":") {
                if let (Some(a), Some(b)) = (line.find('{'), line.rfind('}')) {
                    for pair in line[a + 1..b].split(',') {
                        if let Some((k, v)) = pair.split_once(':') {
                            if let Ok(v) = v.trim().parse::<f64>() {
                                report.scales.push((unquote(k.trim()), v));
                            }
                        }
                    }
                }
            }
            if line.starts_with("{\"id\":") {
                let field = |key: &str| -> Option<String> {
                    let tag = format!("\"{key}\":");
                    let start = line.find(&tag)? + tag.len();
                    let rest = line[start..].trim_start();
                    let end = rest.find([',', '}'])?;
                    Some(rest[..end].trim().to_string())
                };
                let (Some(id), Some(value)) = (field("id"), field("value")) else { continue };
                let Ok(value) = value.parse::<f64>() else { continue };
                report.metrics.push(Metric {
                    id: unquote(&id),
                    value,
                    unit: field("unit").map(|u| unquote(&u)).unwrap_or_default(),
                    higher_is_better: field("higher_is_better").as_deref() == Some("true"),
                    floor: field("floor").and_then(|f| f.parse().ok()),
                });
            }
        }
        report
    }

    /// Compare against a `baseline` report: the scales must match
    /// (virtual-clock metrics are only comparable at identical scale),
    /// every baseline metric must still be reported and must not have
    /// regressed by more than [`GATE_TOLERANCE`], and every metric of
    /// this run that declares a floor must meet it. A metric the
    /// baseline does not know yet passes. Returns human-readable
    /// failures (empty = pass).
    pub fn regressions(&self, baseline: &JsonReport) -> Vec<String> {
        let mut failures = Vec::new();
        for (key, base_value) in &baseline.scales {
            match self.scales.iter().find(|(k, _)| k == key) {
                Some((_, v)) if v == base_value => {}
                Some((_, v)) => failures.push(format!(
                    "scale mismatch: {key} = {v} here vs {base_value} in the baseline — \
                     set the baseline's env knobs (or regenerate the baseline) before gating"
                )),
                None => {
                    failures.push(format!("scale mismatch: {key} missing from this run's report"))
                }
            }
        }
        if !failures.is_empty() {
            // Metric comparisons across different scales are meaningless;
            // report only the mismatch.
            return failures;
        }
        for base in &baseline.metrics {
            let Some(m) = self.metrics.iter().find(|m| m.id == base.id) else {
                failures.push(format!(
                    "{}: baseline metric missing from this run (retire it from the baseline \
                     too, or the gate is disarmed)",
                    base.id
                ));
                continue;
            };
            let ok = if base.higher_is_better {
                m.value >= base.value / GATE_TOLERANCE
            } else {
                m.value <= base.value * GATE_TOLERANCE
            };
            if !ok {
                failures.push(format!(
                    "{}: {:.4} {} regressed >{}% vs baseline {:.4}",
                    m.id,
                    m.value,
                    m.unit,
                    ((GATE_TOLERANCE - 1.0) * 100.0).round(),
                    base.value
                ));
            }
        }
        for m in &self.metrics {
            if let Some(floor) = m.floor.filter(|&floor| m.value < floor) {
                failures.push(format!(
                    "{}: {:.4} {} is below the required floor {:.4}",
                    m.id, m.value, m.unit, floor
                ));
            }
        }
        failures
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn unquote(s: &str) -> String {
    s.trim().trim_matches('"').to_string()
}

/// JSON-safe number formatting (f64 `Display` round-trips; non-finite
/// values are not valid JSON and collapse to 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A selectivity expressed as a metric-id-safe percent tag: `0.001` →
/// `sel0p1`, `1.0` → `sel100` (decimal points become `p`, which keeps the
/// one-metric-per-line JSON grep-friendly). Rounded to 4 decimals of a
/// percent so float noise never changes a metric id.
pub fn sel_tag(selectivity: f64) -> String {
    let pct = format!("{:.4}", selectivity * 100.0);
    let pct = pct.trim_end_matches('0').trim_end_matches('.');
    format!("sel{}", pct.replace('.', "p"))
}

/// Process-wide sink the experiments contribute metrics to while the
/// driver runs with `--json`.
static JSON_SINK: Mutex<Option<JsonReport>> = Mutex::new(None);

/// Start collecting metrics into a fresh report.
pub fn json_begin(report: JsonReport) {
    *JSON_SINK.lock().unwrap() = Some(report);
}

/// Record a metric if a collection is active (no-op otherwise, so
/// experiments behave identically when run without `--json`).
pub fn json_metric(metric: Metric) {
    if let Some(report) = JSON_SINK.lock().unwrap().as_mut() {
        report.push(metric);
    }
}

/// Record a scale knob an experiment settles at run time (the `faults`
/// seed search), under the same no-op rule as [`json_metric`]: a
/// baseline taken at a different value refuses the comparison.
pub fn json_scale(key: &str, value: f64) {
    if let Some(report) = JSON_SINK.lock().unwrap().as_mut() {
        report.scale(key, value);
    }
}

/// Finish collecting and take the report.
pub fn json_take() -> Option<JsonReport> {
    JSON_SINK.lock().unwrap().take()
}

/// `results/` under the workspace root when detectable, else under CWD.
fn workspace_results_dir() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    // Walk up while a Cargo.toml with [workspace] is visible above.
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.exists() {
            if let Ok(body) = fs::read_to_string(&manifest) {
                if body.contains("[workspace]") {
                    return dir.join("results");
                }
            }
        }
        if !dir.pop() {
            return PathBuf::from("results");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JsonReport {
        let mut r = JsonReport::new("perf-smoke");
        r.scale("micro_rows", 40000.0);
        r.scale("tpch_sf", 0.005);
        r.push(Metric::new("batch.speedup", 3.25, "x", true).with_floor(1.5));
        r.push(Metric::new("virtual.full.secs", 12.5, "virtual_s", false));
        r.push(Metric::new("serve.scan.pages_read", 435.0, "pages", false));
        r
    }

    #[test]
    fn json_report_roundtrips() {
        let r = sample();
        let dir = std::env::temp_dir().join("smoothscan_report_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        r.save(&path).unwrap();
        let loaded = JsonReport::load(&path).unwrap();
        assert_eq!(loaded, r);
        assert!(!r.to_json().contains("\"gate\""), "one metric kind: no gate key");
    }

    #[test]
    fn gate_tolerates_small_regressions_and_flags_big_ones() {
        let base = sample();
        let mut ok = sample();
        ok.metrics[1].value = 12.5 * 1.2; // +20% virtual time: inside tolerance
        ok.metrics[0].value = 3.25 / 1.2;
        assert!(ok.regressions(&base).is_empty(), "{:?}", ok.regressions(&base));
        let mut slow = sample();
        slow.metrics[1].value = 12.5 * 1.26; // +26%: fails
        assert_eq!(slow.regressions(&base).len(), 1);
        let mut slower_ratio = sample();
        slower_ratio.metrics[0].value = 3.25 / 1.4; // speedup collapsed: fails
        assert_eq!(slower_ratio.regressions(&base).len(), 1);
        // every metric gates: a counter fails like any other id
        let mut counter = sample();
        counter.metrics[2].value = 435.0 * 1.26;
        assert_eq!(counter.regressions(&base).len(), 1);
        // below its floor fails, with or without a baseline entry
        let mut floored = JsonReport::new("perf-smoke");
        floored.push(Metric::new("batch.speedup", 1.2, "x", true).with_floor(1.5));
        assert_eq!(floored.regressions(&JsonReport::new("empty")).len(), 1);
        let mut below = sample();
        below.metrics[0].value = 1.2; // under the floor AND >25% under the baseline
        assert_eq!(below.regressions(&base).len(), 2);
        // any baseline id that vanished from the fresh run fails
        for i in 0..3 {
            let mut dropped = sample();
            dropped.metrics.remove(i);
            let failures = dropped.regressions(&base);
            assert_eq!(failures.len(), 1, "{failures:?}");
            assert!(failures[0].contains("missing"), "{failures:?}");
        }
        // an id the baseline does not know yet passes
        let mut grown = sample();
        grown.push(Metric::new("fig6.new.secs", 1.0, "virtual_s", false));
        assert!(grown.regressions(&base).is_empty());
    }

    /// The committed trajectory point publishes nothing timed on the
    /// host: no wall-clock unit, no wall-clock ratio.
    #[test]
    fn committed_baseline_holds_no_host_timing() {
        let committed = JsonReport::parse(include_str!("../../../BENCH_smoke.json"));
        assert!(!committed.metrics.is_empty(), "baseline parsed");
        for m in &committed.metrics {
            let columnar_ratio = m.id.starts_with("columnar.") && m.id.ends_with(".speedup");
            assert!(
                !matches!(m.unit.as_str(), "wall_s" | "wall_ms" | "qps")
                    && !m.id.contains(".wall_speedup")
                    && !columnar_ratio,
                "{} ({}) is a host timing",
                m.id,
                m.unit
            );
        }
    }

    #[test]
    fn gate_refuses_cross_scale_comparison() {
        let base = sample();
        let mut other_scale = sample();
        other_scale.scales[0].1 = 480000.0; // paper scale vs smoke baseline
        let failures = other_scale.regressions(&base);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("scale mismatch"));
        let mut missing_scale = sample();
        missing_scale.scales.clear();
        assert_eq!(missing_scale.regressions(&base).len(), 2);
    }

    #[test]
    fn json_sink_collects_only_when_active() {
        json_metric(Metric::new("dropped", 1.0, "x", true));
        json_scale("dropped", 1.0);
        assert!(json_take().is_none());
        json_begin(JsonReport::new("s"));
        json_metric(Metric::new("kept", 1.0, "x", true));
        json_scale("seed", 7.0);
        let got = json_take().unwrap();
        assert_eq!(got.metrics.len(), 1);
        assert_eq!(got.metrics[0].id, "kept");
        assert_eq!(got.scales, vec![("seed".to_string(), 7.0)]);
    }

    #[test]
    fn sel_tags_are_stable_and_id_safe() {
        assert_eq!(sel_tag(0.0), "sel0");
        assert_eq!(sel_tag(0.00001), "sel0p001");
        assert_eq!(sel_tag(0.001), "sel0p1");
        assert_eq!(sel_tag(0.05), "sel5");
        assert_eq!(sel_tag(0.1), "sel10");
        assert_eq!(sel_tag(0.75), "sel75");
        assert_eq!(sel_tag(1.0), "sel100");
    }

    #[test]
    fn report_accumulates_and_formats() {
        let mut r = Report::new("test", "demo", &["a", "b"]);
        r.row(vec!["1".into(), "2".into()]);
        assert_eq!(Report::secs(0.12345), "0.1235");
        assert_eq!(Report::secs(12.345), "12.35");
        assert_eq!(Report::secs(1234.5), "1234");
        assert_eq!(Report::factor(399.6), "400");
        r.print(); // must not panic
    }
}
