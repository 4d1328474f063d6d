//! In-memory spans for the traced run.
//!
//! Spans are recorded from the benchmark's side of the engine's public
//! API, around the calls into each layer; they stay in memory and are
//! written out once, when the run ends. The tree is `round` → `query` →
//! {`planner.lower`, `executor.run`, `types.materialize`}; the spans of
//! one query execution share its `query` id.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::measure::{json_list, json_num, json_str};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u32,
    /// Query-execution id shared by a query's spans; 0 outside queries.
    pub query: u32,
    pub name: &'static str,
    /// Query class name on `query` spans, round number on `round` spans.
    pub label: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

/// Handle to an open span (closed by [`Tracer::end`]).
#[derive(Debug, Clone, Copy)]
pub struct Open(usize);

impl Open {
    pub fn id(&self) -> u32 {
        self.0 as u32 + 1
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, label: &str, parent: u32, query: u32) -> Open {
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now();
        self.spans.push(Span {
            id,
            parent,
            query,
            name,
            label: label.into(),
            start_ns,
            end_ns: start_ns,
        });
        Open(self.spans.len() - 1)
    }

    pub fn end(&mut self, open: Open) {
        self.spans[open.0].end_ns = self.now();
    }

    /// Record `f` as a child span of `parent`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Open,
        query: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.begin(name, "", parent.id(), query);
        let out = f();
        self.end(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: a span's duration minus the part of it
    /// its child spans cover.
    pub fn self_time_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut covered = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            covered[s.parent as usize] += s.duration_ns();
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0) +=
                s.duration_ns().saturating_sub(covered[s.id as usize]);
        }
        out
    }

    /// The whole trace as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::from("{\"workload\": ");
        json_str(&mut out, workload);
        let _ = write!(out, ", \"seed\": {seed}, \"self_time_ms\": ");
        json_list(&mut out, ('{', '}'), self.self_time_ns(), |out, (name, ns)| {
            json_str(out, name);
            out.push_str(": ");
            json_num(out, ns as f64 / 1e6);
        });
        out.push_str(", \"spans\": ");
        json_list(&mut out, ('[', ']'), &self.spans, |out, s| {
            let _ = write!(
                out,
                "\n{{\"id\": {}, \"parent\": {}, \"query\": {}, \"name\": ",
                s.id, s.parent, s.query
            );
            json_str(out, s.name);
            out.push_str(", \"label\": ");
            json_str(out, &s.label);
            let _ = write!(out, ", \"start_ns\": {}, \"end_ns\": {}}}", s.start_ns, s.end_ns);
        });
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let root = t.begin("round", "0", 0, 0);
        let q = t.begin("query", "c", root.id(), 1);
        t.span("executor.run", q, 1, || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.end(q);
        t.end(root);
        let spans = t.spans();
        assert_eq!((spans[1].parent, spans[2].parent, spans[2].query), (1, 2, 1));
        let selfs = t.self_time_ns();
        assert!(selfs["executor.run"] >= 2_000_000);
        assert!(selfs["query"] < spans[1].duration_ns());
        assert!(t.to_json("w", 1).contains("\"name\": \"executor.run\""));
    }
}
