//! The benchmark's own span recorder for the traced replay.
//!
//! Spans sit only around calls into the layer crates' public entry points;
//! the engine itself is never instrumented. A span has a name, a start and
//! an end (milliseconds since the run's epoch), the index of its parent
//! span, and the id of the op it belongs to. Spans stay in memory and are
//! written out once, when the run ends.

use crate::stats::{num, quote, Samples};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ms: f64,
    pub end_ms: f64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }
}

/// One thread's span recorder. Recorders sharing an epoch merge into one.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now_ms(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e3
    }

    /// Starts a new op: later spans carry this id.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span under the innermost open one; returns its index.
    pub fn enter(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        let start_ms = self.now_ms();
        self.spans.push(Span {
            name: name.to_string(),
            start_ms,
            end_ms: start_ms,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ms = self.now_ms();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Records an already-measured child of `parent` (used for the per-node
    /// timings `ExecutionEngine::run` reports, laid end to end from the
    /// parent's start).
    pub fn child(&mut self, parent: usize, name: &str, start_ms: f64, ms: f64) {
        self.spans.push(Span {
            name: name.to_string(),
            start_ms,
            end_ms: start_ms + ms,
            parent: Some(parent),
            op: self.spans[parent].op,
        });
    }

    pub fn span(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// Appends another recorder's spans (same epoch), keeping parent links.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Per-op totals of the spans named `name` (ops without one are absent).
    pub fn per_op(&self, name: &str) -> Samples {
        let mut by_op: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_op.entry(s.op).or_default() += s.ms();
        }
        let mut out = Samples::default();
        for v in by_op.values() {
            out.push(*v);
        }
        out
    }

    /// Per-op totals of the self time of the spans named `name`.
    pub fn per_op_self(&self, name: &str) -> Samples {
        let mut children: Vec<f64> = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.ms();
            }
        }
        let mut by_op: BTreeMap<u64, f64> = BTreeMap::new();
        for (i, s) in self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
        {
            *by_op.entry(s.op).or_default() += s.ms() - children[i];
        }
        let mut out = Samples::default();
        for v in by_op.values() {
            out.push(*v);
        }
        out
    }

    /// Stage coverage of the root spans named `root`: the share of their
    /// summed wall-clock that direct children whose names start with one of
    /// `stages` account for.
    pub fn coverage(&self, root: &str, stages: &[&str]) -> f64 {
        let mut wall = 0.0;
        let mut covered = 0.0;
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == root && s.parent.is_none() {
                wall += s.ms();
            } else if let Some(p) = s.parent {
                let parent = &self.spans[p];
                if parent.name == root
                    && parent.parent.is_none()
                    && stages.iter().any(|st| s.name.starts_with(st))
                {
                    covered += self.spans[i].ms();
                }
            }
        }
        if wall > 0.0 {
            covered / wall
        } else {
            0.0
        }
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\": {}, \"start_ms\": {}, \"end_ms\": {}, \"parent\": {parent}, \"op\": {}}}",
                quote(&s.name),
                num(s.start_ms),
                num(s.end_ms),
                s.op
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_and_coverage() {
        let mut t = Tracer::new(Instant::now());
        t.set_op(1);
        let root = t.enter("op");
        let stage = t.enter("parser.parse");
        t.exit(stage);
        t.exit(root);
        let start = t.span(root).start_ms;
        t.spans[root].end_ms = start + 10.0;
        t.spans[stage].start_ms = start;
        t.spans[stage].end_ms = start + 9.0;
        t.child(stage, "inner", start, 4.0);
        assert!((t.per_op_self("parser.parse").median() - 5.0).abs() < 1e-9);
        assert!((t.coverage("op", &["parser."]) - 0.9).abs() < 1e-9);
        assert_eq!(t.per_op("parser.parse").len(), 1);
        assert!((t.per_op_self("op").median() - 1.0).abs() < 1e-9);

        let mut other = Tracer::new(t.epoch);
        other.set_op(2);
        let a = other.enter("op");
        let b = other.enter("x");
        other.exit(b);
        other.exit(a);
        t.merge(other);
        assert_eq!(t.spans.last().unwrap().parent, Some(3));
        assert_eq!(t.to_jsonl().lines().count(), 5);
    }
}
