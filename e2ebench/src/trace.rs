//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is (name, start, end, parent, request id); its layer is the
//! name up to the first `.` (`runtime`, `core`, `sweep`, `serve`,
//! `shard`, or `bench` for the benchmark's own work). Spans are kept in
//! memory and written out once at the end, so recording costs one
//! `Instant::now()` pair and a push per call. With tracing off, `span`
//! just runs the closure.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

pub struct Tracer {
    on: Cell<bool>,
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    request: Cell<u64>,
}

/// The layers a span name can belong to, in report order.
pub const LAYERS: [&str; 6] = ["bench", "runtime", "core", "sweep", "serve", "shard"];

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on: Cell::new(on),
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            request: Cell::new(0),
        }
    }

    /// Pauses (`false`) or resumes (`true`) recording.
    pub fn set_recording(&self, on: bool) {
        self.on.set(on);
    }

    /// Tags the spans opened from now on with request id `id`.
    pub fn set_request(&self, id: u64) {
        self.request.set(id);
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on.get() {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.t0.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
                request: self.request.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end_ns = self.t0.elapsed().as_nanos() as u64;
        out
    }

    pub fn span_count(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Self time per layer in milliseconds: each span's duration minus
    /// the part its direct children cover, summed by layer.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        self_times(&self.spans.borrow())
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        for (i, s) in self.spans.borrow().iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request
            )
            .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        out.flush().map_err(|e| format!("{}: {e}", path.display()))
    }
}

fn layer_of(name: &str) -> &'static str {
    let prefix = name.split('.').next().unwrap_or(name);
    LAYERS
        .iter()
        .find(|&&l| l == prefix)
        .copied()
        .unwrap_or("bench")
}

fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
    for (s, children) in spans.iter().zip(child_ns) {
        let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(children);
        *out.entry(layer_of(s.name)).or_default() += own as f64 / 1e6;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "bench.round",
                start_ns: 0,
                end_ns: 10_000_000,
                parent: None,
                request: 1,
            },
            Span {
                name: "sweep.run",
                start_ns: 1_000_000,
                end_ns: 7_000_000,
                parent: Some(0),
                request: 1,
            },
            Span {
                name: "core.sim",
                start_ns: 2_000_000,
                end_ns: 4_000_000,
                parent: Some(1),
                request: 1,
            },
        ];
        let t = self_times(&spans);
        assert_eq!(t["bench"], 4.0);
        assert_eq!(t["sweep"], 4.0);
        assert_eq!(t["core"], 2.0);
        assert_eq!(t["shard"], 0.0);
    }

    #[test]
    fn spans_nest_and_carry_request_ids() {
        let t = Tracer::new(true);
        t.set_request(5);
        let v = t.span("bench.outer", || t.span("serve.inner", || 3));
        assert_eq!(v, 3);
        let spans = t.spans.borrow();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, 5);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let off = Tracer::new(false);
        assert_eq!(off.span("bench.x", || 1), 1);
        assert_eq!(off.span_count(), 0);
    }
}
