//! In-memory spans recorded by the benchmark around its own calls into
//! each layer's public entry point. Spans are kept in memory and written
//! as JSON lines when the run ends.

use crate::{int, obj};
use serde_json::Value;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Where traced runs leave their spans.
pub const SPAN_DIR: &str = ".bench_out";

pub struct Span {
    pub id: u64,
    /// The span this one was caused by (`0`: none).
    pub parent: u64,
    /// Spans of one request share this id.
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

pub struct Tracer {
    base: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            base: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Start a span; returns its id for [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: u64, request: u64) -> u64 {
        let id = self.spans.len() as u64 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn close(&mut self, id: u64) {
        let end = self.now_ns();
        self.spans[id as usize - 1].end_ns = end;
    }

    /// Time `f` as a span and return its result with the span's length.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        (out, self.spans[id as usize - 1].micros())
    }

    /// Cost of one span (open + close) in nanoseconds, measured on a
    /// scratch tracer.
    pub fn span_cost_ns() -> f64 {
        const N: u64 = 20_000;
        let mut scratch = Tracer::new();
        let t = Instant::now();
        for i in 0..N {
            let id = scratch.open("probe", 0, i);
            scratch.close(id);
        }
        t.elapsed().as_nanos() as f64 / N as f64
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line = obj([
                ("id", int(s.id)),
                ("parent", int(s.parent)),
                ("request", int(s.request)),
                ("name", Value::from(s.name)),
                ("start_ns", int(s.start_ns)),
                ("end_ns", int(s.end_ns)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}
