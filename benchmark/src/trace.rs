//! In-memory span recorder for the traced run.
//!
//! A span is one timed interval around a call into a layer, recorded from
//! outside the layer. Call sites that fire a million times per cell
//! (`SsdSystem::step`, `Workload::next_request`) are not spans: their
//! calls are timed in place and folded into one [`Aggregate`] per
//! function. Everything is kept in memory and written at exit.

use jitgc_sim::json::{JsonValue, ObjectBuilder};
use std::io::Write;
use std::time::{Duration, Instant};

/// Layer of the harness's own structural spans (root, cell, setup, run).
/// Self time left on these is time no named layer accounts for.
pub const BENCH_LAYER: &str = "bench";

struct Span {
    parent: Option<usize>,
    name: String,
    layer: &'static str,
    cell: String,
    start_ns: u64,
    end_ns: u64,
}

/// Folded per-call boundaries: `calls` invocations of `func` that took
/// `total` together, all inside span `parent`.
struct Aggregate {
    parent: usize,
    layer: &'static str,
    func: &'static str,
    calls: u64,
    total_ns: u64,
    /// A sub- or super-phase of sibling aggregates (`gc_copy`, `tick`):
    /// reported, but not subtracted from the parent's self time.
    overlaps: bool,
}

pub struct Tracer {
    workload: &'static str,
    epoch: Instant,
    spans: Vec<Span>,
    aggregates: Vec<Aggregate>,
    open: Vec<usize>,
    cell: String,
}

impl Tracer {
    pub fn new(workload: &'static str) -> Self {
        Tracer {
            workload,
            epoch: Instant::now(),
            spans: Vec::new(),
            aggregates: Vec::new(),
            open: Vec::new(),
            cell: String::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Names the simulated cell that spans opened from now on belong to.
    pub fn set_cell(&mut self, cell: &str) {
        cell.clone_into(&mut self.cell);
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &str, layer: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            name: name.to_owned(),
            layer,
            cell: self.cell.clone(),
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) -> Duration {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        Duration::from_nanos(span.end_ns - span.start_ns)
    }

    /// Times one call as a span.
    pub fn span<T>(&mut self, name: &str, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, layer);
        let out = f();
        self.end(id);
        out
    }

    /// Records folded calls inside the innermost open span.
    pub fn aggregate(
        &mut self,
        layer: &'static str,
        func: &'static str,
        calls: u64,
        total: Duration,
    ) {
        self.push_aggregate(layer, func, calls, total, false);
    }

    /// As [`aggregate`](Self::aggregate), for a phase that overlaps its
    /// siblings.
    pub fn aggregate_overlapping(
        &mut self,
        layer: &'static str,
        func: &'static str,
        calls: u64,
        total: Duration,
    ) {
        self.push_aggregate(layer, func, calls, total, true);
    }

    fn push_aggregate(
        &mut self,
        layer: &'static str,
        func: &'static str,
        calls: u64,
        total: Duration,
        overlaps: bool,
    ) {
        let parent = *self.open.last().expect("aggregates live inside a span");
        self.aggregates.push(Aggregate {
            parent,
            layer,
            func,
            calls,
            total_ns: total.as_nanos() as u64,
            overlaps,
        });
    }

    /// Self time of every span: its duration minus what its child spans
    /// and non-overlapping aggregates cover.
    fn self_times(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.end_ns - span.start_ns;
            }
        }
        for agg in self.aggregates.iter().filter(|a| !a.overlaps) {
            covered[agg.parent] += agg.total_ns;
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Share of span `root` that some named layer accounts for: one minus
    /// the self time left on the harness's own structural spans below it.
    pub fn accounted_share(&self, root: usize) -> f64 {
        let selfs = self.self_times();
        let mut unaccounted = 0u64;
        for (id, span) in self.spans.iter().enumerate() {
            if span.layer == BENCH_LAYER && self.descends_from(id, root) {
                unaccounted += selfs[id];
            }
        }
        let total = self.spans[root].end_ns - self.spans[root].start_ns;
        1.0 - unaccounted as f64 / total.max(1) as f64
    }

    fn descends_from(&self, mut id: usize, root: usize) -> bool {
        loop {
            if id == root {
                return true;
            }
            match self.spans[id].parent {
                Some(parent) => id = parent,
                None => return false,
            }
        }
    }

    /// Self time per layer in seconds, largest first.
    pub fn layer_self_seconds(&self) -> Vec<(&'static str, f64)> {
        let mut by_layer: Vec<(&'static str, u64)> = Vec::new();
        let mut add =
            |layer: &'static str, ns: u64| match by_layer.iter_mut().find(|(l, _)| *l == layer) {
                Some((_, total)) => *total += ns,
                None => by_layer.push((layer, ns)),
            };
        for (span, self_ns) in self.spans.iter().zip(self.self_times()) {
            add(span.layer, self_ns);
        }
        for agg in self.aggregates.iter().filter(|a| !a.overlaps) {
            add(agg.layer, agg.total_ns);
        }
        by_layer.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
        by_layer
            .into_iter()
            .map(|(l, ns)| (l, ns as f64 / 1e9))
            .collect()
    }

    /// Writes `header` and then one JSON object per span and aggregate.
    pub fn write_jsonl(&self, path: &std::path::Path, header: &JsonValue) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{}", header.to_compact())?;
        let parent = |p: Option<usize>| p.map(|p| p as u64);
        for ((id, span), self_ns) in self.spans.iter().enumerate().zip(self.self_times()) {
            let line = ObjectBuilder::new()
                .field("id", id)
                .field("parent", parent(span.parent))
                .field("name", span.name.as_str())
                .field("layer", span.layer)
                .field("workload", self.workload)
                .field("cell", span.cell.as_str())
                .field("start_ns", span.start_ns)
                .field("end_ns", span.end_ns)
                .field("self_ns", self_ns)
                .build();
            writeln!(out, "{}", line.to_compact())?;
        }
        for agg in &self.aggregates {
            let line = ObjectBuilder::new()
                .field("parent", agg.parent)
                .field("layer", agg.layer)
                .field("fn", agg.func)
                .field("workload", self.workload)
                .field("cell", self.spans[agg.parent].cell.as_str())
                .field("calls", agg.calls)
                .field("total_ns", agg.total_ns)
                .field("overlaps", agg.overlaps)
                .build();
            writeln!(out, "{}", line.to_compact())?;
        }
        out.flush()
    }
}
