//! In-memory spans, counters and samples, recorded by the benchmark's
//! own code around calls into each layer's public functions.
//!
//! A disabled tracer records nothing and only runs the wrapped calls,
//! so the same pass code gives both the traced and the untraced
//! timing of a pass; their ratio is the tracing overhead.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval. Leaves are layer calls; groups (a cell, a
/// file, a market) only tie the leaves of one operation together.
struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
    leaf: bool,
}

/// A span recorder for one pass of a workload.
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
            samples: BTreeMap::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Run `f` inside a leaf span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now());
        out
    }

    /// Record a leaf span whose bounds the caller measured itself.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.on {
            self.spans.push(Span {
                name,
                start,
                end,
                parent: self.open.last().copied(),
                leaf: true,
            });
        }
    }

    /// Open a group span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if self.on {
            let now = Instant::now();
            self.spans.push(Span {
                name,
                start: now,
                end: now,
                parent: self.open.last().copied(),
                leaf: false,
            });
            self.open.push(self.spans.len() - 1);
        }
    }

    pub fn exit(&mut self) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end = Instant::now();
        }
    }

    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.on {
            *self.counts.entry(name).or_insert(0) += n;
        }
    }

    pub fn sample(&mut self, name: &'static str, value: f64) {
        if self.on {
            self.samples.entry(name).or_default().push(value);
        }
    }

    pub fn get_count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Self time in milliseconds per span name: each span's duration
    /// minus the part its child spans cover, summed over the name.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u128; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += (s.end - s.start).as_nanos();
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = (s.end - s.start).as_nanos().saturating_sub(child);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Milliseconds spent inside leaf (layer) spans.
    pub fn leaf_ms(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.leaf)
            .map(|s| (s.end - s.start).as_secs_f64() * 1e3)
            .sum()
    }
}
