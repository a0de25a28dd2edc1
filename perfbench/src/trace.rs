//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name (`<layer>.<call>`), a start and an end, the span that
//! caused it and the id of the request or write batch it belongs to. Spans
//! stay in memory (one buffer per thread) and are written out when the run
//! ends. Self time is a span's duration minus the durations of its children.
//!
//! Children that replay a lower layer's work after the parent call returned
//! (the estimator or router behind a cache miss, the store and rederive steps
//! behind an ingest) are charged against their logical parent, because the
//! program's own calls are opaque from the benchmark's side.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// One thread's span buffer, timed against a shared origin.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, id: u64, parent: u32) -> u32 {
        let start_ns = self.now();
        self.record(name, id, parent, start_ns, start_ns)
    }

    pub fn close(&mut self, span: u32) {
        let now = self.now();
        self.spans[span as usize].end_ns = now;
    }

    /// Records an already-timed span.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.open(name, id, parent);
        let out = f();
        self.close(span);
        out
    }
}

/// All threads' spans, merged, with per-span self times. A self time is
/// signed: children replayed after their parent closed (the write path's
/// mirror replay) can add up to more than the parent's duration, and a
/// negative self time says so instead of hiding it at 0.
pub struct Trace {
    pub spans: Vec<Span>,
    self_ns: Vec<i64>,
}

impl Trace {
    pub fn merge(buffers: Vec<Vec<Span>>) -> Trace {
        let mut spans = Vec::new();
        for buffer in buffers {
            let offset = spans.len() as u32;
            spans.extend(buffer.into_iter().map(|mut s| {
                if s.parent != NO_PARENT {
                    s.parent += offset;
                }
                s
            }));
        }
        let mut children = vec![0u64; spans.len()];
        for s in &spans {
            if s.parent != NO_PARENT {
                children[s.parent as usize] += s.dur_ns();
            }
        }
        let self_ns = spans
            .iter()
            .zip(&children)
            .map(|(s, &c)| s.dur_ns() as i64 - c as i64)
            .collect();
        Trace { spans, self_ns }
    }

    fn root_of(&self, mut i: usize) -> usize {
        while self.spans[i].parent != NO_PARENT {
            i = self.spans[i].parent as usize;
        }
        i
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Self times (ns) of every span called `name`.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(&self.self_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &ns)| ns as f64)
            .collect()
    }

    /// Total self time (ns) per layer over the trees rooted at spans called
    /// `root`, and the number of such roots.
    pub fn self_by_layer(&self, root: &str) -> (BTreeMap<&'static str, f64>, usize) {
        let mut by_layer = BTreeMap::new();
        let mut roots = 0;
        for (i, s) in self.spans.iter().enumerate() {
            if self.spans[self.root_of(i)].name != root {
                continue;
            }
            if s.parent == NO_PARENT {
                roots += 1;
            }
            *by_layer.entry(s.layer()).or_insert(0.0) += self.self_ns[i] as f64;
        }
        (by_layer, roots)
    }

    /// Writes every span as CSV (`id,name,parent,start_ns,end_ns,self_ns`).
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,name,parent,start_ns,end_ns,self_ns")?;
        for (s, self_ns) in self.spans.iter().zip(&self.self_ns) {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{},{},{},{},{},{}",
                s.id, s.name, parent, s.start_ns, s.end_ns, self_ns
            )?;
        }
        out.flush()
    }
}

/// Measured cost of recording one span (open + close), in ns.
pub fn span_cost_ns() -> f64 {
    let mut tracer = Tracer::new(Instant::now());
    let n = 200_000;
    tracer.spans.reserve(n);
    let start = Instant::now();
    for i in 0..n {
        let span = tracer.open("obs.calibrate", i as u64, NO_PARENT);
        tracer.close(span);
    }
    let took = start.elapsed().as_nanos() as f64;
    std::hint::black_box(&tracer.spans);
    took / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        let root = t.record("request", 1, NO_PARENT, 0, 100);
        let child = t.record("service.execute", 1, root, 10, 70);
        t.record("core.estimate", 1, child, 20, 50);
        let trace = Trace::merge(vec![t.spans]);
        let (by_layer, roots) = trace.self_by_layer("request");
        assert_eq!(roots, 1);
        assert_eq!(by_layer["request"], 40.0);
        assert_eq!(by_layer["service"], 30.0);
        assert_eq!(by_layer["core"], 30.0);
    }

    #[test]
    fn children_replayed_after_their_parent_give_a_negative_self_time() {
        let mut t = Tracer::new(Instant::now());
        let root = t.record("batch", 2, NO_PARENT, 0, 100);
        let ingest = t.record("live.ingest", 2, root, 0, 40);
        t.record("core.rederive", 2, ingest, 60, 110);
        let trace = Trace::merge(vec![t.spans]);
        assert_eq!(trace.self_times("live.ingest"), vec![-10.0]);
    }
}
