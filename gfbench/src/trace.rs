//! In-memory spans recorded by the benchmark around each layer call.
//!
//! Every request gets a `request` root span; each call into a layer is a
//! child span of that root, sharing its request id. Spans stay in memory
//! while the loop runs and are written out as JSON lines at the end.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub request: u64,
    pub id: u64,
    /// Parent span id; 0 for a request root.
    pub parent: u64,
    pub name: &'static str,
    /// Free-form label: the request shape, or `hit`/`miss` on a query.
    pub tag: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder for one traced run.
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a request root span; close it with [`Tracer::end`].
    pub fn begin(&mut self, request: u64, tag: &'static str) -> usize {
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            request,
            id,
            parent: 0,
            name: "request",
            tag,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, root: usize) {
        self.spans[root].end_ns = self.now_ns();
    }

    /// Run `f` as a child span of `root`, returning its value and the
    /// index of the recorded span (so the caller can set its tag).
    pub fn child<T>(
        &mut self,
        root: usize,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let (request, parent) = (self.spans[root].request, self.spans[root].id);
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = self.now_ns();
        let value = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            request,
            id,
            parent,
            name,
            tag: "",
            start_ns,
            end_ns,
        });
        (value, self.spans.len() - 1)
    }

    /// Self time of every span in µs: its duration minus the part of it
    /// its children cover.
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .map(|s| {
                let mut covered = 0;
                let mut cursor = s.start_ns;
                if let Some(kids) = children.get_mut(&s.id) {
                    kids.sort_unstable();
                    for &(a, b) in kids.iter() {
                        let (a, b) = (a.max(cursor), b.min(s.end_ns));
                        if b > a {
                            covered += b - a;
                            cursor = b;
                        }
                    }
                }
                (s.dur_ns() - covered) as f64 / 1e3
            })
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, self_us) in self.spans.iter().zip(self.self_times_us()) {
            writeln!(
                out,
                "{{\"request\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"tag\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_us\":{}}}",
                s.request, s.id, s.parent, s.name, s.tag, s.start_ns, s.end_ns, self_us
            )?;
        }
        out.flush()
    }
}
