//! The benchmark's own span recorder.
//!
//! Layers are measured from outside: the traced pass wraps each call into a
//! layer's public functions in a span (name, start, end, the span that
//! caused it, an operation id shared by the spans of one step or request).
//! Spans stay in memory and are written as JSONL when the run ends. A span's
//! self time is its duration minus the part of it its children cover.

use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in the recorder.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    op: u64,
}

/// In-memory span store, shared by the threads of one traced pass.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// An empty recorder; span times count from now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a traced closure panicked while recording a span")
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span. `parent` is passed explicitly because children
    /// may run on other threads than the span that caused them; `f` gets its
    /// own id to hand to its children.
    pub fn scope<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let id = {
            let mut spans = self.lock();
            spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                op,
            });
            spans.len() - 1
        };
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        let mut spans = self.lock();
        spans[id].start_ns = start_ns;
        spans[id].end_ns = end_ns;
        out
    }

    /// A leaf span: `scope` for calls that cause no further spans.
    pub fn leaf<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        self.scope(name, parent, op, |_| f())
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.lock().iter().filter(|s| s.name == name).count()
    }

    /// Summed duration of the spans called `name`, seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .lock()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        ns as f64 * 1e-9
    }

    /// Mean duration of the spans called `name`, seconds (0 with none).
    pub fn mean_s(&self, name: &str) -> f64 {
        match self.count(name) {
            0 => 0.0,
            n => self.total_s(name) / n as f64,
        }
    }

    /// Median duration of the spans called `name`, seconds (0 with none).
    pub fn median_s(&self, name: &str) -> f64 {
        let durations: Vec<f64> = self
            .lock()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect();
        if durations.is_empty() {
            0.0
        } else {
            crate::stats::median(&durations)
        }
    }

    /// Smallest share of a root span (one without a parent) that its direct
    /// children cover; 1 with no root spans. Overlapping children (shards on
    /// two threads) count once.
    pub fn min_root_coverage(&self) -> f64 {
        let spans = self.lock();
        let mut worst = 1.0f64;
        for (id, root) in spans.iter().enumerate() {
            if root.parent.is_some() || root.end_ns == root.start_ns {
                continue;
            }
            let mut kids: Vec<(u64, u64)> = spans
                .iter()
                .filter(|s| s.parent == Some(id))
                .map(|s| (s.start_ns.max(root.start_ns), s.end_ns.min(root.end_ns)))
                .collect();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, root.start_ns);
            for (lo, hi) in kids {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            let self_ns = (root.end_ns - root.start_ns) - covered;
            worst = worst.min(1.0 - self_ns as f64 / (root.end_ns - root.start_ns) as f64);
        }
        worst
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.lock().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}
