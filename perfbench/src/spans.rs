//! In-memory spans for the traced run. Each span is a call from the
//! benchmark into one layer of the program: its name, start, end, the
//! span that caused it, and an iteration or request id. Nothing is
//! written until the run ends; with tracing off every call is a plain
//! function call.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span; times are nanoseconds from the recorder's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// The causing span's id; 0 for a root.
    pub parent: u64,
    /// Iteration (build repeat, install, restart) or request id.
    pub iter: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds from the origin to `t`.
    fn offset(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span; `f` receives the span's id so nested calls
    /// can name it as their parent (0 when tracing is off).
    pub fn nest<T>(
        &self,
        name: &'static str,
        parent: u64,
        iter: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        self.record(Span {
            name,
            id,
            parent,
            iter,
            start_ns: self.offset(start),
            end_ns: self.offset(end),
        });
        out
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&self, name: &'static str, parent: u64, iter: u64, f: impl FnOnce() -> T) -> T {
        self.nest(name, parent, iter, |_| f())
    }

    /// Records a span measured elsewhere (request spans from the load
    /// generator, whose timestamps it keeps anyway).
    pub fn push(&self, name: &'static str, parent: u64, iter: u64, start: Instant, end: Instant) {
        if self.enabled {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            let (start_ns, end_ns) = (self.offset(start), self.offset(end));
            self.record(Span { name, id, parent, iter, start_ns, end_ns });
        }
    }

    fn record(&self, span: Span) {
        self.spans.lock().expect("span buffer not poisoned").push(span);
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span buffer not poisoned").len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span buffer not poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"iter\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.parent, s.iter, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
