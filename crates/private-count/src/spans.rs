//! Build-phase span instrumentation: named wall-clock intervals recorded
//! during construction (candidate doubling, exact-count trie, noise,
//! prune). perfbench reports their durations as `pipeline.*_ms`, and
//! `tests/golden_digests.rs` pins their item counts.
//!
//! The same span vocabulary is reused by the serving daemon's trace ring
//! (`dpsc-serve::trace`) so an operator sees one naming scheme across
//! build-side and serve-side timings. Spans carry **no corpus data** —
//! a phase name, offsets relative to the recorder's origin, and an item
//! count (candidates generated, nodes pruned, …). Recording is
//! `Mutex`-guarded because build phases are coarse (a handful of spans
//! per build, never per-pattern), so contention is irrelevant.

use std::sync::Mutex;
use std::time::Instant;

/// One timed construction phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSpan {
    /// Phase name (`"candidates"`, `"count_trie"`, `"noise"`, `"prune"`).
    pub name: &'static str,
    /// Start offset in nanoseconds relative to the recorder's origin.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// Phase-specific item count (0 when not meaningful): candidates
    /// emitted, trie nodes built, nodes noised, nodes surviving the
    /// prune, …
    pub items: u64,
}

/// Collects [`PhaseSpan`]s during a build. Cheap to share by reference;
/// phases are appended in completion order.
#[derive(Debug, Default)]
pub struct SpanRecorder {
    origin: Option<Instant>,
    spans: Mutex<Vec<PhaseSpan>>,
}

impl SpanRecorder {
    /// A fresh recorder; span offsets count from now.
    pub fn new() -> Self {
        Self { origin: Some(Instant::now()), spans: Mutex::new(Vec::new()) }
    }

    fn now_ns(&self) -> u64 {
        match self.origin {
            Some(o) => o.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            None => 0,
        }
    }

    /// Times `f` and records the interval under `name` with `items = 0`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (out, _) = self.time_items(name, || (f(), 0));
        out
    }

    /// Times `f`; the closure returns `(value, items)` so the span can
    /// carry a phase-specific size alongside its duration.
    pub fn time_items<T>(&self, name: &'static str, f: impl FnOnce() -> (T, u64)) -> (T, u64) {
        let start_ns = self.now_ns();
        let (out, items) = f();
        let dur_ns = self.now_ns().saturating_sub(start_ns);
        self.push(PhaseSpan { name, start_ns, dur_ns, items });
        (out, items)
    }

    /// Current offset from the recorder's origin — pair with [`close`]
    /// when a phase cannot be wrapped in a closure (e.g. it borrows the
    /// caller's RNG mutably across the interval).
    ///
    /// [`close`]: SpanRecorder::close
    pub fn mark(&self) -> u64 {
        self.now_ns()
    }

    /// Records a span opened by [`mark`](SpanRecorder::mark).
    pub fn close(&self, name: &'static str, started_ns: u64, items: u64) {
        let dur_ns = self.now_ns().saturating_sub(started_ns);
        self.push(PhaseSpan { name, start_ns: started_ns, dur_ns, items });
    }

    /// Appends a pre-measured span.
    pub fn push(&self, span: PhaseSpan) {
        self.spans.lock().expect("span mutex not poisoned").push(span);
    }

    /// All spans recorded so far, in completion order.
    pub fn spans(&self) -> Vec<PhaseSpan> {
        self.spans.lock().expect("span mutex not poisoned").clone()
    }

    /// Duration of the first span named `name`, if recorded.
    pub fn dur_ns(&self, name: &str) -> Option<u64> {
        self.spans
            .lock()
            .expect("span mutex not poisoned")
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.dur_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_named_phases_in_order() {
        let rec = SpanRecorder::new();
        let x = rec.time("candidates", || 41 + 1);
        assert_eq!(x, 42);
        let (y, items) = rec.time_items("prune", || ("kept", 7u64));
        assert_eq!((y, items), ("kept", 7));
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "candidates");
        assert_eq!(spans[0].items, 0);
        assert_eq!(spans[1].name, "prune");
        assert_eq!(spans[1].items, 7);
        assert!(spans[1].start_ns >= spans[0].start_ns + spans[0].dur_ns);
        assert_eq!(rec.dur_ns("prune"), Some(spans[1].dur_ns));
        assert_eq!(rec.dur_ns("noise"), None);
    }

    #[test]
    fn default_recorder_is_inert_but_usable() {
        let rec = SpanRecorder::default();
        rec.time("count_trie", || ());
        assert_eq!(rec.spans().len(), 1);
        assert_eq!(rec.spans()[0].start_ns, 0);
    }
}
