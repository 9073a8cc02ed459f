//! Hierarchical timing spans with RAII guards.
//!
//! A span brackets one decision procedure: entering pushes onto this
//! thread's recorder span stack (so nesting depth is race-free), and
//! dropping the guard pops it, bills the `span.<name>.calls` and
//! `span.<name>.ns` counters, and queues enter/exit trace events for a
//! scope that keeps them. Leaving the outermost span flushes the
//! recorder. Nothing on either path locks or allocates once the span's
//! name has been seen on the thread.

use crate::recorder;
use std::time::Instant;

/// Nanoseconds since the first observability call in this process. Only
/// differences are meaningful.
pub fn now_ns() -> u64 {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_nanos() as u64
}

/// Enter a named span; the returned guard closes it on drop.
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard {
        name,
        depth: recorder::enter(name),
        started: Instant::now(),
    }
}

/// RAII guard returned by [`span`]. Spans must be dropped in LIFO order
/// (guaranteed by normal scoping); out-of-order drops are a bug and panic in
/// debug builds.
pub struct SpanGuard {
    name: &'static str,
    depth: usize,
    started: Instant,
}

impl SpanGuard {
    /// The nesting depth this span was entered at (0 = outermost).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Nanoseconds elapsed since the span was entered.
    pub fn elapsed_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        recorder::exit(self.name, self.depth, self.elapsed_ns());
    }
}

/// Enter a named span that also records its duration into the named
/// histogram when dropped — the one-liner for "this region is both a
/// timeline span and a latency distribution" (e.g. `cegar.round` /
/// `cegar.round.ns`).
pub fn hist_span(name: &'static str, hist: &'static str) -> HistSpanGuard {
    HistSpanGuard {
        hist,
        guard: span(name),
    }
}

/// RAII guard returned by [`hist_span`]: records the elapsed time into
/// its histogram, then closes the span (field drop runs after the
/// explicit drop body).
pub struct HistSpanGuard {
    hist: &'static str,
    guard: SpanGuard,
}

impl Drop for HistSpanGuard {
    fn drop(&mut self) {
        recorder::hist_record(self.hist, self.guard.elapsed_ns());
    }
}
