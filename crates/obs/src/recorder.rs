//! The per-thread recorder, the process registry, and [`record`] scopes.
//!
//! Every observation — a counter bump, a gauge raise, a histogram sample,
//! a span entry or exit, a trace event — lands in this thread's one
//! recorder: no lock, and no allocation once a name has been seen on the
//! thread (a histogram regrows its buckets after each flush). Pending
//! values move on at three flush points: outermost span exit, the end of
//! a [`record`] scope and [`flush`]. They go to the innermost open scope
//! on the thread, or to the process registry when none is open. A
//! finished scope folds into its parent, and the outermost one into the
//! registry, which [`snapshot`] and [`hist_snapshot`] read.
//!
//! Counters, gauges, histograms and the `span.<name>.calls`/`.ns` pairs
//! share one interned slot table per thread. Each slot keeps the value
//! not yet flushed and this thread's lifetime total, which counter trace
//! events carry. Trace events are kept only while some open scope asked
//! for them, stamped with a dense thread id and a per-thread ordinal.

use crate::counters::CounterSnapshot;
use crate::histogram::{Histogram, HistogramSnapshot};
use crate::span::now_ns;
use crate::trace::{Event, TraceEvent};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A slot's name and how its values merge and render.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Key {
    /// A monotone counter: values add.
    Count(&'static str),
    /// A high-water gauge: values merge with max.
    Peak(&'static str),
    /// A distribution.
    Hist(&'static str),
    /// The `span.<name>.calls` counter.
    SpanCalls(&'static str),
    /// The `span.<name>.ns` counter.
    SpanNs(&'static str),
}

impl Key {
    fn name(self) -> String {
        match self {
            Key::Count(n) | Key::Peak(n) | Key::Hist(n) => n.to_owned(),
            Key::SpanCalls(n) => format!("span.{n}.calls"),
            Key::SpanNs(n) => format!("span.{n}.ns"),
        }
    }
}

#[derive(Debug)]
enum Value {
    N(u64),
    H(Histogram),
}

impl Value {
    fn is_empty(&self) -> bool {
        match self {
            Value::N(n) => *n == 0,
            Value::H(h) => h.is_empty(),
        }
    }

    /// Moves the value out and leaves an empty one of the same shape. A
    /// histogram's buckets leave with it, which keeps idle threads small.
    fn take(&mut self) -> Value {
        match self {
            Value::N(n) => Value::N(std::mem::take(n)),
            Value::H(h) => Value::H(std::mem::take(h)),
        }
    }
}

type Table = BTreeMap<Key, Value>;

fn fold(into: &mut Table, key: Key, value: Value) {
    let Some(slot) = into.get_mut(&key) else {
        into.insert(key, value);
        return;
    };
    match (slot, value) {
        (Value::N(a), Value::N(b)) if matches!(key, Key::Peak(_)) => *a = (*a).max(b),
        (Value::N(a), Value::N(b)) => *a = a.saturating_add(b),
        (Value::H(a), Value::H(b)) => a.merge(&b),
        _ => unreachable!("every value of a key has the key's shape"),
    }
}

/// Counters, peaks and histograms folded from every finished outermost
/// scope and every flush outside one.
static REGISTRY: Mutex<Table> = Mutex::new(BTreeMap::new());

fn registry() -> std::sync::MutexGuard<'static, Table> {
    // Folds cannot panic while the lock is held, so a poisoned mutex only
    // ever carries valid data.
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

/// One open [`record`] scope.
struct Scope {
    table: Table,
    /// Whether this scope asked for trace events.
    events: bool,
    /// Length of the event buffer when this scope opened.
    mark: usize,
}

#[derive(Default)]
struct Recorder {
    /// Open span names, innermost last.
    spans: Vec<&'static str>,
    slots: HashMap<Key, usize>,
    keys: Vec<Key>,
    pending: Vec<Value>,
    lifetime: Vec<u64>,
    dirty: bool,
    /// Open scopes, innermost last.
    scopes: Vec<Scope>,
    thread: Option<u64>,
    ordinal: u64,
    events: Vec<TraceEvent>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

fn with<R>(f: impl FnOnce(&mut Recorder) -> R) -> R {
    RECORDER.with(|r| f(&mut r.borrow_mut()))
}

impl Recorder {
    fn slot(&mut self, key: Key) -> usize {
        if let Some(&i) = self.slots.get(&key) {
            return i;
        }
        let i = self.keys.len();
        self.keys.push(key);
        self.pending.push(match key {
            Key::Hist(_) => Value::H(Histogram::new()),
            _ => Value::N(0),
        });
        self.lifetime.push(0);
        self.slots.insert(key, i);
        i
    }

    /// Whether some open scope keeps trace events.
    fn keeps_events(&self) -> bool {
        self.scopes.iter().any(|scope| scope.events)
    }

    fn emit(&mut self, make: impl FnOnce() -> Event) {
        if !self.keeps_events() {
            return;
        }
        let thread = *self
            .thread
            .get_or_insert_with(|| NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        self.events.push(TraceEvent {
            thread,
            ordinal: self.ordinal,
            event: make(),
        });
        self.ordinal += 1;
    }

    fn add(&mut self, key: Key, delta: u64) {
        let i = self.slot(key);
        if let Value::N(n) = &mut self.pending[i] {
            *n = n.saturating_add(delta);
        }
        self.lifetime[i] = self.lifetime[i].saturating_add(delta);
        self.dirty = true;
        let total = self.lifetime[i];
        self.emit(|| Event::Counter {
            name: key.name(),
            delta,
            total,
            at_ns: now_ns(),
        });
    }

    /// Runs `f` on the innermost open scope's table, or on the registry.
    fn target(scopes: &mut [Scope], f: impl FnOnce(&mut Table)) {
        match scopes.last_mut() {
            Some(scope) => f(&mut scope.table),
            None => f(&mut registry()),
        }
    }

    fn fold_out(&mut self, table: Table) {
        Self::target(&mut self.scopes, |into| {
            for (key, value) in table {
                fold(into, key, value);
            }
        });
    }

    fn flush(&mut self) {
        if !std::mem::take(&mut self.dirty) {
            return;
        }
        Self::target(&mut self.scopes, |into| {
            for (key, value) in self.keys.iter().zip(&mut self.pending) {
                if !value.is_empty() {
                    fold(into, *key, value.take());
                }
            }
        });
    }

    fn open(&mut self, events: bool) {
        self.flush();
        self.scopes.push(Scope {
            table: Table::new(),
            events,
            mark: self.events.len(),
        });
    }

    /// Closes the innermost scope and returns what it saw. Its events stay
    /// buffered too while an outer scope keeps events.
    fn close(&mut self) -> (Table, Vec<TraceEvent>) {
        self.flush();
        let scope = self.scopes.pop().expect("a scope is open");
        let events = if !scope.events {
            Vec::new()
        } else if self.keeps_events() {
            self.events[scope.mark..].to_vec()
        } else {
            self.events.split_off(scope.mark)
        };
        (scope.table, events)
    }
}

/// Adds `delta` to the named counter.
pub fn counter_bump(name: &'static str, delta: u64) {
    if delta != 0 {
        with(|r| r.add(Key::Count(name), delta));
    }
}

/// Raises the named high-water gauge to at least `value`. Gauges merge
/// with max, not sum; a trace event marks each rise of this thread's
/// peak.
pub fn counter_bump_max(name: &'static str, value: u64) {
    with(|r| {
        let i = r.slot(Key::Peak(name));
        match &mut r.pending[i] {
            Value::N(pending) if value > *pending => *pending = value,
            _ => return,
        }
        r.dirty = true;
        if value > r.lifetime[i] {
            r.lifetime[i] = value;
            r.emit(|| Event::Counter {
                name: name.to_owned(),
                delta: 0,
                total: value,
                at_ns: now_ns(),
            });
        }
    });
}

/// Records one observation into the named histogram.
pub fn hist_record(name: &'static str, value: u64) {
    with(|r| {
        let i = r.slot(Key::Hist(name));
        if let Value::H(h) = &mut r.pending[i] {
            h.record(value);
        }
        r.dirty = true;
    });
}

/// Queues a trace event if some open scope keeps events; `make` runs only
/// then.
pub(crate) fn emit(make: impl FnOnce() -> Event) {
    with(|r| r.emit(make));
}

/// Pushes a span; returns its depth (0 = outermost).
pub(crate) fn enter(name: &'static str) -> usize {
    with(|r| {
        r.spans.push(name);
        let depth = r.spans.len() - 1;
        r.emit(|| Event::SpanEnter {
            name: name.to_owned(),
            depth,
            at_ns: now_ns(),
        });
        depth
    })
}

/// Pops a span, bills its `calls`/`ns` counters, and flushes at depth 0.
pub(crate) fn exit(name: &'static str, depth: usize, dur_ns: u64) {
    with(|r| {
        let popped = r.spans.pop();
        debug_assert_eq!(popped, Some(name), "span guards dropped out of LIFO order");
        r.add(Key::SpanCalls(name), 1);
        r.add(Key::SpanNs(name), dur_ns.max(1));
        r.emit(|| Event::SpanExit {
            name: name.to_owned(),
            depth,
            at_ns: now_ns(),
            dur_ns,
        });
        if depth == 0 {
            r.flush();
        }
    });
}

/// Moves this thread's pending values into its innermost open scope, or
/// into the registry when none is open. Spans and scopes flush on their
/// own; call this after bumping outside all of them on a
/// long-lived thread whose values others read through [`snapshot`].
pub fn flush() {
    with(Recorder::flush);
}

/// What a [`record`] scope saw: every counter, gauge and histogram value
/// recorded on this thread while the scope was open.
#[derive(Debug, Clone, Default)]
pub struct Recording {
    /// Counters, gauges and span `calls`/`ns` pairs.
    pub counters: CounterSnapshot,
    /// Histograms.
    pub histograms: HistogramSnapshot,
    /// The trace events, when the scope asked for them; empty otherwise.
    pub events: Vec<TraceEvent>,
}

/// A table's counters and histograms, under their rendered names.
fn readout(table: &Table) -> (CounterSnapshot, HistogramSnapshot) {
    let (mut counters, mut histograms) = (CounterSnapshot::default(), HistogramSnapshot::default());
    for (key, value) in table {
        match value {
            Value::N(n) => {
                counters.values.insert(key.name(), *n);
            }
            Value::H(h) => {
                histograms.values.insert(key.name(), h.clone());
            }
        }
    }
    (counters, histograms)
}

/// Closes the scope if `f` unwinds, so the thread's scope stack stays
/// balanced.
struct Unwind;

impl Drop for Unwind {
    fn drop(&mut self) {
        with(|r| {
            let (table, _) = r.close();
            r.fold_out(table);
        });
    }
}

/// Runs `f` in a fresh scope and returns its result with everything it
/// recorded. With `events`, the scope also keeps the trace events of `f`
/// (spans, counter updates, interrupts), as [`crate::chrome_trace`],
/// [`crate::folded_stacks`] and [`crate::TraceReport`] read them.
///
/// Scopes nest. A finished scope folds into its parent, and the
/// outermost one into the process registry, so [`snapshot`] still sees
/// everything.
pub fn record<R>(events: bool, f: impl FnOnce() -> R) -> (R, Recording) {
    with(|r| r.open(events));
    let unwind = Unwind;
    let out = f();
    std::mem::forget(unwind);
    let (table, events) = with(Recorder::close);
    let (counters, histograms) = readout(&table);
    with(|r| r.fold_out(table));
    let recording = Recording {
        counters,
        histograms,
        events,
    };
    (out, recording)
}

/// The registry's counters. Flushes the calling thread first, so
/// single-threaded before/after diffs outside any scope are exact.
pub fn snapshot() -> CounterSnapshot {
    flush();
    readout(&registry()).0
}

/// The registry's histograms. Flushes the calling thread first.
pub fn hist_snapshot() -> HistogramSnapshot {
    flush();
    readout(&registry()).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_scope_sees_only_its_own_values() {
        counter_bump("test.rec.own", 5);
        let ((), rec) = record(false, || {
            counter_bump("test.rec.own", 2);
            counter_bump_max("test.rec.own.peak", 9);
            counter_bump_max("test.rec.own.peak", 4);
            hist_record("test.rec.own.ns", 10);
        });
        assert_eq!(rec.counters.get("test.rec.own"), 2);
        assert_eq!(rec.counters.get("test.rec.own.peak"), 9, "max, not sum");
        assert_eq!(rec.histograms.count("test.rec.own.ns"), 1);
        assert!(rec.events.is_empty(), "no events unless asked");
    }

    #[test]
    fn nested_scopes_fold_into_parent_and_registry() {
        let before = snapshot().get("test.rec.nest");
        let ((), outer) = record(false, || {
            counter_bump("test.rec.nest", 1);
            let ((), inner) = record(false, || counter_bump("test.rec.nest", 10));
            assert_eq!(inner.counters.get("test.rec.nest"), 10);
        });
        assert_eq!(outer.counters.get("test.rec.nest"), 11);
        assert_eq!(snapshot().get("test.rec.nest") - before, 11);
    }

    #[test]
    fn events_reach_every_scope_that_asked() {
        let ((), outer) = record(true, || {
            let ((), silent) = record(false, || counter_bump("test.rec.evt", 1));
            assert!(silent.events.is_empty());
            let ((), loud) = record(true, || counter_bump("test.rec.evt", 2));
            assert_eq!(loud.events.len(), 1);
        });
        let deltas: Vec<u64> = outer
            .events
            .iter()
            .filter_map(|te| match &te.event {
                Event::Counter { name, delta, .. } if name == "test.rec.evt" => Some(*delta),
                _ => None,
            })
            .collect();
        assert_eq!(
            deltas,
            [1, 2],
            "the outer scope keeps its children's events"
        );
    }

    #[test]
    fn unwinding_closes_the_scope() {
        let caught = std::panic::catch_unwind(|| {
            record(false, || {
                counter_bump("test.rec.unwind", 1);
                panic!("boom");
            })
        });
        assert!(caught.is_err());
        let ((), rec) = record(false, || counter_bump("test.rec.unwind", 3));
        assert_eq!(rec.counters.get("test.rec.unwind"), 3);
    }
}
