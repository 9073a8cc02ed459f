//! Named monotonic counters with a process-global registry.
//!
//! Counters are the cheap, always-on half of the observability layer: every
//! oracle invocation, propagation, and model enumeration bumps one. Names are
//! dot-separated taxonomies (`sat.solves`, `models.circ.candidates`,
//! `span.gcwa.infers_literal.ns`) documented in `docs/OBSERVABILITY.md`.
//!
//! The registry is a `Mutex<BTreeMap>` — deliberately boring. Exact per-call
//! figures used in answers come from the thread-local `Cost`/`Stats`
//! structures; the global registry feeds human-facing `--stats` tables and
//! `--trace-json` files, where cross-thread interleaving is acceptable.
//!
//! Hot counters (`route.*`, `govern.*`, the per-bump sites inside solve
//! loops) go through [`counter_bump`] instead of [`counter_add`]: the name
//! is a `&'static str` interned into a per-thread slot table, and deltas
//! accumulate in a thread-local buffer — no global lock, no `String`
//! allocation per bump. Hot high-water gauges (`sat.clauses.peak`) go
//! through [`counter_bump_max`] the same way and flush with max, not sum,
//! semantics. Buffers flush into the registry on
//! [`flush_thread_counters`] (called on outermost span exit, worker-pool
//! exit, and by [`snapshot`]/[`counter_value`] for the calling thread).
//! With a trace sink installed, each bump additionally queues a
//! per-update `Counter` event into the thread-local trace buffer — the
//! event's `total` is the emitting *thread's* lifetime total, so traces
//! stay event-per-update without the global registry lock on the hot
//! path. Each thread also keeps a monotone lifetime total per bumped
//! counter ([`thread_counter_total`]), which gives race-free
//! before/after probes on a single thread even while other workers bump
//! the same names.

use crate::json::Json;
use crate::sink::{emit, Event};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

static COUNTERS: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());

fn with_counters<R>(f: impl FnOnce(&mut BTreeMap<String, u64>) -> R) -> R {
    // Counter updates cannot panic while the lock is held, so a poisoned
    // mutex only ever carries valid data; recover rather than propagate.
    let mut guard = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    f(&mut guard)
}

/// Add `delta` to the named counter, creating it at zero if absent.
pub fn counter_add(name: &str, delta: u64) {
    if delta == 0 {
        return;
    }
    let total = with_counters(|map| {
        let slot = map.entry(name.to_owned()).or_insert(0);
        *slot = slot.saturating_add(delta);
        *slot
    });
    emit(|| Event::Counter {
        name: name.to_owned(),
        delta,
        total,
        at_ns: crate::span::now_ns(),
    });
}

/// Per-thread buffer for [`counter_bump`]: interned name slots, pending
/// deltas not yet in the global registry, and monotone lifetime totals.
#[derive(Default)]
struct LocalBuf {
    slots: HashMap<&'static str, usize>,
    names: Vec<&'static str>,
    pending: Vec<u64>,
    totals: Vec<u64>,
    /// [`counter_bump_max`] gauges: name, the peak not yet merged into
    /// the registry, and this thread's lifetime peak.
    peaks: Vec<(&'static str, u64, u64)>,
    dirty: bool,
}

impl LocalBuf {
    fn slot(&mut self, name: &'static str) -> usize {
        if let Some(&i) = self.slots.get(name) {
            return i;
        }
        let i = self.names.len();
        self.names.push(name);
        self.pending.push(0);
        self.totals.push(0);
        self.slots.insert(name, i);
        i
    }

    fn peak(&mut self, name: &'static str) -> &mut (&'static str, u64, u64) {
        let i = match self.peaks.iter().position(|p| p.0 == name) {
            Some(i) => i,
            None => {
                self.peaks.push((name, 0, 0));
                self.peaks.len() - 1
            }
        };
        &mut self.peaks[i]
    }
}

thread_local! {
    static LOCAL: RefCell<LocalBuf> = RefCell::new(LocalBuf::default());
}

/// Add `delta` to the named hot counter via this thread's buffer: no
/// global lock and no allocation on the hot path. The global registry
/// observes the total at the next [`flush_thread_counters`]. With a
/// trace sink installed, a per-update `Counter` event is queued into the
/// thread-local trace buffer, carrying this thread's lifetime total.
pub fn counter_bump(name: &'static str, delta: u64) {
    if delta == 0 {
        return;
    }
    let thread_total = LOCAL.with(|l| {
        let mut buf = l.borrow_mut();
        let i = buf.slot(name);
        buf.pending[i] = buf.pending[i].saturating_add(delta);
        buf.totals[i] = buf.totals[i].saturating_add(delta);
        buf.dirty = true;
        buf.totals[i]
    });
    emit(|| Event::Counter {
        name: name.to_owned(),
        delta,
        total: thread_total,
        at_ns: crate::span::now_ns(),
    });
}

/// Merge this thread's pending [`counter_bump`] deltas into the global
/// registry. Cheap when nothing is pending. Called automatically on
/// outermost span exit, on worker-pool thread exit, and by the read-side
/// functions for the calling thread.
pub fn flush_thread_counters() {
    LOCAL.with(|l| {
        let mut buf = l.borrow_mut();
        if !buf.dirty {
            return;
        }
        buf.dirty = false;
        let names = std::mem::take(&mut buf.names);
        with_counters(|map| {
            for (i, name) in names.iter().enumerate() {
                let p = buf.pending[i];
                if p == 0 {
                    continue;
                }
                let slot = map.entry((*name).to_owned()).or_insert(0);
                *slot = slot.saturating_add(p);
                buf.pending[i] = 0;
            }
            for (name, pending, _) in &mut buf.peaks {
                if *pending == 0 {
                    continue;
                }
                let slot = map.entry((*name).to_owned()).or_insert(0);
                *slot = (*slot).max(*pending);
                *pending = 0;
            }
        });
        buf.names = names;
        // No events here: each bump already queued its own trace event
        // at update time, so a flush is registry bookkeeping only.
    });
}

/// This thread's monotone lifetime total of a [`counter_bump`]ed counter
/// (flushes do not reset it). Zero if this thread never bumped `name`.
/// The race-free probe for "did *this thread* take route X": diff the
/// value around a call, immune to concurrent workers bumping the same
/// counter.
pub fn thread_counter_total(name: &'static str) -> u64 {
    LOCAL.with(|l| {
        let buf = l.borrow();
        buf.slots.get(name).map_or(0, |&i| buf.totals[i])
    })
}

/// Raise the named hot gauge to at least `value` via this thread's
/// buffer — the high-water-mark twin of [`counter_bump`]: no global lock
/// and no allocation on the hot path. The next [`flush_thread_counters`]
/// merges the thread's peak into the registry with max, not sum,
/// semantics. With a trace sink installed, a `Counter` event is queued
/// whenever this thread's lifetime peak rises.
pub fn counter_bump_max(name: &'static str, value: u64) {
    let raised = LOCAL.with(|l| {
        let mut buf = l.borrow_mut();
        let (_, pending, lifetime) = buf.peak(name);
        if value <= *pending {
            return false;
        }
        *pending = value;
        let raised = value > *lifetime;
        *lifetime = (*lifetime).max(value);
        buf.dirty = true;
        raised
    });
    if raised {
        emit(|| Event::Counter {
            name: name.to_owned(),
            delta: 0,
            total: value,
            at_ns: crate::span::now_ns(),
        });
    }
}

/// Raise the named counter to at least `value` (a high-water-mark gauge,
/// e.g. peak clause count). Locks the registry: hot sites use
/// [`counter_bump_max`].
pub fn counter_max(name: &str, value: u64) {
    let changed = with_counters(|map| {
        let slot = map.entry(name.to_owned()).or_insert(0);
        if value > *slot {
            *slot = value;
            true
        } else {
            false
        }
    });
    if changed {
        emit(|| Event::Counter {
            name: name.to_owned(),
            delta: 0,
            total: value,
            at_ns: crate::span::now_ns(),
        });
    }
}

/// Read one counter (zero if it was never touched). Flushes the calling
/// thread's buffered bumps first; other threads' buffers flush on their
/// own span/worker exits.
pub fn counter_value(name: &str) -> u64 {
    flush_thread_counters();
    with_counters(|map| map.get(name).copied().unwrap_or(0))
}

/// Reset the whole registry (including the calling thread's pending
/// buffered bumps; per-thread lifetime totals are monotone and survive).
/// Used by the CLI between independent runs and by tests; library code
/// should prefer [`CounterSnapshot::diff`].
pub fn reset_counters() {
    LOCAL.with(|l| {
        let mut buf = l.borrow_mut();
        buf.dirty = false;
        buf.pending.iter_mut().for_each(|p| *p = 0);
        buf.peaks.iter_mut().for_each(|p| p.1 = 0);
    });
    with_counters(|map| map.clear());
}

/// An immutable copy of the registry at one instant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    values: BTreeMap<String, u64>,
}

/// Capture the current state of every counter. Flushes the calling
/// thread's buffered bumps first so single-threaded before/after diffs
/// are exact.
pub fn snapshot() -> CounterSnapshot {
    flush_thread_counters();
    CounterSnapshot {
        values: with_counters(|map| map.clone()),
    }
}

impl CounterSnapshot {
    /// Value of `name` at snapshot time, zero if it was never bumped.
    pub fn get(&self, name: &str) -> u64 {
        self.values.get(name).copied().unwrap_or(0)
    }

    /// Whether no counter had been bumped when the snapshot was taken.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// All counters in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.values.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Counters gained since `earlier` (saturating; counters reset in
    /// between show as zero, not underflow). Gauges (`*.peak`) keep their
    /// later absolute value since a high-water mark has no meaningful delta.
    pub fn diff(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        let mut values = BTreeMap::new();
        for (name, &now) in &self.values {
            let delta = if name.ends_with(".peak") {
                now
            } else {
                now.saturating_sub(earlier.get(name))
            };
            if delta > 0 {
                values.insert(name.clone(), delta);
            }
        }
        CounterSnapshot { values }
    }

    /// Render as a JSON object `{name: value, ...}` (keys sorted).
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.values
                .iter()
                .map(|(k, v)| (k.clone(), Json::UInt(*v)))
                .collect(),
        )
    }

    /// Render as an aligned human-readable table.
    pub fn render_table(&self) -> String {
        let width = self
            .values
            .keys()
            .map(|k| k.len())
            .max()
            .unwrap_or(0)
            .max(7);
        let mut out = String::new();
        out.push_str(&format!("{:width$}  value\n", "counter"));
        for (name, value) in &self.values {
            out.push_str(&format!("{name:width$}  {value}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global; serialize the tests that reset it.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn bump_is_invisible_until_flushed() {
        let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset_counters();
        counter_bump("test.buffered", 3);
        assert_eq!(
            with_counters(|map| map.get("test.buffered").copied()),
            None,
            "pending bumps stay thread-local"
        );
        flush_thread_counters();
        assert_eq!(
            with_counters(|map| map.get("test.buffered").copied()),
            Some(3)
        );
        // Read-side functions flush implicitly.
        counter_bump("test.buffered", 2);
        assert_eq!(counter_value("test.buffered"), 5);
        counter_bump("test.buffered", 1);
        assert_eq!(snapshot().get("test.buffered"), 6);
    }

    #[test]
    fn thread_totals_are_monotone_and_per_thread() {
        let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let before = thread_counter_total("test.thread_total");
        counter_bump("test.thread_total", 4);
        flush_thread_counters();
        reset_counters();
        counter_bump("test.thread_total", 1);
        assert_eq!(
            thread_counter_total("test.thread_total") - before,
            5,
            "lifetime total survives flush and reset"
        );
        std::thread::spawn(|| {
            assert_eq!(
                thread_counter_total("test.thread_total"),
                0,
                "totals are per-thread"
            );
        })
        .join()
        .unwrap();
    }

    #[test]
    fn flushes_from_many_threads_merge() {
        let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset_counters();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        counter_bump("test.merge", 1);
                    }
                    flush_thread_counters();
                });
            }
        });
        assert_eq!(counter_value("test.merge"), 400);
    }

    #[test]
    fn buffered_peaks_flush_with_max_semantics() {
        let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset_counters();
        std::thread::scope(|s| {
            for peak in [7, 19] {
                s.spawn(move || {
                    counter_bump_max("test.bump.peak", peak);
                    counter_bump_max("test.bump.peak", 3); // lower: no change
                    flush_thread_counters();
                });
            }
        });
        assert_eq!(counter_value("test.bump.peak"), 19, "max, not sum");
        // A lower peak after the flush leaves the registry alone.
        counter_bump_max("test.bump.peak", 5);
        assert_eq!(counter_value("test.bump.peak"), 19);
    }
}
