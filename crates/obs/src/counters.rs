//! Counter snapshots. Counters are the cheap, always-on half of the
//! observability layer: every oracle invocation, propagation and model
//! enumeration bumps one through [`crate::counter_bump`], or raises a
//! high-water gauge (names ending in `.peak`) through
//! [`crate::counter_bump_max`]. The dot-separated names (`sat.solves`,
//! `span.gcwa.infers_literal.ns`) are listed in `docs/OBSERVABILITY.md`.

use crate::json::Json;
use std::collections::BTreeMap;

/// Counter values at one instant: the registry ([`crate::snapshot`]) or
/// one scope ([`crate::Recording`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    pub(crate) values: BTreeMap<String, u64>,
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

    /// Counters gained since `earlier` (saturating). Gauges (`*.peak`)
    /// keep their later absolute value since a high-water mark has no
    /// meaningful delta.
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
    use crate::{counter_bump, counter_bump_max, flush, record, snapshot, Event};

    #[test]
    fn diff_subtracts_counters_and_keeps_gauges() {
        let snap = |pairs: &[(&str, u64)]| CounterSnapshot {
            values: pairs.iter().map(|&(k, v)| (k.to_owned(), v)).collect(),
        };
        let earlier = snap(&[("a", 2), ("b", 5), ("g.peak", 9)]);
        let later = snap(&[("a", 7), ("b", 5), ("g.peak", 4)]);
        let spent = later.diff(&earlier);
        assert_eq!(spent.get("a"), 5);
        assert_eq!(spent.get("b"), 0);
        assert_eq!(spent.get("g.peak"), 4, "a gauge keeps its later value");
        assert_eq!(spent.iter().count(), 2, "zero deltas are dropped");
    }

    /// The registry's value of `name`, read from another thread so the
    /// calling thread's pending values stay unflushed.
    fn registry_value(name: &'static str) -> u64 {
        std::thread::spawn(move || snapshot().get(name))
            .join()
            .unwrap()
    }

    #[test]
    fn bump_is_invisible_until_flushed() {
        counter_bump("test.buffered", 3);
        assert_eq!(registry_value("test.buffered"), 0, "pending stays local");
        flush();
        assert_eq!(registry_value("test.buffered"), 3);
        // Leaving the outermost span flushes too.
        {
            let _s = crate::span("test.buffered.span");
            counter_bump("test.buffered", 2);
        }
        assert_eq!(registry_value("test.buffered"), 5);
    }

    #[test]
    fn thread_totals_are_monotone_and_per_thread() {
        let totals = || {
            let ((), rec) = record(true, || {
                counter_bump("test.thread_total", 4);
                flush();
                counter_bump("test.thread_total", 1);
            });
            rec.events
                .into_iter()
                .filter_map(|te| match te.event {
                    Event::Counter { name, total, .. } if name == "test.thread_total" => {
                        Some(total)
                    }
                    _ => None,
                })
                .collect::<Vec<u64>>()
        };
        let first = totals();
        assert_eq!(first[1] - first[0], 1, "a flush does not reset the total");
        let again = totals();
        assert_eq!(again[0], first[1] + 4, "totals run across scopes");
        let elsewhere = std::thread::spawn(totals).join().unwrap();
        assert_eq!(elsewhere, [4, 5], "totals are per-thread");
    }

    #[test]
    fn flushes_from_many_threads_merge() {
        let before = snapshot().get("test.merge");
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        counter_bump("test.merge", 1);
                    }
                    flush();
                });
            }
        });
        assert_eq!(snapshot().get("test.merge") - before, 400);
    }

    #[test]
    fn buffered_peaks_flush_with_max_semantics() {
        std::thread::scope(|s| {
            for peak in [7, 19] {
                s.spawn(move || {
                    counter_bump_max("test.bump.peak", peak);
                    counter_bump_max("test.bump.peak", 3); // lower: no change
                    flush();
                });
            }
        });
        assert_eq!(snapshot().get("test.bump.peak"), 19, "max, not sum");
        // A lower peak after the flush leaves the registry alone.
        counter_bump_max("test.bump.peak", 5);
        assert_eq!(snapshot().get("test.bump.peak"), 19);
    }
}
