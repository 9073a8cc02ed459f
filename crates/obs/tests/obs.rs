//! Integration tests for the observability layer: counter arithmetic, span
//! nesting well-formedness, recorded events with thread/ordinal
//! provenance, and the JSON contract.
//!
//! Every test reads its own `record` scope, or diffs the process registry
//! on names no other test touches, so none of them serializes.

use ddb_obs::json::{self, Json};
use ddb_obs::{
    check_track_nesting, counter_bump, counter_bump_max, record, snapshot, span, Event, TraceEvent,
};

#[test]
fn counters_accumulate_and_diff() {
    let before = snapshot();
    let ((), rec) = record(false, || {
        counter_bump("test.alpha", 2);
        counter_bump("test.alpha", 3);
        counter_bump_max("test.gauge.peak", 10);
        counter_bump_max("test.gauge.peak", 7); // lower: no change
    });
    let spent = rec.counters;
    assert_eq!(spent.get("test.alpha"), 5);
    assert_eq!(spent.get("test.gauge.peak"), 10);
    assert_eq!(spent.get("test.never_touched"), 0);
    // The finished scope folded into the registry.
    assert_eq!(snapshot().diff(&before).get("test.alpha"), 5);
}

#[test]
fn snapshot_diff_drops_zero_deltas() {
    counter_bump("test.static", 1);
    let before = snapshot();
    let spent = snapshot().diff(&before);
    assert_eq!(spent.get("test.static"), 0);
}

#[test]
fn span_nesting_depth_tracks_scope() {
    let outer = span("test.outer");
    assert_eq!(outer.depth(), 0);
    {
        let inner = span("test.inner");
        assert_eq!(inner.depth(), 1);
    }
    let sibling = span("test.sibling");
    assert_eq!(sibling.depth(), 1);
    drop(sibling);
    drop(outer);
    assert_eq!(span("test.after").depth(), 0);
}

#[test]
fn spans_report_calls_and_time() {
    let ((), rec) = record(false, || {
        for _ in 0..3 {
            let _s = span("test.timed");
        }
    });
    assert_eq!(rec.counters.get("span.test.timed.calls"), 3);
    assert!(
        rec.counters.get("span.test.timed.ns") >= 3,
        "durations are >= 1ns each"
    );
}

#[test]
fn recording_sees_well_formed_nesting() {
    let ((), rec) = record(true, || {
        let _a = span("test.sink.a");
        {
            let _b = span("test.sink.b");
        }
        {
            let _c = span("test.sink.c");
        }
    });
    let events: Vec<TraceEvent> = rec
        .events
        .into_iter()
        .filter(|te| match &te.event {
            Event::SpanEnter { name, .. } | Event::SpanExit { name, .. } => {
                name.starts_with("test.sink.")
            }
            Event::Counter { .. } | Event::Instant { .. } => false,
        })
        .collect();
    let matched = check_track_nesting(&events).expect("nesting well-formed");
    assert_eq!(matched, 3);
    // Exit durations are present and ordering is enter-a, enter-b, exit-b,
    // enter-c, exit-c, exit-a.
    let names: Vec<(bool, &str)> = events
        .iter()
        .map(|te| match &te.event {
            Event::SpanEnter { name, .. } => (true, name.as_str()),
            Event::SpanExit { name, .. } => (false, name.as_str()),
            _ => unreachable!(),
        })
        .collect();
    assert_eq!(
        names,
        vec![
            (true, "test.sink.a"),
            (true, "test.sink.b"),
            (false, "test.sink.b"),
            (true, "test.sink.c"),
            (false, "test.sink.c"),
            (false, "test.sink.a"),
        ]
    );
}

#[test]
fn track_nesting_rejects_malformed() {
    let on = |thread: u64, event: Event| TraceEvent {
        thread,
        ordinal: 0,
        event,
    };
    let enter = |name: &str| Event::SpanEnter {
        name: name.into(),
        depth: 0,
        at_ns: 0,
    };
    let exit = |name: &str| Event::SpanExit {
        name: name.into(),
        depth: 0,
        at_ns: 1,
        dur_ns: 1,
    };
    assert!(check_track_nesting(&[on(0, exit("a"))]).is_err());
    assert!(check_track_nesting(&[on(0, enter("a"))]).is_err());
    assert!(check_track_nesting(&[on(0, enter("a")), on(0, exit("b"))]).is_err());
    assert!(
        check_track_nesting(&[on(0, enter("a")), on(1, exit("a"))]).is_err(),
        "an exit closes a span of its own track only"
    );
    assert_eq!(
        check_track_nesting(&[
            on(0, enter("a")),
            on(0, enter("b")),
            on(0, exit("b")),
            on(0, exit("a"))
        ]),
        Ok(2)
    );
}

/// The `(delta, total)` of every `name` counter event in `events`.
fn counter_updates(events: Vec<TraceEvent>, name: &str) -> Vec<(u64, u64)> {
    events
        .into_iter()
        .filter_map(|te| match te.event {
            Event::Counter {
                name: n,
                delta,
                total,
                ..
            } if n == name => Some((delta, total)),
            _ => None,
        })
        .collect()
}

#[test]
fn counter_events_reach_recording_with_totals() {
    let ((), rec) = record(true, || {
        counter_bump("test.evt", 4);
        counter_bump("test.evt", 2);
    });
    let deltas = counter_updates(rec.events, "test.evt");
    assert_eq!(deltas.len(), 2);
    assert_eq!(deltas[0].0, 4);
    assert_eq!(deltas[1].0, 2);
    assert_eq!(deltas[1].1, deltas[0].1 + 2);
}

#[test]
fn bumped_counter_events_carry_thread_totals() {
    let ((), warm) = record(true, || counter_bump("test.bump.evt", 1));
    let base = counter_updates(warm.events, "test.bump.evt")[0].1;
    let ((), rec) = record(true, || {
        counter_bump("test.bump.evt", 3);
        counter_bump("test.bump.evt", 2);
    });
    assert_eq!(
        counter_updates(rec.events, "test.bump.evt"),
        vec![(3, base + 3), (2, base + 5)],
        "one event per bump, totals are the thread's lifetime totals"
    );
}

#[test]
fn events_carry_thread_ids_and_monotone_ordinals() {
    let ((), rec) = record(true, || drop(span("test.ord.main")));
    let mut events = rec.events;
    // Each thread records into its own scope and stamps its own track.
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|_| s.spawn(|| record(true, || drop(span("test.ord.worker"))).1.events))
            .collect();
        for w in workers {
            events.extend(w.join().unwrap());
        }
    });
    let mut threads: std::collections::BTreeMap<u64, Vec<u64>> = Default::default();
    for te in &events {
        threads.entry(te.thread).or_default().push(te.ordinal);
    }
    assert_eq!(threads.len(), 3, "main and worker tracks present");
    for (thread, ords) in &threads {
        for w in ords.windows(2) {
            assert!(w[0] < w[1], "ordinals not monotone on track {thread}");
        }
    }
    check_track_nesting(&events).expect("every track well-nested");
}

#[test]
fn snapshot_json_roundtrips_through_parser() {
    let ((), rec) = record(false, || {
        counter_bump("test.json.a", 1);
        counter_bump("test.json.b", 99);
    });
    let text = rec.counters.to_json().render();
    let parsed = json::parse(&text).expect("snapshot renders valid JSON");
    assert_eq!(parsed.get("test.json.a").and_then(Json::as_u64), Some(1));
    assert_eq!(parsed.get("test.json.b").and_then(Json::as_u64), Some(99));
}

#[test]
fn event_json_roundtrips_through_parser() {
    let events = [
        TraceEvent {
            thread: 0,
            ordinal: 0,
            event: Event::SpanEnter {
                name: "x".into(),
                depth: 0,
                at_ns: 123,
            },
        },
        TraceEvent {
            thread: 0,
            ordinal: 1,
            event: Event::SpanExit {
                name: "x".into(),
                depth: 0,
                at_ns: 579,
                dur_ns: 456,
            },
        },
        TraceEvent {
            thread: 2,
            ordinal: 0,
            event: Event::Counter {
                name: "sat.solves".into(),
                delta: 1,
                total: 7,
                at_ns: 600,
            },
        },
        TraceEvent {
            thread: 2,
            ordinal: 1,
            event: Event::Instant {
                name: "govern.interrupts.deadline".into(),
                at_ns: 700,
            },
        },
    ];
    let doc = Json::Arr(events.iter().map(TraceEvent::to_json).collect());
    let parsed = json::parse(&doc.render()).expect("valid JSON");
    let arr = parsed.as_arr().unwrap();
    assert_eq!(arr.len(), 4);
    assert_eq!(
        arr[0].get("type").and_then(Json::as_str),
        Some("span_enter")
    );
    assert_eq!(arr[0].get("thread").and_then(Json::as_u64), Some(0));
    assert_eq!(arr[1].get("dur_ns").and_then(Json::as_u64), Some(456));
    assert_eq!(arr[1].get("ordinal").and_then(Json::as_u64), Some(1));
    assert_eq!(arr[2].get("total").and_then(Json::as_u64), Some(7));
    assert_eq!(arr[2].get("thread").and_then(Json::as_u64), Some(2));
    assert_eq!(arr[3].get("type").and_then(Json::as_str), Some("instant"));
}

#[test]
fn render_table_is_aligned() {
    let ((), rec) = record(false, || {
        counter_bump("test.table.long_counter_name", 12);
        counter_bump("test.t", 3);
    });
    let table = rec.counters.render_table();
    assert!(table.contains("test.table.long_counter_name"));
    assert_eq!(table.lines().count(), 3);
}

#[test]
fn histograms_flow_from_spansites_to_snapshot() {
    let before = ddb_obs::hist_snapshot().count("test.obs.hist");
    {
        let _s = span("test.hist.outer");
        ddb_obs::hist_record("test.obs.hist", 10);
        ddb_obs::hist_record("test.obs.hist", 1_000);
    } // depth-0 exit flushes the thread's recorder
    let snap = ddb_obs::hist_snapshot();
    assert_eq!(snap.count("test.obs.hist") - before, 2);
    let h = snap.get("test.obs.hist").unwrap();
    assert!(h.max() >= 1_000);
    let parsed = json::parse(&snap.to_json().render()).expect("valid JSON");
    assert!(parsed.get("test.obs.hist").is_some());
}
