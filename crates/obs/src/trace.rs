//! Trace events and timelines: the [`Event`] stream a [`crate::record`]
//! scope keeps when asked, Chrome trace-event and folded-stack
//! (flamegraph) exporters, and an aggregated span-tree report.
//!
//! Each event is stamped into a [`TraceEvent`] with a dense thread id and
//! a monotone per-thread ordinal. A recording's stream is a set of
//! *tracks* (one per thread), each internally ordered; cross-track order
//! reflects how the streams were joined, not wall-clock order. The
//! consumers here respect that:
//!
//! - [`chrome_trace`] renders Chrome trace-event JSON (open in Perfetto
//!   or `chrome://tracing`) with one track per thread — spans as `B`/`E`
//!   pairs, counters as `C` samples, interrupts as instant events.
//! - [`folded_stacks`] renders inferno/FlameGraph folded-stack text:
//!   one `root;child;leaf <ns>` line per distinct stack, where the
//!   values are *exclusive* nanoseconds, so the lines sum to the
//!   inclusive time of the root spans.
//! - [`TraceReport`] aggregates the stream into a span tree with
//!   per-node call counts, inclusive/exclusive time, attributed oracle
//!   calls, and latency quantiles — the `ddb trace` report.

use crate::histogram::Histogram;
use crate::json::Json;
use std::collections::BTreeMap;

/// One observability event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A span was entered.
    SpanEnter {
        /// Span name.
        name: String,
        /// Nesting depth at entry (0 = outermost).
        depth: usize,
        /// Nanoseconds since the process-local epoch.
        at_ns: u64,
    },
    /// A span was exited.
    SpanExit {
        /// Span name.
        name: String,
        /// Nesting depth the span was entered at.
        depth: usize,
        /// Nanoseconds since the process-local epoch, at exit.
        at_ns: u64,
        /// Wall-clock duration of the span in nanoseconds.
        dur_ns: u64,
    },
    /// A counter was bumped.
    Counter {
        /// Counter name.
        name: String,
        /// Amount added by this update.
        delta: u64,
        /// The emitting thread's lifetime total after the update (for a
        /// gauge, its lifetime peak).
        total: u64,
        /// Nanoseconds since the process-local epoch.
        at_ns: u64,
    },
    /// A point event with no duration — e.g. a budget trip.
    Instant {
        /// Event name (e.g. `govern.interrupt.deadline`).
        name: String,
        /// Nanoseconds since the process-local epoch.
        at_ns: u64,
    },
}

/// An [`Event`] stamped with its emitting thread's provenance.
///
/// `thread` is a small stable id assigned in first-emission order (the
/// main thread is almost always 0); `ordinal` increments per emitting
/// thread, so `(thread, ordinal)` totally orders each thread's events —
/// a *track* — even after several threads' streams are joined.
/// Order across tracks is **not** meaningful; align tracks by `at_ns`
/// instead.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Stable id of the emitting thread (dense, from 0).
    pub thread: u64,
    /// Position of this event in the emitting thread's stream (from 0).
    pub ordinal: u64,
    /// The event itself.
    pub event: Event,
}

impl TraceEvent {
    /// JSON rendering used by `--trace-json`: `thread`, `ordinal`, the
    /// event's `type` and `name`, then its own fields.
    pub fn to_json(&self) -> Json {
        let uint = |key: &str, v: u64| (key.to_owned(), Json::UInt(v));
        let (kind, name, rest) = match &self.event {
            Event::SpanEnter { name, depth, at_ns } => (
                "span_enter",
                name,
                vec![uint("depth", *depth as u64), uint("at_ns", *at_ns)],
            ),
            Event::SpanExit {
                name,
                depth,
                at_ns,
                dur_ns,
            } => (
                "span_exit",
                name,
                vec![
                    uint("depth", *depth as u64),
                    uint("at_ns", *at_ns),
                    uint("dur_ns", *dur_ns),
                ],
            ),
            Event::Counter {
                name,
                delta,
                total,
                at_ns,
            } => (
                "counter",
                name,
                vec![
                    uint("delta", *delta),
                    uint("total", *total),
                    uint("at_ns", *at_ns),
                ],
            ),
            Event::Instant { name, at_ns } => ("instant", name, vec![uint("at_ns", *at_ns)]),
        };
        let mut fields = vec![
            uint("thread", self.thread),
            uint("ordinal", self.ordinal),
            ("type".to_owned(), Json::Str(kind.into())),
            ("name".to_owned(), Json::Str(name.clone())),
        ];
        fields.extend(rest);
        Json::Obj(fields)
    }
}

/// Check that every track (thread) in `events` is properly nested —
/// per-track exits match the most recent unmatched enter — and return
/// the total number of matched pairs across tracks.
pub fn check_track_nesting(events: &[TraceEvent]) -> Result<usize, String> {
    let mut stacks: BTreeMap<u64, Vec<&str>> = BTreeMap::new();
    let mut matched = 0;
    for ev in events {
        let stack = stacks.entry(ev.thread).or_default();
        match &ev.event {
            Event::SpanEnter { name, .. } => stack.push(name),
            Event::SpanExit { name, .. } => match stack.pop() {
                Some(top) if top == name => matched += 1,
                Some(top) => {
                    return Err(format!(
                        "track {}: exit '{name}' but top of stack is '{top}'",
                        ev.thread
                    ))
                }
                None => {
                    return Err(format!(
                        "track {}: exit '{name}' with empty stack",
                        ev.thread
                    ))
                }
            },
            Event::Counter { .. } | Event::Instant { .. } => {}
        }
    }
    for (thread, stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!("track {thread}: span '{open}' never exited"));
        }
    }
    Ok(matched)
}

fn ts_us(at_ns: u64) -> Json {
    Json::Num(at_ns as f64 / 1000.0)
}

/// Render `events` as a Chrome trace-event JSON document (the
/// `{"traceEvents": [...]}` object form), loadable in Perfetto or
/// `chrome://tracing`. One track per emitting thread (`tid` is the
/// stable trace thread id, `pid` is always 1): spans become `B`/`E`
/// pairs, counters become `C` samples, instants become `i` events, and
/// each track gets a `thread_name` metadata record.
pub fn chrome_trace(events: &[TraceEvent]) -> Json {
    let mut out: Vec<Json> = Vec::with_capacity(events.len() + 4);
    let mut threads: BTreeMap<u64, ()> = BTreeMap::new();
    for ev in events {
        threads.entry(ev.thread).or_default();
        let tid = Json::UInt(ev.thread);
        match &ev.event {
            Event::SpanEnter { name, at_ns, .. } => out.push(Json::obj([
                ("name", Json::Str(name.clone())),
                ("ph", Json::Str("B".into())),
                ("ts", ts_us(*at_ns)),
                ("pid", Json::UInt(1)),
                ("tid", tid),
            ])),
            Event::SpanExit { name, at_ns, .. } => out.push(Json::obj([
                ("name", Json::Str(name.clone())),
                ("ph", Json::Str("E".into())),
                ("ts", ts_us(*at_ns)),
                ("pid", Json::UInt(1)),
                ("tid", tid),
            ])),
            Event::Counter {
                name, total, at_ns, ..
            } => out.push(Json::obj([
                ("name", Json::Str(name.clone())),
                ("ph", Json::Str("C".into())),
                ("ts", ts_us(*at_ns)),
                ("pid", Json::UInt(1)),
                ("tid", tid),
                ("args", Json::obj([("value", Json::UInt(*total))])),
            ])),
            Event::Instant { name, at_ns } => out.push(Json::obj([
                ("name", Json::Str(name.clone())),
                ("ph", Json::Str("i".into())),
                ("ts", ts_us(*at_ns)),
                ("pid", Json::UInt(1)),
                ("tid", tid),
                ("s", Json::Str("t".into())),
            ])),
        }
    }
    for &thread in threads.keys() {
        let label = if thread == 0 {
            "main".to_owned()
        } else {
            format!("worker-{thread}")
        };
        out.push(Json::obj([
            ("name", Json::Str("thread_name".into())),
            ("ph", Json::Str("M".into())),
            ("pid", Json::UInt(1)),
            ("tid", Json::UInt(thread)),
            ("args", Json::obj([("name", Json::Str(label))])),
        ]));
    }
    Json::obj([
        ("traceEvents", Json::Arr(out)),
        ("displayTimeUnit", Json::Str("ns".into())),
    ])
}

/// Render `events` as folded-stack flamegraph text: one
/// `root;child;leaf <ns>` line per distinct span stack, values in
/// *exclusive* nanoseconds, identical stacks (across calls and across
/// tracks) aggregated. Because every span's exclusive time plus its
/// children's inclusive time equals its own inclusive time, the line
/// values sum to the total inclusive time of the root spans — at one
/// thread, exactly the root span's inclusive time. Consume with
/// inferno/FlameGraph: `inferno-flamegraph < out.folded > flame.svg`.
pub fn folded_stacks(events: &[TraceEvent]) -> String {
    struct Frame {
        name: String,
        children_ns: u64,
    }
    let mut totals: BTreeMap<String, u64> = BTreeMap::new();
    let mut stacks: BTreeMap<u64, Vec<Frame>> = BTreeMap::new();
    for ev in events {
        let stack = stacks.entry(ev.thread).or_default();
        match &ev.event {
            Event::SpanEnter { name, .. } => stack.push(Frame {
                name: name.clone(),
                children_ns: 0,
            }),
            Event::SpanExit { name, dur_ns, .. } => {
                let Some(frame) = stack.pop() else { continue };
                if frame.name != *name {
                    // Malformed track: put the frame back and skip.
                    stack.push(frame);
                    continue;
                }
                let exclusive = dur_ns.saturating_sub(frame.children_ns);
                let mut path = String::new();
                for f in stack.iter() {
                    path.push_str(&f.name);
                    path.push(';');
                }
                path.push_str(name);
                *totals.entry(path).or_insert(0) += exclusive;
                if let Some(parent) = stack.last_mut() {
                    parent.children_ns = parent.children_ns.saturating_add(*dur_ns);
                }
            }
            Event::Counter { .. } | Event::Instant { .. } => {}
        }
    }
    let mut out = String::new();
    for (path, ns) in &totals {
        out.push_str(&format!("{path} {ns}\n"));
    }
    out
}

/// One node of the aggregated span tree: all calls that shared the same
/// root-to-leaf span-name path, across tracks.
#[derive(Debug, Clone, Default)]
pub struct TreeNode {
    /// Span name at this path position.
    pub name: String,
    /// Completed calls aggregated into this node.
    pub calls: u64,
    /// Total inclusive (wall-clock) nanoseconds across calls.
    pub inclusive_ns: u64,
    /// Total exclusive nanoseconds (inclusive minus children's
    /// inclusive time spent while this node was innermost).
    pub exclusive_ns: u64,
    /// SAT oracle calls (`sat.solves` counter deltas) attributed to this
    /// node while it was the innermost open span on its track.
    pub oracle_calls: u64,
    /// Distribution of per-call inclusive durations.
    pub latency: Histogram,
    /// Child nodes, one per distinct child span name.
    pub children: Vec<TreeNode>,
}

impl TreeNode {
    fn child_mut(&mut self, name: &str) -> &mut TreeNode {
        if let Some(i) = self.children.iter().position(|c| c.name == name) {
            return &mut self.children[i];
        }
        self.children.push(TreeNode {
            name: name.to_owned(),
            ..TreeNode::default()
        });
        self.children.last_mut().expect("just pushed")
    }

    /// Parent inclusive time is at least the sum of its children's —
    /// spans nest, so a child's wall interval lies inside its parent's.
    pub fn is_monotone(&self) -> bool {
        let child_sum: u64 = self.children.iter().map(|c| c.inclusive_ns).sum();
        self.inclusive_ns >= child_sum && self.children.iter().all(TreeNode::is_monotone)
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.name.clone())),
            ("calls", Json::UInt(self.calls)),
            ("inclusive_ns", Json::UInt(self.inclusive_ns)),
            ("exclusive_ns", Json::UInt(self.exclusive_ns)),
            ("oracle_calls", Json::UInt(self.oracle_calls)),
            ("p50_ns", Json::UInt(self.latency.quantile(0.50))),
            ("p90_ns", Json::UInt(self.latency.quantile(0.90))),
            ("p99_ns", Json::UInt(self.latency.quantile(0.99))),
            (
                "children",
                Json::Arr(self.children.iter().map(TreeNode::to_json).collect()),
            ),
        ])
    }
}

/// Aggregated span-tree report over a trace: the `ddb trace` payload.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// Synthetic root; its children are the observed root spans.
    root: TreeNode,
}

impl TraceReport {
    /// Replay `events` track by track and aggregate every completed span
    /// into a tree keyed by the span-name path from the track root.
    /// `sat.solves` counter deltas are attributed to the innermost open
    /// span on the emitting track.
    pub fn build(events: &[TraceEvent]) -> Self {
        struct Open {
            path: Vec<String>,
            children_ns: u64,
            oracle: u64,
        }
        let mut root = TreeNode::default();
        let mut stacks: BTreeMap<u64, Vec<Open>> = BTreeMap::new();
        for ev in events {
            let stack = stacks.entry(ev.thread).or_default();
            match &ev.event {
                Event::SpanEnter { name, .. } => {
                    let mut path = stack.last().map(|o| o.path.clone()).unwrap_or_default();
                    path.push(name.clone());
                    stack.push(Open {
                        path,
                        children_ns: 0,
                        oracle: 0,
                    });
                }
                Event::SpanExit { name, dur_ns, .. } => {
                    let Some(open) = stack.pop() else { continue };
                    if open.path.last().map(String::as_str) != Some(name.as_str()) {
                        stack.push(open);
                        continue;
                    }
                    let mut node = &mut root;
                    for part in &open.path {
                        node = node.child_mut(part);
                    }
                    node.calls += 1;
                    node.inclusive_ns += dur_ns;
                    node.exclusive_ns += dur_ns.saturating_sub(open.children_ns);
                    node.oracle_calls += open.oracle;
                    node.latency.record(*dur_ns);
                    if let Some(parent) = stack.last_mut() {
                        parent.children_ns = parent.children_ns.saturating_add(*dur_ns);
                    }
                }
                Event::Counter { name, delta, .. } => {
                    if name == "sat.solves" {
                        if let Some(open) = stack.last_mut() {
                            open.oracle += delta;
                        }
                    }
                }
                Event::Instant { .. } => {}
            }
        }
        TraceReport { root }
    }

    /// The observed root spans (children of the synthetic root).
    pub fn roots(&self) -> &[TreeNode] {
        &self.root.children
    }

    /// Total oracle calls attributed anywhere in the tree.
    pub fn oracle_calls(&self) -> u64 {
        fn sum(n: &TreeNode) -> u64 {
            n.oracle_calls + n.children.iter().map(sum).sum::<u64>()
        }
        sum(&self.root)
    }

    /// Total calls recorded under the given span name, anywhere in the
    /// tree (e.g. `sat.solve` to cross-check against the `sat.solves`
    /// counter).
    pub fn calls_of(&self, name: &str) -> u64 {
        fn walk(n: &TreeNode, name: &str) -> u64 {
            let own = if n.name == name { n.calls } else { 0 };
            own + n.children.iter().map(|c| walk(c, name)).sum::<u64>()
        }
        walk(&self.root, name)
    }

    /// Every node's inclusive time dominates the sum of its children's.
    pub fn is_monotone(&self) -> bool {
        self.root.children.iter().all(TreeNode::is_monotone)
    }

    /// Whether no spans were aggregated at all.
    pub fn is_empty(&self) -> bool {
        self.root.children.is_empty()
    }

    /// JSON rendering: an array of root-span trees.
    pub fn to_json(&self) -> Json {
        Json::Arr(self.root.children.iter().map(TreeNode::to_json).collect())
    }

    /// Render an aligned, indented tree table. At each level children
    /// are ordered by inclusive time (descending); when `top` is
    /// non-zero only the `top` heaviest children per node are shown,
    /// with an elision line counting the rest.
    pub fn render(&self, top: usize) -> String {
        // An elision row has no node.
        let mut rows: Vec<(String, Option<&TreeNode>)> = Vec::new();
        fn walk<'a>(
            node: &'a TreeNode,
            depth: usize,
            top: usize,
            rows: &mut Vec<(String, Option<&'a TreeNode>)>,
        ) {
            let mut kids: Vec<&TreeNode> = node.children.iter().collect();
            kids.sort_by(|a, b| {
                b.inclusive_ns
                    .cmp(&a.inclusive_ns)
                    .then(a.name.cmp(&b.name))
            });
            let shown = if top == 0 {
                kids.len()
            } else {
                top.min(kids.len())
            };
            let indent = "  ".repeat(depth);
            for child in &kids[..shown] {
                rows.push((format!("{indent}{}", child.name), Some(child)));
                walk(child, depth + 1, top, rows);
            }
            if shown < kids.len() {
                rows.push((format!("{indent}… {} more", kids.len() - shown), None));
            }
        }
        walk(&self.root, 0, top, &mut rows);
        let name_w = rows
            .iter()
            .map(|(label, _)| label.len())
            .max()
            .unwrap_or(4)
            .max(4);
        let mut out = String::new();
        out.push_str(&format!(
            "{:name_w$}  {:>6}  {:>10}  {:>10}  {:>7}  {:>10}  {:>10}  {:>10}\n",
            "span", "calls", "incl", "excl", "oracle", "p50", "p90", "p99"
        ));
        for (label, node) in &rows {
            let Some(node) = node else {
                out.push_str(&format!("{label}\n"));
                continue;
            };
            out.push_str(&format!(
                "{label:name_w$}  {:>6}  {:>10}  {:>10}  {:>7}  {:>10}  {:>10}  {:>10}\n",
                node.calls,
                human_ns(node.inclusive_ns),
                human_ns(node.exclusive_ns),
                node.oracle_calls,
                human_ns(node.latency.quantile(0.50)),
                human_ns(node.latency.quantile(0.90)),
                human_ns(node.latency.quantile(0.99)),
            ));
        }
        out
    }
}

/// Compact nanosecond formatting for tables (`872ns`, `1.24ms`, `3.1s`).
pub fn human_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.2}us", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(thread: u64, ordinal: u64, event: Event) -> TraceEvent {
        TraceEvent {
            thread,
            ordinal,
            event,
        }
    }

    fn enter(name: &str, at_ns: u64) -> Event {
        Event::SpanEnter {
            name: name.into(),
            depth: 0,
            at_ns,
        }
    }

    fn exit(name: &str, at_ns: u64, dur_ns: u64) -> Event {
        Event::SpanExit {
            name: name.into(),
            depth: 0,
            at_ns,
            dur_ns,
        }
    }

    /// Two interleaved tracks: main runs `query{solve}`, worker runs
    /// `job{solve}` — delivered out of wall order, as flushes would.
    fn two_track_stream() -> Vec<TraceEvent> {
        vec![
            ev(1, 0, enter("job", 5)),
            ev(1, 1, enter("solve", 10)),
            ev(
                1,
                2,
                Event::Counter {
                    name: "sat.solves".into(),
                    delta: 1,
                    total: 1,
                    at_ns: 12,
                },
            ),
            ev(1, 3, exit("solve", 40, 30)),
            ev(1, 4, exit("job", 50, 45)),
            ev(0, 0, enter("query", 0)),
            ev(0, 1, enter("solve", 20)),
            ev(0, 2, exit("solve", 80, 60)),
            ev(
                0,
                3,
                Event::Instant {
                    name: "govern.interrupt.deadline".into(),
                    at_ns: 90,
                },
            ),
            ev(0, 4, exit("query", 100, 100)),
        ]
    }

    #[test]
    fn track_nesting_counts_pairs_per_track() {
        assert_eq!(check_track_nesting(&two_track_stream()), Ok(4));
        let bad = vec![ev(0, 0, enter("a", 0)), ev(0, 1, exit("b", 1, 1))];
        assert!(check_track_nesting(&bad).is_err());
        let open = vec![ev(0, 0, enter("a", 0))];
        assert!(check_track_nesting(&open).is_err());
    }

    #[test]
    fn chrome_trace_is_balanced_and_parses() {
        let doc = chrome_trace(&two_track_stream());
        let parsed = crate::json::parse(&doc.render()).expect("valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        let mut depth: BTreeMap<u64, i64> = BTreeMap::new();
        let mut instants = 0;
        let mut counters = 0;
        for e in events {
            let tid = e.get("tid").and_then(Json::as_u64).unwrap();
            match e.get("ph").and_then(Json::as_str).unwrap() {
                "B" => *depth.entry(tid).or_insert(0) += 1,
                "E" => {
                    let d = depth.entry(tid).or_insert(0);
                    *d -= 1;
                    assert!(*d >= 0, "E before B on track {tid}");
                }
                "C" => counters += 1,
                "i" => instants += 1,
                "M" => {}
                other => panic!("unexpected phase {other}"),
            }
        }
        assert!(depth.values().all(|&d| d == 0), "unbalanced: {depth:?}");
        assert_eq!(depth.len(), 2, "one track per thread");
        assert_eq!((counters, instants), (1, 1));
    }

    #[test]
    fn folded_stacks_sum_to_root_inclusive() {
        let text = folded_stacks(&two_track_stream());
        let mut lines: BTreeMap<&str, u64> = BTreeMap::new();
        for line in text.lines() {
            let (path, ns) = line.rsplit_once(' ').unwrap();
            lines.insert(path, ns.parse().unwrap());
        }
        assert_eq!(lines["query"], 40); // 100 - 60
        assert_eq!(lines["query;solve"], 60);
        assert_eq!(lines["job"], 15); // 45 - 30
        assert_eq!(lines["job;solve"], 30);
        let total: u64 = lines.values().sum();
        assert_eq!(total, 100 + 45, "folded values sum to root inclusive time");
    }

    #[test]
    fn report_aggregates_paths_and_attributes_oracles() {
        let report = TraceReport::build(&two_track_stream());
        assert!(report.is_monotone());
        assert_eq!(report.calls_of("solve"), 2);
        assert_eq!(report.oracle_calls(), 1);
        assert_eq!(report.roots().len(), 2);
        let query = report.roots().iter().find(|r| r.name == "query").unwrap();
        assert_eq!(query.inclusive_ns, 100);
        assert_eq!(query.exclusive_ns, 40);
        assert_eq!(query.children.len(), 1);
        assert_eq!(query.children[0].inclusive_ns, 60);
        // The worker's solve is attributed under job, not merged into
        // query's child: paths are rooted per track.
        let job = report.roots().iter().find(|r| r.name == "job").unwrap();
        assert_eq!(job.children[0].oracle_calls, 1);
        // JSON form parses with the in-repo parser.
        let parsed = crate::json::parse(&report.to_json().render()).unwrap();
        assert_eq!(parsed.as_arr().unwrap().len(), 2);
        // Rendered table has the header and all four span rows.
        let table = report.render(0);
        assert!(table.contains("calls"));
        assert_eq!(table.lines().count(), 5);
        // --top 0-style elision: one child per node max.
        let top = report.render(1);
        assert!(top.contains("… 1 more"));
    }

    #[test]
    fn report_ignores_unbalanced_tails() {
        let mut events = two_track_stream();
        events.push(ev(0, 5, enter("dangling", 200)));
        let report = TraceReport::build(&events);
        assert_eq!(report.calls_of("dangling"), 0);
        assert!(report.is_monotone());
    }
}
