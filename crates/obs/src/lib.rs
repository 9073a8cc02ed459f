//! `ddb-obs` — zero-dependency observability for the disjunctive-database
//! workspace.
//!
//! Eiter & Gottlob's complexity tables (PODS 1993) classify each
//! (semantics, problem) pair by its position in the polynomial hierarchy,
//! and the operational signature of those classes in this engine is *how
//! many NP-oracle (SAT) calls* each decision procedure makes. This crate is
//! the single instrumentation contract the rest of the workspace reports
//! against:
//!
//! - **Counters** ([`counter_add`], [`counter_max`], their thread-buffered
//!   hot-path twins [`counter_bump`] and [`counter_bump_max`],
//!   [`snapshot`]) — named monotonic totals and high-water gauges, e.g.
//!   `sat.solves`, `models.circ.candidates`, `sat.clauses.peak`.
//! - **Histograms** ([`hist_record`], [`hist_snapshot`]) — log-bucketed
//!   latency/size distributions (~2 significant digits), e.g.
//!   `sat.solve.ns`, `cegar.round.ns`, `pool.job.ns`, with p50/p90/p99
//!   readouts.
//! - **Spans** ([`span()`], [`time`]) — RAII-guarded hierarchical timing for
//!   decision procedures, e.g. `gcwa.infers_literal`. Each span contributes
//!   `span.<name>.calls` and `span.<name>.ns` counters.
//! - **Sink & traces** ([`set_sink`], [`MemorySink`], [`chrome_trace`],
//!   [`folded_stacks`], [`TraceReport`]) — an optional structured event
//!   stream ([`TraceEvent`]: thread id + per-thread ordinal + event),
//!   buffered per thread, with Chrome trace-event and flamegraph
//!   exporters and an aggregated span-tree report.
//! - **JSON** ([`json::Json`], [`json::parse`]) — a hand-rolled writer and
//!   parser so traces and metrics serialize with no external crates.
//! - **Budget** ([`budget::Budget`], [`budget::checkpoint`]) — resource
//!   governance: deadlines, conflict/oracle/model caps, cooperative
//!   cancellation, and deterministic fault injection, surfacing as typed
//!   [`budget::Interrupted`] errors instead of hangs or panics.
//!
//! The taxonomy of counter and span names, and the mapping from observed
//! oracle-call patterns back to the paper's complexity classes, is
//! documented in `docs/OBSERVABILITY.md`.
//!
//! # Example
//!
//! ```
//! let before = ddb_obs::snapshot();
//! {
//!     let _outer = ddb_obs::span("example.outer");
//!     ddb_obs::counter_add("example.oracle_calls", 3);
//! }
//! let spent = ddb_obs::snapshot().diff(&before);
//! assert_eq!(spent.get("example.oracle_calls"), 3);
//! assert_eq!(spent.get("span.example.outer.calls"), 1);
//! ```

pub mod budget;
pub mod counters;
pub mod histogram;
pub mod json;
pub mod pool;
pub mod sink;
pub mod span;
pub mod trace;

pub use budget::{
    Budget, BudgetGuard, BudgetHandle, Consumed, Governed, HandleGuard, Interrupted, Resource,
};
pub use counters::{
    counter_add, counter_bump, counter_bump_max, counter_max, counter_value, flush_thread_counters,
    reset_counters, snapshot, thread_counter_total, CounterSnapshot,
};
pub use histogram::{
    flush_thread_histograms, hist_record, hist_snapshot, reset_histograms, Histogram,
    HistogramSnapshot,
};
pub use pool::run_indexed;
pub use sink::{check_span_nesting, clear_sink, set_sink, Event, MemorySink, Sink, TraceEvent};
pub use span::{current_depth, hist_span, now_ns, span, time, HistSpanGuard, SpanGuard};
pub use trace::{
    check_track_nesting, chrome_trace, flush_thread_events, folded_stacks, trace_thread_id,
    TraceReport, TreeNode,
};
