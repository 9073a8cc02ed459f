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
//! - **Counters** ([`counter_bump`], [`counter_bump_max`]) — named
//!   monotonic totals and high-water gauges, e.g. `sat.solves`,
//!   `models.circ.candidates`, `sat.clauses.peak`.
//! - **Histograms** ([`hist_record`]) — log-bucketed latency/size
//!   distributions (~2 significant digits), e.g. `sat.solve.ns`,
//!   `cegar.round.ns`, with p50/p90/p99 readouts.
//! - **Spans** ([`span()`], [`hist_span`]) — RAII-guarded hierarchical
//!   timing for decision procedures, e.g. `gcwa.infers_literal`. Each span
//!   contributes `span.<name>.calls` and `span.<name>.ns` counters.
//! - **Recording** ([`record`], [`Recording`], [`snapshot`],
//!   [`hist_snapshot`]) — all of the above land in one per-thread
//!   recorder. A `record` scope returns exactly what one piece of work
//!   recorded on its thread, and optionally its trace events
//!   ([`TraceEvent`]: thread id + per-thread ordinal + event); finished
//!   scopes fold into the process registry that the snapshots read.
//! - **Traces** ([`chrome_trace`], [`folded_stacks`], [`TraceReport`]) —
//!   Chrome trace-event and flamegraph exporters and an aggregated
//!   span-tree report over a recording's events.
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
//! let (answer, recording) = ddb_obs::record(false, || {
//!     let _outer = ddb_obs::span("example.outer");
//!     ddb_obs::counter_bump("example.oracle_calls", 3);
//!     42
//! });
//! assert_eq!(answer, 42);
//! assert_eq!(recording.counters.get("example.oracle_calls"), 3);
//! assert_eq!(recording.counters.get("span.example.outer.calls"), 1);
//! ```

pub mod budget;
pub mod counters;
pub mod histogram;
pub mod json;
pub mod recorder;
pub mod span;
pub mod trace;

pub use budget::{Budget, BudgetGuard, Consumed, Governed, Interrupted, Resource};
pub use counters::CounterSnapshot;
pub use histogram::{Histogram, HistogramSnapshot};
pub use recorder::{
    counter_bump, counter_bump_max, flush, hist_record, hist_snapshot, record, snapshot, Recording,
};
pub use span::{hist_span, now_ns, span, HistSpanGuard, SpanGuard};
pub use trace::{
    check_track_nesting, chrome_trace, folded_stacks, Event, TraceEvent, TraceReport, TreeNode,
};
