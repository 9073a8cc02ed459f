//! `bench_serve` — the end-to-end and per-layer benchmark of `ddb serve`.
//!
//! A run serves several rounds. Each starts an in-process
//! `ddb_serve::Server` on loopback with a generated catalog loaded through
//! `load_source`, and drives it with two closed-loop clients replaying
//! seeded passes of request frames. End-to-end metrics come from the best
//! round. Per-layer metrics come from the server's histograms, from
//! counters gained while answering each frame in-process, and from an
//! in-process replay that times each public call a request crosses.
//! Every served answer is checked against an in-process reference. See
//! `README.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod report;
pub mod run;
pub mod stats;
pub mod workload;
