//! # ddb-bench — the experiment harness behind Tables 1 and 2
//!
//! The paper's evaluation artifacts are two complexity matrices. This
//! crate makes every cell *measurable*:
//!
//! * [`families`] — one scaling instance family per table cell (positive
//!   random databases for Table 1, integrity-clause families for Table 2,
//!   QBF-derived hard families for the Πᵖ₂/Σᵖ₂ lower bounds, Horn chains
//!   for the tractable cells, phase-transition CNFs for the NP cells);
//! * [`harness`] — measurement plumbing: timed runs with oracle-cost
//!   capture, growth-shape classification (per-doubling time ratios), and
//!   the row/cell report structures the `tables` binary prints.
//!
//! `tables` is the one place that times anything: the paper's cells, the
//! lower-bound families, and the ablations (CDCL vs DPLL, direct vs
//! census GCWA, sliced and magic routes vs generic, …).
//! Run `cargo run -p ddb-bench --bin tables --release` to regenerate the
//! paper-vs-measured report recorded in `EXPERIMENTS.md`. The counts the
//! repository commits (`BENCH_*.json`) are reproduced by the gate test
//! `tests/committed_counts.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod families;
pub mod harness;
