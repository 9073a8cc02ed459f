//! # disjunctive-db
//!
//! Executable semantics for propositional disjunctive databases — a full
//! implementation of the systems studied in *Complexity Aspects of Various
//! Semantics for Disjunctive Databases* (Thomas Eiter & Georg Gottlob,
//! PODS 1993): GCWA, EGCWA, CCWA, ECWA/CIRC, DDR/WGCWA, PWS/PMS, PERF,
//! ICWA, DSM and PDSM, with the paper's three decision problems (literal
//! inference, formula inference, model existence) for each, over a
//! from-scratch SAT + minimal-model substrate.
//!
//! ## Quick start
//!
//! ```
//! use disjunctive_db::prelude::*;
//!
//! // A disjunctive database: someone broke the vase.
//! let db = parse_program(
//!     "alice | bob. grounded :- alice. grounded :- bob. treat :- alice, bob.",
//! ).unwrap();
//!
//! let mut cost = Cost::new();
//! // Under GCWA, `treat` is closed off (false in every minimal model)…
//! let treat = db.symbols().lookup("treat").unwrap();
//! assert!(gcwa::infers_literal(&db, treat.neg(), &mut cost).unwrap());
//! // …while `grounded` holds in every minimal model:
//! let grounded = parse_formula("grounded", db.symbols()).unwrap();
//! let egcwa = SemanticsConfig::new(SemanticsId::Egcwa);
//! assert!(egcwa.infers_formula(&db, &grounded, &mut cost).unwrap().definite());
//! // The weaker DDR does not close `treat` (it occurs in T↑ω):
//! assert!(!ddr::infers_literal(&db, treat.neg(), &mut cost).unwrap());
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`logic`] | atoms, rules, databases, formulas, interpretations, parser |
//! | [`sat`] | CDCL + DPLL SAT solvers (the NP oracle) |
//! | [`models`] | classical/minimal/⟨P;Z⟩-minimal model engine, CEGAR inference, fixpoints |
//! | [`core`] | the ten semantics + uniform dispatch |
//! | [`reductions`] | 2QBF, UMINSAT, and the executable hardness reductions |
//! | [`workloads`] | deterministic instance generators |
//! | [`ground`] | Datalog∨ front end: variables, safety, grounding |
//! | [`analysis`] | static analysis: dependency graph, fragment classifier, lints |
//! | [`obs`] | zero-dependency observability: counters, spans, trace events, `record` scopes, JSON |
//! | [`serve`] | fault-tolerant multi-tenant query server + chaos harness |
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every Table 1/Table 2 cell.

#![forbid(unsafe_code)]

pub use ddb_analysis as analysis;
pub use ddb_core as core;
pub use ddb_ground as ground;
pub use ddb_logic as logic;
pub use ddb_models as models;
pub use ddb_obs as obs;
pub use ddb_reductions as reductions;
pub use ddb_sat as sat;
pub use ddb_serve as serve;
pub use ddb_workloads as workloads;

/// One-stop imports for applications.
pub mod prelude {
    pub use ddb_core::{
        ccwa, ddr, dsm, ecwa, egcwa, gcwa, icwa, pdsm, perf, pws, Enumeration, SemanticsConfig,
        SemanticsId, Verdict,
    };
    pub use ddb_logic::parse::{
        display_database, display_formula, display_rule, parse_formula, parse_literal,
        parse_program, parse_query,
    };
    pub use ddb_logic::{
        Atom, Database, DbClass, Formula, Interpretation, Literal, PartialInterpretation, Rule,
        Symbols, TruthValue,
    };
    pub use ddb_models::{Cost, Partition};
    pub use ddb_obs::{Budget, Governed, Interrupted};
}
