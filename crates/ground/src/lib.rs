//! # ddb-ground — the Datalog∨ front end
//!
//! The paper analyzes *propositional* ("grounded") disjunctive databases;
//! real disjunctive deductive databases are written with variables and
//! grounded first. This crate supplies that bridge:
//!
//! * [`ast`] — non-ground syntax: constants, variables, predicate atoms,
//!   disjunctive rules with default negation and constraints;
//! * [`parse`] — a Datalog-style concrete syntax
//!   (`path(X,Y) :- edge(X,Z), path(Z,Y).`, uppercase = variable), with
//!   the disequality builtin `X != Y` (evaluated at grounding time);
//! * [`safety`] — the classical range-restriction check (every variable
//!   of a rule must occur in its positive body);
//! * [`grounder`] — the exact Herbrand instantiation and one grounding
//!   loop:
//!     * [`grounder::ground_full`] — the exact Herbrand instantiation,
//!       equivalent for **every** semantics (exponential in rule arity);
//!       the tests use it as the oracle;
//!     * the grounding loop is a semi-naive fixpoint over interned
//!       tuples: constants and `(predicate, arity)` pairs become `u32`
//!       ids, each relation's possibly-true tuples are stored flat behind
//!       a first-argument index, and each round joins the *active* rules
//!       only on bindings that use a tuple the previous round derived.
//!       Rules are deduplicated on their ground-atom ids; at the fixpoint,
//!       negated literals whose atom never became possible are dropped and
//!       the distinct rules are rendered once. [`grounder::ground_magic`] is
//!       *goal-directed* grounding for one bound query atom: a static
//!       per-predicate first-argument demand fixpoint decides which rules
//!       can reach the query, and only those are active — the
//!       grounding-side mirror of the planner's demand closure.
//!       [`grounder::ground_reduced`], DLV-style *intelligent grounding*,
//!       is the same loop with every rule active. It is sound for the
//!       supported semantics (DSM, PDSM, WFS, PWS) on all programs and for
//!       the minimal-model family on positive programs; **not** model-set
//!       preserving for classical/minimal semantics in the presence of
//!       negation (a `⊨`-minimal model may make an underivable negated
//!       atom true). The tests pin both the equivalences and the
//!       documented counterexample.
//!
//! The output is an ordinary [`ddb_logic::Database`] whose atom names are
//! the ground atoms (`edge(a,b)`), ready for any semantics in `ddb-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod grounder;
pub mod parse;
pub mod safety;

pub use ast::{DatalogProgram, DatalogRule, PredAtom, Term};
pub use grounder::{ground_full, ground_magic, ground_reduced, GroundingError};
