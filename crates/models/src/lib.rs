//! # ddb-models — the model-theoretic engine
//!
//! Every semantics in the paper is characterized model-theoretically, in
//! terms of classical models `M(DB)`, minimal models `MM(DB)` and
//! ⟨P;Z⟩-minimal models `MM(DB;P;Z)` (partition ⟨P;Q;Z⟩ of the vocabulary:
//! minimize `P`, fix `Q`, let `Z` vary). This crate implements those
//! notions as *decision procedures around the SAT oracle*, mirroring the
//! upper-bound proofs of the paper:
//!
//! * [`classical`] — satisfiability, model checking and clausal entailment
//!   (the NP/coNP layer);
//! * [`minimal`] — minimal-model checking (one oracle call — the coNP
//!   subproblem), shrink-loop minimization, and minimal-model enumeration;
//! * [`walk`] — the one candidate → minimize → check → block loop that
//!   enumeration, the circumscription queries and every subset-of-`MM`
//!   semantics share; its soundness argument is spelled out in the module;
//! * [`circumscribe`] — the Πᵖ₂ workhorse: "does formula F hold in every
//!   ⟨P;Z⟩-minimal model?", a walk that stops at the first countermodel;
//! * [`fixpoint`] — the polynomial `T_DB`-based machinery for DDR/WGCWA:
//!   the *active-atom closure* (linear-time) and, as a cross-check, the
//!   explicit (worst-case exponential) fixpoint over atomic disjunctions;
//! * [`brute`] — a brute-force reference engine over all `2^|V|`
//!   interpretations, used by the test suite to validate every oracle-based
//!   procedure on small vocabularies.
//!
//! All procedures account their oracle usage in a [`Cost`], which the
//! benchmark harness reports to make the paper's oracle-bounded upper
//! bounds observable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod brute;
pub mod circumscribe;
pub mod classical;
pub mod components;
mod cost;
pub mod fixpoint;
pub mod minimal;
mod partition;
pub mod transversal;
pub mod walk;

pub use cost::Cost;
pub use partition::Partition;
