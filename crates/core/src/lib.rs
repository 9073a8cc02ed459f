//! # ddb-core — the ten semantics for disjunctive databases
//!
//! Executable decision procedures for every semantics studied in
//! *Complexity Aspects of Various Semantics for Disjunctive Databases*
//! (Eiter & Gottlob, PODS 1993), over the `ddb-logic`/`ddb-sat`/`ddb-models`
//! substrate:
//!
//! | module | semantics | characterization implemented |
//! |---|---|---|
//! | [`gcwa`] | Generalized CWA (Minker) | `GCWA(DB) = {M ⊨ DB : ∀x. MM(DB) ⊨ ¬x ⇒ M ⊨ ¬x}` |
//! | [`egcwa`] | Extended GCWA (Yahya & Henschen) | `EGCWA(DB) = MM(DB)` |
//! | [`ccwa`] | Careful CWA (Gelfond & Przymusinska) | GCWA relative to `MM(DB;P;Z)` |
//! | [`ecwa`] | Extended CWA ≡ circumscription | `ECWA(DB) = MM(DB;P;Z)` |
//! | [`ddr`] | Disjunctive Database Rule ≡ WGCWA | `T_DB ↑ ω` occurrence closure |
//! | [`pws`] | Possible Worlds ≡ Possible Models | least models of split programs |
//! | [`perf`] | Perfect models (Przymusinski) | priority relation + preference check |
//! | [`icwa`] | Iterated CWA | `⋂ᵢ ECWA_{Pᵢ;…}(DB₁∪…∪DBᵢ)` along a stratification |
//! | [`dsm`] | Disjunctive stable models | `M ∈ MM(DB^M)` (GL-reduct) |
//! | [`pdsm`] | Partial (3-valued) disjunctive stable models | 3-valued reduct + truth-minimal 3-valued models |
//!
//! Each module codes the paper's decision problems once — formula
//! inference as a `countermodel` search (a characteristic model
//! falsifying the formula, `None` when it is inferred; a literal is a
//! one-literal formula) and `has_model` (is the semantics non-empty for
//! `DB`?) — plus a `models` enumerator, all threading a
//! [`ddb_models::Cost`] for oracle accounting. GCWA and EGCWA are CCWA and
//! ECWA at `P = V` and run there; [`gcwa`] and [`egcwa`] hold only what
//! differs. [`gcwa`], [`ddr`] and [`pws`] also expose `infers_literal`,
//! because their literal algorithms differ from their formula ones. The
//! [`dispatch`] module gives a uniform, enum-indexed entry point for each
//! problem; it takes a plain [`ddb_logic::Database`] or a [`Prepared`]
//! one ([`AsPrepared`]), whose per-database analysis facts are computed
//! once and shared by every query against it.
//!
//! Beyond the paper's ten semantics:
//!
//! * [`cwa`] — Reiter's CWA, the baseline of §3.1;
//! * [`wfs`] — the well-founded semantics (polynomial) that PDSM extends;
//! * [`supported`] — supported models (Clark completion) for normal
//!   programs, behind the Schaerf results in the paper's related work;
//! * [`witness`] — countermodel extraction and brave inference for every
//!   semantics;
//! * [`profile`] — the observed 10×3 oracle-call matrix next to the
//!   paper's predicted complexity classes (backs `ddb profile`);
//! * [`planner`] — the bridge to the static query planner of
//!   `ddb_analysis::plan`: derives each semantics' routing traits and
//!   plan trees, so every routing decision dispatch takes is reified in
//!   one auditable structure (backs `ddb explain`);
//! * [`slicing`] — execution of the query-relevant slicing and
//!   splitting-set routes the planner decides, shrinking the database a
//!   query reasons over (backs `ddb slice` and the
//!   `route.slice*`/`route.split*` counters) and of model existence
//!   over dependency islands (`route.islands*`);
//! * [`reduct`] — the Gelfond–Lifschitz and three-valued reducts shared
//!   by DSM/PDSM/WFS.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ccwa;
pub mod cwa;
pub mod ddr;
pub mod dispatch;
pub mod dsm;
pub mod ecwa;
pub mod egcwa;
pub mod gcwa;
pub mod icwa;
pub mod pdsm;
pub mod perf;
pub mod planner;
pub mod profile;
pub mod pws;
pub mod reduct;
pub mod route;
pub mod slicing;
pub mod supported;
pub mod wfs;
pub mod witness;

pub use ddb_analysis::{AsPrepared, Prepared};
pub use dispatch::{
    infers_formulas_batch, Enumeration, RoutingMode, SemanticsConfig, SemanticsId, Unsupported,
    Verdict,
};
