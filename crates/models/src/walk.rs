//! The minimal-model walk: one candidate → minimize → check → block loop.
//!
//! Every semantics the paper places in Σᵖ₂/Πᵖ₂ by "guess a model, check
//! it with an NP oracle" has its models inside some `MM(DB; P; Z)`:
//! EGCWA and ECWA are `MM` itself, DSM and PERF are subsets of `MM(DB)`,
//! PDSM is a subset of the truth-minimal models of the pair-encoded
//! database, and ICWA is a subset of `MM(DB; V∖Z; Z)`. [`walk`] visits the
//! ⟨P;Z⟩-minimal models of `DB` that pass a semantic check, optionally
//! only those satisfying an extra formula; inference, existence, witness
//! search and enumeration are all calls to it.
//!
//! One round, on one candidate solver over `DB ∧ extra` and one
//! [`Minimizer`] over `DB` alone, both held for the whole walk:
//!
//! 1. *Guess* a candidate `C ⊨ DB ∧ extra` outside every blocked cone
//!    (one SAT call; none left ends the walk).
//! 2. *Minimize* `C` within `DB` to a ⟨P;Z⟩-minimal `M ≤ C`.
//! 3. *Witness*: find a model `W ⊨ DB ∧ extra` with `M`'s
//!    ⟨P,Q⟩-signature — `M` itself without `extra`; `M` if it satisfies
//!    `extra` when `Z = ∅` (the signature is the whole model, no SAT
//!    call); `C` when it already has the signature; otherwise one SAT call
//!    on the candidate solver with the signature assumed.
//! 4. *Check* `W`, and visit it if the check passes.
//! 5. *Block* `M`'s signature cone: every model with `M`'s `Q`-part whose
//!    `P`-part contains `M`'s. With `Q = Z = ∅` this is the superset
//!    clause `⋁_{x∈M} ¬x`.
//!
//! ⟨P;Z⟩-minimality depends only on the `P`- and `Q`-parts of a model, so
//! each model with a minimal signature is ⟨P;Z⟩-minimal; and the walk is
//! exact:
//!
//! * *Every signature is new and every round ends in a block.* `C` lies
//!   outside the cones blocked so far and `M ≤ C`, so `M`'s signature `σ`
//!   is in none of them: a cone of an earlier minimal `σ′` holding `σ`
//!   would give `σ′ ≤ σ`, hence `σ′ = σ` by minimality, and then `C ≥ M`
//!   would lie in that cone too. The current `C` is always blocked, so the
//!   walk terminates after one round per minimal signature it reaches.
//! * *No witness is lost (completeness).* A ⟨P;Z⟩-minimal `X ⊨ extra`
//!   caught by the block of `σ` has `X∩Q = σ∩Q` and `X∩P ⊇ σ∩P`;
//!   minimality of both forces equality, so `X` has signature `σ`, and
//!   step 3 has just decided whether some model with `σ` satisfies
//!   `extra`. Until every such `X` is blocked, `X` itself is a candidate,
//!   so the walk reaches every minimal signature that has a model of
//!   `DB ∧ extra`.
//! * *Visited models are genuine (soundness).* `W` satisfies `DB ∧ extra`
//!   and has a minimal signature, so it is ⟨P;Z⟩-minimal.
//!
//! With `Z ≠ ∅` one witness stands for its whole signature, so a check
//! must then depend on the signature alone (ICWA's does; the circumscription
//! queries check nothing). A subset semantics `S ⊆ MM(DB; P; Z)` is walked
//! exactly by checking membership in `S`: a member is minimal, so it is
//! only ever blocked by its own signature, after its round.
//!
//! Each round is one governance checkpoint, one `cegar.round` span, one
//! [`Cost::candidates`] and one `models.circ.candidates` count, and every
//! visited model is charged to the `max_models` budget.

use crate::classical::project;
use crate::minimal::Minimizer;
use crate::{Cost, Partition};
use ddb_logic::cnf::CnfBuilder;
use ddb_logic::{Database, Formula, Interpretation, Literal};
use ddb_obs::budget::{self, Governed};
use ddb_sat::Solver;

/// Walks the ⟨P;Z⟩-minimal models of `db` under `part` that satisfy
/// `extra` (when given), one per minimal ⟨P,Q⟩-signature. `check` decides
/// whether a witness belongs to the caller's semantics; `visit` receives
/// each one that does and returns `false` to stop the walk. `Err` when the
/// installed [`ddb_obs::Budget`] trips.
///
/// ```
/// use ddb_logic::parse::{parse_formula, parse_program};
/// use ddb_models::{walk::walk, Cost, Partition};
/// let db = parse_program("a | b. c | d.").unwrap();
/// let f = parse_formula("a", db.symbols()).unwrap();
/// let part = Partition::minimize_all(db.num_atoms());
/// let mut seen = Vec::new();
/// walk(&db, &part, Some(&f), &mut Cost::new(), |_, _| Ok(true), |m| {
///     seen.push(m.clone());
///     true
/// })?;
/// assert_eq!(seen.len(), 2); // {a,c} and {a,d}
/// # Ok::<(), ddb_obs::Interrupted>(())
/// ```
pub fn walk(
    db: &Database,
    part: &Partition,
    extra: Option<&Formula>,
    cost: &mut Cost,
    mut check: impl FnMut(&Interpretation, &mut Cost) -> Governed<bool>,
    mut visit: impl FnMut(&Interpretation) -> bool,
) -> Governed<()> {
    let n = db.num_atoms();
    let mut b = CnfBuilder::new(n);
    b.add_database(db);
    if let Some(f) = extra {
        b.assert_formula(f);
    }
    let cnf = b.finish();
    let mut candidates = Solver::from_cnf(&cnf);
    candidates.ensure_vars(cnf.num_vars.max(n));
    let mut minimizer = Minimizer::new(db, part.clone());
    let signature = |m: &Interpretation| -> Vec<Literal> {
        let fixed = part.p().iter().chain(part.q().iter());
        fixed
            .map(|a| Literal::with_sign(a, m.contains(a)))
            .collect()
    };
    // `candidates` is absorbed exactly once, after the loop exits (Ok or
    // interrupted), so its statistics are never double-counted.
    let mut run = |cost: &mut Cost, candidates: &mut Solver| -> Governed<()> {
        loop {
            budget::checkpoint()?;
            let _round = ddb_obs::hist_span("cegar.round", "cegar.round.ns");
            if !candidates.solve()?.is_sat() {
                return Ok(());
            }
            cost.candidates += 1;
            ddb_obs::counter_bump("models.circ.candidates", 1);
            let c = project(&candidates.model(), n);
            let m = minimizer.minimize(&c, cost)?;
            let witness = match extra {
                None => Some(m.clone()),
                Some(f) if part.z().is_empty_set() => f.eval(&m).then(|| m.clone()),
                Some(_) if m.agrees_within(&c, part.p()) && m.agrees_within(&c, part.q()) => {
                    Some(c)
                }
                Some(_) => candidates
                    .solve_with_assumptions(&signature(&m))?
                    .is_sat()
                    .then(|| project(&candidates.model(), n)),
            };
            if let Some(w) = witness {
                if check(&w, cost)? {
                    budget::charge_model()?;
                    if !visit(&w) {
                        return Ok(());
                    }
                }
            }
            let mut blocking: Vec<Literal> = part
                .q()
                .iter()
                .map(|a| Literal::with_sign(a, !m.contains(a)))
                .collect();
            blocking.extend(part.p().iter().filter(|&a| m.contains(a)).map(|a| a.neg()));
            if blocking.is_empty() || !candidates.add_clause(&blocking) {
                return Ok(());
            }
        }
    };
    let result = run(cost, &mut candidates);
    cost.absorb(&candidates);
    result
}

/// The first model [`walk`] visits, if any: a ⟨P;Z⟩-minimal model of `db`
/// satisfying `extra` and passing `check`.
pub fn first(
    db: &Database,
    part: &Partition,
    extra: Option<&Formula>,
    cost: &mut Cost,
    check: impl FnMut(&Interpretation, &mut Cost) -> Governed<bool>,
) -> Governed<Option<Interpretation>> {
    let mut found = None;
    walk(db, part, extra, cost, check, |m| {
        found = Some(m.clone());
        false
    })?;
    Ok(found)
}
