//! Minimal and ⟨P;Z⟩-minimal models.
//!
//! The coNP subproblem "is M a (⟨P;Z⟩-)minimal model of DB?" is a single
//! SAT call ([`shrink_step`] finding a strictly smaller model, or failing).
//! Minimization ([`minimize`]) is the classical shrink loop: at most `|P|`
//! oracle calls, each strictly decreasing `|M ∩ P|`. Enumeration
//! ([`minimal_models`], [`pz_minimal_models`]) is the minimal-model
//! [`walk`]; each round emits a *new* minimal signature, so the total
//! oracle bill is `O(#minimal-models · |V|)` — exponential only when the
//! answer itself is.

use crate::classical::project;
use crate::walk::walk;
use crate::{Cost, Partition};
use ddb_logic::cnf::database_to_cnf;
use ddb_logic::{Database, Interpretation, Literal};
use ddb_obs::{Governed, Interrupted};
use ddb_sat::Solver;

/// An incremental ⟨P;Z⟩-minimizer: one CDCL solver shared across shrink
/// steps (and across candidates, when held by a CEGAR loop), with the
/// per-step constraints expressed as assumptions plus activation-literal
/// clauses. Compared to building a fresh solver per step this keeps the
/// learnt clauses, which the `minimization: incremental vs fresh` ablation
/// bench quantifies.
///
/// Per step: the `Q`-part and the excluded `P`-atoms become assumptions;
/// the "drop at least one `P`-atom of `M`" disjunction is added once as a
/// clause guarded by a fresh activation variable that is assumed in this
/// step and asserted false right after it, retiring the clause.
pub struct Minimizer {
    solver: Solver,
    part: Partition,
    num_atoms: usize,
    next_activation: u32,
}

impl Minimizer {
    /// Builds the minimizer for `db` under `part` (one CNF construction).
    pub fn new(db: &Database, part: Partition) -> Self {
        let n = db.num_atoms();
        let mut solver = Solver::from_cnf(&database_to_cnf(db));
        solver.ensure_vars(n);
        Minimizer {
            solver,
            part,
            num_atoms: n,
            next_activation: n as u32,
        }
    }

    /// The partition this minimizer works under.
    pub fn partition(&self) -> &Partition {
        &self.part
    }

    /// One shrink step (one SAT call): a model strictly below `m`, or
    /// `None` if `m` is ⟨P;Z⟩-minimal.
    pub fn shrink_step(
        &mut self,
        m: &Interpretation,
        cost: &mut Cost,
    ) -> Governed<Option<Interpretation>> {
        let mut flip: Vec<Literal> = self
            .part
            .p()
            .iter()
            .filter(|&a| m.contains(a))
            .map(|a| a.neg())
            .collect();
        if flip.is_empty() {
            return Ok(None);
        }
        let act = ddb_logic::Atom::new(self.next_activation);
        self.next_activation += 1;
        self.solver.ensure_vars(self.next_activation as usize);
        flip.push(act.neg());
        self.solver.add_clause(&flip);

        let mut assumptions: Vec<Literal> = vec![act.pos()];
        for a in self.part.q().iter() {
            assumptions.push(Literal::with_sign(a, m.contains(a)));
        }
        for a in self.part.p().iter() {
            if !m.contains(a) {
                assumptions.push(a.neg());
            }
        }
        ddb_obs::counter_bump("models.minimal.shrink_steps", 1);
        let before = self.solver.stats();
        let result = self.solver.solve_with_assumptions(&assumptions);
        let after = self.solver.stats();
        cost.peak_clauses = cost.peak_clauses.max(after.max_clauses);
        cost.sat_calls += after.solves - before.solves;
        cost.decisions += after.decisions - before.decisions;
        cost.conflicts += after.conflicts - before.conflicts;
        cost.propagations += after.propagations - before.propagations;
        let shrunk = match result {
            Ok(r) if r.is_sat() => Ok(Some(project(&self.solver.model(), self.num_atoms))),
            other => other.map(|_| None),
        };
        // Retire the step's clause: with `¬act` a unit, it is satisfied for
        // good instead of lingering behind a free decision variable.
        self.solver.add_clause(&[act.neg()]);
        shrunk
    }

    /// Minimizes `m` to a ⟨P;Z⟩-minimal model below it (shrink loop).
    /// Runs under a `models.minimize` trace span; the per-call wall time
    /// lands in the `models.minimize.ns` histogram.
    pub fn minimize(&mut self, m: &Interpretation, cost: &mut Cost) -> Governed<Interpretation> {
        let _t = ddb_obs::hist_span("models.minimize", "models.minimize.ns");
        let mut current = m.clone();
        while let Some(smaller) = self.shrink_step(&current, cost)? {
            debug_assert!(self.part.lt(&smaller, &current));
            current = smaller;
        }
        Ok(current)
    }
}

/// One ⟨P;Z⟩-shrink step: finds a model `M′ ⊨ DB` with `M′ < M` in the
/// partition preorder (same `Q`-part, strictly smaller `P`-part, free `Z`),
/// or `None` if `M` is ⟨P;Z⟩-minimal. Exactly one SAT call.
///
/// `m` must be a model of `db`.
pub fn shrink_step(
    db: &Database,
    m: &Interpretation,
    part: &Partition,
    cost: &mut Cost,
) -> Governed<Option<Interpretation>> {
    debug_assert!(db.satisfied_by(m), "shrink_step requires a model");
    ddb_obs::counter_bump("models.minimal.shrink_steps", 1);
    let n = db.num_atoms();
    let mut solver = Solver::from_cnf(&database_to_cnf(db));
    solver.ensure_vars(n);
    // Fix the Q-part, forbid P-atoms outside M, require some P-atom of M to
    // be dropped. Z is unconstrained.
    let mut flip: Vec<Literal> = Vec::new();
    for a in part.q().iter() {
        solver.add_clause(&[Literal::with_sign(a, m.contains(a))]);
    }
    for a in part.p().iter() {
        if m.contains(a) {
            flip.push(a.neg());
        } else {
            solver.add_clause(&[a.neg()]);
        }
    }
    if flip.is_empty() {
        // M ∩ P = ∅: nothing to shrink; M is trivially ⟨P;Z⟩-minimal.
        return Ok(None);
    }
    solver.add_clause(&flip);
    let solved = solver.solve();
    cost.absorb(&solver);
    let sat = solved?.is_sat();
    Ok(sat.then(|| project(&solver.model(), n)))
}

/// Whether `m` is a ⟨P;Z⟩-minimal model of `db` (model check + one oracle
/// call).
pub fn is_pz_minimal_model(
    db: &Database,
    m: &Interpretation,
    part: &Partition,
    cost: &mut Cost,
) -> Governed<bool> {
    ddb_obs::counter_bump("models.minimal.checks", 1);
    Ok(db.satisfied_by(m) && shrink_step(db, m, part, cost)?.is_none())
}

/// Whether `m` is a (subset-)minimal model of `db`.
pub fn is_minimal_model(db: &Database, m: &Interpretation, cost: &mut Cost) -> Governed<bool> {
    is_pz_minimal_model(db, m, &Partition::minimize_all(db.num_atoms()), cost)
}

/// Minimizes a model to a ⟨P;Z⟩-minimal model below it (shrink loop,
/// ≤ `|P|+1` oracle calls, one incremental solver).
pub fn pz_minimize(
    db: &Database,
    m: &Interpretation,
    part: &Partition,
    cost: &mut Cost,
) -> Governed<Interpretation> {
    Minimizer::new(db, part.clone()).minimize(m, cost)
}

/// Like [`pz_minimize`] but rebuilding a fresh solver for every shrink
/// step — kept as the ablation baseline for the incremental
/// [`Minimizer`].
pub fn pz_minimize_fresh(
    db: &Database,
    m: &Interpretation,
    part: &Partition,
    cost: &mut Cost,
) -> Governed<Interpretation> {
    let mut current = m.clone();
    while let Some(smaller) = shrink_step(db, &current, part, cost)? {
        debug_assert!(part.lt(&smaller, &current), "shrink must strictly descend");
        current = smaller;
    }
    Ok(current)
}

/// Minimizes a model to a subset-minimal model below it.
pub fn minimize(db: &Database, m: &Interpretation, cost: &mut Cost) -> Governed<Interpretation> {
    pz_minimize(db, m, &Partition::minimize_all(db.num_atoms()), cost)
}

/// Finds some minimal model of `db`, or `None` if unsatisfiable.
pub fn some_minimal_model(db: &Database, cost: &mut Cost) -> Governed<Option<Interpretation>> {
    match crate::classical::some_model(db, cost)? {
        Some(m) => Ok(Some(minimize(db, &m, cost)?)),
        None => Ok(None),
    }
}

/// Enumerates all (subset-)minimal models `MM(DB)`, sorted.
///
/// ```
/// use ddb_logic::parse::parse_program;
/// use ddb_models::{minimal, Cost};
/// let db = parse_program("a | b. c :- a.").unwrap();
/// let mut cost = Cost::new();
/// let mm = minimal::minimal_models(&db, &mut cost)?;
/// assert_eq!(mm.len(), 2); // {a,c} and {b}
/// for m in &mm {
///     assert!(minimal::is_minimal_model(&db, m, &mut cost)?);
/// }
/// # Ok::<(), ddb_obs::Interrupted>(())
/// ```
///
/// One [`walk`] over `DB` with no check: each round yields a new minimal
/// model and blocks its supersets.
pub fn minimal_models(db: &Database, cost: &mut Cost) -> Governed<Vec<Interpretation>> {
    let (out, interrupted) = minimal_models_partial(db, cost);
    match interrupted {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

/// Like [`minimal_models`], but an exhausted budget yields the models
/// verified before the trip instead of discarding them. Every returned
/// interpretation is a genuine minimal model — the walk only visits fully
/// minimized candidates — the set is just not known to be complete unless
/// the second component is `None`.
pub fn minimal_models_partial(
    db: &Database,
    cost: &mut Cost,
) -> (Vec<Interpretation>, Option<Interrupted>) {
    let _span = ddb_obs::span("models.minimal.enumerate");
    let part = Partition::minimize_all(db.num_atoms());
    let mut out = Vec::new();
    let walked = walk(
        db,
        &part,
        None,
        cost,
        |_, _| Ok(true),
        |m| {
            out.push(m.clone());
            true
        },
    );
    out.sort();
    let interrupted = walked
        .err()
        .map(|e| e.with_partial(format!("{} minimal model(s) found", out.len())));
    (out, interrupted)
}

/// Enumerates all ⟨P;Z⟩-minimal models `MM(DB; P; Z)`, sorted.
///
/// The [`walk`] yields the minimal *⟨P,Q⟩-signatures* (minimality depends
/// only on the `P`- and `Q`-parts); an `Expander` turns each into all of
/// its `Z`-completions that are models. Exponential in the worst case —
/// the callers that only need *inference* use the walk with the query
/// instead ([`crate::circumscribe`]).
pub fn pz_minimal_models(
    db: &Database,
    part: &Partition,
    cost: &mut Cost,
) -> Governed<Vec<Interpretation>> {
    completions(db, part, cost, |_, _| Ok(true))
}

/// Like [`pz_minimal_models`] but rebuilding a fresh expander solver for
/// every signature — kept as the ablation baseline the incremental
/// `Expander` is measured against (the `minimization: incremental vs
/// fresh` family of benches, and the oracle-count non-regression test).
pub fn pz_minimal_models_fresh(
    db: &Database,
    part: &Partition,
    cost: &mut Cost,
) -> Governed<Vec<Interpretation>> {
    let mut expansion = Cost::new();
    let out = completions_with(
        db,
        part,
        cost,
        |_, _| Ok(true),
        |s, out| {
            let mut expander = Expander::new(db, part.clone());
            let expanded = expander.expand(s, out);
            expansion.absorb(&expander.solver);
            expanded
        },
    );
    cost.merge(&expansion);
    out
}

/// The models of `db` in the signatures the [`walk`] visits under `part`
/// (those passing `check`), sorted: each signature expands to its
/// `Z`-completions through one `Expander`.
pub fn completions(
    db: &Database,
    part: &Partition,
    cost: &mut Cost,
    check: impl FnMut(&Interpretation, &mut Cost) -> Governed<bool>,
) -> Governed<Vec<Interpretation>> {
    let mut expander = None;
    let out = completions_with(db, part, cost, check, |s, out| {
        let expander = expander.get_or_insert_with(|| Expander::new(db, part.clone()));
        expander.expand(s, out)
    });
    if let Some(e) = &expander {
        cost.absorb(&e.solver);
    }
    out
}

/// [`completions`] with the expansion step as a parameter. With `Z = ∅` a
/// signature is its own only completion, and `expand` is not called.
fn completions_with(
    db: &Database,
    part: &Partition,
    cost: &mut Cost,
    check: impl FnMut(&Interpretation, &mut Cost) -> Governed<bool>,
    mut expand: impl FnMut(&Interpretation, &mut Vec<Interpretation>) -> Governed<()>,
) -> Governed<Vec<Interpretation>> {
    let _span = ddb_obs::span("models.minimal.enumerate_pz");
    let mut out = Vec::new();
    let mut failed = None;
    let walked = walk(db, part, None, cost, check, |s| {
        if part.z().is_empty_set() {
            out.push(s.clone());
            return true;
        }
        expand(s, &mut out).map_err(|e| failed = Some(e)).is_ok()
    });
    walked
        .and(failed.map_or(Ok(()), Err))
        .map_err(|e| e.with_partial(format!("{} ⟨P;Z⟩-minimal model(s) found", out.len())))?;
    out.sort();
    Ok(out)
}

/// Expands ⟨P,Q⟩-signatures into their `Z`-completions: the models of
/// `DB` that agree with the signature on `P ∪ Q`. One incremental solver
/// serves every signature: the clauses fixing a signature — and its
/// `Z`-blocking clauses — are guarded by an activation literal assumed
/// only while that signature expands and retired after, so later
/// signatures inherit every learnt clause (same trick as [`Minimizer`]).
struct Expander {
    solver: Solver,
    part: Partition,
    num_atoms: usize,
}

impl Expander {
    /// Builds the expander for `db` under `part` (one CNF construction).
    fn new(db: &Database, part: Partition) -> Self {
        let n = db.num_atoms();
        let mut solver = Solver::from_cnf(&database_to_cnf(db));
        solver.ensure_vars(n);
        Expander {
            solver,
            part,
            num_atoms: n,
        }
    }

    /// Pushes every `Z`-completion of `signature` (a model of `DB`) to
    /// `out`, one SAT call each plus one to find there are no more.
    fn expand(
        &mut self,
        signature: &Interpretation,
        out: &mut Vec<Interpretation>,
    ) -> Governed<()> {
        let act = ddb_logic::Atom::new(self.solver.num_vars() as u32);
        self.solver.ensure_vars(act.index() + 1);
        for a in self.part.p().iter().chain(self.part.q().iter()) {
            let fixed = Literal::with_sign(a, signature.contains(a));
            self.solver.add_clause(&[act.neg(), fixed]);
        }
        let expanded = loop {
            // Propagation-only exhaustion check first: where a fresh
            // solver detects "no further completion" via level-0 units,
            // the guarded encoding shows the same conflict under the
            // assumption — caught here without a counted oracle call.
            if self.solver.refuted_by_propagation(&[act.pos()]) {
                break Ok(());
            }
            match self.solver.solve_with_assumptions(&[act.pos()]) {
                Ok(r) if r.is_sat() => {}
                done => break done.map(drop),
            }
            let model = project(&self.solver.model(), self.num_atoms);
            let mut blocking: Vec<Literal> = self
                .part
                .z()
                .iter()
                .map(|a| Literal::with_sign(a, !model.contains(a)))
                .collect();
            out.push(model);
            blocking.push(act.neg());
            if !self.solver.add_clause(&blocking) {
                break Ok(());
            }
        };
        self.solver.add_clause(&[act.neg()]);
        expanded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddb_logic::parse::parse_program;
    use ddb_logic::Atom;

    fn interp(n: usize, atoms: &[u32]) -> Interpretation {
        Interpretation::from_atoms(n, atoms.iter().map(|&i| Atom::new(i)))
    }

    #[test]
    fn minimal_models_of_disjunction() {
        let db = parse_program("a | b.").unwrap();
        let mut cost = Cost::new();
        let mm = minimal_models(&db, &mut cost).unwrap();
        assert_eq!(mm, vec![interp(2, &[0]), interp(2, &[1])]);
    }

    #[test]
    fn minimize_reaches_a_minimal_model() {
        let db = parse_program("a | b. c :- a.").unwrap();
        let mut cost = Cost::new();
        let full = interp(3, &[0, 1, 2]);
        assert!(db.satisfied_by(&full));
        let m = minimize(&db, &full, &mut cost).unwrap();
        assert!(is_minimal_model(&db, &m, &mut cost).unwrap());
        assert!(m.is_subset(&full));
    }

    #[test]
    fn is_minimal_rejects_non_models_and_non_minimal() {
        let db = parse_program("a | b.").unwrap();
        let mut cost = Cost::new();
        assert!(!is_minimal_model(&db, &interp(2, &[]), &mut cost).unwrap()); // not a model
        assert!(!is_minimal_model(&db, &interp(2, &[0, 1]), &mut cost).unwrap()); // not minimal
        assert!(is_minimal_model(&db, &interp(2, &[0]), &mut cost).unwrap());
    }

    #[test]
    fn empty_db_has_empty_minimal_model() {
        let db = parse_program("a :- b.").unwrap();
        let mut cost = Cost::new();
        let mm = minimal_models(&db, &mut cost).unwrap();
        assert_eq!(mm, vec![interp(2, &[])]);
    }

    #[test]
    fn unsat_db_has_no_minimal_models() {
        let db = parse_program("a. :- a.").unwrap();
        let mut cost = Cost::new();
        assert!(minimal_models(&db, &mut cost).unwrap().is_empty());
        assert!(some_minimal_model(&db, &mut cost).unwrap().is_none());
    }

    #[test]
    fn integrity_clauses_shape_minimal_models() {
        // a ∨ b, ← a: only {b} is minimal.
        let db = parse_program("a | b. :- a.").unwrap();
        let mut cost = Cost::new();
        let mm = minimal_models(&db, &mut cost).unwrap();
        assert_eq!(mm, vec![interp(2, &[1])]);
    }

    #[test]
    fn facts_force_atoms() {
        let db = parse_program("a. b | c :- a.").unwrap();
        let mut cost = Cost::new();
        let mm = minimal_models(&db, &mut cost).unwrap();
        assert_eq!(mm.len(), 2);
        for m in &mm {
            assert!(m.contains(Atom::new(0)));
            assert_eq!(m.count(), 2);
        }
    }

    #[test]
    fn pz_minimality_with_fixed_and_varying() {
        // Vocabulary a(P), b(Q), c(Z); DB: a ∨ b ∨ c.
        let db = parse_program("a | b | c.").unwrap();
        let syms = db.symbols();
        let part = Partition::from_p_q(3, [syms.lookup("a").unwrap()], [syms.lookup("b").unwrap()]);
        let mut cost = Cost::new();
        // {a} with Q-part ∅: {c} has same Q-part, smaller P-part → not minimal.
        assert!(!is_pz_minimal_model(&db, &interp(3, &[0]), &part, &mut cost).unwrap());
        // {c}: P-part empty → minimal.
        assert!(is_pz_minimal_model(&db, &interp(3, &[2]), &part, &mut cost).unwrap());
        // {b}: P-part empty → minimal (Q fixed at {b}).
        assert!(is_pz_minimal_model(&db, &interp(3, &[1]), &part, &mut cost).unwrap());
    }

    #[test]
    fn pz_minimal_models_enumeration_matches_definition() {
        let db = parse_program("a | b | c. c :- a.").unwrap();
        let syms = db.symbols();
        let part = Partition::from_p_q(3, [syms.lookup("a").unwrap()], [syms.lookup("b").unwrap()]);
        let mut cost = Cost::new();
        let got = pz_minimal_models(&db, &part, &mut cost).unwrap();
        // Reference: filter all models by pairwise lt.
        let all = crate::classical::all_models(&db, &mut cost).unwrap();
        let expected: Vec<Interpretation> = all
            .iter()
            .filter(|m| !all.iter().any(|m2| part.lt(m2, m)))
            .cloned()
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn incremental_minimizer_reaches_minimal_models() {
        let db = parse_program("a | b. b | c. d :- a, c. e | f :- d.").unwrap();
        let part = Partition::minimize_all(db.num_atoms());
        let mut minimizer = Minimizer::new(&db, part.clone());
        let mut cost = Cost::new();
        // From several starting models, the incremental minimizer must
        // land on a minimal model below the start — sharing one solver
        // across all calls.
        let full = Interpretation::full(db.num_atoms());
        for start in [full.clone(), interp(6, &[0, 2, 3, 4]), interp(6, &[1, 2])] {
            if !db.satisfied_by(&start) {
                continue;
            }
            let m = minimizer.minimize(&start, &mut cost).unwrap();
            assert!(m.is_subset(&start));
            assert!(
                is_minimal_model(&db, &m, &mut cost).unwrap(),
                "from {start:?}"
            );
        }
        assert!(cost.sat_calls > 0);
    }

    #[test]
    fn one_minimizer_retires_every_activation() {
        use ddb_logic::rng::XorShift64Star;
        let n = 5;
        let mut rng = XorShift64Star::seed_from_u64(21);
        let mut calls = 0;
        for _ in 0..12 {
            let mut db = Database::with_fresh_atoms(n);
            for _ in 0..rng.gen_range_inclusive(1, 6) {
                let mut pick = |lo, hi| {
                    let k = rng.gen_range_inclusive(lo, hi);
                    (0..k)
                        .map(|_| Atom::new(rng.gen_range(0, n) as u32))
                        .collect::<Vec<_>>()
                };
                let (head, body) = (pick(1, 3), pick(0, 2));
                db.add_rule(ddb_logic::Rule::new(head, body, []));
            }
            let mm = crate::brute::minimal_models(&db);
            let mut minimizer = Minimizer::new(&db, Partition::minimize_all(n));
            let mut cost = Cost::new();
            for start in crate::brute::models(&db) {
                let m = minimizer.minimize(&start, &mut cost).unwrap();
                assert!(
                    mm.contains(&m) && m.is_subset(&start),
                    "{db:?} from {start:?}"
                );
                calls += 1;
            }
            for act in n as u32..minimizer.next_activation {
                let act = Atom::new(act).pos();
                assert!(minimizer.solver.refuted_by_propagation(&[act]), "{db:?}");
            }
        }
        assert!(calls >= 50, "only {calls} minimize calls");
    }

    #[test]
    fn incremental_and_fresh_agree_on_minimality() {
        // The two strategies may land on different minimal models, but
        // both results must be minimal and ≤ the start.
        let db = parse_program("a | b | c. d :- a. :- b, d.").unwrap();
        let part = Partition::minimize_all(db.num_atoms());
        let mut cost = Cost::new();
        let start = crate::classical::some_model(&db, &mut cost)
            .unwrap()
            .unwrap();
        let inc = pz_minimize(&db, &start, &part, &mut cost).unwrap();
        let fresh = pz_minimize_fresh(&db, &start, &part, &mut cost).unwrap();
        assert!(is_pz_minimal_model(&db, &inc, &part, &mut cost).unwrap());
        assert!(is_pz_minimal_model(&db, &fresh, &part, &mut cost).unwrap());
        assert!(part.le(&inc, &start) && part.le(&fresh, &start));
    }

    #[test]
    fn minimizer_with_partition_respects_q() {
        let db = parse_program("a | b | c.").unwrap();
        let syms = db.symbols();
        let part = Partition::from_p_q(3, [syms.lookup("a").unwrap()], [syms.lookup("b").unwrap()]);
        let mut minimizer = Minimizer::new(&db, part.clone());
        let mut cost = Cost::new();
        let start = interp(3, &[0, 1]); // {a, b}
        let m = minimizer.minimize(&start, &mut cost).unwrap();
        // Q-part ({b}) preserved; P-part shrunk to ∅ (c or b covers the
        // disjunction).
        assert!(m.contains(syms.lookup("b").unwrap()));
        assert!(!m.contains(syms.lookup("a").unwrap()));
        assert!(is_pz_minimal_model(&db, &m, &part, &mut cost).unwrap());
    }

    #[test]
    fn minimal_models_cost_accounted() {
        let db = parse_program("a | b.").unwrap();
        let mut cost = Cost::new();
        minimal_models(&db, &mut cost).unwrap();
        assert!(cost.sat_calls > 0);
    }
}
