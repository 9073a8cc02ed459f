//! Fixpoint machinery for the Disjunctive Database Rule (DDR / WGCWA).
//!
//! Ross & Topor's DDR adds `¬x` for every atom `x` that does not occur in
//! `T_DB ↑ ω`, the least fixpoint of the disjunctive consequence operator
//! over *model states* (sets of atomic disjunctions). Two implementations:
//!
//! * [`active_atoms`] — the polynomial-time closure that computes exactly
//!   the set of atoms occurring in `T_DB ↑ ω` *without* materializing the
//!   disjunctions. An atom is **active** iff it appears in the head of a
//!   (non-integrity) rule whose positive body atoms are all active. The
//!   equivalence with "occurs in `T_DB ↑ ω`" is proved by a two-way
//!   induction (see the function docs) and cross-checked in tests against
//!   the explicit fixpoint. This procedure is the reason DDR literal
//!   inference on positive databases is **in P** (Chan) — the only
//!   tractable cells of Table 1.
//! * [`model_state`] — the explicit (worst-case exponential) fixpoint over
//!   disjunctions with subsumption, kept as an executable specification.

use ddb_logic::{Atom, Database, Interpretation};
use ddb_obs::budget::{self, Governed};

/// Computes the atoms occurring in `T_DB ↑ ω` in time `O(Σ rule sizes)`.
///
/// Correctness: let `A` be the least set closed under "head atoms of a rule
/// whose positive body lies in `A` are in `A`".
///
/// * (`A` ⊆ atoms of `T↑ω`) If every body atom `bᵢ` of a rule occurs in
///   some derivable disjunction `Cᵢ`, hyperresolving the rule against
///   `C₁ … Cₖ` derives `head ∨ ⋁ᵢ(Cᵢ∖{bᵢ})`, in which every head atom
///   occurs.
/// * (atoms of `T↑ω` ⊆ `A`) By induction on the derivation of a
///   disjunction `D`: `D = head ∨ ⋁ᵢ(Cᵢ∖{bᵢ})` with each `Cᵢ` derivable;
///   by induction every atom of each `Cᵢ` is in `A`, in particular each
///   `bᵢ`, hence the head atoms are in `A`; the remaining atoms of `D` come
///   from the `Cᵢ` and are in `A` already.
///
/// Rules with negated body atoms are not part of the DDR fixpoint (DDR is
/// a semantics for *deductive* databases, `DB ⊆ C⁺`); this function panics
/// if it meets one. Integrity clauses are skipped — they have no head to
/// derive (Chan's Example 3.1 shows DDR deliberately ignores them).
///
/// The closure itself is [`Database::positive_closure`], the one worklist
/// implementation shared with the analyzer's supportable-atom fixpoint.
pub fn active_atoms(db: &Database) -> Interpretation {
    assert!(
        !db.has_negation(),
        "the DDR fixpoint is defined for databases without negation"
    );
    db.positive_closure()
}

/// One step of an activation proof: `atom` is activated by rule
/// `rule_index`, whose positive body atoms were all activated by earlier
/// steps.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProofStep {
    /// The newly activated atom (a member of the rule's head).
    pub atom: Atom,
    /// Index into `db.rules()` of the activating rule.
    pub rule_index: usize,
    /// The rule's positive body (all proved by earlier steps).
    pub body: Vec<Atom>,
}

/// Produces a checkable proof that `target` occurs in `T_DB ↑ ω` — a
/// sequence of [`ProofStep`]s in dependency order ending with `target` —
/// or `None` if the atom is inactive (i.e. DDR infers its negation).
///
/// The proof certifies the hyperresolution derivation sketched in
/// [`active_atoms`]'s correctness argument; `verify_proof` (used by the
/// tests) replays it independently.
pub fn activation_proof(db: &Database, target: Atom) -> Option<Vec<ProofStep>> {
    assert!(
        !db.has_negation(),
        "the DDR fixpoint is defined for databases without negation"
    );
    let n = db.num_atoms();
    // Forward pass: record, for each atom, the rule that first activates
    // it.
    let mut activator: Vec<Option<usize>> = vec![None; n];
    let mut active = Interpretation::empty(n);
    loop {
        let mut changed = false;
        for (ri, rule) in db.rules().iter().enumerate() {
            if rule.is_integrity() || !rule.body_pos().iter().all(|&b| active.contains(b)) {
                continue;
            }
            for &h in rule.head() {
                if !active.contains(h) {
                    active.insert(h);
                    activator[h.index()] = Some(ri);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    if !active.contains(target) {
        return None;
    }
    // Backward pass: collect the needed steps, then order by dependency
    // (DFS post-order over the activator graph — acyclic because each
    // atom's activating rule only uses atoms activated strictly earlier
    // in the forward pass... not exactly: within one sweep a rule can use
    // atoms activated the same round. Use recursion with a visited set —
    // the activator assignment is well-founded by construction of the
    // first-activation order).
    let mut steps: Vec<ProofStep> = Vec::new();
    let mut done = Interpretation::empty(n);
    let mut stack: Vec<(Atom, bool)> = vec![(target, false)];
    let mut in_progress = Interpretation::empty(n);
    while let Some((a, expanded)) = stack.pop() {
        if done.contains(a) {
            continue;
        }
        let ri = activator[a.index()].expect("active atoms have activators");
        if expanded {
            done.insert(a);
            steps.push(ProofStep {
                atom: a,
                rule_index: ri,
                body: db.rules()[ri].body_pos().to_vec(),
            });
            continue;
        }
        if in_progress.contains(a) {
            // Already queued for completion via another parent (diamond
            // dependency): its `(a, true)` entry is on the stack.
            continue;
        }
        in_progress.insert(a);
        stack.push((a, true));
        for &b in db.rules()[ri].body_pos() {
            if !done.contains(b) {
                stack.push((b, false));
            }
        }
    }
    Some(steps)
}

/// Replays an activation proof independently: every step's rule must
/// carry the atom in its head and have its body established by earlier
/// steps; the last step must prove `target`.
pub fn verify_proof(db: &Database, target: Atom, proof: &[ProofStep]) -> bool {
    let mut established = Interpretation::empty(db.num_atoms());
    for step in proof {
        let Some(rule) = db.rules().get(step.rule_index) else {
            return false;
        };
        if rule.is_integrity() || !rule.head().contains(&step.atom) {
            return false;
        }
        if rule.body_pos() != step.body.as_slice() {
            return false;
        }
        if !step.body.iter().all(|&b| established.contains(b)) {
            return false;
        }
        established.insert(step.atom);
    }
    established.contains(target)
}

/// A derivable atomic disjunction (sorted, deduplicated atom list).
pub type Disjunction = Vec<Atom>;

/// Explicitly computes the model state `T_DB ↑ ω`: *all* derivable atomic
/// disjunctions (deduplicated, **not** subsumption-reduced — DDR's
/// negation rule asks whether an atom occurs in *any* derivable
/// disjunction, and a subsumed disjunction still witnesses occurrence;
/// this is exactly what makes Chan's Example 3.1 tick, where the subsumed
/// `c ∨ a ∨ b` keeps `c` occurring although the integrity clause makes `c`
/// unsatisfiable). Worst-case exponential; enumeration stops and returns
/// `Ok(None)` if more than `cap` disjunctions would be kept, and `Err`
/// when the installed [`ddb_obs::Budget`] trips — each kept disjunction
/// is one governance checkpoint. Used as an executable specification to
/// validate [`active_atoms`], and by the DDR ablation bench.
pub fn model_state(db: &Database, cap: usize) -> Governed<Option<Vec<Disjunction>>> {
    assert!(
        !db.has_negation(),
        "the DDR fixpoint is defined for databases without negation"
    );
    let mut state: Vec<Disjunction> = Vec::new();
    loop {
        let mut new_any = false;
        let mut derived: Vec<Disjunction> = Vec::new();
        for rule in db.rules() {
            if rule.is_integrity() {
                continue;
            }
            // Choose, for each body atom, a disjunction containing it.
            let choices: Vec<Vec<usize>> = rule
                .body_pos()
                .iter()
                .map(|&b| {
                    (0..state.len())
                        .filter(|&i| state[i].binary_search(&b).is_ok())
                        .collect::<Vec<usize>>()
                })
                .collect();
            if choices.iter().any(Vec::is_empty) {
                continue;
            }
            // Cartesian product over choices.
            let mut indices = vec![0usize; choices.len()];
            loop {
                let mut d: Disjunction = rule.head().to_vec();
                for (slot, &which) in indices.iter().enumerate() {
                    let b = rule.body_pos()[slot];
                    for &a in &state[choices[slot][which]] {
                        if a != b {
                            d.push(a);
                        }
                    }
                }
                d.sort_unstable();
                d.dedup();
                derived.push(d);
                // Advance the odometer.
                let mut slot = 0;
                loop {
                    if slot == indices.len() {
                        break;
                    }
                    indices[slot] += 1;
                    if indices[slot] < choices[slot].len() {
                        break;
                    }
                    indices[slot] = 0;
                    slot += 1;
                }
                if slot == indices.len() {
                    break;
                }
            }
        }
        for d in derived {
            if state.contains(&d) {
                continue;
            }
            budget::checkpoint()
                .map_err(|e| e.with_partial(format!("{} disjunction(s) derived", state.len())))?;
            state.push(d);
            new_any = true;
            if state.len() > cap {
                return Ok(None);
            }
        }
        if !new_any {
            break;
        }
    }
    state.sort();
    Ok(Some(state))
}

/// The atoms occurring in a model state.
pub fn atoms_of_state(state: &[Disjunction], num_atoms: usize) -> Interpretation {
    let mut out = Interpretation::empty(num_atoms);
    for d in state {
        for &a in d {
            out.insert(a);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddb_logic::parse::parse_program;

    fn atoms(db: &Database, names: &[&str]) -> Interpretation {
        Interpretation::from_atoms(
            db.num_atoms(),
            names.iter().map(|n| db.symbols().lookup(n).unwrap()),
        )
    }

    #[test]
    fn facts_are_active() {
        let db = parse_program("a | b. c :- a.").unwrap();
        let active = active_atoms(&db);
        assert_eq!(active, atoms(&db, &["a", "b", "c"]));
    }

    #[test]
    fn unreachable_heads_inactive() {
        let db = parse_program("a. c :- b.").unwrap();
        let active = active_atoms(&db);
        assert_eq!(active, atoms(&db, &["a"]));
    }

    #[test]
    fn disjunctive_propagation() {
        // a ∨ b. c :- b. — b occurs in a derivable disjunction, so c does.
        let db = parse_program("a | b. c :- b.").unwrap();
        let active = active_atoms(&db);
        assert_eq!(active, atoms(&db, &["a", "b", "c"]));
    }

    #[test]
    fn integrity_clauses_ignored() {
        let db = parse_program("a. :- a.").unwrap();
        // DDR ignores the integrity clause in the fixpoint: a stays active.
        let active = active_atoms(&db);
        assert_eq!(active, atoms(&db, &["a"]));
    }

    #[test]
    fn chan_example_3_1() {
        // DB = {a ∨ b, ← a ∧ b, c ← a ∧ b}: hyperresolution derives
        // c ∨ a ∨ b, so c *occurs* in T↑ω and DDR does NOT infer ¬c —
        // even though the integrity clause makes c unsatisfiable. This is
        // the paper's Example 3.1 (DDR ignores integrity clauses).
        let db = parse_program("a | b. :- a, b. c :- a, b.").unwrap();
        let active = active_atoms(&db);
        assert_eq!(active, atoms(&db, &["a", "b", "c"]));
        let state = model_state(&db, 100).unwrap().unwrap();
        assert_eq!(atoms_of_state(&state, db.num_atoms()), active);
        let (a, b, c) = (
            db.symbols().lookup("a").unwrap(),
            db.symbols().lookup("b").unwrap(),
            db.symbols().lookup("c").unwrap(),
        );
        assert!(state.contains(&vec![a, b]));
        assert!(state.contains(&vec![a, b, c]));
    }

    #[test]
    fn body_needs_each_atom_covered() {
        // c needs both a and b active; only a is.
        let db = parse_program("a. c :- a, b.").unwrap();
        let active = active_atoms(&db);
        assert_eq!(active, atoms(&db, &["a"]));
    }

    #[test]
    fn model_state_resolution() {
        // a ∨ b. c :- a. — resolving gives c ∨ b.
        let db = parse_program("a | b. c :- a.").unwrap();
        let state = model_state(&db, 100).unwrap().unwrap();
        let a = db.symbols().lookup("a").unwrap();
        let b = db.symbols().lookup("b").unwrap();
        let c = db.symbols().lookup("c").unwrap();
        assert!(state.contains(&vec![a, b]));
        let mut cb = vec![b, c];
        cb.sort_unstable();
        assert!(state.contains(&cb));
    }

    #[test]
    fn model_state_keeps_subsumed_disjunctions() {
        // a ∨ b and a are both derivable; occurrence semantics means both
        // stay in the state (b occurs, so DDR will not infer ¬b here).
        let db = parse_program("a | b. a.").unwrap();
        let state = model_state(&db, 100).unwrap().unwrap();
        let a = db.symbols().lookup("a").unwrap();
        let b = db.symbols().lookup("b").unwrap();
        assert!(state.contains(&vec![a]));
        assert!(state.contains(&vec![a, b]));
        assert!(active_atoms(&db).contains(b));
    }

    #[test]
    fn state_atoms_equal_active_atoms() {
        for src in [
            "a | b. c :- a. d :- c, b. e :- x.",
            "a. b. c | d :- a, b. e :- c. f :- e, d.",
            "p | q | r. s :- p, q. t :- s, r. u :- v.",
        ] {
            let db = parse_program(src).unwrap();
            let state = model_state(&db, 10_000).unwrap().unwrap();
            assert_eq!(
                atoms_of_state(&state, db.num_atoms()),
                active_atoms(&db),
                "program: {src}"
            );
        }
    }

    #[test]
    fn activation_proofs_verify() {
        for src in [
            "a | b. c :- a. d :- c, b. e :- x.",
            "a. b. c | d :- a, b. e :- c. f :- e, d.",
            "p | q | r. s :- p, q. t :- s, r.",
            "x0. x1 :- x0. x2 :- x1. x3 :- x2, x0.",
        ] {
            let db = parse_program(src).unwrap();
            let active = active_atoms(&db);
            for i in 0..db.num_atoms() {
                let a = ddb_logic::Atom::new(i as u32);
                match activation_proof(&db, a) {
                    Some(proof) => {
                        assert!(active.contains(a), "{src}: proof for inactive atom");
                        assert!(verify_proof(&db, a, &proof), "{src}: invalid proof");
                        assert_eq!(proof.last().map(|s| s.atom), Some(a));
                    }
                    None => assert!(!active.contains(a), "{src}: missing proof"),
                }
            }
        }
    }

    #[test]
    fn diamond_dependencies_proved_once() {
        // d needs b and c, both need a: the proof must establish a once
        // and stay verifiable.
        let db = parse_program("a. b :- a. c :- a. d :- b, c.").unwrap();
        let d = db.symbols().lookup("d").unwrap();
        let proof = activation_proof(&db, d).unwrap();
        assert!(verify_proof(&db, d, &proof));
        let a_steps = proof
            .iter()
            .filter(|s| s.atom == db.symbols().lookup("a").unwrap())
            .count();
        assert_eq!(a_steps, 1);
    }

    #[test]
    fn verify_rejects_corrupted_proofs() {
        let db = parse_program("a. b :- a.").unwrap();
        let b = db.symbols().lookup("b").unwrap();
        let mut proof = activation_proof(&db, b).unwrap();
        // Drop the first step: b's body is no longer established.
        proof.remove(0);
        assert!(!verify_proof(&db, b, &proof));
    }

    #[test]
    fn cap_returns_none() {
        // Chain of disjunctions that multiplies states.
        let db =
            parse_program("a0 | b0. a1 | b1. a2 | b2. c :- a0, a1, a2. d :- b0, b1, b2.").unwrap();
        assert!(model_state(&db, 1).unwrap().is_none());
        assert!(model_state(&db, 10_000).unwrap().is_some());
    }

    #[test]
    #[should_panic(expected = "without negation")]
    fn negation_rejected() {
        let db = parse_program("a :- not b.").unwrap();
        let _ = active_atoms(&db);
    }
}
