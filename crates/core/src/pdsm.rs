//! Partial Disjunctive Stable Model semantics (PDSM), Przymusinski \[20\],
//! extending the well-founded semantics of van Gelder, Ross & Schlipf
//! \[29\] to disjunctive databases.
//!
//! A *partial* (3-valued) interpretation `I` is a partial stable model iff
//! `I` is a **truth-minimal** 3-valued model of the 3-valued reduct
//! `DB^I` ([`crate::reduct::reduct3`]), where minimality is pointwise in
//! the order `0 < ½ < 1`.
//!
//! The implementation works over the standard **pair encoding**: each atom
//! `x` becomes two Boolean variables, `x¹` ("value = 1", the first `n`
//! variables) and `x²` ("value ≥ ½", the next `n`), with `x¹ → x²`, so bit
//! order is truth order. Three-valued rule satisfaction splits into a
//! value-1 and a value-½ rule, which makes the 3-valued models of `DB` the
//! models of a database over `2n` atoms ([`pair_database`]). Formula
//! inference translates the query the same way ([`encode_ge1`]).
//!
//! If `J ≤ I` and `J ⊨ DB` then `J ⊨ DB^I`: replacing `not c` by
//! `1 − I(c)` only lowers rule bodies. So partial stable models are
//! truth-minimal 3-valued models of `DB`, and the enumerator walks those
//! as DSM walks `MM(DB)` ([`for_each_partial_stable`]).
//!
//! On positive databases PDSM and DSM coincide for the problems studied
//! (Przymusinski) — the total partial stable models are exactly the stable
//! models, and positive facts force values away from ½; the
//! `pdsm_dsm_positive` test pins this.

use crate::reduct::{reduct3, satisfies_reduct3, Reduct3Rule};
use ddb_logic::{
    Atom, Database, Formula, Interpretation, PartialInterpretation, Rule, Symbols, TruthValue,
};
use ddb_models::walk::walk;
use ddb_models::{minimal, Cost, Partition};
use ddb_obs::Governed;

/// Both thresholds of a rule: value 1 (`true`) and value ½ (`false`).
const BOTH: &[bool] = &[true, false];

/// A pair-encoded database over `symbols` (`2n` atoms, `x¹ = x`,
/// `x² = n + x`): `x² :- x¹` per atom, and per `(H, B⁺, B⁻, levels)` the
/// value-1 rule `H¹ :- B⁺¹, not B⁻²` and/or the value-½ rule
/// `H² :- B⁺², not B⁻¹`, as `levels` lists them.
fn pair_rules<'a>(
    symbols: &Symbols,
    rules: impl Iterator<Item = (&'a [Atom], &'a [Atom], &'a [Atom], &'a [bool])>,
) -> Database {
    let n = symbols.len() / 2;
    let at = |&a: &Atom, offset: usize| Atom::new((a.index() + offset) as u32);
    let mut out = Database::new(symbols.clone());
    for a in (0..n).map(|i| Atom::new(i as u32)) {
        out.add_rule(Rule::new([at(&a, n)], [a], []));
    }
    for (head, pos, neg, levels) in rules {
        for &one in levels {
            let (hi, lo) = if one { (0, n) } else { (n, 0) };
            out.add_rule(Rule::new(
                head.iter().map(|a| at(a, hi)),
                pos.iter().map(|a| at(a, hi)),
                neg.iter().map(|a| at(a, lo)),
            ));
        }
    }
    out
}

/// The pair-encoded database of `db` over `2n` atoms: its models are the
/// pair encodings of the 3-valued models of `db`.
pub fn pair_database(db: &Database) -> Database {
    let rules = db.rules().iter();
    let rules = rules.map(|r| (r.head(), r.body_pos(), r.body_neg(), BOTH));
    pair_rules(&Symbols::fresh(2 * db.num_atoms()), rules)
}

/// The pair encoding of a partial interpretation over `n` atoms (`2n`
/// variables); [`decode`] inverts it.
fn encode(p: &PartialInterpretation) -> Interpretation {
    let n = p.num_atoms();
    let half = (0..n).filter(|&i| !p.false_set().contains(Atom::new(i as u32)));
    let half = half.map(|i| Atom::new((n + i) as u32));
    Interpretation::from_atoms(2 * n, p.true_set().iter().chain(half))
}

/// Decodes a pair-encoded assignment (over ≥ `2n` variables) into a
/// partial interpretation over `n` atoms.
pub fn decode(m: &Interpretation, n: usize) -> PartialInterpretation {
    let mut p = PartialInterpretation::undefined(n);
    for i in 0..n {
        let a = Atom::new(i as u32);
        let a2 = Atom::new((n + i) as u32);
        if m.contains(a) {
            p.set(a, TruthValue::True);
        } else if !m.contains(a2) {
            p.set(a, TruthValue::False);
        }
    }
    p
}

/// Pair-encoded translation of "`f` has value 1" (used to express
/// counterexamples `value(F) ≠ 1` under the encoding).
pub fn encode_ge1(f: &Formula, n: usize) -> Formula {
    translate(f, n, true)
}

/// Pair-encoded translation of "`f` has value ≥ ½".
pub fn encode_ge_half(f: &Formula, n: usize) -> Formula {
    translate(f, n, false)
}

fn translate(f: &Formula, n: usize, level1: bool) -> Formula {
    match f {
        Formula::True => Formula::True,
        Formula::False => Formula::False,
        Formula::Atom(a) => {
            if level1 {
                Formula::Atom(*a)
            } else {
                Formula::Atom(Atom::new((n + a.index()) as u32))
            }
        }
        // val(¬g) ≥ 1 ⟺ val(g) = 0 ⟺ ¬(val(g) ≥ ½); dually for ≥ ½.
        Formula::Not(g) => translate(g, n, !level1).negated(),
        Formula::And(fs) => Formula::And(fs.iter().map(|g| translate(g, n, level1)).collect()),
        Formula::Or(fs) => Formula::Or(fs.iter().map(|g| translate(g, n, level1)).collect()),
        Formula::Implies(l, r) => Formula::Or(vec![
            translate(l, n, !level1).negated(),
            translate(r, n, level1),
        ]),
        Formula::Iff(l, r) => Formula::And(vec![
            Formula::Or(vec![
                translate(l, n, !level1).negated(),
                translate(r, n, level1),
            ]),
            Formula::Or(vec![
                translate(r, n, !level1).negated(),
                translate(l, n, level1),
            ]),
        ]),
    }
}

/// Whether `i` is a partial stable model of `db`: `i` satisfies its own
/// reduct and no strictly smaller 3-valued interpretation does.
pub fn is_partial_stable(
    db: &Database,
    i: &PartialInterpretation,
    cost: &mut Cost,
) -> Governed<bool> {
    is_stable_over(db, &Symbols::fresh(2 * db.num_atoms()), i, cost)
}

/// [`is_partial_stable`] over a caller's pair vocabulary. A reduct rule
/// keeps the thresholds its body constant can reach, and since bit order
/// is truth order, "a strictly smaller model of the reduct" is one
/// minimality shrink step (one SAT call) over the pair-encoded reduct.
fn is_stable_over(
    db: &Database,
    pair_symbols: &Symbols,
    i: &PartialInterpretation,
    cost: &mut Cost,
) -> Governed<bool> {
    let rules = reduct3(db, i);
    if !satisfies_reduct3(&rules, i) {
        return Ok(false);
    }
    let levels = |r: &Reduct3Rule| match r.body_const {
        TruthValue::True => BOTH,
        TruthValue::Undefined => &[false][..],
        TruthValue::False => &[],
    };
    let pairs = rules
        .iter()
        .map(|r| (&r.head[..], &r.body_pos[..], &[][..], levels(r)));
    let reduct = pair_rules(pair_symbols, pairs);
    let part = Partition::minimize_all(reduct.num_atoms());
    Ok(minimal::shrink_step(&reduct, &encode(i), &part, cost)?.is_none())
}

/// Visits partial stable models one at a time; `extra` (if given) is a
/// pair-encoded constraint the visited models satisfy. Callback returns
/// `false` to stop.
///
/// This is the minimal-model walk ([`ddb_models::walk`]) over
/// [`pair_database`], whose minimal models are the truth-minimal 3-valued
/// models of `db`, with the partial-stability check on each decoded
/// witness. Complete because partial stable models are truth-minimal.
pub fn for_each_partial_stable(
    db: &Database,
    extra: Option<&Formula>,
    cost: &mut Cost,
    mut visit: impl FnMut(&PartialInterpretation) -> bool,
) -> Governed<()> {
    let n = db.num_atoms();
    let pair = pair_database(db);
    let part = Partition::minimize_all(2 * n);
    let check = |m: &Interpretation, cost: &mut Cost| {
        is_stable_over(db, pair.symbols(), &decode(m, n), cost)
    };
    walk(&pair, &part, extra, cost, check, |m| visit(&decode(m, n)))
}

/// All partial stable models.
pub fn models(db: &Database, cost: &mut Cost) -> Governed<Vec<PartialInterpretation>> {
    let _span = ddb_obs::span("pdsm.models");
    let mut out = Vec::new();
    for_each_partial_stable(db, None, cost, |i| {
        out.push(i.clone());
        true
    })?;
    out.sort_by_key(|p| (p.true_set().clone(), p.false_set().clone()));
    Ok(out)
}

/// Formula inference `PDSM(DB) ⊨ F` (`F` has value 1 in every partial
/// stable model, vacuously so when none exists) as a countermodel search:
/// the first partial stable model where `F` is not 1, or `None` when `F`
/// is inferred.
pub fn countermodel(
    db: &Database,
    f: &Formula,
    cost: &mut Cost,
) -> Governed<Option<PartialInterpretation>> {
    let _span = ddb_obs::span("pdsm.countermodel");
    let not_value1 = encode_ge1(f, db.num_atoms()).negated();
    let mut found = None;
    for_each_partial_stable(db, Some(&not_value1), cost, |i| {
        debug_assert_ne!(f.eval3(i), TruthValue::True);
        found = Some(i.clone());
        false
    })?;
    Ok(found)
}

/// Model existence: does `db` have a partial stable model?
pub fn has_model(db: &Database, cost: &mut Cost) -> Governed<bool> {
    let _span = ddb_obs::span("pdsm.has_model");
    let mut found = false;
    for_each_partial_stable(db, None, cost, |_| {
        found = true;
        false
    })?;
    Ok(found)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddb_logic::parse::{parse_formula, parse_program};

    fn infers(db: &Database, f: &Formula, cost: &mut Cost) -> Governed<bool> {
        Ok(countermodel(db, f, cost)?.is_none())
    }

    fn dsm_infers(db: &Database, f: &Formula, cost: &mut Cost) -> Governed<bool> {
        Ok(crate::dsm::countermodel(db, f, cost)?.is_none())
    }

    fn partial(db: &Database, tru: &[&str], undef: &[&str]) -> PartialInterpretation {
        let n = db.num_atoms();
        let mut p = PartialInterpretation::new(Interpretation::empty(n), Interpretation::full(n));
        for name in undef {
            p.set(db.symbols().lookup(name).unwrap(), TruthValue::Undefined);
        }
        for name in tru {
            p.set(db.symbols().lookup(name).unwrap(), TruthValue::True);
        }
        p
    }

    #[test]
    fn odd_loop_has_undefined_model() {
        // a :- not a. — no (total) stable model, but the partial stable
        // model a = ½ exists (well-founded-style).
        let db = parse_program("a :- not a.").unwrap();
        let mut cost = Cost::new();
        assert!(has_model(&db, &mut cost).unwrap());
        let ms = models(&db, &mut cost).unwrap();
        assert_eq!(ms, vec![partial(&db, &[], &["a"])]);
        assert!(!crate::dsm::has_model(&db, &mut cost).unwrap());
    }

    #[test]
    fn even_loop_partial_stable_models() {
        // a :- not b. b :- not a. — three partial stable models:
        // ⟨{a},{b}⟩, ⟨{b},{a}⟩ and the all-undefined one.
        let db = parse_program("a :- not b. b :- not a.").unwrap();
        let mut cost = Cost::new();
        let ms = models(&db, &mut cost).unwrap();
        assert_eq!(ms.len(), 3);
        assert!(ms.contains(&partial(&db, &["a"], &[])));
        assert!(ms.contains(&partial(&db, &["b"], &[])));
        assert!(ms.contains(&partial(&db, &[], &["a", "b"])));
    }

    #[test]
    fn pdsm_dsm_positive() {
        // On positive databases the partial stable models are the minimal
        // models (all total), i.e. exactly DSM.
        for src in ["a | b.", "a | b. c :- a. :- b, c.", "a. b | c :- a."] {
            let db = parse_program(src).unwrap();
            let mut cost = Cost::new();
            let pdsm = models(&db, &mut cost).unwrap();
            let dsm = crate::dsm::models(&db, &mut cost).unwrap();
            let totals: Vec<Interpretation> = pdsm
                .iter()
                .filter(|p| p.is_total())
                .map(|p| p.to_total())
                .collect();
            assert_eq!(totals, dsm, "program: {src}");
            assert_eq!(pdsm.len(), dsm.len(), "no non-total models on {src}");
        }
    }

    #[test]
    fn total_partial_stable_iff_stable() {
        // For any database, total partial stable models = stable models.
        for src in [
            "a :- not b. b :- not a.",
            "a | b :- not c.",
            "a :- not a. b.",
            "p :- not q. q :- not r.",
        ] {
            let db = parse_program(src).unwrap();
            let mut cost = Cost::new();
            let stable = crate::dsm::models(&db, &mut cost).unwrap();
            let totals: Vec<Interpretation> = models(&db, &mut cost)
                .unwrap()
                .into_iter()
                .filter(|p| p.is_total())
                .map(|p| p.to_total())
                .collect();
            assert_eq!(totals, stable, "program: {src}");
        }
    }

    #[test]
    fn cautious_inference_weaker_than_dsm() {
        // a :- not a. b. — DSM has no models (vacuous inference: infers
        // everything); PDSM has ⟨{b}, a=½⟩: infers b but not a.
        let db = parse_program("a :- not a. b.").unwrap();
        let mut cost = Cost::new();
        let b_lit = db.symbols().lookup("b").unwrap().pos();
        let a_lit = db.symbols().lookup("a").unwrap().pos();
        assert!(infers(&db, &Formula::from(b_lit), &mut cost).unwrap());
        assert!(!infers(&db, &Formula::from(a_lit), &mut cost).unwrap());
        assert!(!infers(&db, &Formula::from(a_lit.complement()), &mut cost).unwrap());
        assert!(dsm_infers(&db, &Formula::from(a_lit), &mut cost).unwrap());
        // vacuous
    }

    #[test]
    fn formula_inference_three_valued() {
        let db = parse_program("a :- not b. b :- not a. c.").unwrap();
        let mut cost = Cost::new();
        // c is true in all three partial stable models.
        let f = parse_formula("c", db.symbols()).unwrap();
        assert!(infers(&db, &f, &mut cost).unwrap());
        // a ∨ b has value ½ in the all-undefined model → not inferred
        // (contrast DSM, where it holds in both stable models).
        let g = parse_formula("a | b", db.symbols()).unwrap();
        assert!(!infers(&db, &g, &mut cost).unwrap());
        assert!(dsm_infers(&db, &g, &mut cost).unwrap());
    }

    #[test]
    fn integrity_clauses_constrain_pdsm() {
        let db = parse_program("a :- not b. b :- not a. :- a.").unwrap();
        let mut cost = Cost::new();
        let ms = models(&db, &mut cost).unwrap();
        // ⟨{b},{a}⟩ survives; the all-undefined one: does ½ satisfy
        // ← a? Integrity head is empty (value 0); body a = ½ → need
        // 0 ≥ ½ — fails. So only ⟨{b},{a}⟩.
        assert_eq!(ms, vec![partial(&db, &["b"], &[])]);
    }

    /// All `3ⁿ` partial interpretations over `n` atoms.
    fn all_partials(n: usize) -> Vec<PartialInterpretation> {
        let mut out = vec![PartialInterpretation::undefined(n)];
        for i in 0..n {
            let a = Atom::new(i as u32);
            out = out
                .into_iter()
                .flat_map(|p| {
                    [TruthValue::False, TruthValue::Undefined, TruthValue::True].map(|v| {
                        let mut q = p.clone();
                        q.set(a, v);
                        q
                    })
                })
                .collect();
        }
        out
    }

    #[test]
    fn walk_checks_each_truth_minimal_model_once() {
        use ddb_workloads::random::{random_db, DbSpec};
        use std::cmp::Ordering::Less;
        let below =
            |j: &PartialInterpretation, i: &PartialInterpretation| j.truth_cmp(i) == Some(Less);
        let key = |p: &PartialInterpretation| (p.true_set().clone(), p.false_set().clone());
        let (mut negation, mut integrity) = (false, false);
        for seed in 0..80 {
            let n = 1 + seed as usize % 5;
            let db = random_db(&DbSpec::normal(n, 1 + seed as usize % (2 * n)), seed);
            negation |= db.has_negation();
            integrity |= db.has_integrity_clauses();
            let all = all_partials(n);
            let models: Vec<&PartialInterpretation> = all
                .iter()
                .filter(|p| db.rules().iter().all(|r| r.value3(p)))
                .collect();
            let minimal: Vec<&PartialInterpretation> = models
                .iter()
                .copied()
                .filter(|i| !models.iter().any(|j| below(j, i)))
                .collect();
            // Partial stable models by definition: truth-minimal models of
            // their own reduct.
            let mut stable: Vec<PartialInterpretation> = all
                .iter()
                .filter(|i| {
                    let rules = reduct3(&db, i);
                    satisfies_reduct3(&rules, i)
                        && !all
                            .iter()
                            .any(|j| below(j, i) && satisfies_reduct3(&rules, j))
                })
                .cloned()
                .collect();
            for s in &stable {
                assert!(
                    minimal.contains(&s),
                    "seed {seed}: {s:?} is not truth-minimal"
                );
            }
            stable.sort_by_key(key);
            let mut cost = Cost::new();
            let got = super::models(&db, &mut cost).unwrap();
            assert_eq!(got, stable, "seed {seed}");
            // Every minimal model is a candidate exactly once: each round
            // yields a minimal model no earlier block covers.
            assert_eq!(cost.candidates, minimal.len() as u64, "seed {seed}");
        }
        assert!(negation && integrity, "the sample covers both features");
    }

    #[test]
    fn encode_inverts_decode() {
        for p in all_partials(3) {
            assert_eq!(decode(&encode(&p), 3), p);
        }
    }

    #[test]
    fn encode_roundtrip_on_totals() {
        // The pair encoding of "value(F) = 1" must agree with eval3 on
        // arbitrary 3-valued interpretations.
        let db = parse_program("a. b. c.").unwrap();
        let n = db.num_atoms();
        let f = parse_formula("(a -> b) & !(c & a) | (b <-> c)", db.symbols()).unwrap();
        let enc1 = encode_ge1(&f, n);
        let ench = encode_ge_half(&f, n);
        // Enumerate all 3^3 partial interpretations; build the pair-encoded
        // 2n assignment and compare.
        for code in 0..27u32 {
            let mut p = PartialInterpretation::undefined(n);
            let mut pair = Interpretation::empty(2 * n);
            let mut c = code;
            for i in 0..n {
                let a = Atom::new(i as u32);
                match c % 3 {
                    0 => {
                        p.set(a, TruthValue::False);
                    }
                    1 => {
                        p.set(a, TruthValue::Undefined);
                        pair.insert(Atom::new((n + i) as u32));
                    }
                    _ => {
                        p.set(a, TruthValue::True);
                        pair.insert(a);
                        pair.insert(Atom::new((n + i) as u32));
                    }
                }
                c /= 3;
            }
            let v = f.eval3(&p);
            assert_eq!(enc1.eval(&pair), v == TruthValue::True, "code {code}");
            assert_eq!(ench.eval(&pair), v != TruthValue::False, "code {code}");
        }
    }
}
