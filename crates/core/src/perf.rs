//! Perfect Model semantics (PERF), Przymusinski \[19\].
//!
//! The *priority relation* `<` on atoms is read off the rule structure:
//! for every rule `a₁ ∨ … ∨ aₙ ← b₁ ∧ … ∧ bₖ ∧ ¬c₁ ∧ … ∧ ¬cₘ`,
//!
//! * `aᵢ ≈ aⱼ` — head atoms share a priority class,
//! * `aᵢ ≤ bⱼ` — positive body atoms have priority at least the head's,
//! * `aᵢ < cⱼ` — negated body atoms have *strictly* higher priority
//!   (intuitively: `x < y` means `y` has higher priority and is minimized
//!   more aggressively — in a stratified database, `y` lives in a lower
//!   stratum).
//!
//! `<` is closed transitively: `x < y` iff the dependency graph has a path
//! from `x` to `y` through at least one strict edge. A model `N` is
//! **preferable** to `M` (`N ≺ M`) iff `N ≠ M` and every atom
//! `x ∈ N ∖ M` is compensated by some `y ∈ M ∖ N` with `x < y`; `M` is
//! **perfect** iff no model of `DB` is preferable to it.
//!
//! Because `≺` extends `⊂` (if `N ⊂ M` the condition is vacuous), perfect
//! models are minimal models; on positive databases `<` is empty and
//! perfect = minimal — which is how Table 1's Πᵖ₂-hardness reaches PERF.
//! The preference check "∃ model N ≺ M" is a single SAT call
//! ([`is_perfect_model`]), giving the guess-and-check Πᵖ₂/Σᵖ₂ procedures
//! for inference and model existence.

use ddb_logic::cnf::database_to_cnf;
use ddb_logic::{Atom, Database, Formula, Interpretation, Literal};
use ddb_models::walk::{first, walk};
use ddb_models::{minimal, Cost, Partition};
use ddb_obs::Governed;
use ddb_sat::Solver;

/// The transitive priority relation: `lt[x]` is the set of atoms `y` with
/// `x < y` (path with at least one strict edge). Computed by a BFS from
/// each atom over the doubled (node, strict-seen) graph — `O(|V|·|E|)`.
pub fn priority_lt(db: &Database) -> Vec<Interpretation> {
    let n = db.num_atoms();
    // adjacency: (target, strict) edges, deduplicated lazily.
    let mut adj: Vec<Vec<(u32, bool)>> = vec![Vec::new(); n];
    for rule in db.rules() {
        let head = rule.head();
        for (i, &a) in head.iter().enumerate() {
            for &a2 in &head[i + 1..] {
                adj[a.index()].push((a2.index() as u32, false));
                adj[a2.index()].push((a.index() as u32, false));
            }
            for &b in rule.body_pos() {
                adj[a.index()].push((b.index() as u32, false));
            }
            for &c in rule.body_neg() {
                adj[a.index()].push((c.index() as u32, true));
            }
        }
    }
    let mut lt = vec![Interpretation::empty(n); n];
    for start in 0..n {
        // reach[v][s]: v reachable with strict-seen = s.
        let mut reach = vec![[false; 2]; n];
        let mut queue = std::collections::VecDeque::new();
        reach[start][0] = true;
        queue.push_back((start, 0usize));
        while let Some((v, s)) = queue.pop_front() {
            for &(w, strict) in &adj[v] {
                let ns = usize::from(s == 1 || strict);
                let w = w as usize;
                if !reach[w][ns] {
                    reach[w][ns] = true;
                    queue.push_back((w, ns));
                }
            }
        }
        for (v, r) in reach.iter().enumerate() {
            if r[1] {
                lt[start].insert(Atom::new(v as u32));
            }
        }
    }
    lt
}

/// Whether some model of `db` is preferable to `m` — one SAT call.
/// `lt` must come from [`priority_lt`].
pub fn exists_preferable_model(
    db: &Database,
    lt: &[Interpretation],
    m: &Interpretation,
    cost: &mut Cost,
) -> Governed<bool> {
    let n = db.num_atoms();
    let mut solver = Solver::from_cnf(&database_to_cnf(db));
    solver.ensure_vars(n);
    // For each x ∉ M: taking x requires dropping some y ∈ M with x < y.
    for (xi, lt_x) in lt.iter().enumerate() {
        let x = Atom::new(xi as u32);
        if m.contains(x) {
            continue;
        }
        let mut clause: Vec<Literal> = vec![x.neg()];
        for y in lt_x.iter() {
            if m.contains(y) {
                clause.push(y.neg());
            }
        }
        solver.add_clause(&clause);
    }
    // N ≠ M.
    let difference: Vec<Literal> = (0..n)
        .map(|i| {
            let a = Atom::new(i as u32);
            Literal::with_sign(a, !m.contains(a))
        })
        .collect();
    if !solver.add_clause(&difference) {
        cost.absorb(&solver);
        return Ok(false);
    }
    let result = solver.solve();
    cost.absorb(&solver);
    Ok(result?.is_sat())
}

/// Whether `m` is a perfect model of `db` (model check + one SAT call).
pub fn is_perfect_model(db: &Database, m: &Interpretation, cost: &mut Cost) -> Governed<bool> {
    if !db.satisfied_by(m) {
        return Ok(false);
    }
    let lt = priority_lt(db);
    Ok(!exists_preferable_model(db, &lt, m, cost)?)
}

/// Visits the perfect models satisfying `extra` (when given) one at a
/// time. Since perfect ⊆ minimal, this is the minimal-model walk
/// ([`ddb_models::walk`]) with "no preferable model" as its check.
pub fn for_each_perfect_model(
    db: &Database,
    extra: Option<&Formula>,
    cost: &mut Cost,
    visit: impl FnMut(&Interpretation) -> bool,
) -> Governed<()> {
    walk(db, &minimize_all(db), extra, cost, perfect(db), visit)
}

fn perfect(db: &Database) -> impl FnMut(&Interpretation, &mut Cost) -> Governed<bool> + '_ {
    let lt = priority_lt(db);
    move |m, cost| Ok(!exists_preferable_model(db, &lt, m, cost)?)
}

fn minimize_all(db: &Database) -> Partition {
    Partition::minimize_all(db.num_atoms())
}

/// All perfect models, sorted.
pub fn models(db: &Database, cost: &mut Cost) -> Governed<Vec<Interpretation>> {
    let _span = ddb_obs::span("perf.models");
    minimal::completions(db, &minimize_all(db), cost, perfect(db))
}

/// Formula inference `PERF(DB) ⊨ F` (vacuously true when no perfect model
/// exists): the walk on `DB ∧ ¬F` finds no perfect model.
pub fn infers_formula(db: &Database, f: &Formula, cost: &mut Cost) -> Governed<bool> {
    let _span = ddb_obs::span("perf.infers_formula");
    let not_f = f.clone().negated();
    Ok(first(db, &minimize_all(db), Some(&not_f), cost, perfect(db))?.is_none())
}

/// Model existence: does `db` have a perfect model? (Σᵖ₂-complete for
/// general DNDBs; guaranteed for stratified ones.)
pub fn has_model(db: &Database, cost: &mut Cost) -> Governed<bool> {
    let _span = ddb_obs::span("perf.has_model");
    Ok(first(db, &minimize_all(db), None, cost, perfect(db))?.is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddb_logic::parse::parse_program;

    fn interp(db: &Database, names: &[&str]) -> Interpretation {
        Interpretation::from_atoms(
            db.num_atoms(),
            names.iter().map(|n| db.symbols().lookup(n).unwrap()),
        )
    }

    #[test]
    fn positive_db_perfect_equals_minimal() {
        let db = parse_program("a | b. c :- a. :- b, c.").unwrap();
        let mut cost = Cost::new();
        assert_eq!(
            models(&db, &mut cost).unwrap(),
            minimal::minimal_models(&db, &mut cost).unwrap()
        );
    }

    #[test]
    fn stratified_negation_prefers_lower_strata() {
        // b :- not a. Minimal models: {a}, {b}. a has higher priority
        // (b < a), so {b} (which avoids a) is preferred over {a}:
        // is {a} perfect? N = {b}: N∖M = {b}, need y ∈ M∖N = {a} with
        // b < a ✓ → {b} ≺ {a} → {a} not perfect. {b}: N = {a}: a ∈ N∖M
        // needs y with a < y — none → not preferable; {} not a model.
        // Unique perfect model {b} — the stratified intuition.
        let db = parse_program("b :- not a.").unwrap();
        let mut cost = Cost::new();
        assert_eq!(models(&db, &mut cost).unwrap(), vec![interp(&db, &["b"])]);
    }

    #[test]
    fn two_layer_stratified_program() {
        // a. c :- not b. — perfect: {a, c}.
        let db = parse_program("a. c :- not b.").unwrap();
        let mut cost = Cost::new();
        assert_eq!(
            models(&db, &mut cost).unwrap(),
            vec![interp(&db, &["a", "c"])]
        );
        let b = db.symbols().lookup("b").unwrap();
        assert!(infers_formula(&db, &Formula::from(b.neg()), &mut cost).unwrap());
    }

    #[test]
    fn disjunctive_stratified() {
        // a | b. c :- not a. — priority: c < a. Minimal models of DB:
        // {a}, {b,c}. {a}: preferable N ≠ {a} with new atoms compensated:
        // N = {b,c}: N∖M = {b,c}: b needs y ∈ {a} with b < a? b ≈ a (head
        // mates) but not strict → no → {b,c} ⊀ {a} → {a} perfect.
        // {b,c}: N = {a}: a ∈ N∖M needs a < y, y ∈ {b,c}: a < b? no.
        // a < c? strict edges point c → a... c < a means a has higher
        // priority; a < c false → {a} ⊀ {b,c} → {b,c} perfect too.
        let db = parse_program("a | b. c :- not a.").unwrap();
        let mut cost = Cost::new();
        assert_eq!(
            models(&db, &mut cost).unwrap(),
            vec![interp(&db, &["a"]), interp(&db, &["b", "c"])]
        );
    }

    #[test]
    fn unstratifiable_may_lack_perfect_models() {
        // a :- not a. has no perfect model: the only model candidates
        // {a} — is it perfect? N must be a model: models are {a} only
        // (∅ ⊭ a :- not a). No N ≠ M exists → {a} IS perfect?
        // Careful: models of the clause a ∨ a = {a}... clause is a ← ¬a
        // ≡ a ∨ a ≡ a. So M(DB) = {{a}} and {a} is trivially perfect.
        let db = parse_program("a :- not a.").unwrap();
        let mut cost = Cost::new();
        assert_eq!(models(&db, &mut cost).unwrap(), vec![interp(&db, &["a"])]);

        // A genuinely perfect-model-free database: even loop with strict
        // mutual priorities collapses preference into a cycle:
        // a :- not b. b :- not a. — minimal models {a}, {b}; a < b and
        // b < a (both strict). {a}: N={b}: b∖ needs y∈{a}: b < a ✓ →
        // preferable → {a} not perfect; symmetrically {b} not perfect.
        let db2 = parse_program("a :- not b. b :- not a.").unwrap();
        assert!(models(&db2, &mut cost).unwrap().is_empty());
        assert!(!has_model(&db2, &mut cost).unwrap());
    }

    #[test]
    fn perfect_subset_of_stable_on_stratified() {
        // For stratified databases the perfect model is the unique stable
        // model (Przymusinski): check on a 3-layer program.
        let db = parse_program("a. b :- not a. c :- not b. d | e :- c.").unwrap();
        let mut cost = Cost::new();
        let perfect = models(&db, &mut cost).unwrap();
        let stable = crate::dsm::models(&db, &mut cost).unwrap();
        assert_eq!(perfect, stable);
        assert_eq!(perfect.len(), 2); // {a,c,d}, {a,c,e}
    }

    #[test]
    fn preference_extends_subset() {
        let db = parse_program("a | b. c :- a.").unwrap();
        let lt = priority_lt(&db);
        let mut cost = Cost::new();
        // {a, b, c} is a non-minimal model: some preferable model exists.
        assert!(
            exists_preferable_model(&db, &lt, &interp(&db, &["a", "b", "c"]), &mut cost).unwrap()
        );
        assert!(!is_perfect_model(&db, &interp(&db, &["a", "b", "c"]), &mut cost).unwrap());
    }

    #[test]
    fn priority_relation_structure() {
        // c :- not b. b :- not a. — strict chains: c < b, b < a, and by
        // transitivity c < a.
        let db = parse_program("c :- not b. b :- not a.").unwrap();
        let lt = priority_lt(&db);
        let a = db.symbols().lookup("a").unwrap();
        let b = db.symbols().lookup("b").unwrap();
        let c = db.symbols().lookup("c").unwrap();
        assert!(lt[c.index()].contains(b));
        assert!(lt[b.index()].contains(a));
        assert!(lt[c.index()].contains(a), "transitivity");
        assert!(!lt[a.index()].contains(b));
    }
}
