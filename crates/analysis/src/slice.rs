//! Backward relevance slicing — the least sub-database that can influence
//! a query.
//!
//! A query formula only mentions a handful of atoms; the rules that can
//! affect its truth value are the ones reachable *backwards* through the
//! dependency graph ([`ddb_logic::depgraph`]): a rule matters when its
//! head intersects the growing relevant set (then its whole head — the
//! head siblings — and its body become relevant too), and an integrity
//! clause matters as soon as any of its atoms does. The closure computed
//! by [`relevant_slice`] is exactly that least fixpoint, so by
//! construction the slice's atom set `R` is a **splitting set** in the
//! sense of Lifschitz & Turner: every rule whose head touches `R` has all
//! its atoms inside `R`.
//!
//! Whether answering the query on the slice alone is *sound* depends on
//! how the rest of the database reads `R`:
//!
//! * **Positive databases** (no negation, no integrity clauses): minimal
//!   models project, `MM(DB)|_R = MM(slice)` — the component/product
//!   argument of `ddb_models::components` extended to one-way dependence.
//!   Non-slice rules may read `R`; because their heads are disjoint from
//!   `R` and nothing prunes models, they cannot constrain it.
//! * **Split-closed slices** ([`Slice::split_closed`]): no non-slice rule
//!   mentions an atom of `R` at all, so the database is a disjoint union
//!   and every semantics factors as a product. The one correction: when
//!   the non-slice part has an empty model set, cautious inference over
//!   the whole database is vacuously true whatever the slice says.
//!
//! `crates/core`'s dispatcher checks these preconditions per semantics and
//! falls back to the generic whole-database procedure when neither holds.
//!
//! ## Demand closure and dead rules
//!
//! A bound query (one fixing argument constants, `p(a)` rather than `p`)
//! is answered on its **demand closure** ([`demand_closure`]): the
//! relevance closure minus *dead* rules, whose positive body has an atom
//! outside the supportable fixpoint ([`supportable_atoms`]). This is the
//! set of rules a goal-directed (magic-sets) evaluation could ever fire.
//! Pruning is sound exactly for minimal-model-determined answers on
//! **positive** databases: a rule whose positive body can never be
//! derived never fires in any minimal model. With negation a dead body
//! atom can still flip answers through `not`, so the planner's gate
//! ([`crate::plan::prunes_dead`]) leaves pruning off there and the
//! closure is the relevance slice.
//!
//! A dropped dead rule whose head is demanded reads the closure, so it
//! always blocks the split-closure side condition: the product admission
//! and dead pruning never combine, and the only admission that ever sees
//! a pruned closure is `PositiveExact` — exactly the sound case.

use crate::prepared::Prepared;
use ddb_logic::{Atom, Database, Interpretation, Rule, Symbols};

/// The result of backward relevance slicing: which atoms and rules can
/// influence the query, and whether the slice boundary is split-closed.
#[derive(Clone, Debug)]
pub struct Slice {
    /// The relevant atoms as a set: `in_slice.contains(atom)`.
    pub in_slice: Interpretation,
    /// The relevant atoms, sorted.
    pub atoms: Vec<Atom>,
    /// Indices (into `db.rules()`) of the rules in the slice, ascending.
    pub rules: Vec<usize>,
    /// Whether every non-slice rule is atom-disjoint from the slice — the
    /// Lifschitz–Turner-style condition under which the database splits
    /// into the slice and an independent top part.
    pub split_closed: bool,
    /// A non-slice rule whose body reads a slice atom, witnessing why
    /// `split_closed` failed (for diagnostics and `ddb slice` output).
    pub blocking_rule: Option<usize>,
    /// Rules whose head the closure reached but which it dropped as dead
    /// (a positive body atom outside the supportable closure), ascending.
    /// Empty unless the closure was asked to prune dead rules.
    pub dropped_dead: Vec<usize>,
}

impl Slice {
    /// Whether the slice contains every rule of the database (slicing
    /// found nothing to drop).
    pub fn is_whole(&self, db: &Database) -> bool {
        self.rules.len() == db.len()
    }
}

/// Computes the backward relevance slice of `db` for a query over
/// `query_atoms`: the least set `R ⊇ query_atoms` of atoms, and set of
/// rules, closed under
///
/// * `head(r) ∩ R ≠ ∅ ⟹ atoms(r) ⊆ R` (and `r` joins the slice), and
/// * `atoms(c) ∩ R ≠ ∅ ⟹ atoms(c) ⊆ R` for integrity clauses `c` (a
///   constraint touching a relevant atom prunes its models, so it must
///   ride along for the slice to be exact).
pub fn relevant_slice(db: &Database, query_atoms: &[Atom]) -> Slice {
    demand_closure(&Prepared::borrowed(db), query_atoms, false)
}

/// The demand closure of a query over a prepared database: the least
/// closure of [`relevant_slice`], computed as a worklist over the rule
/// indexes in time linear in the closure and the rules reading it.
///
/// With `prune_dead`, dead rules (a positive body atom outside the
/// supportable closure, [`Prepared::closure`]) never join and never
/// propagate demand into their bodies; those whose head the closure
/// reaches are recorded in [`Slice::dropped_dead`]. Pruning is sound
/// only for minimal-model-determined answers on positive databases (see
/// the [module docs](self); [`crate::plan::prunes_dead`] is the gate). The
/// split-closure data is judged against every non-kept rule, dropped
/// dead rules included, so a pruned closure whose boundary a dropped
/// rule reads is never reported split-closed.
pub fn demand_closure(p: &Prepared, query_atoms: &[Atom], prune_dead: bool) -> Slice {
    let db = p.db();
    let rules = db.rules();
    let (heads, occurrences) = (p.heads(), p.occurrences());
    let supportable = prune_dead.then(|| p.closure());
    let dead = |i: usize| {
        let r = &rules[i];
        supportable
            .is_some_and(|s| !r.is_integrity() && r.body_pos().iter().any(|&b| !s.contains(b)))
    };
    let mut in_slice = Interpretation::empty(db.num_atoms());
    let mut rule_in = vec![false; rules.len()];
    // `atoms` doubles as the worklist: entries past `next` are unvisited.
    let mut atoms: Vec<Atom> = Vec::new();
    let mut kept: Vec<usize> = Vec::new();
    let mut dropped_dead: Vec<usize> = Vec::new();
    let mut demand = |a: Atom, atoms: &mut Vec<Atom>| {
        if !in_slice.contains(a) {
            in_slice.insert(a);
            atoms.push(a);
        }
    };
    for &a in query_atoms {
        demand(a, &mut atoms);
    }
    let mut next = 0;
    while let Some(&a) = atoms.get(next) {
        next += 1;
        let constraints = occurrences
            .rules_of(a)
            .iter()
            .filter(|&&i| rules[i as usize].is_integrity());
        for i in heads.rules_of(a).iter().chain(constraints) {
            let i = *i as usize;
            if rule_in[i] {
                continue;
            }
            if dead(i) {
                dropped_dead.push(i);
                continue;
            }
            rule_in[i] = true;
            kept.push(i);
            for b in rules[i].atoms() {
                demand(b, &mut atoms);
            }
        }
    }
    // A non-slice rule reading a slice atom breaks the split: the top
    // part is not vocabulary-disjoint from the slice. The witness is the
    // lowest-numbered such rule.
    let blocking_rule = atoms
        .iter()
        .filter_map(|&a| {
            occurrences
                .rules_of(a)
                .iter()
                .map(|&i| i as usize)
                .find(|&i| !rule_in[i])
        })
        .min();
    atoms.sort_unstable();
    kept.sort_unstable();
    dropped_dead.sort_unstable();
    dropped_dead.dedup();
    Slice {
        in_slice,
        atoms,
        rules: kept,
        split_closed: blocking_rule.is_none(),
        blocking_rule,
        dropped_dead,
    }
}

/// An atom renaming between a database and a projected sub-database.
#[derive(Clone, Debug)]
pub struct AtomMap {
    /// `to_sub[old.index()]` — the sub-database atom for each original
    /// atom, when the original atom survives the projection.
    pub to_sub: Vec<Option<Atom>>,
    /// `from_sub[new.index()]` — the original atom for each sub-database
    /// atom.
    pub from_sub: Vec<Atom>,
}

/// Projects the slice to a standalone database over a fresh vocabulary
/// containing exactly [`Slice::atoms`] (in order), with the slice's rules
/// renamed into it. Follows `ddb_models::components::project_component`.
pub fn project_slice(db: &Database, slice: &Slice) -> (Database, AtomMap) {
    project_rules(db, &slice.atoms, &slice.rules)
}

/// Projects the **non-slice** rules (the top part) to a standalone
/// database over the complement vocabulary. Only meaningful when the
/// slice is split-closed — otherwise top rules mention slice atoms and
/// this panics on the out-of-vocabulary rename.
pub fn project_top(db: &Database, slice: &Slice) -> (Database, AtomMap) {
    debug_assert!(slice.split_closed, "top projection requires a split");
    let atoms: Vec<Atom> = (0..db.num_atoms() as u32)
        .map(Atom::new)
        .filter(|&a| !slice.in_slice.contains(a))
        .collect();
    let in_slice = &slice.in_slice;
    let rules: Vec<usize> = (0..db.len()).filter(|i| !slice.rules.contains(i)).collect();
    debug_assert!(rules
        .iter()
        .all(|&i| db.rules()[i].atoms().all(|a| !in_slice.contains(a))));
    project_rules(db, &atoms, &rules)
}

fn project_rules(db: &Database, atoms: &[Atom], rules: &[usize]) -> (Database, AtomMap) {
    let mut symbols = Symbols::new();
    let mut to_sub: Vec<Option<Atom>> = vec![None; db.num_atoms()];
    for (k, &a) in atoms.iter().enumerate() {
        symbols.intern(db.symbols().name(a));
        to_sub[a.index()] = Some(Atom::new(k as u32));
    }
    let mut sub = Database::new(symbols);
    for &i in rules {
        let r = &db.rules()[i];
        let map = |xs: &[Atom]| -> Vec<Atom> {
            xs.iter()
                .map(|a| to_sub[a.index()].expect("projected rule atom in vocabulary"))
                .collect()
        };
        sub.add_rule(Rule::new(
            map(r.head()),
            map(r.body_pos()),
            map(r.body_neg()),
        ));
    }
    (
        sub,
        AtomMap {
            to_sub,
            from_sub: atoms.to_vec(),
        },
    )
}

/// The *supportable* atoms of `db`: the least set `S` containing every
/// atom of every head whose positive body lies inside `S` (negation is
/// ignored — optimistically assumed to succeed, and a disjunctive fact
/// optimistically supports all its head atoms). An atom outside `S` can
/// never be derived by any semantics; a rule whose positive body leaves
/// `S` can never fire (lint `DDB009`). This is
/// [`Database::positive_closure`], the worklist shared with the DDR
/// fixpoint.
pub fn supportable_atoms(db: &Database) -> Interpretation {
    db.positive_closure()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddb_logic::parse::{display_rule, parse_program};

    fn atom(db: &Database, name: &str) -> Atom {
        db.symbols()
            .atoms()
            .find(|&a| db.symbols().name(a) == name)
            .expect("atom exists")
    }

    /// Ground databases with parenthesized atom names come from the
    /// datalog grounder, not the propositional parser, so tests intern
    /// them directly.
    fn ground_db(rules: &[(&[&str], &[&str])]) -> Database {
        let mut db = Database::with_fresh_atoms(0);
        for (head, body) in rules {
            let h: Vec<Atom> = head.iter().map(|n| db.symbols_mut().intern(n)).collect();
            let b: Vec<Atom> = body.iter().map(|n| db.symbols_mut().intern(n)).collect();
            db.add_rule(Rule::new(h, b, Vec::<Atom>::new()));
        }
        db
    }

    fn atoms_named(db: &Database, slice: &Slice) -> Vec<String> {
        slice
            .atoms
            .iter()
            .map(|&a| db.symbols().name(a).to_owned())
            .collect()
    }

    #[test]
    fn closure_pulls_whole_rules_and_constraints() {
        // Query a: rule a|b pulls in b; constraint :- b, c pulls in c;
        // rule d :- c stays out (its head is irrelevant) and blocks the
        // split by reading c.
        let db = parse_program("a | b. :- b, c. d :- c. e.").unwrap();
        let q = [db.symbols().lookup("a").unwrap()];
        let s = relevant_slice(&db, &q);
        assert_eq!(atoms_named(&db, &s), ["a", "b", "c"]);
        assert_eq!(s.rules, vec![0, 1]);
        assert!(!s.split_closed);
        assert_eq!(s.blocking_rule, Some(2));
        assert!(!s.is_whole(&db));
    }

    #[test]
    fn disjoint_blocks_are_split_closed() {
        let db = parse_program("a | b. c :- a. x | y. z :- x.").unwrap();
        let q = [db.symbols().lookup("c").unwrap()];
        let s = relevant_slice(&db, &q);
        assert_eq!(atoms_named(&db, &s), ["a", "b", "c"]);
        assert!(s.split_closed);
        let (sub, map) = project_slice(&db, &s);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.num_atoms(), 3);
        assert_eq!(display_rule(&sub.rules()[0], sub.symbols()), "a | b.");
        assert_eq!(map.from_sub.len(), 3);
        let (top, _) = project_top(&db, &s);
        assert_eq!(top.len(), 2);
        assert_eq!(top.num_atoms(), db.num_atoms() - 3);
    }

    #[test]
    fn whole_database_slice_is_trivially_split_closed() {
        let db = parse_program("a | b. c :- a. c :- b.").unwrap();
        let q = [db.symbols().lookup("c").unwrap()];
        let s = relevant_slice(&db, &q);
        assert!(s.is_whole(&db));
        assert!(s.split_closed);
        assert_eq!(s.blocking_rule, None);
    }

    #[test]
    fn negative_bodies_are_relevant() {
        let db = parse_program("a :- not b. b :- c. d.").unwrap();
        let q = [db.symbols().lookup("a").unwrap()];
        let s = relevant_slice(&db, &q);
        assert_eq!(atoms_named(&db, &s), ["a", "b", "c"]);
        assert!(s.split_closed, "d. does not read the slice");
    }

    #[test]
    fn empty_query_yields_empty_slice() {
        let db = parse_program("a | b. :- a, b.").unwrap();
        let s = relevant_slice(&db, &[]);
        assert!(s.atoms.is_empty() && s.rules.is_empty());
        assert!(s.split_closed);
    }

    #[test]
    fn dead_rules_are_pruned_and_block_the_split() {
        // Rule 1 demands r(b) but its body atom ghost(x) is unsupportable,
        // so it can never fire: pruning keeps the restriction to the fact.
        let db = ground_db(&[
            (&["r(b)"], &[]),
            (&["r(b)"], &["ghost(x)"]),
            (&["q(z)"], &[]),
        ]);
        let q = [atom(&db, "r(b)")];
        let m = demand_closure(&Prepared::borrowed(&db), &q, true);
        assert_eq!(m.rules, vec![0]);
        assert_eq!(m.dropped_dead, vec![1]);
        // The dropped rule's head reads the restriction, so it must not
        // be reported split-closed (product would be unsound here).
        assert!(!m.split_closed);
        assert_eq!(m.blocking_rule, Some(1));
        // ghost(x) never joined the demand set.
        assert!(!m.in_slice.contains(atom(&db, "ghost(x)")));
    }

    #[test]
    fn pruning_beats_the_plain_slice() {
        // The relevance slice chases the dead rule's body; the magic
        // restriction does not.
        let db = ground_db(&[
            (&["r(b)"], &[]),
            (&["r(b)"], &["ghost(x)"]),
            (&["ghost(x)"], &["ghost(y)"]),
        ]);
        let q = [atom(&db, "r(b)")];
        let plain = relevant_slice(&db, &q);
        let m = demand_closure(&Prepared::borrowed(&db), &q, true);
        assert_eq!(plain.rules, vec![0, 1, 2]);
        assert_eq!(m.rules, vec![0]);
        assert!(m.rules.len() < plain.rules.len());
    }

    #[test]
    fn supportable_ignores_negation_and_trusts_disjunction() {
        let db = parse_program("a | b. c :- a, not z. d :- e.").unwrap();
        let s = supportable_atoms(&db);
        let name = |x: &str| db.symbols().lookup(x).unwrap();
        assert!(s.contains(name("a")) && s.contains(name("b")) && s.contains(name("c")));
        assert!(!s.contains(name("d")) && !s.contains(name("e")) && !s.contains(name("z")));
    }

    /// The rescanning least fixpoint the worklist closure replaced, kept as
    /// the oracle: each pass pulls in every rule the current set triggers,
    /// except rules `dead` selects.
    fn fixpoint_oracle(db: &Database, query_atoms: &[Atom], dead: &[bool]) -> Slice {
        let n = db.num_atoms();
        let rules = db.rules();
        let mut in_slice = Interpretation::empty(n);
        for &a in query_atoms {
            in_slice.insert(a);
        }
        let mut rule_in = vec![false; rules.len()];
        loop {
            let mut changed = false;
            for (i, r) in rules.iter().enumerate() {
                if rule_in[i] || dead[i] {
                    continue;
                }
                let triggered = if r.is_integrity() {
                    r.atoms().any(|a| in_slice.contains(a))
                } else {
                    r.head().iter().any(|&h| in_slice.contains(h))
                };
                if triggered {
                    rule_in[i] = true;
                    changed = true;
                    for a in r.atoms() {
                        in_slice.insert(a);
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let blocking_rule = rules
            .iter()
            .enumerate()
            .find(|(i, r)| !rule_in[*i] && r.atoms().any(|a| in_slice.contains(a)))
            .map(|(i, _)| i);
        let dropped_dead = (0..rules.len())
            .filter(|&i| dead[i] && rules[i].head().iter().any(|&h| in_slice.contains(h)))
            .collect();
        Slice {
            atoms: (0..n as u32)
                .map(Atom::new)
                .filter(|&a| in_slice.contains(a))
                .collect(),
            rules: (0..rules.len()).filter(|&i| rule_in[i]).collect(),
            split_closed: blocking_rule.is_none(),
            blocking_rule,
            in_slice,
            dropped_dead,
        }
    }

    fn assert_same_slice(got: &Slice, want: &Slice, what: &str) {
        assert_eq!(got.in_slice, want.in_slice, "{what}: in_slice");
        assert_eq!(got.atoms, want.atoms, "{what}: atoms");
        assert_eq!(got.rules, want.rules, "{what}: rules");
        assert_eq!(got.split_closed, want.split_closed, "{what}: split_closed");
        assert_eq!(
            got.blocking_rule, want.blocking_rule,
            "{what}: blocking_rule"
        );
        assert_eq!(got.dropped_dead, want.dropped_dead, "{what}: dropped_dead");
    }

    #[test]
    fn worklist_closures_match_the_fixpoint_oracle() {
        use ddb_workloads::random::{random_db, DbSpec};
        for seed in 0..150u64 {
            let spec = match seed % 3 {
                0 => DbSpec::positive(8, 10),
                1 => DbSpec::deductive(8, 10),
                _ => DbSpec::normal(8, 10),
            };
            let db = random_db(&spec, seed);
            let supportable = supportable_atoms(&db);
            let dead: Vec<bool> = db
                .rules()
                .iter()
                .map(|r| {
                    !r.is_integrity() && r.body_pos().iter().any(|&b| !supportable.contains(b))
                })
                .collect();
            let live = vec![false; db.len()];
            let p = Prepared::borrowed(&db);
            for q in [vec![], vec![0], vec![1, 5], vec![2, 3, 7]] {
                let q: Vec<Atom> = q.into_iter().map(Atom::new).collect();
                let what = format!("seed {seed} query {q:?}");
                let want = fixpoint_oracle(&db, &q, &live);
                assert_same_slice(&relevant_slice(&db, &q), &want, &what);
                assert_same_slice(&demand_closure(&p, &q, false), &want, &what);
                let want = fixpoint_oracle(&db, &q, &dead);
                assert_same_slice(&demand_closure(&p, &q, true), &want, &what);
            }
        }
    }
}
