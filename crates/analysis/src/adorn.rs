//! Binding-pattern (adornment) analysis over the query's sideways
//! information passing.
//!
//! Magic-set style goal-directed evaluation (Bancilhon & Ramakrishnan)
//! specializes each predicate to the *binding pattern* the query reaches it
//! with: `p^bf` means the first argument arrives bound to a query constant
//! and the second is free. The database here is already ground — atoms are
//! interned strings like `covered(gear)` — so the analysis recovers the
//! predicate/argument structure syntactically ([`split_predicate`]) and
//! computes, for every predicate backward-reachable from the query, which
//! argument positions are bound to query constants in **every** reachable
//! occurrence:
//!
//! 1. The bound-constant set `B` is the set of constants appearing in the
//!    query's own atoms.
//! 2. The reachable occurrences are exactly the atoms of the query's
//!    backward relevance slice ([`crate::relevant_slice`]) — the sideways
//!    information passing walks the same rule edges.
//! 3. Position `j` of predicate `p` is adorned `b` iff every reachable
//!    occurrence of `p` carries a constant from `B` at position `j`;
//!    otherwise `f`.
//!
//! A predicate with a free position means goal-directed evaluation cannot
//! restrict it to the query's constants — the planner surfaces this as lint
//! `DDB012`, and it is the precondition a magic-sets transform keys on.

use crate::slice::relevant_slice;
use ddb_logic::{Atom, Database};
use ddb_obs::json::Json;
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// Splits a ground atom name into its predicate and argument constants:
/// `covered(gear)` → `("covered", ["gear"])`, `p(f(a),b)` → `("p",
/// ["f(a)", "b"])` (arguments split at top-level commas only),
/// propositional `flag` → `("flag", [])`. Zero-arity `p()` yields
/// `("p", [])` as well.
pub fn split_predicate(name: &str) -> (&str, Vec<&str>) {
    let Some(open) = name.find('(') else {
        return (name, Vec::new());
    };
    if !name.ends_with(')') {
        return (name, Vec::new());
    }
    let pred = &name[..open];
    let inner = &name[open + 1..name.len() - 1];
    if inner.is_empty() {
        return (pred, Vec::new());
    }
    let mut args = Vec::new();
    let (mut depth, mut start) = (0usize, 0usize);
    for (i, c) in inner.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                args.push(inner[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    args.push(inner[start..].trim());
    (pred, args)
}

/// The adornment (binding pattern) of one backward-reachable predicate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PredicateAdornment {
    /// Predicate name.
    pub predicate: String,
    /// Arity (0 for propositional atoms).
    pub arity: usize,
    /// One character per argument position: `b` (bound to a query
    /// constant in every reachable occurrence) or `f` (free in some
    /// occurrence). Empty for propositional atoms.
    pub pattern: String,
    /// How many reachable ground occurrences the meet ranged over.
    pub occurrences: usize,
}

impl PredicateAdornment {
    /// Whether any argument position is free.
    pub fn has_free(&self) -> bool {
        self.pattern.contains('f')
    }

    /// `predicate^pattern` display form (`covered^b`); bare predicate for
    /// propositional atoms.
    pub fn display(&self) -> String {
        if self.pattern.is_empty() {
            self.predicate.clone()
        } else {
            format!("{}^{}", self.predicate, self.pattern)
        }
    }
}

/// Adornment map for one query: per-predicate binding patterns over the
/// query's backward slice, sorted by predicate name then arity.
#[derive(Clone, Debug, Default)]
pub struct Adornments {
    /// The per-predicate patterns.
    pub predicates: Vec<PredicateAdornment>,
    /// The query's bound-constant set `B`, sorted.
    pub bound_constants: Vec<String>,
}

impl Adornments {
    /// The predicates goal-directed evaluation would leave partially
    /// unbound (adornment contains `f`).
    pub fn unbound(&self) -> impl Iterator<Item = &PredicateAdornment> {
        self.predicates.iter().filter(|p| p.has_free())
    }

    /// JSON rendering for `ddb explain --json`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "bound_constants",
                Json::Arr(
                    self.bound_constants
                        .iter()
                        .map(|c| Json::Str(c.clone()))
                        .collect(),
                ),
            ),
            (
                "predicates",
                Json::Arr(
                    self.predicates
                        .iter()
                        .map(|p| {
                            Json::obj([
                                ("predicate", Json::Str(p.predicate.clone())),
                                ("arity", Json::UInt(p.arity as u64)),
                                ("pattern", Json::Str(p.pattern.clone())),
                                ("occurrences", Json::UInt(p.occurrences as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Computes the adornment map for a query over `query_atoms` (see the
/// module docs for the construction). Deterministic: iteration follows the
/// slice's sorted atom order and the output is sorted by predicate.
pub fn adorn(db: &Database, query_atoms: &[Atom]) -> Adornments {
    let mut bound: BTreeSet<&str> = BTreeSet::new();
    for &a in query_atoms {
        let (_, args) = split_predicate(db.symbols().name(a));
        bound.extend(args);
    }
    let slice = relevant_slice(db, query_atoms);
    // Meet of the binding vectors across every reachable occurrence:
    // start from all-bound and clear positions where a non-query constant
    // shows up.
    let mut meet: BTreeMap<(String, usize), (Vec<bool>, usize)> = BTreeMap::new();
    for &a in &slice.atoms {
        let (pred, args) = split_predicate(db.symbols().name(a));
        let entry = meet
            .entry((pred.to_owned(), args.len()))
            .or_insert_with(|| (vec![true; args.len()], 0));
        entry.1 += 1;
        for (j, c) in args.iter().enumerate() {
            if !bound.contains(c) {
                entry.0[j] = false;
            }
        }
    }
    Adornments {
        predicates: meet
            .into_iter()
            .map(
                |((predicate, arity), (positions, occurrences))| PredicateAdornment {
                    predicate,
                    arity,
                    pattern: positions
                        .iter()
                        .map(|&b| if b { 'b' } else { 'f' })
                        .collect(),
                    occurrences,
                },
            )
            .collect(),
        bound_constants: bound.into_iter().map(str::to_owned).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddb_logic::parse::parse_program;
    use ddb_logic::Rule;

    fn atom(db: &Database, name: &str) -> Atom {
        db.symbols()
            .atoms()
            .find(|&a| db.symbols().name(a) == name)
            .expect("atom exists")
    }

    /// Builds a ground database from (head names, positive body names)
    /// pairs — the propositional parser does not accept parenthesized
    /// ground-atom names (those are produced by the datalog grounder), so
    /// tests intern them directly.
    fn ground_db(rules: &[(&[&str], &[&str])]) -> Database {
        let mut db = Database::with_fresh_atoms(0);
        for (head, body) in rules {
            let h: Vec<Atom> = head.iter().map(|n| db.symbols_mut().intern(n)).collect();
            let b: Vec<Atom> = body.iter().map(|n| db.symbols_mut().intern(n)).collect();
            db.add_rule(Rule::new(h, b, Vec::<Atom>::new()));
        }
        db
    }

    #[test]
    fn split_predicate_shapes() {
        assert_eq!(split_predicate("flag"), ("flag", vec![]));
        assert_eq!(split_predicate("p()"), ("p", vec![]));
        assert_eq!(split_predicate("covered(gear)"), ("covered", vec!["gear"]));
        assert_eq!(split_predicate("e(a, b)"), ("e", vec!["a", "b"]));
        assert_eq!(split_predicate("p(f(a),b)"), ("p", vec!["f(a)", "b"]));
        // Malformed names degrade to propositional, never panic.
        assert_eq!(split_predicate("odd(name"), ("odd(name", vec![]));
    }

    #[test]
    fn fully_bound_chain_is_all_b() {
        let db = ground_db(&[
            (&["part(gear)"], &[]),
            (&["covered(gear)"], &["sourced(gear)", "part(gear)"]),
            (&["sourced(gear)"], &[]),
        ]);
        let ad = adorn(&db, &[atom(&db, "covered(gear)")]);
        assert_eq!(ad.bound_constants, vec!["gear".to_owned()]);
        assert!(ad.unbound().next().is_none(), "{:?}", ad.predicates);
        let covered = ad
            .predicates
            .iter()
            .find(|p| p.predicate == "covered")
            .unwrap();
        assert_eq!(covered.pattern, "b");
        assert_eq!(covered.display(), "covered^b");
    }

    #[test]
    fn free_position_detected_through_the_slice() {
        // The slice of covered(gear) pulls in part(axle) through the rule
        // body, so part's argument is not always `gear`.
        let db = ground_db(&[
            (&["part(gear)"], &[]),
            (&["part(axle)"], &[]),
            (&["covered(gear)"], &["part(gear)", "part(axle)"]),
        ]);
        let ad = adorn(&db, &[atom(&db, "covered(gear)")]);
        let part = ad
            .predicates
            .iter()
            .find(|p| p.predicate == "part")
            .unwrap();
        assert_eq!(part.pattern, "f");
        assert!(part.has_free());
        assert_eq!(ad.unbound().count(), 1);
    }

    #[test]
    fn propositional_atoms_have_empty_pattern() {
        let db = parse_program("a | b. c :- a.").unwrap();
        let ad = adorn(&db, &[atom(&db, "c")]);
        assert!(ad.bound_constants.is_empty());
        assert!(ad.predicates.iter().all(|p| p.pattern.is_empty()));
        assert!(ad.unbound().next().is_none());
        assert_eq!(ad.predicates[0].display(), ad.predicates[0].predicate);
    }

    #[test]
    fn json_renders() {
        let db = ground_db(&[
            (&["covered(gear)"], &["part(gear)"]),
            (&["part(gear)"], &[]),
        ]);
        let ad = adorn(&db, &[atom(&db, "covered(gear)")]);
        let parsed = ddb_obs::json::parse(&ad.to_json().render()).unwrap();
        assert!(parsed.get("predicates").unwrap().as_arr().unwrap().len() >= 2);
    }
}
