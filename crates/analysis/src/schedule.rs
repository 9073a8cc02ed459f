//! Independent work scheduling: weakly-connected dependency islands.
//!
//! The splitting-set condensation ([`crate::layering`]) orders components
//! *vertically* — later levels depend on earlier ones. This module cuts
//! the orthogonal, *horizontal* direction: two atoms belong to the same
//! **island** when some chain of rules connects them, ignoring edge
//! direction (a rule couples every atom it mentions — head siblings,
//! positive and negative body, and all atoms of an integrity clause).
//! Distinct islands share no rule and no atom, so the database is their
//! disjoint union and every semantics in the paper factors over it as a
//! product: a model of `DB` is exactly a union of models, one per island,
//! and model-theoretic properties (minimality, stability, perfection,
//! the closed-world closures) are checked islandwise, and model existence
//! is asked once per island.
//!
//! Each island is returned as a [`Slice`] that is split-closed by
//! construction, so [`crate::project_slice`] projects it to a standalone
//! sub-database directly. Atoms mentioned by no rule form rule-less
//! islands and are omitted: no rule can derive or constrain them, so they
//! cannot affect model existence or inference over the returned islands.

use crate::slice::Slice;
use ddb_logic::{Atom, Database, Interpretation};

/// Union-find with path halving and union by size.
struct Dsu {
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, mut v: usize) -> usize {
        while self.parent[v] != v {
            self.parent[v] = self.parent[self.parent[v]];
            v = self.parent[v];
        }
        v
    }

    fn union(&mut self, a: usize, b: usize) {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra;
        self.size[ra] += self.size[rb];
    }
}

/// Decomposes `db` into its weakly-connected dependency islands, each a
/// split-closed [`Slice`] (atoms ascending, rule indices ascending),
/// ordered by smallest atom index.
///
/// Degenerate inputs collapse to one whole-database island: a rule with
/// no atoms (the empty integrity clause — no models for any semantics)
/// cannot be attributed to any island, so no decomposition is attempted.
pub fn islands(db: &Database) -> Vec<Slice> {
    let n = db.num_atoms();
    let rules = db.rules();
    let mut dsu = Dsu::new(n);
    for r in rules.iter() {
        let mut atoms = r.atoms();
        let Some(first) = atoms.next() else {
            return vec![whole(db)];
        };
        for a in atoms {
            dsu.union(first.index(), a.index());
        }
    }
    // Island ids in order of smallest member atom.
    let mut island_of_root = vec![usize::MAX; n];
    let mut islands: Vec<Slice> = Vec::new();
    for v in 0..n {
        let root = dsu.find(v);
        if island_of_root[root] == usize::MAX {
            island_of_root[root] = islands.len();
            islands.push(Slice {
                in_slice: Interpretation::empty(n),
                atoms: Vec::new(),
                rules: Vec::new(),
                split_closed: true,
                blocking_rule: None,
                dropped_dead: Vec::new(),
            });
        }
        let island = &mut islands[island_of_root[root]];
        island.in_slice.insert(Atom::new(v as u32));
        island.atoms.push(Atom::new(v as u32));
    }
    for (i, r) in rules.iter().enumerate() {
        let a = r.atoms().next().expect("empty clause handled above");
        let root = dsu.find(a.index());
        islands[island_of_root[root]].rules.push(i);
    }
    islands.retain(|island| !island.rules.is_empty());
    islands
}

fn whole(db: &Database) -> Slice {
    Slice {
        in_slice: Interpretation::full(db.num_atoms()),
        atoms: (0..db.num_atoms() as u32).map(Atom::new).collect(),
        rules: (0..db.len()).collect(),
        split_closed: true,
        blocking_rule: None,
        dropped_dead: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slice::project_slice;
    use ddb_logic::parse::{display_rule, parse_program};

    fn rendered(db: &Database, island: &Slice) -> Vec<String> {
        let (sub, _) = project_slice(db, island);
        sub.rules()
            .iter()
            .map(|r| display_rule(r, sub.symbols()))
            .collect()
    }

    #[test]
    fn disjoint_programs_split_into_islands() {
        let db = parse_program("a | b. c :- a. x | y. z :- not x. q.").unwrap();
        let parts = islands(&db);
        assert_eq!(parts.len(), 3);
        assert_eq!(rendered(&db, &parts[0]), ["a | b.", "c :- a."]);
        assert_eq!(rendered(&db, &parts[1]), ["x | y.", "z :- not x."]);
        assert_eq!(rendered(&db, &parts[2]), ["q."]);
        for p in &parts {
            assert!(p.split_closed);
        }
    }

    #[test]
    fn constraints_couple_their_atoms() {
        // Without the constraint, {a|b} and {c} are separate; the
        // constraint `:- b, c` welds them into one island.
        let db = parse_program("a | b. c. :- b, c. p.").unwrap();
        let parts = islands(&db);
        assert_eq!(parts.len(), 2);
        assert_eq!(rendered(&db, &parts[0]), ["a | b.", "c.", ":- b, c."]);
        assert_eq!(rendered(&db, &parts[1]), ["p."]);
    }

    #[test]
    fn connected_database_is_one_island() {
        let db = parse_program("a | b. c :- a. c :- b.").unwrap();
        let parts = islands(&db);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].rules, vec![0, 1, 2]);
    }

    #[test]
    fn empty_clause_collapses_to_whole_database() {
        let mut db = parse_program("a. x | y.").unwrap();
        db.add_rule(ddb_logic::Rule::integrity([], []));
        let parts = islands(&db);
        assert_eq!(parts.len(), 1, "no decomposition across an empty clause");
        assert_eq!(parts[0].rules.len(), db.len());
    }

    #[test]
    fn rule_less_atoms_join_no_island() {
        let mut db = parse_program("a. b :- a.").unwrap();
        let free = db.symbols_mut().intern("free");
        let parts = islands(&db);
        assert_eq!(parts.len(), 1);
        assert!(!parts[0].in_slice.contains(free));
    }
}
