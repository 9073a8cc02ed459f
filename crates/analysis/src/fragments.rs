//! Fragment classification: which syntactic fragments a database falls in.
//!
//! The paper's complexity tables are not uniformly hard — entire rows
//! collapse to "in P" or O(1) on fragments. Recognizing the fragment is the
//! cheap, polynomial step that unlocks the cheap algorithm, so every flag
//! here is computable in time linear in the database plus one SCC
//! decomposition of its dependency graph.
//!
//! The fragments form a lattice (arrows are inclusions):
//!
//! ```text
//! definite ⊂ Horn ⊂ deductive ⊃ positive
//! positive ⊂ deductive ⊂ stratified ⊂ normal        (DbClass chain)
//! tight ⊂ head-cycle-free                            (on the positive graph)
//! ```

use ddb_logic::depgraph::DepGraph;
use ddb_logic::{Database, DbClass};
use ddb_obs::json::Json;

/// The syntactic fragments a database belongs to. Flags are not mutually
/// exclusive — a definite database is also Horn, deductive, stratified,
/// head-cycle-free and tight.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fragments {
    /// The most specific [`DbClass`] (the paper's chain
    /// Positive ⊂ Deductive ⊂ Stratified ⊂ Normal).
    pub class: DbClass,
    /// Every rule has at most one head atom and no negation (integrity
    /// clauses allowed). Horn databases have a least model computable by a
    /// polynomial fixpoint, collapsing all ten semantics.
    pub horn: bool,
    /// Every rule has exactly one head atom and no negation — Horn without
    /// integrity clauses, so the database is always consistent.
    pub definite: bool,
    /// No negation and no integrity clauses (the class of Table 1).
    pub positive: bool,
    /// No negation (`DB ⊆ C⁺`); integrity clauses allowed.
    pub deductive: bool,
    /// The database has a stratification (negation does not recurse).
    pub stratified: bool,
    /// No rule has two head atoms in the same strongly connected component
    /// of the positive dependency graph (Ben-Eliyahu & Dechter). For HCF
    /// databases DSM coincides with the stable models of the *shifted*
    /// normal program, making the stability check polynomial.
    pub head_cycle_free: bool,
    /// The positive dependency graph is acyclic (Fages): completion and
    /// stable semantics coincide.
    pub tight: bool,
}

impl Fragments {
    /// Computes all fragment flags from the database and its dependency
    /// graph.
    pub fn of(db: &Database, graph: &DepGraph) -> Self {
        let horn = db.is_horn();
        let definite = horn && !db.has_integrity_clauses();
        let positive = db.is_positive();
        let deductive = !db.has_negation();
        let stratified = deductive || graph.stratification().is_some();
        let pos_sccs = graph.positive_sccs();
        let head_cycle_free = db.rules().iter().all(|r| {
            let head = r.head();
            head.len() < 2
                || head
                    .iter()
                    .enumerate()
                    .all(|(i, &a)| head[i + 1..].iter().all(|&b| !pos_sccs.same(a, b)))
        });
        let tight = pos_sccs.sizes().iter().all(|&s| s == 1)
            && db
                .symbols()
                .atoms()
                .all(|a| !graph.has_positive_self_loop(a));
        Fragments {
            class: if deductive {
                if db.has_integrity_clauses() {
                    DbClass::Deductive
                } else {
                    DbClass::Positive
                }
            } else if stratified {
                DbClass::Stratified
            } else {
                DbClass::Normal
            },
            horn,
            definite,
            positive,
            deductive,
            stratified,
            head_cycle_free,
            tight,
        }
    }

    /// The names of the fragments that hold, for human-facing output.
    pub fn names(&self) -> Vec<&'static str> {
        let mut out = Vec::new();
        for (flag, name) in [
            (self.definite, "definite"),
            (self.horn, "horn"),
            (self.positive, "positive"),
            (self.deductive, "deductive"),
            (self.stratified, "stratified"),
            (self.head_cycle_free, "head-cycle-free"),
            (self.tight, "tight"),
        ] {
            if flag {
                out.push(name);
            }
        }
        out
    }

    /// JSON rendering: the class plus one boolean per fragment.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("class", Json::Str(format!("{:?}", self.class))),
            ("horn", Json::Bool(self.horn)),
            ("definite", Json::Bool(self.definite)),
            ("positive", Json::Bool(self.positive)),
            ("deductive", Json::Bool(self.deductive)),
            ("stratified", Json::Bool(self.stratified)),
            ("head_cycle_free", Json::Bool(self.head_cycle_free)),
            ("tight", Json::Bool(self.tight)),
        ])
    }
}

/// Convenience: classify `db` without keeping the graph around (a
/// throwaway [`crate::Prepared`] memo; keep one to classify once).
pub fn classify(db: &Database) -> Fragments {
    crate::Prepared::borrowed(db).fragments()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddb_logic::parse::parse_program;

    fn frags(src: &str) -> Fragments {
        classify(&parse_program(src).unwrap())
    }

    #[test]
    fn definite_implies_everything() {
        let f = frags("a. b :- a. c :- a, b.");
        assert!(f.definite && f.horn && f.positive && f.deductive);
        assert!(f.stratified && f.head_cycle_free && f.tight);
        assert_eq!(f.class, DbClass::Positive);
    }

    #[test]
    fn integrity_clause_breaks_definite_not_horn() {
        let f = frags("a. :- a, b.");
        assert!(f.horn && !f.definite);
        assert_eq!(f.class, DbClass::Deductive);
    }

    #[test]
    fn disjunction_breaks_horn_keeps_hcf() {
        let f = frags("a | b. c :- a.");
        assert!(!f.horn && f.positive && f.head_cycle_free && f.tight);
    }

    #[test]
    fn head_cycle_detected() {
        // a ∨ b with a ← b and b ← a: both head atoms in one positive SCC.
        let f = frags("a | b. a :- b. b :- a.");
        assert!(!f.head_cycle_free);
        assert!(!f.tight);
        // Cycle through heads of *different* rules stays HCF.
        let g = frags("a | b :- c. c :- b.");
        assert!(g.head_cycle_free && !g.tight);
    }

    #[test]
    fn self_loop_breaks_tightness_only() {
        let f = frags("a :- a.");
        assert!(f.head_cycle_free && !f.tight && f.horn);
    }

    #[test]
    fn negation_classes() {
        assert_eq!(frags("b :- not a.").class, DbClass::Stratified);
        assert_eq!(frags("a :- not b. b :- not a.").class, DbClass::Normal);
        assert!(!frags("a :- not b. b :- not a.").stratified);
    }
}
