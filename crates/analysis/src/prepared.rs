//! Prepared databases: the per-database analysis facts, each computed at
//! most once.
//!
//! The paper's complexity tables are per syntactic class, so which
//! algorithm a query may take depends on the database's fragment — and
//! the fragment flags, the reductions built on them and the indexes they
//! scan are facts about the database, not about the query. A [`Prepared`]
//! pairs a database with a lazily filled memo of those facts:
//!
//! * the dependency graph and the [`Fragments`] flags derived from it;
//! * the stratification (the input of ICWA's layering);
//! * the positive closure ([`Database::positive_closure`]): the
//!   supportable atoms, which on a Horn database are its least model, and
//!   whether that closure is a model (a Horn database's consistency);
//! * two rule indexes: the rules defining each atom (atom in the head)
//!   and the rules mentioning each atom;
//! * the splitting-set peel once per negation mode, with the islands of
//!   its residual;
//! * the whole-database islands.
//!
//! Every fact fills on first use, never at construction, and none depends
//! on a query, on a semantics' partition or varying atoms, or on a budget:
//! computing one never hits a budget checkpoint or calls the oracle.
//! Answers are never memoized. [`Prepared::borrowed`] wraps a borrowed
//! database in a throwaway memo and [`Prepared::new`] owns its database,
//! as a served catalog entry does, shared by every request against that
//! entry. Entry points take either form through [`AsPrepared`], so a
//! plain database and a prepared one run the same code path.

use crate::fragments::Fragments;
use crate::schedule::islands;
use crate::slice::Slice;
use crate::splitting::{peel_with, Peel};
use ddb_logic::depgraph::DepGraph;
use ddb_logic::{Atom, Database, Interpretation, Rule};
use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

/// A database paired with its lazily computed analysis facts (see the
/// module docs). `Send + Sync`: concurrent readers share the facts, and
/// the first reader of each fact computes it while the others wait.
pub struct Prepared<'a> {
    db: Cow<'a, Database>,
    graph: OnceLock<DepGraph>,
    fragments: OnceLock<Fragments>,
    strata: OnceLock<Option<Vec<Vec<Atom>>>>,
    closure: OnceLock<Interpretation>,
    closure_is_model: OnceLock<bool>,
    heads: OnceLock<RuleIndex>,
    occurrences: OnceLock<RuleIndex>,
    peels: [OnceLock<PeelFacts>; 2],
    islands: OnceLock<Arc<[Slice]>>,
}

/// One peel and the islands of its residual.
struct PeelFacts {
    peel: Arc<Peel>,
    islands: OnceLock<Arc<[Slice]>>,
}

impl Prepared<'static> {
    /// Takes ownership of `db`, with an empty memo.
    pub fn new(db: Database) -> Self {
        Prepared::from_cow(Cow::Owned(db))
    }
}

impl<'a> Prepared<'a> {
    /// Wraps a borrowed database in an empty memo.
    pub fn borrowed(db: &'a Database) -> Self {
        Prepared::from_cow(Cow::Borrowed(db))
    }

    fn from_cow(db: Cow<'a, Database>) -> Self {
        Prepared {
            db,
            graph: OnceLock::new(),
            fragments: OnceLock::new(),
            strata: OnceLock::new(),
            closure: OnceLock::new(),
            closure_is_model: OnceLock::new(),
            heads: OnceLock::new(),
            occurrences: OnceLock::new(),
            peels: [OnceLock::new(), OnceLock::new()],
            islands: OnceLock::new(),
        }
    }

    /// Seeds the fragment flags with ones the caller already computed for
    /// this database.
    pub fn with_fragments(self, frags: Fragments) -> Self {
        let _ = self.fragments.set(frags);
        self
    }

    /// The database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The dependency graph.
    pub(crate) fn graph(&self) -> &DepGraph {
        self.graph.get_or_init(|| DepGraph::of_database(&self.db))
    }

    /// The fragment flags ([`crate::classify`]).
    pub fn fragments(&self) -> Fragments {
        *self
            .fragments
            .get_or_init(|| Fragments::of(&self.db, self.graph()))
    }

    /// The stratification ([`Database::stratification`]), `None` when the
    /// database is unstratifiable.
    pub fn stratification(&self) -> Option<&[Vec<Atom>]> {
        self.strata
            .get_or_init(|| self.graph().stratification())
            .as_deref()
    }

    /// The positive closure ([`Database::positive_closure`]): the
    /// supportable atoms; on a Horn database, its least model.
    pub fn closure(&self) -> &Interpretation {
        self.closure.get_or_init(|| self.db.positive_closure())
    }

    /// Whether [`Prepared::closure`] satisfies every rule. On a Horn
    /// database: whether it is consistent.
    pub fn closure_is_model(&self) -> bool {
        *self
            .closure_is_model
            .get_or_init(|| self.db.satisfied_by(self.closure()))
    }

    /// The rules with each atom in their head.
    pub(crate) fn heads(&self) -> &RuleIndex {
        self.heads
            .get_or_init(|| RuleIndex::build(&self.db, |r| r.head().iter().copied()))
    }

    /// The rules mentioning each atom (head, positive or negative body).
    pub(crate) fn occurrences(&self) -> &RuleIndex {
        self.occurrences
            .get_or_init(|| RuleIndex::build(&self.db, Rule::atoms))
    }

    /// The splitting-set peel ([`peel_with`]) in the given negation mode.
    pub(crate) fn peel(&self, peel_negation: bool) -> &Arc<Peel> {
        &self.peel_facts(peel_negation).peel
    }

    /// The weakly-connected islands ([`islands`]) of the residual of the
    /// splitting-set peel ([`peel_with`]) in the given negation mode.
    pub fn peel_islands(&self, peel_negation: bool) -> &Arc<[Slice]> {
        let facts = self.peel_facts(peel_negation);
        facts
            .islands
            .get_or_init(|| exact(islands(&facts.peel.residual)))
    }

    fn peel_facts(&self, peel_negation: bool) -> &PeelFacts {
        // Without negation in the database both modes decide the same
        // atoms, so they share one peel.
        let negation = peel_negation && !self.fragments().deductive;
        self.peels[usize::from(negation)].get_or_init(|| {
            let mut peel = peel_with(&self.db, self.graph(), negation);
            peel.residual.shrink_to_fit();
            PeelFacts {
                peel: Arc::new(peel),
                islands: OnceLock::new(),
            }
        })
    }

    /// The weakly-connected islands of the whole database ([`islands`]).
    pub(crate) fn islands(&self) -> &Arc<[Slice]> {
        self.islands.get_or_init(|| exact(islands(&self.db)))
    }
}

/// A database as the planning and inference entry points accept it: a
/// plain [`Database`], answered on a throwaway memo, or a [`Prepared`]
/// one, answered on its shared memo. Either way the entry point runs the
/// same code on a `&Prepared`.
pub trait AsPrepared {
    /// Runs `f` on the prepared form of `self`.
    fn with_prepared<R>(&self, f: impl FnOnce(&Prepared<'_>) -> R) -> R;
}

impl AsPrepared for Database {
    fn with_prepared<R>(&self, f: impl FnOnce(&Prepared<'_>) -> R) -> R {
        f(&Prepared::borrowed(self))
    }
}

impl AsPrepared for Prepared<'_> {
    fn with_prepared<R>(&self, f: impl FnOnce(&Prepared<'_>) -> R) -> R {
        f(self)
    }
}

impl<T: AsPrepared + ?Sized> AsPrepared for Arc<T> {
    fn with_prepared<R>(&self, f: impl FnOnce(&Prepared<'_>) -> R) -> R {
        (**self).with_prepared(f)
    }
}

/// Islands with their lists sized exactly: a memoized fact outlives the
/// query that computed it.
fn exact(mut parts: Vec<Slice>) -> Arc<[Slice]> {
    for part in &mut parts {
        part.atoms.shrink_to_fit();
        part.rules.shrink_to_fit();
    }
    parts.into()
}

/// An atom → rules adjacency in flat form: the rules listed for atom `a`
/// are `ids[offsets[a] .. offsets[a + 1]]`, ascending, each once.
#[derive(Clone, Debug)]
pub(crate) struct RuleIndex {
    offsets: Vec<u32>,
    ids: Vec<u32>,
}

impl RuleIndex {
    /// Lists every rule of `db` under the atoms `atoms_of` yields for it.
    fn build<'r, I: Iterator<Item = Atom>>(
        db: &'r Database,
        atoms_of: impl Fn(&'r Rule) -> I,
    ) -> Self {
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for (i, r) in db.rules().iter().enumerate() {
            pairs.extend(atoms_of(r).map(|a| (a.index() as u32, i as u32)));
        }
        // Sorted (atom, rule) pairs are the adjacency lists laid end to end.
        pairs.sort_unstable();
        pairs.dedup();
        let mut offsets = vec![0u32; db.num_atoms() + 1];
        for &(a, _) in &pairs {
            offsets[a as usize + 1] += 1;
        }
        for a in 1..offsets.len() {
            offsets[a] += offsets[a - 1];
        }
        RuleIndex {
            offsets,
            ids: pairs.iter().map(|&(_, i)| i).collect(),
        }
    }

    /// The indices of the rules listed for `a`, ascending.
    pub(crate) fn rules_of(&self, a: Atom) -> &[u32] {
        &self.ids[self.offsets[a.index()] as usize..self.offsets[a.index() + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddb_logic::parse::parse_program;

    #[test]
    fn indexes_list_rules_once_in_order() {
        let db = parse_program("a | b. c :- a, a. :- a, c. d :- not a.").unwrap();
        let p = Prepared::borrowed(&db);
        let a = db.symbols().lookup("a").unwrap();
        let c = db.symbols().lookup("c").unwrap();
        assert_eq!(p.heads().rules_of(a), [0]);
        assert_eq!(p.heads().rules_of(c), [1]);
        assert_eq!(p.occurrences().rules_of(a), [0, 1, 2, 3]);
        assert_eq!(p.occurrences().rules_of(c), [1, 2]);
    }

    #[test]
    fn facts_match_their_direct_computations() {
        let db = parse_program("a. b :- a. c | d :- b. e :- not c. :- d, e.").unwrap();
        let p = Prepared::new(db.clone());
        assert_eq!(p.fragments(), crate::classify(&db));
        assert_eq!(p.stratification().map(<[_]>::to_vec), db.stratification());
        assert_eq!(*p.closure(), db.positive_closure());
        let graph = DepGraph::of_database(&db);
        for mode in [false, true] {
            let direct = peel_with(&db, &graph, mode);
            assert_eq!(p.peel(mode).decided, direct.decided);
            assert_eq!(p.peel_islands(mode).len(), islands(&direct.residual).len());
        }
        assert_eq!(p.islands().len(), islands(&db).len());
    }

    #[test]
    fn negation_free_databases_share_one_peel() {
        let db = parse_program("a. b :- a. c | d :- b.").unwrap();
        let p = Prepared::borrowed(&db);
        assert!(Arc::ptr_eq(p.peel(false), p.peel(true)));
    }

    #[test]
    fn horn_consistency_is_the_closure_being_a_model() {
        let good = parse_program("a. b :- a. :- c.").unwrap();
        let bad = parse_program("a. b :- a. :- b.").unwrap();
        assert!(Prepared::borrowed(&good).closure_is_model());
        assert!(!Prepared::borrowed(&bad).closure_is_model());
    }
}
