//! Instance families behind each table cell.

use ddb_ground::parse::parse_datalog;
use ddb_ground::{DatalogProgram, PredAtom};
use ddb_logic::{Atom, Database, Formula, Rule};
use ddb_reductions::gcwa_hardness::{forall_exists_to_gcwa, GcwaInstance};
use ddb_reductions::qbf::random_forall_exists;
use ddb_workloads::random::{random_db, random_stratified_db, DbSpec};
use ddb_workloads::structured;

/// Table-1 average-case family: random positive DDBs with `n` atoms and
/// `2n` rules.
pub fn table1_random(n: usize, seed: u64) -> Database {
    random_db(&DbSpec::positive(n, 2 * n), seed)
}

/// Table-2 average-case family: random deductive DDBs (integrity clauses
/// at 15%).
pub fn table2_random(n: usize, seed: u64) -> Database {
    random_db(&DbSpec::deductive(n, 2 * n), seed)
}

/// Normal-database family (negation + integrity) for DSM/PDSM/PERF rows.
pub fn normal_random(n: usize, seed: u64) -> Database {
    random_db(&DbSpec::normal(n, 2 * n), seed)
}

/// Stratified family for the ICWA/PERF rows.
pub fn stratified_random(n: usize, seed: u64) -> Database {
    random_stratified_db(n, 2 * n, 3.min(n.max(1)), seed)
}

/// [`stratified_random`] without its integrity clauses: the family of the
/// O(1) ICWA existence cell (stratifiability alone asserts a model).
pub fn stratified_consistent(n: usize, seed: u64) -> Database {
    let raw = stratified_random(n, seed);
    let mut db = Database::new(raw.symbols().clone());
    for r in raw.rules().iter().filter(|r| !r.is_integrity()) {
        db.add_rule(r.clone());
    }
    db
}

/// The Πᵖ₂-hard family: QBF reductions with `nx` universal variables
/// (instance difficulty is exponential in `nx`, the quantity the
/// lower-bound sweeps scale).
pub fn qbf_hard(nx: u32, ny: u32, seed: u64) -> GcwaInstance {
    let clauses = (2 * (nx + ny)) as usize;
    forall_exists_to_gcwa(&random_forall_exists(nx, ny, clauses, 3, seed))
}

/// The worst-case Πᵖ₂ family: the *valid* parity QBF through the GCWA
/// reduction. Every universal assignment has a distinct existential
/// witness, so the CEGAR loop must refute signatures one by one —
/// measured time is genuinely exponential in `n`.
pub fn qbf_parity_hard(n: u32) -> GcwaInstance {
    forall_exists_to_gcwa(&ddb_reductions::qbf::parity_family(n))
}

/// The worst-case Σᵖ₂-existence family for DSM: the complement of the
/// parity QBF is *false*, so the stable-model search must exhaust all
/// `2^n` outer choices before answering **no**.
pub fn dsm_exist_hard(n: u32) -> Database {
    let q = ddb_reductions::qbf::parity_family(n).complement();
    ddb_reductions::dsm_hardness::exists_forall_to_dsm_existence(&q).db
}

/// The tractable-cell polynomial family (all atoms active).
pub fn tractable_chain(n: usize) -> Database {
    structured::horn_chain(n)
}

/// Layered disjunctive family: polynomial for DDR/PWS closures,
/// exponential minimal-model count for enumeration procedures.
pub fn layered(n: usize) -> Database {
    structured::layered_disjunctive((n / 4).max(1), 4)
}

/// Query-relevant slicing family: `towers` independent disjunctive
/// towers, two stages high. A literal query about one tower's first
/// stage slices down to 5 atoms however many towers exist, so the
/// sliced route's cost is flat while the generic route's grows with the
/// product of per-tower minimal-model counts.
pub fn sliceable(towers: usize) -> Database {
    structured::sliceable_towers(towers, 2)
}

/// Tower 0's first-stage closure atom `c₁` of [`sliceable`] (layout:
/// c₀ d₀ a₁ b₁ c₁ …), queried positively: its relevance slice has five
/// atoms however many towers exist.
pub fn sliceable_c1(towers: usize) -> (Database, Formula) {
    (sliceable(towers), Formula::from(Atom::new(4).pos()))
}

/// [`sliceable`] plus `g :- c₁, d₀.` over a fresh atom `g`, queried for
/// `¬g`. `c₁` needs `c₀`, which excludes `d₀` in every minimal model, so
/// `¬g` is inferred, and a route that does not slice walks every minimal
/// model of the product database to show it.
pub fn sliceable_not_goal(towers: usize) -> (Database, Formula) {
    let mut db = sliceable(towers);
    let g = db.symbols_mut().fresh_atom("g");
    db.add_rule(Rule::new([g], [Atom::new(4), Atom::new(1)], []));
    (db, Formula::from(g.neg()))
}

/// Chains in the [`bound_chains`] family.
pub const BOUND_CHAINS: usize = 16;

/// The goal-directed grounding family: [`BOUND_CHAINS`] independent
/// chains of length `depth` sharing one recursive reachability rule set,
/// with the query bound to chain 0's last node. Returns the program, the
/// query atom, and the query's ground name. Whole-program grounding pays
/// for every chain; magic grounding and the magic route for one.
pub fn bound_chains(depth: usize) -> (DatalogProgram, PredAtom, String) {
    let (source, query) = structured::bound_chains(BOUND_CHAINS, depth);
    let prog = parse_datalog(&source).expect("bound_chains parses");
    let q = parse_datalog(&format!("{query}."))
        .expect("query atom parses")
        .rules[0]
        .head[0]
        .clone();
    (prog, q, query)
}

/// NP-complete existence family (Table 2 EGCWA row): random 3-CNF near
/// the phase transition, as a deductive database.
pub fn phase_transition(n: usize, seed: u64) -> Database {
    structured::phase_transition_db(n, 4.26, 3, seed)
}

/// Stable-model enumeration family: `2^k` stable models.
pub fn even_loops(k: usize) -> Database {
    structured::even_loops(k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_have_expected_classes() {
        assert!(table1_random(10, 1).is_positive());
        assert!(!table2_random(30, 1).has_negation());
        assert!(stratified_random(12, 1).stratification().is_some());
        assert!(qbf_hard(2, 2, 1).db.is_positive());
        assert!(tractable_chain(50).is_horn());
    }

    #[test]
    fn qbf_hard_scales_with_nx() {
        let a = qbf_hard(2, 2, 5);
        let b = qbf_hard(4, 2, 5);
        assert!(b.db.num_atoms() > a.db.num_atoms());
    }
}
