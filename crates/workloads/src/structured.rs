//! Structured scaling families.

use ddb_logic::rng::XorShift64Star;
use ddb_logic::{Atom, Database, Rule, Symbols};

/// A Horn chain `x₀. x₁ ← x₀. … x_{n-1} ← x_{n-2}.` — the polynomial
/// scaling family for the tractable DDR/PWS cells (every atom active).
pub fn horn_chain(n: usize) -> Database {
    let mut db = Database::with_fresh_atoms(n);
    if n == 0 {
        return db;
    }
    db.add_rule(Rule::fact([Atom::new(0)]));
    for i in 1..n {
        db.add_rule(Rule::new(
            [Atom::new(i as u32)],
            [Atom::new(i as u32 - 1)],
            [],
        ));
    }
    db
}

/// A layered disjunctive program: `layers` layers of `width` atoms; every
/// layer-`i+1` atom is derivable from a disjunction over layer `i`:
///
/// ```text
/// a₀,₀ ∨ … ∨ a₀,w.                      (base facts)
/// aᵢ₊₁,ⱼ ∨ aᵢ₊₁,ⱼ₊₁ ← aᵢ,ⱼ.           (diagonal propagation)
/// ```
///
/// Positive, integrity-free, with exponentially many minimal models in
/// `layers · width` — a stress family for enumeration-based procedures and
/// a *polynomial* family for the DDR active-atom closure.
pub fn layered_disjunctive(layers: usize, width: usize) -> Database {
    let n = layers * width;
    let mut db = Database::with_fresh_atoms(n);
    if layers == 0 || width == 0 {
        return db;
    }
    let at = |l: usize, j: usize| Atom::new((l * width + j) as u32);
    db.add_rule(Rule::fact((0..width).map(|j| at(0, j))));
    for l in 0..layers - 1 {
        for j in 0..width {
            let j2 = (j + 1) % width;
            db.add_rule(Rule::new([at(l + 1, j), at(l + 1, j2)], [at(l, j)], []));
        }
    }
    db
}

/// An undirected random graph `G(n, p)` as an edge list (deterministic in
/// `seed`).
pub fn random_graph(n: usize, p: f64, seed: u64) -> Vec<(usize, usize)> {
    let mut rng = XorShift64Star::seed_from_u64(seed);
    let mut edges = Vec::new();
    for u in 0..n {
        for v in u + 1..n {
            if rng.gen_bool(p) {
                edges.push((u, v));
            }
        }
    }
    edges
}

/// Graph `k`-coloring as a disjunctive deductive database: atom `c_{v,i}`
/// says vertex `v` has color `i`;
///
/// ```text
/// c_{v,1} ∨ … ∨ c_{v,k}.          (every vertex colored)
/// ← c_{u,i} ∧ c_{v,i}.            (adjacent vertices differ, per color)
/// ```
///
/// The minimal models are exactly the proper colorings with one color per
/// vertex; EGCWA/DSM model existence on this family is the NP-complete
/// Table-2 cell in its most natural clothing.
pub fn graph_coloring(num_vertices: usize, edges: &[(usize, usize)], k: usize) -> Database {
    let mut symbols = Symbols::new();
    let color: Vec<Vec<Atom>> = (0..num_vertices)
        .map(|v| {
            (0..k)
                .map(|i| symbols.intern(&format!("c_{v}_{i}")))
                .collect()
        })
        .collect();
    let mut db = Database::new(symbols);
    for c in &color {
        db.add_rule(Rule::fact(c.iter().copied()));
    }
    for &(u, v) in edges {
        for (&cu, &cv) in color[u].iter().zip(&color[v]) {
            db.add_rule(Rule::integrity([cu, cv], []));
        }
    }
    db
}

/// `towers` independent stacked disjunctive towers of `height` stages:
///
/// ```text
/// c₀ ∨ d₀.                      (per-tower base choice)
/// aᵢ ∨ bᵢ ← cᵢ₋₁.               (stage choice)
/// cᵢ ← aᵢ.   cᵢ ← bᵢ.           (stage closure)
/// ```
///
/// Positive and integrity-free, with the minimal-model count multiplying
/// across towers — but a query about one tower's low stage has a
/// relevance slice of `2 + 3·stage` atoms however many towers exist, so
/// the query-relevant slicing route answers it at single-tower cost. The
/// scaling family behind the `T1-slicing` bench group.
pub fn sliceable_towers(towers: usize, height: usize) -> Database {
    let per = 2 + 3 * height;
    let mut db = Database::with_fresh_atoms(towers * per);
    for t in 0..towers {
        let base = (t * per) as u32;
        let c = |i: usize| {
            Atom::new(if i == 0 {
                base
            } else {
                base + (3 * i + 1) as u32
            })
        };
        db.add_rule(Rule::fact([Atom::new(base), Atom::new(base + 1)]));
        for i in 1..=height {
            let a = Atom::new(base + (3 * i - 1) as u32);
            let b = Atom::new(base + (3 * i) as u32);
            db.add_rule(Rule::new([a, b], [c(i - 1)], []));
            db.add_rule(Rule::new([c(i)], [a], []));
            db.add_rule(Rule::new([c(i)], [b], []));
        }
    }
    db
}

/// [`sliceable_towers`] with an integrity clause `:- a₁, b₁.` over each
/// tower's first stage. The towers stay independent islands, but none is
/// positive, so model existence on each one is an oracle question — the
/// premise of the island and worker-pool measurements, which a positive
/// island answers without the oracle.
pub fn guarded_towers(towers: usize, height: usize) -> Database {
    let mut db = sliceable_towers(towers, height);
    let per = 2 + 3 * height;
    for t in 0..towers {
        let a1 = (t * per + 2) as u32;
        db.add_rule(Rule::integrity([Atom::new(a1), Atom::new(a1 + 1)], []));
    }
    db
}

/// `chains` independent linear chains of `depth` edges, written as a
/// **non-ground** Datalog∨ program with the chain identifier in every
/// first argument, plus one bound query atom:
///
/// ```text
/// start(cⱼ,a) | start(cⱼ,b).            (per-chain founder choice)
/// edge(cⱼ,nᵢ,nᵢ₊₁).                      (per-chain linear edges)
/// reach(C,n0) ← start(C,a).              (shared rules; C is invariant
/// reach(C,n0) ← start(C,b).               through the recursion)
/// reach(C,Y) ← reach(C,X) ∧ edge(C,X,Y).
/// ```
///
/// Returns `(program_source, query_atom)`; the query asks for the last
/// node of chain 0 (`reach(c0,n<depth>)`). Because the bound first
/// argument is invariant through the recursion, goal-directed grounding
/// and the magic rewrite confine the work to one chain — grounded-rule
/// counts drop by a factor of `chains` against whole-program grounding
/// while the answer is identical. The scaling family behind the
/// grounding counts in `BENCH_magic.json`.
pub fn bound_chains(chains: usize, depth: usize) -> (String, String) {
    let mut source = String::new();
    for c in 0..chains {
        source.push_str(&format!("start(c{c},a) | start(c{c},b).\n"));
        for i in 0..depth {
            source.push_str(&format!("edge(c{c},n{i},n{}).\n", i + 1));
        }
    }
    source.push_str("reach(C,n0) :- start(C,a).\n");
    source.push_str("reach(C,n0) :- start(C,b).\n");
    source.push_str("reach(C,Y) :- reach(C,X), edge(C,X,Y).\n");
    (source, format!("reach(c0,n{depth})"))
}

/// `k` independent even negative loops
/// `aᵢ ← ¬bᵢ. bᵢ ← ¬aᵢ.` — `2^k` stable models; the DSM/PDSM enumeration
/// stress family.
pub fn even_loops(k: usize) -> Database {
    let mut symbols = Symbols::new();
    let pairs: Vec<(Atom, Atom)> = (0..k)
        .map(|i| {
            (
                symbols.intern(&format!("a{i}")),
                symbols.intern(&format!("b{i}")),
            )
        })
        .collect();
    let mut db = Database::new(symbols);
    for &(a, b) in &pairs {
        db.add_rule(Rule::new([a], [], [b]));
        db.add_rule(Rule::new([b], [], [a]));
    }
    db
}

/// A random `width`-CNF at clause/variable `ratio`, rendered as a
/// deductive database (positive literals → head, negated → body). Around
/// ratio ≈ 4.26 (width 3) this is the classic SAT phase transition — the
/// hard family for the NP-complete model-existence cells of Table 2.
pub fn phase_transition_db(num_vars: usize, ratio: f64, width: usize, seed: u64) -> Database {
    let mut rng = XorShift64Star::seed_from_u64(seed);
    let mut db = Database::with_fresh_atoms(num_vars);
    let m = (num_vars as f64 * ratio).round() as usize;
    for _ in 0..m {
        let mut head = Vec::new();
        let mut body = Vec::new();
        for _ in 0..width {
            let v = Atom::new(rng.gen_range(0, num_vars) as u32);
            if rng.gen_bool(0.5) {
                head.push(v);
            } else {
                body.push(v);
            }
        }
        db.add_rule(Rule::new(head, body, []));
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddb_logic::{DbClass, Interpretation};

    #[test]
    fn horn_chain_shape() {
        let db = horn_chain(100);
        assert_eq!(db.len(), 100);
        assert!(db.is_horn());
        assert_eq!(db.class(), DbClass::Positive);
        // Its unique model is everything.
        let full = Interpretation::full(100);
        assert!(db.satisfied_by(&full));
    }

    #[test]
    fn guarded_towers_are_deductive_islands() {
        let db = guarded_towers(3, 2);
        assert_eq!(db.class(), DbClass::Deductive);
        assert_eq!(db.len(), sliceable_towers(3, 2).len() + 3);
        // Taking both first-stage atoms of a tower violates its clause.
        assert!(!db.satisfied_by(&Interpretation::full(db.num_atoms())));
    }

    #[test]
    fn layered_counts() {
        let db = layered_disjunctive(3, 4);
        assert_eq!(db.num_atoms(), 12);
        assert_eq!(db.len(), 1 + 2 * 4);
        assert_eq!(db.class(), DbClass::Positive);
    }

    #[test]
    fn coloring_models_are_colorings() {
        // Triangle, 3 colors: 6 proper colorings.
        let edges = vec![(0, 1), (1, 2), (0, 2)];
        let db = graph_coloring(3, &edges, 3);
        assert_eq!(db.class(), DbClass::Deductive);
        // Count models that use exactly one color per vertex by brute
        // force over the 2^9 interpretations.
        let mut proper = 0;
        for bits in 0u32..1 << 9 {
            let m = Interpretation::from_atoms(
                9,
                (0..9u32).filter(|&i| bits >> i & 1 == 1).map(Atom::new),
            );
            if db.satisfied_by(&m) && m.count() == 3 {
                proper += 1;
            }
        }
        assert_eq!(proper, 6);
    }

    #[test]
    fn two_coloring_odd_cycle_unsat() {
        let edges = vec![(0, 1), (1, 2), (0, 2)];
        let db = graph_coloring(3, &edges, 2);
        // No model at all with one color per vertex; in fact no model:
        // every vertex needs a color, adjacent ones must differ — brute:
        let n = db.num_atoms();
        let any = (0u32..1 << n).any(|bits| {
            let m = Interpretation::from_atoms(
                n,
                (0..n as u32).filter(|&i| bits >> i & 1 == 1).map(Atom::new),
            );
            db.satisfied_by(&m)
        });
        assert!(!any);
    }

    #[test]
    fn sliceable_towers_shape() {
        let db = sliceable_towers(3, 2);
        assert_eq!(db.num_atoms(), 3 * 8);
        assert_eq!(db.len(), 3 * 7);
        assert!(db.is_positive());
        let db = sliceable_towers(0, 2);
        assert_eq!(db.num_atoms(), 0);
    }

    #[test]
    fn bound_chains_shape() {
        let (source, query) = bound_chains(4, 8);
        assert_eq!(query, "reach(c0,n8)");
        // Per chain: one founder choice + 8 edge facts; plus 3 shared rules.
        assert_eq!(source.lines().count(), 4 * 9 + 3);
        assert!(source.contains("start(c3,a) | start(c3,b)."));
        assert!(source.contains("edge(c0,n7,n8)."));
        assert!(source.ends_with("reach(C,Y) :- reach(C,X), edge(C,X,Y).\n"));
        // Deterministic.
        assert_eq!(bound_chains(4, 8), bound_chains(4, 8));
    }

    #[test]
    fn even_loop_counts() {
        let db = even_loops(3);
        assert_eq!(db.num_atoms(), 6);
        assert_eq!(db.len(), 6);
        assert_eq!(db.class(), DbClass::Normal); // unstratifiable
    }

    #[test]
    fn graph_is_deterministic() {
        assert_eq!(random_graph(10, 0.3, 7), random_graph(10, 0.3, 7));
        assert_ne!(random_graph(10, 0.3, 7), random_graph(10, 0.3, 8));
    }

    #[test]
    fn phase_transition_is_deductive_class() {
        let db = phase_transition_db(20, 4.26, 3, 3);
        assert!(!db.has_negation());
        assert_eq!(db.len(), 85);
    }
}
