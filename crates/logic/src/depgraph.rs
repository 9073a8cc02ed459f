//! Atom-level dependency graphs — the canonical home of the
//! stratification algorithm and the substrate for static analysis.
//!
//! Every syntactic analysis of a disjunctive database (stratifiability,
//! head-cycle-freeness, tightness, lint passes) is a question about the
//! same object: the directed graph whose nodes are the atoms of the
//! vocabulary and whose edges record how rules make atoms depend on one
//! another. This module builds that graph once, with labelled edges, and
//! derives everything else from its strongly connected components:
//!
//! * [`EdgeKind::Positive`] — `b → h` for `b` in the positive body and `h`
//!   in the head (weak: `stratum(h) ≥ stratum(b)`);
//! * [`EdgeKind::Negative`] — `c → h` for `c` under negation in the body
//!   (strict: `stratum(h) > stratum(c)`);
//! * [`EdgeKind::HeadSibling`] — weak two-way coupling between atoms that
//!   share a rule head (a disjunctive head lives in one stratum).
//!
//! [`Database::stratification`](crate::Database::stratification) and
//! [`Database::layers`](crate::Database::layers) are thin delegates to
//! [`stratification`] and [`layers`] here; the `ddb-analysis` crate builds
//! its fragment classifier and report on the same graph, so there is a
//! single canonical implementation. (Cargo's acyclic crate graph is why
//! the algorithm lives in this substrate crate rather than in
//! `ddb-analysis` itself: `Database` must be able to call it.)

use crate::{Atom, Database, Rule};

/// How one atom depends on another in the dependency graph.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum EdgeKind {
    /// Weak coupling between two atoms appearing together in a rule head.
    HeadSibling,
    /// The source occurs in the positive body of a rule with the target in
    /// its head (weak edge).
    Positive,
    /// The source occurs under negation in the body of a rule with the
    /// target in its head (strict edge: negation must not recurse).
    Negative,
}

/// The atom-level dependency graph of a database, stored flat: the
/// out-edges of atom `v` are `edges[offsets[v] .. offsets[v + 1]]`, in
/// rule order.
#[derive(Clone, Debug)]
pub struct DepGraph {
    num_atoms: usize,
    offsets: Vec<u32>,
    edges: Vec<(u32, EdgeKind)>,
}

/// A strongly-connected-component decomposition of a [`DepGraph`]
/// (restricted to some edge kinds).
///
/// Component ids are assigned in **topological order of the condensation**:
/// every edge between distinct components goes from a lower id to a higher
/// id. Level computations can therefore relax components in id order.
#[derive(Clone, Debug)]
pub struct Sccs {
    /// `comp[atom.index()]` — the component id of each atom.
    pub comp: Vec<usize>,
    /// Number of components.
    pub num_components: usize,
}

impl Sccs {
    /// Whether two atoms lie in the same strongly connected component.
    pub fn same(&self, a: Atom, b: Atom) -> bool {
        self.comp[a.index()] == self.comp[b.index()]
    }

    /// Size of each component, indexed by component id.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_components];
        for &c in &self.comp {
            sizes[c] += 1;
        }
        sizes
    }
}

impl DepGraph {
    /// Builds the dependency graph of `db`. Integrity clauses contribute no
    /// edges (the usual convention: constraints only prune models, they do
    /// not define atoms).
    pub fn of_database(db: &Database) -> Self {
        let n = db.num_atoms();
        // (source, target, kind) in rule order.
        let mut list: Vec<(u32, u32, EdgeKind)> = Vec::new();
        let mut edge = |from: Atom, to: Atom, kind| {
            list.push((from.index() as u32, to.index() as u32, kind));
        };
        for rule in db.rules() {
            if rule.is_integrity() {
                continue;
            }
            let head = rule.head();
            for w in head.windows(2) {
                edge(w[0], w[1], EdgeKind::HeadSibling);
                edge(w[1], w[0], EdgeKind::HeadSibling);
            }
            for &h in head {
                for &b in rule.body_pos() {
                    edge(b, h, EdgeKind::Positive);
                }
                for &c in rule.body_neg() {
                    edge(c, h, EdgeKind::Negative);
                }
            }
        }
        // A stable sort groups edges by source and keeps rule order within
        // each group.
        list.sort_by_key(|&(from, _, _)| from);
        let mut offsets = vec![0u32; n + 1];
        for &(from, _, _) in &list {
            offsets[from as usize + 1] += 1;
        }
        for v in 1..offsets.len() {
            offsets[v] += offsets[v - 1];
        }
        DepGraph {
            num_atoms: n,
            offsets,
            edges: list.iter().map(|&(_, to, kind)| (to, kind)).collect(),
        }
    }

    /// The raw out-edges of atom index `v`.
    fn out(&self, v: usize) -> &[(u32, EdgeKind)] {
        &self.edges[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Number of atoms (nodes).
    pub fn num_atoms(&self) -> usize {
        self.num_atoms
    }

    /// The labelled out-edges of an atom.
    pub fn edges_from(&self, a: Atom) -> impl Iterator<Item = (Atom, EdgeKind)> + '_ {
        self.out(a.index())
            .iter()
            .map(|&(to, kind)| (Atom::new(to), kind))
    }

    /// Whether the graph has a positive self-loop at `a` (an atom depending
    /// positively on itself, `a ← a ∧ …`).
    pub fn has_positive_self_loop(&self, a: Atom) -> bool {
        self.out(a.index())
            .iter()
            .any(|&(to, kind)| kind == EdgeKind::Positive && to as usize == a.index())
    }

    /// Strongly connected components over the edges selected by `keep`
    /// (iterative Tarjan; component ids in topological order of the
    /// condensation).
    pub fn sccs_filtered(&self, keep: impl Fn(EdgeKind) -> bool) -> Sccs {
        let n = self.num_atoms;
        const UNVISITED: usize = usize::MAX;
        let mut index = vec![UNVISITED; n];
        let mut lowlink = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut comp = vec![UNVISITED; n];
        let mut next_index = 0usize;
        let mut num_components = 0usize;
        // Explicit DFS frames: (node, next edge position).
        let mut frames: Vec<(usize, usize)> = Vec::new();
        for start in 0..n {
            if index[start] != UNVISITED {
                continue;
            }
            frames.push((start, 0));
            index[start] = next_index;
            lowlink[start] = next_index;
            next_index += 1;
            stack.push(start);
            on_stack[start] = true;
            while let Some(&mut (v, ref mut i)) = frames.last_mut() {
                let mut advanced = false;
                while *i < self.out(v).len() {
                    let (w, kind) = self.out(v)[*i];
                    *i += 1;
                    if !keep(kind) {
                        continue;
                    }
                    let w = w as usize;
                    if index[w] == UNVISITED {
                        index[w] = next_index;
                        lowlink[w] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        frames.push((w, 0));
                        advanced = true;
                        break;
                    } else if on_stack[w] {
                        lowlink[v] = lowlink[v].min(index[w]);
                    }
                }
                if advanced {
                    continue;
                }
                // v is fully expanded: close its component if it is a root.
                if lowlink[v] == index[v] {
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        comp[w] = num_components;
                        if w == v {
                            break;
                        }
                    }
                    num_components += 1;
                }
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
            }
        }
        // Tarjan emits components in reverse topological order (sinks
        // first); flip ids so edges go from lower to higher component id.
        for c in comp.iter_mut() {
            *c = num_components - 1 - *c;
        }
        Sccs {
            comp,
            num_components,
        }
    }

    /// SCCs over all edges (the graph used by stratification).
    pub fn sccs(&self) -> Sccs {
        self.sccs_filtered(|_| true)
    }

    /// SCCs of the **positive dependency graph** (positive edges only —
    /// no head-sibling coupling, no negation). This is the graph behind
    /// head-cycle-freeness and tightness.
    pub fn positive_sccs(&self) -> Sccs {
        self.sccs_filtered(|k| k == EdgeKind::Positive)
    }

    /// An atom cycle witnessing unstratifiability: the members of a
    /// strongly connected component that contains a negative edge, or
    /// `None` if the database is stratifiable.
    pub fn unstratifiable_witness(&self) -> Option<Vec<Atom>> {
        let sccs = self.sccs();
        for v in 0..self.num_atoms {
            for &(w, kind) in self.out(v) {
                if kind == EdgeKind::Negative && sccs.comp[v] == sccs.comp[w as usize] {
                    let c = sccs.comp[v];
                    return Some(
                        (0..self.num_atoms)
                            .filter(|&u| sccs.comp[u] == c)
                            .map(|u| Atom::new(u as u32))
                            .collect(),
                    );
                }
            }
        }
        None
    }

    /// Computes a stratification of the graph, if one exists — see
    /// [`Database::stratification`](crate::Database::stratification) for
    /// the contract. Strata are the longest strict-edge distances over the
    /// condensation.
    pub fn stratification(&self) -> Option<Vec<Vec<Atom>>> {
        let n = self.num_atoms;
        let sccs = self.sccs();
        // A strict edge within a component ⇒ unstratifiable.
        for v in 0..n {
            for &(w, kind) in self.out(v) {
                if kind == EdgeKind::Negative && sccs.comp[v] == sccs.comp[w as usize] {
                    return None;
                }
            }
        }
        // Longest path by strict-edge count over the condensation (a DAG
        // with component ids in topological order, so a forward pass
        // relaxes correctly).
        let mut level = vec![0usize; sccs.num_components];
        let mut comp_edges: Vec<Vec<(usize, bool)>> = vec![Vec::new(); sccs.num_components];
        for v in 0..n {
            for &(w, kind) in self.out(v) {
                let (cv, cw) = (sccs.comp[v], sccs.comp[w as usize]);
                if cv != cw {
                    comp_edges[cv].push((cw, kind == EdgeKind::Negative));
                }
            }
        }
        for c in 0..sccs.num_components {
            let lc = level[c];
            for &(d, strict) in &comp_edges[c] {
                debug_assert!(d > c, "component ids must be topologically ordered");
                let need = lc + usize::from(strict);
                if level[d] < need {
                    level[d] = need;
                }
            }
        }
        let max_level = level.iter().copied().max().unwrap_or(0);
        let mut strata: Vec<Vec<Atom>> = vec![Vec::new(); max_level + 1];
        for v in 0..n {
            strata[level[sccs.comp[v]]].push(Atom::new(v as u32));
        }
        // Drop trailing empty strata but keep at least one stratum for a
        // non-empty vocabulary.
        while strata.len() > 1 && strata.last().is_some_and(Vec::is_empty) {
            strata.pop();
        }
        Some(strata)
    }
}

/// The canonical stratification algorithm:
/// [`Database::stratification`](crate::Database::stratification) delegates
/// here, as does the `ddb-analysis` report.
pub fn stratification(db: &Database) -> Option<Vec<Vec<Atom>>> {
    DepGraph::of_database(db).stratification()
}

/// The canonical layering algorithm:
/// [`Database::layers`](crate::Database::layers) delegates here. `layers[i]`
/// contains the rules whose head belongs to stratum `i`; integrity clauses
/// go to the stratum of their highest body atom.
pub fn layers(db: &Database, strata: &[Vec<Atom>]) -> Vec<Vec<Rule>> {
    let n = db.num_atoms();
    let mut stratum_of = vec![0usize; n];
    for (i, s) in strata.iter().enumerate() {
        for &a in s {
            stratum_of[a.index()] = i;
        }
    }
    let mut layers: Vec<Vec<Rule>> = vec![Vec::new(); strata.len()];
    for rule in db.rules() {
        let s = if let Some(&h) = rule.head().first() {
            stratum_of[h.index()]
        } else {
            rule.atoms()
                .map(|a| stratum_of[a.index()])
                .max()
                .unwrap_or(0)
        };
        layers[s].push(rule.clone());
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db(n: usize, rules: Vec<Rule>) -> Database {
        let mut d = Database::with_fresh_atoms(n);
        for r in rules {
            d.add_rule(r);
        }
        d
    }

    fn a(i: u32) -> Atom {
        Atom::new(i)
    }

    #[test]
    fn positive_sccs_ignore_head_siblings_and_negation() {
        // a ∨ b ← ¬c: the only edges are head-sibling (a↔b) and negative
        // (c→a, c→b); the positive graph is edgeless.
        let d = db(3, vec![Rule::new([a(0), a(1)], [], [a(2)])]);
        let g = DepGraph::of_database(&d);
        let pos = g.positive_sccs();
        assert_eq!(pos.num_components, 3);
        let all = g.sccs();
        assert!(all.same(a(0), a(1)), "head siblings share a component");
        assert!(!all.same(a(0), a(2)));
    }

    #[test]
    fn positive_cycle_detected() {
        // a ← b; b ← a.
        let d = db(
            2,
            vec![Rule::new([a(0)], [a(1)], []), Rule::new([a(1)], [a(0)], [])],
        );
        let g = DepGraph::of_database(&d);
        assert_eq!(g.positive_sccs().num_components, 1);
    }

    #[test]
    fn positive_self_loop() {
        let d = db(2, vec![Rule::new([a(0)], [a(0)], [])]);
        let g = DepGraph::of_database(&d);
        assert!(g.has_positive_self_loop(a(0)));
        assert!(!g.has_positive_self_loop(a(1)));
    }

    #[test]
    fn component_ids_topological() {
        // Chain x0 → x1 → x2 (positive): component ids must increase along
        // edges.
        let d = db(
            3,
            vec![Rule::new([a(1)], [a(0)], []), Rule::new([a(2)], [a(1)], [])],
        );
        let sccs = DepGraph::of_database(&d).sccs();
        assert!(sccs.comp[0] < sccs.comp[1]);
        assert!(sccs.comp[1] < sccs.comp[2]);
    }

    #[test]
    fn unstratifiable_witness_names_the_cycle() {
        // a ← ¬b; b ← ¬a plus an unrelated atom c.
        let d = db(
            3,
            vec![Rule::new([a(0)], [], [a(1)]), Rule::new([a(1)], [], [a(0)])],
        );
        let g = DepGraph::of_database(&d);
        let cycle = g.unstratifiable_witness().unwrap();
        assert!(cycle.contains(&a(0)) && cycle.contains(&a(1)));
        assert!(!cycle.contains(&a(2)));
        assert!(g.stratification().is_none());
    }

    #[test]
    fn stratifiable_graph_has_no_witness() {
        let d = db(2, vec![Rule::new([a(1)], [], [a(0)])]);
        let g = DepGraph::of_database(&d);
        assert!(g.unstratifiable_witness().is_none());
        assert_eq!(g.stratification().unwrap().len(), 2);
    }

    #[test]
    fn sizes_partition_the_vocabulary() {
        let d = db(
            4,
            vec![
                Rule::new([a(0)], [a(1)], []),
                Rule::new([a(1)], [a(0)], []),
                Rule::new([a(2)], [a(1)], []),
            ],
        );
        let sccs = DepGraph::of_database(&d).sccs();
        let sizes = sccs.sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 4);
        assert!(sizes.contains(&2)); // the {x0, x1} loop
    }
}
