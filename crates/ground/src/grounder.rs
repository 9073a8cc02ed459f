//! Grounding: from non-ground Datalog∨ to propositional [`Database`]s.

use crate::ast::{DatalogProgram, DatalogRule, PredAtom, Term};
use crate::safety::{check_program, SafetyError};
use ddb_logic::{Database, Rule, Symbols};
use ddb_obs::{budget, Interrupted};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Grounding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroundingError {
    /// The program is unsafe.
    Unsafe(SafetyError),
    /// The instantiation exceeded the ground-rule budget.
    TooLarge {
        /// The configured budget.
        limit: usize,
    },
    /// An installed [`ddb_obs::Budget`] tripped mid-grounding (deadline,
    /// cancel flag, or fault injection). Grounding loops are checkpointed
    /// like the solve stack, so a deadline set before grounding governs
    /// the whole pipeline, not only SAT/fixpoint work.
    Interrupted(Interrupted),
}

impl fmt::Display for GroundingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroundingError::Unsafe(e) => write!(f, "{e}"),
            GroundingError::TooLarge { limit } => {
                write!(f, "grounding exceeds the budget of {limit} ground rules")
            }
            GroundingError::Interrupted(i) => write!(f, "grounding {i}"),
        }
    }
}

impl std::error::Error for GroundingError {}

impl From<SafetyError> for GroundingError {
    fn from(e: SafetyError) -> Self {
        GroundingError::Unsafe(e)
    }
}

impl From<Interrupted> for GroundingError {
    fn from(i: Interrupted) -> Self {
        GroundingError::Interrupted(i)
    }
}

type Binding = BTreeMap<String, String>;

/// Evaluates the rule's disequality builtins under a (complete) binding.
fn disequalities_hold(rule: &DatalogRule, binding: &Binding) -> bool {
    fn value<'a>(t: &'a Term, binding: &'a Binding) -> &'a str {
        match t {
            Term::Const(c) => c.as_str(),
            Term::Var(v) => binding
                .get(v)
                .expect("safety guarantees disequality variables are bound"),
        }
    }
    rule.disequalities
        .iter()
        .all(|(l, r)| value(l, binding) != value(r, binding))
}

fn instantiate_atom(atom: &PredAtom, binding: &Binding) -> PredAtom {
    PredAtom {
        pred: atom.pred.clone(),
        args: atom
            .args
            .iter()
            .map(|t| match t {
                Term::Const(c) => Term::Const(c.clone()),
                Term::Var(v) => Term::Const(
                    binding
                        .get(v)
                        .expect("safety guarantees every variable is bound")
                        .clone(),
                ),
            })
            .collect(),
    }
}

/// A fully instantiated rule, in ground-atom-name form, used as the
/// deduplication key and the bridge into `ddb_logic`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct GroundRule {
    head: Vec<String>,
    body_pos: Vec<String>,
    body_neg: Vec<String>,
}

fn instantiate_rule(rule: &DatalogRule, binding: &Binding) -> GroundRule {
    let name = |a: &PredAtom| instantiate_atom(a, binding).ground_name();
    let mut head: Vec<String> = rule.head.iter().map(name).collect();
    let mut body_pos: Vec<String> = rule.body_pos.iter().map(name).collect();
    let mut body_neg: Vec<String> = rule.body_neg.iter().map(name).collect();
    head.sort();
    head.dedup();
    body_pos.sort();
    body_pos.dedup();
    body_neg.sort();
    body_neg.dedup();
    GroundRule {
        head,
        body_pos,
        body_neg,
    }
}

fn build_database(rules: BTreeSet<GroundRule>) -> Database {
    let mut symbols = Symbols::new();
    for r in &rules {
        for name in r.head.iter().chain(&r.body_pos).chain(&r.body_neg) {
            symbols.intern(name);
        }
    }
    let mut db = Database::new(symbols);
    for r in &rules {
        let lookup = |n: &String| db.symbols().lookup(n).expect("interned above");
        let head: Vec<_> = r.head.iter().map(lookup).collect();
        let body_pos: Vec<_> = r.body_pos.iter().map(lookup).collect();
        let body_neg: Vec<_> = r.body_neg.iter().map(lookup).collect();
        db.add_rule(Rule::new(head, body_pos, body_neg));
    }
    db
}

/// **Exact** grounding: instantiate every rule over the full Herbrand
/// universe (all constants of the program). Equivalent to the non-ground
/// program under *every* semantics, at the cost of `|C|^{#vars}` instances
/// per rule. `limit` bounds the total number of ground rules.
pub fn ground_full(prog: &DatalogProgram, limit: usize) -> Result<Database, GroundingError> {
    check_program(prog)?;
    let constants: Vec<String> = prog.constants().into_iter().collect();
    let mut out: BTreeSet<GroundRule> = BTreeSet::new();
    for rule in &prog.rules {
        let vars: Vec<String> = rule.variables().into_iter().collect();
        if vars.is_empty() {
            if disequalities_hold(rule, &Binding::new()) {
                out.insert(instantiate_rule(rule, &Binding::new()));
            }
            if out.len() > limit {
                return Err(GroundingError::TooLarge { limit });
            }
            continue;
        }
        if constants.is_empty() {
            continue; // no universe to range over
        }
        let mut odometer = vec![0usize; vars.len()];
        loop {
            budget::checkpoint()?;
            let binding: Binding = vars
                .iter()
                .cloned()
                .zip(odometer.iter().map(|&i| constants[i].clone()))
                .collect();
            if disequalities_hold(rule, &binding) {
                out.insert(instantiate_rule(rule, &binding));
            }
            if out.len() > limit {
                return Err(GroundingError::TooLarge { limit });
            }
            let mut k = 0;
            loop {
                if k == odometer.len() {
                    break;
                }
                odometer[k] += 1;
                if odometer[k] < constants.len() {
                    break;
                }
                odometer[k] = 0;
                k += 1;
            }
            if k == odometer.len() {
                break;
            }
        }
    }
    Ok(build_database(out))
}

/// **Intelligent (reduced) grounding**, DLV-style: instantiate rules only
/// over the *possibly-true* closure (least fixpoint of positive-body
/// joins, negation ignored), then simplify — drop negated literals whose
/// atom is not possibly true. This is [`ground_magic`]'s grounding loop
/// with every rule demanded.
///
/// Sound for the supported semantics (DSM, PDSM, WFS, PWS: every
/// stable/possible model is contained in the possibly-true closure) and
/// for the minimal-model family on **positive** programs. *Not*
/// model-preserving for minimal-model semantics under negation: from
/// `p(a) ← ¬q(a)` the clause reading `p(a) ∨ q(a)` has the minimal model
/// `{q(a)}`, which reduced grounding (simplifying `¬q(a)` to true)
/// forgets — the `reduced_vs_full` tests pin both directions.
/// ```
/// use ddb_ground::{ground_reduced, parse::parse_datalog};
/// let prog = parse_datalog("edge(a,b). path(X,Y) :- edge(X,Y).").unwrap();
/// let db = ground_reduced(&prog, 1000).unwrap();
/// assert!(db.symbols().lookup("path(a,b)").is_some());
/// assert!(db.symbols().lookup("path(b,a)").is_none()); // not derivable
/// ```
pub fn ground_reduced(prog: &DatalogProgram, limit: usize) -> Result<Database, GroundingError> {
    check_program(prog)?;
    let everything: Vec<Activation> = prog
        .rules
        .iter()
        .map(|_| Activation::Unrestricted)
        .collect();
    ground_active(prog, &everything, limit)
}

/// Per-predicate demand on first arguments, the abstraction the
/// goal-directed grounder propagates instead of full magic tuples. An
/// `open` demand means "every first argument" (used for zero-arity
/// predicates and for body positions whose first term is a variable the
/// head binding says nothing about); otherwise only tuples whose first
/// argument lies in `firsts` are demanded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct DemandSet {
    open: bool,
    firsts: BTreeSet<String>,
}

impl DemandSet {
    fn absorb(&mut self, other: &DemandSet) -> bool {
        let mut changed = false;
        if other.open && !self.open {
            self.open = true;
            changed = true;
        }
        for f in &other.firsts {
            changed |= self.firsts.insert(f.clone());
        }
        changed
    }
}

/// What a demanded head atom lets the rule assume about one atom's first
/// argument: either anything (`None`) or one of a finite constant set.
fn atom_demand(atom: &PredAtom, head_var: Option<&str>, head_vals: &DemandSet) -> DemandSet {
    match atom.args.first() {
        None => DemandSet {
            open: true,
            firsts: BTreeSet::new(),
        },
        Some(Term::Const(c)) => DemandSet {
            open: false,
            firsts: BTreeSet::from([c.clone()]),
        },
        Some(Term::Var(v)) if head_var == Some(v.as_str()) => head_vals.clone(),
        Some(Term::Var(_)) => DemandSet {
            open: true,
            firsts: BTreeSet::new(),
        },
    }
}

/// How a demand on a head atom's predicate activates its rule: not at
/// all, for every binding, or only for bindings sending one variable
/// (the head's first argument) into a finite constant set.
enum Activation {
    Inactive,
    Unrestricted,
    Restricted(String, BTreeSet<String>),
}

fn head_activation(head: &PredAtom, demand: &BTreeMap<String, DemandSet>) -> Activation {
    let Some(d) = demand.get(&head.pred) else {
        return Activation::Inactive;
    };
    match head.args.first() {
        None => Activation::Unrestricted,
        Some(Term::Const(c)) => {
            if d.open || d.firsts.contains(c) {
                Activation::Unrestricted
            } else {
                Activation::Inactive
            }
        }
        Some(Term::Var(v)) => {
            if d.open {
                Activation::Unrestricted
            } else if d.firsts.is_empty() {
                Activation::Inactive
            } else {
                Activation::Restricted(v.clone(), d.firsts.clone())
            }
        }
    }
}

/// The static demand fixpoint: which predicates (and which first
/// arguments) can reach the query top-down. Demand flows from an
/// activated head through the positive body, the negative body and the
/// disjunctive sibling heads, as the demand closure
/// (`ddb_analysis::demand_closure`) does on ground rules.
fn demand_fixpoint(prog: &DatalogProgram, query: &PredAtom) -> BTreeMap<String, DemandSet> {
    let mut demand: BTreeMap<String, DemandSet> = BTreeMap::new();
    let seed = match query.args.first() {
        Some(Term::Const(c)) => DemandSet {
            open: false,
            firsts: BTreeSet::from([c.clone()]),
        },
        _ => DemandSet {
            open: true,
            firsts: BTreeSet::new(),
        },
    };
    demand.entry(query.pred.clone()).or_default().absorb(&seed);
    loop {
        let mut changed = false;
        for rule in &prog.rules {
            // Constraints restrict models globally; their bodies must be
            // grounded wherever they can fire, so demand them openly as
            // soon as any of their predicates is in the demanded slice.
            if rule.head.is_empty() {
                let touches = rule
                    .body_pos
                    .iter()
                    .chain(&rule.body_neg)
                    .any(|a| demand.contains_key(&a.pred));
                if touches {
                    for a in rule.body_pos.iter().chain(&rule.body_neg) {
                        let open = DemandSet {
                            open: true,
                            firsts: BTreeSet::new(),
                        };
                        changed |= demand.entry(a.pred.clone()).or_default().absorb(&open);
                    }
                }
                continue;
            }
            for (hi, head) in rule.head.iter().enumerate() {
                let (head_var, head_vals) = match head_activation(head, &demand) {
                    Activation::Inactive => continue,
                    Activation::Unrestricted => (
                        None,
                        DemandSet {
                            open: true,
                            firsts: BTreeSet::new(),
                        },
                    ),
                    Activation::Restricted(v, firsts) => (
                        Some(v),
                        DemandSet {
                            open: false,
                            firsts,
                        },
                    ),
                };
                let hv = head_var.as_deref();
                let siblings = rule
                    .head
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != hi)
                    .map(|(_, a)| a);
                for atom in siblings.chain(&rule.body_pos).chain(&rule.body_neg) {
                    let d = atom_demand(atom, hv, &head_vals);
                    changed |= demand.entry(atom.pred.clone()).or_default().absorb(&d);
                }
            }
        }
        if !changed {
            break;
        }
    }
    demand
}

/// First-argument index key of a ground tuple (empty string for arity 0).
fn first_key(tuple: &[String]) -> &str {
    tuple.first().map_or("", String::as_str)
}

/// **Goal-directed (magic) grounding**: like [`ground_reduced`], but only
/// rules whose heads are *demanded* by the query are instantiated. Demand
/// is a static per-predicate first-argument fixpoint: seeded by the query
/// atom, propagated from activated heads through positive bodies,
/// negative bodies and sibling heads — the grounding-side mirror of the
/// planner's demand closure.
///
/// The result is the demand-relevant fragment of the reduced grounding:
/// query answers agree with [`ground_reduced`] exactly when the planner
/// admits answering on the query's demand closure for the semantics at
/// hand (positive programs under minimal-model-determined queries
/// unconditionally; otherwise only when the fragment is split-closed).
/// The payoff is largest when the first argument is invariant through
/// the recursion (a component or chain identifier): only the demanded
/// component is instantiated. A body atom whose first argument is some
/// *other* variable widens the demand to `open` for that predicate —
/// still sound, just no savings.
/// ```
/// use ddb_ground::{ground_magic, parse::parse_datalog};
/// let prog = parse_datalog(
///     "edge(c0,a,b). edge(c1,a,b). path(C,X,Y) :- edge(C,X,Y). \
///      path(C,X,Y) :- edge(C,X,Z), path(C,Z,Y).",
/// )
/// .unwrap();
/// let query = parse_datalog("path(c0,a,b).").unwrap().rules[0].head[0].clone();
/// let db = ground_magic(&prog, &query, 1000).unwrap();
/// assert!(db.symbols().lookup("path(c0,a,b)").is_some());
/// assert!(db.symbols().lookup("path(c1,a,b)").is_none()); // undemanded component
/// ```
pub fn ground_magic(
    prog: &DatalogProgram,
    query: &PredAtom,
    limit: usize,
) -> Result<Database, GroundingError> {
    check_program(prog)?;
    let demand = demand_fixpoint(prog, query);
    // Per-rule activation under the (static) demand: skip, run freely, or
    // run with one variable confined to a constant set.
    let activations: Vec<Activation> = prog
        .rules
        .iter()
        .map(|rule| {
            if rule.head.is_empty() {
                // Constraints fire whenever their body predicates were
                // demanded at all; the body join itself confines them to
                // the demanded closure.
                let touches = rule
                    .body_pos
                    .iter()
                    .chain(&rule.body_neg)
                    .any(|a| demand.contains_key(&a.pred));
                return if touches {
                    Activation::Unrestricted
                } else {
                    Activation::Inactive
                };
            }
            let mut restricted: Option<(String, BTreeSet<String>)> = None;
            let mut unrestricted = false;
            let mut active = false;
            for head in &rule.head {
                match head_activation(head, &demand) {
                    Activation::Inactive => {}
                    Activation::Unrestricted => {
                        active = true;
                        unrestricted = true;
                    }
                    Activation::Restricted(v, firsts) => {
                        active = true;
                        match &mut restricted {
                            None => restricted = Some((v, firsts)),
                            Some((rv, rf)) if *rv == v => rf.extend(firsts),
                            // Two heads confine different variables: the
                            // union of the two demands is not expressible
                            // as one restriction, so run the rule freely.
                            Some(_) => unrestricted = true,
                        }
                    }
                }
            }
            if !active {
                Activation::Inactive
            } else if unrestricted {
                Activation::Unrestricted
            } else {
                let (v, firsts) = restricted.expect("active restricted rule has a restriction");
                Activation::Restricted(v, firsts)
            }
        })
        .collect();
    ground_active(prog, &activations, limit)
}

/// The possibly-true ground tuples of each predicate, indexed by first
/// argument (`""` for the empty tuple of a zero-arity atom); the
/// `BTreeSet`s keep join order deterministic.
type Closure = BTreeMap<String, BTreeMap<String, BTreeSet<Vec<String>>>>;

/// A rule's demand restriction: one variable confined to a constant set.
type Restriction<'a> = Option<(&'a str, &'a BTreeSet<String>)>;

/// Backtracking join of `body[idx..]` against the indexed closure.
/// Candidate tuples for an atom whose first argument is already fixed (a
/// constant, a bound variable, or the restricted variable) come from its
/// index bucket(s) instead of the whole relation. The restricted variable
/// is a head variable, which safety puts in the positive body, so it is
/// bound here and a binding outside its constant set is never visited.
fn join(
    body: &[PredAtom],
    idx: usize,
    binding: &mut Binding,
    possible: &Closure,
    restriction: Restriction,
    visit: &mut dyn FnMut(&Binding) -> Result<(), GroundingError>,
) -> Result<(), GroundingError> {
    // One checkpoint per join node: the closure is the grounder's hot
    // loop, so deadlines and cancel flags trip here.
    budget::checkpoint()?;
    if idx == body.len() {
        return visit(binding);
    }
    let atom = &body[idx];
    let by_first = possible.get(&atom.pred);
    let bucket = |key: &str| by_first.and_then(|m| m.get(key)).into_iter().flatten();
    let tuples: Box<dyn Iterator<Item = &Vec<String>>> = match atom.args.first() {
        None => Box::new(bucket("")),
        Some(Term::Const(c)) => Box::new(bucket(c)),
        Some(Term::Var(v)) => match (binding.get(v), restriction) {
            (Some(val), _) => Box::new(bucket(val)),
            (None, Some((rv, firsts))) if rv == v => {
                Box::new(firsts.iter().flat_map(|f| bucket(f)))
            }
            (None, _) => Box::new(by_first.into_iter().flat_map(|m| m.values()).flatten()),
        },
    };
    'tuples: for tuple in tuples {
        if tuple.len() != atom.args.len() {
            continue;
        }
        let mut added: Vec<String> = Vec::new();
        for (arg, value) in atom.args.iter().zip(tuple) {
            let consistent = match arg {
                Term::Const(c) => c == value,
                Term::Var(v) => match binding.get(v) {
                    Some(bound) => bound == value,
                    None => {
                        let allowed = restriction
                            .is_none_or(|(rv, firsts)| rv != v || firsts.contains(value));
                        if allowed {
                            binding.insert(v.clone(), value.clone());
                            added.push(v.clone());
                        }
                        allowed
                    }
                },
            };
            if !consistent {
                for v in added.drain(..) {
                    binding.remove(&v);
                }
                continue 'tuples;
            }
        }
        join(body, idx + 1, binding, possible, restriction, visit)?;
        for v in added {
            binding.remove(&v);
        }
    }
    Ok(())
}

/// The grounding loop both grounders share: instantiate every active rule
/// against the indexed possibly-true closure until a round emits nothing
/// new, then drop each negated literal whose atom never became possible
/// (negative body atoms are demanded, so within a demanded fragment their
/// derivability is fully explored).
fn ground_active(
    prog: &DatalogProgram,
    activations: &[Activation],
    limit: usize,
) -> Result<Database, GroundingError> {
    let mut possible: Closure = BTreeMap::new();
    let mut emitted: BTreeSet<GroundRule> = BTreeSet::new();
    loop {
        let mut grew = false;
        for (rule, activation) in prog.rules.iter().zip(activations) {
            budget::checkpoint()?;
            let restriction = match activation {
                Activation::Inactive => continue,
                Activation::Unrestricted => None,
                Activation::Restricted(v, firsts) => Some((v.as_str(), firsts)),
            };
            let mut new_heads: Vec<(String, Vec<String>)> = Vec::new();
            let mut new_rules: BTreeSet<GroundRule> = BTreeSet::new();
            join(
                &rule.body_pos,
                0,
                &mut Binding::new(),
                &possible,
                restriction,
                &mut |b: &Binding| {
                    if !disequalities_hold(rule, b) {
                        return Ok(());
                    }
                    let ground = instantiate_rule(rule, b);
                    if !emitted.contains(&ground) && !new_rules.contains(&ground) {
                        for h in &rule.head {
                            let inst = instantiate_atom(h, b);
                            let tuple: Vec<String> = inst
                                .args
                                .iter()
                                .map(|t| match t {
                                    Term::Const(c) => c.clone(),
                                    Term::Var(_) => unreachable!("instantiated"),
                                })
                                .collect();
                            new_heads.push((inst.pred, tuple));
                        }
                        new_rules.insert(ground);
                    }
                    Ok(())
                },
            )?;
            for r in new_rules {
                emitted.insert(r);
                grew = true;
                if emitted.len() > limit {
                    return Err(GroundingError::TooLarge { limit });
                }
            }
            for (pred, tuple) in new_heads {
                possible
                    .entry(pred)
                    .or_default()
                    .entry(first_key(&tuple).to_owned())
                    .or_default()
                    .insert(tuple);
            }
        }
        if !grew {
            break;
        }
    }
    let is_possible = |name: &String| -> bool {
        // Re-derive (pred, tuple) from the rendered name.
        let (pred, tuple): (&str, Vec<String>) = match name.find('(') {
            None => (name, Vec::new()),
            Some(p) => (
                &name[..p],
                name[p + 1..name.len() - 1]
                    .split(',')
                    .map(str::to_owned)
                    .collect(),
            ),
        };
        possible
            .get(pred)
            .and_then(|m| m.get(first_key(&tuple)))
            .is_some_and(|s| s.contains(&tuple))
    };
    let simplified: BTreeSet<GroundRule> = emitted
        .into_iter()
        .map(|mut r| {
            r.body_neg.retain(|g| is_possible(g));
            r
        })
        .collect();
    Ok(build_database(simplified))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_datalog;
    use ddb_models::Cost;

    #[test]
    fn grounds_reachability() {
        let prog = parse_datalog(
            "edge(a,b). edge(b,c). path(X,Y) :- edge(X,Y). \
             path(X,Y) :- edge(X,Z), path(Z,Y).",
        )
        .unwrap();
        let db = ground_reduced(&prog, 10_000).unwrap();
        // Reduced grounding derives exactly the reachable paths.
        let syms = db.symbols();
        assert!(syms.lookup("path(a,b)").is_some());
        assert!(syms.lookup("path(a,c)").is_some());
        assert!(
            syms.lookup("path(c,a)").is_none(),
            "unreachable not grounded"
        );
        // The least model contains the transitive closure.
        let mut cost = Cost::new();
        let mm = ddb_models::minimal::minimal_models(&db, &mut cost).unwrap();
        assert_eq!(mm.len(), 1);
        assert!(mm[0].contains(syms.lookup("path(a,c)").unwrap()));
    }

    #[test]
    fn full_grounding_covers_everything() {
        let prog = parse_datalog("edge(a,b). path(X,Y) :- edge(X,Y).").unwrap();
        let db = ground_full(&prog, 10_000).unwrap();
        // 2 constants → 4 instantiations of the rule + the fact.
        assert_eq!(db.len(), 5);
        assert!(db.symbols().lookup("path(b,a)").is_some());
    }

    #[test]
    fn budget_enforced() {
        let prog = parse_datalog("d(a). d(b). d(c). p(X,Y,Z) :- d(X), d(Y), d(Z).").unwrap();
        assert!(matches!(
            ground_full(&prog, 10),
            Err(GroundingError::TooLarge { .. })
        ));
        assert!(ground_full(&prog, 1000).is_ok());
    }

    #[test]
    fn unsafe_program_rejected() {
        let prog = parse_datalog("p(X).").unwrap();
        assert!(matches!(
            ground_reduced(&prog, 100),
            Err(GroundingError::Unsafe(_))
        ));
    }

    #[test]
    fn reduced_preserves_stable_models() {
        // With negation: stable models of full and reduced groundings
        // agree (modulo the vocabulary difference, compared by name).
        let prog = parse_datalog(
            "node(a). node(b). edge(a,b). \
             in(X) | out(X) :- node(X). \
             ok :- in(a), not in(b).",
        )
        .unwrap();
        let full = ground_full(&prog, 100_000).unwrap();
        let reduced = ground_reduced(&prog, 100_000).unwrap();
        let mut cost = Cost::new();
        let names =
            |db: &Database, models: Vec<ddb_logic::Interpretation>| -> BTreeSet<Vec<String>> {
                models
                    .into_iter()
                    .map(|m| {
                        let mut names: Vec<String> =
                            m.iter().map(|a| db.symbols().name(a).to_owned()).collect();
                        names.sort();
                        names
                    })
                    .collect()
            };
        let full_stable = names(&full, ddb_core::dsm::models(&full, &mut cost).unwrap());
        let reduced_stable = names(
            &reduced,
            ddb_core::dsm::models(&reduced, &mut cost).unwrap(),
        );
        assert_eq!(full_stable, reduced_stable);
    }

    #[test]
    fn reduced_preserves_minimal_models_on_positive_programs() {
        let prog = parse_datalog(
            "node(a). node(b). in(X) | out(X) :- node(X). \
             some :- in(X).",
        )
        .unwrap();
        let full = ground_full(&prog, 100_000).unwrap();
        let reduced = ground_reduced(&prog, 100_000).unwrap();
        let mut cost = Cost::new();
        let project =
            |db: &Database, models: Vec<ddb_logic::Interpretation>| -> BTreeSet<Vec<String>> {
                models
                    .into_iter()
                    .map(|m| {
                        let mut names: Vec<String> =
                            m.iter().map(|a| db.symbols().name(a).to_owned()).collect();
                        names.sort();
                        names
                    })
                    .collect()
            };
        assert_eq!(
            project(
                &full,
                ddb_models::minimal::minimal_models(&full, &mut cost).unwrap()
            ),
            project(
                &reduced,
                ddb_models::minimal::minimal_models(&reduced, &mut cost).unwrap()
            ),
        );
    }

    #[test]
    fn reduced_is_not_minimal_model_preserving_under_negation() {
        // The documented counterexample: p(a) ← ¬q(a). As a clause,
        // p(a) ∨ q(a) has minimal models {p(a)} and {q(a)}; reduced
        // grounding simplifies ¬q(a) away (q(a) underivable) and keeps
        // only {p(a)}.
        let prog = parse_datalog("p(a) :- not q(a).").unwrap();
        let full = ground_full(&prog, 100).unwrap();
        let reduced = ground_reduced(&prog, 100).unwrap();
        let mut cost = Cost::new();
        assert_eq!(
            ddb_models::minimal::minimal_models(&full, &mut cost)
                .unwrap()
                .len(),
            2
        );
        assert_eq!(
            ddb_models::minimal::minimal_models(&reduced, &mut cost)
                .unwrap()
                .len(),
            1
        );
        // …while the stable models agree (q(a) is never stable-true).
        let full_stable = ddb_core::dsm::models(&full, &mut cost).unwrap();
        assert_eq!(full_stable.len(), 1);
        assert!(full_stable[0].contains(full.symbols().lookup("p(a)").unwrap()));
        let red_stable = ddb_core::dsm::models(&reduced, &mut cost).unwrap();
        assert_eq!(red_stable.len(), 1);
    }

    #[test]
    fn constraints_are_grounded() {
        let prog = parse_datalog(
            "node(a). node(b). edge(a,b). \
             in(X) | out(X) :- node(X). \
             :- in(X), in(Y), edge(X,Y).",
        )
        .unwrap();
        let db = ground_reduced(&prog, 10_000).unwrap();
        assert!(db.has_integrity_clauses());
        // Independent-set reading: {in(a), in(b)} is excluded.
        let mut cost = Cost::new();
        let stable = ddb_core::dsm::models(&db, &mut cost).unwrap();
        let ina = db.symbols().lookup("in(a)").unwrap();
        let inb = db.symbols().lookup("in(b)").unwrap();
        assert!(!stable.iter().any(|m| m.contains(ina) && m.contains(inb)));
        assert!(!stable.is_empty());
    }

    #[test]
    fn disequalities_filter_bindings() {
        // Proper coloring via !=: adjacent vertices must differ.
        let prog = parse_datalog(
            "node(a). node(b). edge(a,b). color(red). color(blue). \
             has(X,C) | hasnot(X,C) :- node(X), color(C). \
             :- edge(X,Y), has(X,C), has(Y,C). \
             ok(X) :- has(X,C1), has(X,C2), C1 != C2.",
        )
        .unwrap();
        let db = ground_reduced(&prog, 100_000).unwrap();
        // ok(a) exists only via two *distinct* colors.
        assert!(db.symbols().lookup("ok(a)").is_some());
        // The C1 != C2 filter prunes the C1 = C2 instantiations: every
        // ok-rule body mentions two different color atoms.
        for rule in db.rules() {
            if rule
                .head()
                .first()
                .is_some_and(|&h| db.symbols().name(h).starts_with("ok("))
            {
                assert_eq!(rule.body_pos().len(), 2, "reflexive pair must be pruned");
            }
        }
    }

    #[test]
    fn disequality_between_constants() {
        let prog = parse_datalog("p :- q, a != a. r :- q, a != b. q.").unwrap();
        let db = ground_full(&prog, 1000).unwrap();
        // a != a is statically false → the p-rule vanishes entirely;
        // a != b is statically true → the r-rule stays.
        assert!(db.symbols().lookup("p").is_none());
        assert!(db.symbols().lookup("r").is_some());
    }

    #[test]
    fn disequality_variables_must_be_safe() {
        let prog = parse_datalog(":- X != Y.").unwrap();
        assert!(matches!(
            ground_reduced(&prog, 100),
            Err(GroundingError::Unsafe(_))
        ));
    }

    #[test]
    fn full_and_reduced_agree_with_disequalities() {
        let prog = parse_datalog("d(a). d(b). d(c). pair(X,Y) :- d(X), d(Y), X != Y.").unwrap();
        let full = ground_full(&prog, 100_000).unwrap();
        let reduced = ground_reduced(&prog, 100_000).unwrap();
        // 6 ordered pairs either way.
        let count = |db: &Database| {
            db.symbols()
                .atoms()
                .filter(|&a| db.symbols().name(a).starts_with("pair("))
                .count()
        };
        assert_eq!(count(&full), 6);
        assert_eq!(count(&reduced), 6);
        assert!(full.symbols().lookup("pair(a,a)").is_none());
    }

    #[test]
    fn zero_arity_predicates() {
        let prog = parse_datalog("p :- not q. q :- not p.").unwrap();
        let db = ground_reduced(&prog, 100).unwrap();
        assert_eq!(db.num_atoms(), 2);
        let mut cost = Cost::new();
        assert_eq!(ddb_core::dsm::models(&db, &mut cost).unwrap().len(), 2);
    }

    #[test]
    fn repeated_variables_join_correctly() {
        // self(X) :- edge(X,X): only loops.
        let prog = parse_datalog("edge(a,a). edge(a,b). self(X) :- edge(X,X).").unwrap();
        let db = ground_reduced(&prog, 100).unwrap();
        assert!(db.symbols().lookup("self(a)").is_some());
        assert!(db.symbols().lookup("self(b)").is_none());
    }

    /// The ground rules of `db`, rendered, in database order.
    fn rendered(db: &Database) -> Vec<String> {
        db.rules()
            .iter()
            .map(|r| ddb_logic::parse::display_rule(r, db.symbols()))
            .collect()
    }

    #[test]
    fn zero_arity_atoms_join_and_negate_through_the_index() {
        // `flag` lives under the index key "": it must join as a positive
        // body atom and count as possible under `not`.
        let prog = parse_datalog(
            "flag. base(a). p(X) :- base(X), flag. q(X) :- base(X), not flag. \
             done :- flag, not q(a).",
        )
        .unwrap();
        let q = query_atom("done.");
        for db in [
            ground_reduced(&prog, 100).unwrap(),
            ground_magic(&prog, &q, 100).unwrap(),
        ] {
            let rules = rendered(&db);
            assert!(rules.contains(&"q(a) :- base(a), not flag.".to_owned()));
            assert!(rules.contains(&"done :- flag, not q(a).".to_owned()));
        }
        let reduced = rendered(&ground_reduced(&prog, 100).unwrap());
        assert!(reduced.contains(&"p(a) :- base(a), flag.".to_owned()));
    }

    #[test]
    fn one_predicate_at_two_arities() {
        // `p` and `p(a)` share a predicate name; a join on one arity must
        // never pick up the other's tuples.
        let prog = parse_datalog("p. p(a). r :- p. s(X) :- p(X). t :- not p. u(X) :- p(X), not p.")
            .unwrap();
        let db = ground_reduced(&prog, 100).unwrap();
        let mut rules = rendered(&db);
        rules.sort();
        assert_eq!(
            rules,
            [
                "p(a).",
                "p.",
                "r :- p.",
                "s(a) :- p(a).",
                "t :- not p.",
                "u(a) :- p(a), not p.",
            ]
        );
    }

    #[test]
    fn never_derived_negated_atoms_are_simplified_away() {
        // `blocked(a)` has a populated predicate but no such tuple, and
        // `ghost` never heads a rule: both literals simplify to true.
        let prog =
            parse_datalog("base(a). blocked(c). p(X) :- base(X), not blocked(X). z :- not ghost.")
                .unwrap();
        let q = query_atom("p(a).");
        let reduced = ground_reduced(&prog, 100).unwrap();
        assert!(rendered(&reduced).contains(&"z.".to_owned()));
        for db in [reduced, ground_magic(&prog, &q, 100).unwrap()] {
            assert!(rendered(&db).contains(&"p(a) :- base(a).".to_owned()));
            assert!(db.symbols().lookup("blocked(a)").is_none());
        }
    }

    fn query_atom(src: &str) -> PredAtom {
        parse_datalog(src).unwrap().rules[0].head[0].clone()
    }

    #[test]
    fn magic_grounding_keeps_only_the_demanded_component() {
        // Two disjoint chains; the bound query demands only the first.
        let prog = parse_datalog(
            "start(c0,n0). start(c1,n0). \
             edge(c0,n0,n1). edge(c0,n1,n2). edge(c1,n0,n1). edge(c1,n1,n2). \
             reach(C,N) :- start(C,N). \
             reach(C,Y) :- reach(C,X), edge(C,X,Y).",
        )
        .unwrap();
        let q = query_atom("reach(c0,n2).");
        let magic = ground_magic(&prog, &q, 10_000).unwrap();
        let reduced = ground_reduced(&prog, 10_000).unwrap();
        assert!(magic.symbols().lookup("reach(c0,n2)").is_some());
        assert!(magic.symbols().lookup("reach(c1,n0)").is_none());
        assert!(
            magic.len() < reduced.len(),
            "magic grounding must instantiate fewer rules ({} vs {})",
            magic.len(),
            reduced.len()
        );
        // The query answer agrees with the whole-program grounding.
        let mut cost = Cost::new();
        let mm = ddb_models::minimal::minimal_models(&magic, &mut cost).unwrap();
        let target = magic.symbols().lookup("reach(c0,n2)").unwrap();
        assert!(mm.iter().all(|m| m.contains(target)));
    }

    #[test]
    fn magic_grounding_agrees_with_reduced_on_the_query() {
        let prog = parse_datalog(
            "node(a). node(b). edge(a,b). \
             in(X) | out(X) :- node(X). \
             ok(X) :- in(X).",
        )
        .unwrap();
        let q = query_atom("ok(a).");
        let magic = ground_magic(&prog, &q, 10_000).unwrap();
        let reduced = ground_reduced(&prog, 10_000).unwrap();
        let holds = |db: &Database| {
            let a = db.symbols().lookup("ok(a)").expect("ok(a) grounded");
            ddb_models::minimal::minimal_models(db, &mut Cost::new())
                .unwrap()
                .iter()
                .all(|m| m.contains(a))
        };
        assert_eq!(holds(&magic), holds(&reduced));
    }

    #[test]
    fn magic_grounding_demands_negative_bodies() {
        // The negated atom's rules must be instantiated so the
        // negation simplification sees the same derivability facts.
        let prog =
            parse_datalog("base(a). blocked(a) :- base(a). p(X) :- base(X), not blocked(X).")
                .unwrap();
        let q = query_atom("p(a).");
        let magic = ground_magic(&prog, &q, 1000).unwrap();
        // blocked(a) is derivable, so `not blocked(a)` must survive
        // simplification (not be dropped as impossible).
        let rule = magic
            .rules()
            .iter()
            .find(|r| {
                r.head()
                    .first()
                    .is_some_and(|&h| magic.symbols().name(h) == "p(a)")
            })
            .expect("p-rule grounded");
        assert_eq!(rule.body_neg().len(), 1);
    }

    #[test]
    fn magic_grounding_keeps_constraints_on_the_slice() {
        let prog = parse_datalog("node(a). in(X) | out(X) :- node(X). :- in(a).").unwrap();
        let q = query_atom("out(a).");
        let magic = ground_magic(&prog, &q, 1000).unwrap();
        assert!(magic.has_integrity_clauses());
        let mut cost = Cost::new();
        let stable = ddb_core::dsm::models(&magic, &mut cost).unwrap();
        let out = magic.symbols().lookup("out(a)").unwrap();
        assert!(stable.iter().all(|m| m.contains(out)));
    }

    #[test]
    fn magic_grounding_with_unbound_query_matches_reduced() {
        // A zero-arity query demands everything it depends on openly;
        // the result coincides with the reduced grounding of the slice.
        let prog = parse_datalog(
            "edge(a,b). edge(b,c). path(X,Y) :- edge(X,Y). \
             path(X,Y) :- edge(X,Z), path(Z,Y). done :- path(a,c).",
        )
        .unwrap();
        let q = query_atom("done :- path(a,c).");
        let magic = ground_magic(&prog, &q, 10_000).unwrap();
        assert!(magic.symbols().lookup("done").is_some());
        assert!(magic.symbols().lookup("path(a,c)").is_some());
    }
}
