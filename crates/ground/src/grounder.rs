//! Grounding: from non-ground Datalog∨ to propositional [`Database`]s.

use crate::ast::{ground_atom_name, DatalogProgram, DatalogRule, PredAtom, Term};
use crate::safety::{check_program, SafetyError};
use ddb_logic::{Database, Rule, Symbols};
use ddb_obs::{budget, Interrupted};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::hash::Hash;

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

/// A fully instantiated rule, as sorted, deduplicated ground-atom names:
/// [`ground_full`]'s deduplication key and, for both grounders, the bridge
/// into `ddb_logic`. The derived order (head, then positive body, then
/// negative body, each lexicographic) is the order of the database's rules
/// and so fixes its atom numbering.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct GroundRule<S = String> {
    head: Vec<S>,
    body_pos: Vec<S>,
    body_neg: Vec<S>,
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

fn build_database<S: AsRef<str>>(rules: BTreeSet<GroundRule<S>>) -> Database {
    let mut symbols = Symbols::new();
    for r in &rules {
        for name in r.head.iter().chain(&r.body_pos).chain(&r.body_neg) {
            symbols.intern(name.as_ref());
        }
    }
    let mut db = Database::new(symbols);
    for r in &rules {
        let lookup = |n: &S| db.symbols().lookup(n.as_ref()).expect("interned above");
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
/// with every rule demanded: a semi-naive fixpoint over interned tuples,
/// where each round joins a rule only on bindings that use a tuple the
/// previous round derived, so every binding is enumerated once. The
/// result is the same database, rule for rule and atom id for atom id,
/// as instantiating every rule against the final closure.
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

/// Marks a variable slot no join step has bound yet.
const UNBOUND: u32 = u32::MAX;

/// Dense `u32` ids for the names the grounding loop compares: constants,
/// and `(predicate, arity)` pairs.
struct Names<K> {
    ids: HashMap<K, u32>,
    names: Vec<K>,
}

impl<K: Clone + Eq + Hash> Names<K> {
    fn new() -> Self {
        Names {
            ids: HashMap::new(),
            names: Vec::new(),
        }
    }

    fn intern(&mut self, name: &K) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = u32::try_from(self.names.len()).expect("fewer than 2³² names");
        self.ids.insert(name.clone(), id);
        self.names.push(name.clone());
        id
    }
}

/// A term with its constant interned, or a rule-local variable slot.
#[derive(Clone, Copy)]
enum Slot {
    Const(u32),
    Var(usize),
}

impl Slot {
    fn value(self, binding: &[u32]) -> u32 {
        match self {
            Slot::Const(c) => c,
            Slot::Var(v) => binding[v],
        }
    }
}

/// An atom over an interned relation.
struct Pattern {
    rel: usize,
    args: Vec<Slot>,
}

/// Which of a relation's tuples a join step may take in a semi-naive
/// round: those known before the last round (`Old`), those the last round
/// derived (`Delta`), or both (`All`).
#[derive(Clone, Copy)]
enum Window {
    Old,
    Delta,
    All,
}

/// How a join step finds its candidate tuples.
enum Probe {
    /// The first argument is a constant or a variable bound by an earlier
    /// step: one index bucket.
    First(Slot),
    /// The first argument is the still-unbound restricted variable: the
    /// buckets of its constant set.
    Restricted,
    /// Arity 0, or a fresh first variable: every tuple in the window.
    Scan,
}

/// What a join step does with one argument of a candidate tuple.
enum Check {
    /// The value must equal a constant or an already bound variable.
    Equals(Slot),
    /// The value binds a fresh variable (and must lie in the restriction's
    /// constant set when `restricted`).
    Bind { slot: usize, restricted: bool },
}

/// One positive body atom in a join plan. Which variables are bound
/// before each step is fixed by the plan's order, so the checks are
/// decided once, when the rule is compiled.
struct Step {
    /// Position of the atom in the positive body.
    body: usize,
    rel: usize,
    window: Window,
    probe: Probe,
    checks: Vec<Check>,
}

/// An active rule, interned and planned.
struct CompiledRule {
    head: Vec<Pattern>,
    neg: Vec<Pattern>,
    disequalities: Vec<(Slot, Slot)>,
    vars: usize,
    body_len: usize,
    /// The demand restriction: a variable slot and its sorted constant set.
    restriction: Option<(usize, Vec<u32>)>,
    /// Plan `i` joins positive body atom `i` over the last round's delta
    /// first, then the atoms before it over the older tuples and those
    /// after it over all tuples: every body combination that uses at least
    /// one new tuple is enumerated exactly once per fixpoint.
    plans: Vec<Vec<Step>>,
}

/// The possibly-true tuples of one `(predicate, arity)` relation, stored
/// flat in derivation order behind a first-argument index.
struct Relation {
    arity: usize,
    /// `arity` interned constants per tuple.
    values: Vec<u32>,
    /// The ground-atom id of each tuple.
    atoms: Vec<u32>,
    /// Tuple indices by first argument, ascending (arity ≥ 1 only).
    by_first: HashMap<u32, Vec<u32>>,
    /// Tuples from here on are the last round's delta.
    delta_start: usize,
}

impl Relation {
    fn len(&self) -> usize {
        self.atoms.len()
    }

    fn range(&self, window: Window) -> std::ops::Range<usize> {
        match window {
            Window::Old => 0..self.delta_start,
            Window::Delta => self.delta_start..self.len(),
            Window::All => 0..self.len(),
        }
    }

    fn bucket(&self, first: u32, window: Window) -> &[u32] {
        let Some(tuples) = self.by_first.get(&first) else {
            return &[];
        };
        let split = tuples.partition_point(|&t| (t as usize) < self.delta_start);
        match window {
            Window::Old => &tuples[..split],
            Window::Delta => &tuples[split..],
            Window::All => tuples,
        }
    }

    fn tuple(&self, t: usize) -> &[u32] {
        &self.values[t * self.arity..(t + 1) * self.arity]
    }

    fn push(&mut self, atom: u32, args: &[u32]) {
        let t = u32::try_from(self.len()).expect("fewer than 2³² tuples");
        if let Some(&first) = args.first() {
            self.by_first.entry(first).or_default().push(t);
        }
        self.values.extend_from_slice(args);
        self.atoms.push(atom);
    }
}

/// The ground atoms met so far, keyed `[relation, args…]`.
#[derive(Default)]
struct GroundAtoms {
    ids: HashMap<Box<[u32]>, u32>,
    keys: Vec<Box<[u32]>>,
    /// Whether the atom heads an emitted rule, i.e. is possibly true.
    possible: Vec<bool>,
}

impl GroundAtoms {
    fn instantiate(&mut self, pattern: &Pattern, binding: &[u32], key: &mut Vec<u32>) -> u32 {
        key.clear();
        key.push(pattern.rel as u32);
        key.extend(pattern.args.iter().map(|s| s.value(binding)));
        if let Some(&id) = self.ids.get(key.as_slice()) {
            return id;
        }
        let id = u32::try_from(self.keys.len()).expect("fewer than 2³² ground atoms");
        let boxed: Box<[u32]> = key.as_slice().into();
        self.ids.insert(boxed.clone(), id);
        self.keys.push(boxed);
        self.possible.push(false);
        id
    }
}

fn slot(t: &Term, vars: &mut Names<String>, consts: &mut Names<String>) -> Slot {
    match t {
        Term::Const(c) => Slot::Const(consts.intern(c)),
        Term::Var(v) => Slot::Var(vars.intern(v) as usize),
    }
}

/// Interns one rule and plans its semi-naive joins.
fn compile_rule(
    rule: &DatalogRule,
    restriction: Option<(&str, &BTreeSet<String>)>,
    consts: &mut Names<String>,
    preds: &mut Names<(String, usize)>,
) -> CompiledRule {
    let mut vars: Names<String> = Names::new();
    let mut patterns = |atoms: &[PredAtom], vars: &mut Names<String>| -> Vec<Pattern> {
        atoms
            .iter()
            .map(|a| Pattern {
                rel: preds.intern(&(a.pred.clone(), a.args.len())) as usize,
                args: a.args.iter().map(|t| slot(t, vars, consts)).collect(),
            })
            .collect()
    };
    let pos = patterns(&rule.body_pos, &mut vars);
    let head = patterns(&rule.head, &mut vars);
    let neg = patterns(&rule.body_neg, &mut vars);
    let disequalities = rule
        .disequalities
        .iter()
        .map(|(l, r)| (slot(l, &mut vars, consts), slot(r, &mut vars, consts)))
        .collect();
    let restriction = restriction.map(|(v, firsts)| {
        let mut set: Vec<u32> = firsts.iter().map(|f| consts.intern(f)).collect();
        set.sort_unstable();
        (vars.intern(&v.to_owned()) as usize, set)
    });
    let restricted_slot = restriction.as_ref().map(|(s, _)| *s);
    let nvars = vars.names.len();
    let plans = (0..pos.len())
        .map(|delta| {
            let order = std::iter::once(delta).chain((0..pos.len()).filter(|&j| j != delta));
            let mut bound = vec![false; nvars];
            order
                .map(|j| {
                    let atom = &pos[j];
                    let probe = match atom.args.first() {
                        None => Probe::Scan,
                        Some(&Slot::Var(v)) if !bound[v] => {
                            if restricted_slot == Some(v) {
                                Probe::Restricted
                            } else {
                                Probe::Scan
                            }
                        }
                        Some(&s) => Probe::First(s),
                    };
                    let checks = atom
                        .args
                        .iter()
                        .map(|&s| match s {
                            Slot::Var(v) if !bound[v] => {
                                bound[v] = true;
                                Check::Bind {
                                    slot: v,
                                    restricted: restricted_slot == Some(v),
                                }
                            }
                            s => Check::Equals(s),
                        })
                        .collect();
                    let window = match j.cmp(&delta) {
                        std::cmp::Ordering::Less => Window::Old,
                        std::cmp::Ordering::Equal => Window::Delta,
                        std::cmp::Ordering::Greater => Window::All,
                    };
                    Step {
                        body: j,
                        rel: atom.rel,
                        window,
                        probe,
                        checks,
                    }
                })
                .collect()
        })
        .collect();
    CompiledRule {
        head,
        neg,
        disequalities,
        vars: nvars,
        body_len: pos.len(),
        restriction,
        plans,
    }
}

/// Called on each complete join with the binding and the matched body atoms.
type Visit<'a> = dyn FnMut(&[u32], &[u32]) -> Result<(), GroundingError> + 'a;

/// Backtracking join along one plan. Each step's candidates come from an
/// index bucket when its first argument is fixed (a constant, a bound
/// variable, or the restricted variable's constant set) and from its
/// window's tuples otherwise. `matched[i]` holds the ground atom taken by
/// positive body atom `i`.
fn join(
    rels: &[Relation],
    rule: &CompiledRule,
    plan: &[Step],
    binding: &mut [u32],
    matched: &mut [u32],
    visit: &mut Visit,
) -> Result<(), GroundingError> {
    // One checkpoint per join node: the join is the grounder's hot loop,
    // so deadlines and cancel flags trip here.
    budget::checkpoint()?;
    let Some((step, rest)) = plan.split_first() else {
        return visit(binding, matched);
    };
    let rel = &rels[step.rel];
    let mut take = |t: usize, binding: &mut [u32], matched: &mut [u32]| {
        if admits(step, rel.tuple(t), binding, rule) {
            matched[step.body] = rel.atoms[t];
            join(rels, rule, rest, binding, matched, visit)
        } else {
            Ok(())
        }
    };
    match step.probe {
        Probe::First(s) => {
            for &t in rel.bucket(s.value(binding), step.window) {
                take(t as usize, binding, matched)?;
            }
        }
        Probe::Restricted => {
            let (_, firsts) = rule.restriction.as_ref().expect("restricted probe");
            for &f in firsts {
                for &t in rel.bucket(f, step.window) {
                    take(t as usize, binding, matched)?;
                }
            }
        }
        Probe::Scan => {
            for t in rel.range(step.window) {
                take(t, binding, matched)?;
            }
        }
    }
    Ok(())
}

/// Whether `tuple` matches the step's atom under `binding`; binds the
/// step's fresh variables as it goes. A variable bound by an earlier step
/// is only ever compared, so a rejected tuple needs no undo.
fn admits(step: &Step, tuple: &[u32], binding: &mut [u32], rule: &CompiledRule) -> bool {
    for (check, &value) in step.checks.iter().zip(tuple) {
        match *check {
            Check::Equals(s) => {
                if s.value(binding) != value {
                    return false;
                }
            }
            Check::Bind { slot, restricted } => {
                if restricted {
                    let (_, firsts) = rule.restriction.as_ref().expect("restricted slot");
                    if firsts.binary_search(&value).is_err() {
                        return false;
                    }
                }
                binding[slot] = value;
            }
        }
    }
    true
}

/// Sorts and deduplicates `part` onto the end of a rule key; returns its
/// length.
fn append_canonical(key: &mut Vec<u32>, part: &mut Vec<u32>) -> u32 {
    part.sort_unstable();
    part.dedup();
    key.extend_from_slice(part);
    part.len() as u32
}

/// The grounding loop both grounders share, a semi-naive fixpoint over
/// interned tuples.
///
/// Constants and `(predicate, arity)` pairs are interned to `u32`; each
/// relation stores its possibly-true tuples flat, in derivation order,
/// behind a first-argument index, so an atom never matches a tuple of
/// another arity. Round 0 fires the rules with an empty positive body.
/// Round `k` joins each active rule only on bindings where some positive
/// body atom takes a tuple derived in round `k − 1`, by the old/delta/all
/// split of `CompiledRule::plans`; a restricted rule keeps its variable
/// in its constant set in every round. The loop stops after a round that
/// derives no new tuple.
///
/// Emitted rules are deduplicated on their sorted `(head, pos, neg)`
/// ground-atom ids (two bindings can yield one ground rule). Afterwards
/// each negated literal whose atom never became possible is dropped
/// (negative body atoms are demanded, so within a demanded fragment their
/// derivability is fully explored), and only the distinct final rules are
/// rendered, once, and sorted by their rendering, which fixes the atom
/// numbering of the database.
fn ground_active(
    prog: &DatalogProgram,
    activations: &[Activation],
    limit: usize,
) -> Result<Database, GroundingError> {
    let mut consts: Names<String> = Names::new();
    let mut preds: Names<(String, usize)> = Names::new();
    let rules: Vec<CompiledRule> = prog
        .rules
        .iter()
        .zip(activations)
        .filter_map(|(rule, activation)| {
            let restriction = match activation {
                Activation::Inactive => return None,
                Activation::Unrestricted => None,
                Activation::Restricted(v, firsts) => Some((v.as_str(), firsts)),
            };
            Some(compile_rule(rule, restriction, &mut consts, &mut preds))
        })
        .collect();
    let mut rels: Vec<Relation> = preds
        .names
        .iter()
        .map(|&(_, arity)| Relation {
            arity,
            values: Vec::new(),
            atoms: Vec::new(),
            by_first: HashMap::new(),
            delta_start: 0,
        })
        .collect();
    let mut atoms = GroundAtoms::default();
    // Each emitted rule as `[#head, #pos, head…, pos…, neg…]`.
    let mut emitted: HashSet<Box<[u32]>> = HashSet::new();
    let mut staged: Vec<u32> = Vec::new();
    // Reused buffers: an atom key, a rule key, and one part of a rule key.
    let (mut scratch, mut key, mut part) = (Vec::new(), Vec::new(), Vec::new());
    let mut round = 0usize;
    loop {
        budget::checkpoint()?;
        for rule in &rules {
            budget::checkpoint()?;
            let mut visit = |binding: &[u32], matched: &[u32]| -> Result<(), GroundingError> {
                let distinct = |&(l, r): &(Slot, Slot)| l.value(binding) != r.value(binding);
                if !rule.disequalities.iter().all(distinct) {
                    return Ok(());
                }
                key.clear();
                key.extend([0, 0]);
                part.clear();
                part.extend(
                    rule.head
                        .iter()
                        .map(|p| atoms.instantiate(p, binding, &mut scratch)),
                );
                key[0] = append_canonical(&mut key, &mut part);
                part.clear();
                part.extend_from_slice(matched);
                key[1] = append_canonical(&mut key, &mut part);
                part.clear();
                part.extend(
                    rule.neg
                        .iter()
                        .map(|p| atoms.instantiate(p, binding, &mut scratch)),
                );
                append_canonical(&mut key, &mut part);
                if emitted.contains(key.as_slice()) {
                    return Ok(());
                }
                for &h in &key[2..2 + key[0] as usize] {
                    if !atoms.possible[h as usize] {
                        atoms.possible[h as usize] = true;
                        staged.push(h);
                    }
                }
                emitted.insert(key.as_slice().into());
                if emitted.len() > limit {
                    return Err(GroundingError::TooLarge { limit });
                }
                Ok(())
            };
            if round == 0 {
                if rule.body_len == 0 {
                    visit(&[], &[])?;
                }
                continue;
            }
            let mut binding = vec![UNBOUND; rule.vars];
            let mut matched = vec![0u32; rule.body_len];
            for plan in &rule.plans {
                let delta = &rels[plan[0].rel];
                if delta.delta_start < delta.len() {
                    join(&rels, rule, plan, &mut binding, &mut matched, &mut visit)?;
                }
            }
        }
        for rel in &mut rels {
            rel.delta_start = rel.len();
        }
        if staged.is_empty() {
            break;
        }
        for id in staged.drain(..) {
            let key = &atoms.keys[id as usize];
            rels[key[0] as usize].push(id, &key[1..]);
        }
        round += 1;
    }
    // Free the join state before the database is built beside the rules.
    drop((rules, rels, atoms.ids));
    let names: Vec<String> = atoms
        .keys
        .iter()
        .map(|key| {
            let (pred, _) = &preds.names[key[0] as usize];
            let args: Vec<&str> = key[1..]
                .iter()
                .map(|&c| consts.names[c as usize].as_str())
                .collect();
            ground_atom_name(pred, &args)
        })
        .collect();
    drop(atoms.keys);
    let render = |ids: &[u32]| -> Vec<&str> {
        let mut out: Vec<&str> = ids.iter().map(|&a| names[a as usize].as_str()).collect();
        out.sort();
        out
    };
    let simplified: BTreeSet<GroundRule<&str>> = emitted
        .into_iter()
        .map(|key| {
            let (heads, pos) = (key[0] as usize, key[1] as usize);
            let neg: Vec<u32> = key[2 + heads + pos..]
                .iter()
                .copied()
                .filter(|&a| atoms.possible[a as usize])
                .collect();
            GroundRule {
                head: render(&key[2..2 + heads]),
                body_pos: render(&key[2 + heads..2 + heads + pos]),
                body_neg: render(&neg),
            }
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
    fn magic_restriction_holds_where_the_variable_is_bound() {
        // `from`'s demand confines X to {b}, but X is the second argument
        // of the body atom: the join binds it from a scanned tuple, and
        // the restriction must reject `edge(c,d)` there.
        let prog = parse_datalog("edge(a,b). edge(c,d). from(X) :- edge(Y,X).").unwrap();
        let magic = ground_magic(&prog, &query_atom("from(b)."), 100).unwrap();
        let rules = rendered(&magic);
        assert!(rules.contains(&"from(b) :- edge(a,b).".to_owned()));
        assert!(magic.symbols().lookup("from(d)").is_none(), "{rules:?}");
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
