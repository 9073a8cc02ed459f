//! The static query planner: every routing decision the dispatcher can
//! take — the `O(1)` existence leaf, Horn fixpoint, HCF shift, demand
//! (relevance) slice, splitting-set peel, island decomposition, generic
//! oracle procedure — reified in one auditable structure *before* anything
//! runs.
//!
//! The planner is deliberately split in two layers:
//!
//! * [`decide`] — the cheap **decision kernel**: given a database, its
//!   [`Fragments`], the semantics' [`SemanticsTraits`] and a [`PlanQuery`],
//!   pick the route the dispatcher must take and hand back the route's
//!   payload (the [`Slice`], [`Peel`] or island list) so execution never
//!   recomputes it. `ddb_core::dispatch` calls this on every query; its
//!   waterfall mirrors — and now *is* — the routing policy.
//! * [`build_plan`] — the full **plan tree** for `ddb explain`: recursing
//!   through the reductions exactly as execution would (slice → inner
//!   query, peel → residual, islands → per-island existence), annotating
//!   every node with the predicted complexity class and a sound upper
//!   bound on oracle calls ([`crate::cost::oracle_call_bound`]). Because
//!   both layers call the same decision kernel on the same inputs, the
//!   predicted route always matches the executed route.
//!
//! The semantics-specific knowledge lives in [`SemanticsTraits`], filled in
//! by `ddb_core` (this crate does not know the ten semantics by name):
//! which closures are minimal-model-determined, whether the peel may cross
//! negation, whether the HCF shift applies, and the paper's complexity
//! class for the (semantics, problem) cell in both of its tables (Table 1
//! on positive databases, Table 2 otherwise); each plan node prints the
//! one its own (sub-)database falls under.
//!
//! Plan-level lints (`DDB012`–`DDB018`, see [`plan_lints`]) report
//! query-dependent findings: unbound argument positions under goal-directed
//! evaluation, predicted exponential blowup, ineffective slices, plans
//! infeasible under a declared oracle-call budget, and the magic-rewrite
//! findings (inadmissible rewrite, no-op rewrite, namespace collision).

use crate::adorn::{split_predicate, Adornments};
use crate::cost::{display_bound, oracle_call_bound};
use crate::fragments::{Fragment, Fragments};
use crate::lints::Diagnostic;
use crate::magic::MAGIC_PREFIX;
use crate::prepared::{AsPrepared, Prepared};
use crate::slice::{demand_closure, project_slice, project_top, relevant_slice, Slice};
use crate::splitting::Peel;
use ddb_logic::parse::display_rule;
use ddb_logic::{Atom, Database, Formula};
use ddb_obs::json::Json;
use std::sync::Arc;

/// Why a query may (or may not) be answered on its relevance slice.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Admission {
    /// The database is positive (no negation, no integrity clauses):
    /// answering on the slice is exact for all ten semantics.
    PositiveExact,
    /// The slice is split-closed: the database is a disjoint union of the
    /// slice and the rest, and the answer is the product of the parts
    /// (with the empty-top correction for cautious inference).
    Product,
    /// Neither precondition holds; the generic whole-database procedure
    /// must run.
    Blocked,
}

impl Admission {
    /// Kebab-case label for display and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Admission::PositiveExact => "positive-exact",
            Admission::Product => "product",
            Admission::Blocked => "blocked",
        }
    }
}

/// Decides whether a query over `slice` may be answered on the slice
/// alone. `mm_determined` says whether the query's answer is determined by
/// the minimal-model set under the semantics at hand (always true for
/// literal queries; semantics-dependent for formulas — see
/// [`SemanticsTraits::mm_determined_formulas`]).
pub fn admission(frags: &Fragments, slice: &Slice, mm_determined: bool) -> Admission {
    if frags.positive && mm_determined {
        Admission::PositiveExact
    } else if slice.split_closed {
        Admission::Product
    } else {
        Admission::Blocked
    }
}

/// Whether some query atom fixes argument constants (`p(a)`, not `p`) —
/// a bound query in the magic-sets sense. Only bound queries prune dead
/// rules from their demand closure ([`prunes_dead`]), raise `DDB016`
/// when it is blocked, and get the rewritten program in `ddb explain`.
pub fn bound_query(db: &Database, query_atoms: &[Atom]) -> bool {
    query_atoms
        .iter()
        .any(|&a| !split_predicate(db.symbols().name(a)).1.is_empty())
}

/// The dead-rule pruning gate of a query's demand closure
/// ([`demand_closure`]), shared by the planner and `ddb rewrite`.
/// Pruning is sound exactly for minimal-model-determined answers on
/// positive databases (see [`crate::magic`]), and is attempted only for
/// bound queries.
pub fn prunes_dead(
    db: &Database,
    frags: &Fragments,
    query_atoms: &[Atom],
    mm_determined: bool,
) -> bool {
    frags.positive && mm_determined && bound_query(db, query_atoms)
}

/// The routing-relevant facts about one semantics for one problem, filled
/// in by `ddb_core` so this crate stays semantics-agnostic.
#[derive(Clone, Debug)]
pub struct SemanticsTraits {
    /// Display name (`"DSM"`, `"ECWA (=CIRC)"`, …).
    pub name: &'static str,
    /// Whether formula inference is determined by the minimal-model set
    /// (false for GCWA/CCWA, whose characteristic sets keep non-minimal
    /// models).
    pub mm_determined_formulas: bool,
    /// `Some(peel_negation)` when the splitting-set peel is sound for this
    /// semantics, `None` when it is not (PERF/ICWA).
    pub peel_negation: Option<bool>,
    /// Whether the head-cycle-free shift applies (DSM only).
    pub hcf_shift: bool,
    /// Whether the Horn collapse applies (default partition/varying
    /// structure only).
    pub horn_collapse: bool,
    /// Whether the query-directed reductions (slice / split / islands) are
    /// on the table at all: auto routing, not an inner call, default
    /// structure.
    pub reductions: bool,
    /// Whether routing is forced to the generic procedure
    /// (`RoutingMode::Generic`).
    pub generic_only: bool,
    /// The paper's complexity class for this (semantics, problem) cell on
    /// positive databases (Table 1).
    pub class_positive: &'static str,
    /// The paper's complexity class for this cell on every other database
    /// (Table 2).
    pub class_general: &'static str,
}

impl SemanticsTraits {
    /// The paper's class for this cell on a database with fragments
    /// `frags`: Table 1's when it is positive, Table 2's otherwise.
    pub fn class(&self, frags: &Fragments) -> &'static str {
        match Fragment::of(frags) {
            Fragment::Positive => self.class_positive,
            Fragment::General => self.class_general,
        }
    }
}

/// The query shape being planned (atoms only — the planner needs the
/// query's atom set and literal-ness, not its connective structure).
#[derive(Clone, Debug)]
pub enum PlanQuery {
    /// Inference of a single literal over this atom.
    Literal(Atom),
    /// Inference of a formula mentioning these atoms.
    Formula(Vec<Atom>),
    /// Model existence.
    Existence,
    /// Model enumeration (the whole vocabulary is needed; query-directed
    /// reductions never apply).
    Enumeration,
}

impl PlanQuery {
    /// The plan query of inferring `f`: a literal query when `f` is a
    /// single literal ([`Formula::as_literal`]), a formula query over its
    /// atoms otherwise. The one place a formula's literal-ness is read.
    pub fn of(f: &Formula) -> PlanQuery {
        match f.as_literal() {
            Some(l) => PlanQuery::Literal(l.atom()),
            None => PlanQuery::Formula(f.atoms()),
        }
    }

    /// The query's atoms (empty for existence/enumeration and constant
    /// formulas).
    pub fn atoms(&self) -> &[Atom] {
        match self {
            PlanQuery::Literal(a) => std::slice::from_ref(a),
            PlanQuery::Formula(atoms) => atoms,
            PlanQuery::Existence | PlanQuery::Enumeration => &[],
        }
    }

    fn is_literal(&self) -> bool {
        matches!(self, PlanQuery::Literal(_))
    }

    fn is_inference(&self) -> bool {
        matches!(self, PlanQuery::Literal(_) | PlanQuery::Formula(_))
    }
}

/// The route a plan node takes. Labels match the `route.*` observability
/// counters exactly, so a predicted route can be checked against the
/// counter the execution actually bumped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RouteKind {
    /// Model existence on a positive database: `true` without the oracle,
    /// the `O(1)` existence column of Table 1 (a positive database has a
    /// minimal model, and every semantics keeps one).
    Positive,
    /// Polynomial least-model fixpoint (Horn collapse).
    Horn,
    /// Head-cycle-free shift to a normal program (DSM).
    Hcf,
    /// The query's demand closure (the relevance slice, minus dead rules
    /// when [`prunes_dead`] admits it); recurse on the projected
    /// sub-database.
    Slice,
    /// Splitting-set peel; recurse on the residual program.
    Split,
    /// Weakly-connected island decomposition (existence only).
    Islands,
    /// The generic oracle-backed procedure.
    Generic,
}

impl RouteKind {
    /// The label the matching `route.<label>` counter uses.
    pub fn label(self) -> &'static str {
        match self {
            RouteKind::Positive => "positive",
            RouteKind::Horn => "horn",
            RouteKind::Hcf => "hcf",
            RouteKind::Slice => "slice",
            RouteKind::Split => "split",
            RouteKind::Islands => "islands",
            RouteKind::Generic => "generic",
        }
    }
}

/// The payload a decided route carries so execution (and the plan tree)
/// never recomputes the analysis that justified it.
#[derive(Clone, Debug)]
pub enum PlanData {
    /// No payload (positive / Horn / HCF / generic leaves).
    Leaf,
    /// The admitted demand closure.
    Slice {
        /// The demand closure of the query atoms (kept rules, plus the
        /// dead rules it dropped).
        slice: Slice,
        /// Why answering on the slice is sound.
        admission: Admission,
    },
    /// The splitting-set peel.
    Peel {
        /// The peel: decided atoms plus the residual program (shared with
        /// the database's [`Prepared`] memo).
        peel: Arc<Peel>,
    },
    /// The island decomposition.
    Islands {
        /// One split-closed slice per weakly-connected island (shared with
        /// the database's [`Prepared`] memo).
        parts: Arc<[Slice]>,
    },
}

/// Output of the decision kernel: the route plus its payload. The
/// `blocked` witness records that a proper demand closure existed but its
/// admission failed — execution bumps `route.slice.blocked` for it — and
/// names the rule that blocked it (lint `DDB016` for bound queries).
#[derive(Clone, Debug)]
pub struct Decision {
    /// The route to take.
    pub route: RouteKind,
    /// The route's payload.
    pub data: PlanData,
    /// A proper demand closure existed but was not admitted; carries the
    /// blocking rule's index.
    pub blocked: Option<usize>,
}

/// How much of the reduction waterfall a recursive plan position may use.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Scope {
    /// Top-level entry and slice children: the full waterfall.
    Full,
    /// Inner calls (`no_slice` configurations): positive / Horn / HCF /
    /// generic only. The residual of an existence peel may still take its
    /// islands first ([`decide_peel_residual`]).
    Tail,
}

/// The decision kernel: picks the route the dispatcher must take for
/// (`db`, `q`) under semantics `t`, with the route's payload. This is the
/// single source of truth for routing — `ddb_core::dispatch` executes
/// whatever this returns, and [`build_plan`] predicts by calling the same
/// function. The fragments, the relevance and demand closures' indexes,
/// the peel and the islands all come from the database's memo, so only
/// the query-dependent closures are computed per call.
pub fn decide(db: &impl AsPrepared, t: &SemanticsTraits, q: &PlanQuery) -> Decision {
    db.with_prepared(|p| decide_scoped(p, t, q, Scope::Full))
}

fn leaf(route: RouteKind, blocked: Option<usize>) -> Decision {
    Decision {
        route,
        data: PlanData::Leaf,
        blocked,
    }
}

fn decide_scoped(p: &Prepared, t: &SemanticsTraits, q: &PlanQuery, scope: Scope) -> Decision {
    if t.generic_only {
        return leaf(RouteKind::Generic, None);
    }
    if positive_existence(p, q) {
        return leaf(RouteKind::Positive, None);
    }
    let (db, frags) = (p.db(), p.fragments());
    if frags.horn && t.horn_collapse {
        return leaf(RouteKind::Horn, None);
    }
    let mut blocked = None;
    if t.reductions && scope == Scope::Full {
        if q.is_inference() && !q.atoms().is_empty() {
            let mm_determined = q.is_literal() || t.mm_determined_formulas;
            let prune = prunes_dead(db, &frags, q.atoms(), mm_determined);
            let slice = demand_closure(p, q.atoms(), prune);
            if !slice.is_whole(db) {
                let adm = admission(&frags, &slice, mm_determined);
                if adm == Admission::Blocked {
                    blocked = slice.blocking_rule;
                } else {
                    return Decision {
                        route: RouteKind::Slice,
                        data: PlanData::Slice {
                            slice,
                            admission: adm,
                        },
                        blocked: None,
                    };
                }
            }
        }
        if !matches!(q, PlanQuery::Enumeration) {
            if let Some(peel_negation) = t.peel_negation {
                let peel = p.peel(peel_negation);
                if peel.num_decided > 0 {
                    return Decision {
                        route: RouteKind::Split,
                        data: PlanData::Peel { peel: peel.clone() },
                        blocked,
                    };
                }
            }
        }
        if matches!(q, PlanQuery::Existence) {
            let parts = p.islands();
            if parts.len() >= 2 {
                return Decision {
                    route: RouteKind::Islands,
                    data: PlanData::Islands {
                        parts: parts.clone(),
                    },
                    blocked,
                };
            }
        }
    }
    leaf(tail_route(t, &frags), blocked)
}

/// The `O(1)` existence leaf's test, tried before every other route in
/// every scope: model existence on a positive database.
fn positive_existence(p: &Prepared, q: &PlanQuery) -> bool {
    matches!(q, PlanQuery::Existence) && p.fragments().positive
}

/// The route model existence takes on the residual of `p`'s existence
/// peel (the [`RouteKind::Split`] route of [`decide`]), where `residual`
/// is that residual's memo: the positive leaf, then the residual's
/// islands (memoized with the peel in `p`), then the tail — even on a
/// Horn residual. The peel is spent and slicing needs query atoms. The
/// plan tree's residual node and the split executor both take this
/// decision, so execution follows the plan.
pub fn decide_peel_residual(p: &Prepared, residual: &Prepared, t: &SemanticsTraits) -> Decision {
    let q = PlanQuery::Existence;
    if positive_existence(residual, &q) {
        return leaf(RouteKind::Positive, None);
    }
    let mode = t
        .peel_negation
        .expect("only a peelable semantics takes the split route");
    let parts = p.peel_islands(mode);
    if parts.len() >= 2 {
        return Decision {
            route: RouteKind::Islands,
            data: PlanData::Islands {
                parts: parts.clone(),
            },
            blocked: None,
        };
    }
    decide_scoped(residual, t, &q, Scope::Tail)
}

/// The leaf the waterfall bottoms out on when no reduction applies (or an
/// executor abandons its route): the HCF shift for a semantics that has
/// one on a head-cycle-free database unless routing is forced generic,
/// the generic procedure otherwise. The planner and the dispatcher's
/// fallback both read it.
pub fn tail_route(t: &SemanticsTraits, frags: &Fragments) -> RouteKind {
    if t.hcf_shift && frags.head_cycle_free && !t.generic_only {
        RouteKind::Hcf
    } else {
        RouteKind::Generic
    }
}

/// One node of the plan tree `ddb explain` prints: the decided route, the
/// sub-database's size, the predicted complexity class (the paper's cell
/// on the node's own fragment), a sound upper bound on oracle calls for
/// the whole subtree, and the child plans the route delegates to.
#[derive(Clone, Debug)]
pub struct PlanNode {
    /// The route this node takes.
    pub route: RouteKind,
    /// Atoms in this node's (sub-)database.
    pub atoms: usize,
    /// Rules in this node's (sub-)database.
    pub rules: usize,
    /// Predicted complexity class (`"P"` on the Horn collapse, the
    /// paper's cell class for the node's fragment otherwise — `"O(1)"` on
    /// the positive existence leaf).
    pub class: &'static str,
    /// Upper bound on NP-oracle calls for this subtree (saturating).
    pub oracle_bound: u64,
    /// Human-readable justification of the decision.
    pub detail: String,
    /// Child plans (slice sub-query and product correction, peel
    /// residual, per-island existence checks).
    pub children: Vec<PlanNode>,
    /// The route's payload (what execution would consume).
    pub data: PlanData,
    /// A proper demand closure existed at this node but was not admitted
    /// (the blocking rule's index — lint `DDB016` for bound queries).
    pub blocked: Option<usize>,
}

impl PlanNode {
    /// Renders the subtree as an indented text block (two spaces per
    /// level), deterministic for snapshot diffing.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&format!(
            "{} [{} atoms, {} rules] class {}, <= {} oracle calls — {}\n",
            self.route.label(),
            self.atoms,
            self.rules,
            self.class,
            display_bound(self.oracle_bound),
            self.detail
        ));
        for c in &self.children {
            c.render_into(out, depth + 1);
        }
    }

    /// JSON rendering for `ddb explain --json`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("route", Json::Str(self.route.label().to_owned())),
            ("atoms", Json::UInt(self.atoms as u64)),
            ("rules", Json::UInt(self.rules as u64)),
            ("class", Json::Str(self.class.to_owned())),
            ("oracle_bound", Json::UInt(self.oracle_bound)),
            ("detail", Json::Str(self.detail.clone())),
            (
                "children",
                Json::Arr(self.children.iter().map(PlanNode::to_json).collect()),
            ),
        ])
    }
}

/// Builds the full plan tree for (`db`, `q`) under semantics `t`,
/// recursing through the reductions exactly as execution would. The root
/// route equals what [`decide`] returns on the same inputs (it *is* that
/// decision, read from the same memo), so `ddb explain`'s prediction
/// matches dispatch by construction.
pub fn build_plan(db: &impl AsPrepared, t: &SemanticsTraits, q: &PlanQuery) -> PlanNode {
    db.with_prepared(|p| build(p, t, q, Scope::Full))
}

fn plan_leaf(route: RouteKind, p: &Prepared, t: &SemanticsTraits, detail: String) -> PlanNode {
    let db = p.db();
    let class = match route {
        RouteKind::Horn => "P",
        _ => t.class(&p.fragments()),
    };
    let bound = match route {
        RouteKind::Horn | RouteKind::Positive => 0,
        _ => oracle_call_bound(db.num_atoms(), db.len()),
    };
    PlanNode {
        route,
        atoms: db.num_atoms(),
        rules: db.len(),
        class,
        oracle_bound: bound,
        detail,
        children: Vec::new(),
        data: PlanData::Leaf,
        blocked: None,
    }
}

fn build(p: &Prepared, t: &SemanticsTraits, q: &PlanQuery, scope: Scope) -> PlanNode {
    build_decided(p, t, q, decide_scoped(p, t, q, scope))
}

fn build_decided(p: &Prepared, t: &SemanticsTraits, q: &PlanQuery, d: Decision) -> PlanNode {
    let db = p.db();
    let blocked = d.blocked;
    let mut node = match d.data {
        PlanData::Leaf => match d.route {
            RouteKind::Positive => plan_leaf(
                RouteKind::Positive,
                p,
                t,
                "positive database: a minimal model exists, no oracle call".into(),
            ),
            RouteKind::Horn => plan_leaf(
                RouteKind::Horn,
                p,
                t,
                "Horn collapse: polynomial least-model fixpoint".into(),
            ),
            RouteKind::Hcf => plan_leaf(
                RouteKind::Hcf,
                p,
                t,
                "head-cycle-free: shift to a normal program, polynomial stability checks".into(),
            ),
            _ => {
                let detail = if blocked.is_some() {
                    "generic oracle procedure (a proper slice exists but its admission is blocked)"
                        .to_owned()
                } else {
                    "generic oracle procedure on the whole database".to_owned()
                };
                plan_leaf(RouteKind::Generic, p, t, detail)
            }
        },
        PlanData::Slice { slice, admission } => {
            let (sub, map) = project_slice(db, &slice);
            let sub_q = match q {
                PlanQuery::Literal(a) => {
                    PlanQuery::Literal(map.to_sub[a.index()].expect("query atom is in its slice"))
                }
                PlanQuery::Formula(atoms) => PlanQuery::Formula(
                    atoms
                        .iter()
                        .map(|a| map.to_sub[a.index()].expect("query atom is in its slice"))
                        .collect(),
                ),
                _ => unreachable!("slice route requires an inference query"),
            };
            let mut children = vec![build(&Prepared::borrowed(&sub), t, &sub_q, Scope::Full)];
            if admission == Admission::Product {
                // A cautious `false` on the slice owes one model-existence
                // check on the independent top part.
                let (top, _) = project_top(db, &slice);
                children.push(build(
                    &Prepared::borrowed(&top),
                    t,
                    &PlanQuery::Existence,
                    Scope::Tail,
                ));
            }
            let dead = match slice.dropped_dead.len() {
                0 => String::new(),
                n => format!(", {n} dead rule(s) skipped"),
            };
            let detail = format!(
                "backward slice keeps {}/{} atoms, {}/{} rules{dead} (admission: {})",
                slice.atoms.len(),
                db.num_atoms(),
                slice.rules.len(),
                db.len(),
                admission.label()
            );
            PlanNode {
                route: RouteKind::Slice,
                atoms: db.num_atoms(),
                rules: db.len(),
                class: t.class(&p.fragments()),
                oracle_bound: sum_bounds(&children),
                detail,
                children,
                data: PlanData::Slice { slice, admission },
                blocked: None,
            }
        }
        PlanData::Peel { peel } => {
            let child_q = match q {
                PlanQuery::Literal(a) => match peel.decided[a.index()] {
                    None => PlanQuery::Literal(*a),
                    // A decided query atom degenerates to a constant
                    // formula over the residual.
                    Some(_) => PlanQuery::Formula(Vec::new()),
                },
                PlanQuery::Formula(atoms) => PlanQuery::Formula(
                    atoms
                        .iter()
                        .copied()
                        .filter(|a| peel.decided[a.index()].is_none())
                        .collect(),
                ),
                PlanQuery::Existence => PlanQuery::Existence,
                PlanQuery::Enumeration => unreachable!("peel route never serves enumeration"),
            };
            let residual = Prepared::borrowed(&peel.residual);
            let d = match child_q {
                PlanQuery::Existence => decide_peel_residual(p, &residual, t),
                _ => decide_scoped(&residual, t, &child_q, Scope::Tail),
            };
            let children = vec![build_decided(&residual, t, &child_q, d)];
            let detail = format!(
                "splitting-set peel decides {} atom(s) in {} bottom component(s); recurse on the residual",
                peel.num_decided, peel.components_decided
            );
            PlanNode {
                route: RouteKind::Split,
                atoms: db.num_atoms(),
                rules: db.len(),
                class: t.class(&p.fragments()),
                oracle_bound: sum_bounds(&children),
                detail,
                children,
                data: PlanData::Peel { peel: peel.clone() },
                blocked: None,
            }
        }
        PlanData::Islands { parts } => {
            let children: Vec<PlanNode> = parts
                .iter()
                .map(|island| {
                    let (sub, _) = project_slice(db, island);
                    build(
                        &Prepared::borrowed(&sub),
                        t,
                        &PlanQuery::Existence,
                        Scope::Tail,
                    )
                })
                .collect();
            let detail = format!(
                "{} weakly-connected islands; model existence is their conjunction",
                parts.len()
            );
            PlanNode {
                route: RouteKind::Islands,
                atoms: db.num_atoms(),
                rules: db.len(),
                class: t.class(&p.fragments()),
                oracle_bound: sum_bounds(&children),
                detail,
                children,
                data: PlanData::Islands { parts },
                blocked: None,
            }
        }
    };
    node.blocked = blocked;
    node
}

fn sum_bounds(children: &[PlanNode]) -> u64 {
    children
        .iter()
        .fold(0u64, |acc, c| acc.saturating_add(c.oracle_bound))
}

/// Root oracle bound above which the planner warns about exponential
/// blowup (`DDB013`).
pub const EXPONENTIAL_LINT_THRESHOLD: u64 = 1 << 20;

/// The query-dependent plan lints `DDB012`–`DDB018` for one `ddb explain`
/// run over a set of per-semantics plans (`plans` pairs a display name
/// with each semantics' root node). Sorted by code, matching the
/// deterministic lint order of `ddb check`.
pub fn plan_lints(
    db: &Database,
    query_atoms: &[Atom],
    plans: &[(&str, &PlanNode)],
    adornments: &Adornments,
    oracle_budget: Option<u64>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for p in adornments.unbound() {
        out.push(Diagnostic::unbound_adornment(&p.display()));
    }
    // DDB016 — first semantics whose demand restriction of a bound query
    // was blocked, with the rule that witnesses the inadmissible boundary.
    if let Some((name, i)) = plans
        .iter()
        .find_map(|(name, p)| p.blocked.map(|i| (name, i)))
        .filter(|_| bound_query(db, query_atoms))
    {
        out.push(Diagnostic::magic_inadmissible(
            name,
            i,
            &display_rule(&db.rules()[i], db.symbols()),
        ));
    }
    // DDB017 — a first-order (ground-atom) database queried without any
    // bound argument constants: the magic rewrite would demand everything.
    let first_order = db
        .symbols()
        .atoms()
        .any(|a| !split_predicate(db.symbols().name(a)).1.is_empty());
    if first_order && !query_atoms.is_empty() && adornments.bound_constants.is_empty() {
        out.push(Diagnostic::magic_noop());
    }
    // DDB018 — input atoms already inside the reserved magic namespace.
    for a in db.symbols().atoms() {
        let n = db.symbols().name(a);
        if n.starts_with(MAGIC_PREFIX) {
            out.push(Diagnostic::magic_collision(n));
        }
    }
    if let Some((name, plan)) = plans
        .iter()
        .find(|(_, p)| p.oracle_bound > EXPONENTIAL_LINT_THRESHOLD)
    {
        out.push(Diagnostic::exponential_plan(
            name,
            plan.oracle_bound,
            plan.atoms,
        ));
    }
    if ineffective_slice(db, query_atoms) {
        out.push(Diagnostic::ineffective_slice());
    }
    if let Some(budget) = oracle_budget {
        if let Some((name, plan)) = plans.iter().find(|(_, p)| p.oracle_bound > budget) {
            out.push(Diagnostic::infeasible_plan(name, plan.oracle_bound, budget));
        }
    }
    out.sort_by(|a, b| a.code.cmp(b.code).then(a.rule.cmp(&b.rule)));
    out
}

/// `DDB014` helper: whether the query's backward slice is the whole
/// program (slicing cannot reduce this query). Exposed separately from
/// [`plan_lints`] because it needs the raw query atoms, not the plans.
pub fn ineffective_slice(db: &Database, query_atoms: &[Atom]) -> bool {
    !query_atoms.is_empty() && db.len() > 1 && relevant_slice(db, query_atoms).is_whole(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragments::classify;
    use ddb_logic::parse::parse_program;
    use ddb_logic::Rule;

    /// Ground first-order-style databases (parenthesized atom names) come
    /// from the datalog grounder; tests intern them directly.
    fn ground_db(rules: &[(&[&str], &[&str], &[&str])]) -> Database {
        let mut db = Database::with_fresh_atoms(0);
        for (head, pos, neg) in rules {
            let h: Vec<Atom> = head.iter().map(|n| db.symbols_mut().intern(n)).collect();
            let p: Vec<Atom> = pos.iter().map(|n| db.symbols_mut().intern(n)).collect();
            let ng: Vec<Atom> = neg.iter().map(|n| db.symbols_mut().intern(n)).collect();
            db.add_rule(Rule::new(h, p, ng));
        }
        db
    }

    fn ground_atom(db: &Database, name: &str) -> Atom {
        db.symbols()
            .atoms()
            .find(|&a| db.symbols().name(a) == name)
            .expect("atom exists")
    }

    fn traits(class: &'static str) -> SemanticsTraits {
        SemanticsTraits {
            name: "TEST",
            mm_determined_formulas: true,
            peel_negation: Some(true),
            hcf_shift: false,
            horn_collapse: true,
            reductions: true,
            generic_only: false,
            class_positive: "O(1)",
            class_general: class,
        }
    }

    #[test]
    fn positive_existence_is_a_zero_bound_leaf_in_every_scope() {
        let t = traits("NP-complete");
        // Before every other route: the Horn collapse and the islands
        // would fire on these databases otherwise.
        for src in ["a. b :- a.", "a | b. x | y.", "f. a | b :- f."] {
            let db = parse_program(src).unwrap();
            let plan = build_plan(&db, &t, &PlanQuery::Existence);
            assert_eq!(plan.route, RouteKind::Positive, "{src}");
            assert_eq!(plan.oracle_bound, 0, "{src}");
            assert_eq!(plan.class, "O(1)", "{src}");
            assert!(plan.children.is_empty(), "{src}");
            // Never for enumeration, never under generic routing.
            let d = decide(&db, &t, &PlanQuery::Enumeration);
            assert_ne!(d.route, RouteKind::Positive, "{src}");
            let mut generic = t.clone();
            generic.generic_only = true;
            let d = decide(&db, &generic, &PlanQuery::Existence);
            assert_eq!(d.route, RouteKind::Generic, "{src}");
        }
        // Inside an island decomposition: the positive island is a leaf
        // of its own, the island with an integrity clause is not.
        let db = parse_program("a | b. x | y. :- x, y.").unwrap();
        let plan = build_plan(&db, &t, &PlanQuery::Existence);
        assert_eq!(plan.route, RouteKind::Islands);
        assert_eq!(plan.class, "NP-complete");
        let routes: Vec<RouteKind> = plan.children.iter().map(|c| c.route).collect();
        assert_eq!(routes, [RouteKind::Positive, RouteKind::Generic]);
        assert_eq!(plan.oracle_bound, plan.children[1].oracle_bound);
    }

    #[test]
    fn horn_db_plans_horn_with_zero_bound() {
        let db = parse_program("a. b :- a. :- c.").unwrap();
        let t = traits("Πᵖ₂-complete");
        let plan = build_plan(&db, &t, &PlanQuery::Existence);
        assert_eq!(plan.route, RouteKind::Horn);
        assert_eq!(plan.oracle_bound, 0);
        assert_eq!(plan.class, "P");
        assert!(plan.children.is_empty());
    }

    #[test]
    fn slice_plan_recurses_and_sums_bounds() {
        let db = parse_program("a | b. c :- a. c :- b. x | y. z :- x.").unwrap();
        let t = traits("Πᵖ₂-complete");
        let c = db
            .symbols()
            .atoms()
            .find(|&a| db.symbols().name(a) == "c")
            .unwrap();
        let plan = build_plan(&db, &t, &PlanQuery::Formula(vec![c]));
        assert_eq!(plan.route, RouteKind::Slice);
        assert_eq!(plan.children.len(), 1, "positive-exact: no top child");
        assert_eq!(plan.oracle_bound, plan.children[0].oracle_bound);
        assert!(plan.detail.contains("positive-exact"));
        let PlanData::Slice { slice, admission } = &plan.data else {
            panic!("slice payload expected");
        };
        assert_eq!(*admission, Admission::PositiveExact);
        assert_eq!(slice.rules.len(), 3);
    }

    #[test]
    fn blocked_slice_is_flagged_and_falls_through() {
        let db = parse_program("a | b. c :- a. d :- not c. e.").unwrap();
        let mut t = traits("Πᵖ₂-complete");
        t.peel_negation = Some(true);
        let c = db
            .symbols()
            .atoms()
            .find(|&a| db.symbols().name(a) == "c")
            .unwrap();
        let d = decide(&db, &t, &PlanQuery::Formula(vec![c]));
        // `e.` peels away, so the fallthrough is the split route — with
        // the blocked slice's witness remembered for the counter.
        assert_eq!(d.route, RouteKind::Split);
        assert_eq!(d.blocked, Some(2));
        // DDB016 is about bound queries only; a propositional one is quiet.
        let plan = build_plan(&db, &t, &PlanQuery::Formula(vec![c]));
        let ad = crate::adorn::adorn(&db, &[c]);
        let lints = plan_lints(&db, &[c], &[("TEST", &plan)], &ad, None);
        assert!(lints.iter().all(|d| d.code != "DDB016"), "{lints:?}");
    }

    #[test]
    fn existence_peel_then_islands_on_residual() {
        // The fact layer peels; the residual has two disjunctive islands,
        // each with an integrity clause (a positive island would be the
        // positive existence leaf).
        let db = parse_program("f. a | b :- f. :- a, b. x | y. :- x, y.").unwrap();
        let t = traits("Σᵖ₂-complete");
        let plan = build_plan(&db, &t, &PlanQuery::Existence);
        assert_eq!(plan.route, RouteKind::Split);
        assert_eq!(plan.children.len(), 1);
        let residual_plan = &plan.children[0];
        assert_eq!(residual_plan.route, RouteKind::Islands);
        assert_eq!(residual_plan.children.len(), 2);
        for island in &residual_plan.children {
            assert_eq!(island.route, RouteKind::Generic);
        }
    }

    #[test]
    fn islands_without_peel() {
        let mut t = traits("NP-complete");
        t.peel_negation = None;
        let db = parse_program("a | b. :- a, b. x | y.").unwrap();
        let plan = build_plan(&db, &t, &PlanQuery::Existence);
        assert_eq!(plan.route, RouteKind::Islands);
        assert_eq!(plan.children.len(), 2);
        assert_eq!(
            plan.oracle_bound,
            plan.children.iter().map(|c| c.oracle_bound).sum::<u64>()
        );
    }

    #[test]
    fn enumeration_never_slices_or_peels() {
        let db = parse_program("f. a | b :- f. x | y.").unwrap();
        let t = traits("Σᵖ₂-complete");
        let d = decide(&db, &t, &PlanQuery::Enumeration);
        assert_eq!(d.route, RouteKind::Generic);
    }

    #[test]
    fn generic_only_short_circuits() {
        let db = parse_program("a | b. x | y.").unwrap();
        let mut t = traits("NP-complete");
        t.generic_only = true;
        let d = decide(&db, &t, &PlanQuery::Existence);
        assert_eq!(d.route, RouteKind::Generic);
        assert_eq!(d.blocked, None);
    }

    #[test]
    fn product_admission_adds_top_existence_child() {
        // Not positive (an integrity clause), but the slice for q is
        // split-closed: the plan owes the empty-top correction child.
        let db = parse_program("a | b. q :- a. q :- b. t. :- t.").unwrap();
        let mut t = traits("Πᵖ₂-complete");
        t.peel_negation = Some(false);
        let q = db
            .symbols()
            .atoms()
            .find(|&a| db.symbols().name(a) == "q")
            .unwrap();
        let plan = build_plan(&db, &t, &PlanQuery::Formula(vec![q]));
        assert_eq!(plan.route, RouteKind::Slice);
        let PlanData::Slice { admission, .. } = &plan.data else {
            panic!("slice payload expected");
        };
        assert_eq!(*admission, Admission::Product);
        assert_eq!(plan.children.len(), 2, "sub-query + top existence check");
    }

    #[test]
    fn render_and_json_are_deterministic() {
        let db = parse_program("a | b. c :- a. c :- b. x | y.").unwrap();
        let t = traits("Πᵖ₂-complete");
        let c = db
            .symbols()
            .atoms()
            .find(|&a| db.symbols().name(a) == "c")
            .unwrap();
        let p1 = build_plan(&db, &t, &PlanQuery::Formula(vec![c]));
        let p2 = build_plan(&db, &t, &PlanQuery::Formula(vec![c]));
        assert_eq!(p1.render(), p2.render());
        assert_eq!(p1.to_json().render(), p2.to_json().render());
        let parsed = ddb_obs::json::parse(&p1.to_json().render()).unwrap();
        assert_eq!(parsed.get("route").unwrap().as_str(), Some("slice"));
    }

    #[test]
    fn bound_query_on_a_positive_db_prunes_dead_rules() {
        // A bound literal on a positive disjunctive database: the demand
        // closure drops the unrelated island and the dead rule.
        let db = ground_db(&[
            (&["e(a,b)"], &[], &[]),
            (&["r(b)"], &["r(a)", "e(a,b)"], &[]),
            (&["r(a)"], &[], &[]),
            (&["r(b)"], &["ghost(x)"], &[]),
            (&["s(a)", "s(b)"], &[], &[]),
        ]);
        let t = traits("Πᵖ₂-complete");
        let q = PlanQuery::Literal(ground_atom(&db, "r(b)"));
        let d = decide(&db, &t, &q);
        assert_eq!(d.route, RouteKind::Slice);
        assert_eq!(d.blocked, None);
        let PlanData::Slice { slice, admission } = &d.data else {
            panic!("slice payload expected");
        };
        assert_eq!(*admission, Admission::PositiveExact);
        assert_eq!(slice.rules, vec![0, 1, 2]);
        assert_eq!(slice.dropped_dead, vec![3]);
        // The plan tree mirrors the decision and sums its children.
        let plan = build_plan(&db, &t, &q);
        assert_eq!(plan.route, RouteKind::Slice);
        assert!(
            plan.detail.contains("1 dead rule(s) skipped"),
            "{}",
            plan.detail
        );
        assert_eq!(plan.oracle_bound, sum_bounds(&plan.children));
        assert_eq!(plan.children.len(), 1, "positive-exact: no top child");
    }

    #[test]
    fn propositional_queries_never_prune_dead_rules() {
        // `b :- ghost.` is dead, but `b` binds no constants: the closure
        // is the plain relevance slice, dead rule and its body included.
        let db = parse_program("a | z. b :- a. b :- ghost. ghost :- ghost2. x | y.").unwrap();
        let frags = classify(&db);
        let t = traits("Πᵖ₂-complete");
        let b = db.symbols().lookup("b").unwrap();
        assert!(!prunes_dead(&db, &frags, &[b], true));
        let d = decide(&db, &t, &PlanQuery::Literal(b));
        assert_eq!(d.route, RouteKind::Slice);
        let PlanData::Slice { slice, .. } = &d.data else {
            panic!("slice payload expected");
        };
        assert_eq!(slice.rules, vec![0, 1, 2, 3]);
        assert!(slice.dropped_dead.is_empty());
    }

    #[test]
    fn blocked_bound_restriction_carries_its_witness() {
        // Negation kills positive-exact; the non-restriction rule reading
        // `p(a)` kills the split.
        let db = ground_db(&[
            (&["p(a)", "p(b)"], &[], &[]),
            (&["q(a)"], &["p(a)"], &[]),
            (&["t(z)"], &["p(a)"], &[]),
            (&["u(z)"], &[], &["q(a)"]),
        ]);
        let mut t = traits("Πᵖ₂-complete");
        t.peel_negation = None;
        let q = PlanQuery::Literal(ground_atom(&db, "q(a)"));
        let d = decide(&db, &t, &q);
        assert_eq!(d.route, RouteKind::Generic);
        assert_eq!(d.blocked, Some(2));
        let plan = build_plan(&db, &t, &q);
        assert_eq!(plan.blocked, Some(2));
        // DDB016 names the blocking rule; no collision, no no-op.
        let ad = crate::adorn::adorn(&db, q.atoms());
        let lints = plan_lints(&db, q.atoms(), &[("TEST", &plan)], &ad, None);
        let d16 = lints.iter().find(|d| d.code == "DDB016").expect("DDB016");
        assert_eq!(d16.rule, Some(2));
        assert!(lints.iter().all(|d| d.code != "DDB017"));
        assert!(lints.iter().all(|d| d.code != "DDB018"));
    }

    #[test]
    fn unbound_first_order_query_lints_magic_noop() {
        // `p(a)`/`p(b)` make the database first-order, but the query atom
        // `flag` binds no constants: DDB017.
        let db = ground_db(&[
            (&["p(a)"], &[], &[]),
            (&["p(b)"], &[], &[]),
            (&["flag"], &["p(a)", "p(b)"], &[]),
        ]);
        let t = traits("Πᵖ₂-complete");
        let q = PlanQuery::Literal(ground_atom(&db, "flag"));
        let plan = build_plan(&db, &t, &q);
        let ad = crate::adorn::adorn(&db, q.atoms());
        let lints = plan_lints(&db, q.atoms(), &[("TEST", &plan)], &ad, None);
        assert!(lints.iter().any(|d| d.code == "DDB017"), "{lints:?}");
    }

    #[test]
    fn magic_namespace_collision_lints_ddb018() {
        let db = ground_db(&[
            (&["magic__p(a)"], &[], &[]),
            (&["q(a)"], &["magic__p(a)"], &[]),
        ]);
        let t = traits("Πᵖ₂-complete");
        let q = PlanQuery::Literal(ground_atom(&db, "q(a)"));
        let plan = build_plan(&db, &t, &q);
        let ad = crate::adorn::adorn(&db, q.atoms());
        let lints = plan_lints(&db, q.atoms(), &[("TEST", &plan)], &ad, None);
        let d18 = lints.iter().find(|d| d.code == "DDB018").expect("DDB018");
        assert!(d18.message.contains("magic__p(a)"));
    }

    #[test]
    fn plan_lints_fire_and_sort_by_code() {
        let db = parse_program("a | b. c :- a. c :- b.").unwrap();
        let mut t = traits("Πᵖ₂-complete");
        t.reductions = false;
        let c = db
            .symbols()
            .atoms()
            .find(|&a| db.symbols().name(a) == "c")
            .unwrap();
        let plan = build_plan(&db, &t, &PlanQuery::Formula(vec![c]));
        let ad = crate::adorn::adorn(&db, &[c]);
        let lints = plan_lints(&db, &[c], &[("TEST", &plan)], &ad, Some(1));
        // Bound exceeds the budget of 1 → DDB015; the whole-program slice
        // → DDB014; small db → no DDB013.
        assert!(lints.iter().any(|d| d.code == "DDB014"));
        assert!(lints.iter().any(|d| d.code == "DDB015"));
        let codes: Vec<_> = lints.iter().map(|d| d.code).collect();
        let mut sorted = codes.clone();
        sorted.sort();
        assert_eq!(codes, sorted);
        assert!(ineffective_slice(&db, &[c]), "whole-program slice");
    }
}
