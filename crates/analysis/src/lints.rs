//! Structured diagnostics and the lint pass.
//!
//! Every problem the analyzer can point at is a [`Diagnostic`] with a
//! stable code, a severity, and — where one exists — the index and rendered
//! text of the offending rule. The catalog (see `docs/ANALYSIS.md`):
//!
//! | code   | severity | meaning                                         |
//! |--------|----------|-------------------------------------------------|
//! | DDB001 | error    | unsafe rule (variable outside the positive body) |
//! | DDB002 | warning  | duplicate rule                                  |
//! | DDB003 | warning  | tautological or never-firing rule               |
//! | DDB004 | warning  | rule classically subsumed by another rule       |
//! | DDB005 | info     | atom occurs in bodies but in no head            |
//! | DDB006 | error    | integrity clause violated on its face           |
//! | DDB007 | warning  | unstratifiable negation (PERF/ICWA unsupported) |
//! | DDB008 | error    | partition/varying set names an unknown atom     |
//! | DDB009 | warning  | dead rule (a positive body atom is underivable) |
//! | DDB010 | warning  | rule subsumed after closed-world simplification |
//! | DDB011 | warning  | negative loop spans several positive layers     |
//! | DDB012 | info     | unbound argument under goal-directed evaluation |
//! | DDB013 | warning  | planned route has an exponential oracle bound   |
//! | DDB014 | info     | ineffective slice: query slice = whole program  |
//! | DDB015 | warning  | plan infeasible under the oracle-call budget    |
//! | DDB016 | info     | demand restriction inadmissible for this semantics |
//!
//! `DDB001`–`DDB011` come from the database-level [`lint`] pass;
//! `DDB012`–`DDB016` are query-dependent and emitted by the planner
//! ([`crate::plan::plan_lints`]) for `ddb explain`.
//!
//! Diagnostics are emitted in a fully deterministic order: sorted by code,
//! then by source position (rule index), so CI diffs and plan snapshots
//! are stable across runs and thread counts.

use ddb_logic::depgraph::{DepGraph, EdgeKind};
use ddb_logic::parse::display_rule;
use ddb_logic::{Atom, Database, Rule};
use ddb_obs::json::Json;
use std::collections::HashMap;
use std::fmt;

/// How serious a diagnostic is.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub enum Severity {
    /// Advisory: something worth knowing, never a failure.
    Info,
    /// Suspicious but well-defined input; fails under `--strict`.
    Warning,
    /// The input is malformed or self-contradictory; non-zero exit.
    Error,
}

impl Severity {
    /// Lower-case label for rendering (`error`, `warning`, `info`).
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One finding of the lint pass: a coded, severity-tagged message anchored
/// (when possible) to a rule of the database.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable machine-readable code (`DDB001` …).
    pub code: &'static str,
    /// Severity.
    pub severity: Severity,
    /// Human-readable explanation.
    pub message: String,
    /// Index of the offending rule in `db.rules()`, when the diagnostic
    /// points at one.
    pub rule: Option<usize>,
    /// Rendered text of the offending rule, for display without the
    /// database at hand.
    pub snippet: Option<String>,
}

impl Diagnostic {
    fn on_rule(
        code: &'static str,
        severity: Severity,
        message: String,
        db: &Database,
        index: usize,
    ) -> Self {
        Diagnostic {
            code,
            severity,
            message,
            rule: Some(index),
            snippet: Some(display_rule(&db.rules()[index], db.symbols())),
        }
    }

    /// `DDB001` — an unsafe Datalog rule: `variable` does not occur in the
    /// positive body of rule `rule_index` (rendered as `rule_text`). Used
    /// by the grounder's safety check.
    pub fn unsafe_rule(rule_index: usize, variable: &str, rule_text: &str) -> Self {
        Diagnostic {
            code: "DDB001",
            severity: Severity::Error,
            message: format!(
                "unsafe variable `{variable}`: every variable must occur in the rule's positive body"
            ),
            rule: Some(rule_index),
            snippet: Some(rule_text.to_owned()),
        }
    }

    /// `DDB008` — a CCWA/ECWA partition or ICWA varying set mentions an
    /// atom that is not in the database's vocabulary.
    pub fn unknown_atom(role: &str, name: &str) -> Self {
        Diagnostic {
            code: "DDB008",
            severity: Severity::Error,
            message: format!("{role} mentions unknown atom `{name}`"),
            rule: None,
            snippet: None,
        }
    }

    /// `DDB012` — goal-directed evaluation reaches a predicate with an
    /// argument position not bound by the query's constants (shown as an
    /// adornment like `part^f`).
    pub fn unbound_adornment(display: &str) -> Self {
        Diagnostic {
            code: "DDB012",
            severity: Severity::Info,
            message: format!(
                "goal-directed evaluation leaves `{display}` partially unbound: some argument positions are not fixed by the query's constants"
            ),
            rule: None,
            snippet: None,
        }
    }

    /// `DDB013` — the planned route's oracle-call bound is exponential in
    /// the database size.
    pub fn exponential_plan(semantics: &str, bound: u64, atoms: usize) -> Self {
        Diagnostic {
            code: "DDB013",
            severity: Severity::Warning,
            message: format!(
                "predicted exponential blowup: the {semantics} plan admits up to {} oracle calls over {atoms} atoms",
                crate::cost::display_bound(bound)
            ),
            rule: None,
            snippet: None,
        }
    }

    /// `DDB014` — the query's backward slice is the whole program, so
    /// slicing cannot reduce this query.
    pub fn ineffective_slice() -> Self {
        Diagnostic {
            code: "DDB014",
            severity: Severity::Info,
            message:
                "ineffective slice: the query's backward slice is the whole program, so slicing cannot reduce it"
                    .into(),
            rule: None,
            snippet: None,
        }
    }

    /// `DDB015` — the plan's oracle-call bound exceeds the declared
    /// `--max-oracle-calls` budget.
    pub fn infeasible_plan(semantics: &str, bound: u64, budget: u64) -> Self {
        Diagnostic {
            code: "DDB015",
            severity: Severity::Warning,
            message: format!(
                "plan infeasible under the oracle budget: the {semantics} plan admits up to {} oracle calls but --max-oracle-calls is {budget}",
                crate::cost::display_bound(bound)
            ),
            rule: None,
            snippet: None,
        }
    }

    /// `DDB016` — a bound query's demand restriction (its slice,
    /// [`crate::slice::demand_closure`]) is proper, but the admission
    /// analysis rejects it for this semantics; the blocking rule witnesses
    /// why the slice boundary is not exact.
    pub fn demand_inadmissible(semantics: &str, rule_index: usize, rule_text: &str) -> Self {
        Diagnostic {
            code: "DDB016",
            severity: Severity::Info,
            message: format!(
                "demand restriction inadmissible under {semantics}: the query's slice is not answer-preserving for this semantics, so the query falls back to a wider route"
            ),
            rule: Some(rule_index),
            snippet: Some(rule_text.to_owned()),
        }
    }

    /// JSON rendering.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("code", Json::Str(self.code.to_owned())),
            ("severity", Json::Str(self.severity.label().to_owned())),
            ("message", Json::Str(self.message.clone())),
            (
                "rule",
                match self.rule {
                    Some(i) => Json::UInt(i as u64),
                    None => Json::Null,
                },
            ),
            (
                "snippet",
                match &self.snippet {
                    Some(s) => Json::Str(s.clone()),
                    None => Json::Null,
                },
            ),
        ])
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity.label(), self.code)?;
        if let Some(i) = self.rule {
            write!(f, " rule {i}")?;
        }
        write!(f, ": {}", self.message)?;
        if let Some(s) = &self.snippet {
            write!(f, "  `{s}`")?;
        }
        Ok(())
    }
}

/// Whether two sorted atom slices intersect.
fn intersects(a: &[Atom], b: &[Atom]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// Whether sorted `a` is a subset of sorted `b`.
fn subset(a: &[Atom], b: &[Atom]) -> bool {
    let mut j = 0;
    for &x in a {
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if j >= b.len() || b[j] != x {
            return false;
        }
        j += 1;
    }
    true
}

/// Rule `s` subsumes rule `r` iff the clause of `s` is a sub-clause of the
/// clause of `r`: `head(s) ⊆ head(r)`, `body⁺(s) ⊆ body⁺(r)`,
/// `body⁻(s) ⊆ body⁻(r)`.
fn subsumes(s: &Rule, r: &Rule) -> bool {
    subset(s.head(), r.head())
        && subset(s.body_pos(), r.body_pos())
        && subset(s.body_neg(), r.body_neg())
}

/// Runs the full lint pass over `db` and its dependency graph.
pub fn lint(db: &Database, graph: &DepGraph) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let rules = db.rules();

    // DDB002 — duplicates. Rules compare structurally (sorted, deduped), so
    // exact equality is the right notion.
    let mut first_seen: HashMap<&Rule, usize> = HashMap::new();
    let mut duplicate = vec![false; rules.len()];
    for (i, r) in rules.iter().enumerate() {
        match first_seen.get(r) {
            Some(&j) => {
                duplicate[i] = true;
                out.push(Diagnostic::on_rule(
                    "DDB002",
                    Severity::Warning,
                    format!("duplicate of rule {j}"),
                    db,
                    i,
                ));
            }
            None => {
                first_seen.insert(r, i);
            }
        }
    }

    // DDB003 — tautological (`a` in head and positive body: the clause
    // contains `a ∨ ¬a`) or never-firing (`a` both positive and negated in
    // the body) rules.
    for (i, r) in rules.iter().enumerate() {
        if intersects(r.head(), r.body_pos()) {
            out.push(Diagnostic::on_rule(
                "DDB003",
                Severity::Warning,
                "tautological rule: a head atom also occurs in the positive body (the clause contains a ∨ ¬a)".into(),
                db,
                i,
            ));
        } else if intersects(r.body_pos(), r.body_neg()) {
            out.push(Diagnostic::on_rule(
                "DDB003",
                Severity::Warning,
                "rule can never fire: an atom occurs both positively and under negation in the body".into(),
                db,
                i,
            ));
        }
    }

    // DDB004 — classical subsumption (reported once per subsumed rule;
    // duplicates already have their own code).
    let mut subsumed = vec![false; rules.len()];
    for (i, r) in rules.iter().enumerate() {
        if duplicate[i] {
            continue;
        }
        if let Some(j) = rules.iter().position(|s| s != r && subsumes(s, r)) {
            subsumed[i] = true;
            out.push(Diagnostic::on_rule(
                "DDB004",
                Severity::Warning,
                format!(
                    "classically subsumed by rule {j} (`{}`); note subsumption is not equivalence-preserving under stable-model semantics",
                    display_rule(&rules[j], db.symbols())
                ),
                db,
                i,
            ));
        }
    }

    // DDB005 — atoms that occur somewhere but never in a head: no rule can
    // ever derive them, so they are false in every minimal model. Info
    // only: `a :- not b.`-style "input" atoms are a common idiom.
    let n = db.num_atoms();
    let mut in_head = vec![false; n];
    let mut occurs = vec![false; n];
    for r in rules {
        for &h in r.head() {
            in_head[h.index()] = true;
            occurs[h.index()] = true;
        }
        for &b in r.body_pos().iter().chain(r.body_neg()) {
            occurs[b.index()] = true;
        }
    }
    for a in db.symbols().atoms() {
        if occurs[a.index()] && !in_head[a.index()] {
            out.push(Diagnostic {
                code: "DDB005",
                severity: Severity::Info,
                message: format!(
                    "atom `{}` occurs in rule bodies but in no head: it is never derivable and false under every CWA semantics",
                    db.symbols().name(a)
                ),
                rule: None,
                snippet: None,
            });
        }
    }

    // DDB006 — integrity clauses violated on syntactic grounds alone: an
    // empty body (always violated), or a purely positive body consisting
    // entirely of unconditional atomic facts.
    let mut fact_atoms = vec![false; n];
    for r in rules {
        if r.is_fact() && r.head().len() == 1 {
            fact_atoms[r.head()[0].index()] = true;
        }
    }
    for (i, r) in rules.iter().enumerate() {
        if !r.is_integrity() {
            continue;
        }
        if r.body_pos().is_empty() && r.body_neg().is_empty() {
            out.push(Diagnostic::on_rule(
                "DDB006",
                Severity::Error,
                "integrity clause with empty body: the database is unsatisfiable".into(),
                db,
                i,
            ));
        } else if r.body_neg().is_empty()
            && !r.body_pos().is_empty()
            && r.body_pos().iter().all(|&a| fact_atoms[a.index()])
        {
            out.push(Diagnostic::on_rule(
                "DDB006",
                Severity::Error,
                "integrity clause violated by the facts alone: every body atom is an unconditional fact".into(),
                db,
                i,
            ));
        }
    }

    // DDB009 — dead rules: a positive body atom outside the supportable
    // fixpoint can never be derived under any semantics, so the rule can
    // never fire (the query-slicing analysis would drop it from every
    // slice). Distinct from DDB005 (which points at the atom, not the
    // rules it kills) and from DDB003 (syntactic self-blocking).
    let supportable = crate::slice::supportable_atoms(db);
    for (i, r) in rules.iter().enumerate() {
        if r.is_integrity() {
            continue;
        }
        if let Some(&dead) = r.body_pos().iter().find(|&&b| !supportable.contains(b)) {
            out.push(Diagnostic::on_rule(
                "DDB009",
                Severity::Warning,
                format!(
                    "dead rule: positive body atom `{}` can never be derived, so the rule never fires",
                    db.symbols().name(dead)
                ),
                db,
                i,
            ));
        }
    }

    // DDB010 — subsumption that only appears after the closed-world
    // simplification: dropping never-derivable negative body atoms
    // (`not u` with `u` unsupportable holds in every characteristic
    // model). Only reported when the simplification did something — plain
    // classical subsumption is DDB004.
    let simplified: Vec<Rule> = rules
        .iter()
        .map(|r| {
            Rule::new(
                r.head().to_vec(),
                r.body_pos().to_vec(),
                r.body_neg()
                    .iter()
                    .copied()
                    .filter(|&b| supportable.contains(b))
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    for (i, r) in rules.iter().enumerate() {
        if r.is_integrity() || duplicate[i] || subsumed[i] {
            continue;
        }
        if let Some(j) = (0..rules.len()).find(|&j| {
            j != i
                && !rules[j].is_integrity()
                && subsumes(&simplified[j], &simplified[i])
                && !subsumes(&rules[j], r)
                // Tie-break equal simplifications: keep the rule that is
                // classically stronger and flag the other one.
                && !subsumes(r, &rules[j])
        }) {
            out.push(Diagnostic::on_rule(
                "DDB010",
                Severity::Warning,
                format!(
                    "subsumed under the closed-world reading: dropping never-derivable negated body atoms leaves this rule subsumed by rule {j} (`{}`)",
                    display_rule(&rules[j], db.symbols())
                ),
                db,
                i,
            ));
        }
    }

    // DDB011 — an unstratifiable negative loop that spans several
    // *positive* layers: not only is the database unstratifiable
    // (DDB007), but no splitting set can separate the loop's strata, so
    // the bottom-up splitting evaluation cannot decompose it.
    let all = graph.sccs();
    let positive = graph.positive_sccs();
    let mut flagged = vec![false; all.num_components];
    for v in 0..n {
        let a = Atom::new(v as u32);
        for (w, kind) in graph.edges_from(a) {
            let c = all.comp[v];
            if kind != EdgeKind::Negative || all.comp[w.index()] != c || flagged[c] {
                continue;
            }
            let mut pos_comps: Vec<usize> = (0..n)
                .filter(|&u| all.comp[u] == c)
                .map(|u| positive.comp[u])
                .collect();
            pos_comps.sort_unstable();
            pos_comps.dedup();
            if pos_comps.len() < 2 {
                continue;
            }
            flagged[c] = true;
            let mut names: Vec<&str> = (0..n)
                .filter(|&u| all.comp[u] == c)
                .map(|u| db.symbols().name(Atom::new(u as u32)))
                .collect();
            const SHOW: usize = 8;
            let extra = names.len().saturating_sub(SHOW);
            names.truncate(SHOW);
            let mut shown = names.join(", ");
            if extra > 0 {
                shown.push_str(&format!(", … ({extra} more)"));
            }
            out.push(Diagnostic {
                code: "DDB011",
                severity: Severity::Warning,
                message: format!(
                    "unsplittable negative loop: {{{shown}}} recurses through negation across {} positive layers, so no splitting set can decompose it",
                    pos_comps.len()
                ),
                rule: None,
                snippet: None,
            });
        }
    }

    // DDB007 — unstratifiable negation, with the witnessing component.
    if let Some(cycle) = graph.unstratifiable_witness() {
        let mut names: Vec<&str> = cycle.iter().map(|&a| db.symbols().name(a)).collect();
        const SHOW: usize = 8;
        let extra = names.len().saturating_sub(SHOW);
        names.truncate(SHOW);
        let mut shown = names.join(", ");
        if extra > 0 {
            shown.push_str(&format!(", … ({extra} more)"));
        }
        out.push(Diagnostic {
            code: "DDB007",
            severity: Severity::Warning,
            message: format!(
                "negation recurses through {{{shown}}}: the database is unstratifiable, so PERF and ICWA will report Unsupported"
            ),
            rule: None,
            snippet: None,
        });
    }

    // Fully deterministic emission order: by code, then by source
    // position (rule index; unanchored diagnostics sort before anchored
    // ones of the same code). Codes are assigned in ascending severity
    // waves, so errors still read out first within their numeric block,
    // and — unlike a severity-first sort — the order is a pure function
    // of the (code, rule) pairs, stable for CI diffs and snapshots.
    out.sort_by(|a, b| a.code.cmp(b.code).then(a.rule.cmp(&b.rule)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddb_logic::parse::parse_program;

    fn lints(src: &str) -> Vec<Diagnostic> {
        let db = parse_program(src).unwrap();
        lint(&db, &DepGraph::of_database(&db))
    }

    fn codes(src: &str) -> Vec<&'static str> {
        lints(src).into_iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_program_has_no_lints() {
        assert!(codes("a | b. grounded :- a. grounded :- b.").is_empty());
    }

    #[test]
    fn duplicate_rule_flagged_once() {
        let ds = lints("a :- b. b. a :- b.");
        let dups: Vec<_> = ds.iter().filter(|d| d.code == "DDB002").collect();
        assert_eq!(dups.len(), 1);
        assert_eq!(dups[0].rule, Some(2));
        assert_eq!(dups[0].severity, Severity::Warning);
    }

    #[test]
    fn tautology_and_never_firing() {
        // `a` is also underivable here, so the dead-rule lint fires too.
        assert_eq!(codes("a | b :- a."), vec!["DDB003", "DDB009"]);
        // c :- b, not b: never fires. b is underivable too (info).
        let ds = lints("c :- b, not b.");
        assert!(ds.iter().any(|d| d.code == "DDB003"));
        assert!(ds.iter().any(|d| d.code == "DDB005"));
        assert!(ds.iter().any(|d| d.code == "DDB009"));
    }

    #[test]
    fn subsumption() {
        // a. subsumes a | b :- c.
        let ds = lints("a. a | b :- c.");
        let sub: Vec<_> = ds.iter().filter(|d| d.code == "DDB004").collect();
        assert_eq!(sub.len(), 1);
        assert_eq!(sub[0].rule, Some(1));
        // No subsumption between incomparable rules.
        assert!(codes("a :- b. b :- a.").iter().all(|&c| c != "DDB004"));
    }

    #[test]
    fn underivable_atom_is_info() {
        let ds = lints("a :- not input.");
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, "DDB005");
        assert_eq!(ds[0].severity, Severity::Info);
        assert!(ds[0].message.contains("input"));
    }

    #[test]
    fn facially_violated_constraints() {
        let ds = lints("a. b. :- a, b.");
        assert!(ds
            .iter()
            .any(|d| d.code == "DDB006" && d.severity == Severity::Error));
        // Conditional fact does not trigger it.
        assert!(lints("a. b :- a. :- a, b.")
            .iter()
            .all(|d| d.code != "DDB006"));
    }

    #[test]
    fn unstratifiable_warning_names_cycle() {
        let ds = lints("p :- not q. q :- not p.");
        let w = ds.iter().find(|d| d.code == "DDB007").unwrap();
        assert!(w.message.contains('p') && w.message.contains('q'));
        assert!(w.message.contains("PERF"));
    }

    #[test]
    fn dead_rule_flagged_with_the_underivable_atom() {
        // e is underivable, so `d :- e.` is dead; the supportable
        // fixpoint trusts disjunctive facts and negation optimistically.
        let ds = lints("a | b. c :- a, not z. d :- e.");
        let dead: Vec<_> = ds.iter().filter(|d| d.code == "DDB009").collect();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].rule, Some(2));
        assert!(dead[0].message.contains('e'));
        assert_eq!(dead[0].severity, Severity::Warning);
        // A derivable chain stays clean.
        assert!(codes("a. b :- a. c :- b.").is_empty());
    }

    #[test]
    fn closed_world_subsumption() {
        // u is underivable, so rule 0 simplifies to `a :- b.`, which
        // subsumes rule 1. Classical subsumption (DDB004) does not apply
        // because {u} ⊄ {c}.
        let ds = lints("a :- b, not u. a :- b, not c. b. c :- b.");
        assert!(ds.iter().all(|d| d.code != "DDB004"));
        let sub: Vec<_> = ds.iter().filter(|d| d.code == "DDB010").collect();
        assert_eq!(sub.len(), 1);
        assert_eq!(sub[0].rule, Some(1));
        assert!(sub[0].message.contains("rule 0"));
        // With u derivable the rules are genuinely incomparable: no lint.
        let ds = lints("a :- b, not u. a :- b, not c. b. c :- b. u :- b.");
        assert!(ds.iter().all(|d| d.code != "DDB010"));
        // Plain classical subsumption stays DDB004, not DDB010.
        let ds = lints("a :- b. a :- b, not u. b.");
        assert!(ds.iter().any(|d| d.code == "DDB004" && d.rule == Some(1)));
        assert!(ds.iter().all(|d| d.code != "DDB010"));
    }

    #[test]
    fn unsplittable_negative_loop_spans_layers() {
        // p/q negate each other across two positive layers.
        let ds = lints("p :- not q. q :- not p.");
        let w = ds.iter().find(|d| d.code == "DDB011").unwrap();
        assert!(w.message.contains('p') && w.message.contains('q'));
        assert!(w.message.contains("2 positive layers"));
        // A self-loop `a :- not a.` is unstratifiable (DDB007) but spans a
        // single positive layer: DDB011 stays quiet.
        let ds = lints("a :- not a.");
        assert!(ds.iter().any(|d| d.code == "DDB007"));
        assert!(ds.iter().all(|d| d.code != "DDB011"));
    }

    #[test]
    fn emission_order_is_code_then_position() {
        // Deterministic order contract: (code, rule) ascending, severity
        // playing no part. `a. a. :- a.` yields DDB002 (rule 1) before
        // DDB006 (rule 2) even though DDB006 is the error.
        let ds = lints("a. a. :- a.");
        assert!(ds.len() >= 2);
        assert_eq!((ds[0].code, ds[0].rule), ("DDB002", Some(1)));
        assert_eq!((ds[1].code, ds[1].rule), ("DDB006", Some(2)));
        // And the order is a sorted sequence of (code, rule) keys on a
        // program that trips many codes at once.
        let ds = lints("a | b :- a. a. a. :- a. d :- e.");
        let keys: Vec<_> = ds.iter().map(|d| (d.code, d.rule)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "emission order must be (code, rule) sorted");
    }

    #[test]
    fn planner_lint_constructors() {
        let d = Diagnostic::unbound_adornment("part^f");
        assert_eq!((d.code, d.severity), ("DDB012", Severity::Info));
        assert!(d.message.contains("part^f"));
        let d = Diagnostic::exponential_plan("DSM", u64::MAX, 40);
        assert_eq!((d.code, d.severity), ("DDB013", Severity::Warning));
        assert!(d.message.contains(">=2^63"));
        let d = Diagnostic::ineffective_slice();
        assert_eq!((d.code, d.severity), ("DDB014", Severity::Info));
        let d = Diagnostic::infeasible_plan("GCWA", 4096, 100);
        assert_eq!((d.code, d.severity), ("DDB015", Severity::Warning));
        assert!(d.message.contains("4096") && d.message.contains("100"));
        let d = Diagnostic::demand_inadmissible("GCWA", 2, "d :- c.");
        assert_eq!((d.code, d.severity), ("DDB016", Severity::Info));
        assert_eq!(d.rule, Some(2));
        assert_eq!(d.snippet.as_deref(), Some("d :- c."));
        assert!(d.message.contains("GCWA"));
    }

    #[test]
    fn empty_body_constraint_is_error() {
        let mut db = ddb_logic::Database::with_fresh_atoms(1);
        db.add_rule(ddb_logic::Rule::integrity([], []));
        let ds = lint(&db, &DepGraph::of_database(&db));
        assert!(ds
            .iter()
            .any(|d| d.code == "DDB006" && d.message.contains("empty body")));
    }

    #[test]
    fn constructors() {
        let d = Diagnostic::unsafe_rule(3, "X", "p(X).");
        assert_eq!(d.code, "DDB001");
        assert_eq!(d.rule, Some(3));
        assert!(d.to_json().get("severity").unwrap().as_str() == Some("error"));
        let u = Diagnostic::unknown_atom("partition P", "zz");
        assert_eq!(u.code, "DDB008");
        assert!(u.message.contains("zz"));
    }
}
