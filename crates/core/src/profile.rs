//! Observability profiles: run a decision problem under every semantics
//! and report observed oracle usage next to the paper's predicted
//! complexity class.
//!
//! The empirical claim being checked is the one behind Eiter & Gottlob's
//! Tables 1–2: the position of a (semantics, problem) pair in the
//! polynomial hierarchy shows up operationally as the *pattern of NP-oracle
//! (SAT) calls* its decision procedure makes. A coNP cell needs one
//! refutation call; a Πᵖ₂ cell runs a counterexample-guided loop whose
//! rounds each cost oracle calls; a Δᵖ₃[O(log n)] cell binary-searches over
//! a Σᵖ₂ oracle. [`profile_all`] measures all thirty cells of that matrix
//! on a concrete database, producing the table the `ddb profile`
//! subcommand prints.

use crate::dispatch::{SemanticsConfig, SemanticsId, Verdict};
pub use ddb_analysis::Fragment;
use ddb_logic::{Database, Formula, Literal};
use ddb_models::Cost;
use ddb_obs::json::Json;
use ddb_obs::{Budget, Interrupted};
use std::time::Instant;

/// The paper's three decision problems.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Problem {
    /// Inference of a literal: `DB ⊢_sem L`.
    Literal,
    /// Inference of an arbitrary formula: `DB ⊢_sem F`.
    Formula,
    /// Model existence: is the semantics non-empty for `DB`?
    Existence,
}

impl Problem {
    /// All three problems, in the paper's column order.
    pub const ALL: [Problem; 3] = [Problem::Literal, Problem::Formula, Problem::Existence];

    /// Short column label.
    pub fn name(self) -> &'static str {
        match self {
            Problem::Literal => "lit",
            Problem::Formula => "form",
            Problem::Existence => "exist",
        }
    }
}

/// The complexity class Eiter & Gottlob's tables assign to a (semantics,
/// problem) cell: Table 1 on positive databases, Table 2 otherwise. The
/// one statement of both tables — `traits_for` (and so the classes
/// `ddb explain` prints), `ddb profile` and the `tables` claim column all
/// read it.
///
/// Model existence is `O(1)` on positive databases under every semantics:
/// a positive database is satisfiable, and each semantics keeps at least
/// one of its minimal models. Table 2's ICWA existence cell is `O(1)` on
/// the stratified databases without integrity clauses the paper reads it
/// for ("stratifiability asserts consistency"); with integrity clauses it
/// is satisfiability, NP-complete as for EGCWA.
pub fn paper_cell(id: SemanticsId, problem: Problem, fragment: Fragment) -> &'static str {
    use Fragment::*;
    use Problem::*;
    use SemanticsId::*;
    const P2: &str = "Πᵖ₂-complete";
    const D3: &str = "Πᵖ₂-hard, in Δᵖ₃[O(log n)]";
    match (fragment, id, problem) {
        (Positive, _, Existence) => "O(1)",
        (General, Gcwa | Egcwa | Ccwa | Ecwa | Ddr | Pws, Existence) => "NP-complete",
        (General, Icwa, Existence) => {
            "O(1) without integrity clauses (stratifiability asserts consistency), NP-complete with them"
        }
        (General, Perf | Dsm | Pdsm, Existence) => "Σᵖ₂-complete",
        (Positive, Ddr | Pws, Literal) => "in P (Chan [5])",
        (General, Ddr | Pws, Literal) => "coNP-complete (Chan [5])",
        (_, Ddr | Pws, Formula) => "coNP-complete",
        (_, Ccwa, _) | (_, Gcwa, Formula) => D3,
        (_, Gcwa | Egcwa | Ecwa | Icwa | Perf | Dsm | Pdsm, _) => P2,
    }
}

/// Observed measurements for one (semantics, problem) cell.
#[derive(Clone, Debug)]
pub struct CellProfile {
    /// The semantics.
    pub semantics: SemanticsId,
    /// The decision problem.
    pub problem: Problem,
    /// The paper's class for the cell on this database's fragment
    /// ([`paper_cell`]).
    pub paper_class: &'static str,
    /// The decision, or `None` if the semantics is undefined for this
    /// database class (see `unsupported`) or the cell's budget tripped
    /// (see `interrupted`).
    pub answer: Option<bool>,
    /// Set when the cell's budget tripped before the procedure decided;
    /// the cell's partial cost is still recorded.
    pub interrupted: Option<Interrupted>,
    /// Oracle accounting for this cell alone.
    pub cost: Cost,
    /// Wall-clock time for this cell alone.
    pub wall_ns: u64,
    /// Reason the cell is inapplicable, when `answer` is `None`.
    pub unsupported: Option<String>,
    /// Which dispatch route served this cell (`"horn"`, `"slice"`,
    /// `"split"`, `"islands"`, `"positive"`, `"hcf"`, or `"generic"`),
    /// read off the `route.*` counters; `None` when the cell was unsupported or
    /// routing never ran. Slice/split/islands outrank the others:
    /// their recursive inner calls bump the plain counters too, but the
    /// query was claimed by the reduction.
    pub route: Option<&'static str>,
}

/// The highest-precedence route in a cell's recording. The cell records
/// under its own [`ddb_obs::record`] scope, so sibling cells running
/// concurrently on other workers never show up in it.
fn route_of(recording: &ddb_obs::Recording) -> Option<&'static str> {
    const ROUTES: [(&str, &str); 7] = [
        ("route.slice", "slice"),
        ("route.split", "split"),
        ("route.islands", "islands"),
        ("route.positive", "positive"),
        ("route.horn", "horn"),
        ("route.hcf", "hcf"),
        ("route.generic", "generic"),
    ];
    ROUTES
        .into_iter()
        .find(|(name, _)| recording.counters.get(name) > 0)
        .map(|(_, label)| label)
}

impl CellProfile {
    /// Serialize for `--trace-json` / bench metrics files.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("semantics", Json::Str(self.semantics.name().to_owned())),
            ("problem", Json::Str(self.problem.name().to_owned())),
            ("paper_class", Json::Str(self.paper_class.to_owned())),
            (
                "answer",
                match self.answer {
                    Some(b) => Json::Bool(b),
                    None => Json::Null,
                },
            ),
            ("sat_calls", Json::UInt(self.cost.sat_calls)),
            ("candidates", Json::UInt(self.cost.candidates)),
            ("decisions", Json::UInt(self.cost.decisions)),
            ("conflicts", Json::UInt(self.cost.conflicts)),
            ("propagations", Json::UInt(self.cost.propagations)),
            ("peak_clauses", Json::UInt(self.cost.peak_clauses)),
            ("wall_ns", Json::UInt(self.wall_ns)),
            (
                "unsupported",
                match &self.unsupported {
                    Some(r) => Json::Str(r.clone()),
                    None => Json::Null,
                },
            ),
            (
                "interrupted",
                match &self.interrupted {
                    Some(i) => Json::Str(i.resource.label().to_owned()),
                    None => Json::Null,
                },
            ),
            (
                "route",
                match self.route {
                    Some(r) => Json::Str(r.to_owned()),
                    None => Json::Null,
                },
            ),
        ])
    }
}

/// Measure one cell: run `problem` under `cfg` on `db`, recording cost and
/// wall time. `f` is the query of the inference problems (a one-literal
/// formula for the literal problem); existence ignores it.
/// A `cell_budget` governs just this cell (its relative timeout restarts
/// from zero here); a tripped budget yields an interrupted cell, never a
/// panic, so the rest of the matrix still completes.
pub fn profile_cell(
    cfg: &SemanticsConfig,
    db: &Database,
    problem: Problem,
    f: &Formula,
    cell_budget: Option<&Budget>,
) -> CellProfile {
    let _span = ddb_obs::hist_span("profile.cell", "profile.cell.ns");
    let _guard = cell_budget.map(|b| b.clone().install());
    let mut cost = Cost::new();
    let ((outcome, wall_ns), recording) = ddb_obs::record(false, || {
        let started = Instant::now();
        let outcome = match problem {
            Problem::Literal | Problem::Formula => cfg.infers_formula(db, f, &mut cost),
            Problem::Existence => cfg.has_model(db, &mut cost),
        };
        (outcome, started.elapsed().as_nanos() as u64)
    });
    let route = route_of(&recording);
    let fragment = Fragment::of(&ddb_analysis::classify(db));
    let (answer, interrupted, unsupported) = match outcome {
        Ok(Verdict::True) => (Some(true), None, None),
        Ok(Verdict::False) => (Some(false), None, None),
        Ok(Verdict::Unknown(i)) => (None, Some(i), None),
        Err(e) => (None, None, Some(e.reason)),
    };
    CellProfile {
        semantics: cfg.id,
        problem,
        paper_class: paper_cell(cfg.id, problem, fragment),
        answer,
        interrupted,
        cost,
        wall_ns,
        unsupported,
        route,
    }
}

/// Profile all ten semantics on all three problems: the full 10×3 observed
/// oracle-call matrix for `db`, in the paper's table order.
pub fn profile_all(db: &Database, lit: Literal, f: &Formula) -> Vec<CellProfile> {
    profile_all_budgeted(db, lit, f, None, 1)
}

/// [`profile_all`] with a per-cell budget (the `ddb profile
/// --cell-timeout-ms` machinery) and a worker-pool width (the `ddb profile
/// --threads` machinery). Each cell gets a fresh installation of
/// `cell_budget`, so one slow Πᵖ₂ cell cannot starve the rest of the
/// matrix — it is marked interrupted and the sweep moves on. The thirty
/// cells are independent jobs: `threads > 1` evaluates them concurrently
/// on the budget-inheriting pool, and the returned vector is in the
/// paper's table order at every width (workers return indexed results).
pub fn profile_all_budgeted(
    db: &Database,
    lit: Literal,
    f: &Formula,
    cell_budget: Option<&Budget>,
    threads: usize,
) -> Vec<CellProfile> {
    let _span = ddb_obs::span("profile.all");
    let lit = &Formula::from(lit);
    let jobs: Vec<_> = SemanticsId::ALL
        .into_iter()
        .flat_map(|id| Problem::ALL.into_iter().map(move |problem| (id, problem)))
        .map(|(id, problem)| {
            let cell_budget = cell_budget.cloned();
            move || {
                let cfg = SemanticsConfig::new(id);
                let q = if problem == Problem::Literal { lit } else { f };
                profile_cell(&cfg, db, problem, q, cell_budget.as_ref())
            }
        })
        .collect();
    ddb_obs::run_indexed(threads, jobs)
}

/// Render profiles as an aligned text table: one row per semantics, one
/// column group (oracle calls + wall time) per problem, with the paper's
/// predicted class of each cell on the profiled database's fragment.
pub fn render_table(cells: &[CellProfile]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<14} {:>24} {:>24} {:>24}  {}\n",
        "semantics",
        "lit (SAT calls, time)",
        "form (SAT calls, time)",
        "exist (SAT calls, time)",
        "paper (lit / form / exist)"
    ));
    for id in SemanticsId::ALL {
        let mut row = format!("{:<14}", id.name());
        let mut classes = Vec::new();
        for problem in Problem::ALL {
            let cell = cells
                .iter()
                .find(|c| c.semantics == id && c.problem == problem);
            classes.push(cell.map_or("-", |c| c.paper_class));
            match cell {
                Some(c) if c.answer.is_some() => {
                    let fast = match c.route {
                        Some("horn") | Some("hcf") | Some("positive") => "*",
                        Some("slice") | Some("split") | Some("islands") => "~",
                        _ => "",
                    };
                    row.push_str(&format!(
                        " {:>24}",
                        format!(
                            "{}{} calls, {}",
                            fast,
                            c.cost.sat_calls,
                            human_ns(c.wall_ns)
                        )
                    ));
                }
                Some(c) if c.interrupted.is_some() => {
                    let label = c.interrupted.as_ref().map_or("", |i| i.resource.label());
                    row.push_str(&format!(" {:>24}", format!("?{label}")));
                }
                Some(_) => row.push_str(&format!(" {:>24}", "n/a")),
                None => row.push_str(&format!(" {:>24}", "-")),
            }
        }
        row.push_str(&format!("  {}", classes.join(" / ")));
        out.push(' ');
        out.push_str(row.trim_end());
        out.push('\n');
    }
    if cells
        .iter()
        .any(|c| matches!(c.route, Some("horn") | Some("hcf") | Some("positive")))
    {
        out.push_str(
            " * served by an analysis fast path (route.horn / route.hcf / route.positive)\n",
        );
    }
    if cells
        .iter()
        .any(|c| matches!(c.route, Some("slice") | Some("split") | Some("islands")))
    {
        out.push_str(
            " ~ answered on a query-relevant slice, split residual or island decomposition (route.slice / route.split / route.islands)\n",
        );
    }
    if cells.iter().any(|c| c.interrupted.is_some()) {
        out.push_str(" ?<resource> cell budget exhausted before the procedure decided\n");
    }
    out
}

fn human_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddb_logic::parse::{parse_formula, parse_program};

    #[test]
    fn profiles_every_cell_on_positive_db() {
        let db = parse_program("a | b. c :- a, b.").unwrap();
        let f = parse_formula("!c", db.symbols()).unwrap();
        let lit = ddb_logic::Atom::new(0).pos();
        let cells = profile_all(&db, lit, &f);
        assert_eq!(cells.len(), 30);
        // Positive database: every semantics applies; every cell answered.
        assert!(cells.iter().all(|c| c.answer.is_some()));
        // Table 1's existence cells are O(1): answered without the oracle.
        for c in cells.iter().filter(|c| c.problem == Problem::Existence) {
            assert_eq!(c.answer, Some(true), "{:?}", c.semantics);
            assert_eq!(c.route, Some("positive"), "{:?}", c.semantics);
            assert_eq!(c.cost.sat_calls, 0, "{:?}", c.semantics);
            assert_eq!(c.paper_class, "O(1)", "{:?}", c.semantics);
        }
        // With an integrity clause, oracle-backed existence checks cost
        // at least one SAT call for the NP-complete cells.
        let guarded = parse_program("a | b. c :- a, b. :- c.").unwrap();
        let cells = profile_all(&guarded, lit, &f);
        let gcwa_exist = cells
            .iter()
            .find(|c| c.semantics == SemanticsId::Gcwa && c.problem == Problem::Existence)
            .unwrap();
        assert_eq!(gcwa_exist.paper_class, "NP-complete");
        assert!(gcwa_exist.cost.sat_calls >= 1);
    }

    #[test]
    fn unsupported_cells_are_reported_not_panicked() {
        let db = parse_program("a :- not b.").unwrap();
        let f = parse_formula("a", db.symbols()).unwrap();
        let cells = profile_all(&db, ddb_logic::Atom::new(0).pos(), &f);
        let ddr = cells
            .iter()
            .find(|c| c.semantics == SemanticsId::Ddr && c.problem == Problem::Literal)
            .unwrap();
        assert!(ddr.answer.is_none());
        assert!(ddr.unsupported.is_some());
    }

    #[test]
    fn complexity_table_is_total_and_json_renders() {
        for id in SemanticsId::ALL {
            for p in Problem::ALL {
                for fragment in [Fragment::Positive, Fragment::General] {
                    assert!(!paper_cell(id, p, fragment).is_empty());
                }
            }
            assert_eq!(
                paper_cell(id, Problem::Existence, Fragment::Positive),
                "O(1)"
            );
        }
        let db = parse_program("a | b.").unwrap();
        let f = parse_formula("a", db.symbols()).unwrap();
        let cells = profile_all(&db, ddb_logic::Atom::new(0).pos(), &f);
        let doc = Json::Arr(cells.iter().map(CellProfile::to_json).collect());
        let parsed = ddb_obs::json::parse(&doc.render()).unwrap();
        assert_eq!(parsed.as_arr().unwrap().len(), 30);
    }

    #[test]
    fn horn_cells_report_fast_route_with_zero_oracle_calls() {
        let db = parse_program("a. b :- a. :- c.").unwrap();
        let f = parse_formula("b", db.symbols()).unwrap();
        let cells = profile_all(&db, ddb_logic::Atom::new(0).pos(), &f);
        // Horn database: every applicable cell rides the Horn fast path
        // and pays no oracle calls.
        for c in cells.iter().filter(|c| c.answer.is_some()) {
            assert_eq!(c.route, Some("horn"), "{:?}/{:?}", c.semantics, c.problem);
            assert_eq!(c.cost.sat_calls, 0, "{:?}/{:?}", c.semantics, c.problem);
        }
        assert!(render_table(&cells).contains("fast path"));
        let cell = cells.first().unwrap().to_json();
        assert_eq!(cell.get("route").unwrap().as_str(), Some("horn"));
    }

    #[test]
    fn budgeted_profile_marks_interrupted_cells_and_completes_matrix() {
        // A zero-oracle budget per cell: the oracle-backed cells come back
        // interrupted, the matrix still has all 30 cells, and nothing
        // panics. Table and JSON both surface the marker.
        let db = parse_program("a | b. c :- a. c :- b.").unwrap();
        let f = parse_formula("c", db.symbols()).unwrap();
        let budget = Budget::unlimited().with_max_oracle_calls(0);
        let cells = profile_all_budgeted(&db, ddb_logic::Atom::new(0).pos(), &f, Some(&budget), 1);
        assert_eq!(cells.len(), 30);
        assert!(cells.iter().any(|c| c.interrupted.is_some()));
        for c in cells.iter().filter(|c| c.interrupted.is_some()) {
            assert!(c.answer.is_none());
            assert_eq!(
                c.to_json().get("interrupted").unwrap().as_str(),
                Some("oracle_calls")
            );
        }
        assert!(render_table(&cells).contains("?oracle_calls"));
        assert!(render_table(&cells).contains("cell budget exhausted"));
    }

    #[test]
    fn parallel_profile_matches_sequential_cell_for_cell() {
        let db = parse_program("a | b. c :- a. c :- b. x | y. :- x, y.").unwrap();
        let f = parse_formula("c & !x | c & !y", db.symbols()).unwrap();
        let lit = ddb_logic::Atom::new(0).pos();
        let reference = profile_all_budgeted(&db, lit, &f, None, 1);
        for threads in [2, 4, 8] {
            let got = profile_all_budgeted(&db, lit, &f, None, threads);
            assert_eq!(got.len(), reference.len());
            for (g, r) in got.iter().zip(&reference) {
                assert_eq!(g.semantics, r.semantics, "order must be table order");
                assert_eq!(g.problem, r.problem, "order must be table order");
                assert_eq!(g.answer, r.answer, "{:?}/{:?}", r.semantics, r.problem);
                assert_eq!(g.route, r.route, "{:?}/{:?}", r.semantics, r.problem);
                assert_eq!(
                    g.cost.sat_calls, r.cost.sat_calls,
                    "{:?}/{:?}",
                    r.semantics, r.problem
                );
            }
        }
    }

    #[test]
    fn render_table_lists_all_semantics() {
        let db = parse_program("a | b.").unwrap();
        let f = parse_formula("a", db.symbols()).unwrap();
        let cells = profile_all(&db, ddb_logic::Atom::new(0).pos(), &f);
        let table = render_table(&cells);
        for id in SemanticsId::ALL {
            assert!(table.contains(id.name()), "missing {}", id.name());
        }
    }
}
