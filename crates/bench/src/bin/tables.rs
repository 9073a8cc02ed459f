//! Regenerates Tables 1 and 2 of Eiter & Gottlob (PODS 1993) as
//! paper-claim vs. measured-shape reports.
//!
//! For every (semantics, problem) cell the binary runs the implemented
//! decision procedure over a scaling instance family, reporting median
//! wall-clock time, NP-oracle calls and CEGAR candidate counts, plus the
//! lower-bound evidence (verified reductions, QBF hard-family scaling),
//! then times the ablations and engineering choices (oracle, N-set,
//! fixpoint, minimization and candidate strategies; the slice, magic and
//! Horn routes against the generic procedures; the planner's overhead).
//! It is the one place the workspace times anything; the
//! committed counts are reproduced by `tests/committed_counts.rs`.
//!
//! ```text
//! cargo run -p ddb-bench --bin tables --release
//! ```

use ddb_analysis::PlanQuery;
use ddb_bench::families;
use ddb_bench::harness::{measure_median, table_header, CellReport, Measurement};
use ddb_core::profile::{paper_cell, Fragment, Problem};
use ddb_core::reduct::gl_reduct;
use ddb_core::{RoutingMode, SemanticsConfig, SemanticsId};
use ddb_ground::{ground_magic, ground_reduced};
use ddb_logic::cnf::{database_to_cnf, Cnf};
use ddb_logic::{Atom, Database, Formula, Interpretation, Literal};
use ddb_models::{circumscribe, classical, fixpoint, minimal, Cost, Partition};
use ddb_reductions::qbf::random_forall_exists;
use ddb_reductions::{dsm_hardness, gcwa_hardness, sat_reductions, uminsat};
use ddb_sat::{dpll, Solver};
use ddb_workloads::{queries, structured};
use std::time::Duration;

const SEEDS: u64 = 5;

/// Which problem a sweep measures.
#[derive(Clone, Copy)]
enum Task {
    Lit,
    /// A negative literal: the case Chan's P results (and the zero-call
    /// fast paths of DDR and PWS) cover.
    NegLit,
    Form,
    Exist,
}

impl Task {
    fn problem(self) -> Problem {
        match self {
            Task::Lit | Task::NegLit => Problem::Literal,
            Task::Form => Problem::Formula,
            Task::Exist => Problem::Existence,
        }
    }
}

fn run_task(cfg: &SemanticsConfig, db: &Database, task: Task, seed: u64, cost: &mut Cost) -> bool {
    match task {
        Task::Lit | Task::NegLit => {
            let mut lit = queries::random_literal(db.num_atoms(), seed);
            if let Task::NegLit = task {
                lit = lit.atom().neg();
            }
            cfg.infers_formula(db, &Formula::from(lit), cost)
                .ok()
                .and_then(|v| v.as_bool())
                .unwrap_or(false)
        }
        Task::Form => {
            let f = queries::random_formula(db.num_atoms(), 6, seed);
            cfg.infers_formula(db, &f, cost)
                .ok()
                .and_then(|v| v.as_bool())
                .unwrap_or(false)
        }
        Task::Exist => cfg
            .has_model(db, cost)
            .ok()
            .and_then(|v| v.as_bool())
            .unwrap_or(false),
    }
}

/// The configuration a table cell runs under. CCWA minimizes the first
/// half of the atoms and lets the rest vary: at the default `P = V` its
/// literals are GCWA's single Πᵖ₂ query, and its cells would stop
/// measuring the `N`-set procedure behind the Δᵖ₃[O(log n)] bound.
fn config(id: SemanticsId, db: &Database) -> SemanticsConfig {
    let cfg = SemanticsConfig::new(id);
    match id {
        SemanticsId::Ccwa => {
            let n = db.num_atoms();
            let half = (0..n / 2).map(|i| Atom::new(i as u32));
            cfg.with_partition(Partition::from_p_q(n, half, []))
        }
        _ => cfg,
    }
}

/// What the evidence column says about [`config`]'s CCWA partition.
const CCWA_PARTITION: &str =
    "P = first half of the atoms, Z = the rest (P ≠ V: the N-set procedure)";

fn sweep(
    id: SemanticsId,
    task: Task,
    sizes: &[usize],
    family: impl Fn(usize, u64) -> Database,
) -> Vec<Measurement> {
    sizes
        .iter()
        .map(|&n| {
            // Instances are built before the clock starts: a cell times
            // the decision procedure, not the instance generator.
            let cases: Vec<(Database, SemanticsConfig)> = (0..SEEDS)
                .map(|seed| {
                    let db = family(n, seed);
                    let cfg = config(id, &db);
                    (db, cfg)
                })
                .collect();
            measure_median(n, SEEDS, |seed, cost| {
                let (db, cfg) = &cases[seed as usize];
                run_task(cfg, db, task, seed.wrapping_add(1000), cost)
            })
        })
        .collect()
}

/// One table cell: the paper's claim for (`id`, `task`) on `fragment`
/// ([`paper_cell`]) beside the sweep measured on `family`.
fn cell(
    id: SemanticsId,
    task: Task,
    fragment: Fragment,
    sizes: &[usize],
    family: impl Fn(usize, u64) -> Database,
    evidence: &str,
) -> CellReport {
    CellReport {
        semantics: id.name().to_owned(),
        task: task.problem().name(),
        paper_claim: paper_cell(id, task.problem(), fragment),
        points: sweep(id, task, sizes, family),
        evidence: evidence.to_owned(),
    }
}

/// Sizes per cost tier: procedures with enumerative loops get smaller
/// sweeps so the whole report finishes in minutes.
const FAST: &[usize] = &[16, 32, 64, 128];
const MID: &[usize] = &[8, 16, 32, 64];
const SLOW: &[usize] = &[6, 8, 12, 16];
const PDSM_SIZES: &[usize] = &[4, 6, 8, 10];

fn table1(cells: &mut Vec<CellReport>) {
    println!("\n## Table 1 — positive propositional DDBs (no integrity clauses, no negation)\n");
    println!("{}", table_header());
    use SemanticsId::*;
    use Task::*;
    let pos = |n: usize, s: u64| families::table1_random(n, s);
    let t1 = Fragment::Positive;

    for (id, sizes) in [
        (Gcwa, MID),
        (Ddr, FAST),
        (Pws, FAST),
        (Egcwa, MID),
        (Ccwa, MID),
        (Ecwa, MID),
        (Icwa, SLOW),
        (Perf, SLOW),
        (Dsm, SLOW),
        (Pdsm, PDSM_SIZES),
    ] {
        let lit = match id {
            Ddr | Pws => NegLit,
            _ => Lit,
        };
        let ev_lit = match id {
            Ddr | Pws => "negative literals: 0 oracle calls on the fast path",
            Ccwa => CCWA_PARTITION,
            _ => "hardness via verified 2QBF reduction (see lower-bounds section)",
        };
        let ev_form = if id == Ccwa { CCWA_PARTITION } else { "" };
        emit(cells, cell(id, lit, t1, sizes, pos, ev_lit));
        emit(cells, cell(id, Form, t1, sizes, pos, ev_form));
        emit(
            cells,
            cell(
                id,
                Exist,
                t1,
                sizes,
                pos,
                "positive DBs always have models: the positive route, 0 oracle calls",
            ),
        );
    }
}

fn table2(cells: &mut Vec<CellReport>) {
    println!("\n## Table 2 — propositional DDBs with integrity clauses\n");
    println!("{}", table_header());
    use SemanticsId::*;
    use Task::*;
    let ded = |n: usize, s: u64| families::table2_random(n, s);
    let strat = |n: usize, s: u64| families::stratified_random(n, s);
    let norm = |n: usize, s: u64| families::normal_random(n, s);
    let t2 = Fragment::General;

    for (id, exist_evidence, sizes) in [
        (Gcwa, "≡ SAT", MID),
        (Ddr, "≡ SAT of DB ∪ ¬N", FAST),
        (Pws, "possible-model SAT", FAST),
        (Egcwa, "", MID),
        (Ccwa, "≡ SAT", MID),
        (Ecwa, "", MID),
    ] {
        let ev = if id == Ccwa { CCWA_PARTITION } else { "" };
        emit(cells, cell(id, Lit, t2, sizes, ded, ev));
        emit(cells, cell(id, Form, t2, sizes, ded, ev));
        emit(cells, cell(id, Exist, t2, sizes, ded, exist_evidence));
    }
    // Stratified / normal rows.
    emit(cells, cell(Icwa, Lit, t2, SLOW, strat, ""));
    emit(cells, cell(Icwa, Form, t2, SLOW, strat, ""));
    emit(
        cells,
        cell(
            Icwa,
            Exist,
            t2,
            SLOW,
            families::stratified_consistent,
            "integrity-free stratified family: expected flat, 0 oracle calls",
        ),
    );
    for id in [Perf, Dsm] {
        emit(cells, cell(id, Lit, t2, SLOW, norm, ""));
        emit(cells, cell(id, Form, t2, SLOW, norm, ""));
        emit(cells, cell(id, Exist, t2, SLOW, norm, ""));
    }
    emit(cells, cell(Pdsm, Lit, t2, PDSM_SIZES, norm, ""));
    emit(cells, cell(Pdsm, Form, t2, PDSM_SIZES, norm, ""));
    emit(cells, cell(Pdsm, Exist, t2, PDSM_SIZES, norm, ""));

    // NP-complete existence on the intended hard family.
    emit(
        cells,
        cell(
            Egcwa,
            Exist,
            t2,
            &[40, 80, 120, 160],
            families::phase_transition,
            "phase-transition 3-CNF family: CDCL oracle at clause/var ratio 4.26",
        ),
    );
}

fn lower_bounds() {
    println!("\n## Lower-bound evidence (verified reductions + hard-family scaling)\n");

    // 1. 2QBF → minimal-model literal inference: verify on random
    //    instances, then scale the universal count.
    let mut agree = 0;
    let total = 40;
    for seed in 0..total {
        let q = random_forall_exists(2, 2, 6, 3, seed);
        let inst = gcwa_hardness::forall_exists_to_gcwa(&q);
        let mut cost = Cost::new();
        let inferred = ddb_core::gcwa::infers_literal(&inst.db, inst.w.neg(), &mut cost).unwrap();
        if inferred == q.valid_brute() {
            agree += 1;
        }
    }
    println!(
        "- 2QBF(∀∃-CNF) → GCWA ⊨ ¬w on positive, integrity-free DDBs: \
         {agree}/{total} random instances agree with brute-force QBF evaluation."
    );
    print!("- GCWA literal inference on the *valid parity* hard family (worst case, time by #universals): ");
    for nx in [2u32, 3, 4, 5, 6] {
        let m = measure_median(nx as usize, 3, |_seed, cost| {
            let inst = families::qbf_parity_hard(nx);
            ddb_core::gcwa::infers_literal(&inst.db, inst.w.neg(), cost).unwrap()
        });
        print!("nx={nx}: {:.2?} ({} cand)  ", m.time, m.cost.candidates);
    }
    println!();
    print!("- Same cell on *random* QBF instances (average case — CEGAR refutes quickly): ");
    for nx in [2u32, 4, 6, 8, 10] {
        let m = measure_median(nx as usize, 3, |seed, cost| {
            let inst = families::qbf_hard(nx, 4, seed);
            ddb_core::gcwa::infers_literal(&inst.db, inst.w.neg(), cost).unwrap()
        });
        print!("nx={nx}: {:.2?} ({} cand)  ", m.time, m.cost.candidates);
    }
    println!();

    // 2. 2QBF(∃∀) → DSM existence.
    let mut agree = 0;
    for seed in 0..total {
        let q = random_forall_exists(2, 2, 6, 3, seed).complement();
        let inst = dsm_hardness::exists_forall_to_dsm_existence(&q);
        let mut cost = Cost::new();
        if ddb_core::dsm::has_model(&inst.db, &mut cost).unwrap() == q.true_brute() {
            agree += 1;
        }
    }
    println!("- 2QBF(∃∀-DNF) → DSM model existence: {agree}/{total} random instances agree.");
    print!("- DSM existence on the *false parity* hard family (must exhaust all outer choices): ");
    for nx in [2u32, 3, 4, 5, 6] {
        let m = measure_median(nx as usize, 3, |_seed, cost| {
            let db = families::dsm_exist_hard(nx);
            ddb_core::dsm::has_model(&db, cost).unwrap()
        });
        print!(
            "nx={nx}: {:.2?} ({} sat, answer {})  ",
            m.time, m.cost.sat_calls, m.answer
        );
    }
    println!();

    // PERF existence exhaustion family: k even loops with mutually strict
    // priorities have no perfect model; the search must refute all 2^k
    // minimal models.
    print!("- PERF existence on even-loop batteries (no perfect model exists): ");
    for k in [2usize, 4, 6, 8] {
        let m = measure_median(k, 3, |_seed, cost| {
            let db = families::even_loops(k);
            ddb_core::perf::has_model(&db, cost).unwrap()
        });
        print!(
            "k={k}: {:.2?} ({} sat, answer {})  ",
            m.time, m.cost.sat_calls, m.answer
        );
    }
    println!();

    // 3. SAT ⇔ EGCWA existence with integrity clauses.
    let mut agree = 0;
    for seed in 0..total {
        let cnf: Vec<Vec<(u32, bool)>> = {
            let q = random_forall_exists(0, 5, 10, 3, seed);
            q.clauses
        };
        let db = sat_reductions::cnf_to_deductive_db(5, &cnf);
        let mut cost = Cost::new();
        let brute = (0u64..1 << 5).any(|bits| {
            cnf.iter()
                .all(|c| c.iter().any(|&(v, s)| (bits >> v & 1 == 1) == s))
        });
        if ddb_core::ecwa::has_model(&db, &mut cost).unwrap() == brute {
            agree += 1;
        }
    }
    println!("- SAT → EGCWA model existence (deductive DBs): {agree}/{total} agree.");

    // 4. UNSAT → UMINSAT (Proposition 5.4).
    let mut agree = 0;
    for seed in 0..total {
        let cnf = random_forall_exists(0, 4, 8, 2, seed).clauses;
        let db = uminsat::unsat_to_uminsat(4, &cnf);
        let mut cost = Cost::new();
        let brute_unsat = !(0u64..1 << 4).any(|bits| {
            cnf.iter()
                .all(|c| c.iter().any(|&(v, s)| (bits >> v & 1 == 1) == s))
        });
        if uminsat::has_unique_minimal_model(&db, &mut cost).unwrap() == brute_unsat {
            agree += 1;
        }
    }
    println!("- UNSAT → UMINSAT (unique minimal model): {agree}/{total} agree.");

    // 5. The tractable cells: DDR negative-literal inference scaling with
    //    zero oracle calls.
    print!("- DDR ¬-literal inference on Horn chains (P cell, Table 1): ");
    for n in [1_000usize, 10_000, 100_000] {
        let m = measure_median(n, 3, |_seed, cost| {
            let db = families::tractable_chain(n);
            let lit = ddb_logic::Atom::new((n - 1) as u32).neg();
            ddb_core::ddr::infers_literal(&db, lit, cost).unwrap()
        });
        print!("n={n}: {:.2?} ({} sat)  ", m.time, m.cost.sat_calls);
    }
    println!();
}

fn beyond_the_paper() {
    println!("\n## Beyond the paper — extension semantics (measured shapes)\n");

    // Reiter's CWA: |V| coNP queries + one SAT call; inconsistent on
    // disjunctions.
    print!("- CWA consistency (n+1 oracle calls by construction): ");
    for n in [16usize, 32, 64] {
        let m = measure_median(n, SEEDS, |seed, cost| {
            let db = families::table1_random(n, seed);
            ddb_core::cwa::is_consistent(&db, cost).unwrap()
        });
        print!("n={n}: {:.2?} ({} sat)  ", m.time, m.cost.sat_calls);
    }
    println!();

    // WFS: polynomial, zero oracle calls.
    print!("- WFS (alternating fixpoint — O(n²) on an n-stratum chain, 0 oracle calls): ");
    for n in [500usize, 1_000, 2_000] {
        let m = measure_median(n, 3, |_seed, cost| {
            // Negation chain: n atoms, n rules, stratified.
            let mut src = String::from("x0.");
            for i in 1..n {
                src.push_str(&format!(" x{i} :- not x{}.", i - 1));
            }
            let db = ddb_logic::parse::parse_program(&src).unwrap();
            let w = ddb_core::wfs::well_founded_model(&db);
            let _ = cost;
            w.is_total()
        });
        print!("n={n}: {:.2?}  ", m.time);
    }
    println!("(includes parse time)");

    // Supported models: one SAT call per query (NP/coNP shape).
    print!("- Supported-model existence (1 SAT call on the completion): ");
    for n in [32usize, 64, 128] {
        let m = measure_median(n, SEEDS, |seed, cost| {
            // Normal random program: singleton heads.
            let raw = families::normal_random(n, seed);
            let mut db = ddb_logic::Database::new(raw.symbols().clone());
            for r in raw.rules() {
                let head: Vec<_> = r.head().iter().take(1).copied().collect();
                db.add_rule(ddb_logic::Rule::new(
                    head,
                    r.body_pos().iter().copied(),
                    r.body_neg().iter().copied(),
                ));
            }
            ddb_core::supported::has_model(&db, cost).unwrap()
        });
        print!("n={n}: {:.2?} ({} sat)  ", m.time, m.cost.sat_calls);
    }
    println!();

    // Grounding: reduced vs full sizes on a transitive-closure program.
    print!("- Datalog∨ grounding (reduced vs full ground rules, chain graphs): ");
    for k in [10usize, 20, 40] {
        let mut src = String::new();
        for i in 0..k - 1 {
            src.push_str(&format!("edge(v{i},v{}). ", i + 1));
        }
        src.push_str("path(X,Y) :- edge(X,Y). path(X,Y) :- edge(X,Z), path(Z,Y).");
        let prog = ddb_ground::parse::parse_datalog(&src).unwrap();
        let reduced = ddb_ground::ground_reduced(&prog, 1_000_000).unwrap();
        let full = ddb_ground::ground_full(&prog, 1_000_000).unwrap();
        print!("k={k}: {} vs {}  ", reduced.len(), full.len());
    }
    println!();
}

/// Median repetitions per ablation point.
const AB_ITERS: u64 = 5;

/// A variant of an ablation row: its label and one run on the prebuilt
/// instance.
type Variant<'a, I> = (&'a str, &'a dyn Fn(&I, &mut Cost) -> bool);

/// Prints one ablation row: for every size, the median time of each
/// variant on the same prebuilt instance, with its SAT calls when it
/// makes any.
fn ablation<I>(
    label: &str,
    key: &str,
    sizes: &[usize],
    build: impl Fn(usize) -> I,
    variants: &[Variant<'_, I>],
) {
    let points: Vec<String> = sizes
        .iter()
        .map(|&n| {
            let inst = build(n);
            let runs: Vec<String> = variants
                .iter()
                .map(|(name, run)| {
                    let m = measure_median(n, AB_ITERS, |_seed, cost| run(&inst, cost));
                    let sat = match m.cost.sat_calls {
                        0 => String::new(),
                        calls => format!(" ({calls} sat)"),
                    };
                    format!("{name} {:.2?}{sat}", m.time)
                        .trim_start()
                        .to_owned()
                })
                .collect();
            format!("{key}={n}: {}", runs.join(" vs "))
        })
        .collect();
    println!("| {label} | {} |", points.join("; "));
}

/// Stable-model existence testing raw SAT models as candidates, each
/// blocked exactly — the strategy AB-5 compares against minimize-first.
/// The candidate solver's calls are billed too.
fn stable_exists_raw_candidates(db: &Database, cost: &mut Cost) -> bool {
    let n = db.num_atoms();
    let mut candidates = Solver::from_cnf(&database_to_cnf(db));
    candidates.ensure_vars(n);
    let found = loop {
        if !candidates.solve().unwrap().is_sat() {
            break false;
        }
        let m = Interpretation::from_atoms(n, candidates.model().iter().filter(|a| a.index() < n));
        if minimal::is_minimal_model(&gl_reduct(db, &m), &m, cost).unwrap() {
            break true;
        }
        let blocking: Vec<Literal> = (0..n)
            .map(|i| {
                let a = Atom::new(i as u32);
                Literal::with_sign(a, !m.contains(a))
            })
            .collect();
        if !candidates.add_clause(&blocking) {
            break false;
        }
    };
    cost.absorb(&candidates);
    found
}

/// A ⟨P;Q;Z⟩ partition with the first `p_pct`% of atoms in P and half
/// of the rest in Q.
fn partition(n: usize, p_pct: usize) -> Partition {
    let p_end = n * p_pct / 100;
    let q_end = p_end + (n - p_end) / 2;
    Partition::from_p_q(
        n,
        (0..p_end).map(|i| Atom::new(i as u32)),
        (p_end..q_end).map(|i| Atom::new(i as u32)),
    )
}

/// One route against the generic procedure on the same query.
fn route_vs_generic(
    label: &str,
    key: &str,
    sizes: &[usize],
    id: SemanticsId,
    case: impl Fn(usize) -> (Database, Formula),
) {
    let auto = SemanticsConfig::new(id);
    let generic = SemanticsConfig::new(id).with_routing(RoutingMode::Generic);
    let run = |cfg: &SemanticsConfig, (db, f): &(Database, Formula), cost: &mut Cost| {
        cfg.infers_formula(db, f, cost).is_ok()
    };
    ablation(
        label,
        key,
        sizes,
        case,
        &[
            ("routed", &|i, cost| run(&auto, i, cost)),
            ("generic", &|i, cost| run(&generic, i, cost)),
        ],
    );
}

/// The planner's overhead on one query: building the whole plan tree
/// must stay under 1% of the generic solve it lets dispatch avoid,
/// slowest plan against slowest generic solve. Prints the row and returns
/// the percentage.
fn planner_overhead(what: &str, (db, f): (Database, Formula)) -> f64 {
    const PLAN_ITERS: u64 = 50;
    let q = PlanQuery::of(&f);
    let (mut plan_worst, mut generic_worst) = (Duration::ZERO, Duration::ZERO);
    let mut points = Vec::new();
    for id in [SemanticsId::Ccwa, SemanticsId::Dsm, SemanticsId::Pdsm] {
        let cfg = SemanticsConfig::new(id);
        let generic = cfg.clone().with_routing(RoutingMode::Generic);
        let plan = measure_median(0, PLAN_ITERS, |_, _| cfg.plan(&db, &q).is_ok());
        let routed = measure_median(0, PLAN_ITERS, |_, cost| {
            cfg.infers_formula(&db, &f, cost).is_ok()
        });
        let slow = measure_median(0, PLAN_ITERS, |_, cost| {
            generic.infers_formula(&db, &f, cost).is_ok()
        });
        plan_worst = plan_worst.max(plan.time);
        generic_worst = generic_worst.max(slow.time);
        points.push(format!(
            "{}: plan {:.2?} vs routed {:.2?} vs generic {:.2?}",
            id.name(),
            plan.time,
            routed.time,
            slow.time
        ));
    }
    let pct = 100.0 * plan_worst.as_secs_f64() / generic_worst.as_secs_f64().max(1e-9);
    println!(
        "| Planner overhead: plan vs routed vs generic solve, {what} | {}; \
         slowest plan = {pct:.3}% of slowest generic solve (bound: < 1%) |",
        points.join("; ")
    );
    pct
}

fn ablations() {
    println!("\n## Ablations and engineering\n");
    println!(
        "Median of {AB_ITERS} runs per point on one prebuilt instance; SAT calls in \
         parentheses where a variant makes any.\n"
    );
    println!("| ablation | measured (median) |\n|---|---|");
    let cnf = |seed: u64| move |n: usize| database_to_cnf(&families::phase_transition(n, seed));
    let cdcl = |cnf: &Cnf, minimize: bool| {
        let mut s = Solver::from_cnf(cnf);
        s.set_clause_minimization(minimize);
        s.solve().unwrap().is_sat()
    };
    ablation(
        "AB-1 oracle: CDCL vs DPLL (3-CNF @ 4.26)",
        "n",
        &[20, 30, 40],
        cnf(21),
        &[
            ("CDCL", &|c, _| cdcl(c, true)),
            ("DPLL", &|c, _| dpll::is_sat(c).unwrap()),
        ],
    );
    ablation(
        "CDCL learnt-clause minimization on vs off (3-CNF @ 4.26)",
        "n",
        &[40, 60, 80],
        cnf(33),
        &[
            ("on", &|c, _| cdcl(c, true)),
            ("off", &|c, _| cdcl(c, false)),
        ],
    );
    ablation(
        "AB-2 GCWA N-set: direct (one Σᵖ₂ query per atom) vs O(log n) census",
        "n",
        &[12, 16, 24],
        |n| families::table1_random(n, 17),
        &[
            ("direct", &|db: &Database, cost| {
                let all = Partition::minimize_all(db.num_atoms());
                ddb_core::ccwa::false_atoms(db, &all, cost).unwrap().count() > 0
            }),
            ("census", &|db, cost| {
                ddb_core::gcwa::census_false_atoms(db, cost).unwrap() > 0
            }),
        ],
    );
    ablation(
        "AB-3 DDR fixpoint: active-atom closure vs explicit T↑ω (layered)",
        "n",
        &[8, 12, 16],
        families::layered,
        &[
            ("closure", &|db, _| fixpoint::active_atoms(db).count() > 0),
            ("explicit", &|db, _| {
                fixpoint::model_state(db, 1_000_000).unwrap().is_some()
            }),
        ],
    );
    ablation(
        "AB-4 MM(DB) ⊨ F: CEGAR vs full minimal-model enumeration",
        "n",
        &[10, 14, 18],
        |n| {
            let f = queries::random_formula(n, 6, 9);
            (families::table1_random(n, 37), f)
        },
        &[
            ("CEGAR", &|(db, f), cost| {
                circumscribe::holds_in_all_minimal_models(db, f, cost).unwrap()
            }),
            ("enumerate", &|(db, f), cost| {
                minimal::minimal_models(db, cost)
                    .unwrap()
                    .iter()
                    .all(|m| f.eval(m))
            }),
        ],
    );
    ablation(
        "AB-5 DSM existence: minimize-first vs raw SAT candidates (false parity)",
        "n",
        &[2, 3, 4],
        |n| families::dsm_exist_hard(n as u32),
        &[
            ("minimize-first", &|db, cost| {
                ddb_core::dsm::has_model(db, cost).unwrap()
            }),
            ("raw", &stable_exists_raw_candidates),
        ],
    );
    ablation(
        "Minimal-model shrink: incremental vs fresh solver per step",
        "n",
        &[32, 64, 128],
        |n| families::table1_random(n, 41),
        &[
            ("incremental", &|db, cost| {
                shrink(db, cost, minimal::pz_minimize)
            }),
            ("fresh", &|db, cost| {
                shrink(db, cost, minimal::pz_minimize_fresh)
            }),
        ],
    );
    ablation(
        "Minimal-model counting: per component vs enumeration (k even loops, 2^k models)",
        "k",
        &[4, 6, 8],
        families::even_loops,
        &[
            ("componentwise", &|db, cost| {
                ddb_models::components::count_minimal_models(db, cost).unwrap() > 0
            }),
            ("enumerate", &|db, cost| {
                !minimal::minimal_models(db, cost).unwrap().is_empty()
            }),
        ],
    );
    ablation(
        "EGCWA derived clauses by Berge dualization (k disjoint pairs, 2^k models)",
        "k",
        &[4, 6, 8],
        |k| {
            let src: String = (0..k).map(|i| format!("a{i} | b{i}. ")).collect();
            ddb_logic::parse::parse_program(&src).unwrap()
        },
        &[("", &|db, cost| {
            ddb_core::egcwa::derived_integrity_clauses(db, 1_000_000, cost)
                .unwrap()
                .is_some()
        })],
    );
    ablation(
        "CCWA literal by the share of atoms in P (n=24, half the rest fixed)",
        "P%",
        &[25, 50, 100],
        |p| {
            let n = 24;
            let lit = Formula::from(queries::random_literal(n, 5));
            (families::table1_random(n, 31), partition(n, p), lit)
        },
        &[("", &|(db, part, lit), cost| {
            ddb_core::ccwa::countermodel(db, part, lit, cost)
                .unwrap()
                .is_none()
        })],
    );
    ablation(
        "DSM enumeration on k even loops (2^k models)",
        "k",
        &[2, 4, 6],
        families::even_loops,
        &[("", &|db, cost| {
            !ddb_core::dsm::models(db, cost).unwrap().is_empty()
        })],
    );
    ablation(
        "PDSM enumeration on k even loops (3^k partial models)",
        "k",
        &[2, 3, 4],
        families::even_loops,
        &[("", &|db, cost| {
            !ddb_core::pdsm::models(db, cost).unwrap().is_empty()
        })],
    );
    route_vs_generic(
        "Horn route vs generic: GCWA ¬xₙ on a Horn chain",
        "n",
        &[200, 800],
        SemanticsId::Gcwa,
        |n| {
            let lit = Atom::new((n - 1) as u32).neg();
            (families::tractable_chain(n), Formula::from(lit))
        },
    );
    route_vs_generic(
        "Slice route vs generic: CCWA ¬g",
        "towers",
        &[1, 2, 3],
        SemanticsId::Ccwa,
        families::sliceable_not_goal,
    );
    route_vs_generic(
        "Slice route vs generic: DSM c₁",
        "towers",
        &[2, 4, 8],
        SemanticsId::Dsm,
        families::sliceable_c1,
    );
    route_vs_generic(
        "Slice route vs generic: PDSM ¬g",
        "towers",
        &[1, 2, 3, 4],
        SemanticsId::Pdsm,
        families::sliceable_not_goal,
    );
    const LIMIT: usize = 1_000_000;
    ablation(
        "Grounding bound_chains(16, depth): magic vs whole program",
        "depth",
        &[16, 64, 128],
        families::bound_chains,
        &[
            ("magic", &|(prog, q, _), _| {
                ground_magic(prog, q, LIMIT).is_ok()
            }),
            ("whole", &|(prog, _, _), _| {
                ground_reduced(prog, LIMIT).is_ok()
            }),
        ],
    );
    route_vs_generic(
        "Magic route vs generic: GCWA reach(c0,n<depth>) on the whole grounding",
        "depth",
        &[16, 64, 128],
        SemanticsId::Gcwa,
        |depth| {
            let (prog, _, name) = families::bound_chains(depth);
            let whole = ground_reduced(&prog, LIMIT).unwrap();
            let atom = whole.symbols().lookup(&name).unwrap();
            (whole, Formula::atom(atom))
        },
    );
    // Both overhead rows print before either is checked.
    let overheads = [
        planner_overhead(
            "c₁ on sliceable_towers(3,3)",
            (
                structured::sliceable_towers(3, 3),
                Formula::from(Atom::new(4).pos()),
            ),
        ),
        planner_overhead(
            "¬g on sliceable_not_goal(3)",
            families::sliceable_not_goal(3),
        ),
    ];
    for pct in overheads {
        assert!(
            pct < 1.0,
            "planner overhead must be \u{226a} 1% of the generic solve, got {pct:.3}%"
        );
    }
}

/// One shrink of a classical model to a minimal one with `minimize`.
fn shrink(
    db: &Database,
    cost: &mut Cost,
    minimize: fn(
        &Database,
        &Interpretation,
        &Partition,
        &mut Cost,
    ) -> ddb_obs::Governed<Interpretation>,
) -> bool {
    let part = Partition::minimize_all(db.num_atoms());
    let m = classical::some_model(db, cost)
        .unwrap()
        .expect("positive DB");
    minimize(db, &m, &part, cost).is_ok()
}

/// Prints the cell row and keeps the report for the `--json` summary.
fn emit(cells: &mut Vec<CellReport>, c: CellReport) {
    println!("{}", c.render());
    cells.push(c);
}

fn main() {
    let mut json_path: Option<String> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--json" => json_path = argv.next(),
            other => {
                eprintln!("unknown argument: {other} (usage: tables [--json <file>])");
                std::process::exit(2);
            }
        }
    }
    // Open the metrics file before the sweep, so an unwritable path
    // fails in milliseconds rather than after minutes of measuring.
    let fail = |path: &str, e: std::io::Error| -> ! {
        eprintln!("failed to write cell metrics to {path}: {e}");
        std::process::exit(1);
    };
    let json_file = json_path.map(|path| match std::fs::File::create(&path) {
        Ok(file) => (path, file),
        Err(e) => fail(&path, e),
    });
    println!("# Tables 1 & 2 of Eiter & Gottlob (PODS 1993), regenerated\n");
    println!(
        "Every cell: paper claim | measured growth shape over the sweep | \
         median wall-clock + median oracle counts, each taken on its own over the seeds \
         (sat calls / CEGAR candidates)."
    );
    let mut cells = Vec::new();
    table1(&mut cells);
    table2(&mut cells);
    // The cell metrics are complete here: write them before the ablations,
    // whose gate may fail the run.
    if let Some((path, mut file)) = json_file {
        use ddb_obs::json::Json;
        use std::io::Write as _;
        let doc = Json::obj([
            ("version", Json::UInt(1)),
            (
                "cells",
                Json::Arr(cells.iter().map(CellReport::to_json).collect()),
            ),
        ]);
        match file.write_all(doc.render_pretty().as_bytes()) {
            Ok(()) => eprintln!("wrote cell metrics to {path}"),
            Err(e) => fail(&path, e),
        }
    }
    lower_bounds();
    beyond_the_paper();
    ablations();
}
