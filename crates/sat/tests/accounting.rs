//! Accounting invariants for solver statistics — the contract the
//! observability layer depends on: `solves` increments exactly once per
//! `solve*` call, `propagations >= decisions` on satisfiable instances,
//! `reset_stats` zeroes event counts, and `Stats: AddAssign` aggregates
//! totals while taking maxima of gauges.

use ddb_logic::cnf::CnfBuilder;
use ddb_logic::rng::XorShift64Star;
use ddb_logic::{Atom, Literal};
use ddb_sat::{SolveResult, Solver, Stats};

fn lit(i: u32, pos: bool) -> Literal {
    Literal::with_sign(Atom::new(i), pos)
}

/// A small satisfiable chain a→b→…; forces propagation work.
fn chain_solver(n: u32) -> Solver {
    let mut b = CnfBuilder::new(n as usize);
    b.add_clause(vec![lit(0, true)]);
    for i in 0..n - 1 {
        b.add_clause(vec![lit(i, false), lit(i + 1, true)]);
    }
    Solver::from_cnf(&b.finish())
}

#[test]
fn solves_increments_exactly_once_per_call() {
    let mut s = chain_solver(6);
    assert_eq!(s.stats().solves, 0);
    for expected in 1..=5u64 {
        s.solve().unwrap();
        assert_eq!(s.stats().solves, expected);
    }
    // Assumption-based calls count identically — including ones that
    // return early through the conflicting-assumptions path.
    s.solve_with_assumptions(&[lit(3, true)]).unwrap();
    assert_eq!(s.stats().solves, 6);
    s.solve_with_assumptions(&[lit(0, false)]).unwrap(); // contradicts the unit fact
    assert_eq!(s.stats().solves, 7);
}

#[test]
fn solves_counts_calls_on_unsat_instances_too() {
    let mut b = CnfBuilder::new(1);
    b.add_clause(vec![lit(0, true)]);
    b.add_clause(vec![lit(0, false)]);
    let mut s = Solver::from_cnf(&b.finish());
    assert_eq!(s.solve().unwrap(), SolveResult::Unsat);
    assert_eq!(s.solve().unwrap(), SolveResult::Unsat); // early-return path
    assert_eq!(s.stats().solves, 2);
}

#[test]
fn propagations_at_least_decisions_on_sat_instances() {
    let mut rng = XorShift64Star::seed_from_u64(0xACC1);
    let mut sat_seen = 0;
    for case in 0..200 {
        let mut b = CnfBuilder::new(8);
        for _ in 0..rng.gen_range(1, 25) {
            let c: Vec<Literal> = (0..rng.gen_range_inclusive(1, 4))
                .map(|_| lit(rng.gen_range(0, 8) as u32, rng.gen_bool(0.5)))
                .collect();
            b.add_clause(c);
        }
        let mut s = Solver::from_cnf(&b.finish());
        if s.solve().unwrap().is_sat() {
            sat_seen += 1;
            let st = s.stats();
            // Every decision is enqueued onto the trail and then
            // propagated, so propagations dominate decisions.
            assert!(
                st.propagations >= st.decisions,
                "case {case}: propagations {} < decisions {}",
                st.propagations,
                st.decisions
            );
        }
    }
    assert!(
        sat_seen > 50,
        "workload too easy: only {sat_seen} sat cases"
    );
}

#[test]
fn reset_stats_zeroes_event_counts_and_keeps_solver_usable() {
    let mut s = chain_solver(8);
    assert!(s.solve().unwrap().is_sat());
    assert!(s.stats().solves > 0);
    assert!(s.stats().propagations > 0);
    s.reset_stats();
    let st = s.stats();
    assert_eq!(st.solves, 0);
    assert_eq!(st.decisions, 0);
    assert_eq!(st.propagations, 0);
    assert_eq!(st.conflicts, 0);
    assert_eq!(st.restarts, 0);
    // The solver still works, and accounting restarts from zero.
    assert!(s.solve().unwrap().is_sat());
    assert_eq!(s.stats().solves, 1);
}

#[test]
fn reset_stats_reseeds_clause_gauge_from_live_state() {
    // An implication cycle with no unit facts: nothing simplifies away at
    // level 0, so all 8 binary clauses stay resident in the solver.
    let mut b = CnfBuilder::new(8);
    for i in 0..8u32 {
        b.add_clause(vec![lit(i, false), lit((i + 1) % 8, true)]);
    }
    let mut s = Solver::from_cnf(&b.finish());
    s.solve().unwrap();
    s.reset_stats();
    // The clause high-water mark reflects clauses actually held right now,
    // not zero — a gauge must stay truthful across resets.
    assert!(s.stats().max_clauses >= 8);
}

#[test]
fn add_assign_sums_totals_and_maxes_gauges() {
    let a = Stats {
        solves: 2,
        decisions: 10,
        propagations: 30,
        conflicts: 4,
        learnts: 7,
        restarts: 1,
        minimized_literals: 5,
        max_clauses: 100,
    };
    let b = Stats {
        solves: 3,
        decisions: 1,
        propagations: 2,
        conflicts: 0,
        learnts: 9,
        restarts: 0,
        minimized_literals: 1,
        max_clauses: 40,
    };
    let mut sum = a;
    sum += b;
    assert_eq!(sum.solves, 5);
    assert_eq!(sum.decisions, 11);
    assert_eq!(sum.propagations, 32);
    assert_eq!(sum.conflicts, 4);
    assert_eq!(sum.restarts, 1);
    assert_eq!(sum.minimized_literals, 6);
    assert_eq!(sum.learnts, 9, "gauge takes max");
    assert_eq!(sum.max_clauses, 100, "gauge takes max");
}

#[test]
fn add_assign_identity_is_default() {
    let mut s = chain_solver(5);
    s.solve().unwrap();
    let observed = s.stats();
    let mut sum = Stats::default();
    sum += observed;
    assert_eq!(format!("{observed:?}"), format!("{sum:?}"));
}

#[test]
fn solver_reports_oracle_calls_to_obs_counters() {
    let mut s = chain_solver(6);
    let ((), rec) = ddb_obs::record(false, || {
        s.solve().unwrap();
        s.solve().unwrap();
    });
    let spent = rec.counters;
    assert_eq!(spent.get("sat.solves"), 2);
    assert_eq!(spent.get("sat.decisions"), s.stats().decisions);
    assert!(spent.get("sat.propagations") >= spent.get("sat.decisions"));
    assert_eq!(spent.get("sat.clauses.peak"), s.stats().max_clauses);
}
