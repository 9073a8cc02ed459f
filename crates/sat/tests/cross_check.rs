//! Randomized cross-checks of the CDCL solver against the DPLL reference
//! solver and a brute-force truth-table evaluator, driven by the in-repo
//! deterministic PRNG (formerly proptest properties).

use ddb_logic::cnf::{Cnf, CnfBuilder};
use ddb_logic::rng::XorShift64Star;
use ddb_logic::{Atom, Interpretation, Literal};
use ddb_sat::{dpll, enumerate_models, Solver};

/// Random CNF: up to 8 variables, up to 30 clauses of 1–4 literals.
fn random_cnf(rng: &mut XorShift64Star) -> Cnf {
    let mut b = CnfBuilder::new(8);
    for _ in 0..rng.gen_range(0, 30) {
        let c: Vec<Literal> = (0..rng.gen_range_inclusive(1, 4))
            .map(|_| Literal::with_sign(Atom::new(rng.gen_range(0, 8) as u32), rng.gen_bool(0.5)))
            .collect();
        b.add_clause(c);
    }
    b.finish()
}

fn brute_force_models(cnf: &Cnf) -> Vec<Interpretation> {
    let n = cnf.num_vars;
    assert!(n <= 16);
    let mut out = Vec::new();
    for bits in 0u64..1 << n {
        let m = Interpretation::from_atoms(
            n,
            (0..n)
                .filter(|&i| bits >> i & 1 == 1)
                .map(|i| Atom::new(i as u32)),
        );
        if cnf.satisfied_by(&m) {
            out.push(m);
        }
    }
    out
}

#[test]
fn cdcl_agrees_with_brute_force() {
    let mut rng = XorShift64Star::seed_from_u64(0xC0C1);
    for case in 0..300 {
        let cnf = random_cnf(&mut rng);
        let expected = !brute_force_models(&cnf).is_empty();
        let mut solver = Solver::from_cnf(&cnf);
        let got = solver.solve().unwrap().is_sat();
        assert_eq!(got, expected, "case {case}");
        if got {
            // The reported model must actually satisfy the formula.
            assert!(cnf.satisfied_by(&solver.model()), "case {case}");
        }
    }
}

#[test]
fn cdcl_agrees_with_dpll() {
    let mut rng = XorShift64Star::seed_from_u64(0xC0C2);
    for case in 0..300 {
        let cnf = random_cnf(&mut rng);
        let mut solver = Solver::from_cnf(&cnf);
        assert_eq!(
            solver.solve().unwrap().is_sat(),
            dpll::is_sat(&cnf).unwrap(),
            "case {case}"
        );
    }
}

#[test]
fn enumeration_finds_exactly_the_models() {
    let mut rng = XorShift64Star::seed_from_u64(0xC0C3);
    for case in 0..300 {
        let cnf = random_cnf(&mut rng);
        let expected = brute_force_models(&cnf);
        let mut got = Vec::new();
        enumerate_models(&mut Solver::from_cnf(&cnf), cnf.num_vars, |m| {
            got.push(m.clone());
            true
        })
        .unwrap();
        got.sort();
        assert_eq!(got, expected, "case {case}");
    }
}

#[test]
fn assumptions_equal_added_units() {
    let mut rng = XorShift64Star::seed_from_u64(0xC0C4);
    for case in 0..300 {
        let cnf = random_cnf(&mut rng);
        let assumptions: Vec<Literal> = (0..rng.gen_range(0, 4))
            .map(|_| Literal::with_sign(Atom::new(rng.gen_range(0, 8) as u32), rng.gen_bool(0.5)))
            .collect();
        // Solving under assumptions must match solving the CNF with the
        // assumptions added as unit clauses.
        let mut incremental = Solver::from_cnf(&cnf);
        let got = incremental
            .solve_with_assumptions(&assumptions)
            .unwrap()
            .is_sat();

        let mut b = CnfBuilder::from(cnf.clone());
        for &l in &assumptions {
            b.add_clause(vec![l]);
        }
        let expected = dpll::is_sat(&b.finish()).unwrap();
        assert_eq!(got, expected, "case {case}");

        // And the solver must remain correct afterwards (no state leak).
        let base = incremental.solve().unwrap().is_sat();
        assert_eq!(base, dpll::is_sat(&cnf).unwrap(), "case {case}");
    }
}

#[test]
fn repeated_solves_are_stable() {
    let mut rng = XorShift64Star::seed_from_u64(0xC0C5);
    for case in 0..300 {
        let cnf = random_cnf(&mut rng);
        let mut solver = Solver::from_cnf(&cnf);
        let first = solver.solve().unwrap().is_sat();
        for _ in 0..3 {
            assert_eq!(solver.solve().unwrap().is_sat(), first, "case {case}");
        }
    }
}

#[test]
fn hard_random_3sat_near_phase_transition() {
    // Deterministic pseudo-random 3-SAT at clause/var ratio 4.26 with 60
    // vars: exercises learning, restarts and reduction. We only check that
    // CDCL and DPLL agree (both answers are plausible near the transition).
    let mut state = 0x243F6A8885A308D3u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for round in 0..5 {
        let n = 40;
        let m = (n as f64 * 4.26) as usize;
        let mut b = CnfBuilder::new(n);
        for _ in 0..m {
            let mut lits = Vec::with_capacity(3);
            for _ in 0..3 {
                let v = (next() % n as u64) as u32;
                let s = next() % 2 == 0;
                lits.push(Literal::with_sign(Atom::new(v), s));
            }
            b.add_clause(lits);
        }
        let cnf = b.finish();
        let mut solver = Solver::from_cnf(&cnf);
        let cdcl = solver.solve().unwrap().is_sat();
        let reference = dpll::is_sat(&cnf).unwrap();
        assert_eq!(cdcl, reference, "round {round}");
        if cdcl {
            assert!(cnf.satisfied_by(&solver.model()), "round {round}");
        }
    }
}
