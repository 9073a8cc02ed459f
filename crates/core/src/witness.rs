//! Witness extraction: when a formula is *not* inferred, produce the
//! countermodel that refutes it — a characteristic model of the semantics
//! in which the formula fails.
//!
//! Witnesses turn the decision procedures into explainable ones: the
//! guess half of every "guess-and-check" upper bound in the paper is a
//! certificate, and this module hands it to the caller. The test suite
//! checks that every witness (a) falsifies the query and (b) belongs to
//! the semantics' characteristic model set.

use crate::dispatch::{SemanticsConfig, SemanticsId, Unsupported, Verdict};
use crate::icwa::Layers;
use ddb_analysis::AsPrepared;
use ddb_logic::cnf::CnfBuilder;
use ddb_logic::{Database, Formula, Interpretation, PartialInterpretation, TruthValue};
use ddb_models::{circumscribe, Cost, Partition};
use ddb_obs::{Governed, Interrupted};
use ddb_sat::Solver;

/// Outcome of an explained inference query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryOutcome {
    /// The formula holds in every characteristic model.
    Inferred,
    /// A two-valued countermodel (a characteristic model falsifying the
    /// query).
    Countermodel(Interpretation),
    /// A three-valued countermodel (PDSM: a partial stable model where
    /// the query's value is not 1).
    CountermodelPartial(PartialInterpretation),
    /// The search was interrupted by resource exhaustion before it could
    /// either certify inference or produce a countermodel.
    Unknown(Interrupted),
}

impl QueryOutcome {
    /// `true` iff the query was inferred.
    pub fn is_inferred(&self) -> bool {
        matches!(self, QueryOutcome::Inferred)
    }
}

/// Finds a model of `DB ∪ units ∧ ¬F` projected to the vocabulary.
fn refuting_model(
    db: &Database,
    units: &Interpretation,
    f: &Formula,
    cost: &mut Cost,
) -> Governed<Option<Interpretation>> {
    let n = db.num_atoms();
    let mut b = CnfBuilder::new(n);
    b.add_database(db);
    for a in units.iter() {
        b.add_clause(vec![a.neg()]);
    }
    b.assert_formula(&f.clone().negated());
    let cnf = b.finish();
    let mut solver = Solver::from_cnf(&cnf);
    solver.ensure_vars(cnf.num_vars.max(n));
    let result = solver.solve();
    cost.absorb(&solver);
    if !result?.is_sat() {
        return Ok(None);
    }
    let full = solver.model();
    let mut m = Interpretation::empty(n);
    for a in full.iter().filter(|a| a.index() < n) {
        m.insert(a);
    }
    Ok(Some(m))
}

/// Explains formula inference under `cfg`: `Inferred`, a countermodel
/// from the semantics' characteristic model set, or `Unknown` when the
/// installed [`ddb_obs::Budget`] tripped mid-search.
pub fn explain_formula(
    cfg: &SemanticsConfig,
    db: &Database,
    f: &Formula,
    cost: &mut Cost,
) -> Result<QueryOutcome, Unsupported> {
    let _span = ddb_obs::span("witness.explain_formula");
    cfg.check_applicable(db)?;
    let n = db.num_atoms();
    let neg = f.clone().negated();
    let run = |cost: &mut Cost| -> Governed<QueryOutcome> {
        Ok(match cfg.id {
            SemanticsId::Gcwa => {
                let n_set = crate::gcwa::false_atoms(db, cost)?;
                refuting_model(db, &n_set, f, cost)?
                    .map_or(QueryOutcome::Inferred, QueryOutcome::Countermodel)
            }
            SemanticsId::Ccwa => {
                let part = cfg
                    .partition
                    .clone()
                    .unwrap_or_else(|| Partition::minimize_all(n));
                let n_set = crate::ccwa::false_atoms(db, &part, cost)?;
                refuting_model(db, &n_set, f, cost)?
                    .map_or(QueryOutcome::Inferred, QueryOutcome::Countermodel)
            }
            SemanticsId::Egcwa => {
                let part = Partition::minimize_all(n);
                circumscribe::find_pz_minimal_model_satisfying(db, &part, &neg, cost)?
                    .map_or(QueryOutcome::Inferred, QueryOutcome::Countermodel)
            }
            SemanticsId::Ecwa => {
                let part = cfg
                    .partition
                    .clone()
                    .unwrap_or_else(|| Partition::minimize_all(n));
                circumscribe::find_pz_minimal_model_satisfying(db, &part, &neg, cost)?
                    .map_or(QueryOutcome::Inferred, QueryOutcome::Countermodel)
            }
            SemanticsId::Ddr => {
                let n_set = crate::ddr::false_atoms(db);
                refuting_model(db, &n_set, f, cost)?
                    .map_or(QueryOutcome::Inferred, QueryOutcome::Countermodel)
            }
            SemanticsId::Pws => {
                // Possible-model encoding ∧ ¬F.
                let mut b = CnfBuilder::from(crate::pws::possible_model_cnf(db));
                b.assert_formula(&neg);
                let cnf = b.finish();
                let mut solver = Solver::from_cnf(&cnf);
                solver.ensure_vars(cnf.num_vars.max(n));
                let result = solver.solve();
                cost.absorb(&solver);
                if result?.is_sat() {
                    let full = solver.model();
                    let mut m = Interpretation::empty(n);
                    for a in full.iter().filter(|a| a.index() < n) {
                        m.insert(a);
                    }
                    QueryOutcome::Countermodel(m)
                } else {
                    QueryOutcome::Inferred
                }
            }
            // The walk on `DB ∧ ¬F` stops at the first countermodel.
            SemanticsId::Perf | SemanticsId::Icwa | SemanticsId::Dsm => {
                let mut found = None;
                let visit = |m: &Interpretation| {
                    found = Some(m.clone());
                    false
                };
                match cfg.id {
                    SemanticsId::Perf => {
                        crate::perf::for_each_perfect_model(db, Some(&neg), cost, visit)
                    }
                    SemanticsId::Dsm => {
                        crate::dsm::for_each_stable_model(db, Some(&neg), cost, visit)
                    }
                    _ => {
                        let strata = db.stratification().expect("checked stratifiable");
                        let z = cfg
                            .icwa_varying
                            .clone()
                            .unwrap_or_else(|| Interpretation::empty(n));
                        let layers = Layers::new(db, &strata, &z);
                        crate::icwa::for_each_icwa_model(db, &layers, Some(&neg), cost, visit)
                    }
                }?;
                found.map_or(QueryOutcome::Inferred, QueryOutcome::Countermodel)
            }
            SemanticsId::Pdsm => {
                let not_value1 = crate::pdsm::encode_ge1(f, n).negated();
                let mut found = None;
                crate::pdsm::for_each_partial_stable(db, Some(&not_value1), cost, |p| {
                    found = Some(p.clone());
                    false
                })?;
                found.map_or(QueryOutcome::Inferred, QueryOutcome::CountermodelPartial)
            }
        })
    };
    Ok(match run(cost) {
        Ok(outcome) => outcome,
        Err(i) => {
            crate::dispatch::note_interrupt(&i);
            QueryOutcome::Unknown(i)
        }
    })
}

/// Brave (possibility) inference: does `F` hold in *some* characteristic
/// model? The Σ-side dual of the paper's cautious inference problems.
/// For PDSM, "holds" means value 1. A tripped budget surfaces as
/// [`Verdict::Unknown`].
pub fn brave_infers_formula(
    cfg: &SemanticsConfig,
    db: &impl AsPrepared,
    f: &Formula,
    cost: &mut Cost,
) -> Result<Verdict, Unsupported> {
    let _span = ddb_obs::span("witness.brave_infers_formula");
    db.with_prepared(|p| match cfg.id {
        SemanticsId::Pdsm => {
            cfg.check_applicable(p)?;
            let db = p.db();
            let value1 = crate::pdsm::encode_ge1(f, db.num_atoms());
            let mut found = false;
            let result = crate::pdsm::for_each_partial_stable(db, Some(&value1), cost, |p| {
                debug_assert_eq!(f.eval3(p), TruthValue::True);
                found = true;
                false
            });
            Ok(match result {
                Ok(()) => Verdict::from(found),
                Err(i) => {
                    crate::dispatch::note_interrupt(&i);
                    Verdict::Unknown(i)
                }
            })
        }
        _ => {
            // F holds somewhere iff ¬F is not cautiously inferred…
            // except in the empty-model-set case, where cautious inference
            // is vacuous and brave inference must be false.
            match cfg.has_model(p, cost)? {
                Verdict::False => return Ok(Verdict::False),
                Verdict::Unknown(i) => return Ok(Verdict::Unknown(i)),
                Verdict::True => {}
            }
            Ok(
                match explain_formula(cfg, p.db(), &f.clone().negated(), cost)? {
                    QueryOutcome::Unknown(i) => Verdict::Unknown(i),
                    out => Verdict::from(!out.is_inferred()),
                },
            )
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddb_logic::parse::{parse_formula, parse_program};
    use ddb_workloads::queries::random_formula;
    use ddb_workloads::random::{random_db, DbSpec};

    #[test]
    fn witnesses_falsify_and_belong() {
        for seed in 0..10 {
            let db = random_db(&DbSpec::deductive(5, 8), seed);
            let f = random_formula(5, 5, seed + 50);
            for id in SemanticsId::ALL {
                if id == SemanticsId::Pdsm {
                    continue; // checked separately below
                }
                let cfg = SemanticsConfig::new(id);
                let mut cost = Cost::new();
                let Ok(outcome) = explain_formula(&cfg, &db, &f, &mut cost) else {
                    continue;
                };
                let models = cfg.models(&db, &mut cost).unwrap();
                match outcome {
                    QueryOutcome::Inferred => {
                        assert!(models.iter().all(|m| f.eval(m)), "{id} seed {seed}");
                    }
                    QueryOutcome::Countermodel(m) => {
                        assert!(!f.eval(&m), "{id} seed {seed}: witness must falsify");
                        assert!(models.contains(&m), "{id} seed {seed}: witness must belong");
                    }
                    QueryOutcome::CountermodelPartial(_) | QueryOutcome::Unknown(_) => {
                        unreachable!("no budget installed")
                    }
                }
            }
        }
    }

    #[test]
    fn pdsm_witnesses() {
        let db = parse_program("a :- not b. b :- not a. c.").unwrap();
        let f = parse_formula("a | b", db.symbols()).unwrap();
        let cfg = SemanticsConfig::new(SemanticsId::Pdsm);
        let mut cost = Cost::new();
        match explain_formula(&cfg, &db, &f, &mut cost).unwrap() {
            QueryOutcome::CountermodelPartial(p) => {
                assert_ne!(f.eval3(&p), TruthValue::True);
                assert!(crate::pdsm::is_partial_stable(&db, &p, &mut cost).unwrap());
            }
            other => panic!("expected a partial countermodel, got {other:?}"),
        }
        let g = parse_formula("c", db.symbols()).unwrap();
        assert!(explain_formula(&cfg, &db, &g, &mut cost)
            .unwrap()
            .is_inferred());
    }

    #[test]
    fn brave_vs_cautious() {
        let db = parse_program("a | b.").unwrap();
        let fa = parse_formula("a", db.symbols()).unwrap();
        let fab = parse_formula("a & b", db.symbols()).unwrap();
        let mut cost = Cost::new();
        let egcwa = SemanticsConfig::new(SemanticsId::Egcwa);
        // a holds in some but not all minimal models.
        assert!(brave_infers_formula(&egcwa, &db, &fa, &mut cost)
            .unwrap()
            .definite());
        assert!(!egcwa
            .infers_formula(&db, &fa, &mut cost)
            .unwrap()
            .definite());
        // a ∧ b holds in no minimal model but in a GCWA model.
        assert!(!brave_infers_formula(&egcwa, &db, &fab, &mut cost)
            .unwrap()
            .definite());
        let gcwa = SemanticsConfig::new(SemanticsId::Gcwa);
        assert!(brave_infers_formula(&gcwa, &db, &fab, &mut cost)
            .unwrap()
            .definite());
    }

    #[test]
    fn brave_on_empty_model_set() {
        // No stable model: cautious inference is vacuous, brave is empty.
        let db = parse_program("a :- not a.").unwrap();
        let cfg = SemanticsConfig::new(SemanticsId::Dsm);
        let f = parse_formula("a", db.symbols()).unwrap();
        let mut cost = Cost::new();
        assert!(cfg.infers_formula(&db, &f, &mut cost).unwrap().definite());
        assert!(!brave_infers_formula(&cfg, &db, &f, &mut cost)
            .unwrap()
            .definite());
    }

    #[test]
    fn brave_matches_model_sets() {
        use ddb_workloads::queries::random_formula;
        for seed in 0..10 {
            let db = random_db(&DbSpec::positive(5, 8), seed);
            let f = random_formula(5, 5, seed + 77);
            for id in [
                SemanticsId::Egcwa,
                SemanticsId::Gcwa,
                SemanticsId::Ddr,
                SemanticsId::Dsm,
            ] {
                let cfg = SemanticsConfig::new(id);
                let mut cost = Cost::new();
                let models = cfg.models(&db, &mut cost).unwrap();
                let expected = models.iter().any(|m| f.eval(m));
                assert_eq!(
                    brave_infers_formula(&cfg, &db, &f, &mut cost).unwrap(),
                    expected,
                    "{id} seed {seed}"
                );
            }
        }
    }
}
