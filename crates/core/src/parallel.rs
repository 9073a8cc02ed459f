//! Component-parallel evaluation and batched queries.
//!
//! Two coarse-grained parallel surfaces, both built on the zero-dependency
//! worker pool ([`ddb_obs::run_indexed`]) and both **deterministic by
//! construction** — answers, model sets and oracle-call totals are
//! byte-identical at every [`SemanticsConfig::threads`] width:
//!
//! * **Island decomposition** (`run_islands`): the weakly-connected
//!   dependency islands of [`ddb_analysis::islands`] share no atom and no
//!   rule, so the database is their disjoint union and every semantics in
//!   the paper factors over it as a product. Model existence is then the
//!   conjunction of per-island existence, and each island is an
//!   independent job. The decomposition is taken *regardless* of the
//!   configured width (width only sets how many OS threads chew on the job
//!   list), there is **no short-circuiting** across islands, and verdicts
//!   and [`Cost`]s are folded strictly in island order.
//! * **Batched queries** ([`infers_formulas_batch`]): many formulas against
//!   one database share a single parse/classification/applicability pass;
//!   each formula is then an independent pool job whose `(Verdict, Cost)`
//!   comes back in submission order.
//!
//! Workers inherit the caller's ambient [`ddb_obs::Budget`] through the
//! cross-thread [`ddb_obs::BudgetHandle`]: deadlines and caps are shared
//! (split atomically, first-come first-served), a parent trip cancels
//! every worker, and counter totals merge back deterministically.

use crate::dispatch::{Ask, SemanticsConfig, Unsupported, Verdict};
use ddb_analysis::{project_slice, Prepared, RouteKind, Scope, Slice};
use ddb_logic::{Database, Formula};
use ddb_models::Cost;
use ddb_obs::{Governed, Interrupted};

/// Model existence over `parts`, the weakly-connected islands of `db` (as
/// the planner or the prepared memo computed them), evaluated on the
/// worker pool, each island at a tail-scope position of the plan.
///
/// Soundness: islands partition both atoms and rules, so a model of `db`
/// is exactly a union of models, one per island, for every semantics here
/// (the product admission of [`crate::slicing`]). Hence `db` has a model
/// iff every island does. A definitely-empty island decides the whole
/// query `False` even when sibling islands were interrupted; otherwise any
/// interrupted island makes the query `Unknown` (the first one in island
/// order is reported, independent of scheduling).
pub(crate) fn run_islands(
    cfg: &SemanticsConfig,
    db: &Database,
    parts: &[Slice],
    cost: &mut Cost,
) -> Governed<bool> {
    ddb_obs::counter_bump(RouteKind::Islands.counter(), 1);
    ddb_obs::counter_bump("route.islands.components", parts.len() as u64);
    let jobs: Vec<_> = parts
        .iter()
        .map(|island| {
            let (sub, _) = project_slice(db, island);
            move || {
                let mut c = Cost::new();
                let v = cfg.run(&Prepared::borrowed(&sub), Ask::Exists, Scope::Tail, &mut c);
                (v, c)
            }
        })
        .collect();
    let results = ddb_obs::run_indexed(cfg.threads, jobs);
    // Fold in island order: costs merge unconditionally (every job ran to
    // its own completion or trip), False beats Unknown, the first
    // interrupt in island order is the one reported.
    let mut all_have_models = true;
    let mut first_interrupt: Option<Interrupted> = None;
    for (v, c) in results {
        cost.merge(&c);
        match v {
            Ok(has) => all_have_models &= has,
            Err(i) => {
                first_interrupt.get_or_insert(i);
            }
        }
    }
    match first_interrupt {
        Some(i) if all_have_models => Err(i),
        _ => Ok(all_have_models),
    }
}

/// Decides [`SemanticsConfig::infers_formula`] for many formulas against
/// one database, sharing one [`Prepared`] memo — so a single
/// applicability/classification pass — and evaluating the formulas
/// concurrently on `cfg.threads` workers ([`SemanticsConfig::threads`]).
///
/// The result vector is index-aligned with `formulas` (workers return
/// indexed results; the pool re-assembles them in submission order), so the
/// output is byte-identical to a sequential loop at any width. Each job
/// runs with an inline (width-1) configuration — the parallelism budget is
/// spent across formulas, not nested inside one.
pub fn infers_formulas_batch(
    cfg: &SemanticsConfig,
    db: &Database,
    formulas: &[Formula],
) -> Result<Vec<(Verdict, Cost)>, Unsupported> {
    // Reject inapplicable semantics once, before spawning anything.
    let prepared = Prepared::borrowed(db);
    cfg.check_applicable(&prepared)?;
    ddb_obs::counter_bump("pool.batch.formulas", formulas.len() as u64);
    let job_cfg = cfg.clone().with_threads(1);
    let prepared = &prepared;
    let jobs: Vec<_> = formulas
        .iter()
        .map(|f| {
            let job_cfg = job_cfg.clone();
            move || {
                let mut c = Cost::new();
                let v = job_cfg.infers_formula(prepared, f, &mut c);
                (v, c)
            }
        })
        .collect();
    ddb_obs::run_indexed(cfg.threads, jobs)
        .into_iter()
        .map(|(v, c)| v.map(|v| (v, c)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::SemanticsId;
    use ddb_logic::parse::{parse_formula, parse_program};
    use ddb_obs::Budget;

    fn two_island_db() -> Database {
        parse_program("a | b. c :- a. c :- b. x | y. :- x, y.").unwrap()
    }

    #[test]
    fn island_route_answers_existence() {
        let db = two_island_db();
        for id in SemanticsId::ALL {
            for threads in [1, 2, 8] {
                let cfg = SemanticsConfig::new(id).with_threads(threads);
                let mut cost = Cost::new();
                let Ok(v) = cfg.has_model(&db, &mut cost) else {
                    continue; // DDR/PWS reject the negative constraint? (no negation here)
                };
                assert_eq!(v, true, "{id} at {threads} threads");
            }
        }
    }

    #[test]
    fn empty_island_decides_false() {
        // Second island is unsatisfiable: x|y forced, both forbidden.
        let db = parse_program("a | b. x | y. :- x. :- y.").unwrap();
        for threads in [1, 4] {
            let cfg = SemanticsConfig::new(SemanticsId::Dsm).with_threads(threads);
            let mut cost = Cost::new();
            assert_eq!(cfg.has_model(&db, &mut cost).unwrap(), false);
        }
    }

    #[test]
    fn island_counters_fire_at_every_width() {
        let db = two_island_db();
        for threads in [1, 2] {
            let cfg = SemanticsConfig::new(SemanticsId::Egcwa).with_threads(threads);
            let mut cost = Cost::new();
            let (_, rec) = ddb_obs::record(false, || cfg.has_model(&db, &mut cost).unwrap());
            assert!(
                rec.counters.get("route.islands") > 0,
                "decomposition must be taken at width {threads}"
            );
            if threads > 1 {
                // The recording reaches into the pool: every job the batch
                // dispatched ran, on a worker, under a `pool.job` span.
                let jobs = rec.counters.get("pool.jobs");
                assert!(jobs > 0, "width {threads} must fan out");
                assert_eq!(rec.counters.get("span.pool.job.calls"), jobs);
            }
        }
    }

    #[test]
    fn batch_matches_sequential_loop() {
        let db = two_island_db();
        let texts = ["c", "!c", "x | y", "a & x", "!(a & b)"];
        let formulas: Vec<Formula> = texts
            .iter()
            .map(|t| parse_formula(t, db.symbols()).unwrap())
            .collect();
        for id in SemanticsId::ALL {
            let seq_cfg = SemanticsConfig::new(id);
            let seq: Vec<_> = formulas
                .iter()
                .map(|f| {
                    let mut c = Cost::new();
                    let v = seq_cfg.infers_formula(&db, f, &mut c).unwrap();
                    (v, c.sat_calls)
                })
                .collect();
            for threads in [1, 3, 8] {
                let cfg = SemanticsConfig::new(id).with_threads(threads);
                let got = infers_formulas_batch(&cfg, &db, &formulas).unwrap();
                let got: Vec<_> = got.into_iter().map(|(v, c)| (v, c.sat_calls)).collect();
                assert_eq!(got, seq, "{id} at {threads} threads");
            }
        }
    }

    #[test]
    fn batch_rejects_inapplicable_semantics_up_front() {
        let db = parse_program("a :- not b.").unwrap();
        let f = parse_formula("a", db.symbols()).unwrap();
        let cfg = SemanticsConfig::new(SemanticsId::Ddr).with_threads(4);
        assert!(infers_formulas_batch(&cfg, &db, &[f]).is_err());
    }

    #[test]
    fn exhausted_budget_degrades_islands_to_unknown() {
        let db = two_island_db();
        let _g = Budget::unlimited().with_max_oracle_calls(0).install();
        let cfg = SemanticsConfig::new(SemanticsId::Egcwa).with_threads(2);
        let mut cost = Cost::new();
        let v = cfg.has_model(&db, &mut cost).unwrap();
        assert!(matches!(v, Verdict::Unknown(_)), "got {v}");
    }
}
