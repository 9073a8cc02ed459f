//! Magic-sets rewriting: goal-directed restriction and the guarded
//! program transform.
//!
//! The magic-sets transform (Bancilhon & Ramakrishnan) specializes a
//! program to one query: every rule is guarded by a *magic predicate*
//! recording that its head is demanded, and demand is propagated through
//! rule bodies along a sideways-information-passing order
//! ([`crate::sip`]). On the ground databases this workspace analyzes the
//! demand closure is computable statically, which yields two artifacts:
//!
//! * the **restriction** — the set of rules a magic-guarded evaluation
//!   could ever fire — is the query's demand closure
//!   ([`crate::slice::demand_closure`]): the backward relevance closure,
//!   *minus* dead rules (rules with a positive body atom outside the
//!   supportable fixpoint, [`crate::slice::supportable_atoms`]) when dead
//!   pruning is sound. It is sound exactly for minimal-model determined
//!   answers on **positive** databases: a rule whose positive body can
//!   never be derived never fires in any minimal model. With negation a
//!   dead body atom can still flip answers through `not`, so the planner's
//!   gate ([`crate::plan::prunes_dead`]) leaves pruning off there and the
//!   restriction is the relevance slice. The planner routes every
//!   inference query through this one closure (`RouteKind::Slice`).
//! * [`rewrite`] — the rewritten program itself ([`MagicProgram`]):
//!   `magic__`-prefixed seeds for the query atoms, one guarded variant
//!   per kept rule, and demand rules for positive bodies (SIP-ordered),
//!   negative bodies and disjunctive head siblings. This is the program
//!   `ddb rewrite` prints and `ddb explain` attaches to the slice plans of
//!   bound queries; execution answers on the projected restriction
//!   directly, which is equivalent and keeps the solver vocabulary small.
//!
//! **Admission** follows the per-semantics slicing rules
//! ([`crate::plan::admission`]): a dropped dead rule whose head is
//! demanded always blocks the split-closure side condition (its head
//! reads into the restriction), so the product route and dead pruning
//! never combine — the only admission that ever sees a pruned
//! restriction is `PositiveExact`, which is exactly the sound case.

use crate::adorn::split_predicate;
use crate::sip::choose_sip;
use crate::slice::Slice;
use ddb_logic::{Atom, Database};
use ddb_obs::json::Json;
use std::collections::BTreeSet;

/// The prefix of the reserved magic-predicate namespace. Atom names in
/// the *input* database starting with this prefix collide with the
/// rewrite's fresh predicates (lint `DDB018`).
pub const MAGIC_PREFIX: &str = "magic__";

/// The rewritten (magic-guarded) program, rendered as source lines.
#[derive(Clone, Debug)]
pub struct MagicProgram {
    /// Seed facts `magic__q.`, one per query atom, in query order.
    pub seeds: Vec<String>,
    /// The guarded rule variants and demand rules, in kept-rule order;
    /// within one source rule: the guarded variant, positive-body demand
    /// rules in SIP order, negative-body demand rules, then sibling-head
    /// demand rules.
    pub rules: Vec<String>,
    /// Input atom names that already live in the `magic__` namespace
    /// (lint `DDB018`), sorted.
    pub collisions: Vec<String>,
}

impl MagicProgram {
    /// The whole rewritten program as source text, seeds first.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in self.seeds.iter().chain(self.rules.iter()) {
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    /// JSON rendering for `ddb rewrite --json` / `ddb explain --json`.
    pub fn to_json(&self) -> Json {
        let arr = |xs: &[String]| Json::Arr(xs.iter().map(|s| Json::Str(s.clone())).collect());
        Json::obj([
            ("seeds", arr(&self.seeds)),
            ("rules", arr(&self.rules)),
            ("collisions", arr(&self.collisions)),
        ])
    }
}

/// Emits the magic-guarded rewrite of the kept rules of `restriction`
/// (the query's demand closure) for a query over `query_atoms`.
/// Deterministic: kept rules ascending, demand rules in SIP order within
/// each rule.
pub fn rewrite(db: &Database, query_atoms: &[Atom], restriction: &Slice) -> MagicProgram {
    let name = |a: Atom| db.symbols().name(a);
    let seeds = query_atoms
        .iter()
        .map(|&q| format!("{MAGIC_PREFIX}{}.", name(q)))
        .collect();
    let mut rules = Vec::new();
    for &i in &restriction.rules {
        let r = &db.rules()[i];
        let pos: Vec<&str> = r.body_pos().iter().map(|&b| name(b)).collect();
        let neg: Vec<&str> = r.body_neg().iter().map(|&b| name(b)).collect();
        if r.is_integrity() {
            // Constraints are copied verbatim: they prune, not derive, so
            // demand does not guard them.
            rules.push(render_rule(&[], &pos, &neg));
            continue;
        }
        let heads: Vec<&str> = r.head().iter().map(|&h| name(h)).collect();
        let guard = format!("{MAGIC_PREFIX}{}", heads[0]);
        let bound: BTreeSet<String> = split_predicate(heads[0])
            .1
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let body_args: Vec<Vec<String>> = pos
            .iter()
            .map(|b| {
                split_predicate(b)
                    .1
                    .iter()
                    .map(|s| (*s).to_owned())
                    .collect()
            })
            .collect();
        let order = choose_sip(&bound, &body_args);
        let sip_pos: Vec<&str> = order.iter().map(|&j| pos[j]).collect();
        // The guarded variant: original heads, the magic guard, then the
        // positive body in SIP order and the negative body.
        let mut guarded_body: Vec<&str> = vec![guard.as_str()];
        guarded_body.extend(&sip_pos);
        rules.push(render_rule(&heads, &guarded_body, &neg));
        // Demand for each positive body atom under the SIP prefix that
        // precedes it.
        for (j, &b) in sip_pos.iter().enumerate() {
            let mut body: Vec<&str> = vec![guard.as_str()];
            body.extend(&sip_pos[..j]);
            rules.push(render_demand(b, &body));
        }
        // Negated atoms are demanded once the whole positive body is
        // available (they are evaluated last).
        for &b in &neg {
            let mut body: Vec<&str> = vec![guard.as_str()];
            body.extend(&sip_pos);
            rules.push(render_demand(b, &body));
        }
        // Demanding one head of a disjunctive rule demands its siblings:
        // the rule can establish the query head by establishing a sibling
        // in some models.
        for &h in &heads[1..] {
            rules.push(render_demand(h, &[guard.as_str()]));
        }
    }
    let mut collisions: Vec<String> = db
        .symbols()
        .atoms()
        .map(name)
        .filter(|n| n.starts_with(MAGIC_PREFIX))
        .map(str::to_owned)
        .collect();
    collisions.sort();
    MagicProgram {
        seeds,
        rules,
        collisions,
    }
}

/// Renders `head1 | head2 :- body1, body2, not neg1.` with the usual
/// degenerate forms (facts, constraints).
fn render_rule(heads: &[&str], body_pos: &[&str], body_neg: &[&str]) -> String {
    let mut out = String::new();
    out.push_str(&heads.join(" | "));
    if !body_pos.is_empty() || !body_neg.is_empty() {
        if !heads.is_empty() {
            out.push(' ');
        }
        out.push_str(":- ");
        let body: Vec<String> = body_pos
            .iter()
            .map(|b| (*b).to_owned())
            .chain(body_neg.iter().map(|b| format!("not {b}")))
            .collect();
        out.push_str(&body.join(", "));
    }
    out.push('.');
    out
}

fn render_demand(target: &str, body: &[&str]) -> String {
    let head = format!("{MAGIC_PREFIX}{target}");
    render_rule(&[head.as_str()], body, &[])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepared::Prepared;
    use crate::slice::{demand_closure, relevant_slice};
    use ddb_logic::Rule;

    fn atom(db: &Database, name: &str) -> Atom {
        db.symbols()
            .atoms()
            .find(|&a| db.symbols().name(a) == name)
            .expect("atom exists")
    }

    /// Ground databases with parenthesized atom names come from the
    /// datalog grounder, not the propositional parser, so tests intern
    /// them directly.
    fn ground_db(rules: &[(&[&str], &[&str])]) -> Database {
        let mut db = Database::with_fresh_atoms(0);
        for (head, body) in rules {
            let h: Vec<Atom> = head.iter().map(|n| db.symbols_mut().intern(n)).collect();
            let b: Vec<Atom> = body.iter().map(|n| db.symbols_mut().intern(n)).collect();
            db.add_rule(Rule::new(h, b, Vec::<Atom>::new()));
        }
        db
    }

    #[test]
    fn dead_rules_are_pruned_and_block_the_split() {
        // Rule 1 demands r(b) but its body atom ghost(x) is unsupportable,
        // so it can never fire: pruning keeps the restriction to the fact.
        let db = ground_db(&[
            (&["r(b)"], &[]),
            (&["r(b)"], &["ghost(x)"]),
            (&["q(z)"], &[]),
        ]);
        let q = [atom(&db, "r(b)")];
        let m = demand_closure(&Prepared::borrowed(&db), &q, true);
        assert_eq!(m.rules, vec![0]);
        assert_eq!(m.dropped_dead, vec![1]);
        // The dropped rule's head reads the restriction, so it must not
        // be reported split-closed (product would be unsound here).
        assert!(!m.split_closed);
        assert_eq!(m.blocking_rule, Some(1));
        // ghost(x) never joined the demand set.
        assert!(!m.in_slice.contains(atom(&db, "ghost(x)")));
    }

    #[test]
    fn pruning_beats_the_plain_slice() {
        // The relevance slice chases the dead rule's body; the magic
        // restriction does not.
        let db = ground_db(&[
            (&["r(b)"], &[]),
            (&["r(b)"], &["ghost(x)"]),
            (&["ghost(x)"], &["ghost(y)"]),
        ]);
        let q = [atom(&db, "r(b)")];
        let plain = relevant_slice(&db, &q);
        let m = demand_closure(&Prepared::borrowed(&db), &q, true);
        assert_eq!(plain.rules, vec![0, 1, 2]);
        assert_eq!(m.rules, vec![0]);
        assert!(m.rules.len() < plain.rules.len());
    }

    #[test]
    fn rewrite_emits_seeds_guards_and_demands() {
        let db = ground_db(&[
            (&["e(a,b)"], &[]),
            (&["r(b)"], &["r(a)", "e(a,b)"]),
            (&["r(a)"], &[]),
        ]);
        let q = [atom(&db, "r(b)")];
        let m = demand_closure(&Prepared::borrowed(&db), &q, true);
        let p = rewrite(&db, &q, &m);
        assert_eq!(p.seeds, vec!["magic__r(b)."]);
        assert!(p.collisions.is_empty());
        // Rule 0 (the fact e(a,b)) gets a guarded variant and no demands.
        assert!(p.rules.contains(&"e(a,b) :- magic__e(a,b).".to_owned()));
        // Rule 1: guarded variant with the SIP order (e(a,b) shares the
        // bound constant b with the head, so it goes first), demand for
        // e(a,b) from the bare guard, demand for r(a) after e(a,b).
        assert!(
            p.rules
                .contains(&"r(b) :- magic__r(b), e(a,b), r(a).".to_owned()),
            "{:?}",
            p.rules
        );
        assert!(p
            .rules
            .contains(&"magic__e(a,b) :- magic__r(b).".to_owned()));
        assert!(p
            .rules
            .contains(&"magic__r(a) :- magic__r(b), e(a,b).".to_owned()));
        let text = p.render();
        assert!(text.starts_with("magic__r(b).\n"), "{text}");
    }

    #[test]
    fn disjunctive_heads_demand_their_siblings() {
        let db = ground_db(&[(&["p(a)", "p(b)"], &[]), (&["q(a)"], &["p(a)"])]);
        let q = [atom(&db, "q(a)")];
        let m = demand_closure(&Prepared::borrowed(&db), &q, true);
        let p = rewrite(&db, &q, &m);
        assert!(
            p.rules.contains(&"p(a) | p(b) :- magic__p(a).".to_owned()),
            "{:?}",
            p.rules
        );
        assert!(p.rules.contains(&"magic__p(b) :- magic__p(a).".to_owned()));
    }

    #[test]
    fn existing_magic_names_are_collisions() {
        let db = ground_db(&[(&["magic__p(a)"], &[]), (&["q(a)"], &["magic__p(a)"])]);
        let q = [atom(&db, "q(a)")];
        let m = demand_closure(&Prepared::borrowed(&db), &q, true);
        let p = rewrite(&db, &q, &m);
        assert_eq!(p.collisions, vec!["magic__p(a)".to_owned()]);
    }
}
