//! CDCL SAT solver.
//!
//! A compact but complete conflict-driven clause-learning solver in the
//! MiniSat lineage: two-watched-literal propagation, first-UIP learning,
//! VSIDS with phase saving, Luby restarts, activity-based learnt-clause
//! reduction, and incremental solving under assumptions.
//!
//! The solver's default polarity is *false*, so discovered models are biased
//! toward few true atoms — a deliberate choice: the minimal-model loops in
//! `ddb-models` converge faster when the oracle starts low.

use crate::heap::VarHeap;
use ddb_logic::cnf::Cnf;
use ddb_logic::{Atom, Interpretation, Literal};
use ddb_obs::budget::{self, Governed, Interrupted};

/// Outcome of a `solve` call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveResult {
    /// A satisfying assignment was found; read it with [`Solver::model`].
    Sat,
    /// No satisfying assignment exists (under the given assumptions).
    Unsat,
}

impl SolveResult {
    /// `true` iff satisfiable.
    pub fn is_sat(self) -> bool {
        matches!(self, SolveResult::Sat)
    }
}

/// Solver statistics. `solves` counts oracle invocations — the quantity the
/// complexity experiments report.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stats {
    /// Number of `solve`/`solve_with_assumptions` calls.
    pub solves: u64,
    /// Decisions made.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Learnt clauses currently retained.
    pub learnts: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Literals removed from learnt clauses by self-subsumption
    /// minimization.
    pub minimized_literals: u64,
    /// High-water mark of total clauses held (problem + learnt), across
    /// the solver's lifetime. A gauge, not a monotone total.
    pub max_clauses: u64,
}

impl std::ops::AddAssign for Stats {
    /// Aggregate statistics across solvers or runs: monotone totals add,
    /// while the gauges (`learnts`, `max_clauses`) take the maximum —
    /// summing high-water marks would overstate peak memory pressure.
    fn add_assign(&mut self, rhs: Stats) {
        self.solves += rhs.solves;
        self.decisions += rhs.decisions;
        self.propagations += rhs.propagations;
        self.conflicts += rhs.conflicts;
        self.restarts += rhs.restarts;
        self.minimized_literals += rhs.minimized_literals;
        self.learnts = self.learnts.max(rhs.learnts);
        self.max_clauses = self.max_clauses.max(rhs.max_clauses);
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum LBool {
    True,
    False,
    Undef,
}

#[derive(Clone, Debug)]
struct Clause {
    lits: Vec<Literal>,
    learnt: bool,
    deleted: bool,
    activity: f64,
}

#[derive(Clone, Copy, Debug)]
struct Watch {
    cref: u32,
    blocker: Literal,
}

const VAR_DECAY: f64 = 0.95;
const CLA_DECAY: f64 = 0.999;
const RESTART_BASE: u64 = 100;

/// A CDCL SAT solver over the `ddb-logic` literal representation.
///
/// Typical use:
///
/// ```
/// use ddb_logic::{Atom, cnf::CnfBuilder};
/// use ddb_sat::Solver;
/// let (a, b) = (Atom::new(0), Atom::new(1));
/// let mut solver = Solver::new();
/// solver.ensure_vars(2);
/// solver.add_clause(&[a.pos(), b.pos()]);
/// solver.add_clause(&[a.neg()]);
/// assert!(solver.solve()?.is_sat());
/// assert!(solver.model().contains(b));
/// # Ok::<(), ddb_obs::Interrupted>(())
/// ```
///
/// Every `solve` call is governed by the thread's installed
/// [`ddb_obs::Budget`] (if any): the conflict loop charges the budget and
/// the call returns `Err(`[`Interrupted`]`)` when a deadline, conflict
/// cap, or cancel flag trips. The solver backtracks to the root level on
/// that path, so it stays reusable — re-solve after lifting the budget
/// and the answer is unaffected.
#[derive(Clone, Debug)]
pub struct Solver {
    clauses: Vec<Clause>,
    watches: Vec<Vec<Watch>>,
    assign: Vec<LBool>,
    level: Vec<u32>,
    reason: Vec<Option<u32>>,
    trail: Vec<Literal>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    order: VarHeap,
    phase: Vec<bool>,
    seen: Vec<bool>,
    unsat: bool,
    num_vars: usize,
    num_learnts: usize,
    max_learnts: f64,
    minimize_learnt: bool,
    stats: Stats,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            clauses: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            order: VarHeap::new(),
            phase: Vec::new(),
            seen: Vec::new(),
            unsat: false,
            num_vars: 0,
            num_learnts: 0,
            max_learnts: 0.0,
            minimize_learnt: true,
            stats: Stats::default(),
        }
    }

    /// Enables or disables learnt-clause self-subsumption minimization
    /// (on by default; the oracle-ablation bench switches it off).
    pub fn set_clause_minimization(&mut self, enabled: bool) {
        self.minimize_learnt = enabled;
    }

    /// Builds a solver from a CNF formula.
    pub fn from_cnf(cnf: &Cnf) -> Self {
        let mut s = Self::new();
        s.ensure_vars(cnf.num_vars);
        for clause in &cnf.clauses {
            s.add_clause(clause);
        }
        s
    }

    /// Makes sure variables `0..n` exist.
    pub fn ensure_vars(&mut self, n: usize) {
        if n <= self.num_vars {
            return;
        }
        self.num_vars = n;
        self.watches.resize(2 * n, Vec::new());
        self.assign.resize(n, LBool::Undef);
        self.level.resize(n, 0);
        self.reason.resize(n, None);
        self.activity.resize(n, 0.0);
        self.phase.resize(n, false);
        self.seen.resize(n, false);
        self.order.grow(n);
        for v in 0..n as u32 {
            if self.assign[v as usize] == LBool::Undef {
                self.order.insert(v, &self.activity);
            }
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Statistics so far.
    pub fn stats(&self) -> Stats {
        self.stats
    }

    /// Reset all statistics to zero without touching solver state (clauses,
    /// learnt database, and assignments survive). Callers that reuse one
    /// solver across logically separate oracle queries use this to get
    /// per-query accounting instead of cumulative-by-accident totals.
    pub fn reset_stats(&mut self) {
        self.stats = Stats::default();
        // `learnts` is a live gauge, not an event count: re-seed it from
        // the solver's current state so the next report stays truthful.
        self.stats.learnts = self.num_learnts as u64;
        self.stats.max_clauses = self.clauses.len() as u64;
    }

    #[inline]
    fn lit_value(&self, l: Literal) -> LBool {
        match self.assign[l.atom().index()] {
            LBool::Undef => LBool::Undef,
            LBool::True => {
                if l.is_positive() {
                    LBool::True
                } else {
                    LBool::False
                }
            }
            LBool::False => {
                if l.is_positive() {
                    LBool::False
                } else {
                    LBool::True
                }
            }
        }
    }

    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    /// Adds a clause. May be called between `solve` calls; any leftover
    /// search state is backtracked first (which invalidates a previously
    /// read model — call [`Solver::model`] before adding more clauses).
    /// Returns `false` if the solver became trivially unsatisfiable.
    pub fn add_clause(&mut self, lits: &[Literal]) -> bool {
        self.cancel_until(0);
        if self.unsat {
            return false;
        }
        if let Some(max) = lits.iter().map(|l| l.atom().index()).max() {
            self.ensure_vars(max + 1);
        }
        // Normalize: sort, dedup, drop tautologies and level-0-false lits.
        let mut c: Vec<Literal> = lits.to_vec();
        c.sort_unstable();
        c.dedup();
        let mut i = 0;
        while i + 1 < c.len() {
            if c[i].atom() == c[i + 1].atom() {
                return true; // x ∨ ¬x — tautology
            }
            i += 1;
        }
        c.retain(|&l| self.lit_value(l) != LBool::False);
        if c.iter().any(|&l| self.lit_value(l) == LBool::True) {
            return true; // already satisfied at level 0
        }
        match c.len() {
            0 => {
                self.unsat = true;
                false
            }
            1 => {
                if !self.enqueue(c[0], None) {
                    self.unsat = true;
                    return false;
                }
                if self.propagate().is_some() {
                    self.unsat = true;
                    return false;
                }
                true
            }
            _ => {
                self.attach_clause(c, false);
                true
            }
        }
    }

    fn attach_clause(&mut self, lits: Vec<Literal>, learnt: bool) -> u32 {
        debug_assert!(lits.len() >= 2);
        let cref = self.clauses.len() as u32;
        self.watches[lits[0].code()].push(Watch {
            cref,
            blocker: lits[1],
        });
        self.watches[lits[1].code()].push(Watch {
            cref,
            blocker: lits[0],
        });
        if learnt {
            self.num_learnts += 1;
        }
        self.clauses.push(Clause {
            lits,
            learnt,
            deleted: false,
            activity: 0.0,
        });
        cref
    }

    /// Assigns `l` true with optional reason clause. Returns `false` on
    /// conflict with the current assignment.
    fn enqueue(&mut self, l: Literal, reason: Option<u32>) -> bool {
        match self.lit_value(l) {
            LBool::True => true,
            LBool::False => false,
            LBool::Undef => {
                let v = l.atom().index();
                self.assign[v] = if l.is_positive() {
                    LBool::True
                } else {
                    LBool::False
                };
                self.level[v] = self.decision_level() as u32;
                self.reason[v] = reason;
                self.phase[v] = l.is_positive();
                self.trail.push(l);
                true
            }
        }
    }

    /// Unit propagation; returns the conflicting clause reference, if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = p.complement();
            // Take the watch list for false_lit; rebuild as we go.
            let mut ws = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut keep = 0usize;
            let mut conflict = None;
            let mut wi = 0usize;
            while wi < ws.len() {
                let w = ws[wi];
                wi += 1;
                // Fast path: blocker already true.
                if self.lit_value(w.blocker) == LBool::True {
                    ws[keep] = w;
                    keep += 1;
                    continue;
                }
                let cref = w.cref as usize;
                if self.clauses[cref].deleted {
                    continue; // lazily drop watches of deleted clauses
                }
                // Make sure false_lit is at position 1.
                {
                    let lits = &mut self.clauses[cref].lits;
                    if lits[0] == false_lit {
                        lits.swap(0, 1);
                    }
                    debug_assert_eq!(lits[1], false_lit);
                }
                let first = self.clauses[cref].lits[0];
                if first != w.blocker && self.lit_value(first) == LBool::True {
                    ws[keep] = Watch {
                        cref: w.cref,
                        blocker: first,
                    };
                    keep += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let mut moved = false;
                for k in 2..self.clauses[cref].lits.len() {
                    let lk = self.clauses[cref].lits[k];
                    if self.lit_value(lk) != LBool::False {
                        self.clauses[cref].lits.swap(1, k);
                        self.watches[lk.code()].push(Watch {
                            cref: w.cref,
                            blocker: first,
                        });
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Clause is unit or conflicting.
                ws[keep] = Watch {
                    cref: w.cref,
                    blocker: first,
                };
                keep += 1;
                if self.lit_value(first) == LBool::False {
                    // Conflict: keep the remaining watches and bail out.
                    while wi < ws.len() {
                        ws[keep] = ws[wi];
                        keep += 1;
                        wi += 1;
                    }
                    self.qhead = self.trail.len();
                    conflict = Some(w.cref);
                } else {
                    let ok = self.enqueue(first, Some(w.cref));
                    debug_assert!(ok);
                }
                if conflict.is_some() {
                    break;
                }
            }
            ws.truncate(keep);
            self.watches[false_lit.code()] = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    fn bump_var(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.update(v as u32, &self.activity);
    }

    fn bump_clause(&mut self, c: usize) {
        self.clauses[c].activity += self.cla_inc;
        if self.clauses[c].activity > 1e20 {
            for cl in &mut self.clauses {
                cl.activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backtrack level. A malformed implication
    /// graph (impossible from correct inputs) surfaces as an
    /// [`Interrupted`] invariant error instead of a panic, with the
    /// analysis bookkeeping cleaned up so the solver can be reset.
    fn analyze(&mut self, mut confl: u32) -> Governed<(Vec<Literal>, usize)> {
        let mut learnt: Vec<Literal> = Vec::new();
        let mut counter = 0usize;
        let mut p: Option<Literal> = None;
        let mut index = self.trail.len();
        let mut to_clear: Vec<usize> = Vec::new();
        let current_level = self.decision_level() as u32;

        loop {
            self.bump_clause(confl as usize);
            let lits = self.clauses[confl as usize].lits.clone();
            for &q in lits.iter() {
                if Some(q) == p {
                    continue;
                }
                let v = q.atom().index();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    to_clear.push(v);
                    self.bump_var(v);
                    if self.level[v] >= current_level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select next trail literal to expand.
            let bail = |this: &mut Self, what: &str| {
                for &v in &to_clear {
                    this.seen[v] = false;
                }
                Interrupted::invariant(what)
            };
            let lit = loop {
                if index == 0 {
                    return Err(bail(self, "conflict analysis ran off the trail"));
                }
                index -= 1;
                if self.seen[self.trail[index].atom().index()] {
                    break self.trail[index];
                }
            };
            let v = lit.atom().index();
            self.seen[v] = false;
            if counter == 0 {
                return Err(bail(self, "conflict analysis lost its literal count"));
            }
            counter -= 1;
            if counter == 0 {
                p = Some(lit);
                break;
            }
            confl = match self.reason[v] {
                Some(r) => r,
                None => return Err(bail(self, "non-decision literal lacks a reason")),
            };
            p = Some(lit);
        }
        let uip = match p {
            Some(l) => l.complement(),
            None => {
                for v in to_clear {
                    self.seen[v] = false;
                }
                return Err(Interrupted::invariant("conflict analysis found no UIP"));
            }
        };
        learnt.insert(0, uip);

        // Self-subsumption minimization (MiniSat's "basic" mode): a
        // non-asserting literal is redundant if its reason clause's other
        // literals are all already in the learnt clause (seen) or at
        // level 0. Sound because implication-graph reasons point strictly
        // earlier in the trail, so removal chains ground out.
        if self.minimize_learnt && learnt.len() > 1 {
            let mut keep = 1usize;
            for i in 1..learnt.len() {
                let v = learnt[i].atom().index();
                let redundant = match self.reason[v] {
                    None => false,
                    Some(cref) => self.clauses[cref as usize].lits.iter().all(|&q| {
                        let qv = q.atom().index();
                        qv == v || self.seen[qv] || self.level[qv] == 0
                    }),
                };
                if redundant {
                    self.stats.minimized_literals += 1;
                } else {
                    learnt[keep] = learnt[i];
                    keep += 1;
                }
            }
            learnt.truncate(keep);
        }

        // Backtrack level = max level among the non-asserting literals.
        let mut blevel = 0usize;
        let mut max_i = 1usize;
        for (i, &l) in learnt.iter().enumerate().skip(1) {
            let lv = self.level[l.atom().index()] as usize;
            if lv > blevel {
                blevel = lv;
                max_i = i;
            }
        }
        if learnt.len() > 1 {
            learnt.swap(1, max_i);
        }
        for v in to_clear {
            self.seen[v] = false;
        }
        Ok((learnt, blevel))
    }

    fn cancel_until(&mut self, level: usize) {
        if self.decision_level() <= level {
            return;
        }
        let bound = self.trail_lim[level];
        for i in (bound..self.trail.len()).rev() {
            let v = self.trail[i].atom().index();
            self.assign[v] = LBool::Undef;
            self.reason[v] = None;
            self.order.insert(v as u32, &self.activity);
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(level);
        self.qhead = bound;
    }

    fn reduce_db(&mut self) {
        // Remove the lowest-activity half of the learnt clauses, sparing
        // clauses that are reasons for current assignments.
        let mut learnt_refs: Vec<usize> = (0..self.clauses.len())
            .filter(|&i| {
                let c = &self.clauses[i];
                c.learnt && !c.deleted && !self.is_locked(i)
            })
            .collect();
        learnt_refs.sort_by(|&a, &b| {
            self.clauses[a]
                .activity
                .partial_cmp(&self.clauses[b].activity)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let drop_count = learnt_refs.len() / 2;
        for &i in learnt_refs.iter().take(drop_count) {
            self.clauses[i].deleted = true;
            self.num_learnts -= 1;
        }
    }

    fn is_locked(&self, cref: usize) -> bool {
        let first = self.clauses[cref].lits[0];
        self.reason[first.atom().index()] == Some(cref as u32)
            && self.lit_value(first) == LBool::True
    }

    /// Luby sequence (1, 1, 2, 1, 1, 2, 4, …), 0-indexed.
    fn luby(mut i: u64) -> u64 {
        // Find the finite subsequence that contains index i and the size of
        // that subsequence (MiniSat's `luby(2, i)`).
        let mut size = 1u64;
        let mut seq = 0u32;
        while size < i + 1 {
            seq += 1;
            size = 2 * size + 1;
        }
        while size - 1 != i {
            size = (size - 1) / 2;
            seq -= 1;
            i %= size;
        }
        1u64 << seq
    }

    /// Solves without assumptions. `Err` means the installed
    /// [`ddb_obs::Budget`] (if any) tripped before an answer was found;
    /// the solver is backtracked to the root level and stays reusable.
    pub fn solve(&mut self) -> Governed<SolveResult> {
        self.solve_with_assumptions(&[])
    }

    /// Solves under the given assumption literals. The assignment found (if
    /// SAT) satisfies all clauses and all assumptions. The solver remains
    /// usable afterwards: learnt clauses persist, assumptions do not.
    ///
    /// Each call charges one oracle call (and each conflict one conflict)
    /// against the thread's installed [`ddb_obs::Budget`]; a tripped
    /// budget surfaces as `Err(`[`Interrupted`]`)` with the solver
    /// restored to its quiescent root state.
    ///
    /// Each call increments `stats().solves` by exactly one and reports the
    /// per-call deltas (`sat.solves`, `sat.decisions`, `sat.propagations`,
    /// `sat.conflicts`) and the clause high-water mark (`sat.clauses.peak`)
    /// to the thread's `ddb-obs` recorder, runs under a `sat.solve` trace
    /// span, and records the per-call wall time, conflicts, and
    /// propagations into the `sat.solve.{ns,conflicts,propagations}`
    /// histograms.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Literal]) -> Governed<SolveResult> {
        let span = ddb_obs::span("sat.solve");
        self.stats.solves += 1;
        let before = self.stats;
        let result = self.solve_with_assumptions_inner(assumptions);
        if result.is_err() {
            // Interrupted mid-search: backtrack to the root so learnt
            // clauses survive but no partial assignment leaks out.
            self.cancel_until(0);
        }
        self.stats.max_clauses = self.stats.max_clauses.max(self.clauses.len() as u64);
        ddb_obs::counter_bump("sat.solves", 1);
        ddb_obs::counter_bump("sat.decisions", self.stats.decisions - before.decisions);
        ddb_obs::counter_bump(
            "sat.propagations",
            self.stats.propagations - before.propagations,
        );
        ddb_obs::counter_bump("sat.conflicts", self.stats.conflicts - before.conflicts);
        ddb_obs::counter_bump_max("sat.clauses.peak", self.stats.max_clauses);
        ddb_obs::hist_record("sat.solve.ns", span.elapsed_ns());
        ddb_obs::hist_record(
            "sat.solve.conflicts",
            self.stats.conflicts - before.conflicts,
        );
        ddb_obs::hist_record(
            "sat.solve.propagations",
            self.stats.propagations - before.propagations,
        );
        result
    }

    fn solve_with_assumptions_inner(&mut self, assumptions: &[Literal]) -> Governed<SolveResult> {
        budget::charge_oracle_call()?;
        if self.unsat {
            return Ok(SolveResult::Unsat);
        }
        for l in assumptions {
            self.ensure_vars(l.atom().index() + 1);
        }
        self.cancel_until(0);
        if self.propagate().is_some() {
            self.unsat = true;
            return Ok(SolveResult::Unsat);
        }

        self.max_learnts = (self.clauses.len() as f64 / 3.0).max(1000.0);
        let mut conflicts_since_restart = 0u64;
        let mut restart_budget = RESTART_BASE * Self::luby(self.stats.restarts);

        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_since_restart += 1;
                budget::charge_conflict()?;
                if self.decision_level() == 0 {
                    self.unsat = true;
                    return Ok(SolveResult::Unsat);
                }
                let (learnt, blevel) = self.analyze(confl)?;
                self.cancel_until(blevel);
                if learnt.len() == 1 {
                    let ok = self.enqueue(learnt[0], None);
                    debug_assert!(ok, "asserting unit must be enqueuable after backtrack");
                } else {
                    let cref = self.attach_clause(learnt, true);
                    self.bump_clause(cref as usize);
                    let first = self.clauses[cref as usize].lits[0];
                    let ok = self.enqueue(first, Some(cref));
                    debug_assert!(ok, "asserting literal must be enqueuable");
                }
                self.var_inc /= VAR_DECAY;
                self.cla_inc /= CLA_DECAY;
                self.stats.learnts = self.num_learnts as u64;
            } else {
                // No conflict. A decision (or restart) is about to happen:
                // cheap governance checkpoint for conflict-free search.
                budget::checkpoint()?;
                if conflicts_since_restart >= restart_budget {
                    self.stats.restarts += 1;
                    conflicts_since_restart = 0;
                    restart_budget = RESTART_BASE * Self::luby(self.stats.restarts);
                    self.cancel_until(0);
                    continue;
                }
                if self.num_learnts as f64 > self.max_learnts {
                    self.reduce_db();
                    self.max_learnts *= 1.5;
                }
                // Re-assert assumptions, then decide.
                let mut next: Option<Literal> = None;
                let mut assumption_conflict = false;
                while self.decision_level() < assumptions.len() {
                    let p = assumptions[self.decision_level()];
                    match self.lit_value(p) {
                        LBool::True => {
                            // Already satisfied: open a dummy level.
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => {
                            assumption_conflict = true;
                            break;
                        }
                        LBool::Undef => {
                            next = Some(p);
                            break;
                        }
                    }
                }
                if assumption_conflict {
                    self.cancel_until(0);
                    return Ok(SolveResult::Unsat);
                }
                let decision = match next {
                    Some(p) => Some(p),
                    None => {
                        // VSIDS decision.
                        let mut pick = None;
                        while let Some(v) = self.order.pop_max(&self.activity) {
                            if self.assign[v as usize] == LBool::Undef {
                                pick = Some(v);
                                break;
                            }
                        }
                        pick.map(|v| Literal::with_sign(Atom::new(v), self.phase[v as usize]))
                    }
                };
                match decision {
                    None => {
                        // All variables assigned: SAT.
                        return Ok(SolveResult::Sat);
                    }
                    Some(p) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let ok = self.enqueue(p, None);
                        debug_assert!(ok);
                    }
                }
            }
        }
    }

    /// Search-free refutation probe: does unit propagation plus
    /// failed-literal lookahead refute the formula under `assumptions`?
    /// Enqueues each assumption at its own decision level with BCP in
    /// between, then repeatedly tests every still-undefined variable in
    /// both polarities by propagation alone — a polarity that conflicts
    /// forces the opposite literal, and the forced units feed back into
    /// the lookahead until fixpoint, a conflict, or a falsified
    /// assumption.
    ///
    /// This is the incremental analogue of [`Solver::add_clause`]
    /// returning `false` on a fresh solver: there the context lives in
    /// level-0 units (including units *learnt* by earlier solves on that
    /// solver), so a doomed clause arrives already falsified. When the
    /// same context is expressed as assumption-guarded clauses the
    /// level-0 trail stays empty, so the probe re-derives those forced
    /// units under the assumptions instead. Incremental enumerators call
    /// it to skip a final propagation-decided UNSAT call. No oracle call
    /// or conflict is charged against the budget, nothing is learnt, and
    /// the solver is left quiescent.
    pub fn refuted_by_propagation(&mut self, assumptions: &[Literal]) -> bool {
        if self.unsat {
            return true;
        }
        for l in assumptions {
            self.ensure_vars(l.atom().index() + 1);
        }
        self.cancel_until(0);
        if self.propagate().is_some() {
            self.unsat = true;
            return true;
        }
        let mut refuted = false;
        for &p in assumptions {
            match self.lit_value(p) {
                LBool::True => continue,
                LBool::False => {
                    refuted = true;
                    break;
                }
                LBool::Undef => {
                    self.trail_lim.push(self.trail.len());
                    let ok = self.enqueue(p, None);
                    debug_assert!(ok, "undefined assumption must be enqueuable");
                    if self.propagate().is_some() {
                        refuted = true;
                        break;
                    }
                }
            }
        }
        if !refuted {
            refuted = self.failed_literal_refutes();
        }
        self.cancel_until(0);
        refuted
    }

    /// Failed-literal lookahead at the current (assumption) level: probes
    /// each undefined variable in both polarities with BCP only. Both
    /// polarities conflicting refutes; one conflicting forces the other,
    /// which is enqueued at the current level and propagated, and the
    /// sweep restarts until no new units appear. Caller cleans up with
    /// `cancel_until`.
    fn failed_literal_refutes(&mut self) -> bool {
        let base = self.decision_level();
        loop {
            let mut forced_any = false;
            for v in 0..self.num_vars as u32 {
                if self.assign[v as usize] != LBool::Undef {
                    continue;
                }
                let probe = |s: &mut Self, lit: Literal| {
                    s.trail_lim.push(s.trail.len());
                    let ok = s.enqueue(lit, None);
                    debug_assert!(ok, "undefined probe literal must be enqueuable");
                    let conflict = s.propagate().is_some();
                    s.cancel_until(base);
                    conflict
                };
                let pos_fails = probe(self, Atom::new(v).pos());
                let neg_fails = probe(self, Atom::new(v).neg());
                if pos_fails && neg_fails {
                    return true;
                }
                if pos_fails != neg_fails {
                    // Exactly one polarity failed: the other is forced.
                    let forced = Literal::with_sign(Atom::new(v), !pos_fails);
                    let ok = self.enqueue(forced, None);
                    debug_assert!(ok, "forced literal must be enqueuable");
                    if self.propagate().is_some() {
                        return true;
                    }
                    forced_any = true;
                }
            }
            if !forced_any {
                return false;
            }
        }
    }

    /// The satisfying assignment of the last successful `solve`, projected
    /// onto all variables. Call only after a `Sat` result, before adding
    /// clauses or re-solving.
    pub fn model(&self) -> Interpretation {
        let mut m = Interpretation::empty(self.num_vars);
        for v in 0..self.num_vars {
            if self.assign[v] == LBool::True {
                m.insert(Atom::new(v as u32));
            }
        }
        m
    }

    /// The value assigned to `atom` in the current model (`None` when
    /// unassigned — cannot happen right after a `Sat` result).
    pub fn value(&self, atom: Atom) -> Option<bool> {
        match self.assign[atom.index()] {
            LBool::True => Some(true),
            LBool::False => Some(false),
            LBool::Undef => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(i: u32, pos: bool) -> Literal {
        Literal::with_sign(Atom::new(i), pos)
    }

    #[test]
    fn trivial_sat_and_model() {
        let mut s = Solver::new();
        s.ensure_vars(2);
        assert!(s.add_clause(&[lit(0, true), lit(1, true)]));
        assert!(s.add_clause(&[lit(0, false)]));
        assert!(s.solve().unwrap().is_sat());
        let m = s.model();
        assert!(!m.contains(Atom::new(0)));
        assert!(m.contains(Atom::new(1)));
    }

    #[test]
    fn empty_clause_unsat() {
        let mut s = Solver::new();
        assert!(!s.add_clause(&[]));
        assert!(!s.solve().unwrap().is_sat());
    }

    #[test]
    fn contradictory_units_unsat() {
        let mut s = Solver::new();
        s.ensure_vars(1);
        s.add_clause(&[lit(0, true)]);
        assert!(!s.add_clause(&[lit(0, false)]));
        assert!(!s.solve().unwrap().is_sat());
    }

    #[test]
    fn tautology_ignored() {
        let mut s = Solver::new();
        s.ensure_vars(1);
        assert!(s.add_clause(&[lit(0, true), lit(0, false)]));
        assert!(s.solve().unwrap().is_sat());
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // p_{i,j}: pigeon i in hole j, i<3, j<2. var = i*2+j.
        let mut s = Solver::new();
        s.ensure_vars(6);
        for i in 0..3u32 {
            s.add_clause(&[lit(i * 2, true), lit(i * 2 + 1, true)]);
        }
        for j in 0..2u32 {
            for i1 in 0..3u32 {
                for i2 in (i1 + 1)..3u32 {
                    s.add_clause(&[lit(i1 * 2 + j, false), lit(i2 * 2 + j, false)]);
                }
            }
        }
        assert!(!s.solve().unwrap().is_sat());
    }

    #[test]
    fn assumptions_sat_and_unsat() {
        // (a ∨ b) ∧ (¬a ∨ c)
        let mut s = Solver::new();
        s.ensure_vars(3);
        s.add_clause(&[lit(0, true), lit(1, true)]);
        s.add_clause(&[lit(0, false), lit(2, true)]);
        assert!(s.solve_with_assumptions(&[lit(0, true)]).unwrap().is_sat());
        assert!(s.model().contains(Atom::new(2)));
        assert!(s
            .solve_with_assumptions(&[lit(0, true), lit(2, false)])
            .unwrap()
            .is_sat()
            .eq(&false));
        // Solver still usable, and unaffected by past assumptions.
        assert!(s.solve().unwrap().is_sat());
        assert!(s.solve_with_assumptions(&[lit(1, true)]).unwrap().is_sat());
    }

    #[test]
    fn contradictory_assumptions() {
        let mut s = Solver::new();
        s.ensure_vars(1);
        assert!(!s
            .solve_with_assumptions(&[lit(0, true), lit(0, false)])
            .unwrap()
            .is_sat());
        assert!(s.solve().unwrap().is_sat());
    }

    #[test]
    fn chain_propagation() {
        // x0 ∧ (x_{i} → x_{i+1}) chain; assume ¬x_{n-1} → unsat.
        let n = 200u32;
        let mut s = Solver::new();
        s.ensure_vars(n as usize);
        s.add_clause(&[lit(0, true)]);
        for i in 0..n - 1 {
            s.add_clause(&[lit(i, false), lit(i + 1, true)]);
        }
        assert!(s.solve().unwrap().is_sat());
        let m = s.model();
        for i in 0..n {
            assert!(m.contains(Atom::new(i)));
        }
        assert!(!s
            .solve_with_assumptions(&[lit(n - 1, false)])
            .unwrap()
            .is_sat());
    }

    #[test]
    fn luby_prefix() {
        let expected = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(Solver::luby(i as u64), e, "luby({i})");
        }
    }

    #[test]
    fn incremental_add_after_solve() {
        let mut s = Solver::new();
        s.ensure_vars(2);
        s.add_clause(&[lit(0, true), lit(1, true)]);
        assert!(s.solve().unwrap().is_sat());
        s.add_clause(&[lit(0, false)]);
        assert!(s.solve().unwrap().is_sat());
        assert!(s.model().contains(Atom::new(1)));
        s.add_clause(&[lit(1, false)]);
        assert!(!s.solve().unwrap().is_sat());
    }

    #[test]
    fn stats_accumulate() {
        let mut s = Solver::new();
        s.ensure_vars(2);
        s.add_clause(&[lit(0, true), lit(1, true)]);
        s.solve().unwrap();
        s.solve().unwrap();
        assert_eq!(s.stats().solves, 2);
    }
}
