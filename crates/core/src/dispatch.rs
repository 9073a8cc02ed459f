//! Uniform dispatch over the ten semantics.
//!
//! The benchmark harness and the `tables` binary iterate over table rows —
//! (semantics, problem) pairs — so they need a single entry point that
//! hides the per-semantics configuration (partitions for CCWA/ECWA,
//! stratifications for ICWA). [`SemanticsConfig`] carries that
//! configuration; [`SemanticsId`] names the row.
//!
//! Semantics that are undefined for a database class (DDR/PWS on negation,
//! ICWA on unstratifiable databases) return [`Unsupported`] instead of
//! panicking, so sweeps can skip inapplicable cells gracefully.
//!
//! # Resource governance
//!
//! Every decision procedure below runs under the ambient
//! [`ddb_obs::Budget`] (when one is installed). Exhaustion never panics
//! and never produces a wrong answer: decision problems return a
//! three-valued [`Verdict`] whose `Unknown` variant carries the typed
//! [`Interrupted`] record, and enumeration returns an [`Enumeration`]
//! whose `interrupted` field marks an incomplete walk. Budgeted runs that
//! complete are bit-for-bit identical to unbudgeted runs.

use crate::icwa::Layers;
use crate::witness::Countermodel;
use ddb_analysis::{
    AsPrepared, Decision, Diagnostic, PlanData, PlanNode, PlanQuery, Prepared, RouteKind, Scope,
    SemanticsTraits,
};
use ddb_logic::{Database, Formula, Interpretation};
use ddb_models::{Cost, Partition};
use ddb_obs::{Governed, Interrupted, Resource};
use std::fmt;

/// Identifier of one of the paper's ten semantics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, PartialOrd, Ord)]
pub enum SemanticsId {
    /// Generalized CWA (Minker).
    Gcwa,
    /// Extended GCWA (Yahya & Henschen) — minimal models.
    Egcwa,
    /// Careful CWA (Gelfond & Przymusinska) — needs a partition.
    Ccwa,
    /// Extended CWA ≡ circumscription — needs a partition.
    Ecwa,
    /// Disjunctive Database Rule ≡ WGCWA.
    Ddr,
    /// Possible Worlds ≡ Possible Models.
    Pws,
    /// Perfect models.
    Perf,
    /// Iterated CWA — needs a stratification.
    Icwa,
    /// Disjunctive stable models.
    Dsm,
    /// Partial disjunctive stable models.
    Pdsm,
}

impl SemanticsId {
    /// All ten semantics, in the paper's table order.
    pub const ALL: [SemanticsId; 10] = [
        SemanticsId::Gcwa,
        SemanticsId::Ddr,
        SemanticsId::Pws,
        SemanticsId::Egcwa,
        SemanticsId::Ccwa,
        SemanticsId::Ecwa,
        SemanticsId::Icwa,
        SemanticsId::Perf,
        SemanticsId::Dsm,
        SemanticsId::Pdsm,
    ];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            SemanticsId::Gcwa => "GCWA",
            SemanticsId::Egcwa => "EGCWA",
            SemanticsId::Ccwa => "CCWA",
            SemanticsId::Ecwa => "ECWA (=CIRC)",
            SemanticsId::Ddr => "DDR (=WGCWA)",
            SemanticsId::Pws => "PWS (=PMS)",
            SemanticsId::Perf => "PERF",
            SemanticsId::Icwa => "ICWA",
            SemanticsId::Dsm => "DSM",
            SemanticsId::Pdsm => "PDSM",
        }
    }

    /// Resolves a command-line/wire spelling, case-insensitively:
    /// `gcwa`, `egcwa`, `ccwa`, `ecwa`/`circ`, `ddr`/`wgcwa`, `pws`/`pms`,
    /// `perf`, `icwa`, `dsm`/`stable`, `pdsm`. The error names the
    /// unknown spelling.
    pub fn from_name(name: &str) -> Result<SemanticsId, String> {
        Ok(match name.to_ascii_lowercase().as_str() {
            "gcwa" => SemanticsId::Gcwa,
            "egcwa" => SemanticsId::Egcwa,
            "ccwa" => SemanticsId::Ccwa,
            "ecwa" | "circ" => SemanticsId::Ecwa,
            "ddr" | "wgcwa" => SemanticsId::Ddr,
            "pws" | "pms" => SemanticsId::Pws,
            "perf" => SemanticsId::Perf,
            "icwa" => SemanticsId::Icwa,
            "dsm" | "stable" => SemanticsId::Dsm,
            "pdsm" => SemanticsId::Pdsm,
            other => return Err(format!("unknown semantics `{other}`")),
        })
    }
}

impl fmt::Display for SemanticsId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A semantics was asked about a database class it is not defined for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Unsupported {
    /// The semantics.
    pub semantics: SemanticsId,
    /// Why it does not apply.
    pub reason: String,
    /// The static-analysis finding explaining the rejection, when the
    /// analyzer has one (e.g. `DDB007` for unstratifiable negation).
    pub lint: Option<Diagnostic>,
}

impl fmt::Display for Unsupported {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} is not defined here: {}", self.semantics, self.reason)
    }
}

impl std::error::Error for Unsupported {}

/// Records an interrupt surfacing as an `Unknown` verdict (or incomplete
/// enumeration) at the dispatch boundary, once per public call. The
/// underlying trip was already counted in `govern.interrupts.<resource>`
/// by the budget layer; this counts how many *answers* degraded.
pub(crate) fn note_interrupt(i: &Interrupted) {
    ddb_obs::counter_bump("govern.unknown", 1);
    ddb_obs::counter_bump(
        match i.resource {
            Resource::Deadline => "govern.unknown.deadline",
            Resource::Conflicts => "govern.unknown.conflicts",
            Resource::OracleCalls => "govern.unknown.oracle_calls",
            Resource::Models => "govern.unknown.models",
            Resource::Cancelled => "govern.unknown.cancelled",
            Resource::FaultInjection => "govern.unknown.fault_injection",
            Resource::Invariant => "govern.unknown.invariant",
        },
        1,
    );
}

/// Three-valued outcome of a governed decision problem.
///
/// A budgeted run that completes returns [`Verdict::True`] or
/// [`Verdict::False`] exactly as the unbudgeted run would; a tripped
/// [`ddb_obs::Budget`] surfaces as [`Verdict::Unknown`] carrying the typed
/// [`Interrupted`] record — never as a panic and never as a wrong definite
/// answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The property definitely holds.
    True,
    /// The property definitely does not hold.
    False,
    /// The procedure was interrupted by resource exhaustion before it
    /// could decide.
    Unknown(Interrupted),
}

impl Verdict {
    /// `Some(answer)` for definite verdicts, `None` for `Unknown`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Verdict::True => Some(true),
            Verdict::False => Some(false),
            Verdict::Unknown(_) => None,
        }
    }

    /// Whether the verdict is definite (`True` or `False`).
    pub fn is_definite(&self) -> bool {
        !matches!(self, Verdict::Unknown(_))
    }

    /// The interrupt record, when `Unknown`.
    pub fn interrupted(&self) -> Option<&Interrupted> {
        match self {
            Verdict::Unknown(i) => Some(i),
            _ => None,
        }
    }

    /// The definite answer.
    ///
    /// # Panics
    /// Panics (with the interrupt reason) on `Unknown` — a convenience for
    /// tests and examples that run without a budget.
    pub fn definite(self) -> bool {
        match self {
            Verdict::True => true,
            Verdict::False => false,
            Verdict::Unknown(i) => panic!("verdict is not definite: {i}"),
        }
    }
}

impl From<bool> for Verdict {
    fn from(b: bool) -> Self {
        if b {
            Verdict::True
        } else {
            Verdict::False
        }
    }
}

impl From<Governed<bool>> for Verdict {
    fn from(r: Governed<bool>) -> Self {
        match r {
            Ok(b) => b.into(),
            Err(i) => {
                note_interrupt(&i);
                Verdict::Unknown(i)
            }
        }
    }
}

impl PartialEq<bool> for Verdict {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::True => f.write_str("true"),
            Verdict::False => f.write_str("false"),
            Verdict::Unknown(i) => write!(f, "unknown ({i})"),
        }
    }
}

/// Outcome of governed model enumeration: the models collected, plus the
/// interrupt record when the walk was cut short. Dereferences to the model
/// slice, so complete enumerations read like a plain `Vec`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Enumeration {
    /// The models enumerated (sorted). The set is the full characteristic
    /// model set iff `interrupted` is `None`.
    pub models: Vec<Interpretation>,
    /// Set when the budget tripped before the enumeration finished.
    pub interrupted: Option<Interrupted>,
}

impl Enumeration {
    /// An uninterrupted enumeration.
    pub fn complete(models: Vec<Interpretation>) -> Self {
        Enumeration {
            models,
            interrupted: None,
        }
    }

    /// Whether the enumeration ran to completion.
    pub fn is_complete(&self) -> bool {
        self.interrupted.is_none()
    }

    /// The complete model set.
    ///
    /// # Panics
    /// Panics (with the interrupt reason) when the enumeration was
    /// interrupted — a convenience for tests that run without a budget.
    pub fn expect_complete(self) -> Vec<Interpretation> {
        if let Some(i) = &self.interrupted {
            panic!("enumeration incomplete: {i}");
        }
        self.models
    }
}

impl From<Governed<Vec<Interpretation>>> for Enumeration {
    fn from(r: Governed<Vec<Interpretation>>) -> Self {
        match r {
            Ok(models) => Enumeration::complete(models),
            Err(i) => {
                note_interrupt(&i);
                Enumeration {
                    models: Vec::new(),
                    interrupted: Some(i),
                }
            }
        }
    }
}

impl std::ops::Deref for Enumeration {
    type Target = [Interpretation];
    fn deref(&self) -> &[Interpretation] {
        &self.models
    }
}

impl IntoIterator for Enumeration {
    type Item = Interpretation;
    type IntoIter = std::vec::IntoIter<Interpretation>;
    fn into_iter(self) -> Self::IntoIter {
        self.models.into_iter()
    }
}

impl<'a> IntoIterator for &'a Enumeration {
    type Item = &'a Interpretation;
    type IntoIter = std::slice::Iter<'a, Interpretation>;
    fn into_iter(self) -> Self::IntoIter {
        self.models.iter()
    }
}

impl PartialEq<Vec<Interpretation>> for Enumeration {
    fn eq(&self, other: &Vec<Interpretation>) -> bool {
        self.interrupted.is_none() && self.models == *other
    }
}

/// How dispatch picks the decision procedure for a query.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RoutingMode {
    /// Consult the static analyzer and take a polynomial fast path when
    /// the database's fragment admits one (the default).
    #[default]
    Auto,
    /// Always run the generic oracle-backed procedure (used by tests and
    /// ablation benchmarks to compare against the fast paths).
    Generic,
}

/// A semantics together with the extra structure some semantics need.
#[derive(Clone, Debug)]
pub struct SemanticsConfig {
    /// Which semantics.
    pub id: SemanticsId,
    /// Partition ⟨P;Q;Z⟩ for CCWA/ECWA (defaults to minimize-all).
    pub partition: Option<Partition>,
    /// Varying atoms `Z` for ICWA (defaults to none).
    pub icwa_varying: Option<Interpretation>,
    /// Whether analysis-driven fast paths may be taken.
    pub routing: RoutingMode,
}

/// What a dispatcher query asks of a (sub-)database: the inference of a
/// formula, or model existence. The route executors recurse with it.
#[derive(Clone, Copy)]
pub(crate) enum Ask<'f> {
    /// Is the formula inferred?
    Infer(&'f Formula),
    /// Is the semantics non-empty?
    Exists,
}

impl Ask<'_> {
    /// The query shape the planner decides on.
    pub(crate) fn query(self) -> PlanQuery {
        match self {
            Ask::Infer(f) => PlanQuery::of(f),
            Ask::Exists => PlanQuery::Existence,
        }
    }
}

impl SemanticsConfig {
    /// Default configuration for a semantics.
    pub fn new(id: SemanticsId) -> Self {
        SemanticsConfig {
            id,
            partition: None,
            icwa_varying: None,
            routing: RoutingMode::default(),
        }
    }

    /// Sets the CCWA/ECWA partition.
    pub fn with_partition(mut self, partition: Partition) -> Self {
        self.partition = Some(partition);
        self
    }

    /// Sets the routing mode (see [`RoutingMode`]).
    pub fn with_routing(mut self, routing: RoutingMode) -> Self {
        self.routing = routing;
        self
    }

    /// The ⟨P;Q;Z⟩ partition the CCWA/ECWA procedures run under: the
    /// configured one for CCWA and ECWA (minimize-all by default), and
    /// `P = V` for GCWA and EGCWA, which are CCWA and ECWA there.
    fn partition_for(&self, db: &Database) -> Partition {
        match (self.id, &self.partition) {
            (SemanticsId::Ccwa | SemanticsId::Ecwa, Some(part)) => part.clone(),
            _ => Partition::minimize_all(db.num_atoms()),
        }
    }

    /// Whether this semantics is defined for `db`'s syntactic class;
    /// returns the reason when it is not.
    pub fn check_applicable(&self, db: &impl AsPrepared) -> Result<(), Unsupported> {
        db.with_prepared(|p| self.prepare(p))
    }

    /// Shared prologue of every public query: rejects inapplicable
    /// combinations from the memo's fragment flags (no re-derivation of
    /// `has_negation`/stratifiability per semantics). On rejection the
    /// [`Unsupported`] carries the analyzer's lint where one exists.
    ///
    /// Only the top level checks: every sub-database a route recurses on
    /// (a slice, its top part, an island, a peel residual) keeps a subset
    /// of the rules, or partially evaluates them, so a negation-free or
    /// stratified database stays one.
    fn prepare(&self, p: &Prepared) -> Result<(), Unsupported> {
        let frags = p.fragments();
        match self.id {
            SemanticsId::Ddr | SemanticsId::Pws if !frags.deductive => Err(Unsupported {
                semantics: self.id,
                reason: "defined only for databases without negation".into(),
                lint: None,
            }),
            SemanticsId::Icwa if !frags.stratified => Err(Unsupported {
                semantics: self.id,
                reason: "database is not stratifiable".into(),
                lint: ddb_analysis::analyze(p.db())
                    .diagnostics
                    .into_iter()
                    .find(|d| d.code == "DDB007"),
            }),
            _ => Ok(()),
        }
    }

    /// The Horn collapse (all ten semantics = the least model) only holds
    /// for the default configuration: CCWA/ECWA with the minimize-all
    /// partition and ICWA with no varying atoms. The slice/split routes
    /// require the same default structure: with fixed or varying atoms an
    /// underivable atom is no longer forced false.
    pub(crate) fn has_default_structure(&self) -> bool {
        match self.id {
            SemanticsId::Ccwa | SemanticsId::Ecwa => self.partition.is_none(),
            SemanticsId::Icwa => self
                .icwa_varying
                .as_ref()
                .is_none_or(Interpretation::is_empty_set),
            _ => true,
        }
    }

    /// The static plan tree for (`db`, `query`) under this configuration —
    /// the backend of `ddb explain`. Every node's route equals the route
    /// the dispatcher executes at the same position by construction: both
    /// sides feed the same [`ddb_analysis::SemanticsTraits`] (via
    /// [`crate::planner::traits_for`]) into the same decision kernel, with
    /// the same [`Scope`] per position.
    pub fn plan(&self, db: &impl AsPrepared, query: &PlanQuery) -> Result<PlanNode, Unsupported> {
        db.with_prepared(|p| {
            self.prepare(p)?;
            Ok(ddb_analysis::build_plan(p, &self.traits(query), query))
        })
    }

    /// The routing traits of this configuration for `query`'s problem.
    pub(crate) fn traits(&self, query: &PlanQuery) -> SemanticsTraits {
        crate::planner::traits_for(self, crate::planner::problem_of(query))
    }

    fn icwa_layers(&self, p: &Prepared) -> Layers {
        let db = p.db();
        let strata = p.stratification().expect("checked stratifiable");
        // An empty varying set admits the slice routes, whose
        // sub-databases have vocabularies of their own.
        let z = match &self.icwa_varying {
            Some(z) if !z.is_empty_set() => z.clone(),
            _ => Interpretation::empty(db.num_atoms()),
        };
        Layers::new(db, strata, &z)
    }

    /// The paper's *inference of a literal* and *inference of a formula*
    /// problems: a one-literal formula ([`Formula::as_literal`]) is planned
    /// as a literal query ([`PlanQuery::of`]) and answered by the
    /// semantics' literal procedure where it has its own (DDR, PWS; GCWA's
    /// single Πᵖ₂ query is CCWA's countermodel search at `P = V`).
    ///
    /// Runs under a `dispatch.query` trace span with its wall time in the
    /// `dispatch.query.ns` histogram; the slice/split/island routes run
    /// their sub-databases under nested `dispatch.query` spans.
    pub fn infers_formula(
        &self,
        db: &impl AsPrepared,
        f: &Formula,
        cost: &mut Cost,
    ) -> Result<Verdict, Unsupported> {
        db.with_prepared(|p| {
            self.prepare(p)?;
            Ok(self.run(p, Ask::Infer(f), Scope::Full, cost).into())
        })
    }

    /// The paper's *∃ model* problem: is the semantics non-empty for `db`?
    /// On a positive database the planner's existence leaf answers `true`
    /// at no cost (Table 1's `O(1)` column), unless routing is generic.
    /// Traced like [`SemanticsConfig::infers_formula`] (`dispatch.query`
    /// span, `dispatch.query.ns` histogram).
    pub fn has_model(&self, db: &impl AsPrepared, cost: &mut Cost) -> Result<Verdict, Unsupported> {
        db.with_prepared(|p| {
            self.prepare(p)?;
            Ok(self.run(p, Ask::Exists, Scope::Full, cost).into())
        })
    }

    /// The one executor of inference and existence: decides `ask` on `p`
    /// at a `scope` position of the plan and executes the decision. Every
    /// route recurses through here (or, for a peel residual, through
    /// [`SemanticsConfig::execute`] on the residual's own decision), so
    /// execution walks the plan tree [`SemanticsConfig::plan`] prints.
    /// An interrupt propagates as `Err` to the public call, which turns it
    /// into one `Unknown` verdict.
    pub(crate) fn run(
        &self,
        p: &Prepared,
        ask: Ask<'_>,
        scope: Scope,
        cost: &mut Cost,
    ) -> Governed<bool> {
        let _q = ddb_obs::hist_span("dispatch.query", "dispatch.query.ns");
        let q = ask.query();
        let d = ddb_analysis::decide_scoped(p, &self.traits(&q), &q, scope);
        self.execute(p, ask, d, cost)
    }

    /// Executes the planner's decision `d` for `ask` on `p`. The reductions
    /// shrink the database and recurse; the leaves answer.
    pub(crate) fn execute(
        &self,
        p: &Prepared,
        ask: Ask<'_>,
        d: Decision,
        cost: &mut Cost,
    ) -> Governed<bool> {
        if d.blocked.is_some() {
            ddb_obs::counter_bump("route.slice.blocked", 1);
        }
        let db = p.db();
        match (d.data, ask) {
            (PlanData::Slice { slice, admission }, Ask::Infer(f)) => {
                crate::slicing::run_slice(self, db, &slice, admission, f, cost)
            }
            (PlanData::Peel { peel }, ask) => crate::slicing::run_split(self, p, &peel, ask, cost),
            (PlanData::Islands { parts }, Ask::Exists) => {
                crate::slicing::run_islands(self, db, &parts, cost)
            }
            (PlanData::Leaf, ask) => {
                ddb_obs::counter_bump(d.route.counter(), 1);
                match (d.route, ask) {
                    (RouteKind::Positive, Ask::Exists) => Ok(true),
                    (RouteKind::Horn, Ask::Infer(f)) => Ok(crate::route::horn_infers_formula(p, f)),
                    (RouteKind::Horn, Ask::Exists) => Ok(crate::route::horn_has_model(p)),
                    (RouteKind::Hcf, Ask::Infer(f)) => {
                        crate::route::hcf_dsm_infers_formula(db, f, cost)
                    }
                    (RouteKind::Hcf, Ask::Exists) => crate::route::hcf_dsm_has_model(db, cost),
                    (_, Ask::Infer(f)) => match (self.id, f.as_literal()) {
                        (SemanticsId::Ddr, Some(lit)) => crate::ddr::infers_literal(db, lit, cost),
                        (SemanticsId::Pws, Some(lit)) => crate::pws::infers_literal(db, lit, cost),
                        _ => Ok(self.countermodel(p, f, cost)?.is_none()),
                    },
                    (_, Ask::Exists) => self.generic_has_model(p, cost),
                }
            }
            _ => unreachable!("the planner slices only inference and islands only existence"),
        }
    }

    /// The generic procedure of formula inference, as the countermodel
    /// search it is: a characteristic model falsifying `f` (for PDSM, a
    /// partial stable model where `f` is not 1), or `None` when `f` is
    /// inferred. GCWA and EGCWA run as CCWA and ECWA at `P = V`.
    pub(crate) fn countermodel(
        &self,
        p: &Prepared,
        f: &Formula,
        cost: &mut Cost,
    ) -> Governed<Option<Countermodel>> {
        let db = p.db();
        let total = match self.id {
            SemanticsId::Gcwa | SemanticsId::Ccwa => {
                crate::ccwa::countermodel(db, &self.partition_for(db), f, cost)
            }
            SemanticsId::Egcwa | SemanticsId::Ecwa => {
                crate::ecwa::countermodel(db, &self.partition_for(db), f, cost)
            }
            SemanticsId::Ddr => crate::ddr::countermodel(db, f, cost),
            SemanticsId::Pws => crate::pws::countermodel(db, f, cost),
            SemanticsId::Perf => crate::perf::countermodel(db, f, cost),
            SemanticsId::Icwa => crate::icwa::countermodel(db, &self.icwa_layers(p), f, cost),
            SemanticsId::Dsm => crate::dsm::countermodel(db, f, cost),
            SemanticsId::Pdsm => {
                return Ok(crate::pdsm::countermodel(db, f, cost)?.map(Countermodel::Partial));
            }
        };
        Ok(total?.map(Countermodel::Total))
    }

    /// The generic procedure of model existence. ICWA builds its layers
    /// only when the walk runs.
    fn generic_has_model(&self, p: &Prepared, cost: &mut Cost) -> Governed<bool> {
        let db = p.db();
        match self.id {
            SemanticsId::Gcwa | SemanticsId::Ccwa => crate::ccwa::has_model(db, cost),
            SemanticsId::Egcwa | SemanticsId::Ecwa => crate::ecwa::has_model(db, cost),
            SemanticsId::Ddr => crate::ddr::has_model(db, cost),
            SemanticsId::Pws => crate::pws::has_model(db, cost),
            SemanticsId::Perf => crate::perf::has_model(db, cost),
            SemanticsId::Icwa => crate::icwa::has_model(db, || self.icwa_layers(p), cost),
            SemanticsId::Dsm => crate::dsm::has_model(db, cost),
            SemanticsId::Pdsm => crate::pdsm::has_model(db, cost),
        }
    }

    /// The characteristic (two-valued) model set, where the semantics has
    /// one; PDSM reports its total models. An exhausted budget yields an
    /// [`Enumeration`] with `interrupted` set instead of an error.
    pub fn models(
        &self,
        db: &impl AsPrepared,
        cost: &mut Cost,
    ) -> Result<Enumeration, Unsupported> {
        db.with_prepared(|p| self.enumerate(p, cost))
    }

    fn enumerate(&self, p: &Prepared, cost: &mut Cost) -> Result<Enumeration, Unsupported> {
        self.prepare(p)?;
        let db = p.db();
        // Model enumeration needs the whole vocabulary; the planner only
        // ever returns a leaf route for `PlanQuery::Enumeration`.
        let q = PlanQuery::Enumeration;
        let d = ddb_analysis::decide(p, &self.traits(&q), &q);
        ddb_obs::counter_bump(d.route.counter(), 1);
        match d.route {
            RouteKind::Horn => {
                return Ok(Enumeration::complete(crate::route::horn_models(p)));
            }
            RouteKind::Hcf => {
                return Ok(crate::route::hcf_dsm_models(db, cost).into());
            }
            _ => {}
        }
        let governed: Governed<Vec<Interpretation>> = match self.id {
            SemanticsId::Gcwa | SemanticsId::Ccwa => {
                crate::ccwa::models(db, &self.partition_for(db), cost)
            }
            SemanticsId::Egcwa => return Ok(crate::egcwa::models(db, cost)),
            SemanticsId::Ecwa => crate::ecwa::models(db, &self.partition_for(db), cost),
            SemanticsId::Ddr => crate::ddr::models(db, cost),
            SemanticsId::Pws => crate::pws::models(db, cost),
            SemanticsId::Perf => crate::perf::models(db, cost),
            SemanticsId::Icwa => crate::icwa::models(db, &self.icwa_layers(p), cost),
            SemanticsId::Dsm => crate::dsm::models(db, cost),
            SemanticsId::Pdsm => crate::pdsm::models(db, cost).map(|ps| {
                ps.into_iter()
                    .filter(|p| p.is_total())
                    .map(|p| p.to_total())
                    .collect()
            }),
        };
        Ok(governed.into())
    }
}

/// Decides [`SemanticsConfig::infers_formula`] for many formulas against
/// one database, sharing one [`Prepared`] memo, so a single
/// applicability and classification pass. The result is index-aligned
/// with `formulas`, each verdict with its own oracle bill, exactly as a
/// loop of single queries would answer.
pub fn infers_formulas_batch(
    cfg: &SemanticsConfig,
    db: &Database,
    formulas: &[Formula],
) -> Result<Vec<(Verdict, Cost)>, Unsupported> {
    let prepared = Prepared::borrowed(db);
    cfg.check_applicable(&prepared)?;
    ddb_obs::counter_bump("pool.batch.formulas", formulas.len() as u64);
    formulas
        .iter()
        .map(|f| {
            let mut cost = Cost::new();
            let verdict = cfg.infers_formula(&prepared, f, &mut cost)?;
            Ok((verdict, cost))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddb_logic::parse::{parse_formula, parse_program};

    #[test]
    fn all_semantics_answer_on_positive_db() {
        let db = parse_program("a | b. c :- a, b.").unwrap();
        let f = parse_formula("!c", db.symbols()).unwrap();
        let mut cost = Cost::new();
        for id in SemanticsId::ALL {
            let cfg = SemanticsConfig::new(id);
            let got = cfg.infers_formula(&db, &f, &mut cost).expect("applicable");
            // On this DB every minimal-model-based semantics infers ¬c;
            // DDR does not (c occurs in T↑ω); PWS does not either
            // ({a,b,c} is a possible model).
            let expected = !matches!(id, SemanticsId::Ddr | SemanticsId::Pws);
            assert_eq!(got, expected, "{id}");
        }
    }

    #[test]
    fn unsupported_combinations_reported() {
        let with_neg = parse_program("a :- not b.").unwrap();
        let mut cost = Cost::new();
        for id in [SemanticsId::Ddr, SemanticsId::Pws] {
            let cfg = SemanticsConfig::new(id);
            assert!(cfg.has_model(&with_neg, &mut cost).is_err());
        }
        let unstrat = parse_program("a :- not b. b :- not a.").unwrap();
        let cfg = SemanticsConfig::new(SemanticsId::Icwa);
        assert!(cfg.has_model(&unstrat, &mut cost).is_err());
        // DSM is fine with both.
        let cfg = SemanticsConfig::new(SemanticsId::Dsm);
        assert!(cfg.has_model(&unstrat, &mut cost).unwrap().definite());
    }

    #[test]
    fn models_agree_across_equivalent_semantics_on_positive() {
        // On positive DBs: EGCWA = ECWA(minimize-all) = DSM = PERF = PDSM
        // (total) = minimal models.
        let db = parse_program("a | b. b | c. d :- a, c.").unwrap();
        let mut cost = Cost::new();
        let reference = SemanticsConfig::new(SemanticsId::Egcwa)
            .models(&db, &mut cost)
            .unwrap();
        for id in [
            SemanticsId::Ecwa,
            SemanticsId::Dsm,
            SemanticsId::Perf,
            SemanticsId::Pdsm,
            SemanticsId::Icwa,
        ] {
            let got = SemanticsConfig::new(id).models(&db, &mut cost).unwrap();
            assert_eq!(got, reference, "{id}");
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(SemanticsId::Ddr.to_string(), "DDR (=WGCWA)");
        assert_eq!(SemanticsId::ALL.len(), 10);
    }

    #[test]
    fn exhausted_budget_yields_unknown_never_panics() {
        // A non-Horn database (so the oracle is actually consulted) with a
        // zero-oracle budget: every query must come back Unknown.
        let db = parse_program("a | b. c :- a. c :- b. d :- not c.").unwrap();
        let f = parse_formula("c", db.symbols()).unwrap();
        let _g = ddb_obs::Budget::unlimited()
            .with_max_oracle_calls(0)
            .install();
        let mut cost = Cost::new();
        for id in SemanticsId::ALL {
            let cfg = SemanticsConfig::new(id).with_routing(RoutingMode::Generic);
            let Ok(v) = cfg.infers_formula(&db, &f, &mut cost) else {
                continue; // DDR/PWS: negation → Unsupported, fine
            };
            assert!(
                matches!(v, Verdict::Unknown(_)),
                "{id}: expected Unknown, got {v}"
            );
        }
    }

    #[test]
    fn interrupted_enumeration_is_marked() {
        let db = parse_program("a | b. b | c.").unwrap();
        let _g = ddb_obs::Budget::unlimited()
            .with_max_oracle_calls(0)
            .install();
        let mut cost = Cost::new();
        let cfg = SemanticsConfig::new(SemanticsId::Egcwa).with_routing(RoutingMode::Generic);
        let e = cfg.models(&db, &mut cost).unwrap();
        assert!(!e.is_complete());
        assert!(e.interrupted.is_some());
    }

    #[test]
    fn verdict_conversions() {
        assert_eq!(Verdict::from(true), true);
        assert_eq!(Verdict::from(false).as_bool(), Some(false));
        let unknown = Verdict::Unknown(ddb_obs::Interrupted::invariant("test"));
        assert_ne!(unknown, true);
        assert_ne!(unknown, false);
        assert!(!unknown.is_definite());
        assert!(unknown.interrupted().is_some());
    }

    #[test]
    fn batch_matches_sequential_loop() {
        let db = parse_program("a | b. c :- a. c :- b. x | y. :- x, y.").unwrap();
        let texts = ["c", "!c", "x | y", "a & x", "!(a & b)"];
        let formulas: Vec<Formula> = texts
            .iter()
            .map(|t| parse_formula(t, db.symbols()).unwrap())
            .collect();
        for id in SemanticsId::ALL {
            let cfg = SemanticsConfig::new(id);
            let seq: Vec<_> = formulas
                .iter()
                .map(|f| {
                    let mut c = Cost::new();
                    let v = cfg.infers_formula(&db, f, &mut c).unwrap();
                    (v, c.sat_calls)
                })
                .collect();
            let got = infers_formulas_batch(&cfg, &db, &formulas).unwrap();
            let got: Vec<_> = got.into_iter().map(|(v, c)| (v, c.sat_calls)).collect();
            assert_eq!(got, seq, "{id}");
        }
    }

    #[test]
    fn batch_rejects_inapplicable_semantics_up_front() {
        let db = parse_program("a :- not b.").unwrap();
        let f = parse_formula("a", db.symbols()).unwrap();
        let cfg = SemanticsConfig::new(SemanticsId::Ddr);
        assert!(infers_formulas_batch(&cfg, &db, &[f]).is_err());
    }
}
