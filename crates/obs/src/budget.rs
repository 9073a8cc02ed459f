//! Resource governance: deadlines, oracle budgets, cooperative
//! cancellation, and deterministic fault injection.
//!
//! Every decision problem in the paper's tables sits at NP, coNP, or
//! Πᵖ₂ — worst-case exponential for the SAT substrate — so a production
//! caller must be able to bound any call and get a sound three-valued
//! answer instead of a hang. This module is the mechanism: a [`Budget`]
//! is installed on the current thread (RAII, via [`Budget::install`]),
//! and the solve stack calls the cheap [`checkpoint`]/`charge_*`
//! functions at its inner loops. When a limit trips, those functions
//! return a typed [`Interrupted`] error which propagates out with `?` —
//! never a panic — and the per-semantics layer surfaces it as a
//! three-valued `Verdict::Unknown`.
//!
//! Design rules, relied on by the property tests:
//!
//! - **Read-only**: governance never alters solver decisions. A budgeted
//!   run that completes is bit-for-bit identical to an unbudgeted run
//!   (same answers, same oracle-call counts).
//! - **No overhead when inactive**: with no budget installed every
//!   function is a near-free early return.
//! - **Deterministic injection**: [`Budget::fail_after`] trips at an
//!   exact checkpoint index, so a sweep over every index exercises every
//!   interruption point reproducibly.
//! - **Sticky**: once tripped, a governor keeps returning the same
//!   [`Interrupted`] until uninstalled, so unwinding code cannot
//!   accidentally resume past an exhausted budget.
//! - **Per thread**: a governor governs the thread that installed it,
//!   and only that thread reads or charges its counters. Cancel flags are
//!   the one shared state: another thread (a server's shutdown, a
//!   client's `cancel`) raises them.
//!
//! Each trip increments a `govern.interrupts.<resource>` counter; each
//! uninstall adds the governor's checkpoint count to `govern.checkpoints`.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which resource ran out (or which event interrupted the run).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Resource {
    /// The wall-clock deadline passed.
    Deadline,
    /// The SAT-solver conflict budget was exhausted.
    Conflicts,
    /// The NP-oracle (SAT solve) call budget was exhausted.
    OracleCalls,
    /// The enumerated-model budget was exhausted.
    Models,
    /// The cooperative cancel flag was raised (Ctrl-C style).
    Cancelled,
    /// A deterministic fault-injection point fired ([`Budget::fail_after`]).
    FaultInjection,
    /// An internal invariant did not hold; reported as an interruption
    /// instead of a panic so callers degrade to `Unknown`.
    Invariant,
}

impl Resource {
    /// Stable lowercase label, used in counter names and CLI output.
    pub fn label(self) -> &'static str {
        match self {
            Resource::Deadline => "deadline",
            Resource::Conflicts => "conflicts",
            Resource::OracleCalls => "oracle_calls",
            Resource::Models => "models",
            Resource::Cancelled => "cancelled",
            Resource::FaultInjection => "fault_injection",
            Resource::Invariant => "invariant",
        }
    }
}

impl std::fmt::Display for Resource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A run was interrupted before it could produce a definite answer.
///
/// This is the single error type the whole solve stack propagates; the
/// dispatch layer turns it into `Verdict::Unknown`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Interrupted {
    /// What tripped.
    pub resource: Resource,
    /// The governor's checkpoint index at the moment of the trip.
    pub checkpoint: u64,
    /// Optional description of partial progress (e.g. models found so
    /// far) attached by the layer that observed the interruption.
    pub partial: Option<String>,
}

impl Interrupted {
    /// An invariant-violation interruption (used where the code once
    /// panicked on states that cannot arise from correct inputs).
    pub fn invariant(what: &str) -> Self {
        counter_trip(Resource::Invariant);
        Interrupted {
            resource: Resource::Invariant,
            checkpoint: consumed().map_or(0, |c| c.checkpoints),
            partial: Some(what.to_owned()),
        }
    }

    /// Attaches a partial-progress description, keeping the first one.
    pub fn with_partial(mut self, partial: String) -> Self {
        self.partial.get_or_insert(partial);
        self
    }
}

impl std::fmt::Display for Interrupted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "interrupted: {} (checkpoint {})",
            self.resource, self.checkpoint
        )?;
        if let Some(p) = &self.partial {
            write!(f, "; {p}")?;
        }
        Ok(())
    }
}

impl std::error::Error for Interrupted {}

/// Result alias for budget-governed computations.
pub type Governed<T> = Result<T, Interrupted>;

/// Resource limits for a governed computation. All limits are optional;
/// [`Budget::unlimited`] never trips (but still counts checkpoints, so
/// it can be used to probe a run's checkpoint total for fault-injection
/// sweeps).
#[derive(Clone, Debug, Default)]
pub struct Budget {
    /// Absolute wall-clock deadline.
    pub deadline: Option<Instant>,
    /// Relative timeout; converted to a fresh deadline at install time
    /// (so one `Budget` value can govern many runs, each from zero).
    pub timeout: Option<Duration>,
    /// Maximum SAT-solver conflicts across all oracle calls.
    pub max_conflicts: Option<u64>,
    /// Maximum NP-oracle (SAT solve) calls.
    pub max_oracle_calls: Option<u64>,
    /// Maximum models enumerated.
    pub max_models: Option<u64>,
    /// Cooperative cancel flags; raising any of them from another thread
    /// stops the run at its next checkpoint. A plural set so that
    /// [`Budget::intersect`] can keep *both* operands' flags — e.g. a
    /// server-defaults flag and a per-request cancel/shutdown flag —
    /// rather than silently preferring one.
    pub cancel_flags: Vec<Arc<AtomicBool>>,
    /// Deterministic fault injection: trip with
    /// [`Resource::FaultInjection`] once this many checkpoints have
    /// passed (`fail_after(0)` trips at the very first checkpoint).
    pub fail_after: Option<u64>,
}

impl Budget {
    /// A budget with no limits.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Sets a relative timeout (fresh deadline per install).
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Caps total SAT-solver conflicts.
    pub fn with_max_conflicts(mut self, n: u64) -> Self {
        self.max_conflicts = Some(n);
        self
    }

    /// Caps NP-oracle calls.
    pub fn with_max_oracle_calls(mut self, n: u64) -> Self {
        self.max_oracle_calls = Some(n);
        self
    }

    /// Caps enumerated models.
    pub fn with_max_models(mut self, n: u64) -> Self {
        self.max_models = Some(n);
        self
    }

    /// Attaches a cooperative cancel flag (in addition to any already
    /// attached — all of them are consulted at every checkpoint).
    pub fn with_cancel_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel_flags.push(flag);
        self
    }

    /// Arms deterministic fault injection at checkpoint index `n`.
    pub fn fail_after(mut self, n: u64) -> Self {
        self.fail_after = Some(n);
        self
    }

    /// Pointwise intersection with `other`: the effective limit for every
    /// resource is the *tighter* of the two, so the result never permits
    /// more than either operand. This is the admission-control primitive
    /// for multi-tenant serving — a request's budget is the server's
    /// defaults ∩ the client's declared limits, and a client can only
    /// narrow what the operator configured, never widen it.
    ///
    /// Deadlines/timeouts take the earlier one, caps the smaller one, and
    /// `fail_after` the smaller index. Cancel flags are *unioned* (both
    /// operands' flags keep working — raising any of them trips the
    /// intersected budget), so putting a per-request cancel flag on
    /// either side of the intersection is always safe.
    #[must_use]
    pub fn intersect(&self, other: &Budget) -> Budget {
        fn tighter<T: Ord + Copy>(a: Option<T>, b: Option<T>) -> Option<T> {
            match (a, b) {
                (Some(x), Some(y)) => Some(x.min(y)),
                (x, y) => x.or(y),
            }
        }
        let mut cancel_flags = self.cancel_flags.clone();
        for flag in &other.cancel_flags {
            if !cancel_flags.iter().any(|f| Arc::ptr_eq(f, flag)) {
                cancel_flags.push(Arc::clone(flag));
            }
        }
        Budget {
            deadline: tighter(self.deadline, other.deadline),
            timeout: tighter(self.timeout, other.timeout),
            max_conflicts: tighter(self.max_conflicts, other.max_conflicts),
            max_oracle_calls: tighter(self.max_oracle_calls, other.max_oracle_calls),
            max_models: tighter(self.max_models, other.max_models),
            cancel_flags,
            fail_after: tighter(self.fail_after, other.fail_after),
        }
    }

    /// True when no limit is set (install is then pure bookkeeping).
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.timeout.is_none()
            && self.max_conflicts.is_none()
            && self.max_oracle_calls.is_none()
            && self.max_models.is_none()
            && self.cancel_flags.is_empty()
            && self.fail_after.is_none()
    }

    /// Installs this budget on the current thread, returning an RAII
    /// guard that uninstalls it on drop. Budgets nest: every installed
    /// governor is consulted at each checkpoint, innermost charged first.
    pub fn install(self) -> BudgetGuard {
        let deadline = match (self.deadline, self.timeout) {
            (Some(d), Some(t)) => Some(d.min(Instant::now() + t)),
            (Some(d), None) => Some(d),
            (None, Some(t)) => Some(Instant::now() + t),
            (None, None) => None,
        };
        let frame = Frame {
            budget: self,
            deadline,
            checkpoints: Cell::new(0),
            conflicts: Cell::new(0),
            oracle_calls: Cell::new(0),
            models: Cell::new(0),
            tripped: Cell::new(None),
        };
        GOVERNORS.with(|g| g.borrow_mut().push(frame));
        BudgetGuard { _private: () }
    }
}

/// Checkpoint/charge totals consumed under a governor so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Consumed {
    /// Checkpoints passed (every `charge_*` call is also a checkpoint).
    pub checkpoints: u64,
    /// SAT-solver conflicts charged.
    pub conflicts: u64,
    /// NP-oracle calls charged.
    pub oracle_calls: u64,
    /// Models charged.
    pub models: u64,
}

impl Consumed {
    /// The totals as a JSON object, in field order — the `consumed` block
    /// of a served response and the CLI trace's `budget_consumed`.
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::obj([
            ("checkpoints", Json::UInt(self.checkpoints)),
            ("conflicts", Json::UInt(self.conflicts)),
            ("oracle_calls", Json::UInt(self.oracle_calls)),
            ("models", Json::UInt(self.models)),
        ])
    }
}

/// One installed governor: its limits and what has been consumed under
/// it. Only the installing thread reads it, so the counters are cells.
struct Frame {
    budget: Budget,
    deadline: Option<Instant>,
    checkpoints: Cell<u64>,
    conflicts: Cell<u64>,
    oracle_calls: Cell<u64>,
    models: Cell<u64>,
    /// The first trip and its checkpoint index, reported from then on.
    tripped: Cell<Option<(Resource, u64)>>,
}

/// Adds one to `counter` and returns the new value.
fn bump(counter: &Cell<u64>) -> u64 {
    let v = counter.get() + 1;
    counter.set(v);
    v
}

impl Frame {
    fn consumed(&self) -> Consumed {
        Consumed {
            checkpoints: self.checkpoints.get(),
            conflicts: self.conflicts.get(),
            oracle_calls: self.oracle_calls.get(),
            models: self.models.get(),
        }
    }

    /// Counts one checkpoint and `charge`, then checks every limit. Once
    /// tripped, it reports the first trip and counts nothing more.
    fn drive(&self, charge: Charge) -> Governed<()> {
        if let Some((resource, checkpoint)) = self.tripped.get() {
            return Err(Interrupted {
                resource,
                checkpoint,
                partial: None,
            });
        }
        let checkpoints = bump(&self.checkpoints);
        let coarse = match charge {
            Charge::None => false,
            Charge::Conflict => {
                bump(&self.conflicts);
                false
            }
            Charge::OracleCall => {
                bump(&self.oracle_calls);
                true
            }
            Charge::Model => {
                bump(&self.models);
                true
            }
        };
        let Some(resource) = self.check(checkpoints, coarse) else {
            return Ok(());
        };
        self.tripped.set(Some((resource, checkpoints)));
        counter_trip(resource);
        Err(Interrupted {
            resource,
            checkpoint: checkpoints,
            partial: None,
        })
    }

    /// Returns the resource that tripped, if any. `coarse` marks the
    /// rarer charge events (oracle calls, models) where the wall clock is
    /// always consulted regardless of the stride. `checkpoints` is this
    /// call's checkpoint index.
    fn check(&self, checkpoints: u64, coarse: bool) -> Option<Resource> {
        let b = &self.budget;
        if let Some(n) = b.fail_after {
            // `fail_after(n)` lets n checkpoints pass, then trips — so a
            // sweep over 0..total hits every interruption point once.
            if checkpoints > n {
                return Some(Resource::FaultInjection);
            }
        }
        for flag in &b.cancel_flags {
            if flag.load(Ordering::Relaxed) {
                return Some(Resource::Cancelled);
            }
        }
        if b.max_conflicts
            .is_some_and(|max| self.conflicts.get() > max)
        {
            return Some(Resource::Conflicts);
        }
        if b.max_oracle_calls
            .is_some_and(|max| self.oracle_calls.get() > max)
        {
            return Some(Resource::OracleCalls);
        }
        if b.max_models.is_some_and(|max| self.models.get() > max) {
            return Some(Resource::Models);
        }
        if let Some(deadline) = self.deadline {
            if (coarse || checkpoints.is_multiple_of(DEADLINE_STRIDE)) && Instant::now() >= deadline
            {
                return Some(Resource::Deadline);
            }
        }
        None
    }
}

thread_local! {
    static GOVERNORS: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard for an installed [`Budget`]; uninstalls on drop. A budget
/// governs the thread that installed it, so drop the guard there.
pub struct BudgetGuard {
    _private: (),
}

impl Drop for BudgetGuard {
    fn drop(&mut self) {
        let checkpoints = GOVERNORS.with(|g| {
            g.borrow_mut()
                .pop()
                .map_or(0, |frame| frame.checkpoints.get())
        });
        if checkpoints > 0 {
            crate::counter_bump("govern.checkpoints", checkpoints);
        }
    }
}

/// True when at least one budget is installed on this thread.
pub fn active() -> bool {
    GOVERNORS.with(|g| !g.borrow().is_empty())
}

/// The innermost governor's consumption so far, if one is installed.
pub fn consumed() -> Option<Consumed> {
    GOVERNORS.with(|g| g.borrow().last().map(Frame::consumed))
}

fn counter_trip(resource: Resource) {
    let name = match resource {
        Resource::Deadline => "govern.interrupts.deadline",
        Resource::Conflicts => "govern.interrupts.conflicts",
        Resource::OracleCalls => "govern.interrupts.oracle_calls",
        Resource::Models => "govern.interrupts.models",
        Resource::Cancelled => "govern.interrupts.cancelled",
        Resource::FaultInjection => "govern.interrupts.fault_injection",
        Resource::Invariant => "govern.interrupts.invariant",
    };
    crate::counter_bump(name, 1);
    // Mark the trip on the tripping thread's trace track so timelines
    // show *where* the interruption landed, not just that one happened.
    crate::recorder::emit(|| crate::trace::Event::Instant {
        name: name.to_owned(),
        at_ns: crate::span::now_ns(),
    });
}

/// How often (in checkpoints) the wall clock is consulted; cancel flags
/// and count limits are checked at every checkpoint.
const DEADLINE_STRIDE: u64 = 64;

#[derive(Clone, Copy)]
enum Charge {
    None,
    Conflict,
    OracleCall,
    Model,
}

fn drive(charge: Charge) -> Governed<()> {
    GOVERNORS.with(|g| {
        let mut result = Ok(());
        // Innermost first; every governor counts, and the innermost trip
        // is the one reported.
        for frame in g.borrow().iter().rev() {
            if let Err(trip) = frame.drive(charge) {
                if result.is_ok() {
                    result = Err(trip);
                }
            }
        }
        result
    })
}

/// The cheap per-iteration call sprinkled through search loops. Counts
/// one checkpoint against every installed governor and trips on cancel
/// flags, count limits, injected faults, and (every `DEADLINE_STRIDE`-th
/// call) the wall clock.
pub fn checkpoint() -> Governed<()> {
    drive(Charge::None)
}

/// Charges one SAT-solver conflict (also a checkpoint).
pub fn charge_conflict() -> Governed<()> {
    drive(Charge::Conflict)
}

/// Charges one NP-oracle (SAT solve) call (also a checkpoint; always
/// consults the wall clock).
pub fn charge_oracle_call() -> Governed<()> {
    drive(Charge::OracleCall)
}

/// Charges one enumerated model (also a checkpoint; always consults the
/// wall clock).
pub fn charge_model() -> Governed<()> {
    drive(Charge::Model)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_budget_is_free() {
        assert!(!active());
        assert!(checkpoint().is_ok());
        assert!(charge_conflict().is_ok());
        assert!(charge_oracle_call().is_ok());
        assert!(charge_model().is_ok());
        assert_eq!(consumed(), None);
    }

    #[test]
    fn unlimited_budget_counts_but_never_trips() {
        let _g = Budget::unlimited().install();
        for _ in 0..1000 {
            checkpoint().unwrap();
        }
        charge_conflict().unwrap();
        charge_oracle_call().unwrap();
        charge_model().unwrap();
        let c = consumed().unwrap();
        assert_eq!(c.checkpoints, 1003);
        assert_eq!(c.conflicts, 1);
        assert_eq!(c.oracle_calls, 1);
        assert_eq!(c.models, 1);
    }

    #[test]
    fn intersect_takes_the_tighter_limit_per_resource() {
        let server = Budget::unlimited()
            .with_timeout(Duration::from_millis(500))
            .with_max_oracle_calls(100);
        let client = Budget::unlimited()
            .with_timeout(Duration::from_millis(2000))
            .with_max_oracle_calls(10)
            .with_max_models(3)
            .fail_after(7);
        let eff = server.intersect(&client);
        assert_eq!(eff.timeout, Some(Duration::from_millis(500)));
        assert_eq!(eff.max_oracle_calls, Some(10));
        assert_eq!(eff.max_models, Some(3));
        assert_eq!(eff.max_conflicts, None);
        assert_eq!(eff.fail_after, Some(7));
    }

    #[test]
    fn intersect_unions_cancel_flags() {
        let server_flag = Arc::new(AtomicBool::new(false));
        let request_flag = Arc::new(AtomicBool::new(false));
        let with_flag = Budget::unlimited().with_cancel_flag(server_flag.clone());
        let plain = Budget::unlimited();
        assert_eq!(plain.intersect(&with_flag).cancel_flags.len(), 1);
        assert_eq!(with_flag.intersect(&plain).cancel_flags.len(), 1);
        assert!(plain.intersect(&plain).cancel_flags.is_empty());
        // Both operands carry a flag: both survive, and the same flag on
        // both sides is not doubled.
        let defaults = Budget::unlimited().with_cancel_flag(server_flag.clone());
        let request = Budget::unlimited().with_cancel_flag(request_flag.clone());
        assert_eq!(defaults.intersect(&request).cancel_flags.len(), 2);
        assert_eq!(defaults.intersect(&defaults).cancel_flags.len(), 1);
    }

    #[test]
    fn either_sides_cancel_flag_trips_an_intersected_budget() {
        for raise_server_side in [true, false] {
            let server_flag = Arc::new(AtomicBool::new(false));
            let request_flag = Arc::new(AtomicBool::new(false));
            let defaults = Budget::unlimited().with_cancel_flag(server_flag.clone());
            let request = Budget::unlimited().with_cancel_flag(request_flag.clone());
            let _g = defaults.intersect(&request).install();
            checkpoint().unwrap();
            if raise_server_side {
                server_flag.store(true, Ordering::Relaxed);
            } else {
                request_flag.store(true, Ordering::Relaxed);
            }
            assert_eq!(checkpoint().unwrap_err().resource, Resource::Cancelled);
        }
    }

    #[test]
    fn intersected_budget_trips_at_the_tighter_cap() {
        let server = Budget::unlimited().with_max_oracle_calls(2);
        let client = Budget::unlimited().with_max_oracle_calls(50);
        let _g = server.intersect(&client).install();
        charge_oracle_call().unwrap();
        charge_oracle_call().unwrap();
        let err = charge_oracle_call().unwrap_err();
        assert_eq!(err.resource, Resource::OracleCalls);
    }

    #[test]
    fn guard_uninstalls() {
        {
            let _g = Budget::unlimited().install();
            assert!(active());
        }
        assert!(!active());
    }

    #[test]
    fn oracle_call_limit_trips_and_sticks() {
        let _g = Budget::unlimited().with_max_oracle_calls(2).install();
        charge_oracle_call().unwrap();
        charge_oracle_call().unwrap();
        let err = charge_oracle_call().unwrap_err();
        assert_eq!(err.resource, Resource::OracleCalls);
        // Sticky: even a plain checkpoint now reports the trip.
        assert_eq!(checkpoint().unwrap_err().resource, Resource::OracleCalls);
    }

    #[test]
    fn conflict_and_model_limits_trip() {
        {
            let _g = Budget::unlimited().with_max_conflicts(1).install();
            charge_conflict().unwrap();
            assert_eq!(charge_conflict().unwrap_err().resource, Resource::Conflicts);
        }
        {
            let _g = Budget::unlimited().with_max_models(1).install();
            charge_model().unwrap();
            assert_eq!(charge_model().unwrap_err().resource, Resource::Models);
        }
    }

    #[test]
    fn fail_after_is_exact() {
        for n in 0..5u64 {
            let _g = Budget::unlimited().fail_after(n).install();
            for i in 0..n {
                assert!(checkpoint().is_ok(), "checkpoint {i} under fail_after({n})");
            }
            let err = checkpoint().unwrap_err();
            assert_eq!(err.resource, Resource::FaultInjection);
            assert_eq!(err.checkpoint, n + 1);
        }
    }

    #[test]
    fn cancel_flag_trips_promptly() {
        let flag = Arc::new(AtomicBool::new(false));
        let _g = Budget::unlimited().with_cancel_flag(flag.clone()).install();
        checkpoint().unwrap();
        flag.store(true, Ordering::Relaxed);
        assert_eq!(checkpoint().unwrap_err().resource, Resource::Cancelled);
    }

    #[test]
    fn expired_deadline_trips_on_coarse_charge() {
        let _g = Budget::unlimited()
            .with_timeout(Duration::from_millis(0))
            .install();
        // Plain checkpoints may ride the stride, but a coarse charge
        // consults the clock immediately.
        assert_eq!(
            charge_oracle_call().unwrap_err().resource,
            Resource::Deadline
        );
    }

    #[test]
    fn nested_budgets_inner_trips_first() {
        let _outer = Budget::unlimited().with_max_oracle_calls(10).install();
        let inner = Budget::unlimited().with_max_oracle_calls(1).install();
        charge_oracle_call().unwrap();
        assert_eq!(
            charge_oracle_call().unwrap_err().resource,
            Resource::OracleCalls
        );
        drop(inner);
        // Outer governor was charged too but has headroom left.
        assert!(charge_oracle_call().is_ok());
    }

    #[test]
    fn interrupted_renders() {
        let i = Interrupted {
            resource: Resource::Deadline,
            checkpoint: 42,
            partial: Some("3 models found".into()),
        };
        assert_eq!(
            i.to_string(),
            "interrupted: deadline (checkpoint 42); 3 models found"
        );
        assert!(Interrupted::invariant("broken")
            .to_string()
            .contains("invariant"));
    }
}
