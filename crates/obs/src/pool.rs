//! A zero-dependency, budget-inheriting worker pool.
//!
//! The paper's hard semantics decompose into many independent
//! oracle-heavy subproblems (same-layer splitting components, profile
//! cells, batched queries). This pool runs such job lists on `std`
//! scoped threads with three guarantees the evaluation stack relies on:
//!
//! - **Budget and scope inheritance**: each worker installs the parent
//!   thread's [`crate::budget::BudgetHandle`] on entry, so deadlines,
//!   caps, cancel flags, and fault injection govern workers exactly as
//!   they govern the parent; a trip anywhere stops every thread at its
//!   next checkpoint, and consumption merges into the parent's totals.
//!   Likewise each worker records under the parent's innermost
//!   [`crate::record`] scope: what it recorded folds into that scope when
//!   the batch joins.
//! - **Deterministic merge**: jobs return indexed results and the parent
//!   receives them in submission order, so output is byte-identical to a
//!   sequential run regardless of scheduling.
//! - **Sequential degeneration**: with one thread (or one job) the jobs
//!   run inline on the calling thread, in order — the parallel code path
//!   *is* the sequential code path.
//!
//! Counters: `pool.batches` (parallel batches run), `pool.jobs` (jobs
//! dispatched to workers), `pool.threads.peak` (widest batch). When jobs
//! actually fan out to workers, each job additionally runs under a
//! `pool.job` span (giving every worker track a root in trace timelines)
//! and records its wall time into the `pool.job.ns` histogram; the
//! inline width-1 path stays uninstrumented so the sequential code path
//! keeps its zero-overhead contract.

use crate::budget;
use crate::recorder::{self, counter_bump, counter_bump_max};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `jobs` on up to `threads` workers and returns their results in
/// submission order.
///
/// With `threads <= 1` or fewer than two jobs, everything runs inline on
/// the calling thread. Otherwise `min(threads, jobs.len())` scoped
/// workers pull jobs from a shared index, each under the parent's
/// mirrored budget stack and recording scope; panics in jobs propagate
/// to the caller.
pub fn run_indexed<T, F>(threads: usize, jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    if threads <= 1 || n <= 1 {
        return jobs.into_iter().map(|job| job()).collect();
    }
    let workers = threads.min(n);
    counter_bump("pool.batches", 1);
    counter_bump("pool.jobs", n as u64);
    counter_bump_max("pool.threads.peak", workers as u64);
    let handle = budget::handle();
    let events = recorder::keeps_events();
    let next = AtomicUsize::new(0);
    let jobs: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let handoffs: Vec<_> = std::thread::scope(|scope| {
        let spawned: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let _governed = handle.install();
                    recorder::on_worker(events, || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let job = jobs[i]
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .take()
                            .expect("each job index is claimed exactly once");
                        let out = {
                            let _job_span = crate::span::hist_span("pool.job", "pool.job.ns");
                            job()
                        };
                        *results[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
                    })
                })
            })
            .collect();
        // Re-raise a job's panic; `scope` still joins every worker first.
        spawned
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    for handoff in handoffs {
        handoff.absorb();
    }
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("scope joined every worker, so every slot is filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{charge_oracle_call, checkpoint, Budget, Resource};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn results_come_back_in_submission_order() {
        for threads in [1, 2, 4, 8] {
            let jobs: Vec<_> = (0..32)
                .map(|i| {
                    move || {
                        if i % 3 == 0 {
                            std::thread::yield_now();
                        }
                        i * i
                    }
                })
                .collect();
            let got = run_indexed(threads, jobs);
            let want: Vec<_> = (0..32).map(|i| i * i).collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn workers_record_into_the_callers_scope() {
        let ((), rec) = crate::record(true, || {
            let jobs: Vec<_> = (0..6)
                .map(|i| move || counter_bump("test.pool.worker", i))
                .collect();
            run_indexed(3, jobs);
        });
        assert_eq!(rec.counters.get("test.pool.worker"), 15);
        assert_eq!(rec.counters.get("pool.jobs"), 6);
        assert_eq!(rec.counters.get("span.pool.job.calls"), 6);
        assert_eq!(rec.histograms.count("pool.job.ns"), 6);
        assert_eq!(crate::check_track_nesting(&rec.events), Ok(6));
    }

    #[test]
    fn workers_inherit_the_parent_budget() {
        let _g = Budget::unlimited().with_max_oracle_calls(5).install();
        let jobs: Vec<_> = (0..8)
            .map(|_| || charge_oracle_call().map_err(|e| e.resource))
            .collect();
        let results = run_indexed(4, jobs);
        let ok = results.iter().filter(|r| r.is_ok()).count();
        assert_eq!(ok, 5, "the cap splits across workers: {results:?}");
        assert!(results
            .iter()
            .all(|r| matches!(r, Ok(()) | Err(Resource::OracleCalls))));
        // The tripping charge (and any charge racing with it) still
        // increments the shared counter before observing the trip, just
        // as a sequential run records the over-cap charge.
        let merged = crate::budget::consumed().unwrap().oracle_calls;
        assert!(
            (6..=8).contains(&merged),
            "worker charges merged into the parent's totals: {merged}"
        );
    }

    #[test]
    fn parent_cancel_stops_every_worker() {
        let flag = Arc::new(AtomicBool::new(false));
        let _g = Budget::unlimited().with_cancel_flag(flag.clone()).install();
        let jobs: Vec<_> = (0..4)
            .map(|_| {
                let flag = flag.clone();
                move || {
                    flag.store(true, std::sync::atomic::Ordering::Relaxed);
                    let mut seen = None;
                    for _ in 0..1_000_000 {
                        if let Err(e) = checkpoint() {
                            seen = Some(e.resource);
                            break;
                        }
                    }
                    seen
                }
            })
            .collect();
        let results = run_indexed(4, jobs);
        assert!(
            results.iter().all(|r| *r == Some(Resource::Cancelled)),
            "every worker observed the typed interruption: {results:?}"
        );
    }

    #[test]
    fn inline_path_runs_without_spawning() {
        let on_parent = std::thread::current().id();
        let jobs: Vec<_> = (0..3)
            .map(|_| move || std::thread::current().id() == on_parent)
            .collect();
        assert!(run_indexed(1, jobs).into_iter().all(|same| same));
    }
}
