//! Governance of the grounding loops: an installed [`Budget`] trips
//! *during* grounding — semi-naive closure, exact instantiation, and the
//! demand-driven magic closure — not only inside SAT/fixpoint work.
//!
//! The headline is the fault-injection sweep: probe a grounding run with
//! an unlimited budget to learn its checkpoint total `K`, then re-run it
//! with `fail_after(k)` for every `k < K` and require a typed
//! [`GroundingError::Interrupted`] each time — never a panic, never a
//! wrong database.

use ddb_ground::parse::parse_datalog;
use ddb_ground::{ground_full, ground_magic, ground_reduced, GroundingError};
use ddb_obs::budget::{self, Budget};
use ddb_obs::Resource;
use ddb_workloads::structured::bound_chains;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A non-trivial recursive Datalog∨ source (several chains, real joins).
fn chains_source() -> String {
    bound_chains(3, 6).0
}

/// Checkpoints consumed by one grounding run under an unlimited budget.
fn probe<F: FnOnce()>(run: F) -> u64 {
    let guard = Budget::unlimited().install();
    run();
    let consumed = budget::consumed().expect("budget installed");
    drop(guard);
    consumed.checkpoints
}

#[test]
fn ground_reduced_counts_checkpoints() {
    let prog = parse_datalog(&chains_source()).unwrap();
    let k = probe(|| {
        ground_reduced(&prog, 1_000_000).unwrap();
    });
    assert!(k > 10, "expected a real checkpoint trail, got {k}");
}

#[test]
fn fault_injection_sweep_over_ground_reduced() {
    let prog = parse_datalog(&chains_source()).unwrap();
    let total = probe(|| {
        ground_reduced(&prog, 1_000_000).unwrap();
    });
    // Sweep a prefix densely and the rest strided, keeping the test fast
    // while still crossing every loop the grounder owns.
    let ks: Vec<u64> = (0..total.min(40)).chain((40..total).step_by(97)).collect();
    for k in ks {
        let guard = Budget::unlimited().fail_after(k).install();
        let result = ground_reduced(&prog, 1_000_000);
        drop(guard);
        match result {
            Err(GroundingError::Interrupted(i)) => {
                assert_eq!(i.resource, Resource::FaultInjection, "fail_after({k})");
            }
            other => panic!("fail_after({k}): expected Interrupted, got {other:?}"),
        }
    }
}

#[test]
fn fault_injection_sweep_over_ground_magic() {
    let prog = parse_datalog(&chains_source()).unwrap();
    let query = parse_datalog("reach(c0,n6).").unwrap().rules[0].head[0].clone();
    let total = probe(|| {
        ground_magic(&prog, &query, 1_000_000).unwrap();
    });
    assert!(total > 0, "magic grounding must checkpoint");
    let ks: Vec<u64> = (0..total.min(40)).chain((40..total).step_by(97)).collect();
    for k in ks {
        let guard = Budget::unlimited().fail_after(k).install();
        let result = ground_magic(&prog, &query, 1_000_000);
        drop(guard);
        match result {
            Err(GroundingError::Interrupted(i)) => {
                assert_eq!(i.resource, Resource::FaultInjection, "fail_after({k})");
            }
            other => panic!("fail_after({k}): expected Interrupted, got {other:?}"),
        }
    }
}

#[test]
fn fault_injection_trips_ground_full() {
    let prog = parse_datalog(&chains_source()).unwrap();
    let guard = Budget::unlimited().fail_after(0).install();
    let result = ground_full(&prog, 1_000_000);
    drop(guard);
    assert!(
        matches!(result, Err(GroundingError::Interrupted(_))),
        "got {result:?}"
    );
}

#[test]
fn cancel_flag_trips_grounding_immediately() {
    let prog = parse_datalog(&chains_source()).unwrap();
    let flag = Arc::new(AtomicBool::new(true));
    let guard = Budget::unlimited().with_cancel_flag(flag.clone()).install();
    let result = ground_reduced(&prog, 1_000_000);
    drop(guard);
    match result {
        Err(GroundingError::Interrupted(i)) => assert_eq!(i.resource, Resource::Cancelled),
        other => panic!("expected cancelled, got {other:?}"),
    }
    flag.store(false, Ordering::SeqCst);
}

/// Checkpoints between two reads of the wall clock (`DEADLINE_STRIDE` in
/// `ddb_obs::budget`).
const DEADLINE_STRIDE: u64 = 64;

#[test]
fn deadline_trips_during_grounding() {
    // A saturating workload: dense joins keep the grounder busy long
    // enough for an already-expired deadline to be observed. Deadlines are
    // polled every DEADLINE_STRIDE checkpoints, so the run must make at
    // least that many for the trip to be reachable at all.
    let prog = parse_datalog(&bound_chains(6, 24).0).unwrap();
    let total = probe(|| {
        ground_reduced(&prog, 10_000_000).unwrap();
    });
    assert!(
        total >= DEADLINE_STRIDE,
        "bound_chains(6,24) makes only {total} checkpoints, fewer than the deadline stride"
    );
    let guard = Budget::unlimited()
        .with_timeout(std::time::Duration::from_millis(0))
        .install();
    let result = ground_reduced(&prog, 10_000_000);
    drop(guard);
    match result {
        Err(GroundingError::Interrupted(i)) => assert_eq!(i.resource, Resource::Deadline),
        other => panic!("expected deadline trip, got {other:?}"),
    }
}

#[test]
fn ungoverned_grounding_is_unchanged() {
    // No budget installed: checkpoints are free no-ops and the grounder
    // behaves exactly as before.
    let prog = parse_datalog(&chains_source()).unwrap();
    let a = ground_reduced(&prog, 1_000_000).unwrap();
    let guard = Budget::unlimited().install();
    let b = ground_reduced(&prog, 1_000_000).unwrap();
    drop(guard);
    assert_eq!(a.num_atoms(), b.num_atoms());
    assert_eq!(a.rules().len(), b.rules().len());
}
