//! Unscripted rediscovery of the Figure 4a violation class.
//!
//! PR 0–3 replayed the paper's counterexample from a hand-written schedule.
//! Here the nemesis *finds* it: random seed-driven fault plans against the
//! RDMA stack under naive per-shard reconfiguration until one provokes
//! contradictory client decisions, which is then shrunk to a minimal
//! schedule. The same schedule is verified harmless under the correct global
//! reconfiguration — the paper's central claim, demonstrated adversarially.

use ratc_chaos::{find_naive_violation, reproduces_violation};
use ratc_harness::StackKind;

const MAX_SEEDS: u64 = 300;

#[test]
fn nemesis_rediscovers_and_shrinks_the_naive_reconfiguration_violation() {
    let result = find_naive_violation(MAX_SEEDS)
        .expect("the nemesis must find a contradictory-decision violation");

    // The report of the failing run names the violation class.
    assert!(
        result
            .report
            .safety_violations
            .iter()
            .any(|v| v.contains("contradictory decisions")),
        "violations: {:?}",
        result.report.safety_violations
    );

    // Acceptance criterion: the shrunk schedule is small and human-readable.
    assert!(
        result.shrunk.len() <= 6,
        "shrunk schedule has {} events:\n{}",
        result.shrunk.len(),
        result.shrunk
    );
    assert!(result.shrunk.noise.is_none(), "noise shrinks away");

    // The shrunk schedule still reproduces deterministically...
    let (again, _) = reproduces_violation(StackKind::RdmaNaive, result.seed, &result.shrunk);
    assert!(again, "shrunk schedule must still reproduce");

    // ...and is 1-minimal: removing any single event loses the violation.
    for i in 0..result.shrunk.len() {
        let weaker = result.shrunk.without_event(i);
        let (still, _) = reproduces_violation(StackKind::RdmaNaive, result.seed, &weaker);
        assert!(
            !still,
            "event {} ({}) is removable — the shrinker should have dropped it",
            i, result.shrunk.events[i].event
        );
    }

    // The very same schedule is harmless under the correct protocol: the
    // probe step closes RDMA connections, the stale write is rejected, and
    // the run ends safe and live.
    let (correct_repro, correct_report) =
        reproduces_violation(StackKind::Rdma, result.seed, &result.shrunk);
    assert!(
        !correct_repro,
        "global reconfiguration must exclude the violation"
    );
    assert!(
        correct_report.ok(),
        "correct-mode run must be safe and live: violations={:?} undecided={:?}",
        correct_report.safety_violations,
        correct_report.undecided
    );
}

/// The hunt is deterministic: searching again finds the same seed and
/// shrinks to the same schedule.
#[test]
fn the_hunt_is_deterministic() {
    let a = find_naive_violation(MAX_SEEDS).expect("found once");
    let b = find_naive_violation(MAX_SEEDS).expect("found twice");
    assert_eq!(a.seed, b.seed);
    assert_eq!(a.plan, b.plan);
    assert_eq!(a.shrunk, b.shrunk);
    assert_eq!(a.report, b.report);
}
