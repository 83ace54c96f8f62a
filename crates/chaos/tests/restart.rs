//! Crash–restart recovery under load, per stack.
//!
//! A process crashed mid-traffic and later restarted recovers from what it
//! models as stable storage (checkpoint + suffix of the certification log,
//! or the durable Paxos state), re-establishes its connections, and the
//! cluster finishes every transaction without a reconfiguration being
//! strictly necessary. All four suites drive the same stack-agnostic
//! [`ChaosHarness`](ratc_chaos::ChaosHarness); only the stack selector and
//! the assertions differ.

use ratc_chaos::{build_harness, run_soak, FaultEvent, FaultPlan, SoakConfig, TimedFault};
use ratc_harness::StackKind;
use ratc_types::ShardId;

fn restart_plan(events: &[(u64, FaultEvent)]) -> FaultPlan {
    FaultPlan {
        noise: None,
        events: events
            .iter()
            .map(|(at_micros, event)| TimedFault {
                at_micros: *at_micros,
                event: event.clone(),
            })
            .collect(),
    }
}

fn leader_and_follower_restart_plan() -> FaultPlan {
    let s0 = ShardId::new(0);
    let s1 = ShardId::new(1);
    restart_plan(&[
        (5_000, FaultEvent::CrashLeader { shard: s0 }),
        (
            8_000,
            FaultEvent::CrashFollower {
                shard: s1,
                index: 0,
            },
        ),
        (14_000, FaultEvent::RestartCrashed),
        (20_000, FaultEvent::CrashCoordinator),
        (26_000, FaultEvent::RestartCrashed),
    ])
}

fn config() -> SoakConfig {
    SoakConfig {
        seed: 11,
        txs: 40,
        ..SoakConfig::default()
    }
}

#[test]
fn core_replicas_recover_from_checkpoint_and_suffix_under_load() {
    let mut harness = build_harness(StackKind::Core, 2, 11, None);
    let report = run_soak(&mut harness, &config(), &leader_and_follower_restart_plan());
    assert!(
        report.ok(),
        "violations={:?} undecided={:?}",
        report.safety_violations,
        report.undecided
    );
    // Restarts actually exercised the recovery path (the counter is bumped
    // by `Replica::on_restart`, which rebuilds the certification index from
    // checkpoint + suffix).
    assert!(
        harness.cluster().counter("replica_restarts") >= 3,
        "expected at least three replica restarts"
    );
}

#[test]
fn rdma_replicas_reconnect_and_recover_under_load() {
    let mut harness = build_harness(StackKind::Rdma, 2, 11, None);
    let report = run_soak(&mut harness, &config(), &leader_and_follower_restart_plan());
    assert!(
        report.ok(),
        "violations={:?} undecided={:?}",
        report.safety_violations,
        report.undecided
    );
    assert!(harness.cluster().counter("replica_restarts") >= 3);
}

#[test]
fn baseline_masks_a_follower_crash_and_recovers_leaders_by_restart() {
    let s0 = ShardId::new(0);
    // The minority follower crash is masked by Paxos without any repair; the
    // shard leader and the TM leader recover by restarting from their
    // durable Paxos state.
    let plan = restart_plan(&[
        (
            4_000,
            FaultEvent::CrashFollower {
                shard: s0,
                index: 0,
            },
        ),
        (9_000, FaultEvent::CrashLeader { shard: s0 }),
        (15_000, FaultEvent::RestartCrashed),
        (20_000, FaultEvent::CrashCoordinator), // the TM leader
        (26_000, FaultEvent::RestartCrashed),
    ]);
    let mut harness = build_harness(StackKind::Baseline, 2, 11, None);
    let report = run_soak(&mut harness, &config(), &plan);
    assert!(
        report.ok(),
        "violations={:?} undecided={:?}",
        report.safety_violations,
        report.undecided
    );
    let cluster = harness.cluster();
    assert!(cluster.counter("replica_restarts") + cluster.counter("tm_restarts") >= 3);
}

/// A leader that crashes and restarts resumes leadership from its persisted
/// log — no reconfiguration required (the registry epoch never moves).
#[test]
fn core_leader_restart_resumes_without_reconfiguration() {
    let s0 = ShardId::new(0);
    let plan = restart_plan(&[
        (6_000, FaultEvent::CrashLeader { shard: s0 }),
        (12_000, FaultEvent::RestartCrashed),
    ]);
    let mut harness = build_harness(StackKind::Core, 2, 23, None);
    let report = run_soak(&mut harness, &config(), &plan);
    assert!(
        report.ok(),
        "violations={:?} undecided={:?}",
        report.safety_violations,
        report.undecided
    );
    assert_eq!(
        harness.cluster().epoch_of(s0).as_u64(),
        0,
        "no reconfiguration should have been needed"
    );
}
