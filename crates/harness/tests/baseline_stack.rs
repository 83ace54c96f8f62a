//! Tests of the 2PC-over-Paxos baseline that need the typed baseline
//! shell: the 7-message-delay latency pin, payload pruning, failure
//! masking, batched log appends, bounded retries and the flow-control
//! regression.

use ratc_baseline::TransactionManager;
use ratc_core::batch::BatchingConfig;
use ratc_core::flow::FlowControlConfig;
use ratc_harness::{BaselineStack, ClusterSpec, SimCluster, StackKind, TcsCluster};
use ratc_sim::{SimDuration, SimTime};
use ratc_types::{Decision, Key, Payload, ShardId, TxId, Value, Version};

fn rw(key: &str) -> Payload {
    Payload::builder()
        .read(Key::new(key), Version::new(0))
        .write(Key::new(key), Value::from("v"))
        .commit_version(Version::new(1))
        .build()
        .expect("well-formed")
}

#[test]
fn decided_payloads_are_pruned_from_shard_replicas() {
    let mut cluster = ClusterSpec::new(StackKind::Baseline)
        .with_seed(17)
        .build_typed::<BaselineStack>();
    let total = 60u64;
    for i in 0..total {
        cluster.submit(TxId::new(i + 1), rw(&format!("k{i}")));
        cluster.run_to_quiescence();
    }
    assert_eq!(cluster.history().decide_count(), total as usize);
    for shard in [ShardId::new(0), ShardId::new(1)] {
        let leader = cluster.leader_of(shard).expect("leader");
        let replica = cluster.shard_replica(leader);
        // Every decided transaction's payload was dropped: only the
        // compact decision map grows with the history.
        assert_eq!(
            replica.retained_payloads(),
            0,
            "shard {shard} leader retains payloads after all decisions"
        );
        assert!(replica.decided_count() > 0);
    }
    // Conflict detection still works off the committed residue: a stale
    // re-writer of a pruned key must be aborted.
    cluster.submit(TxId::new(total + 1), rw("k0"));
    cluster.run_to_quiescence();
    assert_eq!(
        cluster.history().decision(TxId::new(total + 1)),
        Some(Decision::Abort),
        "re-writing a pruned key at its stale version must abort"
    );
    assert!(cluster.client_violations().is_empty());
}

#[test]
fn single_transaction_commits_in_seven_delays_at_steady_state() {
    let mut cluster = ClusterSpec::new(StackKind::Baseline).build_typed::<BaselineStack>();
    // First transaction pays Paxos phase-1 once; measure the second.
    cluster.submit(TxId::new(1), rw("warmup"));
    cluster.run_to_quiescence();
    cluster.submit(TxId::new(2), rw("x"));
    cluster.run_to_quiescence();
    let history = cluster.history();
    assert_eq!(history.decision(TxId::new(2)), Some(Decision::Commit));
    let hops = cluster.latencies()[&TxId::new(2)].hops;
    assert_eq!(
        hops, 7,
        "baseline decision latency must be 7 message delays"
    );
    assert!(cluster.client_violations().is_empty());
}

#[test]
fn a_single_follower_failure_is_masked_without_reconfiguration() {
    let mut cluster = ClusterSpec::new(StackKind::Baseline)
        .with_seed(3)
        .build_typed::<BaselineStack>();
    let shard = ShardId::new(0);
    // Crash one non-leader replica of shard 0: the Paxos majority survives,
    // so transactions keep committing with no reconfiguration.
    let victim = cluster.roster(shard)[1];
    cluster.crash(victim);
    for i in 0..10 {
        cluster.submit(TxId::new(i), rw(&format!("k{i}")));
    }
    cluster.run_to_quiescence();
    assert_eq!(cluster.history().committed().count(), 10);
    assert!(cluster.client_violations().is_empty());
}

#[test]
fn batched_log_appends_commit_and_occupy_fewer_paxos_slots() {
    let run = |batch: usize| {
        let mut cluster = ClusterSpec::new(StackKind::Baseline)
            .with_shards(1)
            .with_seed(23)
            .with_batching(BatchingConfig::with_batch(batch))
            .build_typed::<BaselineStack>();
        for i in 0..32u64 {
            cluster.submit(TxId::new(i + 1), rw(&format!("k{i}")));
        }
        cluster.run_to_quiescence();
        assert_eq!(cluster.history().committed().count(), 32);
        assert!(cluster.client_violations().is_empty());
        let leader = cluster.leader_of(ShardId::new(0)).expect("leader");
        cluster.shard_replica(leader).chosen_slots()
    };
    let unbatched_slots = run(1);
    let batched_slots = run(8);
    assert_eq!(unbatched_slots, 32, "one Paxos slot per transaction");
    assert!(
        batched_slots * 4 <= unbatched_slots,
        "batched appends must occupy far fewer slots ({batched_slots} vs {unbatched_slots})"
    );
}

/// Pinned regression: the TM's retry and retransmission timers are
/// capped, so `run_to_quiescence` terminates even when a shard is
/// permanently unrecoverable (a whole Paxos group crashed with no
/// restart). Without the cap the retry tick re-arms forever and the
/// event queue never drains.
#[test]
fn run_to_quiescence_terminates_with_a_shard_permanently_down() {
    let mut cluster = ClusterSpec::new(StackKind::Baseline)
        .with_seed(7)
        .build_typed::<BaselineStack>();
    for pid in cluster.roster(ShardId::new(0)).to_vec() {
        cluster.crash(pid);
    }
    cluster.submit(TxId::new(1), rw("k-on-any-shard"));
    cluster.run_to_quiescence();
    // The transaction touching the dead shard may stay undecided — the
    // point is that the call returned.
    assert!(cluster.history().certify_count() == 1);
    assert!(cluster.client_violations().is_empty());
}

/// Deterministic reproduction of the congestive collapse the threaded
/// engine first exposed under a 2000-deep flood, entirely in virtual time. The simulator's default zero-cost handlers masked the
/// collapse (retries were free), so the world is given a per-message
/// service time, making every process a single-server queue. Under a
/// deep open-loop flood the legacy fixed-interval retry tick re-drives
/// every pending transaction every 20 ms — more work per tick than the
/// shard leader can serve per tick — and transactions stay undecided for
/// the whole (bounded) virtual-time budget. The same flood under the
/// flow-control layer (admission window + retry backoff) fully decides.
#[test]
fn flow_control_fixes_the_simulated_congestive_collapse() {
    let run = |flow: FlowControlConfig| {
        let mut spec = ClusterSpec::new(StackKind::Baseline)
            .with_shards(1)
            .with_seed(41)
            .with_flow_control(flow)
            .with_batching(BatchingConfig::disabled());
        spec.sim = spec.sim.with_service_micros(200);
        let mut cluster: SimCluster<BaselineStack> = spec.build_typed();
        // Supercritical: re-driving every pending transaction costs the
        // shard leader `total * service` = 200 ms of work per 20 ms tick.
        let total = 1000u64;
        for i in 0..total {
            cluster.submit(TxId::new(i + 1), rw(&format!("k{i}")));
        }
        // Bounded virtual-time budget: ample for a healthy cluster, far
        // past the point where a collapsing one would have recovered.
        cluster.run_until(SimTime::ZERO + SimDuration::from_millis(5_000));
        assert!(cluster.client_violations().is_empty());
        total as usize - cluster.history().decide_count()
    };
    let undecided_legacy = run(FlowControlConfig::legacy());
    assert!(
        undecided_legacy > 0,
        "pre-fix configuration must reproduce the collapse (all decided?)"
    );
    let undecided_fixed = run(FlowControlConfig::default());
    assert_eq!(
        undecided_fixed, 0,
        "flow control must fully decide the same flood"
    );
}

#[test]
fn replica_count_is_2f_plus_1_per_group() {
    let cluster = ClusterSpec::new(StackKind::Baseline)
        .with_failures(2)
        .build_typed::<BaselineStack>();
    // 2 shards * 5 replicas + 5 TM members.
    assert_eq!(cluster.all_processes().len(), 15);
    assert_eq!(cluster.roster(ShardId::new(0)).len(), 5);
    assert_eq!(cluster.coordinator_pool().len(), 5);
    assert!(cluster
        .world
        .actor::<TransactionManager>(cluster.coordinator_pool()[0])
        .expect("tm")
        .is_leader());
}
