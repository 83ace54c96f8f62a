//! Tests of the message-passing stack (§3) that need the typed core shell:
//! the 5-message-delay latency pin, truncation, batching, decision-map
//! compaction, reconfiguration and the Figure 3 invariants.

use ratc_core::batch::BatchingConfig;
use ratc_core::log::TxPhase;
use ratc_core::replica::TruncationConfig;
use ratc_core::Msg;
use ratc_harness::{ClusterSpec, CoreStack, SimCluster, StackKind, TcsCluster};
use ratc_types::{Decision, Epoch, Key, Payload, ShardId, TxId, Value, Version};

fn rw_payload(key: &str, read_version: u64, commit_version: u64) -> Payload {
    Payload::builder()
        .read(Key::new(key), Version::new(read_version))
        .write(Key::new(key), Value::from("v"))
        .commit_version(Version::new(commit_version))
        .build()
        .expect("well-formed")
}

#[test]
fn single_transaction_commits_in_five_delays() {
    let mut cluster: SimCluster<CoreStack> = ClusterSpec::new(StackKind::Core).build_typed();
    cluster.submit(TxId::new(1), rw_payload("x", 0, 1));
    cluster.run_to_quiescence();
    let history = cluster.history();
    assert_eq!(history.decision(TxId::new(1)), Some(Decision::Commit));
    assert!(cluster.client_violations().is_empty());
    let latency = cluster.latencies()[&TxId::new(1)];
    assert_eq!(
        latency.hops, 5,
        "decision must arrive after 5 message delays"
    );
}

#[test]
fn long_history_is_truncated_to_a_bounded_log() {
    let mut cluster: SimCluster<CoreStack> = ClusterSpec::new(StackKind::Core)
        .with_shards(1)
        .with_seed(7)
        .with_truncation(TruncationConfig::with_batch(8))
        .build_typed();
    let total = 200u64;
    for i in 0..total {
        cluster.submit(TxId::new(i + 1), rw_payload(&format!("k{i}"), 0, 1));
        cluster.run_to_quiescence();
    }
    assert_eq!(cluster.history().decide_count(), total as usize);
    assert!(cluster.client_violations().is_empty());
    let shard = ShardId::new(0);
    for pid in cluster.roster(shard).to_vec() {
        let log = cluster.replica(pid).log();
        assert!(
            log.base().as_u64() > 0,
            "member {pid} never truncated its log"
        );
        assert!(
            log.len() < 64,
            "member {pid} retains {} slots of a {total}-tx history",
            log.len()
        );
        // Logical positions and decisions survive the physical fold.
        assert_eq!(log.next().as_u64(), total);
        assert!(log.position_of(TxId::new(1)).is_some());
    }
    let violations = cluster.check_invariants();
    assert!(violations.is_empty(), "violations: {violations:?}");
}

#[test]
fn prepare_for_truncated_transaction_returns_the_decision() {
    let mut cluster: SimCluster<CoreStack> = ClusterSpec::new(StackKind::Core)
        .with_shards(1)
        .with_seed(13)
        .with_truncation(TruncationConfig::with_batch(1))
        .build_typed();
    for i in 0..10u64 {
        cluster.submit(TxId::new(i + 1), rw_payload(&format!("k{i}"), 0, 1));
        cluster.run_to_quiescence();
    }
    let shard = ShardId::new(0);
    let leader = cluster.leader_of(shard).expect("leader");
    assert_eq!(
        cluster
            .replica(leader)
            .log()
            .truncated_decision(TxId::new(1)),
        Some(Decision::Commit),
        "t1 must be decided and truncated at the leader"
    );
    // A recovery coordinator re-prepares the truncated transaction with
    // the ⊥ payload: the leader answers with the recorded decision
    // instead of re-certifying it as new, and the coordinator forwards
    // the (benign duplicate) decision to the client.
    let other = *cluster
        .roster(shard)
        .iter()
        .find(|p| **p != leader)
        .expect("another member");
    let client = cluster.client_id();
    cluster.world.send_from(
        other,
        leader,
        Msg::Prepare {
            tx: TxId::new(1),
            payload: None,
            shards: vec![shard],
            client,
        },
    );
    cluster.run_to_quiescence();
    assert!(cluster.client_violations().is_empty());
    assert_eq!(
        cluster.history().decision(TxId::new(1)),
        Some(Decision::Commit)
    );
}

/// A shard that missed a transaction's `DECISION` and still holds it as
/// prepared must learn the decision when a recovery coordinator is
/// answered with `TxDecided` by a shard that already truncated it —
/// otherwise the slot (and its `L2` locks) stay stranded forever.
#[test]
fn tx_decided_recovery_unsticks_prepared_slots_at_other_shards() {
    use ratc_types::ShardMap;
    let mut cluster: SimCluster<CoreStack> = ClusterSpec::new(StackKind::Core)
        .with_shards(2)
        .with_seed(19)
        .with_truncation(TruncationConfig::with_batch(1))
        .build_typed();
    let s0 = ShardId::new(0);
    let s1 = ShardId::new(1);
    let key_on = |shard: ShardId, cluster: &SimCluster<CoreStack>| {
        (0..10_000)
            .map(|i| Key::new(format!("k{i}")))
            .find(|k| cluster.sharding().shard_of(k) == shard)
            .expect("hash sharding covers every shard")
    };
    // Two shard-0 transactions: the second's decision floor truncates the
    // first out of every shard-0 log.
    let k0 = key_on(s0, &cluster);
    cluster.submit(TxId::new(1), rw_payload(k0.as_str(), 0, 1));
    cluster.run_to_quiescence();
    cluster.submit(TxId::new(2), rw_payload(&format!("{}x", k0.as_str()), 0, 1));
    cluster.run_to_quiescence();
    let l0 = cluster.leader_of(s0).expect("leader");
    assert_eq!(
        cluster.replica(l0).log().truncated_decision(TxId::new(1)),
        Some(Decision::Commit)
    );

    // Shard 1 "missed the decision": inject a prepare of t1 at shard 1,
    // coordinated by shard-1's follower, with no shard-0 progress — both
    // shard-1 members end up holding t1 as Prepared, undecided.
    let l1 = cluster.leader_of(s1).expect("leader");
    let f1 = *cluster
        .roster(s1)
        .iter()
        .find(|p| **p != l1)
        .expect("follower");
    let k1 = key_on(s1, &cluster);
    let client = cluster.client_id();
    cluster.world.send_from(
        f1,
        l1,
        Msg::Prepare {
            tx: TxId::new(1),
            payload: Some(
                Payload::builder()
                    .read(Key::new(k1.as_str()), ratc_types::Version::new(0))
                    .build()
                    .expect("well-formed"),
            ),
            shards: vec![s0, s1],
            client,
        },
    );
    cluster.run_to_quiescence();
    let pos1 = cluster
        .replica(l1)
        .log()
        .position_of(TxId::new(1))
        .expect("t1 prepared at shard 1");
    assert_eq!(
        cluster.replica(l1).log().get(pos1).unwrap().phase,
        TxPhase::Prepared,
        "precondition: t1 stranded as prepared at shard 1"
    );

    // Recovery: the follower re-coordinates t1. Shard 0 answers with
    // TxDecided (slot truncated); the decision must reach shard 1.
    cluster.retry(f1, TxId::new(1));
    cluster.run_to_quiescence();
    for pid in [l1, f1] {
        let entry = cluster
            .replica(pid)
            .log()
            .get(pos1)
            .expect("slot still present");
        assert_eq!(
            entry.dec,
            Some(Decision::Commit),
            "{pid} still holds t1 undecided after TxDecided recovery"
        );
    }
    assert!(cluster.client_violations().is_empty());
}

#[test]
fn partially_filled_batches_are_flushed_by_the_batch_timer() {
    let mut cluster: SimCluster<CoreStack> = ClusterSpec::new(StackKind::Core)
        .with_shards(1)
        .with_seed(29)
        .with_batching(BatchingConfig::with_batch(64))
        .build_typed();
    let coordinator = cluster.roster(ShardId::new(0))[1];
    // Far fewer submissions than max_batch: only the delay timer can
    // flush them.
    for i in 0..5u64 {
        cluster.submit_via(
            TxId::new(i + 1),
            rw_payload(&format!("k{i}"), 0, 1),
            coordinator,
        );
    }
    cluster.run_to_quiescence();
    assert_eq!(cluster.history().committed().count(), 5);
    assert!(cluster.client_violations().is_empty());
}

#[test]
fn batching_interoperates_with_truncation() {
    let mut cluster: SimCluster<CoreStack> = ClusterSpec::new(StackKind::Core)
        .with_shards(1)
        .with_seed(31)
        .with_truncation(TruncationConfig::with_batch(8))
        .with_batching(BatchingConfig::with_batch(8))
        .build_typed();
    let coordinator = cluster.roster(ShardId::new(0))[1];
    let total = 128u64;
    for wave in 0..(total / 8) {
        for i in 0..8u64 {
            let n = wave * 8 + i;
            cluster.submit_via(
                TxId::new(n + 1),
                rw_payload(&format!("k{n}"), 0, 1),
                coordinator,
            );
        }
        cluster.run_to_quiescence();
    }
    assert_eq!(cluster.history().decide_count(), total as usize);
    for pid in cluster.roster(ShardId::new(0)).to_vec() {
        let log = cluster.replica(pid).log();
        assert!(
            log.base().as_u64() > 0,
            "member {pid} never truncated under batching"
        );
        assert!(log.len() < 64, "member {pid} retains {} slots", log.len());
    }
    assert!(cluster.client_violations().is_empty());
}

/// Decision-map compaction regression: on a 10k-transaction history the
/// checkpoint's per-position decision map must stay bounded (without
/// compaction it grows linearly — one record per truncated transaction).
#[test]
fn compaction_bounds_the_checkpoint_on_a_10k_tx_history() {
    let mut cluster: SimCluster<CoreStack> = ClusterSpec::new(StackKind::Core)
        .with_shards(1)
        .with_seed(37)
        .with_truncation(TruncationConfig::with_batch(8).with_compaction())
        .with_batching(BatchingConfig::with_batch(32))
        .build_typed();
    let coordinator = cluster.roster(ShardId::new(0))[1];
    let total = 10_000u64;
    let wave = 100u64;
    for w in 0..(total / wave) {
        for i in 0..wave {
            let n = w * wave + i;
            cluster.submit_via(
                TxId::new(n + 1),
                rw_payload(&format!("k{n}"), 0, 1),
                coordinator,
            );
        }
        cluster.run_to_quiescence();
    }
    assert_eq!(cluster.history().decide_count(), total as usize);
    assert!(cluster.client_violations().is_empty());
    for pid in cluster.roster(ShardId::new(0)).to_vec() {
        let log = cluster.replica(pid).log();
        assert!(
            log.base().as_u64() > total - 256,
            "member {pid} truncated only to {}",
            log.base()
        );
        assert!(log.len() < 256, "member {pid} retains {} slots", log.len());
        // The point of the satellite: the decision map does not scale
        // with history length once every decision has been acked.
        assert!(
            log.checkpoint().decided_count() < 64,
            "member {pid} retains {} checkpoint records of a {total}-tx history",
            log.checkpoint().decided_count()
        );
        assert!(
            log.acked_pending() < 256,
            "member {pid} holds {} pending acks",
            log.acked_pending()
        );
    }
    // Every decision was acknowledged end to end exactly once, and the
    // coordinator dropped its per-transaction state on the way.
    assert_eq!(cluster.world.metrics().counter("decisions_acked"), total);
    assert_eq!(cluster.replica(coordinator).undecided_coordinated(), 0);
    let violations = cluster.check_invariants();
    assert!(violations.is_empty(), "violations: {violations:?}");
}

#[test]
fn reconfiguration_replaces_a_crashed_follower() {
    let mut cluster: SimCluster<CoreStack> =
        ClusterSpec::new(StackKind::Core).with_seed(5).build_typed();
    let shard = ShardId::new(0);
    let members = cluster.roster(shard).to_vec();
    let leader = cluster.leader_of(shard).expect("leader");
    let follower = *members.iter().find(|p| **p != leader).expect("follower");

    // Commit one transaction first so there is state to transfer.
    cluster.submit(TxId::new(1), rw_payload("a", 0, 1));
    cluster.run_to_quiescence();

    // Crash the follower and reconfigure, initiated by the leader.
    cluster.crash(follower);
    cluster.start_reconfiguration(shard, leader, vec![follower]);
    cluster.run_to_quiescence();

    let new_config = cluster.members_of(shard);
    assert!(
        !new_config.contains(&follower),
        "crashed follower must be replaced"
    );
    assert_eq!(new_config.len(), 2);
    assert_eq!(cluster.epoch_of(shard), Epoch::new(1));

    // The shard keeps certifying transactions after reconfiguration.
    cluster.submit(TxId::new(2), rw_payload("b", 0, 1));
    cluster.run_to_quiescence();
    assert_eq!(
        cluster.history().decision(TxId::new(2)),
        Some(Decision::Commit)
    );
    assert!(cluster.client_violations().is_empty());
}

#[test]
fn leader_crash_is_recovered_by_promoting_the_follower() {
    let mut cluster: SimCluster<CoreStack> = ClusterSpec::new(StackKind::Core)
        .with_seed(11)
        .build_typed();
    let shard = ShardId::new(0);
    let leader = cluster.leader_of(shard).expect("leader");
    let members = cluster.roster(shard).to_vec();
    let follower = *members.iter().find(|p| **p != leader).expect("follower");

    cluster.submit(TxId::new(1), rw_payload("a", 0, 1));
    cluster.run_to_quiescence();

    cluster.crash(leader);
    // The surviving follower initiates reconfiguration.
    cluster.start_reconfiguration(shard, follower, vec![leader]);
    cluster.run_to_quiescence();

    assert_eq!(cluster.leader_of(shard).expect("leader"), follower);
    assert!(!cluster.members_of(shard).contains(&leader));

    cluster.submit(TxId::new(2), rw_payload("c", 0, 1));
    cluster.run_to_quiescence();
    assert_eq!(
        cluster.history().decision(TxId::new(2)),
        Some(Decision::Commit)
    );
    assert!(cluster.client_violations().is_empty());
}

#[test]
fn invariants_hold_on_a_failure_free_run() {
    let mut cluster: SimCluster<CoreStack> = ClusterSpec::new(StackKind::Core)
        .with_shards(3)
        .with_seed(1)
        .build_typed();
    for i in 0..30 {
        cluster.submit(TxId::new(i), rw_payload(&format!("k{i}"), 0, 1));
    }
    cluster.run_to_quiescence();
    let violations = cluster.check_invariants();
    assert!(violations.is_empty(), "violations: {violations:?}");
}

#[test]
fn invariants_hold_across_a_reconfiguration() {
    let mut cluster: SimCluster<CoreStack> =
        ClusterSpec::new(StackKind::Core).with_seed(2).build_typed();
    for i in 0..10 {
        cluster.submit(TxId::new(i), rw_payload(&format!("k{i}"), 0, 1));
    }
    cluster.run_to_quiescence();

    let shard = ShardId::new(0);
    let leader = cluster.leader_of(shard).expect("leader");
    let follower = *cluster
        .roster(shard)
        .iter()
        .find(|p| **p != leader)
        .expect("follower");
    cluster.crash(follower);
    cluster.start_reconfiguration(shard, leader, vec![follower]);
    cluster.run_to_quiescence();

    for i in 10..20 {
        cluster.submit(TxId::new(i), rw_payload(&format!("k{i}"), 0, 1));
    }
    cluster.run_to_quiescence();

    let violations = cluster.check_invariants();
    assert!(violations.is_empty(), "violations: {violations:?}");
}
