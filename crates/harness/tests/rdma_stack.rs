//! Tests of the RDMA stack (§5) that need the typed RDMA shell: a clean
//! commit with no rejected RDMA write, frontier-exchange truncation and
//! global reconfiguration.

use ratc_core::replica::TruncationConfig;
use ratc_harness::{ClusterSpec, RdmaStack, StackKind, TcsCluster};
use ratc_types::{Decision, Epoch, Key, Payload, ShardId, TxId, Value, Version};

fn rw_payload(key: &str) -> Payload {
    Payload::builder()
        .read(Key::new(key), Version::new(0))
        .write(Key::new(key), Value::from("v"))
        .commit_version(Version::new(1))
        .build()
        .expect("well-formed")
}

#[test]
fn failure_free_commit_over_rdma() {
    let mut cluster = ClusterSpec::new(StackKind::Rdma).build_typed::<RdmaStack>();
    cluster.submit(TxId::new(1), rw_payload("x"));
    cluster.run_to_quiescence();
    assert_eq!(
        cluster.history().decision(TxId::new(1)),
        Some(Decision::Commit)
    );
    assert!(cluster.client_violations().is_empty());
    assert_eq!(cluster.world.rdma_rejected(), 0);
}

/// Regression: the member-to-member frontier exchange lets RDMA followers
/// truncate at the true cluster minimum. With only the clamped leader hint
/// (the behaviour before the exchange existed), the hint gossiped on the *last*
/// decisions always lags the final frontier, so followers retained the
/// tail of the history forever.
#[test]
fn frontier_exchange_truncates_followers_at_the_cluster_minimum() {
    let batch = 8u64;
    let mut cluster = ClusterSpec::new(StackKind::Rdma)
        .with_shards(1)
        .with_seed(19)
        .with_truncation(TruncationConfig::with_batch(batch))
        .build_typed::<RdmaStack>();
    let total = 96u64;
    for i in 0..total {
        cluster.submit(TxId::new(i + 1), rw_payload(&format!("k{i}")));
        cluster.run_to_quiescence();
    }
    assert_eq!(cluster.history().decide_count(), total as usize);
    assert!(
        cluster.world.metrics().counter("frontier_exchanges") > 0,
        "members never exchanged frontiers"
    );
    let config = cluster.current_config();
    for pid in config.members_of(ShardId::new(0)).to_vec() {
        let log = cluster.replica(pid).log();
        let lag = log.decided_frontier().as_u64() - log.base().as_u64();
        assert!(
            lag < 2 * batch,
            "member {pid} truncated only to {} with frontier {} (lag {lag})",
            log.base(),
            log.decided_frontier()
        );
    }
    assert!(cluster.client_violations().is_empty());
}

#[test]
fn global_reconfiguration_recovers_from_a_follower_crash() {
    let mut cluster = ClusterSpec::new(StackKind::Rdma)
        .with_seed(11)
        .build_typed::<RdmaStack>();
    cluster.submit(TxId::new(1), rw_payload("a"));
    cluster.run_to_quiescence();

    let shard = ShardId::new(0);
    let config = cluster.current_config();
    let leader = config.leader_of(shard).expect("leader");
    let follower = config.followers_of(shard)[0];
    cluster.crash(follower);
    cluster.start_reconfiguration(shard, leader, vec![follower]);
    cluster.run_to_quiescence();

    let new_config = cluster.current_config();
    assert_eq!(new_config.epoch, Epoch::new(1));
    assert!(!new_config.members_of(shard).contains(&follower));

    cluster.submit(TxId::new(2), rw_payload("b"));
    cluster.run_to_quiescence();
    assert_eq!(
        cluster.history().decision(TxId::new(2)),
        Some(Decision::Commit)
    );
    assert!(cluster.client_violations().is_empty());
}
