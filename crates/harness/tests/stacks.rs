//! Behaviour every stack shares, driven through the one cluster shell.
//!
//! Each table runs the same scenario on every stack (with the seed each
//! stack's own suite has always used), so a property the paper states for
//! any TCS is checked against all three implementations at once.

use ratc_core::batch::BatchingConfig;
use ratc_harness::{
    ClusterSpec, CoreStack, MetricsView, RdmaStack, SimCluster, Stack, StackKind, TcsCluster,
};
use ratc_types::{Decision, Key, Payload, ShardId, TxId, Value, Version};

const STACKS: [StackKind; 3] = [StackKind::Core, StackKind::Rdma, StackKind::Baseline];

fn rw(key: &str, commit: u64) -> Payload {
    Payload::builder()
        .read(Key::new(key), Version::ZERO)
        .write(Key::new(key), Value::from("v"))
        .commit_version(Version::new(commit))
        .build()
        .expect("well-formed")
}

/// A coordinator that routes every submission the same way: a shard-0
/// follower where replicas coordinate, the transaction-manager leader
/// otherwise.
fn fixed_coordinator(cluster: &dyn TcsCluster) -> ratc_types::ProcessId {
    if cluster.replicas_coordinate() {
        cluster.roster_of(ShardId::new(0))[1]
    } else {
        cluster.coordinator_pool()[0]
    }
}

#[test]
fn conflicting_transactions_do_not_both_commit() {
    for (stack, seed) in [
        (StackKind::Core, 3),
        (StackKind::Rdma, 7),
        (StackKind::Baseline, 5),
    ] {
        let mut cluster = ClusterSpec::new(stack).with_seed(seed).build();
        // Both read version 0 of the same key and write it: at most one can
        // commit under serializability.
        cluster.submit(TxId::new(1), rw("hot", 1));
        cluster.submit(TxId::new(2), rw("hot", 2));
        cluster.run_to_quiescence();
        let history = cluster.history();
        assert!(history.committed().count() <= 1, "{stack}: both committed");
        assert_eq!(history.decide_count(), 2, "{stack}: both must decide");
        assert!(cluster.client_violations().is_empty(), "{stack}");
    }
}

#[test]
fn disjoint_transactions_all_commit() {
    for stack in STACKS {
        let mut cluster = ClusterSpec::new(stack).with_shards(3).with_seed(9).build();
        for i in 0..20 {
            cluster.submit(TxId::new(i), rw(&format!("key-{i}"), 1));
        }
        cluster.run_to_quiescence();
        assert_eq!(cluster.history().committed().count(), 20, "{stack}");
        assert!(cluster.client_violations().is_empty(), "{stack}");
    }
}

/// 32 disjoint transactions through one fixed coordinator (so certifies
/// actually coalesce into batches of 8), all committed.
fn batched_commit<S: Stack>(stack: StackKind, seed: u64) -> SimCluster<S> {
    let mut cluster: SimCluster<S> = ClusterSpec::new(stack)
        .with_seed(seed)
        .with_batching(BatchingConfig::with_batch(8))
        .build_typed();
    let coordinator = fixed_coordinator(&cluster);
    for i in 0..32u64 {
        cluster.submit_via(TxId::new(i + 1), rw(&format!("k{i}"), 1), coordinator);
    }
    cluster.run_to_quiescence();
    assert_eq!(cluster.history().committed().count(), 32, "{stack}");
    assert!(cluster.client_violations().is_empty(), "{stack}");
    assert!(
        cluster.counter("prepare_batches_sent") > 0,
        "{stack}: the batcher never coalesced anything"
    );
    cluster
}

#[test]
fn batched_pipelines_commit_disjoint_transactions() {
    let core = batched_commit::<CoreStack>(StackKind::Core, 21);
    let violations = core.check_invariants();
    assert!(violations.is_empty(), "violations: {violations:?}");
    let rdma = batched_commit::<RdmaStack>(StackKind::Rdma, 13);
    assert_eq!(rdma.world.rdma_rejected(), 0);
}

#[test]
fn batched_pipelines_preserve_conflict_decisions() {
    for (stack, seed) in [
        (StackKind::Core, 23),
        (StackKind::Rdma, 17),
        (StackKind::Baseline, 29),
    ] {
        let mut cluster = ClusterSpec::new(stack)
            .with_shards(1)
            .with_seed(seed)
            .with_batching(BatchingConfig::with_batch(4))
            .build();
        let coordinator = fixed_coordinator(cluster.as_ref());
        // Both hot transactions land in the same batch, and at most one may
        // commit; the cold one is independent.
        cluster.submit_via(TxId::new(1), rw("hot", 1), coordinator);
        cluster.submit_via(TxId::new(2), rw("hot", 2), coordinator);
        cluster.submit_via(TxId::new(3), rw("cold", 3), coordinator);
        cluster.run_to_quiescence();
        let history = cluster.history();
        assert_eq!(history.decide_count(), 3, "{stack}");
        assert!(history.committed().count() <= 2, "{stack}");
        assert_eq!(
            history.decision(TxId::new(3)),
            Some(Decision::Commit),
            "{stack}"
        );
        assert!(cluster.client_violations().is_empty(), "{stack}");
    }
}

/// Regression: `submit` computed `next % live.len()` over the live
/// coordinators and divided by zero once every one of them had crashed.
/// The round-robin now falls back to the whole pool: the request goes to a
/// crashed process and drops, the transaction stays recorded but
/// undecided, and a restart plus `resubmit` decides it.
#[test]
fn submit_with_every_coordinator_crashed_leaves_the_transaction_undecided() {
    for stack in STACKS {
        let mut cluster = ClusterSpec::new(stack).with_seed(11).build();
        let down = cluster.all_processes();
        for pid in &down {
            cluster.crash(*pid);
        }
        let tx = TxId::new(1);
        let payload = rw("x", 1);
        let coordinator = cluster.submit(tx, payload.clone());
        assert!(cluster.is_crashed(coordinator), "{stack}");
        cluster.run_to_quiescence();
        let history = cluster.history();
        assert_eq!(history.certify_count(), 1, "{stack}: not recorded");
        assert_eq!(history.decision(tx), None, "{stack}: decided while down");

        for pid in &down {
            assert!(cluster.restart(*pid), "{stack}: {pid} was not crashed");
        }
        cluster.run_to_quiescence();
        cluster.resubmit(tx, payload);
        cluster.run_to_quiescence();
        assert_eq!(
            cluster.history().decision(tx),
            Some(Decision::Commit),
            "{stack}: not decided after restart and resubmit"
        );
        assert!(cluster.client_violations().is_empty(), "{stack}");
    }
}
