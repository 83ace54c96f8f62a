//! The retry safety net still saves work after it has been cancelled.
//!
//! Every stack cancels its retry tick once the last coordinated transaction
//! decides (so an idle cluster holds no timer), and re-arms it when new work
//! arrives. This suite drops the only `PREPARE` of a transaction submitted
//! after such a cancel and re-arm, on the deterministic simulator, and checks
//! that the re-armed tick re-drives it to a decision.

use ratc_harness::{ClusterSpec, StackKind};
use ratc_sim::{FaultScope, LinkFault, SafetyNet, SimDuration};
use ratc_types::{Decision, Key, Payload, ShardId, TxId, Value, Version};

const STACKS: [StackKind; 3] = [StackKind::Core, StackKind::Rdma, StackKind::Baseline];

fn rw(key: &str) -> Payload {
    Payload::builder()
        .read(Key::new(key), Version::ZERO)
        .write(Key::new(key), Value::from("v"))
        .commit_version(Version::new(1))
        .build()
        .expect("well-formed")
}

#[test]
fn a_rearmed_safety_net_redrives_a_dropped_prepare() {
    for stack in STACKS {
        let mut cluster = ClusterSpec::new(stack).with_shards(1).with_seed(3).build();
        let shard = ShardId::new(0);
        let leader = cluster.leader_of(shard).expect("shard leader");
        // A coordinator that reaches the shard leader over a link: a
        // follower on the RATC stacks, the transaction-manager leader on
        // the baseline.
        let coordinator = if cluster.replicas_coordinate() {
            cluster
                .members_of(shard)
                .into_iter()
                .find(|p| *p != leader)
                .expect("a follower")
        } else {
            cluster.coordinator_pool()[0]
        };

        // Busy, then idle: tx 1 decides well inside one retry interval, and
        // its decision cancels the coordinator's retry tick.
        cluster.submit_via(TxId::new(1), rw("net-1"), coordinator);
        cluster.run_for(SimDuration::from_millis(2));
        assert_eq!(
            cluster.history().decision(TxId::new(1)),
            Some(Decision::Commit),
            "{stack}: tx 1 decided before the coordinator goes busy again"
        );

        // Busy again: the tick re-arms, and the only PREPARE of tx 2 is
        // lost on the cut link.
        cluster.set_link_fault(coordinator, leader, LinkFault::cut(FaultScope::All));
        cluster.submit_via(TxId::new(2), rw("net-2"), coordinator);
        cluster.run_for(SimDuration::from_millis(1));
        assert_eq!(
            cluster.history().decision(TxId::new(2)),
            None,
            "{stack}: the PREPARE was dropped"
        );

        // Only the retry tick can re-drive it once the link is back.
        cluster.heal_all_faults();
        cluster.run_to_quiescence();
        assert_eq!(
            cluster.history().decision(TxId::new(2)),
            Some(Decision::Commit),
            "{stack}: the re-armed safety net re-drove the dropped PREPARE"
        );
        let latency = cluster.latencies()[&TxId::new(2)].micros;
        assert!(
            latency >= SafetyNet::INTERVAL.as_micros() / 2,
            "{stack}: decided in {latency} µs, too early to have needed a retry"
        );
        assert!(cluster.client_violations().is_empty(), "{stack}");
    }
}
