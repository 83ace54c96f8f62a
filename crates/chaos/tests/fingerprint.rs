//! Determinism fingerprint of every stack, pinned to constants.
//!
//! The seeded suites elsewhere compare two runs of the *same* build, so they
//! cannot notice a change that moves every run the same way: an actor added
//! in a different order (new process ids), an extra RNG draw during
//! deployment, a message sent to a different coordinator. These tests pin
//! what a seeded simulated run produces — its step count and a hash of every
//! client-observed `(tx, decision, hops, micros)` — to literal constants.
//!
//! A refactor of the deployment or client plumbing must leave every constant
//! unchanged. A change that moves them on purpose must say why in
//! CHANGES.md and update the constants in the same change.

use ratc_chaos::{build_harness, run_soak, FaultEvent, FaultPlan, SoakConfig, TimedFault};
use ratc_harness::{ClusterSpec, StackKind};
use ratc_types::{Decision, Key, Payload, ProcessId, ShardId, TxId, Value, Version};

const STACKS: [StackKind; 4] = [
    StackKind::Core,
    StackKind::Rdma,
    StackKind::RdmaNaive,
    StackKind::Baseline,
];

/// FNV-1a over a stream of `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Read-modify-write of `key`; transactions on the same key conflict.
fn rw(key: &str, commit: u64) -> Payload {
    Payload::builder()
        .read(Key::new(key), Version::ZERO)
        .write(Key::new(key), Value::from("v"))
        .commit_version(Version::new(commit))
        .build()
        .expect("well-formed")
}

/// A wave of `count` transactions from `first`: every third one touches
/// one of two hot keys (conflicts), the rest are disjoint, and every fourth
/// also writes a second key so it spans shards.
fn wave(first: u64, count: u64) -> Vec<(TxId, Payload)> {
    (first..first + count)
        .map(|i| {
            let payload = if i % 3 == 0 {
                rw(&format!("hot-{}", i % 2), i)
            } else if i % 4 == 0 {
                Payload::builder()
                    .read(Key::new(format!("a-{i}")), Version::ZERO)
                    .read(Key::new(format!("b-{i}")), Version::ZERO)
                    .write(Key::new(format!("a-{i}")), Value::from("a"))
                    .write(Key::new(format!("b-{i}")), Value::from("b"))
                    .commit_version(Version::new(1))
                    .build()
                    .expect("well-formed")
            } else {
                rw(&format!("k-{i}"), 1)
            };
            (TxId::new(i), payload)
        })
        .collect()
}

/// A seeded mixed run: a wave with conflicts, a follower crash repaired by
/// reconfiguration (by a restart on the baseline, which cannot
/// reconfigure), then a second wave. Returns `(steps, latency hash)`.
fn mixed_run(stack: StackKind) -> (u64, u64) {
    let mut cluster = ClusterSpec::new(stack).with_seed(17).build();
    for (tx, payload) in wave(1, 24) {
        cluster.submit(tx, payload);
    }
    cluster.run_to_quiescence();

    let shard = ShardId::new(0);
    let leader = cluster.leader_of(shard).expect("leader");
    let victim = cluster
        .members_of(shard)
        .into_iter()
        .find(|p| *p != leader)
        .expect("follower");
    cluster.crash(victim);
    if cluster.supports_reconfiguration() {
        let exclude: Vec<ProcessId> = vec![victim];
        cluster.start_reconfiguration(shard, leader, exclude);
    } else {
        for (tx, payload) in wave(100, 6) {
            cluster.submit(tx, payload);
        }
        cluster.run_to_quiescence();
        assert!(cluster.restart(victim));
    }
    cluster.run_to_quiescence();

    for (tx, payload) in wave(200, 24) {
        cluster.submit(tx, payload);
    }
    cluster.run_to_quiescence();
    assert!(cluster.client_violations().is_empty(), "{stack}");

    let mut hash = Fnv::new();
    for (tx, latency) in cluster.latencies() {
        hash.word(tx.as_u64());
        hash.word(match latency.decision {
            Decision::Commit => 1,
            Decision::Abort => 2,
        });
        hash.word(u64::from(latency.hops));
        hash.word(latency.micros);
    }
    (cluster.steps(), hash.0)
}

/// A short soak through the chaos harness: a leader crash, a
/// reconfiguration (ignored on the baseline) and a restart.
fn soak_steps(stack: StackKind) -> u64 {
    let s0 = ShardId::new(0);
    let plan = FaultPlan {
        noise: None,
        events: [
            (4_000, FaultEvent::CrashLeader { shard: s0 }),
            (6_000, FaultEvent::Reconfigure { shard: s0 }),
            (12_000, FaultEvent::RestartCrashed),
        ]
        .into_iter()
        .map(|(at_micros, event)| TimedFault { at_micros, event })
        .collect(),
    };
    let config = SoakConfig {
        seed: 5,
        txs: 24,
        ..SoakConfig::default()
    };
    let mut harness = build_harness(stack, 2, 5, None);
    run_soak(&mut harness, &config, &plan);
    harness.steps()
}

#[test]
fn seeded_mixed_runs_match_the_pinned_fingerprint() {
    let pinned: [(StackKind, u64, u64); 4] = [
        (StackKind::Core, 429, 5_050_923_613_750_745_451),
        (StackKind::Rdma, 621, 14_533_603_911_578_238_208),
        (StackKind::RdmaNaive, 595, 565_137_135_681_016_253),
        (StackKind::Baseline, 1330, 3_755_712_218_200_819_448),
    ];
    for (stack, steps, hash) in pinned {
        let got = mixed_run(stack);
        assert_eq!(got, (steps, hash), "{stack}: (steps, latency hash)");
    }
    assert_eq!(pinned.map(|p| p.0), STACKS);
}

#[test]
fn seeded_soak_plans_match_the_pinned_step_counts() {
    let pinned: [(StackKind, u64); 4] = [
        (StackKind::Core, 324),
        (StackKind::Rdma, 474),
        (StackKind::RdmaNaive, 454),
        (StackKind::Baseline, 713),
    ];
    for (stack, steps) in pinned {
        assert_eq!(soak_steps(stack), steps, "{stack}: soak steps");
    }
    assert_eq!(pinned.map(|p| p.0), STACKS);
}
