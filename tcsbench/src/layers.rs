//! Per-layer readouts (taken from outside the program: public counters,
//! observability streams and timed calls), the layer microbenchmarks driven
//! by a workload's own inputs, and the twin runs that measure the engine a
//! workload does not use.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use ratc_core::{BatchingConfig, CertificationLog, LogEntry, TxPhase, VoteBatcher};
use ratc_harness::{ExecutionMode, TcsCluster};
use ratc_sim::{Phase, TxMilestone};
use ratc_types::{
    CertificationPolicy, Decision, HashSharding, Payload, Position, ProcessId, Serializability,
    ShardId, TxId,
};

use crate::util::{percentile, Tracer};
use crate::workloads::{Workload, WARMUP_CALLS};

/// Message types of the reconfiguration protocols (both RATC stacks), as
/// lower-case labels without separators; `cs*` (configuration service)
/// labels count too.
const RECONFIG_LABELS: [&str; 11] = [
    "startreconfigure",
    "probe",
    "probeack",
    "configprepare",
    "configprepareack",
    "newconfig",
    "newstate",
    "configchange",
    "naiveconfigchange",
    "connect",
    "connectack",
];

fn is_reconfig_label(label: &str) -> bool {
    let label: String = label
        .chars()
        .filter(|c| *c != '_')
        .flat_map(char::to_lowercase)
        .collect();
    label.starts_with("cs") || RECONFIG_LABELS.contains(&label.as_str())
}

/// What one observed cluster says about its layers.
pub struct Layers {
    pub msgs_per_tx: f64,
    pub msgs_by_type: Vec<(String, f64)>,
    pub busiest: ProcessId,
    pub busiest_handled_per_tx: f64,
    pub queued_per_tx: f64,
    pub retries_per_tx: f64,
    pub batch_occupancy: f64,
    pub batch_flushes_per_tx: f64,
    pub reconfigs: f64,
    pub msgs_per_reconfig: f64,
    pub reprobes: f64,
    /// `(p50, p99)` µs of each phase, indexed like [`Phase::ALL`].
    pub phases: [(f64, f64); 6],
    pub phase_samples: usize,
}

/// Reads the per-layer counters of an observed cluster after its run.
/// `exact` (simulated runs) asserts that each transaction's phases sum
/// exactly to its client-observed latency.
pub fn read(
    cluster: &dyn TcsCluster,
    decided: usize,
    exact: bool,
    problems: &mut Vec<String>,
) -> Layers {
    let per_tx = |n: f64| n / decided.max(1) as f64;
    let by_type = cluster.msg_type_counters();
    let total: f64 = by_type.iter().map(|(_, c)| c.sent as f64).sum();
    let reconfig_msgs: f64 = by_type
        .iter()
        .filter(|(l, _)| is_reconfig_label(l))
        .map(|(_, c)| c.sent as f64)
        .sum();
    let mut processes = cluster.all_processes();
    processes.extend(cluster.config_service_id());
    let (busiest, handled) = processes
        .iter()
        .map(|p| (*p, cluster.process_handled(*p)))
        .max_by_key(|(p, h)| (*h, std::cmp::Reverse(*p)))
        .expect("a cluster has processes");

    let events = cluster.obs_events();
    let retries = events
        .iter()
        .filter(|e| e.milestone == TxMilestone::Retry)
        .count();
    // A flush of k transactions stamps k BatchFlush milestones with detail k.
    let flushes: f64 = events
        .iter()
        .filter(|e| e.milestone == TxMilestone::BatchFlush && e.detail > 0)
        .map(|e| 1.0 / e.detail as f64)
        .sum();

    let reconfigs = if cluster.reconfiguration_is_global() {
        cluster
            .shards()
            .first()
            .map_or(0, |s| cluster.epoch_of(*s).as_u64()) as f64
    } else {
        cluster
            .shards()
            .iter()
            .map(|s| cluster.epoch_of(*s).as_u64())
            .sum::<u64>() as f64
    };

    let breakdowns = cluster.phase_breakdown();
    if exact {
        let latencies = cluster.latencies();
        for (tx, b) in &breakdowns {
            let sum: u64 = b.phases().iter().sum();
            let client = latencies.get(tx).map(|l| l.micros);
            if sum != b.total_micros() || client != Some(b.total_micros()) {
                problems.push(format!(
                    "phases of {tx} sum to {sum} us, client latency {client:?} us"
                ));
                break;
            }
        }
        if breakdowns.len() != latencies.len() {
            problems.push(format!(
                "{} decided transactions but {} complete phase breakdowns",
                latencies.len(),
                breakdowns.len()
            ));
        }
    }
    let mut phases = [(0.0, 0.0); 6];
    if !breakdowns.is_empty() {
        for (i, phase) in Phase::ALL.iter().enumerate() {
            let values: Vec<f64> = breakdowns
                .values()
                .map(|b| b.phase_micros(*phase) as f64)
                .collect();
            phases[i] = (percentile(&values, 50.0), percentile(&values, 99.0));
        }
    }

    Layers {
        msgs_per_tx: per_tx(total),
        msgs_by_type: by_type
            .iter()
            .map(|(l, c)| (l.clone(), per_tx(c.sent as f64)))
            .collect(),
        busiest,
        busiest_handled_per_tx: per_tx(handled as f64),
        queued_per_tx: per_tx(
            (cluster.counter("admission_queued") + cluster.counter("tm_admission_queued")) as f64,
        ),
        retries_per_tx: per_tx(retries as f64),
        // An unbatched PREPARE carries exactly one transaction.
        batch_occupancy: cluster.sample_mean("obs_batch_occupancy").unwrap_or(1.0),
        batch_flushes_per_tx: per_tx(flushes),
        reconfigs,
        msgs_per_reconfig: if reconfigs > 0.0 {
            reconfig_msgs / reconfigs
        } else {
            0.0
        },
        reprobes: cluster.counter("reconfiguration_reprobes") as f64,
        phases,
        phase_samples: breakdowns.len(),
    }
}

/// Nanoseconds per operation of the certification log, replaying `payloads`
/// (restricted to one shard) at a steady retained-history size.
pub struct LogCost {
    pub vote_ns: f64,
    pub append_ns: f64,
    pub decide_ns: f64,
    pub truncate_ns: f64,
}

/// Entries between two truncations (the facade's default fold batch).
const TRUNCATE_EVERY: usize = 32;
/// Operations each microbenchmark times.
const MICRO_OPS: usize = 1 << 15;

/// Replays `payloads` for `shard` through `CertificationLog::with_certifier`:
/// per block of 32, vote every payload at the append position, append them,
/// decide the oldest entries beyond `retained` undecided ones, and truncate
/// to the decided frontier. Each phase is timed over the whole block.
pub fn log_replay(
    payloads: &[Payload],
    shard: ShardId,
    retained: usize,
    tracer: &mut Tracer,
) -> LogCost {
    tracer.enter("microbench");
    let policy = Serializability::new();
    let mut log = CertificationLog::with_certifier(policy.indexed_certifier(shard));
    let retained = retained.max(1);
    let (mut vote, mut append, mut decide, mut truncate) = (0u128, 0u128, 0u128, 0u128);
    let (mut decided, mut freed) = (0usize, 0usize);
    let mut undecided: VecDeque<(Position, Decision)> = VecDeque::new();
    let mut votes = Vec::with_capacity(TRUNCATE_EVERY);
    let mut next_tx = 1u64;
    let blocks = MICRO_OPS / TRUNCATE_EVERY;
    for block in 0..blocks {
        let base = block * TRUNCATE_EVERY;
        let batch: Vec<&Payload> = (0..TRUNCATE_EVERY)
            .map(|i| &payloads[(base + i) % payloads.len()])
            .collect();
        votes.clear();
        let t = Instant::now();
        for payload in &batch {
            votes.push(black_box(
                log.vote_at(log.next(), payload).expect("indexed log"),
            ));
        }
        vote += t.elapsed().as_nanos();
        let entries: Vec<LogEntry> = batch
            .iter()
            .zip(&votes)
            .map(|(payload, vote)| {
                next_tx += 1;
                LogEntry {
                    tx: TxId::new(next_tx),
                    payload: (*payload).clone(),
                    vote: *vote,
                    dec: None,
                    phase: TxPhase::Prepared,
                    shards: vec![shard],
                    client: ProcessId::new(0),
                }
            })
            .collect();
        let t = Instant::now();
        for entry in entries {
            let vote = entry.vote;
            undecided.push_back((log.append(entry), vote));
        }
        append += t.elapsed().as_nanos();
        let due: Vec<_> = (0..undecided.len().saturating_sub(retained))
            .map(|_| undecided.pop_front().expect("counted"))
            .collect();
        let t = Instant::now();
        for (pos, vote) in &due {
            log.decide(*pos, *vote);
        }
        decide += t.elapsed().as_nanos();
        decided += due.len();
        let t = Instant::now();
        freed += log.truncate_to(log.decided_frontier());
        truncate += t.elapsed().as_nanos();
    }
    tracer.exit();
    let ops = (blocks * TRUNCATE_EVERY) as f64;
    LogCost {
        vote_ns: vote as f64 / ops,
        append_ns: append as f64 / ops,
        decide_ns: decide as f64 / decided.max(1) as f64,
        truncate_ns: truncate as f64 / freed.max(1) as f64,
    }
}

/// Nanoseconds per item to push through a `VoteBatcher` whose batches fill
/// at `occupancy` items (the occupancy the run observed), draining each.
pub fn batcher(occupancy: f64, tracer: &mut Tracer) -> f64 {
    tracer.enter("microbench");
    let size = occupancy.round().max(1.0) as usize;
    let mut batcher: VoteBatcher<TxId> = VoteBatcher::new(BatchingConfig::with_batch(size));
    let mut drained = 0usize;
    let t = Instant::now();
    for i in 0..MICRO_OPS as u64 * 8 {
        if batcher.push(TxId::new(i)) {
            drained += black_box(batcher.drain_full()).len();
        }
    }
    drained += batcher.drain().len();
    let ns = t.elapsed().as_nanos() as f64 / drained as f64;
    tracer.exit();
    ns
}

/// Engine costs measured on a twin of the workload's cluster.
pub struct Twin {
    pub idle_call_us: f64,
    pub calls: u64,
    pub tail_us: f64,
    pub ns_per_event: f64,
    pub events_per_tx: f64,
}

/// Runs `txs` in rounds of `round` transactions (submit, then
/// `run_to_quiescence`), after the usual idle warm-up calls, on a twin of
/// the workload's cluster under `engine`.
pub fn twin(
    w: &Workload,
    seed: u64,
    engine: ExecutionMode,
    txs: &[(TxId, Payload)],
    round: usize,
    tracer: &mut Tracer,
) -> Twin {
    tracer.enter("twin");
    let mut cluster = tracer.span("build", || {
        w.spec(seed, false).with_execution(engine).build()
    });
    let mut idle = Vec::new();
    for _ in 0..WARMUP_CALLS {
        let t = Instant::now();
        tracer.span("run_to_quiescence", || cluster.run_to_quiescence());
        idle.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let (mut engine_ns, mut events, mut tails) = (0.0, 0u64, Vec::new());
    for chunk in txs.chunks(round) {
        let start = Instant::now();
        for (tx, payload) in chunk {
            tracer.span("submit", || cluster.submit(*tx, payload.clone()));
        }
        let steps = cluster.steps();
        let call = Instant::now();
        tracer.span("run_to_quiescence", || cluster.run_to_quiescence());
        engine_ns += call.elapsed().as_nanos() as f64;
        events += cluster.steps() - steps;
        let latencies = cluster.latencies();
        let latest = chunk
            .iter()
            .filter_map(|(tx, _)| latencies.get(tx).map(|l| l.micros))
            .max()
            .unwrap_or(0) as f64;
        // Meaningful on the threaded engine, whose latencies are wall µs.
        tails.push(start.elapsed().as_secs_f64() * 1e6 - latest);
    }
    let decided = cluster.latencies().len();
    tracer.span("drop", move || drop(cluster));
    tracer.exit();
    Twin {
        idle_call_us: percentile(&idle, 50.0),
        calls: (WARMUP_CALLS + txs.len().div_ceil(round)) as u64,
        tail_us: percentile(&tails, 50.0),
        ns_per_event: engine_ns / events.max(1) as f64,
        events_per_tx: events as f64 / decided.max(1) as f64,
    }
}

/// `payloads` restricted to `shard`, skipping those that do not touch it.
pub fn shard_payloads<'p>(
    payloads: impl Iterator<Item = &'p Payload>,
    shards: u32,
    shard: ShardId,
) -> Vec<Payload> {
    let sharding = HashSharding::new(shards);
    payloads
        .filter(|p| p.shards(&sharding).contains(&shard))
        .map(|p| p.restrict(shard, &sharding))
        .collect()
}
