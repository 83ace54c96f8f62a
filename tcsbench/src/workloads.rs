//! The four workloads and their measured passes. Each pass drives the
//! public facade (`ClusterSpec` / `TcsCluster`, and `ChaosHarness` for
//! faults) from this one thread and times the calls it makes from outside.

use std::collections::BTreeMap;
use std::time::Instant;

use ratc_chaos::{ChaosHarness, FaultEvent};
use ratc_core::BatchingConfig;
use ratc_harness::{ClusterSpec, ExecutionMode, StackKind, TcsCluster};
use ratc_sim::{SimDuration, SimTime};
use ratc_types::{Payload, ShardId, TxId};

use crate::gate::{self, Counts, SpecCost};
use crate::layers::{self, Layers};
use crate::load::{self, Arrival, Disjoint};
use crate::util::{cpu_micros, peak_rss_mb, HostProbe, Tracer};

/// Failures tolerated per shard, on every workload.
pub const FAILURES: usize = 1;
/// Idle engine calls after every build: warm-up, and the `rt.idle_call_us`
/// probe on the threaded engine.
pub const WARMUP_CALLS: usize = 5;
/// `mp-rounds`: transactions per closed-loop round (one per client).
pub const ROUND_CLIENTS: usize = 16;
/// `mp-rounds`: rounds per trial (the unit of the throughput and CPU medians).
const ROUNDS_PER_TRIAL: usize = 64;
/// `paxos-flood`: transactions per open-loop burst, and bursts per trial
/// (one burst varies too much by itself to be a trial).
pub const FLOOD_TXS: usize = 5_000;
const BURSTS_PER_TRIAL: usize = 8;
/// `rdma-contended`: transactions per trial, mean arrival gap (virtual µs),
/// key space, keys per transaction and Zipf skew.
const CONTENDED_TXS: usize = 6_000;
const CONTENDED_GAP_US: u64 = 50;
const CONTENDED_KEYS: usize = 10_000;
const CONTENDED_KEYS_PER_TX: usize = 3;
const CONTENDED_THETA: f64 = 0.9;
/// `mp-failover`: leader crashes per trial, crash period, failure-detection
/// delay before `Reconfigure`, delay before the crashed process restarts,
/// and the arrival gap (virtual µs).
const FAILOVER_CRASHES: u64 = 44;
const FAILOVER_PERIOD_US: u64 = 100_000;
const FAILOVER_DETECT_US: u64 = 5_000;
const FAILOVER_RESTART_US: u64 = 95_000;
const FAILOVER_GAP_US: u64 = 100;
/// Fault-free workloads: cold starts measured per pass, and the transactions
/// each one is given (a closed-loop round takes `ROUND_CLIENTS`).
const COLD_STARTS: usize = 128;
const COLD_START_TXS: usize = 64;
/// Load steps of a simulated trial between two host-probe slices.
const PROBE_EVERY: usize = 64;
/// Recovery rounds after the faults end (heal, stabilise, re-drive).
const FAILOVER_RECOVERY_ROUNDS: usize = 12;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    MpRounds,
    PaxosFlood,
    RdmaContended,
    MpFailover,
}

/// One workload: what it deploys and how it loads it.
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub stack: StackKind,
    pub engine: ExecutionMode,
    pub shards: u32,
    pub spares: usize,
    pub batching: BatchingConfig,
    /// Every transaction touches keys no other one touches (all must commit).
    pub disjoint: bool,
    pub load: String,
}

pub fn by_name(name: &str) -> Option<Workload> {
    let base = |name, kind, stack, engine, shards| Workload {
        name,
        kind,
        stack,
        engine,
        shards,
        spares: 2,
        batching: BatchingConfig::disabled(),
        disjoint: true,
        load: String::new(),
    };
    let w = match name {
        "mp-rounds" => Workload {
            load: format!(
                "closed loop: {ROUND_CLIENTS} clients, each round submits {ROUND_CLIENTS} disjoint single-key read-write transactions then calls run_to_quiescence"
            ),
            ..base("mp-rounds", Kind::MpRounds, StackKind::Core, ExecutionMode::Threads, 2)
        },
        "paxos-flood" => Workload {
            load: format!(
                "open-loop burst: {FLOOD_TXS} disjoint single-key read-write transactions submitted up front, then one run_to_quiescence"
            ),
            ..base("paxos-flood", Kind::PaxosFlood, StackKind::Baseline, ExecutionMode::Threads, 2)
        },
        "rdma-contended" => Workload {
            batching: BatchingConfig::adaptive(8),
            disjoint: false,
            load: format!(
                "open loop: {CONTENDED_TXS} transactions, one per {CONTENDED_GAP_US} us virtual (uniform jitter +-50%), {CONTENDED_KEYS_PER_TX} keys each, Zipf theta={CONTENDED_THETA} over {CONTENDED_KEYS} keys, reads at the last generated version"
            ),
            ..base("rdma-contended", Kind::RdmaContended, StackKind::Rdma, ExecutionMode::Sim, 4)
        },
        "mp-failover" => Workload {
            spares: FAILOVER_CRASHES as usize / 2 + 2,
            load: format!(
                "open loop: one disjoint single-key transaction per {FAILOVER_GAP_US} us virtual; every {} ms crash the leader of the next shard in turn, Reconfigure {} ms later, restart {} ms later; {FAILOVER_CRASHES} crashes, then heal, stabilize and re-drive",
                FAILOVER_PERIOD_US / 1000,
                FAILOVER_DETECT_US / 1000,
                FAILOVER_RESTART_US / 1000
            ),
            ..base("mp-failover", Kind::MpFailover, StackKind::Core, ExecutionMode::Sim, 2)
        },
        _ => return None,
    };
    Some(w)
}

impl Workload {
    pub fn spec(&self, seed: u64, obs: bool) -> ClusterSpec {
        let spec = ClusterSpec::new(self.stack)
            .with_shards(self.shards)
            .with_failures(FAILURES)
            .with_spares_per_shard(self.spares)
            .with_batching(self.batching)
            .with_seed(seed)
            .with_execution(self.engine);
        if obs {
            spec.with_observability()
        } else {
            spec
        }
    }

    pub fn is_sim(&self) -> bool {
        self.engine == ExecutionMode::Sim
    }
}

/// One trial of a pass: a unit of measured work with its own wall and CPU
/// time (a whole simulated run, a block of bursts, or a block of rounds).
#[derive(Default)]
pub struct Trial {
    pub counts: Counts,
    /// Client-observed decision latency of every decided transaction, in the
    /// engine's clock (virtual µs on Sim, wall µs on Threads).
    pub latencies: Vec<f64>,
    /// Wall µs of each load step: the submissions due at one point of the
    /// load plus the engine call that follows.
    pub rounds: Vec<f64>,
    /// Engine-clock µs from the latest client decision of a step to the end
    /// of that step's engine call.
    pub tails: Vec<f64>,
    /// Virtual µs from each disruption (a crash, or a simulated cold start
    /// of service on fault-free workloads) to the first commit on the
    /// disrupted shard of a transaction submitted after it.
    pub recover: Vec<f64>,
    pub wall_s: f64,
    pub cpu_us: f64,
    /// Engine events executed, and wall ns spent inside engine calls.
    pub events: u64,
    pub engine_ns: f64,
    pub calls: u64,
    /// Wall µs of each submit call (probed passes only).
    pub submit_us: Vec<f64>,
    /// Most certification-log slots any process retained at a call boundary
    /// (probed passes only).
    pub retained_max: usize,
    /// Host speed during a simulated trial relative to the reference speed
    /// (see [`HostProbe`]); 1 on threaded trials.
    pub host_factor: f64,
    /// Determinism fingerprint of a simulated trial.
    pub fingerprint: u64,
    pub spec_cost: SpecCost,
    /// Per-layer readouts, from the first trial of an observed pass.
    pub layers: Option<Layers>,
}

impl Trial {
    fn new() -> Trial {
        Trial {
            host_factor: 1.0,
            ..Trial::default()
        }
    }

    /// Adds another unit of work (one `paxos-flood` burst) to this trial.
    fn absorb(&mut self, other: Trial) {
        self.counts.submitted += other.counts.submitted;
        self.counts.decided += other.counts.decided;
        self.counts.committed += other.counts.committed;
        self.counts.failed += other.counts.failed;
        self.latencies.extend(other.latencies);
        self.rounds.extend(other.rounds);
        self.tails.extend(other.tails);
        self.submit_us.extend(other.submit_us);
        self.wall_s += other.wall_s;
        self.cpu_us += other.cpu_us;
        self.events += other.events;
        self.engine_ns += other.engine_ns;
        self.calls += other.calls;
        self.retained_max = self.retained_max.max(other.retained_max);
        if self.layers.is_none() {
            self.layers = other.layers;
            self.spec_cost = other.spec_cost;
        }
    }
}

/// Everything a run measured.
#[derive(Default)]
pub struct Pass {
    pub trials: Vec<Trial>,
    pub problems: Vec<String>,
    /// High-water RSS of the process through the first trial (through the
    /// first burst on `paxos-flood`). Later trials repeat the same work, but
    /// the process high-water mark still creeps up with each (allocator
    /// reuse), which would tie it to the trial count.
    pub peak_rss_mb: f64,
}

/// Build-and-warm-up accounting shared by every pass of a run.
#[derive(Default)]
pub struct Setup {
    pub setup_s: Vec<f64>,
    pub build_ms: Vec<f64>,
    pub idle_call_us: Vec<f64>,
}

/// Options of one pass.
#[derive(Clone, Copy)]
pub struct PassOpts {
    /// Build with observability on (the traced pass).
    pub obs: bool,
    /// Time every submit and sample log retention at call boundaries.
    pub probe: bool,
    /// Keep adding trials until this much wall time has passed …
    pub seconds: f64,
    /// … but run at least this many.
    pub min_trials: usize,
}

pub struct Runner<'a> {
    pub w: &'a Workload,
    pub seed: u64,
    pub setup: Setup,
}

impl<'a> Runner<'a> {
    pub fn new(w: &'a Workload, seed: u64) -> Runner<'a> {
        Runner {
            w,
            seed,
            setup: Setup::default(),
        }
    }

    /// Seed of the generated inputs (distinct from the cluster's own seed).
    fn input_seed(&self) -> u64 {
        self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xbe7c_4a11
    }

    /// Builds a cluster and warms it up with idle engine calls; records the
    /// set-up time.
    pub fn build(&mut self, obs: bool, tracer: &mut Tracer) -> Box<dyn TcsCluster> {
        let spec = self.w.spec(self.seed, obs);
        let start = Instant::now();
        let mut cluster = tracer.span("build", || spec.build());
        self.setup
            .build_ms
            .push(start.elapsed().as_secs_f64() * 1e3);
        for _ in 0..WARMUP_CALLS {
            let t = Instant::now();
            tracer.span("run_to_quiescence", || cluster.run_to_quiescence());
            self.setup
                .idle_call_us
                .push(t.elapsed().as_secs_f64() * 1e6);
        }
        self.setup.setup_s.push(start.elapsed().as_secs_f64());
        cluster
    }

    /// The timed inputs of the simulated open loops (empty otherwise).
    fn arrivals(&self) -> Vec<Arrival> {
        match self.w.kind {
            Kind::RdmaContended => load::contended(
                self.input_seed(),
                CONTENDED_TXS,
                CONTENDED_GAP_US,
                CONTENDED_KEYS,
                CONTENDED_KEYS_PER_TX,
                CONTENDED_THETA,
            ),
            Kind::MpFailover => {
                let window = FAILOVER_PERIOD_US * (FAILOVER_CRASHES + 1);
                load::paced_disjoint(
                    self.input_seed(),
                    (window / FAILOVER_GAP_US) as usize,
                    FAILOVER_GAP_US,
                )
            }
            Kind::MpRounds | Kind::PaxosFlood => Vec::new(),
        }
    }

    /// The transactions of one trial, in submission order. Every trial of a
    /// run repeats them on a fresh cluster.
    pub fn inputs(&self) -> Vec<(TxId, Payload)> {
        match self.w.kind {
            Kind::MpRounds => {
                Disjoint::new(self.input_seed()).take(ROUND_CLIENTS * ROUNDS_PER_TRIAL)
            }
            Kind::PaxosFlood => Disjoint::new(self.input_seed()).take(FLOOD_TXS),
            Kind::RdmaContended | Kind::MpFailover => self
                .arrivals()
                .into_iter()
                .map(|a| (a.tx, a.payload))
                .collect(),
        }
    }

    pub fn pass(&mut self, opts: PassOpts, tracer: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        let start = Instant::now();
        let arrivals = self.arrivals();
        // Start another trial only if it should end within the time budget.
        while pass.trials.len() < opts.min_trials || {
            let elapsed = start.elapsed().as_secs_f64();
            elapsed + elapsed / pass.trials.len() as f64 <= opts.seconds
        } {
            let first = pass.trials.is_empty();
            let observe = opts.obs && first;
            let trial = match self.w.kind {
                Kind::MpRounds => {
                    let mut cluster = self.build(opts.obs, tracer);
                    let trial = self.rounds(
                        cluster.as_mut(),
                        &mut Disjoint::new(self.input_seed()),
                        opts,
                        observe,
                        &mut pass.problems,
                        tracer,
                    );
                    tracer.span("drop", move || drop(cluster));
                    trial
                }
                Kind::PaxosFlood => {
                    let mut trial = Trial::new();
                    for burst in 0..BURSTS_PER_TRIAL {
                        let mut cluster = self.build(opts.obs, tracer);
                        let txs = Disjoint::new(self.input_seed()).take(FLOOD_TXS);
                        trial.absorb(self.burst(
                            cluster.as_mut(),
                            txs,
                            opts,
                            observe && burst == 0,
                            &mut pass.problems,
                            tracer,
                        ));
                        tracer.span("drop", move || drop(cluster));
                        if first && burst == 0 {
                            pass.peak_rss_mb = peak_rss_mb();
                        }
                    }
                    trial
                }
                Kind::RdmaContended => {
                    let mut cluster = self.build(opts.obs, tracer);
                    let trial = self.open_loop(
                        cluster.as_mut(),
                        &arrivals,
                        opts,
                        observe,
                        first,
                        &mut pass.problems,
                        tracer,
                    );
                    tracer.span("drop", move || drop(cluster));
                    trial
                }
                Kind::MpFailover => {
                    let cluster = self.build(opts.obs, tracer);
                    let mut harness = ChaosHarness::from_cluster(cluster, None);
                    let trial = self.failover(
                        &mut harness,
                        &arrivals,
                        opts,
                        observe,
                        first,
                        &mut pass.problems,
                        tracer,
                    );
                    tracer.span("drop", move || drop(harness));
                    trial
                }
            };
            if self.w.is_sim() && !first && trial.fingerprint != pass.trials[0].fingerprint {
                pass.problems
                    .push("a repeated simulated trial diverged from the first".into());
            }
            pass.trials.push(trial);
            if first && pass.peak_rss_mb == 0.0 {
                pass.peak_rss_mb = peak_rss_mb();
            }
        }
        if self.w.kind != Kind::MpFailover {
            let recover = self.cold_starts(&arrivals, &mut pass.problems, tracer);
            pass.trials[0].recover = recover;
        }
        pass
    }

    /// `mp-rounds`: a block of closed-loop rounds on a fresh cluster. (On
    /// one long-lived threaded cluster every round gets slower — ≈35 % over
    /// 320 rounds — so trials would depend on how many fit in the run.)
    fn rounds(
        &mut self,
        cluster: &mut dyn TcsCluster,
        stream: &mut Disjoint,
        opts: PassOpts,
        observe: bool,
        problems: &mut Vec<String>,
        tracer: &mut Tracer,
    ) -> Trial {
        let mut trial = Trial::new();
        let mut round_txs: Vec<Vec<TxId>> = Vec::with_capacity(ROUNDS_PER_TRIAL);
        let start = Instant::now();
        let cpu0 = cpu_micros();
        for _ in 0..ROUNDS_PER_TRIAL {
            let txs = stream.take(ROUND_CLIENTS);
            let round_start = Instant::now();
            round_txs.push(txs.iter().map(|(tx, _)| *tx).collect());
            for (tx, payload) in txs {
                submit(cluster, tx, payload, opts.probe, &mut trial, tracer);
            }
            let steps = cluster.steps();
            let call = Instant::now();
            tracer.span("run_to_quiescence", || cluster.run_to_quiescence());
            let call_ns = call.elapsed().as_nanos() as f64;
            trial.engine_ns += call_ns;
            trial.events += cluster.steps() - steps;
            trial.calls += 1;
            trial.rounds.push(round_start.elapsed().as_secs_f64() * 1e6);
            if opts.probe {
                sample_retention(cluster, &mut trial);
            }
        }
        trial.wall_s = start.elapsed().as_secs_f64();
        trial.cpu_us = cpu_micros() - cpu0;
        tracer.enter("collect");
        let latencies = cluster.latencies();
        for (round, txs) in round_txs.iter().enumerate() {
            let mut latest = 0.0f64;
            for lat in txs.iter().filter_map(|tx| latencies.get(tx)) {
                trial.latencies.push(lat.micros as f64);
                latest = latest.max(lat.micros as f64);
            }
            trial.tails.push(trial.rounds[round] - latest);
        }
        tracer.exit();
        let (counts, cost) = tracer.span("check", || gate::check(cluster, true, true, problems));
        trial.counts = counts;
        trial.spec_cost = cost;
        if observe {
            trial.layers = Some(layers::read(cluster, counts.decided, false, problems));
        }
        trial
    }

    /// `paxos-flood`: one burst on a fresh cluster.
    #[allow(clippy::too_many_arguments)]
    fn burst(
        &mut self,
        cluster: &mut dyn TcsCluster,
        txs: Vec<(TxId, Payload)>,
        opts: PassOpts,
        observe: bool,
        problems: &mut Vec<String>,
        tracer: &mut Tracer,
    ) -> Trial {
        let mut trial = Trial::new();
        let ids: Vec<TxId> = txs.iter().map(|(tx, _)| *tx).collect();
        let start = Instant::now();
        let cpu0 = cpu_micros();
        for (tx, payload) in txs {
            submit(cluster, tx, payload, opts.probe, &mut trial, tracer);
        }
        let steps = cluster.steps();
        let call = Instant::now();
        tracer.span("run_to_quiescence", || cluster.run_to_quiescence());
        trial.engine_ns = call.elapsed().as_nanos() as f64;
        trial.events = cluster.steps() - steps;
        trial.calls = 1;
        trial.wall_s = start.elapsed().as_secs_f64();
        trial.cpu_us = cpu_micros() - cpu0;
        trial.rounds.push(trial.wall_s * 1e6);
        if opts.probe {
            sample_retention(cluster, &mut trial);
        }
        tracer.enter("collect");
        let latencies = cluster.latencies();
        let mut latest = 0.0f64;
        for tx in &ids {
            if let Some(lat) = latencies.get(tx) {
                trial.latencies.push(lat.micros as f64);
                latest = latest.max(lat.micros as f64);
            }
        }
        trial.tails.push(trial.rounds[0] - latest);
        tracer.exit();
        let (counts, cost) = tracer.span("check", || gate::check(cluster, true, true, problems));
        trial.counts = counts;
        trial.spec_cost = cost;
        if observe {
            trial.layers = Some(layers::read(cluster, counts.decided, false, problems));
        }
        trial
    }

    /// `rdma-contended`: one simulated open-loop run on a fresh cluster.
    #[allow(clippy::too_many_arguments)]
    fn open_loop(
        &mut self,
        cluster: &mut dyn TcsCluster,
        arrivals: &[Arrival],
        opts: PassOpts,
        observe: bool,
        first: bool,
        problems: &mut Vec<String>,
        tracer: &mut Tracer,
    ) -> Trial {
        let mut trial = Trial::new();
        let origin = cluster.now().as_micros();
        let start = Instant::now();
        let cpu0 = cpu_micros();
        let steps0 = cluster.steps();
        let mut host = HostProbe::new();
        let mut probe_s = 0.0;
        for (i, arrival) in arrivals.iter().enumerate() {
            if i % PROBE_EVERY == 0 {
                probe_s += host.slice();
            }
            let step = Instant::now();
            tracer.span("run_until", || {
                cluster.run_until(SimTime::from_micros(origin + arrival.at_micros))
            });
            trial.engine_ns += step.elapsed().as_nanos() as f64;
            submit(
                cluster,
                arrival.tx,
                arrival.payload.clone(),
                opts.probe,
                &mut trial,
                tracer,
            );
            trial.rounds.push(step.elapsed().as_secs_f64() * 1e6);
            if opts.probe && i % 8 == 0 {
                sample_retention(cluster, &mut trial);
            }
        }
        let call = Instant::now();
        tracer.span("run_to_quiescence", || cluster.run_to_quiescence());
        trial.engine_ns += call.elapsed().as_nanos() as f64;
        trial.calls = arrivals.len() as u64 + 1;
        trial.wall_s = start.elapsed().as_secs_f64() - probe_s;
        trial.cpu_us = cpu_micros() - cpu0 - probe_s * 1e6;
        trial.host_factor = host.factor();
        trial.events = cluster.steps() - steps0;
        let submit_at: BTreeMap<TxId, u64> = arrivals
            .iter()
            .map(|a| (a.tx, origin + a.at_micros))
            .collect();
        self.sim_outcome(
            cluster,
            &submit_at,
            &[],
            first,
            observe,
            problems,
            &mut trial,
            tracer,
        );
        trial
    }

    /// The input windows of the cold starts: the workload's own shape on a
    /// fresh cluster — a round of the closed loop, the head of a burst, or
    /// a window of the open loop's arrivals re-timed so that its first
    /// arrival comes with the start of service.
    fn cold_start_windows(&self, arrivals: &[Arrival]) -> Vec<Vec<Arrival>> {
        let at_once = |txs: Vec<(TxId, Payload)>| -> Vec<Arrival> {
            txs.into_iter()
                .map(|(tx, payload)| Arrival {
                    at_micros: 0,
                    tx,
                    payload,
                })
                .collect()
        };
        let mut stream = Disjoint::new(self.input_seed() ^ 0xc01d);
        (0..COLD_STARTS)
            .map(|k| match self.w.kind {
                Kind::MpRounds => at_once(stream.take(ROUND_CLIENTS)),
                Kind::PaxosFlood => at_once(stream.take(COLD_START_TXS)),
                Kind::RdmaContended | Kind::MpFailover => {
                    let from = k * COLD_START_TXS % arrivals.len();
                    let window = &arrivals[from..(from + COLD_START_TXS).min(arrivals.len())];
                    let shift = window[0].at_micros;
                    window
                        .iter()
                        .map(|a| Arrival {
                            at_micros: a.at_micros - shift,
                            tx: a.tx,
                            payload: a.payload.clone(),
                        })
                        .collect()
                }
            })
            .collect()
    }

    /// Service restoration on the fault-free workloads: fresh simulated
    /// clusters of the workload's spec (sub-seeds of the run's seed), each
    /// given one cold-start window. Each yields, per shard, the virtual µs
    /// from the start of service to the first commit on that shard.
    fn cold_starts(
        &self,
        arrivals: &[Arrival],
        problems: &mut Vec<String>,
        tracer: &mut Tracer,
    ) -> Vec<f64> {
        tracer.enter("cold_starts");
        let mut out = Vec::new();
        for (k, window) in self.cold_start_windows(arrivals).iter().enumerate() {
            let seed = self
                .seed
                .wrapping_add((k as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let mut cluster = self
                .w
                .spec(seed, false)
                .with_execution(ExecutionMode::Sim)
                .build();
            let origin = cluster.now().as_micros();
            for arrival in window {
                cluster.run_until(SimTime::from_micros(origin + arrival.at_micros));
                cluster.submit(arrival.tx, arrival.payload.clone());
            }
            cluster.run_to_quiescence();
            let sharding = *cluster.sharding();
            let latencies = cluster.latencies();
            let mut first_commit: BTreeMap<ShardId, u64> = BTreeMap::new();
            for arrival in window {
                match latencies.get(&arrival.tx) {
                    Some(lat) if lat.decision.is_commit() => {
                        let at = arrival.at_micros + lat.micros;
                        for shard in arrival.payload.shards(&sharding) {
                            let entry = first_commit.entry(shard).or_insert(at);
                            *entry = (*entry).min(at);
                        }
                    }
                    _ => {}
                }
            }
            if first_commit.len() != self.w.shards as usize {
                problems.push(format!("cold start {k}: a shard committed nothing"));
            }
            out.extend(first_commit.values().map(|t| *t as f64));
        }
        tracer.exit();
        out
    }

    /// `mp-failover`: one simulated run with periodic leader crashes.
    #[allow(clippy::too_many_arguments)]
    fn failover(
        &mut self,
        harness: &mut ChaosHarness,
        arrivals: &[Arrival],
        opts: PassOpts,
        observe: bool,
        first: bool,
        problems: &mut Vec<String>,
        tracer: &mut Tracer,
    ) -> Trial {
        let mut trial = Trial::new();
        let origin = harness.now_micros();
        // (time, event) in time order; ties apply faults before submissions.
        let mut faults: Vec<(u64, FaultEvent)> = Vec::new();
        let mut crashes: Vec<(u64, ShardId)> = Vec::new();
        for k in 0..FAILOVER_CRASHES {
            let at = FAILOVER_PERIOD_US / 2 + k * FAILOVER_PERIOD_US;
            let shard = ShardId::new((k % u64::from(self.w.shards)) as u32);
            crashes.push((origin + at, shard));
            faults.push((at, FaultEvent::CrashLeader { shard }));
            faults.push((at + FAILOVER_DETECT_US, FaultEvent::Reconfigure { shard }));
            faults.push((at + FAILOVER_RESTART_US, FaultEvent::RestartCrashed));
        }
        faults.sort_by_key(|(at, _)| *at);
        let start = Instant::now();
        let cpu0 = cpu_micros();
        let steps0 = harness.steps();
        let mut faults = faults.into_iter().peekable();
        let mut host = HostProbe::new();
        let mut probe_s = 0.0;
        for (i, arrival) in arrivals.iter().enumerate() {
            if i % PROBE_EVERY == 0 {
                probe_s += host.slice();
            }
            let step = Instant::now();
            while faults
                .peek()
                .is_some_and(|(at, _)| *at <= arrival.at_micros)
            {
                let (at, event) = faults.next().expect("peeked");
                run_until(harness, origin + at, &mut trial, tracer);
                tracer.span("fault", || harness.apply(&event));
            }
            run_until(harness, origin + arrival.at_micros, &mut trial, tracer);
            if opts.probe {
                let t = Instant::now();
                tracer.span("submit", || {
                    harness.submit(arrival.tx, arrival.payload.clone())
                });
                trial.submit_us.push(t.elapsed().as_secs_f64() * 1e6);
            } else {
                harness.submit(arrival.tx, arrival.payload.clone());
            }
            trial.rounds.push(step.elapsed().as_secs_f64() * 1e6);
            if opts.probe && i % 8 == 0 {
                sample_retention(harness.cluster(), &mut trial);
            }
        }
        for (at, event) in faults {
            run_until(harness, origin + at, &mut trial, tracer);
            tracer.span("fault", || harness.apply(&event));
        }
        tracer.enter("recover");
        harness.heal();
        for _ in 0..FAILOVER_RECOVERY_ROUNDS {
            settle(harness, &mut trial, tracer);
            let stable = tracer.span("stabilize", || harness.stabilize());
            settle(harness, &mut trial, tracer);
            let undecided: Vec<TxId> = harness.history().undecided().collect();
            if stable && undecided.is_empty() {
                break;
            }
            for tx in undecided {
                harness.resubmit(tx);
            }
        }
        settle(harness, &mut trial, tracer);
        tracer.exit();
        trial.wall_s = start.elapsed().as_secs_f64() - probe_s;
        trial.cpu_us = cpu_micros() - cpu0 - probe_s * 1e6;
        trial.host_factor = host.factor();
        trial.events = harness.steps() - steps0;
        let submit_at: BTreeMap<TxId, u64> = arrivals
            .iter()
            .map(|a| (a.tx, origin + a.at_micros))
            .collect();
        self.sim_outcome(
            harness.cluster(),
            &submit_at,
            &crashes,
            first,
            observe,
            problems,
            &mut trial,
            tracer,
        );
        trial
    }

    /// Collects a simulated trial: latencies, recovery samples after each
    /// crash, the gate, the fingerprint and (observed passes) the per-layer
    /// readouts with the exact phase-sum check.
    #[allow(clippy::too_many_arguments)]
    fn sim_outcome(
        &self,
        cluster: &dyn TcsCluster,
        submit_at: &BTreeMap<TxId, u64>,
        crashes: &[(u64, ShardId)],
        first: bool,
        observe: bool,
        problems: &mut Vec<String>,
        trial: &mut Trial,
        tracer: &mut Tracer,
    ) {
        tracer.enter("collect");
        let latencies = cluster.latencies();
        let sharding = *cluster.sharding();
        let history = cluster.history();
        // Commit times per shard, in virtual µs.
        let mut commits: BTreeMap<ShardId, Vec<(u64, u64)>> = BTreeMap::new();
        let mut fingerprint: u64 = cluster.steps();
        for (tx, lat) in &latencies {
            trial.latencies.push(lat.micros as f64);
            fingerprint = fingerprint.rotate_left(7) ^ lat.micros ^ (tx.as_u64() << 20);
            let submitted = submit_at[tx];
            let decided_at = submitted + lat.micros;
            if lat.decision.is_commit() {
                for shard in history.payload(*tx).expect("submitted").shards(&sharding) {
                    commits
                        .entry(shard)
                        .or_default()
                        .push((submitted, decided_at));
                }
            }
        }
        trial.fingerprint = fingerprint;
        for (at, shard) in crashes {
            let first_commit = commits
                .get(shard)
                .into_iter()
                .flatten()
                .filter(|(submitted, _)| submitted >= at)
                .map(|(_, decided)| decided)
                .min();
            match first_commit {
                Some(t) => trial.recover.push((t - at) as f64),
                None => problems.push(format!("no commit on {shard} after the crash at {at} us")),
            }
        }
        tracer.exit();
        let (counts, cost) = tracer.span("check", || {
            gate::check(cluster, self.w.disjoint, first, problems)
        });
        trial.counts = counts;
        trial.spec_cost = cost;
        if observe {
            trial.layers = Some(layers::read(cluster, counts.decided, true, problems));
        }
    }
}

fn submit(
    cluster: &mut dyn TcsCluster,
    tx: TxId,
    payload: Payload,
    probe: bool,
    trial: &mut Trial,
    tracer: &mut Tracer,
) {
    if probe {
        let t = Instant::now();
        tracer.span("submit", || cluster.submit(tx, payload));
        trial.submit_us.push(t.elapsed().as_secs_f64() * 1e6);
    } else {
        cluster.submit(tx, payload);
    }
}

fn run_until(harness: &mut ChaosHarness, at: u64, trial: &mut Trial, tracer: &mut Tracer) {
    let now = harness.now_micros();
    if at > now {
        run_for(harness, SimDuration::from_micros(at - now), trial, tracer);
    }
}

fn run_for(harness: &mut ChaosHarness, d: SimDuration, trial: &mut Trial, tracer: &mut Tracer) {
    let t = Instant::now();
    tracer.span("run_for", || harness.run_for(d));
    trial.engine_ns += t.elapsed().as_nanos() as f64;
    trial.calls += 1;
}

/// Runs 25 ms slices until a slice executes no event.
fn settle(harness: &mut ChaosHarness, trial: &mut Trial, tracer: &mut Tracer) {
    for _ in 0..200 {
        let before = harness.steps();
        run_for(harness, SimDuration::from_millis(25), trial, tracer);
        if harness.steps() == before {
            return;
        }
    }
}

fn sample_retention(cluster: &dyn TcsCluster, trial: &mut Trial) {
    for pid in cluster.all_processes() {
        if let Some(slots) = cluster.retained_log_slots(pid) {
            trial.retained_max = trial.retained_max.max(slots);
        }
    }
}
