//! The [`TcsCluster`] trait and [`SimCluster`], the one shell that
//! implements it for every stack.
//!
//! The shell owns what every deployment shares: the simulation [`World`],
//! the history-recording [`ClientActor`], the sharding, the choice of engine
//! ([`ExecutionMode`]) and the round-robin choice of coordinator. What really
//! differs between the protocols comes from the [`Stack`] parameter:
//! deployment, the messages that re-drive work, membership and protocol-state
//! probes, and the capability flags
//! ([`TcsCluster::supports_reconfiguration`],
//! [`TcsCluster::reconfiguration_is_global`],
//! [`TcsCluster::replicas_coordinate`]) that let generic drivers handle the
//! real semantic differences between the protocols.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use ratc_sim::faults::LinkFault;
use ratc_sim::{
    fold_timelines, Blackout, CtrlMilestone, ExecutionMode, LatencyUnit, Metrics, MetricsView,
    PhaseBreakdown, SimDuration, SimTime, TxMilestone, TxTimeline, World,
};
use ratc_types::{Epoch, HashSharding, Payload, ProcessId, ShardId, TcsHistory, TxId};

use crate::client::{ClientActor, ClientMsg, DecisionLatency};
use crate::spec::ClusterSpec;
use crate::stack::{Deployment, Stack};

/// Which TCS implementation a cluster (or an experiment, or a chaos run)
/// uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StackKind {
    /// The message-passing RATC protocol (`ratc-core`, §3, Figure 1):
    /// `f + 1` replicas per shard, 5-message-delay decisions, per-shard
    /// Vertical-Paxos-style reconfiguration.
    Core,
    /// The RDMA-based RATC protocol (`ratc-rdma`, §5, Figures 7–8) with the
    /// correct whole-system reconfiguration: votes and decisions persisted
    /// by NIC-acknowledged RDMA writes, global epochs, probing closes stale
    /// coordinators' connections.
    Rdma,
    /// The RDMA data path combined with the **incorrect** naive per-shard
    /// reconfiguration of §3 — the Figure 4a counter-example's hunting
    /// ground. Unsafe by design; exists to reproduce the violation class.
    RdmaNaive,
    /// The vanilla 2PC-over-Paxos baseline (`ratc-baseline`, §1): `2f + 1`
    /// replicas per group, 7-message-delay decisions, failures masked by
    /// Paxos quorums instead of reconfiguration (the lineage of Gray &
    /// Lamport's *Consensus on Transaction Commit*).
    Baseline,
}

impl fmt::Display for StackKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StackKind::Core => f.write_str("ratc-mp"),
            StackKind::Rdma => f.write_str("ratc-rdma"),
            StackKind::RdmaNaive => f.write_str("ratc-rdma-naive"),
            StackKind::Baseline => f.write_str("2pc-paxos"),
        }
    }
}

/// One deployed TCS cluster, whatever the stack.
///
/// The trait captures the full operator surface the workspace's consumers
/// need: experiments drive `submit`/`run_*`/`latencies`, the chaos nemesis
/// adds `crash`/`restart`/link faults/`start_reconfiguration`, and the spec
/// suites observe `history` and the introspection queries. Measurement
/// reads (counters, sample statistics, the observability streams) come
/// from the [`MetricsView`] supertrait. [`SimCluster`] implements both for
/// every [`Stack`]; construct one with
/// [`ClusterSpec::build`] (behind this trait) or [`ClusterSpec::build_typed`]
/// (a typed shell for white-box access).
pub trait TcsCluster: MetricsView {
    /// The stack this cluster implements.
    fn stack(&self) -> StackKind;

    // --- submission -------------------------------------------------------

    /// Submits a transaction for certification, letting the harness choose a
    /// coordinator (round-robin over live replicas on the RATC stacks, the
    /// transaction-manager leader on the baseline). Returns the coordinator.
    fn submit(&mut self, tx: TxId, payload: Payload) -> ProcessId;

    /// Submits a transaction through a specific coordinator — any replica on
    /// the RATC stacks, any transaction-manager group member on the baseline
    /// (non-leader members forward to the leader).
    fn submit_via(&mut self, tx: TxId, payload: Payload, coordinator: ProcessId);

    /// Re-drives an already-submitted transaction without re-recording it in
    /// the client history (the client retry of the TCS model).
    fn resubmit(&mut self, tx: TxId, payload: Payload);

    /// Asks `replica` to act as a recovery coordinator for `tx` (the `retry`
    /// function of Figure 1). No-op on the baseline, whose transaction
    /// manager re-drives 2PC through its own retry timer.
    fn retry(&mut self, replica: ProcessId, tx: TxId);

    // --- faults and membership change -------------------------------------

    /// Crashes a process immediately (volatile state lost).
    fn crash(&mut self, pid: ProcessId);

    /// Restarts a crashed process from its modelled stable storage. Returns
    /// `false` if `pid` was not crashed.
    fn restart(&mut self, pid: ProcessId) -> bool;

    /// Asks `initiator` to start reconfiguring `shard`, excluding `exclude`
    /// and drawing replacements from the spare pool. No-op on stacks without
    /// reconfiguration (see [`TcsCluster::supports_reconfiguration`]).
    fn start_reconfiguration(
        &mut self,
        shard: ShardId,
        initiator: ProcessId,
        exclude: Vec<ProcessId>,
    );

    // --- simulated time ----------------------------------------------------

    /// Runs the simulation until no events remain.
    fn run_to_quiescence(&mut self);

    /// Runs the simulation for `duration` of simulated time.
    fn run_for(&mut self, duration: SimDuration);

    /// Runs the simulation until the given absolute simulated time.
    fn run_until(&mut self, until: SimTime);

    /// The current simulated time.
    fn now(&self) -> SimTime;

    /// Events executed so far — a determinism fingerprint.
    fn steps(&self) -> u64;

    // --- observation -------------------------------------------------------

    /// The client-observed TCS history.
    fn history(&self) -> TcsHistory;

    /// Latency (message delays, simulated microseconds, decision) of every
    /// decided transaction, as observed by the client.
    fn latencies(&self) -> BTreeMap<TxId, DecisionLatency>;

    /// Structural specification violations the client observed (duplicate
    /// certifies, contradictory decisions). Empty in a correct run.
    fn client_violations(&self) -> Vec<String>;

    /// The unit of every latency and timestamp this cluster reports:
    /// [`LatencyUnit::VirtualMicros`] under
    /// [`ExecutionMode::Sim`], [`LatencyUnit::WallMicros`] under
    /// [`ExecutionMode::Threads`].
    fn latency_unit(&self) -> LatencyUnit;

    /// Per-transaction lifecycle timelines, folded from
    /// [`MetricsView::obs_events`] and keyed by transaction.
    fn timelines(&self) -> BTreeMap<TxId, TxTimeline> {
        fold_timelines(&self.obs_events())
    }

    /// Per-phase latency attribution of every transaction whose timeline is
    /// complete (submission and client-learned decision both stamped). The
    /// phases of each breakdown sum exactly to its end-to-end latency, in
    /// the cluster's [`TcsCluster::latency_unit`].
    fn phase_breakdown(&self) -> BTreeMap<TxId, PhaseBreakdown> {
        self.timelines()
            .iter()
            .filter_map(|(tx, timeline)| {
                PhaseBreakdown::from_timeline(timeline).map(|breakdown| (*tx, breakdown))
            })
            .collect()
    }

    /// Stamps a control-plane event into the cluster's event stream on behalf
    /// of an external harness. The chaos nemesis records
    /// [`CtrlMilestone::FaultInjected`] / [`CtrlMilestone::FaultHealed`] here
    /// so a single time-ordered forensic log merges protocol milestones with
    /// the faults that caused them. A no-op unless observability is enabled —
    /// it only appends to a metrics buffer and never touches the schedule.
    fn record_ctrl(
        &mut self,
        by: ProcessId,
        milestone: CtrlMilestone,
        shard: Option<ShardId>,
        note: &str,
    );

    /// Per-shard availability windows derived from the control-plane stream:
    /// each window opens at the first degrading event
    /// ([`CtrlMilestone::degrades`]) touching a shard and closes at the first
    /// transaction decided on that shard strictly after the last degrading
    /// event. Substrate events recorded without a shard (crashes and restarts
    /// are stamped by process) are attributed to the crashed process's shard
    /// via the initial roster and spare pools before the windows are computed.
    fn blackouts(&self) -> Vec<Blackout> {
        let mut shard_of: BTreeMap<ProcessId, ShardId> = BTreeMap::new();
        for shard in self.shards() {
            for pid in self
                .roster_of(shard)
                .into_iter()
                .chain(self.spares_of(shard))
            {
                shard_of.insert(pid, shard);
            }
        }
        let mut ctrl = self.ctrl_events();
        for event in &mut ctrl {
            if event.shard.is_none() {
                event.shard = shard_of.get(&event.by).copied();
            }
        }
        let decided = ratc_sim::decided_times_per_shard(&self.obs_events());
        ratc_sim::blackouts(&ctrl, &decided)
    }

    // --- topology introspection --------------------------------------------

    /// All shards of this cluster.
    fn shards(&self) -> Vec<ShardId>;

    /// The shard map used by this cluster.
    fn sharding(&self) -> &HashSharding;

    /// The history-recording client process.
    fn client_id(&self) -> ProcessId;

    /// The configuration-service process, on stacks that have one.
    fn config_service_id(&self) -> Option<ProcessId>;

    /// The *current* members of `shard` (after any reconfigurations).
    fn members_of(&self, shard: ShardId) -> Vec<ProcessId>;

    /// The *current* leader of `shard`, if the shard has a configuration.
    fn leader_of(&self, shard: ShardId) -> Option<ProcessId>;

    /// The current epoch of `shard`. Global-epoch stacks report the global
    /// epoch for every shard; the baseline has no reconfiguration and always
    /// reports [`Epoch::ZERO`].
    fn epoch_of(&self, shard: ShardId) -> Epoch;

    /// The initial roster of `shard` (its members at construction time).
    fn roster_of(&self, shard: ShardId) -> Vec<ProcessId>;

    /// The spare (fresh) replicas of `shard` available to reconfiguration.
    fn spares_of(&self, shard: ShardId) -> Vec<ProcessId>;

    /// The processes a harness may hand submissions to: every replica and
    /// spare on the RATC stacks, the transaction-manager leader on the
    /// baseline.
    fn coordinator_pool(&self) -> Vec<ProcessId>;

    /// Every faultable protocol process (replicas, spares, and the
    /// transaction-manager group on the baseline) — excludes the client and
    /// the configuration service.
    fn all_processes(&self) -> Vec<ProcessId>;

    /// Whether `pid` is currently crashed.
    fn is_crashed(&self, pid: ProcessId) -> bool;

    // --- capabilities and protocol state ------------------------------------

    /// Whether the stack recovers from failures by reconfiguring (`f + 1`
    /// RATC stacks) rather than masking them with a quorum (the `2f + 1`
    /// baseline).
    fn supports_reconfiguration(&self) -> bool;

    /// Whether one reconfiguration involves the whole system (the §5 RDMA
    /// protocol) instead of a single shard.
    fn reconfiguration_is_global(&self) -> bool;

    /// Whether arbitrary replicas coordinate transactions (RATC) as opposed
    /// to a dedicated transaction-manager group (baseline).
    fn replicas_coordinate(&self) -> bool;

    /// Whether `pid` is ready to initiate work: initialised in the current
    /// configuration with no reconfiguration of its own in flight. On the
    /// baseline every non-crashed process is ready.
    fn replica_ready(&self, pid: ProcessId) -> bool;

    /// Whether `shard` looks fully operational: every current member live,
    /// initialised, at the current epoch, with the expected leader/follower
    /// status. Always `true` on the baseline (failures are masked; recovery
    /// is restart-driven).
    fn shard_operational(&self, shard: ShardId) -> bool;

    /// Transactions the current leader of `shard` holds prepared but
    /// undecided. Empty on the baseline (votes are decided by the TM).
    fn prepared_transactions(&self, shard: ShardId) -> Vec<TxId>;

    /// Physical certification-log slots (or undecided payloads, on the
    /// baseline) retained by `pid`, if `pid` keeps a shard log.
    fn retained_log_slots(&self, pid: ProcessId) -> Option<usize>;

    /// Logical certification-log length at `pid` — what retention would be
    /// without truncation/pruning — if `pid` keeps a shard log.
    fn logical_log_len(&self, pid: ProcessId) -> Option<u64>;

    // --- fault plane --------------------------------------------------------

    /// Installs a probabilistic fault on the directed link `from → to`.
    fn set_link_fault(&mut self, from: ProcessId, to: ProcessId, fault: LinkFault);

    /// Installs (or clears) fabric-wide background noise.
    fn set_default_link_fault(&mut self, fault: Option<LinkFault>);

    /// Installs a named partition: traffic between different groups drops.
    fn install_partition(&mut self, name: &str, groups: Vec<Vec<ProcessId>>);

    /// Heals every link fault, cut and partition (crashed processes stay
    /// crashed).
    fn heal_all_faults(&mut self);

    /// Exempts a process from all fault injection (used for the
    /// history-recording client — the measurement apparatus).
    fn mark_fault_exempt(&mut self, pid: ProcessId);
}

/// One deployed cluster of stack `S`: the simulation world, the client and
/// the per-stack deployment, driven through [`TcsCluster`].
///
/// Build one with [`ClusterSpec::build_typed`]. The typed shell gives
/// white-box code (invariant checkers, log-differential suites, scripted
/// schedules) direct access to the world and, through per-stack inherent
/// methods, to the replicas.
pub struct SimCluster<S: Stack> {
    /// The simulation world; public so white-box code can crash processes,
    /// inject messages, downcast actors, read metrics and traces, or step
    /// the simulation manually.
    pub world: World<S::Msg>,
    pub(crate) stack: S,
    sharding: Arc<HashSharding>,
    client: ProcessId,
    roster: BTreeMap<ShardId, Vec<ProcessId>>,
    pub(crate) spares: BTreeMap<ShardId, Vec<ProcessId>>,
    next_coordinator: usize,
    execution: ExecutionMode,
}

impl<S: Stack> fmt::Debug for SimCluster<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimCluster")
            .field("stack", &self.stack.kind())
            .field("shards", &self.roster.len())
            .field("client", &self.client)
            .finish()
    }
}

impl<S: Stack> SimCluster<S> {
    pub(crate) fn new(spec: &ClusterSpec) -> Self {
        let sharding = Arc::new(HashSharding::new(spec.shards));
        let mut world = World::new(spec.sim.clone());
        let Deployment {
            stack,
            client,
            roster,
            spares,
        } = S::deploy(spec, &sharding, &mut world);
        SimCluster {
            world,
            stack,
            sharding,
            client,
            roster,
            spares,
            next_coordinator: 0,
            execution: spec.execution,
        }
    }

    /// The initial members of `shard` (its roster at construction time).
    pub fn roster(&self, shard: ShardId) -> &[ProcessId] {
        self.roster.get(&shard).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The spare replicas of `shard`.
    pub fn spares(&self, shard: ShardId) -> &[ProcessId] {
        self.spares.get(&shard).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The history-recording client actor.
    fn client(&self) -> &ClientActor<S::Msg> {
        self.world
            .actor::<ClientActor<S::Msg>>(self.client)
            .expect("client")
    }

    /// The processes `submit` chooses from: every initial replica where
    /// replicas coordinate, else the coordinator group's leader.
    fn submit_pool(&self) -> Vec<ProcessId> {
        match self.stack.coordinator_group().first() {
            Some(leader) => vec![*leader],
            None => self.roster.values().flatten().copied().collect(),
        }
    }
}

impl<S: Stack> MetricsView for SimCluster<S> {
    fn metrics(&self) -> &Metrics {
        self.world.metrics()
    }
}

impl<S: Stack> TcsCluster for SimCluster<S> {
    fn stack(&self) -> StackKind {
        self.stack.kind()
    }

    /// Round-robin over the live members of the submission pool. With every
    /// member crashed the request still goes to the next member: the
    /// message drops, and the transaction stays in the history undecided
    /// until a restart and [`TcsCluster::resubmit`] re-drive it.
    fn submit(&mut self, tx: TxId, payload: Payload) -> ProcessId {
        let pool = self.submit_pool();
        let live: Vec<ProcessId> = pool
            .iter()
            .copied()
            .filter(|p| !self.world.is_crashed(*p))
            .collect();
        let candidates = if live.is_empty() { &pool } else { &live };
        let coordinator = candidates[self.next_coordinator % candidates.len()];
        self.next_coordinator += 1;
        self.submit_via(tx, payload, coordinator);
        coordinator
    }

    fn submit_via(&mut self, tx: TxId, payload: Payload, coordinator: ProcessId) {
        let now = self.world.now();
        let client = self.client;
        self.world
            .actor_mut::<ClientActor<S::Msg>>(client)
            .expect("client")
            .record_certify(tx, payload.clone(), now);
        self.world.obs_milestone(tx, TxMilestone::Submitted, client);
        self.world
            .send_external(coordinator, S::Msg::certify(tx, payload, client));
    }

    fn resubmit(&mut self, tx: TxId, payload: Payload) {
        let first = payload.shards(self.sharding.as_ref()).first().copied();
        if let Some(target) = S::resubmit_target(self, first) {
            let client = self.client;
            self.world
                .send_external(target, S::Msg::certify(tx, payload, client));
        }
    }

    fn retry(&mut self, replica: ProcessId, tx: TxId) {
        if let Some(msg) = S::retry(tx) {
            self.world.send_external(replica, msg);
        }
    }

    fn crash(&mut self, pid: ProcessId) {
        self.world.crash(pid);
    }

    fn restart(&mut self, pid: ProcessId) -> bool {
        self.world.restart(pid)
    }

    fn start_reconfiguration(
        &mut self,
        shard: ShardId,
        initiator: ProcessId,
        exclude: Vec<ProcessId>,
    ) {
        if let Some(msg) = S::reconfigure(self, shard, exclude) {
            self.world.send_external(initiator, msg);
        }
    }

    fn run_to_quiescence(&mut self) {
        match self.execution {
            ExecutionMode::Sim => self.world.run(),
            ExecutionMode::Threads => self.world.run_threaded(),
        };
    }

    fn run_for(&mut self, duration: SimDuration) {
        let until = self.world.now() + duration;
        self.run_until(until);
    }

    fn run_until(&mut self, until: SimTime) {
        match self.execution {
            ExecutionMode::Sim => self.world.run_until(until),
            ExecutionMode::Threads => self.world.run_threaded_until(until),
        };
    }

    fn now(&self) -> SimTime {
        self.world.now()
    }

    fn steps(&self) -> u64 {
        self.world.steps()
    }

    fn history(&self) -> TcsHistory {
        self.client().history().clone()
    }

    fn latencies(&self) -> BTreeMap<TxId, DecisionLatency> {
        self.client().latencies().clone()
    }

    fn client_violations(&self) -> Vec<String> {
        self.client().violations().to_vec()
    }

    fn latency_unit(&self) -> LatencyUnit {
        match self.execution {
            ExecutionMode::Sim => LatencyUnit::VirtualMicros,
            ExecutionMode::Threads => LatencyUnit::WallMicros,
        }
    }

    fn record_ctrl(
        &mut self,
        by: ProcessId,
        milestone: CtrlMilestone,
        shard: Option<ShardId>,
        note: &str,
    ) {
        self.world.ctrl_milestone(by, milestone, shard, note);
    }

    fn shards(&self) -> Vec<ShardId> {
        self.roster.keys().copied().collect()
    }

    fn sharding(&self) -> &HashSharding {
        &self.sharding
    }

    fn client_id(&self) -> ProcessId {
        self.client
    }

    fn config_service_id(&self) -> Option<ProcessId> {
        self.stack.config_service()
    }

    fn members_of(&self, shard: ShardId) -> Vec<ProcessId> {
        S::members_of(self, shard)
    }

    fn leader_of(&self, shard: ShardId) -> Option<ProcessId> {
        S::leader_of(self, shard)
    }

    fn epoch_of(&self, shard: ShardId) -> Epoch {
        S::epoch_of(self, shard)
    }

    fn roster_of(&self, shard: ShardId) -> Vec<ProcessId> {
        self.roster(shard).to_vec()
    }

    fn spares_of(&self, shard: ShardId) -> Vec<ProcessId> {
        self.spares(shard).to_vec()
    }

    /// Every replica and spare where replicas coordinate; else the
    /// coordinator group, leader first (callers wanting the cheapest
    /// coordinator can take the pool head).
    fn coordinator_pool(&self) -> Vec<ProcessId> {
        match self.stack.coordinator_group() {
            [] => self.all_processes(),
            group => group.to_vec(),
        }
    }

    fn all_processes(&self) -> Vec<ProcessId> {
        let mut all = Vec::new();
        for (shard, members) in &self.roster {
            all.extend(members);
            all.extend(self.spares(*shard));
        }
        all.extend(self.stack.coordinator_group());
        all
    }

    fn is_crashed(&self, pid: ProcessId) -> bool {
        self.world.is_crashed(pid)
    }

    fn supports_reconfiguration(&self) -> bool {
        S::SUPPORTS_RECONFIGURATION
    }

    fn reconfiguration_is_global(&self) -> bool {
        S::RECONFIGURATION_IS_GLOBAL
    }

    fn replicas_coordinate(&self) -> bool {
        self.stack.coordinator_group().is_empty()
    }

    fn replica_ready(&self, pid: ProcessId) -> bool {
        S::replica_ready(self, pid)
    }

    fn shard_operational(&self, shard: ShardId) -> bool {
        S::shard_operational(self, shard)
    }

    fn prepared_transactions(&self, shard: ShardId) -> Vec<TxId> {
        S::prepared_transactions(self, shard)
    }

    fn retained_log_slots(&self, pid: ProcessId) -> Option<usize> {
        S::retained_log_slots(self, pid)
    }

    fn logical_log_len(&self, pid: ProcessId) -> Option<u64> {
        S::logical_log_len(self, pid)
    }

    fn set_link_fault(&mut self, from: ProcessId, to: ProcessId, fault: LinkFault) {
        self.world.set_link_fault(from, to, fault);
    }

    fn set_default_link_fault(&mut self, fault: Option<LinkFault>) {
        self.world.set_default_link_fault(fault);
    }

    fn install_partition(&mut self, name: &str, groups: Vec<Vec<ProcessId>>) {
        self.world.install_partition(name, groups);
    }

    fn heal_all_faults(&mut self) {
        self.world.heal_all_faults();
    }

    fn mark_fault_exempt(&mut self, pid: ProcessId) {
        self.world.mark_fault_exempt(pid);
    }
}
