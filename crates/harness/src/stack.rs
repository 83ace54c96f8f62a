//! The [`Stack`] trait — what one protocol contributes to the shared
//! [`SimCluster`] shell — and its three implementations.
//!
//! A stack deploys its actors, names the messages that re-drive work
//! (`RETRY`, `START_RECONFIGURE`, the client's resubmission target), answers
//! membership, leader and epoch queries, and probes its protocol state.
//! Everything else (the world, the client, submission, time, faults and
//! observation) lives once in the shell.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use ratc_baseline::{BaselineMsg, BaselineShardReplica, TransactionManager};
use ratc_core::config_service::ShardConfiguration;
use ratc_core::invariants::{check_shard, InvariantViolation};
use ratc_core::log::{CertificationLog, TxPhase};
use ratc_core::replica::{Replica, Status};
use ratc_core::{ConfigServiceActor, Msg};
use ratc_rdma::config_service::GlobalConfiguration;
use ratc_rdma::replica::RdmaStatus;
use ratc_rdma::{GlobalConfigServiceActor, RdmaMsg, RdmaReplica, ReconfigMode};
use ratc_sim::{Actor, World};
use ratc_types::{Epoch, HashSharding, ProcessId, ShardId, ShardMap, TxId};

use crate::client::{ClientActor, ClientMsg};
use crate::cluster::{SimCluster, StackKind, TcsCluster};
use crate::spec::ClusterSpec;

/// Per-shard process groups, in shard order.
type Groups = BTreeMap<ShardId, Vec<ProcessId>>;

/// What [`Stack::deploy`] hands to the shell.
#[derive(Debug)]
pub struct Deployment<S> {
    /// The stack's own deployment state.
    pub stack: S,
    /// The history-recording client.
    pub client: ProcessId,
    /// The initial members of every shard.
    pub roster: Groups,
    /// The spare replicas of every shard (none on stacks that cannot
    /// reconfigure).
    pub spares: Groups,
}

/// The per-stack part of a [`SimCluster`].
///
/// Probes take the whole shell, so a stack reads the world, the roster and
/// its own state through one argument.
pub trait Stack: Sized + 'static {
    /// The stack's message vocabulary.
    type Msg: ClientMsg + Clone + fmt::Debug + Send + 'static;

    /// Whether the stack recovers from failures by reconfiguring.
    const SUPPORTS_RECONFIGURATION: bool;

    /// Whether one reconfiguration involves the whole system.
    const RECONFIGURATION_IS_GLOBAL: bool;

    /// Adds the stack's actors to `world`, the client included at its place
    /// in the actor order (process ids follow the order of `add_actor`
    /// calls), and installs their initial configuration.
    fn deploy(
        spec: &ClusterSpec,
        sharding: &Arc<HashSharding>,
        world: &mut World<Self::Msg>,
    ) -> Deployment<Self>;

    /// The stack selector this deployment realises.
    fn kind(&self) -> StackKind;

    /// The configuration-service process, on stacks that have one.
    fn config_service(&self) -> Option<ProcessId>;

    /// The dedicated coordinator group, leader first; empty where any
    /// replica coordinates.
    fn coordinator_group(&self) -> &[ProcessId];

    /// The message asking a replica to recover-coordinate `tx`, if the
    /// stack has one.
    fn retry(tx: TxId) -> Option<Self::Msg>;

    /// The message asking a replica to reconfigure `shard` without
    /// `exclude`, if the stack can reconfigure.
    fn reconfigure(
        cluster: &SimCluster<Self>,
        shard: ShardId,
        exclude: Vec<ProcessId>,
    ) -> Option<Self::Msg>;

    /// Where a client retry of a transaction whose first shard is `first`
    /// goes, or `None` to drop it.
    fn resubmit_target(cluster: &SimCluster<Self>, first: Option<ShardId>) -> Option<ProcessId>;

    /// See [`TcsCluster::members_of`].
    fn members_of(cluster: &SimCluster<Self>, shard: ShardId) -> Vec<ProcessId>;

    /// See [`TcsCluster::leader_of`].
    fn leader_of(cluster: &SimCluster<Self>, shard: ShardId) -> Option<ProcessId>;

    /// See [`TcsCluster::epoch_of`].
    fn epoch_of(cluster: &SimCluster<Self>, shard: ShardId) -> Epoch;

    /// See [`TcsCluster::replica_ready`].
    fn replica_ready(cluster: &SimCluster<Self>, pid: ProcessId) -> bool;

    /// See [`TcsCluster::shard_operational`].
    fn shard_operational(cluster: &SimCluster<Self>, shard: ShardId) -> bool;

    /// See [`TcsCluster::prepared_transactions`].
    fn prepared_transactions(cluster: &SimCluster<Self>, shard: ShardId) -> Vec<TxId>;

    /// See [`TcsCluster::retained_log_slots`].
    fn retained_log_slots(cluster: &SimCluster<Self>, pid: ProcessId) -> Option<usize>;

    /// See [`TcsCluster::logical_log_len`].
    fn logical_log_len(cluster: &SimCluster<Self>, pid: ProcessId) -> Option<u64>;
}

/// Adds the `f + 1` members and then the spares of each shard, shard by
/// shard (the RATC stacks' actor order).
fn add_replicas<M, A>(
    spec: &ClusterSpec,
    world: &mut World<M>,
    mut replica: impl FnMut(ShardId) -> A,
) -> (Groups, Groups)
where
    M: Clone + fmt::Debug + 'static,
    A: Actor<M>,
{
    let mut members = Groups::new();
    let mut spares = Groups::new();
    for shard in (0..spec.shards).map(ShardId::new) {
        let group = (0..=spec.failures)
            .map(|_| world.add_actor(replica(shard)))
            .collect();
        members.insert(shard, group);
        let pool = (0..spec.spares_per_shard)
            .map(|_| world.add_actor(replica(shard)))
            .collect();
        spares.insert(shard, pool);
    }
    (members, spares)
}

/// Every replica with whether it is an initial member, shard by shard:
/// members first, then spares.
fn replicas_in_order<'a>(
    members: &'a Groups,
    spares: &'a Groups,
) -> impl Iterator<Item = (ProcessId, bool)> + 'a {
    members.iter().flat_map(move |(shard, group)| {
        let spares = spares[shard].iter().map(|p| (*p, false));
        group.iter().map(|p| (*p, true)).chain(spares)
    })
}

/// Transactions a certification log holds prepared but undecided.
fn prepared(log: &CertificationLog) -> Vec<TxId> {
    log.entries()
        .filter(|(_, e)| e.phase == TxPhase::Prepared)
        .map(|(_, e)| e.tx)
        .collect()
}

// ---------------------------------------------------------------------------
// ratc-core (§3 message passing)
// ---------------------------------------------------------------------------

/// The message-passing RATC protocol (`ratc-core`, §3): `f + 1` replicas
/// and spares per shard, and a configuration service for per-shard
/// reconfiguration.
#[derive(Debug)]
pub struct CoreStack {
    cs: ProcessId,
    target_size: usize,
}

impl Stack for CoreStack {
    type Msg = Msg;
    const SUPPORTS_RECONFIGURATION: bool = true;
    const RECONFIGURATION_IS_GLOBAL: bool = false;

    fn deploy(
        spec: &ClusterSpec,
        sharding: &Arc<HashSharding>,
        world: &mut World<Msg>,
    ) -> Deployment<Self> {
        let (members, spares) = add_replicas(spec, world, |shard| {
            let sharding = sharding.clone() as Arc<dyn ShardMap + Send + Sync>;
            Replica::new(shard, spec.policy.as_ref(), sharding)
        });
        // Initial configurations: the first replica of each shard leads.
        let initial: BTreeMap<ShardId, ShardConfiguration> = members
            .iter()
            .map(|(shard, group)| {
                let config = ShardConfiguration::new(Epoch::ZERO, group.clone(), group[0]);
                (*shard, config)
            })
            .collect();
        let cs = world.add_actor(ConfigServiceActor::new(
            initial.iter().map(|(s, c)| (*s, c.clone())),
        ));
        let client = world.add_actor(ClientActor::<Msg>::new(spec.truncation.compaction));
        for (pid, member) in replicas_in_order(&members, &spares) {
            let replica = world.actor_mut::<Replica>(pid).expect("replica");
            replica.install_initial_config(pid, cs, &initial, member);
            replica.set_truncation(spec.truncation);
            replica.set_batching(spec.batching);
            replica.set_flow(spec.flow);
        }
        Deployment {
            stack: CoreStack {
                cs,
                target_size: spec.failures + 1,
            },
            client,
            roster: members,
            spares,
        }
    }

    fn kind(&self) -> StackKind {
        StackKind::Core
    }

    fn config_service(&self) -> Option<ProcessId> {
        Some(self.cs)
    }

    fn coordinator_group(&self) -> &[ProcessId] {
        &[]
    }

    fn retry(tx: TxId) -> Option<Msg> {
        Some(Msg::Retry { tx })
    }

    fn reconfigure(
        cluster: &SimCluster<Self>,
        shard: ShardId,
        exclude: Vec<ProcessId>,
    ) -> Option<Msg> {
        Some(Msg::StartReconfigure {
            shard,
            spares: cluster.spares(shard).to_vec(),
            target_size: cluster.stack.target_size,
            exclude,
        })
    }

    fn resubmit_target(cluster: &SimCluster<Self>, first: Option<ShardId>) -> Option<ProcessId> {
        let leader = cluster.current_config(first?).expect("shard exists").leader;
        (!cluster.world.is_crashed(leader)).then_some(leader)
    }

    fn members_of(cluster: &SimCluster<Self>, shard: ShardId) -> Vec<ProcessId> {
        cluster
            .current_config(shard)
            .map(|c| c.members.clone())
            .unwrap_or_default()
    }

    fn leader_of(cluster: &SimCluster<Self>, shard: ShardId) -> Option<ProcessId> {
        cluster.current_config(shard).map(|c| c.leader)
    }

    fn epoch_of(cluster: &SimCluster<Self>, shard: ShardId) -> Epoch {
        cluster
            .current_config(shard)
            .map_or(Epoch::ZERO, |c| c.epoch)
    }

    fn replica_ready(cluster: &SimCluster<Self>, pid: ProcessId) -> bool {
        cluster
            .world
            .actor::<Replica>(pid)
            .is_some_and(|r| r.is_initialized() && !r.reconfiguration_in_flight())
    }

    fn shard_operational(cluster: &SimCluster<Self>, shard: ShardId) -> bool {
        let Some(config) = cluster.current_config(shard) else {
            return false;
        };
        config.members.iter().all(|m| {
            let expected = if *m == config.leader {
                Status::Leader
            } else {
                Status::Follower
            };
            !cluster.world.is_crashed(*m)
                && cluster.world.actor::<Replica>(*m).is_some_and(|r| {
                    r.is_initialized()
                        && r.epoch_of(shard) == config.epoch
                        && r.status() == expected
                })
        })
    }

    fn prepared_transactions(cluster: &SimCluster<Self>, shard: ShardId) -> Vec<TxId> {
        cluster
            .leader_of(shard)
            .map_or_else(Vec::new, |leader| prepared(cluster.replica(leader).log()))
    }

    fn retained_log_slots(cluster: &SimCluster<Self>, pid: ProcessId) -> Option<usize> {
        cluster.world.actor::<Replica>(pid).map(|r| r.log().len())
    }

    fn logical_log_len(cluster: &SimCluster<Self>, pid: ProcessId) -> Option<u64> {
        cluster
            .world
            .actor::<Replica>(pid)
            .map(|r| r.log().next().as_u64())
    }
}

impl SimCluster<CoreStack> {
    /// Downcast access to a replica's state.
    pub fn replica(&self, pid: ProcessId) -> &Replica {
        self.world.actor::<Replica>(pid).expect("replica")
    }

    /// The current configuration of `shard` at the configuration service,
    /// if the shard has members.
    pub fn current_config(&self, shard: ShardId) -> Option<&ShardConfiguration> {
        self.world
            .actor::<ConfigServiceActor>(self.stack.cs)
            .expect("configuration service")
            .registry()
            .get_last(shard)
            .filter(|c| !c.members.is_empty())
    }

    /// Checks the paper's Figure 3 invariants over the live replicas
    /// (initial members and spares) of every shard, returning every
    /// violation found (empty = all invariants hold).
    pub fn check_invariants(&self) -> Vec<InvariantViolation> {
        let mut violations = Vec::new();
        for shard in self.shards() {
            let replicas: Vec<(ProcessId, &Replica)> = self
                .roster(shard)
                .iter()
                .chain(self.spares(shard))
                .filter(|pid| !self.world.is_crashed(**pid))
                .map(|pid| (*pid, self.replica(*pid)))
                .collect();
            violations.extend(check_shard(shard, &replicas));
        }
        violations
    }
}

// ---------------------------------------------------------------------------
// ratc-rdma (§5 RDMA, correct global or naive per-shard reconfiguration)
// ---------------------------------------------------------------------------

/// The RDMA-based RATC protocol (`ratc-rdma`, §5): `f + 1` replicas and
/// spares per shard with all-pairs RDMA connections among the initial
/// members, and a global configuration service. Deploys the naive per-shard
/// reconfiguration for [`StackKind::RdmaNaive`] and the correct global one
/// otherwise.
#[derive(Debug)]
pub struct RdmaStack {
    cs: ProcessId,
    mode: ReconfigMode,
    target_size: usize,
}

impl Stack for RdmaStack {
    type Msg = RdmaMsg;
    const SUPPORTS_RECONFIGURATION: bool = true;
    // Both modes share the §5 entry point: one `StartReconfigure` carries
    // the spare pools of every shard and excludes crashed members
    // system-wide. What differs is the *activation*: the naive mode then
    // (incorrectly) installs configurations per shard — the Figure 4a bug
    // under study — while the correct mode probes the whole system.
    const RECONFIGURATION_IS_GLOBAL: bool = true;

    fn deploy(
        spec: &ClusterSpec,
        sharding: &Arc<HashSharding>,
        world: &mut World<RdmaMsg>,
    ) -> Deployment<Self> {
        let mode = if spec.stack == StackKind::RdmaNaive {
            ReconfigMode::NaivePerShard
        } else {
            ReconfigMode::GlobalCorrect
        };
        let (members, spares) = add_replicas(spec, world, |shard| {
            let sharding = sharding.clone() as Arc<dyn ShardMap + Send + Sync>;
            RdmaReplica::new(shard, spec.policy.as_ref(), sharding, mode)
        });
        let leaders = members.iter().map(|(s, group)| (*s, group[0])).collect();
        let initial = GlobalConfiguration::new(Epoch::ZERO, members.clone(), leaders);
        let notify = mode == ReconfigMode::NaivePerShard;
        let cs = world.add_actor(GlobalConfigServiceActor::new(initial.clone(), notify));
        let client = world.add_actor(ClientActor::<RdmaMsg>::new(spec.truncation.compaction));
        for (pid, member) in replicas_in_order(&members, &spares) {
            let replica = world.actor_mut::<RdmaReplica>(pid).expect("replica");
            replica.install_initial_config(pid, cs, &initial, member);
            replica.set_truncation(spec.truncation);
            replica.set_batching(spec.batching);
            replica.set_flow(spec.flow);
        }
        // All-pairs RDMA connections among the initial members.
        let all_members = initial.all_processes();
        for owner in &all_members {
            for peer in &all_members {
                if owner != peer {
                    world.rdma_open(*owner, *peer);
                }
            }
        }
        Deployment {
            stack: RdmaStack {
                cs,
                mode,
                target_size: spec.failures + 1,
            },
            client,
            roster: members,
            spares,
        }
    }

    fn kind(&self) -> StackKind {
        match self.mode {
            ReconfigMode::GlobalCorrect => StackKind::Rdma,
            ReconfigMode::NaivePerShard => StackKind::RdmaNaive,
        }
    }

    fn config_service(&self) -> Option<ProcessId> {
        Some(self.cs)
    }

    fn coordinator_group(&self) -> &[ProcessId] {
        &[]
    }

    fn retry(tx: TxId) -> Option<RdmaMsg> {
        Some(RdmaMsg::Retry { tx })
    }

    fn reconfigure(
        cluster: &SimCluster<Self>,
        shard: ShardId,
        exclude: Vec<ProcessId>,
    ) -> Option<RdmaMsg> {
        Some(RdmaMsg::StartReconfigure {
            suspected_shard: shard,
            spares: cluster.spares.clone(),
            target_size: cluster.stack.target_size,
            exclude,
        })
    }

    fn resubmit_target(cluster: &SimCluster<Self>, first: Option<ShardId>) -> Option<ProcessId> {
        let leader = cluster.current_config().leader_of(first?)?;
        (!cluster.world.is_crashed(leader)).then_some(leader)
    }

    fn members_of(cluster: &SimCluster<Self>, shard: ShardId) -> Vec<ProcessId> {
        cluster.current_config().members_of(shard).to_vec()
    }

    fn leader_of(cluster: &SimCluster<Self>, shard: ShardId) -> Option<ProcessId> {
        cluster.current_config().leader_of(shard)
    }

    fn epoch_of(cluster: &SimCluster<Self>, _shard: ShardId) -> Epoch {
        // The §5 protocol maintains one global epoch for the whole system.
        cluster.current_config().epoch
    }

    fn replica_ready(cluster: &SimCluster<Self>, pid: ProcessId) -> bool {
        cluster
            .world
            .actor::<RdmaReplica>(pid)
            .is_some_and(|r| r.is_initialized() && !r.reconfiguration_in_flight())
    }

    fn shard_operational(cluster: &SimCluster<Self>, shard: ShardId) -> bool {
        let config = cluster.current_config();
        let members = config.members_of(shard);
        let leader = config.leader_of(shard);
        !members.is_empty()
            && members.iter().all(|m| {
                let expected = if Some(*m) == leader {
                    RdmaStatus::Leader
                } else {
                    RdmaStatus::Follower
                };
                !cluster.world.is_crashed(*m)
                    && cluster.world.actor::<RdmaReplica>(*m).is_some_and(|r| {
                        r.is_initialized() && r.epoch() == config.epoch && r.status() == expected
                    })
            })
    }

    fn prepared_transactions(cluster: &SimCluster<Self>, shard: ShardId) -> Vec<TxId> {
        cluster
            .leader_of(shard)
            .map_or_else(Vec::new, |leader| prepared(cluster.replica(leader).log()))
    }

    fn retained_log_slots(cluster: &SimCluster<Self>, pid: ProcessId) -> Option<usize> {
        cluster
            .world
            .actor::<RdmaReplica>(pid)
            .map(|r| r.log().len())
    }

    fn logical_log_len(cluster: &SimCluster<Self>, pid: ProcessId) -> Option<u64> {
        cluster
            .world
            .actor::<RdmaReplica>(pid)
            .map(|r| r.log().next().as_u64())
    }
}

impl SimCluster<RdmaStack> {
    /// Downcast access to a replica's state.
    pub fn replica(&self, pid: ProcessId) -> &RdmaReplica {
        self.world.actor::<RdmaReplica>(pid).expect("replica")
    }

    /// The current configuration stored by the configuration service.
    pub fn current_config(&self) -> &GlobalConfiguration {
        self.world
            .actor::<GlobalConfigServiceActor>(self.stack.cs)
            .expect("configuration service")
            .registry()
            .get_last()
    }
}

// ---------------------------------------------------------------------------
// ratc-baseline (2PC over Multi-Paxos)
// ---------------------------------------------------------------------------

/// The 2PC-over-Paxos baseline (`ratc-baseline`): `2f + 1` replicas per
/// shard and a `2f + 1`-member transaction-manager group. Failures are
/// masked by Paxos quorums; crashed processes recover only by restarting.
#[derive(Debug)]
pub struct BaselineStack {
    tm_group: Vec<ProcessId>,
    shard_leaders: BTreeMap<ShardId, ProcessId>,
}

impl Stack for BaselineStack {
    type Msg = BaselineMsg;
    const SUPPORTS_RECONFIGURATION: bool = false;
    const RECONFIGURATION_IS_GLOBAL: bool = false;

    fn deploy(
        spec: &ClusterSpec,
        sharding: &Arc<HashSharding>,
        world: &mut World<BaselineMsg>,
    ) -> Deployment<Self> {
        let replicas = 2 * spec.failures + 1;
        let mut shard_groups = Groups::new();
        for shard in (0..spec.shards).map(ShardId::new) {
            let group = (0..replicas)
                .map(|_| world.add_actor(BaselineShardReplica::new(shard, spec.policy.as_ref())))
                .collect();
            shard_groups.insert(shard, group);
        }
        let shard_leaders: BTreeMap<ShardId, ProcessId> = shard_groups
            .iter()
            .map(|(shard, group)| (*shard, group[0]))
            .collect();
        let tm_group: Vec<ProcessId> = (0..replicas)
            .map(|_| {
                let sharding = sharding.clone() as Arc<dyn ShardMap + Send + Sync>;
                world.add_actor(TransactionManager::new(sharding))
            })
            .collect();
        let tm_leader = tm_group[0];
        let client = world.add_actor(ClientActor::<BaselineMsg>::new(spec.truncation.compaction));
        for (shard, group) in &shard_groups {
            for pid in group {
                let replica = world
                    .actor_mut::<BaselineShardReplica>(*pid)
                    .expect("replica");
                replica.install(*pid, group.clone(), *pid == shard_leaders[shard], tm_leader);
                replica.set_batching(spec.batching);
                replica.set_flow(spec.flow);
            }
        }
        for pid in &tm_group {
            let tm = world
                .actor_mut::<TransactionManager>(*pid)
                .expect("tm member");
            tm.install(*pid, tm_group.clone(), tm_leader, shard_leaders.clone());
            tm.set_flow(spec.flow);
        }
        Deployment {
            stack: BaselineStack {
                tm_group,
                shard_leaders,
            },
            client,
            roster: shard_groups,
            spares: Groups::new(),
        }
    }

    fn kind(&self) -> StackKind {
        StackKind::Baseline
    }

    fn config_service(&self) -> Option<ProcessId> {
        None
    }

    /// The whole transaction-manager group coordinates: the leader
    /// directly, every other member by forwarding `CERTIFY` to it.
    fn coordinator_group(&self) -> &[ProcessId] {
        &self.tm_group
    }

    fn retry(_tx: TxId) -> Option<BaselineMsg> {
        // The transaction manager re-drives in-flight 2PC through its own
        // retry timer; there is no per-replica recovery coordinator.
        None
    }

    fn reconfigure(
        _cluster: &SimCluster<Self>,
        _shard: ShardId,
        _exclude: Vec<ProcessId>,
    ) -> Option<BaselineMsg> {
        // No reconfiguration machinery: `2f + 1` Paxos quorums mask
        // failures, and crashed processes recover only by restarting.
        None
    }

    fn resubmit_target(cluster: &SimCluster<Self>, _first: Option<ShardId>) -> Option<ProcessId> {
        Some(cluster.stack.tm_group[0])
    }

    fn members_of(cluster: &SimCluster<Self>, shard: ShardId) -> Vec<ProcessId> {
        cluster.roster(shard).to_vec()
    }

    fn leader_of(cluster: &SimCluster<Self>, shard: ShardId) -> Option<ProcessId> {
        cluster.stack.shard_leaders.get(&shard).copied()
    }

    fn epoch_of(_cluster: &SimCluster<Self>, _shard: ShardId) -> Epoch {
        // Static membership: configurations never change.
        Epoch::ZERO
    }

    fn replica_ready(cluster: &SimCluster<Self>, pid: ProcessId) -> bool {
        !cluster.world.is_crashed(pid)
    }

    fn shard_operational(_cluster: &SimCluster<Self>, _shard: ShardId) -> bool {
        // Minority failures are masked by the Paxos quorum; anything worse
        // is repaired by restarting, not by reconfiguration.
        true
    }

    fn prepared_transactions(_cluster: &SimCluster<Self>, _shard: ShardId) -> Vec<TxId> {
        // Votes are decided by the transaction manager.
        Vec::new()
    }

    fn retained_log_slots(cluster: &SimCluster<Self>, pid: ProcessId) -> Option<usize> {
        cluster
            .world
            .actor::<BaselineShardReplica>(pid)
            .map(BaselineShardReplica::retained_payloads)
    }

    fn logical_log_len(cluster: &SimCluster<Self>, pid: ProcessId) -> Option<u64> {
        cluster
            .world
            .actor::<BaselineShardReplica>(pid)
            .map(|r| r.chosen_slots() as u64)
    }
}

impl SimCluster<BaselineStack> {
    /// Downcast access to a shard replica's state.
    pub fn shard_replica(&self, pid: ProcessId) -> &BaselineShardReplica {
        self.world
            .actor::<BaselineShardReplica>(pid)
            .expect("shard replica")
    }
}
