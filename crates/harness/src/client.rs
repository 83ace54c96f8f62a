//! The client actor every stack shares: it records the TCS history and the
//! client-visible latency of each decision.
//!
//! Clients are outside the protocols proper. The shell records the
//! `certify(t, l)` action and injects the stack's `CERTIFY` request into a
//! coordinator; the client actor then receives `DECISION(t, d)` messages.
//! It records a [`TcsHistory`] (the object the checkers in `ratc-spec`
//! operate over) and, for every decision, the number of message delays and
//! the time since submission. The three stacks differ only in their message
//! vocabulary, which [`ClientMsg`] abstracts.

use std::collections::BTreeMap;
use std::marker::PhantomData;

use ratc_baseline::BaselineMsg;
use ratc_core::Msg;
use ratc_rdma::RdmaMsg;
use ratc_sim::{Actor, Context, SimTime, TxMilestone};
use ratc_types::{Decision, Payload, ProcessId, TcsHistory, TxId};

/// Latency observed by the client for one decided transaction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionLatency {
    /// Message delays between submission and the decision arriving at the
    /// client (the unit of the paper's latency claims).
    pub hops: u32,
    /// Microseconds between submission and the decision, on the cluster's
    /// clock: *simulated* microseconds under
    /// [`ExecutionMode::Sim`](ratc_sim::ExecutionMode) (a function of the
    /// configured latency model, not of the host), *wall-clock* (monotonic
    /// [`std::time::Instant`]) microseconds under
    /// [`ExecutionMode::Threads`](ratc_sim::ExecutionMode). Same field, same
    /// unit — but only the threaded numbers measure real hardware.
    pub micros: u64,
    /// The decision itself.
    pub decision: Decision,
}

/// The client's view of a stack's message vocabulary.
pub trait ClientMsg: Sized {
    /// The `CERTIFY(t, l)` request a client hands to a coordinator.
    fn certify(tx: TxId, payload: Payload, client: ProcessId) -> Self;

    /// The transaction and decision of a `DECISION` addressed to the client,
    /// if `self` is one.
    fn client_decision(&self) -> Option<(TxId, Decision)>;

    /// The acknowledgement a client sends back for a received decision
    /// (decision-map compaction), on stacks that implement the exchange.
    fn decision_ack(tx: TxId) -> Option<Self>;
}

impl ClientMsg for Msg {
    fn certify(tx: TxId, payload: Payload, client: ProcessId) -> Self {
        Msg::Certify {
            tx,
            payload,
            client,
        }
    }

    fn client_decision(&self) -> Option<(TxId, Decision)> {
        if let Msg::DecisionClient { tx, decision } = self {
            Some((*tx, *decision))
        } else {
            None
        }
    }

    fn decision_ack(tx: TxId) -> Option<Self> {
        Some(Msg::DecisionAck { tx })
    }
}

impl ClientMsg for RdmaMsg {
    fn certify(tx: TxId, payload: Payload, client: ProcessId) -> Self {
        RdmaMsg::Certify {
            tx,
            payload,
            client,
        }
    }

    fn client_decision(&self) -> Option<(TxId, Decision)> {
        if let RdmaMsg::DecisionClient { tx, decision } = self {
            Some((*tx, *decision))
        } else {
            None
        }
    }

    fn decision_ack(_tx: TxId) -> Option<Self> {
        None
    }
}

impl ClientMsg for BaselineMsg {
    fn certify(tx: TxId, payload: Payload, client: ProcessId) -> Self {
        BaselineMsg::Certify {
            tx,
            payload,
            client,
        }
    }

    fn client_decision(&self) -> Option<(TxId, Decision)> {
        if let BaselineMsg::DecisionClient { tx, decision } = self {
            Some((*tx, *decision))
        } else {
            None
        }
    }

    fn decision_ack(_tx: TxId) -> Option<Self> {
        None
    }
}

/// A client process recording a TCS history and latency samples.
#[derive(Debug)]
pub struct ClientActor<M> {
    history: TcsHistory,
    submit_times: BTreeMap<TxId, SimTime>,
    latencies: BTreeMap<TxId, DecisionLatency>,
    violations: Vec<String>,
    /// Acknowledge received decisions back to their sender (decision-map
    /// compaction, leg 1) where the stack has an ack message. Off unless
    /// compaction is on: the ack is not part of the paper's message
    /// vocabulary and must not perturb default schedules.
    ack_decisions: bool,
    msg: PhantomData<fn() -> M>,
}

impl<M> ClientActor<M> {
    /// Creates a client with an empty history that acknowledges decisions
    /// if `ack_decisions` is set (see
    /// [`TruncationConfig::compaction`](ratc_core::replica::TruncationConfig)).
    pub fn new(ack_decisions: bool) -> Self {
        ClientActor {
            history: TcsHistory::default(),
            submit_times: BTreeMap::new(),
            latencies: BTreeMap::new(),
            violations: Vec::new(),
            ack_decisions,
            msg: PhantomData,
        }
    }

    /// Records the `certify(t, l)` action. Called at the moment the request
    /// is injected into its coordinator.
    pub fn record_certify(&mut self, tx: TxId, payload: Payload, now: SimTime) {
        if let Err(err) = self.history.record_certify(tx, payload) {
            self.violations.push(err.to_string());
        }
        self.submit_times.insert(tx, now);
    }

    /// The recorded history.
    pub fn history(&self) -> &TcsHistory {
        &self.history
    }

    /// Latency of each decided transaction.
    pub fn latencies(&self) -> &BTreeMap<TxId, DecisionLatency> {
        &self.latencies
    }

    /// Structural specification violations observed while recording
    /// (duplicate certifies, contradictory decisions). Always empty in a
    /// correct run.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }
}

impl<M: ClientMsg + 'static> Actor<M> for ClientActor<M> {
    fn on_message(&mut self, from: ProcessId, msg: M, ctx: &mut Context<'_, M>) {
        let Some((tx, decision)) = msg.client_decision() else {
            return;
        };
        if let Err(err) = self.history.record_decide(tx, decision) {
            self.violations.push(err.to_string());
            return;
        }
        if self.ack_decisions {
            // Compaction leg 1: tell the sender (original or recovery
            // coordinator — whoever delivered this copy) the decision
            // arrived. Idempotent at the receiver, so duplicates are fine.
            if let Some(ack) = M::decision_ack(tx) {
                ctx.send(from, ack);
            }
        }
        let micros = self
            .submit_times
            .get(&tx)
            .map(|t| ctx.now().since(*t).as_micros())
            .unwrap_or(0);
        // Record only the first decision's latency (duplicates from
        // concurrent recovery coordinators, or re-externalisations after a
        // restart, carry the same decision).
        if !self.latencies.contains_key(&tx) {
            ctx.obs_milestone(tx, TxMilestone::ClientLearned, 0);
        }
        self.latencies.entry(tx).or_insert(DecisionLatency {
            hops: ctx.hops(),
            micros,
            decision,
        });
        ctx.record_sample("client_decision_hops", f64::from(ctx.hops()));
        ctx.record_sample("client_decision_micros", micros as f64);
        match decision {
            Decision::Commit => ctx.add_counter("client_commits", 1),
            Decision::Abort => ctx.add_counter("client_aborts", 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ratc_sim::{SimConfig, World};
    use ratc_types::{Key, Version};

    fn payload(key: &str) -> Payload {
        Payload::builder()
            .read(Key::new(key), Version::new(0))
            .build()
            .expect("well-formed")
    }

    /// A world holding one client with `tx` certified and `decisions`
    /// delivered to it, run to quiescence.
    fn deliver(tx: TxId, decisions: &[Decision]) -> World<Msg> {
        let mut world: World<Msg> = World::new(SimConfig::default());
        let client = world.add_actor(ClientActor::<Msg>::new(false));
        let now = world.now();
        world
            .actor_mut::<ClientActor<Msg>>(client)
            .expect("client")
            .record_certify(tx, payload("x"), now);
        for decision in decisions {
            world.send_external(
                client,
                Msg::DecisionClient {
                    tx,
                    decision: *decision,
                },
            );
        }
        world.run();
        world
    }

    fn client(world: &World<Msg>) -> &ClientActor<Msg> {
        world
            .actor::<ClientActor<Msg>>(ProcessId::new(0))
            .expect("client")
    }

    #[test]
    fn records_history_and_latency() {
        let world = deliver(TxId::new(1), &[Decision::Commit]);
        let actor = client(&world);
        assert_eq!(actor.history().committed().count(), 1);
        assert_eq!(actor.history().aborted().count(), 0);
        assert!(actor.violations().is_empty());
        assert_eq!(
            actor.history().decision(TxId::new(1)),
            Some(Decision::Commit)
        );
        assert!(actor.latencies().contains_key(&TxId::new(1)));
        assert_eq!(world.metrics().counter("client_commits"), 1);
    }

    #[test]
    fn contradictory_decisions_are_reported_as_violations() {
        let world = deliver(TxId::new(1), &[Decision::Commit, Decision::Abort]);
        assert_eq!(client(&world).violations().len(), 1);
    }

    #[test]
    fn duplicate_identical_decisions_are_benign() {
        let world = deliver(TxId::new(2), &[Decision::Abort; 3]);
        let actor = client(&world);
        assert!(actor.violations().is_empty());
        assert_eq!(actor.history().aborted().count(), 1);
    }
}
