//! Batched certification pipeline: amortised PREPARE/ACCEPT rounds.
//!
//! The paper's protocol certifies one payload per PREPARE/ACCEPT exchange, so
//! the message count at the shard leader — the metric the E2/E4 experiments
//! measure — scales linearly with the transaction rate. This module provides
//! the batching subsystem that amortises those rounds across many
//! transactions, in the style of Chockler & Gotsman's multi-shot commit
//! (certification decisions pipelined across contiguous slots):
//!
//! * [`BatchingConfig`] — the size/delay knobs, applied to every stack by
//!   `ratc-harness`'s `ClusterSpec`;
//! * [`VoteBatcher`] — the coalescing buffer. A replica acting as transaction
//!   coordinator pushes each `certify` request into it instead of sending a
//!   `PREPARE` immediately; when the batch fills (or the delay expires) the
//!   drained batch becomes one [`PrepareBatch`] per involved shard leader.
//!   The leader certifies the whole batch in one pass, *assigning a
//!   contiguous position range* to the fresh entries, and answers with a
//!   single `PREPARE_ACK_BATCH`; the coordinator persists the batch at each
//!   follower with a single `ACCEPT_BATCH` (one RDMA write per follower in
//!   the RDMA stack), and distributes a single `DECISION_BATCH` per shard
//!   once the batch completes. The baseline stack reuses the same batcher to
//!   coalesce certified votes into one Multi-Paxos command per batch
//!   (batched log appends).
//!
//! Per-transaction semantics are untouched: every batch item carries its own
//! transaction, payload, vote, position and decision, so recovery
//! coordinators, the `TxDecided` fast path, frontier gossip and checkpointed
//! truncation all keep operating on individual transactions. A batch is pure
//! transport-level coalescing — the certification order it produces is
//! exactly the order the items were submitted in, which is what the
//! `ratc-spec::batching` differential suite checks end to end.

/// Re-exported so `BatchingConfig::with_delay` is usable without a direct
/// `ratc-sim` dependency.
pub use ratc_sim::SimDuration;
use ratc_types::{Decision, Payload, Position, ProcessId, ShardId, TxId};
use serde::{Deserialize, Serialize};

/// Knobs of the batching pipeline (surfaced on every stack by `ClusterSpec`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchingConfig {
    /// Whether the pipeline batches at all. Disabled, every transaction goes
    /// through the paper's one-PREPARE-per-payload exchange unchanged.
    pub enabled: bool,
    /// Maximum transactions coalesced into one batch; reaching it flushes
    /// immediately.
    pub max_batch: usize,
    /// How long a partially filled batch may wait for more transactions
    /// before it is flushed by the batch timer.
    pub max_delay: SimDuration,
    /// Adaptive sizing (the flow-control layer's group-commit mode): the
    /// batcher keeps a *current target* that starts at 1, doubles each time a
    /// batch fills to target (queue pressure — the pipeline is producing
    /// faster than it drains) up to `max_batch`, and halves each time the
    /// flush timer fires on a partial batch (idle — waiting longer only adds
    /// latency). Idle clusters therefore run the unbatched fast path with no
    /// flush-timer tax, while sustained load converges to `max_batch`
    /// amortisation. Self-clocking: no rate measurement, no extra timers.
    pub adaptive: bool,
}

impl Default for BatchingConfig {
    /// Batching is off by default: the unbatched exchange is the paper's
    /// protocol, and the latency-sensitive tests (5 message delays to a
    /// decision) measure it. Experiments opt in per run.
    fn default() -> Self {
        BatchingConfig::disabled()
    }
}

impl BatchingConfig {
    /// Batching switched off (the seed behaviour).
    pub fn disabled() -> Self {
        BatchingConfig {
            enabled: false,
            max_batch: 1,
            max_delay: SimDuration::from_micros(0),
            adaptive: false,
        }
    }

    /// Batching with the given maximum batch size and a 1 ms flush delay.
    /// A `max_batch` of 1 (or 0) degenerates to the unbatched exchange.
    pub fn with_batch(max_batch: usize) -> Self {
        if max_batch <= 1 {
            return BatchingConfig::disabled();
        }
        BatchingConfig {
            enabled: true,
            max_batch,
            max_delay: SimDuration::from_millis(1),
            adaptive: false,
        }
    }

    /// Adaptive batching up to `max_batch` (see [`BatchingConfig::adaptive`]):
    /// grows under queue pressure, shrinks toward the unbatched fast path
    /// when idle. A `max_batch` of 1 (or 0) degenerates to the unbatched
    /// exchange.
    pub fn adaptive(max_batch: usize) -> Self {
        if max_batch <= 1 {
            return BatchingConfig::disabled();
        }
        BatchingConfig {
            enabled: true,
            max_batch,
            max_delay: SimDuration::from_millis(1),
            adaptive: true,
        }
    }

    /// Returns a copy with the given flush delay.
    pub fn with_delay(mut self, max_delay: SimDuration) -> Self {
        self.max_delay = max_delay;
        self
    }
}

/// The coalescing buffer of the batching pipeline.
///
/// Generic in the item type: the RATC stacks buffer transaction identifiers
/// (the payloads live in the coordinator state), the baseline buffers whole
/// certified votes destined for one Multi-Paxos command.
#[derive(Debug, Clone)]
pub struct VoteBatcher<T> {
    config: BatchingConfig,
    pending: Vec<T>,
    /// Current flush threshold: `max_batch` for fixed configs, the adaptive
    /// target (1..=`max_batch`) for adaptive ones.
    target: usize,
}

impl<T> VoteBatcher<T> {
    /// Creates an empty batcher with the given knobs.
    pub fn new(config: BatchingConfig) -> Self {
        VoteBatcher {
            target: Self::initial_target(config),
            config,
            pending: Vec::new(),
        }
    }

    fn initial_target(config: BatchingConfig) -> usize {
        if config.adaptive {
            1
        } else {
            config.max_batch.max(1)
        }
    }

    /// The batcher's knobs.
    pub fn config(&self) -> BatchingConfig {
        self.config
    }

    /// Replaces the batcher's knobs (pending items are kept; the adaptive
    /// target restarts from its initial value).
    pub fn set_config(&mut self, config: BatchingConfig) {
        self.config = config;
        self.target = Self::initial_target(config);
    }

    /// The current flush threshold (the adaptive target, or `max_batch` for
    /// fixed configs).
    pub fn target(&self) -> usize {
        self.target
    }

    /// Adds an item to the pending batch. Returns `true` if the batch is now
    /// full (reached the current target) and must be flushed.
    pub fn push(&mut self, item: T) -> bool {
        self.pending.push(item);
        self.pending.len() >= self.target
    }

    /// Drains and returns the pending batch (in push order).
    pub fn drain(&mut self) -> Vec<T> {
        std::mem::take(&mut self.pending)
    }

    /// Drains a batch that filled to target: under an adaptive config this is
    /// the queue-pressure signal, so the target doubles (up to `max_batch`).
    pub fn drain_full(&mut self) -> Vec<T> {
        if self.config.adaptive {
            self.target = (self.target * 2).min(self.config.max_batch.max(1));
        }
        self.drain()
    }

    /// Drains a batch flushed by the timer while still partial: under an
    /// adaptive config this is the idle signal, so the target halves (down
    /// to 1, the unbatched fast path — at target 1 every push flushes
    /// immediately and the flush timer never arms, so an idle cluster pays
    /// no batching latency at all).
    pub fn drain_idle(&mut self) -> Vec<T> {
        if self.config.adaptive {
            self.target = (self.target / 2).max(1);
        }
        self.drain()
    }

    /// Number of pending items.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether no items are pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

/// One transaction of a `PREPARE_BATCH`: the fields of an individual
/// `PREPARE`, so the leader can serve each item exactly as it would a
/// single-transaction prepare (including the `TxDecided` fast path for
/// truncated transactions and re-acks for already-certified ones).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrepareItem {
    /// Transaction identifier.
    pub tx: TxId,
    /// Shard-restricted payload, or `None` for the `⊥` payload.
    pub payload: Option<Payload>,
    /// `shards(t)`.
    pub shards: Vec<ShardId>,
    /// `client(t)`.
    pub client: ProcessId,
}

/// A coalesced prepare request: the [`VoteBatcher`]'s output for one shard
/// leader. The leader certifies the items in order and assigns fresh entries
/// a contiguous position range.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrepareBatch {
    /// The batched transactions, in submission order.
    pub items: Vec<PrepareItem>,
}

/// One prepared slot of a `PREPARE_ACK_BATCH` / `ACCEPT_BATCH`: position,
/// transaction, stored payload and vote — everything a follower needs to
/// persist the slot and a recovery coordinator needs to take the transaction
/// over. Per-slot votes remain individually recoverable from a batch (in the
/// RDMA stack: from the memory region a batch write landed in).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PreparedItem {
    /// Position assigned in the certification order.
    pub pos: Position,
    /// Transaction identifier.
    pub tx: TxId,
    /// The payload stored by the leader (shard-restricted, possibly `ε`).
    pub payload: Payload,
    /// The leader's vote.
    pub vote: Decision,
    /// `shards(t)`.
    pub shards: Vec<ShardId>,
    /// `client(t)`.
    pub client: ProcessId,
}

/// One acknowledged slot of an `ACCEPT_ACK_BATCH`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AcceptAckItem {
    /// Position acknowledged.
    pub pos: Position,
    /// Transaction identifier.
    pub tx: TxId,
    /// The vote acknowledged.
    pub vote: Decision,
}

/// One decided slot of a `DECISION_BATCH`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DecisionItem {
    /// Position in the certification order.
    pub pos: Position,
    /// The final decision.
    pub decision: Decision,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_config_degenerates_to_single_item_batches() {
        let config = BatchingConfig::disabled();
        assert!(!config.enabled);
        let mut batcher: VoteBatcher<u64> = VoteBatcher::new(config);
        assert!(batcher.is_empty());
        assert!(batcher.push(1), "a disabled batcher flushes on every push");
        assert_eq!(batcher.drain(), vec![1]);
        assert!(batcher.is_empty());
    }

    #[test]
    fn with_batch_flushes_at_capacity() {
        let mut batcher: VoteBatcher<u64> = VoteBatcher::new(BatchingConfig::with_batch(3));
        assert!(!batcher.push(1));
        assert!(!batcher.push(2));
        assert_eq!(batcher.len(), 2);
        assert!(batcher.push(3), "third push reaches max_batch");
        assert_eq!(batcher.drain(), vec![1, 2, 3]);
    }

    #[test]
    fn adaptive_target_grows_on_pressure_and_shrinks_when_idle() {
        let mut batcher: VoteBatcher<u64> = VoteBatcher::new(BatchingConfig::adaptive(8));
        // Idle start: target 1, every push flushes immediately (fast path).
        assert_eq!(batcher.target(), 1);
        assert!(batcher.push(1));
        assert_eq!(batcher.drain_full(), vec![1]);
        // Pressure: each full flush doubles the target up to max_batch.
        assert_eq!(batcher.target(), 2);
        assert!(!batcher.push(2));
        assert!(batcher.push(3));
        assert_eq!(batcher.drain_full(), vec![2, 3]);
        assert_eq!(batcher.target(), 4);
        for i in 4..8 {
            batcher.push(i);
        }
        batcher.drain_full();
        assert_eq!(batcher.target(), 8);
        batcher.push(100);
        let _ = batcher.drain_full();
        assert_eq!(batcher.target(), 8, "capped at max_batch");
        // Idle: timer flushes on partial batches halve the target back to 1.
        batcher.push(101);
        assert_eq!(batcher.drain_idle(), vec![101]);
        assert_eq!(batcher.target(), 4);
        batcher.drain_idle();
        batcher.drain_idle();
        batcher.drain_idle();
        assert_eq!(batcher.target(), 1, "floors at the unbatched fast path");
    }

    #[test]
    fn fixed_configs_ignore_adaptive_signals() {
        let mut batcher: VoteBatcher<u64> = VoteBatcher::new(BatchingConfig::with_batch(4));
        assert_eq!(batcher.target(), 4);
        batcher.push(1);
        batcher.drain_idle();
        batcher.drain_full();
        assert_eq!(batcher.target(), 4);
        assert!(!BatchingConfig::adaptive(1).enabled);
        assert!(BatchingConfig::adaptive(16).adaptive);
    }

    #[test]
    fn tiny_batch_sizes_disable_batching() {
        assert!(!BatchingConfig::with_batch(0).enabled);
        assert!(!BatchingConfig::with_batch(1).enabled);
        let config = BatchingConfig::with_batch(16);
        assert!(config.enabled);
        assert_eq!(config.max_batch, 16);
        let delayed = config.with_delay(SimDuration::from_micros(250));
        assert_eq!(delayed.max_delay, SimDuration::from_micros(250));
    }
}
