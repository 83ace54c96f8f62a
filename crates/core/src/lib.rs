//! The message-passing reconfigurable atomic transaction commit protocol
//! (Bravo & Gotsman, PODC 2019, §3, Figure 1).
//!
//! This crate is the paper's primary contribution: a Transaction Certification
//! Service that
//!
//! * replicates each shard over only `f + 1` replicas (instead of the `2f + 1`
//!   required by Paxos-based designs),
//! * weaves two-phase commit across shards together with Vertical-Paxos-style
//!   reconfiguration within each shard,
//! * delegates persisting votes at followers to transaction *coordinators*
//!   (any replica can coordinate any transaction), minimising the load on
//!   shard leaders,
//! * reaches a client-visible decision in 5 message delays (4 when the client
//!   is co-located with the coordinator), and
//! * recovers from replica failures by reconfiguring the affected shard
//!   through an external configuration service, probing previous
//!   configurations to find an initialised replica that becomes the new
//!   leader.
//!
//! The implementation follows the pseudocode of Figure 1 line by line; the
//! mapping is documented on each handler of [`replica::Replica`]. The protocol
//! runs on the deterministic simulation substrate of `ratc-sim` and is
//! parametric in the certification policy (`ratc-types::CertificationPolicy`).
//!
//! # Crate layout
//!
//! * [`messages`] — the protocol message vocabulary ([`Msg`]);
//! * [`batch`] — the batched certification pipeline: the `VoteBatcher`
//!   coalescing buffer, the size/delay knobs ([`BatchingConfig`]) and the
//!   per-slot item types carried by the `*_BATCH` message variants;
//! * [`log`] — the per-shard certification log (`txn`, `payload`, `vote`,
//!   `dec`, `phase` arrays of the paper);
//! * [`replica`] — the replica state machine: transaction processing,
//!   coordination and reconfiguration;
//! * [`config_service`] — the configuration-service actor (wrapping
//!   `ratc-config`'s registry) that also pushes `CONFIG_CHANGE` notifications;
//! * [`invariants`] — white-box checkers for the paper's key invariants
//!   (Figure 3), evaluated over live replica state.
//!
//! # Deployment
//!
//! This crate holds the protocol only. A full simulated deployment (shards,
//! replicas, spares, the configuration service and a history-recording
//! client) is built by `ratc-harness`, which runs every stack in one cluster
//! shell: `ClusterSpec::new(StackKind::Core).build()` behind the
//! stack-agnostic `TcsCluster` trait, or
//! `ClusterSpec::build_typed::<CoreStack>()` for white-box access to the
//! replicas and `check_invariants`.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod batch;
pub mod config_service;
pub mod flow;
pub mod invariants;
pub mod log;
pub mod messages;
pub mod replica;

pub use batch::{BatchingConfig, PrepareBatch, VoteBatcher};
pub use config_service::ConfigServiceActor;
pub use flow::{AdmissionQueue, FlowControlConfig};
pub use log::{CertificationLog, LogEntry, TxPhase};
pub use messages::Msg;
pub use replica::{Replica, Status};
