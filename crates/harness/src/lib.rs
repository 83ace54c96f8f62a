//! Stack-agnostic cluster facade for the RATC workspace.
//!
//! The paper's central claim is that one Transaction Certification Service
//! abstraction admits several interchangeable implementations: the
//! message-passing protocol of §3 (`ratc-core`), the RDMA-based protocol of
//! §5 (`ratc-rdma`), and the vanilla 2PC-over-Paxos baseline of §1
//! (`ratc-baseline`, the design lineage of Gray & Lamport's *Consensus on
//! Transaction Commit*). This crate makes that interchangeability a
//! first-class API, written once for every stack:
//!
//! * [`TcsCluster`] — the one trait every deployed cluster implements:
//!   submission (`submit` / `submit_via` / `resubmit` / `retry`), fault
//!   injection (`crash` / `restart`, link faults, partitions),
//!   reconfiguration, simulated-time control, and uniform observation
//!   (history, latencies, membership/leader/epoch introspection, violation
//!   queries);
//! * [`SimCluster`] — the one cluster shell implementing it: it owns the
//!   simulation world, the history-recording [`ClientActor`], the sharding,
//!   the engine choice and the round-robin choice of coordinator;
//! * [`Stack`] — what really differs between the protocols, one small impl
//!   each ([`CoreStack`], [`RdmaStack`], [`BaselineStack`]): deployment, the
//!   messages that re-drive work, membership and protocol-state probes, and
//!   the capability flags;
//! * [`StackKind`] — the stack selector naming which paper protocol a
//!   cluster realises;
//! * [`ClusterSpec`] — the one builder (shards, failures tolerated, spares,
//!   certification policy, truncation, batching, flow control, simulation
//!   seed, engine) for every stack.
//!
//! [`ClusterSpec::build`] returns a `Box<dyn TcsCluster>` for stack-generic
//! code. Consumers that need one concrete stack (white-box invariant
//! checkers, log-differential suites, scripted schedules) build the typed
//! shell instead, e.g. `spec.build_typed::<CoreStack>()`, and reach the
//! world and the replicas through it.
//!
//! # Quick start
//!
//! ```
//! use ratc_harness::{ClusterSpec, StackKind};
//! use ratc_types::prelude::*;
//!
//! for stack in [StackKind::Core, StackKind::Rdma, StackKind::Baseline] {
//!     let mut cluster = ClusterSpec::new(stack).with_seed(7).build();
//!     let payload = Payload::builder()
//!         .read(Key::new("x"), Version::new(0))
//!         .write(Key::new("x"), Value::from("1"))
//!         .commit_version(Version::new(1))
//!         .build()?;
//!     cluster.submit(TxId::new(1), payload);
//!     cluster.run_to_quiescence();
//!     assert_eq!(cluster.history().decision(TxId::new(1)), Some(Decision::Commit));
//! }
//! # Ok::<(), PayloadError>(())
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod client;
pub mod cluster;
pub mod spec;
pub mod stack;

pub use client::{ClientActor, ClientMsg, DecisionLatency};
pub use cluster::{SimCluster, StackKind, TcsCluster};
pub use ratc_sim::{ExecutionMode, MetricsView};
pub use spec::ClusterSpec;
pub use stack::{BaselineStack, CoreStack, Deployment, RdmaStack, Stack};
