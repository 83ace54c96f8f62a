//! Chaos nemesis for the RATC stacks: randomized fault injection,
//! crash-restart recovery and automatic schedule shrinking.
//!
//! The paper's central claim is that reconfiguration lets the commit protocol
//! ride out failures that block classic 2PC. This crate validates that claim
//! *adversarially*, against all three TCS implementations in the workspace
//! (`ratc-core`, `ratc-rdma`, `ratc-baseline`):
//!
//! * [`plan`] — deterministic, serializable, human-readable fault schedules:
//!   crashes and restarts of leaders/followers/coordinators, asymmetric link
//!   cuts, slow RDMA fabrics, leader partitions, mid-flight per-shard and
//!   global reconfigurations, environment-driven retries, plus fabric-wide
//!   drop/duplicate/delay noise;
//! * [`nemesis`] — the seed-driven plan generator (same seed, same plan);
//! * [`harness`] — one stack-agnostic adapter over the unified
//!   [`TcsCluster`](ratc_harness::TcsCluster) facade, resolving role-based
//!   fault targets and driving recovery on any stack;
//! * [`driver`] — the soak loop: paced `ratc-workload` traffic under a fault
//!   plan, then heal → restart → stabilise → re-submit, judged by the
//!   `ratc-spec::chaos` safety and liveness checkers;
//! * [`shrink`] — greedy minimization of a failing plan to a small
//!   counterexample schedule;
//! * [`hunt`] — unscripted rediscovery of the Figure 4a violation class
//!   under naive per-shard reconfiguration, shrunk to a minimal schedule;
//! * [`experiment`] — E9: commit throughput and recovery time vs. fault
//!   intensity; E12: the per-shard availability-window (blackout)
//!   time-to-recover matrix, derived from the control-plane event stream.
//!
//! Every run is deterministic given `(stack, seed, plan)`: the same seed
//! reproduces the same trace, the same violations and the same shrunk
//! schedule.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod driver;
pub mod experiment;
pub mod harness;
pub mod hunt;
pub mod nemesis;
pub mod plan;
pub mod shrink;

pub use driver::{run_soak, SoakConfig, SoakReport};
pub use experiment::{
    availability_experiment, blackout_experiment, AvailabilityResult, BlackoutResult,
    BlackoutScenario,
};
pub use harness::{build_harness, ChaosHarness};
pub use hunt::{find_naive_violation, reproduces_violation, HuntResult};
pub use nemesis::{Nemesis, NemesisConfig, Profile};
pub use plan::{FaultEvent, FaultPlan, LinkNoise, TimedFault};
pub use shrink::shrink_plan;
