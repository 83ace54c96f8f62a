//! Hunting the Figure 4a violation class without a script.
//!
//! PR 0–3 replayed the paper's Figure 4a counterexample from a hand-written
//! schedule (`ratc-workload::counterexample`). The nemesis instead
//! *rediscovers* the violation class by random search: seed-driven
//! [`Profile::NaiveHunt`](crate::nemesis::Profile) plans against the RDMA
//! stack under [`ReconfigMode::NaivePerShard`](ratc_rdma::ReconfigMode),
//! until some seed's schedule
//! lines a slow stale coordinator up with a per-shard reconfiguration and an
//! environment retry — at which point the client observes contradictory
//! decisions. The found schedule is then shrunk to a minimal counterexample.
//!
//! Under `ReconfigMode::GlobalCorrect` the very same plans are harmless:
//! probing closes the RDMA connections, the stale write is rejected, and only
//! one decision is ever externalised (verified by a regression test).

use ratc_harness::StackKind;
use ratc_types::ShardId;

use crate::driver::{run_soak, SoakConfig, SoakReport};
use crate::harness::build_harness;
use crate::nemesis::{Nemesis, NemesisConfig, Profile};
use crate::plan::FaultPlan;
use crate::shrink::shrink_plan;

/// Outcome of a successful hunt.
#[derive(Debug, Clone)]
pub struct HuntResult {
    /// The seed whose schedule provoked the violation.
    pub seed: u64,
    /// The full generated plan.
    pub plan: FaultPlan,
    /// The plan shrunk to a minimal failing schedule.
    pub shrunk: FaultPlan,
    /// The report of the failing run (under the full plan).
    pub report: SoakReport,
}

/// Soak configuration used by the hunt: a fixed coordinator (the prospective
/// stale coordinator) submitting cross-shard transactions.
pub fn hunt_soak_config(seed: u64) -> SoakConfig {
    SoakConfig {
        seed,
        txs: 24,
        keys: 48,
        keys_per_tx: 2,
        interval_micros: 600,
        recovery_rounds: 12,
    }
}

fn hunt_nemesis_config(seed: u64) -> NemesisConfig {
    NemesisConfig {
        seed,
        shards: 2,
        members_per_shard: 2,
        window_micros: 15_000,
        events: 7,
        intensity: 0,
        profile: Profile::NaiveHunt,
    }
}

/// The fixed coordinator of a hunt soak: the plan's slow-fabric victim (the
/// prospective stale coordinator, like the paper's `p_c`), defaulting to a
/// follower of shard 0 for plans without a `DelayRdmaOutbound` event.
fn hunt_coordinator(plan: &FaultPlan) -> (ShardId, usize) {
    plan.events
        .iter()
        .find_map(|f| match f.event {
            crate::plan::FaultEvent::DelayRdmaOutbound { shard, index, .. } => Some((shard, index)),
            _ => None,
        })
        .unwrap_or((ShardId::new(0), 1))
}

/// Runs one hunt soak of `plan` against the given reconfiguration stack and
/// returns whether the client observed contradictory decisions.
pub fn reproduces_violation(stack: StackKind, seed: u64, plan: &FaultPlan) -> (bool, SoakReport) {
    let mut harness = build_harness(stack, 2, seed, Some(hunt_coordinator(plan)));
    let report = run_soak(&mut harness, &hunt_soak_config(seed), plan);
    let contradictory = report
        .safety_violations
        .iter()
        .any(|v| v.contains("contradictory"));
    (contradictory, report)
}

/// Searches seeds `0..max_seeds` for a naive-mode violation and shrinks the
/// first hit. Returns `None` if no seed provokes one.
pub fn find_naive_violation(max_seeds: u64) -> Option<HuntResult> {
    for seed in 0..max_seeds {
        let plan = Nemesis::generate(&hunt_nemesis_config(seed));
        let (found, report) = reproduces_violation(StackKind::RdmaNaive, seed, &plan);
        if !found {
            continue;
        }
        let shrunk = shrink_plan(&plan, |candidate| {
            reproduces_violation(StackKind::RdmaNaive, seed, candidate).0
        });
        return Some(HuntResult {
            seed,
            plan,
            shrunk,
            report,
        });
    }
    None
}
