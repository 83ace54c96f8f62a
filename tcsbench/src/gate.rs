//! The correctness gate, applied to every run: liveness of every submitted
//! transaction, no contradictory client decisions, conflict serializability
//! of the whole history and the TCS-LL witness check on a bounded prefix.

use std::time::Instant;

use ratc_harness::TcsCluster;
use ratc_spec::{check_conflict_serializable, check_history};
use ratc_types::{HistoryAction, Serializability, TcsHistory};

/// Committed transactions in the prefix handed to the TCS-LL witness check.
/// The check grows about cubically with history length, so it runs on a
/// bounded prefix; a prefix of a correct history is itself correct.
pub const TCSLL_PREFIX_COMMITTED: usize = 300;

/// What one history contributed to the run's counts.
#[derive(Default, Clone, Copy)]
pub struct Counts {
    pub submitted: usize,
    pub decided: usize,
    pub committed: usize,
    /// Undecided transactions plus contradictory client decisions.
    pub failed: usize,
}

/// The cost of the two specification checks, in milliseconds.
#[derive(Default, Clone, Copy)]
pub struct SpecCost {
    pub serializable_ms: f64,
    pub tcsll_prefix_ms: f64,
}

/// Checks one cluster's history. Problems are appended to `problems`;
/// `disjoint` workloads must commit every transaction; `full` adds the two
/// specification checks (skipped only for exact repeats of an already
/// checked deterministic trial).
pub fn check(
    cluster: &dyn TcsCluster,
    disjoint: bool,
    full: bool,
    problems: &mut Vec<String>,
) -> (Counts, SpecCost) {
    let history = cluster.history();
    let violations = cluster.client_violations();
    let undecided = history.undecided().count();
    let counts = Counts {
        submitted: history.certify_count(),
        decided: history.decide_count(),
        committed: history.committed().count(),
        failed: undecided + violations.len(),
    };
    for violation in violations.iter().take(5) {
        problems.push(format!("client violation: {violation}"));
    }
    if undecided > 0 {
        problems.push(format!("{undecided} transactions undecided"));
    }
    if disjoint && counts.committed != counts.decided {
        problems.push(format!(
            "disjoint workload aborted {} of {} transactions",
            counts.decided - counts.committed,
            counts.decided
        ));
    }
    let mut cost = SpecCost::default();
    if full {
        let t = Instant::now();
        if let Err(cycle) = check_conflict_serializable(&history) {
            problems.push(format!(
                "not conflict serializable: cycle through {} transactions",
                cycle.len()
            ));
        }
        cost.serializable_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let prefix = prefix(&history, TCSLL_PREFIX_COMMITTED);
        let spec = check_history(&prefix, &Serializability::new());
        if let Some(v) = spec.first() {
            problems.push(format!(
                "TCS-LL witness check failed ({} violations): {v}",
                spec.len()
            ));
        }
        cost.tcsll_prefix_ms = t.elapsed().as_secs_f64() * 1e3;
    }
    (counts, cost)
}

/// The shortest prefix of `history` holding `committed` commit decisions.
fn prefix(history: &TcsHistory, committed: usize) -> TcsHistory {
    let mut out = TcsHistory::new();
    let mut seen = 0;
    for action in history.actions() {
        if seen >= committed {
            break;
        }
        match action {
            HistoryAction::Certify { tx, payload } => out
                .record_certify(*tx, payload.clone())
                .expect("a prefix of a well-formed history is well formed"),
            HistoryAction::Decide { tx, decision } => {
                out.record_decide(*tx, *decision)
                    .expect("a prefix of a well-formed history is well formed");
                if decision.is_commit() {
                    seen += 1;
                }
            }
        }
    }
    out
}
