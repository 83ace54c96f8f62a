//! E12 (blackout): the time-to-recover matrix — per-shard availability
//! windows under four canonical degradations (leader crash, per-shard
//! reconfiguration, global reconfiguration, partition + heal), for all three
//! stacks, derived from the control-plane observability stream
//! (committed as `BENCH_9.json`).
//!
//! Every window is bracketed by control-plane events: it opens at a
//! degrading milestone (`crash`, `fault-injected`, `reconfig-initiated`) and
//! closes at the first transaction decided on the shard afterwards, so the
//! matrix measures exactly how long each protocol leaves a shard unable to
//! decide.
//!
//! * `--json` replaces the table with one machine-readable JSON object,
//!   including a Chrome-trace-event rendering of the first cell's merged
//!   event log (loadable in `chrome://tracing` / Perfetto).
//! * `--trace` prints only that Chrome trace document.

use ratc_chaos::{blackout_experiment, BlackoutResult, BlackoutScenario};
use ratc_sim::{Blackout, CtrlEvent};
use ratc_workload::StackKind;

const STACKS: [StackKind; 3] = [StackKind::Core, StackKind::Rdma, StackKind::Baseline];
const SEED: u64 = 42;

fn main() {
    let json = std::env::args().any(|arg| arg == "--json");
    let trace_only = std::env::args().any(|arg| arg == "--trace");
    if !json && !trace_only {
        ratc_bench::header(
            "E12",
            "per-shard availability windows (blackouts) and time-to-recover",
            "reconfiguration bounds the time a shard stays unable to decide \
             after a failure; the control-plane event stream brackets every \
             window between the degrading milestone that opened it and the \
             first post-fault decision that closed it",
        );
    }

    let mut rows: Vec<BlackoutResult> = Vec::new();
    // The first cell's raw stream, kept for the Chrome-trace export.
    let mut exemplar: Option<(Vec<CtrlEvent>, Vec<Blackout>)> = None;
    for stack in STACKS {
        for scenario in BlackoutScenario::ALL {
            let (result, ctrl, blackouts) = blackout_experiment(stack, scenario, SEED);
            if exemplar.is_none() {
                exemplar = Some((ctrl, blackouts));
            }
            if !json && !trace_only {
                println!("{result}");
            }
            rows.push(result);
        }
        if !json && !trace_only {
            println!();
        }
    }

    let (ctrl, blackouts) = exemplar.expect("at least one cell ran");
    let trace = ratc_bench::json::chrome_trace(&ctrl, &blackouts);
    if trace_only {
        println!("{trace}");
        return;
    }
    if json {
        let row_objs: Vec<String> = rows.iter().map(ratc_bench::json::blackout).collect();
        println!(
            r#"{{"experiment":"blackout","shards":2,"seed":{},"scenarios":["leader-crash","shard-reconfig","global-reconfig","partition-heal"],"rows":{},"trace":{}}}"#,
            SEED,
            ratc_bench::json::array(&row_objs),
            trace
        );
    }
}
