//! E9 (availability): commit throughput and recovery time vs. fault
//! intensity, for all three stacks under the chaos nemesis. Rows carry the
//! blackout fields (availability windows, time-to-recover) derived from the
//! control-plane observability stream, plus per-message-type delivery
//! counts per decided transaction.
//!
//! `--json` replaces the table with one machine-readable JSON object.

use ratc_chaos::{availability_experiment, AvailabilityResult};
use ratc_workload::StackKind;

const STACKS: [StackKind; 3] = [StackKind::Core, StackKind::Rdma, StackKind::Baseline];
const INTENSITIES: [u8; 5] = [0, 20, 40, 60, 80];
const SEED: u64 = 42;

fn main() {
    let json = std::env::args().any(|arg| arg == "--json");
    if !json {
        ratc_bench::header(
            "E9",
            "availability under randomized fault injection",
            "a seed-driven nemesis crashes and restarts leaders, followers and \
             coordinators, partitions shards and triggers mid-flight reconfigurations \
             under drop/duplicate/delay noise; throughput degrades gracefully with \
             fault intensity, every run stays safe, and all submitted transactions \
             are decided once faults lift",
        );
    }
    let mut rows: Vec<AvailabilityResult> = Vec::new();
    for stack in STACKS {
        for intensity in INTENSITIES {
            let result = availability_experiment(stack, intensity, SEED);
            if !json {
                println!("{result}");
            }
            rows.push(result);
        }
        if !json {
            println!();
        }
    }
    if json {
        let row_objs: Vec<String> = rows.iter().map(ratc_bench::json::availability).collect();
        println!(
            r#"{{"experiment":"availability","shards":2,"seed":{},"intensities":{:?},"rows":{}}}"#,
            SEED,
            INTENSITIES,
            ratc_bench::json::array(&row_objs),
        );
    }
}
