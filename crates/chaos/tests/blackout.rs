//! E12 acceptance: the blackout matrix is live on every stack, and every
//! availability window a chaos soak derives nests inside its enclosing
//! fault→heal span of the merged control-plane event log.

use ratc_chaos::{blackout_experiment, BlackoutScenario};
use ratc_harness::StackKind;
use ratc_sim::CtrlMilestone;

const STACKS: [StackKind; 3] = [StackKind::Core, StackKind::Rdma, StackKind::Baseline];

/// Every E12 cell recovers (all submitted transactions decided, windows
/// closed), and each closed window is bracketed by the merged control-plane
/// stream: it opens at a degrading milestone no earlier than the injected
/// fault, stops degrading before it closes, and closes before the soak's
/// final `recovered` marker — i.e. the window nests inside the fault→heal
/// span.
#[test]
fn blackout_windows_nest_inside_their_fault_heal_span() {
    for stack in STACKS {
        for scenario in BlackoutScenario::ALL {
            let (result, ctrl, blackouts) = blackout_experiment(stack, scenario, 42);
            assert!(
                result.ok,
                "{stack:?} {scenario}: cell did not recover: {result}"
            );
            assert_eq!(
                result.unclosed_windows, 0,
                "{stack:?} {scenario}: unclosed availability window"
            );
            assert!(
                !ctrl.is_empty(),
                "{stack:?} {scenario}: merged ctrl stream is empty"
            );

            let first_fault = ctrl
                .iter()
                .filter(|e| e.milestone.degrades())
                .map(|e| e.at_micros)
                .min();
            let healed = ctrl
                .iter()
                .filter(|e| e.milestone == CtrlMilestone::Recovered)
                .map(|e| e.at_micros)
                .max();
            assert!(
                healed.is_some(),
                "{stack:?} {scenario}: soak never stamped recovery"
            );

            for blackout in &blackouts {
                assert!(
                    ctrl.iter().any(|e| e.at_micros == blackout.start_micros
                        && e.milestone == blackout.cause
                        && e.milestone.degrades()),
                    "{stack:?} {scenario}: window start {} not anchored to a \
                     degrading ctrl event",
                    blackout.start_micros
                );
                assert!(
                    Some(blackout.start_micros) >= first_fault,
                    "{stack:?} {scenario}: window precedes the injected fault"
                );
                let end = blackout
                    .end_micros
                    .expect("all windows closed (asserted above)");
                assert!(
                    end > blackout.last_degrade_micros,
                    "{stack:?} {scenario}: window closed while still degrading"
                );
                assert!(
                    Some(end) <= healed,
                    "{stack:?} {scenario}: window outlives the heal marker \
                     (end={end}, healed={healed:?})"
                );
            }

            // Degrading scenarios actually produce a measurable window on
            // every stack — even the masking baseline exposes a (short) one
            // for the crash scenarios.
            if matches!(
                scenario,
                BlackoutScenario::LeaderCrash | BlackoutScenario::PartitionHeal
            ) {
                assert!(
                    result.windows > 0,
                    "{stack:?} {scenario}: no availability window derived"
                );
            }
        }
    }
}

/// The baseline has static membership: a shard reconfiguration closes no
/// availability window there, so the cell has no time-to-recover and must
/// say `n/a` rather than report a vacuous 0 µs.
#[test]
fn baseline_reconfiguration_cell_reports_no_time_to_recover() {
    let (result, _, blackouts) =
        blackout_experiment(StackKind::Baseline, BlackoutScenario::ShardReconfig, 42);
    assert!(result.ok, "{result}");
    assert!(
        blackouts
            .iter()
            .all(|b| b.time_to_recover_micros().is_none()),
        "no window closed: {blackouts:?}"
    );
    assert_eq!(result.time_to_recover_micros, None);
    assert!(result.to_string().contains("ttr=      n/a"), "{result}");
}
