//! Pin of the shipped bounded model check: per-scenario state-space sizes.
//!
//! The checker explores every reachable state of each scenario's channel, so
//! `(states, transitions, drain bound, delivered)` is a fingerprint of the
//! channel's complete dynamic behaviour on that configuration. A refactor of
//! how channels are built or dispatched must leave every tuple unchanged; a
//! change here means the verified state machine itself changed.

use pnoc_verify::checker::CheckConfig;
use pnoc_verify::scenarios::{duplicate_bug_counterexample, matrix, run_matrix};
use pnoc_verify::CheckOutcome;

/// `(states, transitions, max drain steps, max delivered)` per scenario, in
/// `matrix()` order.
const PINNED: [(usize, usize, u64, u64); 25] = [
    // Token Channel: 2 nodes x 3 pkts, 4 nodes x 3 senders, 1 data loss.
    (34, 51, 6, 3),
    (221, 428, 13, 3),
    (10, 14, 3, 1),
    // GHS: + 1 ack loss.
    (25, 39, 10, 3),
    (264, 495, 10, 3),
    (135, 163, 16, 2),
    (135, 163, 16, 2),
    // GHS w/ Setaside.
    (25, 39, 10, 3),
    (264, 495, 10, 3),
    (135, 163, 16, 2),
    (135, 163, 16, 2),
    // Token Slot.
    (22, 34, 5, 3),
    (292, 556, 11, 3),
    (9, 13, 3, 1),
    // DHS.
    (25, 39, 10, 3),
    (445, 683, 10, 3),
    (135, 163, 16, 2),
    (135, 163, 16, 2),
    // DHS w/ Setaside.
    (25, 39, 10, 3),
    (445, 683, 10, 3),
    (135, 163, 16, 2),
    (135, 163, 16, 2),
    // DHS w/ Circulation.
    (20, 32, 3, 3),
    (174, 322, 7, 3),
    (9, 13, 3, 1),
];

#[test]
fn model_check_state_spaces_are_pinned() {
    assert_eq!(matrix().len(), PINNED.len(), "scenario matrix changed");
    let results = run_matrix(&CheckConfig::default());
    let mut total = 0;
    for (r, &want) in results.iter().zip(PINNED.iter()) {
        let label = r.scenario.label();
        let CheckOutcome::Verified(rep) = &r.outcome else {
            panic!("{label}: not verified: {:?}", r.outcome);
        };
        let got = (
            rep.states,
            rep.transitions,
            rep.max_drain_steps,
            rep.max_delivered,
        );
        assert_eq!(got, want, "{label}");
        total += rep.states;
    }
    assert_eq!(total, 3389, "total reachable states");
}

#[test]
fn sabotage_self_test_still_finds_a_counterexample() {
    match duplicate_bug_counterexample() {
        CheckOutcome::Violated(cx) => {
            assert!(cx.error.contains("delivered twice"), "{}", cx.error);
            assert!(!cx.steps.is_empty(), "trace must show the schedule");
        }
        other => panic!("sabotaged model must be caught, got {other:?}"),
    }
}
