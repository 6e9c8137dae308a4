//! Determinism replay: a (config, seed) pair fully determines a run.
//!
//! Two independently constructed simulations of the same point must produce
//! *byte-identical* serialized summaries — not merely equal headline
//! numbers — for every scheme, fault-free and under fault injection, and
//! regardless of whether the run is dispatched sequentially or through
//! pnoc-fleet's work-stealing executor. This is the property the
//! pnoc-verify lints exist to protect (no unordered iteration, no wall
//! clock, no ambient randomness), pinned end-to-end.

use nanophotonic_handshake::noc::metrics::RunSummary;
use nanophotonic_handshake::prelude::*;
use pnoc_fleet::Fleet;

fn point(scheme: Scheme, faulty: bool) -> RunSummary {
    let mut cfg = NetworkConfig::small(scheme);
    if faulty {
        cfg = cfg.with_faults(FaultConfig::uniform(1e-3));
    }
    run_synthetic_point(
        cfg,
        TrafficPattern::UniformRandom,
        0.04,
        RunPlan::new(300, 1_200, 400),
    )
}

fn bytes(s: &RunSummary) -> String {
    serde_json::to_string(s).expect("RunSummary serializes")
}

#[test]
fn replay_is_byte_identical_for_every_scheme() {
    for scheme in Scheme::paper_set(4) {
        for faulty in [false, true] {
            let a = bytes(&point(scheme, faulty));
            let b = bytes(&point(scheme, faulty));
            assert_eq!(
                a, b,
                "{scheme:?} (faults: {faulty}) replay diverged from itself"
            );
        }
    }
}

#[test]
fn swmr_and_emesh_replays_are_byte_identical() {
    // The comparison baselines (SWMR ring, electrical mesh) run through
    // their own network structs and must hold the same replay property as
    // the MWSR pipeline.
    use nanophotonic_handshake::noc::{MeshConfig, MeshNetwork, SwmrConfig, SwmrNetwork};
    let swmr = |cfg: SwmrConfig| {
        let mut net = SwmrNetwork::new(cfg).expect("valid SWMR config");
        let mut src = SyntheticSource::new(
            TrafficPattern::UniformRandom,
            0.04,
            cfg.nodes,
            cfg.cores_per_node,
            11,
        );
        bytes(&net.run_open_loop(&mut src, RunPlan::new(300, 1_200, 400)))
    };
    for cfg in [SwmrConfig::paper_handshake(4), SwmrConfig::paper_credit()] {
        assert_eq!(swmr(cfg), swmr(cfg), "{:?} replay diverged", cfg.flow);
    }
    let mesh = || {
        let cfg = MeshConfig::paper_comparable();
        let mut net = MeshNetwork::new(cfg).expect("valid mesh config");
        let mut src = SyntheticSource::new(
            TrafficPattern::UniformRandom,
            0.04,
            cfg.nodes(),
            cfg.cores_per_node,
            11,
        );
        bytes(&net.run_open_loop(&mut src, RunPlan::new(300, 1_200, 400)))
    };
    assert_eq!(mesh(), mesh(), "mesh replay diverged");
}

#[test]
fn parallel_sweep_path_matches_sequential_runs() {
    // The same points dispatched through `Fleet::map`, the fan-out every
    // harness uses (thread scheduling, work stealing), must not perturb a
    // single bit of any summary.
    let inputs: Vec<(Scheme, bool)> = Scheme::paper_set(4)
        .into_iter()
        .flat_map(|s| [(s, false), (s, true)])
        .collect();
    let sequential: Vec<String> = inputs
        .iter()
        .map(|&(s, faulty)| bytes(&point(s, faulty)))
        .collect();
    let parallel = Fleet::new(4).map(inputs, |_, &(s, faulty)| bytes(&point(s, faulty)));
    assert_eq!(
        sequential, parallel,
        "parallel sweep dispatch changed simulation results"
    );
}
