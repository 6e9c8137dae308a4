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

/// FNV-1a 64-bit digest of a serialized summary: a compact, dependency-free
/// pin for [`fabric_summaries_match_pinned_bytes`].
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Serialized summaries of all three fabrics (MWSR ring, SWMR ring,
/// electrical mesh) under one plan and one source seed, labelled for the
/// pin table.
fn fabric_summaries() -> Vec<(String, String)> {
    use nanophotonic_handshake::noc::{MeshConfig, MeshNetwork, SwmrConfig, SwmrNetwork};
    let plan = RunPlan::new(300, 1_200, 400);
    let source = |rate, nodes, cores_per_node| {
        SyntheticSource::new(
            TrafficPattern::UniformRandom,
            rate,
            nodes,
            cores_per_node,
            11,
        )
    };
    let mut out = Vec::new();
    for scheme in Scheme::paper_set(4) {
        for faulty in [false, true] {
            let mut cfg = NetworkConfig::small(scheme);
            if faulty {
                cfg = cfg.with_faults(FaultConfig::uniform(1e-3));
            }
            let mut net = Network::new(cfg).expect("valid MWSR config");
            let mut src = source(0.04, cfg.nodes, cfg.cores_per_node);
            let s = net.run_open_loop(&mut src, plan);
            out.push((format!("mwsr {scheme:?} faults={faulty}"), bytes(&s)));
        }
    }
    for cfg in [
        SwmrConfig::paper_handshake(4),
        SwmrConfig::paper_handshake(0),
        SwmrConfig::paper_credit(),
    ] {
        for rate in [0.04, 0.12] {
            let mut net = SwmrNetwork::new(cfg).expect("valid SWMR config");
            let mut src = source(rate, cfg.nodes, cfg.cores_per_node);
            let s = net.run_open_loop(&mut src, plan);
            out.push((format!("swmr {:?} @ {rate}", cfg.flow), bytes(&s)));
        }
    }
    for input_buffer in [2, 4] {
        for rate in [0.04, 0.09] {
            let cfg = MeshConfig {
                input_buffer,
                ..MeshConfig::paper_comparable()
            };
            let mut net = MeshNetwork::new(cfg).expect("valid mesh config");
            let mut src = source(rate, cfg.nodes(), cfg.cores_per_node);
            let s = net.run_open_loop(&mut src, plan);
            out.push((format!("mesh buffer={input_buffer} @ {rate}"), bytes(&s)));
        }
    }
    out
}

#[test]
fn fabric_summaries_match_pinned_bytes() {
    // Exact pins, not self-comparisons: each fabric's serialized RunSummary
    // must hash to the value captured before the three fabrics shared one
    // injection pipeline and open-loop driver. A refactor of that backbone
    // must not move a single byte.
    const PINS: [(&str, u64); 24] = [
        ("mwsr TokenChannel faults=false", 0x1922d35e3dbaebcf),
        ("mwsr TokenChannel faults=true", 0x919741aeb26fd4d4),
        ("mwsr Ghs { setaside: 0 } faults=false", 0x78a5caf3033983b3),
        ("mwsr Ghs { setaside: 0 } faults=true", 0x5c70ff5e1223e62b),
        ("mwsr Ghs { setaside: 4 } faults=false", 0x2119d9c63512c9c8),
        ("mwsr Ghs { setaside: 4 } faults=true", 0xf6e18066ed7e93a8),
        ("mwsr TokenSlot faults=false", 0x76aaefa8acc5fb8c),
        ("mwsr TokenSlot faults=true", 0x263d0fbbf2bac455),
        ("mwsr Dhs { setaside: 0 } faults=false", 0x64a3e6f0c13049bd),
        ("mwsr Dhs { setaside: 0 } faults=true", 0x2ca217f06121926d),
        ("mwsr Dhs { setaside: 4 } faults=false", 0xb162248e7a391350),
        ("mwsr Dhs { setaside: 4 } faults=true", 0x52d5c812b4f697bd),
        ("mwsr DhsCirculation faults=false", 0xb162248e7a391350),
        ("mwsr DhsCirculation faults=true", 0x90bd63962c786b13),
        ("swmr Handshake { setaside: 4 } @ 0.04", 0x46ca607df91fe992),
        ("swmr Handshake { setaside: 4 } @ 0.12", 0x18803607f381ae55),
        ("swmr Handshake { setaside: 0 } @ 0.04", 0x1cda9600b3e6a23d),
        ("swmr Handshake { setaside: 0 } @ 0.12", 0xe4f5acd3bf24f924),
        ("swmr PartitionedCredit @ 0.04", 0x386a8f6fbbe5d986),
        ("swmr PartitionedCredit @ 0.12", 0xfe9680700a3ac2f8),
        ("mesh buffer=2 @ 0.04", 0x2e1bf08f8341aaf0),
        ("mesh buffer=2 @ 0.09", 0x75fd00df338bc5ff),
        ("mesh buffer=4 @ 0.04", 0x4da79a245c5a7dd6),
        ("mesh buffer=4 @ 0.09", 0x23425c24a65b1ef4),
    ];
    let got = fabric_summaries();
    assert_eq!(got.len(), PINS.len());
    let mut diverged = Vec::new();
    for ((label, json), (pinned_label, pin)) in got.iter().zip(PINS) {
        assert_eq!(label, pinned_label, "pin table out of order");
        let digest = fnv1a(json);
        if digest != pin {
            diverged.push(format!(
                "{label}: {digest:#018x} (pinned {pin:#018x})\n  {json}"
            ));
        }
    }
    assert!(
        diverged.is_empty(),
        "summaries moved:\n{}",
        diverged.join("\n")
    );
}
