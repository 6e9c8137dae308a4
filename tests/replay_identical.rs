//! The replay-exactness contract, end to end: record a live saturated run
//! through the run-time injection recorder, replay the PTRC stream through a
//! fresh network with the same configuration and plan, and require the
//! serialized [`RunSummary`] to be **byte-identical** — for every scheme of
//! the paper set, with and without an active fault schedule.
//!
//! This is the strongest statement the trace subsystem makes: the capture
//! boundary (injections, not deliveries) plus deterministic simulation
//! means a recorded trace is a complete, replayable description of a run.

use nanophotonic_handshake::{noc::metrics::RunSummary, prelude::*};
use nanophotonic_handshake::{noc::sources::TRAFFIC_SEED_XOR, noc::SyntheticSource, trace};

fn bytes(s: &RunSummary) -> String {
    serde_json::to_string(s).expect("summary serializes")
}

/// An 8-node variant of the small network: quick to simulate, and — at a
/// saturating offered load — exercising retries, setaside occupancy, and
/// (with faults) the recovery machinery.
fn eight_node(scheme: Scheme) -> NetworkConfig {
    let mut cfg = NetworkConfig::small(scheme);
    cfg.nodes = 8;
    cfg
}

/// Record a run, then replay its PTRC stream under the same config/plan.
fn record_then_replay(cfg: NetworkConfig, rate: f64) -> (RunSummary, RunSummary, u64) {
    let plan = RunPlan::new(500, 2_000, 500);
    let mut src = SyntheticSource::new(
        TrafficPattern::UniformRandom,
        rate,
        cfg.nodes,
        cfg.cores_per_node,
        cfg.seed ^ TRAFFIC_SEED_XOR,
    );
    let (recorded, encoded, stats) =
        trace::record_run(cfg, &mut src, plan, Vec::new()).expect("record");
    assert_eq!(stats.bytes, encoded.len() as u64);
    let reader = trace::StreamingTraceReader::open(encoded.as_slice()).expect("open");
    let replayed = trace::replay_run(cfg, reader, plan).expect("replay");
    (recorded, replayed, stats.events)
}

#[test]
fn replay_reproduces_every_scheme_byte_identically() {
    for scheme in Scheme::paper_set(2) {
        let (recorded, replayed, events) = record_then_replay(eight_node(scheme), 0.40);
        assert!(events > 0, "{scheme:?}: saturated run must inject");
        assert!(
            recorded.delivered > 0,
            "{scheme:?}: saturated run must deliver"
        );
        assert_eq!(
            bytes(&recorded),
            bytes(&replayed),
            "{scheme:?}: replay diverged from the recorded run"
        );
    }
}

#[test]
fn replay_reproduces_faulty_runs_byte_identically() {
    // The fault schedule is part of the configuration (seeded RNG), so a
    // replay under the same config re-rolls the identical faults — losses,
    // NACKs, and retransmissions included.
    for scheme in [Scheme::Dhs { setaside: 2 }, Scheme::Ghs { setaside: 2 }] {
        let mut cfg = eight_node(scheme);
        cfg.faults = FaultConfig::uniform(1e-3);
        cfg.recovery = RecoveryConfig::for_ring(cfg.ring_segments);
        let (recorded, replayed, _) = record_then_replay(cfg, 0.40);
        assert!(
            recorded.retransmit_rate > 0.0 || recorded.lost_packets > 0,
            "{scheme:?}: fault schedule must actually fire"
        );
        assert_eq!(
            bytes(&recorded),
            bytes(&replayed),
            "{scheme:?}: faulty replay diverged"
        );
    }
}

#[test]
fn replay_under_a_different_seed_diverges() {
    // Counter-test: the byte-identity above is not vacuous. Changing the
    // network seed changes the fault-free arbitration not at all, but the
    //*fault* schedule entirely — the summaries must differ.
    let mut cfg = eight_node(Scheme::Dhs { setaside: 2 });
    cfg.faults = FaultConfig::uniform(5e-3);
    cfg.recovery = RecoveryConfig::for_ring(cfg.ring_segments);
    let plan = RunPlan::new(500, 2_000, 500);
    let mut src = SyntheticSource::new(
        TrafficPattern::UniformRandom,
        0.40,
        cfg.nodes,
        cfg.cores_per_node,
        cfg.seed ^ TRAFFIC_SEED_XOR,
    );
    let (recorded, encoded, _) =
        trace::record_run(cfg, &mut src, plan, Vec::new()).expect("record");
    let mut other = cfg;
    other.seed ^= 0xDEAD_BEEF;
    let reader = trace::StreamingTraceReader::open(encoded.as_slice()).expect("open");
    let replayed = trace::replay_run(other, reader, plan).expect("replay");
    assert_ne!(
        bytes(&recorded),
        bytes(&replayed),
        "a different fault seed must change a faulty saturated run"
    );
}
