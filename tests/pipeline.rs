//! Cross-crate pipeline tests: determinism, trace round-trips, budgets/power
//! wiring, and the closed-loop CMP ordering.

use nanophotonic_handshake::cmp::workload::paper_workload;
use nanophotonic_handshake::photonics::budget::SchemeFeatures;
use nanophotonic_handshake::prelude::*;

/// The whole stack is deterministic: same seeds → bit-identical summaries.
#[test]
fn end_to_end_determinism() {
    let run = || {
        let cfg = NetworkConfig::paper_default(Scheme::Dhs { setaside: 8 });
        run_synthetic_point(
            cfg,
            TrafficPattern::UniformRandom,
            0.09,
            RunPlan::new(1_000, 4_000, 1_000),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.avg_latency.to_bits(), b.avg_latency.to_bits());
    assert_eq!(a.delivered, b.delivered);
    assert_eq!(a.p99_latency.to_bits(), b.p99_latency.to_bits());
}

/// Synthesize an application trace as PTRC, persist it, and replay it from
/// memory and from the file — the two replays give byte-identical summaries.
#[test]
fn trace_persistence_round_trip() {
    use nanophotonic_handshake::trace::{
        generate_app, replay_run, StreamingTraceReader, DEFAULT_CHUNK_EVENTS,
    };

    fn replay(input: impl std::io::Read) -> String {
        let mut cfg = NetworkConfig::paper_default(Scheme::Ghs { setaside: 8 });
        cfg.nodes = 32;
        cfg.ring_segments = 8;
        let reader = StreamingTraceReader::open(input).unwrap();
        let s = replay_run(cfg, reader, RunPlan::new(1_000, 5_000, 1_000)).unwrap();
        assert!(s.delivered > 0);
        serde_json::to_string(&s).unwrap()
    }

    let app = nanophotonic_handshake::traffic::apps::paper_app("streamcluster").unwrap();
    let (bytes, _) =
        generate_app(&app, 128, 32, 8_000, 99, DEFAULT_CHUNK_EVENTS, Vec::new()).unwrap();
    let path = std::env::temp_dir().join(format!(
        "pnoc_pipeline_round_trip_{}.ptrc",
        std::process::id()
    ));
    std::fs::write(&path, &bytes).unwrap();
    let file = std::io::BufReader::new(std::fs::File::open(&path).unwrap());
    let from_file = replay(file);
    std::fs::remove_file(&path).unwrap();
    assert_eq!(replay(&bytes[..]), from_file);
}

/// Table I numbers feed the power model consistently: the scheme enum, the
/// budget, and the heating power all agree.
#[test]
fn budgets_and_power_are_wired_together() {
    let dims = NetworkDims::paper_default();
    for scheme in Scheme::paper_set(8) {
        let budget = ComponentBudget::for_scheme(dims, scheme.features());
        let report = PowerReport::paper_default();
        let heating = report.laser.heating_power_w(scheme);
        let expected = budget.total_rings() as f64 * 20e-6;
        assert!(
            (heating - expected).abs() < 1e-9,
            "{scheme:?}: heating power disagrees with ring budget"
        );
    }
    // And the budget features match the scheme properties.
    assert_eq!(
        Scheme::DhsCirculation.features(),
        SchemeFeatures::circulation()
    );
    assert_eq!(
        Scheme::TokenSlot.features(),
        SchemeFeatures::credit_baseline()
    );
}

/// Closed loop: the CMP sees the network — a latency-heavier scheme yields
/// lower IPC on a network-bound workload, and IPC is deterministic.
#[test]
fn cmp_ipc_orders_schemes() {
    let wl = paper_workload("nas.is").unwrap();
    let run = |scheme| {
        let mut cfg = NetworkConfig::paper_default(scheme);
        cfg.cores_per_node = 2;
        let mut sys = CmpSystem::new(cfg, CmpConfig::paper_default(), wl.clone());
        sys.run(1_000, 6_000)
    };
    let tc = run(Scheme::TokenChannel);
    let ghs = run(Scheme::Ghs { setaside: 8 });
    assert!(
        ghs.ipc > tc.ipc,
        "GHS w/ setaside must out-IPC token channel on NAS ({} vs {})",
        ghs.ipc,
        tc.ipc
    );
    assert!(
        ghs.avg_net_latency < tc.avg_net_latency,
        "the IPC gain must come from network latency"
    );
    let ghs2 = run(Scheme::Ghs { setaside: 8 });
    assert_eq!(
        ghs.ipc.to_bits(),
        ghs2.ipc.to_bits(),
        "IPC runs are deterministic"
    );
}

/// The power report reproduces the qualitative Fig. 12 statements when fed
/// real measured activity.
#[test]
fn fig12_claims_from_live_activity() {
    let plan = RunPlan::new(1_000, 5_000, 1_000);
    let report = PowerReport::paper_default();
    let mut totals = Vec::new();
    for scheme in [
        Scheme::TokenSlot,
        Scheme::Dhs { setaside: 8 },
        Scheme::DhsCirculation,
    ] {
        let cfg = NetworkConfig::paper_default(scheme);
        let mut net = Network::new(cfg).unwrap();
        let mut src = SyntheticSource::new(
            TrafficPattern::UniformRandom,
            0.05,
            cfg.nodes,
            cfg.cores_per_node,
            3,
        );
        net.run_open_loop(&mut src, plan);
        let act = ActivityProfile::from_metrics(net.metrics(), plan.total());
        let b = report.breakdown(scheme, &act);
        assert!(
            b.static_fraction() > 0.6,
            "{scheme:?}: static must dominate"
        );
        totals.push((
            scheme,
            b.total_w(),
            report.energy_per_packet_j(scheme, &act),
        ));
    }
    // Token slot cheapest; circulation's energy/packet ≈ DHS's.
    assert!(totals[0].1 <= totals[1].1 + 1e-9);
    assert!(totals[0].1 <= totals[2].1 + 1e-9);
    let rel = (totals[2].2 - totals[1].2).abs() / totals[1].2;
    assert!(rel < 0.1, "circulation energy overhead {rel}");
}

/// Fairness (§III-D): on a contended hotspot channel, nodes near the home
/// starve downstream senders; the sit-out policy equalizes service at a
/// small throughput cost.
#[test]
fn sit_out_improves_worst_channel_fairness() {
    let plan = RunPlan::new(4_000, 16_000, 2_000);
    let pattern = TrafficPattern::Hotspot {
        target: 0,
        fraction: 0.30,
    };
    let run = |fairness| {
        let mut cfg = NetworkConfig::paper_default(Scheme::DhsCirculation);
        cfg.fairness = fairness;
        run_synthetic_point(cfg, pattern, 0.06, plan)
    };
    let none = run(FairnessPolicy::None);
    let fair = run(FairnessPolicy::SitOut {
        serve_quota: 1,
        sit_out: 48,
    });
    assert!(
        none.jain_worst < 0.4,
        "without a policy the hot channel must be unfair (got {})",
        none.jain_worst
    );
    assert!(
        fair.jain_worst > none.jain_worst + 0.2,
        "sit-out must substantially equalize the hot channel ({} vs {})",
        fair.jain_worst,
        none.jain_worst
    );
    assert!(
        fair.throughput_per_core > none.throughput_per_core * 0.85,
        "the fairness cost must stay small ({} vs {})",
        fair.throughput_per_core,
        none.throughput_per_core
    );
}
