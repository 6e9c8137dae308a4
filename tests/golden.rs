//! Golden regression values: because the whole stack is deterministic, a few
//! pinned summaries catch accidental behavioural changes anywhere in the
//! simulator (RNG, phase ordering, scheme logic). If a change is *intended*
//! to alter timing behaviour, update these values alongside EXPERIMENTS.md.

use nanophotonic_handshake::prelude::*;

fn point(scheme: Scheme, rate: f64) -> nanophotonic_handshake::noc::metrics::RunSummary {
    let cfg = NetworkConfig::paper_default(scheme);
    Network::run_point(
        cfg,
        TenantMixKind::SingleClass,
        TrafficPattern::UniformRandom,
        rate,
        RunPlan::new(2_000, 8_000, 1_000),
    )
    .summary
}

#[test]
fn golden_delivered_counts() {
    // Delivered counts are exact integers — the strongest determinism pin.
    let tc = point(Scheme::TokenChannel, 0.05);
    let dhs = point(Scheme::Dhs { setaside: 8 }, 0.05);
    assert_eq!(
        tc.delivered, dhs.delivered,
        "same seed + same source = same offered packets"
    );
    assert!(tc.delivered > 90_000, "≈ 0.05 × 256 cores × 8000 cycles");
    assert!(tc.delivered < 110_000);
}

#[test]
fn golden_latency_bands() {
    // Pinned to ±0.5 cycles: loose enough to survive harmless changes like
    // measurement-window tweaks, tight enough to catch timing regressions.
    let checks = [
        (Scheme::TokenChannel, 0.05, 15.4),
        (Scheme::Ghs { setaside: 8 }, 0.05, 15.1),
        (Scheme::TokenSlot, 0.05, 9.9),
        (Scheme::Dhs { setaside: 8 }, 0.05, 9.6),
        (Scheme::DhsCirculation, 0.05, 9.6),
    ];
    for (scheme, rate, expect) in checks {
        let got = point(scheme, rate).avg_latency;
        assert!(
            (got - expect).abs() < 0.5,
            "{scheme:?} @ {rate}: latency {got:.2}, golden {expect:.2}"
        );
    }
}

#[test]
fn golden_zero_load_floor() {
    // Zero-load latency decomposition: inject router (2) + token wait +
    // flight + eject router (2). Distributed schemes have ~no token wait.
    let dhs = point(Scheme::Dhs { setaside: 8 }, 0.005).avg_latency;
    assert!(
        (9.0..10.0).contains(&dhs),
        "DHS zero-load latency drifted: {dhs:.2}"
    );
    let tc = point(Scheme::TokenChannel, 0.005).avg_latency;
    assert!(
        (12.0..14.5).contains(&tc),
        "token-channel zero-load latency drifted: {tc:.2}"
    );
}
