//! The paper's qualitative claims, asserted end-to-end at the paper's
//! 64-node scale (shortened measurement windows; the full-fidelity numbers
//! come from the `pnoc-bench` harnesses and are recorded in EXPERIMENTS.md).

use nanophotonic_handshake::prelude::*;

fn plan() -> RunPlan {
    RunPlan::new(3_000, 9_000, 1_500)
}

fn point(scheme: Scheme, pattern: TrafficPattern, rate: f64) -> noc::metrics::RunSummary {
    let cfg = NetworkConfig::paper_default(scheme);
    Network::run_point(cfg, TenantMixKind::SingleClass, pattern, rate, plan()).summary
}

use nanophotonic_handshake::noc;

/// §V-B / Fig. 8: GHS outperforms token channel under UR — the credit-coupled
/// token saturates first.
#[test]
fn ghs_beats_token_channel_under_ur() {
    let rate = 0.11;
    let tc = point(Scheme::TokenChannel, TrafficPattern::UniformRandom, rate);
    let ghs = point(
        Scheme::Ghs { setaside: 0 },
        TrafficPattern::UniformRandom,
        rate,
    );
    let ghs_sb = point(
        Scheme::Ghs { setaside: 8 },
        TrafficPattern::UniformRandom,
        rate,
    );
    assert!(tc.saturated, "token channel should be saturated at 0.11 UR");
    assert!(!ghs_sb.saturated, "GHS w/ setaside must sustain 0.11 UR");
    // Basic GHS sustains it too (paper Fig. 8a saturates past 0.11).
    assert!(!ghs.saturated, "basic GHS must sustain 0.11 UR");
}

/// Fig. 9(a): DHS variants outlast token slot under UR; the paper's headline
/// "up to 62 % throughput improvement".
#[test]
fn dhs_throughput_gain_over_token_slot() {
    let mut ts_sat = 0.0f64;
    let mut cir_sat = 0.0f64;
    for rate in [0.13, 0.17, 0.21, 0.25] {
        let ts = point(Scheme::TokenSlot, TrafficPattern::UniformRandom, rate);
        if !ts.saturated {
            ts_sat = ts_sat.max(rate);
        }
        let cir = point(Scheme::DhsCirculation, TrafficPattern::UniformRandom, rate);
        if !cir.saturated {
            cir_sat = cir_sat.max(rate);
        }
    }
    assert!(ts_sat > 0.0 && cir_sat > 0.0);
    let gain = cir_sat / ts_sat - 1.0;
    assert!(
        gain >= 0.3,
        "DHS-circulation should out-saturate token slot by a large margin, got {:.0}% ({} vs {})",
        gain * 100.0,
        cir_sat,
        ts_sat
    );
}

/// Fig. 9(b): under the BC permutation, HOL blocking makes *basic* DHS lose
/// to token slot; setaside and circulation recover.
#[test]
fn bc_exposes_hol_blocking_in_basic_dhs() {
    let rate = 0.05;
    let ts = point(Scheme::TokenSlot, TrafficPattern::BitComplement, rate);
    let basic = point(
        Scheme::Dhs { setaside: 0 },
        TrafficPattern::BitComplement,
        rate,
    );
    let sb = point(
        Scheme::Dhs { setaside: 8 },
        TrafficPattern::BitComplement,
        rate,
    );
    let cir = point(Scheme::DhsCirculation, TrafficPattern::BitComplement, rate);
    assert!(!ts.saturated, "token slot sustains 0.05 BC");
    assert!(basic.saturated, "basic DHS must collapse under BC (HOL)");
    assert!(!sb.saturated, "setaside removes the HOL bottleneck");
    assert!(!cir.saturated, "circulation removes the HOL bottleneck");
}

/// §III/V: drop-and-retransmission rate stays below 1 % even at high load.
#[test]
fn drop_rate_below_one_percent_near_saturation() {
    for (scheme, rate) in [
        (Scheme::Ghs { setaside: 8 }, 0.17),
        (Scheme::Dhs { setaside: 8 }, 0.21),
    ] {
        let s = point(scheme, TrafficPattern::UniformRandom, rate);
        assert!(
            s.drop_rate < 0.01,
            "{scheme:?}: drop rate {:.4} ≥ 1%",
            s.drop_rate
        );
    }
    // Circulation: the analogous quantity is the recirculation rate.
    let s = point(Scheme::DhsCirculation, TrafficPattern::UniformRandom, 0.21);
    assert!(s.drop_rate == 0.0, "circulation never drops");
    assert!(
        s.circulation_rate < 0.01,
        "circulation rate {:.4} ≥ 1%",
        s.circulation_rate
    );
}

/// Fig. 11(a–e) vs Fig. 2(b): handshake performance is nearly independent of
/// the credit/buffer count, while token slot's saturation scales with it.
#[test]
fn handshake_is_credit_independent_token_slot_is_not() {
    let rate = 0.11;
    let run_with_credits = |scheme: Scheme, credits: usize| {
        let mut cfg = NetworkConfig::paper_default(scheme);
        cfg.input_buffer = credits;
        Network::run_point(
            cfg,
            TenantMixKind::SingleClass,
            TrafficPattern::UniformRandom,
            rate,
            plan(),
        )
        .summary
    };
    // Token slot: 4 credits saturate at 0.11; 32 credits do not.
    let ts4 = run_with_credits(Scheme::TokenSlot, 4);
    let ts32 = run_with_credits(Scheme::TokenSlot, 32);
    assert!(ts4.saturated, "token slot with 4 credits collapses at 0.11");
    assert!(!ts32.saturated, "token slot with 32 credits sustains 0.11");
    // DHS w/ setaside: latency within a couple of cycles across credit counts.
    let d4 = run_with_credits(Scheme::Dhs { setaside: 8 }, 4);
    let d32 = run_with_credits(Scheme::Dhs { setaside: 8 }, 32);
    assert!(!d4.saturated && !d32.saturated);
    assert!(
        (d4.avg_latency - d32.avg_latency).abs() < 3.0,
        "DHS latency should be ~credit-independent ({} vs {})",
        d4.avg_latency,
        d32.avg_latency
    );
}

/// Fig. 11(f): a small setaside buffer is enough at UR 0.11.
#[test]
fn small_setaside_suffices() {
    let at = |s: usize| {
        point(
            Scheme::Dhs { setaside: s },
            TrafficPattern::UniformRandom,
            0.11,
        )
    };
    let s2 = at(2);
    let s16 = at(16);
    assert!(!s2.saturated && !s16.saturated);
    assert!(
        (s2.avg_latency - s16.avg_latency).abs() < 3.0,
        "setaside 2 vs 16 should be comparable at UR 0.11 ({} vs {})",
        s2.avg_latency,
        s16.avg_latency
    );
}

/// Circulation matches setaside without extra buffers (paper: "almost the
/// same effect... a more promising design").
#[test]
fn circulation_matches_setaside() {
    for rate in [0.09, 0.17] {
        let sb = point(
            Scheme::Dhs { setaside: 8 },
            TrafficPattern::UniformRandom,
            rate,
        );
        let cir = point(Scheme::DhsCirculation, TrafficPattern::UniformRandom, rate);
        assert_eq!(sb.saturated, cir.saturated, "at rate {rate}");
        if !sb.saturated {
            assert!(
                (sb.avg_latency - cir.avg_latency).abs() < 3.0,
                "at {rate}: setaside {} vs circulation {}",
                sb.avg_latency,
                cir.avg_latency
            );
        }
    }
}

/// Tornado (Fig. 8c / 9c): the permutation concentrates load on half-ring
/// pairs; handshake schemes still dominate their baselines.
#[test]
fn tornado_preserves_scheme_ordering() {
    let rate = 0.05;
    let ts = point(Scheme::TokenSlot, TrafficPattern::Tornado, rate);
    let cir = point(Scheme::DhsCirculation, TrafficPattern::Tornado, rate);
    let tc = point(Scheme::TokenChannel, TrafficPattern::Tornado, rate);
    assert!(!cir.saturated, "DHS-circulation sustains 0.05 TOR");
    if !ts.saturated && !cir.saturated {
        assert!(cir.avg_latency <= ts.avg_latency + 2.0);
    }
    // Token channel is the weakest of the four at this load.
    assert!(
        tc.saturated || tc.avg_latency >= cir.avg_latency,
        "token channel should not beat DHS-circulation under TOR"
    );
}
