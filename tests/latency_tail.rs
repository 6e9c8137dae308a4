//! End-to-end pin of the latency-tail bugfix: a deliberately saturated
//! 64-node uniform-random run must report a *finite* p99 beyond the old
//! histogram's 2048-cycle range, and must still be flagged `saturated`.
//!
//! Before `pnoc_obs::LatencyRecorder` replaced the fixed 2048-bin
//! histogram, this exact configuration reported `p99_latency = +inf`: the
//! tail the paper's near-saturation analysis cares about was silently
//! clipped into an overflow bucket.

use nanophotonic_handshake::prelude::*;

fn saturated_point() -> nanophotonic_handshake::noc::metrics::RunSummary {
    // Paper configuration (64 nodes), driven at an offered load well past
    // DHS's UR saturation throughput so queues grow for the whole
    // measurement window and the latency tail crosses 2048 cycles.
    let cfg = NetworkConfig::paper_default(Scheme::Dhs { setaside: 8 });
    Network::run_point(
        cfg,
        TenantMixKind::SingleClass,
        TrafficPattern::UniformRandom,
        0.5,
        RunPlan::new(500, 4_000, 500),
    )
    .summary
}

#[test]
fn saturated_run_reports_finite_tail_percentile() {
    let s = saturated_point();
    assert!(
        s.saturated,
        "this point is chosen to saturate; if the schemes got this much \
         faster, re-tune the rate ({s:?})"
    );
    assert!(
        s.p99_latency.is_finite(),
        "p99 must be finite even past saturation (was +inf before the \
         LatencyRecorder fix); got {}",
        s.p99_latency
    );
    assert!(
        s.p99_latency > 2048.0,
        "the tail should extend past the old histogram's range for this \
         pin to mean anything; got p99 = {} — re-tune the rate/plan",
        s.p99_latency
    );
    assert!(
        s.avg_latency.is_finite() && s.avg_latency > 0.0,
        "sanity: {s:?}"
    );
    // The percentile must dominate the mean — if this inverts, the recorder
    // is mis-bucketing.
    assert!(s.p99_latency >= s.avg_latency, "{s:?}");
}

#[test]
fn healthy_run_is_unaffected_by_the_recorder_swap() {
    // Far below saturation nothing crosses the linear region, where the
    // recorder is bin-for-bin identical to the old histogram.
    let cfg = NetworkConfig::paper_default(Scheme::Dhs { setaside: 8 });
    let s = Network::run_point(
        cfg,
        TenantMixKind::SingleClass,
        TrafficPattern::UniformRandom,
        0.05,
        RunPlan::new(500, 2_000, 500),
    )
    .summary;
    assert!(!s.saturated, "{s:?}");
    assert!(s.p99_latency.is_finite() && s.p99_latency < 2048.0, "{s:?}");
}
