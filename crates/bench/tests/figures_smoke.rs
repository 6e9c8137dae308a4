//! Quick-fidelity smoke runs of the figure computations themselves, so the
//! exact code the harness binaries execute is covered by `cargo test`.

use pnoc_bench::figures::{self, Fidelity};

#[test]
fn fig12_pipeline_produces_paper_shapes() {
    let rows = figures::fig12(Fidelity::Quick);
    assert_eq!(rows.len(), 7, "all seven schemes priced");
    // Laser + heating dominate everywhere.
    for r in &rows {
        assert!(
            r.breakdown.static_fraction() > 0.6,
            "{}: static share {}",
            r.label,
            r.breakdown.static_fraction()
        );
        assert!(r.energy_per_packet_j.is_finite() && r.energy_per_packet_j > 0.0);
    }
    // Token slot is the cheapest total.
    let ts = rows
        .iter()
        .find(|r| r.label == "Token Slot")
        .expect("token slot row");
    for r in &rows {
        assert!(
            r.breakdown.total_w() >= ts.breakdown.total_w() - 1e-9,
            "{} cheaper than token slot",
            r.label
        );
    }
    // Circulation's energy/packet within 10% of DHS w/ setaside.
    let dhs = rows.iter().find(|r| r.label == "DHS w/ Setaside").unwrap();
    let cir = rows
        .iter()
        .find(|r| r.label == "DHS w/ Circulation")
        .unwrap();
    let rel = (cir.energy_per_packet_j - dhs.energy_per_packet_j).abs() / dhs.energy_per_packet_j;
    assert!(rel < 0.1, "circulation energy overhead {rel}");
}

/// Fig. 10: the handshake schemes beat their baselines on the application
/// traces, and by the most on the network-intensive NAS kernels.
#[test]
fn fig10_handshake_gains_peak_on_nas() {
    let (global, distributed) = figures::fig10(Fidelity::Quick);
    for (results, scheme, baseline, floor) in [
        (&global, "GHS w/ Setaside", "Token Channel", 0.2),
        (&distributed, "DHS", "Token Slot", 0.05),
    ] {
        assert_eq!(results.len(), 13, "all thirteen applications replayed");
        assert_eq!(results[0].latencies[0].0, baseline);
        let idx = results[0]
            .latencies
            .iter()
            .position(|(label, _)| label == scheme)
            .expect("scheme column");
        let reduction = figures::mean_latency_reduction(results, idx);
        assert!(
            reduction > floor,
            "{scheme} vs {baseline}: mean reduction {reduction}"
        );
        let gain = |r: &figures::TraceResult| 1.0 - r.latencies[idx].1 / r.latencies[0].1;
        let best = results
            .iter()
            .max_by(|a, b| gain(a).total_cmp(&gain(b)))
            .expect("non-empty");
        assert!(
            best.app == "nas.cg" || best.app == "nas.is",
            "{scheme} vs {baseline}: largest gain on {}",
            best.app
        );
    }
}

#[test]
fn fig11_setaside_study_shows_small_buffers_suffice() {
    let rows = figures::fig11_setaside(Fidelity::Quick);
    assert_eq!(rows.len(), 2, "GHS and DHS rows");
    for (label, points) in &rows {
        assert_eq!(points.len(), 5, "{label}: sizes 1,2,4,8,16");
        let l2 = points[1].1; // setaside = 2
        let l16 = points[4].1; // setaside = 16
        assert!(
            l2.is_finite() && l16.is_finite(),
            "{label}: UR 0.11 must be sustainable at small setaside"
        );
        assert!(
            (l2 - l16).abs() < 0.25 * l16.max(1.0),
            "{label}: setaside 2 within 25% of 16 ({l2} vs {l16})"
        );
    }
}

#[test]
fn table1_is_exact() {
    let rows = figures::table1();
    let rings: Vec<&str> = rows.iter().map(|r| r.4.as_str()).collect();
    assert_eq!(rings, ["1024K", "1028K", "1028K", "1040K"]);
}

#[test]
fn resilience_handshake_survives_credit_schemes_collapse() {
    // The resilience sweep on the small geometry (fast enough for a debug
    // test); the binary runs the same code on the paper-scale network.
    use pnoc_noc::NetworkConfig;
    use pnoc_sim::RunPlan;
    let rates = [0.0, 1e-5, 1e-3];
    let curves = figures::resilience_curves(
        &rates,
        figures::RESILIENCE_LOAD,
        RunPlan::quick(),
        NetworkConfig::small,
    );
    assert_eq!(curves.len(), 5, "five schemes swept");
    for c in &curves {
        assert_eq!(c.points.len(), rates.len());
        // Fault rate 0 through the engine must look healthy for everyone.
        let (r0, s0) = &c.points[0];
        assert_eq!(*r0, 0.0);
        assert_eq!(s0.lost_packets, 0, "{}: loss without faults", c.label);
        assert_eq!(s0.credit_leaks, 0, "{}: leak without faults", c.label);
        assert!(!s0.saturated, "{}: saturated at healthy load", c.label);
    }
    let handshake = |label: &str| label.contains("GHS") || label == "DHS w/ Setaside";
    for c in curves.iter().filter(|c| handshake(&c.label)) {
        for (rate, s) in &c.points {
            assert_eq!(s.lost_packets, 0, "{} lost packets at {rate:e}", c.label);
            assert_eq!(s.abandoned, 0, "{} abandoned at {rate:e}", c.label);
            assert_eq!(s.credit_leaks, 0, "{} leaked at {rate:e}", c.label);
        }
        // Latency inflation stays bounded even at the harshest rate.
        let healthy = c.points[0].1.avg_latency;
        let worst = c.points.last().expect("points").1.avg_latency;
        assert!(
            worst < 2.0 * healthy,
            "{}: latency inflated {healthy} -> {worst}",
            c.label
        );
        assert!(
            c.points.last().expect("points").1.timeout_retransmissions > 0,
            "{}: recovery never exercised at 1e-3",
            c.label
        );
    }
    // Both credit baselines lose packets and leak credits at the top rate.
    for label in ["Token Channel", "Token Slot"] {
        let c = curves
            .iter()
            .find(|c| c.label == label)
            .expect("baseline row");
        let (_, worst) = c.points.last().expect("points");
        assert!(
            worst.lost_packets > 0,
            "{label} should lose packets at 1e-3"
        );
        assert!(
            worst.credit_leaks > 0,
            "{label} should leak credits at 1e-3"
        );
    }
}
