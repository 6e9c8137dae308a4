//! Fairness audit (paper §III-D): with setaside buffers or circulation,
//! senders near a home node grab tokens first and can starve downstream
//! nodes on a *contended* channel. The sit-out policy (after Vantrease's
//! Fair Slot) trades a little throughput for a much fairer share.
//!
//! A hotspot pattern makes the effect visible: under uniform random traffic
//! each channel is lightly contended and fairness is a non-issue; a hot home
//! node concentrates all 63 senders on one token stream.
//!
//! Run with: `cargo run --release --example fairness_audit`

use nanophotonic_handshake::prelude::*;

fn main() {
    let plan = RunPlan::new(4_000, 16_000, 2_000);
    let pattern = TrafficPattern::Hotspot {
        target: 0,
        fraction: 0.30,
    };
    let rate = 0.06; // saturates the hot channel, not the rest

    println!("DHS w/ Circulation, hotspot(30% → node 0) @ {rate} pkt/cycle/core\n");
    println!(
        "{:<14} {:>11} {:>9} {:>12} {:>12} {:>8}",
        "policy", "Jain worst", "Jain avg", "avg latency", "throughput", "p99"
    );
    for (name, policy) in [
        ("none", FairnessPolicy::None),
        (
            "sit-out(1,16)",
            FairnessPolicy::SitOut {
                serve_quota: 1,
                sit_out: 16,
            },
        ),
        (
            "sit-out(1,32)",
            FairnessPolicy::SitOut {
                serve_quota: 1,
                sit_out: 32,
            },
        ),
        (
            "sit-out(1,48)",
            FairnessPolicy::SitOut {
                serve_quota: 1,
                sit_out: 48,
            },
        ),
    ] {
        let mut cfg = NetworkConfig::paper_default(Scheme::DhsCirculation);
        cfg.fairness = policy;
        let s = Network::run_point(cfg, TenantMixKind::SingleClass, pattern, rate, plan).summary;
        println!(
            "{:<14} {:>11.3} {:>9.3} {:>12.1} {:>12.4} {:>8.0}",
            name,
            s.jain_worst,
            s.jain_fairness,
            s.avg_latency,
            s.throughput_per_core,
            s.p99_latency
        );
    }
    println!(
        "\nJain worst = fairness of the most contended channel (1.0 = every sender\n\
         served equally; 1/63 ≈ 0.016 = one sender monopolizes). Stronger sit-out\n\
         policies equalize service at a small throughput and latency cost."
    );
}
