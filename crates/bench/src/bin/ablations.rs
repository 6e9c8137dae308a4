//! Ablation studies beyond the paper's figures (DESIGN.md §6):
//!
//! 1. **Ring size** — the paper argues credit-based flow control degrades as
//!    the ring's round trip grows; sweep network size with proportionate
//!    segment counts and compare token slot vs DHS w/ setaside.
//! 2. **Ejection bandwidth** — the home's drain rate bounds the credit loop;
//!    check its effect on both flow-control families.
//! 3. **Fairness** — with setaside/circulation, nodes near the home can
//!    starve downstream nodes; measure Jain's index with and without the
//!    sit-out policy (§III-D).

use pnoc_bench::figures::PAPER_SETASIDE;
use pnoc_bench::{fleet, Fidelity, Table};
use pnoc_noc::{FairnessPolicy, Network, NetworkConfig, Scheme};
use pnoc_traffic::classes::TenantMixKind;
use pnoc_traffic::pattern::TrafficPattern;

fn main() {
    let fid = Fidelity::from_args();
    let plan = fid.plan();
    let dhs = Scheme::Dhs {
        setaside: PAPER_SETASIDE,
    };

    // 1. Ring-size scaling at a fixed offered load.
    println!("Ablation 1 — ring size (round-trip time) scaling, UR @ 0.09");
    let sizes = [(32usize, 4usize), (64, 8), (128, 16)];
    let mut t = Table::new(["scheme", "N=32,R=4", "N=64,R=8", "N=128,R=16"]);
    for scheme in [Scheme::TokenSlot, dhs] {
        let lat = fleet().map(sizes.to_vec(), move |_, &(nodes, segments)| {
            let mut cfg = NetworkConfig::paper_default(scheme);
            cfg.nodes = nodes;
            cfg.ring_segments = segments;
            let s = Network::run_point(
                cfg,
                TenantMixKind::SingleClass,
                TrafficPattern::UniformRandom,
                0.09,
                plan,
            )
            .summary;
            if s.saturated {
                f64::INFINITY
            } else {
                s.avg_latency
            }
        });
        t.row_f64(&scheme.label(), &lat, 1);
    }
    println!("{}", t.render());

    // 2. Ejection bandwidth.
    println!("Ablation 2 — home ejection bandwidth, UR @ 0.13");
    let mut t = Table::new(["scheme", "eject=1", "eject=2"]);
    for scheme in [Scheme::TokenSlot, dhs] {
        let lat = fleet().map(vec![1usize, 2], move |_, &e| {
            let mut cfg = NetworkConfig::paper_default(scheme);
            cfg.ejection_per_cycle = e;
            let s = Network::run_point(
                cfg,
                TenantMixKind::SingleClass,
                TrafficPattern::UniformRandom,
                0.13,
                plan,
            )
            .summary;
            if s.saturated {
                f64::INFINITY
            } else {
                s.avg_latency
            }
        });
        t.row_f64(&scheme.label(), &lat, 1);
    }
    println!("{}", t.render());

    // 3. Fairness policy on a contended (hotspot) channel.
    println!("Ablation 3 — sit-out fairness, DHS w/ Circulation, hotspot(30% → node 0) @ 0.06");
    let policies = [
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
    ];
    let mut t = Table::new([
        "policy",
        "Jain worst",
        "Jain avg",
        "avg latency",
        "throughput",
    ]);
    let rows = fleet().map(policies.to_vec(), move |_, &(_, policy)| {
        let mut cfg = NetworkConfig::paper_default(Scheme::DhsCirculation);
        cfg.fairness = policy;
        Network::run_point(
            cfg,
            TenantMixKind::SingleClass,
            TrafficPattern::Hotspot {
                target: 0,
                fraction: 0.30,
            },
            0.06,
            plan,
        )
        .summary
    });
    for ((name, _), s) in policies.iter().zip(rows) {
        t.row_f64(
            name,
            &[
                s.jain_worst,
                s.jain_fairness,
                s.avg_latency,
                s.throughput_per_core,
            ],
            3,
        );
    }
    println!("{}", t.render());
}
