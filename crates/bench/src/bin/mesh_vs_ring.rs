//! Motivation study (§I / §II-C): the electrical 2D-mesh baseline against
//! the nanophotonic ring at 64 nodes.
//!
//! Two claims to quantify:
//! 1. hop-by-hop electrical latency vs the ring's single photonic hop,
//! 2. credit-based flow control *works* on 1-cycle electrical links (2-flit
//!    buffers ≈ 8-flit buffers) while the optical ring's long credit loop is
//!    exactly what the paper's handshake removes.

use pnoc_bench::{fleet, Fidelity, Table};
use pnoc_noc::emesh::{MeshConfig, MeshNetwork};
use pnoc_noc::network::run_synthetic_point;
use pnoc_noc::{NetworkConfig, Scheme, SyntheticSource};
use pnoc_traffic::pattern::TrafficPattern;

fn mesh_point(
    cfg: MeshConfig,
    rate: f64,
    plan: pnoc_sim::RunPlan,
) -> pnoc_noc::metrics::RunSummary {
    let mut net = MeshNetwork::new(cfg).expect("valid config");
    let mut src = SyntheticSource::new(
        TrafficPattern::UniformRandom,
        rate,
        cfg.nodes(),
        cfg.cores_per_node,
        cfg.seed ^ 0xACE,
    );
    net.run_open_loop(&mut src, plan)
}

fn main() {
    let fid = Fidelity::from_args();
    let plan = fid.plan();
    let rates = [0.01, 0.02, 0.03, 0.05, 0.07, 0.09, 0.11, 0.13];

    println!("64 nodes, UR — latency (cycles) vs load (pkt/cycle/core)");
    let mut t = Table::new({
        let mut h = vec!["network".to_string()];
        h.extend(rates.iter().map(|r| format!("{r}")));
        h
    });

    // Electrical mesh rows: 2-flit and 8-flit port buffers.
    for buffer in [2usize, 8] {
        let lat = fleet().map(rates.to_vec(), move |_, &rate| {
            let mut cfg = MeshConfig::paper_comparable();
            cfg.input_buffer = buffer;
            let s = mesh_point(cfg, rate, plan);
            if s.saturated {
                f64::INFINITY
            } else {
                s.avg_latency
            }
        });
        t.row_f64(&format!("mesh 8x8 (B={buffer}/port)"), &lat, 1);
    }
    // Optical ring rows: token slot (credit) and DHS w/ setaside (handshake).
    for scheme in [Scheme::TokenSlot, Scheme::Dhs { setaside: 8 }] {
        let lat = fleet().map(rates.to_vec(), move |_, &rate| {
            let cfg = NetworkConfig::paper_default(scheme);
            let s = run_synthetic_point(cfg, TrafficPattern::UniformRandom, rate, plan);
            if s.saturated {
                f64::INFINITY
            } else {
                s.avg_latency
            }
        });
        t.row_f64(&format!("ring 64n ({})", scheme.label()), &lat, 1);
    }
    println!("{}", t.render());
    println!(
        "takeaways: the mesh needs only 2-flit buffers (3-cycle electrical credit\n\
         loop — §II-C's point) but pays ~3 cycles per hop; the photonic ring is\n\
         one hop at light speed, and the handshake schemes keep its flow control\n\
         buffer-independent too."
    );
}
