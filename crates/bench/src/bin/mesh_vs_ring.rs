//! Motivation study (§I / §II-C): the electrical 2D-mesh baseline against
//! the nanophotonic ring at 64 nodes.
//!
//! Two claims to quantify:
//! 1. hop-by-hop electrical latency vs the ring's single photonic hop,
//! 2. credit-based flow control *works* on 1-cycle electrical links (2-flit
//!    buffers ≈ 8-flit buffers) while the optical ring's long credit loop is
//!    exactly what the paper's handshake removes.

use pnoc_bench::{Fidelity, Table};

fn main() {
    let curves = pnoc_bench::figures::mesh_vs_ring(Fidelity::from_args());
    println!("64 nodes, UR — latency (cycles) vs load (pkt/cycle/core)");
    let mut header = vec!["network".to_string()];
    header.extend(curves[0].points.iter().map(|(r, _)| format!("{r}")));
    let mut t = Table::new(header);
    for c in &curves {
        t.row_f64(&c.label, &c.latencies(), 1);
    }
    println!("{}", t.render());
    println!(
        "takeaways: the mesh needs only 2-flit buffers (3-cycle electrical credit\n\
         loop — §II-C's point) but pays ~3 cycles per hop; the photonic ring is\n\
         one hop at light speed, and the handshake schemes keep its flow control\n\
         buffer-independent too."
    );
}
