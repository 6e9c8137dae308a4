//! SWMR extension study (paper §II-B): the handshake schemes applied to a
//! single-writer multiple-reader fabric, where no channel arbitration exists
//! and flow control is the whole story.
//!
//! Shapes to expect: SWMR handshake needs only the same small buffers as
//! MWSR (performance independent of buffer size), while partitioned credits
//! force `N−1`-slot receiver buffers *and* HOL-block each source's single
//! output queue once any destination's credit is exhausted.

use pnoc_bench::{Fidelity, Table};

fn main() {
    let curves = pnoc_bench::figures::swmr(Fidelity::from_args());
    println!("SWMR fabric, UR — latency (cycles) vs load (pkt/cycle/core)");
    let mut header = vec!["flow control (buffer)".to_string()];
    header.extend(curves[0].points.iter().map(|(r, _)| format!("{r}")));
    let mut t = Table::new(header);
    for c in &curves {
        t.row_f64(&c.label, &c.latencies(), 1);
    }
    println!("{}", t.render());
    println!(
        "note: partitioned credits refuse to build with B < N−1; handshake keeps\n\
         working down to a handful of buffer slots — the paper's scalability claim\n\
         carried over to SWMR."
    );
}
