//! Resilience: deterministic fault-injection sweep across the five schemes.
//!
//! Sweeps a uniform per-cycle fault rate (data loss/corruption, ACK loss,
//! token loss) from 0 to 1e-3 under UR at a load every scheme sustains when
//! healthy. Shape to reproduce: the handshake schemes (GHS/DHS) absorb every
//! fault class through NACKs plus ACK-timeout retransmission — zero lost
//! packets, bounded latency inflation — while the credit baselines leak
//! unreturnable credits (token-channel credits die with flits/tokens, token
//! slot reservations are never released) and lose packets outright.

use pnoc_bench::figures::{FAULT_RATES, RESILIENCE_LOAD};
use pnoc_bench::{Fidelity, Table};

fn main() {
    if let Err(e) = pnoc_bench::apply_thread_flag() {
        eprintln!("resilience: {e}");
        std::process::exit(1);
    }
    let fid = Fidelity::from_args();
    let curves = pnoc_bench::figures::resilience(fid);
    let mut header = vec!["scheme".to_string()];
    header.extend(FAULT_RATES.iter().map(|r| format!("{r:e}")));

    println!(
        "Resilience — uniform per-cycle fault rate sweep, UR load {RESILIENCE_LOAD} pkt/cycle/core"
    );
    let mut t = Table::new(header.clone());
    for c in &curves {
        t.row_f64(&c.label, &c.latencies(), 1);
    }
    println!("mean latency (cycles; ∞ = saturated/wedged)");
    println!("{}", t.render());

    let mut t = Table::new(header.clone());
    for c in &curves {
        t.row(
            std::iter::once(c.label.clone())
                .chain(c.points.iter().map(|(_, s)| s.lost_packets.to_string())),
        );
    }
    println!("lost packets (generated − delivered after drain grace)");
    println!("{}", t.render());

    let mut t = Table::new(header.clone());
    for c in &curves {
        t.row(
            std::iter::once(c.label.clone())
                .chain(c.points.iter().map(|(_, s)| s.credit_leaks.to_string())),
        );
    }
    println!("credit leaks (flow-control state destroyed beyond recovery)");
    println!("{}", t.render());

    let mut t = Table::new(header);
    for c in &curves {
        t.row(
            std::iter::once(c.label.clone()).chain(c.points.iter().map(|(_, s)| {
                format!(
                    "{} ({} dup)",
                    pnoc_bench::table::fmt_f64(s.retransmit_rate, 4),
                    s.duplicates
                )
            })),
        );
    }
    println!("retransmit rate per send (and duplicates suppressed at homes)");
    println!("{}", t.render());

    // Verdict: the paper-level reliability claim, checked on this very run.
    for c in &curves {
        let handshake = c.label.contains("GHS") || c.label == "DHS w/ Setaside";
        let lost: u64 = c.points.iter().map(|(_, s)| s.lost_packets).sum();
        let abandoned: u64 = c.points.iter().map(|(_, s)| s.abandoned).sum();
        if handshake {
            let ok = lost == 0 && abandoned == 0;
            println!(
                "{}: {} (lost {lost}, abandoned {abandoned})",
                c.label,
                if ok {
                    "zero loss at every fault rate"
                } else {
                    "VIOLATION"
                }
            );
        } else if lost > 0 {
            let leaks: u64 = c.points.iter().map(|(_, s)| s.credit_leaks).sum();
            println!("{}: lost {lost} packets, leaked {leaks} credits", c.label);
        }
    }

    pnoc_bench::export::maybe_export("resilience", &curves);
    if let Some(dir) = pnoc_bench::plot::svg_dir_from_args() {
        let spec = pnoc_bench::PlotSpec::latency("Resilience (x = per-cycle fault rate)");
        let charts = vec![("resilience".to_string(), spec, curves)];
        for p in pnoc_bench::plot::write_charts(&dir, &charts).expect("write svg") {
            println!("wrote {}", p.display());
        }
    }
}
