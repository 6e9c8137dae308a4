//! Fig. 10: communication latency on the 13 application traces
//! (synthesized stand-ins for the paper's Simics extractions — see DESIGN.md).
//!
//! Shapes to reproduce: handshake schemes beat their baselines on real-app
//! traffic; GHS cuts latency substantially vs token channel (paper: ~42 %
//! average, up to 59 %), DHS modestly vs token slot (~4 %); the gains are
//! largest on the network-intensive NAS kernels.

use pnoc_bench::figures::mean_latency_reduction;
use pnoc_bench::{Fidelity, Table};
use pnoc_traffic::stats::StatsAccumulator;

fn main() {
    let fid = Fidelity::from_args();

    // Workload characterization (what a paper's table of benchmarks shows).
    println!("Workload characterization (synthesized traces)");
    let mut wt = Table::new([
        "application",
        "rate/core",
        "burstiness",
        "dest entropy",
        "hotspot x",
        "req frac",
    ]);
    let dims = pnoc_noc::NetworkConfig::paper_default(pnoc_noc::Scheme::TokenSlot);
    for app in pnoc_traffic::apps::all_paper_apps() {
        let length = 20_000;
        let mut acc = StatsAccumulator::new(dims.cores(), dims.nodes, length, 64);
        app.synthesize(dims.cores(), dims.nodes, length, 0x00F1_6010, |ev| {
            acc.record(&ev);
            Ok(())
        })
        .expect("the accumulator never fails");
        let s = acc.finalize(app.name);
        wt.row_f64(
            &s.name,
            &[
                s.rate_per_core,
                s.burstiness,
                s.destination_entropy,
                s.hotspot_factor,
                s.request_fraction,
            ],
            3,
        );
    }
    println!("{}", wt.render());

    let (global, distributed) = pnoc_bench::figures::fig10(fid);
    pnoc_bench::export::maybe_export("fig10", &(&global, &distributed));

    for (title, results) in [
        ("Fig. 10(a) — Global Handshake group", &global),
        ("Fig. 10(b) — Distributed Handshake group", &distributed),
    ] {
        let mut header = vec!["application".to_string()];
        header.extend(results[0].latencies.iter().map(|(l, _)| l.clone()));
        let mut t = Table::new(header);
        for r in results {
            let values: Vec<f64> = r.latencies.iter().map(|(_, v)| *v).collect();
            t.row_f64(&r.app, &values, 1);
        }
        println!("{title} — average latency (cycles)");
        println!("{}", t.render());
        for idx in 1..results[0].latencies.len() {
            let red = mean_latency_reduction(results, idx);
            println!(
                "  mean latency reduction of {} vs {}: {:.1}%",
                results[0].latencies[idx].0,
                results[0].latencies[0].0,
                red * 100.0
            );
        }
        println!();
    }
}
