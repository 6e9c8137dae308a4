//! Compare all seven arbitration/flow-control schemes on the same workload —
//! the experiment that motivates the paper: credit-coupled token arbitration
//! (token channel, token slot) against the handshake family (GHS, DHS, and
//! their setaside/circulation variants).
//!
//! Run with: `cargo run --release --example scheme_showdown [--pattern BC]`

use nanophotonic_handshake::prelude::*;
use pnoc_fleet::Fleet;

fn main() {
    let pattern = match std::env::args().position(|a| a == "--pattern") {
        Some(i) => match std::env::args().nth(i + 1).as_deref() {
            Some("BC") => TrafficPattern::BitComplement,
            Some("TOR") => TrafficPattern::Tornado,
            _ => TrafficPattern::UniformRandom,
        },
        None => TrafficPattern::UniformRandom,
    };
    let rates = [0.01, 0.05, 0.09, 0.13, 0.17, 0.21];
    let schemes = Scheme::paper_set(8);
    let plan = RunPlan::new(4_000, 16_000, 2_000);

    println!(
        "pattern: {}  (latency in cycles; SAT = saturated)\n",
        pattern.label()
    );
    print!("{:<20}", "scheme");
    for r in rates {
        print!("{r:>8.2}");
    }
    println!();

    // Every (scheme, rate) point is an independent simulation; fan out.
    let jobs: Vec<(Scheme, f64)> = schemes
        .iter()
        .flat_map(|&s| rates.iter().map(move |&r| (s, r)))
        .collect();
    let results = Fleet::with_default_threads().map(jobs, move |_, &(scheme, rate)| {
        let cfg = NetworkConfig::paper_default(scheme);
        Network::run_point(cfg, TenantMixKind::SingleClass, pattern, rate, plan).summary
    });

    for (si, scheme) in schemes.iter().enumerate() {
        print!("{:<20}", scheme.label());
        for ri in 0..rates.len() {
            let s = &results[si * rates.len() + ri];
            if s.saturated {
                print!("{:>8}", "SAT");
            } else {
                print!("{:>8.1}", s.avg_latency);
            }
        }
        println!();
    }

    // The paper's headline: handshake improves throughput up to 62%.
    let sat = |scheme: Scheme| {
        schemes
            .iter()
            .position(|&s| s == scheme)
            .map(|si| {
                rates
                    .iter()
                    .enumerate()
                    .filter(|(ri, _)| !results[si * rates.len() + ri].saturated)
                    .map(|(_, &r)| r)
                    .fold(0.0f64, f64::max)
            })
            .expect("scheme in set")
    };
    let ts = sat(Scheme::TokenSlot);
    let cir = sat(Scheme::DhsCirculation);
    println!(
        "\nsaturation bandwidth: token slot {ts:.2}, DHS w/ circulation {cir:.2} (+{:.0}%)",
        (cir / ts - 1.0) * 100.0
    );
}
