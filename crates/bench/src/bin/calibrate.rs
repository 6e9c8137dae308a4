//! Quick calibration sweep (developer tool): prints latency vs load for all
//! schemes under UR and BC at paper scale, to sanity-check curve shapes
//! against Figs. 2(b), 8 and 9 before the full harnesses run.

use pnoc_bench::fleet;
use pnoc_noc::network::run_synthetic_point;
use pnoc_noc::{NetworkConfig, Scheme};
use pnoc_sim::RunPlan;
use pnoc_traffic::pattern::TrafficPattern;

fn main() {
    let plan = RunPlan::new(5_000, 20_000, 2_000);
    let rates = [0.01, 0.03, 0.05, 0.09, 0.13, 0.17, 0.21, 0.25];
    let schemes = Scheme::paper_set(8);
    for pattern in [TrafficPattern::UniformRandom, TrafficPattern::BitComplement] {
        println!("== pattern {} ==", pattern.label());
        print!("{:<20}", "scheme/rate");
        for r in rates {
            print!("{r:>9.2}");
        }
        println!();
        let jobs: Vec<(Scheme, f64)> = schemes
            .iter()
            .flat_map(|&s| rates.iter().map(move |&r| (s, r)))
            .collect();
        let results = fleet().map(jobs, move |_, &(scheme, rate)| {
            let cfg = NetworkConfig::paper_default(scheme);
            run_synthetic_point(cfg, pattern, rate, plan)
        });
        for (si, &scheme) in schemes.iter().enumerate() {
            print!("{:<20}", scheme.label());
            for ri in 0..rates.len() {
                let s = &results[si * rates.len() + ri];
                if s.saturated {
                    print!("{:>9}", "SAT");
                } else {
                    print!("{:>9.1}", s.avg_latency);
                }
            }
            println!();
        }
        // Token-slot credit sensitivity (Fig. 2b shape).
        for credits in [4usize, 16] {
            print!("{:<20}", format!("TokenSlot c={credits}"));
            let res = fleet().map(rates.to_vec(), move |_, &rate| {
                let mut cfg = NetworkConfig::paper_default(Scheme::TokenSlot);
                cfg.input_buffer = credits;
                run_synthetic_point(cfg, pattern, rate, plan)
            });
            for s in &res {
                if s.saturated {
                    print!("{:>9}", "SAT");
                } else {
                    print!("{:>9.1}", s.avg_latency);
                }
            }
            println!();
        }
    }
}
