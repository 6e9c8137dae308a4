//! SWMR extension study (paper §II-B): the handshake schemes applied to a
//! single-writer multiple-reader fabric, where no channel arbitration exists
//! and flow control is the whole story.
//!
//! Shapes to expect: SWMR handshake needs only the same small buffers as
//! MWSR (performance independent of buffer size), while partitioned credits
//! force `N−1`-slot receiver buffers *and* HOL-block each source's single
//! output queue once any destination's credit is exhausted.

use pnoc_bench::{fleet, Fidelity, Table};
use pnoc_noc::swmr::{SwmrConfig, SwmrNetwork};
use pnoc_noc::SyntheticSource;
use pnoc_traffic::pattern::TrafficPattern;

fn run_point(cfg: SwmrConfig, rate: f64, plan: pnoc_sim::RunPlan) -> pnoc_noc::metrics::RunSummary {
    let mut net = SwmrNetwork::new(cfg).expect("valid config");
    let mut src = SyntheticSource::new(
        TrafficPattern::UniformRandom,
        rate,
        cfg.nodes,
        cfg.cores_per_node,
        cfg.seed ^ 0x51_EE7,
    );
    net.run_open_loop(&mut src, plan)
}

fn main() {
    let fid = Fidelity::from_args();
    let plan = fid.plan();
    let rates = [0.01, 0.03, 0.05, 0.07, 0.09, 0.11, 0.13, 0.15];

    println!("SWMR fabric, UR — latency (cycles) vs load (pkt/cycle/core)");
    let mut t = Table::new({
        let mut h = vec!["flow control (buffer)".to_string()];
        h.extend(rates.iter().map(|r| format!("{r}")));
        h
    });
    let variants: Vec<(String, SwmrConfig)> = vec![
        ("credit (B=63)".into(), SwmrConfig::paper_credit()),
        ("handshake (B=8)".into(), SwmrConfig::paper_handshake(0)),
        ("handshake+SA8 (B=8)".into(), SwmrConfig::paper_handshake(8)),
        ("handshake+SA8 (B=4)".into(), {
            let mut c = SwmrConfig::paper_handshake(8);
            c.input_buffer = 4;
            c
        }),
    ];
    let jobs: Vec<(SwmrConfig, f64)> = variants
        .iter()
        .flat_map(|&(_, cfg)| rates.iter().map(move |&r| (cfg, r)))
        .collect();
    let results = fleet().map(jobs, move |_, &(cfg, rate)| run_point(cfg, rate, plan));
    for (v, (label, _)) in variants.iter().enumerate() {
        let lat: Vec<f64> = (0..rates.len())
            .map(|ri| {
                let s = &results[v * rates.len() + ri];
                if s.saturated {
                    f64::INFINITY
                } else {
                    s.avg_latency
                }
            })
            .collect();
        t.row_f64(label, &lat, 1);
    }
    println!("{}", t.render());
    println!(
        "note: partitioned credits refuse to build with B < N−1; handshake keeps\n\
         working down to a handful of buffer slots — the paper's scalability claim\n\
         carried over to SWMR."
    );
}
