//! Observability demo: run a deliberately saturated 64-node UR workload on
//! DHS with the event trace and occupancy sampler attached at run time,
//! then export everything `pnoc-obs` produces. Outputs (under
//! `--out <dir>`, default `results/obs`):
//!
//! * `obs_trace.json`      — packet-lifecycle event trace (ring-buffer tail)
//! * `obs_occupancy.csv`   — per-channel occupancy/credit/setaside series
//! * `obs_occupancy.svg`   — occupancy timeline rendered per channel
//! * `obs_summary.json`    — the run's `RunSummary`
//!
//! The run is pushed past saturation on purpose: the point of the demo is
//! that `p99_latency` stays finite (the old 2048-bin histogram reported
//! `+inf` here) while `saturated` still flags the regime honestly.

use pnoc_bench::figures::PAPER_SETASIDE;
use pnoc_noc::{Network, NetworkConfig, Scheme};
use pnoc_sim::RunPlan;
use pnoc_traffic::pattern::TrafficPattern;
use std::path::PathBuf;

fn out_dir_from_args() -> PathBuf {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results/obs"))
}

fn main() {
    if let Err(e) = pnoc_bench::apply_thread_flag() {
        eprintln!("obs: {e}");
        std::process::exit(1);
    }
    let quick = std::env::args().any(|a| a == "--quick");
    let out = out_dir_from_args();

    // 64-node paper configuration, driven well past the DHS saturation
    // throughput under uniform-random traffic.
    let cfg = NetworkConfig::paper_default(Scheme::Dhs {
        setaside: PAPER_SETASIDE,
    });
    let rate = 0.5;
    let plan = if quick {
        RunPlan::new(500, 3_000, 500)
    } else {
        RunPlan::new(2_000, 12_000, 2_000)
    };

    let mut net = Network::new(cfg).expect("valid config");
    net.attach_trace(1 << 16);
    net.attach_sampler(if quick { 16 } else { 64 });

    let mut src = pnoc_noc::sources::SyntheticSource::new(
        TrafficPattern::UniformRandom,
        rate,
        cfg.nodes,
        cfg.cores_per_node,
        cfg.seed ^ 0x0B5E_0001,
    );
    let summary = net.run_open_loop(&mut src, plan);

    println!(
        "DHS w/ Setaside {PAPER_SETASIDE}, UR rate {rate} pkt/cycle/core, {} nodes",
        cfg.nodes
    );
    println!(
        "  delivered {:>8}   avg latency {:>10.1}   p99 {:>10.1}   saturated: {}",
        summary.delivered, summary.avg_latency, summary.p99_latency, summary.saturated
    );
    assert!(
        summary.p99_latency.is_finite(),
        "recorder must report a finite p99 even past saturation"
    );
    assert!(summary.saturated, "this demo is meant to saturate the ring");

    let trace = net.trace().expect("trace attached");
    let sampler = net.sampler().expect("sampler attached");
    println!(
        "  trace: {} events held ({} overwritten)   sampler: {} samples ({} dropped)",
        trace.len(),
        trace.dropped(),
        sampler.samples().len(),
        sampler.dropped()
    );

    std::fs::create_dir_all(&out).expect("create output dir");
    let trace_path = pnoc_bench::export::write_json(&out, "obs_trace", &trace.export())
        .expect("write trace json");
    println!("wrote {}", trace_path.display());

    let csv_path = out.join("obs_occupancy.csv");
    std::fs::write(&csv_path, sampler.to_csv()).expect("write occupancy csv");
    println!("wrote {}", csv_path.display());

    let buf = u32::try_from(cfg.input_buffer).expect("buffer fits u32");
    let svg = pnoc_obs::svg::render_occupancy_svg(
        "DHS per-channel buffer occupancy (saturated UR)",
        sampler.samples(),
        buf.max(1),
    );
    let svg_path = out.join("obs_occupancy.svg");
    std::fs::write(&svg_path, svg).expect("write occupancy svg");
    println!("wrote {}", svg_path.display());

    let summary_path =
        pnoc_bench::export::write_json(&out, "obs_summary", &summary).expect("write summary json");
    println!("wrote {}", summary_path.display());
}
