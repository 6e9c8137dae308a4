//! Replay an application trace through the network — the Fig. 10 flow.
//!
//! Synthesizes the `fft` workload trace (a stand-in for the paper's
//! Simics-extracted traces) straight to disk as a PTRC file, then replays
//! that file under the baseline and handshake schemes.
//!
//! Run with: `cargo run --release --example trace_replay [app-name]`

use nanophotonic_handshake::prelude::*;
use nanophotonic_handshake::trace::{
    generate_app, replay_run, StreamingTraceReader, DEFAULT_CHUNK_EVENTS,
};
use nanophotonic_handshake::traffic::apps::Suite;
use std::fs::File;
use std::io::{BufReader, BufWriter};

fn main() {
    let app_name = std::env::args().nth(1).unwrap_or_else(|| "fft".to_string());
    let app = nanophotonic_handshake::traffic::apps::paper_app(&app_name)
        .unwrap_or_else(|| panic!("unknown workload {app_name}; see apps::all_paper_apps()"));

    let cfg = NetworkConfig::paper_default(Scheme::TokenSlot);
    let length = 30_000;
    println!(
        "synthesizing '{}' ({}): {} cores, {} nodes, {} cycles",
        app.name,
        match app.suite {
            Suite::SpecOmp => "SPEComp 2001",
            Suite::Parsec => "PARSEC",
            Suite::Splash2 => "SPLASH-2",
            Suite::Nas => "NAS",
            Suite::SpecJbb => "SPECjbb",
        },
        cfg.cores(),
        cfg.nodes,
        length
    );

    // Stream the synthesis to disk; nothing is held in memory.
    let path = std::env::temp_dir().join(format!("pnoc_trace_{}.ptrc", app.name));
    let sink = BufWriter::new(File::create(&path).expect("create trace file"));
    let (_, stats) = generate_app(
        &app,
        cfg.cores(),
        cfg.nodes,
        length,
        2024,
        DEFAULT_CHUNK_EVENTS,
        sink,
    )
    .expect("write trace");
    println!(
        "  {} messages, {:.4} packets/cycle/core, {} bytes at {}\n",
        stats.events,
        stats.events as f64 / length as f64 / cfg.cores() as f64,
        stats.bytes,
        path.display()
    );

    // Replay the file under both flow-control families.
    let plan = RunPlan::new(5_000, length - 10_000, 3_000);
    for scheme in [
        Scheme::TokenChannel,
        Scheme::Ghs { setaside: 8 },
        Scheme::TokenSlot,
        Scheme::Dhs { setaside: 8 },
    ] {
        let file = BufReader::new(File::open(&path).expect("open trace file"));
        let reader = StreamingTraceReader::open(file).expect("valid trace header");
        let s = replay_run(NetworkConfig::paper_default(scheme), reader, plan).expect("replay");
        println!(
            "{:<18} avg latency {:>6.1} cycles   p99 {:>6.1}   queue wait {:>5.1}",
            scheme.label(),
            s.avg_latency,
            s.p99_latency,
            s.avg_queue_wait
        );
    }
    let _ = std::fs::remove_file(&path);
}
