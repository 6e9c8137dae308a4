//! Simulator-throughput baseline: cycles/sec and ns/packet per scheme.
//!
//! ```text
//! perf [--quick] [--json <path>] [--check <baseline.json>]
//! ```
//!
//! `--json` writes the report; without an explicit path it goes to
//! `BENCH_perf.json` in the working directory. `--check` loads a previously
//! emitted report, validates its schema, and exits non-zero if the current
//! run's aggregate throughput regressed more than the tolerance in
//! [`pnoc_bench::perf::REGRESSION_TOLERANCE`].

use pnoc_bench::perf::{check_regression, measure, validate, PerfReport};
use std::process::ExitCode;

fn main() -> ExitCode {
    if let Err(e) = pnoc_bench::apply_thread_flag() {
        eprintln!("perf: {e}");
        return ExitCode::FAILURE;
    }
    let mut quick = false;
    let mut json_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--json" => {
                // Optional value: a following flag means "use the default".
                if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                    i += 1;
                    json_path = Some(args[i].clone());
                } else {
                    json_path = Some("BENCH_perf.json".into());
                }
            }
            "--check" => {
                if i + 1 >= args.len() || args[i + 1].starts_with("--") {
                    eprintln!("--check requires a baseline path");
                    return ExitCode::FAILURE;
                }
                i += 1;
                check_path = Some(args[i].clone());
            }
            // Value already consumed by apply_thread_flag; skip it here.
            "--threads" => i += 1,
            other => {
                eprintln!("unknown flag {other}; usage: perf [--quick] [--json <path>] [--check <baseline.json>] [--threads N]");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    // Load + validate the baseline *before* the (slow) measurement so a
    // malformed checked-in file fails fast.
    let baseline = match &check_path {
        Some(p) => match load_baseline(p) {
            Ok(b) => Some(b),
            Err(e) => {
                eprintln!("perf: baseline {p}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let report = measure(quick);
    if let Err(e) = validate(&report) {
        eprintln!("perf: fresh report failed validation: {e}");
        return ExitCode::FAILURE;
    }

    println!(
        "{:<18} {:>14} {:>12} {:>14} {:>12}",
        "scheme", "sim cycles", "packets", "cycles/sec", "ns/packet"
    );
    for s in &report.schemes {
        println!(
            "{:<18} {:>14} {:>12} {:>14.3e} {:>12.1}",
            s.scheme, s.simulated_cycles, s.delivered_packets, s.cycles_per_sec, s.ns_per_packet
        );
    }
    println!(
        "aggregate: {:.3e} simulated cycles/sec",
        report.total_cycles_per_sec
    );

    if let Some(path) = &json_path {
        let body = serde_json::to_string_pretty(&report).expect("report serializes");
        if let Err(e) = std::fs::write(path, body + "\n") {
            eprintln!("perf: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }

    if let Some(base) = &baseline {
        match check_regression(base, &report) {
            Ok(v) => println!("baseline check OK: {v}"),
            Err(e) => {
                eprintln!("perf: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn load_baseline(path: &str) -> Result<PerfReport, String> {
    let body = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let report: PerfReport = serde_json::from_str(&body).map_err(|e| format!("parse: {e}"))?;
    validate(&report)?;
    Ok(report)
}
