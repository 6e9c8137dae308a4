//! `pnoc perf`: simulator-throughput baseline, cycles/sec and ns/packet per
//! scheme.
//!
//! ```text
//! pnoc perf [--quick] [--json [<path>]] [--check <baseline.json>] [--threads N]
//! ```
//!
//! `--json` writes the report; without an explicit path it goes to
//! `BENCH_perf.json` in the working directory. `--check` loads a previously
//! emitted report, validates its schema, and fails if the current run's
//! aggregate throughput regressed more than the tolerance in
//! [`pnoc_bench::perf::REGRESSION_TOLERANCE`].

use std::error::Error;

use pnoc_bench::perf::{check_regression, measure, validate, PerfReport};

use crate::args::{unexpected, Args};

pub const USAGE: &str =
    "usage: pnoc perf [--quick] [--json [<path>]] [--check <baseline.json>] [--threads N]";

/// The parsed command line.
#[derive(Default)]
pub struct Opts {
    quick: bool,
    json_path: Option<String>,
    check_path: Option<String>,
}

pub fn parse(args: &mut Args) -> Result<Opts, String> {
    let mut o = Opts::default();
    while let Some(arg) = args.next()? {
        match arg.as_str() {
            "--quick" => o.quick = true,
            // Optional value: a following flag means "use the default".
            "--json" => {
                o.json_path = Some(
                    args.optional_value()
                        .unwrap_or_else(|| "BENCH_perf.json".into()),
                );
            }
            "--check" => o.check_path = Some(args.value(&arg)?),
            _ => return Err(unexpected(&arg)),
        }
    }
    Ok(o)
}

pub fn run(o: Opts) -> Result<(), Box<dyn Error>> {
    let Opts {
        quick,
        json_path,
        check_path,
    } = o;
    // Load + validate the baseline *before* the (slow) measurement so a
    // malformed checked-in file fails fast.
    let baseline = match &check_path {
        Some(p) => Some(load_baseline(p).map_err(|e| format!("baseline {p}: {e}"))?),
        None => None,
    };

    let report = measure(quick);
    validate(&report).map_err(|e| format!("fresh report failed validation: {e}"))?;

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
        std::fs::write(path, body + "\n").map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }

    if let Some(base) = &baseline {
        let v = check_regression(base, &report)?;
        println!("baseline check OK: {v}");
    }
    Ok(())
}

fn load_baseline(path: &str) -> Result<PerfReport, String> {
    let body = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let report: PerfReport = serde_json::from_str(&body).map_err(|e| format!("parse: {e}"))?;
    validate(&report)?;
    Ok(report)
}
