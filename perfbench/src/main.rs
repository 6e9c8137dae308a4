//! The repository benchmark: one command, four workloads, end-to-end
//! metrics from the shipped entry points and per-layer metrics from
//! instrumented copies of their drivers.
//!
//! ```text
//! perfbench --workload <ring_figure|cmp_closed_loop|trace_replay|fleet_sweep>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run makes one untimed warm-up pass, whose outputs become the
//! reference, then repeats timed passes for `--seconds`. Every later pass
//! must reproduce the reference byte for byte. With `--trace 1`, traced
//! passes alternate with untraced ones; their outputs must equal the
//! reference too, so the per-layer numbers describe the shipped program.
//! The last line of stdout is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end with `--trace 0`, per-layer with
//! `--trace 1`).

mod cmp;
mod common;
mod fleet;
mod prof;
mod replay;
mod report;
mod ring;
mod stats;

use common::{Pass, TracedPass};
use pnoc_noc::NetworkConfig;
use stats::Tally;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Timed passes a run makes at least, however long they take.
const MIN_PASSES: usize = 3;

enum Workload {
    Ring(ring::RingFigure),
    Cmp(cmp::CmpClosedLoop),
    Replay(replay::TraceReplay),
    Fleet(fleet::FleetSweep),
}

impl Workload {
    fn new(name: &str, seed: u64, scratch: &Path) -> Option<Self> {
        Some(match name {
            "ring_figure" => Self::Ring(ring::RingFigure::new(seed)),
            "cmp_closed_loop" => Self::Cmp(cmp::CmpClosedLoop::new(seed)),
            "trace_replay" => Self::Replay(replay::TraceReplay::new(seed, scratch)),
            "fleet_sweep" => Self::Fleet(fleet::FleetSweep::new(seed, scratch)),
            _ => return None,
        })
    }

    fn untraced(&mut self, t: &mut Tally) -> Pass {
        match self {
            Self::Ring(w) => w.untraced(t),
            Self::Cmp(w) => w.untraced(t),
            Self::Replay(w) => w.untraced(t),
            Self::Fleet(w) => w.untraced(t),
        }
    }

    fn traced(&mut self, t: &mut Tally) -> TracedPass {
        match self {
            Self::Ring(w) => w.traced(t),
            Self::Cmp(w) => w.traced(t),
            Self::Replay(w) => w.traced(t),
            Self::Fleet(w) => w.traced(t),
        }
    }

    fn configs(&self) -> Vec<NetworkConfig> {
        match self {
            Self::Ring(w) => w.configs(),
            Self::Cmp(w) => w.configs(),
            Self::Replay(w) => w.configs(),
            Self::Fleet(w) => w.configs(),
        }
    }

    fn threads(&self) -> usize {
        match self {
            Self::Fleet(_) => fleet::WORKERS,
            _ => 1,
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Count one check per output: `got` must equal the reference.
fn check_outputs(tally: &mut Tally, reference: &[String], got: &[String], what: &str) {
    tally.check(reference.len() == got.len(), || {
        format!(
            "{what}: {} outputs, reference has {}",
            got.len(),
            reference.len()
        )
    });
    for (i, (r, g)) in reference.iter().zip(got).enumerate() {
        tally.check(r == g, || {
            format!("{what}: output {i} differs\n  reference {r}\n  got       {g}")
        });
    }
}

/// Where runs keep their trace shard and journal: inside the build
/// directory, so the checkout stays clean.
fn scratch_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    target.join(format!("perfbench-scratch-{}", std::process::id()))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let scratch = scratch_dir();
    let Some(mut wl) = Workload::new(&args.workload, args.seed, &scratch) else {
        eprintln!(
            "perfbench: unknown workload {:?} (ring_figure, cmp_closed_loop, trace_replay, fleet_sweep)",
            args.workload
        );
        return ExitCode::from(2);
    };
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }

    let mut tally = Tally::default();
    let reference = wl.untraced(&mut tally).outputs;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut passes = Vec::new();
    let mut traced = Vec::new();
    while passes.len() < MIN_PASSES || Instant::now() < deadline {
        let p = wl.untraced(&mut tally);
        check_outputs(&mut tally, &reference, &p.outputs, "untraced pass");
        passes.push(p);
        if args.trace {
            let tp = wl.traced(&mut tally);
            check_outputs(
                &mut tally,
                &reference,
                &tp.pass.outputs,
                "traced pass vs shipped path",
            );
            traced.push(tp);
        }
    }
    let idle_step_ns = args.trace.then(|| common::idle_step_ns(&wl.configs()));
    if let Err(e) = std::fs::remove_dir_all(&scratch) {
        eprintln!("perfbench: remove {}: {e}", scratch.display());
    }

    let run = report::Run {
        workload: &args.workload,
        seed: args.seed,
        threads: wl.threads(),
        passes: &passes,
        tally,
    };
    let metrics = match idle_step_ns {
        None => report::end_to_end(&run),
        Some(idle) => report::per_layer(&run, &traced, idle),
    };
    report::print(&run, &metrics);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn parses_the_benchmark_flags() {
        let a = args(&[
            "--workload",
            "ring_figure",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid flags");
        assert_eq!(a.workload, "ring_figure");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--bogus", "1"]).is_err());
    }

    #[test]
    fn output_mismatches_count_as_failures() {
        let r = vec!["a".to_string(), "b".to_string()];
        let mut t = Tally::default();
        check_outputs(&mut t, &r, &r.clone(), "same");
        assert_eq!((t.attempted, t.failed), (3, 0));
        check_outputs(
            &mut t,
            &r,
            &["a".to_string(), "c".to_string()],
            "self-test mismatch",
        );
        assert_eq!((t.attempted, t.failed), (6, 1));
    }
}
