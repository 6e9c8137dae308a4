//! `pnoc fleet`: one-shot fleet sweep runner with resumable checkpointing.
//!
//! ```text
//! pnoc fleet [--spec <path|->] [--qos] [--replay <path|->] [--out <path>]
//!            [--ckpt <path>] [--ckpt-every N] [--kill-after N] [--threads N]
//!            [--verbose]
//! ```
//!
//! Runs a [`SweepSpec`] (JSON from `--spec`, `-` for stdin, or a built-in
//! sweep: the single-tenant demo by default, the multi-tenant QoS demo —
//! every tenant mix under token-bucket admission — with `--qos`) on the
//! work-stealing fleet and writes the deterministic
//! [`pnoc_fleet::SweepReport`] JSON to `--out` (stdout by default). With
//! `--ckpt`, progress snapshots append to the journal and a re-run of the
//! same command resumes instead of recomputing; the final report is
//! byte-identical to an uninterrupted run. `--kill-after N` is the CI kill
//! hook: after exactly N jobs complete in this process, a snapshot is
//! forced and the process exits with [`pnoc_fleet::KILL_EXIT_CODE`].
//!
//! `--replay` switches the job kind from synthetic sweeps to trace replay:
//! the JSON is a [`pnoc_fleet::ReplaySpec`] naming PTRC shards, every
//! (scheme, shard) pair replays as one fleet job, and the output is the
//! deterministic [`pnoc_fleet::ReplayReport`]. Replay sweeps are
//! recompute-cheap (streamed from disk), so they have no checkpoint path
//! and no per-cell callback: `--replay` refuses the checkpoint flags and
//! `--verbose`.

use std::error::Error;
use std::io::Read;
use std::path::PathBuf;
use std::sync::Arc;

use pnoc_fleet::{run_replay, run_sweep, Fleet, ReplaySpec, SweepOptions, SweepSpec};

use crate::args::{unexpected, Args};

pub const USAGE: &str = "usage: pnoc fleet [--spec <path|->] [--qos] [--replay <path|->] \
     [--out <path>] [--ckpt <path>] [--ckpt-every N] [--kill-after N] [--threads N] [--verbose]";

/// The parsed command line.
#[derive(Default)]
pub struct Opts {
    spec: Option<String>,
    qos: bool,
    replay: Option<String>,
    out: Option<String>,
    ckpt: Option<PathBuf>,
    /// `None` unless given, so `--replay` can refuse it; runs use 8.
    ckpt_every: Option<u64>,
    kill_after: Option<u64>,
    verbose: bool,
}

/// Parse the arguments after `fleet`, refusing flags that conflict.
pub fn parse(args: &mut Args) -> Result<Opts, String> {
    let mut o = Opts::default();
    while let Some(arg) = args.next()? {
        match arg.as_str() {
            "--spec" => o.spec = Some(args.value(&arg)?),
            "--replay" => o.replay = Some(args.value(&arg)?),
            "--out" => o.out = Some(args.value(&arg)?),
            "--ckpt" => o.ckpt = Some(args.value(&arg)?.into()),
            "--ckpt-every" => o.ckpt_every = Some(args.num(&arg)?),
            "--kill-after" => o.kill_after = Some(args.num(&arg)?),
            "--verbose" => o.verbose = true,
            "--qos" => o.qos = true,
            _ => return Err(unexpected(&arg)),
        }
    }
    if o.replay.is_some()
        && (o.spec.is_some()
            || o.qos
            || o.ckpt.is_some()
            || o.ckpt_every.is_some()
            || o.kill_after.is_some()
            || o.verbose)
    {
        return Err("--replay is its own job kind; \
             drop --spec/--qos/--ckpt/--ckpt-every/--kill-after/--verbose"
            .into());
    }
    if o.qos && o.spec.is_some() {
        return Err(
            "--qos selects the built-in QoS demo; drop --spec or encode the axis there".into(),
        );
    }
    if o.kill_after.is_some() && o.ckpt.is_none() {
        return Err("--kill-after without --ckpt would lose all work".into());
    }
    Ok(o)
}

pub fn run(o: Opts) -> Result<(), Box<dyn Error>> {
    if let Some(rp) = &o.replay {
        return run_replay_mode(rp, o.out.as_deref());
    }
    let spec = load_spec(o.spec.as_deref(), o.qos)?;
    let mut opts = SweepOptions {
        checkpoint: o.ckpt,
        ckpt_every: o.ckpt_every.unwrap_or(8),
        kill_after: o.kill_after,
        ..SweepOptions::default()
    };
    if o.verbose {
        opts.on_cell = Some(Arc::new(|cell| {
            eprintln!(
                "cell {} {} {} @ {:.3}: {} jobs folded",
                cell.scheme, cell.pattern, cell.mix, cell.rate, cell.jobs
            );
        }));
    }

    let fleet = Fleet::with_default_threads();
    eprintln!(
        "fleet: {} jobs across {} cells on {} worker(s)",
        spec.total_jobs(),
        spec.cells(),
        fleet.threads()
    );
    let outcome = run_sweep(&fleet, &spec, opts)?;
    eprintln!(
        "fleet: {} resumed, {} executed, complete={}",
        outcome.resumed_jobs, outcome.executed_jobs, outcome.report.complete
    );
    let body = serde_json::to_string_pretty(&outcome.report).expect("report serializes");
    write_report(body, o.out.as_deref())
}

/// Load a [`ReplaySpec`], fan its (scheme, shard) jobs across the fleet,
/// and write the deterministic [`pnoc_fleet::ReplayReport`].
fn run_replay_mode(path: &str, out_path: Option<&str>) -> Result<(), Box<dyn Error>> {
    let text = read_input(path).map_err(|e| format!("reading replay spec {path}: {e}"))?;
    let spec: ReplaySpec =
        serde_json::from_str(&text).map_err(|e| format!("parsing replay spec JSON: {e}"))?;
    let fleet = Fleet::with_default_threads();
    eprintln!(
        "fleet: replaying {} shard(s) through {} scheme(s) = {} job(s) on {} worker(s)",
        spec.shards.len(),
        spec.schemes.len(),
        spec.total_jobs(),
        fleet.threads()
    );
    let report = run_replay(&fleet, &spec).map_err(|e| format!("replay failed: {e}"))?;
    let body = serde_json::to_string_pretty(&report).expect("report serializes");
    write_report(body, out_path)
}

/// Write a report to `out_path` and say so, or print it to stdout.
fn write_report(body: String, out_path: Option<&str>) -> Result<(), Box<dyn Error>> {
    match out_path {
        Some(p) => {
            std::fs::write(p, body + "\n").map_err(|e| format!("writing {p}: {e}"))?;
            eprintln!("wrote {p}");
        }
        None => println!("{body}"),
    }
    Ok(())
}

/// The contents of `path`, or of stdin for `-`.
fn read_input(path: &str) -> std::io::Result<String> {
    if path == "-" {
        let mut buf = String::new();
        std::io::stdin().read_to_string(&mut buf)?;
        return Ok(buf);
    }
    std::fs::read_to_string(path)
}

fn load_spec(path: Option<&str>, qos: bool) -> Result<SweepSpec, String> {
    let text = match path {
        None if qos => return Ok(SweepSpec::demo_qos()),
        None => return Ok(SweepSpec::demo()),
        Some(p) => read_input(p).map_err(|e| format!("reading spec {p}: {e}"))?,
    };
    let spec: SweepSpec =
        serde_json::from_str(&text).map_err(|e| format!("parsing spec JSON: {e}"))?;
    spec.validate()?;
    Ok(spec)
}
