//! `pnoc`: every tool of the paper reproduction behind one command line,
//! `pnoc <figure|fleet|serve|obs|trace|perf> …`. Each subcommand's module
//! documents its flags; every subcommand also takes `--threads N`, which
//! sizes the sweep executor.
//!
//! A subcommand parses its whole command line into its own options before
//! anything runs. A malformed command line (an unknown flag, a missing or
//! unparsable value, an extra argument, or flags that conflict) prints
//! `pnoc <tool>: <why>` and the tool's usage on stderr and exits 2. A run
//! that fails prints `pnoc <tool>: <why>` and exits 1; `fleet
//! --kill-after` exits with [`pnoc_fleet::KILL_EXIT_CODE`].

mod args;
mod figure;
mod fleet;
mod obs;
mod perf;
mod serve;
mod trace;

use std::error::Error;
use std::process::ExitCode;

use args::Args;

const USAGE: &str = "usage: pnoc <figure|fleet|serve|obs|trace|perf> [args] [--threads N]";

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let Some(tool) = argv.next() else {
        return refuse("pnoc: missing subcommand", USAGE);
    };
    let args = Args::new(argv);
    match tool.as_str() {
        "figure" => drive("figure", &figure::usage(), figure::parse, figure::run, args),
        "fleet" => drive("fleet", fleet::USAGE, fleet::parse, fleet::run, args),
        "serve" => drive("serve", serve::USAGE, serve::parse, serve::run, args),
        "obs" => drive("obs", obs::USAGE, obs::parse, obs::run, args),
        "trace" => drive("trace", trace::USAGE, trace::parse, trace::run, args),
        "perf" => drive("perf", perf::USAGE, perf::parse, perf::run, args),
        _ => refuse(&format!("pnoc: unknown subcommand {tool}"), USAGE),
    }
}

/// Parse `args` into a tool's options, install `--threads`, and run it.
fn drive<O>(
    tool: &str,
    usage: &str,
    parse: fn(&mut Args) -> Result<O, String>,
    run: fn(O) -> Result<(), Box<dyn Error>>,
    mut args: Args,
) -> ExitCode {
    let opts = match parse(&mut args) {
        Ok(opts) => opts,
        Err(e) => return refuse(&format!("pnoc {tool}: {e}"), usage),
    };
    // Before the first sweep spins up a fleet.
    if let Some(n) = args.threads() {
        pnoc_sim::sweep::set_thread_override(n);
    }
    match run(opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pnoc {tool}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A malformed command line: say why, show the usage, exit 2.
fn refuse(why: &str, usage: &str) -> ExitCode {
    eprintln!("{why}");
    eprintln!("{usage}");
    ExitCode::from(2)
}
