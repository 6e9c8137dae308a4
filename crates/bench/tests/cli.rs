//! The `pnoc` command line: every malformed invocation of every subcommand
//! is refused with that subcommand's usage and exit 2 before anything runs,
//! and a failed export write exits 1 naming the file. The figure cases drive
//! `table1`, which runs no simulation; the refused cases run nothing; only
//! the `obs` write failure runs its quick simulation first.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn pnoc(args: &[&str]) -> Output {
    pnoc_with_stdin(args, "")
}

fn pnoc_with_stdin(args: &[&str], stdin: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pnoc"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn pnoc");
    // A refused command line exits without reading its stdin.
    let _ = child.stdin.take().unwrap().write_all(stdin.as_bytes());
    child.wait_with_output().expect("wait for pnoc")
}

/// A path under the temp dir, unique to this process and `name`, that does
/// not exist yet.
fn scratch(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("pnoc_cli_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    let _ = std::fs::remove_file(&path);
    path
}

/// `args` exits 2 with empty stdout and a usage line that starts with
/// `usage`; returns that line.
fn refused(args: &[&str], stdin: &str, usage: &str) -> String {
    let out = pnoc_with_stdin(args, stdin);
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran");
    stderr
        .lines()
        .find(|l| l.starts_with(usage))
        .unwrap_or_else(|| panic!("{args:?}: no `{usage}` line in {stderr}"))
        .to_string()
}

const NAMES: [&str; 13] = [
    "table1",
    "fig12",
    "fig2b",
    "fig8",
    "fig9",
    "fig10",
    "ipc",
    "ablations",
    "swmr",
    "mesh_vs_ring",
    "fig11",
    "resilience",
    "fairness",
];

#[test]
fn table1_runs_and_prints_nothing_on_stderr() {
    let out = pnoc(&["figure", "table1", "--threads", "1"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.starts_with("Table I — component budgets"),
        "{stdout}"
    );
    assert!(out.stderr.is_empty());
}

#[test]
fn malformed_figure_command_lines_exit_2_with_the_usage() {
    for args in [
        &["table1", "--bogus"][..],
        &["table1", "--json"],
        &["table1", "--svg"],
        &["table1", "--threads"],
        &["table1", "--threads", "0"],
        &["table1", "--threads", "x"],
        &[],
        &["--quick"],
        &["fig99"],
        &["table1", "extra"],
    ] {
        let args = [&["figure"][..], args].concat();
        let usage = refused(&args, "", "usage: pnoc figure");
        for name in NAMES {
            assert!(
                usage.contains(name),
                "{args:?}: {name} missing from {usage}"
            );
        }
    }
}

#[test]
fn a_failed_json_write_exits_1_naming_the_file() {
    // A directory below a regular file can never be created.
    let file = scratch("figure_file");
    std::fs::write(&file, "").unwrap();
    let dir = file.join("sub");
    let out = pnoc(&["figure", "table1", "--json", dir.to_str().unwrap()]);
    let _ = std::fs::remove_file(&file);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    let want = format!(
        "pnoc figure: writing {}: ",
        dir.join("table1.json").display()
    );
    assert!(stderr.starts_with(&want), "{stderr}");
}

#[test]
fn no_subcommand_or_an_unknown_one_exits_2_listing_the_subcommands() {
    for args in [&[][..], &["bogus"], &["--threads", "1"]] {
        let usage = refused(args, "", "usage: pnoc <");
        for tool in ["figure", "fleet", "serve", "obs", "trace", "perf"] {
            assert!(
                usage.contains(tool),
                "{args:?}: {tool} missing from {usage}"
            );
        }
    }
}

#[test]
fn malformed_tool_command_lines_exit_2_and_write_nothing() {
    let dir = scratch("obs_out");
    let d = dir.to_str().unwrap();
    let file = scratch("gen.ptrc");
    let f = file.to_str().unwrap();
    let shutdown = "{\"shutdown\":true}\n";
    for (args, stdin) in [
        (&["obs", "--bogus", "--quick", "--out", d][..], ""),
        (&["obs", "--quik", "--out", d], ""),
        (&["obs", "--quick", "--out"], ""),
        (&["serve", "--bogus"], shutdown),
        (
            &[
                "trace", "gen", "--app", "nas.is", "--out", f, "--lenght", "100",
            ],
            "",
        ),
        (
            &[
                "trace", "gen", "--app", "nas.is", "--out", f, "--rate", "0.1",
            ],
            "",
        ),
        (&["trace", "gen", "--app", "bogus", "--out", f], ""),
        (
            &["trace", "gen", "--app", "nas.is", "--mix", "EM", "--out", f],
            "",
        ),
        (
            &["trace", "gen", "--mix", "EM", "--out", f, "--cores", "16"],
            "",
        ),
        (&["trace", "gen", "--app", "nas.is"], ""),
        (&["trace", "gen", "--out", f], ""),
        (&["trace", "ingest", f, "--seed", "1"], ""),
        (&["trace", "replay", "--out", f, "t.ptrc"], ""),
        (&["trace", "replay", "t.ptrc", "--scheme", "bogus"], ""),
        (&["trace", "record", "--out", f, "--chunk", "8"], ""),
        (&["trace", "bench", "extra"], ""),
        (&["trace", "info", f, "extra"], ""),
        (&["trace", "info", f, "--bogus", "1"], ""),
        (&["trace", "info"], ""),
        (&["trace"], ""),
        (&["trace", "bogus"], ""),
        (&["fleet", "--bogus"], ""),
        (&["fleet", "--ckpt-every", "x"], ""),
        (&["fleet", "--kill-after", "1"], ""),
        (&["fleet", "--replay", "r.json", "--qos"], ""),
        (&["fleet", "--replay", "r.json", "--verbose"], ""),
        (&["fleet", "--replay", "r.json", "--ckpt-every", "8"], ""),
        (&["fleet", "--qos", "--spec", "s.json"], ""),
        (&["perf", "--bogus"], ""),
        (&["perf", "--check"], ""),
        (&["perf", "--check", "--quick"], ""),
    ] {
        let tool = args[0];
        refused(args, stdin, &format!("usage: pnoc {tool}"));
    }
    assert!(!dir.exists(), "a refused obs wrote {d}");
    assert!(!file.exists(), "a refused trace gen wrote {f}");
}

#[test]
fn threads_0_is_refused_by_every_subcommand() {
    let dir = scratch("threads_out");
    let d = dir.to_str().unwrap();
    let file = scratch("threads.ptrc");
    let f = file.to_str().unwrap();
    for args in [
        &["figure", "table1"][..],
        &["fleet"],
        &["serve"],
        &["obs", "--quick", "--out", d],
        &["trace", "gen", "--app", "nas.is", "--out", f],
        &["perf", "--quick"],
    ] {
        let args = [args, &["--threads", "0"]].concat();
        let usage = format!("usage: pnoc {}", args[0]);
        refused(&args, "{\"shutdown\":true}\n", &usage);
    }
    assert!(!dir.exists() && !file.exists());
}

#[test]
fn a_failed_obs_write_exits_1_naming_the_file() {
    let file = scratch("obs_file");
    std::fs::write(&file, "").unwrap();
    let dir = file.join("sub");
    let out = pnoc(&["obs", "--quick", "--out", dir.to_str().unwrap()]);
    let _ = std::fs::remove_file(&file);
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    let want = format!(
        "pnoc obs: writing {}: ",
        dir.join("obs_trace.json").display()
    );
    assert!(stderr.starts_with(&want), "{stderr}");
}

#[test]
fn well_formed_command_lines_get_past_the_parser() {
    // Every flag each tool takes, on inputs that do not exist: the run
    // fails (exit 1, naming the tool) instead of the parser (exit 2).
    let missing = scratch("missing");
    let m = missing.to_str().unwrap();
    let out = missing.join("out");
    let o = out.to_str().unwrap();
    for args in [
        &["trace", "info", m][..],
        &["trace", "ingest", m, "--max-rss-mb", "64"],
        &[
            "trace", "replay", m, "--scheme", "ghs", "--seed", "3", "--quick",
        ],
        &["trace", "bench", "--quick", "--json", o, "--check", m],
        &[
            "trace", "record", "--out", o, "--scheme", "dhs", "--rate", "0.2",
        ],
        &["trace", "record", "--out", o, "--seed", "3", "--quick"],
        &[
            "trace", "gen", "--app", "nas.is", "--out", o, "--cores", "16", "--nodes", "4",
            "--length", "100", "--seed", "1", "--chunk", "64",
        ],
        &[
            "trace", "gen", "--mix", "EM", "--out", o, "--nodes", "4", "--cpn", "2", "--rate",
            "0.2",
        ],
        &[
            "fleet",
            "--spec",
            m,
            "--out",
            o,
            "--ckpt",
            o,
            "--ckpt-every",
            "2",
        ],
        &[
            "fleet",
            "--spec",
            m,
            "--ckpt",
            o,
            "--kill-after",
            "1",
            "--verbose",
        ],
        &["fleet", "--replay", m, "--out", o, "--threads", "1"],
        &["perf", "--quick", "--json", "--check", m],
        &["perf", "--json", o, "--check", m],
    ] {
        let out = pnoc(args);
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        let want = format!("pnoc {}: ", args[0]);
        assert!(stderr.starts_with(&want), "{args:?}: {stderr}");
        assert!(!stderr.contains("usage:"), "{args:?}: {stderr}");
    }
}

#[test]
fn threads_is_installed_before_the_tool_runs() {
    for threads in ["1", "3"] {
        let out = pnoc_with_stdin(&["serve", "--threads", threads], "{\"shutdown\":true}\n");
        assert_eq!(out.status.code(), Some(0));
        assert_eq!(String::from_utf8(out.stdout).unwrap(), "{\"bye\":true}\n");
        let stderr = String::from_utf8(out.stderr).unwrap();
        let want = format!("serve: ready on {threads} worker(s)");
        assert!(stderr.starts_with(&want), "{stderr}");
    }
}
