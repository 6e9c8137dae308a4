//! The `figure` command line: malformed invocations are refused with the
//! usage and exit 2 before any harness runs, and a failed export write
//! exits 1 naming the file. Every case drives `table1`, which runs no
//! simulation, so the whole file costs a few process spawns.

use std::process::{Command, Output};

fn figure(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figure"))
        .args(args)
        .output()
        .expect("spawn figure")
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
    let out = figure(&["table1", "--threads", "1"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.starts_with("Table I — component budgets"),
        "{stdout}"
    );
    assert!(out.stderr.is_empty());
}

#[test]
fn malformed_command_lines_exit_2_with_the_usage() {
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
        let out = figure(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran the harness");
        let stderr = String::from_utf8(out.stderr).unwrap();
        let usage = stderr
            .lines()
            .find(|l| l.starts_with("usage: figure"))
            .unwrap_or_else(|| panic!("{args:?}: no usage in {stderr}"));
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
    let file = std::env::temp_dir().join(format!("pnoc_figure_cli_{}", std::process::id()));
    std::fs::write(&file, "").unwrap();
    let dir = file.join("sub");
    let out = figure(&["table1", "--json", dir.to_str().unwrap()]);
    let _ = std::fs::remove_file(&file);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    let want = format!(
        "figure table1: writing {}: ",
        dir.join("table1.json").display()
    );
    assert!(stderr.starts_with(&want), "{stderr}");
}
