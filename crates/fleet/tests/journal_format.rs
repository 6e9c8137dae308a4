//! The journal's FORMAT 1 bytes, pinned. `fixtures/demo_format1.ckpt` was
//! written by the writer that serialized every cell on every append: the
//! demo spec's jobs folded in index order, with a snapshot after 5, 9 and
//! 24 jobs (seq 1, 2, 3). The cached writer must reproduce it byte for byte
//! from the same folds, and the fixture must keep resuming.

use std::path::PathBuf;

use pnoc_fleet::{run_sweep, Fleet, Journal, SweepOptions, SweepSpec, SweepState};

const FIXTURE: &[u8] = include_bytes!("fixtures/demo_format1.ckpt");

/// Completed jobs at each of the fixture's snapshots.
const SNAPSHOT_AFTER: [u64; 3] = [5, 9, 24];

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("pnoc-fleet-format-tests");
    std::fs::create_dir_all(&dir).expect("mk tmp dir");
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

/// Write the fixture's fold sequence to a fresh journal at `path`, with
/// `append(state, dirty)` writing each snapshot, and return the bytes.
fn write_demo(
    path: &PathBuf,
    mut append: impl FnMut(&mut Journal, &SweepState, &[usize]) -> Result<(), String>,
) -> Vec<u8> {
    let spec = SweepSpec::demo();
    let (mut journal, mut state) = Journal::open(path, &spec).expect("open");
    let mut dirty = Vec::new();
    for i in 0..spec.total_jobs() {
        let detail = spec.run_job(i);
        let cell = spec.cell_of(i);
        state.cells[cell].fold(&detail.summary, &detail.latency);
        state.completed.insert(i);
        dirty.push(cell);
        if SNAPSHOT_AFTER.contains(&(i + 1)) {
            state.seq += 1;
            append(&mut journal, &state, &dirty).expect("append");
            dirty.clear();
        }
    }
    drop(journal);
    std::fs::read(path).expect("read journal")
}

#[test]
fn cached_writer_reproduces_the_format1_fixture() {
    let cached = write_demo(&tmp("cached.ckpt"), |j, s, dirty| j.append_cells(s, dirty));
    assert!(cached == FIXTURE, "append_cells moved the FORMAT 1 bytes");
    let full = write_demo(&tmp("full.ckpt"), |j, s, _| j.append(s));
    assert!(full == FIXTURE, "append moved the FORMAT 1 bytes");
}

fn report_json(spec: &SweepSpec, checkpoint: Option<PathBuf>) -> (String, u64) {
    let outcome = run_sweep(
        &Fleet::with_suite_threads(2),
        spec,
        SweepOptions {
            checkpoint,
            ..SweepOptions::default()
        },
    )
    .expect("sweep runs");
    let json = serde_json::to_string(&outcome.report).expect("report serializes");
    (json, outcome.executed_jobs)
}

#[test]
fn format1_fixture_resumes_to_the_uninterrupted_report() {
    let spec = SweepSpec::demo();
    let (reference, _) = report_json(&spec, None);

    // The whole fixture: every job restored, nothing run, nothing written.
    let whole = tmp("whole.ckpt");
    std::fs::write(&whole, FIXTURE).expect("write fixture");
    let (report, executed) = report_json(&spec, Some(whole.clone()));
    assert_eq!(executed, 0);
    assert_eq!(report, reference);
    assert!(std::fs::read(&whole).expect("read") == FIXTURE);

    // Cut after its second snapshot: the last 15 jobs run again.
    let second_end = FIXTURE
        .iter()
        .enumerate()
        .filter(|&(_, &b)| b == b'\n')
        .nth(2)
        .expect("three lines")
        .0;
    let cut = tmp("cut.ckpt");
    std::fs::write(&cut, &FIXTURE[..=second_end]).expect("write cut fixture");
    let (report, executed) = report_json(&spec, Some(cut));
    assert_eq!(executed, spec.total_jobs() - SNAPSHOT_AFTER[1]);
    assert_eq!(report, reference);
}
