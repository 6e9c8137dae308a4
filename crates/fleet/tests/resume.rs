//! Checkpoint-resume byte-identity: the property the whole fleet design is
//! built around. A sweep that is interrupted and resumed (any number of
//! times) must render a [`SweepReport`] byte-identical to an uninterrupted
//! run of the same spec.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use pnoc_fleet::{run_sweep, Fleet, SweepOptions, SweepSpec};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("pnoc-fleet-resume-tests");
    std::fs::create_dir_all(&dir).expect("mk tmp dir");
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

fn report_json(spec: &SweepSpec, opts: SweepOptions, fleet: &Fleet) -> String {
    let outcome = run_sweep(fleet, spec, opts).expect("sweep runs");
    serde_json::to_string(&outcome.report).expect("report serializes")
}

#[test]
fn interrupted_resume_is_byte_identical_to_uninterrupted() {
    let spec = SweepSpec::demo();
    let fleet = Fleet::with_suite_threads(4);

    // Reference: one uninterrupted, checkpoint-free run.
    let reference = report_json(&spec, SweepOptions::default(), &fleet);

    // Interrupted: stop after 7 jobs (checkpointing every 3), then resume.
    let ckpt = tmp("stop-resume.ckpt");
    let partial = run_sweep(
        &fleet,
        &spec,
        SweepOptions {
            checkpoint: Some(ckpt.clone()),
            ckpt_every: 3,
            stop_after: Some(7),
            ..SweepOptions::default()
        },
    )
    .expect("partial sweep runs");
    assert!(
        !partial.report.complete,
        "stop_after must leave work undone"
    );
    assert!(partial.executed_jobs >= 7);
    assert!(partial.executed_jobs < spec.total_jobs());

    let resumed = run_sweep(
        &fleet,
        &spec,
        SweepOptions {
            checkpoint: Some(ckpt),
            ckpt_every: 3,
            ..SweepOptions::default()
        },
    )
    .expect("resumed sweep runs");
    assert!(resumed.report.complete);
    assert!(resumed.resumed_jobs >= 7, "checkpoint restored prior work");
    assert_eq!(
        resumed.resumed_jobs + resumed.executed_jobs,
        spec.total_jobs(),
        "no job runs twice across the kill"
    );
    assert_eq!(
        serde_json::to_string(&resumed.report).expect("serialize"),
        reference,
        "resumed report must be byte-identical to the uninterrupted run"
    );
}

#[test]
fn double_interruption_still_converges_exactly() {
    let spec = SweepSpec::demo();
    let fleet = Fleet::with_suite_threads(3);
    let reference = report_json(&spec, SweepOptions::default(), &fleet);

    let ckpt = tmp("double-stop.ckpt");
    for stop in [5u64, 6] {
        let outcome = run_sweep(
            &fleet,
            &spec,
            SweepOptions {
                checkpoint: Some(ckpt.clone()),
                ckpt_every: 2,
                stop_after: Some(stop),
                ..SweepOptions::default()
            },
        )
        .expect("partial sweep runs");
        assert!(!outcome.report.complete);
    }
    let final_run = report_json(
        &spec,
        SweepOptions {
            checkpoint: Some(ckpt),
            ckpt_every: 2,
            ..SweepOptions::default()
        },
        &fleet,
    );
    assert_eq!(final_run, reference);
}

#[test]
fn resuming_a_complete_journal_recomputes_nothing() {
    let spec = SweepSpec::demo();
    let fleet = Fleet::with_suite_threads(4);
    let ckpt = tmp("complete.ckpt");
    let first = run_sweep(
        &fleet,
        &spec,
        SweepOptions {
            checkpoint: Some(ckpt.clone()),
            ckpt_every: 4,
            ..SweepOptions::default()
        },
    )
    .expect("sweep runs");
    assert!(first.report.complete);
    let journal = std::fs::read(&ckpt).expect("read journal");

    let again = run_sweep(
        &fleet,
        &spec,
        SweepOptions {
            checkpoint: Some(ckpt.clone()),
            ..SweepOptions::default()
        },
    )
    .expect("no-op resume runs");
    assert!(
        std::fs::read(&ckpt).expect("read journal") == journal,
        "a resume that runs nothing must write nothing"
    );
    assert_eq!(
        again.executed_jobs, 0,
        "everything restored, nothing re-run"
    );
    assert_eq!(again.resumed_jobs, spec.total_jobs());
    assert_eq!(
        serde_json::to_string(&again.report).expect("serialize"),
        serde_json::to_string(&first.report).expect("serialize"),
    );
}

#[test]
fn streaming_callback_fires_once_per_cell() {
    let spec = SweepSpec::demo();
    let fleet = Fleet::with_suite_threads(4);
    let fired = Arc::new(AtomicUsize::new(0));
    let f = fired.clone();
    let outcome = run_sweep(
        &fleet,
        &spec,
        SweepOptions {
            on_cell: Some(Arc::new(move |report| {
                assert_eq!(report.jobs, 2, "demo spec has 2 replicas per cell");
                f.fetch_add(1, Ordering::Relaxed);
            })),
            ..SweepOptions::default()
        },
    )
    .expect("sweep runs");
    assert_eq!(fired.load(Ordering::Relaxed), spec.cells());
    assert!(outcome.report.complete);
}

#[test]
fn thread_count_does_not_change_the_report() {
    // Completion order differs wildly between 1 and 8 threads; the report
    // must not.
    let spec = SweepSpec::demo();
    let one = report_json(&spec, SweepOptions::default(), &Fleet::new(1));
    let eight = report_json(&spec, SweepOptions::default(), &Fleet::new(8));
    assert_eq!(one, eight);
}
