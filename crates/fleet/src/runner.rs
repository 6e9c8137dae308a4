//! The sweep runner: executor + aggregation + checkpointing, composed.
//!
//! [`run_sweep`] submits a spec's incomplete index ranges to a [`Fleet`],
//! folds each completed job into its cell's [`MergeSummary`] under one
//! mutex (fold, mark-complete and marking the cell dirty for the next
//! snapshot are a single atomic step, so a checkpoint snapshot can never
//! observe a job folded-but-unmarked or vice versa),
//! fires a callback when a cell's last replica lands (streaming mode), and
//! periodically appends snapshots to the journal. The final report depends
//! only on the *set* of completed jobs — see `agg` for the commutativity
//! argument — so an interrupted-and-resumed sweep renders byte-identical
//! JSON to an uninterrupted one.

use std::path::PathBuf;

use crate::sync::{Arc, Mutex};

use serde::Serialize;

use crate::agg::CellReport;
use crate::checkpoint::{Journal, SweepState};
use crate::executor::Fleet;
use crate::spec::SweepSpec;

/// Exit code used by the deterministic kill hook (`--kill-after`), distinct
/// from panic/abort codes so CI can assert the kill actually happened.
pub const KILL_EXIT_CODE: i32 = 3;

/// Callback fired (under the state lock) when a cell completes.
pub type CellCallback = Arc<dyn Fn(&CellReport) + Send + Sync>;

/// Knobs for one sweep execution.
#[derive(Clone, Default)]
pub struct SweepOptions {
    /// Journal path; `None` disables checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// Append a snapshot every N completed jobs (0 = only the final one).
    pub ckpt_every: u64,
    /// Deterministic kill hook: after exactly N completions *in this
    /// process*, write a snapshot and `exit(KILL_EXIT_CODE)`. Testing only.
    pub kill_after: Option<u64>,
    /// Graceful in-process variant of `kill_after`: after N completions,
    /// snapshot (if journaling) and skip all remaining jobs.
    pub stop_after: Option<u64>,
    /// Executor grain; simulations are heavyweight, so 1 is the default.
    pub grain: u64,
    /// Streaming per-cell completion callback.
    pub on_cell: Option<CellCallback>,
}

/// The deterministic portion of a sweep's result. Serializing this is
/// byte-identical between an uninterrupted run and any
/// checkpoint-kill-resume chain over the same spec.
#[derive(Debug, Serialize)]
pub struct SweepReport {
    /// Total jobs the spec describes.
    pub total_jobs: u64,
    /// Whether every job has been folded in.
    pub complete: bool,
    /// Per-cell reports in canonical grid order.
    pub cells: Vec<CellReport>,
}

/// [`SweepReport`] plus run-shaped (non-deterministic) bookkeeping.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The deterministic report.
    pub report: SweepReport,
    /// Jobs restored from the checkpoint rather than run.
    pub resumed_jobs: u64,
    /// Jobs executed by this process.
    pub executed_jobs: u64,
}

/// Per-cell outstanding-job counts, derived from the completed set.
fn cell_remaining(spec: &SweepSpec, state: &SweepState) -> Vec<u64> {
    let mut remaining = vec![spec.replicas; spec.cells()];
    for r in state.completed.ranges() {
        let first = spec.cell_of(r.lo);
        let last = spec.cell_of(r.hi - 1);
        for (cell, slot) in remaining.iter_mut().enumerate().take(last + 1).skip(first) {
            let cell_lo = cell as u64 * spec.replicas;
            let cell_hi = cell_lo + spec.replicas;
            let overlap = r.hi.min(cell_hi).saturating_sub(r.lo.max(cell_lo));
            *slot -= overlap;
        }
    }
    remaining
}

/// Bump the sequence number and append a snapshot of the current state to
/// the journal (caller has checked one is configured). The journal
/// serializes the state in place, re-serializing only the cells folded
/// since the previous snapshot: nothing is cloned under the lock.
fn append_snapshot(g: &mut Shared) -> Result<(), String> {
    g.state.seq += 1;
    let dirty: Vec<usize> = (0..g.dirty.len()).filter(|&c| g.dirty[c]).collect();
    g.dirty.fill(false);
    g.journal
        .as_mut()
        .expect("journal checked")
        .append_cells(&g.state, &dirty)
}

/// State shared between workers through one mutex.
struct Shared {
    state: SweepState,
    journal: Option<Journal>,
    /// Cells folded since the last snapshot, marked under the same lock as
    /// the fold.
    dirty: Vec<bool>,
    /// Per-cell count of jobs still missing.
    cell_remaining: Vec<u64>,
    /// Jobs completed by this process.
    executed: u64,
    /// Set by `stop_after`; remaining jobs return without running.
    stopped: bool,
    /// First journal I/O error, surfaced after the batch drains.
    io_error: Option<String>,
}

/// Run (or resume) `spec` on `fleet`. See module docs.
pub fn run_sweep(
    fleet: &Fleet,
    spec: &SweepSpec,
    opts: SweepOptions,
) -> Result<SweepOutcome, String> {
    spec.validate()?;
    let total = spec.total_jobs();
    // Consume the options up front (they are plain knobs plus one shared
    // callback); the closure below captures the pieces it needs.
    let SweepOptions {
        checkpoint,
        ckpt_every,
        kill_after,
        stop_after,
        grain,
        on_cell,
    } = opts;

    let (journal, state) = match &checkpoint {
        Some(path) => {
            let (j, s) = Journal::open(path, spec)?;
            (Some(j), s)
        }
        None => (None, SweepState::new(spec)),
    };
    let resumed = state.completed.len();
    let remaining: Vec<(u64, u64)> = state
        .completed
        .complement_within(total)
        .iter()
        .map(|r| (r.lo, r.hi))
        .collect();

    let shared = Arc::new(Mutex::new(Shared {
        cell_remaining: cell_remaining(spec, &state),
        dirty: vec![false; spec.cells()],
        state,
        journal,
        executed: 0,
        stopped: false,
        io_error: None,
    }));

    if !remaining.is_empty() {
        let spec_arc = Arc::new(spec.clone());
        let shared_job = shared.clone();
        let job = move |index: u64| {
            // Cheap pre-check so a stopped sweep drains fast.
            if shared_job.lock().expect("sweep state poisoned").stopped {
                return;
            }
            let detail = spec_arc.run_job(index); // heavy, outside the lock

            let mut g = shared_job.lock().expect("sweep state poisoned");
            if g.stopped {
                return;
            }
            // Fold + mark-complete under one lock acquisition: snapshots
            // written below always see a consistent (completed, cells) pair.
            let cell = spec_arc.cell_of(index);
            g.state.cells[cell].fold(&detail.summary, &detail.latency);
            g.state.completed.insert(index);
            g.dirty[cell] = true;
            g.cell_remaining[cell] -= 1;
            if g.cell_remaining[cell] == 0 {
                if let Some(cb) = &on_cell {
                    let report = g.state.cells[cell].report(&spec_arc, cell);
                    cb(&report);
                }
            }
            g.executed += 1;
            let n = g.executed;

            let snapshot_due = ckpt_every > 0 && n.is_multiple_of(ckpt_every);
            let killing = kill_after == Some(n);
            let stopping = stop_after == Some(n);
            if (snapshot_due || killing || stopping) && g.journal.is_some() {
                if let Err(e) = append_snapshot(&mut g) {
                    if g.io_error.is_none() {
                        g.io_error = Some(e);
                    }
                }
            }
            if killing {
                // The snapshot above is on disk; die abruptly, mid-sweep,
                // with workers still holding queued tasks.
                std::process::exit(KILL_EXIT_CODE);
            }
            if stopping {
                g.stopped = true;
            }
        };
        fleet.submit(remaining, grain.max(1), job).wait();
    }

    let mut g = shared.lock().expect("sweep state poisoned");
    if let Some(e) = g.io_error.take() {
        return Err(e);
    }
    let complete = g.state.completed.len() == total;
    // Terminal snapshot so a completed (or stopped) journal resumes exactly.
    // A resume that ran nothing has its state on disk already.
    if g.journal.is_some() && g.executed > 0 {
        append_snapshot(&mut g)?;
    }
    let cells = (0..spec.cells())
        .map(|c| g.state.cells[c].report(spec, c))
        .collect();
    Ok(SweepOutcome {
        report: SweepReport {
            total_jobs: total,
            complete,
            cells,
        },
        resumed_jobs: resumed,
        executed_jobs: g.executed,
    })
}
