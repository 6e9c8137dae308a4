//! `fleet_sweep`: a `SweepSpec` of 252 short jobs on the small network
//! (7 schemes × {UR, BC, TOR} × {0.03, 0.10, 0.20} × 4 replicas), run on a
//! 2-worker `Fleet` through `run_sweep` with a checkpoint journal appended
//! every 8 jobs (the `fleet` bin's default), then resumed from the
//! finished journal.

use crate::common::{bump, Pass, TracedPass};
use crate::prof::{Layer, Prof};
use crate::stats::Tally;
use pnoc_fleet::{
    run_sweep, Fleet, Journal, SweepBase, SweepOptions, SweepReport, SweepSpec, SweepState,
};
use pnoc_noc::{AdmissionPolicy, NetworkConfig, Scheme};
use pnoc_traffic::pattern::TrafficPattern;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Fleet workers.
pub const WORKERS: usize = 2;
/// Journal snapshot interval, in completed jobs.
const CKPT_EVERY: u64 = 8;
const REPLICAS: u64 = 4;
const SETASIDE: usize = 2;

/// The fleet workload for one seed; its journal lives in `dir`.
pub struct FleetSweep {
    seed: u64,
    journal: PathBuf,
}

impl FleetSweep {
    pub fn new(seed: u64, dir: &Path) -> Self {
        Self {
            seed,
            journal: dir.join("fleet.ckpt"),
        }
    }

    fn spec(&self) -> SweepSpec {
        SweepSpec {
            base: SweepBase::Small,
            schemes: Scheme::paper_set(SETASIDE),
            patterns: vec![
                TrafficPattern::UniformRandom,
                TrafficPattern::BitComplement,
                TrafficPattern::Tornado,
            ],
            rates: vec![0.03, 0.10, 0.20],
            replicas: REPLICAS,
            master_seed: self.seed,
            warmup: 200,
            measure: 600,
            drain: 200,
            mixes: Vec::new(),
            admission: AdmissionPolicy::None,
        }
    }

    pub fn configs(&self) -> Vec<NetworkConfig> {
        Scheme::paper_set(SETASIDE)
            .into_iter()
            .map(NetworkConfig::small)
            .collect()
    }

    fn fresh_journal(&self) {
        match std::fs::remove_file(&self.journal) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                panic!("remove {}: {e}", self.journal.display())
            }
            _ => {}
        }
    }

    fn add_report(pass: &mut Pass, spec: &SweepSpec, report: &SweepReport, json: String) {
        pass.jobs = report.total_jobs;
        pass.sim_cycles = report.total_jobs * spec.plan().total();
        for cell in &report.cells {
            pass.delivered += cell.delivered;
            pass.latency_weighted += cell.avg_latency.unwrap_or(0.0) * cell.delivered as f64;
        }
        pass.outputs.push(json);
    }

    /// The shipped path: `run_sweep` with a journal, then `run_sweep`
    /// again to resume from the finished journal.
    pub fn untraced(&mut self, tally: &mut Tally) -> Pass {
        let mut pass = Pass::default();
        let t0 = Instant::now();
        let fleet = Fleet::new(WORKERS);
        let spec = self.spec();
        self.fresh_journal();
        pass.setup_s = t0.elapsed().as_secs_f64();

        // Each cell's last replica fires `on_cell` on the worker that ran
        // it; gaps between one worker's cell completions, per replica, are
        // the per-job samples.
        let marks: Arc<Mutex<Vec<(String, Instant)>>> = Arc::default();
        let sink = marks.clone();
        let opts = SweepOptions {
            checkpoint: Some(self.journal.clone()),
            ckpt_every: CKPT_EVERY,
            grain: 1,
            ..SweepOptions::default()
        };
        let mut first = opts.clone();
        first.on_cell = Some(Arc::new(move |_| {
            let who = std::thread::current().name().unwrap_or("").to_string();
            sink.lock().expect("marks lock").push((who, Instant::now()));
        }));
        let t0 = Instant::now();
        let total = spec.total_jobs();
        let run = run_sweep(&fleet, &spec, first).expect("sweep runs");
        tally.check(run.executed_jobs == total && run.report.complete, || {
            format!(
                "fleet_sweep: executed {} of {total} jobs",
                run.executed_jobs
            )
        });
        let json = serde_json::to_string(&run.report).expect("report serializes");
        let sweep_s = t0.elapsed().as_secs_f64();
        let resumed = run_sweep(&fleet, &spec, opts).expect("resume runs");
        let again = serde_json::to_string(&resumed.report).expect("report serializes");
        tally.check(resumed.executed_jobs == 0 && again == json, || {
            format!(
                "fleet_sweep: resume executed {} jobs, report identical: {}",
                resumed.executed_jobs,
                again == json
            )
        });
        pass.wall_s = t0.elapsed().as_secs_f64();
        drop(fleet);
        pass.extra.push(("fleet_sweep_s", "s", sweep_s));
        pass.extra
            .push(("fleet_resume_s", "s", pass.wall_s - sweep_s));

        let marks = marks.lock().expect("marks lock");
        let mut last: Vec<(&str, Instant)> = Vec::new();
        for (who, at) in marks.iter() {
            let prev = match last.iter_mut().find(|(w, _)| w == who) {
                Some(slot) => std::mem::replace(&mut slot.1, *at),
                None => {
                    last.push((who, *at));
                    t0
                }
            };
            pass.job_ms
                .push(at.duration_since(prev).as_secs_f64() * 1e3 / REPLICAS as f64);
        }
        Self::add_report(&mut pass, &spec, &run.report, json);
        pass
    }

    /// `run_sweep` rebuilt from public calls (`Fleet::submit`,
    /// `SweepSpec::run_job`, `MergeSummary::fold`/`report`,
    /// `Journal::open`/`append`) with spans on both workers.
    pub fn traced(&mut self, tally: &mut Tally) -> TracedPass {
        let mut tp = TracedPass::default();
        let mut prof = Prof::new();
        let t0 = Instant::now();
        let fleet = prof.span(Layer::FleetSpinup, || Fleet::new(WORKERS));
        let spec = self.spec();
        self.fresh_journal();
        tp.pass.setup_s = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let total = spec.total_jobs();
        let (journal, state) = prof
            .span(Layer::FleetJournalOpen, || {
                Journal::open(&self.journal, &spec)
            })
            .expect("journal opens");
        let remaining: Vec<(u64, u64)> = state
            .completed
            .complement_within(total)
            .iter()
            .map(|r| (r.lo, r.hi))
            .collect();
        let shared = Arc::new(Mutex::new(Shared {
            cell_remaining: cell_remaining(&spec, &state),
            state,
            journal,
            executed: 0,
            appends: 0,
            io_error: None,
            prof: Prof::new(),
        }));
        let tb = Instant::now();
        let spec_arc = Arc::new(spec.clone());
        let job_shared = shared.clone();
        let job = move |index: u64| {
            let mut p = Prof::new();
            p.enter(Layer::FleetJob);
            p.enter(Layer::FleetLockWait);
            drop(job_shared.lock().expect("sweep state poisoned"));
            p.exit();
            let detail = p.span(Layer::FleetRunJob, || spec_arc.run_job(index));
            p.enter(Layer::FleetLockWait);
            let mut g = job_shared.lock().expect("sweep state poisoned");
            p.exit();
            let cell = spec_arc.cell_of(index);
            p.span(Layer::FleetFold, || {
                g.state.cells[cell].fold(&detail.summary, &detail.latency);
                g.state.completed.insert(index);
                g.cell_remaining[cell] -= 1;
            });
            g.executed += 1;
            if g.executed.is_multiple_of(CKPT_EVERY) {
                p.span(Layer::FleetJournalAppend, || g.append_snapshot());
            }
            p.exit();
            g.prof.merge(&p);
        };
        fleet.submit(remaining, 1, job).wait();
        let batch_ns = tb.elapsed().as_nanos() as f64;

        let mut g = shared.lock().expect("sweep state poisoned");
        tally.check(g.io_error.is_none(), || {
            format!("fleet_sweep journal: {:?}", g.io_error)
        });
        tally.check(g.executed == total, || {
            format!("fleet_sweep: executed {} of {total} jobs", g.executed)
        });
        prof.span(Layer::FleetJournalAppend, || g.append_snapshot());
        let report = prof.span(Layer::FleetReport, || g.report(&spec, total));
        let json = serde_json::to_string(&report).expect("report serializes");
        let journal_bytes = std::fs::metadata(&self.journal).map_or(0, |m| m.len());
        let appends = g.appends;
        let workers = std::mem::take(&mut g.prof);
        drop(g);

        // Resume from the finished journal: nothing left to run, one
        // terminal snapshot, the same report.
        prof.enter(Layer::FleetResume);
        let (journal, state) = prof
            .span(Layer::FleetJournalOpen, || {
                Journal::open(&self.journal, &spec)
            })
            .expect("journal reopens");
        let left = state.completed.complement_within(total).len();
        let mut resumed = Shared {
            cell_remaining: Vec::new(),
            state,
            journal,
            executed: 0,
            appends: 0,
            io_error: None,
            prof: Prof::new(),
        };
        prof.span(Layer::FleetJournalAppend, || resumed.append_snapshot());
        let again = prof.span(Layer::FleetReport, || resumed.report(&spec, total));
        prof.exit();
        let again = serde_json::to_string(&again).expect("report serializes");
        tally.check(left == 0 && again == json, || {
            format!(
                "fleet_sweep: resume left {left} ranges, report identical: {}",
                again == json
            )
        });
        tp.pass.wall_s = t1.elapsed().as_secs_f64();
        Self::add_report(&mut tp.pass, &spec, &report, json);
        drop(fleet);

        let wall_ns = t0.elapsed().as_nanos() as f64;
        prof.merge(&workers);
        tp.capacity_ns = wall_ns - batch_ns + WORKERS as f64 * batch_ns;
        let c = &mut tp.counters;
        bump(c, "fleet.jobs", total as f64);
        bump(c, "fleet.journal_appends", (appends + resumed.appends) as f64);
        bump(c, "fleet.journal_bytes", journal_bytes as f64);
        let busy = prof.total_of(Layer::FleetJob) as f64;
        c.insert(
            "fleet.worker_idle_frac",
            1.0 - busy / (WORKERS as f64 * batch_ns),
        );
        let journal =
            prof.total_of(Layer::FleetJournalAppend) + prof.total_of(Layer::FleetJournalOpen);
        c.insert(
            "fleet.journal_wall_frac",
            journal as f64 / (wall_ns - tp.pass.setup_s * 1e9),
        );
        tp.prof = prof;
        tp
    }
}

/// The sweep state the workers share through one mutex, as in
/// `run_sweep`, plus the spans the workers recorded.
struct Shared {
    state: SweepState,
    journal: Journal,
    cell_remaining: Vec<u64>,
    executed: u64,
    appends: u64,
    io_error: Option<String>,
    prof: Prof,
}

impl Shared {
    /// Bump the sequence number and append a snapshot, keeping the first
    /// error.
    fn append_snapshot(&mut self) {
        self.state.seq += 1;
        let snap = self.state.clone();
        if let Err(e) = self.journal.append(&snap) {
            self.io_error.get_or_insert(e);
        }
        self.appends += 1;
    }

    fn report(&self, spec: &SweepSpec, total: u64) -> SweepReport {
        SweepReport {
            total_jobs: total,
            complete: self.state.completed.len() == total,
            cells: (0..spec.cells())
                .map(|c| self.state.cells[c].report(spec, c))
                .collect(),
        }
    }
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
            *slot -= r.hi.min(cell_hi).saturating_sub(r.lo.max(cell_lo));
        }
    }
    remaining
}
