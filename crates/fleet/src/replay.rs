//! Trace-replay sweeps: fan recorded PTRC shards across schemes.
//!
//! A [`ReplaySpec`] is the trace-driven sibling of [`crate::SweepSpec`]: it
//! names a set of on-disk PTRC trace *shards* (recorded with
//! `pnoc-trace`'s recorder or generated with its streaming generators) and
//! a set of schemes, and the fleet replays every (scheme, shard) pair as an
//! independent job through [`pnoc_trace::replay_run`]. Each job streams its
//! shard in O(chunk) memory — a replay sweep over multi-GB traces costs no
//! more RAM per worker than the chunk size.
//!
//! Determinism mirrors the synthetic sweeps: a job is a pure function of
//! `(spec, scheme, shard bytes)`. The spec carries the network seed, so a
//! shard recorded from a live run replays byte-identically when the spec
//! reproduces that run's configuration and plan (see DESIGN.md §17 for the
//! replay-exactness contract).

use crate::executor::Fleet;
use crate::spec::{validate_windows, SweepBase};
use pnoc_noc::config::{NetworkConfig, Scheme};
use pnoc_noc::RunSummary;
use pnoc_sim::RunPlan;
use pnoc_trace::StreamingTraceReader;
use serde::{Deserialize, Serialize};
use std::io;

/// A deterministic trace-replay sweep description; see module docs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplaySpec {
    /// Base network configuration (its dimensions must match the shards').
    pub base: SweepBase,
    /// Schemes to replay every shard through.
    pub schemes: Vec<Scheme>,
    /// Paths of PTRC trace shards (each becomes one job per scheme).
    pub shards: Vec<String>,
    /// Network seed applied to every job (drives the fault schedule; use
    /// the recorded run's seed to reproduce it exactly).
    pub seed: u64,
    /// Warmup cycles of each replay.
    pub warmup: u64,
    /// Measure cycles of each replay.
    pub measure: u64,
    /// Drain cycles of each replay.
    pub drain: u64,
}

impl ReplaySpec {
    /// Structural validation; returns a human-readable reason on failure.
    pub fn validate(&self) -> Result<(), String> {
        if self.schemes.is_empty() {
            return Err("schemes must be non-empty".into());
        }
        if self.shards.is_empty() {
            return Err("shards must be non-empty".into());
        }
        validate_windows(self.warmup, self.measure, self.drain)
    }

    /// Total job count: schemes × shards.
    pub fn total_jobs(&self) -> usize {
        self.schemes.len() * self.shards.len()
    }

    /// The run plan every job uses.
    pub fn plan(&self) -> RunPlan {
        RunPlan::new(self.warmup, self.measure, self.drain)
    }

    /// The network configuration for `scheme`.
    pub fn config(&self, scheme: Scheme) -> NetworkConfig {
        let mut cfg = match self.base {
            SweepBase::Paper => NetworkConfig::paper_default(scheme),
            SweepBase::Small => NetworkConfig::small(scheme),
        };
        cfg.seed = self.seed;
        cfg
    }

    /// Run one (scheme, shard) job: open the shard, stream it through the
    /// network, return the summary. Corrupt or dimension-mismatched shards
    /// surface as [`io::ErrorKind::InvalidData`], never panics.
    pub fn run_job(&self, scheme: Scheme, shard: &str) -> io::Result<ReplayPoint> {
        let file = std::fs::File::open(shard)?;
        let reader = StreamingTraceReader::open(io::BufReader::new(file))?;
        let trace_name = reader.meta().name.clone();
        let summary = pnoc_trace::replay_run(self.config(scheme), reader, self.plan())?;
        Ok(ReplayPoint {
            scheme,
            shard: shard.to_string(),
            trace_name,
            summary,
        })
    }
}

/// One completed (scheme, shard) replay job.
#[derive(Debug, Clone, Serialize)]
pub struct ReplayPoint {
    /// The scheme the shard was replayed through.
    pub scheme: Scheme,
    /// The shard path, as given in the spec.
    pub shard: String,
    /// The trace name from the shard's PTRC header.
    pub trace_name: String,
    /// The replayed run's summary.
    pub summary: RunSummary,
}

/// The deterministic output of [`run_replay`]: points in scheme-major,
/// shard-minor spec order, independent of worker scheduling.
#[derive(Debug, Clone, Serialize)]
pub struct ReplayReport {
    /// The spec that produced this report.
    pub spec: ReplaySpec,
    /// One point per (scheme, shard) pair, in spec order.
    pub points: Vec<ReplayPoint>,
}

/// Replay every (scheme, shard) pair of `spec` on `fleet`. The first I/O
/// or corruption error aborts the report (every other job still runs to
/// completion first — jobs are independent and the executor has no
/// cancellation path — but nothing partial is returned).
pub fn run_replay(fleet: &Fleet, spec: &ReplaySpec) -> io::Result<ReplayReport> {
    spec.validate()
        .map_err(|why| io::Error::new(io::ErrorKind::InvalidInput, why))?;
    let jobs: Vec<(Scheme, String)> = spec
        .schemes
        .iter()
        .flat_map(|&s| spec.shards.iter().map(move |p| (s, p.clone())))
        .collect();
    let job_spec = spec.clone();
    let results = fleet.map(jobs, move |_idx, (scheme, shard)| {
        job_spec.run_job(*scheme, shard)
    });
    let points = results.into_iter().collect::<io::Result<Vec<_>>>()?;
    Ok(ReplayReport {
        spec: spec.clone(),
        points,
    })
}

// Replay tests spawn a real executor, so they are skipped in model-sync
// builds (the sync facade's threads only run under a model check there) —
// the same gating as the executor's own std-thread tests.
#[cfg(all(test, not(feature = "model-sync")))]
mod tests {
    use super::*;
    use pnoc_trace::generate_app;
    use pnoc_traffic::paper_app;
    use std::path::PathBuf;

    fn shard_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("pnoc-fleet-replay-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(format!("{}-{}.ptrc", name, std::process::id()))
    }

    /// Generate a small-network-shaped shard (32 cores × 16 nodes) on disk.
    fn write_shard(name: &str, seed: u64) -> PathBuf {
        let app = paper_app("fft").expect("fft profile");
        let path = shard_path(name);
        let file = std::fs::File::create(&path).expect("create shard");
        generate_app(&app, 32, 16, 2_000, seed, 256, file).expect("generate shard");
        path
    }

    fn small_spec(shards: Vec<String>) -> ReplaySpec {
        ReplaySpec {
            base: SweepBase::Small,
            schemes: vec![Scheme::TokenChannel, Scheme::Dhs { setaside: 2 }],
            shards,
            seed: 0xBEEF,
            warmup: 500,
            measure: 1_500,
            drain: 500,
        }
    }

    #[test]
    fn validation_rejects_a_plan_whose_total_overflows() {
        let mut spec = small_spec(vec!["unused.ptrc".into()]);
        spec.validate().expect("small spec valid");
        spec.drain = u64::MAX;
        let err = spec.validate().unwrap_err();
        assert!(err.contains("overflows"), "{err}");
    }

    #[test]
    fn replay_sweep_covers_every_scheme_shard_pair() {
        let a = write_shard("pair-a", 1);
        let b = write_shard("pair-b", 2);
        let spec = small_spec(vec![
            a.to_string_lossy().into_owned(),
            b.to_string_lossy().into_owned(),
        ]);
        let fleet = Fleet::new(2);
        let report = run_replay(&fleet, &spec).expect("replay sweep");
        assert_eq!(report.points.len(), 4);
        // Scheme-major, shard-minor spec order.
        assert_eq!(report.points[0].scheme, Scheme::TokenChannel);
        assert_eq!(report.points[1].scheme, Scheme::TokenChannel);
        assert_eq!(report.points[2].scheme, Scheme::Dhs { setaside: 2 });
        assert!(report.points[0].shard.contains("pair-a"));
        assert!(report.points[1].shard.contains("pair-b"));
        for p in &report.points {
            assert_eq!(p.trace_name, "fft");
            assert!(p.summary.delivered > 0, "replay delivered packets");
        }
        let _ = std::fs::remove_file(a);
        let _ = std::fs::remove_file(b);
    }

    #[test]
    fn replay_jobs_are_deterministic_across_runs() {
        let a = write_shard("det", 7);
        let spec = small_spec(vec![a.to_string_lossy().into_owned()]);
        let fleet = Fleet::new(2);
        let once = run_replay(&fleet, &spec).expect("first run");
        let twice = run_replay(&fleet, &spec).expect("second run");
        let bytes = |r: &ReplayReport| serde_json::to_string(r).expect("report serializes");
        assert_eq!(bytes(&once), bytes(&twice));
        let _ = std::fs::remove_file(a);
    }

    #[test]
    fn missing_shard_fails_the_sweep_without_panicking() {
        let spec = small_spec(vec!["/nonexistent/shard.ptrc".into()]);
        let fleet = Fleet::new(1);
        let err = run_replay(&fleet, &spec).expect_err("missing shard");
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn degenerate_specs_are_rejected() {
        let fleet = Fleet::new(1);
        let mut spec = small_spec(vec!["x".into()]);
        spec.schemes.clear();
        assert_eq!(
            run_replay(&fleet, &spec).expect_err("no schemes").kind(),
            io::ErrorKind::InvalidInput
        );
        let mut spec = small_spec(Vec::new());
        spec.measure = 0;
        assert_eq!(
            run_replay(&fleet, &spec).expect_err("no shards").kind(),
            io::ErrorKind::InvalidInput
        );
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = small_spec(vec!["traces/fft.ptrc".into()]);
        let json = serde_json::to_string(&spec).expect("serialize");
        let back: ReplaySpec = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, spec);
    }
}
