//! Simulator-throughput measurement: the perf baseline every PR is judged
//! against.
//!
//! [`measure`] drives the paper's 64-node network through a uniform-random
//! load sweep for each of the seven schemes and reports, per scheme, how
//! fast the *simulator* runs: simulated cycles per wall-clock second and
//! wall-clock nanoseconds per delivered packet. The numbers quantify the
//! hot loop ([`pnoc_noc::Network::step`] and the channel phase methods) —
//! not the modelled hardware — so a regression here means a future change
//! made the simulator slower, regardless of what it did to modelled
//! latency.
//!
//! `pnoc perf` emits the report as `BENCH_perf.json` (schema
//! [`SCHEMA`]); `ci.sh` reruns the sweep in `--quick` mode and fails if
//! aggregate throughput regresses more than [`REGRESSION_TOLERANCE`]
//! against the checked-in baseline. Each scheme's sweep runs twice and the
//! faster pass is kept (best-of-N absorbs scheduler noise; the simulator
//! itself is deterministic, so both passes do identical work).

use pnoc_noc::{Network, NetworkConfig, Scheme};
use pnoc_sim::RunPlan;
use pnoc_traffic::classes::TenantMixKind;
use pnoc_traffic::pattern::TrafficPattern;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Report schema identifier (bump on layout changes).
pub const SCHEMA: &str = "pnoc-perf/2";

/// Relative throughput loss that fails the CI gate — applied to the
/// aggregate *and* to every individual scheme, so a regression localized
/// to one scheme's hot path cannot hide behind gains elsewhere.
pub const REGRESSION_TOLERANCE: f64 = 0.10;

/// Offered loads (packets/cycle/core) swept per scheme.
pub const RATES: [f64; 3] = [0.02, 0.05, 0.08];

/// One scheme's measured simulator throughput.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SchemePerf {
    /// Paper legend label of the scheme.
    pub scheme: String,
    /// Simulated cycles executed across the sweep (including drain).
    pub simulated_cycles: u64,
    /// Packets delivered across the sweep.
    pub delivered_packets: u64,
    /// Wall-clock time for the sweep, nanoseconds (best of two passes).
    pub wall_ns: u64,
    /// Simulated cycles per wall-clock second.
    pub cycles_per_sec: f64,
    /// Wall-clock nanoseconds per delivered packet.
    pub ns_per_packet: f64,
}

/// The full perf report written to `BENCH_perf.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfReport {
    /// Schema identifier ([`SCHEMA`]).
    pub schema: String,
    /// Network size the sweep ran on.
    pub nodes: usize,
    /// Offered loads swept.
    pub rates: Vec<f64>,
    /// Whether the reduced-fidelity (`--quick`) plan was used.
    pub quick: bool,
    /// Aggregate simulated cycles per second over all schemes (the number
    /// the CI regression gate compares).
    pub total_cycles_per_sec: f64,
    /// Per-scheme breakdown.
    pub schemes: Vec<SchemePerf>,
}

/// The run plan used per load point.
pub fn plan(quick: bool) -> RunPlan {
    if quick {
        RunPlan::new(500, 3_000, 500)
    } else {
        RunPlan::new(2_000, 16_000, 2_000)
    }
}

/// Run one scheme's full load sweep once; returns (cycles, delivered).
fn sweep_once(scheme: Scheme, quick: bool) -> (u64, u64) {
    let p = plan(quick);
    let mut cycles = 0u64;
    let mut delivered = 0u64;
    for &rate in &RATES {
        let cfg = NetworkConfig::paper_default(scheme);
        let s = Network::run_point(
            cfg,
            TenantMixKind::SingleClass,
            TrafficPattern::UniformRandom,
            rate,
            p,
        )
        .summary;
        // run_point executes plan.total() cycles plus a bounded
        // drain grace; count the planned horizon (the grace is small and
        // identical across replays of the same build).
        cycles += p.total();
        delivered += s.delivered;
    }
    (cycles, delivered)
}

/// Measure simulator throughput for every paper scheme on the 64-node
/// uniform-random sweep.
///
/// The per-scheme timed passes run as jobs on a dedicated **single-worker**
/// [`pnoc_fleet::Fleet`]: one worker serializes the measurements, so
/// schemes never contend for cores and the numbers stay comparable with
/// the checked-in baseline regardless of host parallelism.
pub fn measure(quick: bool) -> PerfReport {
    let rig = pnoc_fleet::Fleet::new(1);
    // Untimed warmup: page in code, warm allocator arenas and branch
    // predictors — on the same worker thread the timed passes will use.
    rig.map(vec![Scheme::TokenSlot], |_, &s| {
        let _ = sweep_once(s, true);
    });
    let schemes: Vec<SchemePerf> = rig.map(Scheme::paper_set(4), move |_, &scheme| {
        let mut best_ns = u64::MAX;
        let mut cycles = 0u64;
        let mut delivered = 0u64;
        for _ in 0..2 {
            let t0 = Instant::now();
            let (c, d) = sweep_once(scheme, quick);
            let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            best_ns = best_ns.min(ns);
            cycles = c;
            delivered = d;
        }
        let secs = best_ns as f64 / 1e9;
        SchemePerf {
            scheme: scheme.label(),
            simulated_cycles: cycles,
            delivered_packets: delivered,
            wall_ns: best_ns,
            cycles_per_sec: cycles as f64 / secs,
            ns_per_packet: best_ns as f64 / delivered.max(1) as f64,
        }
    });
    let total_cycles: u64 = schemes.iter().map(|s| s.simulated_cycles).sum();
    let total_ns: u64 = schemes.iter().map(|s| s.wall_ns).sum();
    PerfReport {
        schema: SCHEMA.into(),
        nodes: 64,
        rates: RATES.to_vec(),
        quick,
        total_cycles_per_sec: total_cycles as f64 / (total_ns as f64 / 1e9),
        schemes,
    }
}

/// Validate a report's schema: identifier, per-scheme coverage, and finite
/// positive throughput numbers. Returns a description of the first problem.
pub fn validate(report: &PerfReport) -> Result<(), String> {
    if report.schema != SCHEMA {
        return Err(format!(
            "schema mismatch: {} (expected {SCHEMA})",
            report.schema
        ));
    }
    if report.schemes.is_empty() {
        return Err("no per-scheme entries".into());
    }
    if !(report.total_cycles_per_sec.is_finite() && report.total_cycles_per_sec > 0.0) {
        return Err("aggregate cycles/sec must be finite and positive".into());
    }
    for s in &report.schemes {
        if s.scheme.is_empty() {
            return Err("empty scheme label".into());
        }
        if !(s.cycles_per_sec.is_finite() && s.cycles_per_sec > 0.0) {
            return Err(format!("{}: bad cycles_per_sec", s.scheme));
        }
        if !(s.ns_per_packet.is_finite() && s.ns_per_packet > 0.0) {
            return Err(format!("{}: bad ns_per_packet", s.scheme));
        }
        if s.simulated_cycles == 0 || s.delivered_packets == 0 {
            return Err(format!("{}: empty sweep", s.scheme));
        }
    }
    Ok(())
}

/// Compare a fresh run against the checked-in baseline. `Err` describes
/// the first regression beyond [`REGRESSION_TOLERANCE`] — on aggregate
/// throughput, or on any single scheme (matched by label, so a baseline
/// scheme missing from the current run is itself a failure).
pub fn check_regression(baseline: &PerfReport, current: &PerfReport) -> Result<String, String> {
    let ratio = current.total_cycles_per_sec / baseline.total_cycles_per_sec;
    let verdict = format!(
        "aggregate {:.2e} cycles/s vs baseline {:.2e} ({}{:.1}%)",
        current.total_cycles_per_sec,
        baseline.total_cycles_per_sec,
        if ratio >= 1.0 { "+" } else { "" },
        (ratio - 1.0) * 100.0
    );
    if ratio < 1.0 - REGRESSION_TOLERANCE {
        return Err(format!("throughput regression: {verdict}"));
    }
    for base in &baseline.schemes {
        let Some(cur) = current.schemes.iter().find(|s| s.scheme == base.scheme) else {
            return Err(format!("scheme {} missing from current run", base.scheme));
        };
        let r = cur.cycles_per_sec / base.cycles_per_sec;
        if r < 1.0 - REGRESSION_TOLERANCE {
            return Err(format!(
                "throughput regression in {}: {:.2e} cycles/s vs baseline {:.2e} ({:.1}%)",
                base.scheme,
                cur.cycles_per_sec,
                base.cycles_per_sec,
                (r - 1.0) * 100.0
            ));
        }
    }
    Ok(verdict)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(total: f64) -> PerfReport {
        PerfReport {
            schema: SCHEMA.into(),
            nodes: 64,
            rates: RATES.to_vec(),
            quick: true,
            total_cycles_per_sec: total,
            schemes: vec![SchemePerf {
                scheme: "DHS".into(),
                simulated_cycles: 1000,
                delivered_packets: 10,
                wall_ns: 1000,
                cycles_per_sec: total,
                ns_per_packet: 100.0,
            }],
        }
    }

    #[test]
    fn validate_accepts_wellformed_and_rejects_broken() {
        assert!(validate(&dummy(1e6)).is_ok());
        let mut r = dummy(1e6);
        r.schema = "other/9".into();
        assert!(validate(&r).is_err());
        let mut r = dummy(1e6);
        r.schemes.clear();
        assert!(validate(&r).is_err());
        let mut r = dummy(1e6);
        r.schemes[0].cycles_per_sec = f64::NAN;
        assert!(validate(&r).is_err());
    }

    #[test]
    fn regression_gate_uses_tolerance() {
        let base = dummy(1e6);
        assert!(check_regression(&base, &dummy(1.05e6)).is_ok(), "faster");
        assert!(check_regression(&base, &dummy(0.95e6)).is_ok(), "within");
        assert!(check_regression(&base, &dummy(0.85e6)).is_err(), "beyond");
    }

    #[test]
    fn regression_gate_catches_single_scheme_drop() {
        let base = dummy(1e6);
        // Aggregate holds steady, but the one scheme craters: the
        // per-scheme clause must fire.
        let mut cur = dummy(1e6);
        cur.schemes[0].cycles_per_sec = 0.85e6;
        let err = check_regression(&base, &cur).unwrap_err();
        assert!(err.contains("regression in DHS"), "{err}");
        // A scheme disappearing from the report is also a failure.
        let mut cur = dummy(1e6);
        cur.schemes[0].scheme = "renamed".into();
        assert!(check_regression(&base, &cur)
            .unwrap_err()
            .contains("missing"));
    }

    #[test]
    fn baseline_with_legacy_phase_lists_still_loads() {
        // Baselines written while the span profiler existed carry a
        // per-scheme `"phases"` list; unknown fields are skipped on load.
        let s = serde_json::to_string(&dummy(1e6)).unwrap().replace(
            "\"ns_per_packet\"",
            "\"phases\":[{\"name\":\"phase_acks\",\"calls\":1,\"nanos\":2}],\"ns_per_packet\"",
        );
        assert!(s.contains("phases"));
        let back: PerfReport = serde_json::from_str(&s).unwrap();
        assert!(validate(&back).is_ok());
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = dummy(2.5e6);
        let s = serde_json::to_string(&r).unwrap();
        let back: PerfReport = serde_json::from_str(&s).unwrap();
        assert_eq!(back.schema, SCHEMA);
        assert_eq!(back.schemes.len(), 1);
        assert!((back.total_cycles_per_sec - 2.5e6).abs() < 1.0);
    }
}
