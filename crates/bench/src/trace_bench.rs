//! Trace-ingestion throughput: the data-path baseline for `pnoc-trace`.
//!
//! [`measure`] generates a PTRC stream from the most network-intensive
//! application profile and times the two halves of the trace data path:
//! **write** (streaming synthesis through [`pnoc_trace::TraceWriter`],
//! delta + varint encoding, per-chunk CRC) and **ingest**
//! ([`pnoc_trace::StreamingTraceReader`] decoding every event, CRC
//! verification included). The numbers quantify the encode/decode hot
//! loops, not the simulator: a regression here means trace replay got
//! slower at feeding the network.
//!
//! `pnoc trace bench` emits the report as `BENCH_trace.json` (schema
//! [`SCHEMA`]); `ci.sh` reruns the measurement in `--quick` mode and fails
//! if ingestion throughput regresses more than [`REGRESSION_TOLERANCE`]
//! against the checked-in baseline. Each timed pass runs twice and the
//! faster pass is kept (best-of-N absorbs scheduler noise; the encoder and
//! decoder are deterministic, so both passes do identical work).

use pnoc_traffic::paper_app;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Report schema identifier (bump on layout changes).
pub const SCHEMA: &str = "pnoc-trace/1";

/// Relative throughput loss that fails the CI gate, applied to both the
/// write and the ingest rate.
pub const REGRESSION_TOLERANCE: f64 = 0.10;

/// The application profile the benchmark streams (NAS integer sort — the
/// most network-intensive trace of the paper's set, so the densest stream).
pub const APP: &str = "nas.is";

/// The trace dimensions: the paper network's 256 cores on 64 nodes.
pub const CORES: usize = 256;

/// Nodes of the benchmark trace.
pub const NODES: usize = 64;

/// The trace-ingestion throughput report written to `BENCH_trace.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceBenchReport {
    /// Schema identifier ([`SCHEMA`]).
    pub schema: String,
    /// Whether the reduced-length (`--quick`) trace was used.
    pub quick: bool,
    /// Application profile streamed.
    pub app: String,
    /// Trace length in cycles.
    pub length: u64,
    /// Events in the benchmark trace.
    pub events: u64,
    /// Encoded size in bytes.
    pub bytes: u64,
    /// Encoded bytes per event (compactness of the format).
    pub bytes_per_event: f64,
    /// Streaming synthesis + encode throughput, events/second (best of two).
    pub write_events_per_sec: f64,
    /// Streaming decode throughput, events/second (best of two) — the
    /// number the CI regression gate compares.
    pub ingest_events_per_sec: f64,
    /// Streaming decode throughput, megabytes/second.
    pub ingest_mb_per_sec: f64,
}

/// Trace length (cycles) for the given fidelity.
pub fn bench_length(quick: bool) -> u64 {
    if quick {
        20_000
    } else {
        200_000
    }
}

/// Measure write and ingest throughput of the PTRC data path.
///
/// The timed passes run as jobs on a dedicated **single-worker**
/// [`pnoc_fleet::Fleet`] — one worker serializes the measurements so the
/// encoder and decoder never contend for cores, keeping the numbers
/// comparable with the checked-in baseline regardless of host parallelism.
pub fn measure(quick: bool) -> TraceBenchReport {
    let app = paper_app(APP).expect("benchmark profile exists");
    let length = bench_length(quick);
    let rig = pnoc_fleet::Fleet::new(1);
    // Untimed warmup: page in code and warm the allocator on the same
    // worker thread the timed passes will use.
    rig.map(vec![()], {
        let app = app.clone();
        move |_, ()| {
            let _ = pnoc_trace::generate_app(&app, CORES, NODES, 2_000, 1, 4096, Vec::new());
        }
    });
    let results = rig.map(vec![()], move |_, ()| {
        // Timed write passes (identical deterministic work each pass).
        let mut best_write_ns = u64::MAX;
        let mut encoded: Vec<u8> = Vec::new();
        let mut events = 0u64;
        for _ in 0..2 {
            let t0 = Instant::now();
            let (bytes, stats) =
                pnoc_trace::generate_app(&app, CORES, NODES, length, 7, 4096, Vec::new())
                    .expect("generation into memory cannot fail");
            let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            best_write_ns = best_write_ns.min(ns);
            encoded = bytes;
            events = stats.events;
        }
        // Timed ingest passes over the encoded bytes.
        let mut best_ingest_ns = u64::MAX;
        for _ in 0..2 {
            let t0 = Instant::now();
            let reader = pnoc_trace::StreamingTraceReader::open(encoded.as_slice())
                .expect("benchmark trace is well-formed");
            let mut decoded = 0u64;
            for ev in reader {
                ev.expect("benchmark trace is uncorrupted");
                decoded += 1;
            }
            assert_eq!(decoded, events, "decode covers every event");
            let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            best_ingest_ns = best_ingest_ns.min(ns);
        }
        (events, encoded.len() as u64, best_write_ns, best_ingest_ns)
    });
    let (events, bytes, write_ns, ingest_ns) = results[0];
    TraceBenchReport {
        schema: SCHEMA.into(),
        quick,
        app: APP.into(),
        length,
        events,
        bytes,
        bytes_per_event: bytes as f64 / events.max(1) as f64,
        write_events_per_sec: events as f64 / (write_ns as f64 / 1e9),
        ingest_events_per_sec: events as f64 / (ingest_ns as f64 / 1e9),
        ingest_mb_per_sec: bytes as f64 / 1e6 / (ingest_ns as f64 / 1e9),
    }
}

/// Validate a report's schema: identifier, coverage, and finite positive
/// throughput numbers. Returns a description of the first problem.
pub fn validate(report: &TraceBenchReport) -> Result<(), String> {
    if report.schema != SCHEMA {
        return Err(format!(
            "schema mismatch: {} (expected {SCHEMA})",
            report.schema
        ));
    }
    if report.events == 0 || report.bytes == 0 {
        return Err("empty benchmark trace".into());
    }
    for (name, v) in [
        ("bytes_per_event", report.bytes_per_event),
        ("write_events_per_sec", report.write_events_per_sec),
        ("ingest_events_per_sec", report.ingest_events_per_sec),
        ("ingest_mb_per_sec", report.ingest_mb_per_sec),
    ] {
        if !(v.is_finite() && v > 0.0) {
            return Err(format!("{name} must be finite and positive (got {v})"));
        }
    }
    Ok(())
}

/// Compare a fresh run against the checked-in baseline. `Err` describes
/// the first regression beyond [`REGRESSION_TOLERANCE`] — on ingest (the
/// primary number) or on write throughput.
pub fn check_regression(
    baseline: &TraceBenchReport,
    current: &TraceBenchReport,
) -> Result<String, String> {
    let ratio = current.ingest_events_per_sec / baseline.ingest_events_per_sec;
    let verdict = format!(
        "ingest {:.2e} events/s vs baseline {:.2e} ({}{:.1}%)",
        current.ingest_events_per_sec,
        baseline.ingest_events_per_sec,
        if ratio >= 1.0 { "+" } else { "" },
        (ratio - 1.0) * 100.0
    );
    if ratio < 1.0 - REGRESSION_TOLERANCE {
        return Err(format!("ingest regression: {verdict}"));
    }
    let wr = current.write_events_per_sec / baseline.write_events_per_sec;
    if wr < 1.0 - REGRESSION_TOLERANCE {
        return Err(format!(
            "write regression: {:.2e} events/s vs baseline {:.2e} ({:.1}%)",
            current.write_events_per_sec,
            baseline.write_events_per_sec,
            (wr - 1.0) * 100.0
        ));
    }
    Ok(verdict)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(ingest: f64, write: f64) -> TraceBenchReport {
        TraceBenchReport {
            schema: SCHEMA.into(),
            quick: true,
            app: APP.into(),
            length: 20_000,
            events: 1_000_000,
            bytes: 4_000_000,
            bytes_per_event: 4.0,
            write_events_per_sec: write,
            ingest_events_per_sec: ingest,
            ingest_mb_per_sec: ingest * 4.0 / 1e6,
        }
    }

    #[test]
    fn validate_accepts_wellformed_and_rejects_broken() {
        assert!(validate(&dummy(1e8, 5e7)).is_ok());
        let mut r = dummy(1e8, 5e7);
        r.schema = "other/9".into();
        assert!(validate(&r).is_err());
        let mut r = dummy(1e8, 5e7);
        r.events = 0;
        assert!(validate(&r).is_err());
        let mut r = dummy(1e8, 5e7);
        r.ingest_events_per_sec = f64::NAN;
        assert!(validate(&r).is_err());
    }

    #[test]
    fn regression_gate_uses_tolerance() {
        let base = dummy(1e8, 5e7);
        assert!(
            check_regression(&base, &dummy(1.05e8, 5e7)).is_ok(),
            "faster"
        );
        assert!(
            check_regression(&base, &dummy(0.95e8, 5e7)).is_ok(),
            "within"
        );
        assert!(
            check_regression(&base, &dummy(0.85e8, 5e7)).is_err(),
            "beyond"
        );
        // A write-side collapse fails even when ingest holds.
        assert!(check_regression(&base, &dummy(1e8, 0.8 * 5e7)).is_err());
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = dummy(2.5e8, 1e8);
        let s = serde_json::to_string(&r).unwrap();
        let back: TraceBenchReport = serde_json::from_str(&s).unwrap();
        assert_eq!(back.schema, SCHEMA);
        assert!((back.ingest_events_per_sec - 2.5e8).abs() < 1.0);
    }

    #[test]
    fn quick_measurement_is_wellformed() {
        // A tiny end-to-end pass (much shorter than even --quick) through
        // the real measurement path, using the public pieces directly.
        let app = paper_app(APP).expect("profile");
        let (bytes, stats) =
            pnoc_trace::generate_app(&app, CORES, NODES, 1_000, 7, 1024, Vec::new()).unwrap();
        assert!(stats.events > 0);
        let reader = pnoc_trace::StreamingTraceReader::open(bytes.as_slice()).unwrap();
        assert_eq!(reader.count(), stats.events as usize);
    }
}
