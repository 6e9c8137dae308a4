//! Workload characterization: the summary numbers evaluation sections print
//! about their traces (rate, burstiness, destination skew).

use crate::trace::{PacketKind, TraceEvent};
use pnoc_sim::Cycle;
use serde::Serialize;

/// Digest of one trace's traffic characteristics.
#[derive(Debug, Clone, Serialize)]
pub struct TraceStats {
    /// Workload name.
    pub name: String,
    /// Messages in the trace.
    pub messages: usize,
    /// Average injection rate, packets/cycle/core.
    pub rate_per_core: f64,
    /// Fraction of messages that are requests.
    pub request_fraction: f64,
    /// Index of dispersion of per-window message counts (1 ≈ Poisson,
    /// larger = burstier). Windows of `window` cycles.
    pub burstiness: f64,
    /// Normalized destination entropy: 1.0 = perfectly uniform over nodes,
    /// 0.0 = a single hot node receives everything.
    pub destination_entropy: f64,
    /// Ratio of the hottest destination's share to the uniform share.
    pub hotspot_factor: f64,
}

/// Single-pass [`TraceStats`] builder for streamed traces.
///
/// Holds O(nodes + length/window) state independent of the event count, so
/// a multi-GB trace is characterized without ever being held in memory.
#[derive(Debug, Clone)]
pub struct StatsAccumulator {
    cores: usize,
    length: Cycle,
    window: u64,
    messages: usize,
    requests: usize,
    dest_counts: Vec<u64>,
    window_counts: Vec<u64>,
}

impl StatsAccumulator {
    /// An accumulator for a trace of the given dimensions, using
    /// `window`-cycle bins for burstiness.
    pub fn new(cores: usize, nodes: usize, length: Cycle, window: u64) -> Self {
        assert!(window > 0, "window must be positive");
        let windows = length.div_ceil(window) as usize;
        Self {
            cores,
            length,
            window,
            messages: 0,
            requests: 0,
            dest_counts: vec![0u64; nodes],
            window_counts: vec![0u64; windows.max(1)],
        }
    }

    /// Fold one event in. Events must respect the dimensions given to
    /// [`StatsAccumulator::new`] (`dst_node < nodes`, `cycle < length`).
    pub fn record(&mut self, ev: &TraceEvent) {
        if ev.kind == PacketKind::Request {
            self.requests += 1;
        }
        self.dest_counts[ev.dst_node] += 1;
        self.window_counts[(ev.cycle / self.window) as usize] += 1;
        self.messages += 1;
    }

    /// Number of events recorded so far.
    pub fn messages(&self) -> usize {
        self.messages
    }

    /// The finished statistics.
    pub fn finalize(&self, name: impl Into<String>) -> TraceStats {
        let messages = self.messages;
        let burstiness = index_of_dispersion(&self.window_counts);
        let (entropy, hotspot) = destination_skew(&self.dest_counts, messages);
        let rate_per_core = if self.length == 0 || self.cores == 0 {
            0.0
        } else {
            messages as f64 / self.length as f64 / self.cores as f64
        };
        TraceStats {
            name: name.into(),
            messages,
            rate_per_core,
            request_fraction: if messages == 0 {
                0.0
            } else {
                self.requests as f64 / messages as f64
            },
            burstiness,
            destination_entropy: entropy,
            hotspot_factor: hotspot,
        }
    }
}

/// Variance-to-mean ratio of counts (≈ 1 for a Poisson stream). A silent
/// stream (no windows, or all-zero windows) has no variability to report:
/// 0.0, a defined value rather than the 0/0 NaN it used to produce, so
/// serialized stats never carry `null` into downstream tooling.
fn index_of_dispersion(counts: &[u64]) -> f64 {
    if counts.is_empty() {
        return 0.0;
    }
    let n = counts.len() as f64;
    let mean = counts.iter().sum::<u64>() as f64 / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = counts
        .iter()
        .map(|&c| {
            let d = c as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / n;
    var / mean
}

/// `(normalized entropy, hottest-destination factor)`. Degenerate inputs
/// (no messages, or a single possible destination) carry no skew evidence
/// and report the vacuously-uniform `(1.0, 1.0)` — defined values,
/// matching the Jain-index convention for empty service vectors.
fn destination_skew(dest_counts: &[u64], total: usize) -> (f64, f64) {
    if total == 0 || dest_counts.len() < 2 {
        return (1.0, 1.0);
    }
    let total_f = total as f64;
    let mut entropy = 0.0;
    let mut max_share = 0.0f64;
    for &c in dest_counts {
        if c == 0 {
            continue;
        }
        let p = c as f64 / total_f;
        entropy -= p * p.ln();
        max_share = max_share.max(p);
    }
    let norm = entropy / (dest_counts.len() as f64).ln();
    let hotspot = max_share * dest_counts.len() as f64;
    (norm, hotspot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::paper_app;

    /// Characterize an event stream with `window`-cycle bins.
    fn analyze(
        cores: usize,
        nodes: usize,
        length: Cycle,
        window: u64,
        events: impl IntoIterator<Item = TraceEvent>,
    ) -> TraceStats {
        let mut acc = StatsAccumulator::new(cores, nodes, length, window);
        for ev in events {
            acc.record(&ev);
        }
        acc.finalize("t")
    }

    #[test]
    fn uniform_trace_has_high_entropy_low_dispersion() {
        let events = (0..1600u64).map(|i| TraceEvent {
            cycle: i,
            src_core: (i % 16) as usize,
            dst_node: (i % 8) as usize,
            kind: PacketKind::Data,
            class: 0,
        });
        let s = analyze(16, 8, 1600, 100, events);
        assert!(
            s.destination_entropy > 0.99,
            "entropy {}",
            s.destination_entropy
        );
        assert!((s.hotspot_factor - 1.0).abs() < 0.05);
        assert!(s.burstiness < 0.2, "constant stream disperses ~0");
        assert_eq!(s.messages, 1600);
    }

    #[test]
    fn hot_trace_has_low_entropy() {
        let events = (0..1000u64).map(|i| TraceEvent {
            cycle: i,
            src_core: 0,
            dst_node: 7,
            kind: PacketKind::Request,
            class: 0,
        });
        let s = analyze(16, 8, 1000, 100, events);
        assert!(s.destination_entropy < 0.01);
        assert!((s.hotspot_factor - 8.0).abs() < 1e-9);
        assert_eq!(s.request_fraction, 1.0);
    }

    #[test]
    fn bursty_app_traces_are_bursty() {
        let app = paper_app("nas.is").unwrap();
        let mut acc = StatsAccumulator::new(64, 16, 20_000, 50);
        let n = app
            .synthesize(64, 16, 20_000, 4, |ev| {
                acc.record(&ev);
                Ok(())
            })
            .unwrap();
        assert_eq!(acc.messages() as u64, n);
        let s = acc.finalize(app.name);
        assert!(
            s.burstiness > 2.0,
            "on/off injection must look over-dispersed, got {}",
            s.burstiness
        );
        assert!(s.rate_per_core > 0.01);
        assert!(s.request_fraction > 0.4 && s.request_fraction < 0.7);
    }

    #[test]
    fn empty_trace_degenerates_to_defined_values() {
        // Zero-packet statistics must be defined, not NaN: NaN serializes
        // as `null` and poisons any sum it is folded into downstream. A
        // zero-length trace must not divide by zero either.
        for length in [100, 0] {
            let s = analyze(4, 4, length, 10, []);
            assert_eq!(s.messages, 0);
            assert_eq!(s.rate_per_core, 0.0);
            assert_eq!(s.burstiness, 0.0, "a silent stream is not bursty");
            assert_eq!(s.destination_entropy, 1.0, "vacuously uniform");
            assert_eq!(s.hotspot_factor, 1.0);
            assert_eq!(s.request_fraction, 0.0);
        }
    }

    #[test]
    fn single_destination_skew_is_defined() {
        let events = (0..10u64).map(|i| TraceEvent {
            cycle: i,
            src_core: 0,
            dst_node: 0,
            kind: PacketKind::Data,
            class: 0,
        });
        let s = analyze(1, 1, 10, 10, events);
        assert_eq!(s.destination_entropy, 1.0, "one node is trivially uniform");
        assert_eq!(s.hotspot_factor, 1.0);
    }
}
