//! Measurement: per-run counters and the derived run summary.

use crate::channel::Delivery;
use crate::packet::Packet;
use pnoc_obs::LatencyRecorder;
use pnoc_sim::stats::{jain_index, Running};
use pnoc_sim::{BatchMeans, Cycle};
use pnoc_traffic::MAX_CLASSES;
use serde::Serialize;

/// Raw counters accumulated while the network runs.
#[derive(Debug, Clone)]
pub struct NetworkMetrics {
    /// End-to-end latency of measured packets (generation → ejection).
    pub latency: Running,
    /// Latency distribution for percentiles: exact 1-cycle bins over
    /// 0..2048 (where the paper's figures live), ~3 % log buckets beyond.
    /// Replaces the fixed 2048-bin histogram that clipped tail samples into
    /// an overflow bucket and reported `p99 = +inf` near saturation.
    pub latency_rec: LatencyRecorder,
    /// Batch-means accumulator for a confidence interval on the mean latency
    /// (consecutive packet latencies are autocorrelated; see
    /// [`pnoc_sim::batch`]).
    pub latency_batches: BatchMeans,
    /// Output-queue wait of measured packets (enqueue → first transmission);
    /// this is the paper's "token waiting time" component.
    pub queue_wait: Running,
    /// Packets generated (all / measured window).
    pub generated: u64,
    /// Packets generated inside the measurement window.
    pub generated_measured: u64,
    /// Packets delivered to their destination cores (all / measured).
    pub delivered: u64,
    /// Measured packets delivered.
    pub delivered_measured: u64,
    /// Ring transmissions (including retransmissions and recirculated loops).
    pub sends: u64,
    /// Packets that reached a full home buffer and were dropped (`NACKed`).
    pub drops: u64,
    /// Retransmissions performed after NACKs.
    pub retransmissions: u64,
    /// Extra loops taken by packets under circulation.
    pub circulations: u64,
    /// Packets that arrived at a home (pre-buffer-check).
    pub arrivals: u64,

    // --- multi-tenant (per-class) counters ---
    /// Measured deliveries per traffic class. Class 0 is the default:
    /// untagged traffic (every pre-`QoS` call site) lands there, so these
    /// always sum to the global measured delivery count.
    pub class_delivered: [u64; MAX_CLASSES],
    /// Per-class end-to-end latency running mean/variance.
    pub class_latency: [Running; MAX_CLASSES],
    /// Per-class latency distributions (same binning as `latency_rec`, so
    /// the class recorders partition the global one bin-for-bin).
    pub class_latency_rec: [LatencyRecorder; MAX_CLASSES],

    // --- reliability counters (all zero on fault-free runs) ---
    /// Data flits destroyed in flight by the fault engine.
    pub faults_data_lost: u64,
    /// Data flits that arrived corrupt (failed the home's CRC).
    pub faults_data_corrupt: u64,
    /// ACK/NACK pulses lost on the handshake channel.
    pub faults_acks_lost: u64,
    /// Arbitration tokens destroyed in flight.
    pub faults_tokens_lost: u64,
    /// Home-ejection cycles lost to injected drain stalls.
    pub stall_cycles: u64,
    /// Retransmissions triggered by an ACK timeout (as opposed to a NACK).
    pub timeout_retransmissions: u64,
    /// Duplicate arrivals the home discarded (retransmit after a lost ACK);
    /// each was re-ACKed so the sender could release its copy.
    pub duplicates_suppressed: u64,
    /// Packets abandoned after exhausting `max_retries` transmissions.
    pub abandoned: u64,
    /// Flow-control credits permanently destroyed by faults: token-channel
    /// credits on lost flits/tokens and token-slot reservations that can
    /// never be returned. Nonzero here is the credit-leak signature the
    /// handshake schemes are immune to.
    pub credit_leaks: u64,

    /// Packet-lifecycle trace sink. Detached by default; attach one with
    /// [`crate::Network::attach_trace`].
    pub obs: pnoc_obs::ObsSink,
}

impl NetworkMetrics {
    /// Zeroed counters. The latency recorder is exact over 0..2048 cycles.
    pub fn new() -> Self {
        Self {
            latency: Running::new(),
            latency_rec: LatencyRecorder::cycles(),
            latency_batches: BatchMeans::new(256),
            queue_wait: Running::new(),
            generated: 0,
            generated_measured: 0,
            delivered: 0,
            delivered_measured: 0,
            sends: 0,
            drops: 0,
            retransmissions: 0,
            circulations: 0,
            arrivals: 0,
            class_delivered: [0; MAX_CLASSES],
            class_latency: std::array::from_fn(|_| Running::new()),
            class_latency_rec: std::array::from_fn(|_| LatencyRecorder::cycles()),
            faults_data_lost: 0,
            faults_data_corrupt: 0,
            faults_acks_lost: 0,
            faults_tokens_lost: 0,
            stall_cycles: 0,
            timeout_retransmissions: 0,
            duplicates_suppressed: 0,
            abandoned: 0,
            credit_leaks: 0,
            obs: pnoc_obs::ObsSink::default(),
        }
    }

    /// Record one measured end-to-end latency sample into all three
    /// estimators at once: the running mean/variance, the percentile
    /// recorder, and the batch-means CI accumulator. The single entry
    /// point keeps the three views of the distribution in lockstep across
    /// every network implementation (MWSR channel, SWMR ring, electrical
    /// mesh) — a sample recorded into one but not the others would let a
    /// reported mean and its confidence interval disagree about the data.
    #[inline]
    pub fn record_latency(&mut self, lat: f64) {
        self.record_latency_class(0, lat);
    }

    /// Class-tagged variant of [`NetworkMetrics::record_latency`]: records
    /// the same three global estimators *plus* the class's own recorder,
    /// running stats, and delivery counter. Because the untagged path
    /// delegates here with class 0, the per-class views partition the
    /// global distribution on every network implementation — per-bin
    /// recorder counts and delivery totals sum exactly to the global ones.
    #[inline]
    pub fn record_latency_class(&mut self, class: u8, lat: f64) {
        self.latency.record(lat);
        self.latency_rec.record(lat);
        self.latency_batches.record(lat);
        let c = usize::from(class);
        self.class_delivered[c] += 1;
        self.class_latency[c].record(lat);
        self.class_latency_rec[c].record(lat);
    }

    /// The delivery ledger of every fabric: count `pkt` as handed to its
    /// cores at `available_at`, record its latency if measured, and append
    /// it to `deliveries`. Callers credit per-sender service counts before
    /// the call: re-testing `pkt.measured` after the push grew the inlined
    /// MWSR step by ~750 bytes.
    #[inline]
    pub(crate) fn record_delivery(
        &mut self,
        pkt: Packet,
        available_at: Cycle,
        deliveries: &mut Vec<Delivery>,
    ) {
        self.delivered += 1;
        if pkt.measured {
            self.delivered_measured += 1;
            self.record_latency_class(pkt.class, pkt.latency_at(available_at) as f64);
        }
        deliveries.push(Delivery { pkt, available_at });
    }

    /// Record a packet-lifecycle trace event into the attached trace, if
    /// any. Detached (the default), this is one predictable branch.
    #[inline]
    pub fn trace(
        &mut self,
        cycle: Cycle,
        channel: usize,
        node: usize,
        packet: u64,
        kind: pnoc_obs::EventKind,
    ) {
        self.obs
            .emit(pnoc_obs::Event::new(cycle, channel, node, packet, kind));
    }

    /// Retransmissions (NACK- plus timeout-triggered) per ring transmission.
    pub fn retransmit_rate(&self) -> f64 {
        if self.sends == 0 {
            0.0
        } else {
            (self.retransmissions + self.timeout_retransmissions) as f64 / self.sends as f64
        }
    }

    /// Drop-plus-retransmission rate relative to arrivals — the quantity the
    /// paper reports as "below 1 % even in high workloads".
    pub fn drop_rate(&self) -> f64 {
        if self.arrivals == 0 {
            0.0
        } else {
            self.drops as f64 / self.arrivals as f64
        }
    }

    /// Circulation rate relative to arrivals.
    pub fn circulation_rate(&self) -> f64 {
        if self.arrivals == 0 {
            0.0
        } else {
            self.circulations as f64 / self.arrivals as f64
        }
    }
}

impl Default for NetworkMetrics {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-class digest of one run — the `QoS` view of a figure point.
#[derive(Debug, Clone, Serialize)]
pub struct ClassSummary {
    /// Traffic class (0 = default/untagged).
    pub class: u8,
    /// Measured packets delivered for this class.
    pub delivered: u64,
    /// Mean end-to-end latency, cycles; 0.0 when the class saw no traffic
    /// (a defined value, never NaN — see [`defined`]).
    pub avg_latency: f64,
    /// 99th-percentile latency, cycles; 0.0 when the class saw no traffic.
    pub p99_latency: f64,
}

/// Zero-sample guard for summary statistics: the underlying estimators
/// report NaN when they hold no samples, but a *summary* of a degenerate
/// run must stay defined — a figure point with zero packets has zero
/// latency, not an undefined one, and the JSON writer serializes NaN as
/// `null`, which breaks downstream aggregation and plotting.
fn defined(x: f64) -> f64 {
    if x.is_nan() {
        0.0
    } else {
        x
    }
}

/// Digest of one open-loop run — one point on a paper figure.
#[derive(Debug, Clone, Serialize)]
pub struct RunSummary {
    /// Offered load, packets/cycle/core (what the x-axes of Figs. 2, 8, 9 show).
    pub offered_per_core: f64,
    /// Mean latency of measured packets, cycles (the y-axes).
    pub avg_latency: f64,
    /// 95% confidence half-width on the mean latency (batch means, batches
    /// of 256 packets); `NaN` when fewer than two batches completed.
    pub latency_ci95: f64,
    /// 99th-percentile latency, cycles.
    pub p99_latency: f64,
    /// Mean output-queue wait, cycles.
    pub avg_queue_wait: f64,
    /// Delivered measured packets per cycle per core (accepted throughput).
    pub throughput_per_core: f64,
    /// Measured packets delivered.
    pub delivered: u64,
    /// Drop (NACK) rate per arrival.
    pub drop_rate: f64,
    /// Circulation rate per arrival.
    pub circulation_rate: f64,
    /// Jain fairness index over sender service counts, averaged across
    /// channels that saw traffic; 1.0 (vacuously fair) when no channel saw
    /// any — a defined value, never NaN.
    pub jain_fairness: f64,
    /// Jain index of the *least fair* channel — the number positional
    /// starvation shows up in (hotspot channels dilute out of the average).
    /// 1.0 when no channel saw traffic.
    pub jain_worst: f64,
    /// Jain fairness index over per-class measured delivery counts
    /// (classes `0..=` the highest active class); 1.0 when at most one
    /// class is active (vacuously fair).
    pub class_jain: f64,
    /// Per-class latency/throughput digest. Empty when all traffic is
    /// untagged class 0 (single-tenant runs keep their JSON unchanged);
    /// populated for classes `0..=` the highest active class otherwise.
    pub class_summaries: Vec<ClassSummary>,
    /// Whether the run saturated (a large fraction of measured packets never
    /// finished, a heavy latency tail past 2048 cycles, or any sample past
    /// the recorder's range cap).
    pub saturated: bool,

    // --- reliability digest (zero on fault-free runs) ---
    /// Packets generated but never delivered to a core, counted after the
    /// drain grace period: flits destroyed by faults, corrupt deliveries
    /// credit schemes cannot retransmit, and traffic wedged behind leaked
    /// credits all land here.
    pub lost_packets: u64,
    /// Duplicate arrivals suppressed at homes (each re-ACKed; cores never
    /// see a packet twice).
    pub duplicates: u64,
    /// Retransmissions per ring transmission (NACK- plus timeout-triggered).
    pub retransmit_rate: f64,
    /// Retransmissions triggered specifically by ACK timeouts.
    pub timeout_retransmissions: u64,
    /// Packets abandoned after `max_retries` attempts.
    pub abandoned: u64,
    /// Flow-control credits/reservations permanently destroyed by faults.
    pub credit_leaks: u64,
}

impl RunSummary {
    /// Build a summary from metrics plus run geometry. Service counts are
    /// accepted as anything slice-of-`u64`-shaped (`&[Vec<u64>]`,
    /// `&[&[u64]]`) so callers can pass borrows of live counters.
    pub fn from_metrics<S: AsRef<[u64]>>(
        m: &NetworkMetrics,
        per_channel_service: &[S],
        measure_cycles: Cycle,
        cores: usize,
        offered_per_core: f64,
    ) -> Self {
        let denom = (measure_cycles.max(1) as f64) * cores as f64;
        let throughput = m.delivered_measured as f64 / denom;
        let jains: Vec<f64> = per_channel_service
            .iter()
            .map(AsRef::as_ref)
            .filter(|s| s.iter().any(|&c| c > 0))
            .map(|s| {
                let v: Vec<f64> = s.iter().map(|&c| c as f64).collect();
                jain_index(&v)
            })
            .collect();
        // No channel saw traffic → vacuously fair, matching `jain_index`'s
        // all-zero convention. The old NaN here poisoned fleet-level sums.
        let (jain, jain_worst) = if jains.is_empty() {
            (1.0, 1.0)
        } else {
            let avg = jains.iter().sum::<f64>() / jains.len() as f64;
            let worst = jains.iter().copied().fold(f64::INFINITY, f64::min);
            (avg, worst)
        };
        let top_class = (0..MAX_CLASSES).rev().find(|&c| m.class_delivered[c] > 0);
        let (class_jain, class_summaries) = match top_class {
            // Tagged traffic present: digest every class up to the highest
            // active one (idle classes in between report defined zeros).
            Some(top) if top > 0 => {
                let counts: Vec<f64> = m.class_delivered[..=top]
                    .iter()
                    .map(|&d| d as f64)
                    .collect();
                let summaries = (0..=top)
                    .map(|c| ClassSummary {
                        class: u8::try_from(c).expect("MAX_CLASSES fits in u8"),
                        delivered: m.class_delivered[c],
                        avg_latency: defined(m.class_latency[c].mean()),
                        p99_latency: defined(m.class_latency_rec[c].quantile(0.99)),
                    })
                    .collect();
                (jain_index(&counts), summaries)
            }
            _ => (1.0, Vec::new()),
        };
        let unfinished = m.generated_measured.saturating_sub(m.delivered_measured);
        // Saturation: too many measured packets never finished, a heavy
        // latency tail (> 5 % of deliveries past 2048 cycles — the same
        // threshold the old fixed histogram's overflow bucket encoded), or
        // *any* sample past the recorder's 2^40-cycle cap (a run that slow
        // is broken regardless of how few packets hit it — recorder
        // overflow must never masquerade as a converged figure point).
        let saturated = m.generated_measured > 0
            && (unfinished as f64 > 0.10 * m.generated_measured as f64
                || m.latency_rec.count_ge(2048) > m.delivered_measured / 20
                || m.latency_rec.overflow() > 0);
        Self {
            offered_per_core,
            avg_latency: defined(m.latency.mean()),
            latency_ci95: m.latency_batches.ci95_half_width(),
            p99_latency: defined(m.latency_rec.quantile(0.99)),
            avg_queue_wait: defined(m.queue_wait.mean()),
            throughput_per_core: throughput,
            delivered: m.delivered_measured,
            drop_rate: m.drop_rate(),
            circulation_rate: m.circulation_rate(),
            jain_fairness: jain,
            jain_worst,
            class_jain,
            class_summaries,
            saturated,
            lost_packets: m.generated.saturating_sub(m.delivered),
            duplicates: m.duplicates_suppressed,
            retransmit_rate: m.retransmit_rate(),
            timeout_retransmissions: m.timeout_retransmissions,
            abandoned: m.abandoned,
            credit_leaks: m.credit_leaks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_with_no_arrivals_are_zero() {
        let m = NetworkMetrics::new();
        assert!(m.drop_rate().abs() < f64::EPSILON);
        assert!(m.circulation_rate().abs() < f64::EPSILON);
    }

    #[test]
    fn drop_rate_ratio() {
        let mut m = NetworkMetrics::new();
        m.arrivals = 200;
        m.drops = 2;
        assert!((m.drop_rate() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn summary_throughput_and_jain() {
        let mut m = NetworkMetrics::new();
        m.generated_measured = 1000;
        m.delivered_measured = 1000;
        for _ in 0..1000 {
            m.latency.record(20.0);
            m.latency_rec.record(20.0);
        }
        let service = vec![vec![10, 10, 10, 10], vec![0, 0, 0, 0], vec![20, 0, 0, 0]];
        let s = RunSummary::from_metrics(&m, &service, 1000, 4, 0.25);
        assert!((s.throughput_per_core - 0.25).abs() < 1e-12);
        // Average of 1.0 (even channel) and 0.25 (hog channel); idle excluded.
        assert!(
            (s.jain_fairness - 0.625).abs() < 1e-12,
            "idle channel excluded"
        );
        assert!(
            (s.jain_worst - 0.25).abs() < 1e-12,
            "worst channel surfaced"
        );
        assert!(!s.saturated);
        assert!((s.avg_latency - 20.0).abs() < 1e-12);
    }

    #[test]
    fn reliability_digest_mirrors_counters() {
        let mut m = NetworkMetrics::new();
        m.generated = 100;
        m.delivered = 90;
        m.sends = 200;
        m.retransmissions = 6;
        m.timeout_retransmissions = 4;
        m.duplicates_suppressed = 3;
        m.credit_leaks = 7;
        assert!((m.retransmit_rate() - 0.05).abs() < 1e-12);
        let s = RunSummary::from_metrics::<&[u64]>(&m, &[], 1000, 4, 0.1);
        assert_eq!(s.lost_packets, 10);
        assert_eq!(s.duplicates, 3);
        assert_eq!(s.timeout_retransmissions, 4);
        assert_eq!(s.credit_leaks, 7);
        assert!((s.retransmit_rate - 0.05).abs() < 1e-12);
    }

    #[test]
    fn zero_packet_summary_is_fully_defined() {
        // The degenerate-statistics contract: a run that delivered nothing
        // reports defined numbers everywhere (no NaN Jain, no 0/0 means),
        // so fleet aggregation and JSON plotting never see `null`.
        let m = NetworkMetrics::new();
        let s = RunSummary::from_metrics::<&[u64]>(&m, &[], 1000, 4, 0.0);
        assert!(s.avg_latency.abs() < 1e-12);
        assert!(s.p99_latency.abs() < 1e-12);
        assert!(s.avg_queue_wait.abs() < 1e-12);
        assert!((s.jain_fairness - 1.0).abs() < 1e-12, "vacuously fair");
        assert!((s.jain_worst - 1.0).abs() < 1e-12);
        assert!((s.class_jain - 1.0).abs() < 1e-12);
        assert!(s.class_summaries.is_empty());
        assert!(!s.saturated);
    }

    #[test]
    fn untagged_runs_keep_class_summaries_empty() {
        let mut m = NetworkMetrics::new();
        m.generated_measured = 10;
        m.delivered_measured = 10;
        for _ in 0..10 {
            m.record_latency(12.0);
        }
        assert_eq!(m.class_delivered[0], 10, "untagged samples land in class 0");
        let s = RunSummary::from_metrics::<&[u64]>(&m, &[], 1000, 4, 0.1);
        assert!(
            s.class_summaries.is_empty(),
            "single-class JSON stays compact"
        );
        assert!((s.class_jain - 1.0).abs() < 1e-12);
    }

    #[test]
    fn classed_runs_partition_and_digest_per_class() {
        let mut m = NetworkMetrics::new();
        for _ in 0..30 {
            m.record_latency_class(0, 10.0);
        }
        for _ in 0..10 {
            m.record_latency_class(2, 40.0);
        }
        m.generated_measured = 40;
        m.delivered_measured = 40;
        assert_eq!(m.latency.count(), 40, "global estimator sees every class");
        let s = RunSummary::from_metrics::<&[u64]>(&m, &[], 1000, 4, 0.1);
        assert_eq!(s.class_summaries.len(), 3, "classes 0..=top active class");
        assert_eq!(s.class_summaries[0].delivered, 30);
        assert_eq!(s.class_summaries[1].delivered, 0);
        assert_eq!(s.class_summaries[2].delivered, 10);
        assert!((s.class_summaries[0].avg_latency - 10.0).abs() < 1e-12);
        assert!(
            s.class_summaries[1].avg_latency.abs() < 1e-12,
            "idle class reports defined zeros"
        );
        assert!(s.class_summaries[2].p99_latency >= 40.0);
        assert!((s.class_jain - jain_index(&[30.0, 0.0, 10.0])).abs() < 1e-12);
        assert!(
            (s.avg_latency - 17.5).abs() < 1e-12,
            "global mean is blended"
        );
    }

    #[test]
    fn summary_flags_saturation() {
        let mut m = NetworkMetrics::new();
        m.generated_measured = 1000;
        m.delivered_measured = 500; // half never finished
        let s = RunSummary::from_metrics::<&[u64]>(&m, &[], 1000, 4, 0.5);
        assert!(s.saturated);
    }

    #[test]
    fn tail_latency_past_2048_is_finite_and_flags_saturation() {
        // The headline bug: with the old fixed histogram, a run with > 5 %
        // of samples past 2048 cycles reported p99 = +inf.
        let mut m = NetworkMetrics::new();
        m.generated_measured = 100;
        m.delivered_measured = 100;
        for _ in 0..90 {
            m.latency.record(50.0);
            m.latency_rec.record(50.0);
        }
        for _ in 0..10 {
            m.latency.record(5000.0);
            m.latency_rec.record(5000.0);
        }
        let s = RunSummary::from_metrics::<&[u64]>(&m, &[], 1000, 4, 0.5);
        assert!(
            s.p99_latency.is_finite(),
            "p99 must never be clipped to inf"
        );
        assert!(
            s.p99_latency >= 5000.0 && s.p99_latency < 5200.0,
            "p99 {} not within one log bucket of 5000",
            s.p99_latency
        );
        assert!(s.saturated, "a 10 % tail past 2048 cycles is saturation");
    }

    #[test]
    fn recorder_overflow_always_flags_saturation() {
        // A single absurd sample (past the 2^40-cycle cap) must mark the
        // point unconverged even though unfinished == 0 and the tail is
        // otherwise tiny.
        let mut m = NetworkMetrics::new();
        m.generated_measured = 1000;
        m.delivered_measured = 1000;
        for _ in 0..999 {
            m.latency_rec.record(10.0);
        }
        m.latency_rec.record(2.0f64.powi(41));
        let s = RunSummary::from_metrics::<&[u64]>(&m, &[], 1000, 4, 0.5);
        assert!(s.saturated, "recorder overflow must flag saturation");
        assert!(s.p99_latency.is_finite());
    }
}
