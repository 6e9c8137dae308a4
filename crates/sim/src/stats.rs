//! Streaming statistics for simulation measurement.
//!
//! The latency-vs-load figures in the paper report *average packet latency*;
//! the sensitivity studies additionally need percentiles and per-node service
//! counts (fairness). Everything here is single-pass and allocation-light so
//! it can be updated every cycle without distorting the measurement.

use serde::{Deserialize, Serialize};

/// Single-pass mean/variance/min/max accumulator (Welford's algorithm).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Running {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Running {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Running) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.count as f64 / total as f64;
        let m2 = self.m2
            + other.m2
            + delta * delta * (self.count as f64) * (other.count as f64) / total as f64;
        self.count = total;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean; `NaN` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Population variance; `NaN` when empty.
    pub fn variance(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation; `NaN` when empty.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation; `+inf` when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation; `-inf` when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// Fixed-width-bin histogram over `[0, bins * width)` with an overflow bucket.
///
/// Used for packet-latency distributions: the paper's figures clip at 100
/// cycles, so a default of 512 one-cycle bins comfortably covers the range
/// while keeping percentile queries exact for everything that matters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    width: f64,
    counts: Vec<u64>,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// `bins` buckets of `width` each, plus an overflow bucket.
    pub fn new(bins: usize, width: f64) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(width > 0.0, "bin width must be positive");
        Self {
            width,
            counts: vec![0; bins],
            overflow: 0,
            total: 0,
        }
    }

    /// One-cycle-wide bins — the usual configuration for latency in cycles.
    pub fn cycles(bins: usize) -> Self {
        Self::new(bins, 1.0)
    }

    /// Record one observation (negative values clamp to bin 0).
    #[inline]
    pub fn record(&mut self, x: f64) {
        self.total += 1;
        if x < 0.0 {
            self.counts[0] += 1;
            return;
        }
        let idx = (x / self.width) as usize;
        if idx < self.counts.len() {
            self.counts[idx] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Merge another histogram with identical geometry.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.width, other.width, "bin width mismatch");
        assert_eq!(self.counts.len(), other.counts.len(), "bin count mismatch");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.total += other.total;
    }

    /// Total observations recorded (including overflow).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Observations that exceeded the binned range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// The `q`-quantile (`0.0..=1.0`) as the upper edge of the bucket that
    /// contains it; `NaN` when empty, `+inf` when the quantile falls in the
    /// overflow bucket.
    ///
    /// The `+inf` case is why packet-latency percentiles no longer use this
    /// type: any tail past `bins * width` is reported as infinite, which
    /// silently clips near-saturation p99s. `pnoc_obs::LatencyRecorder`
    /// keeps the same rank convention (see [`exact_quantile`]) with
    /// log-bucketed range out to 2^40 and an explicit overflow counter.
    /// `Histogram` remains correct for bounded-range data.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.total == 0 {
            return f64::NAN;
        }
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return (i as f64 + 1.0) * self.width;
            }
        }
        f64::INFINITY
    }

    /// Median (50th percentile).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Mean computed from bucket midpoints (overflow excluded).
    pub fn binned_mean(&self) -> f64 {
        if self.total == self.overflow {
            return f64::NAN;
        }
        let mut acc = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += (i as f64 + 0.5) * self.width * c as f64;
        }
        acc / (self.total - self.overflow) as f64
    }

    /// Raw bucket counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }
}

/// The exact `q`-quantile of a sample set, by the same rank convention the
/// binned estimators use: the value of the `ceil(q * n).max(1)`-th smallest
/// sample. `NaN` when empty. O(n log n) — this is the test oracle the binned
/// quantiles are property-checked against, not a hot-path statistic.
pub fn exact_quantile(samples: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let target = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[target - 1]
}

/// Jain's fairness index over per-entity service counts:
/// `(Σx)² / (n · Σx²)`. 1.0 = perfectly fair, `1/n` = one entity hogs all.
///
/// Used by the fairness experiments (§III-D of the paper): with setaside or
/// circulation enabled, nodes near the home node can starve downstream nodes
/// unless the sit-out policy is active.
pub fn jain_index(service: &[f64]) -> f64 {
    if service.is_empty() {
        // No entities is vacuously fair, like the all-zero case below: a
        // defined 1.0, never NaN, so summary aggregation (which sums Jain
        // values across runs) cannot be poisoned by a degenerate run.
        return 1.0;
    }
    let sum: f64 = service.iter().sum();
    let sq: f64 = service.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        // All-zero service is vacuously fair.
        return 1.0;
    }
    sum * sum / (service.len() as f64 * sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_basic_moments() {
        let mut r = Running::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            r.record(x);
        }
        assert_eq!(r.count(), 8);
        assert!((r.mean() - 5.0).abs() < 1e-12);
        assert!((r.variance() - 4.0).abs() < 1e-12);
        assert!((r.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(r.min(), 2.0);
        assert_eq!(r.max(), 9.0);
    }

    #[test]
    fn running_empty_is_nan() {
        let r = Running::new();
        assert!(r.mean().is_nan());
        assert!(r.variance().is_nan());
        assert!(r.is_empty());
    }

    #[test]
    fn running_merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Running::new();
        for &x in &data {
            whole.record(x);
        }
        let mut a = Running::new();
        let mut b = Running::new();
        for &x in &data[..37] {
            a.record(x);
        }
        for &x in &data[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn running_merge_with_empty() {
        let mut a = Running::new();
        a.record(3.0);
        let b = Running::new();
        a.merge(&b);
        assert_eq!(a.count(), 1);
        let mut c = Running::new();
        c.merge(&a);
        assert_eq!(c.count(), 1);
        assert_eq!(c.mean(), 3.0);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::cycles(100);
        for i in 0..100 {
            h.record(i as f64);
        }
        assert_eq!(h.total(), 100);
        assert!((h.median() - 50.0).abs() <= 1.0);
        assert!((h.quantile(0.99) - 99.0).abs() <= 1.0);
        assert_eq!(h.quantile(0.0), 1.0); // first non-empty bucket's upper edge
    }

    #[test]
    fn histogram_overflow() {
        let mut h = Histogram::cycles(10);
        h.record(5.0);
        h.record(1e9);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 2);
        assert_eq!(h.quantile(1.0), f64::INFINITY);
    }

    #[test]
    fn histogram_negative_clamps() {
        let mut h = Histogram::cycles(4);
        h.record(-3.0);
        assert_eq!(h.counts()[0], 1);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::cycles(8);
        let mut b = Histogram::cycles(8);
        a.record(1.0);
        b.record(2.0);
        b.record(100.0);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.overflow(), 1);
    }

    #[test]
    fn histogram_binned_mean() {
        let mut h = Histogram::new(10, 1.0);
        h.record(2.2);
        h.record(2.9);
        // both land in bin 2 => midpoint 2.5
        assert!((h.binned_mean() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn jain_perfectly_fair() {
        assert!((jain_index(&[3.0, 3.0, 3.0, 3.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jain_single_hog() {
        let idx = jain_index(&[10.0, 0.0, 0.0, 0.0]);
        assert!((idx - 0.25).abs() < 1e-12);
    }

    #[test]
    fn jain_edge_cases() {
        assert_eq!(jain_index(&[]), 1.0, "no entities is vacuously fair");
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
    }
}
