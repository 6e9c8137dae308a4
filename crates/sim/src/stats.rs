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
