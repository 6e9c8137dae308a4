//! Small numeric and bookkeeping helpers: medians, tail percentiles,
//! metric-name rules and the failed/attempted tally.

/// Median of `values` (mean of the two middle values for an even count).
/// Returns `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Minimum samples that must lie strictly above a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank index of percentile `p` (0 < p ≤ 100) in a sorted sample of
/// `n` values.
pub fn rank_index(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Samples strictly above the nearest-rank percentile `p` of `n` values.
pub fn samples_above(n: usize, p: f64) -> usize {
    n - 1 - rank_index(n, p)
}

/// The highest percentile from `ladder` (searched high to low) that keeps
/// at least [`TAIL_SAMPLES`] of `n` samples above it, or `None` when even
/// the lowest rung does not.
pub fn tail_percentile(n: usize, ladder: &[f64]) -> Option<f64> {
    if n == 0 {
        return None;
    }
    let mut rungs = ladder.to_vec();
    rungs.sort_by(|a, b| b.total_cmp(a));
    rungs
        .into_iter()
        .find(|&p| samples_above(n, p) >= TAIL_SAMPLES)
}

/// Nearest-rank percentile `p` of `sorted` (ascending).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank_index(sorted.len(), p)]
}

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 characters from letters, digits, `_`, `.` and `-`.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Whether `unit` is a valid unit: 1 to 16 characters from letters,
/// digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&unit.len()) && unit.chars().all(ok_char)
}

/// Failed operations counted against attempted ones. Every output check
/// is one attempted operation; a failed check also prints why.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
}

impl Tally {
    /// Count one operation; `ok == false` counts it failed and reports
    /// `what` on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// Failed share of attempted operations (0 when nothing was attempted).
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_above() {
        let ladder = [50.0, 90.0, 95.0, 99.0, 99.9];
        // 252 fleet jobs: p95 leaves 12 above, p99 only 2.
        assert_eq!(tail_percentile(252, &ladder), Some(95.0));
        assert_eq!(samples_above(252, 95.0), 12);
        // 20 000 steps: p99.9 leaves 20 above.
        assert_eq!(tail_percentile(20_000, &ladder), Some(99.9));
        // 100 samples: p90 leaves exactly 10 above, p95 only 5.
        assert_eq!(tail_percentile(100, &ladder), Some(90.0));
        // Too few samples for any rung.
        assert_eq!(tail_percentile(15, &ladder), None);
        assert_eq!(tail_percentile(0, &ladder), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.9), 7.0);
    }

    #[test]
    fn metric_names_follow_the_character_set() {
        for ok in [
            "setup_s",
            "noc.step_ns_p999",
            "fleet.worker_idle_frac",
            "9lives",
            "a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/name",
            "pct%",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"x".repeat(64)));
    }

    #[test]
    fn units_follow_the_character_set() {
        for ok in ["ms", "s", "1/s", "count", "cycles/s", "%", "B/event"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "has space", "seventeen-chars-x"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.fail_frac(), 0.0);
        t.check(true, || unreachable!("passing checks build no message"));
        t.check(true, String::new);
        t.check(false, || "expected failure in a self-test".into());
        t.check(true, String::new);
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 1
            }
        );
        assert_eq!(t.fail_frac(), 0.25);
    }
}
