//! Property tests for [`pnoc_obs::LatencyRecorder`] against the exact
//! sorted-sample quantile oracle, plus the regression pin for the
//! histogram-clipping bug the recorder exists to fix.

use pnoc_obs::{LatencyRecorder, CAP_LOG2, SUB_BUCKETS};
use pnoc_sim::exact_quantile;
use proptest::prelude::*;

/// Samples spanning all three recorder regions: the exact linear bins, the
/// log-bucketed mid-range, and past-the-cap overflow.
fn sample_vec() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(
        prop_oneof![
            0u64..2048,
            2048u64..1_000_000,
            (1u64 << CAP_LOG2)..(1u64 << (CAP_LOG2 + 2)),
        ],
        1..300,
    )
}

proptest! {
    /// For any mix of linear/log/overflow samples and any `q`, the recorder
    /// reports the upper edge of the bucket holding the exact rank-`q`
    /// sample: strictly above it, within one bucket width (≤ 1 cycle in the
    /// linear region, ≤ 1/SUB_BUCKETS relative beyond), and equal to the
    /// exact maximum when the rank falls past the cap — never infinite.
    #[test]
    fn quantile_tracks_exact_rank_within_one_bucket(
        samples in sample_vec(),
        q in 0.0f64..=1.0,
    ) {
        let mut r = LatencyRecorder::cycles();
        for &v in &samples {
            r.record_cycles(v);
        }
        let as_f64: Vec<f64> = samples.iter().map(|&v| v as f64).collect();
        let exact = exact_quantile(&as_f64, q);
        let got = r.quantile(q);
        prop_assert!(got.is_finite(), "recorder must never report inf (got {got})");
        if exact >= (1u64 << CAP_LOG2) as f64 {
            // Rank falls in overflow: the recorder reports its tracked max,
            // which bounds the exact value from above.
            prop_assert_eq!(got, r.max() as f64);
            prop_assert!(got >= exact, "max {got} below exact {exact}");
        } else {
            let width = (exact / SUB_BUCKETS as f64).max(1.0);
            prop_assert!(
                got > exact && got <= exact + width,
                "q={q}: got {got}, exact {exact}, allowed bucket width {width}"
            );
        }
    }

    /// Quantiles are monotone in `q`.
    #[test]
    fn quantile_monotone_in_q(samples in sample_vec()) {
        let mut r = LatencyRecorder::cycles();
        for &v in &samples {
            r.record_cycles(v);
        }
        let qs = [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0];
        for w in qs.windows(2) {
            prop_assert!(r.quantile(w[0]) <= r.quantile(w[1]));
        }
    }

    /// `count_ge` at the old histogram's range boundary is exact — the
    /// saturation heuristic depends on it.
    #[test]
    fn count_ge_2048_is_exact(samples in sample_vec()) {
        let mut r = LatencyRecorder::cycles();
        for &v in &samples {
            r.record_cycles(v);
        }
        let expect = samples.iter().filter(|&&v| v >= 2048).count() as u64;
        prop_assert_eq!(r.count_ge(2048), expect);
    }
}

/// The headline bug, pinned at the data-structure level. The run has
/// 1.5 % of its latencies at 3000 cycles — a realistic near-saturation tail.
/// The old fixed 2048-bin histogram reported `p99 = +inf` here, because
/// everything ≥ 2048 landed in its overflow bucket; the recorder reports a
/// finite value within one log bucket of the truth.
#[test]
fn regression_old_histogram_clipped_p99_recorder_does_not() {
    let mut samples = vec![100.0; 985];
    samples.extend([3000.0; 15]);
    let mut rec = LatencyRecorder::cycles();
    for &v in &samples {
        rec.record(v);
    }
    let p99 = rec.quantile(0.99);
    assert!(p99.is_finite());
    assert!(
        (3000.0..=3000.0 * (1.0 + 1.0 / SUB_BUCKETS as f64) + 1.0).contains(&p99),
        "recorder p99 {p99} not within one bucket of 3000"
    );
    // The median sits in the exact linear region: the recorder reports the
    // upper edge of the one-cycle bucket holding the exact median.
    assert_eq!(rec.quantile(0.5), exact_quantile(&samples, 0.5) + 1.0);
}
