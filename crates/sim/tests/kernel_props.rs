//! Property tests for the simulation kernel: RNG contracts, statistics
//! merging, batch means.

use pnoc_sim::stats::Running;
use pnoc_sim::{BatchMeans, SimRng};
use proptest::prelude::*;

proptest! {
    /// `below(bound)` never leaves its range and is deterministic per seed.
    #[test]
    fn rng_below_in_range(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut a = SimRng::seed_from(seed);
        let mut b = SimRng::seed_from(seed);
        for _ in 0..100 {
            let x = a.below(bound);
            prop_assert!(x < bound);
            prop_assert_eq!(x, b.below(bound));
        }
    }

    /// Forked streams never equal the parent stream.
    #[test]
    fn rng_fork_decorrelates(seed in any::<u64>(), stream in any::<u64>()) {
        let mut parent = SimRng::seed_from(seed);
        let mut child = parent.fork(stream);
        let mut parent2 = SimRng::seed_from(seed);
        let _ = parent2.fork(stream);
        let same = (0..64).filter(|_| child.next_u64() == parent2.next_u64()).count();
        prop_assert!(same < 8, "fork should decorrelate from parent continuation");
    }

    /// Merging Running accumulators in any split equals one-pass accumulation.
    #[test]
    fn running_merge_any_split(
        data in proptest::collection::vec(-1e6f64..1e6, 1..200),
        cut in 0usize..200,
    ) {
        let cut = cut.min(data.len());
        let mut whole = Running::new();
        for &x in &data {
            whole.record(x);
        }
        let mut left = Running::new();
        let mut right = Running::new();
        for &x in &data[..cut] {
            left.record(x);
        }
        for &x in &data[cut..] {
            right.record(x);
        }
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean() - whole.mean()).abs() <= 1e-6 * whole.mean().abs().max(1.0));
        prop_assert!((left.variance() - whole.variance()).abs()
            <= 1e-5 * whole.variance().abs().max(1.0));
        prop_assert_eq!(left.min(), whole.min());
        prop_assert_eq!(left.max(), whole.max());
    }

    /// Batch means: overall mean equals the plain mean regardless of batch
    /// size, and the CI width is non-negative.
    #[test]
    fn batch_means_mean_is_exact(
        data in proptest::collection::vec(0f64..100.0, 10..300),
        batch in 1u64..50,
    ) {
        let mut b = BatchMeans::new(batch);
        let mut r = Running::new();
        for &x in &data {
            b.record(x);
            r.record(x);
        }
        prop_assert!((b.mean() - r.mean()).abs() < 1e-9);
        let hw = b.ci95_half_width();
        prop_assert!(hw.is_nan() || hw >= 0.0);
    }

    /// `weighted_index` only ever returns positively weighted entries.
    #[test]
    fn weighted_index_respects_support(
        weights in proptest::collection::vec(0f64..10.0, 1..20),
        seed in any::<u64>(),
    ) {
        prop_assume!(weights.iter().any(|&w| w > 0.0));
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..50 {
            let i = rng.weighted_index(&weights);
            prop_assert!(weights[i] > 0.0);
        }
    }
}
