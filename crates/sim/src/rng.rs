//! Deterministic pseudo-random number generation.
//!
//! Every stochastic decision in the simulator (packet injection, destination
//! selection, trace synthesis) flows through [`SimRng`], a xoshiro256**
//! generator seeded through SplitMix64. Implementing the generator in-crate
//! (rather than depending on `rand`) guarantees that results are reproducible
//! bit-for-bit across platforms and crate-version bumps — a property the
//! paper-reproduction harness relies on when it prints tables.

use serde::{Deserialize, Serialize};

/// SplitMix64 step, used for seeding. Public because tests and the traffic
/// crate use it to derive independent stream seeds from a master seed.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive the seed for a named independent stream from a master run seed.
///
/// Subsystems that need their own randomness (traffic synthesis, fault
/// injection, …) seed a [`SimRng`] from `stream_seed(master, STREAM_ID)`
/// with a subsystem-unique `stream` constant. Because each stream gets its
/// own generator, turning one subsystem's randomness on or off can never
/// perturb the draws another subsystem sees for the same master seed.
///
/// ```
/// use pnoc_sim::rng::stream_seed;
/// assert_ne!(stream_seed(42, 1), stream_seed(42, 2));
/// assert_eq!(stream_seed(42, 1), stream_seed(42, 1));
/// ```
pub fn stream_seed(master: u64, stream: u64) -> u64 {
    // Golden-ratio spread of the stream id, then a SplitMix64 finalization so
    // that related (master, stream) pairs land far apart.
    let mut s = master ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
    splitmix64(&mut s)
}

/// Stream id reserved for differential-fuzz case generation (`pnoc-oracle`).
///
/// The fuzz harness seeds its case generator from
/// `stream_seed(master, FUZZ_STREAM)` so the *choice* of scenarios is
/// independent of the randomness the scenarios themselves consume (traffic
/// synthesis, fault injection) — regenerating case `i` never disturbs the
/// simulated runs, and vice versa.
pub const FUZZ_STREAM: u64 = 0xF0_22;

/// Stream id reserved for fleet sweep job derivation (`pnoc-fleet`).
///
/// A fleet job is `(master_seed, index)`; the per-job simulation seed is
/// drawn from a generator seeded with `stream_seed(master, FLEET_STREAM)`
/// and forked at `index`, mirroring the fuzz-case idiom. Keeping the stream
/// distinct from [`FUZZ_STREAM`] means a sweep and a fuzz campaign sharing a
/// master seed still explore independent randomness.
pub const FLEET_STREAM: u64 = 0x000F_1EE7;

/// The inter-arrival gap sampler of a Bernoulli process at one rate, with
/// the rate's `ln(1 − p)` computed once. It is the only gap formula:
/// [`SimRng::geometric_gap`] builds one per draw, so a cached sampler and
/// the uncached call perform the same `f64` operations and return the same
/// bits from the same generator state.
///
/// ```
/// use pnoc_sim::rng::{GeometricGap, SimRng};
/// let (mut a, mut b) = (SimRng::seed_from(3), SimRng::seed_from(3));
/// let gap = GeometricGap::new(0.02);
/// assert_eq!(gap.sample(&mut a), b.geometric_gap(0.02));
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct GeometricGap {
    p: f64,
    ln_q: f64,
}

impl GeometricGap {
    /// The sampler for success probability `p` per cycle.
    pub fn new(p: f64) -> Self {
        Self {
            p,
            ln_q: (1.0 - p).ln(),
        }
    }

    /// The number of whole cycles until the next success (at least 1), or
    /// `u64::MAX` for `p <= 0`. Draws one `f64` from `rng` when `0 < p < 1`
    /// and nothing otherwise.
    #[inline]
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        if self.p <= 0.0 {
            return u64::MAX;
        }
        if self.p >= 1.0 {
            return 1;
        }
        // Inverse CDF of the geometric distribution.
        let u = rng.f64().max(f64::MIN_POSITIVE);
        let g = (u.ln() / self.ln_q).ceil();
        (g as u64).max(1)
    }
}

/// A deterministic xoshiro256** PRNG.
///
/// ```
/// use pnoc_sim::SimRng;
/// let mut a = SimRng::seed_from(7);
/// let mut b = SimRng::seed_from(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // reproducible
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Seed the generator from a single 64-bit value via SplitMix64.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        // xoshiro must not be seeded with all zeros; SplitMix64 of any seed
        // cannot produce four zero outputs in a row, but guard anyway.
        if s == [0, 0, 0, 0] {
            Self { s: [1, 2, 3, 4] }
        } else {
            Self { s }
        }
    }

    /// The raw generator state, for canonical state-keying (the bounded
    /// model checker in `pnoc-verify` folds the RNG state into its state
    /// hash so that stochastic transitions dedupe correctly).
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Derive an independent child generator (e.g. one per network node) so
    /// that per-component streams do not correlate.
    pub fn fork(&mut self, stream: u64) -> Self {
        let mix = self.next_u64() ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
        Self::seed_from(mix)
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `u64` in `[0, bound)` using Lemire's unbiased method.
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `usize` index in `[0, len)`.
    #[inline]
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)` with 53 random bits.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial: `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Sample a geometric-ish inter-arrival gap for a Bernoulli process of
    /// rate `p` per cycle: the number of whole cycles until the next success
    /// (at least 1). Returns `u64::MAX` for `p <= 0`.
    ///
    /// This is [`GeometricGap::sample`] with a fresh `ln(1 − p)`; callers
    /// that draw many gaps at one rate build the [`GeometricGap`] once.
    pub fn geometric_gap(&mut self, p: f64) -> u64 {
        GeometricGap::new(p).sample(self)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.index(i + 1);
            slice.swap(i, j);
        }
    }

    /// Pick a uniformly random element, or `None` if empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.index(slice.len())])
        }
    }

    /// Sample an index from a discrete distribution given by non-negative
    /// weights. Panics if all weights are zero or the slice is empty.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(
            total > 0.0 && total.is_finite(),
            "weights must sum to a positive finite value"
        );
        let mut target = self.f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if w > 0.0 {
                target -= w;
                if target < 0.0 {
                    return i;
                }
            }
        }
        // Floating-point slack: return the last positively weighted index.
        weights
            .iter()
            .rposition(|&w| w > 0.0)
            .expect("at least one positive weight")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = SimRng::seed_from(123);
        let mut b = SimRng::seed_from(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams from different seeds should differ");
    }

    #[test]
    fn forked_streams_diverge() {
        let mut root = SimRng::seed_from(9);
        let mut a = root.fork(0);
        let mut b = root.fork(1);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SimRng::seed_from(5);
        for bound in [1u64, 2, 3, 7, 64, 1000] {
            for _ in 0..200 {
                assert!(r.below(bound) < bound);
            }
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = SimRng::seed_from(99);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[r.below(8) as usize] += 1;
        }
        for &c in &counts {
            assert!(
                (8_000..12_000).contains(&c),
                "bucket count {c} out of range"
            );
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::seed_from(17);
        for _ in 0..1000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed_from(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn chance_matches_probability() {
        let mut r = SimRng::seed_from(31);
        let hits = (0..100_000).filter(|_| r.chance(0.25)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.25).abs() < 0.01, "rate = {rate}");
    }

    #[test]
    fn geometric_gap_mean_is_inverse_rate() {
        let mut r = SimRng::seed_from(8);
        let p = 0.1;
        let n = 50_000;
        let total: u64 = (0..n).map(|_| r.geometric_gap(p)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 10.0).abs() < 0.3, "mean = {mean}");
    }

    #[test]
    fn geometric_gap_edge_rates() {
        let mut r = SimRng::seed_from(8);
        assert_eq!(r.geometric_gap(0.0), u64::MAX);
        assert_eq!(r.geometric_gap(1.0), 1);
        assert!(r.geometric_gap(0.999) >= 1);
    }

    /// The gap formula as it read before `ln(1 − p)` was hoisted out of
    /// the draw.
    fn inline_ln_gap(rng: &mut SimRng, p: f64) -> u64 {
        if p <= 0.0 {
            return u64::MAX;
        }
        if p >= 1.0 {
            return 1;
        }
        let u = rng.f64().max(f64::MIN_POSITIVE);
        let g = (u.ln() / (1.0 - p).ln()).ceil();
        (g as u64).max(1)
    }

    /// The pre-computed `ln(1 − p)` path is the uncached formula bit for
    /// bit: same gap and same generator state after every draw, over rates
    /// that cover the edge cases, the overflow tail and the paper's loads.
    #[test]
    fn cached_gap_matches_geometric_gap() {
        let rates = [
            -0.5, 0.0, 1e-12, 1e-4, 0.004, 0.02, 0.08, 0.14, 0.2, 0.5, 0.999, 1.0, 1.5,
        ];
        for &p in &rates {
            let gap = GeometricGap::new(p);
            for seed in 0..8 {
                let mut cached = SimRng::seed_from(seed);
                let mut uncached = SimRng::seed_from(seed);
                let mut inline = SimRng::seed_from(seed);
                for draw in 0..500 {
                    let a = gap.sample(&mut cached);
                    let b = uncached.geometric_gap(p);
                    let c = inline_ln_gap(&mut inline, p);
                    assert_eq!((a, a), (b, c), "rate {p} seed {seed} draw {draw}");
                    assert_eq!(
                        (cached.state(), cached.state()),
                        (uncached.state(), inline.state()),
                        "rate {p} seed {seed} draw {draw}"
                    );
                }
            }
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::seed_from(4);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<_>>(),
            "shuffle left input unchanged"
        );
    }

    #[test]
    fn choose_empty_is_none() {
        let mut r = SimRng::seed_from(4);
        let empty: [u8; 0] = [];
        assert!(r.choose(&empty).is_none());
    }

    #[test]
    fn weighted_index_prefers_heavy_weights() {
        let mut r = SimRng::seed_from(21);
        let w = [1.0, 0.0, 9.0];
        let mut counts = [0u32; 3];
        for _ in 0..10_000 {
            counts[r.weighted_index(&w)] += 1;
        }
        assert_eq!(counts[1], 0);
        assert!(counts[2] > counts[0] * 5);
    }

    #[test]
    #[should_panic]
    fn weighted_index_rejects_all_zero() {
        let mut r = SimRng::seed_from(21);
        r.weighted_index(&[0.0, 0.0]);
    }

    #[test]
    fn stream_seeds_are_deterministic_and_distinct() {
        assert_eq!(stream_seed(7, 3), stream_seed(7, 3));
        assert_ne!(stream_seed(7, 3), stream_seed(7, 4));
        assert_ne!(stream_seed(7, 3), stream_seed(8, 3));
        // The stream id must not act as a plain xor offset that a different
        // master seed could cancel out.
        assert_ne!(stream_seed(7, 3), stream_seed(3, 7));
    }

    #[test]
    fn streams_are_independent_of_each_others_consumption() {
        // The core reproducibility property the fault subsystem relies on:
        // draining one derived stream must not change what another derived
        // stream of the same master seed produces.
        let master = 0xDEAD_BEEF;
        let mut traffic_a = SimRng::seed_from(stream_seed(master, 1));
        let trace_a: Vec<u64> = (0..256).map(|_| traffic_a.next_u64()).collect();

        let mut traffic_b = SimRng::seed_from(stream_seed(master, 1));
        let mut faults = SimRng::seed_from(stream_seed(master, 2));
        let trace_b: Vec<u64> = (0..256)
            .map(|_| {
                // Interleave heavy fault-stream consumption between traffic
                // draws, as a faulty run would.
                for _ in 0..17 {
                    faults.chance(0.5);
                }
                traffic_b.next_u64()
            })
            .collect();

        assert_eq!(trace_a, trace_b, "fault draws perturbed the traffic stream");
    }

    #[test]
    fn zero_probability_chance_consumes_no_state() {
        // Fault hooks call `chance(rate)` with rate = 0 in fault-free runs;
        // that must leave the generator untouched so zero-rate fault configs
        // are behaviorally free.
        let mut r = SimRng::seed_from(55);
        let mut control = r.clone();
        for _ in 0..100 {
            assert!(!r.chance(0.0));
        }
        assert_eq!(r.next_u64(), control.next_u64());
    }
}
