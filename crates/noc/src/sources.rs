//! Traffic sources that drive open-loop experiments.
//!
//! [`SyntheticSource`] dispatches its cores' Bernoulli fires from a timing
//! wheel (`FireWheel`): a power-of-two ring of per-cycle core
//! [`BitPlane`]s, with an overflow min-heap for fires a wheel turn or more
//! ahead. Within a cycle cores fire in ascending order, so the RNG draw
//! sequence — gap, then destination, per firing core — is the one a poll
//! of every core in index order would make.

use crate::packet::PacketKind;
use crate::schemes::BitPlane;
use pnoc_sim::rng::GeometricGap;
use pnoc_sim::{Cycle, SimRng};
use pnoc_traffic::classes::{TenantMixKind, TenantSpec};
use pnoc_traffic::pattern::TrafficPattern;
use pnoc_traffic::ClassId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Stream-XOR from an MWSR network's `seed` to its traffic source's seed
/// (the MWSR layer's [`crate::fabric::Layer::TRAFFIC_SEED_XOR`]), shared by
/// every driver so a run, its recorded trace and its replay agree.
pub const TRAFFIC_SEED_XOR: u64 = 0x5EED_0001;

/// A request to inject one packet:
/// `(source core, destination node, kind, traffic class)`. Untenanted
/// sources tag everything class 0, the default class.
pub type InjectionRequest = (usize, usize, PacketKind, ClassId);

/// Anything that can feed packets to [`crate::network::Network::run_open_loop`].
pub trait TrafficSource {
    /// Append this cycle's injections to `out`.
    ///
    /// Callers normally call once per cycle in increasing order. A caller
    /// that jumps ahead skips the events of the cycles in between: a source
    /// still advances through them (a synthetic source draws exactly as
    /// per-cycle calls would, so the requests at `now` are the same), but
    /// their requests are discarded. A call at a cycle already generated
    /// appends nothing.
    fn generate(&mut self, now: Cycle, out: &mut Vec<InjectionRequest>);
    /// Whether the source has no future events (always `false` for
    /// rate-driven sources).
    fn exhausted(&self) -> bool {
        false
    }
}

/// Buckets in the fire wheel, a power of two. A fire this many cycles or
/// more ahead waits in the overflow heap. At the paper's sweep loads
/// (0.02–0.2 packets/cycle/core) under 1 % of gaps are that long.
const WHEEL: usize = 256;

/// The pending fires of a set of cores, one per core: a timing wheel of
/// [`WHEEL`] per-cycle core masks plus an overflow min-heap.
///
/// Window invariant: every fire on the wheel lies less than one turn past
/// the cycle being dispatched, so each bucket holds the fires of a single
/// cycle. A fire further ahead goes to the overflow heap and lands on its
/// bucket just before that cycle is scanned ([`FireWheel::land`]).
#[derive(Debug, Clone)]
struct FireWheel {
    /// Bucket `t % WHEEL` has bit `c` set when core `c` fires at cycle `t`.
    buckets: Vec<BitPlane>,
    /// Words per bucket, `ceil(cores / 64)`.
    words: usize,
    /// Set bits over all buckets.
    pending: usize,
    /// Fires a wheel turn or more ahead when scheduled, keyed
    /// `(cycle, core)`.
    overflow: BinaryHeap<Reverse<(Cycle, usize)>>,
}

impl FireWheel {
    fn new(cores: usize) -> Self {
        Self {
            buckets: (0..WHEEL).map(|_| BitPlane::new(cores)).collect(),
            words: cores.div_ceil(64),
            pending: 0,
            overflow: BinaryHeap::new(),
        }
    }

    #[inline]
    fn bucket(&mut self, t: Cycle) -> &mut BitPlane {
        &mut self.buckets[(t % WHEEL as Cycle) as usize]
    }

    /// Schedule `core` to fire at cycle `at` (never, for [`Cycle::MAX`]),
    /// while dispatching cycle `now <= at`.
    #[inline]
    fn schedule(&mut self, now: Cycle, at: Cycle, core: usize) {
        if at == Cycle::MAX {
            return;
        }
        if at - now < WHEEL as Cycle {
            self.bucket(at).set(core, true);
            self.pending += 1;
        } else {
            self.overflow.push(Reverse((at, core)));
        }
    }

    /// The earliest cycle at or after `from` that may hold a fire
    /// ([`Cycle::MAX`] when nothing is scheduled). `from` must not be past
    /// the next undispatched cycle.
    #[inline]
    fn next_due(&self, from: Cycle) -> Cycle {
        if self.pending > 0 {
            return from;
        }
        self.overflow
            .peek()
            .map_or(Cycle::MAX, |&Reverse((at, _))| at)
    }

    /// Move the overflow fires due at `t` onto `t`'s bucket.
    #[inline]
    fn land(&mut self, t: Cycle) {
        while let Some(&Reverse((at, core))) = self.overflow.peek() {
            if at > t {
                break;
            }
            debug_assert_eq!(at, t, "overflow fire at {at} passed over");
            self.overflow.pop();
            self.bucket(t).set(core, true);
            self.pending += 1;
        }
    }

    /// Clear and return word `w` of `t`'s bucket: the cores
    /// `64·w .. 64·w + 63` that fire at `t`.
    #[inline]
    fn take(&mut self, t: Cycle, w: usize) -> u64 {
        let bits = self.bucket(t).take_word(w);
        self.pending -= bits.count_ones() as usize;
        bits
    }
}

/// Synthetic traffic: every core runs an independent Bernoulli process at the
/// given rate; destinations follow a [`TrafficPattern`] applied at node
/// granularity (the paper's methodology, §V-A).
///
/// Each core's next fire sits on a timing wheel (`FireWheel`) rather than
/// being polled every cycle, so the per-cycle cost is O(fires + cores /
/// 64), not O(cores). A cycle's fires are scanned in ascending core order;
/// each firing core draws its next gap and then its destination, the draw
/// sequence of polling every core in index order. All cores share one
/// rate, so `ln(1 − rate)` is computed once ([`GeometricGap`]).
///
/// A call that jumps ahead dispatches each skipped cycle's fires in cycle
/// order, drawing as per-cycle calls would, and discards their requests
/// (the [`TrafficSource::generate`] rule).
#[derive(Debug, Clone)]
pub struct SyntheticSource {
    pattern: TrafficPattern,
    nodes: usize,
    cores_per_node: usize,
    gap: GeometricGap,
    fires: FireWheel,
    /// The next cycle not yet dispatched.
    next: Cycle,
    rng: SimRng,
}

impl SyntheticSource {
    /// Build a source for `nodes × cores_per_node` cores injecting
    /// `rate` packets/cycle/core.
    pub fn new(
        pattern: TrafficPattern,
        rate: f64,
        nodes: usize,
        cores_per_node: usize,
        seed: u64,
    ) -> Self {
        pattern
            .validate(nodes)
            .expect("pattern incompatible with node count");
        let mut rng = SimRng::seed_from(seed);
        let cores = nodes * cores_per_node;
        let gap = GeometricGap::new(rate);
        let mut fires = FireWheel::new(cores);
        if rate > 0.0 {
            // Each core's first fire is sampled relative to cycle 0.
            for core in 0..cores {
                fires.schedule(0, gap.sample(&mut rng).saturating_sub(1), core);
            }
        }
        Self {
            pattern,
            nodes,
            cores_per_node,
            gap,
            fires,
            next: 0,
            rng,
        }
    }

    /// The pattern in use.
    pub fn pattern(&self) -> TrafficPattern {
        self.pattern
    }

    /// Fire every core due at cycle `t`, in ascending core order.
    #[inline]
    fn dispatch(&mut self, t: Cycle, out: &mut Vec<InjectionRequest>) {
        self.fires.land(t);
        for w in 0..self.fires.words {
            let mut bits = self.fires.take(t, w);
            while bits != 0 {
                let core = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let at = t.saturating_add(self.gap.sample(&mut self.rng));
                self.fires.schedule(t, at, core);
                let src_node = core / self.cores_per_node;
                let dst = self
                    .pattern
                    .destination(src_node, self.nodes, &mut self.rng);
                out.push((core, dst, PacketKind::Data, 0));
            }
        }
    }
}

impl TrafficSource for SyntheticSource {
    fn generate(&mut self, now: Cycle, out: &mut Vec<InjectionRequest>) {
        // Skipped cycles: fire and draw, then drop the requests. Stretches
        // with nothing on the wheel are jumped over.
        while self.next < now {
            let t = self.fires.next_due(self.next);
            if t >= now {
                break;
            }
            let start = out.len();
            self.dispatch(t, out);
            out.truncate(start);
            self.next = t + 1;
        }
        if self.next <= now {
            self.dispatch(now, out);
            self.next = now + 1;
        }
    }
}

/// Multi-tenant traffic: one independent [`SyntheticSource`] per tenant of a
/// [`TenantMixKind`], each tagging its packets with the tenant's class.
///
/// Every tenant draws from its own RNG stream (tenant 0 uses the caller's
/// seed verbatim, so a `SingleClass` mix is bit-identical to a plain
/// [`SyntheticSource`] at the same rate, pattern, and seed — modulo the
/// class tag, which is 0 either way). Bursty tenants run their injection
/// process continuously but *discard* fires landing in an off window of the
/// duty cycle: while on they inject at the spec's full rate, while off they
/// inject nothing, and the time-averaged load is exactly
/// [`TenantSpec::mean_rate`]. Everything is a deterministic function of
/// `(mix, rate, seed, cycle)` — replays and differential runs agree.
///
/// Skipped cycles follow the [`TrafficSource::generate`] rule: every
/// tenant's source runs through them and discards their requests, so a
/// call at `now` emits what per-cycle calls would emit at `now`.
#[derive(Debug, Clone)]
pub struct ClassedSource {
    tenants: Vec<(TenantSpec, SyntheticSource)>,
}

impl ClassedSource {
    /// Build the tenants of `mix` at `total_rate` packets/cycle/core total
    /// mean load, with `base` as the majority destination pattern.
    pub fn new(
        mix: TenantMixKind,
        total_rate: f64,
        base: TrafficPattern,
        nodes: usize,
        cores_per_node: usize,
        seed: u64,
    ) -> Self {
        let tenants = mix
            .build(total_rate, base)
            .into_iter()
            .enumerate()
            .map(|(i, spec)| {
                // Tenant 0 keeps the caller's seed (SingleClass baseline
                // compatibility); later tenants get decorrelated streams.
                let tenant_seed = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64);
                let src = SyntheticSource::new(
                    spec.pattern,
                    spec.rate,
                    nodes,
                    cores_per_node,
                    tenant_seed,
                );
                (spec, src)
            })
            .collect();
        Self { tenants }
    }

    /// The tenant specs driving this source, in class order.
    pub fn tenants(&self) -> impl Iterator<Item = &TenantSpec> {
        self.tenants.iter().map(|(spec, _)| spec)
    }
}

impl TrafficSource for ClassedSource {
    fn generate(&mut self, now: Cycle, out: &mut Vec<InjectionRequest>) {
        for (spec, src) in &mut self.tenants {
            // Always run the tenant's source so its fire wheel and RNG
            // stream advance in lockstep with the clock; off-window fires
            // are discarded, not deferred (deferring would dump the whole
            // off window's load into the first active cycle).
            let start = out.len();
            src.generate(now, out);
            if spec.burst.is_some_and(|b| !b.active(now)) {
                out.truncate(start);
                continue;
            }
            for request in &mut out[start..] {
                request.3 = spec.class;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnoc_traffic::injection::BernoulliInjector;

    /// The fire-heap dispatcher the wheel replaced, kept verbatim as the
    /// reference for [`wheel_dispatch_matches_the_heap_reference`].
    #[derive(Debug, Clone)]
    struct HeapSource {
        pattern: TrafficPattern,
        nodes: usize,
        cores_per_node: usize,
        injectors: Vec<BernoulliInjector>,
        fires: std::collections::BinaryHeap<std::cmp::Reverse<(Cycle, usize)>>,
        rng: SimRng,
    }

    impl HeapSource {
        fn new(
            pattern: TrafficPattern,
            rate: f64,
            nodes: usize,
            cores_per_node: usize,
            seed: u64,
        ) -> Self {
            pattern
                .validate(nodes)
                .expect("pattern incompatible with node count");
            let mut rng = SimRng::seed_from(seed);
            let injectors: Vec<BernoulliInjector> = (0..nodes * cores_per_node)
                .map(|_| BernoulliInjector::new(rate, &mut rng))
                .collect();
            let fires = injectors
                .iter()
                .enumerate()
                .filter(|(_, inj)| inj.next_fire() != Cycle::MAX)
                .map(|(core, inj)| std::cmp::Reverse((inj.next_fire(), core)))
                .collect();
            Self {
                pattern,
                nodes,
                cores_per_node,
                injectors,
                fires,
                rng,
            }
        }
    }

    impl TrafficSource for HeapSource {
        fn generate(&mut self, now: Cycle, out: &mut Vec<InjectionRequest>) {
            while let Some(&std::cmp::Reverse((at, core))) = self.fires.peek() {
                if at > now {
                    break;
                }
                self.fires.pop();
                let inj = &mut self.injectors[core];
                for _ in 0..inj.fire(now, &mut self.rng) {
                    let src_node = core / self.cores_per_node;
                    let dst = self
                        .pattern
                        .destination(src_node, self.nodes, &mut self.rng);
                    out.push((core, dst, PacketKind::Data, 0));
                }
                if inj.next_fire() != Cycle::MAX {
                    self.fires.push(std::cmp::Reverse((inj.next_fire(), core)));
                }
            }
        }
    }

    /// [`ClassedSource`] over [`HeapSource`] tenants, verbatim.
    struct HeapClassedSource {
        tenants: Vec<(TenantSpec, HeapSource)>,
    }

    impl HeapClassedSource {
        fn new(
            mix: TenantMixKind,
            total_rate: f64,
            base: TrafficPattern,
            nodes: usize,
            cores_per_node: usize,
            seed: u64,
        ) -> Self {
            let tenants = mix
                .build(total_rate, base)
                .into_iter()
                .enumerate()
                .map(|(i, spec)| {
                    let tenant_seed = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64);
                    let src = HeapSource::new(
                        spec.pattern,
                        spec.rate,
                        nodes,
                        cores_per_node,
                        tenant_seed,
                    );
                    (spec, src)
                })
                .collect();
            Self { tenants }
        }
    }

    impl TrafficSource for HeapClassedSource {
        fn generate(&mut self, now: Cycle, out: &mut Vec<InjectionRequest>) {
            for (spec, src) in &mut self.tenants {
                let start = out.len();
                src.generate(now, out);
                if spec.burst.is_some_and(|b| !b.active(now)) {
                    out.truncate(start);
                    continue;
                }
                for request in &mut out[start..] {
                    request.3 = spec.class;
                }
            }
        }
    }

    /// Rates of the dispatch tests: off, gaps mostly past the wheel
    /// (overflow heap), the paper's sweep loads, and every core firing
    /// (nearly) every cycle.
    const RATES: [f64; 7] = [0.0, 1e-4, 0.004, 0.02, 0.2, 0.999, 1.0];

    /// `(nodes, cores per node)` for 2, 63, 64, 65 and 256 cores: one
    /// word, a word short, exactly one word, one bit into a second word,
    /// the paper's four words. (A pattern needs two nodes, so a source
    /// cannot have one core; `wheel_matches_a_heap_schedule` covers it.)
    const SHAPES: [(usize, usize); 5] = [(2, 1), (63, 1), (32, 2), (65, 1), (64, 4)];

    const CYCLES: Cycle = 20_000;

    /// Step both sources cycle by cycle and require identical requests;
    /// `each` sees the wheel source before every cycle.
    fn assert_same_stream<W: TrafficSource, H: TrafficSource>(
        what: &str,
        wheel: &mut W,
        heap: &mut H,
        mut each: impl FnMut(&W),
    ) {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for t in 0..CYCLES {
            each(wheel);
            wheel.generate(t, &mut a);
            heap.generate(t, &mut b);
            assert_eq!(a, b, "{what}: cycle {t}");
            a.clear();
            b.clear();
        }
    }

    #[test]
    fn wheel_dispatch_matches_the_heap_reference() {
        let mut overflowed = 0;
        for &rate in &RATES {
            for &(nodes, cpn) in &SHAPES {
                for seed in [1, 7, 0xDEAD_BEEF] {
                    let what = format!("rate {rate}, {nodes}x{cpn}, seed {seed}");
                    let pattern = TrafficPattern::UniformRandom;
                    let mut wheel = SyntheticSource::new(pattern, rate, nodes, cpn, seed);
                    let mut heap = HeapSource::new(pattern, rate, nodes, cpn, seed);
                    let mut used = false;
                    assert_same_stream(&what, &mut wheel, &mut heap, |w| {
                        used |= !w.fires.overflow.is_empty();
                    });
                    assert_eq!(wheel.rng, heap.rng, "{what}: RNG state");
                    overflowed += usize::from(used);
                }
            }
        }
        // At least every run at 1e-4 and 0.004 has gaps past the wheel.
        assert!(
            overflowed >= 2 * SHAPES.len() * 3,
            "overflow heap used in only {overflowed} runs"
        );
    }

    #[test]
    fn classed_wheel_dispatch_matches_the_heap_reference() {
        let mut overflowed = 0;
        for kind in TenantMixKind::all() {
            for &rate in &RATES {
                for &(nodes, cpn) in &[(2, 1), (65, 1), (64, 4)] {
                    // 256 cores firing every cycle add time, not coverage:
                    // the tenant layer is core-count blind.
                    if nodes * cpn > 65 && rate > 0.2 {
                        continue;
                    }
                    for seed in [3, 11, 0x5EED] {
                        let what = format!("{kind:?}, rate {rate}, {nodes}x{cpn}, seed {seed}");
                        let base = TrafficPattern::UniformRandom;
                        let mut wheel = ClassedSource::new(kind, rate, base, nodes, cpn, seed);
                        let mut heap = HeapClassedSource::new(kind, rate, base, nodes, cpn, seed);
                        let mut used = false;
                        assert_same_stream(&what, &mut wheel, &mut heap, |w| {
                            used |= w.tenants.iter().any(|(_, s)| !s.fires.overflow.is_empty());
                        });
                        overflowed += usize::from(used);
                    }
                }
            }
        }
        assert!(overflowed > 0, "overflow heap never used");
    }

    /// The wheel alone, against a `(cycle, core)` min-heap, with gaps from
    /// 1 to several wheel turns, including one-core and bucket-aligned
    /// cases a source cannot reach.
    #[test]
    fn wheel_matches_a_heap_schedule() {
        for cores in [1, 2, 63, 64, 65, 256] {
            for seed in 0..3 {
                let mut rng = SimRng::seed_from(seed);
                let gap = |rng: &mut SimRng| match rng.index(4) {
                    0 => 1,
                    1 => WHEEL as Cycle * (1 + rng.below(3)),
                    2 => 1 + rng.below(4 * WHEEL as Cycle),
                    _ => 1 + rng.below(8),
                };
                let mut wheel = FireWheel::new(cores);
                let mut heap = BinaryHeap::new();
                for core in 0..cores {
                    let at = gap(&mut rng) - 1;
                    wheel.schedule(0, at, core);
                    heap.push(Reverse((at, core)));
                }
                let mut landed = 0;
                for t in 0..CYCLES {
                    landed += wheel.overflow.len();
                    wheel.land(t);
                    landed -= wheel.overflow.len();
                    let mut due = Vec::new();
                    for w in 0..wheel.words {
                        let mut bits = wheel.take(t, w);
                        while bits != 0 {
                            due.push(w * 64 + bits.trailing_zeros() as usize);
                            bits &= bits - 1;
                        }
                    }
                    let mut want = Vec::new();
                    while heap.peek().is_some_and(|&Reverse((at, _))| at == t) {
                        let Some(Reverse((_, core))) = heap.pop() else {
                            unreachable!()
                        };
                        want.push(core);
                    }
                    assert_eq!(due, want, "{cores} cores, seed {seed}, cycle {t}");
                    for core in due {
                        let at = t + gap(&mut rng);
                        wheel.schedule(t, at, core);
                        heap.push(Reverse((at, core)));
                    }
                    assert_eq!(wheel.pending + wheel.overflow.len(), heap.len());
                }
                assert!(landed > 0, "{cores} cores, seed {seed}: nothing landed");
            }
        }
    }

    /// A source called at some cycles only emits, at each of them, what a
    /// source called every cycle emits there.
    #[test]
    fn skipped_cycles_are_skipped() {
        let mut schedules = SimRng::seed_from(0x51C1);
        for &rate in &[1e-4, 0.02, 0.2, 1.0] {
            for trial in 0..6 {
                let seed = 40 + trial;
                let mut every =
                    SyntheticSource::new(TrafficPattern::UniformRandom, rate, 16, 2, seed);
                let mut jumpy = ClassedSource::new(
                    TenantMixKind::SingleClass,
                    rate,
                    TrafficPattern::UniformRandom,
                    16,
                    2,
                    seed,
                );
                let max_jump = [1, 4, 300, 5_000][usize::try_from(trial).unwrap_or(0) % 4];
                let mut called = schedules.below(max_jump);
                let (mut want, mut got) = (Vec::new(), Vec::new());
                for t in 0..CYCLES {
                    want.clear();
                    every.generate(t, &mut want);
                    if t == called {
                        got.clear();
                        jumpy.generate(t, &mut got);
                        assert_eq!(got, want, "rate {rate}, seed {seed}, cycle {t}");
                        called += 1 + schedules.below(max_jump);
                    }
                }
            }
        }
    }

    #[test]
    fn a_long_jump_returns() {
        let mut src = SyntheticSource::new(TrafficPattern::UniformRandom, 0.1, 16, 2, 99);
        let mut out = Vec::new();
        src.generate(0, &mut out);
        src.generate(1_000, &mut out);
        src.generate(250_000, &mut out);
        // Repeating a cycle appends nothing.
        let n = out.len();
        src.generate(250_000, &mut out);
        assert_eq!(out.len(), n);
        // Nothing on the wheel: the jump goes straight to the overflow head.
        let mut rare = SyntheticSource::new(TrafficPattern::UniformRandom, 1e-12, 16, 2, 5);
        rare.generate(1 << 40, &mut out);
        rare.generate(1 << 44, &mut out);
    }

    #[test]
    fn synthetic_rate_and_destinations() {
        let mut src = SyntheticSource::new(TrafficPattern::UniformRandom, 0.1, 16, 2, 99);
        let mut out = Vec::new();
        for t in 0..20_000 {
            src.generate(t, &mut out);
        }
        let per_core = out.len() as f64 / 20_000.0 / 32.0;
        assert!((per_core - 0.1).abs() < 0.01, "rate {per_core}");
        for &(core, dst, _, _) in &out {
            assert!(core < 32);
            assert!(dst < 16);
            assert_ne!(dst, core / 2, "no self-node traffic");
        }
    }

    #[test]
    fn synthetic_is_deterministic() {
        let collect = |seed| {
            let mut s = SyntheticSource::new(TrafficPattern::Tornado, 0.05, 16, 2, seed);
            let mut out = Vec::new();
            for t in 0..5_000 {
                s.generate(t, &mut out);
            }
            out
        };
        assert_eq!(collect(1), collect(1));
        assert_ne!(collect(1), collect(2));
    }

    #[test]
    fn classed_single_class_matches_plain_source() {
        // The documented baseline-compatibility contract: SingleClass is
        // the plain synthetic source, bit for bit.
        let mut plain = SyntheticSource::new(TrafficPattern::UniformRandom, 0.08, 16, 2, 7);
        let mut classed = ClassedSource::new(
            TenantMixKind::SingleClass,
            0.08,
            TrafficPattern::UniformRandom,
            16,
            2,
            7,
        );
        let mut a = Vec::new();
        let mut b = Vec::new();
        for t in 0..5_000 {
            plain.generate(t, &mut a);
            classed.generate(t, &mut b);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn classed_mixes_tag_and_conserve_mean_load() {
        for kind in TenantMixKind::all() {
            let mut src = ClassedSource::new(kind, 0.1, TrafficPattern::UniformRandom, 16, 2, 42);
            let mut out = Vec::new();
            let cycles = 40_000u64;
            for t in 0..cycles {
                src.generate(t, &mut out);
            }
            let mut per_class = [0u64; pnoc_traffic::MAX_CLASSES];
            for &(_, _, _, class) in &out {
                per_class[usize::from(class)] += 1;
            }
            let total = out.len() as f64 / cycles as f64 / 32.0;
            assert!(
                (total - 0.1).abs() < 0.012,
                "{kind:?} total mean load {total}"
            );
            for spec in src.tenants() {
                let got = per_class[usize::from(spec.class)] as f64 / cycles as f64 / 32.0;
                assert!(
                    (got - spec.mean_rate()).abs() < 0.012,
                    "{kind:?} class {} rate {got} want {}",
                    spec.class,
                    spec.mean_rate()
                );
            }
        }
    }

    #[test]
    fn bursty_tenant_is_silent_off_window() {
        let mut src = ClassedSource::new(
            TenantMixKind::BurstyAdversary,
            0.2,
            TrafficPattern::UniformRandom,
            16,
            2,
            3,
        );
        for t in 0..4_000u64 {
            let mut out = Vec::new();
            src.generate(t, &mut out);
            if t % 128 >= 32 {
                assert!(
                    out.iter().all(|&(_, _, _, class)| class == 0),
                    "cycle {t}: adversary injected outside its duty window"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "pattern incompatible with node count")]
    fn synthetic_rejects_incompatible_pattern() {
        // Bit complement needs a power-of-two node count.
        SyntheticSource::new(TrafficPattern::BitComplement, 0.1, 12, 2, 1);
    }
}
