//! Traffic sources that drive open-loop experiments.

use crate::packet::PacketKind;
use pnoc_sim::{Cycle, SimRng};
use pnoc_traffic::classes::{TenantMixKind, TenantSpec};
use pnoc_traffic::injection::BernoulliInjector;
use pnoc_traffic::pattern::TrafficPattern;
use pnoc_traffic::ClassId;

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
    fn generate(&mut self, now: Cycle, out: &mut Vec<InjectionRequest>);
    /// Whether the source has no future events (always `false` for
    /// rate-driven sources).
    fn exhausted(&self) -> bool {
        false
    }
}

/// Synthetic traffic: every core runs an independent Bernoulli process at the
/// given rate; destinations follow a [`TrafficPattern`] applied at node
/// granularity (the paper's methodology, §V-A).
///
/// Fires are dispatched from a min-heap keyed on `(next_fire, core)` rather
/// than polling all `nodes × cores` injectors every cycle: the per-cycle
/// cost is O(fires), not O(cores). The heap key is a total order, so pops
/// within one cycle come out in ascending core order — exactly the order
/// the old polling loop visited them — and the RNG draw sequence (gap, then
/// destination, per firing core) is bit-identical to polling.
#[derive(Debug, Clone)]
pub struct SyntheticSource {
    pattern: TrafficPattern,
    nodes: usize,
    cores_per_node: usize,
    injectors: Vec<BernoulliInjector>,
    fires: std::collections::BinaryHeap<std::cmp::Reverse<(Cycle, usize)>>,
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

    /// The pattern in use.
    pub fn pattern(&self) -> TrafficPattern {
        self.pattern
    }
}

impl TrafficSource for SyntheticSource {
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
            // Always run the tenant's injector so its fire heap and RNG
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
