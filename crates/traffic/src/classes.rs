//! Multi-tenant traffic classes.
//!
//! The paper's workloads are a single undifferentiated stream; a shared
//! interconnect serving many tenants is not. A [`TenantSpec`] describes one
//! tenant's flow — its traffic class, destination pattern, offered rate,
//! and (optionally) a deterministic on/off duty cycle for bursty
//! adversaries — and a [`TenantMixKind`] names the canonical mixes the
//! QoS experiments, the fuzz generator, and the fleet sweeps all share:
//! elephant/mice splits, a bursty adversary next to a steady tenant, and a
//! hotspot tenant hammering one home node.
//!
//! Classes are identifiers, not priorities: the admission-control stage in
//! `pnoc-noc` decides how token grants are rationed between them.

use crate::pattern::TrafficPattern;
use pnoc_sim::Cycle;
use serde::{Deserialize, Serialize};

/// A traffic-class identifier. Classes are dense small integers so the
/// simulator can keep per-class state in fixed arrays ([`MAX_CLASSES`]).
pub type ClassId = u8;

/// Number of traffic classes the simulator supports. Admission buckets and
/// latency recorders are sized by this, so it is deliberately small; raise
/// it only with the hot-path cost in mind.
pub const MAX_CLASSES: usize = 4;

/// A deterministic on/off duty cycle: the tenant injects only during the
/// first `on` cycles of every `period`-cycle window. Purely a function of
/// the current cycle — no RNG — so replays and differential runs agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BurstCfg {
    /// Active cycles at the start of each window (`0 < on <= period`).
    pub on: u32,
    /// Window length in cycles.
    pub period: u32,
}

impl BurstCfg {
    /// Whether the tenant injects at cycle `now`.
    #[inline]
    pub fn active(&self, now: Cycle) -> bool {
        now % u64::from(self.period) < u64::from(self.on)
    }

    /// Fraction of cycles the tenant is active.
    pub fn duty(&self) -> f64 {
        f64::from(self.on) / f64::from(self.period)
    }

    /// Structural validation.
    pub fn validate(&self) -> Result<(), String> {
        if self.period == 0 || self.on == 0 || self.on > self.period {
            return Err(format!(
                "burst duty cycle needs 0 < on <= period (got on {} period {})",
                self.on, self.period
            ));
        }
        Ok(())
    }
}

/// One tenant's flow: a class-tagged open-loop injection process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TenantSpec {
    /// The traffic class every packet of this tenant carries.
    pub class: ClassId,
    /// Destination pattern.
    pub pattern: TrafficPattern,
    /// Offered rate in packets/cycle/core *while active* (always, unless a
    /// duty cycle says otherwise).
    pub rate: f64,
    /// Optional deterministic on/off duty cycle.
    pub burst: Option<BurstCfg>,
}

impl TenantSpec {
    /// Time-averaged offered rate in packets/cycle/core.
    pub fn mean_rate(&self) -> f64 {
        match self.burst {
            Some(b) => self.rate * b.duty(),
            None => self.rate,
        }
    }

    /// Check the tenant is usable on a network of `nodes` nodes.
    pub fn validate(&self, nodes: usize) -> Result<(), String> {
        if usize::from(self.class) >= MAX_CLASSES {
            return Err(format!(
                "class {} out of range (max {MAX_CLASSES} classes)",
                self.class
            ));
        }
        if !self.rate.is_finite() || self.rate < 0.0 {
            return Err(format!("invalid tenant rate {}", self.rate));
        }
        self.pattern.validate(nodes)?;
        if let Some(b) = self.burst {
            b.validate()?;
        }
        Ok(())
    }
}

/// The canonical tenant mixes shared by the QoS experiments, the fuzz
/// generator, and the fleet sweeps. `Copy` by design: fuzz cases and sweep
/// cells store the *kind* and rebuild the concrete [`TenantSpec`]s from
/// `(kind, total rate, nodes)` on demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TenantMixKind {
    /// Everything in class 0 — the pre-QoS workload, bit-compatible with a
    /// plain synthetic source at the same rate and pattern.
    SingleClass,
    /// Class 0 "elephants" carry 3/4 of the offered load; class 1 "mice"
    /// carry the rest. Same pattern, very different per-class throughput —
    /// the mix that shows whether mice tail latency survives the elephants.
    ElephantMice,
    /// Class 0 is a steady uniform tenant; class 1 is an adversary that
    /// concentrates the same time-averaged load into 1-in-4 duty-cycle
    /// bursts of ring-adversarial Tornado traffic.
    BurstyAdversary,
    /// Class 0 is uniform background; class 1 is a tenant whose traffic
    /// concentrates on one home node (hotspot target 0).
    HotspotTenant,
}

impl TenantMixKind {
    /// Every mix, in presentation order.
    pub fn all() -> [TenantMixKind; 4] {
        [
            TenantMixKind::SingleClass,
            TenantMixKind::ElephantMice,
            TenantMixKind::BurstyAdversary,
            TenantMixKind::HotspotTenant,
        ]
    }

    /// Short label used in harness output and figure files.
    pub fn label(&self) -> &'static str {
        match self {
            TenantMixKind::SingleClass => "1C",
            TenantMixKind::ElephantMice => "EM",
            TenantMixKind::BurstyAdversary => "BA",
            TenantMixKind::HotspotTenant => "HT",
        }
    }

    /// Number of distinct classes the mix populates.
    pub fn classes(&self) -> usize {
        match self {
            TenantMixKind::SingleClass => 1,
            _ => 2,
        }
    }

    /// Build the concrete tenants for a total offered load of `total_rate`
    /// packets/cycle/core under `base` as the majority pattern. The
    /// per-tenant *mean* rates always sum to `total_rate`, so mixes are
    /// load-comparable with each other and with the unclassed baseline.
    pub fn build(self, total_rate: f64, base: TrafficPattern) -> Vec<TenantSpec> {
        match self {
            TenantMixKind::SingleClass => vec![TenantSpec {
                class: 0,
                pattern: base,
                rate: total_rate,
                burst: None,
            }],
            TenantMixKind::ElephantMice => vec![
                TenantSpec {
                    class: 0,
                    pattern: base,
                    rate: total_rate * 0.75,
                    burst: None,
                },
                TenantSpec {
                    class: 1,
                    pattern: base,
                    rate: total_rate * 0.25,
                    burst: None,
                },
            ],
            TenantMixKind::BurstyAdversary => vec![
                TenantSpec {
                    class: 0,
                    pattern: base,
                    rate: total_rate * 0.5,
                    burst: None,
                },
                // Duty 1/4: four times the rate while on, same mean load.
                TenantSpec {
                    class: 1,
                    pattern: TrafficPattern::Tornado,
                    rate: total_rate * 2.0,
                    burst: Some(BurstCfg {
                        on: 32,
                        period: 128,
                    }),
                },
            ],
            TenantMixKind::HotspotTenant => vec![
                TenantSpec {
                    class: 0,
                    pattern: base,
                    rate: total_rate * 0.6,
                    burst: None,
                },
                TenantSpec {
                    class: 1,
                    pattern: TrafficPattern::Hotspot {
                        target: 0,
                        fraction: 0.8,
                    },
                    rate: total_rate * 0.4,
                    burst: None,
                },
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duty_cycle_is_deterministic_and_periodic() {
        let b = BurstCfg { on: 3, period: 8 };
        for now in 0..64u64 {
            assert_eq!(b.active(now), now % 8 < 3);
        }
        assert!((b.duty() - 0.375).abs() < 1e-12);
    }

    #[test]
    fn burst_validation_rejects_degenerates() {
        assert!(BurstCfg { on: 0, period: 8 }.validate().is_err());
        assert!(BurstCfg { on: 9, period: 8 }.validate().is_err());
        assert!(BurstCfg { on: 8, period: 0 }.validate().is_err());
        assert!(BurstCfg { on: 8, period: 8 }.validate().is_ok());
    }

    #[test]
    fn mixes_conserve_mean_load() {
        for kind in TenantMixKind::all() {
            let tenants = kind.build(0.2, TrafficPattern::UniformRandom);
            let mean: f64 = tenants.iter().map(TenantSpec::mean_rate).sum();
            assert!(
                (mean - 0.2).abs() < 1e-12,
                "{kind:?} mean load {mean} != 0.2"
            );
            assert_eq!(tenants.len(), kind.classes());
            for t in &tenants {
                t.validate(16).expect("built tenants validate");
            }
        }
    }

    #[test]
    fn classes_are_distinct_and_in_range() {
        for kind in TenantMixKind::all() {
            let tenants = kind.build(0.1, TrafficPattern::UniformRandom);
            let mut seen = [false; MAX_CLASSES];
            for t in &tenants {
                assert!(usize::from(t.class) < MAX_CLASSES);
                assert!(!seen[usize::from(t.class)], "duplicate class in {kind:?}");
                seen[usize::from(t.class)] = true;
            }
        }
    }

    #[test]
    fn tenant_validation_rejects_bad_class_and_rate() {
        let t = TenantSpec {
            class: MAX_CLASSES as u8,
            pattern: TrafficPattern::UniformRandom,
            rate: 0.1,
            burst: None,
        };
        assert!(t.validate(16).is_err());
        let t = TenantSpec {
            class: 0,
            pattern: TrafficPattern::UniformRandom,
            rate: f64::NAN,
            burst: None,
        };
        assert!(t.validate(16).is_err());
    }

    #[test]
    fn single_class_is_the_unclassed_baseline() {
        let tenants = TenantMixKind::SingleClass.build(0.3, TrafficPattern::Tornado);
        assert_eq!(tenants.len(), 1);
        assert_eq!(tenants[0].class, 0);
        assert_eq!(tenants[0].pattern, TrafficPattern::Tornado);
        assert!(tenants[0].burst.is_none());
    }
}
