//! Per-class fair admission control: deterministic token buckets that
//! ration *grants* between traffic classes.
//!
//! Admission sits between the arbiter and the senders: when a sweep finds a
//! sendable sender, the sender is admitted only if the bucket of its head
//! packet's class is non-empty ([`AdmissionCtl::admits`]), and every grant
//! drains one credit from that class's bucket
//! ([`AdmissionCtl::on_grant`]). Buckets refill on a fixed period
//! ([`AdmissionCtl::tick`], called at the top of the token phase), so the
//! policy is a pure function of configuration and cycle count — no RNG, no
//! floating point — and the differential oracle can mirror it exactly.
//!
//! Gating *grants* rather than injections keeps the `QoS` decision at the
//! resource actually contended (the home's arbitration bandwidth) and keeps
//! the flow-control layer untouched: an unadmitted sender simply looks
//! ineligible to the token sweep, exactly like a fairness sit-out. Because
//! [`crate::config::AdmissionPolicy::validate`] requires every class to
//! refill at ≥ 1 credit per period, no backlogged class is starved forever
//! — the liveness half of the starvation audit that the invariant auditor
//! runs ([`crate::Network::attach_auditor`]).
//!
//! The struct exists only when admission is configured; the `QoS`-off hot
//! path never touches it (the `Option` is checked once per sweep window,
//! and the None arm folds to the pre-`QoS` code).

use crate::config::AdmissionPolicy;
use pnoc_sim::Cycle;
use pnoc_traffic::MAX_CLASSES;

/// Runtime token-bucket state for one channel (see module docs).
#[derive(Debug, Clone)]
pub struct AdmissionCtl {
    /// Refill interval in cycles.
    period: u32,
    /// Credits added per refill, per class.
    refill: [u8; MAX_CLASSES],
    /// Bucket capacity, per class.
    burst: [u8; MAX_CLASSES],
    /// Current bucket levels, per class.
    tokens: [u8; MAX_CLASSES],
    /// Grants issued per class over the channel's lifetime (observability
    /// and the starvation audit's progress witness).
    pub granted_by_class: [u64; MAX_CLASSES],
}

impl AdmissionCtl {
    /// Build the bucket state for `policy`, or `None` when admission is
    /// off. Buckets start full so the first cycles are not artificially
    /// throttled.
    pub fn from_policy(policy: &AdmissionPolicy) -> Option<Self> {
        match *policy {
            AdmissionPolicy::None => None,
            AdmissionPolicy::TokenBucket {
                period,
                refill,
                burst,
            } => Some(Self {
                period,
                refill,
                burst,
                tokens: burst,
                granted_by_class: [0; MAX_CLASSES],
            }),
        }
    }

    /// Refill every bucket if `now` is on a period boundary. Called once
    /// per cycle at the top of the token phase, before any sweep.
    #[inline]
    pub fn tick(&mut self, now: Cycle) {
        if now.is_multiple_of(Cycle::from(self.period)) {
            for c in 0..MAX_CLASSES {
                self.tokens[c] = self.tokens[c]
                    .saturating_add(self.refill[c])
                    .min(self.burst[c]);
            }
        }
    }

    /// Whether a sender whose head packet carries `class` may take a grant.
    #[inline]
    pub fn admits(&self, class: u8) -> bool {
        self.tokens[usize::from(class)] > 0
    }

    /// Account a grant to `class`, draining its bucket by one.
    #[inline]
    pub fn on_grant(&mut self, class: u8) {
        let c = usize::from(class);
        debug_assert!(self.tokens[c] > 0, "grant admitted with an empty bucket");
        self.tokens[c] -= 1;
        self.granted_by_class[c] += 1;
    }

    /// Current bucket levels (state keys, invariant checks).
    pub fn tokens(&self) -> [u8; MAX_CLASSES] {
        self.tokens
    }

    /// Bucket capacities (invariant checks).
    pub fn burst(&self) -> [u8; MAX_CLASSES] {
        self.burst
    }

    /// Refill interval in cycles.
    pub fn period(&self) -> u32 {
        self.period
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctl(period: u32, refill: u8, burst: u8) -> AdmissionCtl {
        AdmissionCtl::from_policy(&AdmissionPolicy::TokenBucket {
            period,
            refill: [refill; MAX_CLASSES],
            burst: [burst; MAX_CLASSES],
        })
        .expect("token bucket builds")
    }

    #[test]
    fn none_policy_builds_no_state() {
        assert!(AdmissionCtl::from_policy(&AdmissionPolicy::None).is_none());
    }

    #[test]
    fn buckets_start_full_and_drain_per_grant() {
        let mut a = ctl(4, 1, 2);
        assert!(a.admits(0));
        a.on_grant(0);
        a.on_grant(0);
        assert!(!a.admits(0), "bucket drained");
        assert!(a.admits(1), "classes are independent");
        assert_eq!(a.granted_by_class[0], 2);
    }

    #[test]
    fn tick_refills_only_on_period_boundaries() {
        let mut a = ctl(4, 1, 2);
        a.on_grant(0);
        a.on_grant(0);
        a.tick(1);
        a.tick(2);
        a.tick(3);
        assert!(!a.admits(0), "mid-period ticks must not refill");
        a.tick(4);
        assert!(a.admits(0), "period boundary refills");
        assert_eq!(a.tokens()[0], 1);
    }

    #[test]
    fn refill_saturates_at_burst() {
        let mut a = ctl(1, 3, 4);
        a.tick(1);
        a.tick(2);
        assert_eq!(a.tokens()[0], 4, "bucket saturates at burst");
    }
}
