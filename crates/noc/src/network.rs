//! The MWSR ring: one channel per home node, as the [`Mwsr`] layer of the
//! shared [`Fabric`] backbone (which owns the injection pipeline and the
//! run driver).
//!
//! Channels are built through [`crate::with_scheme!`], the one table that
//! maps a [`crate::Scheme`] to its (arbiter, flow) pairing, and stored
//! monomorphized per scheme family in `Channels`; the per-cycle phase
//! sweeps dispatch on that enum once per sweep, not once per channel.

use crate::calendar::Calendar;
use crate::channel::{Channel, Delivery};
use crate::config::NetworkConfig;
use crate::fabric::{sealed::Sealed, Fabric, Layer};
use crate::metrics::{NetworkMetrics, RunSummary};
use crate::packet::Packet;
use crate::schemes::{
    CirculationFlow, CreditFlow, DistributedArbiter, GlobalArbiter, HandshakeFlow, SlotFlow,
};
use pnoc_sim::{Cycle, RunPlan};

/// Monomorphized channel storage: one variant per scheme family, each
/// holding fully concrete `Channel<A, F>` values. The variant is chosen
/// once in [`build_channels`]; every per-cycle loop then runs a compiled
/// step body with both scheme layers inlined — the enum dispatch happens
/// once per *phase sweep*, not once per channel per hook.
#[derive(Debug)]
enum Channels {
    /// Token channel: global token carrying credits.
    Credit(Vec<Channel<GlobalArbiter, CreditFlow>>),
    /// GHS (± setaside): global token, ACK/NACK handshake.
    GlobalHandshake(Vec<Channel<GlobalArbiter, HandshakeFlow>>),
    /// Token slot: distributed tokens embodying buffer slots.
    Slot(Vec<Channel<DistributedArbiter, SlotFlow>>),
    /// DHS (± setaside): distributed tokens, ACK/NACK handshake.
    DistHandshake(Vec<Channel<DistributedArbiter, HandshakeFlow>>),
    /// DHS with circulation: distributed tokens, reinjection on overflow.
    Circulation(Vec<Channel<DistributedArbiter, CirculationFlow>>),
}

/// Run `$body` with `$c` bound to whichever concrete channel vector the
/// network holds. Each arm compiles separately, so `$body` monomorphizes
/// per scheme family.
macro_rules! for_channels {
    ($chs:expr, $c:ident => $body:expr) => {
        match $chs {
            Channels::Credit($c) => $body,
            Channels::GlobalHandshake($c) => $body,
            Channels::Slot($c) => $body,
            Channels::DistHandshake($c) => $body,
            Channels::Circulation($c) => $body,
        }
    };
}

/// Wrap each concrete channel vector in its `Channels` variant, so
/// [`build_channels`] can construct channels generically over the pairing.
macro_rules! channels_from {
    ($($variant:ident: $a:ty, $f:ty;)*) => {$(
        impl From<Vec<Channel<$a, $f>>> for Channels {
            fn from(chs: Vec<Channel<$a, $f>>) -> Self {
                Channels::$variant(chs)
            }
        }
    )*};
}

channels_from! {
    Credit: GlobalArbiter, CreditFlow;
    GlobalHandshake: GlobalArbiter, HandshakeFlow;
    Slot: DistributedArbiter, SlotFlow;
    DistHandshake: DistributedArbiter, HandshakeFlow;
    Circulation: DistributedArbiter, CirculationFlow;
}

/// Resolve `cfg.scheme` into its monomorphized channel vector: one channel
/// per home, each over a copy of the pairing [`crate::with_scheme!`] binds.
fn build_channels(cfg: &NetworkConfig) -> Channels {
    crate::with_scheme!(cfg, |arbiter, flow| {
        let chs: Vec<_> = (0..cfg.nodes)
            .map(|h| Channel::with_pipeline(h, cfg, arbiter.clone(), flow.clone()))
            .collect();
        Channels::from(chs)
    })
}

/// A complete ring network: one MWSR channel per node behind the shared
/// [`Fabric`] injection pipeline and run driver.
///
/// ```
/// use pnoc_noc::{Network, NetworkConfig, Scheme, SyntheticSource};
/// use pnoc_traffic::pattern::TrafficPattern;
/// use pnoc_sim::RunPlan;
///
/// let cfg = NetworkConfig::small(Scheme::Dhs { setaside: 2 });
/// let mut net = Network::new(cfg).unwrap();
/// let mut src = SyntheticSource::new(
///     TrafficPattern::UniformRandom, 0.02, cfg.nodes, cfg.cores_per_node, 1);
/// let summary = net.run_open_loop(&mut src, RunPlan::quick());
/// assert!(summary.avg_latency > 0.0);
/// ```
pub type Network = Fabric<Mwsr>;

/// The MWSR [`Layer`]: one channel per home node, monomorphized per scheme
/// family, plus the MWSR-only observers.
#[derive(Debug)]
pub struct Mwsr {
    cfg: NetworkConfig,
    channels: Channels,
    /// Cycle-level invariant auditing (`verify-invariants` feature): see
    /// [`crate::audit::InvariantAuditor`].
    #[cfg(feature = "verify-invariants")]
    auditor: crate::audit::InvariantAuditor,
    /// Scratch channel views for the sampled audit (allocations reused
    /// across cycles).
    #[cfg(feature = "verify-invariants")]
    audit_views: Vec<crate::audit::ChannelAuditView>,
    /// Scratch pending-injection ids for the sampled audit.
    #[cfg(feature = "verify-invariants")]
    audit_pending: Vec<u64>,
    /// Per-channel occupancy time-series sampler; `None` until
    /// [`Network::attach_sampler`] is called.
    sampler: Option<pnoc_obs::OccupancySampler>,
}

impl Sealed for Mwsr {}

impl Layer for Mwsr {
    type Config = NetworkConfig;

    fn build(cfg: NetworkConfig) -> Result<Self, String> {
        cfg.validate()?;
        Ok(Self {
            cfg,
            channels: build_channels(&cfg),
            #[cfg(feature = "verify-invariants")]
            auditor: crate::audit::InvariantAuditor::new(cfg.nodes),
            #[cfg(feature = "verify-invariants")]
            audit_views: Vec::new(),
            #[cfg(feature = "verify-invariants")]
            audit_pending: Vec::new(),
            sampler: None,
        })
    }

    fn config(&self) -> &NetworkConfig {
        &self.cfg
    }

    fn nodes(&self) -> usize {
        self.cfg.nodes
    }

    fn cores_per_node(&self) -> usize {
        self.cfg.cores_per_node
    }

    fn router_latency(&self) -> u64 {
        self.cfg.router_latency
    }

    fn step(
        &mut self,
        now: Cycle,
        inject_cal: &mut Calendar<Packet>,
        metrics: &mut NetworkMetrics,
        deliveries: &mut Vec<Delivery>,
    ) {
        // One monomorphization branch for the whole cycle: inject drain plus
        // all six phases run over the concrete channel type.
        for_channels!(&mut self.channels, chs => {
            if inject_cal.is_empty() {
                inject_cal.fast_forward(now);
            } else {
                for mut pkt in inject_cal.drain(now) {
                    pkt.enqueued_at = now;
                    chs[pkt.dst_node as usize].enqueue(pkt);
                }
            }
            for ch in chs.iter_mut() {
                ch.phase_advance();
                ch.phase_arrival(now, metrics);
                ch.phase_acks(now, metrics);
                ch.phase_transmit(now, metrics);
                ch.phase_tokens(now, metrics);
                ch.phase_eject(now, metrics, deliveries);
            }
        });
        if let Some(s) = self.sampler.as_mut() {
            sample_channels(s, &self.channels, now);
        }
        #[cfg(feature = "verify-invariants")]
        self.audit(now, inject_cal, metrics, deliveries);
    }

    fn is_drained(&self) -> bool {
        for_channels!(&self.channels, chs => chs.iter().all(Channel::is_drained))
    }

    /// Fault injection needs a much longer horizon than a healthy ring:
    /// timeout recovery with exponential backoff can take thousands of
    /// cycles, and the drain loop exits early, so healthy runs never pay
    /// for it.
    fn drain_grace(&self) -> u64 {
        if self.cfg.faults.enabled() {
            200_000
        } else {
            4 * self.cfg.ring_segments as u64 + 64
        }
    }

    fn service_counts(&self) -> Vec<&[u64]> {
        for_channels!(&self.channels, chs => chs
            .iter()
            .map(|c| c.served_by_sender.as_slice())
            .collect())
    }
}

/// Record every channel's occupancy if the sampler is due this cycle. Out
/// of line so an unsampled run pays one predictable branch per cycle.
#[cold]
#[inline(never)]
fn sample_channels(s: &mut pnoc_obs::OccupancySampler, channels: &Channels, now: Cycle) {
    if s.due(now) {
        for_channels!(channels, chs => for ch in chs {
            s.record(ch.occupancy_sample(now));
        });
    }
}

impl Mwsr {
    /// Refill `views` with every channel's audit view and `pending` with
    /// the ids still in the injection pipeline.
    fn audit_snapshot_into(
        &self,
        inject_cal: &Calendar<Packet>,
        views: &mut Vec<crate::audit::ChannelAuditView>,
        pending: &mut Vec<u64>,
    ) {
        views.resize_with(self.cfg.nodes, Default::default);
        for_channels!(&self.channels, chs => {
            for (ch, view) in chs.iter().zip(views.iter_mut()) {
                ch.audit_view_into(view);
            }
        });
        pending.clear();
        pending.extend(inject_cal.pending_iter().map(|(_, p)| p.id));
    }

    /// Run the cycle-level invariant auditor against this cycle's end state
    /// (`verify-invariants` feature). Delivery observation — the
    /// exactly-once check — runs every cycle; the cross-field structural
    /// checks are stride-sampled on large configurations.
    ///
    /// # Panics
    ///
    /// Panics with a diagnostic on the first violated invariant.
    #[cfg(feature = "verify-invariants")]
    fn audit(
        &mut self,
        now: Cycle,
        inject_cal: &Calendar<Packet>,
        metrics: &NetworkMetrics,
        deliveries: &[Delivery],
    ) {
        for d in deliveries {
            if let Err(why) = self.auditor.observe_delivery(d.pkt.id) {
                panic!("invariant auditor, cycle {now}: {why}");
            }
        }
        // The bit-planes must track their scalar predicates exactly: check
        // every channel's internal invariants on sampled cycles.
        if !self.auditor.due(now) {
            return;
        }
        for_channels!(&self.channels, chs => for ch in chs {
            if let Err(why) = ch.try_check_invariants() {
                panic!("invariant auditor, cycle {now}, channel {}: {why}", ch.home());
            }
        });
        // Reuse the scratch snapshot buffers across sampled cycles (taken
        // out and put back to satisfy the borrow checker alongside `&self`).
        let mut views = std::mem::take(&mut self.audit_views);
        let mut pending = std::mem::take(&mut self.audit_pending);
        self.audit_snapshot_into(inject_cal, &mut views, &mut pending);
        let verdict = self
            .auditor
            .check(&views, metrics, &pending)
            .and_then(|()| self.auditor.check_starvation(now, &views));
        self.audit_views = views;
        self.audit_pending = pending;
        if let Err(why) = verdict {
            panic!("invariant auditor, cycle {now}: {why}");
        }
    }
}

/// MWSR-only observers and the external audit surface.
impl Network {
    /// Attach a fixed-capacity packet-lifecycle event trace. Events emitted
    /// before attachment are not recorded; once `capacity` events are held
    /// the oldest are overwritten (the drop count is reported on export).
    pub fn attach_trace(&mut self, capacity: usize) {
        self.metrics.obs.attach(capacity);
    }

    /// The attached event trace, if any.
    pub fn trace(&self) -> Option<&pnoc_obs::RingTrace> {
        self.metrics.obs.trace()
    }

    /// Attach a per-channel occupancy sampler that records every channel's
    /// occupancy/queue/setaside/credit/token state every `stride` cycles.
    pub fn attach_sampler(&mut self, stride: u64) {
        self.layer.sampler = Some(pnoc_obs::OccupancySampler::new(stride));
    }

    /// The attached occupancy sampler, if any.
    pub fn sampler(&self) -> Option<&pnoc_obs::OccupancySampler> {
        self.layer.sampler.as_ref()
    }

    /// Snapshot the per-channel views plus the ids still in the injection
    /// pipeline — everything an external
    /// [`crate::audit::InvariantAuditor`] needs to run its checks against
    /// this network (the `pnoc-verify` audit pass drives this without the
    /// `verify-invariants` feature). Refills the caller's buffers in place
    /// so a per-cycle audit loop reuses its allocations.
    pub fn audit_snapshot_into(
        &self,
        views: &mut Vec<crate::audit::ChannelAuditView>,
        pending: &mut Vec<u64>,
    ) {
        self.layer
            .audit_snapshot_into(&self.inject_cal, views, pending);
    }

    /// Allocating convenience wrapper around [`Network::audit_snapshot_into`].
    pub fn audit_snapshot(&self) -> (Vec<crate::audit::ChannelAuditView>, Vec<u64>) {
        let mut views = Vec::new();
        let mut pending = Vec::new();
        self.audit_snapshot_into(&mut views, &mut pending);
        (views, pending)
    }
}

/// Convenience: build a fresh network and run one synthetic point.
pub fn run_synthetic_point(
    cfg: NetworkConfig,
    pattern: pnoc_traffic::pattern::TrafficPattern,
    rate: f64,
    plan: RunPlan,
) -> RunSummary {
    let mut net = Network::new(cfg).expect("invalid config");
    let mut src = crate::sources::SyntheticSource::new(
        pattern,
        rate,
        cfg.nodes,
        cfg.cores_per_node,
        cfg.seed ^ 0x5EED_0001,
    );
    net.run_open_loop(&mut src, plan)
}

/// A synthetic point's summary plus the full latency distribution behind it.
///
/// The fleet aggregation layer merges the recorders of every replica in a
/// sweep cell before taking tail quantiles, so the cell's p99 is computed
/// over the pooled distribution rather than averaged across replicas.
#[derive(Debug, Clone)]
pub struct PointDetail {
    /// The scalar summary, identical to what [`run_synthetic_point`] returns.
    pub summary: RunSummary,
    /// The full measured-latency recorder for the run.
    pub latency: pnoc_obs::LatencyRecorder,
}

/// [`run_synthetic_point`] with a multi-tenant source, also returning the
/// latency recorder: the mix's tenants split the offered rate and tag
/// packets with their traffic classes.
/// [`pnoc_traffic::classes::TenantMixKind::SingleClass`] reproduces the
/// plain synthetic run bit-for-bit (same seed derivation, same injection
/// stream).
pub fn run_classed_point_detailed(
    cfg: NetworkConfig,
    mix: pnoc_traffic::classes::TenantMixKind,
    pattern: pnoc_traffic::pattern::TrafficPattern,
    rate: f64,
    plan: RunPlan,
) -> PointDetail {
    let mut net = Network::new(cfg).expect("invalid config");
    let mut src = crate::sources::ClassedSource::new(
        mix,
        rate,
        pattern,
        cfg.nodes,
        cfg.cores_per_node,
        cfg.seed ^ 0x5EED_0001,
    );
    let summary = net.run_open_loop(&mut src, plan);
    PointDetail {
        summary,
        latency: net.metrics().latency_rec.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheme;
    use crate::packet::PacketKind;
    use crate::sources::SyntheticSource;
    use pnoc_traffic::pattern::TrafficPattern;

    fn quick_point(scheme: Scheme, rate: f64) -> RunSummary {
        let cfg = NetworkConfig::small(scheme);
        run_synthetic_point(cfg, TrafficPattern::UniformRandom, rate, RunPlan::quick())
    }

    #[test]
    fn all_schemes_conserve_packets_at_low_load() {
        for scheme in Scheme::paper_set(2) {
            let cfg = NetworkConfig::small(scheme);
            let mut net = Network::new(cfg).unwrap();
            let mut src = SyntheticSource::new(
                TrafficPattern::UniformRandom,
                0.02,
                cfg.nodes,
                cfg.cores_per_node,
                7,
            );
            let s = net.run_open_loop(&mut src, RunPlan::quick());
            assert!(net.is_drained(), "{scheme:?} left packets in flight");
            assert_eq!(
                net.metrics().generated,
                net.metrics().delivered,
                "{scheme:?} lost packets"
            );
            assert!(!s.saturated, "{scheme:?} saturated at 0.02?");
            assert!(
                s.avg_latency > 0.0 && s.avg_latency < 40.0,
                "{scheme:?}: {}",
                s.avg_latency
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = quick_point(Scheme::Dhs { setaside: 2 }, 0.05);
        let b = quick_point(Scheme::Dhs { setaside: 2 }, 0.05);
        assert_eq!(a.avg_latency.to_bits(), b.avg_latency.to_bits());
        assert_eq!(a.delivered, b.delivered);
    }

    #[test]
    fn latency_rises_with_load() {
        let low = quick_point(Scheme::Dhs { setaside: 2 }, 0.01);
        let high = quick_point(Scheme::Dhs { setaside: 2 }, 0.15);
        assert!(
            high.avg_latency > low.avg_latency,
            "latency must grow with load ({} vs {})",
            high.avg_latency,
            low.avg_latency
        );
    }

    #[test]
    fn throughput_tracks_offered_below_saturation() {
        let s = quick_point(Scheme::TokenSlot, 0.03);
        assert!(
            (s.throughput_per_core - s.offered_per_core).abs() < 0.005,
            "accepted {} vs offered {}",
            s.throughput_per_core,
            s.offered_per_core
        );
    }

    #[test]
    fn closed_loop_api_round_trip() {
        // Drive inject()/step()/deliveries() by hand, as the CMP model does.
        let cfg = NetworkConfig::small(Scheme::Dhs { setaside: 2 });
        let mut net = Network::new(cfg).unwrap();
        let id = net.inject(0, 5, PacketKind::Request, 42, true);
        let mut seen = None;
        for _ in 0..64 {
            net.step();
            if let Some(d) = net.deliveries().first() {
                seen = Some(*d);
                break;
            }
        }
        let d = seen.expect("packet should be delivered");
        assert_eq!(d.pkt.id, id);
        assert_eq!(d.pkt.tag, 42);
        assert_eq!(d.pkt.dst_node, 5);
        assert!(d.available_at >= net.now() - 1);
    }

    #[test]
    fn bad_config_is_rejected() {
        let mut cfg = NetworkConfig::small(Scheme::TokenSlot);
        cfg.ring_segments = 3;
        assert!(Network::new(cfg).is_err());
    }

    // --- fault injection & recovery ---

    use pnoc_faults::FaultConfig;

    /// Run one faulted point; returns (summary, metrics, drained). Credit
    /// schemes may legitimately wedge (leaked credits never come back), so
    /// the drain check is left to each test.
    fn faulted_point(cfg: NetworkConfig, rate: f64) -> (RunSummary, NetworkMetrics, bool) {
        let mut net = Network::new(cfg).expect("invalid config");
        let mut src = SyntheticSource::new(
            TrafficPattern::UniformRandom,
            rate,
            cfg.nodes,
            cfg.cores_per_node,
            cfg.seed ^ 0x5EED_0001,
        );
        let s = net.run_open_loop(&mut src, RunPlan::quick());
        let drained = net.is_drained();
        (s, net.metrics().clone(), drained)
    }

    #[test]
    fn zero_rate_faults_and_armed_recovery_change_nothing() {
        // Acceptance: routing a run "through the fault engine" at rate 0 —
        // recovery armed, timers pushed and going stale every packet — must
        // reproduce the seed latency bit-for-bit.
        let base = NetworkConfig::small(Scheme::Dhs { setaside: 2 });
        let with_engine = base.with_faults(FaultConfig::uniform(0.0));
        assert!(
            with_engine.recovery.enabled,
            "handshake scheme must arm recovery"
        );
        let a = run_synthetic_point(base, TrafficPattern::UniformRandom, 0.05, RunPlan::quick());
        let b = run_synthetic_point(
            with_engine,
            TrafficPattern::UniformRandom,
            0.05,
            RunPlan::quick(),
        );
        assert_eq!(a.avg_latency.to_bits(), b.avg_latency.to_bits());
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(
            b.timeout_retransmissions, 0,
            "no timer may fire on a healthy network"
        );
        assert_eq!(b.duplicates, 0);
    }

    #[test]
    fn handshake_schemes_deliver_everything_under_faults() {
        for scheme in [Scheme::Ghs { setaside: 0 }, Scheme::Dhs { setaside: 2 }] {
            let cfg = NetworkConfig::small(scheme).with_faults(FaultConfig::uniform(5e-4));
            let (s, m, drained) = faulted_point(cfg, 0.05);
            assert!(drained, "{scheme:?} failed to drain under recovery");
            assert_eq!(
                m.generated, m.delivered,
                "{scheme:?} lost or duplicated packets"
            );
            assert_eq!(s.lost_packets, 0, "{scheme:?}");
            assert_eq!(
                s.abandoned, 0,
                "{scheme:?} gave up on a packet at a mild fault rate"
            );
            let injected = m.faults_data_lost
                + m.faults_data_corrupt
                + m.faults_acks_lost
                + m.faults_tokens_lost;
            assert!(injected > 0, "{scheme:?}: fault engine never fired at 5e-4");
            assert!(
                m.timeout_retransmissions > 0,
                "{scheme:?}: losses must be recovered via timeout"
            );
        }
    }

    #[test]
    fn lost_acks_are_recovered_without_duplicate_delivery() {
        let faults = FaultConfig {
            ack_loss: 2e-3,
            ..FaultConfig::none()
        };
        let cfg = NetworkConfig::small(Scheme::Dhs { setaside: 2 }).with_faults(faults);
        let (s, m, drained) = faulted_point(cfg, 0.05);
        assert!(drained, "recovery failed to drain the network");
        assert!(m.faults_acks_lost > 0, "ACK-loss process never fired");
        assert!(
            m.timeout_retransmissions > 0,
            "lost ACKs must trigger timeouts"
        );
        assert!(
            m.duplicates_suppressed > 0,
            "a retransmit after a lost ACK arrives as a duplicate and must be filtered"
        );
        assert_eq!(m.generated, m.delivered, "exactly-once delivery violated");
        assert_eq!(s.lost_packets, 0);
    }

    #[test]
    fn credit_schemes_leak_and_lose_under_data_loss() {
        let faults = FaultConfig {
            data_loss: 1e-3,
            ..FaultConfig::none()
        };
        for scheme in [Scheme::TokenChannel, Scheme::TokenSlot] {
            let cfg = NetworkConfig::small(scheme).with_faults(faults);
            assert!(
                !cfg.recovery.enabled,
                "credit schemes have no handshake to arm"
            );
            let (s, m, _) = faulted_point(cfg, 0.05);
            assert!(
                m.faults_data_lost > 0,
                "{scheme:?}: loss process never fired"
            );
            assert!(
                s.lost_packets > 0,
                "{scheme:?} cannot recover destroyed flits"
            );
            assert!(
                s.credit_leaks > 0,
                "{scheme:?}: every destroyed flit leaks an unreturnable credit"
            );
        }
    }

    #[test]
    fn global_token_loss_recovers_via_watchdog() {
        let faults = FaultConfig {
            token_loss: 2e-3,
            ..FaultConfig::none()
        };
        // GHS: the token carries no credits, so the watchdog re-emission makes
        // token loss fully survivable.
        let cfg = NetworkConfig::small(Scheme::Ghs { setaside: 0 }).with_faults(faults);
        let (s, m, drained) = faulted_point(cfg, 0.03);
        assert!(drained, "GHS failed to drain after token loss");
        assert!(m.faults_tokens_lost > 0, "token-loss process never fired");
        assert_eq!(m.generated, m.delivered, "GHS must survive token loss");
        assert_eq!(s.lost_packets, 0);
        // Token channel: the same watchdog restores arbitration, but the
        // credits the token carried are destroyed with it.
        let cfg = NetworkConfig::small(Scheme::TokenChannel).with_faults(faults);
        let (_, m, _) = faulted_point(cfg, 0.03);
        assert!(m.faults_tokens_lost > 0);
        assert!(m.credit_leaks > 0, "carried credits die with the token");
    }

    #[test]
    fn ejection_stalls_are_absorbed_by_handshake_recovery() {
        let faults = FaultConfig {
            stall_start: 5e-4,
            stall_cycles: 16,
            ..FaultConfig::none()
        };
        let cfg = NetworkConfig::small(Scheme::Dhs { setaside: 2 }).with_faults(faults);
        let (s, m, drained) = faulted_point(cfg, 0.05);
        assert!(drained, "stalls must not wedge a recovering network");
        assert!(m.stall_cycles > 0, "stall process never fired");
        assert_eq!(
            m.generated, m.delivered,
            "stalls must only delay, never lose"
        );
        assert_eq!(s.lost_packets, 0);
    }

    #[test]
    fn faulted_runs_are_deterministic_given_seed() {
        let mk = || {
            NetworkConfig::small(Scheme::Dhs { setaside: 2 })
                .with_faults(FaultConfig::uniform(1e-4))
        };
        let (a, ma, _) = faulted_point(mk(), 0.05);
        let (b, mb, _) = faulted_point(mk(), 0.05);
        assert_eq!(a.avg_latency.to_bits(), b.avg_latency.to_bits());
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(ma.faults_data_lost, mb.faults_data_lost);
        assert_eq!(ma.faults_acks_lost, mb.faults_acks_lost);
        assert_eq!(ma.timeout_retransmissions, mb.timeout_retransmissions);
        assert_eq!(ma.duplicates_suppressed, mb.duplicates_suppressed);
    }
}
