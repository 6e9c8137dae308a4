//! The MWSR ring: one channel per home node, as the [`Mwsr`] layer of the
//! shared [`Fabric`] backbone (which owns the injection pipeline and the
//! run driver).
//!
//! Channels are built through [`crate::with_scheme!`], the one table that
//! maps a [`crate::Scheme`] to its (arbiter, flow) pairing, and stored
//! monomorphized per scheme family in `Channels`; the per-cycle phase
//! sweeps dispatch on that enum once per sweep, not once per channel.

use crate::audit::{ChannelAuditView, InvariantAuditor};
use crate::calendar::Calendar;
use crate::channel::{Channel, Delivery};
use crate::config::NetworkConfig;
use crate::fabric::{sealed::Sealed, Fabric, Layer};
use crate::metrics::NetworkMetrics;
use crate::packet::Packet;
use crate::schemes::{
    Arbiter, BitPlane, CirculationFlow, CreditFlow, DistributedArbiter, Flow, GlobalArbiter,
    HandshakeFlow, SlotFlow,
};
use crate::sources::TRAFFIC_SEED_XOR;
use pnoc_sim::Cycle;

/// Monomorphized channel storage: one variant per scheme family, each
/// holding fully concrete `Channel<A, F>` values. The variant is chosen
/// once in [`build_channels`]; every per-cycle loop then runs a compiled
/// step body with both scheme layers inlined — the enum dispatch happens
/// once per *phase sweep*, not once per channel per hook.
#[derive(Debug, Clone)]
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

/// The concrete channel vector of one `Channels` variant, reached from
/// code generic over the pairing (the auditor's sleep-time clones).
trait ChannelVec<A, F> {
    /// The vector, if `self` is the variant holding `Channel<A, F>`.
    fn vec_mut(&mut self) -> Option<&mut Vec<Channel<A, F>>>;
}

/// Wrap each concrete channel vector in its `Channels` variant, so
/// [`build_channels`] can construct channels generically over the pairing,
/// and unwrap it again through [`ChannelVec`].
macro_rules! channels_from {
    ($($variant:ident: $a:ty, $f:ty;)*) => {$(
        impl From<Vec<Channel<$a, $f>>> for Channels {
            fn from(chs: Vec<Channel<$a, $f>>) -> Self {
                Channels::$variant(chs)
            }
        }

        impl ChannelVec<$a, $f> for Channels {
            fn vec_mut(&mut self) -> Option<&mut Vec<Channel<$a, $f>>> {
                match self {
                    Channels::$variant(chs) => Some(chs),
                    _ => None,
                }
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
///
/// Quiescent channels sleep: `awake` marks the homes [`Layer::step`]
/// steps, in ascending order. A channel that ends its step quiescent
/// ([`Channel::is_quiescent`]) is cleared from it; a packet leaving the
/// injection router sets its home again, and the channel applies the
/// skipped idle cycles in closed form ([`Channel::catch_up`]) before the
/// packet is queued.
#[derive(Debug)]
pub struct Mwsr {
    cfg: NetworkConfig,
    channels: Channels,
    /// Homes whose channel is stepped every cycle.
    awake: BitPlane,
    /// Cycle-level invariant auditor; `None` until
    /// [`Network::attach_auditor`] is called.
    audit: Option<Box<Audit>>,
    /// Per-channel occupancy time-series sampler; `None` until
    /// [`Network::attach_sampler`] is called.
    sampler: Option<pnoc_obs::OccupancySampler>,
}

impl Sealed for Mwsr {}

impl Layer for Mwsr {
    type Config = NetworkConfig;
    const TRAFFIC_SEED_XOR: u64 = TRAFFIC_SEED_XOR;

    fn build(cfg: NetworkConfig) -> Result<Self, String> {
        cfg.validate()?;
        let mut awake = BitPlane::new(cfg.nodes);
        for h in 0..cfg.nodes {
            awake.set(h, true);
        }
        Ok(Self {
            cfg,
            channels: build_channels(&cfg),
            awake,
            audit: None,
            sampler: None,
        })
    }

    fn config(&self) -> &NetworkConfig {
        &self.cfg
    }

    fn seed(&self) -> u64 {
        self.cfg.seed
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
        // every awake channel's step run over the concrete channel type.
        let awake = &mut self.awake;
        let audit = &mut self.audit;
        for_channels!(&mut self.channels, chs => {
            if inject_cal.is_empty() {
                inject_cal.fast_forward(now);
            } else {
                for mut pkt in inject_cal.drain(now) {
                    pkt.enqueued_at = now;
                    let home = pkt.dst_node as usize;
                    let ch = &mut chs[home];
                    if !awake.get(home) {
                        awake.set(home, true);
                        ch.catch_up(now);
                        if let Some(a) = audit.as_deref_mut() {
                            audit_wake(a, ch, now);
                        }
                    }
                    ch.enqueue(pkt);
                }
            }
            match audit.as_deref_mut() {
                None => step_marked(chs, awake, true, now, metrics, deliveries),
                Some(a) => audited_step(a, chs, awake, now, metrics, deliveries),
            }
        });
        if let Some(s) = self.sampler.as_mut() {
            sample_channels(s, &mut self.channels, now);
        }
        if let Some(a) = self.audit.as_deref_mut() {
            audit_cycle(a, &self.channels, now, inject_cal, metrics, deliveries);
        }
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

/// Record every channel's occupancy if the sampler is due this cycle,
/// catching sleeping channels up to the end of `now` first (a sleeping
/// token channel's credits and a token stream's count still move). Out of
/// line so an unsampled run pays one predictable branch per cycle.
#[cold]
#[inline(never)]
fn sample_channels(s: &mut pnoc_obs::OccupancySampler, channels: &mut Channels, now: Cycle) {
    if s.due(now) {
        for_channels!(channels, chs => for ch in chs {
            ch.catch_up(now + 1);
            s.record(ch.occupancy_sample(now));
        });
    }
}

/// The attached auditor with its scratch snapshot buffers (allocations
/// reused across sampled cycles), and a clone of every sleeping channel.
#[derive(Debug, Default)]
struct Audit {
    auditor: InvariantAuditor,
    views: Vec<ChannelAuditView>,
    pending: Vec<u64>,
    /// Clones taken as channels went to sleep; `asleep` marks those that
    /// still stand for a sleeping channel and so step every cycle.
    clones: Option<Channels>,
    asleep: BitPlane,
    /// Scratch: the awake plane before this cycle's step, and the clones'
    /// metrics and deliveries (they must deliver nothing).
    was_awake: BitPlane,
    clone_metrics: NetworkMetrics,
    clone_deliveries: Vec<Delivery>,
    /// The two state keys a wake compares.
    keys: (Vec<u64>, Vec<u64>),
    /// Wakes cross-checked so far.
    wakes: u64,
}

/// Step the channels `marked` holds, in ascending home order (the order
/// in which every channel stepped before channels could sleep, so
/// deliveries keep their order). With `sleep`, a channel that ends its
/// step quiescent is unmarked.
///
/// This is the network's one call site of [`Channel::step`], so the step
/// inlines into this loop. It stays out of line because the auditor runs
/// its sleep-time clones through it too: a second inlined copy of the step
/// would push the phases out of line, which slows every ring run.
#[inline(never)]
fn step_marked<A: Arbiter, F: Flow>(
    chs: &mut [Channel<A, F>],
    marked: &mut BitPlane,
    sleep: bool,
    now: Cycle,
    metrics: &mut NetworkMetrics,
    deliveries: &mut Vec<Delivery>,
) {
    marked.retain(|home| {
        let ch = &mut chs[home];
        ch.step(now, metrics, deliveries);
        !(sleep && ch.is_quiescent())
    });
}

/// [`step_marked`] with the auditor attached: the clone of every sleeping
/// channel takes this cycle's real step first (it must deliver nothing),
/// and each channel that goes to sleep is cloned, so its clone steps for
/// real through every cycle it skips and [`audit_wake`] can compare.
///
/// # Panics
///
/// Panics when a sleeping channel's clone delivers a packet.
#[cold]
#[inline(never)]
fn audited_step<A: Arbiter + Clone, F: Flow + Clone>(
    a: &mut Audit,
    chs: &mut [Channel<A, F>],
    awake: &mut BitPlane,
    now: Cycle,
    metrics: &mut NetworkMetrics,
    deliveries: &mut Vec<Delivery>,
) where
    Channels: ChannelVec<A, F>,
{
    let Some(clones) = a.clones.as_mut().and_then(ChannelVec::vec_mut) else {
        return step_marked(chs, awake, true, now, metrics, deliveries);
    };
    step_marked(
        clones,
        &mut a.asleep,
        false,
        now,
        &mut a.clone_metrics,
        &mut a.clone_deliveries,
    );
    assert!(
        a.clone_deliveries.is_empty(),
        "invariant auditor, cycle {now}: a sleeping channel's clone delivered a packet"
    );
    a.was_awake.clone_from(awake);
    step_marked(chs, awake, true, now, metrics, deliveries);
    for home in &a.was_awake {
        if !awake.get(home) {
            clones[home].clone_from(&chs[home]);
            a.asleep.set(home, true);
        }
    }
}

/// Check a woken channel's closed-form catch-up against its sleep-time
/// clone, which has stepped for real through every skipped cycle: the two
/// state keys must be equal.
///
/// # Panics
///
/// Panics with a diagnostic when the two states differ.
#[cold]
#[inline(never)]
fn audit_wake<A: Arbiter, F: Flow>(a: &mut Audit, ch: &Channel<A, F>, now: Cycle)
where
    Channels: ChannelVec<A, F>,
{
    let Some(clones) = a.clones.as_mut().and_then(ChannelVec::vec_mut) else {
        return;
    };
    let home = ch.home();
    a.wakes += 1;
    a.asleep.set(home, false);
    let (stepped, caught_up) = &mut a.keys;
    stepped.clear();
    caught_up.clear();
    clones[home].state_key(now, stepped);
    ch.state_key(now, caught_up);
    assert!(
        stepped == caught_up,
        "invariant auditor, cycle {now}: channel {home} woke in a state \
         its skipped idle steps do not reach"
    );
}

/// Run the cycle-level invariant auditor against this cycle's end state.
/// Delivery observation — the exactly-once check — runs every cycle; the
/// bit-plane and cross-field structural checks are stride-sampled on large
/// configurations. Out of line so an unaudited run pays one predictable
/// branch per cycle.
///
/// # Panics
///
/// Panics with a diagnostic on the first violated invariant.
#[cold]
#[inline(never)]
fn audit_cycle(
    a: &mut Audit,
    channels: &Channels,
    now: Cycle,
    inject_cal: &Calendar<Packet>,
    metrics: &NetworkMetrics,
    deliveries: &[Delivery],
) {
    for d in deliveries {
        if let Err(why) = a.auditor.observe_delivery(d.pkt.id) {
            panic!("invariant auditor, cycle {now}: {why}");
        }
    }
    if !a.auditor.due(now) {
        return;
    }
    // The bit-planes must track their scalar predicates exactly: check
    // every channel's internal invariants on sampled cycles.
    for_channels!(channels, chs => {
        a.views.resize_with(chs.len(), Default::default);
        for (ch, view) in chs.iter().zip(a.views.iter_mut()) {
            if let Err(why) = ch.try_check_invariants() {
                panic!("invariant auditor, cycle {now}, channel {}: {why}", ch.home());
            }
            ch.audit_view_into(view);
        }
    });
    a.pending.clear();
    a.pending
        .extend(inject_cal.pending_iter().map(|(_, p)| p.id));
    let verdict = a
        .auditor
        .check(&a.views, metrics, &a.pending)
        .and_then(|()| a.auditor.check_starvation(now, &a.views));
    if let Err(why) = verdict {
        panic!("invariant auditor, cycle {now}: {why}");
    }
}

/// MWSR-only observers.
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

    /// Attach the cycle-level invariant auditor: from now on every `step`
    /// checks exactly-once delivery, buffer bounds, credit conservation,
    /// ACK pairing, flit conservation, class starvation and the channels'
    /// bit-plane invariants, and panics with a diagnostic on the first
    /// violation.
    ///
    /// # Panics
    ///
    /// Panics if the network has already stepped: the auditor must see
    /// every delivery for its exactly-once ledger to be complete.
    pub fn attach_auditor(&mut self) {
        assert_eq!(
            self.now(),
            0,
            "attach_auditor after the first step: deliveries already missed"
        );
        self.layer.audit = Some(Box::new(Audit {
            auditor: InvariantAuditor::new(self.layer.cfg.nodes),
            clones: Some(self.layer.channels.clone()),
            asleep: BitPlane::new(self.layer.cfg.nodes),
            ..Audit::default()
        }));
    }

    /// Checker self-test hook: plant the duplicate-delivery bug in every
    /// channel ([`Channel::disable_duplicate_suppression`]), which an
    /// attached auditor must then report. Never armed on a real run.
    pub fn disable_duplicate_suppression(&mut self) {
        for_channels!(&mut self.layer.channels, chs => {
            for ch in chs.iter_mut() {
                ch.disable_duplicate_suppression();
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheme;
    use crate::metrics::RunSummary;
    use crate::packet::PacketKind;
    use crate::sources::SyntheticSource;
    use pnoc_sim::RunPlan;
    use pnoc_traffic::pattern::TrafficPattern;

    /// One synthetic point on an audited network: the invariant
    /// auditor checks every cycle of every run in this suite.
    fn audited_point(cfg: NetworkConfig, rate: f64) -> (RunSummary, Network) {
        let mut net = Network::new(cfg).expect("invalid config");
        net.attach_auditor();
        let mut src = SyntheticSource::new(
            TrafficPattern::UniformRandom,
            rate,
            cfg.nodes,
            cfg.cores_per_node,
            cfg.seed ^ TRAFFIC_SEED_XOR,
        );
        let s = net.run_open_loop(&mut src, RunPlan::quick());
        (s, net)
    }

    fn quick_point(scheme: Scheme, rate: f64) -> RunSummary {
        audited_point(NetworkConfig::small(scheme), rate).0
    }

    #[test]
    fn all_schemes_conserve_packets_at_low_load() {
        for scheme in Scheme::paper_set(2) {
            let cfg = NetworkConfig::small(scheme);
            let mut net = Network::new(cfg).unwrap();
            net.attach_auditor();
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
        net.attach_auditor();
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
    #[should_panic(expected = "attach_auditor after the first step")]
    fn attaching_the_auditor_after_a_step_panics() {
        let mut net = Network::new(NetworkConfig::small(Scheme::TokenSlot)).unwrap();
        net.step();
        net.attach_auditor();
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
        let (s, net) = audited_point(cfg, rate);
        (s, net.metrics().clone(), net.is_drained())
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
        let (a, _) = audited_point(base, 0.05);
        let (b, _) = audited_point(with_engine, 0.05);
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

    #[test]
    fn audited_wakes_reproduce_the_skipped_idle_steps() {
        // Bursty low-rate traffic puts channels to sleep and wakes them
        // thousands of times; at every wake the auditor steps a clone taken
        // at sleep time through each skipped cycle and compares it with the
        // closed-form catch-up. One run per pairing, plus admission buckets
        // that must refill before a channel may sleep.
        let mut configs: Vec<NetworkConfig> = Scheme::paper_set(2)
            .into_iter()
            .map(NetworkConfig::small)
            .collect();
        let mut qos = NetworkConfig::small(Scheme::Dhs { setaside: 2 });
        qos.admission = crate::config::AdmissionPolicy::TokenBucket {
            period: 16,
            refill: [1; pnoc_traffic::MAX_CLASSES],
            burst: [2; pnoc_traffic::MAX_CLASSES],
        };
        configs.push(qos);
        for cfg in configs {
            let mut net = Network::new(cfg).expect("invalid config");
            net.attach_auditor();
            let mut src = crate::sources::ClassedSource::new(
                pnoc_traffic::classes::TenantMixKind::BurstyAdversary,
                0.01,
                TrafficPattern::UniformRandom,
                cfg.nodes,
                cfg.cores_per_node,
                cfg.seed ^ TRAFFIC_SEED_XOR,
            );
            net.run_open_loop(&mut src, RunPlan::quick());
            let wakes = net.layer.audit.as_ref().map_or(0, |a| a.wakes);
            assert!(
                wakes > 1_000,
                "{:?}: only {wakes} wakes checked",
                cfg.scheme
            );
            assert!(net.is_drained(), "{:?} left packets in flight", cfg.scheme);
            assert_eq!(net.metrics().generated, net.metrics().delivered);
        }
    }

    /// The auditor sees the planted duplicate-delivery bug on the shipped
    /// step loop: the `pnoc-verify --audit` configuration of DHS with a
    /// setaside buffer, 1% uniform faults, duplicate suppression disabled.
    #[test]
    #[should_panic(expected = "delivered twice")]
    fn auditor_catches_disabled_duplicate_suppression() {
        let mut cfg = NetworkConfig::paper_default(Scheme::Dhs { setaside: 1 });
        cfg.nodes = 8;
        cfg.cores_per_node = 2;
        cfg.ring_segments = 8;
        cfg.input_buffer = 4;
        let cfg = cfg.with_faults(FaultConfig::uniform(0.01));
        let mut net = Network::new(cfg).expect("invalid config");
        net.attach_auditor();
        net.disable_duplicate_suppression();
        let mut src = crate::sources::ClassedSource::new(
            pnoc_traffic::classes::TenantMixKind::SingleClass,
            0.04,
            TrafficPattern::UniformRandom,
            cfg.nodes,
            cfg.cores_per_node,
            cfg.seed ^ 0xA0D1_7000,
        );
        net.run_open_loop(&mut src, RunPlan::new(0, 1_500, 3_000));
    }
}
