//! The backbone every fabric shares: clock, injection pipeline, metrics,
//! per-cycle deliveries, and the warmup/measure/drain driver.
//!
//! The simulator has three fabrics — the MWSR ring ([`crate::Network`]),
//! the SWMR ring ([`crate::SwmrNetwork`]) and the electrical mesh
//! ([`crate::MeshNetwork`]). They differ only in what happens between a
//! packet leaving the injection router and reaching its ejection router.
//! [`Fabric`] owns everything else, once; a [`Layer`] supplies the part
//! that differs. A core injects through [`Fabric::inject_classed`], which
//! stamps the packet and schedules it `router_latency` cycles ahead on the
//! injection calendar; each [`Fabric::step`] hands that calendar to the
//! layer, which drains it into its own queues at the point of its cycle it
//! chooses and appends what it ejects to the deliveries.
//!
//! One synthetic latency-vs-load point, on any fabric, is
//! [`Fabric::run_point`]: build the fabric, drive it with a
//! [`ClassedSource`] seeded `seed ^ L::TRAFFIC_SEED_XOR`, and return the
//! summary with its latency distribution.

use crate::calendar::Calendar;
use crate::channel::Delivery;
use crate::metrics::{NetworkMetrics, RunSummary};
use crate::packet::{Packet, PacketKind};
use crate::sources::{ClassedSource, InjectionRequest, TrafficSource};
use pnoc_sim::{Clock, Cycle, RunPlan};
use pnoc_traffic::classes::TenantMixKind;
use pnoc_traffic::pattern::TrafficPattern;
use pnoc_traffic::TraceEvent;

pub(crate) mod sealed {
    /// Keeps [`super::Layer`] implementable only inside this crate.
    pub trait Sealed {}
}

/// What one fabric adds to the shared [`Fabric`] backbone: its channels or
/// routers, its per-cycle step, and its own drain contract. Sealed: the
/// three implementations are [`crate::network::Mwsr`],
/// [`crate::swmr::Swmr`] and [`crate::emesh::Mesh`].
pub trait Layer: sealed::Sealed + Sized {
    /// The fabric's configuration.
    type Config: Copy;

    /// Stream-XOR from the configuration's seed to the seed of the
    /// synthetic source [`Fabric::run_point`] drives the fabric with.
    const TRAFFIC_SEED_XOR: u64;

    /// Validate `cfg` and build the layer's initial (empty) state.
    fn build(cfg: Self::Config) -> Result<Self, String>;

    /// The configuration the layer was built with.
    fn config(&self) -> &Self::Config;

    /// The configuration's RNG seed.
    fn seed(&self) -> u64;

    /// Node count.
    fn nodes(&self) -> usize;

    /// Cores per node.
    fn cores_per_node(&self) -> usize;

    /// Injection (and ejection) router pipeline depth, cycles.
    fn router_latency(&self) -> u64;

    /// Advance the layer one cycle at `now`: take the packets leaving the
    /// injection router off `inject_cal`, move flits, and push this
    /// cycle's ejections onto `deliveries` (cleared by the caller).
    fn step(
        &mut self,
        now: Cycle,
        inject_cal: &mut Calendar<Packet>,
        metrics: &mut NetworkMetrics,
        deliveries: &mut Vec<Delivery>,
    );

    /// Whether every queue, buffer, flit, handshake and credit in flight
    /// inside the layer is gone.
    fn is_drained(&self) -> bool;

    /// How many cycles past the plan [`Fabric::run_open_loop`] keeps
    /// stepping while the network is not yet drained.
    fn drain_grace(&self) -> u64;

    /// Measured service counts by sender, one slice per receiving channel
    /// (empty when the fabric has no such notion).
    fn service_counts(&self) -> Vec<&[u64]>;
}

/// A sink for live injections: the surface a trace recorder plugs into.
///
/// Attached with [`Fabric::attach_recorder`], it receives every injection
/// synchronously, in simulation order, as the same [`TraceEvent`] a PTRC
/// stream stores. The capture boundary is deliberate: **injections, not
/// deliveries**. A recorded stream is the network's input; replaying it
/// re-simulates everything downstream (arbitration, faults, retries), which
/// is what makes bit-identical replay possible without recording any
/// internal state. Implementations must not feed anything back into the
/// simulation, and defer I/O error reporting to their own finish step:
/// `on_inject` has no error channel because the simulator cannot
/// meaningfully handle one mid-cycle.
pub trait InjectSubscriber: std::fmt::Debug {
    /// Called once per injection, synchronously, in simulation order.
    fn on_inject(&mut self, ev: TraceEvent);

    /// Recover the concrete subscriber after detaching it from the network
    /// (e.g. to finish and close an underlying writer).
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any>;
}

/// A synthetic point's summary plus the full latency distribution behind it.
///
/// The fleet aggregation layer merges the recorders of every replica in a
/// sweep cell before taking tail quantiles, so the cell's p99 is computed
/// over the pooled distribution rather than averaged across replicas.
#[derive(Debug, Clone)]
pub struct PointDetail {
    /// The run's scalar summary.
    pub summary: RunSummary,
    /// The full measured-latency recorder for the run.
    pub latency: pnoc_obs::LatencyRecorder,
}

/// A fabric: the shared injection pipeline and run driver around one
/// [`Layer`]. Use it through its aliases [`crate::Network`],
/// [`crate::SwmrNetwork`] and [`crate::MeshNetwork`].
#[derive(Debug)]
pub struct Fabric<L> {
    pub(crate) layer: L,
    clock: Clock,
    pub(crate) inject_cal: Calendar<Packet>,
    pub(crate) metrics: NetworkMetrics,
    deliveries: Vec<Delivery>,
    next_id: u64,
    gen_buf: Vec<InjectionRequest>,
    /// Live injection subscriber; `None` until [`Fabric::attach_recorder`]
    /// is called. Sees every injection in simulation order — the capture
    /// surface for trace recording.
    recorder: Option<Box<dyn InjectSubscriber>>,
}

impl<L: Layer> Fabric<L> {
    /// Build a network; fails on invalid configuration.
    pub fn new(cfg: L::Config) -> Result<Self, String> {
        let layer = L::build(cfg)?;
        let inject_cal = Calendar::new(layer.router_latency() as usize + 1);
        Ok(Self {
            layer,
            clock: Clock::new(),
            inject_cal,
            metrics: NetworkMetrics::new(),
            deliveries: Vec::new(),
            next_id: 0,
            gen_buf: Vec::new(),
            recorder: None,
        })
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.clock.now()
    }

    /// The configuration this network was built with.
    pub fn config(&self) -> &L::Config {
        self.layer.config()
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> &NetworkMetrics {
        &self.metrics
    }

    fn cores(&self) -> usize {
        self.layer.nodes() * self.layer.cores_per_node()
    }

    /// Attach a live injection subscriber. From now until
    /// [`Fabric::detach_recorder`], every injection is forwarded to the
    /// subscriber synchronously, in simulation order. Replaces any
    /// previously attached subscriber (returned to the caller).
    pub fn attach_recorder(
        &mut self,
        recorder: Box<dyn InjectSubscriber>,
    ) -> Option<Box<dyn InjectSubscriber>> {
        self.recorder.replace(recorder)
    }

    /// Detach and return the attached injection subscriber, if any (use
    /// [`InjectSubscriber::into_any`] to recover the concrete
    /// type and finish its output).
    pub fn detach_recorder(&mut self) -> Option<Box<dyn InjectSubscriber>> {
        self.recorder.take()
    }

    /// Inject a packet from `src_core` to `dst_node` at the current cycle.
    /// It enters the fabric after the injection router pipeline. Returns
    /// the packet id. Panics on self-node traffic (local delivery bypasses
    /// the network) and out-of-range indices.
    pub fn inject(
        &mut self,
        src_core: usize,
        dst_node: usize,
        kind: PacketKind,
        tag: u64,
        measured: bool,
    ) -> u64 {
        self.inject_classed(src_core, dst_node, kind, tag, 0, measured)
    }

    /// [`Fabric::inject`] with an explicit traffic class (multi-tenant
    /// `QoS`). Class 0 is the default class; classes must be below
    /// [`pnoc_traffic::MAX_CLASSES`].
    pub fn inject_classed(
        &mut self,
        src_core: usize,
        dst_node: usize,
        kind: PacketKind,
        tag: u64,
        class: u8,
        measured: bool,
    ) -> u64 {
        assert!(
            usize::from(class) < pnoc_traffic::MAX_CLASSES,
            "class {class} out of range"
        );
        assert!(src_core < self.cores(), "core {src_core} out of range");
        assert!(
            dst_node < self.layer.nodes(),
            "node {dst_node} out of range"
        );
        let src_node = src_core / self.layer.cores_per_node();
        assert_ne!(
            src_node, dst_node,
            "self-node traffic never enters the ring"
        );
        let now = self.clock.now();
        let id = self.next_id;
        self.next_id += 1;
        let pkt = Packet {
            id,
            src_core: crate::convert::narrow_u32(src_core),
            src_node: crate::convert::narrow_u32(src_node),
            dst_node: crate::convert::narrow_u32(dst_node),
            kind,
            generated_at: now,
            enqueued_at: now, // overwritten when it exits the pipeline
            sent_at: 0,
            sends: 0,
            measured,
            tag,
            class,
        };
        self.metrics.generated += 1;
        if measured {
            self.metrics.generated_measured += 1;
        }
        self.metrics
            .trace(now, dst_node, src_node, id, pnoc_obs::EventKind::Inject);
        if let Some(rec) = self.recorder.as_deref_mut() {
            record_injection(rec, &pkt, src_core, dst_node);
        }
        self.inject_cal
            .schedule(now + self.layer.router_latency(), pkt);
        id
    }

    /// Advance the network one cycle. Deliveries completed this cycle are
    /// available from [`Fabric::deliveries`] until the next `step`.
    pub fn step(&mut self) {
        let now = self.clock.now();
        self.deliveries.clear();
        self.layer.step(
            now,
            &mut self.inject_cal,
            &mut self.metrics,
            &mut self.deliveries,
        );
        self.clock.tick();
    }

    /// Packets delivered by the most recent [`Fabric::step`].
    pub fn deliveries(&self) -> &[Delivery] {
        &self.deliveries
    }

    /// Whether nothing is left anywhere: no packet in the injection
    /// pipeline and nothing in flight inside the layer, returning credits
    /// and handshakes included.
    pub fn is_drained(&self) -> bool {
        self.inject_cal.pending() == 0 && self.layer.is_drained()
    }

    /// Measured service counts by sender, one slice per receiving channel
    /// (fairness). Borrows the live counters — no copies.
    pub fn service_counts(&self) -> Vec<&[u64]> {
        self.layer.service_counts()
    }

    /// One point of a latency-vs-load figure: build a fabric from `cfg` and
    /// run `plan` on it under `mix` at `rate` packets/cycle/core total, with
    /// `pattern` as the majority destination pattern. The source is seeded
    /// `seed ^ L::TRAFFIC_SEED_XOR`;
    /// [`TenantMixKind::SingleClass`] is the plain [`crate::SyntheticSource`]
    /// at that seed, bit for bit. Panics on an invalid configuration.
    pub fn run_point(
        cfg: L::Config,
        mix: TenantMixKind,
        pattern: TrafficPattern,
        rate: f64,
        plan: RunPlan,
    ) -> PointDetail {
        let mut net = Self::new(cfg).expect("invalid config");
        let mut src = ClassedSource::new(
            mix,
            rate,
            pattern,
            net.layer.nodes(),
            net.layer.cores_per_node(),
            net.layer.seed() ^ L::TRAFFIC_SEED_XOR,
        );
        let summary = net.run_open_loop(&mut src, plan);
        PointDetail {
            summary,
            latency: net.metrics.latency_rec,
        }
    }

    /// Run the standard open-loop experiment: warmup, measure, drain, then
    /// summarize (one point on a latency-vs-load figure).
    pub fn run_open_loop(&mut self, source: &mut dyn TrafficSource, plan: RunPlan) -> RunSummary {
        let mut gen_buf = std::mem::take(&mut self.gen_buf);
        for _ in 0..plan.total() {
            let now = self.clock.now();
            if now < plan.warmup + plan.measure && !source.exhausted() {
                gen_buf.clear();
                source.generate(now, &mut gen_buf);
                let measured = plan.measures(now);
                for &(core, dst, kind, class) in &gen_buf {
                    self.inject_classed(core, dst, kind, 0, class, measured);
                }
            }
            self.step();
        }
        // Give stragglers a bounded grace period so latency averages are not
        // truncated at the drain boundary (matters near saturation). The
        // loop exits as soon as the network drains.
        let mut grace = self.layer.drain_grace();
        while grace > 0 && !self.is_drained() {
            self.step();
            grace -= 1;
        }
        self.gen_buf = gen_buf;
        let cores = self.cores();
        let offered =
            self.metrics.generated_measured as f64 / (plan.measure.max(1) as f64 * cores as f64);
        RunSummary::from_metrics(
            &self.metrics,
            &self.service_counts(),
            plan.measure,
            cores,
            offered,
        )
    }
}

/// Forward one injection to the attached recorder. Out of line so an
/// unrecorded run pays one predictable branch per injection.
#[cold]
#[inline(never)]
fn record_injection(
    rec: &mut dyn InjectSubscriber,
    pkt: &Packet,
    src_core: usize,
    dst_node: usize,
) {
    rec.on_inject(TraceEvent {
        cycle: pkt.generated_at,
        src_core,
        dst_node,
        kind: pkt.kind,
        class: pkt.class,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{NetworkConfig, Scheme};
    use crate::emesh::Mesh;
    use crate::network::Mwsr;
    use crate::sources::SyntheticSource;
    use crate::swmr::{Swmr, SwmrConfig};
    use crate::MeshConfig;

    /// Every malformed injection panics before it touches the network.
    fn rejects_bad_injections<L: Layer>(cfg: L::Config) {
        let mut net = Fabric::<L>::new(cfg).unwrap();
        let (cores, nodes) = (net.cores(), net.layer.nodes());
        let too_high_class = u8::try_from(pnoc_traffic::MAX_CLASSES).unwrap();
        let cases = [
            ("self-node traffic", 0, 0, 0), // core 0 lives on node 0
            ("out-of-range core", cores, 1, 0),
            ("out-of-range node", 0, nodes, 0),
            ("out-of-range class", 0, 1, too_high_class),
        ];
        for (what, core, dst, class) in cases {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                net.inject_classed(core, dst, PacketKind::Data, 0, class, false)
            }));
            assert!(r.is_err(), "{what} must be rejected");
        }
        assert_eq!(net.metrics().generated, 0);
        assert!(net.is_drained());
    }

    #[test]
    fn inject_validates_arguments() {
        rejects_bad_injections::<Mwsr>(NetworkConfig::small(Scheme::TokenSlot));
        rejects_bad_injections::<Swmr>(SwmrConfig::paper_credit());
        rejects_bad_injections::<Mesh>(MeshConfig::paper_comparable());
    }

    /// [`Fabric::run_point`] with a single-class mix is the hand-driven
    /// [`SyntheticSource`] run it replaced: same summary bytes, same
    /// latency distribution, with the source seeded `source_seed`.
    fn run_point_is_the_plain_synthetic_run<L: Layer>(cfg: L::Config, source_seed: u64) {
        let (pattern, rate) = (TrafficPattern::UniformRandom, 0.06);
        let plan = RunPlan::new(200, 1_000, 300);
        let point = Fabric::<L>::run_point(cfg, TenantMixKind::SingleClass, pattern, rate, plan);
        let mut net = Fabric::<L>::new(cfg).unwrap();
        let (nodes, cores_per_node) = (net.layer.nodes(), net.layer.cores_per_node());
        let mut src = SyntheticSource::new(pattern, rate, nodes, cores_per_node, source_seed);
        let summary = net.run_open_loop(&mut src, plan);
        assert!(summary.delivered > 0);
        assert_eq!(
            serde_json::to_string(&point.summary).unwrap(),
            serde_json::to_string(&summary).unwrap()
        );
        assert_eq!(point.latency, net.metrics().latency_rec);
    }

    #[test]
    fn run_point_matches_the_synthetic_runner_on_every_fabric() {
        let ring = NetworkConfig::small(Scheme::Dhs { setaside: 2 });
        run_point_is_the_plain_synthetic_run::<Mwsr>(ring, ring.seed ^ 0x5EED_0001);
        let swmr = SwmrConfig {
            nodes: 16,
            cores_per_node: 2,
            ring_segments: 4,
            input_buffer: 4,
            seed: 5,
            ..SwmrConfig::paper_handshake(2)
        };
        run_point_is_the_plain_synthetic_run::<Swmr>(swmr, 5 ^ 0x51_EE7);
        let mesh = MeshConfig {
            side: 4,
            seed: 3,
            ..MeshConfig::paper_comparable()
        };
        run_point_is_the_plain_synthetic_run::<Mesh>(mesh, 3 ^ 0xACE);
    }
}
