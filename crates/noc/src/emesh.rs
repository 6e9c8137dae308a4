//! Electrical 2D-mesh baseline — the substrate the paper argues *against*.
//!
//! §II-C: "In electrical NOC with hop-by-hop transmission, credit-based flow
//! control is preferred since the most recent credit information is instantly
//! available due to the short communication delay between neighbors. […] The
//! short transmission delay between neighbors helps reduce the buffer
//! requirement." This module implements that classical design so the claim is
//! measurable: a k×k input-buffered mesh with XY dimension-order routing,
//! per-link credit flow control (credit wire = 1 cycle), 2-stage routers and
//! 1-cycle links.
//!
//! Two things the mesh demonstrates next to the optical ring:
//!
//! 1. credits work *well* here — a handful of buffer slots per port covers
//!    the 3-cycle credit loop, unlike the ring's `R + 2`-cycle loop,
//! 2. the price is hop-by-hop latency: ~3 cycles per hop on a 64-node mesh
//!    versus the ring's 1–8 cycle single photonic hop — the bandwidth/latency
//!    motivation of every nanophotonic `NoC` paper.
//!
//! [`MeshNetwork`] is a [`Fabric`]: the injection pipeline, metrics and
//! warmup/measure/drain driver are the ones the rings run; only the
//! [`Mesh`] layer (routers, links, credit wires) is mesh-specific.

use crate::calendar::Calendar;
use crate::channel::Delivery;
use crate::fabric::{sealed::Sealed, Fabric, Layer};
use crate::metrics::NetworkMetrics;
use crate::packet::Packet;
use pnoc_sim::Cycle;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Router port indices.
const NORTH: usize = 0;
const EAST: usize = 1;
const SOUTH: usize = 2;
const WEST: usize = 3;
const LOCAL: usize = 4;
const PORTS: usize = 5;

/// Electrical mesh configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MeshConfig {
    /// Mesh side: the network has `side × side` nodes.
    pub side: usize,
    /// Cores per node.
    pub cores_per_node: usize,
    /// Input-buffer flits per router port.
    pub input_buffer: usize,
    /// Router pipeline depth (RC+SA, ST — as the paper's electrical router).
    pub router_latency: u64,
    /// Link traversal, cycles.
    pub link_latency: u64,
    /// RNG seed for sources built on top.
    pub seed: u64,
}

impl MeshConfig {
    /// A 64-node (8×8) mesh comparable to the paper's 64-node ring, with
    /// 4 flits per port — enough to cover the 3-cycle electrical credit loop.
    pub fn paper_comparable() -> Self {
        Self {
            side: 8,
            cores_per_node: 4,
            input_buffer: 4,
            router_latency: 2,
            link_latency: 1,
            seed: 0xE1EC,
        }
    }

    /// Node count.
    pub fn nodes(&self) -> usize {
        self.side * self.side
    }

    /// Total cores.
    pub fn cores(&self) -> usize {
        self.nodes() * self.cores_per_node
    }

    /// Per-hop forwarding latency (router pipeline + link).
    pub fn hop_latency(&self) -> u64 {
        self.router_latency + self.link_latency
    }

    /// Validate structural invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.side < 2 {
            return Err("mesh needs at least a 2×2 side".into());
        }
        if self.cores_per_node == 0 || self.input_buffer == 0 {
            return Err("cores and buffers must be positive".into());
        }
        Ok(())
    }
}

/// One input-buffered router.
#[derive(Debug)]
struct Router {
    /// Input FIFOs by arrival port (LOCAL is the unbounded injection queue).
    inputs: [VecDeque<Packet>; PORTS],
    /// Credits available toward the neighbor behind each output direction.
    credits: [u32; 4],
    /// Round-robin arbitration pointer per output port.
    rr: [usize; PORTS],
}

/// A flit in flight toward (router, input port).
#[derive(Debug, Clone, Copy)]
struct LinkArrival {
    router: usize,
    port: usize,
    pkt: Packet,
}

/// A credit returning to (router, output direction).
#[derive(Debug, Clone, Copy)]
struct CreditArrival {
    router: usize,
    dir: usize,
}

/// The electrical mesh network: the [`Mesh`] layer behind the shared
/// [`Fabric`] injection pipeline and run driver, so it is driven exactly
/// like the optical rings.
pub type MeshNetwork = Fabric<Mesh>;

/// The mesh [`Layer`]: input-buffered routers, links and credit wires.
#[derive(Debug)]
pub struct Mesh {
    cfg: MeshConfig,
    routers: Vec<Router>,
    link_cal: Calendar<LinkArrival>,
    credit_cal: Calendar<CreditArrival>,
}

impl Mesh {
    fn xy(&self, node: usize) -> (usize, usize) {
        (node % self.cfg.side, node / self.cfg.side)
    }

    /// XY dimension-order routing: move along X first, then Y.
    fn route(&self, at: usize, dst: usize) -> usize {
        let (x, y) = self.xy(at);
        let (dx, dy) = self.xy(dst);
        if x < dx {
            EAST
        } else if x > dx {
            WEST
        } else if y < dy {
            SOUTH
        } else if y > dy {
            NORTH
        } else {
            LOCAL
        }
    }

    fn neighbor(&self, node: usize, dir: usize) -> usize {
        let (x, y) = self.xy(node);
        match dir {
            NORTH => node - self.cfg.side,
            SOUTH => node + self.cfg.side,
            EAST => node + 1,
            WEST => node - 1,
            _ => unreachable!("no neighbor behind the local port: ({x},{y})"),
        }
    }

    /// The input port of the neighbor that a flit sent out of `dir` lands on.
    fn opposite(dir: usize) -> usize {
        match dir {
            NORTH => SOUTH,
            SOUTH => NORTH,
            EAST => WEST,
            WEST => EAST,
            _ => unreachable!(),
        }
    }
}

impl Sealed for Mesh {}

impl Layer for Mesh {
    type Config = MeshConfig;

    fn build(cfg: MeshConfig) -> Result<Self, String> {
        cfg.validate()?;
        let routers = (0..cfg.nodes())
            .map(|_| Router {
                inputs: Default::default(),
                credits: [crate::convert::narrow_u32(cfg.input_buffer); 4],
                rr: [0; PORTS],
            })
            .collect();
        let horizon = (cfg.hop_latency() + 2) as usize;
        Ok(Self {
            cfg,
            routers,
            link_cal: Calendar::new(horizon),
            credit_cal: Calendar::new(4),
        })
    }

    fn config(&self) -> &MeshConfig {
        &self.cfg
    }

    fn nodes(&self) -> usize {
        self.cfg.nodes()
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
        // Arrivals land in downstream input buffers (space was reserved by
        // the credit taken at grant time).
        for a in self.link_cal.drain(now) {
            debug_assert!(
                self.routers[a.router].inputs[a.port].len() < self.cfg.input_buffer,
                "credit reservation violated"
            );
            self.routers[a.router].inputs[a.port].push_back(a.pkt);
        }
        // Credits return to upstream routers.
        for c in self.credit_cal.drain(now) {
            self.routers[c.router].credits[c.dir] += 1;
            debug_assert!(self.routers[c.router].credits[c.dir] as usize <= self.cfg.input_buffer);
        }
        // Injection-pipeline exits join the local input queue (unbounded).
        for mut pkt in inject_cal.drain(now) {
            pkt.enqueued_at = now;
            self.routers[pkt.src_node as usize].inputs[LOCAL].push_back(pkt);
        }

        // Switch allocation: per router, per output port, one winner per
        // cycle chosen round-robin among the inputs whose head wants it.
        for r in 0..self.routers.len() {
            // Each input port feeds the crossbar at most once per cycle.
            let mut input_used = [false; PORTS];
            for out in 0..PORTS {
                // Output readiness.
                if out != LOCAL && self.routers[r].credits[out] == 0 {
                    continue;
                }
                // Find a requesting input, round-robin from rr[out].
                let start = self.routers[r].rr[out];
                let mut winner = None;
                for k in 0..PORTS {
                    let p = (start + k) % PORTS;
                    if input_used[p] {
                        continue;
                    }
                    if let Some(head) = self.routers[r].inputs[p].front() {
                        if self.route(r, head.dst_node as usize) == out {
                            winner = Some(p);
                            break;
                        }
                    }
                }
                let Some(p) = winner else { continue };
                let Some(mut pkt) = self.routers[r].inputs[p].pop_front() else {
                    continue;
                };
                input_used[p] = true;
                self.routers[r].rr[out] = (p + 1) % PORTS;
                if pkt.sends == 0 && pkt.measured {
                    metrics.queue_wait.record((now - pkt.enqueued_at) as f64);
                }
                pkt.sends += 1;
                pkt.sent_at = now;
                metrics.sends += 1;
                // Freeing a non-local input slot returns a credit upstream.
                if p != LOCAL {
                    let upstream = self.neighbor(r, p);
                    self.credit_cal.schedule(
                        now + 1,
                        CreditArrival {
                            router: upstream,
                            dir: Self::opposite(p),
                        },
                    );
                }
                if out == LOCAL {
                    // Ejection: hand to the local cores.
                    let available_at = now + self.cfg.router_latency;
                    metrics.arrivals += 1;
                    metrics.delivered += 1;
                    if pkt.measured {
                        metrics.delivered_measured += 1;
                        metrics
                            .record_latency_class(pkt.class, pkt.latency_at(available_at) as f64);
                    }
                    deliveries.push(Delivery { pkt, available_at });
                } else {
                    // Forward: consume a credit, traverse pipeline + link.
                    self.routers[r].credits[out] -= 1;
                    let next = self.neighbor(r, out);
                    self.link_cal.schedule(
                        now + self.cfg.hop_latency(),
                        LinkArrival {
                            router: next,
                            port: Self::opposite(out),
                            pkt,
                        },
                    );
                }
            }
        }
    }

    /// Credits still on their wire count: the upstream router cannot use
    /// that buffer slot until the credit lands.
    fn is_drained(&self) -> bool {
        self.link_cal.pending() == 0
            && self.credit_cal.pending() == 0
            && self
                .routers
                .iter()
                .all(|r| r.inputs.iter().all(VecDeque::is_empty))
    }

    fn drain_grace(&self) -> u64 {
        16 * self.cfg.side as u64 * self.cfg.hop_latency() + 64
    }

    /// The mesh keeps no per-receiver sender counts.
    fn service_counts(&self) -> Vec<&[u64]> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketKind;
    use crate::sources::SyntheticSource;
    use pnoc_sim::RunPlan;
    use pnoc_traffic::pattern::TrafficPattern;

    fn cfg() -> MeshConfig {
        MeshConfig {
            side: 4,
            cores_per_node: 2,
            input_buffer: 4,
            router_latency: 2,
            link_latency: 1,
            seed: 3,
        }
    }

    #[test]
    fn xy_routing_reaches_every_pair() {
        let net = MeshNetwork::new(cfg()).unwrap();
        for src in 0..16 {
            for dst in 0..16 {
                if src == dst {
                    continue;
                }
                // Walk the route; it must reach dst in ≤ 2(side-1) hops.
                let mut at = src;
                let mut hops = 0;
                while at != dst {
                    let dir = net.layer.route(at, dst);
                    assert_ne!(dir, LOCAL);
                    at = net.layer.neighbor(at, dir);
                    hops += 1;
                    assert!(hops <= 6, "route too long {src}->{dst}");
                }
            }
        }
    }

    #[test]
    fn single_packet_latency_tracks_hops() {
        // 0 → 3 is 3 hops east on a 4×4 mesh: inject 2 + 4 hop-grants with
        // 3-cycle forwards + eject 2 ≈ hop_latency × hops + constants.
        let mut net = MeshNetwork::new(cfg()).unwrap();
        net.inject(0, 3, PacketKind::Data, 0, true);
        let mut got = None;
        for _ in 0..80 {
            net.step();
            if let Some(d) = net.deliveries().first() {
                got = Some(*d);
                break;
            }
        }
        let d = got.expect("delivered");
        let lat = d.pkt.latency_at(d.available_at);
        assert!(
            (12..=20).contains(&lat),
            "3-hop latency should be ~15 cycles, got {lat}"
        );
        // A 1-hop packet must be faster.
        let mut net = MeshNetwork::new(cfg()).unwrap();
        net.inject(0, 1, PacketKind::Data, 0, true);
        let mut got = None;
        for _ in 0..80 {
            net.step();
            if let Some(d) = net.deliveries().first() {
                got = Some(*d);
                break;
            }
        }
        let near = got.expect("delivered");
        assert!(near.pkt.latency_at(near.available_at) < lat);
    }

    #[test]
    fn conservation_under_uniform_load() {
        let c = cfg();
        let mut net = MeshNetwork::new(c).unwrap();
        let mut src = SyntheticSource::new(
            TrafficPattern::UniformRandom,
            0.05,
            c.nodes(),
            c.cores_per_node,
            9,
        );
        net.run_open_loop(&mut src, RunPlan::new(500, 3_000, 500));
        let mut guard = 100_000;
        while !net.is_drained() && guard > 0 {
            net.step();
            guard -= 1;
        }
        assert!(net.is_drained());
        assert_eq!(net.metrics().generated, net.metrics().delivered);
        assert_eq!(net.metrics().drops, 0, "credit mesh never drops");
    }

    #[test]
    fn small_buffers_suffice_on_short_links() {
        // §II-C's point: the electrical credit loop is ~3 cycles, so 2-flit
        // buffers already perform close to 8-flit ones at moderate load.
        let run = |buffer| {
            let mut c = cfg();
            c.side = 8;
            c.input_buffer = buffer;
            let mut net = MeshNetwork::new(c).unwrap();
            let mut src = SyntheticSource::new(
                TrafficPattern::UniformRandom,
                0.04,
                c.nodes(),
                c.cores_per_node,
                5,
            );
            net.run_open_loop(&mut src, RunPlan::new(1_000, 5_000, 1_000))
        };
        let tiny = run(2);
        let big = run(8);
        assert!(!tiny.saturated && !big.saturated);
        assert!(
            (tiny.avg_latency - big.avg_latency).abs() < 0.15 * big.avg_latency,
            "2-flit buffers should be within 15% of 8-flit ({} vs {})",
            tiny.avg_latency,
            big.avg_latency
        );
    }

    #[test]
    fn mesh_zero_load_latency_exceeds_optical_ring() {
        // The motivation comparison: hop-by-hop electrical vs one-hop optical
        // at 64 nodes, near zero load.
        let mut mc = MeshConfig::paper_comparable();
        mc.seed = 7;
        let mut mesh = MeshNetwork::new(mc).unwrap();
        let mut src = SyntheticSource::new(
            TrafficPattern::UniformRandom,
            0.01,
            mc.nodes(),
            mc.cores_per_node,
            7,
        );
        let mesh_summary = mesh.run_open_loop(&mut src, RunPlan::new(1_000, 4_000, 1_000));

        let rc =
            crate::config::NetworkConfig::paper_default(crate::config::Scheme::Dhs { setaside: 8 });
        let ring_summary = crate::network::run_synthetic_point(
            rc,
            TrafficPattern::UniformRandom,
            0.01,
            RunPlan::new(1_000, 4_000, 1_000),
        );
        assert!(
            mesh_summary.avg_latency > 1.5 * ring_summary.avg_latency,
            "optical one-hop should be clearly faster at zero load ({} vs {})",
            mesh_summary.avg_latency,
            ring_summary.avg_latency
        );
    }

    #[test]
    fn drained_means_every_credit_is_home() {
        // Each hop frees an upstream buffer slot and returns its credit a
        // cycle later; the last one is still on the wire when the flit is
        // ejected.
        let c = MeshConfig::paper_comparable();
        let mut net = MeshNetwork::new(c).unwrap();
        net.inject(0, 63, PacketKind::Data, 0, true);
        let mut guard = 1_000;
        while !net.is_drained() {
            net.step();
            guard -= 1;
            assert!(guard > 0, "one packet must drain");
        }
        assert_eq!(net.metrics().delivered, 1);
        assert_eq!(
            net.layer.credit_cal.pending(),
            0,
            "drained with a credit in flight"
        );
        let full = crate::convert::narrow_u32(c.input_buffer);
        assert!(
            net.layer.routers.iter().all(|r| r.credits == [full; 4]),
            "a router is missing a credit"
        );
    }

    #[test]
    fn deterministic() {
        let run = || {
            let c = cfg();
            let mut net = MeshNetwork::new(c).unwrap();
            let mut src = SyntheticSource::new(
                TrafficPattern::Tornado,
                0.05,
                c.nodes(),
                c.cores_per_node,
                77,
            );
            net.run_open_loop(&mut src, RunPlan::new(500, 2_000, 500))
                .avg_latency
                .to_bits()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn validates_config() {
        let mut c = cfg();
        c.side = 1;
        assert!(MeshNetwork::new(c).is_err());
        let mut c = cfg();
        c.input_buffer = 0;
        assert!(MeshNetwork::new(c).is_err());
    }
}
