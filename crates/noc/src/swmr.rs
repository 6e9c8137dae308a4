//! SWMR (single-writer, multiple-reader) interconnect variant.
//!
//! The paper (§II-B) notes its handshake schemes "can be applied to both MWSR
//! and SWMR" but evaluates MWSR for cost reasons. This module implements the
//! SWMR side of that claim: every node *writes* one dedicated channel that
//! every other node can read, so **no channel arbitration exists at all** —
//! the interesting problem moves entirely into flow control:
//!
//! * [`SwmrFlowControl::PartitionedCredit`] — the classical answer: the
//!   receiver's buffer is statically partitioned, one credit per potential
//!   sender, returned a ring-trip after the buffered flit drains. With `N-1`
//!   potential senders this forces the input buffer to hold at least `N-1`
//!   slots (63 for the paper's network) or senders are permanently locked
//!   out; and an exhausted per-destination credit HOL-blocks the sender's
//!   single output queue.
//! * [`SwmrFlowControl::Handshake`] — GHS-style try-and-NACK: senders
//!   transmit without reservations, receivers ACK or drop+NACK, and a
//!   setaside buffer removes the HOL blocking. Buffers shrink back to the
//!   handful of slots MWSR uses, which is the paper's scalability argument
//!   ("performance … independent of on-chip buffer space") carried over to
//!   SWMR.
//!
//! The model reuses the MWSR building blocks: wave-pipelined [`SlotRing`]
//! channels (one per *source*), [`OutQueue`] send disciplines and calendars
//! for handshake/credit returns. [`SwmrNetwork`] is a [`Fabric`], so the
//! injection pipeline, metrics and warmup/measure/drain driver are the
//! ones the MWSR ring runs; only the [`Swmr`] layer is SWMR-specific.

use crate::calendar::Calendar;
use crate::channel::Delivery;
use crate::fabric::{sealed::Sealed, Fabric, Layer};
use crate::metrics::NetworkMetrics;
use crate::outqueue::{OutQueue, SendMode};
use crate::packet::Packet;
use crate::slots::SlotRing;
use crate::topology::Topology;
use pnoc_sim::Cycle;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Flow control for the SWMR fabric (arbitration-free by construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SwmrFlowControl {
    /// One statically allocated credit per (sender, receiver) pair; the
    /// credit returns a ring trip after the flit leaves the receiver buffer.
    PartitionedCredit,
    /// ACK/NACK handshake with `setaside` slots per sender
    /// (0 = basic hold-the-head).
    Handshake {
        /// Setaside-buffer slots per source queue.
        setaside: usize,
    },
}

impl SwmrFlowControl {
    /// Display label.
    pub fn label(&self) -> String {
        match self {
            SwmrFlowControl::PartitionedCredit => "SWMR credit".into(),
            SwmrFlowControl::Handshake { setaside: 0 } => "SWMR handshake".into(),
            SwmrFlowControl::Handshake { .. } => "SWMR handshake w/ setaside".into(),
        }
    }
}

/// SWMR network configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SwmrConfig {
    /// Nodes (each owns one write channel).
    pub nodes: usize,
    /// Cores per node.
    pub cores_per_node: usize,
    /// Ring segments (= full loop cycles).
    pub ring_segments: usize,
    /// Receiver input-buffer slots.
    pub input_buffer: usize,
    /// Receiver ejection bandwidth, packets/cycle.
    pub ejection_per_cycle: usize,
    /// Electrical router pipeline depth.
    pub router_latency: u64,
    /// Flow control.
    pub flow: SwmrFlowControl,
    /// RNG seed (used by synthetic sources built on top).
    pub seed: u64,
}

impl SwmrConfig {
    /// Paper-scale SWMR with handshake: the 8-slot buffers MWSR uses.
    pub fn paper_handshake(setaside: usize) -> Self {
        Self {
            nodes: 64,
            cores_per_node: 4,
            ring_segments: 8,
            input_buffer: 8,
            ejection_per_cycle: 1,
            router_latency: 2,
            flow: SwmrFlowControl::Handshake { setaside },
            seed: 0x00C0_FFEE,
        }
    }

    /// Paper-scale SWMR with partitioned credits: needs `N − 1` buffer slots
    /// so every sender owns at least one credit.
    pub fn paper_credit() -> Self {
        Self {
            input_buffer: 63,
            flow: SwmrFlowControl::PartitionedCredit,
            ..Self::paper_handshake(0)
        }
    }

    /// Total cores.
    pub fn cores(&self) -> usize {
        self.nodes * self.cores_per_node
    }

    /// Validate structural invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes < 2 {
            return Err("need at least 2 nodes".into());
        }
        if self.ring_segments == 0 || !self.nodes.is_multiple_of(self.ring_segments) {
            return Err("segments must divide nodes".into());
        }
        if self.cores_per_node == 0 || self.input_buffer == 0 || self.ejection_per_cycle == 0 {
            return Err("cores, buffers and ejection bandwidth must be positive".into());
        }
        if self.flow == SwmrFlowControl::PartitionedCredit && self.input_buffer < self.nodes - 1 {
            return Err(format!(
                "partitioned credits need input_buffer ≥ nodes−1 ({} < {})",
                self.input_buffer,
                self.nodes - 1
            ));
        }
        Ok(())
    }
}

/// A credit returning to `sender` for destination `dst`.
#[derive(Debug, Clone, Copy)]
struct CreditReturn {
    dst: usize,
}

/// A handshake in flight back to this channel's sender.
#[derive(Debug, Clone, Copy)]
struct SwmrAck {
    id: u64,
    ok: bool,
}

/// Per-source write channel.
#[derive(Debug)]
struct SwmrChannel {
    queue: OutQueue,
    data: SlotRing<Packet>,
    /// Handshake events heading back to this sender.
    acks: Calendar<SwmrAck>,
    /// Credit returns heading back to this sender.
    credits_in: Calendar<CreditReturn>,
    /// Remaining credits per destination (credit mode only).
    credits: Vec<u32>,
}

/// Per-node receive side.
#[derive(Debug)]
struct SwmrReceiver {
    input_queue: VecDeque<Packet>,
    draining: u32,
    releases: Calendar<Packet>, // carries the packet so credit return knows src/dst
    served_by_sender: Vec<u64>,
}

/// The SWMR network: the [`Swmr`] layer behind the shared [`Fabric`]
/// injection pipeline and run driver.
pub type SwmrNetwork = Fabric<Swmr>;

/// The SWMR [`Layer`]: one write channel per source, one receive side per
/// node.
#[derive(Debug)]
pub struct Swmr {
    cfg: SwmrConfig,
    topo: Topology,
    channels: Vec<SwmrChannel>,
    receivers: Vec<SwmrReceiver>,
}

impl Sealed for Swmr {}

impl Layer for Swmr {
    type Config = SwmrConfig;
    const TRAFFIC_SEED_XOR: u64 = 0x51_EE7;

    fn build(cfg: SwmrConfig) -> Result<Self, String> {
        cfg.validate()?;
        let topo = Topology::new(cfg.nodes, cfg.ring_segments);
        let mode = match cfg.flow {
            SwmrFlowControl::PartitionedCredit => SendMode::Forget,
            SwmrFlowControl::Handshake { setaside: 0 } => SendMode::HoldHead,
            SwmrFlowControl::Handshake { setaside } => SendMode::Setaside(setaside),
        };
        let per_pair_credits = if cfg.flow == SwmrFlowControl::PartitionedCredit {
            crate::convert::narrow_u32((cfg.input_buffer / (cfg.nodes - 1)).max(1))
        } else {
            0
        };
        let channels = (0..cfg.nodes)
            .map(|_| SwmrChannel {
                queue: OutQueue::new(mode),
                data: SlotRing::new(cfg.ring_segments),
                acks: Calendar::new(cfg.ring_segments + 2),
                credits_in: Calendar::new(2 * cfg.ring_segments + 4),
                credits: vec![per_pair_credits; cfg.nodes],
            })
            .collect();
        let receivers = (0..cfg.nodes)
            .map(|_| SwmrReceiver {
                input_queue: VecDeque::new(),
                draining: 0,
                releases: Calendar::new(cfg.router_latency as usize + 2),
                served_by_sender: vec![0; cfg.nodes],
            })
            .collect();
        Ok(Self {
            cfg,
            topo,
            channels,
            receivers,
        })
    }

    fn config(&self) -> &SwmrConfig {
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
        // Injection pipeline exits.
        for mut pkt in inject_cal.drain(now) {
            pkt.enqueued_at = now;
            self.channels[pkt.src_node as usize].queue.push(pkt);
        }

        // 1. Light advances.
        for ch in &mut self.channels {
            ch.data.advance();
        }

        // 2. Receivers inspect every channel's slot at their segment. SWMR
        //    receivers have a detector per channel, so simultaneous arrivals
        //    from different sources are all examined; the buffer check
        //    serializes in channel order.
        let handshake = matches!(self.cfg.flow, SwmrFlowControl::Handshake { .. });
        for dst in 0..self.cfg.nodes {
            let seg = self.topo.segment_of(dst);
            for src in 0..self.cfg.nodes {
                if src == dst {
                    continue;
                }
                let arrived = matches!(
                    self.channels[src].data.at(seg),
                    Some(p) if p.dst_node as usize == dst
                );
                if !arrived {
                    continue;
                }
                metrics.arrivals += 1;
                let rx = &mut self.receivers[dst];
                let has_room =
                    rx.input_queue.len() + (rx.draining as usize) < self.cfg.input_buffer;
                let Some(pkt) = self.channels[src].data.take(seg) else {
                    continue;
                };
                if handshake {
                    let ack_at = pkt.sent_at + self.topo.handshake_delay();
                    let ok = has_room;
                    self.channels[src]
                        .acks
                        .schedule(ack_at, SwmrAck { id: pkt.id, ok });
                    if has_room {
                        rx.input_queue.push_back(pkt);
                    } else {
                        metrics.drops += 1;
                    }
                } else {
                    debug_assert!(has_room, "credit reservation violated");
                    rx.input_queue.push_back(pkt);
                }
            }
        }

        // 3. Handshakes and credit returns reach senders.
        for src in 0..self.cfg.nodes {
            let ch = &mut self.channels[src];
            for ack in ch.acks.drain(now) {
                if ack.ok {
                    let acked = ch.queue.ack(ack.id);
                    debug_assert!(acked.is_some());
                } else {
                    let requeued = ch.queue.nack(ack.id);
                    debug_assert!(requeued);
                    metrics.retransmissions += 1;
                }
            }
            for cr in ch.credits_in.drain(now) {
                ch.credits[cr.dst] += 1;
            }
        }

        // 4. Senders transmit: the single writer needs no arbitration — only
        //    a free slot at its own segment and flow-control permission.
        for src in 0..self.cfg.nodes {
            let seg = self.topo.segment_of(src);
            let ch = &mut self.channels[src];
            if !ch.data.is_free(seg) {
                continue;
            }
            // Grant-then-transmit in one cycle: without arbitration there is
            // no token wait, matching SWMR's "sender decides" model.
            let permitted = match self.cfg.flow {
                SwmrFlowControl::PartitionedCredit => {
                    // The head packet's destination must have a credit;
                    // otherwise the whole source queue HOL-blocks (the cost
                    // of partitioned credits).
                    ch.queue
                        .peek_head()
                        .is_some_and(|p| ch.credits[p.dst_node as usize] > 0)
                }
                SwmrFlowControl::Handshake { .. } => true,
            };
            if permitted && ch.queue.eligible(now, crate::config::FairnessPolicy::None) {
                ch.queue
                    .take_grant(now, crate::config::FairnessPolicy::None);
                if let Some(pkt) = ch.queue.transmit(now) {
                    if pkt.sends == 1 && pkt.measured {
                        metrics.queue_wait.record((now - pkt.enqueued_at) as f64);
                    }
                    metrics.sends += 1;
                    if self.cfg.flow == SwmrFlowControl::PartitionedCredit {
                        ch.credits[pkt.dst_node as usize] -= 1;
                    }
                    ch.data.put(seg, pkt);
                }
            }
        }

        // 5. Receivers drain to their cores; buffer slots release after the
        //    ejection router, and (credit mode) the credit then travels back.
        for dst in 0..self.cfg.nodes {
            let rx = &mut self.receivers[dst];
            for pkt in rx.releases.drain(now) {
                debug_assert!(rx.draining > 0);
                rx.draining -= 1;
                if self.cfg.flow == SwmrFlowControl::PartitionedCredit {
                    let src = pkt.src_node as usize;
                    // The credit signal travels the remaining ring arc back
                    // to the sender (one full trip minus the data leg, +1).
                    let back = self.topo.segments as u64 + 1 - self.topo.data_delay(src, dst);
                    self.channels[src]
                        .credits_in
                        .schedule(now + back.max(1), CreditReturn { dst });
                }
            }
            for _ in 0..self.cfg.ejection_per_cycle {
                let Some(pkt) = rx.input_queue.pop_front() else {
                    break;
                };
                let available_at = now + self.cfg.router_latency;
                if self.cfg.router_latency == 0 {
                    if self.cfg.flow == SwmrFlowControl::PartitionedCredit {
                        let src = pkt.src_node as usize;
                        let back = self.topo.segments as u64 + 1 - self.topo.data_delay(src, dst);
                        self.channels[src]
                            .credits_in
                            .schedule(now + back.max(1), CreditReturn { dst });
                    }
                } else {
                    rx.draining += 1;
                    rx.releases.schedule(available_at, pkt);
                }
                if pkt.measured {
                    rx.served_by_sender[pkt.src_node as usize] += 1;
                }
                metrics.record_delivery(pkt, available_at, deliveries);
            }
        }
    }

    /// Credits still travelling back to their senders count: a sender
    /// missing one is locked out of that destination until it lands.
    fn is_drained(&self) -> bool {
        self.channels.iter().all(|c| {
            c.queue.is_idle()
                && c.data.is_empty()
                && c.acks.pending() == 0
                && c.credits_in.pending() == 0
        }) && self
            .receivers
            .iter()
            .all(|r| r.input_queue.is_empty() && r.draining == 0)
    }

    fn drain_grace(&self) -> u64 {
        4 * self.cfg.ring_segments as u64 + 64
    }

    fn service_counts(&self) -> Vec<&[u64]> {
        self.receivers
            .iter()
            .map(|r| r.served_by_sender.as_slice())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketKind;
    use crate::sources::SyntheticSource;
    use pnoc_sim::RunPlan;
    use pnoc_traffic::pattern::TrafficPattern;

    fn small(flow: SwmrFlowControl) -> SwmrConfig {
        let buffer = if flow == SwmrFlowControl::PartitionedCredit {
            15
        } else {
            4
        };
        SwmrConfig {
            nodes: 16,
            cores_per_node: 2,
            ring_segments: 4,
            input_buffer: buffer,
            ejection_per_cycle: 1,
            router_latency: 2,
            flow,
            seed: 5,
        }
    }

    #[test]
    fn validates_credit_buffer_requirement() {
        let mut cfg = small(SwmrFlowControl::PartitionedCredit);
        cfg.input_buffer = 8; // < nodes-1
        assert!(cfg.validate().is_err());
        assert!(SwmrConfig::paper_credit().validate().is_ok());
        assert!(SwmrConfig::paper_handshake(4).validate().is_ok());
    }

    #[test]
    fn single_packet_delivery_both_flows() {
        for flow in [
            SwmrFlowControl::PartitionedCredit,
            SwmrFlowControl::Handshake { setaside: 0 },
            SwmrFlowControl::Handshake { setaside: 2 },
        ] {
            let mut net = SwmrNetwork::new(small(flow)).unwrap();
            net.inject(2, 7, PacketKind::Data, 9, true);
            let mut delivered = None;
            for _ in 0..64 {
                net.step();
                if let Some(d) = net.deliveries().first() {
                    delivered = Some(*d);
                    break;
                }
            }
            let d = delivered.unwrap_or_else(|| panic!("{flow:?} failed to deliver"));
            assert_eq!(d.pkt.dst_node, 7);
            assert_eq!(d.pkt.tag, 9);
            assert!(net.is_drained() || net.metrics().delivered == 1);
        }
    }

    #[test]
    fn no_arbitration_means_low_zero_load_latency() {
        // SWMR has no token wait: zero-load latency ≈ router 2 + flight (≤4)
        // + eject 2 — lower than the MWSR token ring's.
        let mut net = SwmrNetwork::new(small(SwmrFlowControl::Handshake { setaside: 2 })).unwrap();
        let mut src = SyntheticSource::new(TrafficPattern::UniformRandom, 0.01, 16, 2, 3);
        let s = net.run_open_loop(&mut src, RunPlan::new(500, 2_000, 500));
        assert!(
            s.avg_latency < 9.0,
            "SWMR zero-load latency should be small, got {}",
            s.avg_latency
        );
    }

    #[test]
    fn conservation_under_load_both_flows() {
        for flow in [
            SwmrFlowControl::PartitionedCredit,
            SwmrFlowControl::Handshake { setaside: 2 },
        ] {
            let cfg = small(flow);
            let mut net = SwmrNetwork::new(cfg).unwrap();
            let mut src = SyntheticSource::new(
                TrafficPattern::UniformRandom,
                0.05,
                cfg.nodes,
                cfg.cores_per_node,
                11,
            );
            net.run_open_loop(&mut src, RunPlan::new(500, 3_000, 500));
            let mut guard = 100_000;
            while !net.is_drained() && guard > 0 {
                net.step();
                guard -= 1;
            }
            assert!(net.is_drained(), "{flow:?} failed to drain");
            assert_eq!(
                net.metrics().generated,
                net.metrics().delivered,
                "{flow:?} lost packets"
            );
        }
    }

    #[test]
    fn credit_mode_never_drops_handshake_may() {
        let cfg = small(SwmrFlowControl::PartitionedCredit);
        let mut net = SwmrNetwork::new(cfg).unwrap();
        let mut src = SyntheticSource::new(TrafficPattern::UniformRandom, 0.08, 16, 2, 13);
        net.run_open_loop(&mut src, RunPlan::new(500, 4_000, 500));
        assert_eq!(net.metrics().drops, 0);
    }

    #[test]
    fn handshake_beats_partitioned_credit_at_load() {
        // Same offered load; handshake with an 8× smaller buffer should still
        // deliver lower latency because per-pair credits HOL-block sources.
        let run = |flow| {
            let cfg = small(flow);
            let mut net = SwmrNetwork::new(cfg).unwrap();
            let mut src = SyntheticSource::new(
                TrafficPattern::UniformRandom,
                0.10,
                cfg.nodes,
                cfg.cores_per_node,
                21,
            );
            net.run_open_loop(&mut src, RunPlan::new(1_000, 6_000, 1_000))
        };
        let credit = run(SwmrFlowControl::PartitionedCredit);
        let hs = run(SwmrFlowControl::Handshake { setaside: 4 });
        assert!(
            hs.avg_latency <= credit.avg_latency + 1.0,
            "handshake {} should not lose to credit {}",
            hs.avg_latency,
            credit.avg_latency
        );
    }

    #[test]
    fn source_queue_serializes_same_source_traffic() {
        // One source sending to many destinations shares a single channel:
        // at most one flit per cycle leaves the source.
        let mut net = SwmrNetwork::new(small(SwmrFlowControl::Handshake { setaside: 4 })).unwrap();
        for i in 0..8 {
            net.inject(0, 1 + (i % 4), PacketKind::Data, i as u64, true);
        }
        let mut seen = 0;
        for _ in 0..200 {
            net.step();
            seen += net.deliveries().len();
        }
        assert_eq!(seen, 8);
        assert_eq!(net.metrics().sends, 8);
    }

    #[test]
    fn drained_means_every_credit_is_home() {
        // The last credit returns a ring trip after its flit leaves the
        // receiver; a network that reports drained before then would let a
        // follow-on run start with that sender locked out.
        let cfg = SwmrConfig::paper_credit();
        let mut net = SwmrNetwork::new(cfg).unwrap();
        net.inject(0, 5, PacketKind::Data, 0, true);
        let mut guard = 1_000;
        while !net.is_drained() {
            net.step();
            guard -= 1;
            assert!(guard > 0, "one packet must drain");
        }
        assert_eq!(net.metrics().delivered, 1);
        let in_flight: usize = net
            .layer
            .channels
            .iter()
            .map(|c| c.credits_in.pending())
            .sum();
        assert_eq!(in_flight, 0, "drained with a credit in flight");
        assert_eq!(
            net.layer.channels[0].credits[5], 1,
            "credit for node 5 not home"
        );
    }

    #[test]
    fn deterministic() {
        let run = || {
            let cfg = small(SwmrFlowControl::Handshake { setaside: 2 });
            let mut net = SwmrNetwork::new(cfg).unwrap();
            let mut src = SyntheticSource::new(TrafficPattern::Tornado, 0.05, 16, 2, 77);
            net.run_open_loop(&mut src, RunPlan::new(500, 2_000, 500))
                .avg_latency
                .to_bits()
        };
        assert_eq!(run(), run());
    }
}
