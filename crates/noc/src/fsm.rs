//! The handshake/credit FSMs behind a small step-relation trait, for
//! bounded model checking.
//!
//! The checker (crate `pnoc-verify`) explores the *real* implementation —
//! the same monomorphized [`crate::channel::Channel`] `<A, F>` the network
//! runs, built over the pairing [`crate::with_scheme!`] binds, not a
//! re-modelled abstraction — so a proof over the model is a proof over the
//! simulator. Two things make that tractable:
//!
//! * [`CycleFsm::state_key`] produces a canonical, time-normalized encoding
//!   of the complete dynamic state (every absolute cycle re-based against
//!   `now`), so states that differ only by a time shift deduplicate and the
//!   reachable space of a small configuration closes;
//! * environment nondeterminism is reduced to *injection choices*: each
//!   step, any subset of senders with packets left may enqueue their next
//!   packet. Everything else (arbitration, transmission, handshakes,
//!   recovery) is deterministic given the state — including fault schedules,
//!   which use probability-1.0 processes under a finite fault budget so the
//!   RNG never draws and the schedule is exact rather than sampled.
//!
//! Violations surface as `Err` from [`CycleFsm::step`] (invariant breakage,
//! duplicate delivery) or from the checker's own liveness/completeness
//! analysis on top of [`CycleFsm::drained`] and
//! [`CycleFsm::unaccounted_packets`].

use crate::channel::{Channel, Delivery};
use crate::config::{NetworkConfig, Scheme};
use crate::metrics::NetworkMetrics;
use crate::packet::{Packet, PacketKind};
use crate::schemes::{Arbiter, Flow};
use pnoc_sim::Cycle;
use std::collections::BTreeSet;

/// What one cycle of an FSM produced (for trace rendering and property
/// checks).
#[derive(Debug, Clone, Default)]
pub struct CycleEvents {
    /// Packet ids delivered to the home's cores this cycle.
    pub delivered: Vec<u64>,
    /// Packets abandoned this cycle (retry budget exhausted).
    pub abandoned: u64,
    /// Packets destroyed this cycle by injected faults on a forget-on-send
    /// scheme (no sender copy exists, so the loss is final).
    pub destroyed: u64,
}

/// A cycle-level finite state machine with explicit environment choices —
/// the interface the bounded model checker explores.
pub trait CycleFsm: Clone {
    /// Canonical, time-normalized encoding of the complete dynamic state.
    /// Two states with equal keys have identical futures for identical
    /// choice sequences.
    fn state_key(&self) -> Vec<u64>;

    /// The injection choices available this cycle: every subset of senders
    /// that still have packets to inject (always includes the empty
    /// choice). The checker branches on each.
    fn choices(&self) -> Vec<Vec<usize>>;

    /// Advance one cycle, injecting the next packet of each sender in
    /// `inject`. Fails on an invariant violation or duplicate delivery.
    fn step(&mut self, inject: &[usize]) -> Result<CycleEvents, String>;

    /// Whether all queues, ring slots, buffers and handshakes are empty.
    fn drained(&self) -> bool;

    /// Whether any sender still has packets left to inject.
    fn pending_injections(&self) -> bool;

    /// Once drained with nothing left to inject: packets neither delivered
    /// nor accounted as destroyed/abandoned (must be zero — the
    /// completeness property).
    fn unaccounted_packets(&self) -> u64;
}

/// One MWSR channel (home plus its senders) driven as a closed FSM with a
/// fixed per-sender workload. This is the unit the model checker verifies:
/// network-level behavior is a product of independent channels, so
/// per-channel deadlock-freedom and exactly-once delivery lift to the
/// network.
///
/// Generic over the scheme pairing like [`Channel`] itself: instantiate it
/// inside [`crate::with_scheme!`], which binds the concrete pair.
#[derive(Debug, Clone)]
pub struct ChannelModel<A, F> {
    ch: Channel<A, F>,
    now: Cycle,
    metrics: NetworkMetrics,
    /// Sender node ids that participate (everyone but the home).
    senders: Vec<usize>,
    /// Packets each participating sender still has to inject.
    remaining: Vec<u32>,
    /// Packets each sender was given initially.
    initial: u32,
    /// Ids delivered so far (duplicate detection + state key).
    delivered: BTreeSet<u64>,
    abandoned: u64,
    destroyed: u64,
    home: usize,
    scheme: Scheme,
    scratch: Vec<Delivery>,
}

impl<A: Arbiter, F: Flow> ChannelModel<A, F> {
    /// A model of the channel homed at node 0 of `cfg`, over the
    /// `(arbiter, flow)` pair [`crate::with_scheme!`] bound for `cfg`, in
    /// which each of `active_senders` will inject `packets_each` packets.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration, a pairing that is not the one
    /// `cfg.scheme` selects, or an out-of-range or repeated sender.
    pub fn new(
        cfg: &NetworkConfig,
        arbiter: A,
        flow: F,
        active_senders: &[usize],
        packets_each: u32,
    ) -> Self {
        cfg.validate().expect("invalid model config");
        assert_eq!(
            (std::any::type_name::<A>(), std::any::type_name::<F>()),
            crate::schemes::pairing_names(cfg),
            "pairing disagrees with {:?}",
            cfg.scheme
        );
        let home = 0usize;
        for (i, &s) in active_senders.iter().enumerate() {
            assert!(s < cfg.nodes && s != home, "bad sender {s}");
            // Packet ids are keyed by sender node: a repeated sender would
            // give two packets the same id.
            assert!(!active_senders[..i].contains(&s), "duplicate sender {s}");
        }
        Self {
            ch: Channel::with_pipeline(home, cfg, arbiter, flow),
            now: 0,
            metrics: NetworkMetrics::new(),
            senders: active_senders.to_vec(),
            remaining: vec![packets_each; active_senders.len()],
            initial: packets_each,
            delivered: BTreeSet::new(),
            abandoned: 0,
            destroyed: 0,
            home,
            scheme: cfg.scheme,
            scratch: Vec::new(),
        }
    }

    /// Total packets the workload will inject.
    pub fn total_packets(&self) -> u64 {
        self.senders.len() as u64 * u64::from(self.initial)
    }

    /// Packets delivered so far (distinct ids).
    pub fn delivered_count(&self) -> u64 {
        self.delivered.len() as u64
    }

    /// The channel under the model: for tests that step it directly
    /// instead of through [`CycleFsm::step`], and for the checker's
    /// self-test, which arms [`Channel::disable_duplicate_suppression`].
    pub fn channel_mut(&mut self) -> &mut Channel<A, F> {
        &mut self.ch
    }

    /// Deterministic id for sender index `idx`'s `seq`-th packet: stable
    /// across injection orders, so interleavings that end in the same
    /// configuration produce identical state keys.
    fn packet_id(&self, idx: usize, seq: u32) -> u64 {
        (self.senders[idx] as u64) << 32 | u64::from(seq)
    }

    /// Destroyed-for-good packets implied by the metrics: forget-on-send
    /// schemes lose every faulted flit; handshake schemes retransmit and
    /// lose only what recovery abandons (tracked separately).
    fn fault_destroyed(&self) -> u64 {
        if self.scheme.forgets_on_send() {
            self.metrics.faults_data_lost + self.metrics.faults_data_corrupt
        } else {
            0
        }
    }
}

impl<A: Arbiter + Clone, F: Flow + Clone> CycleFsm for ChannelModel<A, F> {
    fn state_key(&self) -> Vec<u64> {
        let mut key = Vec::with_capacity(96);
        key.extend(self.remaining.iter().map(|&r| u64::from(r)));
        key.push(u64::MAX);
        key.extend(self.delivered.iter().copied());
        key.push(u64::MAX);
        key.push(self.abandoned);
        key.push(self.destroyed);
        self.ch.state_key(self.now, &mut key);
        key
    }

    fn choices(&self) -> Vec<Vec<usize>> {
        // Senders that can still inject; branch on every subset of them.
        let can: Vec<usize> = (0..self.senders.len())
            .filter(|&i| self.remaining[i] > 0)
            .collect();
        let mut out = Vec::with_capacity(1 << can.len());
        for mask in 0u32..(1u32 << can.len()) {
            out.push(
                can.iter()
                    .enumerate()
                    .filter(|&(bit, _)| mask & (1 << bit) != 0)
                    .map(|(_, &i)| i)
                    .collect(),
            );
        }
        out
    }

    fn step(&mut self, inject: &[usize]) -> Result<CycleEvents, String> {
        for &idx in inject {
            if self.remaining[idx] == 0 {
                return Err(format!("sender index {idx} has no packets left"));
            }
            let seq = self.initial - self.remaining[idx];
            let src = self.senders[idx];
            self.ch.enqueue(Packet {
                id: self.packet_id(idx, seq),
                src_core: crate::convert::narrow_u32(src * 2),
                src_node: crate::convert::narrow_u32(src),
                dst_node: crate::convert::narrow_u32(self.home),
                kind: PacketKind::Data,
                generated_at: self.now,
                enqueued_at: self.now,
                sent_at: 0,
                sends: 0,
                measured: false,
                tag: 0,
                class: 0,
            });
            self.remaining[idx] -= 1;
            self.metrics.generated += 1;
        }
        let abandoned_before = self.metrics.abandoned;
        let destroyed_before = self.fault_destroyed();
        self.scratch.clear();
        let now = self.now;
        self.ch.step(now, &mut self.metrics, &mut self.scratch);
        self.now += 1;
        let mut events = CycleEvents::default();
        for d in &self.scratch {
            if !self.delivered.insert(d.pkt.id) {
                return Err(format!("packet {} delivered twice", d.pkt.id));
            }
            events.delivered.push(d.pkt.id);
        }
        events.abandoned = self.metrics.abandoned - abandoned_before;
        events.destroyed = self.fault_destroyed() - destroyed_before;
        self.abandoned += events.abandoned;
        self.destroyed += events.destroyed;
        self.ch
            .try_check_invariants()
            .map_err(|why| format!("cycle {now}: {why}"))?;
        Ok(events)
    }

    fn drained(&self) -> bool {
        self.ch.is_drained()
    }

    fn pending_injections(&self) -> bool {
        self.remaining.iter().any(|&r| r > 0)
    }

    fn unaccounted_packets(&self) -> u64 {
        self.total_packets()
            .saturating_sub(self.delivered_count() + self.abandoned + self.destroyed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheme;

    fn tiny(scheme: Scheme) -> NetworkConfig {
        let mut cfg = NetworkConfig::paper_default(scheme);
        cfg.nodes = 2;
        cfg.cores_per_node = 2;
        cfg.ring_segments = 2;
        cfg.input_buffer = 2;
        cfg.router_latency = 1;
        cfg
    }

    /// Inject as fast as allowed, then run to drain; returns
    /// `(drained, unaccounted, delivered)`.
    fn eager_run<A: Arbiter + Clone, F: Flow + Clone>(
        mut m: ChannelModel<A, F>,
    ) -> (bool, u64, u64) {
        for _ in 0..200 {
            let inject: Vec<usize> = if m.pending_injections() {
                vec![0]
            } else {
                vec![]
            };
            m.step(&inject).expect("step must not violate invariants");
            if m.drained() && !m.pending_injections() {
                break;
            }
        }
        (m.drained(), m.unaccounted_packets(), m.delivered_count())
    }

    #[test]
    fn model_reaches_drain_under_eager_injection() {
        for scheme in Scheme::paper_set(1) {
            let cfg = tiny(scheme);
            let (drained, unaccounted, delivered) = crate::with_scheme!(&cfg, |arbiter, flow| {
                eager_run(ChannelModel::new(&cfg, arbiter, flow, &[1], 2))
            });
            assert!(drained, "{scheme:?} did not drain");
            assert_eq!(unaccounted, 0, "{scheme:?} lost packets");
            assert_eq!(delivered, 2, "{scheme:?}");
        }
    }

    #[test]
    fn state_keys_are_time_shift_invariant() {
        // Two models: one idles 7 cycles before injecting, one injects
        // immediately. After both drain and idle one extra cycle, their
        // dynamic state is identical, so their keys must collide.
        let cfg = tiny(Scheme::Dhs { setaside: 1 });
        let run = |idle: u32| {
            crate::with_scheme!(&cfg, |arbiter, flow| {
                let mut m = ChannelModel::new(&cfg, arbiter, flow, &[1], 1);
                for _ in 0..idle {
                    m.step(&[]).unwrap();
                }
                m.step(&[0]).unwrap();
                while !m.drained() {
                    m.step(&[]).unwrap();
                }
                m.step(&[]).unwrap();
                m.state_key()
            })
        };
        assert_eq!(run(0), run(7), "drained states must dedupe across time");
    }

    fn tiny4() -> NetworkConfig {
        let mut big = tiny(Scheme::TokenSlot);
        big.nodes = 4;
        big.ring_segments = 4;
        big.cores_per_node = 2;
        big
    }

    #[test]
    fn choices_enumerate_injection_subsets() {
        let big = tiny4();
        let choices = |packets_each| {
            crate::with_scheme!(&big, |arbiter, flow| {
                ChannelModel::new(&big, arbiter, flow, &[1, 2, 3], packets_each)
                    .choices()
                    .len()
            })
        };
        assert_eq!(choices(1), 8, "2^3 subsets of 3 ready senders");
        assert_eq!(choices(0), 1, "only the empty choice remains");
    }

    #[test]
    #[should_panic(expected = "duplicate sender 1")]
    fn repeated_senders_are_rejected() {
        // `[1, 1]` would inject two packets with id `1 << 32`.
        let big = tiny4();
        crate::with_scheme!(&big, |arbiter, flow| {
            ChannelModel::new(&big, arbiter, flow, &[1, 1], 1);
        });
    }

    #[test]
    #[should_panic(expected = "pairing disagrees")]
    fn mismatched_pairings_are_rejected() {
        let cfg = tiny(Scheme::Dhs { setaside: 0 });
        let flow = crate::schemes::SlotFlow::default();
        ChannelModel::new(
            &cfg,
            crate::schemes::DistributedArbiter::new(),
            flow,
            &[1],
            1,
        );
    }
}
