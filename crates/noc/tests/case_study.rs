//! The paper's motivating case study (§II-D, Figs. 2(a) and 4).
//!
//! Two senders S1 and S2 want to reach home node D. S1 is closer and greedy:
//! it exhausts all credits in the token-channel token. S2 must then wait for
//! the token to travel home, get reimbursed, and come around again (17 cycles
//! in the paper's 8-cycle ring) — whereas under handshake the token carries
//! no credits, so S2 waits only for the token relay (8 cycles in Fig. 4).

use pnoc_noc::channel::Channel;
use pnoc_noc::metrics::NetworkMetrics;
use pnoc_noc::packet::{Packet, PacketKind};
use pnoc_noc::schemes::{Arbiter, Flow};
use pnoc_noc::{with_scheme, ChannelModel, NetworkConfig, Scheme};

fn pkt(id: u64, src: usize) -> Packet {
    Packet {
        id,
        src_core: (src * 4) as u32,
        src_node: src as u32,
        dst_node: 0,
        kind: PacketKind::Data,
        generated_at: 0,
        enqueued_at: 0,
        sent_at: 0,
        sends: 0,
        measured: true,
        tag: 0,
        class: 0,
    }
}

/// S1 (node 8, distance 7 from home) queues `s1_backlog` packets and S2
/// (node 24, distance 23, downstream of S1) one; cycle channel 0 until S2's
/// packet is delivered and return the cycle it was sent.
fn s2_send_cycle<A: Arbiter, F: Flow>(
    ch: &mut Channel<A, F>,
    s1_backlog: u64,
    horizon: u64,
) -> Option<u64> {
    let mut m = NetworkMetrics::new();
    let mut deliveries = Vec::new();
    for i in 0..s1_backlog {
        ch.enqueue(pkt(i, 8));
    }
    ch.enqueue(pkt(100, 24));
    for now in 0..horizon {
        ch.step(now, &mut m, &mut deliveries);
        if let Some(d) = deliveries.iter().find(|d| d.pkt.id == 100) {
            return Some(d.pkt.sent_at);
        }
    }
    None
}

/// [`s2_send_cycle`] on channel 0 of `cfg`, over the pairing its scheme
/// selects.
fn s2_wait(cfg: &NetworkConfig, s1_backlog: u64, horizon: u64) -> u64 {
    with_scheme!(cfg, |arbiter, flow| {
        let mut model = ChannelModel::new(cfg, arbiter, flow, &[], 0);
        s2_send_cycle(model.channel_mut(), s1_backlog, horizon)
    })
    .unwrap_or_else(|| panic!("{:?}: S2 never transmitted", cfg.scheme))
}

/// Run one paper-default channel until S2's first transmission; return that
/// cycle. S1 floods (more than the 8 credits the token carries).
fn s2_first_send(scheme: Scheme) -> u64 {
    s2_wait(&NetworkConfig::paper_default(scheme), 12, 400) // 64 nodes, R=8, B=8
}

#[test]
fn greedy_neighbor_delays_s2_far_more_under_token_channel() {
    let tc = s2_first_send(Scheme::TokenChannel);
    let ghs = s2_first_send(Scheme::Ghs { setaside: 8 });
    // Token channel: S1 drains the token's credits; S2 waits through a
    // reimbursement round trip. GHS: the token is credit-less, so S2 gets it
    // as soon as S1's burst ends — substantially sooner.
    assert!(
        tc >= ghs + 6,
        "token channel should delay S2 by ~a round trip more (TC {tc} vs GHS {ghs})"
    );
    // Sanity: GHS's wait is in the ballpark of a burst + token relay, not a
    // multi-round-trip stall.
    assert!(ghs <= 20, "GHS S2 wait should be short, got {ghs}");
}

#[test]
fn dhs_serves_s2_even_sooner_than_ghs() {
    // Distributed tokens arrive every cycle, so S2 need not wait for S1 to
    // finish its burst at all.
    let ghs = s2_first_send(Scheme::Ghs { setaside: 8 });
    let dhs = s2_first_send(Scheme::Dhs { setaside: 8 });
    assert!(
        dhs <= ghs,
        "DHS should serve S2 at least as fast as GHS ({dhs} vs {ghs})"
    );
}

#[test]
fn s2_wait_is_credit_independent_under_handshake() {
    // The §II-D problem scales with credits for token channel but not for
    // handshake schemes.
    let wait_with = |scheme: Scheme, credits: usize, s1_backlog: u64| {
        let mut cfg = NetworkConfig::paper_default(scheme);
        cfg.input_buffer = credits;
        s2_wait(&cfg, s1_backlog, 600)
    };
    // Token channel: S1's greedy burst is capped by the credit count, so
    // more credits = a longer monopoly before S2's turn (S1 backlog tracks
    // the allowance so a single full burst happens).
    let tc4 = wait_with(Scheme::TokenChannel, 4, 4);
    let tc16 = wait_with(Scheme::TokenChannel, 16, 16);
    assert!(
        tc16 > tc4,
        "bigger credit burst delays S2 more ({tc16} vs {tc4})"
    );
    // DHS with a *fixed* S1 backlog: varying the buffer/credit count alone
    // must not move S2's wait at all — tokens carry no credit information.
    let d4 = wait_with(Scheme::Dhs { setaside: 8 }, 4, 8);
    let d16 = wait_with(Scheme::Dhs { setaside: 8 }, 16, 8);
    assert_eq!(
        d4, d16,
        "handshake S2 wait must be credit-independent ({d16} vs {d4})"
    );
}
