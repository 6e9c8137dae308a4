//! Property tests for the packed predicate bit-planes: every word-scan
//! operation is checked against a naive `Vec<bool>` model, and the
//! [`pnoc_noc::schemes::Planes`] mirrors are checked against their scalar
//! queue predicates across randomized operation sequences — the same
//! "planes are exact, never approximations" contract the runtime
//! invariant auditor samples, here explored over arbitrary histories.

use pnoc_noc::config::FairnessPolicy;
use pnoc_noc::outqueue::{OutQueue, SendMode};
use pnoc_noc::packet::{Packet, PacketKind};
use pnoc_noc::schemes::{BitPlane, Planes};
use proptest::prelude::*;

fn pkt(id: u64) -> Packet {
    Packet {
        id,
        src_core: 0,
        src_node: 1,
        dst_node: 0,
        kind: PacketKind::Data,
        generated_at: 0,
        enqueued_at: 0,
        sent_at: 0,
        sends: 0,
        measured: false,
        tag: 0,
        class: 0,
    }
}

/// First set index of the model within `[lo, hi)`.
fn model_first_in(model: &[bool], lo: usize, hi: usize) -> Option<usize> {
    (lo..hi.min(model.len())).find(|&d| model[d])
}

proptest! {
    /// Set/clear/get/count/first-set agree with a `Vec<bool>` model after
    /// any operation sequence, across word-boundary sizes.
    #[test]
    fn bitplane_matches_bool_model(
        len in 1usize..200,
        ops in proptest::collection::vec((0u8..2, 0usize..200, 0usize..201, 0usize..201), 1..300),
    ) {
        let mut plane = BitPlane::new(len);
        let mut model = vec![false; len];
        for (op, d, lo, hi) in ops {
            let d = d % len;
            match op {
                0 => {
                    plane.set(d, true);
                    model[d] = true;
                }
                _ => {
                    plane.set(d, false);
                    model[d] = false;
                }
            }
            // Point probes and aggregates after every mutation.
            prop_assert_eq!(plane.get(d), model[d]);
            prop_assert_eq!(plane.count(), model.iter().filter(|&&b| b).count());
            prop_assert_eq!(plane.any(), model.iter().any(|&b| b));
            // Windowed first-set with an arbitrary (possibly empty) window.
            let (lo, hi) = (lo % (len + 1), hi % (len + 1));
            prop_assert_eq!(
                plane.first_in(lo, hi),
                model_first_in(&model, lo, hi),
                "first_in([{}, {})) diverged", lo, hi
            );
        }
        // Full ascending scan at the end.
        let scanned: Vec<usize> = plane.iter().collect();
        let expected: Vec<usize> =
            (0..len).filter(|&d| model[d]).collect();
        prop_assert_eq!(scanned, expected, "iter() order or content diverged");
        plane.clear();
        prop_assert!(!plane.any());
        prop_assert_eq!(plane.iter().count(), 0);
    }

    /// The intersection iterator equals the model intersection, ascending.
    #[test]
    fn bitplane_intersection_matches_model(
        len in 1usize..200,
        a_bits in proptest::collection::vec(0usize..200, 0..64),
        b_bits in proptest::collection::vec(0usize..200, 0..64),
    ) {
        let mut a = BitPlane::new(len);
        let mut b = BitPlane::new(len);
        let mut ma = vec![false; len];
        let mut mb = vec![false; len];
        for d in a_bits {
            a.set(d % len, true);
            ma[d % len] = true;
        }
        for d in b_bits {
            b.set(d % len, true);
            mb[d % len] = true;
        }
        let got: Vec<usize> = a.iter_and(&b).collect();
        let expected: Vec<usize> =
            (0..len).filter(|&d| ma[d] && mb[d]).collect();
        prop_assert_eq!(got, expected);
    }

    /// After any randomized queue history (push / grant / transmit / ack /
    /// nack) with a refresh after each mutation — the call discipline the
    /// channel phases follow — every plane bit equals its scalar predicate
    /// for every distance. This is the exactness contract the arbiter
    /// word-scans rely on: a missing bit would silently skip an eligible
    /// sender and change arbitration.
    #[test]
    fn planes_mirror_scalar_predicates_after_random_phases(
        mode_sel in 0usize..3,
        setaside in 1usize..5,
        queues in 1usize..8,
        ops in proptest::collection::vec((0usize..8, 0u8..4), 1..250),
    ) {
        let mode = match mode_sel {
            0 => SendMode::HoldHead,
            1 => SendMode::Setaside(setaside),
            _ => SendMode::Forget,
        };
        let mut senders: Vec<OutQueue<Packet>> =
            (0..queues).map(|_| OutQueue::new(mode)).collect();
        let mut planes = Planes::new(queues);
        let mut inflight: Vec<Vec<u64>> = vec![Vec::new(); queues];
        let mut next_id = 0u64;
        let mut now = 0u64;

        for (d, op) in ops {
            now += 1;
            let d = d % queues;
            let q = &mut senders[d];
            match op {
                0 => {
                    q.push(pkt(next_id));
                    next_id += 1;
                }
                1 => {
                    if q.eligible(now, FairnessPolicy::None) {
                        q.take_grant(now, FairnessPolicy::None);
                        let sent = q.transmit(now).expect("grant implies transmit");
                        if mode != SendMode::Forget {
                            inflight[d].push(sent.id);
                        }
                    }
                }
                2 => {
                    if let Some(&id) = inflight[d].first() {
                        prop_assert!(q.ack(id).is_some());
                        inflight[d].remove(0);
                    }
                }
                _ => {
                    if let Some(&id) = inflight[d].first() {
                        prop_assert!(q.nack(id));
                        inflight[d].remove(0);
                    }
                }
            }
            planes.refresh(d, &senders[d]);
            // Every plane bit mirrors its scalar predicate, at every
            // distance — not just the one touched.
            for (i, q) in senders.iter().enumerate() {
                prop_assert_eq!(planes.sendable.get(i), q.sendable() > 0, "sendable[{}]", i);
                prop_assert_eq!(planes.granted.get(i), q.granted() > 0, "granted[{}]", i);
            }
        }
    }
}
