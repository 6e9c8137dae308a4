//! Property: setaside buffers never reorder packets of the same
//! source–destination flow, pinned against **both** simulators.
//!
//! Among packets delivered on their first transmission (`sends == 1`),
//! per-flow delivery order must follow injection order (packet ids are
//! assigned in injection order). Retransmitted packets may legitimately
//! leapfrog — a NACKed head goes back while younger setaside residents get
//! ACKed — so they are excluded from the strict check; when nothing was
//! retransmitted at all, the check covers every delivery.

use pnoc_faults::FaultConfig;
use pnoc_noc::config::FairnessPolicy;
use pnoc_noc::{AdmissionPolicy, Packet, Scheme};
use pnoc_oracle::{run_pair, FuzzCase, RunArtifacts};
use pnoc_sim::Cycle;
use pnoc_traffic::{classes::TenantMixKind, TrafficPattern};
use proptest::prelude::*;

/// Assert first-send deliveries of each `(src_node, dst_node)` flow appear
/// in increasing id order.
fn assert_per_flow_fifo(
    tag: &str,
    log: &[(Packet, Cycle)],
    strict_all: bool,
) -> Result<(), TestCaseError> {
    let mut last: Vec<((u32, u32), u64)> = Vec::new();
    for (pkt, _) in log {
        if !strict_all && pkt.sends != 1 {
            continue;
        }
        let key = (pkt.src_node, pkt.dst_node);
        match last.iter_mut().find(|(k, _)| *k == key) {
            Some((_, prev)) => {
                prop_assert!(
                    pkt.id > *prev,
                    "{tag}: flow {key:?} delivered id {} after id {prev}",
                    pkt.id
                );
                *prev = pkt.id;
            }
            None => last.push((key, pkt.id)),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn setaside_never_reorders_a_flow(
        setaside in 1usize..5,
        distributed in any::<bool>(),
        topo in 0usize..4,
        input_buffer in 1usize..5,
        rate_milli in 30u64..400,
        seed in any::<u64>(),
        faulty in any::<bool>(),
    ) {
        let (nodes, segments) = [(4, 2), (8, 2), (8, 4), (16, 4)][topo];
        let scheme = if distributed {
            Scheme::Dhs { setaside }
        } else {
            Scheme::Ghs { setaside }
        };
        let faults = if faulty {
            // ACK loss forces timeout retransmissions through the setaside
            // path; light data loss adds NACK-free holes.
            FaultConfig {
                ack_loss: 0.01,
                data_loss: 0.0005,
                ..FaultConfig::none()
            }
        } else {
            FaultConfig::none()
        };
        let case = FuzzCase {
            scheme,
            nodes,
            segments,
            cores_per_node: 1,
            input_buffer,
            ejection_per_cycle: 1,
            router_latency: 1,
            fairness: FairnessPolicy::None,
            pattern: TrafficPattern::UniformRandom,
            rate: rate_milli as f64 / 1000.0,
            warmup: 10,
            measure: 120,
            drain: 30,
            seed,
            faults,
            admission: AdmissionPolicy::None,
            mix: TenantMixKind::SingleClass,
            sabotage: false,
        };
        let (noc, oracle) = run_pair(&case).expect("case is valid");

        // The FIFO property must hold of each simulator independently.
        for (tag, art) in [("noc", &noc), ("oracle", &oracle)] {
            let c = &art.counters;
            let strict_all = c.retransmissions == 0
                && c.timeout_retransmissions == 0
                && c.drops == 0
                && c.circulations == 0;
            assert_per_flow_fifo(tag, &art.log, strict_all)?;
        }

        // And the two runs must be observably identical (differential pin).
        fn observables(a: &RunArtifacts) -> (pnoc_oracle::Counters, &[(Packet, Cycle)], bool) {
            (a.counters, &a.log, a.drained)
        }
        prop_assert_eq!(observables(&noc), observables(&oracle));
    }
}
