//! Differential smoke tests: the oracle and `pnoc-noc` must agree on a
//! deterministic slice of the fuzz-case space, plus hand-pinned cases per
//! scheme family.

use pnoc_faults::FaultConfig;
use pnoc_noc::config::FairnessPolicy;
use pnoc_noc::{AdmissionPolicy, Scheme};
use pnoc_oracle::{check_case, generate_case, shrink, FuzzCase};
use pnoc_traffic::{classes::TenantMixKind, TrafficPattern};

#[test]
fn generator_is_deterministic() {
    for index in 0..20 {
        assert_eq!(generate_case(5, index), generate_case(5, index));
    }
    assert_ne!(generate_case(5, 0), generate_case(6, 0));
    assert_ne!(generate_case(5, 0), generate_case(5, 7));
}

#[test]
fn generated_cases_cover_all_schemes_without_divergence() {
    let mut labels: Vec<String> = Vec::new();
    let mut faulty = 0;
    let mut clean = 0;
    for index in 0..28 {
        let case = generate_case(0xC0FFEE, index);
        let label = case.scheme.label();
        if !labels.contains(&label) {
            labels.push(label);
        }
        if case.faults.enabled() {
            faulty += 1;
        } else {
            clean += 1;
        }
        assert_eq!(check_case(&case), None, "case {index} diverged: {case:?}");
    }
    assert_eq!(labels.len(), 7, "all paper schemes sampled: {labels:?}");
    assert!(faulty >= 10 && clean >= 10, "both fault regimes sampled");
}

/// A hand-written fault-free case for `scheme` on a small ring.
fn pinned(scheme: Scheme) -> FuzzCase {
    FuzzCase {
        scheme,
        nodes: 8,
        segments: 4,
        cores_per_node: 2,
        input_buffer: 2,
        ejection_per_cycle: 1,
        router_latency: 2,
        fairness: FairnessPolicy::None,
        pattern: TrafficPattern::Tornado,
        rate: 0.15,
        warmup: 30,
        measure: 150,
        drain: 40,
        seed: 0x0DDB_A115,
        faults: FaultConfig::none(),
        admission: AdmissionPolicy::None,
        mix: TenantMixKind::SingleClass,
        sabotage: false,
    }
}

#[test]
fn pinned_token_channel_agrees() {
    assert_eq!(check_case(&pinned(Scheme::TokenChannel)), None);
}

#[test]
fn pinned_token_slot_agrees() {
    assert_eq!(check_case(&pinned(Scheme::TokenSlot)), None);
}

#[test]
fn pinned_handshake_agrees() {
    assert_eq!(check_case(&pinned(Scheme::Ghs { setaside: 0 })), None);
    assert_eq!(check_case(&pinned(Scheme::Ghs { setaside: 2 })), None);
    assert_eq!(check_case(&pinned(Scheme::Dhs { setaside: 0 })), None);
    assert_eq!(check_case(&pinned(Scheme::Dhs { setaside: 2 })), None);
}

#[test]
fn pinned_circulation_agrees() {
    // Circulation needs pressure to actually circulate: tiny buffer, hot load.
    let mut case = pinned(Scheme::DhsCirculation);
    case.input_buffer = 1;
    case.rate = 0.4;
    assert_eq!(check_case(&case), None);
}

#[test]
fn pinned_faulty_handshake_with_recovery_agrees() {
    let mut case = pinned(Scheme::Dhs { setaside: 2 });
    case.faults = FaultConfig {
        data_loss: 0.002,
        data_corrupt: 0.002,
        ack_loss: 0.01,
        token_loss: 0.0005,
        ..FaultConfig::none()
    };
    // with_faults arms timeout/retransmit recovery for handshake schemes.
    assert!(case.config().recovery.enabled);
    assert_eq!(check_case(&case), None);
}

#[test]
fn pinned_faulty_token_channel_agrees() {
    let mut case = pinned(Scheme::TokenChannel);
    case.faults = FaultConfig {
        data_loss: 0.002,
        data_corrupt: 0.002,
        token_loss: 0.001,
        stall_start: 0.001,
        stall_cycles: 4,
        ..FaultConfig::none()
    };
    assert_eq!(check_case(&case), None);
}

#[test]
fn shrink_returns_nondivergent_case_unchanged() {
    let case = generate_case(0xC0FFEE, 3);
    assert_eq!(check_case(&case), None, "precondition: case agrees");
    assert_eq!(shrink(&case), case);
}

#[test]
fn reproducer_rendering_is_pasteable() {
    let case = generate_case(0xC0FFEE, 1);
    let lit = case.to_rust_literal();
    assert!(lit.contains("#[test]"));
    assert!(lit.contains("let case = FuzzCase {"));
    assert!(lit.contains("pnoc_oracle::check_case(&case)"));
    // f64 fields round-trip through {:?} formatting.
    assert!(lit.contains(&format!("rate: {:?},", case.rate)));
}
