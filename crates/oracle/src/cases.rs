//! Seeded fuzz-case generation, greedy shrinking, and reproducer printing.
//!
//! [`generate_case`] deterministically maps `(master seed, case index)` to
//! one sampled configuration — scheme, topology, traffic, rate, fairness,
//! run plan, fault schedule. Indices round-robin the seven paper schemes
//! and alternate fault-free / faulty, so any contiguous index range covers
//! the whole matrix. [`shrink`] greedily minimizes a divergent case while
//! it keeps diverging; [`FuzzCase::to_rust_literal`] renders the result as
//! a ready-to-paste regression test.

use crate::diff::check_case;
use pnoc_faults::{FaultConfig, RecoveryConfig};
use pnoc_noc::config::{AdmissionPolicy, FairnessPolicy};
use pnoc_noc::{NetworkConfig, Scheme};
use pnoc_sim::rng::{stream_seed, SimRng, FUZZ_STREAM};
use pnoc_traffic::{TenantMixKind, TrafficPattern, MAX_CLASSES};
use std::fmt::Write as _;

/// `(nodes, ring segments)` pairs the generator samples from, smallest
/// first (all power-of-two node counts, so bit-complement is always valid).
/// Doubles as the shrinker's descent ladder.
pub const TOPOLOGY_LADDER: &[(usize, usize)] = &[(4, 2), (8, 2), (8, 4), (16, 4), (16, 8), (32, 8)];

/// One differential test case: everything needed to run both simulators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FuzzCase {
    /// Arbitration/flow-control scheme under test.
    pub scheme: Scheme,
    /// Node count.
    pub nodes: usize,
    /// Ring segments.
    pub segments: usize,
    /// Cores per node.
    pub cores_per_node: usize,
    /// Home input-buffer depth.
    pub input_buffer: usize,
    /// Ejections per cycle.
    pub ejection_per_cycle: usize,
    /// Injection/ejection router pipeline depth.
    pub router_latency: u64,
    /// Arbitration fairness policy.
    pub fairness: FairnessPolicy,
    /// Per-class admission control.
    pub admission: AdmissionPolicy,
    /// Tenant mix: how the offered load is split into traffic classes.
    pub mix: TenantMixKind,
    /// Traffic pattern (the mix's majority pattern).
    pub pattern: TrafficPattern,
    /// Offered load, packets/cycle/core.
    pub rate: f64,
    /// Warmup cycles (unmeasured injection).
    pub warmup: u64,
    /// Measured injection cycles.
    pub measure: u64,
    /// Post-injection cycles before the drain grace period.
    pub drain: u64,
    /// Master seed for the run (traffic and faults derive from it).
    pub seed: u64,
    /// Fault schedule (all-zero = fault-free).
    pub faults: FaultConfig,
    /// Plant the duplicate-delivery bug in `pnoc-noc` only
    /// ([`pnoc_noc::Network::disable_duplicate_suppression`]).
    pub sabotage: bool,
}

impl FuzzCase {
    /// The network configuration this case runs under. Faults are applied
    /// through [`NetworkConfig::with_faults`] so handshake schemes arm
    /// timeout/retransmit recovery exactly as production runs do.
    pub fn config(&self) -> NetworkConfig {
        let base = NetworkConfig {
            nodes: self.nodes,
            cores_per_node: self.cores_per_node,
            ring_segments: self.segments,
            input_buffer: self.input_buffer,
            ejection_per_cycle: self.ejection_per_cycle,
            router_latency: self.router_latency,
            scheme: self.scheme,
            fairness: self.fairness,
            admission: self.admission,
            seed: self.seed,
            faults: FaultConfig::none(),
            recovery: RecoveryConfig::disabled(),
        };
        if self.faults.enabled() {
            base.with_faults(self.faults)
        } else {
            base
        }
    }

    /// Render as a ready-to-paste regression test.
    pub fn to_rust_literal(&self) -> String {
        let scheme = match self.scheme {
            Scheme::TokenChannel => "Scheme::TokenChannel".to_string(),
            Scheme::TokenSlot => "Scheme::TokenSlot".to_string(),
            Scheme::Ghs { setaside } => format!("Scheme::Ghs {{ setaside: {setaside} }}"),
            Scheme::Dhs { setaside } => format!("Scheme::Dhs {{ setaside: {setaside} }}"),
            Scheme::DhsCirculation => "Scheme::DhsCirculation".to_string(),
        };
        let fairness = match self.fairness {
            FairnessPolicy::None => "FairnessPolicy::None".to_string(),
            FairnessPolicy::SitOut {
                serve_quota,
                sit_out,
            } => format!(
                "FairnessPolicy::SitOut {{ serve_quota: {serve_quota}, sit_out: {sit_out} }}"
            ),
        };
        let pattern = match self.pattern {
            TrafficPattern::UniformRandom => "TrafficPattern::UniformRandom".to_string(),
            TrafficPattern::BitComplement => "TrafficPattern::BitComplement".to_string(),
            TrafficPattern::Tornado => "TrafficPattern::Tornado".to_string(),
            TrafficPattern::Transpose => "TrafficPattern::Transpose".to_string(),
            TrafficPattern::BitReversal => "TrafficPattern::BitReversal".to_string(),
            TrafficPattern::Hotspot { target, fraction } => {
                format!("TrafficPattern::Hotspot {{ target: {target}, fraction: {fraction:?} }}")
            }
            TrafficPattern::NearestNeighbor => "TrafficPattern::NearestNeighbor".to_string(),
        };
        let admission = match self.admission {
            AdmissionPolicy::None => "AdmissionPolicy::None".to_string(),
            AdmissionPolicy::TokenBucket {
                period,
                refill,
                burst,
            } => format!(
                "AdmissionPolicy::TokenBucket {{ period: {period}, refill: {refill:?}, \
                 burst: {burst:?} }}"
            ),
        };
        let f = &self.faults;
        let mut s = String::new();
        let _ = writeln!(s, "#[test]");
        let _ = writeln!(s, "fn fuzz_regression() {{");
        let _ = writeln!(s, "    let case = FuzzCase {{");
        let _ = writeln!(s, "        scheme: {scheme},");
        let _ = writeln!(s, "        nodes: {},", self.nodes);
        let _ = writeln!(s, "        segments: {},", self.segments);
        let _ = writeln!(s, "        cores_per_node: {},", self.cores_per_node);
        let _ = writeln!(s, "        input_buffer: {},", self.input_buffer);
        let _ = writeln!(
            s,
            "        ejection_per_cycle: {},",
            self.ejection_per_cycle
        );
        let _ = writeln!(s, "        router_latency: {},", self.router_latency);
        let _ = writeln!(s, "        fairness: {fairness},");
        let _ = writeln!(s, "        admission: {admission},");
        let _ = writeln!(s, "        mix: TenantMixKind::{:?},", self.mix);
        let _ = writeln!(s, "        pattern: {pattern},");
        let _ = writeln!(s, "        rate: {:?},", self.rate);
        let _ = writeln!(s, "        warmup: {},", self.warmup);
        let _ = writeln!(s, "        measure: {},", self.measure);
        let _ = writeln!(s, "        drain: {},", self.drain);
        let _ = writeln!(s, "        seed: {:#x},", self.seed);
        let _ = writeln!(s, "        faults: FaultConfig {{");
        let _ = writeln!(s, "            data_loss: {:?},", f.data_loss);
        let _ = writeln!(s, "            data_corrupt: {:?},", f.data_corrupt);
        let _ = writeln!(s, "            ack_loss: {:?},", f.ack_loss);
        let _ = writeln!(s, "            token_loss: {:?},", f.token_loss);
        let _ = writeln!(s, "            stall_start: {:?},", f.stall_start);
        let _ = writeln!(s, "            stall_cycles: {},", f.stall_cycles);
        let _ = writeln!(s, "            max_data_faults: {},", f.max_data_faults);
        let _ = writeln!(s, "            max_ack_faults: {},", f.max_ack_faults);
        let _ = writeln!(s, "        }},");
        let _ = writeln!(s, "        sabotage: {},", self.sabotage);
        let _ = writeln!(s, "    }};");
        let _ = writeln!(s, "    assert_eq!(pnoc_oracle::check_case(&case), None);");
        let _ = writeln!(s, "}}");
        s
    }
}

/// Deterministically sample case `index` under `master`.
pub fn generate_case(master: u64, index: u64) -> FuzzCase {
    let mut root = SimRng::seed_from(stream_seed(master, FUZZ_STREAM));
    let mut rng = root.fork(index);

    let setaside = [1, 2, 4][rng.index(3)];
    let schemes = Scheme::paper_set(setaside);
    let scheme = schemes[(index % 7) as usize];
    let (nodes, segments) = TOPOLOGY_LADDER[rng.index(TOPOLOGY_LADDER.len())];
    let cores_per_node = [1, 2][rng.index(2)];
    let input_buffer = [1, 2, 4, 8][rng.index(4)];
    let ejection_per_cycle = [1, 2][rng.index(2)];
    let router_latency = rng.below(3);
    let fairness = if rng.chance(0.7) {
        FairnessPolicy::None
    } else {
        FairnessPolicy::SitOut {
            serve_quota: 1 + u32::try_from(rng.below(4)).expect("small"),
            sit_out: 4 + u32::try_from(rng.below(28)).expect("small"),
        }
    };
    // Admission and tenant mixes ride on ~1 case in 3. Buckets are sampled
    // generous (short periods, refill >= 1) so fuzz runs still drain inside
    // the grace window; admission shapes *when* grants happen, not whether.
    let mix = if rng.chance(0.65) {
        TenantMixKind::SingleClass
    } else {
        TenantMixKind::all()[1 + rng.index(3)]
    };
    let admission = if rng.chance(0.65) {
        AdmissionPolicy::None
    } else {
        let mut refill = [0u8; MAX_CLASSES];
        let mut burst = [0u8; MAX_CLASSES];
        for c in 0..MAX_CLASSES {
            refill[c] = 1 + u8::try_from(rng.below(4)).expect("small");
            burst[c] = refill[c] + u8::try_from(rng.below(8)).expect("small");
        }
        AdmissionPolicy::TokenBucket {
            period: 1 + u32::try_from(rng.below(8)).expect("small"),
            refill,
            burst,
        }
    };
    let pattern = [
        TrafficPattern::UniformRandom,
        TrafficPattern::BitComplement,
        TrafficPattern::Tornado,
    ][rng.index(3)];
    // Rationed grants drain slower: keep classed/admitted cases lighter.
    let rate_cap = if admission.enabled() || mix != TenantMixKind::SingleClass {
        0.3
    } else {
        0.5
    };
    let rate = 0.01 + rng.f64() * rate_cap;
    let warmup = 10 + rng.below(40);
    let measure = 50 + rng.below(200);
    let drain = 20 + rng.below(60);
    let seed = rng.next_u64();

    // Odd indices get a fault schedule; even indices run clean. Rates stay
    // small so most packets survive and the run still exercises the happy
    // path alongside every fault hook.
    let faults = if index % 2 == 1 {
        FaultConfig {
            data_loss: rng.f64() * 2e-3,
            data_corrupt: rng.f64() * 2e-3,
            ack_loss: rng.f64() * 5e-3,
            token_loss: rng.f64() * 2e-4,
            stall_start: if rng.chance(0.5) {
                rng.f64() * 1e-3
            } else {
                0.0
            },
            stall_cycles: 1 + rng.below(7),
            max_data_faults: if rng.chance(0.5) {
                u64::MAX
            } else {
                1 + rng.below(20)
            },
            max_ack_faults: if rng.chance(0.5) {
                u64::MAX
            } else {
                1 + rng.below(20)
            },
        }
    } else {
        FaultConfig::none()
    };

    FuzzCase {
        scheme,
        nodes,
        segments,
        cores_per_node,
        input_buffer,
        ejection_per_cycle,
        router_latency,
        fairness,
        admission,
        mix,
        pattern,
        rate,
        warmup,
        measure,
        drain,
        seed,
        faults,
        sabotage: false,
    }
}

/// Candidate one-step simplifications of `case`, most aggressive first.
/// Every candidate is valid by construction (the ladder keeps segment
/// divisibility; buffer/ejection floors stay ≥ 1).
fn candidates(case: &FuzzCase) -> Vec<FuzzCase> {
    let mut out = Vec::new();
    let mut push = |c: FuzzCase| {
        if c != *case {
            out.push(c);
        }
    };

    // Drop fault dimensions one at a time.
    for dim in 0..5 {
        let mut c = *case;
        match dim {
            0 => c.faults.data_loss = 0.0,
            1 => c.faults.data_corrupt = 0.0,
            2 => c.faults.ack_loss = 0.0,
            3 => c.faults.token_loss = 0.0,
            _ => c.faults.stall_start = 0.0,
        }
        push(c);
    }
    // Drop the QoS dimensions.
    let mut c = *case;
    c.admission = AdmissionPolicy::None;
    push(c);
    let mut c = *case;
    c.mix = TenantMixKind::SingleClass;
    push(c);
    // Shorter run, lighter load.
    let mut c = *case;
    c.measure = (case.measure / 2).max(1);
    push(c);
    let mut c = *case;
    c.warmup /= 2;
    push(c);
    let mut c = *case;
    c.drain /= 2;
    push(c);
    let mut c = *case;
    c.rate = (case.rate / 2.0).max(0.005);
    push(c);
    // Smaller machine.
    if let Some(pos) = TOPOLOGY_LADDER
        .iter()
        .position(|&t| t == (case.nodes, case.segments))
    {
        if pos > 0 {
            let mut c = *case;
            let (n, s) = TOPOLOGY_LADDER[pos - 1];
            c.nodes = n;
            c.segments = s;
            push(c);
        }
    }
    let mut c = *case;
    c.cores_per_node = 1;
    push(c);
    let mut c = *case;
    c.fairness = FairnessPolicy::None;
    push(c);
    let mut c = *case;
    c.router_latency = case.router_latency.saturating_sub(1);
    push(c);
    let mut c = *case;
    c.ejection_per_cycle = 1;
    push(c);
    let mut c = *case;
    c.input_buffer = (case.input_buffer / 2).max(1);
    push(c);
    out
}

/// Greedily shrink a divergent case: repeatedly accept any one-step
/// simplification that still diverges, until none does (or an evaluation
/// budget of 200 re-runs is spent). Returns the minimized case — `case`
/// itself if it never diverged in the first place.
pub fn shrink(case: &FuzzCase) -> FuzzCase {
    let mut best = *case;
    let mut evals = 0;
    'outer: while evals < 200 {
        for cand in candidates(&best) {
            evals += 1;
            if evals > 200 {
                break 'outer;
            }
            if check_case(&cand).is_some() {
                best = cand;
                continue 'outer;
            }
        }
        break;
    }
    best
}
