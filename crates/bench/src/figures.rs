//! The computations behind every figure/table harness.
//!
//! Each `figN` function returns structured data; the `figure` binary prints
//! it and the integration tests assert the paper's qualitative claims on it.

use pnoc_cmp::{workload::all_paper_workloads, CmpConfig, CmpSystem, IpcSummary};
use pnoc_noc::fabric::Layer;
use pnoc_noc::metrics::RunSummary;
use pnoc_noc::{emesh::Mesh, network::Mwsr, swmr::Swmr};
use pnoc_noc::{
    AdmissionPolicy, Fabric, MeshConfig, Network, NetworkConfig, Scheme, SwmrConfig, MAX_CLASSES,
};
use pnoc_photonics::{ComponentBudget, NetworkDims};
use pnoc_power::{ActivityProfile, PowerBreakdown, PowerReport};
use pnoc_sim::RunPlan;
use pnoc_trace::{generate_app, replay_run, StreamingTraceReader, DEFAULT_CHUNK_EVENTS};
use pnoc_traffic::classes::TenantMixKind;
use std::sync::Arc;

use crate::fleet;
use pnoc_traffic::apps::all_paper_apps;
use pnoc_traffic::pattern::TrafficPattern;
use serde::Serialize;

/// Setaside size the paper's "w/ Setaside" curves use (sized like the
/// per-destination buffer/credit count of 8).
pub const PAPER_SETASIDE: usize = 8;

/// Fidelity of a harness run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fidelity {
    /// Short windows, thinned grids (CI smoke).
    Quick,
    /// The full experiment.
    #[default]
    Full,
}

impl Fidelity {
    /// The measurement plan for this fidelity.
    pub fn plan(self) -> RunPlan {
        match self {
            Fidelity::Quick => crate::grids::quick_plan(),
            Fidelity::Full => crate::grids::full_plan(),
        }
    }

    /// Possibly thin a rate grid.
    pub fn rates(self, grid: Vec<f64>) -> Vec<f64> {
        match self {
            Fidelity::Quick => crate::grids::thin(&grid),
            Fidelity::Full => grid,
        }
    }
}

/// One latency-vs-load curve.
#[derive(Debug, Clone, Serialize)]
pub struct Curve {
    /// Legend label.
    pub label: String,
    /// `(offered rate, run summary)` per grid point.
    pub points: Vec<(f64, RunSummary)>,
}

impl Curve {
    /// Latency values with saturated points rendered as `+∞`.
    pub fn latencies(&self) -> Vec<f64> {
        self.points
            .iter()
            .map(|(_, s)| {
                if s.saturated {
                    f64::INFINITY
                } else {
                    s.avg_latency
                }
            })
            .collect()
    }

    /// Highest offered rate this curve sustains without saturating.
    pub fn saturation_rate(&self) -> f64 {
        self.points
            .iter()
            .filter(|(_, s)| !s.saturated)
            .map(|(r, _)| *r)
            .fold(0.0, f64::max)
    }
}

/// One curve per `(label, param)`, one point per `x`: `run(param, x)`
/// simulates a point. The whole grid goes to the shared fleet as one batch
/// and comes back in curve order; every job is a pure function of its
/// inputs, so how curves are batched never changes a result. `run` runs on
/// fleet worker threads, hence the `Send + 'static` bounds.
fn sweep_curves<P: Clone + Send + Sync + 'static>(
    curves: Vec<(String, P)>,
    xs: &[f64],
    run: impl Fn(&P, f64) -> RunSummary + Send + Sync + 'static,
) -> Vec<Curve> {
    let jobs: Vec<(P, f64)> = curves
        .iter()
        .flat_map(|(_, p)| xs.iter().map(move |&x| (p.clone(), x)))
        .collect();
    let mut summaries = fleet().map(jobs, move |_, (p, x)| run(p, *x)).into_iter();
    curves
        .into_iter()
        .map(|(label, _)| Curve {
            label,
            points: xs
                .iter()
                .copied()
                .zip(summaries.by_ref().take(xs.len()))
                .collect(),
        })
        .collect()
}

/// One single-class latency-vs-load curve per `(label, config)` of fabric
/// `L` under `pattern`, one [`Fabric::run_point`] per rate.
fn load_curves<L: Layer>(
    configs: Vec<(String, L::Config)>,
    pattern: TrafficPattern,
    rates: &[f64],
    plan: RunPlan,
) -> Vec<Curve>
where
    L::Config: Send + Sync + 'static,
{
    sweep_curves(configs, rates, move |&cfg, rate| {
        Fabric::<L>::run_point(cfg, TenantMixKind::SingleClass, pattern, rate, plan).summary
    })
}

/// Sweep `schemes × rates` under `pattern` on the paper network, one
/// simulation per point.
pub fn latency_curves(
    schemes: &[(String, Scheme)],
    pattern: TrafficPattern,
    rates: &[f64],
    plan: RunPlan,
) -> Vec<Curve> {
    let configs = schemes
        .iter()
        .map(|(label, scheme)| (label.clone(), NetworkConfig::paper_default(*scheme)))
        .collect();
    load_curves::<Mwsr>(configs, pattern, rates, plan)
}

// ---------------------------------------------------------------------------
// Fig. 2(b): token slot with different credit counts, UR.
// ---------------------------------------------------------------------------

/// Fig. 2(b): one curve per credit count ∈ {4, 8, 16, 32} — the Token Slot
/// row of the Fig. 11 credit study.
pub fn fig2b(fid: Fidelity) -> Vec<Curve> {
    credit_curves(Scheme::TokenSlot, fid)
}

// ---------------------------------------------------------------------------
// Figs. 8 and 9: scheme comparisons per traffic pattern.
// ---------------------------------------------------------------------------

/// The global-arbitration group of Fig. 8.
pub fn global_group() -> Vec<(String, Scheme)> {
    vec![
        ("Token Channel".into(), Scheme::TokenChannel),
        ("GHS".into(), Scheme::Ghs { setaside: 0 }),
        (
            "GHS w/ Setaside".into(),
            Scheme::Ghs {
                setaside: PAPER_SETASIDE,
            },
        ),
    ]
}

/// The distributed-arbitration group of Fig. 9.
pub fn distributed_group() -> Vec<(String, Scheme)> {
    vec![
        ("Token Slot".into(), Scheme::TokenSlot),
        ("DHS".into(), Scheme::Dhs { setaside: 0 }),
        (
            "DHS w/ Setaside".into(),
            Scheme::Dhs {
                setaside: PAPER_SETASIDE,
            },
        ),
        ("DHS w/ Circulation".into(), Scheme::DhsCirculation),
    ]
}

/// The three paper patterns with their figure-specific rate grids.
fn pattern_grids(fid: Fidelity) -> Vec<(TrafficPattern, Vec<f64>)> {
    vec![
        (
            TrafficPattern::UniformRandom,
            fid.rates(crate::grids::ur_rates()),
        ),
        (
            TrafficPattern::BitComplement,
            fid.rates(crate::grids::bc_rates()),
        ),
        (
            TrafficPattern::Tornado,
            fid.rates(crate::grids::tor_rates()),
        ),
    ]
}

/// Fig. 8: `(pattern label, curves)` for the global group.
pub fn fig8(fid: Fidelity) -> Vec<(String, Vec<Curve>)> {
    pattern_grids(fid)
        .into_iter()
        .map(|(p, rates)| {
            let curves = latency_curves(&global_group(), p, &rates, fid.plan());
            (p.label().to_string(), curves)
        })
        .collect()
}

/// Fig. 9: `(pattern label, curves)` for the distributed group.
pub fn fig9(fid: Fidelity) -> Vec<(String, Vec<Curve>)> {
    pattern_grids(fid)
        .into_iter()
        .map(|(p, rates)| {
            let curves = latency_curves(&distributed_group(), p, &rates, fid.plan());
            (p.label().to_string(), curves)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fairness vs load: multi-tenant mixes with and without admission control.
// ---------------------------------------------------------------------------

/// All seven paper schemes — the fairness study spans both arbitration
/// families.
pub fn fairness_group() -> Vec<(String, Scheme)> {
    let mut g = global_group();
    g.extend(distributed_group());
    g
}

/// The admission policy the fairness figures arm: a tight-but-live token
/// bucket (every class refills ≥ 1 per period, so the starvation audit's
/// liveness precondition holds by construction).
pub fn fairness_admission() -> AdmissionPolicy {
    AdmissionPolicy::TokenBucket {
        period: 4,
        refill: [1; MAX_CLASSES],
        burst: [2; MAX_CLASSES],
    }
}

/// The multi-tenant mixes the fairness figures sweep (everything except
/// the degenerate single-class mix, which is the pre-QoS baseline the
/// latency figures already cover).
pub fn fairness_mixes() -> Vec<TenantMixKind> {
    vec![
        TenantMixKind::ElephantMice,
        TenantMixKind::BurstyAdversary,
        TenantMixKind::HotspotTenant,
    ]
}

/// Fairness vs load: for each tenant mix, one baseline (no admission) and
/// one QoS (token-bucket admission) curve per scheme over the UR rate
/// grid. The interesting columns of each point's [`RunSummary`] are
/// `class_jain` (per-class Jain fairness over delivered counts) and
/// `class_summaries` (per-class p99).
pub fn fairness_vs_load(fid: Fidelity) -> Vec<(String, Vec<Curve>)> {
    let rates = fid.rates(crate::grids::ur_rates());
    let schemes = fairness_group();
    let mixes = fairness_mixes();
    let plan = fid.plan();
    // Mix-major, then scheme, then baseline before QoS.
    let params: Vec<(String, (TenantMixKind, Scheme, bool))> = mixes
        .iter()
        .flat_map(|&mix| {
            schemes.iter().flat_map(move |(label, scheme)| {
                [
                    (label.clone(), (mix, *scheme, false)),
                    (format!("{label} +QoS"), (mix, *scheme, true)),
                ]
            })
        })
        .collect();
    let curves = sweep_curves(params, &rates, move |&(mix, scheme, qos), rate| {
        let mut cfg = NetworkConfig::paper_default(scheme);
        if qos {
            cfg.admission = fairness_admission();
        }
        Network::run_point(cfg, mix, TrafficPattern::UniformRandom, rate, plan).summary
    });
    let mut curves = curves.into_iter();
    mixes
        .iter()
        .map(|mix| {
            let per_mix = curves.by_ref().take(2 * schemes.len()).collect();
            (mix.label().to_string(), per_mix)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 10: application traces.
// ---------------------------------------------------------------------------

/// Per-application average latency for one scheme group.
#[derive(Debug, Clone, Serialize)]
pub struct TraceResult {
    /// Application name.
    pub app: String,
    /// `(scheme label, average latency)` in group order.
    pub latencies: Vec<(String, f64)>,
}

/// Fig. 10: replay the 13 synthesized application traces through both scheme
/// groups. Returns `(global group results, distributed group results)`.
pub fn fig10(fid: Fidelity) -> (Vec<TraceResult>, Vec<TraceResult>) {
    let (length, warmup) = match fid {
        Fidelity::Quick => (12_000u64, 2_000u64),
        Fidelity::Full => (40_000, 5_000),
    };
    let apps = all_paper_apps();
    let dims = NetworkConfig::paper_default(Scheme::TokenSlot);
    // Synthesize each trace once, in parallel, into in-memory PTRC bytes;
    // they are shared with the fleet workers through an `Arc` (workers are
    // persistent threads).
    let traces: Arc<Vec<(&'static str, Vec<u8>)>> = Arc::new(fleet().map(apps, move |_, app| {
        let (bytes, _) = generate_app(
            app,
            dims.cores(),
            dims.nodes,
            length,
            0x00F1_6010,
            DEFAULT_CHUNK_EVENTS,
            Vec::new(),
        )
        .expect("in-memory trace synthesis cannot fail");
        (app.name, bytes)
    }));
    let groups: [Vec<(String, Scheme)>; 2] = [global_group(), distributed_group()];
    let mut out: Vec<Vec<TraceResult>> = Vec::new();
    for group in &groups {
        let jobs: Vec<(usize, Scheme)> = (0..traces.len())
            .flat_map(|t| group.iter().map(move |&(_, s)| (t, s)))
            .collect();
        let plan = RunPlan::new(warmup, length - warmup, 2_000);
        let shared = traces.clone();
        let lat = fleet().map(jobs, move |_, &(t, scheme)| {
            let cfg = NetworkConfig::paper_default(scheme);
            let reader = StreamingTraceReader::open(&shared[t].1[..]).expect("valid trace");
            replay_run(cfg, reader, plan)
                .expect("trace replays")
                .avg_latency
        });
        let per_app = traces
            .iter()
            .enumerate()
            .map(|(t, (app, _))| TraceResult {
                app: (*app).to_string(),
                latencies: group
                    .iter()
                    .enumerate()
                    .map(|(gi, (label, _))| (label.clone(), lat[t * group.len() + gi]))
                    .collect(),
            })
            .collect();
        out.push(per_app);
    }
    let distributed = out.pop().expect("two groups");
    let global = out.pop().expect("two groups");
    (global, distributed)
}

/// Geometric-mean latency reduction of `scheme_idx` relative to column 0
/// (the baseline) across a Fig. 10 group.
pub fn mean_latency_reduction(results: &[TraceResult], scheme_idx: usize) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for r in results {
        let base = r.latencies[0].1;
        let other = r.latencies[scheme_idx].1;
        if base.is_finite() && other.is_finite() && base > 0.0 && other > 0.0 {
            log_sum += (other / base).ln();
            n += 1;
        }
    }
    if n == 0 {
        return f64::NAN;
    }
    1.0 - (log_sum / n as f64).exp()
}

// ---------------------------------------------------------------------------
// Fig. 11: sensitivity studies.
// ---------------------------------------------------------------------------

/// Fig. 11(a–e): for each handshake scheme, one latency-vs-load curve per
/// credit count — showing the handshake schemes are credit-independent.
pub fn fig11_credits(fid: Fidelity) -> Vec<(String, Vec<Curve>)> {
    let schemes: Vec<(String, Scheme)> = vec![
        ("GHS".into(), Scheme::Ghs { setaside: 0 }),
        (
            "GHS w/ Setaside".into(),
            Scheme::Ghs {
                setaside: PAPER_SETASIDE,
            },
        ),
        ("DHS".into(), Scheme::Dhs { setaside: 0 }),
        (
            "DHS w/ Setaside".into(),
            Scheme::Dhs {
                setaside: PAPER_SETASIDE,
            },
        ),
        ("DHS w/ Circulation".into(), Scheme::DhsCirculation),
    ];
    schemes
        .into_iter()
        .map(|(label, scheme)| (label, credit_curves(scheme, fid)))
        .collect()
}

/// One scheme's credit study under UR: a latency-vs-load curve per credit
/// (input buffer) count ∈ {4, 8, 16, 32}.
fn credit_curves(scheme: Scheme, fid: Fidelity) -> Vec<Curve> {
    let credits = [4usize, 8, 16, 32].map(|c| {
        let mut cfg = NetworkConfig::paper_default(scheme);
        cfg.input_buffer = c;
        (format!("Credit_{c}"), cfg)
    });
    let rates = fid.rates(crate::grids::ur_rates_dense());
    load_curves::<Mwsr>(
        credits.to_vec(),
        TrafficPattern::UniformRandom,
        &rates,
        fid.plan(),
    )
}

/// Fig. 11(f): GHS and DHS latency at UR 0.11 for setaside ∈ {1,2,4,8,16}.
pub fn fig11_setaside(fid: Fidelity) -> Vec<(String, Vec<(usize, f64)>)> {
    let sizes = [1usize, 2, 4, 8, 16];
    let xs = sizes.map(|s| s as f64);
    // A scheme family: the scheme at a given setaside size.
    type Family = fn(usize) -> Scheme;
    let families: Vec<(String, Family)> = vec![
        ("GHS".into(), |s| Scheme::Ghs { setaside: s }),
        ("DHS".into(), |s| Scheme::Dhs { setaside: s }),
    ];
    let plan = fid.plan();
    sweep_curves(families, &xs, move |make, size| {
        let cfg = NetworkConfig::paper_default(make(size as usize));
        Network::run_point(
            cfg,
            TenantMixKind::SingleClass,
            TrafficPattern::UniformRandom,
            0.11,
            plan,
        )
        .summary
    })
    .into_iter()
    .map(|c| {
        let latencies = c.latencies();
        (c.label, sizes.into_iter().zip(latencies).collect())
    })
    .collect()
}

// ---------------------------------------------------------------------------
// §II-B and §II-C: the SWMR fabric and the electrical mesh.
// ---------------------------------------------------------------------------

/// §II-B: handshake vs partitioned credits on the SWMR fabric, UR, one
/// curve per flow-control variant and receiver buffer size.
pub fn swmr(fid: Fidelity) -> Vec<Curve> {
    let rates = [0.01, 0.03, 0.05, 0.07, 0.09, 0.11, 0.13, 0.15];
    let small_handshake = SwmrConfig {
        input_buffer: 4,
        ..SwmrConfig::paper_handshake(8)
    };
    let variants = vec![
        ("credit (B=63)".into(), SwmrConfig::paper_credit()),
        ("handshake (B=8)".into(), SwmrConfig::paper_handshake(0)),
        ("handshake+SA8 (B=8)".into(), SwmrConfig::paper_handshake(8)),
        ("handshake+SA8 (B=4)".into(), small_handshake),
    ];
    load_curves::<Swmr>(variants, TrafficPattern::UniformRandom, &rates, fid.plan())
}

/// §II-C: the electrical 8×8 mesh (2- and 8-flit port buffers) against the
/// 64-node photonic ring (token slot and DHS w/ setaside), UR.
pub fn mesh_vs_ring(fid: Fidelity) -> Vec<Curve> {
    let rates = [0.01, 0.02, 0.03, 0.05, 0.07, 0.09, 0.11, 0.13];
    let (ur, plan) = (TrafficPattern::UniformRandom, fid.plan());
    let meshes = [2usize, 8].map(|buffer| {
        let cfg = MeshConfig {
            input_buffer: buffer,
            ..MeshConfig::paper_comparable()
        };
        (format!("mesh 8x8 (B={buffer}/port)"), cfg)
    });
    let rings = [Scheme::TokenSlot, Scheme::Dhs { setaside: 8 }].map(|scheme| {
        let cfg = NetworkConfig::paper_default(scheme);
        (format!("ring 64n ({})", scheme.label()), cfg)
    });
    let mut curves = load_curves::<Mesh>(meshes.to_vec(), ur, &rates, plan);
    curves.extend(load_curves::<Mwsr>(rings.to_vec(), ur, &rates, plan));
    curves
}

// ---------------------------------------------------------------------------
// Fig. 12: power and energy.
// ---------------------------------------------------------------------------

/// One scheme's Fig. 12 row.
#[derive(Debug, Clone, Serialize)]
pub struct PowerRow {
    /// Scheme label.
    pub label: String,
    /// Fig. 12(a) breakdown, watts.
    pub breakdown: PowerBreakdown,
    /// Fig. 12(b) energy per packet, joules.
    pub energy_per_packet_j: f64,
}

/// Fig. 12: run every scheme at a common sustainable UR load, extract
/// activity, and price it with the power models.
pub fn fig12(fid: Fidelity) -> Vec<PowerRow> {
    let schemes = Scheme::paper_set(PAPER_SETASIDE);
    let plan = fid.plan();
    // 0.05 pkt/cycle/core is sustainable by every scheme (Fig. 8/9).
    let rate = 0.05;
    let rows = fleet().map(schemes, move |_, &scheme| {
        let cfg = NetworkConfig::paper_default(scheme);
        let mut net = Network::new(cfg).expect("valid config");
        let mut src = pnoc_noc::SyntheticSource::new(
            TrafficPattern::UniformRandom,
            rate,
            cfg.nodes,
            cfg.cores_per_node,
            cfg.seed,
        );
        net.run_open_loop(&mut src, plan);
        let activity = ActivityProfile::from_metrics(net.metrics(), plan.total());
        let report = PowerReport::paper_default();
        PowerRow {
            label: scheme.label(),
            breakdown: report.breakdown(scheme, &activity),
            energy_per_packet_j: report.energy_per_packet_j(scheme, &activity),
        }
    });
    rows
}

// ---------------------------------------------------------------------------
// Resilience: fault-rate sweep (DESIGN.md "Fault model & reliability").
// ---------------------------------------------------------------------------

/// Per-cycle fault rates the resilience harness sweeps (0 = fault engine
/// engaged but silent — must reproduce healthy latency exactly).
pub const FAULT_RATES: [f64; 5] = [0.0, 1e-6, 1e-5, 1e-4, 1e-3];

/// Offered load for the resilience sweep: sustainable by every scheme when
/// healthy (Fig. 8/9), so any collapse is attributable to faults.
pub const RESILIENCE_LOAD: f64 = 0.05;

/// The resilience comparison set: both credit baselines, one scheme per
/// handshake family, and circulation (backpressure without a handshake).
pub fn resilience_group() -> Vec<(String, Scheme)> {
    vec![
        ("Token Channel".into(), Scheme::TokenChannel),
        ("Token Slot".into(), Scheme::TokenSlot),
        ("GHS".into(), Scheme::Ghs { setaside: 0 }),
        (
            "DHS w/ Setaside".into(),
            Scheme::Dhs {
                setaside: PAPER_SETASIDE,
            },
        ),
        ("DHS w/ Circulation".into(), Scheme::DhsCirculation),
    ]
}

/// Sweep `resilience_group()` across `fault_rates` under UR at `load`, one
/// run per (scheme, rate), in parallel. `base` builds the per-scheme healthy
/// config; each run layers `FaultConfig::uniform(rate)` on top (which arms
/// timeout/retransmit recovery for the handshake schemes). Curve x-values
/// are *fault rates*, not offered loads.
pub fn resilience_curves(
    fault_rates: &[f64],
    load: f64,
    plan: RunPlan,
    base: impl Fn(Scheme) -> NetworkConfig + Send + Sync + 'static,
) -> Vec<Curve> {
    sweep_curves(
        resilience_group(),
        fault_rates,
        move |&scheme, fault_rate| {
            let cfg = base(scheme).with_faults(pnoc_noc::FaultConfig::uniform(fault_rate));
            Network::run_point(
                cfg,
                TenantMixKind::SingleClass,
                TrafficPattern::UniformRandom,
                load,
                plan,
            )
            .summary
        },
    )
}

/// The `resilience` harness: the paper-scale network under the standard
/// fault-rate grid. Expected shape: the handshake schemes deliver every
/// packet at every rate (bounded latency inflation, retransmit rate tracking
/// the fault rate), while the credit baselines leak unreturnable credits and
/// lose packets outright.
pub fn resilience(fid: Fidelity) -> Vec<Curve> {
    resilience_curves(
        &FAULT_RATES,
        RESILIENCE_LOAD,
        fid.plan(),
        NetworkConfig::paper_default,
    )
}

// ---------------------------------------------------------------------------
// Table I: component budgets.
// ---------------------------------------------------------------------------

/// Table I rows: `(label, data WG, token WG, handshake WG, rings string)`.
pub fn table1() -> Vec<(String, u64, u64, u64, String)> {
    let dims = NetworkDims::paper_default();
    [
        ("Token Slot".to_string(), Scheme::TokenSlot),
        ("GHS".to_string(), Scheme::Ghs { setaside: 0 }),
        ("DHS".to_string(), Scheme::Dhs { setaside: 0 }),
        ("DHS-cir".to_string(), Scheme::DhsCirculation),
    ]
    .into_iter()
    .map(|(label, scheme)| {
        let b = ComponentBudget::for_scheme(dims, scheme.features());
        let (d, t, h, rings) = b.table1_row();
        (label, d, t, h, rings)
    })
    .collect()
}

// ---------------------------------------------------------------------------
// IPC experiment (§V-B).
// ---------------------------------------------------------------------------

/// One workload's IPC under the four compared schemes.
#[derive(Debug, Clone, Serialize)]
pub struct IpcRow {
    /// Workload name.
    pub workload: String,
    /// `(scheme label, summary)` for token channel, GHS w/SB, token slot,
    /// DHS w/SB — the comparison the paper reports.
    pub results: Vec<(String, IpcSummary)>,
}

/// The IPC experiment: 128 cores, 4 MSHRs each, closed loop.
pub fn ipc(fid: Fidelity) -> Vec<IpcRow> {
    let (warmup, measure) = match fid {
        Fidelity::Quick => (1_000u64, 6_000u64),
        Fidelity::Full => (3_000, 20_000),
    };
    let schemes: Vec<(String, Scheme)> = vec![
        ("Token Channel".into(), Scheme::TokenChannel),
        (
            "GHS w/ Setaside".into(),
            Scheme::Ghs {
                setaside: PAPER_SETASIDE,
            },
        ),
        ("Token Slot".into(), Scheme::TokenSlot),
        (
            "DHS w/ Setaside".into(),
            Scheme::Dhs {
                setaside: PAPER_SETASIDE,
            },
        ),
    ];
    let workloads = Arc::new(all_paper_workloads());
    let jobs: Vec<(usize, usize)> = (0..workloads.len())
        .flat_map(|w| (0..schemes.len()).map(move |s| (w, s)))
        .collect();
    let scheme_vals: Vec<Scheme> = schemes.iter().map(|(_, s)| *s).collect();
    let shared = workloads.clone();
    let results = fleet().map(jobs, move |_, &(w, s)| {
        let mut net_cfg = NetworkConfig::paper_default(scheme_vals[s]);
        net_cfg.cores_per_node = 2; // 128 cores, as in the paper's CMP
        let mut sys = CmpSystem::new(net_cfg, CmpConfig::paper_default(), shared[w].clone());
        sys.run(warmup, measure)
    });
    workloads
        .iter()
        .enumerate()
        .map(|(w, wl)| IpcRow {
            workload: wl.name.to_string(),
            results: schemes
                .iter()
                .enumerate()
                .map(|(s, (label, _))| (label.clone(), results[w * schemes.len() + s]))
                .collect(),
        })
        .collect()
}

/// Mean IPC improvement of scheme column `a` over column `b` across rows.
pub fn mean_ipc_improvement(rows: &[IpcRow], a: usize, b: usize) -> f64 {
    let mut log_sum = 0.0;
    for r in rows {
        log_sum += (r.results[a].1.ipc / r.results[b].1.ipc).ln();
    }
    (log_sum / rows.len() as f64).exp() - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_have_paper_membership() {
        assert_eq!(global_group().len(), 3);
        assert_eq!(distributed_group().len(), 4);
    }

    #[test]
    fn table1_matches_paper_exactly() {
        let rows = table1();
        assert_eq!(rows.len(), 4);
        let expect = [
            ("Token Slot", 256, 1, 0, "1024K"),
            ("GHS", 256, 1, 1, "1028K"),
            ("DHS", 256, 1, 1, "1028K"),
            ("DHS-cir", 256, 1, 0, "1040K"),
        ];
        for (row, exp) in rows.iter().zip(expect) {
            assert_eq!(row.0, exp.0);
            assert_eq!(row.1, exp.1);
            assert_eq!(row.2, exp.2);
            assert_eq!(row.3, exp.3);
            assert_eq!(row.4, exp.4);
        }
    }

    #[test]
    fn curve_helpers() {
        use pnoc_noc::metrics::NetworkMetrics;
        let mk = |saturated: bool| {
            let mut m = NetworkMetrics::new();
            m.generated_measured = 100;
            m.delivered_measured = if saturated { 10 } else { 100 };
            for _ in 0..m.delivered_measured {
                m.latency.record(12.0);
                m.latency_rec.record(12.0);
            }
            RunSummary::from_metrics::<&[u64]>(&m, &[], 1000, 4, 0.1)
        };
        let c = Curve {
            label: "x".into(),
            points: vec![(0.05, mk(false)), (0.1, mk(false)), (0.2, mk(true))],
        };
        assert_eq!(c.saturation_rate(), 0.1);
        let l = c.latencies();
        assert!(l[0].is_finite());
        assert!(l[2].is_infinite());
    }

    #[test]
    fn fidelity_thins() {
        let full = Fidelity::Full.rates(crate::grids::ur_rates());
        let quick = Fidelity::Quick.rates(crate::grids::ur_rates());
        assert!(quick.len() < full.len());
    }
}
