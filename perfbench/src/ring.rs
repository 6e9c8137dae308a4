//! `ring_figure`: one figure's worth of open-loop points on the paper
//! network — 64 nodes × 4 cores, all seven paper schemes, uniform random
//! traffic at 0.02, 0.08, 0.14 and 0.20 packets/cycle/core. Each point is
//! driven like `run_synthetic_point`: `SyntheticSource` →
//! `Network::run_open_loop`.

use crate::common::{ms_since, traced_open_loop, Pass, TracedPass};
use crate::prof::{maybe_span, Layer, Prof};
use crate::stats::Tally;
use pnoc_noc::{Network, NetworkConfig, Scheme, SyntheticSource};
use pnoc_sim::RunPlan;
use pnoc_traffic::pattern::TrafficPattern;
use std::time::Instant;

/// Offered loads, packets/cycle/core.
pub const RATES: [f64; 4] = [0.02, 0.08, 0.14, 0.20];
/// Loads below every scheme's knee: these points must drain completely.
const BELOW_KNEE: f64 = 0.08;
/// Setaside size of the paper's "w/ Setaside" curves.
const SETASIDE: usize = 8;

/// Warmup, measure and drain cycles of every point.
pub fn plan() -> RunPlan {
    RunPlan::new(500, 2_500, 500)
}

/// The ring-figure workload for one seed.
pub struct RingFigure {
    seed: u64,
}

struct Point {
    rate: f64,
    net: Network,
    src: SyntheticSource,
}

impl RingFigure {
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// One network configuration per scheme.
    pub fn configs(&self) -> Vec<NetworkConfig> {
        Scheme::paper_set(SETASIDE)
            .into_iter()
            .map(|s| {
                let mut cfg = NetworkConfig::paper_default(s);
                cfg.seed = self.seed;
                cfg
            })
            .collect()
    }

    /// Build every point's network and source, as `run_synthetic_point`
    /// does, optionally timing the two constructors.
    fn setup(&self, mut prof: Option<&mut Prof>) -> Vec<Point> {
        let mut points = Vec::new();
        for cfg in self.configs() {
            for &rate in &RATES {
                let net = maybe_span(prof.as_deref_mut(), Layer::NocNew, || {
                    Network::new(cfg).expect("paper config is valid")
                });
                let src = maybe_span(prof.as_deref_mut(), Layer::TrafficNew, || {
                    SyntheticSource::new(
                        TrafficPattern::UniformRandom,
                        rate,
                        cfg.nodes,
                        cfg.cores_per_node,
                        cfg.seed ^ 0x5EED_0001,
                    )
                });
                points.push(Point { rate, net, src });
            }
        }
        points
    }

    fn check_point(tally: &mut Tally, pt: &Point) {
        if pt.rate <= BELOW_KNEE {
            let m = pt.net.metrics();
            tally.check(pt.net.is_drained() && m.generated == m.delivered, || {
                format!(
                    "ring_figure {} at {}: below the knee but not drained ({} generated, {} delivered)",
                    pt.net.config().scheme.label(),
                    pt.rate,
                    m.generated,
                    m.delivered
                )
            });
        }
    }

    /// The shipped path: `Network::run_open_loop` per point.
    pub fn untraced(&mut self, tally: &mut Tally) -> Pass {
        let mut pass = Pass::default();
        let t0 = Instant::now();
        let points = self.setup(None);
        pass.setup_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        for mut pt in points {
            let tj = Instant::now();
            let s = pt.net.run_open_loop(&mut pt.src, plan());
            pass.job_ms.push(ms_since(tj));
            Self::check_point(tally, &pt);
            pass.sim_cycles += pt.net.now();
            pass.delivered += s.delivered;
            pass.latency_weighted += s.avg_latency * s.delivered as f64;
            pass.outputs
                .push(serde_json::to_string(&s).expect("summary serializes"));
        }
        pass.wall_s = t0.elapsed().as_secs_f64();
        pass.jobs = pass.job_ms.len() as u64;
        pass
    }

    /// The same points through the instrumented open loop.
    pub fn traced(&mut self, tally: &mut Tally) -> TracedPass {
        let mut tp = TracedPass::default();
        let mut prof = Prof::new();
        let t0 = Instant::now();
        let points = self.setup(Some(&mut prof));
        tp.pass.setup_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        for mut pt in points {
            let tj = Instant::now();
            let s = traced_open_loop(
                &mut pt.net,
                &mut pt.src,
                plan(),
                Layer::TrafficGenerate,
                &mut prof,
                &mut tp.counters,
            );
            tp.pass.job_ms.push(ms_since(tj));
            Self::check_point(tally, &pt);
            tp.pass.sim_cycles += pt.net.now();
            tp.pass.delivered += s.delivered;
            tp.pass.latency_weighted += s.avg_latency * s.delivered as f64;
            tp.pass
                .outputs
                .push(serde_json::to_string(&s).expect("summary serializes"));
        }
        tp.pass.wall_s = t1.elapsed().as_secs_f64();
        tp.pass.jobs = tp.pass.job_ms.len() as u64;
        tp.capacity_ns = t0.elapsed().as_nanos() as f64;
        tp.prof = prof;
        tp
    }
}
