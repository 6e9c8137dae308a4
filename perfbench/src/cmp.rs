//! `cmp_closed_loop`: `CmpSystem` as the IPC figure builds it — 64 nodes ×
//! 2 cores, 4 MSHRs per core — under the four IPC schemes, on a light
//! workload (`blackscholes`) and the heaviest one (`nas.is`).

use crate::common::{add_noc_counters, bump, ms_since, Pass, TracedPass};
use crate::prof::{Layer, Prof};
use crate::stats::Tally;
use pnoc_cmp::bank::BankRequest;
use pnoc_cmp::workload::paper_workload;
use pnoc_cmp::{CmpConfig, CmpSystem, CmpWorkload, CoreModel, IpcSummary, L2Bank};
use pnoc_noc::{Network, NetworkConfig, PacketKind, Scheme};
use pnoc_sim::{Cycle, SimRng};
use std::time::Instant;

const WARMUP: Cycle = 1_000;
const MEASURE: Cycle = 4_000;
const WORKLOADS: [&str; 2] = ["blackscholes", "nas.is"];
const SETASIDE: usize = 8;

/// The closed-loop CMP workload for one seed.
pub struct CmpClosedLoop {
    seed: u64,
}

impl CmpClosedLoop {
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// The four schemes the IPC experiment compares, on 128 cores.
    pub fn configs(&self) -> Vec<NetworkConfig> {
        [
            Scheme::TokenChannel,
            Scheme::Ghs { setaside: SETASIDE },
            Scheme::TokenSlot,
            Scheme::Dhs { setaside: SETASIDE },
        ]
        .into_iter()
        .map(|s| {
            let mut cfg = NetworkConfig::paper_default(s);
            cfg.cores_per_node = 2;
            cfg.seed = self.seed;
            cfg
        })
        .collect()
    }

    fn cmp_config(&self) -> CmpConfig {
        let mut c = CmpConfig::paper_default();
        c.seed = self.seed;
        c
    }

    /// Every (workload, config) run, workload-major.
    fn runs(&self) -> Vec<(CmpWorkload, NetworkConfig)> {
        let cfgs = self.configs();
        WORKLOADS
            .iter()
            .flat_map(|w| {
                let wl = paper_workload(w).expect("paper workload exists");
                cfgs.iter().map(move |&c| (wl.clone(), c))
            })
            .collect()
    }

    fn check(tally: &mut Tally, s: &IpcSummary, what: &str) {
        tally.check(s.ipc > 0.0 && s.ipc <= 1.0, || {
            format!("cmp_closed_loop {what}: ipc {} outside (0, 1]", s.ipc)
        });
    }

    /// The shipped path: `CmpSystem::new` then `CmpSystem::run`.
    pub fn untraced(&mut self, tally: &mut Tally) -> Pass {
        let mut pass = Pass::default();
        let t0 = Instant::now();
        let systems: Vec<(String, CmpSystem)> = self
            .runs()
            .into_iter()
            .map(|(wl, cfg)| {
                let what = format!("{} {}", wl.name, cfg.scheme.label());
                (what, CmpSystem::new(cfg, self.cmp_config(), wl))
            })
            .collect();
        pass.setup_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let mut ipc = Vec::new();
        for (what, mut sys) in systems {
            let tj = Instant::now();
            let s = sys.run(WARMUP, MEASURE);
            pass.job_ms.push(ms_since(tj));
            Self::check(tally, &s, &what);
            let m = sys.network().metrics();
            pass.sim_cycles += WARMUP + MEASURE;
            pass.delivered += m.delivered_measured;
            pass.latency_weighted += s.avg_net_latency * m.delivered_measured as f64;
            pass.outputs
                .push(serde_json::to_string(&s).expect("summary serializes"));
            ipc.push(s.ipc);
        }
        pass.wall_s = t0.elapsed().as_secs_f64();
        pass.jobs = pass.job_ms.len() as u64;
        pass.extra.push((
            "sim_ipc",
            "instr/cycle",
            ipc.iter().sum::<f64>() / ipc.len() as f64,
        ));
        pass
    }

    /// The same runs through the instrumented closed loop.
    pub fn traced(&mut self, tally: &mut Tally) -> TracedPass {
        let mut tp = TracedPass::default();
        let mut prof = Prof::new();
        let t0 = Instant::now();
        let systems: Vec<Loop> = self
            .runs()
            .into_iter()
            .map(|(wl, cfg)| Loop::new(cfg, self.cmp_config(), wl, &mut prof))
            .collect();
        tp.pass.setup_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let (mut stalled, mut core_cycles, mut ipc) = (0u64, 0.0, Vec::new());
        for mut sys in systems {
            let tj = Instant::now();
            let s = sys.run(WARMUP, MEASURE, &mut prof);
            tp.pass.job_ms.push(ms_since(tj));
            let what = format!(
                "{} {}",
                sys.workload.name,
                sys.network.config().scheme.label()
            );
            Self::check(tally, &s, &what);
            let m = sys.network.metrics();
            tp.pass.sim_cycles += WARMUP + MEASURE;
            tp.pass.delivered += m.delivered_measured;
            tp.pass.latency_weighted += s.avg_net_latency * m.delivered_measured as f64;
            tp.pass
                .outputs
                .push(serde_json::to_string(&s).expect("summary serializes"));
            add_noc_counters(&mut tp.counters, m);
            bump(&mut tp.counters, "noc.injected", m.generated as f64);
            bump(&mut tp.counters, "cmp.requests", sys.requests as f64);
            bump(&mut tp.counters, "cmp.replies", sys.replies as f64);
            bump(&mut tp.counters, "cmp.local_completions", sys.locals as f64);
            stalled += sys.cores.iter().map(CoreModel::stalled_cycles).sum::<u64>();
            core_cycles += ((WARMUP + MEASURE) * sys.cores.len() as u64) as f64;
            ipc.push(s.ipc);
        }
        tp.pass.wall_s = t1.elapsed().as_secs_f64();
        tp.pass.jobs = tp.pass.job_ms.len() as u64;
        tp.counters
            .insert("cmp.stall_frac", stalled as f64 / core_cycles);
        tp.counters
            .insert("cmp.ipc", ipc.iter().sum::<f64>() / ipc.len() as f64);
        tp.capacity_ns = t0.elapsed().as_nanos() as f64;
        tp.prof = prof;
        tp
    }
}

/// `CmpSystem` rebuilt from the public pieces of `pnoc-cmp` with the
/// network in the loop, so each phase of `CmpSystem::step` can be timed.
/// Construction and stepping mirror the shipped code draw for draw; the
/// caller checks that the summaries match.
struct Loop {
    cores: Vec<CoreModel>,
    banks: Vec<L2Bank>,
    network: Network,
    workload: CmpWorkload,
    hot_banks: Vec<usize>,
    rng: SimRng,
    cores_per_node: usize,
    local_completions: Vec<(Cycle, usize)>,
    requests: u64,
    replies: u64,
    locals: u64,
}

impl Loop {
    fn new(
        net_cfg: NetworkConfig,
        cmp_cfg: CmpConfig,
        workload: CmpWorkload,
        prof: &mut Prof,
    ) -> Self {
        let network = prof.span(Layer::NocNew, || {
            Network::new(net_cfg).expect("IPC config is valid")
        });
        prof.span(Layer::CmpNew, || {
            let mut rng = SimRng::seed_from(cmp_cfg.seed ^ 0x1234_5678);
            let cores = (0..net_cfg.cores())
                .map(|_| {
                    let jitter = 1.0 + (rng.f64() - 0.5) * 0.1;
                    CoreModel::new(cmp_cfg.mshrs, (workload.miss_per_instr * jitter).min(1.0))
                })
                .collect();
            let banks = (0..net_cfg.nodes)
                .map(|_| L2Bank::new(cmp_cfg.l2_latency, cmp_cfg.l2_accept_per_cycle))
                .collect();
            let hot_banks = workload.hot_banks(net_cfg.nodes, cmp_cfg.seed);
            Self {
                cores,
                banks,
                network,
                workload,
                hot_banks,
                rng,
                cores_per_node: net_cfg.cores_per_node,
                local_completions: Vec::new(),
                requests: 0,
                replies: 0,
                locals: 0,
            }
        })
    }

    fn step(&mut self, measured: bool, prof: &mut Prof) {
        let now = self.network.now();
        let nodes = self.banks.len();

        prof.enter(Layer::CmpCoreTick);
        for core_id in 0..self.cores.len() {
            if self.cores[core_id].tick(&mut self.rng) {
                let src_node = core_id / self.cores_per_node;
                let bank = self
                    .workload
                    .pick_bank(src_node, nodes, &self.hot_banks, &mut self.rng);
                self.network
                    .inject(core_id, bank, PacketKind::Request, core_id as u64, measured);
                self.requests += 1;
            }
        }
        prof.exit();

        prof.step(&mut self.network);

        prof.enter(Layer::CmpDelivery);
        for d in self.network.deliveries() {
            match d.pkt.kind {
                PacketKind::Request => self.banks[d.pkt.dst_node as usize].accept(BankRequest {
                    requester_core: d.pkt.tag as usize,
                }),
                PacketKind::Reply | PacketKind::Data => {
                    self.cores[d.pkt.tag as usize].complete_miss();
                }
            }
        }
        prof.exit();

        prof.enter(Layer::CmpBankTick);
        for node in 0..nodes {
            for done in self.banks[node].tick(now) {
                let req_node = done.requester_core / self.cores_per_node;
                if req_node == node {
                    self.local_completions.push((now + 2, done.requester_core));
                    self.locals += 1;
                } else {
                    let bank_core = node * self.cores_per_node;
                    self.network.inject(
                        bank_core,
                        req_node,
                        PacketKind::Reply,
                        done.requester_core as u64,
                        measured,
                    );
                    self.replies += 1;
                }
            }
        }
        prof.exit();

        prof.enter(Layer::CmpLocal);
        let mut idx = 0;
        while idx < self.local_completions.len() {
            if self.local_completions[idx].0 <= now {
                let (_, core) = self.local_completions.swap_remove(idx);
                self.cores[core].complete_miss();
            } else {
                idx += 1;
            }
        }
        prof.exit();
    }

    fn run(&mut self, warmup: Cycle, measure: Cycle, prof: &mut Prof) -> IpcSummary {
        for _ in 0..warmup {
            self.step(false, prof);
        }
        let retired_before: u64 = self.cores.iter().map(CoreModel::retired).sum();
        let stalled_before: u64 = self.cores.iter().map(CoreModel::stalled_cycles).sum();
        let issued_before: u64 = self.cores.iter().map(CoreModel::issued).sum();
        for _ in 0..measure {
            self.step(true, prof);
        }
        let retired = self.cores.iter().map(CoreModel::retired).sum::<u64>() - retired_before;
        let stalled = self
            .cores
            .iter()
            .map(CoreModel::stalled_cycles)
            .sum::<u64>()
            - stalled_before;
        let issued = self.cores.iter().map(CoreModel::issued).sum::<u64>() - issued_before;
        let core_cycles = (measure as f64) * self.cores.len() as f64;
        IpcSummary {
            ipc: retired as f64 / core_cycles,
            stall_fraction: stalled as f64 / core_cycles,
            avg_net_latency: self.network.metrics().latency.mean(),
            request_rate: issued as f64 / core_cycles,
        }
    }
}
