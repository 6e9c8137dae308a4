//! Deterministic sweep descriptions.
//!
//! A fleet sweep is a `(master_seed, index_range, SweepSpec)` triple: the
//! spec defines a grid of (scheme, pattern, rate) **cells** with a fixed
//! number of replicas per cell, and every job index maps to exactly one
//! (cell, replica) pair by arithmetic. Nothing about a job is stored — the
//! job *is* its index, and the per-job simulation seed is derived from
//! `stream_seed(master_seed, FLEET_STREAM)` forked at the index (the same
//! idiom `pnoc-oracle` uses for fuzz cases). A million-job sweep therefore
//! costs twelve lines of JSON to describe, and any subset of its indices
//! can be re-run bit-identically on any machine.

use pnoc_noc::config::{AdmissionPolicy, NetworkConfig, Scheme};
use pnoc_noc::{Network, PointDetail};
use pnoc_sim::rng::{stream_seed, FLEET_STREAM};
use pnoc_sim::{RunPlan, SimRng};
use pnoc_traffic::classes::TenantMixKind;
use pnoc_traffic::pattern::TrafficPattern;
use serde::{Deserialize, Serialize};

/// Which base network configuration the sweep perturbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SweepBase {
    /// [`NetworkConfig::paper_default`]: 64 nodes × 4 cores.
    Paper,
    /// [`NetworkConfig::small`]: 16 nodes × 2 cores (tests, smokes).
    Small,
}

/// A deterministic sweep description; see module docs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// Base network configuration.
    pub base: SweepBase,
    /// Schemes axis of the cell grid.
    pub schemes: Vec<Scheme>,
    /// Traffic-pattern axis of the cell grid.
    pub patterns: Vec<TrafficPattern>,
    /// Injection-rate axis of the cell grid (packets/cycle/core).
    pub rates: Vec<f64>,
    /// Independent replicas per cell (distinct seeds, merged aggregates).
    pub replicas: u64,
    /// Master seed; every job seed derives from it via [`FLEET_STREAM`].
    pub master_seed: u64,
    /// Warmup cycles of each run.
    pub warmup: u64,
    /// Measure cycles of each run.
    pub measure: u64,
    /// Drain cycles of each run.
    pub drain: u64,
    /// Tenant-mix axis of the cell grid. Empty (the default, and what any
    /// pre-QoS spec deserializes to) means one implicit
    /// [`TenantMixKind::SingleClass`] mix, so old sweep JSON keeps its
    /// exact cell numbering and per-job seeds.
    #[serde(default)]
    pub mixes: Vec<TenantMixKind>,
    /// Admission policy applied to every cell (`None` = pre-QoS grants).
    #[serde(default)]
    pub admission: AdmissionPolicy,
}

impl SweepSpec {
    /// A small built-in sweep used by the `fleet` bin and CI smoke: 3
    /// schemes × 1 pattern × 4 rates × 2 replicas = 24 jobs on the small
    /// network with the quick plan.
    pub fn demo() -> Self {
        let quick = RunPlan::quick();
        Self {
            base: SweepBase::Small,
            schemes: vec![
                Scheme::TokenChannel,
                Scheme::TokenSlot,
                Scheme::Dhs { setaside: 2 },
            ],
            patterns: vec![TrafficPattern::UniformRandom],
            rates: vec![0.05, 0.10, 0.15, 0.20],
            replicas: 2,
            master_seed: 0xF1EE_7001,
            warmup: quick.warmup,
            measure: quick.measure,
            drain: quick.drain,
            mixes: Vec::new(),
            admission: AdmissionPolicy::None,
        }
    }

    /// The demo sweep with the multi-tenant axis armed: every tenant mix
    /// crossed with the demo grid, under a tight-but-live token bucket.
    pub fn demo_qos() -> Self {
        let mut spec = Self::demo();
        spec.mixes = TenantMixKind::all().to_vec();
        spec.admission = AdmissionPolicy::TokenBucket {
            period: 4,
            refill: [1; pnoc_noc::MAX_CLASSES],
            burst: [2; pnoc_noc::MAX_CLASSES],
        };
        spec.master_seed = 0xF1EE_7002;
        spec
    }

    /// Structural validation; returns a human-readable reason on failure.
    pub fn validate(&self) -> Result<(), String> {
        if self.schemes.is_empty() || self.patterns.is_empty() || self.rates.is_empty() {
            return Err("schemes, patterns, and rates must all be non-empty".into());
        }
        if self.replicas == 0 {
            return Err("replicas must be at least 1".into());
        }
        if self.checked_total_jobs().is_none() {
            return Err(format!(
                "{} schemes × {} patterns × {} rates × {} mixes × {} replicas overflows the job count",
                self.schemes.len(),
                self.patterns.len(),
                self.rates.len(),
                self.mix_count(),
                self.replicas
            ));
        }
        validate_windows(self.warmup, self.measure, self.drain)?;
        // A pattern the base's node count cannot host would panic inside
        // the worker that builds its source.
        let nodes = self.base_config(self.schemes[0]).nodes;
        for p in &self.patterns {
            p.validate(nodes)
                .map_err(|why| format!("pattern {}: {why} ({nodes} nodes)", p.label()))?;
        }
        // The Bernoulli injector fires at most once per core per cycle, so
        // a rate above 1 would run at 1 while being reported as asked.
        for &r in &self.rates {
            if !(0.0..=1.0).contains(&r) {
                return Err(format!(
                    "invalid injection rate {r} (must be in [0, 1] packets/cycle/core)"
                ));
            }
        }
        Ok(())
    }

    /// Number of mixes on the tenant axis (an empty `mixes` vec is the
    /// implicit single-class axis of pre-QoS specs).
    pub fn mix_count(&self) -> usize {
        self.mixes.len().max(1)
    }

    /// The mix at tenant-axis index `mi`.
    pub fn mix_at(&self, mi: usize) -> TenantMixKind {
        self.mixes
            .get(mi)
            .copied()
            .unwrap_or(TenantMixKind::SingleClass)
    }

    /// Number of (scheme, pattern, rate, mix) cells.
    pub fn cells(&self) -> usize {
        self.schemes.len() * self.patterns.len() * self.rates.len() * self.mix_count()
    }

    /// Total job count: cells × replicas. [`SweepSpec::validate`] rejects
    /// specs where either product overflows.
    pub fn total_jobs(&self) -> u64 {
        self.cells() as u64 * self.replicas
    }

    /// `cells × replicas`, or `None` if the cell product or the job count
    /// overflows.
    fn checked_total_jobs(&self) -> Option<u64> {
        let cells = [self.patterns.len(), self.rates.len(), self.mix_count()]
            .into_iter()
            .try_fold(self.schemes.len(), usize::checked_mul)?;
        u64::try_from(cells).ok()?.checked_mul(self.replicas)
    }

    /// The cell a job index belongs to.
    pub fn cell_of(&self, index: u64) -> usize {
        usize::try_from(index / self.replicas).expect("cell fits usize")
    }

    /// The (scheme, pattern, rate, mix) coordinates of cell `cell`. The
    /// mix is the outermost axis, so with `mixes` empty the inner three
    /// decompose exactly as they did before the tenant axis existed.
    pub fn cell_params(&self, cell: usize) -> (Scheme, TrafficPattern, f64, TenantMixKind) {
        let rates = self.rates.len();
        let patterns = self.patterns.len();
        let schemes = self.schemes.len();
        let ri = cell % rates;
        let pi = (cell / rates) % patterns;
        let si = (cell / (rates * patterns)) % schemes;
        let mi = cell / (rates * patterns * schemes);
        (
            self.schemes[si],
            self.patterns[pi],
            self.rates[ri],
            self.mix_at(mi),
        )
    }

    /// The simulation seed for job `index`: independent per index, stable
    /// across machines, and on a dedicated stream so sweeps never share
    /// randomness with fuzz campaigns run from the same master seed.
    pub fn job_seed(&self, index: u64) -> u64 {
        let mut gen = SimRng::seed_from(stream_seed(self.master_seed, FLEET_STREAM));
        gen.fork(index).next_u64()
    }

    /// The run plan every job uses.
    pub fn plan(&self) -> RunPlan {
        RunPlan::new(self.warmup, self.measure, self.drain)
    }

    /// The base network configuration for `scheme`.
    fn base_config(&self, scheme: Scheme) -> NetworkConfig {
        match self.base {
            SweepBase::Paper => NetworkConfig::paper_default(scheme),
            SweepBase::Small => NetworkConfig::small(scheme),
        }
    }

    /// Run job `index`: a pure function of `(self, index)`.
    pub fn run_job(&self, index: u64) -> PointDetail {
        let (scheme, pattern, rate, mix) = self.cell_params(self.cell_of(index));
        let mut cfg = self.base_config(scheme);
        cfg.seed = self.job_seed(index);
        cfg.admission = self.admission;
        Network::run_point(cfg, mix, pattern, rate, self.plan())
    }
}

/// Check a run's cycle windows: the measure window must be non-zero and
/// `warmup + measure + drain` must fit a `u64` (a wrapped total would run
/// a near-empty plan and still report it complete).
pub(crate) fn validate_windows(warmup: u64, measure: u64, drain: u64) -> Result<(), String> {
    if measure == 0 {
        return Err("measure window must be non-zero".into());
    }
    warmup
        .checked_add(measure)
        .and_then(|t| t.checked_add(drain))
        .map(|_| ())
        .ok_or_else(|| {
            format!("warmup {warmup} + measure {measure} + drain {drain} overflows u64 cycles")
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_spec_is_valid() {
        let spec = SweepSpec::demo();
        spec.validate().expect("demo spec valid");
        assert_eq!(spec.cells(), 12);
        assert_eq!(spec.total_jobs(), 24);
    }

    #[test]
    fn cell_decomposition_is_a_bijection() {
        let mut spec = SweepSpec::demo();
        spec.patterns.push(TrafficPattern::Tornado);
        spec.mixes = TenantMixKind::all().to_vec();
        let mut seen = vec![false; spec.cells()];
        for (cell, cell_seen) in seen.iter_mut().enumerate() {
            let (s, p, r, m) = spec.cell_params(cell);
            // Re-encode the coordinates and check they map back.
            let si = spec.schemes.iter().position(|&x| x == s).expect("scheme");
            let pi = spec.patterns.iter().position(|&x| x == p).expect("pattern");
            let mi = spec.mixes.iter().position(|&x| x == m).expect("mix");
            // Bit-exact match: `r` came out of this same vec.
            let ri = spec
                .rates
                .iter()
                .position(|&x| x.to_bits() == r.to_bits())
                .expect("rate");
            let re =
                ((mi * spec.schemes.len() + si) * spec.patterns.len() + pi) * spec.rates.len() + ri;
            assert_eq!(re, cell);
            assert!(!*cell_seen);
            *cell_seen = true;
        }
        // Jobs of the same cell are consecutive indices.
        for j in 0..spec.total_jobs() {
            assert_eq!(spec.cell_of(j), (j / spec.replicas) as usize);
        }
    }

    #[test]
    fn job_seeds_are_distinct_and_stable() {
        let spec = SweepSpec::demo();
        let mut seeds: Vec<u64> = (0..spec.total_jobs()).map(|j| spec.job_seed(j)).collect();
        let again: Vec<u64> = (0..spec.total_jobs()).map(|j| spec.job_seed(j)).collect();
        assert_eq!(seeds, again, "seeds must be stable");
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(
            seeds.len() as u64,
            spec.total_jobs(),
            "seeds must be distinct"
        );
    }

    #[test]
    fn validation_rejects_degenerate_specs() {
        let mut spec = SweepSpec::demo();
        spec.replicas = 0;
        assert!(spec.validate().is_err());
        let mut spec = SweepSpec::demo();
        spec.rates.clear();
        assert!(spec.validate().is_err());
        let mut spec = SweepSpec::demo();
        spec.rates.push(f64::NAN);
        assert!(spec.validate().is_err());
    }

    #[test]
    fn validation_rejects_a_plan_whose_total_overflows() {
        let mut spec = SweepSpec::demo();
        spec.warmup = u64::MAX;
        let err = spec.validate().unwrap_err();
        assert!(err.contains("overflows"), "{err}");
        let mut spec = SweepSpec::demo();
        spec.warmup = u64::MAX - spec.measure - spec.drain;
        spec.validate().expect("a total of exactly u64::MAX fits");
    }

    #[test]
    fn validation_rejects_a_job_count_that_overflows() {
        let mut spec = SweepSpec::demo();
        spec.schemes = vec![Scheme::TokenSlot, Scheme::TokenChannel];
        spec.rates = vec![0.05];
        spec.replicas = 1 << 63;
        let err = spec.validate().unwrap_err();
        assert!(err.contains("overflows the job count"), "{err}");
        spec.replicas = u64::MAX / 2;
        spec.validate()
            .expect("2 cells × u64::MAX / 2 replicas fits");
        assert_eq!(spec.total_jobs(), u64::MAX - 1);
    }

    #[test]
    fn validation_rejects_rates_above_one_packet_per_cycle() {
        let mut spec = SweepSpec::demo();
        spec.rates = vec![5.0];
        let err = spec.validate().unwrap_err();
        assert!(err.contains("[0, 1]"), "{err}");
        spec.rates = vec![0.0, 1.0];
        spec.validate().expect("the closed range [0, 1] is valid");
    }

    #[test]
    fn validation_rejects_a_pattern_the_base_cannot_host() {
        let mut spec = SweepSpec::demo();
        spec.patterns = vec![TrafficPattern::Hotspot {
            target: 999,
            fraction: 0.5,
        }];
        let err = spec.validate().unwrap_err();
        assert!(err.contains("hotspot target out of range"), "{err}");
        // The small base has 16 nodes: node 15 exists, a transpose does
        // (4 × 4), and the paper base's 64 nodes host both too.
        spec.patterns = vec![
            TrafficPattern::Hotspot {
                target: 15,
                fraction: 0.5,
            },
            TrafficPattern::Transpose,
        ];
        spec.validate().expect("patterns the small base can host");
        spec.base = SweepBase::Paper;
        spec.validate().expect("patterns the paper base can host");
        spec.patterns = vec![TrafficPattern::Hotspot {
            target: 64,
            fraction: 0.5,
        }];
        assert!(spec.validate().is_err(), "node 64 is past the paper ring");
    }

    #[test]
    fn pre_qos_spec_json_still_loads_with_identical_grid() {
        // A sweep description written before the tenant axis existed must
        // deserialize (serde defaults), keep its cell count, and keep its
        // per-job seeds — resumed checkpoints depend on both.
        let spec = SweepSpec::demo();
        let json = serde_json::to_string(&spec).expect("serialize");
        let legacy = json
            .replace(",\"mixes\":[]", "")
            .replace(",\"admission\":\"None\"", "");
        assert_ne!(legacy, json, "test must actually strip the new fields");
        let back: SweepSpec = serde_json::from_str(&legacy).expect("legacy spec loads");
        assert_eq!(back, spec);
        assert_eq!(back.cells(), spec.cells());
        assert_eq!(back.job_seed(7), spec.job_seed(7));
    }

    #[test]
    fn qos_demo_crosses_every_mix() {
        let spec = SweepSpec::demo_qos();
        spec.validate().expect("qos demo valid");
        assert_eq!(spec.cells(), SweepSpec::demo().cells() * 4);
        let mut mixes_seen = std::collections::BTreeSet::new();
        for cell in 0..spec.cells() {
            mixes_seen.insert(spec.cell_params(cell).3.label());
        }
        assert_eq!(mixes_seen.len(), 4);
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = SweepSpec::demo();
        let json = serde_json::to_string(&spec).expect("serialize");
        let back: SweepSpec = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, spec);
    }
}
