//! `trace_replay`: stream `nas.is` PTRC shards (256 cores, 64 nodes)
//! through `generate_app` into files, ingest them with
//! `StreamingTraceReader`, then replay every shard through GHS and DHS with
//! setaside along the path `fleet --replay` takes (`ReplaySpec::run_job`).
//!
//! `nas.is` is phase-gated: one short shard's traffic volume swings by
//! ±40% between seeds. Thirty-two shards per pass average most of that
//! out, so the workload's size depends little on `--seed`.

use crate::common::{bump, ms_since, traced_open_loop, Pass, TracedPass};
use crate::prof::{maybe_span, Layer, Prof};
use crate::stats::Tally;
use pnoc_fleet::{ReplaySpec, SweepBase};
use pnoc_noc::{Network, NetworkConfig, RunSummary, Scheme};
use pnoc_sim::rng::stream_seed;
use pnoc_trace::{generate_app, StreamSource, StreamingTraceReader, DEFAULT_CHUNK_EVENTS};
use pnoc_traffic::{paper_app, AppProfile};
use std::fs::File;
use std::hash::{DefaultHasher, Hasher};
use std::io::{self, BufReader, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

const APP: &str = "nas.is";
const NODES: usize = 64;
const CORES: usize = 256;
const SHARDS: u64 = 32;
const WARMUP: u64 = 1_000;
const MEASURE: u64 = 8_000;
const DRAIN: u64 = 1_000;
/// Each shard covers the whole replay plan.
const LENGTH: u64 = WARMUP + MEASURE + DRAIN;
const SETASIDE: usize = 8;

/// The trace workload for one seed; its shards live in a scratch dir.
pub struct TraceReplay {
    seed: u64,
    spec: ReplaySpec,
    /// Hashes of the first pass's shards: every later pass must match.
    first: Option<Vec<u64>>,
}

/// Events written and decoded per shard.
struct Shards {
    written: Vec<u64>,
    decoded: Vec<u64>,
}

impl TraceReplay {
    pub fn new(seed: u64, dir: &Path) -> Self {
        let spec = ReplaySpec {
            base: SweepBase::Paper,
            schemes: vec![
                Scheme::Ghs { setaside: SETASIDE },
                Scheme::Dhs { setaside: SETASIDE },
            ],
            shards: (0..SHARDS)
                .map(|k| {
                    dir.join(format!("nas_is_{k:02}.ptrc"))
                        .to_string_lossy()
                        .into_owned()
                })
                .collect(),
            seed,
            warmup: WARMUP,
            measure: MEASURE,
            drain: DRAIN,
        };
        Self {
            seed,
            spec,
            first: None,
        }
    }

    pub fn configs(&self) -> Vec<NetworkConfig> {
        self.spec
            .schemes
            .iter()
            .map(|&s| self.spec.config(s))
            .collect()
    }

    fn app() -> AppProfile {
        paper_app(APP).expect("paper app exists")
    }

    /// Write shard `k`; returns the events written.
    fn write(&self, app: &AppProfile, k: usize) -> io::Result<u64> {
        let file = BufWriter::new(File::create(&self.spec.shards[k])?);
        let seed = stream_seed(self.seed, k as u64);
        let (mut sink, stats) =
            generate_app(app, CORES, NODES, LENGTH, seed, DEFAULT_CHUNK_EVENTS, file)?;
        sink.flush()?;
        Ok(stats.events)
    }

    /// Decode every event of shard `k`; returns the count.
    fn ingest(&self, k: usize) -> io::Result<u64> {
        let file = File::open(&self.spec.shards[k])?;
        let mut n = 0u64;
        for ev in StreamingTraceReader::open(BufReader::new(file))? {
            ev?;
            n += 1;
        }
        Ok(n)
    }

    /// Write and ingest every shard; returns (write s, ingest s, counts).
    fn make_shards(&self, mut prof: Option<&mut Prof>) -> (f64, f64, Shards) {
        let app = Self::app();
        let n = self.spec.shards.len();
        let t0 = Instant::now();
        let written = maybe_span(prof.as_deref_mut(), Layer::TraceWrite, || {
            (0..n)
                .map(|k| self.write(&app, k).expect("shard write"))
                .collect()
        });
        let write_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let decoded = maybe_span(prof, Layer::TraceRead, || {
            (0..n)
                .map(|k| self.ingest(k).expect("shard ingest"))
                .collect()
        });
        (
            write_s,
            t0.elapsed().as_secs_f64(),
            Shards { written, decoded },
        )
    }

    /// Check decoded counts against written ones, and every shard's bytes
    /// against the first pass's (same seed, same bytes). Returns the bytes
    /// written.
    fn check_shards(&mut self, tally: &mut Tally, s: &Shards) -> u64 {
        let mut bytes = 0u64;
        let mut hashes = Vec::new();
        for (k, (&w, &d)) in s.written.iter().zip(&s.decoded).enumerate() {
            tally.check(w == d, || {
                format!("trace_replay shard {k}: wrote {w} events, decoded {d}")
            });
            let data = std::fs::read(&self.spec.shards[k]).unwrap_or_default();
            bytes += data.len() as u64;
            let mut h = DefaultHasher::new();
            h.write(&data);
            hashes.push(h.finish());
        }
        let first = self.first.get_or_insert_with(|| hashes.clone());
        tally.check(*first == hashes, || {
            "trace_replay: shard bytes changed between passes".into()
        });
        bytes
    }

    fn add_replay(pass: &mut Pass, s: &RunSummary, ms: f64) {
        pass.job_ms.push(ms);
        pass.sim_cycles += LENGTH;
        pass.delivered += s.delivered;
        pass.latency_weighted += s.avg_latency * s.delivered as f64;
        pass.outputs
            .push(serde_json::to_string(s).expect("summary serializes"));
    }

    /// Every (scheme, shard) pair in `ReplaySpec` order.
    fn jobs(&self) -> Vec<(Scheme, usize)> {
        let n = self.spec.shards.len();
        self.spec
            .schemes
            .iter()
            .flat_map(|&s| (0..n).map(move |k| (s, k)))
            .collect()
    }

    /// The shipped path: `generate_app`, `StreamingTraceReader`, then
    /// `ReplaySpec::run_job` per (scheme, shard). Writing and ingesting the
    /// shards come before the first simulated cycle, so they count as
    /// set-up.
    pub fn untraced(&mut self, tally: &mut Tally) -> Pass {
        let mut pass = Pass::default();
        let t0 = Instant::now();
        let (write_s, read_s, shards) = self.make_shards(None);
        pass.setup_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        for (scheme, k) in self.jobs() {
            let tj = Instant::now();
            let point = self.spec.run_job(scheme, &self.spec.shards[k]);
            let ms = ms_since(tj);
            tally.check(point.is_ok(), || {
                format!("trace_replay {scheme:?} shard {k}: {point:?}")
            });
            if let Ok(p) = point {
                Self::add_replay(&mut pass, &p.summary, ms);
            }
        }
        pass.wall_s = t0.elapsed().as_secs_f64();
        pass.jobs = pass.job_ms.len() as u64;
        self.check_shards(tally, &shards);
        let events = shards.written.iter().sum::<u64>() as f64;
        pass.extra
            .push(("trace_write_events_per_s", "events/s", events / write_s));
        pass.extra
            .push(("trace_ingest_events_per_s", "events/s", events / read_s));
        pass
    }

    /// The same pass with the writes, the ingests and every replay cycle
    /// timed; each replay rebuilds `replay_run` around the instrumented
    /// open loop.
    pub fn traced(&mut self, tally: &mut Tally) -> TracedPass {
        let mut tp = TracedPass::default();
        let mut prof = Prof::new();
        let t0 = Instant::now();
        let (_, _, shards) = self.make_shards(Some(&mut prof));
        tp.pass.setup_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        for (scheme, k) in self.jobs() {
            let tj = Instant::now();
            let s = self.traced_replay(scheme, k, &mut prof, &mut tp);
            let ms = ms_since(tj);
            tally.check(s.is_ok(), || {
                format!("trace_replay {scheme:?} shard {k}: {s:?}")
            });
            if let Ok(s) = s {
                Self::add_replay(&mut tp.pass, &s, ms);
            }
        }
        tp.pass.wall_s = t1.elapsed().as_secs_f64();
        tp.pass.jobs = tp.pass.job_ms.len() as u64;
        tp.capacity_ns = t0.elapsed().as_nanos() as f64;
        let bytes = self.check_shards(tally, &shards);
        let events = shards.written.iter().sum::<u64>() as f64;
        bump(&mut tp.counters, "trace.events", events);
        tp.counters
            .insert("trace.bytes_per_event", bytes as f64 / events);
        tp.prof = prof;
        tp
    }

    /// `ReplaySpec::run_job` → `replay_run`, rebuilt from public calls.
    fn traced_replay(
        &self,
        scheme: Scheme,
        k: usize,
        prof: &mut Prof,
        tp: &mut TracedPass,
    ) -> io::Result<RunSummary> {
        let cfg = self.spec.config(scheme);
        let reader = prof.span(Layer::TraceReplayOpen, || {
            File::open(&self.spec.shards[k])
                .and_then(|f| StreamingTraceReader::open(BufReader::new(f)))
        })?;
        let meta = reader.meta();
        if meta.cores != cfg.cores() || meta.nodes != cfg.nodes {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "shard dimensions",
            ));
        }
        let mut net = prof
            .span(Layer::NocNew, || Network::new(cfg))
            .map_err(|why| io::Error::new(io::ErrorKind::InvalidInput, why))?;
        let mut source = StreamSource::new(reader, cfg.cores_per_node);
        let summary = traced_open_loop(
            &mut net,
            &mut source,
            self.spec.plan(),
            Layer::TraceReplayGenerate,
            prof,
            &mut tp.counters,
        );
        match source.take_error() {
            Some(e) => Err(e),
            None => Ok(summary),
        }
    }
}
