//! Streaming trace generation: application profiles and multi-tenant mixes
//! scaled to arbitrary length in O(chunk) memory.
//!
//! Both generators write chunk-by-chunk through a [`TraceWriter`]; nothing
//! is ever materialized, so trace size is bounded by disk, not memory, and
//! the delta + varint encoding keeps real traces at a handful of bytes per
//! event.

use crate::format::TraceMeta;
use crate::writer::{TraceWriter, WriteStats};
use pnoc_noc::sources::InjectionRequest;
use pnoc_noc::{ClassedSource, TrafficSource};
use pnoc_sim::Cycle;
use pnoc_traffic::pattern::TrafficPattern;
use pnoc_traffic::{AppProfile, TenantMixKind, TraceEvent};
use std::io::{self, Write};

/// Stream an [`AppProfile::synthesize`] run into `sink` as PTRC.
pub fn generate_app<W: Write>(
    app: &AppProfile,
    cores: usize,
    nodes: usize,
    length: Cycle,
    seed: u64,
    chunk_events: usize,
    sink: W,
) -> io::Result<(W, WriteStats)> {
    let meta = TraceMeta::new(app.name, cores, nodes, length);
    let mut writer = TraceWriter::with_chunk_size(sink, meta, chunk_events)?;
    app.synthesize(cores, nodes, length, seed, |ev| writer.push(&ev))?;
    writer.finish()
}

/// Parameters of a multi-tenant mix generation (see [`generate_mix`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixSpec {
    /// The tenant mix to synthesize.
    pub mix: TenantMixKind,
    /// Total offered load, packets/cycle/core (split across tenants).
    pub total_rate: f64,
    /// Nodes on the ring.
    pub nodes: usize,
    /// Cores per node (concentration).
    pub cores_per_node: usize,
    /// Trace length in cycles.
    pub length: Cycle,
    /// RNG seed.
    pub seed: u64,
}

/// Stream a [`TenantMixKind`] mix at `spec.total_rate` packets/cycle/core
/// into `sink` as PTRC, by stepping the simulator's own [`ClassedSource`]
/// cycle-by-cycle — the trace carries exactly the class-tagged injection
/// sequence a live multi-tenant run would offer.
pub fn generate_mix<W: Write>(
    spec: &MixSpec,
    chunk_events: usize,
    sink: W,
) -> io::Result<(W, WriteStats)> {
    let MixSpec {
        mix,
        total_rate,
        nodes,
        cores_per_node,
        length,
        seed,
    } = *spec;
    let tenants = mix.build(total_rate, TrafficPattern::UniformRandom);
    let mut classes: Vec<u8> = tenants.iter().map(|t| t.class).collect();
    classes.sort_unstable();
    classes.dedup();
    let meta = TraceMeta::new(
        format!("mix-{}", mix.label()),
        nodes * cores_per_node,
        nodes,
        length,
    )
    .with_classes(classes);
    let mut writer = TraceWriter::with_chunk_size(sink, meta, chunk_events)?;
    let mut source = ClassedSource::new(
        mix,
        total_rate,
        TrafficPattern::UniformRandom,
        nodes,
        cores_per_node,
        seed,
    );
    let mut buf: Vec<InjectionRequest> = Vec::new();
    for now in 0..length {
        source.generate(now, &mut buf);
        for (src_core, dst_node, kind, class) in buf.drain(..) {
            writer.push(&TraceEvent {
                cycle: now,
                src_core,
                dst_node,
                kind,
                class,
            })?;
        }
    }
    writer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::StreamingTraceReader;
    use pnoc_traffic::paper_app;

    #[test]
    fn generated_app_trace_round_trips_the_synthesized_stream() {
        let app = paper_app("fft").unwrap();
        let (bytes, stats) = generate_app(&app, 32, 8, 3_000, 9, 256, Vec::new()).unwrap();
        assert!(stats.events > 0);
        assert_eq!(stats.bytes, bytes.len() as u64);

        let reader = StreamingTraceReader::open(bytes.as_slice()).unwrap();
        assert_eq!(reader.meta().name, "fft");
        let decoded: Vec<TraceEvent> = reader.map(|ev| ev.unwrap()).collect();

        // The decoded stream is exactly what the synthesizer emitted.
        let mut reference = Vec::new();
        app.synthesize(32, 8, 3_000, 9, |ev| {
            reference.push(ev);
            Ok(())
        })
        .unwrap();
        assert_eq!(decoded.len() as u64, stats.events);
        assert_eq!(decoded, reference);
    }

    #[test]
    fn generation_is_byte_deterministic() {
        let app = paper_app("nas.is").unwrap();
        let (a, _) = generate_app(&app, 16, 4, 2_000, 3, 128, Vec::new()).unwrap();
        let (b, _) = generate_app(&app, 16, 4, 2_000, 3, 128, Vec::new()).unwrap();
        assert_eq!(a, b);
        let (c, _) = generate_app(&app, 16, 4, 2_000, 4, 128, Vec::new()).unwrap();
        assert_ne!(a, c, "different seeds give different streams");
    }

    #[test]
    fn generated_mix_traces_carry_their_classes() {
        for mix in TenantMixKind::all() {
            let spec = MixSpec {
                mix,
                total_rate: 0.1,
                nodes: 8,
                cores_per_node: 2,
                length: 2_000,
                seed: 42,
            };
            let (bytes, stats) = generate_mix(&spec, 256, Vec::new()).unwrap();
            assert!(stats.events > 0, "{mix:?} generated nothing");
            let reader = StreamingTraceReader::open(bytes.as_slice()).unwrap();
            assert_eq!(reader.meta().classes.len(), mix.classes());
            let mut seen = [false; pnoc_traffic::MAX_CLASSES];
            for ev in reader {
                let ev = ev.unwrap();
                seen[usize::from(ev.class)] = true;
            }
            let populated = seen.iter().filter(|&&s| s).count();
            assert_eq!(populated, mix.classes(), "{mix:?} classes populated");
        }
    }
}
