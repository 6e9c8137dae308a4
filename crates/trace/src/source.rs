//! Replay: feeding a PTRC stream back into a live network.
//!
//! A decoded [`TraceEvent`] already carries the simulator's own
//! `PacketKind` and class, so turning it into an injection request is a
//! field copy; what was recorded is what gets injected.

use crate::reader::StreamingTraceReader;
use pnoc_noc::sources::InjectionRequest;
use pnoc_noc::{Network, NetworkConfig, RunSummary, TrafficSource};
use pnoc_sim::{Cycle, RunPlan};
use pnoc_traffic::TraceEvent;
use std::io::{self, Read};

/// A [`TrafficSource`] that replays a PTRC stream in bounded memory (the
/// application-trace experiments of Fig. 10). Local (same-node) events are
/// skipped, since local delivery bypasses the optical network; every other
/// event becomes one injection request carrying its kind and class as they
/// were recorded.
///
/// `generate` has no error channel, so the first read error is latched
/// (check [`StreamSource::take_error`] after the run) and the source
/// reports itself exhausted; a replay on a corrupt trace stops instead of
/// silently injecting a prefix and calling it a run.
#[derive(Debug)]
pub struct StreamSource<R: Read> {
    reader: StreamingTraceReader<R>,
    pending: Option<TraceEvent>,
    cores_per_node: usize,
    error: Option<io::Error>,
    drained: bool,
}

impl<R: Read> StreamSource<R> {
    /// Replay `reader` on a network with `cores_per_node`-way concentration.
    pub fn new(reader: StreamingTraceReader<R>, cores_per_node: usize) -> Self {
        assert!(cores_per_node > 0, "cores_per_node must be positive");
        Self {
            reader,
            pending: None,
            cores_per_node,
            error: None,
            drained: false,
        }
    }

    /// The stream's header metadata.
    pub fn meta(&self) -> &crate::format::TraceMeta {
        self.reader.meta()
    }

    /// The first read error, if the stream turned out to be corrupt.
    pub fn take_error(&mut self) -> Option<io::Error> {
        self.error.take()
    }

    fn pump(&mut self) {
        if self.pending.is_some() || self.drained {
            return;
        }
        match self.reader.next() {
            Some(Ok(ev)) => self.pending = Some(ev),
            Some(Err(e)) => {
                self.error = Some(e);
                self.drained = true;
            }
            None => self.drained = true,
        }
    }
}

impl<R: Read> TrafficSource for StreamSource<R> {
    fn generate(&mut self, now: Cycle, out: &mut Vec<InjectionRequest>) {
        loop {
            self.pump();
            let Some(ev) = self.pending else { return };
            if ev.cycle > now {
                return;
            }
            self.pending = None;
            if ev.cycle < now {
                // Caller jumped ahead; skipped cycles' events are skipped
                // too.
                continue;
            }
            let src_node = ev.src_core / self.cores_per_node;
            if src_node == ev.dst_node {
                // Local delivery bypasses the optical network.
                continue;
            }
            out.push((ev.src_core, ev.dst_node, ev.kind, ev.class));
        }
    }

    fn exhausted(&self) -> bool {
        self.drained && self.pending.is_none()
    }
}

/// Replay a recorded PTRC stream under `cfg` and `plan` and return the
/// resulting [`RunSummary`].
///
/// **Replay-exactness contract**: for a stream produced by
/// `record_run(cfg, source, plan, ..)`, `replay_run(cfg, reader, plan)`
/// returns a summary whose serialized JSON is byte-identical to the
/// recorded run's — the configuration carries the fault-schedule seed, the
/// plan recomputes the measurement window, and the stream carries the
/// injections in order, so the simulation is the same simulation. The
/// stream's dimensions must match `cfg` (checked; `InvalidData` otherwise),
/// and any corruption discovered mid-replay aborts with the read error
/// rather than returning a partial run's summary.
pub fn replay_run<R: Read>(
    cfg: NetworkConfig,
    reader: StreamingTraceReader<R>,
    plan: RunPlan,
) -> io::Result<RunSummary> {
    let meta = reader.meta();
    if meta.cores != cfg.cores() || meta.nodes != cfg.nodes {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "trace dimensions ({} cores, {} nodes) do not match the network \
                 ({} cores, {} nodes)",
                meta.cores,
                meta.nodes,
                cfg.cores(),
                cfg.nodes
            ),
        ));
    }
    let mut net =
        Network::new(cfg).map_err(|why| io::Error::new(io::ErrorKind::InvalidInput, why))?;
    let mut source = StreamSource::new(reader, cfg.cores_per_node);
    let summary = net.run_open_loop(&mut source, plan);
    if let Some(e) = source.take_error() {
        return Err(e);
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::TraceMeta;
    use crate::writer::TraceWriter;
    use pnoc_traffic::PacketKind;

    fn ptrc(events: &[TraceEvent], meta: TraceMeta) -> Vec<u8> {
        let mut w = TraceWriter::with_chunk_size(Vec::new(), meta, 2).unwrap();
        for e in events {
            w.push(e).unwrap();
        }
        w.finish().unwrap().0
    }

    #[test]
    fn stream_source_replays_and_skips_local() {
        // Core 0 lives on node 0, so the first event is local and skipped.
        let meta = TraceMeta::new("t", 8, 4, 100);
        let events = [
            TraceEvent {
                cycle: 3,
                src_core: 0,
                dst_node: 0,
                kind: PacketKind::Request,
                class: 0,
            },
            TraceEvent {
                cycle: 3,
                src_core: 0,
                dst_node: 2,
                kind: PacketKind::Request,
                class: 0,
            },
            TraceEvent {
                cycle: 7,
                src_core: 5,
                dst_node: 1,
                kind: PacketKind::Reply,
                class: 0,
            },
        ];
        let bytes = ptrc(&events, meta);
        let reader = StreamingTraceReader::open(bytes.as_slice()).unwrap();
        let mut src = StreamSource::new(reader, 2);
        let mut out = Vec::new();
        for t in 0..10 {
            src.generate(t, &mut out);
        }
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], (0, 2, PacketKind::Request, 0));
        assert_eq!(out[1], (5, 1, PacketKind::Reply, 0));
        assert!(src.exhausted());
    }

    #[test]
    fn stream_source_latches_read_errors() {
        let meta = TraceMeta::new("t", 8, 4, 100);
        let events = [
            TraceEvent {
                cycle: 1,
                src_core: 1,
                dst_node: 2,
                kind: PacketKind::Data,
                class: 0,
            },
            TraceEvent {
                cycle: 2,
                src_core: 2,
                dst_node: 3,
                kind: PacketKind::Data,
                class: 0,
            },
            TraceEvent {
                cycle: 3,
                src_core: 3,
                dst_node: 1,
                kind: PacketKind::Data,
                class: 0,
            },
        ];
        let mut bytes = ptrc(&events, meta);
        // Corrupt the second chunk (chunk size is 2: events 0-1, then 2).
        let (_, frames) = crate::format::frame_ranges(&bytes).unwrap();
        bytes[frames[1].start + 7] ^= 0x10;
        let reader = StreamingTraceReader::open(bytes.as_slice()).unwrap();
        let mut src = StreamSource::new(reader, 2);
        let mut out = Vec::new();
        for t in 0..10 {
            src.generate(t, &mut out);
        }
        assert_eq!(out.len(), 2, "the intact first chunk still replays");
        assert!(src.exhausted(), "a corrupt stream reports exhaustion");
        let err = src.take_error().expect("the read error is latched");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn replay_rejects_dimension_mismatch() {
        let meta = TraceMeta::new("t", 8, 4, 100);
        let bytes = ptrc(&[], meta);
        let cfg = NetworkConfig::small(pnoc_noc::Scheme::TokenChannel);
        let reader = StreamingTraceReader::open(bytes.as_slice()).unwrap();
        let err = replay_run(cfg, reader, RunPlan::quick()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("do not match"));
    }
}
