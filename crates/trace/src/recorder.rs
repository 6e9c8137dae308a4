//! Live-run recording: a [`pnoc_obs::InjectSubscriber`] that streams every
//! injection of a `Network` run into PTRC.
//!
//! **Capture boundary**: the recorder sees *injections, not deliveries*. A
//! recorded stream is the network's input; replaying it through
//! [`crate::StreamSource`] re-simulates everything downstream (arbitration,
//! handshakes, faults, retries), which is exactly what makes replay
//! reproduce the original [`pnoc_noc::RunSummary`] byte-identically: same
//! configuration (including the fault-schedule seed), same plan, same
//! ordered injections → same packet ids → same metrics.

use crate::writer::{TraceWriter, WriteStats};
use pnoc_obs::{InjectKind, InjectRecord, InjectSubscriber};
use pnoc_traffic::{MessageKind, TraceEvent};
use std::io::{self, Write};

/// Streams injections into a [`TraceWriter`].
///
/// `on_inject` has no error channel, so the first I/O error is latched and
/// reported by [`TraceRecorder::finish`]; later injections are dropped
/// (the stream is already broken — appending to it would only mask the
/// failure).
pub struct TraceRecorder<W: Write> {
    writer: TraceWriter<W>,
    error: Option<io::Error>,
    recorded: u64,
}

impl<W: Write> std::fmt::Debug for TraceRecorder<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRecorder")
            .field("writer", &self.writer)
            .field("error", &self.error)
            .field("recorded", &self.recorded)
            .finish()
    }
}

impl<W: Write> TraceRecorder<W> {
    /// Record into `writer`.
    pub fn new(writer: TraceWriter<W>) -> Self {
        Self {
            writer,
            error: None,
            recorded: 0,
        }
    }

    /// Injections recorded so far.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Close the stream: report the first latched I/O error, or finish the
    /// writer (final chunk + footer) and return the sink and stats.
    pub fn finish(self) -> io::Result<(W, WriteStats)> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.writer.finish()
    }
}

impl<W: Write + 'static> InjectSubscriber for TraceRecorder<W> {
    fn on_inject(&mut self, rec: InjectRecord) {
        if self.error.is_some() {
            return;
        }
        let ev = TraceEvent {
            cycle: rec.cycle,
            src_core: rec.src_core as usize,
            dst_node: rec.dst_node as usize,
            kind: match rec.kind {
                InjectKind::Request => MessageKind::Request,
                InjectKind::Reply => MessageKind::Reply,
                InjectKind::Data => MessageKind::Data,
            },
            class: rec.class,
        };
        if let Err(e) = self.writer.push(&ev) {
            self.error = Some(e);
        } else {
            self.recorded += 1;
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

/// Run `cfg` under `source` and `plan` while recording every injection into
/// `sink` as a PTRC stream. Returns the run's summary, the sink, and the
/// write statistics.
///
/// The trace header's `length` is `plan.warmup + plan.measure` — the only
/// window in which the open-loop driver injects — and its class table
/// admits every class (the mix behind `source` is unknown here). Replaying
/// the stream with [`crate::replay_run`] under the *same* `cfg` and `plan`
/// reproduces the returned summary byte-identically.
pub fn record_run<W: Write + 'static>(
    cfg: pnoc_noc::NetworkConfig,
    source: &mut dyn pnoc_noc::TrafficSource,
    plan: pnoc_sim::RunPlan,
    sink: W,
) -> io::Result<(pnoc_noc::RunSummary, W, WriteStats)> {
    use crate::format::TraceMeta;

    let meta = TraceMeta::new(
        "recorded",
        cfg.cores(),
        cfg.nodes,
        plan.warmup + plan.measure,
    )
    .with_classes((0..pnoc_traffic::MAX_CLASSES as u8).collect());
    let writer = TraceWriter::new(sink, meta)?;
    let mut net = pnoc_noc::Network::new(cfg)
        .map_err(|why| io::Error::new(io::ErrorKind::InvalidInput, why))?;
    net.attach_recorder(Box::new(TraceRecorder::new(writer)));
    let summary = net.run_open_loop(source, plan);
    let recorder = net
        .detach_recorder()
        .expect("the recorder attached above is still there")
        .into_any()
        .downcast::<TraceRecorder<W>>()
        .expect("detached subscriber is the TraceRecorder we attached");
    let (sink, stats) = recorder.finish()?;
    Ok((summary, sink, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::TraceMeta;

    #[test]
    fn recorder_collects_injections_in_order() {
        let meta = TraceMeta::new("rec", 8, 4, 100).with_classes(vec![0, 1, 2, 3]);
        let writer = TraceWriter::new(Vec::new(), meta).unwrap();
        let mut rec = TraceRecorder::new(writer);
        for i in 0..5u64 {
            rec.on_inject(InjectRecord {
                cycle: i * 2,
                src_core: (i % 8) as u32,
                dst_node: (i % 4) as u32,
                kind: InjectKind::Request,
                class: (i % 4) as u8,
            });
        }
        assert_eq!(rec.recorded(), 5);
        let (bytes, stats) = rec.finish().unwrap();
        assert_eq!(stats.events, 5);
        let back: Vec<_> = crate::StreamingTraceReader::open(bytes.as_slice())
            .unwrap()
            .map(|e| e.unwrap())
            .collect();
        assert_eq!(back.len(), 5);
        assert_eq!(back[4].cycle, 8);
        assert_eq!(back[4].class, 0);
    }

    #[test]
    fn recorder_latches_the_first_io_error() {
        /// A sink that fails after the header is written.
        #[derive(Debug)]
        struct FailSink {
            wrote_header: bool,
        }
        impl Write for FailSink {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.wrote_header {
                    return Err(io::Error::other("disk full"));
                }
                self.wrote_header = true;
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let meta = TraceMeta::new("fail", 2, 2, 1000);
        // Chunk size 1: every push flushes, hitting the broken sink.
        let writer = TraceWriter::with_chunk_size(
            FailSink {
                wrote_header: false,
            },
            meta,
            1,
        )
        .unwrap();
        let mut rec = TraceRecorder::new(writer);
        for i in 0..3u64 {
            rec.on_inject(InjectRecord {
                cycle: i,
                src_core: 0,
                dst_node: 1,
                kind: InjectKind::Data,
                class: 0,
            });
        }
        assert_eq!(rec.recorded(), 0, "after the failure nothing counts");
        let err = rec.finish().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Other);
    }
}
