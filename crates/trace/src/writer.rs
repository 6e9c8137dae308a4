//! Chunked PTRC writer.

use crate::format::{
    crc32, pack_kindclass, put_varint, TraceMeta, CHUNK_TAG, DEFAULT_CHUNK_EVENTS, FOOTER_TAG,
    MAX_CHUNK_EVENTS,
};
use pnoc_sim::Cycle;
use pnoc_traffic::{TraceEvent, MAX_CLASSES};
use std::io::{self, Write};

/// Size and framing statistics of a finished write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteStats {
    /// Event chunks emitted.
    pub chunks: u64,
    /// Events emitted.
    pub events: u64,
    /// Total bytes written, header and footer included.
    pub bytes: u64,
}

/// Streams [`TraceEvent`]s into the PTRC format with O(chunk) memory.
///
/// The header is written at construction; events are buffered and flushed
/// as framed, CRC'd chunks of `chunk_events` events; [`TraceWriter::finish`]
/// flushes the final partial chunk and the footer. Output is a pure
/// function of `(meta, chunk size, event sequence)` — no timestamps, no
/// randomness — so identical inputs produce byte-identical streams.
pub struct TraceWriter<W: Write> {
    inner: W,
    meta: TraceMeta,
    class_mask: [bool; MAX_CLASSES],
    chunk_events: usize,
    pending: Vec<TraceEvent>,
    scratch: Vec<u8>,
    last_cycle: Cycle,
    any_event: bool,
    chunks: u64,
    events: u64,
    bytes: u64,
}

impl<W: Write> std::fmt::Debug for TraceWriter<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceWriter")
            .field("meta", &self.meta)
            .field("chunk_events", &self.chunk_events)
            .field("pending", &self.pending.len())
            .field("chunks", &self.chunks)
            .field("events", &self.events)
            .field("bytes", &self.bytes)
            .finish_non_exhaustive()
    }
}

impl<W: Write> TraceWriter<W> {
    /// Validate `meta`, write the header to `inner`, and return the writer
    /// with the default chunk size.
    pub fn new(inner: W, meta: TraceMeta) -> io::Result<Self> {
        Self::with_chunk_size(inner, meta, DEFAULT_CHUNK_EVENTS)
    }

    /// [`TraceWriter::new`] with an explicit chunk size in events
    /// (`1..=MAX_CHUNK_EVENTS`).
    pub fn with_chunk_size(mut inner: W, meta: TraceMeta, chunk_events: usize) -> io::Result<Self> {
        assert!(
            (1..=MAX_CHUNK_EVENTS).contains(&chunk_events),
            "chunk size {chunk_events} outside 1..={MAX_CHUNK_EVENTS}"
        );
        meta.validate()
            .map_err(|why| io::Error::new(io::ErrorKind::InvalidInput, why))?;
        let header = meta.encode();
        inner.write_all(&header)?;
        let class_mask = meta.class_mask();
        Ok(Self {
            inner,
            meta,
            class_mask,
            chunk_events,
            pending: Vec::with_capacity(chunk_events),
            scratch: Vec::new(),
            last_cycle: 0,
            any_event: false,
            chunks: 0,
            events: 0,
            bytes: header.len() as u64,
        })
    }

    /// The metadata this writer was opened with.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Append one event. Events must be cycle-ordered and respect the
    /// header's dimensions and class table (violations are programming
    /// errors and panic). Errors are I/O errors from the underlying sink.
    pub fn push(&mut self, ev: &TraceEvent) -> io::Result<()> {
        assert!(ev.src_core < self.meta.cores, "src core out of range");
        assert!(ev.dst_node < self.meta.nodes, "dst node out of range");
        assert!(ev.cycle < self.meta.length, "event beyond trace length");
        assert!(
            self.class_mask[usize::from(ev.class)],
            "class {} not in the header's class table",
            ev.class
        );
        assert!(
            !self.any_event || ev.cycle >= self.last_cycle,
            "events must be cycle-ordered"
        );
        self.last_cycle = ev.cycle;
        self.any_event = true;
        self.pending.push(*ev);
        if self.pending.len() >= self.chunk_events {
            self.flush_chunk()?;
        }
        Ok(())
    }

    fn flush_chunk(&mut self) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        self.scratch.clear();
        // Frame prefix: tag + length placeholder (patched below).
        self.scratch.push(CHUNK_TAG);
        self.scratch.extend_from_slice(&[0u8; 4]);
        let payload_start = self.scratch.len();
        put_varint(&mut self.scratch, self.chunks);
        put_varint(&mut self.scratch, self.pending.len() as u64);
        let base_cycle = self.pending[0].cycle;
        put_varint(&mut self.scratch, base_cycle);
        let mut prev = base_cycle;
        for ev in &self.pending {
            put_varint(&mut self.scratch, ev.cycle - prev);
            prev = ev.cycle;
            put_varint(&mut self.scratch, ev.src_core as u64);
            put_varint(&mut self.scratch, ev.dst_node as u64);
            self.scratch.push(pack_kindclass(ev.kind, ev.class));
        }
        let payload_len = (self.scratch.len() - payload_start) as u32;
        self.scratch[1..5].copy_from_slice(&payload_len.to_le_bytes());
        let crc = crc32(&self.scratch);
        self.scratch.extend_from_slice(&crc.to_le_bytes());
        self.inner.write_all(&self.scratch)?;
        self.bytes += self.scratch.len() as u64;
        self.chunks += 1;
        self.events += self.pending.len() as u64;
        self.pending.clear();
        Ok(())
    }

    /// Flush the final partial chunk, write the footer, flush the sink, and
    /// return it along with the [`WriteStats`].
    pub fn finish(mut self) -> io::Result<(W, WriteStats)> {
        self.flush_chunk()?;
        self.scratch.clear();
        self.scratch.push(FOOTER_TAG);
        self.scratch.extend_from_slice(&[0u8; 4]);
        let payload_start = self.scratch.len();
        put_varint(&mut self.scratch, self.chunks);
        put_varint(&mut self.scratch, self.events);
        let payload_len = (self.scratch.len() - payload_start) as u32;
        self.scratch[1..5].copy_from_slice(&payload_len.to_le_bytes());
        let crc = crc32(&self.scratch);
        self.scratch.extend_from_slice(&crc.to_le_bytes());
        self.inner.write_all(&self.scratch)?;
        self.bytes += self.scratch.len() as u64;
        self.inner.flush()?;
        let stats = WriteStats {
            chunks: self.chunks,
            events: self.events,
            bytes: self.bytes,
        };
        Ok((self.inner, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnoc_traffic::PacketKind;

    fn ev(cycle: Cycle, src_core: usize, dst_node: usize) -> TraceEvent {
        TraceEvent {
            cycle,
            src_core,
            dst_node,
            kind: PacketKind::Request,
            class: 0,
        }
    }

    #[test]
    fn writer_is_byte_deterministic() {
        let write = || {
            let meta = TraceMeta::new("det", 8, 4, 1000);
            let mut w = TraceWriter::with_chunk_size(Vec::new(), meta, 2).unwrap();
            for i in 0..7u64 {
                w.push(&ev(i * 3, (i % 8) as usize, (i % 4) as usize))
                    .unwrap();
            }
            let (buf, stats) = w.finish().unwrap();
            (buf, stats)
        };
        let (a, sa) = write();
        let (b, sb) = write();
        assert_eq!(a, b, "same events twice must be byte-identical");
        assert_eq!(sa, sb);
        assert_eq!(sa.events, 7);
        assert_eq!(
            sa.chunks, 4,
            "7 events at chunk size 2 = 3 full + 1 partial"
        );
        assert_eq!(sa.bytes, a.len() as u64);
    }

    #[test]
    fn empty_trace_is_header_plus_footer() {
        let meta = TraceMeta::new("empty", 2, 2, 10);
        let w = TraceWriter::new(Vec::new(), meta.clone()).unwrap();
        let (buf, stats) = w.finish().unwrap();
        assert_eq!(stats.chunks, 0);
        assert_eq!(stats.events, 0);
        let header_len = meta.encode().len();
        // Footer: tag(1) + len(4) + two 1-byte varints + crc(4).
        assert_eq!(buf.len(), header_len + 1 + 4 + 2 + 4);
    }

    #[test]
    #[should_panic(expected = "cycle-ordered")]
    fn writer_rejects_disorder() {
        let meta = TraceMeta::new("d", 2, 2, 10);
        let mut w = TraceWriter::new(Vec::new(), meta).unwrap();
        w.push(&ev(5, 0, 0)).unwrap();
        w.push(&ev(4, 0, 0)).unwrap();
    }

    #[test]
    #[should_panic(expected = "class table")]
    fn writer_rejects_undeclared_class() {
        let meta = TraceMeta::new("c", 2, 2, 10); // classes = [0]
        let mut w = TraceWriter::new(Vec::new(), meta).unwrap();
        let mut e = ev(1, 0, 0);
        e.class = 1;
        w.push(&e).unwrap();
    }
}
