//! Bounded-memory PTRC reader.

use crate::format::{
    crc32, invalid, read_header, unpack_kindclass, Cursor, TraceMeta, CHUNK_TAG, FOOTER_TAG,
    MAX_CHUNK_PAYLOAD,
};
use pnoc_sim::Cycle;
use pnoc_traffic::{TraceEvent, MAX_CLASSES};
use std::io::{self, Read};

/// Iterates the events of a PTRC stream one chunk at a time.
///
/// Peak memory is one decoded chunk plus one frame buffer — O(chunk size),
/// never O(trace) — so a multi-GB trace ingests in a few hundred KB.
///
/// **Corruption contract**: a chunk is CRC-validated *before any of its
/// events are yielded*, so a corrupted stream never produces phantom
/// events; every malformation (bit flip, truncation, reordered or missing
/// chunks, trailing garbage, bad footer totals) surfaces as an
/// [`io::ErrorKind::InvalidData`] error, never a panic. After yielding an
/// error the iterator is fused.
pub struct StreamingTraceReader<R: Read> {
    inner: R,
    meta: TraceMeta,
    class_mask: [bool; MAX_CLASSES],
    /// Decoded events of the current chunk, consumed front to back.
    chunk: Vec<TraceEvent>,
    chunk_pos: usize,
    frame: Vec<u8>,
    next_seq: u64,
    chunks_seen: u64,
    events_seen: u64,
    last_cycle: Cycle,
    any_event: bool,
    state: State,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Streaming,
    Done,
    Failed,
}

impl<R: Read> std::fmt::Debug for StreamingTraceReader<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingTraceReader")
            .field("meta", &self.meta)
            .field("chunks_seen", &self.chunks_seen)
            .field("events_seen", &self.events_seen)
            .field("state", &self.state)
            .finish_non_exhaustive()
    }
}

impl<R: Read> StreamingTraceReader<R> {
    /// Parse and CRC-check the header, returning a reader positioned at the
    /// first event.
    pub fn open(mut inner: R) -> io::Result<Self> {
        let (meta, _) = read_header(&mut inner)?;
        let class_mask = meta.class_mask();
        Ok(Self {
            inner,
            meta,
            class_mask,
            chunk: Vec::new(),
            chunk_pos: 0,
            frame: Vec::new(),
            next_seq: 0,
            chunks_seen: 0,
            events_seen: 0,
            last_cycle: 0,
            any_event: false,
            state: State::Streaming,
        })
    }

    /// The stream's header metadata.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Events yielded so far.
    pub fn events_read(&self) -> u64 {
        self.events_seen
    }

    /// Read one frame (tag + length + payload + CRC) into `self.frame` and
    /// return the tag. CRC is verified here, over the entire frame.
    fn read_frame(&mut self) -> io::Result<u8> {
        let mut head = [0u8; 5];
        self.inner.read_exact(&mut head).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                invalid("stream truncated: frame expected (missing footer?)")
            } else {
                e
            }
        })?;
        let tag = head[0];
        if tag != CHUNK_TAG && tag != FOOTER_TAG {
            return Err(invalid(format!("unknown frame tag {tag:#04x}")));
        }
        let len = u32::from_le_bytes(head[1..5].try_into().expect("4 bytes")) as usize;
        if len > MAX_CHUNK_PAYLOAD {
            return Err(invalid(format!(
                "frame payload {len} exceeds the {MAX_CHUNK_PAYLOAD}-byte bound"
            )));
        }
        self.frame.clear();
        self.frame.extend_from_slice(&head);
        let body_start = self.frame.len();
        self.frame.resize(body_start + len + 4, 0);
        self.inner
            .read_exact(&mut self.frame[body_start..])
            .map_err(|e| {
                if e.kind() == io::ErrorKind::UnexpectedEof {
                    invalid("stream truncated mid-frame")
                } else {
                    e
                }
            })?;
        let crc_at = self.frame.len() - 4;
        let stored = u32::from_le_bytes(self.frame[crc_at..].try_into().expect("4 bytes"));
        let computed = crc32(&self.frame[..crc_at]);
        if stored != computed {
            return Err(invalid(format!(
                "frame CRC mismatch (stored {stored:#010x}, computed {computed:#010x})"
            )));
        }
        Ok(tag)
    }

    /// Decode the chunk payload in `self.frame` into `self.chunk`.
    fn decode_chunk(&mut self) -> io::Result<()> {
        let payload = &self.frame[5..self.frame.len() - 4];
        let mut c = Cursor::new(payload);
        let seq = c.varint()?;
        if seq != self.next_seq {
            return Err(invalid(format!(
                "chunk sequence {seq} where {} was expected (reordered or dropped chunk)",
                self.next_seq
            )));
        }
        let count = c.varint()?;
        if count == 0 {
            return Err(invalid("empty chunk"));
        }
        // Every event costs at least 4 payload bytes; a corrupt count
        // cannot make us allocate beyond the payload bound.
        if count > (c.remaining() as u64) / 4 + 1 {
            return Err(invalid(format!(
                "chunk claims {count} events in a {}-byte payload",
                payload.len()
            )));
        }
        let base_cycle = c.varint()?;
        if self.any_event && base_cycle < self.last_cycle {
            return Err(invalid(format!(
                "chunk base cycle {base_cycle} before previous event at {}",
                self.last_cycle
            )));
        }
        self.chunk.clear();
        self.chunk.reserve(count as usize);
        let mut cycle = base_cycle;
        for i in 0..count {
            let delta = c.varint()?;
            cycle = cycle
                .checked_add(delta)
                .ok_or_else(|| invalid("cycle overflow"))?;
            if i == 0 && delta != 0 {
                return Err(invalid("first event must sit at the chunk base cycle"));
            }
            if cycle >= self.meta.length {
                return Err(invalid(format!(
                    "cycle {cycle} beyond trace length {}",
                    self.meta.length
                )));
            }
            let src_core = c.varint()?;
            if src_core >= self.meta.cores as u64 {
                return Err(invalid(format!(
                    "src_core {src_core} out of range (trace has {} cores)",
                    self.meta.cores
                )));
            }
            let dst_node = c.varint()?;
            if dst_node >= self.meta.nodes as u64 {
                return Err(invalid(format!(
                    "dst_node {dst_node} out of range (trace has {} nodes)",
                    self.meta.nodes
                )));
            }
            let (kind, class) = unpack_kindclass(c.u8()?)?;
            if !self.class_mask[usize::from(class)] {
                return Err(invalid(format!(
                    "class {class} not in the header's class table"
                )));
            }
            self.chunk.push(TraceEvent {
                cycle,
                src_core: src_core as usize,
                dst_node: dst_node as usize,
                kind,
                class,
            });
        }
        c.finish("chunk")?;
        self.last_cycle = cycle;
        self.any_event = true;
        self.chunk_pos = 0;
        self.next_seq += 1;
        self.chunks_seen += 1;
        self.events_seen += count;
        Ok(())
    }

    /// Decode the footer payload in `self.frame` and verify its totals,
    /// then confirm the stream ends here.
    fn decode_footer(&mut self) -> io::Result<()> {
        let payload = &self.frame[5..self.frame.len() - 4];
        let mut c = Cursor::new(payload);
        let total_chunks = c.varint()?;
        let total_events = c.varint()?;
        c.finish("footer")?;
        if total_chunks != self.chunks_seen || total_events != self.events_seen {
            return Err(invalid(format!(
                "footer totals ({total_chunks} chunks, {total_events} events) disagree with \
                 the stream ({} chunks, {} events)",
                self.chunks_seen, self.events_seen
            )));
        }
        let mut probe = [0u8; 1];
        match self.inner.read(&mut probe) {
            Ok(0) => Ok(()),
            Ok(_) => Err(invalid("trailing bytes after the footer")),
            Err(e) => Err(e),
        }
    }

    fn advance(&mut self) -> Option<io::Result<TraceEvent>> {
        loop {
            if self.chunk_pos < self.chunk.len() {
                let ev = self.chunk[self.chunk_pos];
                self.chunk_pos += 1;
                return Some(Ok(ev));
            }
            match self.read_frame() {
                Ok(CHUNK_TAG) => {
                    if let Err(e) = self.decode_chunk() {
                        self.state = State::Failed;
                        return Some(Err(e));
                    }
                }
                Ok(_) => {
                    // Footer: validate totals and end-of-stream, then stop.
                    self.state = State::Done;
                    return match self.decode_footer() {
                        Ok(()) => None,
                        Err(e) => {
                            self.state = State::Failed;
                            Some(Err(e))
                        }
                    };
                }
                Err(e) => {
                    self.state = State::Failed;
                    return Some(Err(e));
                }
            }
        }
    }
}

impl<R: Read> Iterator for StreamingTraceReader<R> {
    type Item = io::Result<TraceEvent>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.state != State::Streaming {
            return None;
        }
        self.advance()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::TraceWriter;
    use pnoc_traffic::PacketKind;

    fn ev(cycle: Cycle, src_core: usize, dst_node: usize, class: u8) -> TraceEvent {
        TraceEvent {
            cycle,
            src_core,
            dst_node,
            kind: PacketKind::Request,
            class,
        }
    }

    fn sample_bytes(chunk_size: usize) -> (Vec<TraceEvent>, Vec<u8>) {
        let meta = TraceMeta::new("s", 8, 4, 1000).with_classes(vec![0, 2]);
        let events: Vec<TraceEvent> = (0..25u64)
            .map(|i| {
                ev(
                    i * 7 % 900,
                    (i % 8) as usize,
                    (i % 4) as usize,
                    if i % 3 == 0 { 2 } else { 0 },
                )
            })
            .scan(0u64, |max, mut e| {
                // Force monotone cycles.
                if e.cycle < *max {
                    e.cycle = *max;
                }
                *max = e.cycle;
                Some(e)
            })
            .collect();
        let mut w = TraceWriter::with_chunk_size(Vec::new(), meta, chunk_size).unwrap();
        for e in &events {
            w.push(e).unwrap();
        }
        let (buf, _) = w.finish().unwrap();
        (events, buf)
    }

    #[test]
    fn round_trips_across_chunk_sizes() {
        for chunk_size in [1, 2, 7, 25, 64] {
            let (events, bytes) = sample_bytes(chunk_size);
            let r = StreamingTraceReader::open(bytes.as_slice()).unwrap();
            let back: Vec<TraceEvent> = r.map(|e| e.unwrap()).collect();
            assert_eq!(back, events, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn reader_is_fused_after_error() {
        let (_, mut bytes) = sample_bytes(4);
        // Flip a bit inside the first chunk's payload.
        let (header_len, frames) = crate::format::frame_ranges(&bytes).unwrap();
        bytes[frames[0].start + 8] ^= 0x01;
        assert!(frames[0].start >= header_len);
        let mut r = StreamingTraceReader::open(bytes.as_slice()).unwrap();
        let first = r.next().unwrap();
        assert_eq!(first.unwrap_err().kind(), io::ErrorKind::InvalidData);
        assert!(r.next().is_none(), "iterator must be fused after an error");
    }

    #[test]
    fn truncated_stream_is_invalid_not_short() {
        let (_, bytes) = sample_bytes(4);
        // Cut the footer off entirely: a reader that treated EOF as a clean
        // end would silently accept a partial trace.
        let (_, frames) = crate::format::frame_ranges(&bytes).unwrap();
        let cut = frames[frames.len() - 1].start;
        let r = StreamingTraceReader::open(&bytes[..cut]).unwrap();
        let last = r.last().unwrap();
        assert_eq!(last.unwrap_err().kind(), io::ErrorKind::InvalidData);
    }
}
