//! Corruption fuzzing of the PTRC loader, per the correctness contract:
//! hostile bytes are *rejected*, never trusted. Every single-byte bit flip,
//! every truncation length, and chunk reordering must surface as
//! [`std::io::ErrorKind::InvalidData`] — the reader never panics, and the
//! events it yields before detecting damage are always a prefix of the true
//! stream (CRC validation precedes yielding, so no phantom events from a
//! damaged region ever escape).

use pnoc_trace::{frame_ranges, StreamingTraceReader, TraceMeta, TraceWriter};
use pnoc_traffic::{PacketKind, TraceEvent, MAX_CLASSES};
use std::io;

const KINDS: [PacketKind; 3] = [PacketKind::Request, PacketKind::Reply, PacketKind::Data];

/// A small but structurally complete event set: multiple chunks, all
/// kinds, all classes, dense and sparse cycle gaps.
fn sample_events() -> Vec<TraceEvent> {
    let mut events = Vec::new();
    let mut cycle = 0u64;
    for i in 0..14u64 {
        cycle += [0, 1, 1, 97][i as usize % 4];
        events.push(TraceEvent {
            cycle,
            src_core: (i as usize * 3) % 8,
            dst_node: (i as usize * 5) % 4,
            kind: KINDS[i as usize % 3],
            class: (i % MAX_CLASSES as u64) as u8,
        });
    }
    events
}

/// Encode the sample with chunk size 4 → header + 4 chunks + footer.
fn sample_ptrc() -> (Vec<u8>, Vec<TraceEvent>) {
    let events = sample_events();
    let length = events.last().expect("non-empty").cycle + 1;
    let meta = TraceMeta::new("corrupt-harness", 8, 4, length)
        .with_classes((0..MAX_CLASSES as u8).collect());
    let mut w = TraceWriter::with_chunk_size(Vec::new(), meta, 4).expect("writer");
    for ev in &events {
        w.push(ev).expect("write");
    }
    let (bytes, _) = w.finish().expect("finish");
    (bytes, events)
}

/// The mutation engine: every single-byte bit flip (low bit and
/// full-byte inversion at every offset) and every truncation length.
fn mutations(buf: &[u8]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for i in 0..buf.len() {
        for mask in [0x01u8, 0xFF] {
            let mut m = buf.to_vec();
            m[i] ^= mask;
            out.push(m);
        }
    }
    for len in 0..buf.len() {
        out.push(buf[..len].to_vec());
    }
    out
}

/// Drain a PTRC stream: Ok events yielded before the first error, plus the
/// error (if any). Opening failures count as zero events + the error.
fn drain_ptrc(bytes: &[u8]) -> (Vec<TraceEvent>, Option<io::Error>) {
    let reader = match StreamingTraceReader::open(bytes) {
        Ok(r) => r,
        Err(e) => return (Vec::new(), Some(e)),
    };
    let mut events = Vec::new();
    for item in reader {
        match item {
            Ok(ev) => events.push(ev),
            Err(e) => return (events, Some(e)),
        }
    }
    (events, None)
}

#[test]
fn ptrc_rejects_every_bit_flip_and_truncation_without_phantom_events() {
    let (valid, events) = sample_ptrc();
    // Sanity: the untouched buffer decodes completely.
    let (clean, err) = drain_ptrc(&valid);
    assert!(err.is_none(), "valid buffer must decode: {err:?}");
    assert_eq!(clean, events);

    for (case, mutated) in mutations(&valid).into_iter().enumerate() {
        let (yielded, err) = drain_ptrc(&mutated);
        let err =
            err.unwrap_or_else(|| panic!("mutation {case} ({} bytes) was accepted", mutated.len()));
        assert_eq!(
            err.kind(),
            io::ErrorKind::InvalidData,
            "mutation {case}: wrong error kind: {err}"
        );
        assert!(
            yielded.len() <= events.len() && yielded == events[..yielded.len()],
            "mutation {case}: yielded events are not a prefix of the true stream"
        );
    }
}

#[test]
fn ptrc_rejects_reordered_and_duplicated_chunks() {
    let (valid, _) = sample_ptrc();
    let (header_len, frames) = frame_ranges(&valid).expect("structure");
    assert!(frames.len() >= 3, "need ≥2 chunks + footer, got {frames:?}");

    // Swap the first two chunk frames: every chunk is individually intact
    // (CRC passes), so only the embedded sequence number can catch this.
    let mut swapped = valid[..header_len].to_vec();
    swapped.extend_from_slice(&valid[frames[1].clone()]);
    swapped.extend_from_slice(&valid[frames[0].clone()]);
    for f in &frames[2..] {
        swapped.extend_from_slice(&valid[f.clone()]);
    }
    let (yielded, err) = drain_ptrc(&swapped);
    assert_eq!(
        err.expect("reorder must be rejected").kind(),
        io::ErrorKind::InvalidData
    );
    assert!(
        yielded.is_empty(),
        "no event of an out-of-order chunk may leak"
    );

    // Duplicate the first chunk: same defense.
    let mut duped = valid[..frames[0].end].to_vec();
    duped.extend_from_slice(&valid[frames[0].clone()]);
    for f in &frames[1..] {
        duped.extend_from_slice(&valid[f.clone()]);
    }
    let (_, err) = drain_ptrc(&duped);
    assert_eq!(
        err.expect("duplicate must be rejected").kind(),
        io::ErrorKind::InvalidData
    );
}

#[test]
fn ptrc_rejects_trailing_garbage_after_the_footer() {
    let (valid, events) = sample_ptrc();
    for garbage in [&[0u8][..], &[0xFF, 0x00, 0x01]] {
        let mut extended = valid.clone();
        extended.extend_from_slice(garbage);
        let (yielded, err) = drain_ptrc(&extended);
        assert_eq!(
            err.expect("trailing bytes rejected").kind(),
            io::ErrorKind::InvalidData
        );
        // Damage is strictly after the data: the full stream was yielded.
        assert_eq!(yielded, events);
    }
}
