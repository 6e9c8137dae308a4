//! Wire-format pin: the checked-in `tests/data/golden.ptrc` fixture is the
//! frozen byte-level contract of PTRC v1. The writer must reproduce it
//! byte-for-byte from the same events, the reader must decode it to the
//! same events, and its CRC32 digest is pinned as a constant — any
//! unintended encoding change (varint widths, delta base, CRC polynomial,
//! framing) breaks one of these three locks.
//!
//! If a change is *intended* to alter the wire format, bump
//! [`pnoc_trace::VERSION`], regenerate the fixture with
//! `PNOC_BLESS=1 cargo test -p pnoc-trace --test format_pin`, and update
//! [`GOLDEN_DIGEST`] alongside DESIGN.md §17.

use pnoc_trace::format::crc32;
use pnoc_trace::{StreamingTraceReader, TraceMeta, TraceWriter};
use pnoc_traffic::{PacketKind, TraceEvent};
use std::path::PathBuf;

/// Pinned CRC32 of the entire golden fixture file.
const GOLDEN_DIGEST: u32 = 0x5AC4_FE3D;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/golden.ptrc")
}

/// The frozen event set: every kind, every class, delta edge cases (zero
/// gap, unit gap, a large jump), split across three chunks of four.
fn golden_events() -> Vec<TraceEvent> {
    let kinds = [PacketKind::Request, PacketKind::Reply, PacketKind::Data];
    let deltas = [0u64, 0, 1, 1, 97, 0, 1, 4_294_967_295, 0, 3, 1, 250];
    let mut cycle = 0u64;
    deltas
        .iter()
        .enumerate()
        .map(|(i, &d)| {
            cycle += d;
            TraceEvent {
                cycle,
                src_core: (i * 5) % 16,
                dst_node: (i * 3) % 8,
                kind: kinds[i % 3],
                class: (i % 4) as u8,
            }
        })
        .collect()
}

fn golden_bytes() -> Vec<u8> {
    let events = golden_events();
    let length = events.last().expect("non-empty").cycle + 1;
    let meta = TraceMeta::new("golden-v1", 16, 8, length).with_classes(vec![0, 1, 2, 3]);
    let mut w = TraceWriter::with_chunk_size(Vec::new(), meta, 4).expect("writer");
    for ev in &events {
        w.push(ev).expect("write");
    }
    w.finish().expect("finish").0
}

#[test]
fn writer_reproduces_the_golden_fixture_byte_for_byte() {
    let generated = golden_bytes();
    if std::env::var("PNOC_BLESS").is_ok() {
        std::fs::write(fixture_path(), &generated).expect("bless fixture");
    }
    let checked_in = std::fs::read(fixture_path()).expect(
        "tests/data/golden.ptrc missing — regenerate with PNOC_BLESS=1 \
         cargo test -p pnoc-trace --test format_pin",
    );
    assert_eq!(
        generated, checked_in,
        "the writer's encoding diverged from the frozen PTRC v1 fixture"
    );
}

#[test]
fn golden_fixture_digest_is_pinned() {
    let checked_in = std::fs::read(fixture_path()).expect("fixture present");
    assert_eq!(
        crc32(&checked_in),
        GOLDEN_DIGEST,
        "golden.ptrc changed on disk; wire-format changes require a \
         VERSION bump and a deliberate digest update"
    );
}

#[test]
fn reader_decodes_the_golden_fixture_exactly() {
    let checked_in = std::fs::read(fixture_path()).expect("fixture present");
    let reader = StreamingTraceReader::open(checked_in.as_slice()).expect("open");
    assert_eq!(reader.meta().name, "golden-v1");
    assert_eq!(reader.meta().cores, 16);
    assert_eq!(reader.meta().nodes, 8);
    assert_eq!(reader.meta().classes, vec![0, 1, 2, 3]);
    let decoded: Vec<TraceEvent> = reader.map(|e| e.expect("clean fixture")).collect();
    assert_eq!(decoded, golden_events());
}
