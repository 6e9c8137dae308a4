//! Round-trip properties of the PTRC format: whatever a [`TraceWriter`]
//! accepts, a [`StreamingTraceReader`] returns identically — across chunk
//! sizes, cycle-delta extremes (0 gaps, `u32::MAX`-cycle jumps), every
//! [`PacketKind`], and every tenant class — and the writer itself is
//! byte-deterministic.

use pnoc_trace::{StreamingTraceReader, TraceMeta, TraceWriter, DEFAULT_CHUNK_EVENTS};
use pnoc_traffic::{PacketKind, TraceEvent, MAX_CLASSES};
use proptest::collection::vec;
use proptest::prelude::*;

const KINDS: [PacketKind; 3] = [PacketKind::Request, PacketKind::Reply, PacketKind::Data];

/// Raw material for one event: (cycle delta, src draw, dst draw, kind draw,
/// class draw). Deltas mix dense traffic (0, 1), ordinary gaps, and the
/// pathological `u32::MAX` jump that stresses the varint encoder.
fn raw_event() -> impl Strategy<Value = (u64, usize, usize, usize, u8)> {
    (
        prop_oneof![
            Just(0u64),
            Just(1u64),
            0u64..1_000,
            Just(u64::from(u32::MAX)),
        ],
        any::<usize>(),
        any::<usize>(),
        0usize..3,
        0u8..(MAX_CLASSES as u8),
    )
}

/// Materialize raw draws into a cycle-monotone event stream for the dims.
fn build_events(
    raw: &[(u64, usize, usize, usize, u8)],
    cores: usize,
    nodes: usize,
) -> Vec<TraceEvent> {
    let mut cycle = 0u64;
    raw.iter()
        .map(|&(delta, src, dst, kind, class)| {
            cycle += delta;
            TraceEvent {
                cycle,
                src_core: src % cores,
                dst_node: dst % nodes,
                kind: KINDS[kind],
                class,
            }
        })
        .collect()
}

fn meta_for(events: &[TraceEvent], cores: usize, nodes: usize) -> TraceMeta {
    let length = events.last().map_or(1, |e| e.cycle + 1);
    TraceMeta::new("prop", cores, nodes, length).with_classes((0..MAX_CLASSES as u8).collect())
}

fn encode(events: &[TraceEvent], meta: &TraceMeta, chunk: usize) -> Vec<u8> {
    let mut w = TraceWriter::with_chunk_size(Vec::new(), meta.clone(), chunk).expect("writer");
    for ev in events {
        w.push(ev).expect("in-memory write");
    }
    let (bytes, stats) = w.finish().expect("finish");
    assert_eq!(stats.events, events.len() as u64);
    assert_eq!(stats.bytes, bytes.len() as u64);
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn write_then_stream_read_is_identity(
        cores in 1usize..128,
        nodes in 1usize..64,
        raw in vec(raw_event(), 0..200),
        chunk in prop_oneof![Just(1usize), Just(2), Just(7), Just(64), Just(DEFAULT_CHUNK_EVENTS)],
    ) {
        let events = build_events(&raw, cores, nodes);
        let meta = meta_for(&events, cores, nodes);
        let bytes = encode(&events, &meta, chunk);

        let reader = StreamingTraceReader::open(bytes.as_slice()).expect("open");
        prop_assert_eq!(reader.meta().cores, cores);
        prop_assert_eq!(reader.meta().nodes, nodes);
        let back: Vec<TraceEvent> = reader
            .map(|e| e.expect("clean stream"))
            .collect();
        prop_assert_eq!(back, events);
    }

    #[test]
    fn writer_is_byte_deterministic(
        cores in 1usize..64,
        nodes in 1usize..32,
        raw in vec(raw_event(), 0..120),
        chunk in 1usize..64,
    ) {
        let events = build_events(&raw, cores, nodes);
        let meta = meta_for(&events, cores, nodes);
        let once = encode(&events, &meta, chunk);
        let twice = encode(&events, &meta, chunk);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn chunk_size_never_changes_the_decoded_stream(
        cores in 1usize..32,
        nodes in 1usize..16,
        raw in vec(raw_event(), 1..150),
    ) {
        let events = build_events(&raw, cores, nodes);
        let meta = meta_for(&events, cores, nodes);
        let reference: Vec<TraceEvent> =
            StreamingTraceReader::open(encode(&events, &meta, 1).as_slice())
                .expect("open")
                .map(|e| e.expect("clean"))
                .collect();
        for chunk in [2usize, 5, 33, 1024] {
            let decoded: Vec<TraceEvent> =
                StreamingTraceReader::open(encode(&events, &meta, chunk).as_slice())
                    .expect("open")
                    .map(|e| e.expect("clean"))
                    .collect();
            prop_assert_eq!(&decoded, &reference, "chunk size {}", chunk);
        }
    }
}
