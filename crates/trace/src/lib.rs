//! # pnoc-trace — streaming trace ingestion for the nanophotonic NoC
//!
//! The paper's evaluation is trace-driven: Simics captures of 13
//! multithreaded benchmarks replayed through the photonic interconnect.
//! This crate is the workspace's one trace data path:
//!
//! * **`PTRC`**, a compact binary trace format: framed header with the
//!   trace dimensions and tenant-class table, delta-encoded cycle stamps
//!   and LEB128 varint fields per event, per-chunk CRC32 with embedded
//!   sequence numbers, and an event-count footer ([`format`]).
//! * **Bounded-memory streaming**: [`TraceWriter`] emits chunk-by-chunk;
//!   [`StreamingTraceReader`] iterates events holding one chunk at a time,
//!   so a multi-GB trace ingests in O(chunk) memory. Corrupt input — bit
//!   flips, truncation, reordered chunks, trailing bytes — is rejected as
//!   [`std::io::ErrorKind::InvalidData`] before any event of the damaged
//!   region is yielded; the reader never panics and never produces phantom
//!   events.
//! * **Record → replay, bit-identically**: [`TraceRecorder`] attaches to
//!   the live network's injection hook at run time ([`record_run`]) and
//!   streams every injection out as PTRC; [`StreamSource`] injects a
//!   stream back. Because the capture boundary is *injections, not deliveries*, replay
//!   under the same configuration and plan re-simulates the identical run:
//!   `replay_run` reproduces the recorded [`pnoc_noc::RunSummary`]
//!   byte-identically, fault schedules included ([`recorder`], [`source`]).
//! * **Streaming generation**: [`generate_app`] scales
//!   [`pnoc_traffic::AppProfile`] synthesis and [`generate_mix`] scales the
//!   multi-tenant mixes to arbitrary length without materialization
//!   ([`gen`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod format;
pub mod gen;
pub mod reader;
pub mod recorder;
pub mod source;
pub mod writer;

pub use format::{frame_ranges, TraceMeta, DEFAULT_CHUNK_EVENTS, MAX_CHUNK_EVENTS, VERSION};
pub use gen::{generate_app, generate_mix, MixSpec};
pub use reader::StreamingTraceReader;
pub use recorder::{record_run, TraceRecorder};
pub use source::{replay_run, StreamSource};
pub use writer::{TraceWriter, WriteStats};
