//! # pnoc-obs — observability for the nanophotonic NoC
//!
//! The paper's headline figures are latency-vs-load curves that matter most
//! *near saturation* — exactly where end-to-end averages stop explaining
//! anything. This crate is the workspace's observability layer: structured
//! packet-lifecycle traces, per-channel occupancy time-series, live
//! injection subscribers, and a latency recorder whose range is effectively
//! unbounded (so tail percentiles are never silently clipped).
//!
//! Design rules:
//!
//! * **One build, attached at run time.** The simulator (`pnoc-noc`) always
//!   compiles its trace, sampler and injection-recorder hooks; each is
//!   detached by default and costs one predictable branch, with the
//!   recording arm kept out of line. Any run of the shipped binary can be
//!   traced, sampled or recorded without a rebuild.
//! * **Observation never feeds back.** Nothing here is read by simulation
//!   state; traces and samples are append-only outputs, and attaching them
//!   leaves a run's summary byte-identical. The crate never reads the wall
//!   clock (it sits inside the `pnoc-verify` `no-wall-clock` lint scope).
//! * **Bounded memory.** The event trace is a fixed-capacity ring
//!   ([`RingTrace`]), the occupancy sampler has an explicit sample cap, and
//!   both count what they drop instead of silently truncating.
//!
//! The one component that is *always* on is [`LatencyRecorder`]: it replaces
//! the fixed 2048-bin histogram `pnoc-noc` used for percentiles, which
//! clipped every sample ≥ 2048 cycles into an overflow bucket and reported
//! `p99 = +inf` near saturation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod latency;
pub mod sampler;
pub mod subscribe;
pub mod svg;
pub mod trace;

pub use event::{Event, EventKind, NO_PACKET};
pub use latency::{LatencyRecorder, SparseLatency, CAP_LOG2, SUB_BUCKETS};
pub use sampler::{ChannelSample, OccupancySampler};
pub use subscribe::{InjectKind, InjectRecord, InjectSubscriber};
pub use trace::{ObsSink, RingTrace, TraceExport};
