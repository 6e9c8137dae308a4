//! The benchmark's span profiler.
//!
//! Spans are opened and closed by the benchmark's own drivers around calls
//! into each crate's public API, one span per call per cycle (never one per
//! packet). A span's *self time* is its duration minus the part its child
//! spans cover, so nested layers are never counted twice and the self
//! times of one thread add up to at most its wall time.

use std::time::Instant;

/// Profiled layers. The metric name of each is `<name>_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    NocNew,
    NocStep,
    NocInject,
    NocDrainCheck,
    NocSummary,
    TrafficNew,
    TrafficGenerate,
    CmpNew,
    CmpCoreTick,
    CmpDelivery,
    CmpBankTick,
    CmpLocal,
    TraceWrite,
    TraceRead,
    TraceReplayOpen,
    TraceReplayGenerate,
    FleetSpinup,
    FleetJournalOpen,
    FleetJob,
    FleetRunJob,
    FleetLockWait,
    FleetFold,
    FleetJournalAppend,
    FleetReport,
    FleetResume,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 25] = [
        Layer::NocNew,
        Layer::NocStep,
        Layer::NocInject,
        Layer::NocDrainCheck,
        Layer::NocSummary,
        Layer::TrafficNew,
        Layer::TrafficGenerate,
        Layer::CmpNew,
        Layer::CmpCoreTick,
        Layer::CmpDelivery,
        Layer::CmpBankTick,
        Layer::CmpLocal,
        Layer::TraceWrite,
        Layer::TraceRead,
        Layer::TraceReplayOpen,
        Layer::TraceReplayGenerate,
        Layer::FleetSpinup,
        Layer::FleetJournalOpen,
        Layer::FleetJob,
        Layer::FleetRunJob,
        Layer::FleetLockWait,
        Layer::FleetFold,
        Layer::FleetJournalAppend,
        Layer::FleetReport,
        Layer::FleetResume,
    ];

    /// Span name: the crate that owns the timed call, then the call.
    pub fn name(self) -> &'static str {
        match self {
            Layer::NocNew => "noc.new",
            Layer::NocStep => "noc.step",
            Layer::NocInject => "noc.inject",
            Layer::NocDrainCheck => "noc.drain_check",
            Layer::NocSummary => "noc.summary",
            Layer::TrafficNew => "traffic.new",
            Layer::TrafficGenerate => "traffic.generate",
            Layer::CmpNew => "cmp.new",
            Layer::CmpCoreTick => "cmp.core_tick",
            Layer::CmpDelivery => "cmp.delivery",
            Layer::CmpBankTick => "cmp.bank_tick",
            Layer::CmpLocal => "cmp.local",
            Layer::TraceWrite => "trace.write",
            Layer::TraceRead => "trace.read",
            Layer::TraceReplayOpen => "trace.replay_open",
            Layer::TraceReplayGenerate => "trace.replay_generate",
            Layer::FleetSpinup => "fleet.spinup",
            Layer::FleetJournalOpen => "fleet.journal_open",
            Layer::FleetJob => "fleet.job",
            Layer::FleetRunJob => "fleet.run_job",
            Layer::FleetLockWait => "fleet.lock_wait",
            Layer::FleetFold => "fleet.fold",
            Layer::FleetJournalAppend => "fleet.journal_append",
            Layer::FleetReport => "fleet.report",
            Layer::FleetResume => "fleet.resume",
        }
    }
}

const LAYERS: usize = Layer::ALL.len();

/// Accumulated span statistics plus the open-span stack of one thread.
#[derive(Debug, Clone)]
pub struct Prof {
    base: Instant,
    /// Summed span durations per layer, ns.
    pub total_ns: [u64; LAYERS],
    /// Summed self time per layer, ns.
    pub self_ns: [u64; LAYERS],
    /// Closed spans per layer.
    pub calls: [u64; LAYERS],
    /// Duration of every `noc.step` span, ns (for per-step percentiles).
    pub step_ns: Vec<u32>,
    stack: Vec<Open>,
}

#[derive(Debug, Clone, Copy)]
struct Open {
    layer: Layer,
    start: u64,
    child: u64,
}

impl Default for Prof {
    fn default() -> Self {
        Self::new()
    }
}

impl Prof {
    /// An empty profile whose clock starts now.
    pub fn new() -> Self {
        Self {
            base: Instant::now(),
            total_ns: [0; LAYERS],
            self_ns: [0; LAYERS],
            calls: [0; LAYERS],
            step_ns: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.base.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span of `layer` now.
    #[inline]
    pub fn enter(&mut self, layer: Layer) {
        let t = self.now();
        self.enter_at(layer, t);
    }

    /// Close the innermost span now; returns its duration, ns.
    #[inline]
    pub fn exit(&mut self) -> u64 {
        let t = self.now();
        self.exit_at(t)
    }

    /// Time `f` as one span of `layer`.
    #[inline]
    pub fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        self.enter(layer);
        let r = f();
        self.exit();
        r
    }

    /// Open a span of `layer` at clock reading `t` (ns).
    pub fn enter_at(&mut self, layer: Layer, t: u64) {
        self.stack.push(Open {
            layer,
            start: t,
            child: 0,
        });
    }

    /// Close the innermost span at clock reading `t` (ns). Its self time is
    /// its duration minus the time its closed children covered; its whole
    /// duration counts as child time of the enclosing span.
    pub fn exit_at(&mut self, t: u64) -> u64 {
        let open = self.stack.pop().expect("exit without a matching enter");
        let dur = t.saturating_sub(open.start);
        let i = open.layer as usize;
        self.total_ns[i] += dur;
        self.self_ns[i] += self_time(dur, open.child);
        self.calls[i] += 1;
        if let Some(parent) = self.stack.last_mut() {
            parent.child += dur;
        }
        dur
    }

    /// Time one `Network::step` call as a `noc.step` span and keep its
    /// duration for the per-step percentiles.
    #[inline]
    pub fn step(&mut self, net: &mut pnoc_noc::Network) {
        self.enter(Layer::NocStep);
        net.step();
        let d = self.exit();
        self.step_ns.push(u32::try_from(d).unwrap_or(u32::MAX));
    }

    /// Fold another thread's closed spans into this profile.
    pub fn merge(&mut self, other: &Prof) {
        debug_assert!(other.stack.is_empty(), "merging a profile with open spans");
        for i in 0..LAYERS {
            self.total_ns[i] += other.total_ns[i];
            self.self_ns[i] += other.self_ns[i];
            self.calls[i] += other.calls[i];
        }
        self.step_ns.extend_from_slice(&other.step_ns);
    }

    /// Summed self time of `layer`, ns.
    pub fn self_of(&self, layer: Layer) -> u64 {
        self.self_ns[layer as usize]
    }

    /// Summed span duration of `layer`, ns.
    pub fn total_of(&self, layer: Layer) -> u64 {
        self.total_ns[layer as usize]
    }

    /// Self time summed over every layer, ns.
    pub fn attributed_ns(&self) -> u64 {
        self.self_ns.iter().sum()
    }
}

/// Time `f` as one span of `layer` when a profile is given; else just run it.
pub fn maybe_span<R>(prof: Option<&mut Prof>, layer: Layer, f: impl FnOnce() -> R) -> R {
    match prof {
        Some(p) => p.span(layer, f),
        None => f(),
    }
}

/// Self time of a span: its duration minus the covered child time.
pub fn self_time(span_ns: u64, child_ns: u64) -> u64 {
    span_ns.saturating_sub(child_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        assert_eq!(self_time(100, 30), 70);
        assert_eq!(self_time(100, 0), 100);
        // Clock granularity can make children read longer than the parent.
        assert_eq!(self_time(10, 12), 0);
    }

    #[test]
    fn nested_spans_split_into_self_times() {
        let mut p = Prof::new();
        // job [0, 100) holds run_job [10, 60) and fold [70, 80); run_job
        // holds a step [20, 30).
        p.enter_at(Layer::FleetJob, 0);
        p.enter_at(Layer::FleetRunJob, 10);
        p.enter_at(Layer::NocStep, 20);
        assert_eq!(p.exit_at(30), 10);
        assert_eq!(p.exit_at(60), 50);
        p.enter_at(Layer::FleetFold, 70);
        p.exit_at(80);
        assert_eq!(p.exit_at(100), 100);

        assert_eq!(p.self_of(Layer::NocStep), 10);
        assert_eq!(p.self_of(Layer::FleetRunJob), 40);
        assert_eq!(p.self_of(Layer::FleetFold), 10);
        assert_eq!(p.self_of(Layer::FleetJob), 40);
        assert_eq!(p.total_of(Layer::FleetJob), 100);
        // Self times of one thread add up to the outermost span.
        assert_eq!(p.attributed_ns(), 100);
    }

    #[test]
    fn sibling_spans_accumulate_calls() {
        let mut p = Prof::new();
        for c in 0..3 {
            p.enter_at(Layer::NocInject, c * 10);
            p.exit_at(c * 10 + 4);
        }
        assert_eq!(p.calls[Layer::NocInject as usize], 3);
        assert_eq!(p.self_of(Layer::NocInject), 12);
    }

    #[test]
    fn merge_adds_other_threads() {
        let mut a = Prof::new();
        a.enter_at(Layer::FleetFold, 0);
        a.exit_at(5);
        let mut b = Prof::new();
        b.enter_at(Layer::FleetFold, 0);
        b.exit_at(7);
        b.step_ns.push(3);
        a.merge(&b);
        assert_eq!(a.self_of(Layer::FleetFold), 12);
        assert_eq!(a.calls[Layer::FleetFold as usize], 2);
        assert_eq!(a.step_ns, vec![3]);
    }

    #[test]
    fn layer_names_are_valid_metric_stems() {
        for l in Layer::ALL {
            assert!(crate::stats::valid_metric_name(&format!("{}_ns", l.name())));
        }
    }
}
