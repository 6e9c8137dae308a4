//! Arbitration: which sender may transmit on a channel next.
//!
//! The paper's schemes split along a second axis, orthogonal to flow
//! control: *global* arbitration (one token relayed among all senders —
//! token channel, GHS) versus *distributed* arbitration (the home emits a
//! stream of tokens that sweep the ring — token slot, DHS, DHS with
//! circulation). This module owns the token state machines:
//!
//! * [`GlobalArbiter`] — the single sweeping/held/lost token, including the
//!   loss watchdog that re-emits a replacement after two silent loop times;
//! * [`DistributedArbiter`] — the oldest-first token queue, per-cycle
//!   emission (gated by the flow layer), disjoint window sweeps, and a bulk
//!   fast path for idle cycles.
//!
//! Arbiters issue *grants* (via [`crate::outqueue::OutQueue::take_grant`])
//! and refresh the channel's predicate bit-planes; everything about buffer
//! space lives in [`super::flow`]. The two layers meet at narrow hooks
//! ([`Flow::has_credit`], [`Flow::may_emit`], …) so a new scheme
//! combination is a new pairing, not a new `Channel`. The sweep loops are
//! generic over [`Flow`], and every channel is monomorphized over the
//! concrete pairing [`crate::with_scheme!`] binds, so they compile with the
//! concrete flow's hooks inlined — the per-cycle path has zero enum
//! dispatch.

use crate::config::FairnessPolicy;
use crate::metrics::NetworkMetrics;
use crate::outqueue::OutQueue;
use crate::packet::PacketRef;
use pnoc_faults::ChannelInjector;
use pnoc_obs::{EventKind, NO_PACKET};
use pnoc_sim::Cycle;

use super::admission::AdmissionCtl;
use super::bitplane::{AgeSet, Planes};
use super::flow::Flow;

/// State of the single global-arbitration token (token channel, GHS).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GlobalTokenState {
    /// Travelling; `next` is the first downstream distance not yet examined.
    Sweeping {
        /// First downstream distance the token has not yet examined.
        next: usize,
    },
    /// Held by the sender at the given node while it transmits.
    Held {
        /// Node currently holding the token.
        node: usize,
    },
    /// Destroyed by an injected fault; the home re-emits a replacement after
    /// a watchdog period of two silent loop times.
    Lost {
        /// Cycle the token was destroyed.
        since: Cycle,
    },
}

/// What the arbiters may touch while sweeping tokens. Field-level borrows
/// of the owning [`crate::channel::Channel`], plus its precomputed ring
/// lookup tables — the sweep loops run every cycle and must not divide.
#[derive(Debug)]
pub struct TokenCx<'a> {
    /// Current cycle.
    pub now: Cycle,
    /// The home node id (trace-event addressing).
    pub home: usize,
    /// Fairness policy senders are checked against.
    pub fairness: FairnessPolicy,
    /// Node count.
    pub nodes: usize,
    /// Nodes a token passes per cycle (`nodes / segments`).
    pub step: usize,
    /// Watchdog period for global-token loss (two handshake delays).
    pub watchdog: Cycle,
    /// Downstream distance → node id (precomputed, `nodes - 1` entries).
    pub by_distance: &'a [usize],
    /// Node id → downstream distance from home (precomputed).
    pub dist_of: &'a [usize],
    /// Per-sender output queues (arena-handle entries; see
    /// [`crate::packet::PacketArena`]).
    pub senders: &'a mut [OutQueue<PacketRef>],
    /// Per-node predicate bit-planes, by downstream distance — the sweep
    /// loops probe only set `sendable` bits, and grants refresh all planes.
    pub planes: &'a mut Planes,
    /// Home buffer occupancy (queued + draining), for the emission gate.
    pub buffered: usize,
    /// Home buffer capacity.
    pub buffer_cap: usize,
    /// Channel flag: a circulation reinjection suppresses this cycle's
    /// token emission.
    pub suppress_token: &'a mut bool,
    /// Per-class admission buckets (`None` when `QoS` is off — the admission
    /// probes below fold away).
    pub admission: Option<&'a mut AdmissionCtl>,
    /// Fault injection, if live on this channel.
    pub injector: Option<&'a mut ChannelInjector>,
}

impl TokenCx<'_> {
    /// Grant the channel to `node`. The refreshed `granted` plane is what
    /// puts the node on the transmit phase's scan path. Under admission
    /// control the grant is also charged to the head packet's class.
    #[inline]
    fn grant(&mut self, node: usize, m: &mut NetworkMetrics) {
        if let Some(ctl) = self.admission.as_deref_mut() {
            if let Some(class) = self.senders[node].head_class() {
                ctl.on_grant(class);
            }
        }
        self.senders[node].take_grant(self.now, self.fairness);
        m.trace(self.now, self.home, node, NO_PACKET, EventKind::TokenGrant);
        // A grant consumes sendable headroom (the transmission it owes) and
        // raises the granted bit.
        self.planes.refresh(self.dist_of[node], &self.senders[node]);
    }

    /// Whether admission control lets `node` take a grant right now: its
    /// head packet's class must have a non-empty bucket. Vacuously true
    /// with `QoS` off or an empty queue.
    #[inline]
    fn admits(&self, node: usize) -> bool {
        match self.admission.as_deref() {
            None => true,
            Some(ctl) => self.senders[node]
                .head_class()
                .is_none_or(|class| ctl.admits(class)),
        }
    }

    /// First sender in the distance window `[lo, hi)` that may take a token
    /// right now. The sendable plane prunes to senders with sendable work;
    /// `eligible` stays authoritative (fairness sit-outs are time-dependent),
    /// and admission buckets gate by the head packet's class.
    #[inline]
    fn first_eligible_in(&self, lo: usize, hi: usize) -> Option<usize> {
        let mut d = lo;
        while let Some(hit) = self.planes.sendable.first_in(d, hi) {
            let node = self.by_distance[hit];
            if self.senders[node].eligible(self.now, self.fairness) && self.admits(node) {
                return Some(node);
            }
            d = hit + 1;
        }
        None
    }
}

/// The arbitration side of a scheme: one cycle of token motion, plus the
/// state the channel's audit/model-checking hooks need. `step` is generic
/// over the paired [`Flow`] so the monomorphized channel inlines both
/// layers into one compiled loop.
pub trait Arbiter {
    /// One cycle of token relay/streaming: fault exposure, emission or
    /// watchdog, window sweeps, grants.
    fn step<F: Flow>(&mut self, flow: &mut F, cx: &mut TokenCx<'_>, m: &mut NetworkMetrics);

    /// Live distributed tokens (0 under global arbitration).
    fn outstanding_tokens(&self) -> usize;

    /// Whether [`Arbiter::fast_forward`] can stand in for idle cycles from
    /// this state: a global token must be sweeping (a held token waits on
    /// its holder, a lost one on the watchdog); a token stream always can.
    fn can_sleep(&self) -> bool;

    /// Apply `k` idle cycles at once: the state `k` calls to
    /// [`Arbiter::step`] reach on a quiescent channel (no sendable sender,
    /// empty home buffer, no injector, no suppressed emission) of `nodes`
    /// nodes passing `step` per cycle, with a home buffer of `buffer_cap`.
    fn fast_forward<F: Flow>(
        &mut self,
        k: u64,
        flow: &mut F,
        nodes: usize,
        step: usize,
        buffer_cap: usize,
    );

    /// Append the arbiter's canonical state encoding for
    /// [`crate::channel::Channel::state_key`]. `credits_word` is the paired
    /// flow's credit count (or the caller's separator sentinel) — the global
    /// token carries it, so it is part of the token's state; distributed
    /// arbiters ignore it.
    fn state_key_into(&self, now: Cycle, credits_word: u64, out: &mut Vec<u64>);
}

/// The single-token state machine (token channel, GHS). Credits, if any,
/// live in the paired flow; the arbiter asks before granting.
#[derive(Debug, Clone)]
pub struct GlobalArbiter {
    /// Current token state.
    pub state: GlobalTokenState,
}

impl GlobalArbiter {
    /// A fresh token sweeping from the node just past the home.
    pub fn new() -> Self {
        Self {
            state: GlobalTokenState::Sweeping { next: 0 },
        }
    }

    /// Continue the sweep at `next`, wrapping past the home (which
    /// reimburses credits via [`Flow::on_home_pass`]).
    fn wrap_or_continue<F: Flow>(next: usize, nodes: usize, flow: &mut F) -> GlobalTokenState {
        if next >= nodes - 1 {
            flow.on_home_pass();
            GlobalTokenState::Sweeping { next: 0 }
        } else {
            GlobalTokenState::Sweeping { next }
        }
    }
}

impl Arbiter for GlobalArbiter {
    /// One cycle of token relay: fault exposure, watchdog re-emission,
    /// hold/release, and the sweep window.
    fn step<F: Flow>(&mut self, flow: &mut F, cx: &mut TokenCx<'_>, m: &mut NetworkMetrics) {
        // Fault: the circulating token is destroyed. Only a sweeping token
        // is exposed (a held one is latched at its sender).
        if let Some(inj) = cx.injector.as_deref_mut() {
            if inj.active()
                && matches!(self.state, GlobalTokenState::Sweeping { .. })
                && inj.token_lost()
            {
                m.faults_tokens_lost += 1;
                m.trace(cx.now, cx.home, cx.home, NO_PACKET, EventKind::TokenLost);
                flow.on_sweeping_token_lost(m);
                self.state = GlobalTokenState::Lost { since: cx.now };
            }
        }
        match self.state {
            GlobalTokenState::Lost { since } => {
                // Watchdog: after two silent loop times the home emits a
                // replacement. It cannot know how many credits died with
                // the old token, so the replacement starts empty and must
                // live off future ejection reimbursements.
                if cx.now.saturating_sub(since) >= cx.watchdog {
                    self.state = GlobalTokenState::Sweeping { next: 0 };
                }
            }
            GlobalTokenState::Held { node } => {
                let has_credit = flow.has_credit();
                let q = &cx.senders[node];
                if q.granted() > 0 {
                    // Transmission still owed; keep holding.
                } else if has_credit && q.eligible(cx.now, cx.fairness) && cx.admits(node) {
                    cx.grant(node, m);
                    flow.spend_credit();
                } else {
                    // Release: the token resumes its sweep from just past
                    // the holder; downstream nodes see it from the next
                    // cycle (paper Fig. 3c→d).
                    let next = cx.dist_of[node] + 1;
                    self.state = Self::wrap_or_continue(next, cx.nodes, flow);
                }
            }
            GlobalTokenState::Sweeping { next } => {
                let hi = (next + cx.step).min(cx.nodes - 1);
                let mut grabbed = None;
                if flow.has_credit() {
                    grabbed = cx.first_eligible_in(next, hi);
                }
                if let Some(node) = grabbed {
                    cx.grant(node, m);
                    flow.spend_credit();
                    self.state = GlobalTokenState::Held { node };
                } else {
                    self.state = Self::wrap_or_continue(hi, cx.nodes, flow);
                }
            }
        }
    }

    #[inline]
    fn outstanding_tokens(&self) -> usize {
        0
    }

    #[inline]
    fn can_sleep(&self) -> bool {
        matches!(self.state, GlobalTokenState::Sweeping { .. })
    }

    /// An idle sweep grabs nothing, so the token moves `step` distances a
    /// cycle and wraps at the home: `to_wrap` cycles from `next` (which
    /// may be unaligned after a held token's release), then every
    /// `ceil((nodes - 1) / step)` cycles from distance 0. Only the first
    /// wrap reimburses anything — no slot frees while the channel sleeps.
    fn fast_forward<F: Flow>(
        &mut self,
        k: u64,
        flow: &mut F,
        nodes: usize,
        step: usize,
        _buffer_cap: usize,
    ) {
        let GlobalTokenState::Sweeping { next } = self.state else {
            debug_assert!(false, "fast-forwarding a {:?} token", self.state);
            return;
        };
        let last = nodes - 1;
        let to_wrap = last.saturating_sub(next).div_ceil(step).max(1) as u64;
        let next = if k < to_wrap {
            next + k as usize * step
        } else {
            flow.on_home_pass();
            let period = last.div_ceil(step) as u64;
            ((k - to_wrap) % period) as usize * step
        };
        self.state = GlobalTokenState::Sweeping { next };
    }

    fn state_key_into(&self, now: Cycle, credits_word: u64, out: &mut Vec<u64>) {
        out.push(0);
        match self.state {
            GlobalTokenState::Sweeping { next } => {
                out.push(0);
                out.push(next as u64);
            }
            GlobalTokenState::Held { node } => {
                out.push(1);
                out.push(node as u64);
            }
            GlobalTokenState::Lost { since } => {
                out.push(2);
                out.push(now.saturating_sub(since));
            }
        }
        out.push(credits_word);
    }
}

impl Default for GlobalArbiter {
    fn default() -> Self {
        Self::new()
    }
}

/// Age at which an untaken distributed token has swept the last window
/// and dies at the home: a token of age `a` covers `[a·step, (a+1)·step)`.
fn retire_age(nodes: usize, step: usize) -> usize {
    (nodes - 1).saturating_sub(step).div_ceil(step)
}

/// The token-stream state machine (token slot, DHS, DHS with circulation).
///
/// A live token's sweep window is a pure function of its age — a token
/// emitted `a` cycles ago covers distances `[a·step, (a+1)·step)` — so the
/// stream is stored as an [`AgeSet`]: one bit per live age. Advancing every
/// token is a word shift, membership is a bit test, and grants/faults are
/// bit clears. (The first representation stored positions and re-wrote
/// every token each cycle — an O(loop-time) walk per channel per cycle; a
/// sorted emission-cycle deque fixed the walk but left a binary search per
/// probed window.)
#[derive(Debug, Clone, Default)]
pub struct DistributedArbiter {
    /// Live tokens, one bit per age.
    pub tokens: AgeSet,
}

impl DistributedArbiter {
    /// An arbiter with no tokens in flight (the home emits from cycle 0).
    pub fn new() -> Self {
        Self::default()
    }
}

impl Arbiter for DistributedArbiter {
    /// One cycle of the token stream: ageing, fault exposure, emission
    /// (gated by the flow layer), and the window sweep.
    fn step<F: Flow>(&mut self, flow: &mut F, cx: &mut TokenCx<'_>, m: &mut NetworkMetrics) {
        // Age the stream: every live token advances one window.
        self.tokens.tick();
        // Fault: in-flight tokens are exposed every cycle, oldest first
        // (the emission order, so fault draws replay identically).
        if let Some(inj) = cx.injector.as_deref_mut() {
            if inj.active() && self.tokens.any() {
                let destroyed = self.tokens.retain_oldest_first(|| !inj.token_lost());
                if destroyed > 0 {
                    m.faults_tokens_lost += destroyed as u64;
                    for _ in 0..destroyed {
                        m.trace(cx.now, cx.home, cx.home, NO_PACKET, EventKind::TokenLost);
                    }
                    flow.on_tokens_destroyed(destroyed, m);
                }
            }
        }
        // Emission.
        let emit = flow.may_emit(
            cx.buffered,
            self.tokens.count(),
            cx.buffer_cap,
            *cx.suppress_token,
        );
        *cx.suppress_token = false;
        if emit {
            self.tokens.emit();
        }
        // Sweep the token stream. Windows are disjoint: the token of age
        // `a` covers distances [a·step, (a+1)·step) this cycle, so instead
        // of probing every live token's window (O(loop-time) per busy
        // cycle), scan the set `sendable` bits — usually a handful — and
        // bit-test the one age whose window covers each. Grants touch only
        // their own window's sender, so windows never interact and scan
        // order is immaterial.
        let last = cx.nodes - 1;
        let mut d = 0;
        while let Some(hit) = cx.planes.sendable.first_in(d, last) {
            let age = hit / cx.step;
            let hi = (age * cx.step + cx.step).min(last);
            if self.tokens.contains(age) {
                if let Some(node) = cx.first_eligible_in(hit, hi) {
                    cx.grant(node, m);
                    flow.on_grant();
                    self.tokens.clear(age);
                }
            }
            d = hi;
        }
        // Retire the tokens whose window reached the last distance: they
        // completed the loop un-taken and die at the home (the home
        // re-emits fresh ones; for token slot the reservation returns to
        // the pool implicitly).
        self.tokens.retire(retire_age(cx.nodes, cx.step));
    }

    #[inline]
    fn outstanding_tokens(&self) -> usize {
        self.tokens.count()
    }

    #[inline]
    fn can_sleep(&self) -> bool {
        true
    }

    /// An idle cycle ages the stream, emits if the flow allows, and
    /// retires ages ≥ `M` ([`retire_age`]); nothing is grabbed. At most
    /// `M` tokens are out after ageing, and fewer tokens never forbid an
    /// emission, so when `M` tokens do not, every idle cycle emits (DHS,
    /// circulation, a token slot with more than `M` buffer slots) and the
    /// stream is fixed after `M` cycles. Otherwise the token slot emits
    /// while fewer than `buffer_cap` tokens are out: within `M` cycles
    /// every window of `L = M + 1` cycles holds `buffer_cap` emissions,
    /// and from then on a cycle emits exactly when the cycle `L` before it
    /// did. The state after `L` or more cycles therefore repeats with
    /// period `L`, so at most `2L` idle cycles are ever simulated, whatever
    /// `k` is.
    fn fast_forward<F: Flow>(
        &mut self,
        k: u64,
        flow: &mut F,
        nodes: usize,
        step: usize,
        buffer_cap: usize,
    ) {
        let retire_at = retire_age(nodes, step);
        let always = flow.may_emit(0, retire_at, buffer_cap, false);
        let period = retire_at as u64 + 1;
        let cycles = if always {
            k.min(retire_at as u64)
        } else if k > 2 * period {
            period + (k - period) % period
        } else {
            k
        };
        for _ in 0..cycles {
            self.tokens.tick();
            if always || flow.may_emit(0, self.tokens.count(), buffer_cap, false) {
                self.tokens.emit();
            }
            self.tokens.retire(retire_at);
        }
    }

    fn state_key_into(&self, _now: Cycle, _credits_word: u64, out: &mut Vec<u64>) {
        out.push(1);
        // Token ages, oldest first: time-translation invariant, so
        // recurring channel states key identically.
        for age in self.tokens.iter_oldest_first() {
            out.push(age as u64);
        }
    }
}
