//! Open-loop injection processes.
//!
//! The paper's synthetic experiments drive each of the 256 cores with an
//! independent Bernoulli process at a given rate (packets/cycle/core). The
//! bursty on/off process is used by the application-trace synthesizer: real
//! workloads inject in phases, not as a memoryless stream.

use pnoc_sim::{Cycle, SimRng};
use serde::{Deserialize, Serialize};

/// Memoryless per-cycle injection at a fixed rate.
///
/// Implemented with sampled geometric gaps instead of a coin flip per cycle,
/// so simulating low injection rates costs O(packets), not O(cycles).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BernoulliInjector {
    rate: f64,
    next_fire: Cycle,
}

impl BernoulliInjector {
    /// An injector firing with probability `rate` per cycle (clamped ≥ 0).
    /// The first firing is sampled relative to cycle 0.
    pub fn new(rate: f64, rng: &mut SimRng) -> Self {
        let rate = rate.max(0.0);
        let mut inj = Self { rate, next_fire: 0 };
        inj.next_fire = if rate > 0.0 {
            rng.geometric_gap(rate).saturating_sub(1)
        } else {
            Cycle::MAX
        };
        inj
    }

    /// Injection rate (packets/cycle).
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The next cycle this injector will fire ([`Cycle::MAX`] = never).
    /// Callers that index many injectors can schedule around this instead
    /// of polling [`BernoulliInjector::fire`] every cycle — the geometric
    /// gap is already sampled, so skipping the quiet cycles draws exactly
    /// the same random sequence.
    pub fn next_fire(&self) -> Cycle {
        self.next_fire
    }

    /// Number of packets generated at cycle `now` (0 or more — at most one
    /// per call for Bernoulli, but the API allows burstier processes).
    ///
    /// Callers normally query every cycle in increasing order. A call that
    /// skips cycles draws and discards the fires it missed, in order, so it
    /// leaves the injector and `rng` as per-cycle calls would and fires at
    /// `now` exactly when they would. A call at a cycle already queried
    /// returns 0.
    pub fn fire(&mut self, now: Cycle, rng: &mut SimRng) -> u32 {
        while self.next_fire < now {
            self.next_fire = self.next_fire.saturating_add(rng.geometric_gap(self.rate));
        }
        if now != self.next_fire {
            return 0;
        }
        self.next_fire = now.saturating_add(rng.geometric_gap(self.rate));
        1
    }
}

/// Two-state Markov-modulated (on/off) injection.
///
/// While *on*, packets are generated at `on_rate` per cycle; while *off*,
/// none. State dwell times are geometric with the given mean lengths. The
/// long-run average rate is `on_rate · on_len / (on_len + off_len)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OnOffInjector {
    on_rate: f64,
    p_leave_on: f64,
    p_leave_off: f64,
    on: bool,
}

impl OnOffInjector {
    /// Build from mean burst (`mean_on`) and gap (`mean_off`) lengths in
    /// cycles, both ≥ 1.
    pub fn new(on_rate: f64, mean_on: f64, mean_off: f64, rng: &mut SimRng) -> Self {
        assert!(
            mean_on >= 1.0 && mean_off >= 1.0,
            "dwell means must be ≥ 1 cycle"
        );
        Self {
            on_rate: on_rate.clamp(0.0, 1.0),
            p_leave_on: 1.0 / mean_on,
            p_leave_off: 1.0 / mean_off,
            on: rng.chance(mean_on / (mean_on + mean_off)),
        }
    }

    /// Long-run average injection rate.
    pub fn mean_rate(&self) -> f64 {
        let on_frac = self.p_leave_off / (self.p_leave_on + self.p_leave_off);
        self.on_rate * on_frac
    }

    /// Advance one cycle; returns packets generated this cycle.
    pub fn fire(&mut self, rng: &mut SimRng) -> u32 {
        let fired = if self.on && rng.chance(self.on_rate) {
            1
        } else {
            0
        };
        // State transition after emission, so a 1-cycle dwell can still fire.
        let leave = if self.on {
            self.p_leave_on
        } else {
            self.p_leave_off
        };
        if rng.chance(leave) {
            self.on = !self.on;
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bernoulli_rate_is_respected() {
        let mut rng = SimRng::seed_from(1);
        for &rate in &[0.01, 0.1, 0.5] {
            let mut inj = BernoulliInjector::new(rate, &mut rng);
            let cycles = 200_000u64;
            let mut fired = 0u64;
            for t in 0..cycles {
                fired += inj.fire(t, &mut rng) as u64;
            }
            let measured = fired as f64 / cycles as f64;
            assert!(
                (measured - rate).abs() < rate * 0.08 + 0.001,
                "rate {rate}: measured {measured}"
            );
        }
    }

    #[test]
    fn bernoulli_zero_rate_never_fires() {
        let mut rng = SimRng::seed_from(2);
        let mut inj = BernoulliInjector::new(0.0, &mut rng);
        for t in 0..10_000 {
            assert_eq!(inj.fire(t, &mut rng), 0);
        }
    }

    #[test]
    fn bernoulli_full_rate_fires_every_cycle() {
        let mut rng = SimRng::seed_from(3);
        let mut inj = BernoulliInjector::new(1.0, &mut rng);
        let fired: u32 = (0..100).map(|t| inj.fire(t, &mut rng)).sum();
        assert_eq!(fired, 100);
    }

    #[test]
    fn bernoulli_deterministic_given_seed() {
        let run = |seed| {
            let mut rng = SimRng::seed_from(seed);
            let mut inj = BernoulliInjector::new(0.2, &mut rng);
            (0..1000).map(|t| inj.fire(t, &mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn bernoulli_polled_with_gaps_matches_every_cycle_polling() {
        let mut schedule_rng = SimRng::seed_from(9);
        for &rate in &[1e-3, 0.05, 0.3, 0.999, 1.0] {
            for seed in 0..20 {
                let mut every_rng = SimRng::seed_from(seed);
                let mut every = BernoulliInjector::new(rate, &mut every_rng);
                let mut gappy_rng = SimRng::seed_from(seed);
                let mut gappy = BernoulliInjector::new(rate, &mut gappy_rng);
                let mut next_call = 0;
                for t in 0..5_000 {
                    let fired = every.fire(t, &mut every_rng);
                    if t == next_call {
                        assert_eq!(gappy.fire(t, &mut gappy_rng), fired, "rate {rate}, t {t}");
                        assert_eq!(gappy.next_fire(), every.next_fire());
                        next_call += 1 + schedule_rng.below(40);
                    }
                }
            }
        }
    }

    #[test]
    fn onoff_mean_rate_formula() {
        let mut rng = SimRng::seed_from(4);
        let inj = OnOffInjector::new(0.4, 30.0, 90.0, &mut rng);
        assert!((inj.mean_rate() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn onoff_long_run_rate_matches() {
        let mut rng = SimRng::seed_from(5);
        let mut inj = OnOffInjector::new(0.4, 50.0, 150.0, &mut rng);
        let cycles = 400_000;
        let fired: u64 = (0..cycles).map(|_| inj.fire(&mut rng) as u64).sum();
        let measured = fired as f64 / cycles as f64;
        let expected = inj.mean_rate();
        assert!(
            (measured - expected).abs() < 0.012,
            "measured {measured}, expected {expected}"
        );
    }

    #[test]
    fn onoff_is_bursty() {
        // Compare variance of per-window counts against a Bernoulli process
        // with the same mean rate: on/off must be burstier.
        let mut rng = SimRng::seed_from(6);
        let mut onoff = OnOffInjector::new(0.5, 100.0, 100.0, &mut rng);
        let mut bern = BernoulliInjector::new(0.25, &mut rng);
        let window = 50;
        let windows = 2_000;
        let var = |counts: Vec<f64>| {
            let mean = counts.iter().sum::<f64>() / counts.len() as f64;
            counts.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / counts.len() as f64
        };
        let mut oo = Vec::new();
        let mut bb = Vec::new();
        let mut t = 0u64;
        for _ in 0..windows {
            let mut co = 0.0;
            let mut cb = 0.0;
            for _ in 0..window {
                co += onoff.fire(&mut rng) as f64;
                cb += bern.fire(t, &mut rng) as f64;
                t += 1;
            }
            oo.push(co);
            bb.push(cb);
        }
        assert!(var(oo) > 1.5 * var(bb), "on/off should be burstier");
    }

    #[test]
    #[should_panic]
    fn onoff_rejects_sub_cycle_dwell() {
        let mut rng = SimRng::seed_from(7);
        OnOffInjector::new(0.1, 0.5, 10.0, &mut rng);
    }
}
