//! A miniature `loom`: exhaustive/bounded model checking for the fleet's
//! concurrency protocols, with no external dependencies (the workspace is
//! offline-vendored; see DESIGN.md §5).
//!
//! Compiled only under the `model-sync` feature. In that configuration the
//! [`crate::sync`] facade resolves to the modeled primitives in
//! [`sync`]/[`thread`] here, so `executor.rs` — the real shipping code, not
//! a transcription of it — runs under the checker.
//!
//! [`check`] runs a closure repeatedly, enumerating schedules by DFS over
//! recorded choice points:
//!
//! * **which thread runs** at every visible operation, with *preemption
//!   bounding* ([`Bounds::preemptions`]) pruning the exponential tail while
//!   keeping the bug-dense low-preemption schedules exhaustive,
//! * **which store a weak load observes** (stale-value windows for
//!   `Relaxed`/`Acquire` loads; see [`sync`] for the memory model),
//! * **spurious condvar wakeups** (mandatory: every `wait` may wake
//!   early), and which waiter `notify_one` picks.
//!
//! A failure — panicked assertion, deadlock (every live thread blocked,
//! which is what a lost wakeup looks like), or op-budget livelock — is
//! replayed with tracing on and reported as a [`Counterexample`] holding
//! the full interleaving. DESIGN.md §14 documents what the checker
//! explores and the soundness caveats of its bounds.

pub mod exec;
pub mod sync;
pub mod thread;

use std::sync::Arc;

use exec::{Choice, Execution};

/// Exploration bounds. The defaults are CI-sized: small protocols (2–3
/// threads, tens of ops) explore exhaustively well inside them.
#[derive(Debug, Clone, Copy)]
pub struct Bounds {
    /// Max context switches away from a still-runnable thread per
    /// execution. 2–3 catches almost all published concurrency bugs
    /// (Musuvathi & Qadeer's CHESS observation) at polynomial cost.
    pub preemptions: u32,
    /// Max spurious condvar wakeups injected per execution.
    pub spurious: u32,
    /// How many recent stores a non-`SeqCst` load may choose between
    /// (1 = newest only, i.e. sequential consistency for loads).
    pub weak_window: usize,
    /// Abort an execution after this many operations (livelock guard).
    pub max_ops: u64,
    /// Stop exploring after this many executions; the [`Report`] then has
    /// `exhaustive == false`.
    pub max_executions: u64,
}

impl Default for Bounds {
    fn default() -> Self {
        Self {
            preemptions: 3,
            spurious: 1,
            weak_window: 2,
            max_ops: 50_000,
            max_executions: 200_000,
        }
    }
}

/// A failing interleaving, replayed deterministically with tracing on.
#[derive(Debug)]
pub struct Counterexample {
    /// What went wrong (assertion text, deadlock report, livelock).
    pub message: String,
    /// The full schedule: one line per visible operation.
    pub trace: Vec<String>,
}

impl Counterexample {
    /// Render message plus interleaving for panics/CI logs.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = format!(
            "{}\n--- interleaving ({} ops) ---\n",
            self.message,
            self.trace.len()
        );
        for line in &self.trace {
            s.push_str(line);
            s.push('\n');
        }
        s
    }
}

/// Result of a [`check_with`] exploration.
#[derive(Debug)]
pub struct Report {
    /// Executions (schedules) run.
    pub executions: u64,
    /// True when the DFS drained every schedule within [`Bounds`] (rather
    /// than stopping at `max_executions`).
    pub exhaustive: bool,
    /// The first failing schedule found, if any.
    pub failure: Option<Counterexample>,
}

struct RunOutcome {
    choices: Vec<Choice>,
    failure: Option<String>,
    trace: Vec<String>,
}

/// Run the closure once under a controlled schedule replaying `replay`,
/// recording further choices as defaults (first alternative).
fn run_one<F>(bounds: Bounds, replay: Vec<Choice>, tracing: bool, f: &Arc<F>) -> RunOutcome
where
    F: Fn() + Send + Sync + 'static,
{
    let exec = Arc::new(Execution::new(bounds, replay, tracing));
    let slot = Arc::new(std::sync::Mutex::new(None));
    let root = {
        let exec = exec.clone();
        let slot = slot.clone();
        let f = f.clone();
        std::thread::Builder::new()
            .name("model-root".to_string())
            .spawn(move || thread::run_model_thread(&exec, 0, move || f(), &slot))
            .expect("spawn model root thread")
    };
    {
        let mut g = exec.st.lock().expect("model engine lock");
        while !g.done {
            g = exec.cv.wait(g).expect("model engine lock");
        }
    }
    exec.cv.notify_all();
    let _ = root.join();
    loop {
        // Children can spawn children; drain until the handle list is empty.
        let handles: Vec<_> =
            std::mem::take(&mut *exec.os_handles.lock().expect("model os-handle list"));
        if handles.is_empty() {
            break;
        }
        for h in handles {
            let _ = h.join();
        }
    }
    let mut g = exec.st.lock().expect("model engine lock");
    RunOutcome {
        choices: std::mem::take(&mut g.choices),
        failure: g.failure.take(),
        trace: std::mem::take(&mut g.trace),
    }
}

/// Explore `f` under `bounds`, returning a [`Report`] (never panicking on
/// a counterexample — the sabotage self-test asserts on `failure`).
pub fn check_with<F>(bounds: Bounds, f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    assert!(bounds.weak_window >= 1, "weak_window must be at least 1");
    let f = Arc::new(f);
    let mut path: Vec<Choice> = Vec::new();
    let mut executions: u64 = 0;
    loop {
        executions += 1;
        let out = run_one(bounds, path, false, &f);
        if let Some(message) = out.failure {
            // Deterministic replay of the failing schedule, tracing on.
            let traced = run_one(bounds, out.choices, true, &f);
            return Report {
                executions,
                exhaustive: false,
                failure: Some(Counterexample {
                    message: traced.failure.unwrap_or(message),
                    trace: traced.trace,
                }),
            };
        }
        // Backtrack: advance the deepest choice point that still has an
        // unexplored alternative, dropping everything after it.
        path = out.choices;
        loop {
            match path.last_mut() {
                None => {
                    return Report {
                        executions,
                        exhaustive: true,
                        failure: None,
                    }
                }
                Some(c) if c.picked + 1 < c.num => {
                    c.picked += 1;
                    break;
                }
                Some(_) => {
                    path.pop();
                }
            }
        }
        if executions >= bounds.max_executions {
            return Report {
                executions,
                exhaustive: false,
                failure: None,
            };
        }
    }
}

/// Explore `f` under default [`Bounds`]; panics with the rendered
/// counterexample if any schedule fails, and returns the report otherwise.
pub fn check<F>(f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    let report = check_with(Bounds::default(), f);
    if let Some(cx) = &report.failure {
        panic!(
            "model check failed after {} executions:\n{}",
            report.executions,
            cx.render()
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::sync::{AtomicU64, Condvar, Mutex};
    use super::{check, check_with, Bounds};
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    /// Two unsynchronized load-then-store increments can interleave to 1;
    /// the checker must find that schedule (scheduling exploration works).
    #[test]
    fn litmus_nonatomic_increment_race_is_found() {
        let report = check_with(Bounds::default(), || {
            let c = Arc::new(AtomicU64::new(0));
            let t = {
                let c = c.clone();
                super::thread::spawn(move || {
                    let v = c.load(Ordering::SeqCst);
                    c.store(v + 1, Ordering::SeqCst);
                })
            };
            let v = c.load(Ordering::SeqCst);
            c.store(v + 1, Ordering::SeqCst);
            t.join().expect("inc thread");
            assert_eq!(c.load(Ordering::SeqCst), 2, "lost update");
        });
        let cx = report.failure.expect("lost update must be found");
        assert!(cx.message.contains("lost update"), "got: {}", cx.message);
    }

    /// Message passing with a Relaxed flag: the reader may see the flag
    /// set but stale data (weak-memory modeling works).
    #[test]
    fn litmus_message_passing_relaxed_fails() {
        let report = check_with(Bounds::default(), || {
            let data = Arc::new(AtomicU64::new(0));
            let flag = Arc::new(AtomicU64::new(0));
            let (d, f) = (data.clone(), flag.clone());
            let t = super::thread::spawn(move || {
                d.store(42, Ordering::Relaxed);
                f.store(1, Ordering::Relaxed);
            });
            if flag.load(Ordering::Relaxed) == 1 {
                assert_eq!(data.load(Ordering::Relaxed), 42, "stale data");
            }
            t.join().expect("writer");
        });
        let cx = report
            .failure
            .expect("relaxed message passing must exhibit the stale read");
        assert!(cx.message.contains("stale data"), "got: {}", cx.message);
    }

    /// The same protocol with Release/Acquire is correct: exhaustive pass.
    #[test]
    fn litmus_message_passing_release_acquire_passes() {
        let report = check(|| {
            let data = Arc::new(AtomicU64::new(0));
            let flag = Arc::new(AtomicU64::new(0));
            let (d, f) = (data.clone(), flag.clone());
            let t = super::thread::spawn(move || {
                d.store(42, Ordering::Relaxed);
                f.store(1, Ordering::Release);
            });
            if flag.load(Ordering::Acquire) == 1 {
                assert_eq!(data.load(Ordering::Relaxed), 42);
            }
            t.join().expect("writer");
        });
        assert!(report.exhaustive);
    }

    /// A condvar wait without a predicate loop is wrong; the mandatory
    /// spurious wakeup must expose it.
    #[test]
    fn litmus_spurious_wakeup_breaks_single_wait() {
        let report = check_with(Bounds::default(), || {
            let state = Arc::new((Mutex::new(false), Condvar::new()));
            let s = state.clone();
            let t = super::thread::spawn(move || {
                let (m, cv) = &*s;
                let mut g = m.lock().expect("lock");
                if !*g {
                    // BUG under test: `if` instead of `while`.
                    g = cv.wait(g).expect("wait");
                }
                assert!(*g, "woke without the predicate set");
            });
            {
                let (m, cv) = &*state;
                let mut g = m.lock().expect("lock");
                *g = true;
                cv.notify_all();
            }
            t.join().expect("waiter");
        });
        let cx = report
            .failure
            .expect("spurious wakeup must break the if-wait");
        assert!(
            cx.message.contains("woke without the predicate set"),
            "got: {}",
            cx.message
        );
    }

    /// The fixed version (wait in a loop) passes exhaustively, spurious
    /// wakeups included.
    #[test]
    fn litmus_predicate_loop_survives_spurious_wakeups() {
        let report = check(|| {
            let state = Arc::new((Mutex::new(false), Condvar::new()));
            let s = state.clone();
            let t = super::thread::spawn(move || {
                let (m, cv) = &*s;
                let mut g = m.lock().expect("lock");
                while !*g {
                    g = cv.wait(g).expect("wait");
                }
            });
            {
                let (m, cv) = &*state;
                let mut g = m.lock().expect("lock");
                *g = true;
                cv.notify_all();
            }
            t.join().expect("waiter");
        });
        assert!(report.exhaustive);
    }
}
