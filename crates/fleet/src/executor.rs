//! The persistent work-stealing executor.
//!
//! A [`Fleet`] owns a fixed set of worker threads that live for the fleet's
//! lifetime; batches are submitted to it, not spawned as their own thread
//! pools. Work is described as half-open **index ranges**, never as
//! materialized input vectors: a million-job sweep enters the executor as a
//! single `[0, 1_000_000)` task, so queue memory is proportional to the
//! number of *fragments* in flight, not the number of jobs.
//!
//! Scheduling is classic work stealing:
//!
//! * every worker has its own deque; the owner pushes and pops at the back,
//! * a worker that runs dry scans the other deques round-robin and steals
//!   from the **front** — the oldest (and therefore usually largest) task,
//! * stealing takes *half* of the victim's queue: half its tasks when it
//!   has several, or half of a single task's index range when it has one
//!   large fragment (ranges split recursively, so one huge range diffuses
//!   across all workers in `O(log n)` steals),
//! * workers execute at most [`Batch`]-grain indices of a task at a time,
//!   pushing the remainder back, so a steal request never waits behind an
//!   unbounded chunk,
//! * idle workers park on a condvar and are woken only when new work is
//!   pushed while somebody is parked.
//!
//! All synchronization goes through the [`crate::sync`] facade so the
//! `model-sync` build runs this exact code under the model checker; the
//! per-field memory-ordering arguments are documented on [`Core`] and
//! [`Batch`] and tabulated in DESIGN.md §14.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use crate::sync::thread::JoinHandle;
use crate::sync::{Arc, Condvar, Mutex};

/// A contiguous fragment of a batch's index space.
struct Task {
    batch: Arc<Batch>,
    lo: u64,
    hi: u64,
}

/// State shared by all fragments of one submitted batch.
struct Batch {
    /// The job body, called once per index.
    run: Box<dyn Fn(u64) + Send + Sync>,
    /// Indices not yet executed (or skipped); the batch is done at 0.
    ///
    /// Ordering: `fetch_sub(AcqRel)` in [`execute`]. Release so every
    /// job's side effects are ordered before the decrement that announces
    /// them done; Acquire so the worker that observes the count hit zero
    /// also observes all effects announced by *other* workers' decrements
    /// before it takes the `done` mutex and wakes the waiter.
    remaining: AtomicU64,
    /// Max indices a worker executes per task before re-queuing the rest.
    grain: u64,
    /// Set when any job panicked; remaining fragments are skipped.
    ///
    /// Ordering: Release store / Acquire load. A worker that reads `true`
    /// must see the panic already recorded under `done` (store is ordered
    /// after it); a stale `false` merely runs jobs that could have been
    /// skipped — benign, so nothing stronger is needed.
    poisoned: AtomicBool,
    /// Completion flag + first panic payload, guarded for the waiter.
    done: Mutex<BatchDone>,
    /// Signaled when `remaining` hits zero.
    done_cv: Condvar,
}

#[derive(Default)]
struct BatchDone {
    finished: bool,
    panic_msg: Option<String>,
}

/// Executor state shared between the handle and the workers.
///
/// `queued` and `idle` form a Dekker-style store-buffer pair — each side
/// writes its own flag and then reads the other's ([`Core::push`] does
/// `queued += 1; read idle`, [`Core::park`] does `idle += 1; read queued`).
/// Both must be `SeqCst`: with anything weaker, both sides may read the
/// other's *old* value (pusher sees no idle worker and skips the notify,
/// parker sees no queued work and sleeps) and a wakeup is lost. The
/// `sabotage-lost-wake` self-test breaks the protocol deliberately and the
/// model checker must report exactly that interleaving.
struct Core {
    deques: Vec<Mutex<VecDeque<Task>>>,
    /// Tasks currently sitting in deques (not the jobs inside them).
    ///
    /// Ordering: all accesses `SeqCst` (store-buffer pairing with `idle`,
    /// see struct docs). The counter is advisory for parking only; the
    /// deques themselves are mutex-protected.
    queued: AtomicU64,
    /// Workers currently parked on `wake` (raised slightly early: between
    /// the increment and the wait the worker holds the park lock, where a
    /// pusher's notify cannot be missed).
    ///
    /// Ordering: all accesses `SeqCst` (store-buffer pairing with
    /// `queued`, see struct docs).
    idle: AtomicUsize,
    park: Mutex<()>,
    wake: Condvar,
    /// Ordering: `SeqCst` store in [`Fleet::drop`], `SeqCst` loads in the
    /// worker loop. The load in [`Core::park`]'s sleep predicate pairs
    /// with the shutdown broadcast the same way `queued` pairs with a
    /// push's notify; shutdown is once-per-fleet, so the strongest
    /// ordering costs nothing.
    shutdown: AtomicBool,
    /// Diagnostic: successful steals since construction.
    ///
    /// Ordering: `Relaxed` (allowlisted in `no-relaxed-ordering`). A pure
    /// statistics counter: monotonic, never read back into control flow,
    /// only reported by [`Fleet::steals`] after batches complete (the
    /// batch-completion AcqRel chain orders it for any sane caller).
    stolen: AtomicU64,
    /// Round-robin cursor for distributing submissions.
    ///
    /// Ordering: `Relaxed` (allowlisted in `no-relaxed-ordering`). Only
    /// load *balance* depends on it, never correctness: any interleaving
    /// of `fetch_add`s yields valid deque slots, and stealing erases
    /// placement skew anyway.
    rr: AtomicUsize,
}

/// A persistent work-stealing thread pool executing index-range batches.
///
/// ```
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use std::sync::Arc;
/// let fleet = pnoc_fleet::Fleet::new(4);
/// let sum = Arc::new(AtomicU64::new(0));
/// let s = sum.clone();
/// fleet
///     .submit(vec![(0, 1000)], 16, move |i| {
///         s.fetch_add(i, Ordering::Relaxed);
///     })
///     .wait();
/// assert_eq!(sum.load(Ordering::Relaxed), 499_500);
/// ```
pub struct Fleet {
    core: Arc<Core>,
    workers: Vec<JoinHandle<()>>,
}

/// Waitable handle to a submitted batch.
pub struct BatchHandle {
    batch: Arc<Batch>,
}

impl BatchHandle {
    /// Block until every index of the batch has been executed. If any job
    /// panicked, re-panics with the first captured payload after the batch
    /// drains (remaining fragments are skipped, not run).
    pub fn wait(self) {
        let mut g = self.batch.done.lock().expect("batch lock poisoned");
        while !g.finished {
            g = self.batch.done_cv.wait(g).expect("batch lock poisoned");
        }
        if let Some(msg) = g.panic_msg.take() {
            drop(g);
            panic!("fleet job panicked: {msg}");
        }
    }
}

impl Fleet {
    /// A fleet with `threads` persistent workers (at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let core = Arc::new(Core {
            deques: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            queued: AtomicU64::new(0),
            idle: AtomicUsize::new(0),
            park: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            stolen: AtomicU64::new(0),
            rr: AtomicUsize::new(0),
        });
        let workers = (0..threads)
            .map(|w| {
                let core = core.clone();
                crate::sync::thread::Builder::new()
                    .name(format!("fleet-{w}"))
                    .spawn(move || worker_loop(&core, w))
                    .expect("spawn fleet worker")
            })
            .collect();
        Self { core, workers }
    }

    /// A fleet sized by the process-wide thread policy
    /// ([`pnoc_sim::sweep::default_threads`]: `--threads` override, then
    /// `PNOC_THREADS`, then cgroup-capped hardware parallelism).
    pub fn with_default_threads() -> Self {
        Self::new(pnoc_sim::sweep::default_threads())
    }

    /// A fleet sized by [`suite_threads`]: `default` workers unless the
    /// `PNOC_THREADS` environment variable overrides it. The test suites
    /// build scenario-agnostic fleets through this so CI can run the whole
    /// suite once degenerate (`PNOC_THREADS=1`: stealing never fires,
    /// parking is a pure two-party handshake) and once oversubscribed
    /// (`PNOC_THREADS=32` on fewer cores: maximal preemption noise).
    pub fn with_suite_threads(default: usize) -> Self {
        Self::new(suite_threads(default))
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.core.deques.len()
    }

    /// Successful steals since construction (diagnostic).
    pub fn steals(&self) -> u64 {
        self.core.stolen.load(Ordering::Relaxed)
    }

    /// Submit a batch: `run(i)` is called exactly once for every index in
    /// every `[lo, hi)` range (empty ranges are ignored). `grain` bounds how
    /// many indices a worker executes before re-checking its queue; use 1
    /// for heavyweight jobs (simulations), larger values to amortize queue
    /// traffic on micro-jobs.
    ///
    /// Ranges may be arbitrarily large — they are split lazily as workers
    /// execute and steal. Returns immediately; call [`BatchHandle::wait`]
    /// for completion.
    pub fn submit<F>(&self, ranges: Vec<(u64, u64)>, grain: u64, run: F) -> BatchHandle
    where
        F: Fn(u64) + Send + Sync + 'static,
    {
        let total: u64 = ranges.iter().map(|&(lo, hi)| hi.saturating_sub(lo)).sum();
        let batch = Arc::new(Batch {
            run: Box::new(run),
            remaining: AtomicU64::new(total),
            grain: grain.max(1),
            poisoned: AtomicBool::new(false),
            done: Mutex::new(BatchDone {
                finished: total == 0,
                panic_msg: None,
            }),
            done_cv: Condvar::new(),
        });
        if total == 0 {
            return BatchHandle { batch };
        }

        // Seed the deques: split the work into ~`threads` pieces so every
        // worker finds a fragment immediately instead of queueing behind a
        // single deque; stealing handles any residual imbalance.
        let threads = self.core.deques.len() as u64;
        let piece = (total.div_ceil(threads)).max(batch.grain);
        for (lo, hi) in ranges {
            let mut lo = lo;
            while lo < hi {
                let cut = (lo + piece).min(hi);
                let slot = self.core.rr.fetch_add(1, Ordering::Relaxed) % self.core.deques.len();
                self.core.push(
                    slot,
                    Task {
                        batch: batch.clone(),
                        lo,
                        hi: cut,
                    },
                );
                lo = cut;
            }
        }
        BatchHandle {
            batch: batch.clone(),
        }
    }

    /// Fork/join: run `f` over every input on the fleet, returning outputs
    /// in input order. Every harness whose inputs are already materialized
    /// fans out through this. Inputs are moved into the batch (workers are
    /// persistent threads, so borrows cannot cross into them); a panicking
    /// job re-panics here, as in [`BatchHandle::wait`].
    pub fn map<I, O, F>(&self, inputs: Vec<I>, f: F) -> Vec<O>
    where
        I: Send + Sync + 'static,
        O: Send + 'static,
        F: Fn(usize, &I) -> O + Send + Sync + 'static,
    {
        let n = inputs.len();
        if n == 0 {
            return Vec::new();
        }
        let inputs = Arc::new(inputs);
        let slots: Arc<Vec<Mutex<Option<O>>>> =
            Arc::new((0..n).map(|_| Mutex::new(None)).collect());
        let ins = inputs.clone();
        let outs = slots.clone();
        self.submit(vec![(0, n as u64)], 1, move |i| {
            let i = usize::try_from(i).expect("index fits usize");
            let out = f(i, &ins[i]);
            *outs[i].lock().expect("map slot poisoned") = Some(out);
        })
        .wait();
        // Workers may still hold their Arc clones for a moment after the
        // waiter unblocks, so take the outputs through the mutexes instead
        // of unwrapping the Arc.
        slots
            .iter()
            .map(|slot| {
                slot.lock()
                    .expect("map slot poisoned")
                    .take()
                    .expect("worker skipped a map index")
            })
            .collect()
    }
}

/// The worker count a test scenario should use when it doesn't demand a
/// specific width: the `PNOC_THREADS` environment variable when it parses
/// to a positive integer, else `default`. See
/// [`Fleet::with_suite_threads`] for why CI varies this.
pub fn suite_threads(default: usize) -> usize {
    suite_threads_from(std::env::var("PNOC_THREADS").ok().as_deref(), default)
}

/// Pure core of [`suite_threads`], split out so the parse-and-fallback
/// policy is testable without mutating the process environment.
fn suite_threads_from(var: Option<&str>, default: usize) -> usize {
    var.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(default)
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.core.shutdown.store(true, Ordering::SeqCst);
        {
            let _g = self.core.park.lock().expect("park lock poisoned");
            self.core.wake.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Core {
    /// Push a task onto deque `slot` and wake a parked worker if any.
    fn push(&self, slot: usize, task: Task) {
        // Announce the work *before* inserting it. The model checker found
        // the reverse order: a consumer can pop the task in the window
        // between insert and increment, underflowing `queued` to u64::MAX,
        // after which no worker ever parks until the counter wraps back.
        // Incrementing first makes `queued` an over-approximation (never an
        // under-count): a worker that reads `queued == 0` knows no task is
        // enqueued and no in-flight push has passed its announcement.
        self.queued.fetch_add(1, Ordering::SeqCst);
        self.deques[slot]
            .lock()
            .expect("deque poisoned")
            .push_back(task);
        if self.idle.load(Ordering::SeqCst) > 0 {
            let _g = self.park.lock().expect("park lock poisoned");
            self.wake.notify_all();
        }
    }

    /// Pop from our own deque (LIFO end, cache-warm fragments first).
    fn pop_own(&self, me: usize) -> Option<Task> {
        let task = self.deques[me].lock().expect("deque poisoned").pop_back();
        if task.is_some() {
            self.queued.fetch_sub(1, Ordering::SeqCst);
        }
        task
    }

    /// Try to steal half of some victim's queue, scanning round-robin from
    /// our right-hand neighbour.
    fn steal(&self, me: usize) -> Option<Task> {
        let n = self.deques.len();
        for off in 1..n {
            let victim = (me + off) % n;
            let mut dq = self.deques[victim].lock().expect("deque poisoned");
            match dq.len() {
                0 => {}
                1 => {
                    let task = dq.front_mut().expect("len checked");
                    let len = task.hi - task.lo;
                    if len > task.batch.grain {
                        // Split the lone fragment: take the front half.
                        let mid = task.lo + len / 2;
                        let stolen = Task {
                            batch: task.batch.clone(),
                            lo: task.lo,
                            hi: mid,
                        };
                        task.lo = mid;
                        drop(dq);
                        // The victim keeps its (shrunk) task queued, and the
                        // stolen half goes straight to execution, so the
                        // queued-task count is unchanged.
                        self.stolen.fetch_add(1, Ordering::Relaxed);
                        return Some(stolen);
                    }
                    let task = dq.pop_front().expect("len checked");
                    drop(dq);
                    self.queued.fetch_sub(1, Ordering::SeqCst);
                    self.stolen.fetch_add(1, Ordering::Relaxed);
                    return Some(task);
                }
                len => {
                    // Take the front (oldest, largest) half of the queue,
                    // keep one for ourselves, push the rest to our deque.
                    let take = len / 2;
                    let mut grabbed: Vec<Task> = Vec::with_capacity(take);
                    for _ in 0..take {
                        grabbed.push(dq.pop_front().expect("len checked"));
                    }
                    drop(dq);
                    self.stolen.fetch_add(1, Ordering::Relaxed);
                    let first = grabbed.remove(0);
                    self.queued.fetch_sub(1, Ordering::SeqCst);
                    if !grabbed.is_empty() {
                        let mut mine = self.deques[me].lock().expect("deque poisoned");
                        for t in grabbed {
                            mine.push_back(t);
                        }
                    }
                    return Some(first);
                }
            }
        }
        None
    }

    /// Next task for worker `me`: own deque first, then stealing.
    fn find_task(&self, me: usize) -> Option<Task> {
        self.pop_own(me).or_else(|| self.steal(me))
    }

    /// Park until a push (or shutdown) wakes us. Lost-wakeup argument: the
    /// idle count is raised *before* taking the park lock and re-checking
    /// `queued`; a pusher makes work visible (`queued += 1`), then reads
    /// `idle` — both `SeqCst`, so at least one side of the store-buffer
    /// pair sees the other (see [`Core`] docs). If the pusher saw
    /// `idle > 0` it notifies under the park lock, which we either hold
    /// (the notify waits for our `wait` to release it) or have not taken
    /// yet (we then re-check `queued` and never sleep). If the pusher saw
    /// `idle == 0`, SeqCst guarantees our `queued` re-check sees its push
    /// and we don't sleep. Spurious wakeups are safe: the caller loops.
    fn park(&self) {
        self.idle.fetch_add(1, Ordering::SeqCst);
        let g = self.park.lock().expect("park lock poisoned");
        // SABOTAGE(sabotage-lost-wake): lowering `idle` before the sleep
        // reopens the classic race — a push landing between the decrement
        // and the wait sees no parked worker, skips the notify, and this
        // worker sleeps with work pending. The model checker must report
        // this interleaving (ci.sh sabotage self-test).
        #[cfg(feature = "sabotage-lost-wake")]
        self.idle.fetch_sub(1, Ordering::SeqCst);
        if self.queued.load(Ordering::SeqCst) == 0 && !self.shutdown.load(Ordering::SeqCst) {
            let _g = self.wake.wait(g).expect("park lock poisoned");
        } else {
            // Work is announced but not grabbable yet (a push is between
            // its increment and its deque insert, or a steal raced us).
            // Sleeping would risk missing a notify that already happened;
            // spinning without yielding would burn the core — and under the
            // model checker an unyielding spin is flagged as a livelock.
            drop(g);
            crate::sync::thread::yield_now();
        }
        #[cfg(not(feature = "sabotage-lost-wake"))]
        self.idle.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Execute up to one grain of `task`, re-queueing the remainder, then
/// account the completed indices against the batch.
fn execute(core: &Core, me: usize, task: Task) {
    let grain = task.batch.grain;
    let (lo, hi) = (task.lo, task.hi);
    let cut = (lo + grain).min(hi);
    if cut < hi {
        core.push(
            me,
            Task {
                batch: task.batch.clone(),
                lo: cut,
                hi,
            },
        );
    }
    let batch = task.batch;
    if !batch.poisoned.load(Ordering::Acquire) {
        for i in lo..cut {
            let result = catch_unwind(AssertUnwindSafe(|| (batch.run)(i)));
            if let Err(payload) = result {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                batch.poisoned.store(true, Ordering::Release);
                let mut g = batch.done.lock().expect("batch lock poisoned");
                if g.panic_msg.is_none() {
                    g.panic_msg = Some(msg);
                }
                break;
            }
        }
    }
    // Count down every index of the chunk, run or skipped, so waiters
    // always unblock.
    let done = cut - lo;
    if batch.remaining.fetch_sub(done, Ordering::AcqRel) == done {
        let mut g = batch.done.lock().expect("batch lock poisoned");
        g.finished = true;
        batch.done_cv.notify_all();
    }
}

fn worker_loop(core: &Core, me: usize) {
    loop {
        if core.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if let Some(task) = core.find_task(me) {
            execute(core, me, task);
            continue;
        }
        // Nothing anywhere: park until a push wakes us (see Core::park for
        // the lost-wakeup argument).
        core.park();
    }
}

// The std-thread suite is meaningless under the model facade (and the
// model primitives panic outside `model::check`), so it compiles only in
// normal builds; `model_tests` below is its model-sync counterpart.
#[cfg(all(test, not(feature = "model-sync")))]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn zero_jobs_completes_immediately() {
        let fleet = Fleet::with_suite_threads(4);
        fleet
            .submit(Vec::new(), 1, |_| panic!("must not run"))
            .wait();
        fleet
            .submit(vec![(5, 5), (10, 3)], 1, |_| panic!("must not run"))
            .wait();
        let out: Vec<u8> = fleet.map(Vec::<u8>::new(), |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let fleet = Fleet::with_suite_threads(8);
        let hits: Arc<Vec<AtomicU64>> = Arc::new((0..10_000).map(|_| AtomicU64::new(0)).collect());
        let h = hits.clone();
        fleet
            .submit(vec![(0, 10_000)], 7, move |i| {
                h[i as usize].fetch_add(1, Ordering::Relaxed);
            })
            .wait();
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn disjoint_ranges_and_reuse_across_batches() {
        let fleet = Fleet::with_suite_threads(3);
        for round in 0..5u64 {
            let sum = Arc::new(AtomicU64::new(0));
            let s = sum.clone();
            fleet
                .submit(vec![(0, 10), (100, 110), (1000, 1001)], 2, move |i| {
                    s.fetch_add(i, Ordering::Relaxed);
                })
                .wait();
            let expect: u64 = (0..10).sum::<u64>() + (100..110).sum::<u64>() + 1000;
            assert_eq!(sum.load(Ordering::Relaxed), expect, "round {round}");
        }
    }

    #[test]
    fn fewer_jobs_than_threads() {
        let fleet = Fleet::with_suite_threads(16);
        let out = fleet.map(vec![1u64, 2, 3], |_, &x| x * 10);
        assert_eq!(out, vec![10, 20, 30]);
        let out = fleet.map(vec![9u64], |i, &x| (i, x));
        assert_eq!(out, vec![(0, 9)]);
    }

    #[test]
    fn map_preserves_input_order() {
        let fleet = Fleet::with_suite_threads(4);
        let inputs: Vec<u64> = (0..2000).collect();
        let out = fleet.map(inputs.clone(), |i, &x| {
            assert_eq!(i as u64, x);
            x * 3
        });
        assert_eq!(out, inputs.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_fleet_works() {
        let fleet = Fleet::new(1);
        let out = fleet.map((0..100u64).collect::<Vec<_>>(), |_, &x| x + 1);
        assert_eq!(out.len(), 100);
        assert_eq!(out[99], 100);
    }

    #[test]
    fn panic_propagates_to_waiter() {
        let fleet = Fleet::with_suite_threads(4);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            fleet
                .submit(vec![(0, 100)], 1, |i| {
                    assert!(i != 37, "job 37 exploded");
                })
                .wait();
        }));
        let err = result.expect_err("panic must propagate");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("job 37 exploded"), "got: {msg}");
        // The fleet survives a poisoned batch.
        let out = fleet.map(vec![1u64, 2], |_, &x| x);
        assert_eq!(out, vec![1, 2]);

        // The same through `map`, on a 1-worker and a 4-worker fleet.
        for threads in [1, 4] {
            let fleet = Fleet::new(threads);
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                fleet.map((0..64u32).collect(), |_, &x| {
                    assert!(x != 17, "sweep point {x} exploded");
                    x * 2
                })
            }));
            let err = result.expect_err("map must propagate a job's panic");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("sweep point 17 exploded"), "{threads}: {msg}");
            let out = fleet.map(vec![10u32, 20], |_, &x| x + 1);
            assert_eq!(out, vec![11, 21], "{threads}-worker fleet after a panic");
        }
    }

    #[test]
    fn park_never_loses_a_wakeup_under_stress() {
        // Std-thread cousin of the model-checked park/wake test: many tiny
        // batches force constant park/unpark churn; a lost wakeup shows up
        // as a hang (caught by the harness timeout).
        let fleet = Fleet::with_suite_threads(2);
        for _ in 0..200 {
            let hits = Arc::new(AtomicU64::new(0));
            let h = hits.clone();
            fleet
                .submit(vec![(0, 1)], 1, move |_| {
                    h.fetch_add(1, Ordering::Relaxed);
                })
                .wait();
            assert_eq!(hits.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn suite_threads_parses_and_falls_back() {
        assert_eq!(suite_threads_from(None, 4), 4);
        assert_eq!(suite_threads_from(Some("1"), 4), 1);
        assert_eq!(suite_threads_from(Some(" 32 "), 4), 32);
        assert_eq!(suite_threads_from(Some("0"), 4), 4);
        assert_eq!(suite_threads_from(Some("lots"), 4), 4);
        assert_eq!(suite_threads_from(Some(""), 4), 4);
    }

    #[test]
    fn large_single_range_diffuses_via_stealing() {
        // One huge range, blocked first worker: the others must steal it
        // apart. With a tiny grain every worker should end up contributing.
        let fleet = Fleet::new(4);
        let hits = Arc::new(AtomicU64::new(0));
        let h = hits.clone();
        fleet
            .submit(vec![(0, 50_000)], 16, move |_| {
                h.fetch_add(1, Ordering::Relaxed);
            })
            .wait();
        assert_eq!(hits.load(Ordering::Relaxed), 50_000);
        assert!(
            fleet.steals() > 0,
            "a 50k-index range on 4 workers should involve stealing"
        );
    }
}

/// Model-checked protocol tests (`--features model-sync`): the deque
/// push/steal-half protocol and the `queued`/`idle`/park/wake handshake,
/// run against the *real* `Core`/`Batch`/`execute` code via the sync
/// facade. See DESIGN.md §14 for what the checker explores.
#[cfg(all(test, feature = "model-sync"))]
mod model_tests {
    use super::*;
    use crate::model::{check_with, Bounds};
    use std::sync::atomic::{AtomicU64 as StdAtomicU64, Ordering as StdOrdering};

    fn mini_core(threads: usize) -> Arc<Core> {
        Arc::new(Core {
            deques: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            queued: AtomicU64::new(0),
            idle: AtomicUsize::new(0),
            park: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            stolen: AtomicU64::new(0),
            rr: AtomicUsize::new(0),
        })
    }

    fn mini_batch(total: u64, grain: u64, run: impl Fn(u64) + Send + Sync + 'static) -> Arc<Batch> {
        Arc::new(Batch {
            run: Box::new(run),
            remaining: AtomicU64::new(total),
            grain,
            poisoned: AtomicBool::new(false),
            done: Mutex::new(BatchDone {
                finished: total == 0,
                panic_msg: None,
            }),
            done_cv: Condvar::new(),
        })
    }

    /// Deque protocol: one owner executing from the back, one thief
    /// stealing (and range-splitting) from the front. Every index must run
    /// exactly once — no lost and no duplicated task — under every
    /// schedule within bounds.
    #[test]
    fn model_deque_push_steal_half_exactly_once() {
        const N: u64 = 3;
        let bounds = Bounds {
            preemptions: 2,
            ..Bounds::default()
        };
        let report = check_with(bounds, || {
            let core = mini_core(2);
            let hits: Arc<Vec<StdAtomicU64>> =
                Arc::new((0..N).map(|_| StdAtomicU64::new(0)).collect());
            let h = hits.clone();
            let batch = mini_batch(N, 1, move |i| {
                h[usize::try_from(i).expect("index fits")].fetch_add(1, StdOrdering::Relaxed);
            });
            core.push(
                0,
                Task {
                    batch: batch.clone(),
                    lo: 0,
                    hi: N,
                },
            );
            let owner = {
                let core = core.clone();
                crate::sync::thread::spawn(move || {
                    while let Some(t) = core.find_task(0) {
                        execute(&core, 0, t);
                    }
                })
            };
            let thief = {
                let core = core.clone();
                crate::sync::thread::spawn(move || {
                    while let Some(t) = core.find_task(1) {
                        execute(&core, 1, t);
                    }
                })
            };
            owner.join().expect("owner");
            thief.join().expect("thief");
            assert_eq!(batch.remaining.load(Ordering::SeqCst), 0, "batch drained");
            assert_eq!(
                core.queued.load(Ordering::SeqCst),
                0,
                "queued count balanced"
            );
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(
                    h.load(StdOrdering::Relaxed),
                    1,
                    "index {i} ran exactly once"
                );
            }
        });
        assert!(report.exhaustive, "deque protocol explored exhaustively");
        assert!(report.executions > 1, "more than one schedule explored");
    }

    /// The park/wake handshake plus the batch-done handshake, end to end:
    /// a worker that parks when it finds nothing must always be woken by a
    /// concurrent push (no lost wakeup, no sleeping with work pending),
    /// and the waiter on the batch condvar must always unblock. A lost
    /// wakeup manifests as a deadlock, which the checker reports with the
    /// failing interleaving. Disabled under sabotage-lost-wake — there the
    /// protocol IS broken and `model_sabotage_lost_wake_is_caught` asserts
    /// the checker proves it.
    #[test]
    #[cfg(not(feature = "sabotage-lost-wake"))]
    fn model_park_wake_no_lost_wakeup() {
        let report = check_with(Bounds::default(), || {
            let (core, batch, hits) = park_wake_scenario();
            assert_eq!(hits.load(StdOrdering::Relaxed), 1, "job ran exactly once");
            assert_eq!(batch.remaining.load(Ordering::SeqCst), 0);
            drop(core);
        });
        if let Some(cx) = &report.failure {
            panic!("counterexample:\n{}", cx.render());
        }
        assert!(
            report.exhaustive,
            "park/wake protocol explored exhaustively"
        );
    }

    /// Shared scenario: a worker thread running the real
    /// find-task/execute/park loop, a pusher (the root thread) submitting
    /// one task, waiting on the batch-done condvar via the real
    /// `BatchHandle::wait`, then shutting down exactly like `Fleet::drop`.
    fn park_wake_scenario() -> (Arc<Core>, Arc<Batch>, Arc<StdAtomicU64>) {
        let core = mini_core(1);
        let hits = Arc::new(StdAtomicU64::new(0));
        let h = hits.clone();
        let batch = mini_batch(1, 1, move |_| {
            h.fetch_add(1, StdOrdering::Relaxed);
        });
        let worker = {
            let core = core.clone();
            crate::sync::thread::spawn(move || loop {
                if core.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(t) = core.find_task(0) {
                    execute(&core, 0, t);
                } else {
                    core.park();
                }
            })
        };
        core.push(
            0,
            Task {
                batch: batch.clone(),
                lo: 0,
                hi: 1,
            },
        );
        BatchHandle {
            batch: batch.clone(),
        }
        .wait();
        // Shutdown exactly as Fleet::drop does.
        core.shutdown.store(true, Ordering::SeqCst);
        {
            let _g = core.park.lock().expect("park lock poisoned");
            core.wake.notify_all();
        }
        worker.join().expect("worker");
        (core, batch, hits)
    }

    /// Sabotage self-test: with the idle decrement moved before the wait,
    /// the checker must find the lost-wakeup interleaving and report it as
    /// a deadlock with a trace. Proves the model check is alive, not
    /// vacuously green.
    #[test]
    #[cfg(feature = "sabotage-lost-wake")]
    fn model_sabotage_lost_wake_is_caught() {
        let report = check_with(Bounds::default(), || {
            let _ = park_wake_scenario();
        });
        let cx = report
            .failure
            .expect("sabotaged park/wake protocol must produce a counterexample");
        assert!(
            cx.message.contains("deadlock"),
            "lost wakeup should surface as deadlock, got: {}",
            cx.message
        );
        assert!(
            !cx.trace.is_empty(),
            "counterexample must carry the failing interleaving"
        );
        eprintln!(
            "sabotage-lost-wake counterexample found after {} executions:\n{}",
            report.executions,
            cx.render()
        );
    }
}
