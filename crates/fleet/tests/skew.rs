//! Scheduling tests on pathologically imbalanced workloads, plus the sweep
//! edge cases (zero jobs, jobs ≪ threads).
//!
//! The acceptance criterion: on a 10k-job sweep whose cost is concentrated
//! in a contiguous block (what a rate sweep looks like near saturation —
//! the high-rate cells cluster at the end of the index space), the fleet's
//! work stealing must beat the fixed-chunk static partition by ≥1.3× on the
//! same thread count.
//!
//! Wall clock only reflects scheduling quality when the threads actually
//! run in parallel, so the primary assertion here is on the **work-unit
//! makespan** — the maximum total work any one worker executes, i.e. the
//! critical path that wall clock converges to on an unloaded ≥T-core
//! machine. For the static partition the makespan is the heaviest chunk by
//! construction; for the fleet it is measured per worker thread. When the
//! host really has ≥T cores, the wall-clock ratio is asserted too.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use pnoc_fleet::Fleet;

/// Deterministic CPU-bound spin: `iters` SplitMix64 steps. The result is
/// black-boxed so the loop cannot be optimized away.
fn spin(iters: u64) -> u64 {
    let mut s = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for _ in 0..iters {
        acc = acc.wrapping_add(pnoc_sim::rng::splitmix64(&mut s));
    }
    black_box(acc)
}

/// The comparator: a *static* contiguous-chunk fork/join. Worker `t` of
/// `threads` runs the slice `[t*ceil(n/threads), ...)` with **no**
/// rebalancing, so if one chunk holds the expensive jobs (the
/// near-saturation rates of a sweep sit next to each other in input order)
/// every other worker finishes early and idles. Outputs come back in input
/// order.
fn run_fixed_chunks<I: Sync, O: Send>(
    inputs: &[I],
    threads: usize,
    f: impl Fn(&I) -> O + Sync,
) -> Vec<O> {
    let chunk = inputs.len().div_ceil(threads.max(1)).max(1);
    let f = &f;
    std::thread::scope(|scope| {
        let workers: Vec<_> = inputs
            .chunks(chunk)
            .map(|part| scope.spawn(move || part.iter().map(f).collect::<Vec<O>>()))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("fixed-chunk worker panicked"))
            .collect()
    })
}

/// Makespan of the static partition `run_fixed_chunks` uses: the heaviest
/// contiguous chunk of `ceil(n / threads)` jobs. Exact by construction —
/// each worker runs exactly one such chunk.
fn fixed_makespan(costs: &[u64], threads: usize) -> u64 {
    if costs.is_empty() {
        return 0;
    }
    let chunk = costs.len().div_ceil(threads);
    costs
        .chunks(chunk)
        .map(|c| c.iter().sum::<u64>())
        .max()
        .unwrap_or(0)
}

/// Run `costs` through a fleet of `threads` workers, charging each job's
/// cost to the worker thread that executed it. Returns (makespan in work
/// units, wall time).
fn fleet_run(costs: Arc<Vec<u64>>, threads: usize) -> (u64, Duration) {
    let fleet = Fleet::new(threads);
    let ledger: Arc<Mutex<Vec<(ThreadId, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let l = ledger.clone();
    let c = costs.clone();
    let start = Instant::now();
    fleet
        .submit(vec![(0, costs.len() as u64)], 1, move |i| {
            let units = c[i as usize];
            spin(units);
            let id = std::thread::current().id();
            let mut g = l.lock().expect("ledger");
            match g.iter_mut().find(|(t, _)| *t == id) {
                Some(entry) => entry.1 += units,
                None => g.push((id, units)),
            }
        })
        .wait();
    let wall = start.elapsed();
    let g = ledger.lock().expect("ledger");
    let total: u64 = g.iter().map(|&(_, w)| w).sum();
    assert_eq!(
        total,
        costs.iter().sum::<u64>(),
        "every job charged exactly once"
    );
    (g.iter().map(|&(_, w)| w).max().unwrap_or(0), wall)
}

/// Assert the fleet's makespan beats the fixed partition's by ≥1.3×; when
/// the host genuinely has ≥`threads` cores, assert wall clock too.
fn assert_skew_win(costs: Vec<u64>, threads: usize, what: &str) {
    let fixed_units = fixed_makespan(&costs, threads);

    let start = Instant::now();
    let out = run_fixed_chunks(&costs, threads, |&iters| spin(iters));
    let fixed_wall = start.elapsed();
    assert_eq!(out.len(), costs.len());

    let (fleet_units, fleet_wall) = fleet_run(Arc::new(costs), threads);

    let unit_ratio = fixed_units as f64 / fleet_units as f64;
    assert!(
        unit_ratio >= 1.3,
        "{what}: fleet critical path must be ≥1.3× shorter than fixed \
         chunks; got {unit_ratio:.2}× ({fixed_units} vs {fleet_units} units)"
    );

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores >= threads {
        let wall_ratio = fixed_wall.as_secs_f64() / fleet_wall.as_secs_f64();
        assert!(
            wall_ratio >= 1.3,
            "{what}: fleet must be ≥1.3× faster in wall clock on a \
             {cores}-core host; got {wall_ratio:.2}× \
             (fixed {fixed_wall:?}, fleet {fleet_wall:?})"
        );
    } else {
        println!(
            "{what}: host has {cores} core(s) < {threads} threads; \
             wall-clock assertion skipped (unit makespan ratio {unit_ratio:.2}×, \
             wall {fixed_wall:?} vs {fleet_wall:?})"
        );
    }
}

#[test]
fn fleet_beats_fixed_chunks_on_contiguous_heavy_block() {
    // 10_000 jobs; the last 1_000 cost 50× the rest. A static partition
    // into `threads` contiguous chunks lands the whole heavy block on the
    // final chunk: fixed ≈ 51_500 work units on its critical path vs the
    // fleet's ≈ 14_750 (total/threads), a theoretical 3.5× gap at T=4.
    const JOBS: usize = 10_000;
    const HEAVY_FROM: usize = 9_000;
    const UNIT: u64 = 1_500; // spin iterations per work unit (~2µs)
    const THREADS: usize = 4;

    let costs: Vec<u64> = (0..JOBS)
        .map(|i| if i >= HEAVY_FROM { 50 * UNIT } else { UNIT })
        .collect();
    assert_skew_win(costs, THREADS, "contiguous heavy block");
}

#[test]
fn fleet_beats_fixed_chunks_on_one_pathological_job() {
    // One job 100× longer than its 799 siblings, buried mid-range. With 8
    // threads the fixed partition serializes ~99 normal jobs behind it
    // (chunk = 100 jobs): critical path ≈ 199 units vs the fleet's ≈ 112
    // (the heavy job's range splits on first steal, so its worker sheds the
    // rest of its chunk) — ~1.8× expected.
    // The unit is sized so the whole run spans many scheduler periods —
    // short runs make the per-worker ledger lumpy on time-shared hosts.
    const JOBS: usize = 800;
    const HEAVY: usize = 400;
    const UNIT: u64 = 150_000; // ~220µs per normal job
    const THREADS: usize = 8;

    let costs: Vec<u64> = (0..JOBS)
        .map(|i| if i == HEAVY { 100 * UNIT } else { UNIT })
        .collect();
    assert_skew_win(costs, THREADS, "one 100× job");
}

#[test]
fn zero_jobs_is_a_no_op_everywhere() {
    let empty: Vec<u64> = Vec::new();
    let out = run_fixed_chunks(&empty, 4, |&x| x);
    assert!(out.is_empty());
    assert_eq!(fixed_makespan(&empty, 4), 0);

    let fleet = Fleet::new(4);
    fleet
        .submit(Vec::new(), 1, |_| panic!("no job expected"))
        .wait();
    let mapped: Vec<u64> = fleet.map(empty, |_, &x| x);
    assert!(mapped.is_empty());
}

#[test]
fn far_fewer_jobs_than_threads_completes_exactly() {
    // 3 jobs on 8 threads: most workers park immediately and the batch must
    // still drain without losing or duplicating work.
    let fleet = Fleet::new(8);
    let hits = Arc::new(AtomicU64::new(0));
    let h = hits.clone();
    fleet
        .submit(vec![(10, 13)], 1, move |i| {
            assert!((10..13).contains(&i));
            h.fetch_add(1, Ordering::Relaxed);
        })
        .wait();
    assert_eq!(hits.load(Ordering::Relaxed), 3);

    let outputs = fleet.map(vec![7u64, 8, 9], |idx, &x| (idx as u64) * 100 + x);
    assert_eq!(outputs, vec![7, 108, 209]);

    let fixed = run_fixed_chunks(&[1u64, 2, 3], 8, |&x| x * 2);
    assert_eq!(fixed, vec![2, 4, 6]);
}
