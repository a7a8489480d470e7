//! Multi-threaded scenario-sweep runner.
//!
//! Every figure and table in the paper is a grid of independent
//! simulation runs (policy × benchmark, or a parameter sweep). Each run
//! owns its whole world — system, device, workload RNG — so the grid is
//! embarrassingly parallel, and results are **deterministic by
//! construction**: `run_grid` returns results indexed exactly like its
//! input slice, so the output is byte-identical no matter how many
//! worker threads execute it (including one).
//!
//! Work is distributed dynamically (an atomic cursor over the scenario
//! list) rather than chunked statically, because run times vary wildly
//! across policies — No-BGC cells finish in a fraction of a JIT-GC
//! cell's time.

use crate::{Experiment, PolicyKind};
use jitgc_core::system::SimReport;
use jitgc_workload::BenchmarkKind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Worker-thread count matching the machine (at least 1).
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `run` over every scenario in `configs` on up to `n_threads`
/// worker threads and returns the results **in input order**.
///
/// The closure must be a pure function of its scenario (no shared
/// mutable state), which makes the result independent of the thread
/// count; `n_threads <= 1` degenerates to a plain serial loop with no
/// thread machinery at all.
///
/// # Panics
///
/// Propagates a panic from any scenario run.
pub fn run_grid<C, R, F>(configs: &[C], n_threads: usize, run: F) -> Vec<R>
where
    C: Sync,
    R: Send,
    F: Fn(&C) -> R + Sync,
{
    run_grid_inner(configs, n_threads, run)
}

/// [`run_grid`] for scenarios that are themselves multi-threaded — array
/// runs stepping members on `threads_per_run` workers each. The sweep
/// width is capped so `sweep threads × threads-per-run` never exceeds
/// [`available_parallelism`](std::thread::available_parallelism):
/// without the cap a `--benchmark all --array 8 --member-threads 4`
/// sweep would put dozens of compute-bound threads on a handful of
/// cores and thrash instead of speeding up.
///
/// `threads_per_run` must be the *actual* per-run thread count — a
/// serial `--member-threads 1` run costs one thread and does not shrink
/// the sweep at all (`0` is treated as the same serial case). A cap
/// below the requested width is logged to stderr exactly once for the
/// whole sweep, not per run. Results are unaffected — every scenario
/// (and every member step schedule inside it) is deterministic for any
/// thread count.
pub fn run_grid_capped<C, R, F>(
    configs: &[C],
    n_threads: usize,
    threads_per_run: usize,
    run: F,
) -> Vec<R>
where
    C: Sync,
    R: Send,
    F: Fn(&C) -> R + Sync,
{
    let cores = default_threads();
    let width = capped_sweep_width(n_threads, configs.len(), threads_per_run, cores);
    let requested = n_threads.min(configs.len()).max(1);
    if width < requested {
        eprintln!(
            "run_grid: capping sweep width {requested} -> {width} \
             ({} member threads per run, {cores} cores)",
            threads_per_run.max(1)
        );
    }
    run_grid_inner(configs, width, run)
}

/// The sweep width [`run_grid_capped`] actually uses: the requested
/// width, clamped to the number of runs, then to however many whole
/// runs of `threads_per_run` threads fit in `cores` (always at least
/// one — a single run may legitimately use every core by itself).
#[must_use]
pub fn capped_sweep_width(
    requested: usize,
    runs: usize,
    threads_per_run: usize,
    cores: usize,
) -> usize {
    // 0 and 1 both mean the serial path: the run costs one thread.
    let per_run = threads_per_run.max(1);
    let cap = (cores / per_run).max(1);
    requested.min(runs).max(1).min(cap)
}

fn run_grid_inner<C, R, F>(configs: &[C], n_threads: usize, run: F) -> Vec<R>
where
    C: Sync,
    R: Send,
    F: Fn(&C) -> R + Sync,
{
    let n_threads = n_threads.min(configs.len()).max(1);
    if n_threads == 1 {
        return configs.iter().map(run).collect();
    }

    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let mut slots: Vec<Option<R>> = Vec::with_capacity(configs.len());
    slots.resize_with(configs.len(), || None);
    std::thread::scope(|scope| {
        for _ in 0..n_threads {
            let tx = tx.clone();
            let next = &next;
            let run = &run;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(config) = configs.get(i) else {
                    break;
                };
                let result = run(config);
                if tx.send((i, result)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        // Receiving inside the scope keeps memory bounded: results are
        // placed into their slots as workers finish, in any order.
        for (i, result) in rx {
            slots[i] = Some(result);
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("scope joined every worker"))
        .collect()
}

impl Experiment {
    /// Runs every `(policy, benchmark)` cell on up to `n_threads` threads;
    /// `results[i]` belongs to `cells[i]` regardless of thread count.
    #[must_use]
    pub fn run_cells(
        &self,
        cells: &[(PolicyKind, BenchmarkKind)],
        n_threads: usize,
    ) -> Vec<SimReport> {
        run_grid(cells, n_threads, |&(policy, benchmark)| {
            self.run(policy, benchmark)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order() {
        let inputs: Vec<u64> = (0..40).collect();
        let out = run_grid(&inputs, 4, |&x| x * x);
        assert_eq!(out, inputs.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_threaded_agree() {
        let inputs: Vec<u64> = (0..23).collect();
        let serial = run_grid(&inputs, 1, |&x| x.wrapping_mul(0x9E37_79B9) >> 3);
        for threads in [2, 3, 8] {
            let threaded = run_grid(&inputs, threads, |&x| x.wrapping_mul(0x9E37_79B9) >> 3);
            assert_eq!(serial, threaded, "{threads} threads diverged");
        }
    }

    #[test]
    fn workers_building_zipf_samplers_concurrently_agree_with_serial() {
        // Every cell builds its workload's sampler on whichever worker
        // picks it up; the samplers share tables through one process-wide
        // cache. More keys than the cache holds, so workers build, find
        // and evict at once.
        let cells: Vec<(u64, f64)> = (0..24)
            .map(|i| (2_000 + i % 6, if i % 2 == 0 { 0.9 } else { 0.99 }))
            .collect();
        let draw = |&(n, s): &(u64, f64)| {
            let zipf = jitgc_sim::Zipf::new(n, s);
            let mut rng = jitgc_sim::SimRng::seed(n);
            (0..200)
                .map(|_| zipf.sample(&mut rng))
                .collect::<Vec<u64>>()
        };
        let serial = run_grid(&cells, 1, draw);
        for threads in [2, 4] {
            assert_eq!(run_grid(&cells, threads, draw), serial, "{threads} threads");
        }
    }

    #[test]
    fn empty_grid_is_fine() {
        let out: Vec<u64> = run_grid(&[], 4, |&x: &u64| x);
        assert!(out.is_empty());
    }

    #[test]
    fn oversubscribed_thread_count_is_clamped() {
        let inputs = [1u64, 2, 3];
        let out = run_grid(&inputs, 64, |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn serial_runs_never_shrink_the_sweep() {
        // --member-threads 1 costs one thread per run: the full width
        // fits, and the degenerate 0 input means the same serial case.
        assert_eq!(capped_sweep_width(8, 8, 1, 8), 8);
        assert_eq!(capped_sweep_width(8, 8, 0, 8), 8);
    }

    #[test]
    fn parallel_runs_cap_the_sweep_to_whole_runs() {
        // 8 cores / 4 member threads -> 2 runs at a time.
        assert_eq!(capped_sweep_width(6, 6, 4, 8), 2);
        // A run wider than the machine still proceeds, one at a time.
        assert_eq!(capped_sweep_width(6, 6, 16, 8), 1);
    }

    #[test]
    fn cap_never_exceeds_the_run_count_or_drops_to_zero() {
        assert_eq!(capped_sweep_width(8, 3, 1, 8), 3);
        assert_eq!(capped_sweep_width(0, 0, 1, 8), 1);
        assert_eq!(capped_sweep_width(4, 4, 2, 1), 1);
    }
}
