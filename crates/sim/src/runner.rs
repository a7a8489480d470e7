//! Multi-threaded scenario-grid runner: the one worker pool over
//! independent runs. Requests are generated on `jitgc-core`'s
//! prefetcher (a device's, an array's and the service's tenant streams).
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
        let _cache = crate::rng::tests::CACHE_TESTS.lock().unwrap();
        // Every cell builds its workload's sampler on whichever worker
        // picks it up; the samplers share tables through one process-wide
        // cache. More keys than the cache holds, so workers build, find
        // and evict at once.
        let cells: Vec<(u64, f64)> = (0..24)
            .map(|i| (2_000 + i % 6, if i % 2 == 0 { 0.9 } else { 0.99 }))
            .collect();
        let draw = |&(n, s): &(u64, f64)| {
            let zipf = crate::Zipf::new(n, s);
            let mut rng = crate::SimRng::seed(n);
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
}
