//! Micro-benchmarks of the two reference-versus-production pairs the
//! repository's benchmark does not time: the buffered predictor's
//! from-scratch scan against its incremental poll, and per-page host
//! writes against `host_write_batch`, each at three scales. The
//! production side of every hot path (FTL write, BGC, page cache,
//! predictors) is timed by the layer probes of `benchmark/` (`jitgc-perf`).
//!
//! Dependency-free harness: each case runs a setup closure and a timed
//! closure in batches until enough wall-clock has accumulated, then prints
//! the per-iteration mean. Run with `cargo bench --bench micro`.

use jitgc_core::predictor::BufferedWritePredictor;
use jitgc_ftl::{Ftl, FtlConfig, GreedySelector, SipList};
use jitgc_nand::Lpn;
use jitgc_pagecache::{PageCache, PageCacheConfig};
use jitgc_sim::{ByteSize, SimDuration, SimRng, SimTime};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Runs `routine` on fresh `setup()` state until ~0.5 s of measured time
/// accumulates and prints the mean per-iteration latency.
fn bench_batched<S, R, T>(name: &str, mut setup: S, mut routine: R)
where
    S: FnMut() -> T,
    R: FnMut(&mut T),
{
    // One warm-up iteration, untimed (fills allocator pools, warms caches).
    let mut state = setup();
    routine(&mut state);

    let target = Duration::from_millis(500);
    let mut spent = Duration::ZERO;
    let mut iters = 0u64;
    while spent < target {
        let mut state = setup();
        let start = Instant::now();
        routine(black_box(&mut state));
        spent += start.elapsed();
        iters += 1;
    }
    let mean = spent.as_secs_f64() / iters as f64;
    println!("{name:<40} {:>12.3} µs/iter  ({iters} iters)", mean * 1e6);
}

/// Cache/device scales for the parameterized benches below: the default
/// simulator scale, 4×, and the 16× sweep scale.
const SCALES: [(u64, &str); 3] = [(8_192, "8k"), (32_768, "32k"), (131_072, "128k")];

/// Predictor polls at three cache scales: the from-scratch dirty-list
/// scan versus the incremental epoch-counter + bitmap fast path the
/// engine uses on period boundaries.
fn bench_predictor_poll_scales() {
    for (pages, tag) in SCALES {
        let config = PageCacheConfig::builder()
            .capacity_pages(pages)
            .tau_expire(SimDuration::from_secs(3))
            .flusher_period(SimDuration::from_millis(500))
            .build();
        let mut cache = PageCache::new(config);
        let mut rng = SimRng::seed(13);
        for i in 0..pages / 2 {
            cache.write(Lpn(rng.range_u64(0, pages * 2)), SimTime::from_millis(i));
        }
        let predictor = BufferedWritePredictor::new(
            SimDuration::from_millis(500),
            SimDuration::from_secs(3),
            ByteSize::kib(4),
        );
        // A wake-up of the cache's flusher clock: `predict_into` accepts
        // no other instant.
        let poll = SimTime::from_secs(5);
        bench_batched(
            &format!("buffered_predict_scan_{tag}"),
            || (),
            |()| {
                black_box(predictor.predict_scan(&cache, poll));
            },
        );
        bench_batched(
            &format!("buffered_predict_incremental_{tag}"),
            SipList::new,
            |sip| {
                black_box(predictor.predict_into(&cache, poll, sip));
            },
        );
    }
}

/// Host writes at three device scales: one `host_write` call per page
/// versus a single `host_write_batch` over the same addresses.
fn bench_batch_write_scales() {
    for (pages, tag) in SCALES {
        let ftl = move || {
            Ftl::new(
                FtlConfig::builder()
                    .user_pages(pages)
                    .op_permille(150)
                    .pages_per_block(64)
                    .build(),
                Box::new(GreedySelector),
            )
        };
        let lpns: Vec<Lpn> = {
            let mut rng = SimRng::seed(23);
            (0..4_096).map(|_| Lpn(rng.range_u64(0, pages))).collect()
        };
        bench_batched(&format!("ftl_write_looped_{tag}"), ftl, |ftl| {
            for &lpn in &lpns {
                ftl.host_write(lpn, SimTime::ZERO).expect("in range");
            }
        });
        bench_batched(&format!("ftl_write_batched_{tag}"), ftl, |ftl| {
            ftl.host_write_batch(&lpns, SimTime::ZERO)
                .expect("in range");
        });
    }
}

fn main() {
    bench_predictor_poll_scales();
    bench_batch_write_scales();
}
