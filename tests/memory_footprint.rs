//! The simulator's heap footprint per physical flash page, counted — not
//! timed — by an allocator that tallies live bytes.
//!
//! This file is its own test binary with a single `#[test]`, so no
//! sibling test thread allocates while it counts. Every table the device,
//! the FTL and the page cache keep is a flat vector whose size follows
//! from the configuration and the request stream, so the numbers repeat
//! exactly: 8.6 B per physical page for a new `default_sim` system, 19.1 B
//! once it has run (22.8 B while a cache slot took 32 bytes), and 8.2 B
//! for a new system at the benchmark's 16x scale. A run long enough to
//! hand its requests over from a generator thread holds the same, and
//! leaves nothing of the thread behind. DESIGN.md §8g has the
//! byte table the bounds below come from. Aging the 16x device peaks at
//! its 4-byte permutation of the working set plus a few kilobytes above
//! the built tables (DESIGN.md §8i).
//!
//! "Follows from the request stream" means its shape, not its addresses:
//! the same stream rotated through the working set must leave the same
//! footprint, or the process's peak RSS swings with wherever the first
//! requests happen to land (by 1.5 MB of 19 at the 16x scale while the
//! cache's LPN index still grew towards the largest address seen).

use jitgc_repro::core::policy::JitGc;
use jitgc_repro::core::system::{SsdSystem, SystemConfig};
use jitgc_repro::nand::Lpn;
use jitgc_repro::pagecache::PageCacheConfig;
use jitgc_repro::sim::SimDuration;
use jitgc_repro::workload::{BenchmarkKind, IoRequest, Workload, WorkloadConfig, WriteMix};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, tallying the bytes currently allocated.
struct Counting;

/// Statistics only: they publish no other data, so `Relaxed` suffices.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The most `LIVE` has been since it was last reset to `LIVE`.
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Counts `size` more live bytes and raises the peak to match.
fn grow(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// `GlobalAlloc`'s contract; the tally beside it touches no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller's obligations are `System::alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller's obligations are `System::alloc_zeroed`'s own.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System::dealloc`'s own.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A moving reallocation holds both blocks at once.
        grow(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System::realloc`'s own.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A workload with every request moved `offset` pages up its working
/// set, wrapping around: the same requests at other addresses.
struct Rotated {
    inner: Box<dyn Workload>,
    offset: u64,
}

impl Workload for Rotated {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn next_request(&mut self) -> Option<IoRequest> {
        let mut request = self.inner.next_request()?;
        let pages = self.inner.working_set_pages();
        // An extent that would run off the end is pulled back inside.
        let last_start = pages.saturating_sub(u64::from(request.pages));
        request.lpn = Lpn(((request.lpn.0 + self.offset) % pages).min(last_start));
        Some(request)
    }

    fn write_mix(&self) -> WriteMix {
        self.inner.write_mix()
    }

    fn working_set_pages(&self) -> u64 {
        self.inner.working_set_pages()
    }
}

/// A JIT-GC system on `config` under 30 simulated seconds of Tiobench at
/// `iops` over the standard working set, rotated by `offset` pages, and
/// the bytes allocated before it was built.
fn build(config: &SystemConfig, offset: u64, iops: f64) -> (SsdSystem, usize) {
    let workload = WorkloadConfig::builder()
        .working_set_pages(config.standard_working_set().expect("default OP"))
        .duration(SimDuration::from_secs(30))
        .mean_iops(iops)
        .seed(42)
        .build();
    let before = LIVE.load(Ordering::Relaxed);
    let system = SsdSystem::new(
        config.clone(),
        Box::new(JitGc::from_system_config(config)),
        Box::new(Rotated {
            inner: BenchmarkKind::Tiobench.build(workload),
            offset,
        }),
    );
    (system, before)
}

fn bytes_per_page(before: usize, config: &SystemConfig) -> f64 {
    let live = LIVE.load(Ordering::Relaxed) - before;
    live as f64 / config.ftl.geometry().total_pages() as f64
}

#[test]
fn heap_bytes_per_physical_page_stay_bounded() {
    // One array member of `array64_qd8`: freshly built, then prefilled and
    // run.
    let config = SystemConfig::default_sim();
    let (mut system, before) = build(&config, 0, 250.0);
    let built = bytes_per_page(before, &config);
    assert!(
        built <= 12.0,
        "a new default_sim system holds {built:.1} B per physical page"
    );
    let report = system.run();
    assert!(report.ops > 5_000, "the run did real work");
    drop(report);
    let ran = bytes_per_page(before, &config);
    assert!(
        ran <= 20.0,
        "a running default_sim system holds {ran:.1} B per physical page"
    );
    drop(system);

    // The same run at other addresses holds the same bytes: the request
    // latencies move with the GC victims, and a histogram bucket with
    // them, but no table's size does.
    let working_set = config.standard_working_set().expect("default OP");
    for fifth in 1..5 {
        let (mut system, before) = build(&config, working_set * fifth / 5, 250.0);
        drop(system.run());
        let rotated = bytes_per_page(before, &config);
        assert!(
            (rotated - ran).abs() <= 0.25,
            "rotated by {fifth}/5 of the working set the run holds {rotated:.2} B per physical \
             page, unrotated {ran:.2}"
        );
    }

    // Ten times the load runs past the 2^16 requests `run` pulls inline,
    // so a generator thread hands it the rest in batches. The run holds
    // the same tables as the short one, and once the system is gone
    // nothing of the thread or its batches is left. (The first thread a
    // process starts leaves a few dozen bytes of the standard library's
    // own set-up behind, so the second long run is the one counted.)
    let (mut system, before) = build(&config, 0, 2_500.0);
    let report = system.run();
    assert!(report.ops > 1 << 16, "{} requests stay inline", report.ops);
    drop(report);
    let long = bytes_per_page(before, &config);
    assert!(
        (long - ran).abs() <= 0.25,
        "past the inline prefix the run holds {long:.2} B per physical page, at a tenth of \
         the load {ran:.2}"
    );
    drop(system);
    let (mut system, before) = build(&config, 0, 2_500.0);
    drop(system.run());
    drop(system);
    let left = LIVE.load(Ordering::Relaxed) as i64 - before as i64;
    assert_eq!(
        left, 0,
        "a run past the inline prefix left {left} bytes behind"
    );

    // The benchmark's 16x cell: 393 216 user pages, 131 072-page cache.
    let mut scaled = SystemConfig::default_sim();
    scaled.ftl = scaled.ftl.to_builder().user_pages(393_216).build();
    scaled.cache = PageCacheConfig::builder()
        .capacity_pages(131_072)
        .tau_expire(scaled.cache.tau_expire())
        .tau_flush_permille(scaled.cache.tau_flush_permille())
        .throttle_permille(scaled.cache.throttle_permille())
        .flusher_period(scaled.cache.flusher_period())
        .build();
    let (mut system, before) = build(&scaled, 0, 250.0);
    let built = bytes_per_page(before, &scaled);
    assert!(
        built <= 12.0,
        "a new 16x system holds {built:.1} B per physical page"
    );

    // The aging fill holds its 4-byte permutation of the working set and
    // block-sized batches, nothing per page more: an `Lpn` copy of the
    // permutation (8 B a page) would take it far past the slack.
    let tables = LIVE.load(Ordering::Relaxed);
    PEAK.store(tables, Ordering::Relaxed);
    system.prefill();
    let over = PEAK.load(Ordering::Relaxed) - tables;
    let working_set = scaled.standard_working_set().expect("default OP");
    let bound = 4 * working_set as usize + 64 * 1024;
    assert!(
        over <= bound,
        "the 16x aging fill peaked {over} B above the built tables; the permutation is \
         {} B",
        4 * working_set
    );
    drop(system);
}
