//! The in-process closed loop runs in memory that does not grow with the
//! run's length, counted — not timed — by an allocator that tracks the
//! peak of live bytes.
//!
//! This file is its own test binary with a single `#[test]`, so no
//! sibling test thread allocates while it counts. `run_closed_loop` pulls
//! each tenant's requests from its generator as it submits them, so ten
//! times the simulated seconds must leave the peak where it was: 263 KB
//! over 30 s and 257 KB over 300 s without background GC. A loop that
//! materialises every tenant's stream first holds 24 B per request and
//! peaks at 2.6 MB and 20.4 MB.
//!
//! One thing in the report does grow with the run: the tier timeline, one
//! entry per backpressure transition. Without background GC the engine
//! owes no GC debt and the small roster never leaves Green, so that run
//! must hold its peak to 5 %. Under JIT-GC the small device's debt flips
//! the tier ~38 times a simulated second, and the peak may grow by the
//! timeline's bytes only: its 16-byte entries, three times over (the
//! service's list at up to double capacity, then the report's copy).

use jitgc_core::policy::PolicyKind;
use jitgc_service::{run_closed_loop, ServiceConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, tallying the bytes currently allocated and the
/// most that were ever live at once.
struct Counting;

/// Statistics only: they publish no other data, so `Relaxed` suffices.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// `GlobalAlloc`'s contract; the tallies beside it touch no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's obligations are `System::alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's obligations are `System::alloc_zeroed`'s own.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System::dealloc`'s own.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as the new block first, so a growing copy peaks at both.
        grew(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System::realloc`'s own.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The peak live heap of one `run_closed_loop` of the small test roster
/// under `policy` over `seconds` simulated seconds, above what was live
/// before it, and the length of the report's tier timeline.
fn peak_bytes(policy: PolicyKind, seconds: u64) -> (usize, usize) {
    let mut cfg = ServiceConfig::small_for_tests();
    cfg.seconds = seconds;
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let report = run_closed_loop(&cfg, policy.build(&cfg.system));
    let requests: u64 = report.tenants.iter().map(|t| t.submitted).sum();
    assert!(
        requests > 1_500 * seconds,
        "{seconds} s submitted only {requests} requests"
    );
    let transitions = report.tier.transitions.len();
    drop(report);
    (PEAK.load(Ordering::Relaxed) - before, transitions)
}

#[test]
fn closed_loop_peak_heap_does_not_grow_with_the_run() {
    let (short, _) = peak_bytes(PolicyKind::NoBgc, 30);
    let (long, transitions) = peak_bytes(PolicyKind::NoBgc, 300);
    assert_eq!(transitions, 1, "without GC debt the roster stays Green");
    let ratio = long as f64 / short as f64;
    assert!(
        (ratio - 1.0).abs() <= 0.05,
        "the closed loop peaked at {short} B over 30 s and {long} B over 300 s ({ratio:.2}x)"
    );

    let (short, short_transitions) = peak_bytes(PolicyKind::Jit, 30);
    let (long, long_transitions) = peak_bytes(PolicyKind::Jit, 300);
    let timeline = 3 * 16 * (long_transitions - short_transitions);
    assert!(
        long as f64 <= short as f64 * 1.05 + timeline as f64,
        "under JIT-GC the closed loop peaked at {short} B over 30 s and {long} B over 300 s, \
         more than the {timeline} B of {} extra tier transitions",
        long_transitions - short_transitions
    );
}
