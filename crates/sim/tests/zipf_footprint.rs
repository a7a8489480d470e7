//! The Zipf table's heap footprint per item, counted — not timed — by an
//! allocator that tallies live bytes and their high-water mark.
//!
//! This file is its own test binary with a single `#[test]`, so no
//! sibling test thread allocates while it counts. A table over the fig7
//! 16x working set (379 454 items) keeps 16-bit keys (2 B per item), a
//! guide of `u32` cutpoints (1.38 B per item at m = 2¹⁷) and one `f64`
//! checkpoint per 64 items (0.125 B): 3.51 B per item, exactly, where the
//! `f64` CDF and its guide took 9.4. Two passes over the terms build it,
//! so the build never holds more than the table it returns. DESIGN.md §8h
//! has the byte table.

use jitgc_sim::Zipf;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, tallying the bytes currently allocated and the
/// most ever allocated at once.
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
        grew(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System::realloc`'s own.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The fig7 16x cells' working set: `user_pages − op_pages/2` of the
/// 393 216-user-page device at 7 % over-provisioning.
const FIG7_16X_WORKING_SET: u64 = 393_216 - 393_216 * 70 / 1_000 / 2;

/// Heap bytes per item a table may keep, and may reach while it is built.
const MAX_BYTES_PER_ITEM: f64 = 3.6;

#[test]
fn zipf_table_heap_per_item_is_bounded() {
    for s in [0.99, 0.9] {
        let before = LIVE.load(Ordering::Relaxed);
        PEAK.store(before, Ordering::Relaxed);
        let zipf = Zipf::new(FIG7_16X_WORKING_SET, s);
        let kept = LIVE.load(Ordering::Relaxed) - before;
        let reached = PEAK.load(Ordering::Relaxed) - before;
        let per_item = |bytes: usize| bytes as f64 / FIG7_16X_WORKING_SET as f64;
        eprintln!(
            "s = {s}: {kept} B kept ({:.3} B per item), {reached} B at the peak of the build",
            per_item(kept)
        );
        assert!(
            per_item(kept) <= MAX_BYTES_PER_ITEM,
            "s = {s}: the table keeps {:.2} B per item, more than {MAX_BYTES_PER_ITEM}",
            per_item(kept)
        );
        assert!(
            per_item(reached) <= MAX_BYTES_PER_ITEM,
            "s = {s}: building the table reached {:.2} B per item, more than \
             {MAX_BYTES_PER_ITEM}: a transient per-item table is back",
            per_item(reached)
        );
        drop(zipf);
    }
}
