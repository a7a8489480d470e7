//! Property tests of the predictors and the manager.

use jitgc_core::manager::JitGcManager;
use jitgc_core::predictor::{
    AccuracyTracker, BufferedDemand, BufferedWritePredictor, DirectWritePredictor,
};
use jitgc_nand::Lpn;
use jitgc_pagecache::{PageCache, PageCacheConfig};
use jitgc_sim::check::check;
use jitgc_sim::{ByteSize, SimDuration, SimTime};

fn big_cache() -> PageCache {
    PageCache::new(
        PageCacheConfig::builder()
            .capacity_pages(10_000)
            .tau_expire(SimDuration::from_secs(30))
            .tau_flush_permille(1_000)
            .build(),
    )
}

fn predictor() -> BufferedWritePredictor {
    BufferedWritePredictor::new(
        SimDuration::from_secs(5),
        SimDuration::from_secs(30),
        ByteSize::kib(4),
    )
}

/// The buffered demand total always equals dirty-count × page-size
/// (the scan is exhaustive, an upper bound on *all* dirty data), and
/// the SIP list is exactly the dirty set.
#[test]
fn buffered_demand_accounts_every_dirty_page() {
    check(0x93ED_0001, 128, |g| {
        // A wake-up of the cache's 5 s flusher clock: the only place a
        // poll is defined.
        let scan_at = g.u64(12, 24) * 5;
        let writes = g.vec(1, 200, |g| (g.u64(0, 500), g.u64(0, 60)));
        let mut cache = big_cache();
        for (lpn, at) in &writes {
            cache.write(Lpn(*lpn), SimTime::from_secs(*at));
        }
        let (demand, sip) = predictor().predict(&cache, SimTime::from_secs(scan_at));
        assert_eq!(demand.total(), cache.dirty_count() * 4096);
        assert_eq!(sip.len() as u64, cache.dirty_count());
        for (lpn, _) in cache.dirty_pages() {
            assert!(sip.contains(lpn));
        }
    });
}

/// Every dirty page lands in exactly one interval, and that interval
/// index grows with the page's freshness (newer pages flush later) —
/// `D_buf(i)` is ordered by dirty age (Sec. 3.2.1). All 30 × 30 pairs of
/// write times inside one `τ_expire`.
#[test]
fn buffered_demand_orders_by_age() {
    let t = SimTime::from_secs(30);
    // The interval a lone page written at `at` is predicted to flush in.
    let interval_of = |at: u64| {
        let mut cache = big_cache();
        cache.write(Lpn(1), SimTime::from_secs(at));
        let (d, _): (BufferedDemand, _) = predictor().predict(&cache, t);
        (1..=d.horizon())
            .find(|&i| d.interval(i) > 0)
            .expect("one page present")
    };
    let intervals: Vec<usize> = (0..30).map(interval_of).collect();
    assert!(
        intervals.windows(2).all(|w| w[0] <= w[1]),
        "older page must not flush later: {intervals:?}"
    );
    for at_a in 0..30u64 {
        for at_b in 0..30u64 {
            let mut cache = big_cache();
            cache.write(Lpn(1), SimTime::from_secs(at_a));
            cache.write(Lpn(2), SimTime::from_secs(at_b));
            let (demand, _) = predictor().predict(&cache, t);
            assert_eq!(demand.total(), 2 * 4096);
            // Together the two pages sit where each sat alone.
            for at in [at_a, at_b] {
                assert!(demand.interval(intervals[at as usize]) > 0);
            }
        }
    }
}

/// The direct predictor's reservation is monotone in the percentile
/// and bounded by the largest observed window (rounded to a bin).
#[test]
fn direct_reservation_is_monotone_and_bounded() {
    check(0x93ED_0003, 128, |g| {
        let (pa, pb) = (g.f64(0.01, 1.0), g.f64(0.01, 1.0));
        let windows = g.vec(1, 50, |g| g.u64(0, 1_000_000));
        let build = |pct: f64| {
            let mut p = DirectWritePredictor::new(
                SimDuration::from_secs(5),
                SimDuration::from_secs(30),
                pct,
                4096,
            );
            for &w in &windows {
                p.observe_window_total(w);
            }
            p.predict()
        };
        let (lo, hi) = if pa <= pb { (pa, pb) } else { (pb, pa) };
        assert!(build(lo).total() <= build(hi).total());
        let max_window = *windows.iter().max().expect("non-empty");
        // Bin rounding can add at most one bin width.
        assert!(build(1.0).total() <= max_window + 4096);
    });
}

/// The manager never reclaims more than the shortfall, never reclaims
/// with ample free space, and its reclaim is monotone non-increasing
/// in `C_free`.
#[test]
fn manager_reclaim_is_sane() {
    check(0x93ED_0004, 128, |g| {
        let demand: Vec<u64> = (0..6).map(|_| g.u64(0, 50_000_000)).collect();
        let (free_a, free_b) = (g.u64(0, 100_000_000), g.u64(0, 100_000_000));
        let manager = JitGcManager::new(SimDuration::from_secs(30), 40e6, 10e6);
        let decide = |free: u64| manager.decide(&demand, &[], ByteSize::bytes(free));
        let total: u64 = demand.iter().sum();

        let d = decide(free_a);
        assert!(d.reclaim.as_u64() <= total.saturating_sub(free_a));
        if free_a >= total {
            assert!(d.can_wait());
        }
        let (lo, hi) = if free_a <= free_b {
            (free_a, free_b)
        } else {
            (free_b, free_a)
        };
        assert!(
            decide(hi).reclaim <= decide(lo).reclaim,
            "more free space must never demand more reclaim"
        );
    });
}

/// Accuracy is always within [0, 1] and exact-match streams score 1.
#[test]
fn accuracy_is_bounded() {
    check(0x93ED_0005, 128, |g| {
        let mut acc = AccuracyTracker::new();
        let mut exact = AccuracyTracker::new();
        for (p, a) in g.vec(1, 100, |g| (g.u64(0, 1_000), g.u64(0, 1_000))) {
            acc.record(p, a);
            exact.record(p, p);
        }
        if let Some(score) = acc.mean_accuracy() {
            assert!((0.0..=1.0).contains(&score));
        }
        if let Some(score) = exact.mean_accuracy() {
            assert!((score - 1.0).abs() < 1e-12);
        }
    });
}
