//! Property tests of the page cache's invariants.

use jitgc_nand::Lpn;
use jitgc_pagecache::{PageCache, PageCacheConfig};
use jitgc_sim::check::{check, Gen};
use jitgc_sim::{SimDuration, SimTime};

const CAPACITY: u64 = 32;

fn cache() -> PageCache {
    PageCache::new(
        PageCacheConfig::builder()
            .capacity_pages(CAPACITY)
            .tau_expire(SimDuration::from_secs(30))
            .tau_flush_permille(100)
            .throttle_permille(500)
            .build(),
    )
}

#[derive(Debug, Clone)]
enum Op {
    Write(u64),
    Read(u64),
    Invalidate(u64),
    Flush,
    Throttle,
}

fn any_op(g: &mut Gen) -> Op {
    match g.weighted(&[4, 2, 1, 1, 1]) {
        0 => Op::Write(g.u64(0, 64)),
        1 => Op::Read(g.u64(0, 64)),
        2 => Op::Invalidate(g.u64(0, 64)),
        3 => Op::Flush,
        _ => Op::Throttle,
    }
}

/// The cache never exceeds capacity, dirty count never exceeds size,
/// and every page handed out for write-back really was dirty.
#[test]
fn capacity_and_dirty_invariants() {
    check(0xCAC4_0001, 256, |g| {
        let mut c = cache();
        for (t, op) in g.vec(1, 300, any_op).into_iter().enumerate() {
            let now = SimTime::from_secs(t as u64 + 1);
            match op {
                Op::Write(lpn) => {
                    let effect = c.write(Lpn(lpn), now);
                    // A forced write-back means the cache was at capacity.
                    if !effect.forced_writebacks.is_empty() {
                        assert!(c.len() as u64 >= CAPACITY - 1);
                    }
                }
                Op::Read(lpn) => {
                    let _ = c.read(Lpn(lpn), now);
                }
                Op::Invalidate(lpn) => {
                    let _ = c.invalidate(Lpn(lpn));
                }
                Op::Flush => {
                    for lpn in c.flusher_tick(now).lpns {
                        // Flushed pages stay cached, now clean.
                        assert!(c.contains(lpn));
                        assert!(!c.is_dirty(lpn));
                    }
                }
                Op::Throttle => {
                    for lpn in c.throttle_excess() {
                        assert!(c.contains(lpn));
                        assert!(!c.is_dirty(lpn));
                    }
                }
            }
            assert!(c.len() as u64 <= CAPACITY);
            assert!(c.dirty_count() <= c.len() as u64);
            // The dirty scan and the dirty counter agree.
            assert_eq!(c.dirty_pages().count() as u64, c.dirty_count());
        }
    });
}

/// Dirty pages are scanned oldest-first: last_update values are
/// non-decreasing along the scan.
#[test]
fn dirty_scan_is_sorted() {
    check(0xCAC4_0002, 256, |g| {
        let mut c = cache();
        for (lpn, at) in g.vec(1, 100, |g| (g.u64(0, 64), g.u64(0, 100))) {
            c.write(Lpn(lpn), SimTime::from_secs(at));
        }
        let scan: Vec<SimTime> = c.dirty_pages().map(|(_, t)| t).collect();
        assert!(scan.windows(2).all(|w| w[0] <= w[1]));
    });
}

/// Flusher AND-semantics: nothing flushes while the dirty total is at
/// or below the τ_flush threshold (10 % of 32 = 3 pages), regardless of
/// age.
#[test]
fn tau_flush_gates() {
    for count in 1..=3u64 {
        let mut c = cache();
        for lpn in 0..count {
            c.write(Lpn(lpn), SimTime::ZERO);
        }
        let batch = c.flusher_tick(SimTime::from_secs(1_000));
        assert!(
            batch.lpns.is_empty(),
            "dirty {count} ≤ threshold 3 must gate"
        );
    }
}

/// Throttling brings the dirty count down to the flush threshold
/// whenever it exceeded the hard limit, and not otherwise, at every
/// fill level of the cache.
#[test]
fn throttle_restores_threshold() {
    for count in 0..=CAPACITY {
        let mut c = cache();
        for lpn in 0..count {
            c.write(Lpn(lpn), SimTime::ZERO);
        }
        let throttle_limit = c.config().throttle_threshold_pages();
        let flush_floor = c.config().flush_threshold_pages();
        let before = c.dirty_count();
        let out = c.throttle_excess();
        if before > throttle_limit {
            assert_eq!(c.dirty_count(), flush_floor);
            assert_eq!(out.len() as u64, before - flush_floor);
        } else {
            assert!(out.is_empty());
            assert_eq!(c.dirty_count(), before);
        }
    }
}
