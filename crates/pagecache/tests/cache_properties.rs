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

/// The whole cache as a hash map and linear scans: what is cached, dirty
/// or clean, and the two stamps that order it — `at`, the write time a
/// dirty page ages from, and `order`, a counter bumped by every event
/// that moves a page to the young end of its list (a write, a read miss,
/// a touch of a clean page, a write-back). (`HashMap<u64, bool>` alone
/// could say *that* a page leaves, not *which*.)
#[derive(Default)]
struct Model {
    pages: std::collections::HashMap<u64, ModelPage>,
    next_order: u64,
}

#[derive(Clone, Copy)]
struct ModelPage {
    dirty: bool,
    at: SimTime,
    order: u64,
}

impl Model {
    fn stamp(&mut self) -> u64 {
        self.next_order += 1;
        self.next_order
    }

    fn dirty_count(&self) -> u64 {
        self.pages.values().filter(|p| p.dirty).count() as u64
    }

    /// Dirty LPNs, oldest first.
    fn dirty_by_age(&self) -> Vec<u64> {
        let mut dirty: Vec<_> = self.pages.iter().filter(|(_, p)| p.dirty).collect();
        dirty.sort_by_key(|(_, p)| (p.at, p.order));
        dirty.into_iter().map(|(&lpn, _)| lpn).collect()
    }

    /// Makes room for one page: the least recently used clean page goes
    /// silently, else the oldest dirty one, which is returned.
    fn evict(&mut self) -> Option<u64> {
        let lru_clean = self
            .pages
            .iter()
            .filter(|(_, p)| !p.dirty)
            .min_by_key(|(_, p)| p.order)
            .map(|(&lpn, _)| lpn);
        if let Some(lpn) = lru_clean {
            self.pages.remove(&lpn);
            return None;
        }
        let oldest = *self.dirty_by_age().first()?;
        self.pages.remove(&oldest);
        Some(oldest)
    }

    fn write(&mut self, lpn: u64, now: SimTime) -> Vec<u64> {
        let mut forced = Vec::new();
        if !self.pages.contains_key(&lpn) && self.pages.len() as u64 >= CAPACITY {
            forced.extend(self.evict());
        }
        let order = self.stamp();
        self.pages.insert(
            lpn,
            ModelPage {
                dirty: true,
                at: now,
                order,
            },
        );
        forced
    }

    fn read(&mut self, lpn: u64) -> bool {
        let order = self.stamp();
        if let Some(page) = self.pages.get_mut(&lpn) {
            if !page.dirty {
                page.order = order;
            }
            return true;
        }
        let all_dirty = self.dirty_count() == self.pages.len() as u64;
        if self.pages.len() as u64 >= CAPACITY {
            if all_dirty {
                return false;
            }
            self.evict();
        }
        self.pages.insert(
            lpn,
            ModelPage {
                dirty: false,
                at: SimTime::ZERO,
                order,
            },
        );
        false
    }

    /// Writes `lpns` back in the order given: each stays cached, clean,
    /// most recently used.
    fn write_back(&mut self, lpns: &[u64]) {
        for lpn in lpns {
            let order = self.stamp();
            let page = self
                .pages
                .get_mut(lpn)
                .expect("written-back page is cached");
            page.dirty = false;
            page.order = order;
        }
    }

    fn flusher_tick(&mut self, now: SimTime, c: &PageCacheConfig) -> Vec<u64> {
        if self.dirty_count() <= c.flush_threshold_pages() {
            return Vec::new();
        }
        let expired: Vec<u64> = self
            .dirty_by_age()
            .into_iter()
            .take_while(|lpn| now.saturating_since(self.pages[lpn].at) >= c.tau_expire())
            .collect();
        self.write_back(&expired);
        expired
    }

    fn throttle_excess(&mut self, c: &PageCacheConfig) -> Vec<u64> {
        let dirty = self.dirty_count();
        if dirty <= c.throttle_threshold_pages() {
            return Vec::new();
        }
        let excess = (dirty - c.flush_threshold_pages()) as usize;
        let oldest: Vec<u64> = self.dirty_by_age().into_iter().take(excess).collect();
        self.write_back(&oldest);
        oldest
    }
}

/// 128 cases × up to 400 ops, LPNs drawn from `[0, 64)`, from around
/// `4 × capacity` and from around `2^20` — so the LPN → slot index grows
/// in the middle of a stream, twice, unless the drawn
/// `expect_lpns` sized it first — with clocks that sometimes run
/// backwards: after **every** op the cache and the hash-map model agree
/// on what the op returned (the read verdict; the forced, flushed and
/// throttled write-back sequences, in order), on `len` and `dirty_count`,
/// and on `contains` / `is_dirty` of every LPN the case ever drew.
#[test]
fn direct_index_agrees_with_a_hash_map_model() {
    fn any_lpn(g: &mut Gen) -> u64 {
        match g.weighted(&[6, 2, 1]) {
            0 => g.u64(0, 64),
            1 => g.u64(4 * CAPACITY - 8, 4 * CAPACITY + 8),
            _ => g.u64((1 << 20) - 8, (1 << 20) + 8),
        }
    }
    check(0xCAC4_0005, 128, |g| {
        let ops = g.vec(1, 400, |g| {
            let op = match g.weighted(&[6, 3, 2, 2, 1]) {
                0 => Op::Write(any_lpn(g)),
                1 => Op::Read(any_lpn(g)),
                2 => Op::Invalidate(any_lpn(g)),
                3 => Op::Flush,
                _ => Op::Throttle,
            };
            // Seconds the clock advances by; now and then it steps back.
            (op, g.u64(0, 12), g.u64(0, 8) == 0)
        });
        let mut probes: Vec<u64> = ops
            .iter()
            .filter_map(|(op, ..)| match op {
                Op::Write(lpn) | Op::Read(lpn) | Op::Invalidate(lpn) => Some(*lpn),
                Op::Flush | Op::Throttle => None,
            })
            .collect();
        probes.sort_unstable();
        probes.dedup();

        let mut c = cache();
        // An expected LPN space — none, too small, the working set, past
        // the far band — moves allocations and nothing the model sees.
        match g.weighted(&[2, 1, 1, 1]) {
            0 => {}
            1 => c.expect_lpns(g.u64(0, 64)),
            2 => c.expect_lpns(4 * CAPACITY),
            _ => c.expect_lpns((1 << 20) + 8),
        }
        let config = *c.config();
        let mut model = Model::default();
        let mut clock = 100u64;
        let lpns = |lpns: Vec<Lpn>| lpns.into_iter().map(|l| l.0).collect::<Vec<u64>>();
        for (op, advance, backwards) in ops {
            clock = if backwards {
                clock.saturating_sub(advance)
            } else {
                clock + advance
            };
            let now = SimTime::from_secs(clock);
            match op {
                Op::Write(lpn) => {
                    let forced = c.write(Lpn(lpn), now).forced_writebacks;
                    assert_eq!(lpns(forced), model.write(lpn, now), "write {lpn}");
                }
                Op::Read(lpn) => assert_eq!(c.read(Lpn(lpn), now), model.read(lpn), "read {lpn}"),
                Op::Invalidate(lpn) => {
                    let was_cached = model.pages.remove(&lpn).is_some();
                    assert_eq!(c.invalidate(Lpn(lpn)), was_cached, "invalidate {lpn}");
                }
                Op::Flush => {
                    let batch = c.flusher_tick(now);
                    assert_eq!(batch.expired, batch.lpns.len());
                    assert_eq!(lpns(batch.lpns), model.flusher_tick(now, &config));
                }
                Op::Throttle => {
                    assert_eq!(lpns(c.throttle_excess()), model.throttle_excess(&config));
                }
            }
            assert_eq!(c.len(), model.pages.len());
            assert_eq!(c.is_empty(), model.pages.is_empty());
            assert_eq!(c.dirty_count(), model.dirty_count());
            for &lpn in &probes {
                let page = model.pages.get(&lpn);
                assert_eq!(c.contains(Lpn(lpn)), page.is_some(), "contains {lpn}");
                assert_eq!(
                    c.is_dirty(Lpn(lpn)),
                    page.is_some_and(|p| p.dirty),
                    "is_dirty {lpn}"
                );
            }
            assert_eq!(
                lpns(c.dirty_pages().map(|(l, _)| l).collect()),
                model.dirty_by_age()
            );
        }
    });
}
