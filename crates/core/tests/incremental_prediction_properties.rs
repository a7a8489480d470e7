//! Equivalence of the incremental prediction pipeline.
//!
//! The buffered-write predictor has two ways to answer a poll: the
//! reference full scan of the cache's dirty list
//! ([`BufferedWritePredictor::predict_scan`]) and the O(1)-per-bucket
//! fast path over the cache's dirty-age epoch counters plus the dirty-LPN
//! bitmap ([`BufferedWritePredictor::predict_into`]). These properties
//! drive arbitrary operation sequences through the cache and demand that
//! both paths agree — demand vector and SIP list — at every poll. Nothing
//! else compares the two: `predict_into` carries no oracle of its own.

use jitgc_core::predictor::BufferedWritePredictor;
use jitgc_ftl::SipList;
use jitgc_nand::Lpn;
use jitgc_pagecache::{PageCache, PageCacheConfig};
use jitgc_sim::check::{check, Gen};
use jitgc_sim::{ByteSize, SimDuration, SimTime};

const CAPACITY: u64 = 48;
const PERIOD_SECS: u64 = 5;
const TAU_SECS: u64 = 30;

fn cache() -> PageCache {
    PageCache::new(
        PageCacheConfig::builder()
            .capacity_pages(CAPACITY)
            .tau_expire(SimDuration::from_secs(TAU_SECS))
            .tau_flush_permille(100)
            .throttle_permille(500)
            .flusher_period(SimDuration::from_secs(PERIOD_SECS))
            .build(),
    )
}

fn predictor() -> BufferedWritePredictor {
    BufferedWritePredictor::new(
        SimDuration::from_secs(PERIOD_SECS),
        SimDuration::from_secs(TAU_SECS),
        ByteSize::kib(4),
    )
}

#[derive(Debug, Clone)]
enum Op {
    Write(u64),
    Read(u64),
    Invalidate(u64),
    Flush,
    Throttle,
    Evict,
}

fn any_op(g: &mut Gen) -> Op {
    match g.weighted(&[5, 2, 2, 1, 1, 1]) {
        0 => Op::Write(g.u64(0, 96)),
        1 => Op::Read(g.u64(0, 96)),
        2 => Op::Invalidate(g.u64(0, 96)),
        3 => Op::Flush,
        4 => Op::Throttle,
        _ => Op::Evict,
    }
}

/// Applies one op at `now`, mutating cache state the way the engine would.
fn apply(c: &mut PageCache, op: &Op, now: SimTime) {
    match op {
        Op::Write(lpn) => {
            let _ = c.write(Lpn(*lpn), now);
        }
        Op::Read(lpn) => {
            let _ = c.read(Lpn(*lpn), now);
        }
        Op::Invalidate(lpn) => {
            let _ = c.invalidate(Lpn(*lpn));
        }
        Op::Flush => {
            let _ = c.flusher_tick(now);
        }
        Op::Throttle => {
            let _ = c.throttle_excess();
        }
        Op::Evict => {
            // Clean-page eviction via capacity pressure is already covered
            // by Write; exercise the read-then-invalidate path instead.
            let _ = c.read(Lpn(0), now);
            let _ = c.invalidate(Lpn(0));
        }
    }
}

/// The first period boundary after `millis`, where the engine's tick
/// loop would poll.
fn next_poll(millis: u64) -> SimTime {
    SimTime::from_secs((millis / (PERIOD_SECS * 1_000) + 1) * PERIOD_SECS)
}

/// After any operation sequence, a poll on a period boundary gives
/// the same demand vector and SIP list through the incremental path
/// as through the from-scratch scan — for the paper's relaxed predictor
/// and for the strict-`τ_flush` ablation, whose gate both paths apply.
#[test]
fn incremental_poll_matches_scan_after_arbitrary_ops() {
    check(0x19C8_0001, 192, |g| {
        let mut pred = predictor();
        if g.pick(&[false, true]) {
            pred = pred.with_strict_tau_flush();
        }
        let mut c = cache();
        let mut sip = SipList::new();
        let mut t = 0u64;
        for (i, op) in g.vec(1, 250, any_op).iter().enumerate() {
            // Sub-period timestamps so writes land mid-interval too.
            t += 1 + (i as u64 % 3);
            apply(&mut c, op, SimTime::from_millis(t * 900));

            let poll = next_poll(t * 900);
            let demand = pred.predict_into(&c, poll, &mut sip);
            let (scan_demand, scan_sip) = pred.predict_scan(&c, poll);
            assert_eq!(demand, scan_demand, "demand diverged at op {i}");
            assert_eq!(sip, scan_sip, "SIP list diverged at op {i}");
            assert_eq!(sip.len() as u64, c.dirty_count());
        }
    });
}

/// Polls far in the future (every page expired) and polls straddling
/// many elapsed periods still agree between the two paths.
#[test]
fn incremental_poll_matches_scan_at_distant_boundaries() {
    check(0x19C8_0002, 192, |g| {
        let periods_later = g.u64(1, 100);
        let writes = g.vec(1, 120, |g| (g.u64(0, 96), g.u64(0, 200)));
        let pred = predictor();
        let mut c = cache();
        let mut latest = 0u64;
        for (lpn, at) in &writes {
            let _ = c.write(Lpn(*lpn), SimTime::from_millis(*at * 700));
            latest = latest.max(*at * 700);
        }
        let first_boundary = latest / (PERIOD_SECS * 1_000) + 1;
        let poll = SimTime::from_secs((first_boundary + periods_later) * PERIOD_SECS);
        let mut sip = SipList::new();
        let demand = pred.predict_into(&c, poll, &mut sip);
        let (scan_demand, scan_sip) = pred.predict_scan(&c, poll);
        assert_eq!(demand, scan_demand);
        assert_eq!(sip, scan_sip);
    });
}

/// A reused SIP list (ping-ponged across polls, as the engine does)
/// never leaks entries from a previous poll into the next.
#[test]
fn reused_sip_list_carries_no_ghosts() {
    check(0x19C8_0003, 192, |g| {
        let rounds = g.vec(2, 6, |g| g.vec(1, 40, any_op));
        let pred = predictor();
        let mut c = cache();
        let mut sip = SipList::new();
        let mut t = 0u64;
        for ops in &rounds {
            for op in ops {
                t += 1;
                apply(&mut c, op, SimTime::from_millis(t * 800));
            }
            let poll = next_poll(t * 800);
            let _ = pred.predict_into(&c, poll, &mut sip);
            let (_, fresh) = pred.predict_scan(&c, poll);
            assert_eq!(sip, fresh, "stale entries survived the reuse");
        }
    });
}
