//! The incremental prediction pipeline against its reference.
//!
//! The engine's poll ([`BufferedWritePredictor::predict_into`]) reads the
//! cache's dirty-age epoch counters plus the dirty-LPN bitmap and is only
//! defined on the cache's flusher clock — wake-ups `φ + m·p`. The
//! reference ([`Scan`], below) walks the dirty list and answers at any
//! instant. These properties draw the phase `φ`, drive arbitrary
//! operation sequences through the cache — writes before the first
//! wake-up included — and demand that both agree, demand vector and SIP
//! list, at every wake-up polled. Nothing else compares the two:
//! `predict_into` carries no oracle of its own.

use jitgc_core::policy::PolicyKind;
use jitgc_core::predictor::BufferedWritePredictor;
use jitgc_core::system::{ClosedLoop, SsdSystem, SystemConfig};
use jitgc_ftl::SipList;
use jitgc_nand::Lpn;
use jitgc_pagecache::{PageCache, PageCacheConfig};
use jitgc_sim::check::{check, Gen};
use jitgc_sim::{ByteSize, SimDuration, SimTime};
use jitgc_workload::{BenchmarkKind, NullWorkload, WorkloadConfig, WriteMix};

const CAPACITY: u64 = 48;
const PERIOD_SECS: u64 = 5;
const TAU_SECS: u64 = 30;

const PERIOD_US: u64 = PERIOD_SECS * 1_000_000;

/// A flusher phase: none, the two extremes, or anything in between.
fn any_phase(g: &mut Gen) -> u64 {
    match g.weighted(&[1, 1, 1, 3]) {
        0 => 0,
        1 => 1,
        2 => PERIOD_US - 1,
        _ => g.u64(0, PERIOD_US),
    }
}

/// A clean cache whose flusher wakes at `phase_us + m·p`.
fn cache(phase_us: u64) -> PageCache {
    let mut cache = PageCache::new(
        PageCacheConfig::builder()
            .capacity_pages(CAPACITY)
            .tau_expire(SimDuration::from_secs(TAU_SECS))
            .tau_flush_permille(100)
            .throttle_permille(500)
            .flusher_period(SimDuration::from_secs(PERIOD_SECS))
            .build(),
    );
    cache.set_flusher_phase(SimDuration::from_micros(phase_us));
    cache
}

fn predictor() -> BufferedWritePredictor {
    BufferedWritePredictor::new(
        SimDuration::from_secs(PERIOD_SECS),
        SimDuration::from_secs(TAU_SECS),
        ByteSize::kib(4),
    )
}

/// The reference the poll is held to: a walk over the cache's dirty list
/// (paper Sec. 3.2.1, Fig. 4) that answers at any instant `t`, whatever
/// the cache's flusher clock. A dirty page last updated at `u` flushes
/// at the first wake-up at or after `u + τ_expire`, so it adds one page
/// to interval `⌈(u + τ_expire − t) / p⌉`, clamped into `[1, N_wb]`;
/// every dirty page joins the SIP list. The strict-`τ_flush` ablation
/// forecasts no write-back while the dirty total is at or below
/// `τ_flush`.
struct Scan {
    p: SimDuration,
    tau_expire: SimDuration,
    page_bytes: u64,
    strict: bool,
}

impl Scan {
    /// The reference for [`predictor`], strict or relaxed.
    fn of_predictor(strict: bool) -> Scan {
        Scan {
            p: SimDuration::from_secs(PERIOD_SECS),
            tau_expire: SimDuration::from_secs(TAU_SECS),
            page_bytes: ByteSize::kib(4).as_u64(),
            strict,
        }
    }

    /// Per-interval demand in bytes, `D¹` first, and the SIP list.
    fn predict(&self, cache: &PageCache, t: SimTime) -> (Vec<u64>, SipList) {
        let nwb = self.tau_expire.div_duration(self.p) as usize;
        let mut demand = vec![0u64; nwb];
        let mut sip = SipList::new();
        let gated = self.strict && cache.dirty_count() <= cache.config().flush_threshold_pages();
        for (lpn, last_update) in cache.dirty_pages() {
            sip.insert(lpn);
            if gated {
                continue;
            }
            let remaining = last_update
                .saturating_add(self.tau_expire)
                .saturating_since(t);
            let k = (remaining.as_micros().div_ceil(self.p.as_micros()) as usize).clamp(1, nwb);
            demand[k - 1] += self.page_bytes;
        }
        (demand, sip)
    }
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

/// The first wake-up of the clock `phase_us + m·p` strictly after
/// `millis`, where the engine's tick loop would poll. A time before the
/// phase polls wake-up 0, at the phase itself.
fn next_poll(millis: u64, phase_us: u64) -> SimTime {
    let m = match (millis * 1_000).checked_sub(phase_us) {
        Some(since) => since / PERIOD_US + 1,
        None => 0,
    };
    SimTime::from_micros(phase_us + m * PERIOD_US)
}

/// After any operation sequence, a poll on the cache's flusher clock —
/// whatever its phase — gives the same demand vector and SIP list from
/// the epoch counters as from the from-scratch scan, for the paper's
/// relaxed predictor and for the strict-`τ_flush` ablation, whose gate
/// both apply.
#[test]
fn incremental_poll_matches_scan_after_arbitrary_ops() {
    check(0x19C8_0001, 192, |g| {
        let mut pred = predictor();
        let strict = g.pick(&[false, true]);
        if strict {
            pred = pred.with_strict_tau_flush();
        }
        let scan = Scan::of_predictor(strict);
        let phase_us = any_phase(g);
        let mut c = cache(phase_us);
        let mut sip = SipList::new();
        let mut t = 0u64;
        for (i, op) in g.vec(1, 250, any_op).iter().enumerate() {
            // Sub-period timestamps so writes land mid-interval too, the
            // first of them before any phase above 2.7 s.
            t += 1 + (i as u64 % 3);
            apply(&mut c, op, SimTime::from_millis(t * 900));

            let poll = next_poll(t * 900, phase_us);
            let demand = pred.predict_into(&c, poll, &mut sip);
            let (scan_demand, scan_sip) = scan.predict(&c, poll);
            assert_eq!(demand.as_slice(), scan_demand, "demand diverged at op {i}");
            assert_eq!(sip, scan_sip, "SIP list diverged at op {i}");
            assert_eq!(sip.len() as u64, c.dirty_count());
        }
    });
}

/// Polls far in the future (every page expired) and polls straddling
/// many elapsed periods still agree with the scan.
#[test]
fn incremental_poll_matches_scan_at_distant_boundaries() {
    check(0x19C8_0002, 192, |g| {
        let periods_later = g.u64(1, 100);
        let writes = g.vec(1, 120, |g| (g.u64(0, 96), g.u64(0, 200)));
        let phase_us = any_phase(g);
        let pred = predictor();
        let mut c = cache(phase_us);
        let mut latest = 0u64;
        for (lpn, at) in &writes {
            let _ = c.write(Lpn(*lpn), SimTime::from_millis(*at * 700));
            latest = latest.max(*at * 700);
        }
        let poll =
            next_poll(latest, phase_us) + SimDuration::from_micros(periods_later * PERIOD_US);
        let mut sip = SipList::new();
        let demand = pred.predict_into(&c, poll, &mut sip);
        let (scan_demand, scan_sip) = Scan::of_predictor(false).predict(&c, poll);
        assert_eq!(demand.as_slice(), scan_demand);
        assert_eq!(sip, scan_sip);
    });
}

/// A reused SIP list (ping-ponged across polls, as the engine does)
/// never leaks entries from a previous poll into the next.
#[test]
fn reused_sip_list_carries_no_ghosts() {
    check(0x19C8_0003, 192, |g| {
        let rounds = g.vec(2, 6, |g| g.vec(1, 40, any_op));
        let phase_us = any_phase(g);
        let pred = predictor();
        let mut c = cache(phase_us);
        let mut sip = SipList::new();
        let mut t = 0u64;
        for ops in &rounds {
            for op in ops {
                t += 1;
                apply(&mut c, op, SimTime::from_millis(t * 800));
            }
            let poll = next_poll(t * 800, phase_us);
            let _ = pred.predict_into(&c, poll, &mut sip);
            let (_, fresh) = Scan::of_predictor(false).predict(&c, poll);
            assert_eq!(sip, fresh, "stale entries survived the reuse");
        }
    });
}

/// The stagger, proven on the counters: an engine whose tick phase is
/// offset the way `ArrayManager::apply_stagger` offsets members 1 and 3
/// of four hands that phase to its cache, so after every request of 30
/// simulated seconds of YCSB a poll at the member's last wake-up reads
/// off the epoch counters exactly what the dirty-list scan finds.
#[test]
fn staggered_member_polls_its_own_clock() {
    let config = SystemConfig::default_sim();
    let p = config.flusher_period;
    let page_size = config.ftl.geometry().page_size();
    let pred = BufferedWritePredictor::new(p, config.tau_expire(), page_size);
    let scan = Scan {
        p,
        tau_expire: config.tau_expire(),
        page_bytes: page_size.as_u64(),
        strict: false,
    };
    for member in [1u64, 3] {
        let offset = SimDuration::from_micros(p.as_micros() * member / 4);
        let stub = NullWorkload::new("driven", config.ftl.user_pages(), WriteMix::new(0.5));
        let mut sim = SsdSystem::new(
            config.clone(),
            PolicyKind::Jit.build(&config),
            Box::new(stub),
        );
        sim.offset_tick_phase(offset);
        sim.prefill();
        assert_eq!(sim.cache().flusher_phase(), offset);

        let mut workload = BenchmarkKind::Ycsb.build(
            WorkloadConfig::builder()
                .working_set_pages(config.standard_working_set().unwrap())
                .duration(SimDuration::from_secs(30))
                .mean_iops(1_000.0)
                .seed(24)
                .build(),
        );
        let mut clock = ClosedLoop::new(1);
        let mut sip = SipList::new();
        let mut polled_dirty = false;
        while let Some(req) = workload.next_request() {
            let (thread, issue) = clock.issue(req.gap);
            let done = sim.step(req, issue);
            clock.complete(thread, done);

            let last_wake_up = sim.virtual_clock() - p;
            let demand = pred.predict_into(sim.cache(), last_wake_up, &mut sip);
            let (scan_demand, scan_sip) = scan.predict(sim.cache(), last_wake_up);
            assert_eq!(
                demand.as_slice(),
                scan_demand,
                "member {member} at {last_wake_up}"
            );
            assert_eq!(sip, scan_sip, "member {member} at {last_wake_up}");
            polled_dirty |= demand.total() > 0;
        }
        assert!(
            polled_dirty,
            "member {member}: the cache never held a dirty page"
        );
        assert!(sim.virtual_clock() > SimTime::from_secs(29));
    }
}

/// The paper's Fig. 4 writes — A (20 MiB at 1 s), B (20 MiB at 3 s) —
/// plus 5 MiB at 8 s and a flusher pass at 35 s: polls at wake-ups
/// before, at and long after the pass agree with the walk.
#[test]
fn incremental_poll_matches_scan_at_period_boundaries() {
    let (p, tau) = (
        SimDuration::from_secs(PERIOD_SECS),
        SimDuration::from_secs(TAU_SECS),
    );
    // 1 MiB pages, so sizes read directly in MiB; pressure never fires.
    let pred = BufferedWritePredictor::new(p, tau, ByteSize::mib(1));
    let scan = Scan {
        p,
        tau_expire: tau,
        page_bytes: ByteSize::mib(1).as_u64(),
        strict: false,
    };
    let mut cache = PageCache::new(
        PageCacheConfig::builder()
            .capacity_pages(100_000)
            .tau_expire(tau)
            .tau_flush_permille(1_000)
            .build(),
    );
    for (start, mib, at_secs) in [(0u64, 20u64, 1u64), (100, 20, 3), (200, 5, 8)] {
        for i in 0..mib {
            let _ = cache.write(Lpn(start + i), SimTime::from_secs(at_secs));
        }
    }
    let _ = cache.flusher_tick(SimTime::from_secs(35));
    for t_secs in [5u64, 10, 15, 35, 40, 100] {
        let t = SimTime::from_secs(t_secs);
        let (scan_demand, scan_sip) = scan.predict(&cache, t);
        let mut sip = SipList::new();
        let demand = pred.predict_into(&cache, t, &mut sip);
        assert_eq!(demand.as_slice(), scan_demand, "demand at t={t_secs}s");
        assert_eq!(sip, scan_sip, "sip at t={t_secs}s");
    }
}
