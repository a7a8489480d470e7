//! The no-flow fixed point of the quiescence fast-forward (DESIGN.md
//! §15a), driven by hand-written request scripts through the stepping
//! API: dirty data stranded below `τ_flush` no longer blocks a skip, and
//! everything that can break the certificate between two idle ticks is
//! seen by the gate that names it.
//!
//! Every script runs on two engines, fast-forward on and off. After every
//! step — that is, at the end of every skipped span — the two must agree
//! on everything a span writes (clock, device timeline) and on everything
//! the certificate says it leaves alone (cache, FTL, demand and target
//! signals), and at the end on the report. The engine itself replays
//! nothing, in any build profile; `skipped_spans_match_the_per_tick_loop`
//! is the net under `fast_forward_span`, over generated scripts.

use jitgc_core::policy::PolicyKind;
use jitgc_core::system::{FfGate, ManagerPlacement, SsdSystem, SystemConfig};
use jitgc_nand::Lpn;
use jitgc_pagecache::PageCacheConfig;
use jitgc_sim::check::check;
use jitgc_sim::{SimDuration, SimTime};
use jitgc_workload::{IoKind, IoRequest, NullWorkload, WriteMix};

/// One script, two engines.
struct Twin {
    on: SsdSystem,
    off: SsdSystem,
}

impl Twin {
    fn new(config: &SystemConfig, policy: PolicyKind) -> Twin {
        let build = |fast_forward: bool| {
            let stub = NullWorkload::new("script", config.ftl.user_pages(), WriteMix::new(0.5));
            let mut sim = SsdSystem::new(config.clone(), policy.build(config), Box::new(stub));
            sim.set_fast_forward(fast_forward);
            sim
        };
        Twin {
            on: build(true),
            off: build(false),
        }
    }

    /// Issues one request on both engines at `at`.
    fn request(&mut self, at: SimTime, kind: IoKind, lpn: u64, pages: u32) {
        let req = IoRequest {
            gap: SimDuration::ZERO,
            kind,
            lpn: Lpn(lpn),
            pages,
        };
        let done_on = self.on.step(req, at);
        let done_off = self.off.step(req, at);
        assert_eq!(done_on, done_off, "{kind} at {at:?} completed apart");
        self.assert_in_step(at);
    }

    fn idle_until(&mut self, t: SimTime) {
        self.on.advance_to(t);
        self.off.advance_to(t);
        self.assert_in_step(t);
    }

    /// Both engines stand in the same state: what a skipped span writes
    /// and what it certified as untouched.
    fn assert_in_step(&self, at: SimTime) {
        let state = |sim: &SsdSystem| {
            format!(
                "clock {:?} busy {:?} {:?} cache {:?} dirty {} ftl {:?} free {}",
                sim.virtual_clock(),
                sim.device_busy_until(),
                sim.gc_signals(),
                sim.cache().stats(),
                sim.cache().dirty_count(),
                sim.ftl().stats(),
                sim.ftl().free_pages(),
            )
        };
        assert_eq!(
            state(&self.on),
            state(&self.off),
            "fast-forward on / off stand apart at {at:?}"
        );
    }

    /// Ticks the fast-forwarding engine ran one by one so far.
    fn ticks_run(&self) -> u64 {
        let p = self.on.config().flusher_period.as_micros();
        (self.on.virtual_clock().as_micros() / p - 1) - self.on.ticks_skipped()
    }

    /// Ends both runs at `end` and checks the switch changed nothing.
    fn finish(mut self, end: SimTime) -> SsdSystem {
        let on = self.on.finalize(end);
        let off = self.off.finalize(end);
        assert_eq!(
            format!("{on:?}"),
            format!("{off:?}"),
            "fast-forward changed the report"
        );
        assert_eq!(
            self.on.pending_predictions_len(),
            self.off.pending_predictions_len()
        );
        assert_eq!(self.off.ticks_skipped(), 0);
        assert_eq!(self.off.ff_refusals().total(), 0);
        self.on
    }
}

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// Ticks a gap may still cost: the residue ages into interval 1 within
/// `N_wb` ticks, the direct predictor's 64-window CDH saturates behind it,
/// plus slack for the ticks around a request.
fn settle_ticks(config: &SystemConfig) -> u64 {
    config.nwb() as u64 + 64 + 8
}

/// Three buffered pages at t = 1 s — far below `τ_flush` (512 pages
/// here), so the AND-semantics flusher never writes them back — and one
/// direct page so a later trim finds something mapped; then idle until
/// the fast-forward has engaged.
fn settled(config: &SystemConfig) -> Twin {
    let mut twin = Twin::new(config, PolicyKind::Jit);
    twin.request(secs(1), IoKind::DirectWrite, 900, 1);
    twin.request(secs(1), IoKind::BufferedWrite, 10, 3);
    twin.idle_until(secs(2_000));
    assert_eq!(twin.on.cache().dirty_count(), 3, "residue was flushed");
    assert!(
        twin.on.ticks_skipped() > 0,
        "stranded residue still blocks the skip: {}",
        twin.on.ff_refusals()
    );
    assert!(twin.ticks_run() <= settle_ticks(config));
    twin
}

/// Runs `breaker` at t = 2 001 s between two idle stretches and returns
/// how many ticks each gate refused afterwards.
fn refusals_after(breaker: impl FnOnce(&mut Twin)) -> impl Fn(FfGate) -> u64 {
    let config = SystemConfig::small_for_tests();
    let mut twin = settled(&config);
    let before = twin.on.ff_refusals();
    let (run_before, skipped_before) = (twin.ticks_run(), twin.on.ticks_skipped());
    breaker(&mut twin);
    twin.idle_until(secs(4_000));
    assert!(
        twin.on.ticks_skipped() > skipped_before,
        "the gap after the request never settled again"
    );
    assert!(twin.ticks_run() - run_before <= settle_ticks(&config));
    let on = twin.finish(secs(4_000));
    let after = on.ff_refusals();
    move |gate| after.count(gate) - before.count(gate)
}

#[test]
fn stranded_residue_no_longer_blocks_the_skip() {
    let config = SystemConfig::small_for_tests();
    let twin = settled(&config);
    // Once settled, the only refusals are the warm-up's: the verdict
    // (residue ageing) and the direct predictor's windows filling.
    let refused = twin.on.ff_refusals();
    assert_eq!(
        refused.total(),
        refused.count(FfGate::TickNotNoop) + refused.count(FfGate::DirectPredictor),
        "{refused}"
    );
    let on = twin.finish(secs(2_000));
    assert_eq!(on.ff_spans(), 1);
}

#[test]
fn rewriting_a_dirty_page_is_seen_by_the_write_counter_alone() {
    let refused = refusals_after(|twin| {
        twin.request(secs(2_001), IoKind::BufferedWrite, 11, 1);
        // Same dirty set, but page 11 is young again.
        assert_eq!(twin.on.cache().dirty_count(), 3);
    });
    assert_eq!(refused(FfGate::CacheChanged), 1);
    // Then the rewritten page ages back into interval 1.
    assert!(refused(FfGate::TickNotNoop) >= 5);
}

#[test]
fn a_new_buffered_write_refuses_until_it_has_aged() {
    let refused = refusals_after(|twin| {
        twin.request(secs(2_001), IoKind::BufferedWrite, 500, 2);
        assert_eq!(twin.on.cache().dirty_count(), 5);
    });
    assert_eq!(refused(FfGate::CacheChanged), 1);
    assert!(refused(FfGate::TickNotNoop) >= 5);
}

#[test]
fn a_direct_write_over_a_dirty_page_is_a_cache_change() {
    let refused = refusals_after(|twin| {
        twin.request(secs(2_001), IoKind::DirectWrite, 12, 1);
        // The cached copy is dropped: no buffered write, one dirty page
        // fewer.
        assert_eq!(twin.on.cache().dirty_count(), 2);
    });
    assert_eq!(refused(FfGate::CacheChanged), 1);
    // The direct bytes then keep the predictor's windows busy.
    assert!(refused(FfGate::DirectPredictor) > 0);
}

#[test]
fn a_direct_write_elsewhere_is_direct_bytes() {
    let refused = refusals_after(|twin| {
        twin.request(secs(2_001), IoKind::DirectWrite, 1_200, 1);
    });
    assert_eq!(refused(FfGate::CacheChanged), 0);
    assert_eq!(refused(FfGate::DirectBytes), 1);
}

#[test]
fn a_trim_of_a_mapped_page_moves_the_ftl() {
    let refused = refusals_after(|twin| {
        twin.request(secs(2_001), IoKind::Trim, 900, 1);
    });
    assert_eq!(refused(FfGate::FtlMoved), 1);
    assert_eq!(refused(FfGate::CacheChanged), 0);
    // Nothing flowed: the very next tick verifies and the skip resumes.
    assert_eq!(refused(FfGate::TickNotNoop), 0);
}

#[test]
fn reads_and_trims_of_unmapped_pages_break_nothing() {
    let refused = refusals_after(|twin| {
        twin.request(secs(2_001), IoKind::Read, 10, 3); // dirty hits
        twin.request(secs(2_002), IoKind::Read, 900, 1); // from flash
        twin.request(secs(2_003), IoKind::Trim, 1_500, 4); // never written
    });
    for gate in FfGate::ALL {
        assert_eq!(refused(gate), 0, "{}", gate.name());
    }
}

#[test]
fn the_read_only_transition_falls_between_skipped_gaps() {
    let mut config = SystemConfig::small_for_tests();
    config.ftl = config.ftl.to_builder().endurance_limit(2).build();
    let mut twin = settled(&config);
    // Wear the device out with direct overwrites, a millisecond apart.
    let mut at = secs(2_001);
    while !twin.on.ftl().read_only() {
        twin.request(at, IoKind::DirectWrite, 1_024, 64);
        at += SimDuration::from_millis(1);
        assert!(at < secs(2_100), "endurance 2 outlived 100 000 requests");
    }
    let skipped = twin.on.ticks_skipped();
    twin.idle_until(secs(5_000));
    // A refused write and a buffered one in the middle of the dead
    // device's idle time.
    twin.request(secs(5_001), IoKind::DirectWrite, 1_024, 4);
    twin.request(secs(5_002), IoKind::BufferedWrite, 40, 1);
    twin.idle_until(secs(8_000));
    assert!(twin.on.ticks_skipped() > skipped + 1_000);
    let on = twin.finish(secs(8_000));
    assert!(on.ftl().read_only());
}

#[test]
fn strict_tau_flush_and_an_in_device_manager_skip_over_residue_too() {
    let mut strict = SystemConfig::small_for_tests();
    strict.strict_tau_flush = true;
    let mut in_device = SystemConfig::small_for_tests();
    in_device.manager_placement = ManagerPlacement::Device;
    for config in [strict, in_device] {
        let twin = settled(&config);
        let on = twin.finish(secs(2_000));
        assert!(on.ticks_skipped() > 300);
    }
}

/// `small_for_tests` throttles writers below its flush threshold, so a
/// residue above the threshold cannot form there; this cache flushes
/// above 10 % dirty and throttles above 20 %.
fn residue_config() -> SystemConfig {
    let mut config = SystemConfig::small_for_tests();
    config.cache = PageCacheConfig::builder()
        .capacity_pages(2_048)
        .tau_expire(config.cache.tau_expire())
        .flusher_period(config.cache.flusher_period())
        .tau_flush_permille(100)
        .throttle_permille(200)
        .build();
    config
}

/// Writes `pages` buffered pages from LPN 0 up at `at`, 64 to a request.
fn strand(twin: &mut Twin, at: SimTime, pages: u64) {
    let mut lpn = 0;
    while lpn < pages {
        let extent = (pages - lpn).min(64);
        twin.request(at, IoKind::BufferedWrite, lpn, extent as u32);
        lpn += extent;
    }
}

#[test]
fn residue_at_the_threshold_strands_and_one_page_above_it_flushes() {
    let config = residue_config();
    let threshold = config.cache.flush_threshold_pages();
    for (pages, stranded) in [(threshold, threshold), (threshold + 1, 0)] {
        let mut twin = Twin::new(&config, PolicyKind::Jit);
        strand(&mut twin, secs(1), pages);
        twin.idle_until(secs(3_000));
        assert_eq!(twin.on.cache().dirty_count(), stranded, "{pages} pages");
        assert_eq!(
            twin.on.ftl().stats().host_pages_written,
            pages - stranded,
            "{pages} pages"
        );
        assert!(twin.on.ticks_skipped() > 400, "{pages} pages");
        assert!(twin.ticks_run() <= settle_ticks(&config) + config.nwb() as u64);
        twin.finish(secs(3_000));
    }
}

/// Generated scripts — any request kind anywhere, buffered bursts that
/// leave a residue below, at and above the flush threshold, and gaps
/// log-uniform from a microsecond to two days, so spans of zero to
/// ~35 000 ticks end on whatever the script does next — over every
/// policy, strict and AND-semantics `τ_flush`, host and in-device manager,
/// an aged or an erased device. [`Twin`] compares the engines after every
/// step and at the end. 96 cases of up to 48 steps.
#[test]
fn skipped_spans_match_the_per_tick_loop() {
    const KINDS: [IoKind; 4] = [
        IoKind::Read,
        IoKind::BufferedWrite,
        IoKind::DirectWrite,
        IoKind::Trim,
    ];
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Request(IoKind, u64, u32),
        /// `advance_to` without a request.
        Idle,
        /// A buffered burst of this many pages from LPN 0 up.
        Strand(u64),
    }
    check(0xFF5A_0001, 96, |g| {
        let mut config = residue_config();
        let policy = g.pick(&PolicyKind::STANDARD);
        config.strict_tau_flush = g.u64(0, 2) == 1;
        config.manager_placement = g.pick(&[ManagerPlacement::Host, ManagerPlacement::Device]);
        let aged = g.u64(0, 2) == 1;
        let threshold = config.cache.flush_threshold_pages();
        let user_pages = config.ftl.user_pages();
        let script = g.vec(1, 48, |g| {
            let gap = SimDuration::from_micros(g.f64(0.0, 37.4).exp2() as u64);
            let step = match g.weighted(&[2, 4, 2, 1, 2, 2]) {
                4 => Step::Idle,
                5 => Step::Strand(g.pick(&[3, threshold, threshold + 1, threshold + 100])),
                kind => {
                    let pages = g.u64(1, 65);
                    let lpn = g.u64(0, user_pages - pages + 1);
                    Step::Request(KINDS[kind], lpn, pages as u32)
                }
            };
            (gap, step)
        });

        let mut twin = Twin::new(&config, policy);
        if aged {
            twin.on.prefill();
            twin.off.prefill();
        }
        let mut at = secs(1);
        for &(gap, step) in &script {
            at += gap;
            match step {
                Step::Request(kind, lpn, pages) => twin.request(at, kind, lpn, pages),
                Step::Idle => twin.idle_until(at),
                Step::Strand(pages) => strand(&mut twin, at, pages),
            }
        }
        twin.finish(at);
    });
}
