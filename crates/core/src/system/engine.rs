//! The simulation engine proper.

use super::scorer::HorizonScorer;
use crate::policy::{GcPolicy, IntervalObservation};
use crate::predictor::{AccuracyTracker, BufferedWritePredictor, DirectWritePredictor};
use crate::system::{
    ClosedLoop, FfGate, FfRefusals, PhaseProfile, RunPerf, SimReport, SystemConfig,
};
use jitgc_ftl::{DegradeKind, Ftl, FtlError, SipList};
use jitgc_nand::Lpn;
use jitgc_pagecache::PageCache;
use jitgc_sim::stats::LatencyRecorder;
use jitgc_sim::{ByteSize, SimDuration, SimTime};
use jitgc_workload::{IoKind, IoRequest, Workload};

/// A snapshot of one system's JIT-GC-relevant state, taken between
/// requests.
///
/// This is the per-device telemetry an array-level manager needs to
/// reason about *when* each member should reclaim relative to its peers
/// (see the `jitgc-array` crate): the live free capacity `C_free`, the
/// most recent predicted demands `D_buf`/`D_dir`, the policy's current
/// reserve target, and how long the device will stay busy with already
/// accepted work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcSignals {
    /// `C_free`: free capacity currently available to the host.
    pub free_capacity: ByteSize,
    /// Upper bound on what background GC could still reclaim.
    pub reclaimable_capacity: ByteSize,
    /// The policy's current reserve target (what BGC works toward).
    pub target_free: ByteSize,
    /// Total buffered-write demand `Σ D_buf` predicted at the last poll.
    pub predicted_buffered_bytes: u64,
    /// Total direct-write demand `Σ D_dir` predicted at the last poll.
    pub predicted_direct_bytes: u64,
    /// When the device finishes its currently accepted work.
    pub busy_until: SimTime,
    /// Cumulative foreground-GC invocations (a rising count flags a
    /// device that ran out of reserve).
    pub fgc_invocations: u64,
}

impl GcSignals {
    /// How far background GC is behind its reserve target, as a fraction
    /// in `[0, 1]`: `(target_free − free) / target_free`, clamped. Zero
    /// when the reserve is met (or the policy asks for none); 1 when the
    /// device has no free capacity at all against a non-zero target. A
    /// service frontend uses this as its GC-pressure signal — a rising
    /// debt means the next write burst will land in foreground GC.
    #[must_use]
    pub fn gc_debt(&self) -> f64 {
        let target = self.target_free.as_u64();
        if target == 0 {
            return 0.0;
        }
        let free = self.free_capacity.as_u64().min(target);
        (target - free) as f64 / target as f64
    }
}

/// A complete simulated storage system: one workload driving one page
/// cache and one FTL under one background-GC policy.
///
/// See the [module documentation](crate::system) for the execution model.
/// Construction wires everything; [`run`](SsdSystem::run) consumes the
/// workload and returns the [`SimReport`].
///
/// # Driving the engine externally
///
/// [`run`](SsdSystem::run) owns the closed-loop schedule for a standalone
/// device. A composing layer (the `jitgc-array` crate) instead drives
/// members through the stepping API — [`prefill`](SsdSystem::prefill),
/// [`offset_tick_phase`](SsdSystem::offset_tick_phase),
/// [`advance_to`](SsdSystem::advance_to), [`step`](SsdSystem::step) and
/// [`finalize`](SsdSystem::finalize) — which execute exactly the same
/// sequence of internal phases, so a single-member array is bit-identical
/// to the standalone path.
pub struct SsdSystem {
    config: SystemConfig,
    ftl: Ftl,
    cache: PageCache,
    policy: Box<dyn GcPolicy>,
    workload: Box<dyn Workload>,
    buffered_pred: BufferedWritePredictor,
    direct_pred: DirectWritePredictor,
    accuracy: AccuracyTracker,
    latencies: LatencyRecorder,

    // Timeline.
    device_busy_until: SimTime,
    /// The issue clock of [`run`](SsdSystem::run); an external scheduler
    /// driving [`step`](SsdSystem::step) keeps its own.
    closed_loop: ClosedLoop,
    next_tick: SimTime,
    /// BGC reclaims toward this free-capacity target during idle gaps.
    target_free: ByteSize,
    /// `target_free` in whole pages, worked out where it is set.
    target_free_pages: u64,
    /// Total predicted demands at the last poll (for [`GcSignals`]).
    last_buffered_demand: u64,
    last_direct_demand: u64,

    // Interval accounting.
    direct_bytes_interval: u64,
    host_pages_at_tick: u64,
    /// Scores each horizon prediction against the device write traffic
    /// of the `N_wb` intervals after it.
    scorer: HorizonScorer,

    // Quiescence fast-forward (DESIGN.md §15). `last_tick_noop` is the
    // dirty-flag core: the most recent tick verified itself a no-flow
    // fixed point of `handle_tick`. The snapshots taken with it detect any
    // perturbation since: of the FTL's capacity picture (BGC, trim, block
    // retirement) and of the cache's dirty set (every buffered write bumps
    // `writes`, and without one `dirty_count` can only fall).
    fast_forward: bool,
    last_tick_noop: bool,
    /// The prediction the most recent tick pushed; a skipped tick pushes
    /// it again.
    last_tick_predicted: Option<u64>,
    noop_free_pages: u64,
    noop_reclaimable: ByteSize,
    noop_cache_writes: u64,
    noop_dirty_count: u64,
    ticks_skipped: u64,
    ff_spans: u64,
    ff_refusals: FfRefusals,

    /// Set by [`prefill`](SsdSystem::prefill), which ages a device once.
    prefilled: bool,

    // Counters.
    ops: u64,
    reads: u64,
    buffered_writes: u64,
    direct_writes: u64,
    trims: u64,
    fgc_request_stalls: u64,
    fgc_flush_stalls: u64,
    throttled_requests: u64,
    timeline: Vec<crate::system::IntervalSample>,

    // End-of-life bookkeeping (see the fault model in `jitgc-nand`).
    /// When the FTL's read-only transition was first observed.
    read_only_at: Option<SimTime>,
    /// Host pages the device had accepted (post-prefill) at that moment —
    /// the numerator of the lifetime metric.
    lifetime_host_pages: u64,
    /// Host requests refused because the device is read-only.
    rejected_requests: u64,
    /// LPNs of the current request whose flash read came back
    /// uncorrectable; cleared at the start of every request, so after
    /// [`step`](Self::step) it describes exactly that request (the array
    /// layer repairs these from the mirror replica).
    failed_reads: Vec<Lpn>,

    // Scratch storage reused across polls and requests so the steady
    // state allocates nothing: the SIP list ping-pongs between the
    // predictor and the FTL, and batched LPNs are staged in one vector.
    sip_scratch: SipList,
    lpn_scratch: Vec<Lpn>,

    // Opt-in wall-clock phase profiling (see [`PhaseProfile`]).
    profile_enabled: bool,
    profile: PhaseProfile,
}

// A whole system moves to another thread inside a `Service` that `serve`
// runs on its own thread while a client talks to it; keep the guarantee
// compile-time so a non-`Send` field (or trait object bound) fails here
// and not at that call site.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<SsdSystem>()
};

impl SsdSystem {
    /// Builds a system from its three parts.
    #[must_use]
    pub fn new(
        mut config: SystemConfig,
        policy: Box<dyn GcPolicy>,
        workload: Box<dyn Workload>,
    ) -> Self {
        let ftl = Ftl::new(config.ftl.clone(), config.victim.build());
        // The engine ticks the flusher every `config.flusher_period`, so
        // that is the period of the cache's flusher clock: its dirty-age
        // epoch counters are what `predict_into` reads at every tick.
        config.cache = config.cache.with_flusher_period(config.flusher_period);
        let mut cache = PageCache::new(config.cache);
        // Every LPN a request may carry is below the FTL's user space:
        // with that said the cache's LPN-indexed tables are sized once,
        // the same for every order the addresses may arrive in.
        cache.expect_lpns(config.ftl.user_pages());
        let mut buffered_pred = BufferedWritePredictor::new(
            config.flusher_period,
            config.tau_expire(),
            config.ftl.geometry().page_size(),
        );
        if config.strict_tau_flush {
            buffered_pred = buffered_pred.with_strict_tau_flush();
        }
        let direct_pred = DirectWritePredictor::new(
            config.flusher_period,
            config.tau_expire(),
            config.cdh_percentile,
            config.cdh_bin_bytes,
        );
        let next_tick = SimTime::ZERO + config.flusher_period;
        SsdSystem {
            ftl,
            cache,
            policy,
            workload,
            buffered_pred,
            direct_pred,
            accuracy: AccuracyTracker::new(),
            latencies: LatencyRecorder::new(),
            device_busy_until: SimTime::ZERO,
            closed_loop: ClosedLoop::new(config.queue_depth),
            next_tick,
            target_free: ByteSize::ZERO,
            target_free_pages: 0,
            last_buffered_demand: 0,
            last_direct_demand: 0,
            direct_bytes_interval: 0,
            host_pages_at_tick: 0,
            scorer: HorizonScorer::default(),
            fast_forward: true,
            last_tick_noop: false,
            last_tick_predicted: None,
            noop_free_pages: 0,
            noop_reclaimable: ByteSize::ZERO,
            noop_cache_writes: 0,
            noop_dirty_count: 0,
            ticks_skipped: 0,
            ff_spans: 0,
            ff_refusals: FfRefusals::default(),
            prefilled: false,
            ops: 0,
            reads: 0,
            buffered_writes: 0,
            direct_writes: 0,
            trims: 0,
            fgc_request_stalls: 0,
            fgc_flush_stalls: 0,
            throttled_requests: 0,
            timeline: Vec::new(),
            read_only_at: None,
            lifetime_host_pages: 0,
            rejected_requests: 0,
            failed_reads: Vec::new(),
            sip_scratch: SipList::new(),
            lpn_scratch: Vec::new(),
            profile_enabled: false,
            profile: PhaseProfile::default(),
            config,
        }
    }

    /// Turns on wall-clock phase profiling for subsequent work. The
    /// probes are two `Instant` reads per phase entry and never influence
    /// simulated behaviour; reports stay identical either way.
    pub fn enable_phase_profiling(&mut self) {
        self.profile_enabled = true;
        self.ftl.enable_gc_copy_profiling();
    }

    /// The accumulated per-phase wall-clock breakdown (all zero unless
    /// [`enable_phase_profiling`](SsdSystem::enable_phase_profiling) was
    /// called before [`run`](SsdSystem::run)). The `gc_copy` sub-phase
    /// (full-block collections and background GC's page copies) is
    /// collected inside the FTL and merged here.
    #[must_use]
    pub fn phase_profile(&self) -> PhaseProfile {
        let mut profile = self.profile;
        profile.gc_copy = self.ftl.gc_copy_wall();
        profile
    }

    fn timer(&self) -> Option<std::time::Instant> {
        self.profile_enabled.then(std::time::Instant::now)
    }

    /// Runs the workload to exhaustion and reports.
    ///
    /// # Panics
    ///
    /// Panics if the FTL signals an unrecoverable condition (no
    /// reclaimable space), which indicates a misconfigured experiment.
    pub fn run(&mut self) -> SimReport {
        if self.config.prefill {
            self.prefill();
        }
        while let Some(req) = self.workload.next_request() {
            let (thread, issue) = self.closed_loop.issue(req.gap);
            let completion = self.step(req, issue);
            self.closed_loop.complete(thread, completion);
        }
        self.finalize(self.closed_loop.end())
    }

    /// Issues one request at simulated time `issue` and returns its
    /// completion time. Runs the exact per-request sequence of
    /// [`run`](SsdSystem::run): periodic host work up to `issue`,
    /// background GC in the idle gap, then the request itself, recorded
    /// in this system's latency and request counters.
    ///
    /// This is the hook an external scheduler (the array layer) uses to
    /// advance members in virtual-time lockstep; the caller owns the
    /// closed-loop schedule (think times, thread completion bookkeeping).
    pub fn step(&mut self, req: IoRequest, issue: SimTime) -> SimTime {
        self.catch_up(issue);
        let t0 = self.timer();
        let completion = self.execute(req, issue);
        if let Some(t0) = t0 {
            self.profile.request_execution += t0.elapsed();
        }
        self.latencies.record(completion.saturating_since(issue));
        self.ops += 1;
        completion
    }

    /// Processes periodic host work (flusher, predictors, policy) and
    /// idle-gap background GC up to time `t` without issuing a request —
    /// how an external scheduler lets a member's clock advance through a
    /// stretch where no request touched it.
    pub fn advance_to(&mut self, t: SimTime) {
        self.catch_up(t);
    }

    /// Builds the final report, treating `end` as the run's end time
    /// (callers that drive the engine via [`step`](SsdSystem::step) own
    /// the schedule and therefore know when the run ended).
    pub fn finalize(&mut self, end: SimTime) -> SimReport {
        let t0 = self.timer();
        let report = self.build_report(end);
        if let Some(t0) = t0 {
            self.profile.reporting += t0.elapsed();
        }
        report
    }

    /// Shifts the first flusher tick later by `offset`, staggering this
    /// system's periodic host work (flush, predictor polls, policy
    /// decisions and therefore BGC target updates) relative to peers that
    /// keep the default phase. Call before the first request; the array
    /// layer uses this to de-correlate member GC activity. The still-clean
    /// page cache is told the new phase: it owns the flusher clock the
    /// buffered-write predictor polls on.
    pub fn offset_tick_phase(&mut self, offset: SimDuration) {
        assert_eq!(self.ops, 0, "tick phase must be set before any request");
        self.next_tick += offset;
        let p_us = self.config.flusher_period.as_micros();
        self.cache
            .set_flusher_phase(SimDuration::from_micros(self.next_tick.as_micros() % p_us));
    }

    /// Current JIT-GC telemetry for array-level coordination.
    #[must_use]
    pub fn gc_signals(&self) -> GcSignals {
        GcSignals {
            free_capacity: self.ftl.free_capacity(),
            reclaimable_capacity: self.ftl.reclaimable_capacity(),
            target_free: self.target_free,
            predicted_buffered_bytes: self.last_buffered_demand,
            predicted_direct_bytes: self.last_direct_demand,
            busy_until: self.device_busy_until,
            fgc_invocations: self.ftl.stats().fgc_invocations,
        }
    }

    /// This member's virtual clock: the next instant at which it owes
    /// periodic host work (flusher tick, predictor poll, policy
    /// decision). Everything strictly before it has already been
    /// processed, so an external scheduler can treat it as "how far this
    /// member has advanced".
    #[must_use]
    pub fn virtual_clock(&self) -> SimTime {
        self.next_tick
    }

    /// Cumulative foreground-GC invocations so far. Sampling this around
    /// a [`step`](SsdSystem::step) tells an external scheduler whether
    /// the step stalled on foreground GC — the per-member straggler
    /// attribution the array layer reports.
    #[must_use]
    pub fn fgc_invocations(&self) -> u64 {
        self.ftl.stats().fgc_invocations
    }

    /// Ages the device: writes the whole working set once in scrambled
    /// order (a Fisher–Yates permutation, modelling how a filesystem's
    /// allocator sprays logical addresses over time), then resets every
    /// counter so measurements cover only steady state. The fill itself is
    /// free of simulated time — it stands for hours of prior use.
    ///
    /// [`run`](SsdSystem::run) calls this itself when
    /// [`SystemConfig::prefill`] is set; external schedulers driving the
    /// engine via [`step`](SsdSystem::step) must call it once up front.
    ///
    /// # Panics
    ///
    /// Panics after the first request or on a second call — the fill
    /// would rewrite a device mid-run and zero its counters — and when
    /// the working set does not fit the FTL's 32-bit LPNs.
    pub fn prefill(&mut self) {
        assert_eq!(self.ops, 0, "the device must be aged before any request");
        assert!(!self.prefilled, "the device is already aged");
        self.prefilled = true;
        let ws = self.workload.working_set_pages();
        let ws = u32::try_from(ws).unwrap_or_else(|_| {
            panic!("a working set of {ws} pages exceeds the FTL's 32-bit LPN space")
        });
        let mut lpns: Vec<u32> = (0..ws).collect();
        let mut rng = jitgc_sim::SimRng::seed(0xA6ED);
        for i in (1..lpns.len()).rev() {
            let j = rng.range_u64(0, i as u64 + 1) as usize;
            lpns.swap(i, j);
        }
        for lpn in lpns {
            self.ftl
                .host_write(Lpn(u64::from(lpn)), SimTime::ZERO)
                .expect("prefill stays within user space");
        }
        self.ftl.reset_counters();
        self.host_pages_at_tick = 0;
    }

    // ------------------------------------------------------------------
    // Periodic host work (flusher + predictors + policy)
    // ------------------------------------------------------------------

    /// Catches the engine up to time `t`: all owed periodic host work
    /// (flusher, predictors, policy — looped or fast-forwarded) followed
    /// by background GC in the idle gap up to `t`. This is the single
    /// shared preamble of [`step`](Self::step) and
    /// [`advance_to`](Self::advance_to), so every tick in the simulation
    /// funnels through one place — and so does the fast-forward decision.
    fn catch_up(&mut self, t: SimTime) {
        if self.next_tick <= t {
            let t0 = self.timer();
            self.process_ticks_until(t);
            if let Some(t0) = t0 {
                self.profile.tick += t0.elapsed();
            }
        }
        self.run_bgc_in_gap(t);
    }

    fn process_ticks_until(&mut self, t: SimTime) {
        while self.next_tick <= t {
            // Quiescence can be *reached* partway through a long idle
            // span (the cache drains and the predictors saturate during
            // the first ticks of the gap), so the check runs before every
            // tick, not just once on entry. The first tick that verifies
            // skips the whole remainder in one bulk update.
            if self.fast_forward {
                match self.can_fast_forward() {
                    Ok(()) => {
                        let span = t.saturating_since(self.next_tick);
                        let k = span.div_duration(self.config.flusher_period) + 1;
                        self.fast_forward_span(k);
                        self.ticks_skipped += k;
                        self.ff_spans += 1;
                        return;
                    }
                    Err(gate) => self.ff_refusals.note(gate),
                }
            }
            let tick = self.next_tick;
            self.run_bgc_in_gap(tick);
            self.handle_tick(tick);
            self.next_tick = tick + self.config.flusher_period;
        }
    }

    /// The quiescence check (DESIGN.md §15a): `Ok` when the next tick —
    /// and by induction every tick until an external event — would map
    /// the engine exactly onto its current state, else the first gate
    /// that refused. Cheap dirty-flag and counter comparisons come first;
    /// the O(window) predictor scans run only once everything else has
    /// passed.
    fn can_fast_forward(&self) -> Result<(), FfGate> {
        // The most recent tick must have verified itself a no-op…
        if !self.last_tick_noop {
            return Err(FfGate::TickNotNoop);
        }
        // …over the dirty set the cache still holds: any buffered write
        // since bumps `writes` (a rewrite of a dirty page, which resets
        // its age, bumps nothing else), and without one the dirty count
        // can only fall (direct write over a dirty page).
        if self.cache.stats().writes != self.noop_cache_writes
            || self.cache.dirty_count() != self.noop_dirty_count
        {
            return Err(FfGate::CacheChanged);
        }
        if self.direct_bytes_interval != 0 {
            return Err(FfGate::DirectBytes);
        }
        // Nothing may have perturbed the FTL's mapping or capacity
        // picture since (BGC, trim, read-repair block retirement…).
        if self.ftl.stats().host_pages_written != self.host_pages_at_tick
            || self.ftl.free_pages() != self.noop_free_pages
            || self.ftl.reclaimable_capacity() != self.noop_reclaimable
        {
            return Err(FfGate::FtlMoved);
        }
        // Per-tick side effects the bulk update does not model.
        if self.config.record_timeline || self.config.wear_leveling {
            return Err(FfGate::PerTickEffect);
        }
        // BGC must be at target, otherwise inter-tick gaps do real work.
        if self.ftl.free_pages() < self.target_free_pages {
            return Err(FfGate::BgcBelowTarget);
        }
        // The SG_IO cost folds into a closed form only when one tick's
        // commands fit within the period (Lindley recursion unrolling
        // needs c ≤ p); gate rather than assume.
        if self.sip_tick_cost_applies()
            && self.config.host_command_overhead.saturating_mul(4) > self.config.flusher_period
        {
            return Err(FfGate::SgIoCost);
        }
        // Predictor and policy must be exact self-maps on a repeated
        // zero-traffic interval (lazy O(window) scans).
        if !self.direct_pred.at_zero_traffic_fixed_point() {
            return Err(FfGate::DirectPredictor);
        }
        if !self.policy.zero_traffic_fixed_point() {
            return Err(FfGate::Policy);
        }
        Ok(())
    }

    fn sip_tick_cost_applies(&self) -> bool {
        self.policy.uses_sip()
            && self.config.manager_placement == crate::system::ManagerPlacement::Host
    }

    /// Applies the net effect of `k` consecutive quiescent ticks in
    /// O(`N_wb`) instead of O(`k`):
    ///
    /// * `k` intervals close without traffic, each re-issuing the
    ///   verified prediction `R` ([`HorizonScorer::skip_idle`]: same FIFO
    ///   order, same `u64` sums, same float operations as the per-tick
    ///   loop);
    /// * the per-tick SG_IO device cost folds in closed form
    ///   `busy' = max(busy + k·c, T_k + c)` (valid because `c ≤ p` was
    ///   gated);
    /// * the clock jumps past the span.
    ///
    /// Everything else — cache, FTL, predictors, policy, demand
    /// snapshots, `host_pages_at_tick` — is untouched, which is exactly
    /// what `can_fast_forward` certified.
    fn fast_forward_span(&mut self, k: u64) {
        let p = self.config.flusher_period;
        self.scorer.skip_idle(
            k,
            self.last_tick_predicted,
            self.config.nwb(),
            &mut self.accuracy,
        );
        let t_last = self.next_tick + p.saturating_mul(k - 1);
        if self.sip_tick_cost_applies() {
            let c = self.config.host_command_overhead.saturating_mul(4);
            self.device_busy_until = (self.device_busy_until + c.saturating_mul(k)).max(t_last + c);
        }
        self.next_tick = t_last + p;
    }

    fn handle_tick(&mut self, now: SimTime) {
        // Direct traffic of the closing interval, read before step 3
        // resets it — one input of the quiescence verdict below.
        let entry_direct_bytes = self.direct_bytes_interval;
        let entry_target = self.target_free;

        // 1. Flusher thread: write back expired / pressured dirty pages.
        let t0 = self.timer();
        let batch = self.cache.flusher_tick(now);
        let batch_was_empty = batch.lpns.is_empty();
        if !batch.lpns.is_empty() {
            match self.ftl.host_write_batch(&batch.lpns, now) {
                Ok(out) => {
                    if out.fgc_writes > 0 {
                        self.fgc_flush_stalls += 1;
                    }
                    let start = now.max(self.device_busy_until);
                    self.device_busy_until = start + out.duration;
                    let bytes = self.page_size() * batch.lpns.len() as u64;
                    self.policy.observe_write(bytes, out.duration);
                }
                // End of life: the device stopped accepting writes
                // mid-batch. The remaining dirty data has nowhere to go —
                // it is lost, exactly as on a real drive that dies with a
                // dirty page cache.
                Err(FtlError::ReadOnly) => self.note_read_only(now),
                Err(e) => panic!("flush target within user space: {e}"),
            }
        }
        if let Some(t0) = t0 {
            self.profile.flush += t0.elapsed();
        }

        // 2. Account the device traffic of the interval that just closed
        //    (post-flush to post-flush) and score any prediction whose
        //    full horizon has now elapsed.
        let host_pages_now = self.ftl.stats().host_pages_written;
        let actual_bytes = (host_pages_now - self.host_pages_at_tick) * self.page_size().as_u64();
        self.host_pages_at_tick = host_pages_now;
        self.scorer
            .close_interval(actual_bytes, self.config.nwb(), &mut self.accuracy);

        // 3. Kernel-side predictors (paper Sec. 3.2). The SIP list is a
        //    scratch buffer ping-ponged with the FTL (step 5), so the
        //    poll reuses its backing storage instead of reallocating.
        let t0 = self.timer();
        self.direct_pred
            .observe_interval(self.direct_bytes_interval);
        self.direct_bytes_interval = 0;
        let mut sip = std::mem::take(&mut self.sip_scratch);
        let buffered_demand = self.buffered_pred.predict_into(&self.cache, now, &mut sip);
        let direct_demand = self.direct_pred.predict();
        self.last_buffered_demand = buffered_demand.total();
        self.last_direct_demand = direct_demand.total();
        if let Some(t0) = t0 {
            self.profile.predictor += t0.elapsed();
        }

        // 4. Policy decision (paper Sec. 3.3).
        let obs = IntervalObservation {
            now,
            free_capacity: self.ftl.free_capacity(),
            op_capacity: self.ftl.op_capacity(),
            buffered_demand: &buffered_demand,
            direct_demand: &direct_demand,
            device_bytes_last_interval: actual_bytes,
        };
        let decision = self.policy.on_interval(&obs);
        // The paper's feasibility restriction: a reserve beyond what is
        // physically reclaimable would make BGC erase fully-valid blocks
        // for nothing ("useless BGC operations").
        self.target_free = decision.target_free.min(self.ftl.reclaimable_capacity());
        self.target_free_pages = self.target_free.as_u64() / self.page_size().as_u64();
        if let Some(predicted) = decision.predicted_next_interval {
            self.scorer.issue(predicted);
        }

        // 5. Ship the SIP list to the FTL. With the manager in the host
        //    (the paper's actual implementation, Fig. 3(b)) each tick pays
        //    the extended-interface cost: the paper measured ~160 µs per
        //    SG_IO command, and JIT-GC exchanges demands, the SIP list,
        //    C_free and the BGC command — four commands. The ideal
        //    in-device manager (Fig. 3(a)) pays nothing.
        if self.policy.uses_sip() {
            let t0 = self.timer();
            // Swap the fresh list in and take last interval's back as the
            // next poll's scratch — allocation-free in steady state.
            self.sip_scratch = self.ftl.install_sip_list(sip);
            if let Some(t0) = t0 {
                self.profile.predictor += t0.elapsed();
            }
            if self.config.manager_placement == crate::system::ManagerPlacement::Host {
                self.device_busy_until = self.device_busy_until.max(now)
                    + self.config.host_command_overhead.saturating_mul(4);
            }
        } else {
            self.sip_scratch = sip;
        }

        // 6. Optional timeline snapshot for time-series analysis.
        if self.config.record_timeline {
            let page = self.page_size().as_u64();
            self.timeline.push(crate::system::IntervalSample {
                t_secs: now.as_secs_f64(),
                free_pages: self.ftl.free_pages(),
                target_pages: self.target_free_pages,
                host_pages_interval: actual_bytes / page,
                fgc_cumulative: self.ftl.stats().fgc_invocations,
                bgc_blocks_cumulative: self.ftl.stats().bgc_blocks,
                waf: self.ftl.waf().unwrap_or(1.0),
            });
        }

        // 7. Optional static wear leveling (extension). A device at the
        //    end of its life has nothing left to level — and relocation
        //    itself can fail for lack of a spare block.
        if self.config.wear_leveling && !self.ftl.read_only() {
            match self.ftl.wear_level(now) {
                Ok(out) => {
                    if out.performed {
                        let start = now.max(self.device_busy_until);
                        self.device_busy_until = start + out.duration;
                    }
                }
                Err(FtlError::NoReclaimableSpace | FtlError::ReadOnly) => {
                    // Leveling is best-effort; skip the pass.
                }
                Err(e) => panic!("wear leveling: {e}"),
            }
        }

        // 8. Quiescence verdict (DESIGN.md §15a). This tick was a no-flow
        //    fixed point iff nothing flowed (empty flush batch, no host or
        //    direct bytes), whatever is still dirty can never flush (at or
        //    below `τ_flush`, so the AND-semantics flusher stays gated)
        //    and has aged into the predictor's interval 1 (where the
        //    clamp keeps it, so the next poll returns this demand and
        //    installs this SIP list again), the direct demand is zero, and
        //    the policy repeated the previous tick's target and
        //    prediction. Under those conditions — plus the predictor /
        //    policy self-map checks and the snapshots below, verified
        //    again at skip time — the next zero-traffic tick repeats this
        //    one exactly.
        self.last_tick_noop = batch_was_empty
            && actual_bytes == 0
            && entry_direct_bytes == 0
            && self.cache.dirty_count() <= self.cache.config().flush_threshold_pages()
            && buffered_demand.total() == buffered_demand.interval(1)
            && self.last_direct_demand == 0
            && self.target_free == entry_target
            && decision.predicted_next_interval == self.last_tick_predicted;
        self.last_tick_predicted = decision.predicted_next_interval;
        if self.last_tick_noop {
            self.noop_free_pages = self.ftl.free_pages();
            self.noop_reclaimable = self.ftl.reclaimable_capacity();
            self.noop_cache_writes = self.cache.stats().writes;
            self.noop_dirty_count = self.cache.dirty_count();
        }
    }

    /// Records the first observation of the device's read-only transition
    /// and freezes the lifetime metric: host pages accepted since the end
    /// of pre-fill ([`prefill`](Self::prefill) resets the counters, so
    /// aging writes never count as lifetime).
    fn note_read_only(&mut self, now: SimTime) {
        if self.read_only_at.is_none() {
            self.read_only_at = Some(now);
            self.lifetime_host_pages = self.ftl.stats().host_pages_written;
        }
    }

    /// Tallies a host request refused because the device is read-only.
    fn reject_request(&mut self, now: SimTime) {
        self.note_read_only(now);
        self.rejected_requests += 1;
    }

    /// Mirror-repair read path: the array layer re-reads LPNs whose copy
    /// on the peer replica came back uncorrectable. Bypasses the page
    /// cache (the data demonstrably was not there) and returns the
    /// completion time plus how many pages failed on *this* replica too —
    /// those are lost for good.
    pub fn recovery_read(&mut self, lpns: &[Lpn], issue: SimTime) -> (SimTime, u64) {
        let out = self
            .ftl
            .host_read_batch(lpns, issue)
            .expect("recovery stays within user space");
        if out.duration.is_zero() {
            return (issue, out.failed);
        }
        let start = issue.max(self.device_busy_until);
        self.device_busy_until = start + out.duration;
        (start + out.duration, out.failed)
    }

    /// Lets background GC consume device idle time in `[busy_until, t)`,
    /// reclaiming toward the policy's current target. Because the budget
    /// ends at the next known event, BGC never delays host work — the
    /// model of a perfectly preemptible collector.
    fn run_bgc_in_gap(&mut self, t: SimTime) {
        let t0 = self.timer();
        self.bgc_in_gap(t);
        if let Some(t0) = t0 {
            self.profile.bgc += t0.elapsed();
        }
    }

    fn bgc_in_gap(&mut self, t: SimTime) {
        if self.device_busy_until >= t {
            return;
        }
        if self.ftl.free_pages() >= self.target_free_pages {
            return;
        }
        let gap_start = self.device_busy_until;
        let budget = t.saturating_since(gap_start);
        let outcome = self
            .ftl
            .background_collect(gap_start, budget, Some(self.target_free_pages));
        if outcome.blocks_erased > 0 {
            self.device_busy_until = gap_start + outcome.duration;
            self.policy
                .observe_gc(self.page_size() * outcome.pages_freed, outcome.duration);
        }
    }

    // ------------------------------------------------------------------
    // Request execution
    // ------------------------------------------------------------------

    fn execute(&mut self, req: IoRequest, issue: SimTime) -> SimTime {
        self.failed_reads.clear();
        let mut host_time = SimDuration::ZERO;
        let mut device_time = SimDuration::ZERO;
        match req.kind {
            IoKind::Read => {
                self.reads += 1;
                let mut misses = std::mem::take(&mut self.lpn_scratch);
                misses.clear();
                for lpn in req.lpns() {
                    if self.cache.read(lpn, issue) {
                        host_time += self.config.cache_op_time;
                    } else {
                        misses.push(lpn);
                    }
                }
                if !misses.is_empty() {
                    let out = self
                        .ftl
                        .host_read_batch(&misses, issue)
                        .expect("workload stays within user space");
                    device_time += out.duration;
                    // Never-written data reads back as zeros without
                    // touching the device.
                    host_time += self.config.cache_op_time.saturating_mul(out.unmapped);
                    if out.failed > 0 {
                        self.failed_reads
                            .extend_from_slice(self.ftl.failed_read_lpns());
                    }
                }
                self.lpn_scratch = misses;
            }
            IoKind::BufferedWrite => {
                self.buffered_writes += 1;
                // The cache is saturated with dirty data: the oldest
                // pages must hit the device before this write can be
                // absorbed. Stage them and issue one batch below.
                let mut writebacks = std::mem::take(&mut self.lpn_scratch);
                writebacks.clear();
                for lpn in req.lpns() {
                    host_time += self.config.cache_op_time;
                    let effect = self.cache.write(lpn, issue);
                    writebacks.extend(effect.forced_writebacks);
                }
                if !writebacks.is_empty() {
                    match self.ftl.host_write_batch(&writebacks, issue) {
                        Ok(out) => {
                            device_time += out.duration;
                            // Every forced write-back that hit foreground GC
                            // is its own stall, exactly as in the per-page
                            // loop.
                            self.fgc_request_stalls += out.fgc_writes;
                        }
                        Err(FtlError::ReadOnly) => self.reject_request(issue),
                        Err(e) => panic!("cache holds user-space pages: {e}"),
                    }
                }
                self.lpn_scratch = writebacks;
                // Linux dirty throttling: past the hard dirty ratio this
                // writer performs write-back itself — synchronously, GC
                // stalls and all. This is how a slow flush path reaches
                // the application.
                let throttled = self.cache.throttle_excess();
                if !throttled.is_empty() {
                    self.throttled_requests += 1;
                    match self.ftl.host_write_batch(&throttled, issue) {
                        Ok(out) => {
                            device_time += out.duration;
                            self.fgc_request_stalls += u64::from(out.fgc_writes > 0);
                        }
                        Err(FtlError::ReadOnly) => self.reject_request(issue),
                        Err(e) => panic!("cache holds user-space pages: {e}"),
                    }
                }
            }
            IoKind::DirectWrite => {
                self.direct_writes += 1;
                let mut lpns = std::mem::take(&mut self.lpn_scratch);
                lpns.clear();
                lpns.extend(req.lpns());
                match self.ftl.host_write_batch(&lpns, issue) {
                    Ok(out) => {
                        device_time += out.duration;
                        self.fgc_request_stalls += u64::from(out.fgc_writes > 0);
                        for &lpn in &lpns {
                            // A direct write supersedes any cached copy;
                            // drop it so a stale flush cannot overwrite the
                            // new data.
                            self.cache.invalidate(lpn);
                        }
                        let bytes = self.page_size() * u64::from(req.pages);
                        self.direct_bytes_interval += bytes.as_u64();
                        self.policy.observe_write(bytes, device_time);
                    }
                    Err(FtlError::ReadOnly) => self.reject_request(issue),
                    Err(e) => panic!("workload stays within user space: {e}"),
                }
                self.lpn_scratch = lpns;
            }
            IoKind::Trim => {
                self.trims += 1;
                for lpn in req.lpns() {
                    match self.ftl.trim(lpn, issue) {
                        Ok(()) => host_time += self.config.cache_op_time,
                        Err(FtlError::ReadOnly) => {
                            self.reject_request(issue);
                            break;
                        }
                        Err(e) => panic!("workload stays within user space: {e}"),
                    }
                }
            }
        }

        if device_time.is_zero() {
            issue + host_time
        } else {
            let start = issue.max(self.device_busy_until);
            self.device_busy_until = start + device_time;
            start + device_time + host_time
        }
    }

    // ------------------------------------------------------------------
    // Reporting
    // ------------------------------------------------------------------

    fn page_size(&self) -> ByteSize {
        self.config.ftl.geometry().page_size()
    }

    fn build_report(&self, end: SimTime) -> SimReport {
        let secs = end.as_secs_f64().max(f64::MIN_POSITIVE);
        let lat = |q: f64| self.latencies.percentile(q).map_or(0, |d| d.as_micros());
        let stats = self.ftl.stats();
        SimReport {
            policy: self.policy.name().to_owned(),
            workload: self.workload.name().to_owned(),
            victim_policy: self.ftl.victim_policy().to_owned(),
            duration_secs: secs,
            ops: self.ops,
            iops: self.ops as f64 / secs,
            reads: self.reads,
            buffered_writes: self.buffered_writes,
            direct_writes: self.direct_writes,
            trims: self.trims,
            waf: self.ftl.waf(),
            nand_erases: self.ftl.device().stats().erases,
            wear: self.ftl.device().wear_report(),
            fgc_request_stalls: self.fgc_request_stalls,
            fgc_flush_stalls: self.fgc_flush_stalls,
            throttled_requests: self.throttled_requests,
            bgc_blocks: stats.bgc_blocks,
            gc_pages_migrated: stats.gc_pages_migrated,
            latency_mean_us: self.latencies.mean().map_or(0, |d| d.as_micros()),
            latency_p50_us: lat(0.50),
            latency_p99_us: lat(0.99),
            latency_p999_us: lat(0.999),
            latency_max_us: self.latencies.max().map_or(0, |d| d.as_micros()),
            prediction_accuracy_percent: self.accuracy.mean_accuracy_percent(),
            sip_filtered_fraction: stats.sip_filtered_fraction(),
            cache_hit_ratio: self.cache.stats().hit_ratio(),
            host_pages_written: stats.host_pages_written,
            nand_pages_programmed: self.ftl.device().stats().programs,
            timeline: self.timeline.clone(),
            degraded: self.degraded_report(),
        }
    }

    /// Builds the end-of-life section, or `None` for a healthy run —
    /// omitting the section keeps fault-free reports byte-identical with
    /// builds that predate the fault model.
    fn degraded_report(&self) -> Option<crate::system::DegradedReport> {
        let stats = self.ftl.stats();
        let device = self.ftl.device().stats();
        let events = self.ftl.degrade_events();
        let healthy = events.is_empty()
            && !self.ftl.read_only()
            && stats.program_retries == 0
            && stats.gc_read_failures == 0
            && stats.host_read_failures == 0
            && device.read_failures == 0;
        if healthy {
            return None;
        }
        let page_bytes = self.page_size().as_u64();
        Some(crate::system::DegradedReport {
            read_only: self.ftl.read_only(),
            read_only_at_secs: self.read_only_at.map(SimTime::as_secs_f64),
            lifetime_host_bytes: self
                .read_only_at
                .map(|_| self.lifetime_host_pages * page_bytes),
            retired_blocks: self.ftl.retired_blocks(),
            retired_pages: self.ftl.retired_pages(),
            program_retries: stats.program_retries,
            gc_read_failures: stats.gc_read_failures,
            host_read_failures: stats.host_read_failures,
            rejected_requests: self.rejected_requests,
            events: events
                .iter()
                .map(|e| crate::system::DegradeEventRecord {
                    t_secs: e.time.as_secs_f64(),
                    kind: match e.kind {
                        DegradeKind::BlockRetired(_) => "block_retired".to_owned(),
                        DegradeKind::ReadOnly => "read_only".to_owned(),
                    },
                    block: match e.kind {
                        DegradeKind::BlockRetired(b) => Some(u64::from(b.0)),
                        DegradeKind::ReadOnly => None,
                    },
                })
                .collect(),
        })
    }

    /// Read-only access to the FTL (for tests and examples).
    #[must_use]
    pub fn ftl(&self) -> &Ftl {
        &self.ftl
    }

    /// Test hook: selects the tick-processing path — the quiescence
    /// fast-forward (the production path, on by default) or the pure
    /// per-tick loop, the reference the identity tests compare it
    /// against. Reports are byte-for-byte the same either way. No CLI
    /// reaches this.
    pub fn set_fast_forward(&mut self, enabled: bool) {
        self.fast_forward = enabled;
    }

    /// The wall-clock facts of this system's run so far, for the
    /// `--bench-json` perf record: the caller's stopwatch readings plus
    /// the engine's own fast-forward setting, counters and — when
    /// [`enable_phase_profiling`](SsdSystem::enable_phase_profiling) was
    /// called — phase profile.
    #[must_use]
    pub fn run_perf(&self, setup_secs: f64, run_secs: f64) -> RunPerf {
        RunPerf {
            setup_secs,
            run_secs,
            profile: self.profile_enabled.then(|| self.phase_profile()),
            fast_forward: self.fast_forward,
            ticks_skipped: self.ticks_skipped,
            ff_spans: self.ff_spans,
        }
    }

    /// Ticks skipped by the quiescence fast-forward so far. Zero with
    /// the fast-forward off; deliberately *not* part of [`SimReport`] so
    /// reports stay byte-identical across the switch.
    #[must_use]
    pub fn ticks_skipped(&self) -> u64 {
        self.ticks_skipped
    }

    /// Contiguous fast-forwarded spans so far (each covers one or more
    /// skipped ticks).
    #[must_use]
    pub fn ff_spans(&self) -> u64 {
        self.ff_spans
    }

    /// Idle ticks the fast-forward refused so far, tallied by the first
    /// gate of the quiescence check that failed — why a gap (or the first
    /// ticks of it) ran through the per-tick loop. All zero with the
    /// fast-forward off; like the skip counters, not part of
    /// [`SimReport`].
    #[must_use]
    pub fn ff_refusals(&self) -> FfRefusals {
        self.ff_refusals
    }

    /// Predictions still waiting for their horizon to close: at most
    /// `N_wb`, however long the run (asserted by the memory regression
    /// tests — the engine keeps nothing else per elapsed tick).
    #[doc(hidden)]
    #[must_use]
    pub fn pending_predictions_len(&self) -> usize {
        self.scorer.pending_len()
    }

    /// LPNs of the most recent request whose flash read came back
    /// uncorrectable — empty after any request that read cleanly. The
    /// array layer re-reads these from the mirror replica via
    /// [`recovery_read`](Self::recovery_read).
    #[must_use]
    pub fn failed_read_lpns(&self) -> &[Lpn] {
        &self.failed_reads
    }

    /// Read-only access to the page cache (for tests and examples).
    #[must_use]
    pub fn cache(&self) -> &PageCache {
        &self.cache
    }

    /// The system's configuration.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// When the device finishes its currently accepted work.
    #[must_use]
    pub fn device_busy_until(&self) -> SimTime {
        self.device_busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{JitGc, NoBgc, PolicyKind};
    use jitgc_workload::{BenchmarkKind, WorkloadConfig};

    fn run(policy: Box<dyn GcPolicy>, kind: BenchmarkKind, secs: u64, seed: u64) -> SimReport {
        let config = SystemConfig::small_for_tests();
        let wl_cfg = WorkloadConfig::builder()
            .working_set_pages(config.ftl.user_pages() / 2)
            .duration(SimDuration::from_secs(secs))
            .mean_iops(1_500.0)
            .seed(seed)
            .build();
        let workload = kind.build(wl_cfg);
        SsdSystem::new(config, policy, workload).run()
    }

    #[test]
    fn zero_host_write_run_reports_no_waf() {
        // Prefill resets the FTL counters, so an all-read workload ends
        // the measured window with zero host writes — the WAF ratio is
        // undefined and must surface as None, not a fabricated 1.0.
        let config = SystemConfig::small_for_tests();
        let wl_cfg = WorkloadConfig::builder()
            .working_set_pages(config.ftl.user_pages() / 2)
            .duration(SimDuration::from_secs(5))
            .mean_iops(500.0)
            .seed(9)
            .build();
        let workload = jitgc_workload::Synthetic::builder()
            .read_fraction(1.0)
            .build(wl_cfg);
        let report = SsdSystem::new(config, Box::new(NoBgc), Box::new(workload)).run();
        assert!(report.ops > 0);
        assert_eq!(report.host_pages_written, 0);
        assert_eq!(report.waf, None);
    }

    #[test]
    fn runs_to_completion_and_reports() {
        let report = run(Box::new(NoBgc), BenchmarkKind::Ycsb, 30, 1);
        assert!(report.ops > 10_000, "ops {}", report.ops);
        assert!(report.iops > 0.0);
        assert!(report.waf.expect("host writes happened") >= 1.0);
        assert!(report.duration_secs >= 29.0);
        assert_eq!(report.policy, "No-BGC");
        assert_eq!(report.workload, "YCSB");
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = SystemConfig::small_for_tests();
        let a = run(
            Box::new(JitGc::from_system_config(&cfg)),
            BenchmarkKind::Postmark,
            20,
            3,
        );
        let b = run(
            Box::new(JitGc::from_system_config(&cfg)),
            BenchmarkKind::Postmark,
            20,
            3,
        );
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.waf, b.waf);
        assert_eq!(a.nand_erases, b.nand_erases);
        assert_eq!(a.latency_p99_us, b.latency_p99_us);
    }

    #[test]
    fn aggressive_policy_reduces_fgc_stalls() {
        let cfg = SystemConfig::small_for_tests();
        let lazy = run(PolicyKind::L_BGC.build(&cfg), BenchmarkKind::Ycsb, 60, 5);
        let aggressive = run(PolicyKind::A_BGC.build(&cfg), BenchmarkKind::Ycsb, 60, 5);
        let lazy_stalls = lazy.fgc_request_stalls + lazy.fgc_flush_stalls;
        let agg_stalls = aggressive.fgc_request_stalls + aggressive.fgc_flush_stalls;
        assert!(
            agg_stalls <= lazy_stalls,
            "aggressive {agg_stalls} vs lazy {lazy_stalls}"
        );
        assert!(aggressive.iops >= lazy.iops * 0.95);
    }

    #[test]
    fn jit_reports_prediction_accuracy_and_sip() {
        let cfg = SystemConfig::small_for_tests();
        let report = run(
            Box::new(JitGc::from_system_config(&cfg)),
            BenchmarkKind::Ycsb,
            60,
            7,
        );
        let acc = report
            .prediction_accuracy_percent
            .expect("JIT-GC predicts every interval");
        assert!(acc > 15.0, "accuracy {acc}");
        assert!(report.bgc_blocks > 0, "JIT-GC should reclaim in background");
        assert!(
            report.sip_filtered_fraction.is_some(),
            "JIT-GC filters by SIP"
        );
    }

    #[test]
    fn adp_reports_prediction_accuracy() {
        let cfg = SystemConfig::small_for_tests();
        let report = run(PolicyKind::Adp.build(&cfg), BenchmarkKind::Ycsb, 60, 7);
        assert!(report.prediction_accuracy_percent.is_some());
        assert!(report.sip_filtered_fraction.is_none(), "ADP has no SIP");
        // The engine installs a SIP list only for a policy that uses SIP,
        // and the FTL filters victims only against an installed list: the
        // SIP-less JIT-GC filters none on the run where JIT-GC does.
        let no_sip = run(PolicyKind::JitNoSip.build(&cfg), BenchmarkKind::Ycsb, 60, 7);
        assert!(no_sip.prediction_accuracy_percent.is_some());
        assert!(no_sip.sip_filtered_fraction.is_none(), "JIT-GC without SIP");
    }

    #[test]
    fn reserved_policies_do_not_predict() {
        let cfg = SystemConfig::small_for_tests();
        let report = run(
            PolicyKind::L_BGC.build(&cfg),
            BenchmarkKind::Filebench,
            30,
            2,
        );
        assert_eq!(report.prediction_accuracy_percent, None);
    }

    #[test]
    fn request_counts_add_up() {
        let report = run(Box::new(NoBgc), BenchmarkKind::Postmark, 20, 9);
        assert_eq!(
            report.ops,
            report.reads + report.buffered_writes + report.direct_writes + report.trims
        );
    }

    #[test]
    fn trims_flow_through_to_the_ftl() {
        // Postmark deletes files; the trims must reach the FTL and release
        // mapped space.
        let report = run(Box::new(NoBgc), BenchmarkKind::Postmark, 20, 4);
        assert!(report.trims > 0, "postmark emitted no trims");
    }

    #[test]
    fn unmapped_reads_are_served_as_zero_fill() {
        // Without prefill, early reads hit never-written pages; the engine
        // must serve them without device time and without panicking.
        let report = run(Box::new(NoBgc), BenchmarkKind::Filebench, 10, 6);
        assert!(report.reads > 0);
        assert!(report.ops > 1_000);
    }

    #[test]
    fn accessors_expose_components() {
        let config = SystemConfig::small_for_tests();
        let wl_cfg = jitgc_workload::WorkloadConfig::builder()
            .working_set_pages(config.ftl.user_pages() / 2)
            .duration(SimDuration::from_secs(2))
            .build();
        let system = SsdSystem::new(
            config.clone(),
            Box::new(NoBgc),
            BenchmarkKind::Ycsb.build(wl_cfg),
        );
        assert_eq!(system.policy.name(), "No-BGC");
        assert_eq!(system.ftl().config().user_pages(), config.ftl.user_pages());
        assert!(system.cache().is_empty());
    }

    #[test]
    fn prefill_maps_whole_working_set_before_measurement() {
        let mut config = SystemConfig::small_for_tests();
        config.prefill = true;
        let ws = config.ftl.user_pages() / 2;
        let wl_cfg = jitgc_workload::WorkloadConfig::builder()
            .working_set_pages(ws)
            .duration(SimDuration::from_secs(2))
            .build();
        let mut system = SsdSystem::new(config, Box::new(NoBgc), BenchmarkKind::TpcC.build(wl_cfg));
        let report = system.run();
        // Counters were reset after the fill: host writes reflect only the
        // measured phase, yet the device holds at least the working set.
        assert!(report.host_pages_written < ws + report.ops * 4);
        assert!(system.ftl().device().total_valid_pages() >= ws);
    }

    /// A system over a request-less stand-in for a `ws`-page workload.
    fn stub_system(config: SystemConfig, ws: u64) -> SsdSystem {
        let stub =
            jitgc_workload::NullWorkload::new("aged", ws, jitgc_workload::WriteMix::new(0.5));
        SsdSystem::new(config, Box::new(NoBgc), Box::new(stub))
    }

    #[test]
    #[should_panic(expected = "already aged")]
    fn prefill_ages_a_device_once() {
        let mut system = stub_system(SystemConfig::small_for_tests(), 1_024);
        system.prefill();
        system.prefill();
    }

    #[test]
    #[should_panic(expected = "before any request")]
    fn prefill_refuses_a_device_in_use() {
        let mut system = stub_system(SystemConfig::small_for_tests(), 1_024);
        let req = IoRequest {
            gap: SimDuration::ZERO,
            kind: IoKind::Read,
            lpn: Lpn(0),
            pages: 1,
        };
        system.step(req, SimTime::ZERO);
        system.prefill();
    }

    #[test]
    #[should_panic(expected = "a working set of 4294967296 pages")]
    fn prefill_names_a_working_set_beyond_32_bit_lpns() {
        let ws = u64::from(u32::MAX) + 1;
        stub_system(SystemConfig::small_for_tests(), ws).prefill();
    }

    /// FNV-1a over the aged device: every LPN's mapping, every block's
    /// (write pointer, valid pages, erase count), the GC candidates in
    /// selection order and the next 8 blocks the free pool hands out, on
    /// the default and the 16× device, with hot/cold streams off and on.
    /// The constants were recorded with the linear free-pool scans and
    /// the 64-bit aging permutation: the ordered pool and the 32-bit one
    /// age every device into the state they did.
    #[test]
    fn aged_device_state_is_pinned() {
        let fnv = |h: u64, x: u64| (h ^ x).wrapping_mul(0x0100_0000_01B3);
        let digest = |user_pages: u64, hot_cold: bool| {
            let mut config = SystemConfig::default_sim();
            let mut ftl = config.ftl.to_builder().user_pages(user_pages);
            if hot_cold {
                ftl = ftl.hot_cold_streams(SimDuration::from_secs(5));
            }
            config.ftl = ftl.build();
            let ws = config.standard_working_set().expect("7 % OP");
            let mut system = stub_system(config, ws);
            system.prefill();
            let ftl = system.ftl();
            let mut h = 0xCBF2_9CE4_8422_2325_u64;
            for lpn in 0..user_pages {
                let ppn = ftl.lookup(Lpn(lpn)).expect("in range");
                h = fnv(h, ppn.map_or(u64::MAX, |p| p.0));
            }
            for b in ftl.config().geometry().block_ids() {
                let block = ftl.device().block(b);
                h = fnv(h, u64::from(block.pages() - block.free_pages()));
                h = fnv(h, u64::from(block.valid_pages()));
                h = fnv(h, block.erase_count());
            }
            for b in ftl.victim_candidates() {
                h = fnv(h, u64::from(b.0));
            }
            for b in ftl.free_blocks().take(8) {
                h = fnv(h, u64::from(b.0));
            }
            h
        };
        // Every aging write is a first write, hence cold: hot/cold streams
        // leave the aged state as it is.
        let default_pages = SystemConfig::default_sim().ftl.user_pages();
        assert_eq!(digest(default_pages, false), 0x509F_70F4_A36A_0663);
        assert_eq!(digest(default_pages, true), 0x509F_70F4_A36A_0663);
        assert_eq!(digest(393_216, false), 0xCC59_3283_A845_5A66);
        assert_eq!(digest(393_216, true), 0xCC59_3283_A845_5A66);
    }

    #[test]
    fn timeline_recording_captures_every_interval() {
        let mut config = SystemConfig::small_for_tests();
        config.record_timeline = true;
        let wl_cfg = jitgc_workload::WorkloadConfig::builder()
            .working_set_pages(config.ftl.user_pages() / 2)
            .duration(SimDuration::from_secs(20))
            .mean_iops(800.0)
            .seed(3)
            .build();
        let report = SsdSystem::new(
            config.clone(),
            Box::new(NoBgc),
            BenchmarkKind::Ycsb.build(wl_cfg),
        )
        .run();
        // One sample per flusher period over the run (±1 at the edges).
        let expected = report.duration_secs / config.flusher_period.as_secs_f64();
        assert!(
            (report.timeline.len() as f64 - expected).abs() <= 2.0,
            "{} samples for {expected:.1} intervals",
            report.timeline.len()
        );
        // Time strictly increases and WAF is sane everywhere.
        for pair in report.timeline.windows(2) {
            assert!(pair[0].t_secs < pair[1].t_secs);
        }
        assert!(report.timeline.iter().all(|s| s.waf >= 1.0));
    }

    #[test]
    fn timeline_off_by_default() {
        let report = run(Box::new(NoBgc), BenchmarkKind::Ycsb, 5, 3);
        assert!(report.timeline.is_empty());
    }

    #[test]
    fn phase_profiling_is_opt_in_and_does_not_change_results() {
        let cfg = SystemConfig::small_for_tests();
        let make = || {
            let wl_cfg = WorkloadConfig::builder()
                .working_set_pages(cfg.ftl.user_pages() / 2)
                .duration(SimDuration::from_secs(20))
                .mean_iops(1_500.0)
                .seed(3)
                .build();
            SsdSystem::new(
                cfg.clone(),
                Box::new(JitGc::from_system_config(&cfg)),
                BenchmarkKind::Ycsb.build(wl_cfg),
            )
        };
        let mut plain = make();
        let base = plain.run();
        assert_eq!(
            plain.phase_profile(),
            crate::system::PhaseProfile::default()
        );

        let mut profiled = make();
        profiled.enable_phase_profiling();
        let report = profiled.run();
        let profile = profiled.phase_profile();
        assert!(profile.accounted() > std::time::Duration::ZERO);
        assert!(profile.request_execution > std::time::Duration::ZERO);
        // Profiling is observation only: the simulated results match.
        assert_eq!(report.ops, base.ops);
        assert_eq!(report.waf, base.waf);
        assert_eq!(report.nand_erases, base.nand_erases);
        assert_eq!(report.latency_p99_us, base.latency_p99_us);
    }

    /// A workload with long inter-burst idle gaps: low IOPS, large
    /// bursts, so the engine crosses many consecutive zero-traffic ticks
    /// (the quiescence fast-forward's target regime).
    fn bursty_idle_system(policy: Box<dyn GcPolicy>, secs: u64, seed: u64) -> SsdSystem {
        let config = SystemConfig::small_for_tests();
        let wl_cfg = WorkloadConfig::builder()
            .working_set_pages(config.ftl.user_pages() / 2)
            .duration(SimDuration::from_secs(secs))
            .mean_iops(1.0)
            .burst_mean(600.0)
            .seed(seed)
            .build();
        let workload = BenchmarkKind::Ycsb.build(wl_cfg);
        SsdSystem::new(config, policy, workload)
    }

    #[test]
    fn fast_forward_skips_idle_ticks_and_preserves_the_report() {
        // ~1 IOPS with 600-request bursts → ~10-minute idle gaps, far
        // past the ~(N_wb + CDH window) warm-up the fixed point needs.
        let cfg = SystemConfig::small_for_tests();
        let mut on = bursty_idle_system(Box::new(JitGc::from_system_config(&cfg)), 4_000, 21);
        let mut off = bursty_idle_system(Box::new(JitGc::from_system_config(&cfg)), 4_000, 21);
        off.set_fast_forward(false);
        let report_on = on.run();
        let report_off = off.run();
        assert!(
            on.ticks_skipped() > 50,
            "idle-heavy run skipped only {} ticks in {} spans",
            on.ticks_skipped(),
            on.ff_spans()
        );
        assert!(on.ff_spans() > 0);
        assert_eq!(off.ticks_skipped(), 0, "switch off ⇒ pure per-tick loop");
        assert_eq!(off.ff_spans(), 0);
        // Byte-identical reports across the switch.
        assert_eq!(
            serde_json_like(&report_on),
            serde_json_like(&report_off),
            "fast-forward changed the simulation"
        );
    }

    /// Debug-printable full-report comparison without requiring serde in
    /// the default build.
    fn serde_json_like(report: &SimReport) -> String {
        format!("{report:?}")
    }

    #[test]
    fn fast_forward_handles_all_quiescent_policies() {
        let cfg = SystemConfig::small_for_tests();
        let policies: Vec<Box<dyn GcPolicy>> = vec![
            Box::new(NoBgc),
            PolicyKind::L_BGC.build(&cfg),
            PolicyKind::Adp.build(&cfg),
            Box::new(JitGc::from_system_config(&cfg)),
        ];
        for policy in policies {
            let name = policy.name();
            let mut sys = bursty_idle_system(policy, 3_000, 33);
            let _ = sys.run();
            assert!(
                sys.ticks_skipped() > 0,
                "{name}: no ticks skipped on an idle-heavy run"
            );
        }
    }

    #[test]
    fn pending_predictions_stay_bounded_on_long_runs() {
        // The only per-tick history the engine keeps is the queue of
        // predictions whose horizon is still open: at most N_wb of them,
        // never one entry per elapsed tick. 2000 s at a 5 s period is 400
        // ticks; the bound is far below that and independent of run
        // length.
        let cfg = SystemConfig::small_for_tests();
        for (policy, label) in [
            (
                Box::new(JitGc::from_system_config(&cfg)) as Box<dyn GcPolicy>,
                "JIT-GC",
            ),
            (Box::new(NoBgc) as Box<dyn GcPolicy>, "No-BGC"),
        ] {
            let mut sys = bursty_idle_system(policy, 2_000, 7);
            sys.set_fast_forward(false); // worst case: every tick issues
            let _ = sys.run();
            assert!(
                sys.pending_predictions_len() <= cfg.nwb(),
                "{label}: {} pending predictions > N_wb {}",
                sys.pending_predictions_len(),
                cfg.nwb()
            );
        }
    }

    #[test]
    fn report_duration_covers_the_run() {
        let report = run(Box::new(NoBgc), BenchmarkKind::Bonnie, 12, 8);
        assert!(report.duration_secs >= 11.0, "{}", report.duration_secs);
        // Closed loop: stalls can stretch but never shrink the schedule.
        assert!(report.duration_secs < 60.0);
    }

    #[test]
    fn all_benchmarks_run_under_jit() {
        let cfg = SystemConfig::small_for_tests();
        for kind in BenchmarkKind::all() {
            let report = run(Box::new(JitGc::from_system_config(&cfg)), kind, 15, 11);
            assert!(report.ops > 1_000, "{kind}: ops {}", report.ops);
            let waf = report.waf.expect("host writes happened");
            assert!(waf >= 1.0, "{kind}: waf {waf}");
        }
    }
}
