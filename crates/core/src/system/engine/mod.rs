//! The simulation engine: the system, its stepping API and shared helpers.

pub(super) mod prefetch;
mod quiescence;
mod report;
mod request;
mod tick;

use super::scorer::HorizonScorer;
use crate::policy::GcPolicy;
use crate::predictor::{AccuracyTracker, BufferedWritePredictor, DirectWritePredictor};
use crate::system::{ClosedLoop, ManagerPlacement, PhaseProfile, SimReport, SystemConfig};
use jitgc_ftl::{Ftl, SipList};
use jitgc_nand::Lpn;
use jitgc_pagecache::PageCache;
use jitgc_sim::stats::LatencyRecorder;
use jitgc_sim::{ByteSize, SimDuration, SimTime};
use jitgc_workload::{IoRequest, NullWorkload, Workload};
use quiescence::Quiescence;
pub use quiescence::{FfGate, FfRefusals};
use std::time::Duration;

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
    /// Written by [`occupy`](SsdSystem::occupy) alone, and by the
    /// fast-forward's closed form of many ticks' SG_IO commands.
    device_busy_until: SimTime,
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

    /// The quiescence fast-forward's certificate (DESIGN.md §15).
    quiescence: Quiescence,

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
    ///
    /// # Panics
    ///
    /// Panics if the cache's flusher period is not `config.flusher_period`
    /// ([`SystemConfig::validate`] names that and every other broken
    /// rule).
    #[must_use]
    pub fn new(
        config: SystemConfig,
        policy: Box<dyn GcPolicy>,
        workload: Box<dyn Workload>,
    ) -> Self {
        // The engine ticks the flusher every `config.flusher_period`, so
        // that is the period of the cache's flusher clock: its dirty-age
        // epoch counters are what `predict_into` reads at every tick.
        assert_eq!(
            config.cache.flusher_period(),
            config.flusher_period,
            "the cache's flusher period must be the engine's tick period"
        );
        let ftl = Ftl::new(config.ftl.clone(), config.victim.build());
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
            next_tick: SimTime::ZERO + config.flusher_period,
            target_free: ByteSize::ZERO,
            target_free_pages: 0,
            last_buffered_demand: 0,
            last_direct_demand: 0,
            direct_bytes_interval: 0,
            host_pages_at_tick: 0,
            scorer: HorizonScorer::default(),
            quiescence: Quiescence::default(),
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

    /// Runs `f`, adding its wall time to `phase` of the profile when
    /// profiling is on: the one stopwatch of every phase.
    fn timed<R>(
        &mut self,
        phase: fn(&mut PhaseProfile) -> &mut Duration,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let t0 = self.profile_enabled.then(std::time::Instant::now);
        let out = f(self);
        if let Some(t0) = t0 {
            *phase(&mut self.profile) += t0.elapsed();
        }
        out
    }

    /// Gives the device `took` of work that can start no earlier than
    /// `from` nor before it finishes what it has accepted; returns when
    /// the work ends. The one writer of the device timeline between
    /// fast-forwards.
    fn occupy(&mut self, from: SimTime, took: SimDuration) -> SimTime {
        self.device_busy_until = from.max(self.device_busy_until) + took;
        self.device_busy_until
    }

    /// The device time one tick's extended-interface exchange costs, or
    /// `None` when no tick pays one. With the manager in the host (the
    /// paper's actual implementation, Fig. 3(b)) a SIP-using policy pays
    /// four SG_IO commands per tick: the paper measured ~160 µs each, and
    /// JIT-GC exchanges demands, the SIP list, `C_free` and the BGC
    /// command. The ideal in-device manager (Fig. 3(a)) pays nothing.
    fn sg_io_cost(&self) -> Option<SimDuration> {
        (self.policy.uses_sip() && self.config.manager_placement == ManagerPlacement::Host)
            .then(|| self.config.host_command_overhead.saturating_mul(4))
    }

    fn page_size(&self) -> ByteSize {
        self.config.ftl.geometry().page_size()
    }

    /// Runs the workload to exhaustion on [`ClosedLoop::run`], one
    /// [`step`](SsdSystem::step) per request, and reports.
    ///
    /// # Panics
    ///
    /// Panics if the FTL signals an unrecoverable condition (no
    /// reclaimable space), which indicates a misconfigured experiment,
    /// or with the workload's own message if generating a request panics.
    pub fn run(&mut self) -> SimReport {
        if self.config.prefill {
            self.prefill();
        }
        // A stand-in holds the workload's place while the run lends it out.
        let stand_in = NullWorkload::new(
            self.workload.name(),
            self.workload.working_set_pages(),
            self.workload.write_mix(),
        );
        let mut workload = std::mem::replace(&mut self.workload, Box::new(stand_in));
        let end = ClosedLoop::run(self.config.queue_depth, workload.as_mut(), |req, issue| {
            self.step(req, issue)
        });
        self.workload = workload;
        self.finalize(end)
    }

    /// Issues one request at simulated time `issue` and returns its
    /// completion time. Runs the exact per-request sequence of
    /// [`run`](SsdSystem::run): periodic host work up to `issue`,
    /// background GC in the idle gap, then the request itself, recorded
    /// in this system's latency and request counters.
    ///
    /// This is the hook an external scheduler (the array layer) uses to
    /// advance members in virtual-time lockstep from its own
    /// [`ClosedLoop::run`], which deals the issue times.
    pub fn step(&mut self, req: IoRequest, issue: SimTime) -> SimTime {
        self.advance_to(issue);
        let completion = self.timed(|p| &mut p.request_execution, |s| s.execute(req, issue));
        self.latencies.record(completion.saturating_since(issue));
        self.ops += 1;
        completion
    }

    /// Processes periodic host work (flusher, predictors, policy) and
    /// idle-gap background GC up to time `t` without issuing a request —
    /// how an external scheduler lets a member's clock advance through a
    /// stretch where no request touched it. It is also the preamble of
    /// [`step`](Self::step), so every tick — looped or fast-forwarded —
    /// and the fast-forward decision funnel through one place.
    pub fn advance_to(&mut self, t: SimTime) {
        if self.next_tick <= t {
            self.timed(|p| &mut p.tick, |s| s.process_ticks_until(t));
        }
        self.run_bgc_in_gap(t);
    }

    /// Builds the final report, treating `end` as the run's end time
    /// (callers that drive the engine via [`step`](SsdSystem::step) own
    /// the schedule and therefore know when the run ended).
    pub fn finalize(&mut self, end: SimTime) -> SimReport {
        self.timed(|p| &mut p.reporting, |s| s.build_report(end))
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

    /// Read-only access to the FTL (for tests and examples).
    #[must_use]
    pub fn ftl(&self) -> &Ftl {
        &self.ftl
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
    use jitgc_workload::{BenchmarkKind, IoKind, WorkloadConfig};

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
